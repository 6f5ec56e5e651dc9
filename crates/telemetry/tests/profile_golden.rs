//! Golden-file test for the collapsed-stack profile format: a fixed set
//! of samples must render byte-for-byte identically to
//! `golden_profile.collapsed`, and the output must satisfy the
//! flamegraph.pl / inferno grammar (`frame;frame;frame count\n` per
//! line, frames separated by `;`, a single space before the count).
//! If a format change is intentional, regenerate the golden with
//! `UPDATE_GOLDEN=1 cargo test -p fabric-telemetry --test profile_golden`.

use fabric_telemetry::Profile;

fn fixed_profile() -> Profile {
    let mut p = Profile::default();
    // Mirrors what the sampler sees on a sharded ingest + parallel
    // query: commit stacks on worker lanes, query stacks on the caller.
    for _ in 0..14 {
        p.record_sample(&["ledger.commit", "commit.append", "kv.wal.append"]);
    }
    for _ in 0..9 {
        p.record_sample(&["ledger.commit", "commit.statedb"]);
    }
    for _ in 0..25 {
        p.record_sample(&["query.ferry", "ghfk", "block.deserialize"]);
    }
    for _ in 0..6 {
        p.record_sample(&["query.ferry", "ghfk"]);
    }
    p.record_sample(&["ledger.commit"]);
    p
}

#[test]
fn collapsed_output_matches_golden_file() {
    let rendered = fixed_profile().collapsed();
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden_profile.collapsed"
    );
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(golden_path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        rendered, golden,
        "collapsed-stack output diverged from tests/golden_profile.collapsed; \
         if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn golden_file_keeps_the_flamegraph_grammar() {
    // Independent of exact bytes: every line must parse as
    // `frame(;frame)* count` — what inferno / flamegraph.pl consume.
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden_profile.collapsed"
    ))
    .unwrap();
    assert!(golden.ends_with('\n'), "must end with a trailing newline");
    let mut total = 0u64;
    let mut prev_stack = String::new();
    for line in golden.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("line needs `stack count`");
        assert!(!stack.is_empty(), "empty stack in {line:?}");
        assert!(
            stack.split(';').all(|f| !f.is_empty() && !f.contains(' ')),
            "malformed frame in {line:?}"
        );
        total += count.parse::<u64>().expect("count must be an integer");
        assert!(*stack > *prev_stack, "stacks must be sorted and unique");
        prev_stack = stack.to_string();
    }
    assert_eq!(
        total,
        fixed_profile().samples(),
        "counts must cover all samples"
    );
}
