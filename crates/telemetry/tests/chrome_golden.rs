//! Golden-file test for the Chrome trace-event exporter: a fixed span
//! set must render byte-for-byte identically to `golden_chrome.json`.
//! If an exporter change is intentional, regenerate the golden with
//! `UPDATE_GOLDEN=1 cargo test -p fabric-telemetry --test chrome_golden`.
//!
//! The fixture mirrors what `tfq trace --export chrome` records on an
//! ingest + parallel query: one commit trace whose stage spans
//! ran on worker lanes, and one query trace with a per-key cursor span
//! on a fan-out lane.

use fabric_telemetry::{chrome_trace, SpanRecord};

fn span(
    id: u64,
    parent: Option<u64>,
    trace: u64,
    thread: u64,
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
) -> SpanRecord {
    SpanRecord {
        id,
        parent,
        trace,
        thread,
        name,
        label: None,
        start_ns,
        dur_ns,
        metrics: Vec::new(),
        alloc_bytes: 0,
        alloc_calls: 0,
        peak_bytes: 0,
    }
}

fn fixed_records() -> Vec<SpanRecord> {
    let mut commit = span(1, None, 1, 1, "ledger.commit", 0, 950_000);
    commit.label = Some("block 7".into());
    commit.metrics.push(("txs", 4));
    let mut append = span(2, Some(1), 1, 2, "commit.append", 120_000, 300_500);
    append.metrics.push(("bytes", 8_192));
    let index = span(3, Some(1), 1, 3, "commit.index", 430_000, 150_000);
    let statedb = span(4, Some(1), 1, 4, "commit.statedb", 430_250, 180_125);
    let mut query = span(5, None, 5, 1, "query.ferry.parallel", 1_000_000, 2_000_000);
    query.label = Some("Auto tau=(0,5000] workers=2".into());
    let mut worker = span(6, Some(5), 5, 9, "query.worker.key", 1_050_000, 900_000);
    worker.label = Some("S00001".into());
    worker.metrics.push(("events", 17));
    vec![commit, append, index, statedb, query, worker]
}

#[test]
fn exporter_matches_golden_file() {
    let rendered = chrome_trace(&fixed_records());
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_chrome.json");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(golden_path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        rendered, golden,
        "exporter output diverged from tests/golden_chrome.json; \
         if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn golden_file_keeps_the_trace_event_schema() {
    // Independent of exact bytes: the golden must stay loadable by
    // Perfetto / chrome://tracing. Checked structurally (no serde in the
    // workspace): balanced braces, the four required keys on every
    // complete event, metadata naming for processes and threads, and
    // parent links that reference a span in the same document.
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden_chrome.json"
    ))
    .unwrap();
    assert!(golden.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    assert!(golden.ends_with("]}"));
    // Brace balance only: square brackets also appear inside span labels
    // ("tau=(0,5000]"), so their raw counts don't pair up.
    assert_eq!(golden.matches('{').count(), golden.matches('}').count());

    let complete_events = golden.matches("\"ph\":\"X\"").count();
    assert!(
        complete_events >= 6,
        "lost complete events: {complete_events}"
    );
    for key in ["\"ts\":", "\"dur\":", "\"pid\":", "\"tid\":"] {
        assert!(
            golden.matches(key).count() >= complete_events,
            "complete events missing {key}"
        );
    }
    // Process rows are named after root spans; worker lanes get thread rows.
    assert!(golden.contains("\"name\":\"process_name\""));
    assert!(golden.contains("\"name\":\"thread_name\""));
    assert!(golden.contains("trace 1: ledger.commit[block 7]"));
    assert!(golden.contains("trace 5: query.ferry.parallel"));
    // Cross-thread stage spans keep their parent links in args.
    for parent in ["\"parent\":1", "\"parent\":5"] {
        assert!(golden.contains(parent), "missing {parent}");
    }
}
