//! Key-sharded commit equivalence.
//!
//! An N-shard [`ShardedLedger`] answers the paper's table-1-style queries
//! (per-key events, the ferry join, the planner's chosen access path)
//! bit-identically to a single ledger holding the same event stream, and
//! its one-shard layouts *are* that single ledger, byte for byte.

use fabric_ledger::{Ledger, LedgerConfig, ShardedLedger};
use fabric_workload::dataset::{generate_scaled, DatasetId};
use fabric_workload::ingest::{ingest, ingest_sharded, IdentityEncoder, IngestMode};
use temporal_core::interval::Interval;
use temporal_core::join::ferry_query;
use temporal_core::tqf::TqfEngine;
use temporal_core::{ferry_query_parallel, list_keys_sharded, AutoEngine, TemporalEngine};

struct TempDir(std::path::PathBuf);
impl TempDir {
    fn new(tag: &str) -> Self {
        let p = std::env::temp_dir().join(format!(
            "parallel-commit-{}-{tag}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }
}
impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn sharded_ledger_answers_table1_queries_like_a_single_ledger() {
    // The paper's table-1 shape: DS3 events, base-data encoding, queried
    // over the 9-window grid. A 4-shard ledger must give bit-identical
    // answers for events (per key), the ferry join, and the planner's
    // chosen access path.
    let workload = generate_scaled(DatasetId::Ds3, 4);
    let t_max = workload.params.t_max;
    let dir = TempDir::new("table1-shards");

    let plain = Ledger::open(dir.0.join("plain"), LedgerConfig::default()).unwrap();
    ingest(
        &plain,
        &workload.events,
        IngestMode::MultiEvent,
        &IdentityEncoder,
    )
    .unwrap();

    let sharded = ShardedLedger::create(dir.0.join("sharded"), LedgerConfig::default(), 4).unwrap();
    ingest_sharded(
        &sharded,
        &workload.events,
        IngestMode::MultiEvent,
        &IdentityEncoder,
    )
    .unwrap();
    assert!(
        sharded.heights().iter().filter(|h| **h > 0).count() > 1,
        "workload must actually spread across shards: {:?}",
        sharded.heights()
    );

    let keys =
        list_keys_sharded(&TqfEngine, &sharded, fabric_workload::EntityKind::Shipment).unwrap();
    assert!(!keys.is_empty());
    let w = t_max / 15;
    let windows: Vec<Interval> = [0u64, 1, 2, 6, 7, 8, 12, 13, 14]
        .iter()
        .map(|&i| Interval::new(i * w, (i + 1) * w))
        .collect();

    for &tau in &windows {
        // events: every key's answer, off the shard that owns the key.
        for &key in &keys {
            let single = TqfEngine.events_for_key(&plain, key, tau).unwrap();
            let shard = sharded.shard_for_key(&key.key());
            let multi = TqfEngine.events_for_key(shard, key, tau).unwrap();
            assert_eq!(single, multi, "events diverged for {key} over {tau}");

            // plan: base data on both sides (no M1 metadata), so the
            // planner must pick the same access path from either layout.
            // Block *bounds* are layout-dependent (each shard numbers its
            // own chain), so only the chosen path is comparable.
            let p1 = AutoEngine::default().choose(&plain, key, tau).unwrap();
            let pn = AutoEngine::default().choose(shard, key, tau).unwrap();
            assert_eq!(
                p1.path_label(),
                pn.path_label(),
                "planner path diverged for {key} over {tau}"
            );
        }

        // join: the full ferry answer.
        let single = ferry_query(&TqfEngine, &plain, tau).unwrap();
        let multi = ferry_query_parallel(&TqfEngine, &sharded, tau, 2).unwrap();
        assert_eq!(
            single.records, multi.records,
            "ferry join diverged over {tau}"
        );
    }
}

/// Every `blockfile_*` under `ledger_dir/blocks`, name-sorted, with its bytes.
fn blockfile_bytes(ledger_dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(ledger_dir.join("blocks"))
        .unwrap()
        .map(|e| e.unwrap())
        .map(|e| {
            let name = e.file_name().into_string().unwrap();
            (name, std::fs::read(e.path()).unwrap())
        })
        .filter(|(name, _)| name.starts_with("blockfile_"))
        .collect();
    files.sort();
    files
}

#[test]
fn root_layout_and_one_shard_layout_are_the_plain_ledger() {
    // The same DS3 stream into a plain `Ledger`, a handle opened on an
    // empty directory (root layout) and a handle created with one shard.
    let workload = generate_scaled(DatasetId::Ds3, 4);
    let dir = TempDir::new("layouts");
    let (events, mode) = (&workload.events, IngestMode::MultiEvent);
    let plain = Ledger::open(dir.0.join("plain"), LedgerConfig::default()).unwrap();
    let report = ingest(&plain, events, mode, &IdentityEncoder).unwrap();
    let root = ShardedLedger::open(dir.0.join("root"), LedgerConfig::default()).unwrap();
    let one = ShardedLedger::create(dir.0.join("one"), LedgerConfig::default(), 1).unwrap();
    for handle in [&root, &one] {
        let routed = ingest_sharded(handle, events, mode, &IdentityEncoder).unwrap();
        assert_eq!(
            (routed.events, routed.txs, routed.blocks),
            (report.events, report.txs, report.blocks)
        );
    }
    assert_eq!(root.sole().unwrap().dir(), dir.0.join("root"));
    assert_eq!(
        one.sole().unwrap().dir(),
        dir.0.join("one").join("shard-00")
    );
    assert_eq!(root.global_block_num(0, 41), 41);

    let tau = Interval::new(0, workload.params.t_max / 2);
    let want = ferry_query(&TqfEngine, &plain, tau).unwrap();
    assert!(!want.records.is_empty());
    let cost = |o: &temporal_core::JoinOutcome| {
        (
            o.events_scanned,
            o.stats.blocks_deserialized(),
            o.stats.ghfk_calls(),
        )
    };
    for handle in [&root, &one] {
        let ledger = handle.sole().unwrap();
        assert_eq!(blockfile_bytes(ledger.dir()), blockfile_bytes(plain.dir()));
        assert_eq!(
            handle.get_state_by_range(None, None).unwrap(),
            plain.get_state_by_range(None, None).unwrap()
        );
        let serial = ferry_query(&TqfEngine, ledger, tau).unwrap();
        assert_eq!(serial.records, want.records);
        assert_eq!(cost(&serial), cost(&want));
        // The fan-out over a one-partition handle is the serial join.
        for workers in [1, 4] {
            let fanned = ferry_query_parallel(&TqfEngine, handle, tau, workers).unwrap();
            assert_eq!(fanned.records, want.records, "workers={workers}");
            assert_eq!(cost(&fanned), cost(&want), "workers={workers}");
        }
    }
}
