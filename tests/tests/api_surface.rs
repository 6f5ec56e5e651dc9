//! Edge-case coverage across the public API surface: empty ledgers,
//! boundary queries, iterator hints, engine behaviour on absent data.

use fabric_ledger::{Ledger, LedgerConfig, TxSimulator};
use fabric_workload::dataset::{generate_scaled, DatasetId};
use fabric_workload::ingest::{ingest, IdentityEncoder, IngestMode};
use fabric_workload::{EntityId, EntityKind, Event, EventKind};
use temporal_core::interval::Interval;
use temporal_core::join::ferry_query;
use temporal_core::m1::{M1Engine, M1Indexer};
use temporal_core::m2::{M2Encoder, M2Engine};
use temporal_core::partition::FixedLength;
use temporal_core::tqf::TqfEngine;
use temporal_core::TemporalEngine;

struct TempDir(std::path::PathBuf);
impl TempDir {
    fn new(tag: &str) -> Self {
        let p = std::env::temp_dir().join(format!(
            "api-test-{}-{tag}-{:?}",
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
fn config_surface_is_sixteen_knobs() {
    // Both patterns are exhaustive on purpose (no `..`): a field added to
    // either struct fails to compile here until it is listed and counted,
    // so the knob count in CHANGES.md cannot drift unnoticed.
    let LedgerConfig {
        block_max_txs: _,
        block_max_bytes: _,
        blockfile_max_bytes: _,
        cache_blocks,
        coalesce_history,
        state_db,
        index_db: _,
        backend: _,
    } = LedgerConfig::default();
    let fabric_kvstore::Options {
        memtable_max_bytes: _,
        sync_wal,
        sparse_index_interval: _,
        bloom_bits_per_key: _,
        compaction_trigger: _,
        backend: _,
        log_file_max_bytes: _,
        log_compaction_bytes: _,
    } = state_db;
    // The paper's cost model is the default: no cache, buffered WALs;
    // only read coalescing (counter-neutral) is on.
    assert_eq!(cache_blocks, 0);
    assert!(!sync_wal);
    assert!(coalesce_history);
}

#[test]
fn cli_option_surface_is_thirty_three_names() {
    // `tfq` is a binary, so its option table is read from the source. A
    // new `--name` fails here until it is listed, as a new config field
    // does above.
    let src = include_str!("../../crates/cli/src/commands.rs");
    let table = src
        .split("const OPTIONS: &[&str] = &[")
        .nth(1)
        .and_then(|rest| rest.split("];").next())
        .expect("commands.rs declares OPTIONS");
    let names: Vec<&str> = table
        .split(',')
        .map(|name| name.trim().trim_matches('"'))
        .filter(|name| !name.is_empty())
        .collect();
    #[rustfmt::skip]
    assert_eq!(names, [
        "adaptive", "addr", "addr-file", "backend", "cache-blocks", "coalesce", "counter-tol",
        "counter-tol-for", "engine", "export", "format", "from", "hz", "index-lag", "ingest",
        "key", "limit", "m2-u", "max-u", "min-u", "mode", "out", "requests", "scale", "shards",
        "slow-factor", "slow-log", "slow-ms", "time-slack", "time-tol", "to", "u", "workers",
    ]);
}

#[test]
fn queries_on_empty_ledger() {
    let dir = TempDir::new("empty");
    let ledger = Ledger::open(&dir.0, LedgerConfig::default()).unwrap();
    assert_eq!(ledger.height(), 0);
    assert_eq!(ledger.last_hash(), fabric_ledger::Digest::ZERO);
    ledger.verify_chain().unwrap();
    // TQF on nothing: zero keys, zero records, no error.
    let outcome = ferry_query(&TqfEngine, &ledger, Interval::new(0, 100)).unwrap();
    assert!(outcome.records.is_empty());
    assert_eq!(outcome.stats.ghfk_calls(), 0);
    // M2 likewise.
    let outcome = ferry_query(&M2Engine { u: 10 }, &ledger, Interval::new(0, 100)).unwrap();
    assert!(outcome.records.is_empty());
    // GHFK on a never-written key.
    let history = ledger
        .get_history_for_key(b"never")
        .unwrap()
        .collect_all()
        .unwrap();
    assert!(history.is_empty());
}

#[test]
fn history_iterator_remaining_hint_counts_down() {
    let dir = TempDir::new("hint");
    let ledger = Ledger::open(&dir.0, LedgerConfig::small_for_tests()).unwrap();
    for t in 1..=5u64 {
        let mut sim = TxSimulator::new(&ledger);
        let ev = Event {
            subject: EntityId::shipment(0),
            target: EntityId::container(0),
            time: t,
            kind: EventKind::Load,
        };
        sim.put_state(ev.key(), ev.encode_value());
        ledger.submit(sim.into_transaction(t).unwrap()).unwrap();
    }
    ledger.cut_block().unwrap();
    let mut iter = ledger
        .get_history_for_key(&EntityId::shipment(0).key())
        .unwrap();
    assert_eq!(iter.remaining_hint(), 5);
    iter.next().unwrap();
    iter.next().unwrap();
    assert_eq!(iter.remaining_hint(), 3);
}

#[test]
fn boundary_timestamps_are_half_open() {
    // An event exactly at tau.start is excluded; exactly at tau.end is
    // included — across all engines.
    let dir = TempDir::new("boundary");
    let events: Vec<Event> = [100u64, 200, 300]
        .iter()
        .map(|&t| Event {
            subject: EntityId::shipment(0),
            target: EntityId::container(0),
            time: t,
            kind: EventKind::Load,
        })
        .collect();
    let base = Ledger::open(dir.0.join("base"), LedgerConfig::default()).unwrap();
    ingest(&base, &events, IngestMode::SingleEvent, &IdentityEncoder).unwrap();
    let strategy = FixedLength { u: 100 };
    M1Indexer::fixed(&strategy)
        .run_epoch(&base, &[EntityId::shipment(0)], Interval::new(0, 300))
        .unwrap();
    let m2 = Ledger::open(dir.0.join("m2"), LedgerConfig::default()).unwrap();
    ingest(&m2, &events, IngestMode::SingleEvent, &M2Encoder { u: 100 }).unwrap();

    let tau = Interval::new(100, 200); // excludes 100, includes 200
    let tqf = TqfEngine
        .events_for_key(&base, EntityId::shipment(0), tau)
        .unwrap();
    let m1 = M1Engine::default()
        .events_for_key(&base, EntityId::shipment(0), tau)
        .unwrap();
    let m2e = M2Engine { u: 100 }
        .events_for_key(&m2, EntityId::shipment(0), tau)
        .unwrap();
    for (name, got) in [("tqf", &tqf), ("m1", &m1), ("m2", &m2e)] {
        let times: Vec<u64> = got.iter().map(|e| e.time).collect();
        assert_eq!(times, vec![200], "{name} boundary semantics");
    }
}

#[test]
fn m1_list_keys_ignores_index_artifacts() {
    // After M1 indexing, the state-db holds the meta key; entity listing
    // must not see it (or any composite residue).
    let dir = TempDir::new("listkeys");
    let workload = generate_scaled(DatasetId::Ds3, 100);
    let ledger = Ledger::open(&dir.0, LedgerConfig::default()).unwrap();
    ingest(
        &ledger,
        &workload.events,
        IngestMode::MultiEvent,
        &IdentityEncoder,
    )
    .unwrap();
    let before_ships = M1Engine::default()
        .list_keys(&ledger, EntityKind::Shipment)
        .unwrap();
    let strategy = FixedLength {
        u: workload.params.t_max / 10,
    };
    M1Indexer::fixed(&strategy)
        .run_epoch(
            &ledger,
            &workload.keys(),
            Interval::new(0, workload.params.t_max),
        )
        .unwrap();
    let after_ships = M1Engine::default()
        .list_keys(&ledger, EntityKind::Shipment)
        .unwrap();
    assert_eq!(before_ships, after_ships);
    let conts = M1Engine::default()
        .list_keys(&ledger, EntityKind::Container)
        .unwrap();
    assert_eq!(
        conts.len() as u32,
        workload.params.containers,
        "container listing intact"
    );
}

#[test]
fn engines_handle_key_with_no_events_in_window() {
    let dir = TempDir::new("no-events");
    let events = vec![Event {
        subject: EntityId::shipment(0),
        target: EntityId::container(0),
        time: 5000,
        kind: EventKind::Load,
    }];
    let base = Ledger::open(dir.0.join("base"), LedgerConfig::default()).unwrap();
    ingest(&base, &events, IngestMode::SingleEvent, &IdentityEncoder).unwrap();
    let strategy = FixedLength { u: 1000 };
    M1Indexer::fixed(&strategy)
        .run_epoch(&base, &[EntityId::shipment(0)], Interval::new(0, 10_000))
        .unwrap();
    // Window entirely before the event.
    let early = Interval::new(0, 1000);
    assert!(TqfEngine
        .events_for_key(&base, EntityId::shipment(0), early)
        .unwrap()
        .is_empty());
    assert!(M1Engine::default()
        .events_for_key(&base, EntityId::shipment(0), early)
        .unwrap()
        .is_empty());
    // Window entirely after.
    let late = Interval::new(9000, 10_000);
    assert!(TqfEngine
        .events_for_key(&base, EntityId::shipment(0), late)
        .unwrap()
        .is_empty());
    assert!(M1Engine::default()
        .events_for_key(&base, EntityId::shipment(0), late)
        .unwrap()
        .is_empty());
}

#[test]
fn ledger_stats_handle_is_shared() {
    let dir = TempDir::new("stats-handle");
    let ledger = Ledger::open(&dir.0, LedgerConfig::default()).unwrap();
    let handle = ledger.stats_handle();
    let before = handle.snapshot();
    let mut sim = TxSimulator::new(&ledger);
    sim.put_state(&b"k"[..], &b"v"[..]);
    ledger.submit(sim.into_transaction(1).unwrap()).unwrap();
    ledger.cut_block().unwrap();
    let after = handle.snapshot();
    assert_eq!(after.delta(&before).blocks_committed, 1);
    assert_eq!(after.delta(&before).txs_committed, 1);
}

#[test]
fn m2_base_key_space_isolated_from_base_layout() {
    // Mixing layouts in one ledger (not recommended, but possible): base
    // writes to `k` and M2 writes to `k#...` must not interfere.
    let dir = TempDir::new("mixed");
    let ledger = Ledger::open(&dir.0, LedgerConfig::default()).unwrap();
    let key = EntityId::shipment(0);
    let ev_base = Event {
        subject: key,
        target: EntityId::container(0),
        time: 50,
        kind: EventKind::Load,
    };
    let ev_m2 = Event {
        subject: key,
        target: EntityId::container(1),
        time: 150,
        kind: EventKind::Load,
    };
    ingest(
        &ledger,
        &[ev_base],
        IngestMode::SingleEvent,
        &IdentityEncoder,
    )
    .unwrap();
    ingest(
        &ledger,
        &[ev_m2],
        IngestMode::SingleEvent,
        &M2Encoder { u: 100 },
    )
    .unwrap();
    // TQF over the base key sees only the base event.
    let tqf = TqfEngine
        .events_for_key(&ledger, key, Interval::new(0, 200))
        .unwrap();
    assert_eq!(tqf.len(), 1);
    assert_eq!(tqf[0].time, 50);
    // M2 over the composite keys sees only the tagged event.
    let m2 = M2Engine { u: 100 }
        .events_for_key(&ledger, key, Interval::new(0, 200))
        .unwrap();
    assert_eq!(m2.len(), 1);
    assert_eq!(m2[0].time, 150);
}
