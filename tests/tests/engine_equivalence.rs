//! The reproduction's central correctness invariant: TQF, M1 and M2 are
//! *interchangeable* — same events, same join result, for every query
//! window — differing only in cost. If this holds, every performance
//! comparison in the benchmark harness compares like with like.

use fabric_kvstore::Backend;
use fabric_ledger::{Ledger, LedgerConfig};
use fabric_workload::dataset::{generate_scaled, DatasetId};
use fabric_workload::generator::{EventDistribution, GeneratedWorkload, WorkloadParams};
use fabric_workload::ingest::{ingest, IdentityEncoder, IngestMode};
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
            "equiv-test-{}-{tag}-{:?}",
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

/// Build the three ledgers (base+M1, M2) for a workload and check
/// equivalence over `taus`.
fn assert_equivalent(
    tag: &str,
    workload: &GeneratedWorkload,
    mode: IngestMode,
    u: u64,
    taus: &[Interval],
) {
    let dir = TempDir::new(tag);
    let t_max = workload.params.t_max;

    let base = Ledger::open(dir.0.join("base"), LedgerConfig::default()).unwrap();
    ingest(&base, &workload.events, mode, &IdentityEncoder).unwrap();
    let strategy = FixedLength { u };
    M1Indexer::fixed(&strategy)
        .run_epoch(&base, &workload.keys(), Interval::new(0, t_max))
        .unwrap();

    let m2 = Ledger::open(dir.0.join("m2"), LedgerConfig::default()).unwrap();
    ingest(&m2, &workload.events, mode, &M2Encoder { u }).unwrap();

    let m2_engine = M2Engine { u };
    for &tau in taus {
        // Per-key event equivalence.
        for key in workload.keys() {
            let a = TqfEngine.events_for_key(&base, key, tau).unwrap();
            let b = M1Engine::default().events_for_key(&base, key, tau).unwrap();
            let c = m2_engine.events_for_key(&m2, key, tau).unwrap();
            assert_eq!(a, b, "[{tag}] TQF vs M1 for {key} over {tau}");
            assert_eq!(a, c, "[{tag}] TQF vs M2 for {key} over {tau}");
        }
        // Join equivalence.
        let a = ferry_query(&TqfEngine, &base, tau).unwrap();
        let b = ferry_query(&M1Engine::default(), &base, tau).unwrap();
        let c = ferry_query(&m2_engine, &m2, tau).unwrap();
        assert_eq!(a.records, b.records, "[{tag}] join TQF vs M1 over {tau}");
        assert_eq!(a.records, c.records, "[{tag}] join TQF vs M2 over {tau}");
        assert_eq!(a.events_scanned, b.events_scanned);
        assert_eq!(a.events_scanned, c.events_scanned);
    }
}

fn windows(t_max: u64) -> Vec<Interval> {
    vec![
        Interval::new(0, t_max / 10),                 // leftmost
        Interval::new(t_max / 3, t_max / 2),          // middle, unaligned
        Interval::new(t_max - t_max / 10, t_max),     // rightmost
        Interval::new(0, t_max),                      // everything
        Interval::new(t_max / 7 + 1, t_max / 7 + 13), // tiny, odd offsets
    ]
}

#[test]
fn ds3_uniform_se_equivalence() {
    let workload = generate_scaled(DatasetId::Ds3, 40);
    let t_max = workload.params.t_max;
    assert_equivalent(
        "ds3-se",
        &workload,
        IngestMode::SingleEvent,
        t_max / 25,
        &windows(t_max),
    );
}

#[test]
fn ds3_uniform_me_equivalence() {
    let workload = generate_scaled(DatasetId::Ds3, 40);
    let t_max = workload.params.t_max;
    assert_equivalent(
        "ds3-me",
        &workload,
        IngestMode::MultiEvent,
        t_max / 25,
        &windows(t_max),
    );
}

#[test]
fn ds2_zipf_me_equivalence() {
    let workload = generate_scaled(DatasetId::Ds2, 300);
    let t_max = workload.params.t_max;
    assert_equivalent(
        "ds2-me",
        &workload,
        IngestMode::MultiEvent,
        t_max / 25,
        &windows(t_max),
    );
}

#[test]
fn u_not_dividing_t_max_equivalence() {
    // u = 7 leaves a ragged final interval; everything must still agree.
    let workload = GeneratedWorkload::generate(WorkloadParams {
        shipments: 6,
        containers: 3,
        trucks: 2,
        events_per_key: 30,
        distribution: EventDistribution::Uniform,
        t_max: 997, // prime: no alignment anywhere
        seed: 11,
    });
    assert_equivalent(
        "ragged-u",
        &workload,
        IngestMode::MultiEvent,
        7,
        &windows(997),
    );
}

#[test]
fn u_larger_than_t_max_equivalence() {
    let workload = GeneratedWorkload::generate(WorkloadParams {
        shipments: 4,
        containers: 2,
        trucks: 2,
        events_per_key: 20,
        distribution: EventDistribution::Uniform,
        t_max: 500,
        seed: 3,
    });
    assert_equivalent(
        "huge-u",
        &workload,
        IngestMode::SingleEvent,
        10_000,
        &windows(500),
    );
}

#[test]
fn read_path_overhaul_keeps_engines_bit_identical() {
    // The read-path overhaul (coalesced history runs + selective tx decode
    // + sharded block cache) must be invisible to every engine: identical
    // join records and event counts with the overhaul on vs. the seed
    // per-location, uncached path.
    let workload = generate_scaled(DatasetId::Ds3, 40);
    let t_max = workload.params.t_max;
    let u = t_max / 25;
    let dir = TempDir::new("overhaul");

    let overhaul_cfg = || LedgerConfig::default().with_cache_blocks(256);
    let seed_cfg = || LedgerConfig::default().with_coalesce_history(false);

    let build_base = |sub: &str, config: LedgerConfig| -> Ledger {
        let ledger = Ledger::open(dir.0.join(sub), config).unwrap();
        ingest(
            &ledger,
            &workload.events,
            IngestMode::MultiEvent,
            &IdentityEncoder,
        )
        .unwrap();
        let strategy = FixedLength { u };
        M1Indexer::fixed(&strategy)
            .run_epoch(&ledger, &workload.keys(), Interval::new(0, t_max))
            .unwrap();
        ledger
    };
    let build_m2 = |sub: &str, config: LedgerConfig| -> Ledger {
        let ledger = Ledger::open(dir.0.join(sub), config).unwrap();
        ingest(
            &ledger,
            &workload.events,
            IngestMode::MultiEvent,
            &M2Encoder { u },
        )
        .unwrap();
        ledger
    };

    let base_on = build_base("base-on", overhaul_cfg());
    let base_off = build_base("base-off", seed_cfg());
    let m2_on = build_m2("m2-on", overhaul_cfg());
    let m2_off = build_m2("m2-off", seed_cfg());

    let m1_engine = M1Engine::default();
    let m2_engine = M2Engine { u };
    for tau in windows(t_max) {
        // Run each window twice so the second pass hits the warm cache on
        // the overhaul ledgers — results must not depend on cache state.
        for pass in 0..2 {
            for (name, ledger_on, ledger_off) in [
                ("tqf", &base_on, &base_off),
                ("m1", &base_on, &base_off),
                ("m2", &m2_on, &m2_off),
            ] {
                let engine: &dyn TemporalEngine = match name {
                    "tqf" => &TqfEngine,
                    "m1" => &m1_engine,
                    _ => &m2_engine,
                };
                let a = ferry_query(engine, ledger_on, tau).unwrap();
                let b = ferry_query(engine, ledger_off, tau).unwrap();
                assert_eq!(
                    a.records, b.records,
                    "{name} records diverged over {tau} (pass {pass})"
                );
                assert_eq!(
                    a.events_scanned, b.events_scanned,
                    "{name} events_scanned diverged over {tau} (pass {pass})"
                );
            }
        }
    }
}

/// Every `blockfile_*` under `dir`, name-sorted, with its exact bytes.
fn read_blockfiles(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("blockfile_") {
            out.push((name, std::fs::read(entry.path()).unwrap()));
        }
    }
    out.sort();
    out
}

#[test]
fn log_backend_is_equivalent_to_lsm() {
    // The storage-engine boundary must be invisible above the kvstore:
    // the same workload ingested on the LSM and on the value-log engine
    // produces bit-identical blockfiles, identical current state
    // (including the M1 EV-set rows and the null tombstones the indexer
    // writes), identical GHFK history, and identical query answers with
    // identical cost counters.
    let workload = generate_scaled(DatasetId::Ds3, 40);
    let t_max = workload.params.t_max;
    let u = t_max / 25;
    let dir = TempDir::new("backend");

    let build_base = |sub: &str, backend: Backend| -> Ledger {
        let config = LedgerConfig::default().with_backend(backend);
        let ledger = Ledger::open(dir.0.join(sub), config).unwrap();
        ingest(
            &ledger,
            &workload.events,
            IngestMode::MultiEvent,
            &IdentityEncoder,
        )
        .unwrap();
        let strategy = FixedLength { u };
        M1Indexer::fixed(&strategy)
            .run_epoch(&ledger, &workload.keys(), Interval::new(0, t_max))
            .unwrap();
        ledger
    };
    let lsm = build_base("lsm", Backend::Lsm);
    let log = build_base("log", Backend::Log);

    assert_eq!(lsm.height(), log.height());
    assert_eq!(lsm.last_hash(), log.last_hash(), "identical hash chains");
    assert_eq!(
        read_blockfiles(&dir.0.join("lsm").join("blocks")),
        read_blockfiles(&dir.0.join("log").join("blocks")),
        "bit-identical block files"
    );
    assert_eq!(
        lsm.get_state_by_range(None, None).unwrap(),
        log.get_state_by_range(None, None).unwrap(),
        "identical current state (events + M1 index rows)"
    );
    for key in workload.keys() {
        let a: Vec<_> = lsm
            .get_history_for_key(&key.key())
            .unwrap()
            .collect_all()
            .unwrap();
        let b: Vec<_> = log
            .get_history_for_key(&key.key())
            .unwrap()
            .collect_all()
            .unwrap();
        assert_eq!(a, b, "GHFK history for {key}");
    }

    // The table-1 query suite: TQF (pure GHFK) and M1 (index-assisted)
    // per-key events plus the ferry join, over every window shape.
    let m1_engine = M1Engine::default();
    for tau in windows(t_max) {
        for key in workload.keys() {
            assert_eq!(
                TqfEngine.events_for_key(&lsm, key, tau).unwrap(),
                TqfEngine.events_for_key(&log, key, tau).unwrap(),
                "TQF events for {key} over {tau}"
            );
            assert_eq!(
                m1_engine.events_for_key(&lsm, key, tau).unwrap(),
                m1_engine.events_for_key(&log, key, tau).unwrap(),
                "M1 events for {key} over {tau}"
            );
        }
        let a = ferry_query(&TqfEngine, &lsm, tau).unwrap();
        let b = ferry_query(&TqfEngine, &log, tau).unwrap();
        assert_eq!(a.records, b.records, "TQF join over {tau}");
        assert_eq!(a.events_scanned, b.events_scanned, "TQF cost over {tau}");
        let a = ferry_query(&m1_engine, &lsm, tau).unwrap();
        let b = ferry_query(&m1_engine, &log, tau).unwrap();
        assert_eq!(a.records, b.records, "M1 join over {tau}");
        assert_eq!(a.events_scanned, b.events_scanned, "M1 cost over {tau}");
    }
}

#[test]
fn log_backend_m2_matches_lsm_m2() {
    // Same check for the M2 interval-encoded layout, whose values are
    // rewritten in place far more often — the compaction-heavy shape.
    let workload = generate_scaled(DatasetId::Ds3, 40);
    let t_max = workload.params.t_max;
    let u = t_max / 25;
    let dir = TempDir::new("backend-m2");

    let build = |sub: &str, backend: Backend| -> Ledger {
        let config = LedgerConfig::default().with_backend(backend);
        let ledger = Ledger::open(dir.0.join(sub), config).unwrap();
        ingest(
            &ledger,
            &workload.events,
            IngestMode::MultiEvent,
            &M2Encoder { u },
        )
        .unwrap();
        ledger
    };
    let lsm = build("lsm", Backend::Lsm);
    let log = build("log", Backend::Log);
    assert_eq!(lsm.last_hash(), log.last_hash());
    assert_eq!(
        lsm.get_state_by_range(None, None).unwrap(),
        log.get_state_by_range(None, None).unwrap()
    );
    let m2_engine = M2Engine { u };
    for tau in windows(t_max) {
        let a = ferry_query(&m2_engine, &lsm, tau).unwrap();
        let b = ferry_query(&m2_engine, &log, tau).unwrap();
        assert_eq!(a.records, b.records, "M2 join over {tau}");
        assert_eq!(a.events_scanned, b.events_scanned, "M2 cost over {tau}");
    }
}

#[test]
fn log_backend_reopens_after_torn_index_tail() {
    // Crash simulation on the value-log engine: tear the tail off the
    // index store's newest data file (dropping the final batch — the last
    // block's index rows and chain tip), then reopen. The vlog recovery
    // truncates the torn record and ledger recovery re-applies the lost
    // block from the blockfiles, converging to the LSM ledger's answers.
    let workload = generate_scaled(DatasetId::Ds3, 40);
    let t_max = workload.params.t_max;
    let dir = TempDir::new("backend-crash");

    let build = |sub: &str, backend: Backend| {
        let config = LedgerConfig::default().with_backend(backend);
        let ledger = Ledger::open(dir.0.join(sub), config).unwrap();
        ingest(
            &ledger,
            &workload.events,
            IngestMode::MultiEvent,
            &IdentityEncoder,
        )
        .unwrap();
        ledger
    };
    let lsm = build("lsm", Backend::Lsm);
    let want_height = lsm.height();
    let want = ferry_query(&TqfEngine, &lsm, Interval::new(0, t_max))
        .unwrap()
        .records;
    drop(build("log", Backend::Log));

    let index_dir = dir.0.join("log").join("index");
    let mut vlogs: Vec<_> = std::fs::read_dir(&index_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "vlog"))
        .collect();
    vlogs.sort();
    let newest = vlogs.last().expect("index store holds data files");
    let data = std::fs::read(newest).unwrap();
    assert!(data.len() > 16, "active file must hold records");
    std::fs::write(newest, &data[..data.len() - 9]).unwrap();

    // Auto resolves the on-disk marker back to the log engine.
    let log = Ledger::open(dir.0.join("log"), LedgerConfig::default()).unwrap();
    assert_eq!(log.height(), want_height, "lost block re-applied");
    log.verify_chain().unwrap();
    let got = ferry_query(&TqfEngine, &log, Interval::new(0, t_max))
        .unwrap()
        .records;
    assert_eq!(got, want, "answers identical after crash recovery");

    // Losing the stores entirely also rebuilds — but a bare directory no
    // longer carries the engine marker, so the backend must be named.
    std::fs::remove_dir_all(dir.0.join("log").join("index")).unwrap();
    std::fs::remove_dir_all(dir.0.join("log").join("state")).unwrap();
    drop(log);
    let log = Ledger::open(
        dir.0.join("log"),
        LedgerConfig::default().with_backend(Backend::Log),
    )
    .unwrap();
    assert_eq!(log.height(), want_height);
    let got = ferry_query(&TqfEngine, &log, Interval::new(0, t_max))
        .unwrap()
        .records;
    assert_eq!(got, want, "answers identical after full store rebuild");
}

#[test]
fn periodic_m1_equals_oneshot_m1() {
    // Indexing in 4 epochs must answer identically to indexing in 1.
    let workload = generate_scaled(DatasetId::Ds3, 40);
    let t_max = workload.params.t_max;
    let u = t_max / 20;
    let dir = TempDir::new("periodic-vs-oneshot");

    let build = |sub: &str, epochs: u64| -> Ledger {
        let ledger = Ledger::open(dir.0.join(sub), LedgerConfig::default()).unwrap();
        ingest(
            &ledger,
            &workload.events,
            IngestMode::MultiEvent,
            &IdentityEncoder,
        )
        .unwrap();
        let strategy = FixedLength { u };
        let indexer = M1Indexer::fixed(&strategy);
        for e in 1..=epochs {
            indexer
                .run_epoch(
                    &ledger,
                    &workload.keys(),
                    Interval::new(t_max * (e - 1) / epochs, t_max * e / epochs),
                )
                .unwrap();
        }
        ledger
    };
    let oneshot = build("oneshot", 1);
    let periodic = build("periodic", 4);
    for tau in windows(t_max) {
        let a = ferry_query(&M1Engine::default(), &oneshot, tau).unwrap();
        let b = ferry_query(&M1Engine::default(), &periodic, tau).unwrap();
        assert_eq!(
            a.records, b.records,
            "epoch count must not affect answers ({tau})"
        );
    }
}
