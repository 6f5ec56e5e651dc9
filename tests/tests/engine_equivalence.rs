//! The reproduction's central correctness invariant: TQF, M1 and M2 are
//! *interchangeable* — same events, same join result, for every query
//! window — differing only in cost. If this holds, every performance
//! comparison in the benchmark harness compares like with like.

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
            let b = M1Engine.events_for_key(&base, key, tau).unwrap();
            let c = m2_engine.events_for_key(&m2, key, tau).unwrap();
            assert_eq!(a, b, "[{tag}] TQF vs M1 for {key} over {tau}");
            assert_eq!(a, c, "[{tag}] TQF vs M2 for {key} over {tau}");
        }
        // Join equivalence.
        let a = ferry_query(&TqfEngine, &base, tau).unwrap();
        let b = ferry_query(&M1Engine, &base, tau).unwrap();
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
        let a = ferry_query(&M1Engine, &oneshot, tau).unwrap();
        let b = ferry_query(&M1Engine, &periodic, tau).unwrap();
        assert_eq!(
            a.records, b.records,
            "epoch count must not affect answers ({tau})"
        );
    }
}
