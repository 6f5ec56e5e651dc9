//! Streaming-cursor and cost-based-planner integration tests.
//!
//! Three invariants from the streaming query core:
//!
//! 1. Draining a cursor costs exactly what the eager call costs (the
//!    eager path *is* a drained cursor), and partial consumption costs
//!    strictly fewer blocks — early termination is real, not cosmetic.
//! 2. The cost-based planner (`--engine auto`) never deserializes more
//!    blocks than the best fixed engine for the same query on a
//!    bench-style workload.
//! 3. (property) The auto-planned answer is byte-identical to every
//!    fixed engine across random windows, including windows entirely
//!    past the data and windows aligned to index-interval edges.

use fabric_ledger::{Ledger, LedgerConfig};
use fabric_workload::dataset::{generate_scaled, DatasetId};
use fabric_workload::generator::GeneratedWorkload;
use fabric_workload::ingest::{ingest, IdentityEncoder, IngestMode};
use fabric_workload::EntityId;
use proptest::prelude::*;
use proptest::test_runner::TestRunner;
use temporal_core::interval::Interval;
use temporal_core::m1::{M1Engine, M1Indexer};
use temporal_core::m2::{M2Encoder, M2Engine};
use temporal_core::partition::FixedLength;
use temporal_core::tqf::TqfEngine;
use temporal_core::{drain, AutoEngine, PlannerLog, TemporalEngine};

struct TempDir(std::path::PathBuf);
impl TempDir {
    fn new(tag: &str) -> Self {
        let p = std::env::temp_dir().join(format!(
            "streaming-planner-{}-{tag}-{:?}",
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

/// A base ledger (plain keys + M1 indexes over `(0, indexed_to]`) and an
/// M2 ledger (interval-tagged keys), both holding the same workload.
struct Fixture {
    _dir: TempDir,
    workload: GeneratedWorkload,
    base: Ledger,
    m2: Ledger,
    u: u64,
    t_max: u64,
    indexed_to: u64,
}

impl Fixture {
    /// `index_fraction` is how much of `(0, t_max]` gets M1-indexed, in
    /// u-aligned units; 1.0 mirrors the bench tables (fully indexed),
    /// less leaves an unindexed tail so auto plans the hybrid path.
    fn build(tag: &str, mode: IngestMode, index_fraction: f64) -> Fixture {
        let dir = TempDir::new(tag);
        let workload = generate_scaled(DatasetId::Ds3, 40);
        let t_max = workload.params.t_max;
        let u = t_max / 25;
        let indexed_to = (((t_max as f64 * index_fraction) as u64) / u).max(1) * u;

        let base = Ledger::open(dir.0.join("base"), LedgerConfig::default()).unwrap();
        ingest(&base, &workload.events, mode, &IdentityEncoder).unwrap();
        let strategy = FixedLength { u };
        M1Indexer::fixed(&strategy)
            .run_epoch(&base, &workload.keys(), Interval::new(0, indexed_to))
            .unwrap();

        let m2 = Ledger::open(dir.0.join("m2"), LedgerConfig::default()).unwrap();
        ingest(&m2, &workload.events, mode, &M2Encoder { u }).unwrap();

        Fixture {
            _dir: dir,
            workload,
            base,
            m2,
            u,
            t_max,
            indexed_to,
        }
    }

    fn keys(&self) -> Vec<EntityId> {
        self.workload.keys()
    }
}

/// Blocks and GHFK calls an engine spends answering one query.
fn cost(engine: &dyn TemporalEngine, ledger: &Ledger, key: EntityId, tau: Interval) -> (u64, u64) {
    let before = ledger.stats();
    engine.events_for_key(ledger, key, tau).unwrap();
    let d = ledger.stats().delta(&before);
    (d.blocks_deserialized, d.ghfk_calls)
}

#[test]
fn cursor_drain_matches_eager_cost_and_partial_consumption_costs_less() {
    let fx = Fixture::build("cursor-cost", IngestMode::SingleEvent, 1.0);
    let tau = Interval::new(0, fx.t_max);
    let m1 = M1Engine::default();
    let m2 = M2Engine { u: fx.u };
    let cases: [(&str, &dyn TemporalEngine, &Ledger); 3] = [
        ("tqf", &TqfEngine, &fx.base),
        ("m1", &m1, &fx.base),
        ("m2", &m2, &fx.m2),
    ];
    for (name, engine, ledger) in cases {
        for key in fx.keys() {
            // Eager call vs explicit cursor drain: identical events AND
            // identical I/O counters (the eager path is a drained cursor).
            let before = ledger.stats();
            let eager = engine.events_for_key(ledger, key, tau).unwrap();
            let d_eager = ledger.stats().delta(&before);

            let before = ledger.stats();
            let mut cursor = engine.events_cursor(ledger, key, tau).unwrap();
            let streamed = drain(cursor.as_mut()).unwrap();
            drop(cursor);
            let d_cursor = ledger.stats().delta(&before);

            assert_eq!(
                eager, streamed,
                "[{name}] {key}: cursor must stream the eager answer"
            );
            assert!(
                d_cursor.blocks_deserialized <= d_eager.blocks_deserialized,
                "[{name}] {key}: cursor blocks {} > eager {}",
                d_cursor.blocks_deserialized,
                d_eager.blocks_deserialized
            );
            assert!(
                d_cursor.ghfk_calls <= d_eager.ghfk_calls,
                "[{name}] {key}: cursor ghfk {} > eager {}",
                d_cursor.ghfk_calls,
                d_eager.ghfk_calls
            );

            // Consuming only the first event must stop the scan early:
            // strictly fewer blocks than the full drain whenever the full
            // drain needed more than one block.
            if !eager.is_empty() && d_eager.blocks_deserialized > 1 {
                let before = ledger.stats();
                let mut cursor = engine.events_cursor(ledger, key, tau).unwrap();
                assert!(cursor.next_event().unwrap().is_some());
                drop(cursor);
                let d_partial = ledger.stats().delta(&before);
                assert!(
                    d_partial.blocks_deserialized < d_eager.blocks_deserialized,
                    "[{name}] {key}: partial consumption read {} blocks, full drain {}",
                    d_partial.blocks_deserialized,
                    d_eager.blocks_deserialized
                );
            }
        }
    }
}

#[test]
fn auto_planner_never_beaten_by_a_fixed_engine() {
    // Fully indexed base ledger, like the bench tables.
    let fx = Fixture::build("auto-vs-fixed", IngestMode::MultiEvent, 1.0);
    let t = fx.t_max;
    let windows = [
        Interval::new(0, t / 10),
        Interval::new(t / 3, t / 2),
        Interval::new(t - t / 10, t),
        Interval::new(0, t),
        Interval::new(t / 7 + 1, t / 7 + 13),
        Interval::new(fx.u, 3 * fx.u), // θ-aligned
    ];
    let m1 = M1Engine::default();
    let m2 = M2Engine { u: fx.u };
    for tau in windows {
        for key in fx.keys() {
            let expected = TqfEngine.events_for_key(&fx.base, key, tau).unwrap();

            let (tqf_blocks, _) = cost(&TqfEngine, &fx.base, key, tau);
            let (m1_blocks, _) = cost(&m1, &fx.base, key, tau);
            let before = fx.base.stats();
            let got = AutoEngine::default()
                .events_for_key(&fx.base, key, tau)
                .unwrap();
            let auto_blocks = fx.base.stats().delta(&before).blocks_deserialized;
            assert_eq!(got, expected, "auto answer diverged for {key} over {tau}");
            assert!(
                auto_blocks <= tqf_blocks.min(m1_blocks),
                "auto read {auto_blocks} blocks for {key} over {tau}, best fixed engine {}",
                tqf_blocks.min(m1_blocks)
            );

            // On the interval-tagged ledger auto must detect M2 layout and
            // match its cost.
            let (m2_blocks, _) = cost(&m2, &fx.m2, key, tau);
            let before = fx.m2.stats();
            let got = AutoEngine::default()
                .events_for_key(&fx.m2, key, tau)
                .unwrap();
            let auto_m2_blocks = fx.m2.stats().delta(&before).blocks_deserialized;
            assert_eq!(
                got, expected,
                "auto-on-M2 answer diverged for {key} over {tau}"
            );
            assert!(
                auto_m2_blocks <= m2_blocks,
                "auto read {auto_m2_blocks} blocks on the M2 ledger, M2 itself {m2_blocks}"
            );
        }
    }
}

#[test]
fn auto_matches_every_fixed_engine_on_random_windows() {
    // Partially indexed (3/5 of the time axis) so windows crossing the
    // horizon exercise the hybrid plan: M1 EV-sets for covered θs plus a
    // bounded base-data scan for the unindexed fringe.
    let fx = Fixture::build("prop", IngestMode::MultiEvent, 0.6);
    assert!(
        fx.indexed_to < fx.t_max,
        "fixture must leave an unindexed tail"
    );
    let t = fx.t_max;
    let u = fx.u;
    let windows = prop_oneof![
        // Anywhere on the axis, length up to the whole history; start may
        // exceed t_max, putting the window entirely past the data.
        (0..2 * t, 1..t).prop_map(|(s, l)| Interval::new(s, s + l)),
        // θ-aligned edges (grid multiples of u).
        (0u64..50, 1u64..25).prop_map(move |(i, n)| Interval::new(i * u, (i + n) * u)),
        // Degenerate leading window, before any event.
        Just(Interval::new(0, 1)),
    ];
    let m1 = M1Engine::default();
    let m2 = M2Engine { u };
    let keys = fx.keys();
    TestRunner::default()
        .run(&windows, |tau| {
            for &key in &keys {
                let auto = AutoEngine::default()
                    .events_for_key(&fx.base, key, tau)
                    .unwrap();
                let tqf = TqfEngine.events_for_key(&fx.base, key, tau).unwrap();
                let m1r = m1.events_for_key(&fx.base, key, tau).unwrap();
                let m2r = m2.events_for_key(&fx.m2, key, tau).unwrap();
                let auto_m2 = AutoEngine::default()
                    .events_for_key(&fx.m2, key, tau)
                    .unwrap();
                prop_assert_eq!(&auto, &tqf, "auto vs TQF for {} over {}", key, tau);
                prop_assert_eq!(&auto, &m1r, "auto vs M1 for {} over {}", key, tau);
                prop_assert_eq!(&auto, &m2r, "auto vs M2 for {} over {}", key, tau);
                prop_assert_eq!(
                    &auto,
                    &auto_m2,
                    "auto on base vs M2 ledger for {} over {}",
                    key,
                    tau
                );
            }
            Ok(())
        })
        .unwrap();
}

#[test]
fn calibration_log_certified_bounds_dominate_actuals() {
    // (property) Every *certified* planner decision — TQF with its
    // closed-form block bound, M1 with its per-interval bound — must log
    // predicted bounds that dominate the measured actuals, across random
    // windows on a partially indexed ledger (the hybrid plan is exactly
    // where a miscounted bound would surface). Queries run sequentially:
    // actuals come from ledger-wide IoStats deltas, so a concurrent query
    // would bleed blocks into another query's measurement.
    let fx = Fixture::build("calib", IngestMode::MultiEvent, 0.6);
    let t = fx.t_max;
    let u = fx.u;
    let log_path = std::env::temp_dir().join(format!(
        "calib-log-{}-{:?}.jsonl",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&log_path);
    {
        let log = PlannerLog::open(&log_path).unwrap();
        log.set_dataset("ds3-prop");
        let auto = AutoEngine::with_log(log);
        let keys = fx.keys();
        let windows = prop_oneof![
            (0..2 * t, 1..t).prop_map(|(s, l)| Interval::new(s, s + l)),
            (0u64..50, 1u64..25).prop_map(move |(i, n)| Interval::new(i * u, (i + n) * u)),
        ];
        TestRunner::default()
            .run(&windows, |tau| {
                for &key in &keys {
                    let mut cursor = auto.events_cursor(&fx.base, key, tau).unwrap();
                    drain(cursor.as_mut()).unwrap();
                    drop(cursor); // Drop measures actuals and appends the record.
                }
                Ok(())
            })
            .unwrap();
        // Random windows land on M1/hybrid almost surely; degenerate
        // leading windows force TQF certificates (at most the blocks
        // holding a state of the key in (0, te] — which for tiny te ties
        // or beats the M1 bound in the cost comparison).
        for &key in &keys {
            for te in [1u64, 2] {
                let mut cursor = auto
                    .events_cursor(&fx.base, key, Interval::new(0, te))
                    .unwrap();
                drain(cursor.as_mut()).unwrap();
            }
        }
    }
    let records = PlannerLog::load(&log_path).unwrap();
    let _ = std::fs::remove_file(&log_path);
    assert!(!records.is_empty(), "no planner decisions were logged");
    let certified: Vec<_> = records.iter().filter(|r| r.certified).collect();
    assert!(
        !certified.is_empty(),
        "no certified plans among {} records",
        records.len()
    );
    assert!(
        certified.iter().any(|r| r.engine.contains("TQF")),
        "property never exercised a certified TQF plan"
    );
    for r in &certified {
        let (lo, hi) = r
            .predicted
            .expect("certified record must carry predicted bounds");
        assert!(lo <= hi, "inverted bound ({lo}, {hi}) for {}", r.key);
        assert!(
            r.actual_blocks <= hi,
            "certificate violated: {} {} over ({}, {}] predicted ≤{hi} blocks, measured {}",
            r.engine,
            r.key,
            r.tau.0,
            r.tau.1,
            r.actual_blocks
        );
    }
}
