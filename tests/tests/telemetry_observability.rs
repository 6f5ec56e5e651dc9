//! Cross-crate observability guarantees: the telemetry layer's span trees
//! and counters must agree exactly with the deterministic IoStats cost
//! model, EXPLAIN ANALYZE's measured costs must stay within the planner's
//! predicted bounds for every engine, and a disabled handle must record
//! nothing at all.

use fabric_ledger::{Ledger, LedgerConfig};
use fabric_telemetry::SpanNode;
use fabric_workload::dataset::{generate_scaled, DatasetId};
use fabric_workload::ingest::{ingest, IdentityEncoder, IngestMode};
use fabric_workload::EntityId;
use temporal_core::explain_analyze;
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
            "telobs-test-{}-{tag}-{:?}",
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

/// DS3 at 1/400 scale, base encoding, with M1 indexes over the whole range.
fn indexed_ledger(dir: &TempDir) -> (Ledger, u64, u64) {
    let workload = generate_scaled(DatasetId::Ds3, 400);
    let t_max = workload.params.t_max;
    let u = (t_max / 10).max(1);
    let ledger = Ledger::open(&dir.0, LedgerConfig::default()).unwrap();
    ingest(
        &ledger,
        &workload.events,
        IngestMode::SingleEvent,
        &IdentityEncoder,
    )
    .unwrap();
    let strategy = FixedLength { u };
    M1Indexer::fixed(&strategy)
        .run_epoch(&ledger, &workload.keys(), Interval::new(0, t_max))
        .unwrap();
    (ledger, t_max, u)
}

fn m2_ledger(dir: &TempDir) -> (Ledger, u64, u64) {
    let workload = generate_scaled(DatasetId::Ds3, 400);
    let t_max = workload.params.t_max;
    let u = (t_max / 10).max(1);
    let ledger = Ledger::open(&dir.0, LedgerConfig::default()).unwrap();
    ingest(
        &ledger,
        &workload.events,
        IngestMode::SingleEvent,
        &M2Encoder { u },
    )
    .unwrap();
    (ledger, t_max, u)
}

#[test]
fn explain_analyze_measured_within_predicted_for_all_engines() {
    let dir = TempDir::new("bounds");
    let (ledger, t_max, _) = indexed_ledger(&dir);
    let m2dir = TempDir::new("bounds-m2");
    let (m2led, _, u) = m2_ledger(&m2dir);
    let tau = Interval::new(t_max / 4, t_max / 2);

    for key in [EntityId::shipment(0), EntityId::shipment(1)] {
        let tqf = explain_analyze(&TqfEngine, &ledger, key, tau).unwrap();
        assert!(
            tqf.within_bounds(),
            "TQF measured exceeded prediction:\n{}",
            tqf.render()
        );
        let m1 = explain_analyze(&M1Engine, &ledger, key, tau).unwrap();
        assert!(
            m1.within_bounds(),
            "M1 measured exceeded prediction:\n{}",
            m1.render()
        );
        let m2 = explain_analyze(&M2Engine { u }, &m2led, key, tau).unwrap();
        assert!(
            m2.within_bounds(),
            "M2 measured exceeded prediction:\n{}",
            m2.render()
        );
        // All three engines saw the same events.
        assert_eq!(tqf.events, m1.events);
        assert_eq!(tqf.events, m2.events);
        // The per-step measurements cover every block the run deserialized.
        assert_eq!(tqf.measured_blocks(), tqf.stats.blocks_deserialized());
    }
}

#[test]
fn span_blocks_match_iostats_delta_per_engine() {
    let dir = TempDir::new("lockstep");
    let (ledger, t_max, _) = indexed_ledger(&dir);
    let tau = Interval::new(0, t_max / 2);
    let tel = ledger.telemetry();

    for engine in [&TqfEngine as &dyn TemporalEngine, &M1Engine] {
        tel.enable();
        tel.reset();
        let before = ledger.stats();
        let outcome = ferry_query(engine, &ledger, tau).unwrap();
        let delta = ledger.stats().delta(&before);
        let tree = tel.span_tree();
        tel.disable();

        // Counter vs IoStats: exact.
        let counted = tel
            .registry()
            .snapshot()
            .counter("ledger.blocks.deserialized");
        assert_eq!(
            counted,
            delta.blocks_deserialized,
            "{}: telemetry counter diverged from IoStats",
            engine.name()
        );
        // Span tree vs IoStats: every deserialization shows up as exactly
        // one `block.deserialize` span.
        let spans: usize = tree
            .iter()
            .map(|n| n.count_named("block.deserialize"))
            .sum();
        assert_eq!(
            spans as u64,
            delta.blocks_deserialized,
            "{}: block.deserialize span count diverged from IoStats",
            engine.name()
        );
        assert!(outcome.stats.blocks_deserialized() > 0);
    }
}

#[test]
fn ferry_trace_nests_at_least_three_levels() {
    let dir = TempDir::new("depth");
    let (ledger, t_max, _) = indexed_ledger(&dir);
    let tel = ledger.telemetry();
    tel.enable();
    let _ = tel.drain_spans();
    ferry_query(&TqfEngine, &ledger, Interval::new(0, t_max)).unwrap();
    let tree = tel.span_tree();
    tel.disable();

    let depth = tree.iter().map(SpanNode::depth).max().unwrap_or(0);
    assert!(depth >= 3, "span tree depth {depth} < 3");
    let root = tree
        .iter()
        .find(|n| n.record.name == "query.ferry")
        .expect("query.ferry root span");
    assert!(
        root.count_named("ghfk") > 0,
        "ghfk spans nest under the query"
    );
    assert!(
        root.count_named("block.deserialize") > 0,
        "block.deserialize spans nest under the query"
    );
    let rendered = fabric_telemetry::render_tree(&tree);
    assert!(rendered.contains("query.ferry"), "{rendered}");
}

#[test]
fn disabled_telemetry_records_nothing_across_the_stack() {
    let dir = TempDir::new("disabled");
    let (ledger, t_max, _) = indexed_ledger(&dir);
    let tel = ledger.telemetry();
    assert!(!tel.is_enabled());
    ferry_query(&M1Engine, &ledger, Interval::new(0, t_max)).unwrap();
    assert!(tel.span_tree().is_empty(), "no spans when disabled");
    // Queue probes register their instruments when the ledger opens, so
    // the snapshot lists them; disabled telemetry records no *values*.
    let snapshot = tel.snapshot();
    assert!(
        snapshot.counters.iter().all(|(_, v)| *v == 0),
        "no counter increments when disabled: {snapshot:?}"
    );
    assert!(
        snapshot.histograms.iter().all(|(_, h)| h.count == 0),
        "no histogram samples when disabled"
    );
}
