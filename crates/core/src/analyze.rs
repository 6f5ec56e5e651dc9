//! `EXPLAIN ANALYZE` for temporal queries: run the query with telemetry
//! enabled and merge the *measured* span tree into the *predicted* plan.
//!
//! [`crate::explain`] computes, from index metadata alone, an upper bound
//! on the blocks each `GetHistoryForKey` call may deserialize. This module
//! executes the query under the ledger's [`fabric_telemetry::Telemetry`]
//! handle, collects the recorded `ghfk` spans (each carrying its
//! per-block `block.deserialize` children), and matches them back to the
//! plan's [`PlanStep::Ghfk`] nodes by key, in execution order. The result
//! reports predicted vs measured per plan node — the measured count can
//! never exceed the prediction, which [`AnalyzedPlan::within_bounds`]
//! checks and the integration tests assert for all three engines.
//!
//! Since the engines execute through streaming cursors, each cursor also
//! records an *operator* span (`tqf.key`, `m1.key`/`m1.theta`,
//! `m2.key`/`m2.theta`) that stays open across `next_event` calls. Those
//! are collected into [`AnalyzedPlan::operators`], attributing wall time,
//! GHFK calls, and block deserializations to the cursor (and, nested, the
//! per-interval sub-operator) that caused them.

use std::time::Duration;

use fabric_ledger::{Ledger, Result};
use fabric_telemetry::SpanNode;
use fabric_workload::EntityId;

use crate::engine::TemporalEngine;
use crate::explain::{ExplainQuery, PlanStep, QueryPlan};
use crate::interval::Interval;
use crate::stats::{measure, QueryStats};

/// Measured cost of one plan step (all `None` for steps that issue no
/// GHFK call, or when no matching span was recorded).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepMeasurement {
    /// Blocks actually deserialized under this step's GHFK span.
    pub blocks: Option<u64>,
    /// Wall time of the span.
    pub wall: Option<Duration>,
    /// History entries the iterator yielded.
    pub entries: Option<u64>,
}

/// One operator span recorded by a streaming cursor during execution.
///
/// Cursors hold their operator span open for their whole lifetime, so
/// `wall` covers every `next_event` call the operator served and the
/// I/O counts cover exactly the work done on the operator's behalf
/// (including nested sub-operators).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperatorSpan {
    /// Static operator name (`tqf.key`, `m1.key`, `m1.theta`, …).
    pub name: &'static str,
    /// The key or interval the operator worked on.
    pub label: Option<String>,
    /// Number of enclosing operator spans (0 = key-level cursor).
    pub depth: usize,
    /// Wall time the operator span was open.
    pub wall: Duration,
    /// GHFK calls issued under this operator.
    pub ghfk_calls: u64,
    /// Blocks deserialized under this operator.
    pub blocks: u64,
    /// Bytes allocated on the operator's thread while its span was open
    /// (zero without a counting allocator in the binary).
    pub alloc_bytes: u64,
    /// Net-live heap high-water mark while the span was open.
    pub peak_bytes: u64,
}

/// Span names that identify cursor operators in the telemetry tree.
const OPERATOR_SPANS: &[&str] = &["tqf.key", "m1.key", "m1.theta", "m2.key", "m2.theta"];

/// A plan annotated with per-step measurements from a real run.
#[derive(Debug, Clone)]
pub struct AnalyzedPlan {
    /// The predicted plan (computed before execution).
    pub plan: QueryPlan,
    /// One measurement per plan step, aligned with `plan.steps`.
    pub measured: Vec<StepMeasurement>,
    /// Cursor operator spans in execution order (outer before inner).
    pub operators: Vec<OperatorSpan>,
    /// Whole-query measurement (wall + I/O counter deltas).
    pub stats: QueryStats,
    /// Events the query returned.
    pub events: usize,
}

impl AnalyzedPlan {
    /// Total blocks measured across all GHFK steps.
    pub fn measured_blocks(&self) -> u64 {
        self.measured.iter().filter_map(|m| m.blocks).sum()
    }

    /// Whether every GHFK step stayed within its predicted block bound.
    pub fn within_bounds(&self) -> bool {
        self.plan
            .steps
            .iter()
            .zip(&self.measured)
            .all(|(step, m)| match step {
                PlanStep::Ghfk { max_blocks, .. } => m.blocks.unwrap_or(0) <= *max_blocks,
                _ => true,
            })
    }

    /// Render predicted-vs-measured as indented text.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} plan for {} over {} — analyzed:\n",
            self.plan.engine, self.plan.key, self.plan.tau
        );
        for (step, m) in self.plan.steps.iter().zip(&self.measured) {
            match step {
                PlanStep::StateRangeScan { range } => {
                    out.push_str(&format!("  range-scan state-db: {range}\n"));
                }
                PlanStep::Ghfk {
                    key,
                    max_blocks,
                    first_state_only,
                } => {
                    out.push_str(&format!(
                        "  GHFK({key}){} — predicted ≤{max_blocks} block(s)",
                        if *first_state_only {
                            " [first state]"
                        } else {
                            ""
                        }
                    ));
                    match m.blocks {
                        Some(blocks) => {
                            out.push_str(&format!(", measured {blocks}"));
                            if let Some(entries) = m.entries {
                                out.push_str(&format!(", {entries} entries"));
                            }
                            if let Some(wall) = m.wall {
                                out.push_str(&format!(
                                    ", {}",
                                    fabric_telemetry::export::fmt_ns(wall.as_nanos() as u64)
                                ));
                            }
                            out.push('\n');
                        }
                        None => out.push_str(", no span recorded\n"),
                    }
                }
                PlanStep::Filter => out.push_str("  filter to window\n"),
            }
        }
        if !self.operators.is_empty() {
            out.push_str("  operators:\n");
            for op in &self.operators {
                let indent = "  ".repeat(op.depth);
                let label = op.label.as_deref().unwrap_or("-");
                out.push_str(&format!(
                    "    {indent}{}({label}) — {} GHFK, {} block(s), {}",
                    op.name,
                    op.ghfk_calls,
                    op.blocks,
                    fabric_telemetry::export::fmt_ns(op.wall.as_nanos() as u64)
                ));
                if op.alloc_bytes > 0 || op.peak_bytes > 0 {
                    out.push_str(&format!(
                        ", {} B alloc (peak {} B)",
                        op.alloc_bytes, op.peak_bytes
                    ));
                }
                out.push('\n');
            }
        }
        out.push_str(&format!(
            "  => {} events, {} blocks deserialized (bound {}), {} GHFK calls, wall {:?}\n",
            self.events,
            self.stats.blocks_deserialized(),
            self.plan.max_blocks(),
            self.stats.ghfk_calls(),
            self.stats.wall,
        ));
        out
    }
}

fn collect_ghfk<'t>(nodes: &'t [SpanNode], out: &mut Vec<&'t SpanNode>) {
    for node in nodes {
        if node.record.name == "ghfk" {
            out.push(node);
        }
        collect_ghfk(&node.children, out);
    }
}

fn collect_operators(nodes: &[SpanNode], depth: usize, out: &mut Vec<OperatorSpan>) {
    for node in nodes {
        let is_op = OPERATOR_SPANS.contains(&node.record.name);
        if is_op {
            out.push(OperatorSpan {
                name: node.record.name,
                label: node.record.label.clone(),
                depth,
                wall: Duration::from_nanos(node.record.dur_ns),
                ghfk_calls: node.count_named("ghfk") as u64,
                blocks: node.count_named("block.deserialize") as u64,
                alloc_bytes: node.record.alloc_bytes,
                peak_bytes: node.record.peak_bytes,
            });
        }
        collect_operators(&node.children, depth + usize::from(is_op), out);
    }
}

/// Plan `key`/`tau` with `engine`, execute it with telemetry enabled, and
/// merge the measured span tree into the plan.
///
/// The ledger's telemetry handle is enabled for the duration of the run
/// and restored afterwards; any spans already queued (including those the
/// planning phase itself records) are drained first, so the measurements
/// cover exactly this query.
pub fn explain_analyze(
    engine: &(impl ExplainQuery + TemporalEngine),
    ledger: &Ledger,
    key: EntityId,
    tau: Interval,
) -> Result<AnalyzedPlan> {
    let plan = engine.explain(ledger, key, tau)?;
    let tel = ledger.telemetry();
    let was_enabled = tel.is_enabled();
    tel.enable();
    let _ = tel.drain_spans();
    let run = measure(ledger, || engine.events_for_key(ledger, key, tau));
    let tree = tel.span_tree();
    if !was_enabled {
        tel.disable();
    }
    let (events, stats) = run?;

    let mut operators = Vec::new();
    collect_operators(&tree, 0, &mut operators);
    let mut ghfk = Vec::new();
    collect_ghfk(&tree, &mut ghfk);
    let mut used = vec![false; ghfk.len()];
    let measured = plan
        .steps
        .iter()
        .map(|step| {
            let PlanStep::Ghfk { key, .. } = step else {
                return StepMeasurement::default();
            };
            let hit = ghfk
                .iter()
                .enumerate()
                .find(|(i, n)| !used[*i] && n.record.label.as_deref() == Some(key.as_str()));
            match hit {
                Some((i, node)) => {
                    used[i] = true;
                    StepMeasurement {
                        blocks: Some(node.count_named("block.deserialize") as u64),
                        wall: Some(Duration::from_nanos(node.record.dur_ns)),
                        entries: node.record.metric("entries"),
                    }
                }
                None => StepMeasurement::default(),
            }
        })
        .collect();
    Ok(AnalyzedPlan {
        plan,
        measured,
        operators,
        stats,
        events: events.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::m1::M1Indexer;
    use crate::m2::{M2Encoder, M2Engine};
    use crate::partition::FixedLength;
    use crate::tqf::TqfEngine;
    use fabric_ledger::LedgerConfig;
    use fabric_workload::ingest::{ingest, IdentityEncoder, IngestMode};
    use fabric_workload::{Event, EventKind};

    struct TempDir(std::path::PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let p = std::env::temp_dir().join(format!(
                "analyze-test-{}-{tag}-{:?}",
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

    fn events() -> Vec<Event> {
        (1..=40u64)
            .map(|i| Event {
                subject: EntityId::shipment(0),
                target: EntityId::container(0),
                time: i * 10,
                kind: EventKind::Load,
            })
            .collect()
    }

    #[test]
    fn measured_stays_within_predicted_for_all_engines() {
        let dir = TempDir::new("bounds");
        let base = fabric_ledger::Ledger::open(dir.0.join("base"), LedgerConfig::small_for_tests())
            .unwrap();
        ingest(&base, &events(), IngestMode::SingleEvent, &IdentityEncoder).unwrap();
        let strategy = FixedLength { u: 100 };
        M1Indexer::fixed(&strategy)
            .run_epoch(&base, &[EntityId::shipment(0)], Interval::new(0, 400))
            .unwrap();
        let m2led =
            fabric_ledger::Ledger::open(dir.0.join("m2"), LedgerConfig::small_for_tests()).unwrap();
        ingest(
            &m2led,
            &events(),
            IngestMode::SingleEvent,
            &M2Encoder { u: 100 },
        )
        .unwrap();

        let tau = Interval::new(100, 300);
        let key = EntityId::shipment(0);

        let tqf = explain_analyze(&TqfEngine, &base, key, tau).unwrap();
        assert!(tqf.within_bounds(), "{}", tqf.render());
        assert!(tqf.measured_blocks() <= tqf.plan.max_blocks());
        assert_eq!(tqf.events, 20);

        let m1 = explain_analyze(&crate::m1::M1Engine, &base, key, tau).unwrap();
        assert!(m1.within_bounds(), "{}", m1.render());
        // M1 reads exactly one block per overlapping interval.
        assert_eq!(m1.measured_blocks(), 2);

        let m2 = explain_analyze(&M2Engine { u: 100 }, &m2led, key, tau).unwrap();
        assert!(m2.within_bounds(), "{}", m2.render());
        assert_eq!(m2.events, 20);
    }

    #[test]
    fn operators_attribute_io_per_cursor() {
        let dir = TempDir::new("operators");
        let base = fabric_ledger::Ledger::open(dir.0.join("base"), LedgerConfig::small_for_tests())
            .unwrap();
        ingest(&base, &events(), IngestMode::SingleEvent, &IdentityEncoder).unwrap();
        let strategy = FixedLength { u: 100 };
        M1Indexer::fixed(&strategy)
            .run_epoch(&base, &[EntityId::shipment(0)], Interval::new(0, 400))
            .unwrap();

        let tau = Interval::new(100, 300);
        let key = EntityId::shipment(0);

        // TQF: a single key-level cursor owns every GHFK call and block.
        let tqf = explain_analyze(&TqfEngine, &base, key, tau).unwrap();
        let tqf_ops: Vec<_> = tqf
            .operators
            .iter()
            .filter(|o| o.name == "tqf.key")
            .collect();
        assert_eq!(tqf_ops.len(), 1, "{:?}", tqf.operators);
        assert_eq!(tqf_ops[0].depth, 0);
        assert_eq!(tqf_ops[0].blocks, tqf.measured_blocks());
        assert!(tqf_ops[0].ghfk_calls >= 1);

        // M1: one key-level operator with one nested m1.theta operator per
        // overlapping interval, each costing exactly one block.
        let m1 = explain_analyze(&crate::m1::M1Engine, &base, key, tau).unwrap();
        let key_ops: Vec<_> = m1.operators.iter().filter(|o| o.name == "m1.key").collect();
        assert_eq!(key_ops.len(), 1, "{:?}", m1.operators);
        assert_eq!(key_ops[0].depth, 0);
        assert_eq!(key_ops[0].blocks, m1.measured_blocks());
        let thetas: Vec<_> = m1
            .operators
            .iter()
            .filter(|o| o.name == "m1.theta")
            .collect();
        assert_eq!(thetas.len(), 2, "{:?}", m1.operators);
        for theta in &thetas {
            assert_eq!(theta.depth, 1);
            assert_eq!(theta.blocks, 1);
            assert!(theta.label.is_some());
        }
        let text = m1.render();
        assert!(text.contains("operators:"), "{text}");
        assert!(text.contains("m1.theta"), "{text}");
    }

    #[test]
    fn measured_blocks_match_iostats_delta() {
        let dir = TempDir::new("iostats");
        let base = fabric_ledger::Ledger::open(&dir.0, LedgerConfig::small_for_tests()).unwrap();
        ingest(&base, &events(), IngestMode::SingleEvent, &IdentityEncoder).unwrap();
        let analyzed = explain_analyze(
            &TqfEngine,
            &base,
            EntityId::shipment(0),
            Interval::new(0, 400),
        )
        .unwrap();
        // Every deserialization happens under the single GHFK span, so the
        // per-step measurement equals the whole-query counter delta.
        assert_eq!(
            analyzed.measured_blocks(),
            analyzed.stats.blocks_deserialized()
        );
        assert!(analyzed.stats.blocks_deserialized() > 0);
    }

    #[test]
    fn render_reports_predicted_and_measured() {
        let dir = TempDir::new("render");
        let base = fabric_ledger::Ledger::open(&dir.0, LedgerConfig::small_for_tests()).unwrap();
        ingest(&base, &events(), IngestMode::SingleEvent, &IdentityEncoder).unwrap();
        let analyzed = explain_analyze(
            &TqfEngine,
            &base,
            EntityId::shipment(0),
            Interval::new(0, 100),
        )
        .unwrap();
        let text = analyzed.render();
        assert!(text.contains("predicted ≤"), "{text}");
        assert!(text.contains("measured"), "{text}");
        assert!(text.contains("analyzed"), "{text}");
    }

    #[test]
    fn telemetry_state_is_restored() {
        let dir = TempDir::new("restore");
        let base = fabric_ledger::Ledger::open(&dir.0, LedgerConfig::small_for_tests()).unwrap();
        ingest(&base, &events(), IngestMode::SingleEvent, &IdentityEncoder).unwrap();
        assert!(!base.telemetry().is_enabled());
        explain_analyze(
            &TqfEngine,
            &base,
            EntityId::shipment(0),
            Interval::new(0, 100),
        )
        .unwrap();
        assert!(
            !base.telemetry().is_enabled(),
            "explain_analyze must restore the disabled state"
        );
        base.telemetry().enable();
        explain_analyze(
            &TqfEngine,
            &base,
            EntityId::shipment(0),
            Interval::new(0, 100),
        )
        .unwrap();
        assert!(base.telemetry().is_enabled());
    }
}
