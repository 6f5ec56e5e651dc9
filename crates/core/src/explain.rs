//! Query-plan introspection: what would each engine *do* for a query,
//! before doing it — an `EXPLAIN` for temporal queries.
//!
//! Plans are computed from index metadata only (state-db reads and
//! history-index profiles), so explaining a query is cheap: it never
//! deserializes a block or issues a GHFK call. The predicted block counts
//! are upper bounds that the engines' actual runs must respect — asserted
//! in the tests here and usable as a planning heuristic (e.g. choose M1 vs
//! M2 per query).

use fabric_ledger::{HistoryEntryMeta, Ledger, Result};
use fabric_workload::EntityId;

use crate::interval::Interval;
use crate::m1::{read_meta, M1Engine};
use crate::m2::M2Engine;
use crate::tqf::TqfEngine;

/// One step of a query plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanStep {
    /// A state-db range scan (interval discovery or key listing).
    StateRangeScan {
        /// Human-readable description of the scanned range.
        range: String,
    },
    /// One `GetHistoryForKey` call.
    Ghfk {
        /// The exact ledger key the call targets.
        key: String,
        /// Upper bound on blocks this call will deserialize.
        max_blocks: u64,
        /// Whether the engine reads only the first state (M1's event set).
        first_state_only: bool,
    },
    /// In-memory filtering of retrieved events to the query window.
    Filter,
}

/// An explained query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPlan {
    /// Engine that produced the plan.
    pub engine: String,
    /// Key being queried.
    pub key: EntityId,
    /// Query window.
    pub tau: Interval,
    /// Ordered steps.
    pub steps: Vec<PlanStep>,
}

impl QueryPlan {
    /// Total GHFK calls the plan will issue.
    pub fn ghfk_calls(&self) -> u64 {
        self.steps
            .iter()
            .filter(|s| matches!(s, PlanStep::Ghfk { .. }))
            .count() as u64
    }

    /// Upper bound on blocks deserialized.
    pub fn max_blocks(&self) -> u64 {
        self.steps
            .iter()
            .map(|s| match s {
                PlanStep::Ghfk { max_blocks, .. } => *max_blocks,
                _ => 0,
            })
            .sum()
    }

    /// Render the plan as indented text.
    pub fn render(&self) -> String {
        let mut out = format!("{} plan for {} over {}:\n", self.engine, self.key, self.tau);
        for step in &self.steps {
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
                        "  GHFK({key}) — ≤{max_blocks} block(s){}\n",
                        if *first_state_only {
                            ", first state only"
                        } else {
                            ""
                        }
                    ));
                }
                PlanStep::Filter => out.push_str("  filter to window\n"),
            }
        }
        out
    }
}

/// Engines that can explain their per-key query strategy.
pub trait ExplainQuery {
    /// Produce the plan for retrieving `key`'s events in `tau`.
    fn explain(&self, ledger: &Ledger, key: EntityId, tau: Interval) -> Result<QueryPlan>;
}

impl ExplainQuery for TqfEngine {
    fn explain(&self, ledger: &Ledger, key: EntityId, tau: Interval) -> Result<QueryPlan> {
        Ok(tqf_plan(key, tau, &ledger.history_profile(&key.key())?))
    }
}

/// Distinct blocks among history-profile `entries`, in profile order (a
/// block's entries are consecutive, because history keys sort by block).
pub(crate) fn distinct_blocks<'a>(entries: impl IntoIterator<Item = &'a HistoryEntryMeta>) -> u64 {
    let mut blocks = 0u64;
    let mut prev = None;
    for e in entries {
        if prev != Some(e.location.block_num) {
            blocks += 1;
            prev = Some(e.location.block_num);
        }
    }
    blocks
}

/// TQF's plan from the key's history profile: one scan from t=0, bounded
/// by the distinct blocks holding states of the key.
pub(crate) fn tqf_plan(key: EntityId, tau: Interval, profile: &[HistoryEntryMeta]) -> QueryPlan {
    QueryPlan {
        engine: "TQF".to_string(),
        key,
        tau,
        steps: vec![
            PlanStep::Ghfk {
                key: key.to_string(),
                max_blocks: distinct_blocks(profile),
                first_state_only: false,
            },
            PlanStep::Filter,
        ],
    }
}

/// M1's plan: one first-state GHFK per overlapping θ in `thetas`, then,
/// when `residual` is set, the hybrid fringe: a base-data scan bounded
/// below by the indexed horizon, which skips the profile entries stamped
/// at or before the window start.
pub(crate) fn m1_plan(
    key: EntityId,
    tau: Interval,
    thetas: &[Interval],
    residual: Option<Interval>,
    profile: &[HistoryEntryMeta],
) -> QueryPlan {
    let mut steps: Vec<PlanStep> = thetas
        .iter()
        .map(|theta| PlanStep::Ghfk {
            key: String::from_utf8_lossy(&theta.composite_key(&key.key())).into_owned(),
            max_blocks: 1,
            first_state_only: true,
        })
        .collect();
    if let Some(window) = residual {
        steps.push(PlanStep::Ghfk {
            key: key.to_string(),
            max_blocks: distinct_blocks(profile.iter().filter(|e| e.may_follow(window.start))),
            first_state_only: false,
        });
    }
    steps.push(PlanStep::Filter);
    QueryPlan {
        engine: "M1".to_string(),
        key,
        tau,
        steps,
    }
}

impl ExplainQuery for M1Engine {
    fn explain(&self, ledger: &Ledger, key: EntityId, tau: Interval) -> Result<QueryPlan> {
        let Some(meta) = read_meta(ledger)? else {
            return Ok(QueryPlan {
                engine: "M1 (no indexes)".to_string(),
                key,
                tau,
                steps: Vec::new(),
            });
        };
        let thetas = crate::m1::overlapping_thetas(ledger, key, tau, &meta)?;
        let residual = crate::m1::residual_window(tau, meta.indexed_to());
        let profile = ledger.history_profile(&key.key())?;
        Ok(m1_plan(key, tau, &thetas, residual, &profile))
    }
}

impl ExplainQuery for M2Engine {
    fn explain(&self, ledger: &Ledger, key: EntityId, tau: Interval) -> Result<QueryPlan> {
        let prefix = Interval::key_prefix(&key.key());
        let end = fabric_kvstore::prefix_end(&prefix);
        let rows = ledger.get_state_by_range(Some(&prefix), end.as_deref())?;
        let mut steps = vec![PlanStep::StateRangeScan {
            range: format!("{}*", String::from_utf8_lossy(&prefix)),
        }];
        for (composite, _) in rows {
            let Some((_, theta)) = Interval::split_composite_key(&composite) else {
                continue;
            };
            if theta.overlaps(&tau) {
                // Bound: the history entries of this interval key.
                let max_blocks = ledger.history_profile(&composite)?.len() as u64;
                steps.push(PlanStep::Ghfk {
                    key: String::from_utf8_lossy(&composite).into_owned(),
                    max_blocks,
                    first_state_only: false,
                });
            }
        }
        steps.push(PlanStep::Filter);
        Ok(QueryPlan {
            engine: format!("M2(u={})", self.u),
            key,
            tau,
            steps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TemporalEngine;
    use crate::m1::M1Indexer;
    use crate::m2::M2Encoder;
    use crate::partition::FixedLength;
    use fabric_ledger::LedgerConfig;
    use fabric_workload::ingest::{ingest, IdentityEncoder, IngestMode};
    use fabric_workload::{Event, EventKind};

    struct TempDir(std::path::PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let p = std::env::temp_dir().join(format!(
                "explain-test-{}-{tag}-{:?}",
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
    fn plans_bound_actual_execution() {
        let dir = TempDir::new("bound");
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
        // For each engine: plan first, run, assert the plan's bounds hold.
        let cases: Vec<(QueryPlan, u64, u64)> = vec![
            {
                let plan = TqfEngine.explain(&base, key, tau).unwrap();
                let before = base.stats();
                TqfEngine.events_for_key(&base, key, tau).unwrap();
                let d = base.stats().delta(&before);
                (plan, d.ghfk_calls, d.blocks_deserialized)
            },
            {
                let plan = M1Engine.explain(&base, key, tau).unwrap();
                let before = base.stats();
                M1Engine.events_for_key(&base, key, tau).unwrap();
                let d = base.stats().delta(&before);
                (plan, d.ghfk_calls, d.blocks_deserialized)
            },
            {
                let engine = M2Engine { u: 100 };
                let plan = engine.explain(&m2led, key, tau).unwrap();
                let before = m2led.stats();
                engine.events_for_key(&m2led, key, tau).unwrap();
                let d = m2led.stats().delta(&before);
                (plan, d.ghfk_calls, d.blocks_deserialized)
            },
        ];
        for (plan, actual_calls, actual_blocks) in cases {
            assert_eq!(
                plan.ghfk_calls(),
                actual_calls,
                "{}: planned calls must match",
                plan.engine
            );
            assert!(
                actual_blocks <= plan.max_blocks(),
                "{}: actual blocks {actual_blocks} exceed planned bound {}",
                plan.engine,
                plan.max_blocks()
            );
        }
    }

    #[test]
    fn m1_plan_is_one_block_per_interval() {
        let dir = TempDir::new("m1plan");
        let base = fabric_ledger::Ledger::open(&dir.0, LedgerConfig::small_for_tests()).unwrap();
        ingest(&base, &events(), IngestMode::SingleEvent, &IdentityEncoder).unwrap();
        let strategy = FixedLength { u: 100 };
        M1Indexer::fixed(&strategy)
            .run_epoch(&base, &[EntityId::shipment(0)], Interval::new(0, 400))
            .unwrap();
        let plan = M1Engine
            .explain(&base, EntityId::shipment(0), Interval::new(0, 400))
            .unwrap();
        assert_eq!(plan.ghfk_calls(), 4);
        assert_eq!(plan.max_blocks(), 4);
        assert!(plan.render().contains("first state only"));
    }

    #[test]
    fn unindexed_m1_plan_is_empty() {
        let dir = TempDir::new("noidx");
        let base = fabric_ledger::Ledger::open(&dir.0, LedgerConfig::small_for_tests()).unwrap();
        let plan = M1Engine
            .explain(&base, EntityId::shipment(0), Interval::new(0, 100))
            .unwrap();
        assert_eq!(plan.ghfk_calls(), 0);
        assert!(plan.engine.contains("no indexes"));
    }

    #[test]
    fn render_is_human_readable() {
        let dir = TempDir::new("render");
        let m2led = fabric_ledger::Ledger::open(&dir.0, LedgerConfig::small_for_tests()).unwrap();
        ingest(
            &m2led,
            &events(),
            IngestMode::SingleEvent,
            &M2Encoder { u: 200 },
        )
        .unwrap();
        let plan = M2Engine { u: 200 }
            .explain(&m2led, EntityId::shipment(0), Interval::new(0, 250))
            .unwrap();
        let text = plan.render();
        assert!(text.contains("range-scan state-db"), "{text}");
        assert!(text.contains("GHFK(S00000#"), "{text}");
    }
}
