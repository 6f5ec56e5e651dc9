//! Cost-based access-path planning: pick TQF vs M1 vs M2 per `(key, τ)`.
//!
//! The three engines answer the same question at wildly different block
//! costs, and the cheapest one depends on the query interval's shape —
//! exactly the leverage range/interval-aware planners exploit. This
//! planner derives **certified block bounds** for each candidate path from
//! the history index's per-entry transaction timestamps
//! ([`Ledger::history_profile`]) without deserializing a single block:
//!
//! * ingestion writes events globally sorted by time, so an entry's events
//!   are ≤ its recorded timestamp and ≥ the previous entry's timestamp;
//! * a TQF scan for `(ts, te]` therefore consumes a *prefix* of the
//!   profile, whose length — and distinct-block count — can be bracketed
//!   between a certain lower and a worst-case upper bound;
//! * an M1 scan costs exactly one block per *occupied* overlapping index
//!   interval — the indexer writes `(k,θ)` only when `EV(k,θ)` is
//!   non-empty, so probing the composite key's history profile (an index
//!   read, not a block read) counts occupied intervals precisely — plus
//!   the bounded residual scan for any fringe past the indexed horizon
//!   (the hybrid plan).
//!
//! [`AutoEngine`] picks TQF only when its *worst case* is no worse than
//! M1's *best case* — so the chosen path never deserializes more blocks
//! than the indexed path would, by construction. On fully timestamped
//! profiles the TQF bracket is at most one block wide and the M1 cost is
//! exact, so in that regime the choice is *optimal*, not merely safe. On ledgers without M1
//! metadata the layout itself decides: composite `(k,θ)` rows mean M2,
//! otherwise TQF is the only option. Decisions are exported as
//! `planner.pick.*` telemetry counters and rendered by `tfq plan`.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use fabric_ledger::{HistoryEntryMeta, Ledger, Result};
use fabric_workload::EntityId;

use crate::cursor::{EventCursor, M2Cursor, TqfCursor};
use crate::engine::TemporalEngine;
use crate::explain::{distinct_blocks, m1_plan, tqf_plan, ExplainQuery, QueryPlan};
use crate::interval::Interval;
use crate::m1::{self, M1Engine};
use crate::m2::M2Engine;

/// The access path the planner settled on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPath {
    /// Full-history GHFK scan (no index helps, or TQF is certified cheapest).
    Tqf,
    /// M1 EV-sets for the indexed intervals; `residual` is the fringe
    /// window past the indexed horizon served by a bounded base-data scan
    /// (`Some` ⇒ the hybrid plan).
    M1 {
        /// Fringe window scanned from base data, if any.
        residual: Option<Interval>,
    },
    /// Interval-tagged composite keys (the ledger was ingested with M2).
    M2,
}

/// A planning decision with the evidence that produced it.
#[derive(Debug, Clone)]
pub struct PlanChoice {
    /// Key being queried.
    pub key: EntityId,
    /// Query window.
    pub tau: Interval,
    /// Chosen path.
    pub path: AccessPath,
    /// One-line justification.
    pub reason: String,
    /// `(certain, worst_case)` blocks for a TQF scan of this query.
    pub tqf_blocks: (u64, u64),
    /// `(certain, worst_case)` blocks for the M1(+residual) path, when M1
    /// metadata exists.
    pub m1_blocks: Option<(u64, u64)>,
    /// The chosen engine's executable plan.
    pub plan: QueryPlan,
}

impl PlanChoice {
    /// Short label for the chosen path ("TQF", "M1", "hybrid", "M2").
    pub fn path_label(&self) -> &'static str {
        match self.path {
            AccessPath::Tqf => "TQF",
            AccessPath::M1 { residual: None } => "M1",
            AccessPath::M1 { residual: Some(_) } => "hybrid",
            AccessPath::M2 => "M2",
        }
    }

    /// Telemetry counter name for this decision.
    fn counter_name(&self) -> &'static str {
        match self.path {
            AccessPath::Tqf => "planner.pick.tqf",
            AccessPath::M1 { residual: None } => "planner.pick.m1",
            AccessPath::M1 { residual: Some(_) } => "planner.pick.hybrid",
            AccessPath::M2 => "planner.pick.m2",
        }
    }

    /// Render the decision and the chosen plan as indented text.
    pub fn render(&self) -> String {
        let mut out = format!(
            "planner choice for {} over {}: {}\n  reason: {}\n  TQF bound: {}..={} block(s)\n",
            self.key,
            self.tau,
            self.path_label(),
            self.reason,
            self.tqf_blocks.0,
            self.tqf_blocks.1,
        );
        if let Some((lo, hi)) = self.m1_blocks {
            out.push_str(&format!("  M1 bound: {lo}..={hi} block(s)\n"));
        }
        out.push_str(&self.plan.render());
        out
    }
}

/// `(certain, worst_case)` distinct blocks a bounded TQF scan for
/// `(·, te]` deserializes, given the key's history profile (entries in
/// commit order). The scan consumes a prefix of the profile: certainly
/// every entry whose recorded timestamp is ≤ `te` plus one terminator;
/// at most up to the first entry whose *predecessors'* latest known
/// timestamp exceeds `te` (its events are then certainly past `te`).
fn scan_block_bounds(profile: &[HistoryEntryMeta], te: u64) -> (u64, u64) {
    let n = profile.len();
    let mut lower_entries = 0usize;
    for (i, e) in profile.iter().enumerate() {
        if matches!(e.timestamp, Some(ts) if ts <= te) {
            lower_entries = i + 1;
        }
    }
    if lower_entries < n {
        lower_entries += 1; // next entry is consumed as a hit or terminator
    }
    let mut upper_entries = n;
    let mut last_known = 0u64;
    for (i, e) in profile.iter().enumerate() {
        if last_known > te {
            // Entry i's events are ≥ last_known > te: the scan terminates
            // at or before consuming entry i.
            upper_entries = i + 1;
            break;
        }
        if let Some(ts) = e.timestamp {
            last_known = ts;
        }
    }
    (
        distinct_blocks(&profile[..lower_entries.min(upper_entries)]),
        distinct_blocks(&profile[..upper_entries]),
    )
}

/// Index state the occupancy cache is valid under: `(interval regime,
/// indexed horizon, epoch count)`. Any indexer progress — a batch epoch
/// or the daemon's watermark bump — changes at least one component.
type ProbeStamp = (u64, u64, u64);

/// Cached `(key, θ)` occupancy probes. A θ cell's
/// occupancy is immutable once its epoch commits (the indexer only ever
/// appends new cells past the horizon), so entries never go stale within
/// a stamp; the stamp mismatch on indexer progress clears the map, which
/// also bounds its memory to one index generation's working set.
#[derive(Debug, Default)]
struct Probes {
    stamp: ProbeStamp,
    map: HashMap<bytes::Bytes, bool>,
}

/// The cost-based planning engine, exposed on the CLI as `--engine auto`.
///
/// Implements [`TemporalEngine`] (and [`ExplainQuery`]) by choosing an
/// access path per `(key, τ)` call and handing out the chosen engine's own
/// cursor. Results are bit-identical to every fixed engine on the same
/// ledger; the blocks that cursor deserializes never exceed the chosen
/// path's certified bound, and so never exceed the M1 path's cost
/// (`tests/streaming_planner.rs` measures both).
#[derive(Debug, Clone, Default)]
pub struct AutoEngine {
    /// Occupancy-probe cache. Shared across clones so every worker thread
    /// planning on the same engine reuses — and invalidates — one cache.
    probes: Arc<Mutex<Probes>>,
}

impl AutoEngine {
    /// Exact blocks for reading the M1 EV-sets of `thetas`: the indexer
    /// writes `(k,θ)` pairs only for non-empty `EV(k,θ)`, and the query
    /// path lazily reads one block per existing pair (first historical
    /// state), so the cost is precisely the number of occupied
    /// intervals. Occupancy is established by probing each composite
    /// key's history *profile* — an index range read; no block is
    /// deserialized — and the verdict is cached across queries until
    /// `stamp` moves (`planner.probe.hit` / `planner.probe.miss`).
    fn occupied_theta_blocks(
        &self,
        ledger: &Ledger,
        key: EntityId,
        thetas: &[Interval],
        stamp: ProbeStamp,
    ) -> Result<u64> {
        let tel = ledger.telemetry();
        let mut entry = self.probes.lock().unwrap_or_else(|e| e.into_inner());
        if entry.stamp != stamp {
            entry.map.clear();
            entry.stamp = stamp;
        }
        let mut occupied = 0u64;
        for theta in thetas {
            let composite = theta.composite_key(&key.key());
            let hit = match entry.map.get(&composite) {
                Some(&cached) => {
                    tel.count("planner.probe.hit", 1);
                    cached
                }
                None => {
                    tel.count("planner.probe.miss", 1);
                    let occ = !ledger.history_profile(&composite)?.is_empty();
                    entry.map.insert(composite, occ);
                    occ
                }
            };
            occupied += u64::from(hit);
        }
        Ok(occupied)
    }
}

impl AutoEngine {
    /// Plan `(key, tau)` without executing: derive block bounds for the
    /// candidate paths and pick one. Cheap — metadata and index reads
    /// only, no block is deserialized.
    pub fn choose(&self, ledger: &Ledger, key: EntityId, tau: Interval) -> Result<PlanChoice> {
        let meta = m1::read_meta(ledger)?;
        let profile = ledger.history_profile(&key.key())?;
        let thetas = match &meta {
            Some(meta) => m1::overlapping_thetas(ledger, key, tau, meta)?,
            None => Vec::new(),
        };
        let (path, reason, tqf_blocks, m1_blocks) = if let Some(meta) = &meta {
            let tqf_blocks = scan_block_bounds(&profile, tau.end);
            let stamp = (meta.u, meta.indexed_to(), meta.epochs.len() as u64);
            let occupied = self.occupied_theta_blocks(ledger, key, &thetas, stamp)?;
            let (mut m1_lo, mut m1_hi) = (occupied, occupied);
            let residual = m1::residual_window(tau, meta.indexed_to());
            if let Some(window) = residual {
                // The residual scan sees only entries stamped after the
                // window start; bound it on that sub-profile.
                let fringe: Vec<HistoryEntryMeta> = profile
                    .iter()
                    .filter(|e| e.may_follow(window.start))
                    .cloned()
                    .collect();
                let (lo, hi) = scan_block_bounds(&fringe, tau.end);
                m1_lo += lo;
                m1_hi += hi;
            }
            if tqf_blocks.1 <= m1_lo {
                (
                    AccessPath::Tqf,
                    format!(
                        "TQF worst case ({}) ≤ M1 best case ({})",
                        tqf_blocks.1, m1_lo
                    ),
                    tqf_blocks,
                    Some((m1_lo, m1_hi)),
                )
            } else {
                let reason = match residual {
                    Some(window) => format!(
                        "M1 EV-sets over {occupied} occupied interval(s) + bounded residual scan of {window}"
                    ),
                    None => format!(
                        "M1 reads exactly {occupied} occupied interval block(s); TQF may cost {}",
                        tqf_blocks.1
                    ),
                };
                (
                    AccessPath::M1 { residual },
                    reason,
                    tqf_blocks,
                    Some((m1_lo, m1_hi)),
                )
            }
        } else {
            // No M1 metadata: the ledger layout decides. Composite (k,θ)
            // rows in the state-db mean interval-tagged ingestion.
            let prefix = Interval::key_prefix(&key.key());
            let end = fabric_kvstore::prefix_end(&prefix);
            let rows = ledger.get_state_by_range(Some(&prefix), end.as_deref())?;
            let tagged = rows
                .iter()
                .any(|(k, _)| Interval::split_composite_key(k).is_some());
            if tagged {
                (
                    AccessPath::M2,
                    "state-db holds interval-tagged composite keys".to_string(),
                    scan_block_bounds(&profile, tau.end),
                    None,
                )
            } else {
                (
                    AccessPath::Tqf,
                    "no M1 metadata and no composite keys: full scan is the only path".to_string(),
                    scan_block_bounds(&profile, tau.end),
                    None,
                )
            }
        };
        // The chosen engine's plan, from the profile and θs already read:
        // planning issues no GHFK call.
        let plan = match path {
            AccessPath::Tqf => relabel(tqf_plan(key, tau, &profile), "TQF"),
            AccessPath::M1 { residual } => relabel(
                m1_plan(key, tau, &thetas, residual, &profile),
                if residual.is_some() {
                    "M1+residual"
                } else {
                    "M1"
                },
            ),
            AccessPath::M2 => relabel(M2Engine { u: 0 }.explain(ledger, key, tau)?, "M2"),
        };
        Ok(PlanChoice {
            key,
            tau,
            path,
            reason,
            tqf_blocks,
            m1_blocks,
            plan,
        })
    }
}

fn relabel(mut plan: QueryPlan, label: &str) -> QueryPlan {
    plan.engine = format!("Auto→{label}");
    plan
}

impl TemporalEngine for AutoEngine {
    fn name(&self) -> String {
        "Auto".to_string()
    }

    fn events_cursor<'l>(
        &self,
        ledger: &'l Ledger,
        key: EntityId,
        tau: Interval,
    ) -> Result<Box<dyn EventCursor + 'l>> {
        let choice = self.choose(ledger, key, tau)?;
        let tel = ledger.telemetry();
        tel.count(choice.counter_name(), 1);
        {
            // Decision span: nests under whatever query span is open on
            // this thread, so the slow-query log can hoist the chosen
            // engine and the certified bounds into its summary.
            let mut span = tel
                .span("planner.choice")
                .with_label(choice.plan.engine.clone());
            span.record("tqf_blocks_lo", choice.tqf_blocks.0);
            span.record("tqf_blocks_hi", choice.tqf_blocks.1);
            if let Some((lo, hi)) = choice.m1_blocks {
                span.record("m1_blocks_lo", lo);
                span.record("m1_blocks_hi", hi);
            }
        }
        Ok(match choice.path {
            AccessPath::Tqf => Box::new(TqfCursor::new(ledger, key, tau)?),
            AccessPath::M1 { .. } => {
                // The M1 engine's own cursor recomputes the residual from
                // the same metadata, so it matches `choice.path` exactly.
                M1Engine.events_cursor(ledger, key, tau)?
            }
            AccessPath::M2 => Box::new(M2Cursor::new(ledger, key, tau)?),
        })
    }
}

impl ExplainQuery for AutoEngine {
    fn explain(&self, ledger: &Ledger, key: EntityId, tau: Interval) -> Result<QueryPlan> {
        Ok(self.choose(ledger, key, tau)?.plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_ledger::index::HistoryLocation;

    fn entry(block: u64, ts: Option<u64>) -> HistoryEntryMeta {
        HistoryEntryMeta {
            location: HistoryLocation {
                block_num: block,
                tx_num: 0,
            },
            timestamp: ts,
        }
    }

    #[test]
    fn scan_bounds_exact_on_fully_stamped_profile() {
        // One entry per block, ts = 10,20,…,100.
        let profile: Vec<_> = (1..=10).map(|i| entry(i, Some(i * 10))).collect();
        // te=55: entries 1..=5 are hits, entry 6 is read at the latest as a
        // terminator; entry 7 is certainly past (prev ts 60 > 55).
        let (lo, hi) = scan_block_bounds(&profile, 55);
        assert_eq!(lo, 6);
        assert!(hi <= 7, "upper bound {hi} too loose");
        assert!(hi >= lo);
        // te past everything: the whole profile.
        assert_eq!(scan_block_bounds(&profile, 1000), (10, 10));
        // te before everything: at most the first entry (terminator).
        let (lo, hi) = scan_block_bounds(&profile, 5);
        assert_eq!(lo, 1);
        assert!(hi <= 2);
    }

    #[test]
    fn scan_bounds_degrade_gracefully_without_timestamps() {
        // Legacy profile: no timestamps anywhere → no early certainty, the
        // upper bound is the full history.
        let profile: Vec<_> = (1..=10).map(|i| entry(i, None)).collect();
        let (lo, hi) = scan_block_bounds(&profile, 55);
        assert_eq!(hi, 10, "unknown timestamps cannot bound the scan");
        assert!(lo <= hi);
    }

    #[test]
    fn empty_profile_costs_nothing() {
        assert_eq!(scan_block_bounds(&[], 100), (0, 0));
    }

    #[test]
    fn occupancy_probes_cached_until_index_progress() {
        use crate::m1::M1Indexer;
        use crate::partition::FixedLength;
        use fabric_ledger::LedgerConfig;
        use fabric_workload::ingest::{ingest, IdentityEncoder, IngestMode};
        use fabric_workload::{Event, EventKind};

        let dir = std::env::temp_dir().join(format!(
            "planner-probe-cache-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let ledger = Ledger::open(&dir, LedgerConfig::small_for_tests()).unwrap();
        ledger.telemetry().enable();
        let events: Vec<Event> = (1..=40)
            .map(|i| Event {
                subject: EntityId::shipment(0),
                target: EntityId::container(0),
                time: i * 10,
                kind: EventKind::Load,
            })
            .collect();
        ingest(&ledger, &events, IngestMode::SingleEvent, &IdentityEncoder).unwrap();
        let strategy = FixedLength { u: 100 };
        let indexer = M1Indexer::fixed(&strategy);
        indexer
            .run_epoch(&ledger, &[EntityId::shipment(0)], Interval::new(0, 200))
            .unwrap();

        let auto = AutoEngine::default();
        let key = EntityId::shipment(0);
        let tau = Interval::new(0, 200);
        auto.choose(&ledger, key, tau).unwrap();
        let counters = |name: &str| ledger.telemetry().registry().snapshot().counter(name);
        let first_misses = counters("planner.probe.miss");
        assert!(first_misses > 0, "first plan must probe the state-db");
        assert_eq!(counters("planner.probe.hit"), 0);

        auto.choose(&ledger, key, tau).unwrap();
        assert_eq!(
            counters("planner.probe.miss"),
            first_misses,
            "re-planning the same window must not re-probe"
        );
        assert_eq!(counters("planner.probe.hit"), first_misses);

        // Indexer progress (new epoch ⇒ new horizon) invalidates the cache.
        indexer
            .run_epoch(&ledger, &[EntityId::shipment(0)], Interval::new(200, 400))
            .unwrap();
        auto.choose(&ledger, key, Interval::new(0, 400)).unwrap();
        assert!(
            counters("planner.probe.miss") > first_misses,
            "watermark bump must clear cached probes"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
