//! Index-lag ablation: query cost on a chain whose M1 index is (a) never
//! maintained after an initial batch build ("off") versus (b) kept within
//! a configured lag of the tip by the online indexer daemon.
//!
//! The chain grows in phases; after every phase each variant answers the
//! same three temporal queries and we count blocks deserialized. With the
//! daemon on, the cost stays flat as the chain grows — the hybrid cursor
//! reads the indexed cells plus at most O(L) tail blocks. With the daemon
//! off, the un-indexed suffix grows with every phase and the query cost
//! grows with it (the paper's Table III re-scan pathology, measured on
//! the read side). Both claims are asserted, not just reported.
//!
//! Ledger construction and the daemon's epoch cuts are deterministic, so
//! every sample here is an exact counter.

use std::sync::Arc;

use fabric_ledger::{Error, Ledger, LedgerConfig, Result};
use fabric_workload::dataset::DatasetId;
use fabric_workload::ingest::{ingest, IdentityEncoder, IngestMode};
use fabric_workload::Event;
use temporal_core::interval::Interval;
use temporal_core::m1::{M1Engine, M1Indexer};
use temporal_core::partition::FixedLength;
use temporal_core::tqf::TqfEngine;
use temporal_core::{index_freshness, DaemonConfig, IndexerDaemon, TemporalEngine, ThetaPolicy};

use crate::harness::{Ctx, TableOut};

/// Chain-growth phases (the x-axis of the ablation).
const PHASES: usize = 4;
/// Daemon lag targets in the grid; `None` is the daemon-off baseline.
const LAG_GRID: [Option<u64>; 3] = [None, Some(1), Some(16)];

/// A scratch directory under the cache root, wiped before use.
fn scratch(ctx: &Ctx, name: &str) -> Result<std::path::PathBuf> {
    let dir = ctx.data_root.join("scratch-m1lag").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| {
        Error::InvalidArgument(format!("cannot create scratch dir {}: {e}", dir.display()))
    })?;
    Ok(dir)
}

/// The fixed query set: full history, the recent tail, and an unaligned
/// mid-range window — the shapes whose cost split the indexed/residual
/// paths differently.
fn queries(t_max: u64) -> [Interval; 3] {
    [
        Interval::new(0, t_max),
        Interval::new(t_max - t_max / 10, t_max),
        Interval::new(t_max / 3 + 1, t_max / 2),
    ]
}

/// Blocks deserialized answering `tau` for `key` via the hybrid M1 path.
fn query_blocks(ledger: &Ledger, key: fabric_workload::EntityId, tau: Interval) -> Result<u64> {
    let before = ledger.stats();
    M1Engine.events_for_key(ledger, key, tau)?;
    Ok(ledger.stats().delta(&before).blocks_deserialized)
}

/// Split `events` (already time-sorted) into `PHASES` chunks, never
/// between two events sharing a timestamp (the online daemon would see
/// the second half as late).
fn phase_chunks(events: &[Event]) -> Vec<&[Event]> {
    let per = events.len().div_ceil(PHASES);
    let mut out = Vec::new();
    let mut start = 0usize;
    while start < events.len() {
        let mut end = (start + per).min(events.len());
        while end < events.len() && events[end].time == events[end - 1].time {
            end += 1;
        }
        out.push(&events[start..end]);
        start = end;
    }
    out
}

/// Run the index-lag ablation, appending samples to the shared ingest
/// bench file under `ablation/index_lag/*`.
pub fn run(ctx: &Ctx, samples: &mut Vec<(String, f64)>) -> Result<String> {
    let id = DatasetId::Ds3;
    let workload = ctx.workload(id);
    let mut events = workload.events.clone();
    events.sort_by_key(|e| e.time);
    let t_max = workload.params.t_max;
    let u = ctx.scale_time(id, 2000);
    let key = workload.keys()[0];
    let chunks = phase_chunks(&events);
    let taus = queries(t_max);

    let mut report = String::from("## Index-lag ablation (online daemon vs stale batch index)\n\n");
    let mut table = TableOut::new(&[
        "Variant",
        "Phase 1 (q1/q2/q3 blocks)",
        &format!("Phase {PHASES} (q1/q2/q3 blocks)"),
        "Final lag",
    ]);

    // Per-variant per-phase (q1 cost, freshness lag), for the growth and
    // flatness assertions below.
    let mut curves: Vec<(String, Vec<u64>, Vec<u64>)> = Vec::new();

    for lag in LAG_GRID {
        let variant = match lag {
            None => "off".to_string(),
            Some(l) => format!("lag{l}"),
        };
        eprintln!("[m1lag] variant {variant} ...");
        let dir = scratch(ctx, &variant)?;
        let ledger = Arc::new(Ledger::open(&dir, LedgerConfig::default())?);
        let mut daemon = match lag {
            Some(l) => Some(IndexerDaemon::new(
                ledger.clone(),
                DaemonConfig {
                    lag_blocks: l,
                    policy: ThetaPolicy::Fixed { u },
                },
            )?),
            None => None,
        };

        let mut phase_costs: Vec<Vec<u64>> = Vec::new();
        let mut phase_lags: Vec<u64> = Vec::new();
        let mut first_row = Vec::new();
        let mut last_row = Vec::new();
        for (phase, part) in chunks.iter().enumerate() {
            ingest(&ledger, part, IngestMode::SingleEvent, &IdentityEncoder)?;
            match &mut daemon {
                Some(d) => {
                    d.catch_up()?;
                }
                None if phase == 0 => {
                    // Daemon-off baseline: one batch build over the first
                    // phase, then the index goes stale as the chain grows.
                    let built_to = part.last().map(|e| e.time + 1).unwrap_or(1);
                    M1Indexer::fixed(&FixedLength { u }).run_epoch(
                        &ledger,
                        &workload.keys(),
                        Interval::new(0, built_to),
                    )?;
                }
                None => {}
            }
            let costs: Vec<u64> = taus
                .iter()
                .map(|&tau| query_blocks(&ledger, key, tau))
                .collect::<Result<_>>()?;
            for (qi, &blocks) in costs.iter().enumerate() {
                samples.push((
                    format!(
                        "ablation/index_lag/{variant}/p{}/q{}_blocks",
                        phase + 1,
                        qi + 1
                    ),
                    blocks as f64,
                ));
            }
            let phase_lag = index_freshness(&ledger)?
                .map(|f| f.lag_blocks)
                .unwrap_or_else(|| ledger.height());
            samples.push((
                format!("ablation/index_lag/{variant}/p{}/lag_blocks", phase + 1),
                phase_lag as f64,
            ));
            phase_lags.push(phase_lag);
            if phase == 0 {
                first_row = costs.clone();
            }
            if phase + 1 == chunks.len() {
                last_row = costs.clone();
            }
            phase_costs.push(costs);
        }

        let fresh = index_freshness(&ledger)?.ok_or_else(|| {
            Error::InvalidArgument(format!("variant {variant}: no M1 index on chain"))
        })?;
        samples.push((
            format!("ablation/index_lag/{variant}/final_lag_blocks"),
            fresh.lag_blocks as f64,
        ));

        // Steady-state bound for the daemon variants: the final query
        // reads at most the flushed-index cost plus O(L) tail blocks.
        if let Some(mut d) = daemon.take() {
            let tail = fresh.lag_blocks;
            let lagged = *phase_costs.last().unwrap().first().unwrap();
            d.flush()?;
            drop(d);
            let flushed = query_blocks(&ledger, key, taus[0])?;
            assert!(
                lagged <= flushed + tail + 2,
                "{variant}: tail scan not O(L): lagged {lagged} vs flushed {flushed} + L {tail}"
            );
            // And the daemon answers stay bit-identical to the raw scan.
            for &tau in &taus {
                let via_m1 = M1Engine.events_for_key(&ledger, key, tau)?;
                let via_tqf = TqfEngine.events_for_key(&ledger, key, tau)?;
                assert!(
                    via_m1 == via_tqf,
                    "{variant}: daemon-maintained M1 diverged from TQF over {tau}"
                );
            }
        }

        table.row(vec![
            variant.clone(),
            first_row
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(" / "),
            last_row
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(" / "),
            format!("{} blocks", fresh.lag_blocks),
        ]);
        curves.push((
            variant,
            phase_costs.iter().map(|c| c[0]).collect(),
            phase_lags,
        ));
        drop(ledger);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // The ablation's two claims. Daemon-off: the un-indexed suffix (and
    // with it the full-history query cost) grows with the chain.
    // Daemon-on: the lag curve is flat — pinned under the configured
    // budget at every phase, no matter how tall the chain gets.
    for (variant, q1, lags) in &curves {
        if variant == "off" {
            assert!(
                q1.last() > q1.first(),
                "daemon-off query cost should grow with the chain: {q1:?}"
            );
            assert!(
                lags.last() > lags.first(),
                "daemon-off lag should grow with the chain: {lags:?}"
            );
        } else {
            let budget: u64 = variant.trim_start_matches("lag").parse().unwrap();
            assert!(
                lags.iter().all(|&l| l <= budget + 1),
                "{variant}: lag escaped its budget: {lags:?}"
            );
        }
    }

    report.push_str(&table.to_markdown());
    report.push('\n');
    report.push_str(&format!(
        "q1 = (0,{t_max}), q2 = recent 10%, q3 = mid unaligned; \
         cost = blocks deserialized by the hybrid M1 engine.\n\n"
    ));
    Ok(report)
}
