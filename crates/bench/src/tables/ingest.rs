//! Ingest-path ablation: block commit under both durability profiles, M1
//! index construction, the commit-path contention check and the index-lag
//! ablation.
//!
//! Unlike the paper tables this is not a reproduction target — it guards
//! the write path. Each cell ingests into a throwaway ledger (no caching:
//! ingestion *is* the measurement), repeats `REPS` times and reports
//! medians.

use std::time::Instant;

use fabric_ledger::{Error, Ledger, LedgerConfig, Result};
use fabric_workload::dataset::DatasetId;
use fabric_workload::ingest::{ingest, IdentityEncoder, IngestMode};
use temporal_core::interval::Interval;
use temporal_core::m1::M1Indexer;
use temporal_core::partition::FixedLength;

use crate::harness::{copy_dir_recursive, fmt_secs, Ctx, TableOut};

/// Repetitions per cell; wall times reduce to medians in the report.
const REPS: usize = 3;

/// A scratch directory under the cache root, wiped before use.
fn scratch(ctx: &Ctx, name: &str) -> Result<std::path::PathBuf> {
    let dir = ctx.data_root.join("scratch-ingest").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| {
        Error::InvalidArgument(format!("cannot create scratch dir {}: {e}", dir.display()))
    })?;
    Ok(dir)
}

/// Run the write-path ablation.
pub fn run(ctx: &Ctx) -> Result<String> {
    let mut report = String::new();
    report.push_str(&format!(
        "# Ingest — write-path ablation (scale 1/{})\n\n",
        ctx.scale
    ));
    let mut csv = TableOut::new(&[
        "section",
        "dataset",
        "mode",
        "variant",
        "rep",
        "wall_s",
        "events",
        "txs",
        "blocks",
        "wal_syncs",
    ]);
    // Exact counters for the bench file, one sample per repetition.
    let mut samples: Vec<(String, f64)> = Vec::new();

    // ── Section 1: block commit, buffered vs durable ────────────────────
    // Two durability profiles: `buffered` leaves `sync_wal` off (the test
    // default, commits are bounded by CPU) and `durable` fsyncs both ledger
    // stores per block like a production peer. Cells keep the `serial`
    // segment they were recorded under in `BENCH_ingest.json`.
    let mut table = TableOut::new(&["Dataset", "Profile", "Ingest", "Events/s", "WAL fsyncs"]);
    for (id, mode) in [
        (DatasetId::Ds3, IngestMode::SingleEvent),
        (DatasetId::Ds2, IngestMode::MultiEvent),
    ] {
        let workload = ctx.workload(id);
        for (profile, sync) in [("buffered", false), ("durable", true)] {
            let mut walls = Vec::new();
            let mut events = 0u64;
            let mut wal_syncs = 0i64;
            for rep in 0..REPS {
                eprintln!("[ingest] {id} ({mode}) {profile} rep {rep} ...");
                let dir = scratch(ctx, &format!("{id}-{mode}-{profile}-{rep}").to_lowercase())?;
                let mut config = LedgerConfig::default();
                config.state_db.sync_wal = sync;
                config.index_db.sync_wal = sync;
                let ledger = Ledger::open(&dir, config)?;
                let out = ingest(&ledger, &workload.events, mode, &IdentityEncoder)?;
                // Gauges are registry-direct (not gated on the enabled
                // flag), so reading them here costs the run nothing.
                ledger.publish_gauges();
                let gauges = ledger.telemetry().snapshot();
                // One fsync per store write, so this is deterministic.
                wal_syncs = gauges.gauge("statedb.wal_fsyncs").unwrap_or(0)
                    + gauges.gauge("indexdb.wal_fsyncs").unwrap_or(0);
                drop(ledger);
                let _ = std::fs::remove_dir_all(&dir);
                let prefix = format!("{id}/{mode}/{profile}/serial").to_lowercase();
                for (name, value) in [
                    ("events", out.events),
                    ("txs", out.txs),
                    ("blocks", out.blocks),
                    ("wal_syncs", wal_syncs as u64),
                ] {
                    samples.push((format!("{prefix}/{name}"), value as f64));
                }
                csv.row(vec![
                    "commit".into(),
                    id.to_string(),
                    mode.to_string(),
                    format!("{profile}/serial"),
                    rep.to_string(),
                    out.wall.as_secs_f64().to_string(),
                    out.events.to_string(),
                    out.txs.to_string(),
                    out.blocks.to_string(),
                    wal_syncs.to_string(),
                ]);
                walls.push(out.wall.as_secs_f64());
                events = out.events;
            }
            let med = crate::regress::median(&walls);
            table.row(vec![
                format!("{id} ({mode})"),
                profile.into(),
                fmt_secs(std::time::Duration::from_secs_f64(med)),
                format!("{:.0}", events as f64 / med.max(1e-9)),
                wal_syncs.to_string(),
            ]);
        }
    }
    report.push_str("## Block commit (buffered vs durable)\n\n");
    report.push_str(&table.to_markdown());
    report.push('\n');

    // ── Section 2: M1 index construction ────────────────────────────────
    let id = DatasetId::Ds3;
    let workload = ctx.workload(id);
    let u = ctx.scale_time(id, 2000);
    let keys = workload.keys();
    let strategy = FixedLength { u };
    let base = scratch(ctx, "m1-base")?;
    {
        let ledger = Ledger::open(&base, LedgerConfig::default())?;
        ingest(
            &ledger,
            &workload.events,
            IngestMode::SingleEvent,
            &IdentityEncoder,
        )?;
        ledger.flush_stores()?;
    }
    let mut table = TableOut::new(&["Index build", "Keys", "Tip"]);
    // The cell keeps the name it was recorded under in `BENCH_ingest.json`.
    let cell = "threads-1";
    for rep in 0..REPS {
        eprintln!("[ingest] m1 index rep {rep} ...");
        let dir = scratch(ctx, &format!("m1-{rep}"))?;
        copy_dir_recursive(&base, &dir)
            .map_err(|e| Error::InvalidArgument(format!("cannot fork m1 base ledger: {e}")))?;
        let ledger = Ledger::open(&dir, LedgerConfig::default())?;
        let start = Instant::now();
        M1Indexer::fixed(&strategy).run_epoch(
            &ledger,
            &keys,
            Interval::new(0, workload.params.t_max),
        )?;
        let wall = start.elapsed();
        let height = ledger.height();
        drop(ledger);
        let _ = std::fs::remove_dir_all(&dir);
        samples.push((format!("m1/{cell}/keys"), keys.len() as f64));
        samples.push((format!("m1/{cell}/height"), height as f64));
        csv.row(vec![
            "m1".into(),
            id.to_string(),
            "se".into(),
            cell.into(),
            rep.to_string(),
            wall.as_secs_f64().to_string(),
            "-".into(),
            "-".into(),
            height.to_string(),
            "-".into(),
        ]);
        if rep == 0 {
            table.row(vec![
                fmt_secs(wall),
                keys.len().to_string(),
                format!("height {height}"),
            ]);
        }
    }
    let _ = std::fs::remove_dir_all(&base);
    report.push_str("## M1 index construction\n\n");
    report.push_str(&table.to_markdown());
    report.push('\n');

    // ── Section 3: commit-path contention check ─────────────────────────
    // Lives in its own module; its samples join this table's bench file
    // so one `BENCH_ingest.json` covers the whole write path.
    report.push_str(&crate::tables::commit::run(ctx, &mut samples)?);

    // ── Section 4: index-lag ablation (online M1 daemon) ────────────────
    report.push_str(&crate::tables::m1lag::run(ctx, &mut samples)?);

    ctx.save_result("ingest.csv", &csv.to_csv());
    ctx.save_bench_file("ingest", &samples);
    Ok(report)
}
