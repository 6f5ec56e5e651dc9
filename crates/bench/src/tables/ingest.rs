//! Ingest-path ablation: block commit under both durability profiles, M1
//! index construction, and a storage-backend head-to-head (LSM vs value
//! log, plus a write-amplification cell with asserted space bounds).
//!
//! Unlike the paper tables this is not a reproduction target — it guards
//! the write path. Each cell ingests into a throwaway ledger (no caching:
//! ingestion *is* the measurement), repeats `REPS` times and reports
//! medians.

use std::collections::BTreeMap;
use std::time::Instant;

use fabric_kvstore::{Backend, LogStore, Options as KvOptions};
use fabric_ledger::{Error, Ledger, LedgerConfig, Result};
use fabric_workload::dataset::DatasetId;
use fabric_workload::ingest::{ingest, IdentityEncoder, IngestMode};
use temporal_core::interval::Interval;
use temporal_core::m1::M1Indexer;
use temporal_core::partition::FixedLength;

use crate::harness::{copy_dir_recursive, fmt_secs, Ctx, TableOut};
use crate::regress::{bench_file_from_samples, MetricKind};

/// Repetitions per cell; samples reduce to medians in the bench file.
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
    let mut samples: Vec<(String, MetricKind, f64)> = Vec::new();

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
                samples.push((
                    format!("{prefix}/ingest_s"),
                    MetricKind::Time,
                    out.wall.as_secs_f64(),
                ));
                for (name, value) in [
                    ("events", out.events),
                    ("txs", out.txs),
                    ("blocks", out.blocks),
                    ("wal_syncs", wal_syncs as u64),
                ] {
                    samples.push((
                        format!("{prefix}/{name}"),
                        MetricKind::Counter,
                        value as f64,
                    ));
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
        let prefix = format!("m1/{cell}");
        samples.push((
            format!("{prefix}/index_s"),
            MetricKind::Time,
            wall.as_secs_f64(),
        ));
        samples.push((
            format!("{prefix}/keys"),
            MetricKind::Counter,
            keys.len() as f64,
        ));
        samples.push((
            format!("{prefix}/height"),
            MetricKind::Counter,
            height as f64,
        ));
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

    // ── Section 3: storage-backend ablation (LSM vs value log) ──────────
    // Head-to-head ingest on the two storage engines behind the same
    // `StorageEngine` boundary, in both durability profiles. The engines
    // must agree block-for-block (same tip hash); only the cost differs.
    let mut table = TableOut::new(&["Backend", "Profile", "Ingest", "Events/s", "Data files"]);
    let id = DatasetId::Ds3;
    let workload = ctx.workload(id);
    let mut tips: BTreeMap<(&str, &str), (u64, u64, u64, fabric_ledger::Digest)> = BTreeMap::new();
    for (backend_name, backend) in [("lsm", Backend::Lsm), ("log", Backend::Log)] {
        for (profile, sync) in [("buffered", false), ("durable", true)] {
            let mut walls = Vec::new();
            let mut events = 0u64;
            let mut files = 0i64;
            for rep in 0..REPS {
                eprintln!("[ingest] backend {backend_name}/{profile} rep {rep} ...");
                let dir = scratch(ctx, &format!("backend-{backend_name}-{profile}-{rep}"))?;
                let mut config = LedgerConfig::default().with_backend(backend);
                config.state_db.sync_wal = sync;
                config.index_db.sync_wal = sync;
                let ledger = Ledger::open(&dir, config)?;
                let out = ingest(
                    &ledger,
                    &workload.events,
                    IngestMode::SingleEvent,
                    &IdentityEncoder,
                )?;
                ledger.publish_gauges();
                let gauges = ledger.telemetry().snapshot();
                files = gauges.gauge("statedb.kv.log.data_files").unwrap_or(0)
                    + gauges.gauge("indexdb.kv.log.data_files").unwrap_or(0);
                let compactions = gauges.gauge("statedb.kv.log.compactions").unwrap_or(0)
                    + gauges.gauge("indexdb.kv.log.compactions").unwrap_or(0);
                tips.insert(
                    (backend_name, profile),
                    (out.events, out.txs, out.blocks, ledger.last_hash()),
                );
                drop(ledger);
                let _ = std::fs::remove_dir_all(&dir);
                let prefix = format!("ablation/backend/{backend_name}/{profile}");
                samples.push((
                    format!("{prefix}/ingest_s"),
                    MetricKind::Time,
                    out.wall.as_secs_f64(),
                ));
                samples.push((
                    format!("{prefix}/events"),
                    MetricKind::Counter,
                    out.events as f64,
                ));
                samples.push((
                    format!("{prefix}/blocks"),
                    MetricKind::Counter,
                    out.blocks as f64,
                ));
                // Rotation and merge counts follow the (deterministic)
                // byte stream, not timing; a run-over-run drift here means
                // the write path itself changed shape.
                samples.push((
                    format!("{prefix}/data_files"),
                    MetricKind::Counter,
                    files as f64,
                ));
                samples.push((
                    format!("{prefix}/compactions"),
                    MetricKind::Counter,
                    compactions as f64,
                ));
                csv.row(vec![
                    "backend".into(),
                    id.to_string(),
                    "se".into(),
                    format!("{backend_name}/{profile}"),
                    rep.to_string(),
                    out.wall.as_secs_f64().to_string(),
                    out.events.to_string(),
                    out.txs.to_string(),
                    out.blocks.to_string(),
                    "-".into(),
                ]);
                walls.push(out.wall.as_secs_f64());
                events = out.events;
            }
            let med = crate::regress::median(&walls);
            table.row(vec![
                backend_name.into(),
                profile.into(),
                fmt_secs(std::time::Duration::from_secs_f64(med)),
                format!("{:.0}", events as f64 / med.max(1e-9)),
                if backend_name == "log" {
                    files.to_string()
                } else {
                    "-".into()
                },
            ]);
        }
    }
    // The boundary is behaviour-free: every (backend, profile) cell must
    // land on the identical chain.
    let baseline = tips[&("lsm", "buffered")];
    assert!(
        tips.values().all(|t| *t == baseline),
        "storage backends disagree on the resulting chain: {tips:?}"
    );

    // Overwrite-heavy value-log cell: a few keys rewritten thousands of
    // times under a small file/merge budget. Merge compaction must bound
    // on-disk amplification near the configured threshold no matter how
    // many bytes pass through the log.
    {
        eprintln!("[ingest] backend log amplification ...");
        let dir = scratch(ctx, "backend-log-amplification")?;
        let opts = KvOptions {
            log_file_max_bytes: 32 << 10,
            log_compaction_bytes: 64 << 10,
            ..KvOptions::default()
        };
        let store = LogStore::open(&dir, opts.clone())?;
        let (rounds, keys, value_len) = (512u32, 8u32, 256usize);
        let start = Instant::now();
        for _round in 0..rounds {
            for k in 0..keys {
                store.put(format!("amp-{k:02}"), vec![b'x'; value_len])?;
            }
        }
        let wall = start.elapsed();
        let stats = store.storage_stats();
        let disk_bytes: u64 = std::fs::read_dir(&dir)
            .map_err(|e| Error::InvalidArgument(format!("cannot list {}: {e}", dir.display())))?
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "vlog"))
            .filter_map(|e| e.metadata().ok().map(|m| m.len()))
            .sum();
        let written = rounds as u64 * keys as u64 * value_len as u64;
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
        // The acceptance bound: dead bytes stay under the merge threshold
        // (plus one write of slack) and total on-disk footprint is a small
        // multiple of it — NOT of the bytes written through the log.
        assert!(
            stats.compactions > 0,
            "overwrite churn must trigger merges: {stats:?}"
        );
        assert!(
            stats.uncompacted_bytes <= opts.log_compaction_bytes + 4096,
            "dead bytes {} exceed the merge threshold {}",
            stats.uncompacted_bytes,
            opts.log_compaction_bytes
        );
        assert!(
            disk_bytes <= 2 * opts.log_compaction_bytes,
            "on-disk footprint {disk_bytes} not bounded by the threshold \
             ({} written through the log)",
            written
        );
        let prefix = "ablation/backend/log/amp";
        samples.push((
            format!("{prefix}/write_s"),
            MetricKind::Time,
            wall.as_secs_f64(),
        ));
        samples.push((
            format!("{prefix}/disk_bytes"),
            MetricKind::Counter,
            disk_bytes as f64,
        ));
        samples.push((
            format!("{prefix}/compactions"),
            MetricKind::Counter,
            stats.compactions as f64,
        ));
        table.row(vec![
            "log (overwrite churn)".into(),
            "amplification".into(),
            fmt_secs(wall),
            format!("{written} B written"),
            format!("{disk_bytes} B on disk, {} merges", stats.compactions),
        ]);
    }
    report.push_str("## Storage backend (LSM vs value log)\n\n");
    report.push_str(&table.to_markdown());
    report.push('\n');

    // ── Section 4: commit-path ablation (validation × shards) ───────────
    // Lives in its own module; its samples join this table's bench file
    // so one `BENCH_ingest.json` covers the whole write path.
    report.push_str(&crate::tables::commit::run(ctx, &mut samples)?);

    // ── Section 5: index-lag ablation (online M1 daemon) ────────────────
    report.push_str(&crate::tables::m1lag::run(ctx, &mut samples)?);

    ctx.save_result("ingest.csv", &csv.to_csv());
    if ctx.json_out.is_some() {
        ctx.save_bench_file(&bench_file_from_samples("ingest", ctx.machine(), &samples));
    }
    Ok(report)
}
