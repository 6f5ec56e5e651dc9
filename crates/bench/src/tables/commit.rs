//! Commit-path ablation: 1/2/4 key-sharded commit streams.
//!
//! Guards the sharded commit path. Every cell ingests DS1 (single-event
//! transactions — the validation-heaviest mode) into a throwaway ledger
//! with durable WAL fsyncs, the profile where sharding actually pays:
//! N shards are N independent fsync streams. Cell names keep the
//! `serial-` prefix they were recorded under in `BENCH_ingest.json`.
//!
//! A second section commits a synthetic read-modify-write batch where the
//! conflict count is known in closed form, pinning the
//! `commit.validate.conflicts` counter deterministically.

use std::collections::BTreeMap;

use fabric_ledger::{Error, Ledger, LedgerConfig, Result, ShardedLedger, TxSimulator};
use fabric_workload::dataset::DatasetId;
use fabric_workload::ingest::{ingest_sharded, IdentityEncoder, IngestMode, IngestReport};

use crate::harness::{fmt_secs, Ctx, TableOut};

/// Repetitions per cell; wall times reduce to medians in the report.
const REPS: usize = 3;
/// Shard counts in the grid.
const SHARD_GRID: [usize; 3] = [1, 2, 4];
/// Distinct contended keys in the synthetic-conflict section.
const CONTENTION_KEYS: usize = 8;
/// Read-modify-write transactions racing over those keys in one block.
const CONTENTION_TXS: usize = 64;

/// A scratch directory under the cache root, wiped before use.
fn scratch(ctx: &Ctx, name: &str) -> Result<std::path::PathBuf> {
    let dir = ctx.data_root.join("scratch-commit").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| {
        Error::InvalidArgument(format!("cannot create scratch dir {}: {e}", dir.display()))
    })?;
    Ok(dir)
}

/// Durable config for one cell: WAL fsyncs on.
fn cell_config() -> LedgerConfig {
    let mut config = LedgerConfig::default();
    config.state_db.sync_wal = true;
    config.index_db.sync_wal = true;
    config
}

/// One grid cell's outcome: the ingest report and the
/// `commit.validate.*` counters.
struct CellOut {
    report: IngestReport,
    validate_txs: u64,
    conflicts: u64,
}

fn run_cell(
    ctx: &Ctx,
    name: &str,
    shards: usize,
    events: &[fabric_workload::Event],
) -> Result<CellOut> {
    let dir = scratch(ctx, name)?;
    let ledger = ShardedLedger::create(&dir, cell_config(), shards)?;
    ledger.telemetry().enable();
    let report = ingest_sharded(&ledger, events, IngestMode::SingleEvent, &IdentityEncoder)?;
    let snap = ledger.telemetry().snapshot();
    drop(ledger);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(CellOut {
        report,
        validate_txs: snap.counter("commit.validate.txs"),
        conflicts: snap.counter("commit.validate.conflicts"),
    })
}

/// Run the commit-path ablation, appending its exact counters (keyed under
/// `ablation/commit_path/`) to `samples` so they land in the same
/// `BENCH_ingest.json` as the write-path cells.
pub fn run(ctx: &Ctx, samples: &mut Vec<(String, f64)>) -> Result<String> {
    let mut report = String::new();
    let mut csv = TableOut::new(&[
        "section",
        "variant",
        "shards",
        "rep",
        "wall_s",
        "events",
        "txs",
        "blocks",
        "conflicts",
    ]);

    // ── Section 1: shard grid, durable SE ingest ────────────────────────
    let id = DatasetId::Ds1;
    let workload = ctx.workload(id);
    let variant = "serial";
    let mut medians: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let mut cells: BTreeMap<usize, CellOut> = BTreeMap::new();
    let mut table = TableOut::new(&[
        "Shards",
        "Ingest",
        "Events/s",
        "Speedup vs serial-1",
        "Validated txs",
        "Conflicts",
    ]);
    // Reps are the *outer* loop: a burst of background load then skews
    // one rep of every cell instead of every rep of one cell, and the
    // per-cell medians shrug it off.
    for rep in 0..REPS {
        for shards in SHARD_GRID {
            eprintln!("[commit] {id} {variant} shards={shards} rep {rep} ...");
            let cell = run_cell(
                ctx,
                &format!("{id}-{variant}-s{shards}-{rep}").to_lowercase(),
                shards,
                &workload.events,
            )?;
            let r = &cell.report;
            let wall = r.wall.as_secs_f64();
            let prefix = format!("ablation/commit_path/{variant}-shards{shards}");
            for (metric, v) in [
                ("events", r.events),
                ("txs", r.txs),
                ("blocks", r.blocks),
                ("validate_txs", cell.validate_txs),
                ("conflicts", cell.conflicts),
            ] {
                samples.push((format!("{prefix}/{metric}"), v as f64));
            }
            csv.row(vec![
                "grid".into(),
                variant.into(),
                shards.to_string(),
                rep.to_string(),
                wall.to_string(),
                r.events.to_string(),
                r.txs.to_string(),
                r.blocks.to_string(),
                cell.conflicts.to_string(),
            ]);
            medians.entry(shards).or_default().push(wall);
            cells.insert(shards, cell);
        }
    }
    let baseline_s = crate::regress::median(&medians[&1]);
    for (shards, walls) in &medians {
        let wall = crate::regress::median(walls);
        let cell = &cells[shards];
        table.row(vec![
            shards.to_string(),
            fmt_secs(std::time::Duration::from_secs_f64(wall)),
            format!("{:.0}", cell.report.events as f64 / wall.max(1e-9)),
            format!("{:.2}x", baseline_s / wall.max(1e-9)),
            cell.validate_txs.to_string(),
            cell.conflicts.to_string(),
        ]);
    }
    let headline = baseline_s / crate::regress::median(&medians[&4]).max(1e-9);
    report.push_str(&format!("## Commit path: shards ({id} SE, durable)\n\n"));
    report.push_str(&table.to_markdown());
    report.push_str(&format!(
        "\nHeadline: 4 shards is {headline:.2}x the single-shard path.\n\n"
    ));

    // ── Section 2: synthetic contention, closed-form conflict count ─────
    // One seed block writes K keys; the next block races T read-modify-
    // write txs over them. MVCC admits the first writer per key and
    // invalidates every later reader of a stale version, so exactly
    // T - K txs conflict, by construction.
    let expected = (CONTENTION_TXS - CONTENTION_KEYS) as u64;
    let mut table = TableOut::new(&["Txs", "Valid", "Conflicts", "Tip"]);
    let dir = scratch(ctx, &format!("contention-{variant}"))?;
    let config = cell_config().with_block_max_txs(CONTENTION_TXS + 1);
    let ledger = Ledger::open(&dir, config)?;
    ledger.telemetry().enable();
    let key = |i: usize| format!("K{:05}", i % CONTENTION_KEYS);
    let mut sim = TxSimulator::new(&ledger);
    for i in 0..CONTENTION_KEYS {
        sim.put_state(key(i), "seed");
    }
    ledger.submit(sim.into_transaction(1)?)?;
    ledger.cut_block()?;
    for i in 0..CONTENTION_TXS {
        let mut sim = TxSimulator::new(&ledger);
        let _ = sim.get_state(key(i).as_bytes())?;
        sim.put_state(key(i), format!("v{i}"));
        ledger.submit(sim.into_transaction(2 + i as u64)?)?;
    }
    ledger.cut_block()?;
    let snap = ledger.telemetry().snapshot();
    let conflicts = snap.counter("commit.validate.conflicts");
    assert_eq!(
        conflicts, expected,
        "validation missed the closed-form conflict count"
    );
    let prefix = format!("ablation/commit_path/contention/{variant}");
    samples.push((format!("{prefix}/conflicts"), conflicts as f64));
    samples.push((
        format!("{prefix}/txs"),
        snap.counter("commit.validate.txs") as f64,
    ));
    csv.row(vec![
        "contention".into(),
        variant.into(),
        "1".into(),
        "0".into(),
        "-".into(),
        "-".into(),
        (CONTENTION_TXS + 1).to_string(),
        "2".into(),
        conflicts.to_string(),
    ]);
    table.row(vec![
        (CONTENTION_TXS + 1).to_string(),
        (CONTENTION_KEYS + 1).to_string(),
        conflicts.to_string(),
        format!("height {}", ledger.height()),
    ]);
    drop(ledger);
    let _ = std::fs::remove_dir_all(&dir);
    report.push_str(&format!(
        "## Synthetic contention ({CONTENTION_TXS} RMW txs over {CONTENTION_KEYS} keys)\n\n"
    ));
    report.push_str(&table.to_markdown());
    report.push('\n');

    ctx.save_result("commit.csv", &csv.to_csv());
    Ok(report)
}
