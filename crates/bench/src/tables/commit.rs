//! Commit-path check: a synthetic read-modify-write batch where the
//! conflict count is known in closed form, pinning the
//! `commit.validate.conflicts` counter deterministically. The cell keeps
//! the `serial` name it was recorded under in `BENCH_ingest.json`.

use fabric_ledger::{Error, Ledger, LedgerConfig, Result, TxSimulator};

use crate::harness::{Ctx, TableOut};

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

/// Durable config: WAL fsyncs on.
fn cell_config() -> LedgerConfig {
    let mut config = LedgerConfig::default();
    config.state_db.sync_wal = true;
    config.index_db.sync_wal = true;
    config
}

/// Run the contention check, appending its exact counters (keyed under
/// `ablation/commit_path/contention/`) to `samples` so they land in the same
/// `BENCH_ingest.json` as the write-path cells.
pub fn run(ctx: &Ctx, samples: &mut Vec<(String, f64)>) -> Result<String> {
    let mut report = String::new();
    let mut csv = TableOut::new(&["variant", "txs", "blocks", "conflicts"]);
    let variant = "serial";

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
        variant.into(),
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
