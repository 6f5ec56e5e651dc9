//! Quickstart: open a ledger, record supply-chain events through the
//! chaincode shim, and ask a temporal question three ways (TQF, M1, M2).
//!
//! Run with:
//!
//! ```text
//! cargo run -p examples --example quickstart
//! ```

use fabric_ledger::{Ledger, LedgerConfig};
use fabric_workload::dataset::{generate_scaled, DatasetId};
use fabric_workload::ingest::{ingest, IdentityEncoder, IngestMode};
use temporal_core::interval::Interval;
use temporal_core::join::ferry_query;
use temporal_core::m1::{M1Engine, M1Indexer};
use temporal_core::m2::{M2Encoder, M2Engine};
use temporal_core::partition::FixedLength;
use temporal_core::tqf::TqfEngine;
use temporal_core::TemporalEngine;

fn main() -> fabric_ledger::Result<()> {
    let root = std::env::temp_dir().join(format!("tf-quickstart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // A small synthetic supply-chain workload: shipments ride containers,
    // containers ride trucks, every load/unload is a ledger event.
    let workload = generate_scaled(DatasetId::Ds3, 20);
    let t_max = workload.params.t_max;
    println!(
        "workload: {} events, {} keys, t_max={t_max}",
        workload.events.len(),
        workload.params.total_keys()
    );

    // --- Baseline (TQF): plain ingestion, naive history scans. -----------
    let base = Ledger::open(root.join("base"), LedgerConfig::default())?;
    let report = ingest(
        &base,
        &workload.events,
        IngestMode::MultiEvent,
        &IdentityEncoder,
    )?;
    println!(
        "ingested base data: {} events in {} txs / {} blocks",
        report.events, report.txs, report.blocks
    );

    // The temporal question (query Q): which trucks ferried each shipment
    // during the middle third of the timeline?
    let tau = Interval::new(t_max / 3, 2 * t_max / 3);

    let tqf = ferry_query(&TqfEngine, &base, tau)?;
    println!(
        "\nTQF:    {} ferry records | {} GHFK calls | {} blocks deserialized | {:?}",
        tqf.records.len(),
        tqf.stats.ghfk_calls(),
        tqf.stats.blocks_deserialized(),
        tqf.stats.wall
    );

    // --- Model M1: build temporal indexes, then query them. --------------
    let u = t_max / 20;
    let strategy = FixedLength { u };
    M1Indexer::fixed(&strategy).run_epoch(&base, &workload.keys(), Interval::new(0, t_max))?;
    let m1 = ferry_query(&M1Engine, &base, tau)?;
    println!(
        "M1:     {} ferry records | {} GHFK calls | {} blocks deserialized | {:?}",
        m1.records.len(),
        m1.stats.ghfk_calls(),
        m1.stats.blocks_deserialized(),
        m1.stats.wall
    );

    // --- Model M2: interval-tagged keys, no separate indexing phase. ------
    let m2_ledger = Ledger::open(root.join("m2"), LedgerConfig::default())?;
    ingest(
        &m2_ledger,
        &workload.events,
        IngestMode::MultiEvent,
        &M2Encoder { u },
    )?;
    let m2_engine = M2Engine { u };
    let m2 = ferry_query(&m2_engine, &m2_ledger, tau)?;
    println!(
        "{}: {} ferry records | {} GHFK calls | {} blocks deserialized | {:?}",
        m2_engine.name(),
        m2.records.len(),
        m2.stats.ghfk_calls(),
        m2.stats.blocks_deserialized(),
        m2.stats.wall
    );

    // All three engines answer identically.
    assert_eq!(tqf.records, m1.records);
    assert_eq!(tqf.records, m2.records);
    println!(
        "\nall three engines agree on {} records ✓",
        tqf.records.len()
    );

    if let Some(first) = tqf.records.first() {
        println!(
            "example record: shipment {} rode truck {} during {}",
            first.shipment, first.truck, first.span
        );
    }

    let _ = std::fs::remove_dir_all(&root);
    Ok(())
}
