//! Fleet report: business analytics over temporal query results — the
//! lineage/reporting/compliance use-cases the paper's introduction
//! motivates.
//!
//! Builds an M1-indexed ledger, runs the temporal join for a reporting
//! window, and derives: per-shipment transit time, truck utilization
//! league table, co-location (compliance) pairs, and dwell ratios.
//!
//! Run with:
//!
//! ```text
//! cargo run -p examples --example fleet_report --release
//! ```

use fabric_ledger::{Ledger, LedgerConfig};
use fabric_workload::dataset::{generate_scaled, DatasetId};
use fabric_workload::ingest::{ingest, IdentityEncoder, IngestMode};
use fabric_workload::EntityKind;
use temporal_core::analytics;
use temporal_core::interval::Interval;
use temporal_core::join::{build_stays, ferry_query};
use temporal_core::m1::{M1Engine, M1Indexer};
use temporal_core::partition::FixedLength;
use temporal_core::TemporalEngine;

fn main() -> fabric_ledger::Result<()> {
    let root = std::env::temp_dir().join(format!("tf-fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let ledger = Ledger::open(&root, LedgerConfig::default())?;

    let workload = generate_scaled(DatasetId::Ds1, 300);
    let t_max = workload.params.t_max;
    ingest(
        &ledger,
        &workload.events,
        IngestMode::MultiEvent,
        &IdentityEncoder,
    )?;
    let strategy = FixedLength { u: t_max / 50 };
    M1Indexer::fixed(&strategy).run_epoch(&ledger, &workload.keys(), Interval::new(0, t_max))?;

    // Reporting window: the middle half of the timeline.
    let window = Interval::new(t_max / 4, 3 * t_max / 4);
    let engine = M1Engine;
    let outcome = ferry_query(&engine, &ledger, window)?;
    println!(
        "window {window}: {} ferry records from {} events ({} blocks deserialized, {:?})\n",
        outcome.records.len(),
        outcome.events_scanned,
        outcome.stats.blocks_deserialized(),
        outcome.stats.wall
    );

    // 1. Truck league table.
    println!("busiest trucks (ticks with cargo aboard):");
    for (truck, busy) in analytics::top_trucks(&outcome.records, 5) {
        let pct = 100.0 * busy as f64 / window.len() as f64;
        println!("  {truck}: {busy:>6} ticks ({pct:>5.1}%)");
    }

    // 2. Longest-transit shipments.
    let transit = analytics::transit_time_per_shipment(&outcome.records);
    let mut by_time: Vec<_> = transit.iter().collect();
    by_time.sort_by(|a, b| b.1.cmp(a.1));
    println!("\nlongest-transit shipments:");
    for (shipment, ticks) in by_time.iter().take(5) {
        println!("  {shipment}: {ticks} ticks on trucks");
    }

    // 3. Compliance: which shipment pairs shared a truck, and when.
    let pairs = analytics::co_located_shipments(&outcome.records);
    println!("\nco-location pairs in window: {}", pairs.len());
    for (a, b, truck, span) in pairs.iter().take(5) {
        println!("  {a} + {b} on {truck} during {span}");
    }

    // 4. Dwell ratio for a sample shipment (carried vs idle).
    let sample = engine.list_keys(&ledger, EntityKind::Shipment)?[0];
    let events = engine.events_for_key(&ledger, sample, window)?;
    let stays = build_stays(&events, window);
    let dwell = analytics::dwell(&stays, window.len());
    println!(
        "\ndwell for {sample}: carried {} ticks, idle {} ticks ({:.1}% utilised)",
        dwell.carried,
        dwell.idle,
        100.0 * dwell.carried as f64 / window.len() as f64
    );

    let _ = std::fs::remove_dir_all(&root);
    Ok(())
}
