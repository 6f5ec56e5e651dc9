//! Model-M1 index maintenance: the periodic indexing process in action.
//!
//! Demonstrates the operational side of M1 that Table III of the paper
//! quantifies: the indexing process runs every epoch, each invocation gets
//! more expensive (its GHFK scans wade through ever more history), and
//! queries before/after indexing show what the index buys. Also contrasts
//! the paper's fixed-length intervals with the event-count-balanced
//! strategy the paper lists as future work.
//!
//! Run with:
//!
//! ```text
//! cargo run -p examples --example index_maintenance_m1
//! ```

use fabric_ledger::{Ledger, LedgerConfig};
use fabric_workload::dataset::{generate_scaled, DatasetId};
use fabric_workload::ingest::{ingest, IdentityEncoder, IngestMode};
use temporal_core::interval::Interval;
use temporal_core::join::ferry_query;
use temporal_core::m1::{read_meta, M1Engine, M1Indexer};
use temporal_core::partition::{EventCountBalanced, FixedLength};
use temporal_core::tqf::TqfEngine;

fn main() -> fabric_ledger::Result<()> {
    let root = std::env::temp_dir().join(format!("tf-m1-maint-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let ledger = Ledger::open(root.join("fixed"), LedgerConfig::default())?;

    let workload = generate_scaled(DatasetId::Ds2, 200); // zipf: skewed early
    let t_max = workload.params.t_max;
    let keys = workload.keys();
    let u = t_max / 30;
    let strategy = FixedLength { u };
    let indexer = M1Indexer::fixed(&strategy);

    // Interleave ingestion epochs with indexing invocations (4 epochs).
    let epochs = 4u64;
    let mut cursor = 0usize;
    println!("epoch | ingest events | index pairs | index GHFK blocks | index wall");
    for e in 1..=epochs {
        let epoch = Interval::new(t_max * (e - 1) / epochs, t_max * e / epochs);
        let end = workload.events[cursor..]
            .iter()
            .position(|ev| ev.time > epoch.end)
            .map(|p| cursor + p)
            .unwrap_or(workload.events.len());
        ingest(
            &ledger,
            &workload.events[cursor..end],
            IngestMode::MultiEvent,
            &IdentityEncoder,
        )?;
        let n_ingested = end - cursor;
        cursor = end;

        let report = indexer.run_epoch(&ledger, &keys, epoch)?;
        println!(
            "{e:>5} | {n_ingested:>13} | {:>11} | {:>17} | {:?}",
            report.indexes,
            report.stats.blocks_deserialized(),
            report.stats.wall,
        );
    }
    let meta = read_meta(&ledger)?.expect("meta written");
    println!(
        "\non-chain meta: u={}, {} epochs, indexed through t={}",
        meta.u,
        meta.epochs.len(),
        meta.indexed_to()
    );

    // What does the index buy? Same query, TQF vs M1, on a late window.
    let tau = Interval::new(t_max * 3 / 4, t_max * 3 / 4 + t_max / 10);
    let tqf = ferry_query(&TqfEngine, &ledger, tau)?;
    let m1 = ferry_query(&M1Engine, &ledger, tau)?;
    assert_eq!(tqf.records, m1.records);
    println!(
        "\nquery {tau}: TQF {} blocks vs M1 {} blocks ({}x fewer), same {} records",
        tqf.stats.blocks_deserialized(),
        m1.stats.blocks_deserialized(),
        tqf.stats.blocks_deserialized().max(1) / m1.stats.blocks_deserialized().max(1),
        m1.records.len()
    );

    // Future-work strategy: balanced intervals adapt to the zipf skew —
    // hot early ranges get finer intervals, sparse late ranges coarser.
    let ledger_bal = Ledger::open(root.join("balanced"), LedgerConfig::default())?;
    ingest(
        &ledger_bal,
        &workload.events,
        IngestMode::MultiEvent,
        &IdentityEncoder,
    )?;
    let balanced = EventCountBalanced {
        target_events: workload.params.events_per_key as usize / 30,
    };
    let report = M1Indexer::with_strategy(&balanced).run_epoch(
        &ledger_bal,
        &keys,
        Interval::new(0, t_max),
    )?;
    let m1_bal = ferry_query(&M1Engine, &ledger_bal, tau)?;
    assert_eq!(m1_bal.records, m1.records);
    println!(
        "\nbalanced strategy: {} index pairs (fixed-u built {} per epoch×4), \
         late-window query reads {} blocks vs fixed-u {}",
        report.indexes,
        meta.epochs.len(),
        m1_bal.stats.blocks_deserialized(),
        m1.stats.blocks_deserialized()
    );

    let _ = std::fs::remove_dir_all(&root);
    Ok(())
}
