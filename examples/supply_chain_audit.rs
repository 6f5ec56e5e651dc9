//! Supply-chain audit: the paper's §I motivating use-case, hand-rolled.
//!
//! A compliance officer asks: *"shipment S00002 arrived damaged — which
//! trucks handled it between inspection checkpoints, and what else was on
//! those trucks at the time?"* This example writes an explicit scenario
//! through the chaincode shim (no generator), builds M1 indexes, and
//! answers with temporal queries, demonstrating hand-driven use of the
//! public API: chaincode-style transactions, `GetHistoryForKey`, interval
//! queries and the temporal join.
//!
//! Run with:
//!
//! ```text
//! cargo run -p examples --example supply_chain_audit
//! ```

use fabric_ledger::{Ledger, LedgerConfig, TxSimulator};
use fabric_workload::{EntityId, Event, EventKind};
use temporal_core::interval::Interval;
use temporal_core::join::{build_stays, temporal_join};
use temporal_core::m1::{M1Engine, M1Indexer};
use temporal_core::partition::FixedLength;
use temporal_core::TemporalEngine;

/// Write one load/unload event through the shim, exactly as chaincode
/// would.
fn record(ledger: &Ledger, subject: EntityId, target: EntityId, time: u64, kind: EventKind) {
    let event = Event {
        subject,
        target,
        time,
        kind,
    };
    let mut sim = TxSimulator::new(ledger);
    sim.put_state(event.key(), event.encode_value());
    ledger
        .submit(sim.into_transaction(time).expect("valid event tx"))
        .expect("submit");
}

fn main() -> fabric_ledger::Result<()> {
    let root = std::env::temp_dir().join(format!("tf-audit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let ledger = Ledger::open(&root, LedgerConfig::default())?;

    let s_damaged = EntityId::shipment(2);
    let s_other = EntityId::shipment(5);
    let c1 = EntityId::container(0);
    let c2 = EntityId::container(1);
    let t_red = EntityId::truck(0);
    let t_blue = EntityId::truck(1);

    // Timeline (checkpoint A at t=100, checkpoint B at t=900):
    //   t=120  damaged shipment loaded into container C00000
    //   t=150  C00000 loaded onto truck T00000 (red)
    //   t=400  C00000 unloaded from red, loaded onto blue at 420
    //   t=430  the other shipment joins container C00001, also on blue
    //   t=800  damaged shipment unloaded at destination
    record(&ledger, s_damaged, c1, 120, EventKind::Load);
    record(&ledger, c1, t_red, 150, EventKind::Load);
    record(&ledger, c1, t_red, 400, EventKind::Unload);
    record(&ledger, c1, t_blue, 420, EventKind::Load);
    record(&ledger, s_other, c2, 430, EventKind::Load);
    record(&ledger, c2, t_blue, 450, EventKind::Load);
    record(&ledger, s_damaged, c1, 800, EventKind::Unload);
    record(&ledger, c2, t_blue, 820, EventKind::Unload);
    record(&ledger, s_other, c2, 850, EventKind::Unload);
    record(&ledger, c1, t_blue, 870, EventKind::Unload);
    ledger.cut_block()?;

    // Tamper-evidence first: audit the hash chain before trusting history.
    let tip = ledger.verify_chain()?;
    println!(
        "chain verified through {} blocks, tip {}",
        ledger.height(),
        tip.short()
    );

    // Index the audited window so repeated investigations stay cheap.
    let strategy = FixedLength { u: 200 };
    M1Indexer::fixed(&strategy).run_epoch(
        &ledger,
        &[s_damaged, s_other, c1, c2],
        Interval::new(0, 1000),
    )?;

    let window = Interval::new(100, 900); // between the checkpoints
    let engine = M1Engine;

    // 1. Which trucks handled the damaged shipment in the window?
    let ship_events = engine.events_for_key(&ledger, s_damaged, window)?;
    let mut shipment_stays = std::collections::HashMap::new();
    shipment_stays.insert(s_damaged, build_stays(&ship_events, window));
    let mut container_stays = std::collections::HashMap::new();
    for c in [c1, c2] {
        let events = engine.events_for_key(&ledger, c, window)?;
        container_stays.insert(c, build_stays(&events, window));
    }
    let records = temporal_join(&shipment_stays, &container_stays);
    println!("\ntrucks that handled {s_damaged} within (100, 900]:");
    for r in &records {
        println!("  truck {} during {}", r.truck, r.span);
    }
    assert_eq!(records.len(), 2, "red then blue");

    // 2. Co-located cargo: what else rode the same trucks while the
    //    damaged shipment was aboard?
    shipment_stays.insert(s_other, {
        let events = engine.events_for_key(&ledger, s_other, window)?;
        build_stays(&events, window)
    });
    let all = temporal_join(&shipment_stays, &container_stays);
    println!("\nco-location report:");
    for r in &all {
        println!(
            "  shipment {} on truck {} during {}",
            r.shipment, r.truck, r.span
        );
    }
    let damaged_on_blue = all
        .iter()
        .find(|r| r.shipment == s_damaged && r.truck == t_blue)
        .expect("damaged shipment rode blue");
    let other_on_blue = all
        .iter()
        .find(|r| r.shipment == s_other && r.truck == t_blue)
        .expect("other shipment rode blue");
    let overlap = damaged_on_blue
        .span
        .intersect(&other_on_blue.span)
        .expect("they overlapped");
    println!(
        "\n{} shared truck {} with {} during {}",
        s_other, t_blue, s_damaged, overlap
    );

    // 3. Raw provenance: the full history of the damaged shipment.
    println!("\nfull on-chain history of {s_damaged}:");
    let mut iter = ledger.get_history_for_key(&s_damaged.key())?;
    while let Some(state) = iter.next()? {
        if let Some(value) = &state.value {
            let ev = Event::decode_value(s_damaged, value).expect("event payload");
            println!(
                "  block {:>3} tx {:>2}: {:?} {} @ t={}",
                state.block_num, state.tx_num, ev.kind, ev.target, ev.time
            );
        }
    }

    let _ = std::fs::remove_dir_all(&root);
    Ok(())
}
