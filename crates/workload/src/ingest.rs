//! Ingestion strategies: SE (single event per transaction) and ME
//! (multiple events per transaction), per paper §IV-2.
//!
//! ME batching rule, verbatim from the paper: events are taken in time
//! order and each batch is "a maximal set of consecutive events s.t. in
//! this set no two events share the same key" — because one Fabric
//! transaction persists only one state per key.
//!
//! The driver is parameterised by an [`EventEncoder`] so the same pipeline
//! ingests base data (identity encoding) and Model-M2 data (interval-tagged
//! keys, provided by `temporal-core`).

use std::collections::HashSet;
use std::time::Instant;

use bytes::Bytes;

use fabric_ledger::{Ledger, Result, TxSimulator};

use crate::event::Event;

/// How events map to transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestMode {
    /// One event per transaction (paper's SE).
    SingleEvent,
    /// Maximal distinct-key batches per transaction (paper's ME).
    MultiEvent,
}

impl std::fmt::Display for IngestMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestMode::SingleEvent => f.write_str("SE"),
            IngestMode::MultiEvent => f.write_str("ME"),
        }
    }
}

/// Maps an event to the `(key, value)` pair actually written on-chain.
pub trait EventEncoder {
    /// The ledger key and value for `event`.
    fn encode(&self, event: &Event) -> (Bytes, Bytes);
}

/// Writes events under their subject's key, untransformed (TQF / M1 base
/// data).
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityEncoder;

impl EventEncoder for IdentityEncoder {
    fn encode(&self, event: &Event) -> (Bytes, Bytes) {
        (event.key(), event.encode_value())
    }
}

/// Outcome of an ingestion run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReport {
    /// Events written.
    pub events: u64,
    /// Transactions submitted.
    pub txs: u64,
    /// Blocks committed (including the final forced cut).
    pub blocks: u64,
    /// Wall-clock duration of the run.
    pub wall: std::time::Duration,
}

/// Ingest `events` (already in time order) into `ledger`.
///
/// The final partial block is force-cut so all events are committed on
/// return.
pub fn ingest(
    ledger: &Ledger,
    events: &[Event],
    mode: IngestMode,
    encoder: &dyn EventEncoder,
) -> Result<IngestReport> {
    let start = Instant::now();
    let blocks_before = ledger.stats().blocks_committed;
    let mut txs = 0u64;
    match mode {
        IngestMode::SingleEvent => {
            for ev in events {
                let (key, value) = encoder.encode(ev);
                let mut sim = TxSimulator::new(ledger);
                sim.put_state(key, value);
                ledger.submit(sim.into_transaction(ev.time)?)?;
                txs += 1;
            }
        }
        IngestMode::MultiEvent => {
            let mut batch_keys: HashSet<Bytes> = HashSet::new();
            let mut sim = TxSimulator::new(ledger);
            // A transaction's stamp bounds every event it carries: the
            // bounded history scan skips entries stamped at or before its
            // start, so a batch is stamped with its largest event time.
            let mut batch_max_time = 0u64;
            let mut batch_len = 0usize;
            for ev in events {
                let subject_key = ev.key();
                if batch_keys.contains(&subject_key) {
                    // Maximal run ended: seal the batch as one transaction.
                    let tx = std::mem::replace(&mut sim, TxSimulator::new(ledger))
                        .into_transaction(batch_max_time)?;
                    ledger.submit(tx)?;
                    txs += 1;
                    batch_keys.clear();
                    batch_max_time = 0;
                    batch_len = 0;
                }
                let (key, value) = encoder.encode(ev);
                sim.put_state(key, value);
                batch_keys.insert(subject_key);
                batch_max_time = batch_max_time.max(ev.time);
                batch_len += 1;
            }
            if batch_len > 0 {
                ledger.submit(sim.into_transaction(batch_max_time)?)?;
                txs += 1;
            }
        }
    }
    ledger.cut_block()?;
    let blocks = ledger.stats().blocks_committed - blocks_before;
    Ok(IngestReport {
        events: events.len() as u64,
        txs,
        blocks,
        wall: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{generate_scaled, DatasetId};
    use crate::entity::EntityId;
    use crate::event::EventKind;
    use fabric_ledger::LedgerConfig;

    struct TempDir(std::path::PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let p = std::env::temp_dir().join(format!(
                "ingest-test-{}-{tag}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&p);
            std::fs::create_dir_all(&p).unwrap();
            TempDir(p)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn events() -> Vec<Event> {
        // s0, s1, s0 again (forces ME batch break), s2
        let s = EntityId::shipment;
        let c = EntityId::container;
        vec![
            Event {
                subject: s(0),
                target: c(0),
                time: 10,
                kind: EventKind::Load,
            },
            Event {
                subject: s(1),
                target: c(0),
                time: 20,
                kind: EventKind::Load,
            },
            Event {
                subject: s(0),
                target: c(0),
                time: 30,
                kind: EventKind::Unload,
            },
            Event {
                subject: s(2),
                target: c(1),
                time: 40,
                kind: EventKind::Load,
            },
        ]
    }

    #[test]
    fn se_makes_one_tx_per_event() {
        let dir = TempDir::new("se");
        let ledger = Ledger::open(&dir.0, LedgerConfig::small_for_tests()).unwrap();
        let report = ingest(
            &ledger,
            &events(),
            IngestMode::SingleEvent,
            &IdentityEncoder,
        )
        .unwrap();
        assert_eq!(report.events, 4);
        assert_eq!(report.txs, 4);
        assert!(report.blocks >= 1);
        // Every event visible in history.
        let h = ledger
            .get_history_for_key(&EntityId::shipment(0).key())
            .unwrap()
            .collect_all()
            .unwrap();
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn me_batches_break_on_repeated_key() {
        let dir = TempDir::new("me");
        let ledger = Ledger::open(&dir.0, LedgerConfig::small_for_tests()).unwrap();
        let report = ingest(&ledger, &events(), IngestMode::MultiEvent, &IdentityEncoder).unwrap();
        // Batch 1 = {s0,s1} (breaks at second s0), batch 2 = {s0,s2}.
        assert_eq!(report.txs, 2);
        assert_eq!(report.events, 4);
        // No event lost.
        for (key, expect) in [
            (EntityId::shipment(0), 2usize),
            (EntityId::shipment(1), 1),
            (EntityId::shipment(2), 1),
        ] {
            let h = ledger
                .get_history_for_key(&key.key())
                .unwrap()
                .collect_all()
                .unwrap();
            assert_eq!(h.len(), expect, "history of {key}");
        }
    }

    #[test]
    fn me_ingests_whole_scaled_dataset_without_loss() {
        let dir = TempDir::new("me-ds");
        let ledger = Ledger::open(&dir.0, LedgerConfig::default()).unwrap();
        let w = generate_scaled(DatasetId::Ds3, 50);
        let report = ingest(&ledger, &w.events, IngestMode::MultiEvent, &IdentityEncoder).unwrap();
        assert_eq!(report.events as usize, w.events.len());
        assert!(report.txs < report.events, "ME must batch");
        let mut total = 0usize;
        for key in w.keys() {
            total += ledger
                .get_history_for_key(&key.key())
                .unwrap()
                .collect_all()
                .unwrap()
                .len();
        }
        assert_eq!(total, w.events.len());
    }

    /// Satellite: `IngestReport` invariants — `blocks` equals the ledger
    /// height delta and `txs` equals the sum of per-block tx counts,
    /// including the forced final cut of a partial batch.
    fn assert_report_invariants(mode: IngestMode, tag: &str) {
        let dir = TempDir::new(tag);
        let ledger = Ledger::open(&dir.0, LedgerConfig::small_for_tests()).unwrap();
        let height_before = ledger.height();
        // 10 events over 3-tx blocks: SE ends in a forced partial cut.
        let w = generate_scaled(DatasetId::Ds3, 10);
        let report = ingest(&ledger, &w.events, mode, &IdentityEncoder).unwrap();
        assert_eq!(report.events as usize, w.events.len());
        assert_eq!(
            report.blocks,
            ledger.height() - height_before,
            "{mode}: blocks must equal the height delta"
        );
        let mut txs_in_blocks = 0u64;
        let mut events_in_blocks = 0u64;
        for num in height_before..ledger.height() {
            let block = ledger.get_block(num).unwrap();
            txs_in_blocks += block.txs.len() as u64;
            events_in_blocks += block.txs.iter().map(|t| t.writes.len() as u64).sum::<u64>();
        }
        assert_eq!(
            report.txs, txs_in_blocks,
            "{mode}: txs must match block contents"
        );
        assert_eq!(
            report.events, events_in_blocks,
            "{mode}: every event is exactly one write"
        );
        // The final cut really was partial: the last block is under-full.
        let last = ledger.get_block(ledger.height() - 1).unwrap();
        assert!(last.txs.len() <= 3);
    }

    #[test]
    fn report_invariants_hold_for_se() {
        assert_report_invariants(IngestMode::SingleEvent, "inv-se");
    }

    #[test]
    fn report_invariants_hold_for_me() {
        assert_report_invariants(IngestMode::MultiEvent, "inv-me");
    }

    #[test]
    fn event_timestamps_preserved_in_history_values() {
        let dir = TempDir::new("stamps");
        let ledger = Ledger::open(&dir.0, LedgerConfig::small_for_tests()).unwrap();
        ingest(
            &ledger,
            &events(),
            IngestMode::SingleEvent,
            &IdentityEncoder,
        )
        .unwrap();
        let h = ledger
            .get_history_for_key(&EntityId::shipment(0).key())
            .unwrap()
            .collect_all()
            .unwrap();
        let decoded: Vec<Event> = h
            .iter()
            .map(|s| Event::decode_value(EntityId::shipment(0), s.value.as_ref().unwrap()).unwrap())
            .collect();
        assert_eq!(decoded[0].time, 10);
        assert_eq!(decoded[1].time, 30);
        assert_eq!(decoded[1].kind, EventKind::Unload);
    }
}
