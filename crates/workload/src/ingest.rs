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

use fabric_ledger::sharded::SHARD_COMMIT_SPAN;
use fabric_ledger::{Ledger, Result, ShardedLedger, TxSimulator};

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
            let mut batch_last_time = 0u64;
            let mut batch_len = 0usize;
            for ev in events {
                let subject_key = ev.key();
                if batch_keys.contains(&subject_key) {
                    // Maximal run ended: seal the batch as one transaction.
                    let tx = std::mem::replace(&mut sim, TxSimulator::new(ledger))
                        .into_transaction(batch_last_time)?;
                    ledger.submit(tx)?;
                    txs += 1;
                    batch_keys.clear();
                    batch_len = 0;
                }
                let (key, value) = encoder.encode(ev);
                sim.put_state(key, value);
                batch_keys.insert(subject_key);
                batch_last_time = ev.time;
                batch_len += 1;
            }
            if batch_len > 0 {
                ledger.submit(sim.into_transaction(batch_last_time)?)?;
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

/// Ingest `events` (in time order) into a [`ShardedLedger`]: the stream
/// is split by routed on-chain key and each shard ingests its slice
/// concurrently ([`ShardedLedger::for_each_shard`] under `shard.commit`
/// spans, so traces show one lane per shard).
///
/// Within a shard, events keep their global time order, and every
/// entity's events land wholly on its owning shard — so per-key history
/// is identical to a single-shard ingest of the same stream. ME batching
/// applies *per shard*: batch boundaries differ from the single-ledger
/// run (each shard sees only its own key subset), but the set of
/// committed events is the same.
///
/// The returned report sums `events`/`txs`/`blocks` across shards; its
/// `wall` is the whole fan-out's duration (the slowest shard).
pub fn ingest_sharded(
    ledger: &ShardedLedger,
    events: &[Event],
    mode: IngestMode,
    encoder: &(dyn EventEncoder + Sync),
) -> Result<IngestReport> {
    let start = Instant::now();
    let mut per_shard: Vec<Vec<Event>> = vec![Vec::new(); ledger.shard_count()];
    for ev in events {
        let (key, _) = encoder.encode(ev);
        per_shard[ledger.shard_index_for_key(&key)].push(*ev);
    }
    let reports = ledger.for_each_shard(SHARD_COMMIT_SPAN, |i, shard| {
        if per_shard[i].is_empty() {
            return Ok(None);
        }
        ingest(shard, &per_shard[i], mode, encoder).map(Some)
    })?;
    let mut txs = 0u64;
    let mut blocks = 0u64;
    for r in reports.into_iter().flatten() {
        txs += r.txs;
        blocks += r.blocks;
    }
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

    /// Read every blockfile's raw bytes, sorted by file name.
    fn blockfile_bytes(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir.join("blocks")).unwrap() {
            let entry = entry.unwrap();
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with("blockfile_") {
                out.push((name, std::fs::read(entry.path()).unwrap()));
            }
        }
        out.sort();
        out
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

    /// Satellite: a 1-shard [`ShardedLedger`] ingest is byte-identical to
    /// a plain [`Ledger`] fed the same stream — the router is a no-op and
    /// the single shard sees the exact same batches.
    #[test]
    fn one_shard_sharded_ingest_matches_plain_ledger() {
        use fabric_ledger::ShardedLedger;
        let w = generate_scaled(DatasetId::Ds3, 40);
        let plain_dir = TempDir::new("shard1-plain");
        let sharded_dir = TempDir::new("shard1-sharded");
        let config = LedgerConfig::small_for_tests();
        let plain = Ledger::open(&plain_dir.0, config.clone()).unwrap();
        let plain_report = ingest(&plain, &w.events, IngestMode::MultiEvent, &IdentityEncoder);
        let plain_report = plain_report.unwrap();
        plain.flush_stores().unwrap();
        let sharded = ShardedLedger::create(&sharded_dir.0, config, 1).unwrap();
        let report = ingest_sharded(
            &sharded,
            &w.events,
            IngestMode::MultiEvent,
            &IdentityEncoder,
        )
        .unwrap();
        sharded.flush_stores().unwrap();
        assert_eq!(report.events, plain_report.events);
        assert_eq!(report.txs, plain_report.txs);
        assert_eq!(report.blocks, plain_report.blocks);
        assert_eq!(
            blockfile_bytes(&plain_dir.0),
            blockfile_bytes(&sharded_dir.0.join("shard-00")),
            "1-shard blockfiles must be byte-identical to the plain ledger"
        );
    }

    /// Satellite: a 4-shard ingest loses no events — every entity's
    /// history is complete on its owning shard and the report totals add
    /// up across shards.
    #[test]
    fn four_shard_ingest_preserves_per_key_histories() {
        use fabric_ledger::ShardedLedger;
        // Factor 4 keeps ~7 shipments — enough distinct entity ordinals
        // to cover all four shards.
        let w = generate_scaled(DatasetId::Ds3, 4);
        let plain_dir = TempDir::new("shard4-plain");
        let sharded_dir = TempDir::new("shard4-sharded");
        let config = LedgerConfig::small_for_tests();
        let plain = Ledger::open(&plain_dir.0, config.clone()).unwrap();
        ingest(&plain, &w.events, IngestMode::MultiEvent, &IdentityEncoder).unwrap();
        let sharded = ShardedLedger::create(&sharded_dir.0, config, 4).unwrap();
        let report = ingest_sharded(
            &sharded,
            &w.events,
            IngestMode::MultiEvent,
            &IdentityEncoder,
        )
        .unwrap();
        assert_eq!(report.events as usize, w.events.len());
        assert_eq!(report.blocks, sharded.height());
        assert_eq!(sharded.stats().events_committed, report.events);
        // At this scale the workload spreads across all four shards.
        assert!(
            sharded.heights().iter().all(|&h| h > 0),
            "expected every shard to commit blocks: {:?}",
            sharded.heights()
        );
        // Per-key histories match the single-ledger run exactly.
        let mut keys: Vec<_> = w.events.iter().map(|e| e.subject.key().to_vec()).collect();
        keys.sort();
        keys.dedup();
        for key in keys {
            let want = plain
                .get_history_for_key(&key)
                .unwrap()
                .collect_all()
                .unwrap();
            let got = sharded
                .get_history_for_key(&key)
                .unwrap()
                .collect_all()
                .unwrap();
            assert_eq!(
                want.len(),
                got.len(),
                "history length for {:?}",
                String::from_utf8_lossy(&key)
            );
            // ME batch boundaries (and so tx timestamps) differ per
            // shard; the committed event sequence — the values — must
            // not.
            for (a, b) in want.iter().zip(got.iter()) {
                assert_eq!(a.value, b.value);
            }
        }
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
