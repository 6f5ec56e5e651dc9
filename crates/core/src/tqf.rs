//! TQF — Temporal Queries on Fabric, the naive baseline (paper §V).
//!
//! To retrieve key `k`'s events in `(ts, te]`, TQF has no choice but to
//! issue a plain `GetHistoryForKey(k)` and scan the iterator from the
//! beginning of history. Because Fabric's history carries no temporal
//! index, every block containing *any* state of `k` ingested in `(0, te]`
//! is deserialized; the scan stops early once event times pass `te`
//! (the iterator is lazy), but everything before `ts` is wasted work.
//! The further right the query window moves, the worse TQF gets — the
//! bottleneck both models in this crate exist to remove.

use fabric_ledger::{Ledger, Result};
use fabric_workload::EntityId;

use crate::cursor::{EventCursor, TqfCursor};
use crate::engine::TemporalEngine;
use crate::interval::Interval;

/// The baseline engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct TqfEngine;

impl TemporalEngine for TqfEngine {
    fn name(&self) -> String {
        "TQF".to_string()
    }

    fn events_cursor<'l>(
        &self,
        ledger: &'l Ledger,
        key: EntityId,
        tau: Interval,
    ) -> Result<Box<dyn EventCursor + 'l>> {
        Ok(Box::new(TqfCursor::new(ledger, key, tau)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_ledger::{Ledger, LedgerConfig};
    use fabric_workload::ingest::{ingest, IdentityEncoder, IngestMode};
    use fabric_workload::{EntityKind, Event, EventKind};

    struct TempDir(std::path::PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let p = std::env::temp_dir().join(format!(
                "tqf-test-{}-{tag}-{:?}",
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

    fn event(s: u32, c: u32, time: u64, kind: EventKind) -> Event {
        Event {
            subject: EntityId::shipment(s),
            target: EntityId::container(c),
            time,
            kind,
        }
    }

    fn setup(dir: &TempDir, events: &[Event]) -> Ledger {
        let ledger = Ledger::open(&dir.0, LedgerConfig::small_for_tests()).unwrap();
        ingest(&ledger, events, IngestMode::SingleEvent, &IdentityEncoder).unwrap();
        ledger
    }

    #[test]
    fn filters_to_query_interval() {
        let dir = TempDir::new("filter");
        let events: Vec<Event> = (1..=10)
            .map(|i| {
                event(
                    0,
                    0,
                    i * 10,
                    if i % 2 == 1 {
                        EventKind::Load
                    } else {
                        EventKind::Unload
                    },
                )
            })
            .collect();
        let ledger = setup(&dir, &events);
        let got = TqfEngine
            .events_for_key(&ledger, EntityId::shipment(0), Interval::new(30, 70))
            .unwrap();
        let times: Vec<u64> = got.iter().map(|e| e.time).collect();
        assert_eq!(times, vec![40, 50, 60, 70]);
    }

    #[test]
    fn early_termination_skips_late_blocks() {
        let dir = TempDir::new("early");
        // 30 events over 10 blocks (3 txs per block, SE).
        let events: Vec<Event> = (1..=30)
            .map(|i| event(0, 0, i * 10, EventKind::Load))
            .collect();
        let ledger = setup(&dir, &events);
        assert_eq!(ledger.height(), 10);
        let before = ledger.stats();
        // Query (0, 60]: only the first 6 events → first 2 blocks.
        let got = TqfEngine
            .events_for_key(&ledger, EntityId::shipment(0), Interval::new(0, 60))
            .unwrap();
        assert_eq!(got.len(), 6);
        let d = ledger.stats().delta(&before);
        // 2 blocks of hits + at most 1 block to see the first time > te.
        assert!(
            d.blocks_deserialized <= 3,
            "deserialized {}",
            d.blocks_deserialized
        );
    }

    #[test]
    fn cost_grows_as_window_moves_right() {
        let dir = TempDir::new("growth");
        let events: Vec<Event> = (1..=60)
            .map(|i| event(0, 0, i * 10, EventKind::Load))
            .collect();
        let ledger = setup(&dir, &events);
        let cost = |tau: Interval| {
            let before = ledger.stats();
            TqfEngine
                .events_for_key(&ledger, EntityId::shipment(0), tau)
                .unwrap();
            ledger.stats().delta(&before).blocks_deserialized
        };
        let early = cost(Interval::new(0, 100));
        let late = cost(Interval::new(500, 600));
        assert!(
            late > early,
            "rightward window must cost more: early={early} late={late}"
        );
    }

    #[test]
    fn list_keys_scans_state_db() {
        let dir = TempDir::new("keys");
        let events = vec![
            event(0, 0, 10, EventKind::Load),
            event(3, 1, 20, EventKind::Load),
            Event {
                subject: EntityId::container(1),
                target: EntityId::truck(0),
                time: 30,
                kind: EventKind::Load,
            },
        ];
        let ledger = setup(&dir, &events);
        let ships = TqfEngine.list_keys(&ledger, EntityKind::Shipment).unwrap();
        assert_eq!(ships, vec![EntityId::shipment(0), EntityId::shipment(3)]);
        let conts = TqfEngine.list_keys(&ledger, EntityKind::Container).unwrap();
        assert_eq!(conts, vec![EntityId::container(1)]);
    }

    #[test]
    fn empty_window_returns_nothing() {
        let dir = TempDir::new("empty");
        let events = vec![event(0, 0, 50, EventKind::Load)];
        let ledger = setup(&dir, &events);
        let got = TqfEngine
            .events_for_key(&ledger, EntityId::shipment(0), Interval::new(100, 200))
            .unwrap();
        assert!(got.is_empty());
        // Key with no history at all.
        let got = TqfEngine
            .events_for_key(&ledger, EntityId::shipment(9), Interval::new(0, 200))
            .unwrap();
        assert!(got.is_empty());
    }
}
