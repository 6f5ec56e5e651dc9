//! Model M2 — interval-tagged ingestion (paper §VII).
//!
//! M2 has no separate indexing phase. Every incoming pair `⟨k, (v, t)⟩` is
//! rewritten **at ingestion time** to `⟨(k, θ), (v, t)⟩` where
//! `θ = (⌊t/u⌋·u, ⌈t/u⌉·u]` is the fixed-length grid interval containing
//! `t`; the original pair is discarded. Events remain scattered across
//! blocks exactly as in TQF, but the history of `(k, θ)` now touches only
//! blocks holding events of `k` within `θ`, so a query never scans from
//! `t = 0`.
//!
//! Costs (paper §VII-B): the state-db holds one current state per `(k, θ)`
//! instead of one per `k` (n−1 extra states for n intervals), and
//! applications must reach the original keys through the
//! [compatibility layer](crate::base_api).

use bytes::Bytes;

use fabric_ledger::{Ledger, Result};
use fabric_workload::ingest::EventEncoder;
use fabric_workload::{EntityId, Event};

use crate::cursor::{EventCursor, M2Cursor};
use crate::engine::TemporalEngine;
use crate::interval::Interval;

/// Rewrites each event's key to the interval-tagged composite key
/// (plugs into the shared ingestion driver).
#[derive(Debug, Clone, Copy)]
pub struct M2Encoder {
    /// Index-interval length (the paper's `u`).
    pub u: u64,
}

impl EventEncoder for M2Encoder {
    fn encode(&self, event: &Event) -> (Bytes, Bytes) {
        let theta = Interval::grid_containing(event.time, self.u);
        (theta.composite_key(&event.key()), event.encode_value())
    }
}

/// The Model-M2 query engine (paper §VII-1).
#[derive(Debug, Clone, Copy)]
pub struct M2Engine {
    /// Index-interval length used at ingestion.
    pub u: u64,
}

impl TemporalEngine for M2Engine {
    fn name(&self) -> String {
        format!("M2(u={})", self.u)
    }

    fn events_cursor<'l>(
        &self,
        ledger: &'l Ledger,
        key: EntityId,
        tau: Interval,
    ) -> Result<Box<dyn EventCursor + 'l>> {
        Ok(Box::new(M2Cursor::new(ledger, key, tau)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_ledger::{LedgerConfig, TxSimulator};
    use fabric_workload::ingest::{ingest, IngestMode};
    use fabric_workload::{EntityKind, EventKind};

    struct TempDir(std::path::PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let p = std::env::temp_dir().join(format!(
                "m2-test-{}-{tag}-{:?}",
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

    fn event(s: u32, time: u64) -> Event {
        Event {
            subject: EntityId::shipment(s),
            target: EntityId::container(0),
            time,
            kind: if time % 20 == 10 {
                EventKind::Load
            } else {
                EventKind::Unload
            },
        }
    }

    fn setup(dir: &TempDir, u: u64) -> Ledger {
        let ledger = Ledger::open(&dir.0, LedgerConfig::small_for_tests()).unwrap();
        let events: Vec<Event> = (1..=40).map(|i| event(0, i * 10)).collect();
        ingest(&ledger, &events, IngestMode::SingleEvent, &M2Encoder { u }).unwrap();
        ledger
    }

    #[test]
    fn encoder_tags_keys_with_grid_interval() {
        let enc = M2Encoder { u: 2000 };
        let ev = event(0, 2500);
        let (key, value) = enc.encode(&ev);
        assert_eq!(&key[..], b"S00000#000000002000-000000004000".as_slice());
        assert_eq!(value, ev.encode_value());
        // Boundary: t = 2000 belongs to (0, 2000].
        let (key, _) = enc.encode(&event(0, 2000));
        assert_eq!(&key[..], b"S00000#000000000000-000000002000".as_slice());
    }

    #[test]
    fn query_returns_exact_window() {
        let dir = TempDir::new("window");
        let ledger = setup(&dir, 100);
        let got = M2Engine { u: 100 }
            .events_for_key(&ledger, EntityId::shipment(0), Interval::new(150, 250))
            .unwrap();
        let times: Vec<u64> = got.iter().map(|e| e.time).collect();
        assert_eq!(
            times,
            vec![160, 170, 180, 190, 200, 210, 220, 230, 240, 250]
        );
    }

    #[test]
    fn rightward_window_does_not_get_costlier() {
        let dir = TempDir::new("flat");
        let ledger = setup(&dir, 100);
        let engine = M2Engine { u: 100 };
        let cost = |tau: Interval| {
            let before = ledger.stats();
            engine
                .events_for_key(&ledger, EntityId::shipment(0), tau)
                .unwrap();
            ledger.stats().delta(&before).blocks_deserialized
        };
        let early = cost(Interval::new(0, 100));
        let late = cost(Interval::new(300, 400));
        // Same window length, same event density → same block count
        // (unlike TQF, where the late window costs ~4x).
        assert_eq!(early, late, "M2 cost must not grow rightwards");
    }

    #[test]
    fn state_db_holds_one_state_per_interval() {
        let dir = TempDir::new("statecount");
        let ledger = setup(&dir, 100); // events at 10..=400 → 4 intervals
        let rows = ledger.get_state_by_range(Some(b"S"), Some(b"T")).unwrap();
        assert_eq!(rows.len(), 4, "one current state per (k, θ)");
        // Base key is gone: applications cannot see it directly.
        assert!(ledger
            .get_state(&EntityId::shipment(0).key())
            .unwrap()
            .is_none());
    }

    #[test]
    fn list_keys_recovers_base_entities() {
        let dir = TempDir::new("listkeys");
        let ledger = Ledger::open(&dir.0, LedgerConfig::small_for_tests()).unwrap();
        let events = vec![event(0, 10), event(2, 20), event(2, 30)];
        ingest(
            &ledger,
            &events,
            IngestMode::SingleEvent,
            &M2Encoder { u: 100 },
        )
        .unwrap();
        let keys = M2Engine { u: 100 }
            .list_keys(&ledger, EntityKind::Shipment)
            .unwrap();
        assert_eq!(keys, vec![EntityId::shipment(0), EntityId::shipment(2)]);
    }

    #[test]
    fn ghfk_call_count_matches_overlapping_intervals() {
        let dir = TempDir::new("calls");
        let ledger = setup(&dir, 100);
        let before = ledger.stats();
        M2Engine { u: 100 }
            .events_for_key(&ledger, EntityId::shipment(0), Interval::new(100, 300))
            .unwrap();
        let d = ledger.stats().delta(&before);
        assert_eq!(d.ghfk_calls, 2, "two grid intervals overlap (100,300]");
        assert_eq!(d.range_scan_calls, 1, "one state-db range scan for Θ(k)");
    }

    #[test]
    fn early_termination_within_wide_interval() {
        // u covers everything; a query over the first tenth must only
        // deserialize the early blocks, not the whole interval.
        let dir = TempDir::new("early");
        let ledger = setup(&dir, 1000); // one interval (0,1000] holds all 40 events
        let engine = M2Engine { u: 1000 };
        let before = ledger.stats();
        let got = engine
            .events_for_key(&ledger, EntityId::shipment(0), Interval::new(0, 40))
            .unwrap();
        assert_eq!(got.len(), 4);
        let early_blocks = ledger.stats().delta(&before).blocks_deserialized;
        let before = ledger.stats();
        engine
            .events_for_key(&ledger, EntityId::shipment(0), Interval::new(360, 400))
            .unwrap();
        let late_blocks = ledger.stats().delta(&before).blocks_deserialized;
        assert!(
            early_blocks * 3 <= late_blocks,
            "early window must deserialize far fewer blocks ({early_blocks} vs {late_blocks})"
        );
    }

    #[test]
    fn matches_tqf_on_same_data() {
        // Ingest the same events twice: once base, once M2; results agree.
        let dir_base = TempDir::new("cmp-base");
        let dir_m2 = TempDir::new("cmp-m2");
        let events: Vec<Event> = (1..=40).map(|i| event(0, i * 10)).collect();
        let base = Ledger::open(&dir_base.0, LedgerConfig::small_for_tests()).unwrap();
        ingest(
            &base,
            &events,
            IngestMode::SingleEvent,
            &fabric_workload::IdentityEncoder,
        )
        .unwrap();
        let m2 = setup(&dir_m2, 100);
        for tau in [
            Interval::new(0, 400),
            Interval::new(95, 105),
            Interval::new(390, 400),
        ] {
            let a = crate::tqf::TqfEngine
                .events_for_key(&base, EntityId::shipment(0), tau)
                .unwrap();
            let b = M2Engine { u: 100 }
                .events_for_key(&m2, EntityId::shipment(0), tau)
                .unwrap();
            assert_eq!(a, b, "tau={tau}");
        }
    }

    #[test]
    fn tolerates_foreign_composite_suffixes() {
        // A state written under k# with a malformed interval suffix must be
        // skipped, not crash the query.
        let dir = TempDir::new("foreign");
        let ledger = setup(&dir, 100);
        let mut sim = TxSimulator::new(&ledger);
        sim.put_state(&b"S00000#garbage"[..], &b"x"[..]);
        ledger.submit(sim.into_transaction(1).unwrap()).unwrap();
        ledger.cut_block().unwrap();
        let got = M2Engine { u: 100 }
            .events_for_key(&ledger, EntityId::shipment(0), Interval::new(0, 400))
            .unwrap();
        assert_eq!(got.len(), 40);
    }
}
