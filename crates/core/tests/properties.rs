//! Property-based tests for the temporal-core invariants.

use proptest::prelude::*;

use fabric_ledger::{Ledger, LedgerConfig};
use fabric_workload::generator::{EventDistribution, GeneratedWorkload, WorkloadParams};
use fabric_workload::ingest::{ingest, IdentityEncoder, IngestMode};
use temporal_core::evset::{EvSet, TemporalEvent};
use temporal_core::interval::Interval;
use temporal_core::join::{build_stays, Span};
use temporal_core::m1::M1Indexer;
use temporal_core::partition::{EventCountBalanced, FixedLength, PartitionStrategy};

fn interval_strategy() -> impl Strategy<Value = Interval> {
    (0u64..100_000, 1u64..50_000).prop_map(|(start, len)| Interval::new(start, start + len))
}

proptest! {
    // ---------- interval algebra ----------

    #[test]
    fn overlap_is_symmetric_and_matches_intersect(a in interval_strategy(), b in interval_strategy()) {
        prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
        prop_assert_eq!(a.overlaps(&b), a.intersect(&b).is_some());
        if let Some(i) = a.intersect(&b) {
            prop_assert!(i.start >= a.start && i.start >= b.start);
            prop_assert!(i.end <= a.end && i.end <= b.end);
        }
    }

    #[test]
    fn contains_implies_overlap_with_point(i in interval_strategy(), t in 1u64..200_000) {
        if i.contains(t) {
            let point = Interval::new(t - 1, t);
            prop_assert!(i.overlaps(&point));
        }
    }

    #[test]
    fn grid_containing_actually_contains(t in 1u64..1_000_000, u in 1u64..10_000) {
        let g = Interval::grid_containing(t, u);
        prop_assert!(g.contains(t), "{g} must contain {t}");
        prop_assert_eq!(g.len(), u);
        prop_assert_eq!(g.start % u, 0, "grid-aligned");
    }

    #[test]
    fn grid_overlapping_covers_exactly(tau in interval_strategy(), u in 1u64..5_000) {
        let grid = tau.grid_overlapping(u);
        // Contiguous, grid-aligned, and covering tau.
        prop_assert!(grid.first().unwrap().start <= tau.start);
        prop_assert!(grid.last().unwrap().end >= tau.end);
        for w in grid.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start);
        }
        for g in &grid {
            prop_assert!(g.overlaps(&tau), "{g} does not overlap {tau}");
        }
        // Any grid interval NOT in the list must not overlap tau.
        if let Some(prev) = grid.first().unwrap().grid_prev() {
            prop_assert!(!prev.overlaps(&tau));
        }
    }

    #[test]
    fn composite_key_roundtrip(base in "[A-Za-z]{1,12}", i in interval_strategy()) {
        let key = i.composite_key(base.as_bytes());
        let (parsed_base, parsed) = Interval::split_composite_key(&key).unwrap();
        prop_assert_eq!(parsed_base, base.as_bytes());
        prop_assert_eq!(parsed, i);
    }

    #[test]
    fn composite_keys_of_same_base_sort_by_start(
        base in "[A-Z]{1,6}",
        a in interval_strategy(),
        b in interval_strategy(),
    ) {
        let ka = a.composite_key(base.as_bytes());
        let kb = b.composite_key(base.as_bytes());
        if a.start < b.start {
            prop_assert!(ka < kb);
        }
        if a == b {
            prop_assert_eq!(ka, kb);
        }
    }

    // ---------- partition strategies ----------

    #[test]
    fn fixed_partition_is_disjoint_cover(
        epoch in interval_strategy(),
        u in 1u64..5_000,
        times in prop::collection::vec(1u64..150_000, 0..50),
    ) {
        let mut times: Vec<u64> = times.into_iter().filter(|t| epoch.contains(*t)).collect();
        times.sort_unstable();
        let parts = FixedLength { u }.partition(epoch, &times);
        prop_assert_eq!(parts.first().unwrap().start, epoch.start);
        prop_assert_eq!(parts.last().unwrap().end, epoch.end);
        for w in parts.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start);
        }
        for t in &times {
            prop_assert_eq!(parts.iter().filter(|p| p.contains(*t)).count(), 1);
        }
    }

    #[test]
    fn balanced_partition_is_disjoint_cover(
        epoch in interval_strategy(),
        target in 1usize..10,
        times in prop::collection::vec(1u64..150_000, 0..60),
    ) {
        let mut times: Vec<u64> = times.into_iter().filter(|t| epoch.contains(*t)).collect();
        times.sort_unstable();
        let parts = EventCountBalanced { target_events: target }.partition(epoch, &times);
        prop_assert_eq!(parts.first().unwrap().start, epoch.start);
        prop_assert_eq!(parts.last().unwrap().end, epoch.end);
        for w in parts.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start);
        }
        // Every event lands in exactly one interval, and no interval except
        // possibly ones holding time-ties exceeds ~target (ties are never
        // split, so a tie-run can overshoot).
        for t in &times {
            prop_assert_eq!(parts.iter().filter(|p| p.contains(*t)).count(), 1);
        }
        let distinct: std::collections::BTreeSet<u64> = times.iter().copied().collect();
        if distinct.len() == times.len() {
            for p in &parts {
                let n = times.iter().filter(|t| p.contains(**t)).count();
                prop_assert!(n <= target.max(1), "interval {p} holds {n} > target {target}");
            }
        }
    }

    // ---------- EvSet codec ----------

    #[test]
    fn evset_roundtrip(
        entries in prop::collection::vec((0u64..1_000_000, prop::collection::vec(any::<u8>(), 0..40)), 0..30)
    ) {
        let mut entries = entries;
        entries.sort_by_key(|(t, _)| *t);
        let set = EvSet::new(
            entries
                .iter()
                .map(|(time, value)| TemporalEvent {
                    time: *time,
                    value: bytes::Bytes::copy_from_slice(value),
                })
                .collect(),
        );
        let decoded = EvSet::decode(&set.encode()).unwrap();
        prop_assert_eq!(set, decoded);
    }

    #[test]
    fn evset_filter_equals_manual_filter(
        times in prop::collection::vec(1u64..10_000, 0..40),
        tau in interval_strategy(),
    ) {
        let mut times = times;
        times.sort_unstable();
        let set = EvSet::new(
            times
                .iter()
                .map(|&time| TemporalEvent { time, value: bytes::Bytes::new() })
                .collect(),
        );
        let got: Vec<u64> = set.filter(tau).iter().map(|e| e.time).collect();
        let want: Vec<u64> = times.iter().copied().filter(|&t| tau.contains(t)).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn evset_decode_never_panics(data in prop::collection::vec(any::<u8>(), 0..256)) {
        // Arbitrary bytes must fail cleanly — in particular a huge count
        // varint must not drive a giant pre-allocation.
        let _ = EvSet::decode(&data);
    }

    #[test]
    fn evset_decode_rejects_hostile_count(count in 1u64..u64::MAX / 2) {
        // A count with no payload behind it must be rejected before any
        // allocation proportional to it.
        let mut data = Vec::new();
        let mut v = count;
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 { data.push(byte); break; }
            data.push(byte | 0x80);
        }
        prop_assert!(EvSet::decode(&data).is_err());
    }

    // ---------- stay reconstruction ----------

    #[test]
    fn stays_are_within_window_and_ordered(
        raw in prop::collection::vec((1u64..10_000, 0u32..3, any::<bool>()), 0..40),
        tau in interval_strategy(),
    ) {
        use fabric_workload::{EntityId, Event, EventKind};
        let mut events: Vec<Event> = raw
            .into_iter()
            .filter(|(t, _, _)| tau.contains(*t))
            .map(|(time, target, load)| Event {
                subject: EntityId::shipment(0),
                target: EntityId::container(target),
                time,
                kind: if load { EventKind::Load } else { EventKind::Unload },
            })
            .collect();
        events.sort_by_key(|e| e.time);
        let stays = build_stays(&events, tau);
        for s in &stays {
            prop_assert!(s.span.from <= s.span.to, "inverted span {}", s.span);
            prop_assert!(s.span.from > tau.start || s.span.from >= 1);
            prop_assert!(s.span.to <= tau.end);
        }
        // Sorted by (from, target).
        for w in stays.windows(2) {
            prop_assert!((w[0].span.from, w[0].target) <= (w[1].span.from, w[1].target));
        }
    }

    #[test]
    fn span_intersect_is_commutative_and_idempotent(
        a_from in 0u64..1000, a_len in 0u64..500,
        b_from in 0u64..1000, b_len in 0u64..500,
    ) {
        let a = Span { from: a_from, to: a_from + a_len };
        let b = Span { from: b_from, to: b_from + b_len };
        prop_assert_eq!(a.intersect(&b), b.intersect(&a));
        prop_assert_eq!(a.intersect(&a), Some(a));
        if let Some(i) = a.intersect(&b) {
            prop_assert_eq!(i.intersect(&a), Some(i));
        }
    }
}

// ---------- read-path overhaul: coalescing must be invisible ----------

fn unique_dir() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static N: AtomicUsize = AtomicUsize::new(0);
    let p = std::env::temp_dir().join(format!(
        "props-coalesce-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).unwrap();
    p
}

proptest! {
    // Each case builds and M1-indexes two ledgers; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `Ledger::history` must be byte-identical with coalescing on vs. off,
    /// across MultiEvent/SingleEvent ingest and the M1 write-then-delete
    /// (null tombstone) composite-key layout, cached or not.
    #[test]
    fn history_is_identical_with_coalescing_on_or_off(
        seed in 0u64..10_000,
        multi_event in any::<bool>(),
        cache_blocks in prop::sample::select(vec![0usize, 4, 64]),
    ) {
        let workload = GeneratedWorkload::generate(WorkloadParams {
            shipments: 3,
            containers: 2,
            trucks: 1,
            events_per_key: 12,
            distribution: EventDistribution::Uniform,
            t_max: 400,
            seed,
        });
        let mode = if multi_event { IngestMode::MultiEvent } else { IngestMode::SingleEvent };
        let dir = unique_dir();
        let u = 100u64;
        let open = |sub: &str, coalesce: bool| -> Ledger {
            // The coalesced ledger also exercises the cache (when enabled);
            // the per-location ledger is the seed baseline: no cache.
            let config = LedgerConfig::small_for_tests()
                .with_coalesce_history(coalesce)
                .with_cache_blocks(if coalesce { cache_blocks } else { 0 });
            let ledger = Ledger::open(dir.join(sub), config).unwrap();
            ingest(&ledger, &workload.events, mode, &IdentityEncoder).unwrap();
            let strategy = FixedLength { u };
            M1Indexer::fixed(&strategy)
                .run_epoch(&ledger, &workload.keys(), Interval::new(0, 400))
                .unwrap();
            ledger
        };
        let on = open("coalesce-on", true);
        let off = open("coalesce-off", false);
        for key in workload.keys() {
            let a = on.get_history_for_key(&key.key()).unwrap().collect_all().unwrap();
            let b = off.get_history_for_key(&key.key()).unwrap().collect_all().unwrap();
            prop_assert_eq!(a, b, "base key {} history diverged", key);
        }
        // M1 composite keys were written then deleted: their history ends in
        // a null tombstone, and both read paths must agree on it.
        let mut tombstones = 0usize;
        for key in workload.keys() {
            for i in 0..4u64 {
                let theta = Interval::new(i * u, (i + 1) * u);
                let composite = theta.composite_key(&key.key());
                let a = on.get_history_for_key(&composite).unwrap().collect_all().unwrap();
                let b = off.get_history_for_key(&composite).unwrap().collect_all().unwrap();
                if a.last().is_some_and(|s| s.value.is_none()) {
                    tombstones += 1;
                }
                prop_assert_eq!(a, b, "composite key history diverged for {} {}", key, theta);
            }
        }
        prop_assert!(tombstones > 0, "expected at least one M1 tombstone layout");
        std::fs::remove_dir_all(&dir).ok();
    }
}
