//! Property and concurrency tests for fabric-telemetry (ISSUE 1 satellite):
//! histogram bucket soundness under proptest and lossless recording under
//! scoped threads.

use fabric_telemetry::histogram::{bucket_bounds, bucket_index, BUCKETS};
use fabric_telemetry::{Histogram, Telemetry};
use proptest::prelude::*;

proptest! {
    /// Bucket boundaries are monotone: each bucket starts right after the
    /// previous one ends, and indexing is monotone in the value.
    #[test]
    fn bucket_boundaries_monotone(a in any::<u64>(), b in any::<u64>()) {
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(bucket_index(lo) <= bucket_index(hi));
        let (lo_lo, _) = bucket_bounds(bucket_index(lo));
        let (hi_lo, _) = bucket_bounds(bucket_index(hi));
        prop_assert!(lo_lo <= hi_lo, "bucket lower bounds must be monotone");
    }

    /// Every value lands in exactly one bucket, and that bucket's bounds
    /// contain the value.
    #[test]
    fn value_lands_in_exactly_one_bucket(v in any::<u64>()) {
        let idx = bucket_index(v);
        prop_assert!(idx < BUCKETS);
        let (lo, hi) = bucket_bounds(idx);
        prop_assert!(lo <= v && v <= hi, "value {v} outside bucket {idx} = [{lo}, {hi}]");
        // No other bucket contains it: bounds are disjoint, so it is
        // enough to check the neighbours.
        if idx > 0 {
            let (_, prev_hi) = bucket_bounds(idx - 1);
            prop_assert!(prev_hi < v);
        }
        if idx + 1 < BUCKETS {
            let (next_lo, _) = bucket_bounds(idx + 1);
            prop_assert!(v < next_lo);
        }
    }

    /// Recording a batch of values preserves count and sum, and every
    /// value is inside the histogram's [min, max].
    #[test]
    fn histogram_totals_match(values in proptest::collection::vec(0u64..1 << 40, 1..200)) {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let s = h.snapshot();
        prop_assert_eq!(s.count, values.len() as u64);
        prop_assert_eq!(s.sum, values.iter().sum::<u64>());
        prop_assert_eq!(s.min, *values.iter().min().unwrap());
        prop_assert_eq!(s.max, *values.iter().max().unwrap());
        prop_assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
    }

    /// Quantile estimates never exceed the observed max, never undershoot
    /// the observed min, and are monotone in q.
    #[test]
    fn quantiles_are_ordered(values in proptest::collection::vec(0u64..1 << 32, 1..200)) {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let s = h.snapshot();
        let (p50, p95, p99) = (s.p50(), s.p95(), s.p99());
        prop_assert!(s.min <= p50);
        prop_assert!(p50 <= p95 && p95 <= p99);
        prop_assert!(p99 <= s.max);
    }
}

/// Counters, histograms, and spans must not lose recordings when hammered
/// from scoped threads.
#[test]
fn concurrent_recorders_lose_nothing() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 5_000;

    let tel = Telemetry::enabled();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let tel = tel.clone();
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    tel.count("ops", 1);
                    tel.observe("value", t as u64 * PER_THREAD + i);
                    let mut span = tel.span("work");
                    span.record("items", 1);
                }
            });
        }
    });

    let spans = tel.drain_spans();
    assert_eq!(spans.len(), THREADS * PER_THREAD as usize);
    assert!(spans.iter().all(|s| s.metric("items") == Some(1)));
    // Span ids are unique across threads.
    let mut ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), spans.len());

    let snap = tel.snapshot();
    assert_eq!(snap.counter("ops"), THREADS as u64 * PER_THREAD);
    let hist = snap.histogram("value").expect("histogram recorded");
    assert_eq!(hist.count, THREADS as u64 * PER_THREAD);
    let expected_sum: u64 = (0..(THREADS as u64 * PER_THREAD)).sum();
    assert_eq!(hist.sum, expected_sum);
    // The span-duration histogram fed by guards also sees every drop.
    assert_eq!(
        snap.histogram("work").expect("span histogram").count,
        THREADS as u64 * PER_THREAD
    );
}

/// Spans on different threads never adopt each other as parents.
#[test]
fn spans_do_not_cross_threads() {
    let tel = Telemetry::enabled();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let tel = tel.clone();
            scope.spawn(move || {
                let _outer = tel.span("outer");
                let _inner = tel.span("inner");
            });
        }
    });
    let tree = tel.span_tree();
    assert_eq!(tree.len(), 4, "each thread contributes one root");
    for root in &tree {
        assert_eq!(root.record.name, "outer");
        assert_eq!(root.children.len(), 1);
        assert_eq!(root.children[0].record.name, "inner");
    }
}
