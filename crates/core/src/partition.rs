//! Index-interval creation strategies (paper §VI-3).
//!
//! The paper partitions each indexing epoch `(t1, t2]` into fixed-length
//! intervals of size `u` and explicitly defers "many other ways of creating
//! indexing intervals" to future work. [`FixedLength`] is the paper's
//! strategy; [`EventCountBalanced`] implements the obvious candidate from
//! that future-work list — per-key intervals balanced by event count, so
//! hot keys get finer intervals — and is compared against fixed-`u` in the
//! ablation benchmarks.
//!
//! These strategies partition *time* within one ledger; the key space is
//! never partitioned.

use crate::interval::Interval;

/// A rule for partitioning an epoch into index intervals for one key.
pub trait PartitionStrategy {
    /// Partition `epoch` given the key's event times inside it (ascending).
    /// Returned intervals must be disjoint, ascending and cover every
    /// event time.
    fn partition(&self, epoch: Interval, event_times: &[u64]) -> Vec<Interval>;

    /// Human-readable name for reports.
    fn name(&self) -> String;
}

/// The paper's strategy: fixed-length intervals of size `u`, aligned to the
/// global `u`-grid.
#[derive(Debug, Clone, Copy)]
pub struct FixedLength {
    /// Interval length (the paper's `u`).
    pub u: u64,
}

impl PartitionStrategy for FixedLength {
    fn partition(&self, epoch: Interval, _event_times: &[u64]) -> Vec<Interval> {
        epoch
            .grid_overlapping(self.u)
            .into_iter()
            .filter_map(|g| g.intersect(&epoch))
            .collect()
    }

    fn name(&self) -> String {
        format!("fixed-u({})", self.u)
    }
}

/// Future-work strategy: cut a new interval after roughly `target_events`
/// events, so every index pair holds a comparable number of events
/// regardless of local event density.
#[derive(Debug, Clone, Copy)]
pub struct EventCountBalanced {
    /// Desired events per interval (≥ 1).
    pub target_events: usize,
}

impl PartitionStrategy for EventCountBalanced {
    fn partition(&self, epoch: Interval, event_times: &[u64]) -> Vec<Interval> {
        let target = self.target_events.max(1);
        if event_times.is_empty() {
            return vec![epoch];
        }
        debug_assert!(event_times.windows(2).all(|w| w[0] <= w[1]));
        let mut cuts: Vec<u64> = Vec::new();
        let mut count = 0usize;
        let mut i = 0usize;
        while i < event_times.len() {
            count += 1;
            // A cut boundary at time t puts t in the left interval
            // ((start, t]); events tied at t must not straddle the cut.
            let t = event_times[i];
            let is_last_of_tie = i + 1 >= event_times.len() || event_times[i + 1] > t;
            if count >= target && is_last_of_tie && t < epoch.end {
                cuts.push(t);
                count = 0;
            }
            i += 1;
        }
        let mut out = Vec::with_capacity(cuts.len() + 1);
        let mut start = epoch.start;
        for cut in cuts {
            if cut > start {
                out.push(Interval::new(start, cut));
                start = cut;
            }
        }
        out.push(Interval::new(start, epoch.end));
        out
    }

    fn name(&self) -> String {
        format!("count-balanced({})", self.target_events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_valid_partition(epoch: Interval, parts: &[Interval], times: &[u64]) {
        assert!(!parts.is_empty());
        assert_eq!(parts.first().unwrap().start, epoch.start);
        assert_eq!(parts.last().unwrap().end, epoch.end);
        for w in parts.windows(2) {
            assert_eq!(w[0].end, w[1].start, "gaps/overlaps: {w:?}");
        }
        for &t in times {
            assert!(
                parts.iter().any(|p| p.contains(t)),
                "time {t} not covered by {parts:?}"
            );
        }
    }

    #[test]
    fn fixed_length_covers_aligned_epoch() {
        let s = FixedLength { u: 2000 };
        let epoch = Interval::new(0, 10_000);
        let parts = s.partition(epoch, &[]);
        assert_eq!(parts.len(), 5);
        assert_valid_partition(epoch, &parts, &[]);
    }

    #[test]
    fn fixed_length_clips_unaligned_epoch() {
        let s = FixedLength { u: 2000 };
        let epoch = Interval::new(500, 4500);
        let parts = s.partition(epoch, &[600, 4400]);
        assert_valid_partition(epoch, &parts, &[600, 4400]);
        // Clipped to (500,2000], (2000,4000], (4000,4500].
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0], Interval::new(500, 2000));
        assert_eq!(parts[2], Interval::new(4000, 4500));
    }

    #[test]
    fn fixed_length_u_larger_than_epoch() {
        let s = FixedLength { u: 50_000 };
        let epoch = Interval::new(0, 10_000);
        let parts = s.partition(epoch, &[]);
        assert_eq!(parts, vec![Interval::new(0, 10_000)]);
    }

    #[test]
    fn balanced_cuts_by_count() {
        let s = EventCountBalanced { target_events: 2 };
        let epoch = Interval::new(0, 100);
        let times = [10, 20, 30, 40, 50];
        let parts = s.partition(epoch, &times);
        assert_valid_partition(epoch, &parts, &times);
        // Cuts after 20 and 40: (0,20], (20,40], (40,100].
        assert_eq!(
            parts,
            vec![
                Interval::new(0, 20),
                Interval::new(20, 40),
                Interval::new(40, 100)
            ]
        );
    }

    #[test]
    fn balanced_does_not_split_ties() {
        let s = EventCountBalanced { target_events: 2 };
        let epoch = Interval::new(0, 100);
        let times = [10, 20, 20, 20, 50];
        let parts = s.partition(epoch, &times);
        assert_valid_partition(epoch, &parts, &times);
        // The tie at 20 stays in one interval.
        let holding = parts.iter().find(|p| p.contains(20)).unwrap();
        assert!(times
            .iter()
            .filter(|&&t| t == 20)
            .all(|&t| holding.contains(t)));
    }

    #[test]
    fn balanced_empty_events_single_interval() {
        let s = EventCountBalanced { target_events: 4 };
        let epoch = Interval::new(0, 100);
        assert_eq!(s.partition(epoch, &[]), vec![epoch]);
    }

    #[test]
    fn balanced_cut_at_epoch_end_not_duplicated() {
        let s = EventCountBalanced { target_events: 1 };
        let epoch = Interval::new(0, 50);
        // Last event right at the epoch end must not produce an empty tail.
        let times = [25, 50];
        let parts = s.partition(epoch, &times);
        assert_valid_partition(epoch, &parts, &times);
        assert_eq!(parts, vec![Interval::new(0, 25), Interval::new(25, 50)]);
    }

    #[test]
    fn names_are_descriptive() {
        assert_eq!(FixedLength { u: 2000 }.name(), "fixed-u(2000)");
        assert!(EventCountBalanced { target_events: 8 }.name().contains('8'));
    }
}
