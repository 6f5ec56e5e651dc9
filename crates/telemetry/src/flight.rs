//! Flight recorder: a fixed-size, lock-light ring buffer of completed
//! spans.
//!
//! Unlike the drain-once [`crate::Telemetry::drain_spans`] queue (which is
//! consumed by EXPLAIN ANALYZE and `tfq trace`), the flight recorder is a
//! *retained* window over the recent past: the last `capacity` completed
//! spans plus the last `root_capacity` completed *root* spans (spans with
//! no parent, i.e. whole queries or whole commits). It is always on while
//! telemetry is enabled, sized so that a long-running peer can answer
//! "what just happened?" — the `/flight` endpoint of `tfq serve` and the
//! slow-query log both read from it.
//!
//! Recording takes one short mutex critical section (a
//! `VecDeque` push plus at most one pop). The deques are preallocated at
//! their capacity, so steady-state recording performs no ring allocation —
//! the only per-record cost is cloning the span into the buffer.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::span::{build_tree, SpanNode, SpanRecord};

/// Default retained completed spans.
pub const DEFAULT_CAPACITY: usize = 4096;
/// Default retained root spans.
pub const DEFAULT_ROOT_CAPACITY: usize = 512;

struct Rings {
    spans: VecDeque<SpanRecord>,
    roots: VecDeque<SpanRecord>,
    capacity: usize,
    root_capacity: usize,
}

/// Retained ring of recently completed spans. See the module docs.
pub struct FlightRecorder {
    inner: Mutex<Rings>,
    recorded: AtomicU64,
    dropped: AtomicU64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_CAPACITY, DEFAULT_ROOT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` spans and the last
    /// `root_capacity` root spans (both floored at 1).
    pub fn new(capacity: usize, root_capacity: usize) -> Self {
        FlightRecorder {
            inner: Mutex::new(Rings {
                spans: VecDeque::with_capacity(capacity.max(1)),
                roots: VecDeque::with_capacity(root_capacity.max(1)),
                capacity: capacity.max(1),
                root_capacity: root_capacity.max(1),
            }),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Append one completed span, evicting the oldest entry when full.
    pub fn record(&self, record: &SpanRecord) {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.spans.len() >= inner.capacity {
            inner.spans.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        inner.spans.push_back(record.clone());
        if record.parent.is_none() {
            if inner.roots.len() >= inner.root_capacity {
                inner.roots.pop_front();
            }
            inner.roots.push_back(record.clone());
        }
    }

    /// Resize the rings (existing excess entries are evicted oldest-first).
    pub fn set_capacity(&self, capacity: usize, root_capacity: usize) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.capacity = capacity.max(1);
        inner.root_capacity = root_capacity.max(1);
        while inner.spans.len() > inner.capacity {
            inner.spans.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        while inner.roots.len() > inner.root_capacity {
            inner.roots.pop_front();
        }
    }

    /// The retained spans, oldest first.
    pub fn recent(&self) -> Vec<SpanRecord> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .spans
            .iter()
            .cloned()
            .collect()
    }

    /// The retained root spans (no parent), oldest first.
    pub fn recent_roots(&self) -> Vec<SpanRecord> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .roots
            .iter()
            .cloned()
            .collect()
    }

    /// Reassemble the subtree of `root` from the retained spans. Children
    /// evicted from the ring are absent (the tree may be partial for very
    /// large queries); the root itself is always present in the result.
    pub fn tree_for_root(&self, root: &SpanRecord) -> SpanNode {
        let retained = self.recent();
        // Keep only records that reach `root` via parent links.
        let mut member: std::collections::HashMap<u64, bool> = std::collections::HashMap::new();
        member.insert(root.id, true);
        let by_id: std::collections::HashMap<u64, &SpanRecord> =
            retained.iter().map(|r| (r.id, r)).collect();
        fn reaches(
            id: u64,
            by_id: &std::collections::HashMap<u64, &SpanRecord>,
            member: &mut std::collections::HashMap<u64, bool>,
        ) -> bool {
            if let Some(&known) = member.get(&id) {
                return known;
            }
            let verdict = match by_id.get(&id).and_then(|r| r.parent) {
                Some(parent) => reaches(parent, by_id, member),
                None => false,
            };
            member.insert(id, verdict);
            verdict
        }
        let mut records: Vec<SpanRecord> = retained
            .iter()
            .filter(|r| reaches(r.id, &by_id, &mut member))
            .cloned()
            .collect();
        if !records.iter().any(|r| r.id == root.id) {
            records.push(root.clone());
        }
        records.sort_by_key(|r| r.start_ns);
        let mut forest = build_tree(records);
        // `build_tree` roots everything whose parent is outside the batch;
        // since every record reaches `root`, the forest is exactly one tree.
        forest
            .pop()
            .expect("tree_for_root always has at least the root record")
    }

    /// Number of spans currently retained.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .spans
            .len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total spans ever recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Spans evicted to make room.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Drop all retained spans (totals are kept).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.spans.clear();
        inner.roots.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, name: &'static str) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            trace: parent.unwrap_or(id),
            thread: 1,
            name,
            label: None,
            start_ns: id,
            dur_ns: 10,
            metrics: Vec::new(),
            alloc_bytes: 0,
            alloc_calls: 0,
            peak_bytes: 0,
        }
    }

    #[test]
    fn ring_evicts_oldest() {
        let f = FlightRecorder::new(3, 2);
        for i in 1..=5 {
            f.record(&rec(i, None, "q"));
        }
        let ids: Vec<u64> = f.recent().iter().map(|r| r.id).collect();
        assert_eq!(ids, [3, 4, 5]);
        assert_eq!(f.recorded(), 5);
        assert_eq!(f.dropped(), 2);
        let roots: Vec<u64> = f.recent_roots().iter().map(|r| r.id).collect();
        assert_eq!(roots, [4, 5], "root ring has its own capacity");
    }

    #[test]
    fn roots_survive_child_floods() {
        let f = FlightRecorder::new(4, 8);
        f.record(&rec(1, None, "query"));
        for i in 2..=20 {
            f.record(&rec(i, Some(1), "child"));
        }
        assert_eq!(f.len(), 4, "span ring bounded");
        let roots = f.recent_roots();
        assert_eq!(roots.len(), 1, "root retained past span-ring eviction");
        assert_eq!(roots[0].id, 1);
    }

    #[test]
    fn tree_for_root_reassembles_descendants() {
        let f = FlightRecorder::new(16, 4);
        f.record(&rec(2, Some(1), "ghfk"));
        f.record(&rec(3, Some(2), "block.deserialize"));
        f.record(&rec(4, Some(99), "unrelated")); // different root, absent
        let root = rec(1, None, "query");
        f.record(&root);
        let tree = f.tree_for_root(&root);
        assert_eq!(tree.record.name, "query");
        assert_eq!(tree.count_named("ghfk"), 1);
        assert_eq!(tree.count_named("block.deserialize"), 1);
        assert_eq!(tree.count_named("unrelated"), 0);
        assert_eq!(tree.depth(), 3);
    }

    #[test]
    fn tree_for_root_with_evicted_children_still_has_root() {
        let f = FlightRecorder::new(2, 2);
        f.record(&rec(2, Some(1), "child"));
        f.record(&rec(3, Some(1), "child"));
        f.record(&rec(4, Some(1), "child")); // evicts id 2
        let root = rec(1, None, "query");
        f.record(&root); // evicts id 3
        let tree = f.tree_for_root(&root);
        assert_eq!(tree.record.id, 1);
        assert_eq!(tree.children.len(), 1, "only unevicted child remains");
    }

    #[test]
    fn set_capacity_shrinks_in_place() {
        let f = FlightRecorder::new(8, 8);
        for i in 1..=8 {
            f.record(&rec(i, None, "q"));
        }
        f.set_capacity(2, 1);
        assert_eq!(f.len(), 2);
        assert_eq!(f.recent_roots().len(), 1);
        f.clear();
        assert!(f.is_empty());
        assert_eq!(f.recorded(), 8, "totals survive clear");
    }
}
