//! Named instruments: counters, gauges, histograms.
//!
//! The registry is global-free — every [`crate::Telemetry`] owns one.
//! Instrument handles are `Arc`s handed out on first use; the name→handle
//! map takes a short lock only on lookup/registration, and
//! callers on hot paths should cache the returned handle.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::histogram::{Histogram, HistogramSnapshot};

/// Monotone counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous signed value (e.g. memtable bytes, queue depth).
#[derive(Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Raise the value to `v` if it is below it (monotone publish — safe
    /// when several workers report the same logical watermark).
    #[inline]
    pub fn set_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instrument name: static on the hot paths (no allocation), owned for
/// runtime-shaped names like per-queue probe gauges.
type Name = std::borrow::Cow<'static, str>;

/// Name → instrument maps. Hot-path names are static strings so the data
/// path never allocates; ordering in snapshots is lexicographic (BTreeMap).
#[derive(Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<Name, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<Name, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<Name, Arc<Histogram>>>,
}

fn get_or_create<T: Default>(map: &RwLock<BTreeMap<Name, Arc<T>>>, name: Name) -> Arc<T> {
    if let Some(found) = map
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .get(name.as_ref())
    {
        return Arc::clone(found);
    }
    Arc::clone(
        map.write()
            .unwrap_or_else(|e| e.into_inner())
            .entry(name)
            .or_default(),
    )
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The named counter, created on first use.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        get_or_create(&self.counters, Name::Borrowed(name))
    }

    /// The named gauge, created on first use.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        get_or_create(&self.gauges, Name::Borrowed(name))
    }

    /// A gauge with a runtime-constructed name (e.g. a queue probe's
    /// `queue.query.slots.depth`). Allocates on first use of each name;
    /// callers on hot paths should cache the handle.
    pub fn gauge_owned(&self, name: impl Into<String>) -> Arc<Gauge> {
        get_or_create(&self.gauges, Name::Owned(name.into()))
    }

    /// A counter with a runtime-constructed name (see [`Registry::gauge_owned`]).
    pub fn counter_owned(&self, name: impl Into<String>) -> Arc<Counter> {
        get_or_create(&self.counters, Name::Owned(name.into()))
    }

    /// A histogram with a runtime-constructed name (see [`Registry::gauge_owned`]).
    pub fn histogram_owned(&self, name: impl Into<String>) -> Arc<Histogram> {
        get_or_create(&self.histograms, Name::Owned(name.into()))
    }

    /// The named histogram, created on first use.
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        get_or_create(&self.histograms, Name::Borrowed(name))
    }

    /// Point-in-time copy of every instrument.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: self
                .counters
                .read()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .map(|(k, v)| (k.to_string(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .map(|(k, v)| (k.to_string(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .map(|(k, v)| (k.to_string(), v.snapshot()))
                .collect(),
        }
    }

    /// Remove every instrument (existing handles keep working but are no
    /// longer reachable by name and vanish from future snapshots).
    pub fn reset(&self) {
        self.counters
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        self.gauges
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        self.histograms
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
    }
}

/// Immutable copy of a [`Registry`], sorted by instrument name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegistrySnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl RegistrySnapshot {
    /// Counter value by name, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value by name, if set.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// Histogram snapshot by name, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_same_instrument() {
        let r = Registry::new();
        r.counter("x").add(2);
        r.counter("x").add(3);
        assert_eq!(r.snapshot().counter("x"), 5);
    }

    #[test]
    fn gauges_go_both_ways() {
        let r = Registry::new();
        let g = r.gauge("depth");
        g.set(10);
        g.add(-4);
        assert_eq!(r.snapshot().gauges["depth"], 6);
    }

    #[test]
    fn set_max_is_monotone() {
        let r = Registry::new();
        let g = r.gauge("watermark");
        g.set_max(5);
        g.set_max(3); // stale publisher loses
        assert_eq!(g.get(), 5);
        g.set_max(9);
        assert_eq!(r.snapshot().gauges["watermark"], 9);
    }

    #[test]
    fn snapshot_is_sorted_and_detached() {
        let r = Registry::new();
        r.counter("b").incr();
        r.counter("a").incr();
        let snap = r.snapshot();
        let names: Vec<_> = snap.counters.keys().cloned().collect();
        assert_eq!(names, ["a", "b"]);
        r.counter("a").add(100);
        assert_eq!(snap.counter("a"), 1, "snapshot must not track live values");
    }

    #[test]
    fn owned_and_static_names_alias() {
        let r = Registry::new();
        r.gauge("depth").set(3);
        r.gauge_owned(String::from("depth")).add(2);
        assert_eq!(r.snapshot().gauge("depth"), Some(5));
        r.gauge_owned(format!("queue{}.hits", 7)).set(9);
        assert_eq!(r.snapshot().gauge("queue7.hits"), Some(9));
    }

    #[test]
    fn reset_empties_future_snapshots() {
        let r = Registry::new();
        let held = r.counter("kept");
        held.incr();
        r.reset();
        assert!(r.snapshot().counters.is_empty());
        held.incr(); // must not panic; handle stays valid
    }
}
