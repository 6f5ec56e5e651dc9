//! Backpressure probes for bounded queues.
//!
//! A bounded channel — today the parallel fan-out slots (`query.slots`) —
//! is a place where the system absorbs, and eventually signals, overload. A
//! [`QueueProbe`] makes that visible on `/metrics` with four instruments
//! per queue:
//!
//! * `queue.<name>.depth` (gauge) — items currently buffered;
//! * `queue.<name>.send_wait_ns` (histogram) — how long producers block
//!   enqueueing (non-zero means the consumer is the bottleneck);
//! * `queue.<name>.drain_wait_ns` (histogram) — how long consumers block
//!   waiting for an item (non-zero means the producer is the bottleneck);
//! * `queue.<name>.items` (counter) — total items enqueued.
//!
//! Instrument handles are resolved once at probe construction, so the
//! per-operation cost is one relaxed atomic load (the enabled flag) when
//! telemetry is off, and two `Instant` reads plus a few relaxed atomics
//! when on. Depth is tracked only while telemetry is enabled; toggling
//! the flag mid-stream can therefore leave the gauge transiently skewed —
//! it re-centres once in-flight items drain.

use std::sync::Arc;
use std::time::Instant;

use crate::histogram::Histogram;
use crate::registry::{Counter, Gauge};
use crate::Telemetry;

/// Instruments one bounded queue. Cheap to clone (shared handles).
#[derive(Clone)]
pub struct QueueProbe {
    tel: Telemetry,
    depth: Arc<Gauge>,
    depth_name: Arc<str>,
    send_wait: Arc<Histogram>,
    drain_wait: Arc<Histogram>,
    items: Arc<Counter>,
}

impl QueueProbe {
    /// A probe for the queue named `queue` (instruments are registered as
    /// `queue.<queue>.*` in `tel`'s registry).
    pub fn new(tel: &Telemetry, queue: &str) -> Self {
        let reg = tel.registry();
        let depth_name = format!("queue.{queue}.depth");
        QueueProbe {
            tel: tel.clone(),
            depth: reg.gauge_owned(depth_name.clone()),
            depth_name: depth_name.into(),
            send_wait: reg.histogram_owned(format!("queue.{queue}.send_wait_ns")),
            drain_wait: reg.histogram_owned(format!("queue.{queue}.drain_wait_ns")),
            items: reg.counter_owned(format!("queue.{queue}.items")),
        }
    }

    /// Whether the probe records anything right now.
    #[inline]
    pub fn is_live(&self) -> bool {
        self.tel.is_enabled()
    }

    /// Mirror the current depth onto the Chrome counter track, when track
    /// sampling is on (off by default — one relaxed load otherwise).
    #[inline]
    fn sample_depth(&self) {
        self.tel
            .record_track_point(&self.depth_name, self.depth.get());
    }

    /// Run a (possibly blocking) enqueue, recording the time it blocked
    /// and bumping depth. Depth is raised *before* the send so it counts
    /// producers blocked on a full queue and — because the matching
    /// decrement can only happen after the item became receivable — the
    /// gauge can never go negative under any producer/consumer
    /// interleaving. The closure's result passes through untouched; a
    /// failed send (closed channel) still counts — shutdown races skew
    /// the gauge by at most the few in-flight items.
    #[inline]
    pub fn send<R>(&self, send: impl FnOnce() -> R) -> R {
        if !self.is_live() {
            return send();
        }
        self.depth.add(1);
        let t0 = Instant::now();
        let out = send();
        self.send_wait.record(t0.elapsed().as_nanos() as u64);
        self.items.incr();
        self.sample_depth();
        out
    }

    /// Run a (possibly blocking) dequeue, recording the time it waited
    /// and dropping depth.
    #[inline]
    pub fn recv<R>(&self, recv: impl FnOnce() -> R) -> R {
        if !self.is_live() {
            return recv();
        }
        let t0 = Instant::now();
        let out = recv();
        self.drain_wait.record(t0.elapsed().as_nanos() as u64);
        self.depth.add(-1);
        self.sample_depth();
        out
    }

    /// Manual path for queues the probe cannot wrap in one call (the
    /// fan-out slots' try-then-block send): an item was pushed.
    pub fn enqueued(&self) {
        if self.is_live() {
            self.depth.add(1);
            self.items.incr();
            self.sample_depth();
        }
    }

    /// Manual path: a waiter spent `ns` blocked from enqueue to service.
    pub fn send_waited_ns(&self, ns: u64) {
        if self.is_live() {
            self.send_wait.record(ns);
        }
    }

    /// Manual path: a consumer drained `n` items in one go, after
    /// waiting `wait_ns` for them.
    pub fn drained(&self, n: u64, wait_ns: u64) {
        if self.is_live() {
            self.depth.add(-(n as i64));
            self.drain_wait.record(wait_ns);
            self.sample_depth();
        }
    }

    /// Current buffered depth (as tracked by this probe).
    pub fn depth(&self) -> i64 {
        self.depth.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_recv_track_depth_and_waits() {
        let tel = Telemetry::enabled();
        let probe = QueueProbe::new(&tel, "query.slots");
        let (tx, rx) = std::sync::mpsc::sync_channel::<u32>(4);
        probe.send(|| tx.send(1)).unwrap();
        probe.send(|| tx.send(2)).unwrap();
        assert_eq!(probe.depth(), 2);
        assert_eq!(probe.recv(|| rx.recv()).unwrap(), 1);
        assert_eq!(probe.depth(), 1);
        let snap = tel.snapshot();
        assert_eq!(snap.counter("queue.query.slots.items"), 2);
        assert_eq!(snap.gauge("queue.query.slots.depth"), Some(1));
        assert_eq!(
            snap.histogram("queue.query.slots.send_wait_ns")
                .unwrap()
                .count,
            2
        );
        assert_eq!(
            snap.histogram("queue.query.slots.drain_wait_ns")
                .unwrap()
                .count,
            1
        );
    }

    #[test]
    fn disabled_probe_is_passthrough() {
        let tel = Telemetry::disabled();
        let probe = QueueProbe::new(&tel, "q");
        assert_eq!(probe.send(|| 7), 7);
        assert_eq!(probe.recv(|| 8), 8);
        probe.enqueued();
        probe.drained(1, 99);
        assert_eq!(probe.depth(), 0);
        let snap = tel.snapshot();
        assert_eq!(snap.counter("queue.q.items"), 0);
        assert!(snap.histograms.iter().all(|(_, h)| h.count == 0));
    }

    #[test]
    fn manual_path_tracks_items_and_drain_wait() {
        let tel = Telemetry::enabled();
        let probe = QueueProbe::new(&tel, "manual");
        probe.enqueued();
        probe.enqueued();
        probe.enqueued();
        probe.send_waited_ns(500);
        probe.drained(3, 120);
        assert_eq!(probe.depth(), 0);
        let snap = tel.snapshot();
        assert_eq!(snap.counter("queue.manual.items"), 3);
        assert_eq!(
            snap.histogram("queue.manual.drain_wait_ns").unwrap().count,
            1
        );
    }
}
