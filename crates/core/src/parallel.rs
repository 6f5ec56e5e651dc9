//! Parallel query execution — an engineering extension beyond the paper.
//!
//! The paper's query driver is sequential: one GHFK after another. On a
//! real peer the per-key retrievals are independent reads, so they
//! parallelise embarrassingly. [`ferry_query_parallel`] fans the per-key
//! cursors out over a thread scope while keeping results deterministic
//! **and memory bounded**: each key owns a dedicated bounded channel
//! (a "slot"), workers stream events into the slot for the key they
//! claimed, and the consumer folds slots in key order. Backpressure comes
//! from the channel capacity — a worker racing ahead of the consumer
//! blocks after [`SLOT_CAPACITY`] events instead of buffering a whole
//! `Vec<Event>` per key. The join itself is unchanged. The ablation
//! benchmarks quantify the speed-up; all engines remain interchangeable
//! because the functions take the same [`TemporalEngine`] trait.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Mutex;
use std::time::Instant;

use fabric_ledger::{Error, Ledger, Result, ShardedLedger};
use fabric_telemetry::QueueProbe;
use fabric_workload::{EntityId, EntityKind, Event};

use crate::engine::TemporalEngine;
use crate::interval::Interval;
use crate::join::{temporal_join, JoinOutcome, Stay, StayBuilder};
use crate::stats::QueryStats;

/// Bounded per-slot buffer: the most events a worker may run ahead of the
/// consumer on any single key.
pub const SLOT_CAPACITY: usize = 256;

/// A slot's producer end, claimed exactly once by the worker that takes
/// the slot's key.
type SlotSender = Mutex<Option<SyncSender<Result<Event>>>>;

/// Stream events for every key in `keys` on `workers` threads, invoking
/// `consume(key_index, event)` on the calling thread in strict `keys`
/// order (all of key 0's events, then key 1's, …) regardless of worker
/// scheduling. Returns the peak number of events simultaneously buffered
/// in the slot channels (0 on the serial path).
///
/// Deadlock-freedom: workers claim key indices in increasing order and the
/// consumer drains slots in increasing order, so the slot the consumer
/// waits on is always one some worker has claimed or will claim next;
/// a worker blocked on a full later slot never prevents the earlier
/// claimed slots from completing. If `consume` or a cursor fails, the
/// remaining receivers are dropped, producers see a closed channel and
/// abandon their cursors.
fn stream_events_parallel<F>(
    engine: &(dyn TemporalEngine + Sync),
    ledger: &Ledger,
    keys: &[EntityId],
    tau: Interval,
    workers: usize,
    mut consume: F,
) -> Result<usize>
where
    F: FnMut(usize, Event) -> Result<()>,
{
    let workers = workers.clamp(1, keys.len().max(1));
    if workers == 1 || keys.len() <= 1 {
        for (i, &key) in keys.iter().enumerate() {
            let mut cursor = engine.events_cursor(ledger, key, tau)?;
            while let Some(ev) = cursor.next_event()? {
                consume(i, ev)?;
            }
        }
        return Ok(0);
    }

    let mut senders: Vec<SlotSender> = Vec::with_capacity(keys.len());
    let mut receivers: Vec<Receiver<Result<Event>>> = Vec::with_capacity(keys.len());
    for _ in 0..keys.len() {
        let (tx, rx) = sync_channel(SLOT_CAPACITY);
        senders.push(Mutex::new(Some(tx)));
        receivers.push(rx);
    }
    let next = AtomicUsize::new(0);
    let in_flight = AtomicUsize::new(0);
    let peak = AtomicUsize::new(0);
    let tel = ledger.telemetry();
    // Handoff token: worker-side cursor spans parent under whatever query
    // span is open on this (the submitting) thread, so the fan-out shows
    // as one tree in the flight recorder.
    let ctx = tel.current_context();
    // One aggregate probe for all slot channels: depth is total buffered
    // events across slots, waits capture producer (slot full) and consumer
    // (slot empty) stalls.
    let probe = QueueProbe::new(tel, "query.slots");

    let mut outcome: Result<()> = Ok(());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let probe = &probe;
            let (next, in_flight, peak, senders) = (&next, &in_flight, &peak, &senders);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= keys.len() {
                    break;
                }
                let tx = senders[i]
                    .lock()
                    .expect("slot sender mutex poisoned")
                    .take()
                    .expect("slot sender claimed twice");
                let mut key_span = tel
                    .span_in("query.worker.key", ctx)
                    .with_label(format!("{}", keys[i]));
                let mut sent = 0u64;
                let produced = (|| -> Result<()> {
                    let mut cursor = engine.events_cursor(ledger, keys[i], tau)?;
                    while let Some(ev) = cursor.next_event()? {
                        // Count before sending so the consumer's decrement
                        // (which follows a successful recv) can never run
                        // ahead of the increment and underflow.
                        let now = in_flight.fetch_add(1, Ordering::Relaxed) + 1;
                        peak.fetch_max(now, Ordering::Relaxed);
                        let ok = if probe.is_live() {
                            let t0 = Instant::now();
                            let ok = tx.send(Ok(ev)).is_ok();
                            probe.send_waited_ns(t0.elapsed().as_nanos() as u64);
                            if ok {
                                probe.enqueued();
                            }
                            ok
                        } else {
                            tx.send(Ok(ev)).is_ok()
                        };
                        if !ok {
                            // Consumer bailed: abandon the cursor early.
                            in_flight.fetch_sub(1, Ordering::Relaxed);
                            return Ok(());
                        }
                        sent += 1;
                    }
                    Ok(())
                })();
                key_span.record("events", sent);
                if let Err(e) = produced {
                    if tx.send(Err(e)).is_ok() {
                        probe.enqueued();
                    }
                }
                // Dropping the sender closes the slot.
            });
        }
        // Consumer: fold slots in key order on this thread.
        let mut first_err: Option<Error> = None;
        for (i, rx) in receivers.into_iter().enumerate() {
            if first_err.is_some() {
                // Dropping the receiver makes the producer's sends fail
                // fast, so workers drain out instead of blocking.
                continue;
            }
            loop {
                let received = if probe.is_live() {
                    let t0 = Instant::now();
                    let r = rx.recv();
                    if r.is_ok() {
                        probe.drained(1, t0.elapsed().as_nanos() as u64);
                    }
                    r
                } else {
                    rx.recv()
                };
                match received {
                    Ok(Ok(ev)) => {
                        in_flight.fetch_sub(1, Ordering::Relaxed);
                        if let Err(e) = consume(i, ev) {
                            first_err = Some(e);
                            break;
                        }
                    }
                    Ok(Err(e)) => {
                        first_err = Some(e);
                        break;
                    }
                    Err(_) => break, // slot complete
                }
            }
        }
        if let Some(e) = first_err {
            outcome = Err(e);
        }
    });
    outcome?;
    Ok(peak.load(Ordering::Relaxed))
}

/// Span name for per-shard query fan-out work (see
/// [`ShardedLedger::for_each_shard`]).
pub const SHARD_QUERY_SPAN: &str = "shard.query";

/// Retrieve events for every key in `keys`: keys group by owning shard,
/// each shard streams its group on `workers` threads, and per-key results
/// scatter back into `keys` order regardless of scheduling or shard count.
pub fn events_for_keys_parallel(
    engine: &(dyn TemporalEngine + Sync),
    ledger: &ShardedLedger,
    keys: &[EntityId],
    tau: Interval,
    workers: usize,
) -> Result<Vec<Vec<Event>>> {
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); ledger.shard_count()];
    for (i, key) in keys.iter().enumerate() {
        groups[ledger.shard_index_for_key(&key.key())].push(i);
    }
    let gathered = ledger.for_each_shard(SHARD_QUERY_SPAN, |s, shard| {
        let shard_keys: Vec<EntityId> = groups[s].iter().map(|&i| keys[i]).collect();
        let mut events = vec![Vec::new(); shard_keys.len()];
        stream_events_parallel(engine, shard, &shard_keys, tau, workers, |i, ev| {
            events[i].push(ev);
            Ok(())
        })?;
        Ok(events)
    })?;
    let mut out = vec![Vec::new(); keys.len()];
    for (indices, events) in groups.iter().zip(gathered) {
        for (&i, evs) in indices.iter().zip(events) {
            out[i] = evs;
        }
    }
    Ok(out)
}

/// Stream the cursors of `keys` on `workers` threads into one stay list
/// per key, never materializing a key's event vector. Adds the events
/// seen to `scanned` and raises `peak` to the most buffered at once.
fn fold_stays(
    engine: &(dyn TemporalEngine + Sync),
    ledger: &Ledger,
    keys: &[EntityId],
    tau: Interval,
    workers: usize,
    (scanned, peak): (&mut usize, &mut usize),
) -> Result<HashMap<EntityId, Vec<Stay>>> {
    let mut builders: Vec<StayBuilder> = keys.iter().map(|_| StayBuilder::new(tau)).collect();
    let buffered = stream_events_parallel(engine, ledger, keys, tau, workers, |i, ev| {
        *scanned += 1;
        builders[i].push(&ev);
        Ok(())
    })?;
    *peak = (*peak).max(buffered);
    Ok(keys
        .iter()
        .copied()
        .zip(builders.into_iter().map(StayBuilder::finish))
        .collect())
}

/// Parallel version of [`crate::join::ferry_query`] over the ledger handle:
/// every shard folds its own keys' stays (concurrently when there are
/// several, each fanned out over `workers` threads with bounded
/// buffering), then one global temporal join runs over the merged stay
/// maps. The router keeps each entity wholly on one shard, so the merged
/// maps, and so the join records, are those of a plain ledger holding the
/// same data.
pub fn ferry_query_parallel(
    engine: &(dyn TemporalEngine + Sync),
    ledger: &ShardedLedger,
    tau: Interval,
    workers: usize,
) -> Result<JoinOutcome> {
    let tel = ledger.telemetry();
    let mut query_span = tel.span("query.ferry.parallel").with_label(format!(
        "{} tau=({},{}] shards={} workers={workers}",
        engine.name(),
        tau.start,
        tau.end,
        ledger.shard_count()
    ));
    let before = ledger.stats();
    let start = Instant::now();
    // The stage spans are those of the serial `ferry_query`; with several
    // shards each set nests under its shard's `shard.query` span.
    let folded = ledger.for_each_shard(SHARD_QUERY_SPAN, |_, shard| {
        let (shipments, containers) = {
            let _s = tel.span("ferry.list_keys");
            (
                engine.list_keys(shard, EntityKind::Shipment)?,
                engine.list_keys(shard, EntityKind::Container)?,
            )
        };
        let retrieval = Instant::now();
        let (mut scanned, mut peak) = (0usize, 0usize);
        let mut fold = |phase: &'static str, keys: &[EntityId]| {
            let _s = tel.span(phase);
            fold_stays(engine, shard, keys, tau, workers, (&mut scanned, &mut peak))
        };
        let stays = (
            fold("ferry.shipments", &shipments)?,
            fold("ferry.containers", &containers)?,
        );
        Ok((stays, scanned, peak, retrieval.elapsed()))
    })?;
    let mut shipment_stays = HashMap::new();
    let mut container_stays = HashMap::new();
    let mut events_scanned = 0usize;
    let mut peak_buffered_events = 0usize;
    // Shards retrieve concurrently, so the slowest one is the wall time.
    let mut retrieval_wall = std::time::Duration::ZERO;
    for ((shipments, containers), scanned, peak, retrieval) in folded {
        shipment_stays.extend(shipments);
        container_stays.extend(containers);
        events_scanned += scanned;
        peak_buffered_events = peak_buffered_events.max(peak);
        retrieval_wall = retrieval_wall.max(retrieval);
    }
    let records = {
        let _s = tel.span("ferry.join");
        temporal_join(&shipment_stays, &container_stays)
    };
    let stats = QueryStats {
        wall: start.elapsed(),
        io: ledger.stats().delta(&before),
    };
    query_span.record("records", records.len() as u64);
    query_span.record("events_scanned", events_scanned as u64);
    query_span.record("blocks", stats.blocks_deserialized());
    query_span.record("shards", ledger.shard_count() as u64);
    query_span.record("workers", workers as u64);
    query_span.record("peak_buffered", peak_buffered_events as u64);
    Ok(JoinOutcome {
        records,
        events_scanned,
        stats,
        retrieval_wall,
        peak_buffered_events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::ferry_query;
    use crate::m2::{M2Encoder, M2Engine};
    use crate::tqf::TqfEngine;
    use fabric_ledger::LedgerConfig;
    use fabric_workload::dataset::{generate_scaled, DatasetId};
    use fabric_workload::ingest::{ingest, IdentityEncoder, IngestMode};

    struct TempDir(std::path::PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let p = std::env::temp_dir().join(format!(
                "parallel-test-{}-{tag}-{:?}",
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

    #[test]
    fn parallel_tqf_matches_sequential() {
        let dir = TempDir::new("tqf");
        let workload = generate_scaled(DatasetId::Ds3, 60);
        let handle = ShardedLedger::open(&dir.0, LedgerConfig::default()).unwrap();
        let ledger = handle.sole().unwrap();
        ingest(
            ledger,
            &workload.events,
            IngestMode::MultiEvent,
            &IdentityEncoder,
        )
        .unwrap();
        let tau = Interval::new(0, workload.params.t_max / 2);
        let seq = ferry_query(&TqfEngine, ledger, tau).unwrap();
        for workers in [1, 2, 4, 8] {
            let par = ferry_query_parallel(&TqfEngine, &handle, tau, workers).unwrap();
            assert_eq!(par.records, seq.records, "workers={workers}");
            assert_eq!(par.events_scanned, seq.events_scanned);
        }
    }

    #[test]
    fn parallel_m2_matches_sequential() {
        let dir = TempDir::new("m2");
        let workload = generate_scaled(DatasetId::Ds3, 60);
        let u = workload.params.t_max / 10;
        let handle = ShardedLedger::open(&dir.0, LedgerConfig::default()).unwrap();
        let ledger = handle.sole().unwrap();
        ingest(
            ledger,
            &workload.events,
            IngestMode::MultiEvent,
            &M2Encoder { u },
        )
        .unwrap();
        let tau = Interval::new(workload.params.t_max / 4, workload.params.t_max / 2);
        let engine = M2Engine { u };
        let seq = ferry_query(&engine, ledger, tau).unwrap();
        let par = ferry_query_parallel(&engine, &handle, tau, 4).unwrap();
        assert_eq!(par.records, seq.records);
    }

    #[test]
    fn worker_count_edge_cases() {
        let dir = TempDir::new("edges");
        let workload = generate_scaled(DatasetId::Ds3, 100);
        let handle = ShardedLedger::open(&dir.0, LedgerConfig::default()).unwrap();
        let ledger = handle.sole().unwrap();
        ingest(
            ledger,
            &workload.events,
            IngestMode::SingleEvent,
            &IdentityEncoder,
        )
        .unwrap();
        let keys = workload.keys();
        let tau = Interval::new(0, workload.params.t_max);
        // workers = 0 clamps to 1; workers > keys clamps down.
        let a = events_for_keys_parallel(&TqfEngine, &handle, &keys, tau, 0).unwrap();
        let b = events_for_keys_parallel(&TqfEngine, &handle, &keys, tau, 1000).unwrap();
        assert_eq!(a, b);
        // Empty key list.
        let none = events_for_keys_parallel(&TqfEngine, &handle, &[], tau, 4).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn sharded_ferry_and_key_retrieval_match_single_shard() {
        use fabric_workload::ingest_sharded;
        let plain_dir = TempDir::new("sharded-plain");
        let sharded_dir = TempDir::new("sharded-4");
        // Factor 4 keeps enough distinct entities to populate 4 shards.
        let workload = generate_scaled(DatasetId::Ds3, 4);
        let plain = ShardedLedger::open(&plain_dir.0, LedgerConfig::default()).unwrap();
        let sharded = ShardedLedger::create(&sharded_dir.0, LedgerConfig::default(), 4).unwrap();
        for ledger in [&plain, &sharded] {
            ingest_sharded(
                ledger,
                &workload.events,
                IngestMode::MultiEvent,
                &IdentityEncoder,
            )
            .unwrap();
        }
        let tau = Interval::new(0, workload.params.t_max / 2);
        let seq = ferry_query(&TqfEngine, plain.sole().unwrap(), tau).unwrap();
        let shd = ferry_query_parallel(&TqfEngine, &sharded, tau, 2).unwrap();
        assert_eq!(shd.records, seq.records);
        assert_eq!(shd.events_scanned, seq.events_scanned);
        // Key listing merges shards back to the single-ledger list.
        let shipments = fabric_workload::EntityKind::Shipment;
        assert_eq!(
            crate::engine::list_keys_sharded(&TqfEngine, &sharded, shipments).unwrap(),
            TqfEngine
                .list_keys(plain.sole().unwrap(), shipments)
                .unwrap()
        );
        // Per-key retrieval scatters back into input order.
        let keys = workload.keys();
        let a = events_for_keys_parallel(&TqfEngine, &plain, &keys, tau, 2).unwrap();
        let b = events_for_keys_parallel(&TqfEngine, &sharded, &keys, tau, 2).unwrap();
        assert_eq!(a, b);
        // Either layout records the serial query's stage spans: one set per
        // partition (under its `shard.query` when there are several) and
        // the one global join.
        for ledger in [&plain, &sharded] {
            let tel = ledger.telemetry();
            tel.enable();
            let _ = tel.drain_spans();
            let out = ferry_query_parallel(&TqfEngine, ledger, tau, 1).unwrap();
            assert!(out.retrieval_wall <= out.stats.wall);
            let tree = tel.span_tree();
            assert_eq!(tree.len(), 1, "one root: query.ferry.parallel");
            let rendered = fabric_telemetry::render_tree(&tree);
            let n = ledger.shard_count();
            for (span, count) in [
                ("query.ferry.parallel", 1),
                (SHARD_QUERY_SPAN, if n == 1 { 0 } else { n }),
                ("ferry.list_keys", n),
                ("ferry.shipments", n),
                ("ferry.containers", n),
                ("ferry.join", 1),
            ] {
                assert_eq!(rendered.matches(span).count(), count, "{span}:\n{rendered}");
            }
        }
    }

    #[test]
    fn parallel_streaming_keeps_buffering_bounded() {
        let dir = TempDir::new("bounded");
        let workload = generate_scaled(DatasetId::Ds3, 60);
        let handle = ShardedLedger::open(&dir.0, LedgerConfig::default()).unwrap();
        let ledger = handle.sole().unwrap();
        ingest(
            ledger,
            &workload.events,
            IngestMode::MultiEvent,
            &IdentityEncoder,
        )
        .unwrap();
        let tau = Interval::new(0, workload.params.t_max);
        let par = ferry_query_parallel(&TqfEngine, &handle, tau, 4).unwrap();
        let keys = workload.keys().len();
        assert!(
            par.peak_buffered_events <= SLOT_CAPACITY * keys,
            "peak {} exceeds hard bound",
            par.peak_buffered_events
        );
        let seq = ferry_query(&TqfEngine, ledger, tau).unwrap();
        assert_eq!(seq.peak_buffered_events, 0, "serial path never buffers");
        assert_eq!(par.records, seq.records);
    }
}
