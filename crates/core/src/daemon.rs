//! Online M1 index maintenance: a tip-chasing indexer daemon.
//!
//! The paper's M1 indexing process is periodic and batch: each invocation
//! re-reads every key's full history (there is no index *for the
//! indexer*), so successive runs cost more and more (paper Table III),
//! and under sustained ingest every query pays a growing TQF-tail past
//! the indexed horizon. This module replaces the rebuild with an
//! **incremental append**: a daemon subscribes to the ledger's in-order
//! [`CommitEvent`] stream, extracts each committed block's temporal
//! events directly from its transaction write-sets, and cuts an index
//! epoch whenever the indexed horizon trails the tip by more than a
//! configured number of data blocks. Epoch cost is proportional to the
//! *new* data only, and the planner's hybrid M1+TQF plans see their
//! residual window shrink continuously because the daemon bumps the
//! on-chain [`M1Meta`] watermark with every epoch.
//!
//! **Crash safety.** Progress lives in the state-db under
//! [`M1_DAEMON_KEY`]: the next block to consume (`horizon_block`), the
//! θ-generation counter, and the per-key adaptive-θ map. The record is
//! submitted in the same epoch batch as the index transactions and the
//! `M1Meta` update, so a restart resumes from the last committed epoch
//! and re-scans at most the un-indexed tail — never the full chain. The
//! replay is idempotent: a re-run epoch recovers the same logical clock
//! (index transactions carry `timestamp = epoch.end`) and therefore
//! produces byte-identical EV sets, and catalog appends skip intervals
//! already recorded.
//!
//! **Adaptive θ.** The paper fixes the interval length `u` globally; the
//! daemon can instead pick `u` per key from observed event density
//! ([`ThetaPolicy::Adaptive`]): dense keys get short intervals (EV sets
//! stay decode-cheap), sparse keys get long ones (fewer blocks per
//! query). Per-key lengths ride the existing catalog machinery
//! (`M1Meta.u == 0`), so `M1Cursor`, [`crate::planner::AutoEngine`] cost
//! probes, and `overlapping_thetas` honor them with no query-side
//! changes. The chosen lengths persist in the daemon record; a 2×
//! hysteresis band keeps them from flapping, and every re-tune of an
//! already-assigned key bumps the θ-generation (exported as the
//! `m1.theta_generations` gauge and used by the planner's probe-cache
//! stamp).
//!
//! **Ordering assumption.** Like the paper's batch indexer, the daemon
//! assumes event timestamps are non-decreasing across blocks (the
//! workload ingests time-sorted streams). While streaming it cuts epochs
//! at `clock − 1` so timestamp ties straddling a block boundary stay
//! buffered; [`IndexerDaemon::flush`] cuts at the exact clock and is
//! meant for quiescent points. An event that still arrives at or below
//! the horizon is dropped from the index and counted in
//! `m1.daemon.late_events` — queries then under-report it on the M1
//! path, so a non-zero counter is an operator signal that ingest is not
//! time-ordered.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use bytes::Bytes;

use fabric_ledger::codec::{put_bytes, put_u64, put_uvarint, Cursor};
use fabric_ledger::ledger::CommitEvent;
use fabric_ledger::tx::ValidationCode;
use fabric_ledger::{Error, Ledger, Result};
use fabric_workload::EntityId;

use crate::engine::decode_event;
use crate::evset::TemporalEvent;
use crate::interval::Interval;
use crate::m1::{self, M1Meta};
use crate::partition::FixedLength;

/// State-db key holding the daemon's crash-safe progress record.
pub const M1_DAEMON_KEY: &[u8] = b"__m1daemon";

/// The daemon's persisted progress: where to resume, which θ generation
/// the index is on, and the per-key adaptive interval lengths.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DaemonMeta {
    /// Bumped every time an already-assigned key's adaptive θ length is
    /// re-tuned. Fixed-θ daemons stay at 0.
    pub generation: u64,
    /// Next block number the daemon will consume: blocks `< horizon_block`
    /// are fully reflected in the index (or carry only boundary events
    /// re-read on resume).
    pub horizon_block: u64,
    /// Per-key interval length chosen by [`ThetaPolicy::Adaptive`],
    /// keyed by the entity's state-db key bytes.
    pub theta: BTreeMap<Bytes, u64>,
}

impl DaemonMeta {
    /// Serialise.
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::with_capacity(24 + self.theta.len() * 16);
        put_u64(&mut out, self.generation);
        put_u64(&mut out, self.horizon_block);
        put_uvarint(&mut out, self.theta.len() as u64);
        for (k, u) in &self.theta {
            put_bytes(&mut out, k);
            put_u64(&mut out, *u);
        }
        Bytes::from(out)
    }

    /// Inverse of [`DaemonMeta::encode`].
    pub fn decode(data: &[u8]) -> Result<Self> {
        let mut c = Cursor::new(data, "m1 daemon meta");
        let generation = c.get_u64()?;
        let horizon_block = c.get_u64()?;
        let count = c.get_uvarint()?;
        let mut theta = BTreeMap::new();
        for _ in 0..count {
            let k = c.get_bytes_owned()?;
            let u = c.get_u64()?;
            theta.insert(k, u);
        }
        c.expect_end()?;
        Ok(DaemonMeta {
            generation,
            horizon_block,
            theta,
        })
    }
}

/// Read the daemon's progress record (`None` before its first epoch).
pub fn read_daemon_meta(ledger: &Ledger) -> Result<Option<DaemonMeta>> {
    match ledger.get_state(M1_DAEMON_KEY)? {
        Some(vv) => Ok(Some(DaemonMeta::decode(&vv.value)?)),
        None => Ok(None),
    }
}

/// How the daemon chooses index-interval lengths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThetaPolicy {
    /// The paper's regime: one global `u`, arithmetic query path.
    Fixed {
        /// Interval length for every key.
        u: u64,
    },
    /// Per-key `u` from observed event density: aim for `target_events`
    /// per interval, snapped to the power-of-two ladder
    /// `min_u, 2·min_u, 4·min_u, …, ≤ max_u`. Uses the catalog query
    /// path (`M1Meta.u == 0`).
    Adaptive {
        /// Events an EV set should ideally hold.
        target_events: u64,
        /// Shortest interval the ladder may pick.
        min_u: u64,
        /// Longest interval the ladder may pick.
        max_u: u64,
    },
}

impl ThetaPolicy {
    /// The global `u` for the metadata record (`None` → catalog regime).
    pub fn fixed_u(&self) -> Option<u64> {
        match self {
            ThetaPolicy::Fixed { u } => Some(*u),
            ThetaPolicy::Adaptive { .. } => None,
        }
    }

    /// Pick the interval length for a key that produced `events` events
    /// over an epoch of `epoch_len` ticks. `prev` is the key's current
    /// assignment; a 2× hysteresis band keeps the choice sticky so the
    /// catalog doesn't flap between ladder steps on noise.
    pub fn pick_u(&self, epoch_len: u64, events: u64, prev: Option<u64>) -> u64 {
        let (target, min_u, max_u) = match *self {
            ThetaPolicy::Fixed { u } => return u,
            ThetaPolicy::Adaptive {
                target_events,
                min_u,
                max_u,
            } => (target_events.max(1), min_u.max(1), max_u),
        };
        // Ideal length so that density · u ≈ target, then the largest
        // ladder step not exceeding it.
        let ideal = epoch_len
            .saturating_mul(target)
            .checked_div(events.max(1))
            .unwrap_or(max_u);
        let mut u = min_u;
        while u.saturating_mul(2) <= ideal && u.saturating_mul(2) <= max_u {
            u *= 2;
        }
        match prev {
            // Shrinking one step requires the ideal to have clearly left
            // the previous band (growth is naturally 2×-gated by the
            // ladder itself).
            Some(p) if u < p && ideal.saturating_mul(2) >= p => p,
            _ => u,
        }
    }
}

/// Daemon tuning.
#[derive(Debug, Clone, Copy)]
pub struct DaemonConfig {
    /// Cut an epoch once more than this many committed *data* blocks are
    /// waiting to be indexed (0 = chase every block).
    pub lag_blocks: u64,
    /// Interval-length policy.
    pub policy: ThetaPolicy,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            lag_blocks: 0,
            policy: ThetaPolicy::Fixed { u: 2000 },
        }
    }
}

/// Counters accumulated over a daemon's life (also exported as
/// `m1.daemon.*` telemetry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonReport {
    /// Blocks consumed from the chain (data and index blocks alike).
    pub blocks_consumed: u64,
    /// Temporal events buffered for indexing.
    pub events_buffered: u64,
    /// Writes skipped because they were not decodable temporal events.
    pub foreign_writes: u64,
    /// Events dropped because they arrived at or below the indexed
    /// horizon (out-of-order ingest; see module docs).
    pub late_events: u64,
    /// Epochs cut.
    pub epochs: u64,
    /// `(k, θ)` index pairs written.
    pub index_pairs: u64,
    /// Final θ generation.
    pub generation: u64,
    /// Final indexed horizon (logical time).
    pub indexed_to: u64,
    /// Final progress watermark (block number).
    pub horizon_block: u64,
}

/// One event waiting for its epoch, remembering the block it came from so
/// the resume watermark never skips a block with unconsumed content.
struct Buffered {
    block: u64,
    ev: TemporalEvent,
}

/// The tip-chasing M1 indexer.
///
/// Drive it deterministically with [`IndexerDaemon::catch_up`] /
/// [`IndexerDaemon::pump`] / [`IndexerDaemon::flush`] (tests and
/// benchmarks interleave these with ingest for exact lag control), or
/// hand it a thread with [`IndexerDaemon::spawn`].
pub struct IndexerDaemon {
    ledger: Arc<Ledger>,
    cfg: DaemonConfig,
    rx: mpsc::Receiver<CommitEvent>,
    dmeta: DaemonMeta,
    /// Logical clock: max transaction timestamp seen.
    clock: u64,
    /// Upper end of the last committed epoch.
    indexed_to: u64,
    /// Next block number to consume.
    next_block: u64,
    /// Blocks at or past this number are live (committed after the daemon
    /// started); stale timestamps there are genuine out-of-order events,
    /// not resume replay.
    live_floor: u64,
    /// Pending events per entity key (BTreeMap ⇒ epochs submit keys in
    /// deterministic byte order).
    buffer: BTreeMap<Bytes, (EntityId, Vec<Buffered>)>,
    /// Consumed data blocks whose events are not yet indexed.
    data_blocks_pending: u64,
    report: DaemonReport,
}

impl IndexerDaemon {
    /// A daemon for `ledger`. Subscribes to commit events and loads any
    /// persisted progress; call [`IndexerDaemon::catch_up`] (or
    /// [`IndexerDaemon::spawn`], which does) to consume history committed
    /// while no daemon was running.
    pub fn new(ledger: Arc<Ledger>, cfg: DaemonConfig) -> Result<IndexerDaemon> {
        let rx = ledger.subscribe();
        let meta = m1::read_meta(&ledger)?.unwrap_or_default();
        if !meta.epochs.is_empty() {
            match cfg.policy.fixed_u() {
                Some(u) if meta.u != u => {
                    return Err(Error::InvalidArgument(format!(
                        "daemon fixed u = {u} but the index was built with u = {}",
                        meta.u
                    )));
                }
                None if meta.u != 0 => {
                    return Err(Error::InvalidArgument(format!(
                        "adaptive-θ daemon cannot extend a fixed-u index (u = {})",
                        meta.u
                    )));
                }
                _ => {}
            }
        }
        let dmeta = read_daemon_meta(&ledger)?.unwrap_or_default();
        let indexed_to = meta.indexed_to();
        let live_floor = ledger.height();
        Ok(IndexerDaemon {
            rx,
            next_block: dmeta.horizon_block,
            dmeta,
            clock: indexed_to,
            indexed_to,
            live_floor,
            buffer: BTreeMap::new(),
            data_blocks_pending: 0,
            report: DaemonReport::default(),
            ledger,
            cfg,
        })
    }

    /// The daemon's cumulative counters.
    pub fn report(&self) -> DaemonReport {
        let mut r = self.report;
        r.generation = self.dmeta.generation;
        r.indexed_to = self.indexed_to;
        r.horizon_block = self.dmeta.horizon_block;
        r
    }

    /// Chain blocks of un-indexed data the index currently trails the tip
    /// by: consumed-but-pending data blocks plus everything not yet
    /// consumed (conservatively counted as data).
    pub fn lag_blocks(&self) -> u64 {
        self.data_blocks_pending + self.ledger.height().saturating_sub(self.next_block)
    }

    /// Consume every block already on the chain (the restart / adoption
    /// path: resumes from the persisted watermark, not block 0), cutting
    /// epochs whenever the configured lag is exceeded.
    pub fn catch_up(&mut self) -> Result<()> {
        loop {
            let height = self.ledger.height();
            if self.next_block >= height {
                break;
            }
            while self.next_block < height {
                self.consume_next_block()?;
                self.maybe_cut(false)?;
            }
        }
        self.publish_gauges();
        Ok(())
    }

    /// Drain every pending commit notification without blocking. Returns
    /// the number of notifications processed.
    pub fn pump(&mut self) -> Result<usize> {
        let mut n = 0usize;
        while let Ok(ev) = self.rx.try_recv() {
            n += 1;
            while self.next_block <= ev.block_num {
                self.consume_next_block()?;
                self.maybe_cut(false)?;
            }
        }
        self.publish_gauges();
        Ok(n)
    }

    /// Drain pending notifications, then force an epoch up to the exact
    /// logical clock, bringing the horizon flush with the tip. Call at
    /// quiescent points (end of ingest, shutdown): a later event with a
    /// timestamp equal to the clock would be late (see module docs).
    pub fn flush(&mut self) -> Result<()> {
        self.pump()?;
        self.maybe_cut(true)?;
        // Consume the epoch's own index block(s) so the lag gauge reads
        // zero once the horizon sits on the tip.
        self.pump()?;
        self.publish_gauges();
        Ok(())
    }

    /// Read and consume the next block.
    fn consume_next_block(&mut self) -> Result<()> {
        let ledger = &*self.ledger;
        let block = ledger.get_block(self.next_block)?;
        let tel = ledger.telemetry();
        let mut buffered = 0u64;
        for (i, tx) in block.txs.iter().enumerate() {
            // The logical clock follows CommitEvent::max_timestamp: every
            // transaction counts, so a crash replay recovers the same
            // clock a live daemon saw (index txs carry epoch.end).
            self.clock = self.clock.max(tx.timestamp);
            if block.validation.get(i) != Some(&ValidationCode::Valid) {
                continue; // discarded writes never reach history-db
            }
            for w in &tx.writes {
                let Some(value) = &w.value else { continue };
                if w.key.starts_with(b"__") || Interval::split_composite_key(&w.key).is_some() {
                    continue; // index/meta writes are not data
                }
                let Some(id) = EntityId::from_key(&w.key) else {
                    self.report.foreign_writes += 1;
                    continue;
                };
                let Ok(event) = decode_event(id, value) else {
                    self.report.foreign_writes += 1;
                    continue;
                };
                if event.time <= self.indexed_to {
                    // Expected during resume replay (the event is already
                    // indexed); out-of-order and uncorrectable when the
                    // block is live.
                    if block.header.number >= self.live_floor {
                        self.report.late_events += 1;
                        tel.count("m1.daemon.late_events", 1);
                    }
                    continue;
                }
                // Copies: the buffer outlives this block, and a decoded key
                // or value is a view that would keep its whole frame alive.
                self.buffer
                    .entry(Bytes::copy_from_slice(&w.key))
                    .or_insert_with(|| (id, Vec::new()))
                    .1
                    .push(Buffered {
                        block: block.header.number,
                        ev: TemporalEvent {
                            time: event.time,
                            value: Bytes::copy_from_slice(value),
                        },
                    });
                buffered += 1;
            }
        }
        if buffered > 0 {
            self.data_blocks_pending += 1;
            self.report.events_buffered += buffered;
            tel.count("m1.daemon.events_buffered", buffered);
        }
        self.report.blocks_consumed += 1;
        self.next_block += 1;
        Ok(())
    }

    /// Cut an epoch if the lag bound is exceeded (or unconditionally when
    /// `force`). Streaming cuts stop one tick short of the clock so
    /// timestamp ties on the boundary stay buffered; forced cuts go to
    /// the exact clock.
    fn maybe_cut(&mut self, force: bool) -> Result<()> {
        if !force && self.data_blocks_pending <= self.cfg.lag_blocks {
            return Ok(());
        }
        let end = if force {
            self.clock
        } else {
            self.clock.saturating_sub(1)
        };
        if end <= self.indexed_to {
            return Ok(());
        }
        self.cut_epoch(end)
    }

    /// Build and commit the epoch `(indexed_to, end]` from the buffer.
    fn cut_epoch(&mut self, end: u64) -> Result<()> {
        let epoch = Interval::new(self.indexed_to, end);
        let mut items: Vec<(EntityId, Vec<(Interval, Bytes)>)> = Vec::new();
        let mut keep: BTreeMap<Bytes, (EntityId, Vec<Buffered>)> = BTreeMap::new();
        let mut theta_changed = false;
        for (kbytes, (id, events)) in std::mem::take(&mut self.buffer) {
            let (now, later): (Vec<Buffered>, Vec<Buffered>) =
                events.into_iter().partition(|b| b.ev.time <= end);
            if !later.is_empty() {
                keep.insert(kbytes.clone(), (id, later));
            }
            if now.is_empty() {
                continue;
            }
            let u = match self.cfg.policy {
                ThetaPolicy::Fixed { u } => u,
                ThetaPolicy::Adaptive { .. } => {
                    let prev = self.dmeta.theta.get(&kbytes).copied();
                    let u = self.cfg.policy.pick_u(epoch.len(), now.len() as u64, prev);
                    if prev != Some(u) {
                        if prev.is_some() {
                            theta_changed = true; // a re-tune, not a first assignment
                        }
                        self.dmeta.theta.insert(kbytes.clone(), u);
                    }
                    u
                }
            };
            let evs: Vec<TemporalEvent> = now.into_iter().map(|b| b.ev).collect();
            let pairs = m1::pairs_from_events(&FixedLength { u }, epoch, &evs);
            items.push((id, pairs));
        }
        if theta_changed {
            self.dmeta.generation += 1;
        }
        // The watermark must not skip any block whose events are still
        // buffered (boundary ties): resume re-reads from the earliest.
        self.dmeta.horizon_block = keep
            .values()
            .flat_map(|(_, evs)| evs.iter().map(|b| b.block))
            .min()
            .unwrap_or(self.next_block);
        self.buffer = keep;
        let extra = [(Bytes::from_static(M1_DAEMON_KEY), self.dmeta.encode())];
        let report = m1::run_epoch_prepared(
            &self.ledger,
            &items,
            epoch,
            self.cfg.policy.fixed_u(),
            &extra,
        )?;
        self.indexed_to = end;
        self.data_blocks_pending = 0;
        self.report.epochs += 1;
        self.report.index_pairs += report.indexes as u64;
        let tel = self.ledger.telemetry();
        tel.count("m1.daemon.epochs", 1);
        tel.count("m1.daemon.index_pairs", report.indexes as u64);
        Ok(())
    }

    /// Export the daemon's freshness gauges (`m1.indexed_horizon`,
    /// `m1.lag_blocks`, `m1.theta_generations`).
    fn publish_gauges(&self) {
        let reg = self.ledger.telemetry().registry();
        reg.gauge("m1.indexed_horizon").set(self.indexed_to as i64);
        reg.gauge("m1.lag_blocks").set(self.lag_blocks() as i64);
        reg.gauge("m1.theta_generations")
            .set_max(self.dmeta.generation as i64);
    }

    /// Run on a background thread: catch up, then chase commit
    /// notifications until [`DaemonHandle::stop`], finishing with a
    /// [`IndexerDaemon::flush`] so the horizon lands on the tip.
    pub fn spawn(mut self) -> DaemonHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let join = std::thread::Builder::new()
            .name("m1-daemon".to_string())
            .spawn(move || -> Result<DaemonReport> {
                self.catch_up()?;
                loop {
                    match self.rx.recv_timeout(Duration::from_millis(10)) {
                        Ok(ev) => {
                            while self.next_block <= ev.block_num {
                                self.consume_next_block()?;
                                self.maybe_cut(false)?;
                            }
                            self.pump()?;
                        }
                        Err(mpsc::RecvTimeoutError::Timeout) => {}
                        Err(mpsc::RecvTimeoutError::Disconnected) => break,
                    }
                    if flag.load(Ordering::Relaxed) {
                        break;
                    }
                }
                self.flush()?;
                Ok(self.report())
            })
            .expect("spawn m1 daemon thread");
        DaemonHandle { stop, join }
    }
}

/// Handle to a spawned daemon thread.
pub struct DaemonHandle {
    stop: Arc<AtomicBool>,
    join: std::thread::JoinHandle<Result<DaemonReport>>,
}

impl DaemonHandle {
    /// Signal the daemon to finish, flush the index to the tip, and
    /// return its counters.
    pub fn stop(self) -> Result<DaemonReport> {
        self.stop.store(true, Ordering::Relaxed);
        self.join
            .join()
            .map_err(|_| Error::InvalidArgument("m1 daemon thread panicked".to_string()))?
    }
}

/// Index-freshness summary for operator surfaces (`tfq info` / `tfq
/// plan` / `/metrics`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexFreshness {
    /// Upper end of the indexed range (logical time).
    pub indexed_to: u64,
    /// Interval-length regime: `Some(u)` fixed, `None` adaptive/catalog.
    pub fixed_u: Option<u64>,
    /// Epochs committed.
    pub epochs: u64,
    /// Blocks the index trails the chain tip by.
    pub lag_blocks: u64,
    /// θ generation (adaptive re-tunes so far).
    pub generation: u64,
    /// Keys with an adaptive θ assignment.
    pub adaptive_keys: u64,
    /// Whether a daemon has ever persisted progress here.
    pub daemon_seen: bool,
}

impl IndexFreshness {
    /// One-line human rendering.
    pub fn render(&self) -> String {
        let regime = match self.fixed_u {
            Some(u) => format!("u={u}"),
            None => format!("adaptive θ ({} keys)", self.adaptive_keys),
        };
        if self.daemon_seen {
            format!(
                "index horizon t={} ({} epochs, {}), lag {} block(s), θ-generation {}",
                self.indexed_to, self.epochs, regime, self.lag_blocks, self.generation
            )
        } else {
            format!(
                "index horizon t={} ({} epochs, {}), no daemon watermark",
                self.indexed_to, self.epochs, regime
            )
        }
    }
}

/// Whether a committed block carries application data the indexer would
/// ingest: at least one valid put on an entity key (index, meta, and
/// foreign writes don't count — they never widen the unindexed tail).
fn block_has_data(block: &fabric_ledger::Block) -> bool {
    block.txs.iter().enumerate().any(|(i, tx)| {
        block.validation.get(i) == Some(&ValidationCode::Valid)
            && tx.writes.iter().any(|w| {
                w.value.is_some()
                    && !w.key.starts_with(b"__")
                    && Interval::split_composite_key(&w.key).is_none()
                    && EntityId::from_key(&w.key).is_some()
            })
    })
}

/// Compute the freshness summary for one ledger (`None` when no M1
/// metadata exists at all).
pub fn index_freshness(ledger: &Ledger) -> Result<Option<IndexFreshness>> {
    let meta: Option<M1Meta> = m1::read_meta(ledger)?;
    let dmeta = read_daemon_meta(ledger)?;
    if meta.is_none() && dmeta.is_none() {
        return Ok(None);
    }
    let meta = meta.unwrap_or_default();
    let daemon_seen = dmeta.is_some();
    let dmeta = dmeta.unwrap_or_default();
    // Without a daemon watermark the block lag is ill-defined (a batch
    // build has no notion of consumed blocks); report the full height so
    // "never maintained online" is visible rather than flattering. With
    // one, lag counts only the tail blocks that hold un-indexed data —
    // the daemon's own index blocks land past the watermark but add no
    // query cost, so a flush really reads as lag 0. The scan is bounded
    // by the configured lag at steady state.
    let lag = if daemon_seen {
        (dmeta.horizon_block..ledger.height())
            .filter(|&n| {
                ledger
                    .get_block(n)
                    .map(|b| block_has_data(&b))
                    .unwrap_or(true)
            })
            .count() as u64
    } else {
        ledger.height()
    };
    Ok(Some(IndexFreshness {
        indexed_to: meta.indexed_to(),
        fixed_u: (meta.u > 0).then_some(meta.u),
        epochs: meta.epochs.len() as u64,
        lag_blocks: lag,
        generation: dmeta.generation,
        adaptive_keys: dmeta.theta.len() as u64,
        daemon_seen,
    }))
}

/// Publish the M1 freshness gauges (`m1.indexed_horizon`,
/// `m1.lag_blocks`, `m1.theta_generations`) from the on-chain records:
/// the scrape-time refresh for `/metrics`, which works whether or not a
/// daemon is running. Publishes nothing when the ledger has no M1 index.
pub fn publish_m1_gauges(ledger: &Ledger) -> Result<()> {
    let Some(f) = index_freshness(ledger)? else {
        return Ok(());
    };
    let reg = ledger.telemetry().registry();
    reg.gauge("m1.indexed_horizon").set(f.indexed_to as i64);
    reg.gauge("m1.lag_blocks").set(f.lag_blocks as i64);
    reg.gauge("m1.theta_generations").set(f.generation as i64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TemporalEngine;
    use crate::m1::M1Engine;
    use crate::tqf::TqfEngine;
    use fabric_ledger::LedgerConfig;
    use fabric_workload::ingest::{ingest, IdentityEncoder, IngestMode};
    use fabric_workload::{Event, EventKind};

    struct TempDir(std::path::PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let p = std::env::temp_dir().join(format!(
                "m1-daemon-test-{}-{tag}-{:?}",
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

    fn open(dir: &TempDir) -> Arc<Ledger> {
        Arc::new(Ledger::open(&dir.0, LedgerConfig::small_for_tests()).unwrap())
    }

    #[test]
    fn daemon_meta_roundtrip() {
        let mut theta = BTreeMap::new();
        theta.insert(Bytes::from_static(b"s00001"), 400u64);
        theta.insert(Bytes::from_static(b"s00002"), 1600u64);
        let m = DaemonMeta {
            generation: 3,
            horizon_block: 42,
            theta,
        };
        assert_eq!(DaemonMeta::decode(&m.encode()).unwrap(), m);
        assert_eq!(DaemonMeta::default().horizon_block, 0);
    }

    #[test]
    fn adaptive_ladder_and_hysteresis() {
        let p = ThetaPolicy::Adaptive {
            target_events: 10,
            min_u: 100,
            max_u: 100_000,
        };
        // 1000 ticks, 10 events → ideal 1000 → ladder picks 800.
        assert_eq!(p.pick_u(1000, 10, None), 800);
        // Denser: 100 events → ideal 100 → floor of the ladder.
        assert_eq!(p.pick_u(1000, 100, None), 100);
        // Sparser than max: clamped to the ladder top.
        assert_eq!(p.pick_u(1_000_000_000, 1, None), 51_200);
        // Hysteresis: ideal 700 (< 800, ≥ 400) keeps the previous 800…
        assert_eq!(p.pick_u(700, 10, Some(800)), 800);
        // …but a clear density jump re-tunes.
        assert_eq!(p.pick_u(1000, 60, Some(800)), 100);
        // Fixed policy ignores density entirely.
        assert_eq!(ThetaPolicy::Fixed { u: 50 }.pick_u(1000, 10, Some(800)), 50);
    }

    #[test]
    fn tip_chase_matches_tqf_and_is_cheap() {
        let dir = TempDir::new("chase");
        let ledger = open(&dir);
        let mut daemon = IndexerDaemon::new(
            Arc::clone(&ledger),
            DaemonConfig {
                lag_blocks: 0,
                policy: ThetaPolicy::Fixed { u: 100 },
            },
        )
        .unwrap();
        // Interleave ingest and daemon stepping: chunks of 10 events.
        let events: Vec<Event> = (1..=40).map(|i| event(0, i * 10)).collect();
        for chunk in events.chunks(10) {
            ingest(&ledger, chunk, IngestMode::SingleEvent, &IdentityEncoder).unwrap();
            daemon.pump().unwrap();
        }
        daemon.flush().unwrap();
        let report = daemon.report();
        assert_eq!(report.late_events, 0);
        assert_eq!(report.events_buffered, 40);
        assert!(report.epochs >= 4, "epochs: {}", report.epochs);
        assert_eq!(report.indexed_to, 400);
        // The daemon's incremental epochs never re-scan history: total
        // consumed blocks ≈ chain length, not O(chain²) as in Table III.
        let m1 = M1Engine;
        for tau in [
            Interval::new(0, 400),
            Interval::new(55, 165),
            Interval::new(395, 400),
        ] {
            let got = m1
                .events_for_key(&ledger, EntityId::shipment(0), tau)
                .unwrap();
            let want = TqfEngine
                .events_for_key(&ledger, EntityId::shipment(0), tau)
                .unwrap();
            assert_eq!(got, want, "mismatch at tau={tau}");
        }
        // Horizon is flush with the tip: a fresh query needs no residual.
        let fresh = index_freshness(&ledger).unwrap().unwrap();
        assert_eq!(fresh.indexed_to, 400);
        assert_eq!(fresh.lag_blocks, 0);
    }

    #[test]
    fn resume_restarts_from_watermark_not_zero() {
        let dir = TempDir::new("resume");
        let ledger = open(&dir);
        let cfg = DaemonConfig {
            lag_blocks: 2,
            policy: ThetaPolicy::Fixed { u: 100 },
        };
        let events: Vec<Event> = (1..=40).map(|i| event(0, i * 10)).collect();
        let (first, rest) = events.split_at(20);
        ingest(&ledger, first, IngestMode::SingleEvent, &IdentityEncoder).unwrap();
        let mut daemon = IndexerDaemon::new(Arc::clone(&ledger), cfg).unwrap();
        daemon.catch_up().unwrap();
        daemon.flush().unwrap();
        let consumed_before = daemon.report().blocks_consumed;
        assert!(consumed_before > 0);
        drop(daemon); // "crash"
        ingest(&ledger, rest, IngestMode::SingleEvent, &IdentityEncoder).unwrap();
        let mut daemon = IndexerDaemon::new(Arc::clone(&ledger), cfg).unwrap();
        daemon.catch_up().unwrap();
        daemon.flush().unwrap();
        let report = daemon.report();
        // Only the tail since the watermark was consumed — not the chain.
        assert!(
            report.blocks_consumed < consumed_before + 25,
            "resume re-scanned too much: {}",
            report.blocks_consumed
        );
        assert_eq!(report.late_events, 0);
        let got = M1Engine
            .events_for_key(&ledger, EntityId::shipment(0), Interval::new(0, 400))
            .unwrap();
        let want = TqfEngine
            .events_for_key(&ledger, EntityId::shipment(0), Interval::new(0, 400))
            .unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn adaptive_theta_persists_per_key_lengths() {
        let dir = TempDir::new("adaptive");
        let ledger = open(&dir);
        // Lag of 20 blocks ⇒ multi-block epochs, so per-key density is
        // visible to the adaptive policy.
        let mut daemon = IndexerDaemon::new(
            Arc::clone(&ledger),
            DaemonConfig {
                lag_blocks: 20,
                policy: ThetaPolicy::Adaptive {
                    target_events: 4,
                    min_u: 10,
                    max_u: 10_000,
                },
            },
        )
        .unwrap();
        // Key 0 dense (every 5 ticks), key 1 sparse (every 100 ticks).
        let mut events = Vec::new();
        for i in 1..=80u64 {
            events.push(event(0, i * 5));
        }
        for i in 1..=4u64 {
            events.push(event(1, i * 100));
        }
        events.sort_by_key(|e| e.time);
        for chunk in events.chunks(12) {
            ingest(&ledger, chunk, IngestMode::SingleEvent, &IdentityEncoder).unwrap();
            daemon.pump().unwrap();
        }
        daemon.flush().unwrap();
        let dmeta = read_daemon_meta(&ledger).unwrap().unwrap();
        let dense = dmeta.theta.get(&EntityId::shipment(0).key()).copied();
        let sparse = dmeta.theta.get(&EntityId::shipment(1).key()).copied();
        assert!(dense.is_some() && sparse.is_some());
        assert!(
            dense.unwrap() < sparse.unwrap(),
            "dense key got u={dense:?}, sparse u={sparse:?}"
        );
        // Catalog path answers still agree with the base scan.
        for key in [EntityId::shipment(0), EntityId::shipment(1)] {
            let got = M1Engine
                .events_for_key(&ledger, key, Interval::new(0, 400))
                .unwrap();
            let want = TqfEngine
                .events_for_key(&ledger, key, Interval::new(0, 400))
                .unwrap();
            assert_eq!(got, want, "mismatch for {key}");
        }
    }

    #[test]
    fn empty_flush_advances_horizon_only() {
        let dir = TempDir::new("emptyflush");
        let ledger = open(&dir);
        let events: Vec<Event> = (1..=10).map(|i| event(0, i * 10)).collect();
        ingest(&ledger, &events, IngestMode::SingleEvent, &IdentityEncoder).unwrap();
        let mut daemon = IndexerDaemon::new(Arc::clone(&ledger), DaemonConfig::default()).unwrap();
        daemon.catch_up().unwrap();
        daemon.flush().unwrap();
        let h = daemon.report().indexed_to;
        assert_eq!(h, 100);
        // A second flush with nothing new is a no-op (no empty epoch).
        let epochs_before = m1::read_meta(&ledger).unwrap().unwrap().epochs.len();
        daemon.flush().unwrap();
        let epochs_after = m1::read_meta(&ledger).unwrap().unwrap().epochs.len();
        assert_eq!(epochs_before, epochs_after);
    }

    #[test]
    fn policy_mismatch_with_existing_index_is_rejected() {
        let dir = TempDir::new("mismatch");
        let ledger = open(&dir);
        let events: Vec<Event> = (1..=10).map(|i| event(0, i * 10)).collect();
        ingest(&ledger, &events, IngestMode::SingleEvent, &IdentityEncoder).unwrap();
        let strategy = FixedLength { u: 50 };
        crate::m1::M1Indexer::fixed(&strategy)
            .run_epoch(&ledger, &[EntityId::shipment(0)], Interval::new(0, 100))
            .unwrap();
        // Wrong fixed u.
        assert!(IndexerDaemon::new(
            Arc::clone(&ledger),
            DaemonConfig {
                lag_blocks: 0,
                policy: ThetaPolicy::Fixed { u: 100 },
            },
        )
        .is_err());
        // Adaptive over a fixed-u index.
        assert!(IndexerDaemon::new(
            Arc::clone(&ledger),
            DaemonConfig {
                lag_blocks: 0,
                policy: ThetaPolicy::Adaptive {
                    target_events: 4,
                    min_u: 10,
                    max_u: 1000,
                },
            },
        )
        .is_err());
        // Matching u adopts the index and continues it.
        let mut daemon = IndexerDaemon::new(
            Arc::clone(&ledger),
            DaemonConfig {
                lag_blocks: 0,
                policy: ThetaPolicy::Fixed { u: 50 },
            },
        )
        .unwrap();
        daemon.catch_up().unwrap();
        daemon.flush().unwrap();
        assert_eq!(daemon.report().indexed_to, 100);
    }

    #[test]
    fn spawned_daemon_chases_concurrent_ingest() {
        let dir = TempDir::new("spawn");
        let ledger = open(&dir);
        let daemon = IndexerDaemon::new(
            Arc::clone(&ledger),
            DaemonConfig {
                lag_blocks: 1,
                policy: ThetaPolicy::Fixed { u: 100 },
            },
        )
        .unwrap()
        .spawn();
        let events: Vec<Event> = (1..=40).map(|i| event(0, i * 10)).collect();
        for chunk in events.chunks(8) {
            ingest(&ledger, chunk, IngestMode::SingleEvent, &IdentityEncoder).unwrap();
        }
        let report = daemon.stop().unwrap();
        assert_eq!(report.indexed_to, 400, "final flush reaches the tip");
        assert_eq!(report.late_events, 0);
        let got = M1Engine
            .events_for_key(&ledger, EntityId::shipment(0), Interval::new(5, 395))
            .unwrap();
        let want = TqfEngine
            .events_for_key(&ledger, EntityId::shipment(0), Interval::new(5, 395))
            .unwrap();
        assert_eq!(got, want);
    }
}
