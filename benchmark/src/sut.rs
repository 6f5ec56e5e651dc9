//! The system under test. This is the only file that names the repository's
//! types; everything else in the benchmark goes through what it exports.
//!
//! The untraced paths use the calls the ledger keeps as its public surface:
//! `Ledger::open`, `submit`, `cut_block`, `drain_commits`, `flush_stores`,
//! `stats`, `ferry_query` (which drives `events_cursor`), `AutoEngine` and
//! `IndexerDaemon`. The traced paths also call the public functions of the
//! layers underneath, on handles the benchmark opens itself.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::hint::black_box;
use std::ops::{Bound, Range};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use fabric_kvstore::{open_engine, MetricsSnapshot, Options as KvOptions, SharedEngine};
use fabric_ledger::index::{ChainTip, LedgerIndex};
use fabric_ledger::orderer::BlockCutter;
use fabric_ledger::statedb::StateDb;
use fabric_ledger::validate::validate_serial;
use fabric_ledger::{
    Block, BlockFileManager, BlockLocation, Digest, HistoryEntryMeta, IoStats, Ledger,
    LedgerConfig, PartialBlock, StateUpdate, Telemetry, Transaction, TxId, TxNum, TxSimulator,
    ValidationCode, Version,
};
use fabric_workload::dataset::{params_scaled, DatasetId};
use fabric_workload::ingest::{EventEncoder, IdentityEncoder};
use fabric_workload::{EntityId, EntityKind, EventDistribution, GeneratedWorkload, WorkloadParams};
use temporal_core::engine::decode_event;
use temporal_core::join::temporal_join;
use temporal_core::{
    build_stays, drain, ferry_query, index_freshness, AccessPath, AutoEngine, DaemonConfig,
    DaemonHandle, DaemonReport, EvSet, FerryRecord, IndexerDaemon, Interval, PlanStep, Stay,
    TemporalEngine, ThetaPolicy, TqfEngine,
};

use crate::trace::{SpanId, Tracer};

pub use fabric_ledger::{Error, Result};
pub use fabric_workload::Event;

/// Which of the frozen data shapes to generate. The sizes are the largest
/// that keep a whole run (set-up repeats, warm-up, timed phase, checks)
/// inside the time one run may take; README.md gives the arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `q-tqf` and `q-m1`: `params_scaled(Ds1, 60)`: 52 shipments, 13
    /// containers, 258 events per key, 16,770 events, `t_max` 19,364.
    Query,
    /// `ingest-durable`: `params_scaled(Ds1, 2)`, about 500K events.
    Ingest,
    /// `live-mixed`: 10 shipments, 3 containers, 4000 events per key over
    /// the paper's `t_max` of 150K, uniform. Few keys and long histories: the
    /// stream is long enough to time several hundred commits while a query
    /// over every key stays short enough to run a few hundred times. Uniform
    /// and not Zipf, because with 13 per-key exponents the shape of a Zipf
    /// dataset changes with the seed by more than any bound allows.
    Live,
}

pub struct Dataset {
    /// Sorted by `(time, subject)`, the order they are ingested in.
    pub events: Vec<Event>,
    pub t_max: u64,
    pub keys: u32,
}

impl Dataset {
    /// The same `(shape, smoke, seed)` gives the same events.
    pub fn generate(shape: Shape, smoke: bool, seed: u64) -> Dataset {
        let mut p = match (shape, smoke) {
            (Shape::Query, false) => params_scaled(DatasetId::Ds1, 60),
            (Shape::Ingest, false) => params_scaled(DatasetId::Ds1, 2),
            (Shape::Live, false) => WorkloadParams {
                shipments: 10,
                containers: 3,
                trucks: 1,
                events_per_key: 4000,
                distribution: EventDistribution::Uniform,
                t_max: 150_000,
                seed,
            },
            (Shape::Query | Shape::Ingest, true) => params_scaled(DatasetId::Ds1, 400),
            (Shape::Live, true) => params_scaled(DatasetId::Ds1, 400),
        };
        p.seed = seed;
        let w = GeneratedWorkload::generate(p);
        Dataset {
            events: w.events,
            t_max: p.t_max,
            keys: p.total_keys(),
        }
    }

    /// M1 interval length: the paper's 2000 of 150K.
    pub fn u(&self) -> u64 {
        (self.t_max / 75).max(1)
    }
}

/// A query window `(start, end]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    pub start: u64,
    pub end: u64,
}

impl Window {
    fn tau(self) -> Interval {
        Interval::new(self.start, self.end)
    }
}

/// The answer to query Q.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Records(Vec<FerryRecord>);

impl Records {
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

/// Expected answers, computed from the generator's events alone: stays are
/// rebuilt per key from the events inside the window and joined in memory,
/// with no ledger involved.
pub struct Oracle {
    shipments: BTreeMap<EntityId, Vec<Event>>,
    containers: BTreeMap<EntityId, Vec<Event>>,
}

impl Oracle {
    /// Index the events the ledger holds (a prefix of a dataset).
    pub fn new(events: &[Event]) -> Oracle {
        let mut shipments: BTreeMap<EntityId, Vec<Event>> = BTreeMap::new();
        let mut containers: BTreeMap<EntityId, Vec<Event>> = BTreeMap::new();
        for ev in events {
            let side = match ev.subject.kind {
                EntityKind::Shipment => &mut shipments,
                _ => &mut containers,
            };
            side.entry(ev.subject).or_default().push(*ev);
        }
        Oracle {
            shipments,
            containers,
        }
    }

    pub fn answer(&self, w: Window) -> Records {
        let tau = w.tau();
        let stays = |side: &BTreeMap<EntityId, Vec<Event>>| -> HashMap<EntityId, Vec<Stay>> {
            side.iter()
                .map(|(&key, evs)| {
                    let lo = evs.partition_point(|e| e.time <= w.start);
                    let hi = evs.partition_point(|e| e.time <= w.end);
                    (key, build_stays(&evs[lo..hi], tau))
                })
                .collect()
        };
        Records(temporal_join(
            &stays(&self.shipments),
            &stays(&self.containers),
        ))
    }
}

/// The paper's ME rule: each transaction is a maximal run of consecutive
/// events in which no two share a key.
pub fn me_batches(events: &[Event]) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut seen: HashSet<EntityId> = HashSet::new();
    let mut start = 0;
    for (i, ev) in events.iter().enumerate() {
        if !seen.insert(ev.subject) {
            out.push(start..i);
            start = i;
            seen.clear();
            seen.insert(ev.subject);
        }
    }
    if start < events.len() {
        out.push(start..events.len());
    }
    out
}

/// One simulated transaction, ready to submit.
pub struct Tx {
    tx: Transaction,
    /// Time of the last event it carries.
    pub last_time: u64,
}

fn build_tx(host: &Ledger, events: &[Event]) -> Result<Tx> {
    let mut sim = TxSimulator::new(host);
    for ev in events {
        let (key, value) = IdentityEncoder.encode(ev);
        sim.put_state(key, value);
    }
    let last_time = events.last().map_or(0, |e| e.time);
    Ok(Tx {
        tx: sim.into_transaction(last_time)?,
        last_time,
    })
}

/// Diffs of `Ledger::stats()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub blocks_deserialized: u64,
    pub txs_decoded: u64,
    pub block_bytes_read: u64,
    pub cache_hits: u64,
    pub ghfk_calls: u64,
    pub blocks_committed: u64,
    pub events_committed: u64,
}

impl Counts {
    pub fn since(&self, earlier: &Counts) -> Counts {
        Counts {
            blocks_deserialized: self.blocks_deserialized - earlier.blocks_deserialized,
            txs_decoded: self.txs_decoded - earlier.txs_decoded,
            block_bytes_read: self.block_bytes_read - earlier.block_bytes_read,
            cache_hits: self.cache_hits - earlier.cache_hits,
            ghfk_calls: self.ghfk_calls - earlier.ghfk_calls,
            blocks_committed: self.blocks_committed - earlier.blocks_committed,
            events_committed: self.events_committed - earlier.events_committed,
        }
    }

    pub fn plus(&self, other: &Counts) -> Counts {
        Counts {
            blocks_deserialized: self.blocks_deserialized + other.blocks_deserialized,
            txs_decoded: self.txs_decoded + other.txs_decoded,
            block_bytes_read: self.block_bytes_read + other.block_bytes_read,
            cache_hits: self.cache_hits + other.cache_hits,
            ghfk_calls: self.ghfk_calls + other.ghfk_calls,
            blocks_committed: self.blocks_committed + other.blocks_committed,
            events_committed: self.events_committed + other.events_committed,
        }
    }

    /// Blocks a query asked for, whether read from the block files or served
    /// by a cache: the same with and without a cache.
    pub fn block_accesses(&self) -> u64 {
        self.blocks_deserialized + self.cache_hits
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// `TqfEngine`, the paper's baseline and the CLI's default.
    Tqf,
    /// `AutoEngine`, which plans per key and uses the M1 index when built.
    Auto,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct DaemonStats {
    pub epochs: u64,
    pub index_pairs: u64,
    pub late_events: u64,
}

impl From<DaemonReport> for DaemonStats {
    fn from(r: DaemonReport) -> Self {
        DaemonStats {
            epochs: r.epochs,
            index_pairs: r.index_pairs,
            late_events: r.late_events,
        }
    }
}

pub struct RunningDaemon(DaemonHandle);

impl RunningDaemon {
    /// Stop the daemon thread; it flushes the index to the tip first.
    pub fn stop(self) -> Result<DaemonStats> {
        self.0.stop().map(DaemonStats::from)
    }
}

/// A ledger opened with `LedgerConfig::default()` plus the durable profile.
/// Nothing else is ever set, so the benchmark measures the defaults.
pub struct Sut {
    ledger: Arc<Ledger>,
    auto: AutoEngine,
    dir: PathBuf,
}

fn ledger_config(durable: bool) -> LedgerConfig {
    let mut cfg = LedgerConfig::default();
    // The repository's meaning of durable: fsync both stores' WAL on every
    // write batch. The block files are not fsynced on the commit path.
    cfg.state_db.sync_wal = durable;
    cfg.index_db.sync_wal = durable;
    cfg
}

impl Sut {
    pub fn open(dir: &Path) -> Result<Sut> {
        Ok(Sut {
            ledger: Arc::new(Ledger::open(dir, ledger_config(true))?),
            auto: AutoEngine::default(),
            dir: dir.to_path_buf(),
        })
    }

    /// Close the ledger and open it again, as a restart would.
    pub fn reopen(self) -> Result<Sut> {
        let dir = self.dir.clone();
        drop(self);
        Sut::open(&dir)
    }

    pub fn build_tx(&self, events: &[Event]) -> Result<Tx> {
        build_tx(&self.ledger, events)
    }

    /// Returns whether this submission cut (and committed) a block.
    pub fn submit(&self, tx: Tx) -> Result<bool> {
        Ok(!self.ledger.submit(tx.tx)?.is_empty())
    }

    /// Commit whatever is pending and wait until it is applied.
    pub fn finish_ingest(&self) -> Result<()> {
        self.ledger.cut_block()?;
        self.ledger.drain_commits()
    }

    pub fn flush_stores(&self) -> Result<()> {
        self.ledger.flush_stores()
    }

    pub fn verify_chain(&self) -> Result<()> {
        self.ledger.verify_chain().map(|_| ())
    }

    pub fn counts(&self) -> Counts {
        let s = self.ledger.stats();
        Counts {
            blocks_deserialized: s.blocks_deserialized,
            txs_decoded: s.txs_decoded,
            block_bytes_read: s.block_bytes_read,
            cache_hits: s.cache_hits,
            ghfk_calls: s.ghfk_calls,
            blocks_committed: s.blocks_committed,
            events_committed: s.events_committed,
        }
    }

    fn engine(&self, kind: EngineKind) -> &dyn TemporalEngine {
        match kind {
            EngineKind::Tqf => &TqfEngine,
            EngineKind::Auto => &self.auto,
        }
    }

    /// Query Q, end to end.
    pub fn query(&self, kind: EngineKind, w: Window) -> Result<Records> {
        Ok(Records(
            ferry_query(self.engine(kind), &self.ledger, w.tau())?.records,
        ))
    }

    /// Batch M1 build with the indexer the ledger keeps: the daemon consumes
    /// the whole chain without cutting (lag bound never reached) and `flush`
    /// cuts it as one epoch.
    pub fn build_m1_index(&self, u: u64) -> Result<DaemonStats> {
        let mut daemon = IndexerDaemon::new(
            Arc::clone(&self.ledger),
            DaemonConfig {
                lag_blocks: u64::MAX,
                policy: ThetaPolicy::Fixed { u },
            },
        )?;
        daemon.catch_up()?;
        daemon.flush()?;
        Ok(daemon.report().into())
    }

    /// Index what is on the chain, then keep chasing the tip on a thread.
    pub fn start_daemon(&self, u: u64, lag_blocks: u64) -> Result<RunningDaemon> {
        let mut daemon = IndexerDaemon::new(
            Arc::clone(&self.ledger),
            DaemonConfig {
                lag_blocks,
                policy: ThetaPolicy::Fixed { u },
            },
        )?;
        daemon.catch_up()?;
        Ok(RunningDaemon(daemon.spawn()))
    }

    /// Blocks of un-indexed data behind the tip, as `index_freshness` sees it.
    pub fn index_lag_blocks(&self) -> Result<Option<u64>> {
        Ok(index_freshness(&self.ledger)?.map(|f| f.lag_blocks))
    }

    /// Gauges `publish_gauges` sets from the stores' own counters: the only
    /// public view of the index store's metrics on an open ledger. `None`
    /// when the names are not there, so a renamed gauge costs one per-layer
    /// number and not the run.
    fn gauges(&self, names: [&str; 2]) -> Option<[u64; 2]> {
        self.ledger.publish_gauges();
        let snap = self.ledger.telemetry().registry().snapshot();
        let get = |n: &str| snap.gauge(n).and_then(|v| u64::try_from(v).ok());
        Some([get(names[0])?, get(names[1])?])
    }

    /// WAL fsyncs of the state and index stores since open.
    pub fn wal_fsyncs(&self) -> Option<u64> {
        self.gauges(["statedb.wal_fsyncs", "indexdb.wal_fsyncs"])
            .map(|[s, i]| s + i)
    }

    /// Live SSTables of the (state, index) stores.
    pub fn sstables(&self) -> Option<[u64; 2]> {
        self.gauges(["statedb.sstables", "indexdb.sstables"])
    }

    /// Start a traced query phase: empty spans and totals, and a second,
    /// read-only view of the block files for the shadow reads.
    pub fn query_trace(&self) -> Result<QueryTrace> {
        let bfm = BlockFileManager::open(
            self.dir.join("blocks"),
            LedgerConfig::default().blockfile_max_bytes,
            IoStats::new_shared(),
        )?;
        let mut locations = Vec::new();
        bfm.scan_all(|block, location| {
            debug_assert_eq!(block.header.number as usize, locations.len());
            locations.push(location);
            Ok(())
        })?;
        Ok(QueryTrace {
            tracer: Tracer::default(),
            tally: QueryTally::default(),
            bfm,
            locations,
            payloads: HashMap::new(),
        })
    }

    /// Close the ledger and time its index store alone.
    pub fn probe_index_store(self, block_nums: &[u64]) -> Result<KvProbe> {
        let dir = self.dir.clone();
        drop(self);
        probe_index_store(&dir.join("index"), block_nums)
    }
}

/// Work done under the live spans of traced queries, summed.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryTally {
    pub queries: u64,
    pub keys: u64,
    pub events: u64,
    /// `Ledger::stats()` diffs around the live spans only.
    pub live: Counts,
    pub shadow_blocks: u64,
    pub shadow_txs: u64,
    pub shadow_bytes: u64,
    pub index_entries: u64,
    pub evset_events: u64,
    pub m1_picks: u64,
    /// Keys whose shadow reads did not reproduce the live counts.
    pub count_mismatches: u64,
}

/// What the live pass remembers about one key for the shadow pass.
struct KeyRun {
    key: EntityId,
    open: SpanId,
    drain: SpanId,
    used: Counts,
}

/// A traced query phase: the spans, the running totals, and the view of the
/// block files the shadow reads go through.
pub struct QueryTrace {
    pub tracer: Tracer,
    pub tally: QueryTally,
    bfm: BlockFileManager,
    locations: Vec<BlockLocation>,
    /// Encoded blocks, so `Block::decode_txs` can be timed apart from the
    /// file read and CRC that `read_block_txs` does around it.
    payloads: HashMap<u64, Vec<u8>>,
}

impl QueryTrace {
    /// Block numbers read so far (the index probe looks the same ones up).
    pub fn blocks_touched(&self) -> Vec<u64> {
        let mut nums: Vec<u64> = self.payloads.keys().copied().collect();
        nums.sort_unstable();
        nums
    }

    /// One shadow block read under `parent`: `read_block_txs`, and inside it
    /// the `decode_txs` it does.
    fn read(
        &mut self,
        parent: SpanId,
        qid: u64,
        block_num: u64,
        tx_nums: &[TxNum],
    ) -> Result<PartialBlock> {
        let location = *self
            .locations
            .get(block_num as usize)
            .ok_or_else(|| Error::NotFound(format!("block {block_num} in the shadow view")))?;
        if !self.payloads.contains_key(&block_num) {
            self.payloads
                .insert(block_num, self.bfm.read_block(location)?.encode());
        }
        let read = self
            .tracer
            .enter_shadow("blockfile.read_block_txs", parent, qid);
        let partial = self.bfm.read_block_txs(location, tx_nums)?;
        self.tracer.exit(read);
        let decode = self.tracer.enter_shadow("block.decode_txs", read, qid);
        black_box(Block::decode_txs(&self.payloads[&block_num], tx_nums)?);
        self.tracer.exit(decode);
        self.tally.shadow_blocks += 1;
        self.tally.shadow_txs += partial.txs.len() as u64;
        self.tally.shadow_bytes += u64::from(location.len);
        Ok(partial)
    }
}

impl Sut {
    /// Query Q again, step by step, with a span around each public call, and
    /// then the work those calls did underneath, as shadow spans.
    pub fn traced_query(
        &self,
        kind: EngineKind,
        w: Window,
        qt: &mut QueryTrace,
    ) -> Result<Records> {
        let ledger = &*self.ledger;
        let engine = self.engine(kind);
        let tau = w.tau();
        let qid = qt.tally.queries;
        let tracer = &mut qt.tracer;
        let before = self.counts();
        let root = tracer.enter("q.ferry_query", qid);

        let list = tracer.enter("statedb.list_keys", qid);
        let shipments = engine.list_keys(ledger, EntityKind::Shipment)?;
        let containers = engine.list_keys(ledger, EntityKind::Container)?;
        tracer.exit(list);

        let mut runs: Vec<KeyRun> = Vec::with_capacity(shipments.len() + containers.len());
        let mut events_scanned = 0u64;
        let mut stays_of = |keys: Vec<EntityId>| -> Result<HashMap<EntityId, Vec<Stay>>> {
            let mut stays = HashMap::with_capacity(keys.len());
            for key in keys {
                let c0 = self.counts();
                let open = tracer.enter("cursor.open", qid);
                let mut cursor = engine.events_cursor(ledger, key, tau)?;
                tracer.exit(open);
                let drained = tracer.enter("cursor.drain", qid);
                let events = drain(cursor.as_mut())?;
                drop(cursor);
                tracer.exit(drained);
                let used = self.counts().since(&c0);
                let built = tracer.enter("join.build_stays", qid);
                stays.insert(key, build_stays(&events, tau));
                tracer.exit(built);
                events_scanned += events.len() as u64;
                runs.push(KeyRun {
                    key,
                    open,
                    drain: drained,
                    used,
                });
            }
            Ok(stays)
        };
        let shipment_stays = stays_of(shipments)?;
        let container_stays = stays_of(containers)?;
        let join = tracer.enter("join.temporal_join", qid);
        let records = temporal_join(&shipment_stays, &container_stays);
        tracer.exit(join);
        tracer.exit(root);
        let live = self.counts().since(&before);

        for run in &runs {
            let t = qt.tally;
            self.shadow_key(kind, tau, qid, run, qt)?;
            let reproduced = (
                qt.tally.shadow_blocks - t.shadow_blocks,
                qt.tally.shadow_txs - t.shadow_txs,
                qt.tally.shadow_bytes - t.shadow_bytes,
            );
            let expected = (
                run.used.blocks_deserialized,
                run.used.txs_decoded,
                run.used.block_bytes_read,
            );
            qt.tally.count_mismatches += u64::from(reproduced != expected);
        }
        qt.tally.queries += 1;
        qt.tally.keys += runs.len() as u64;
        qt.tally.events += events_scanned;
        qt.tally.live = qt.tally.live.plus(&live);
        Ok(Records(records))
    }

    /// Repeat, through the layers' public functions, what one key's cursor
    /// did inside the ledger.
    fn shadow_key(
        &self,
        kind: EngineKind,
        tau: Interval,
        qid: u64,
        run: &KeyRun,
        qt: &mut QueryTrace,
    ) -> Result<()> {
        let ledger = &*self.ledger;
        let blocks = run.used.block_accesses();
        if kind == EngineKind::Tqf {
            return self.shadow_scan(run, None, blocks, qid, qt);
        }
        // `events_cursor` plans first; the same call, timed on its own.
        let plan = qt.tracer.enter_shadow("planner.choose", run.open, qid);
        let choice = self.auto.choose(ledger, run.key, tau)?;
        qt.tracer.exit(plan);
        match choice.path {
            AccessPath::Tqf => self.shadow_scan(run, None, blocks, qid, qt),
            AccessPath::M1 { residual } => {
                qt.tally.m1_picks += 1;
                let mut ev_set_blocks = 0u64;
                for step in &choice.plan.steps {
                    let PlanStep::Ghfk {
                        key: composite,
                        first_state_only: true,
                        ..
                    } = step
                    else {
                        continue;
                    };
                    let scan = qt.tracer.enter_shadow("index.history_scan", run.drain, qid);
                    let profile = ledger.history_profile(composite.as_bytes())?;
                    qt.tracer.exit(scan);
                    qt.tally.index_entries += profile.len() as u64;
                    // Only the first state is read, the EV-set, so only the
                    // first run of same-block entries is deserialized.
                    let Some((block_num, tx_nums)) =
                        profile_runs(&profile, None).into_iter().next()
                    else {
                        continue;
                    };
                    ev_set_blocks += 1;
                    let partial = qt.read(run.drain, qid, block_num, &tx_nums)?;
                    let value = partial
                        .txs
                        .first()
                        .and_then(|(_, tx)| {
                            tx.writes.iter().find(|w| w.key == composite.as_bytes())
                        })
                        .and_then(|w| w.value.clone())
                        .ok_or_else(|| Error::NotFound(format!("EV-set of {composite}")))?;
                    let decode = qt.tracer.enter_shadow("evset.decode", run.drain, qid);
                    let set = EvSet::decode(&value)?;
                    for ev in set.filter(tau) {
                        black_box(decode_event(run.key, &ev.value)?);
                    }
                    qt.tracer.exit(decode);
                    qt.tally.evset_events += set.len() as u64;
                }
                match residual {
                    Some(window) => self.shadow_scan(
                        run,
                        Some(window.start),
                        blocks.saturating_sub(ev_set_blocks),
                        qid,
                        qt,
                    ),
                    None => Ok(()),
                }
            }
            AccessPath::M2 => Ok(()),
        }
    }

    /// A `GetHistoryForKey` scan: the history-index scan, then one selective
    /// block read per run of same-block entries, for the first `blocks` runs
    /// (the cursor stops at the window's end, so it reads a prefix). A scan
    /// from the start of history is set up when the cursor opens; the bounded
    /// scan behind an M1 index starts while it drains.
    fn shadow_scan(
        &self,
        run: &KeyRun,
        after_ts: Option<u64>,
        blocks: u64,
        qid: u64,
        qt: &mut QueryTrace,
    ) -> Result<()> {
        let scan_parent = if after_ts.is_none() {
            run.open
        } else {
            run.drain
        };
        let scan = qt
            .tracer
            .enter_shadow("index.history_scan", scan_parent, qid);
        let profile = self.ledger.history_profile(&run.key.key())?;
        qt.tracer.exit(scan);
        qt.tally.index_entries += profile.len() as u64;
        for (block_num, tx_nums) in profile_runs(&profile, after_ts)
            .iter()
            .take(blocks as usize)
        {
            qt.read(run.drain, qid, *block_num, tx_nums)?;
        }
        Ok(())
    }
}

/// History entries grouped into runs of consecutive same-block entries, as
/// the ledger's coalesced history read does; entries stamped at or before
/// `after_ts` are skipped, as `get_history_for_key_from` skips them.
fn profile_runs(profile: &[HistoryEntryMeta], after_ts: Option<u64>) -> Vec<(u64, Vec<TxNum>)> {
    let mut runs: Vec<(u64, Vec<TxNum>)> = Vec::new();
    for entry in profile {
        if let (Some(bound), Some(ts)) = (after_ts, entry.timestamp) {
            if ts <= bound {
                continue;
            }
        }
        match runs.last_mut() {
            Some((num, txs)) if *num == entry.location.block_num => txs.push(entry.location.tx_num),
            _ => runs.push((entry.location.block_num, vec![entry.location.tx_num])),
        }
    }
    runs
}

/// The index store timed alone, per operation, on the ledger's own files.
#[derive(Debug, Clone, Copy, Default)]
pub struct KvProbe {
    pub get_ns: f64,
    pub seek_ns: f64,
    pub sst_reads_per_get: f64,
    pub scan_ns_per_entry: f64,
    pub block_location_ns: f64,
}

fn probe_index_store(dir: &Path, block_nums: &[u64]) -> Result<KvProbe> {
    const SAMPLE: usize = 2000;
    let engine = open_engine(dir, KvOptions::default(), Telemetry::disabled())?;
    // One full scan, keeping an evenly spaced sample of keys.
    let mut keys = Vec::new();
    let mut entries = 0u64;
    let t = Instant::now();
    let mut it = engine.range(Bound::Unbounded, Bound::Unbounded)?;
    while let Some((k, _)) = it.next()? {
        entries += 1;
        keys.push(k);
    }
    drop(it);
    let scan_ns = t.elapsed().as_nanos() as f64;
    if keys.is_empty() {
        return Ok(KvProbe::default());
    }
    let stride = (keys.len() / SAMPLE).max(1);
    let sample: Vec<_> = keys.iter().step_by(stride).cloned().collect();
    drop(keys);

    let m0 = engine.metrics();
    let t = Instant::now();
    for k in &sample {
        black_box(engine.get(k)?);
    }
    let get_ns = t.elapsed().as_nanos() as f64 / sample.len() as f64;
    let m = engine.metrics().diff(&m0);

    // A seek is what a history scan starts with: position an iterator at a
    // key and take the first entry.
    let t = Instant::now();
    for k in &sample {
        let mut it = engine.range(Bound::Included(&k[..]), Bound::Unbounded)?;
        black_box(it.next()?);
    }
    let seek_ns = t.elapsed().as_nanos() as f64 / sample.len() as f64;

    let index = LedgerIndex::new(engine);
    let stride = (block_nums.len() / SAMPLE).max(1);
    let nums: Vec<u64> = block_nums.iter().step_by(stride).copied().collect();
    let t = Instant::now();
    for &n in &nums {
        black_box(index.block_location(n)?);
    }
    let block_location_ns = if nums.is_empty() {
        0.0
    } else {
        t.elapsed().as_nanos() as f64 / nums.len() as f64
    };
    Ok(KvProbe {
        get_ns,
        seek_ns,
        sst_reads_per_get: m.sstable_point_reads as f64 / m.gets.max(1) as f64,
        scan_ns_per_entry: scan_ns / entries as f64,
        block_location_ns,
    })
}

/// Counters of the two stores a commit replay wrote to.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreCounts {
    pub wal_fsyncs: u64,
    pub flushes: u64,
    pub compactions: u64,
    pub compaction_bytes_written: u64,
    pub bytes_wal: u64,
    pub bytes_flushed: u64,
}

impl StoreCounts {
    fn of(stores: [MetricsSnapshot; 2]) -> StoreCounts {
        let sum = |f: fn(&MetricsSnapshot) -> u64| stores.iter().map(f).sum();
        StoreCounts {
            wal_fsyncs: sum(|m| m.wal_fsyncs),
            flushes: sum(|m| m.flushes),
            compactions: sum(|m| m.compactions),
            compaction_bytes_written: sum(|m| m.compaction_bytes_written),
            bytes_wal: sum(|m| m.bytes_wal),
            bytes_flushed: sum(|m| m.bytes_flushed),
        }
    }
}

/// The serial commit path put together from its parts, on stores the
/// benchmark opens itself: `TxSimulator`, `BlockCutter`, `validate_serial`,
/// `Block::new`, `append_block`, `index_block`, `StateDb::apply`, each under
/// a span. It commits the same blocks `Ledger::submit` does for the same
/// transactions, which the caller asserts.
pub struct CommitReplay {
    /// Idle ledger for `TxSimulator` to simulate against; the transactions
    /// only write, so it is never read.
    host: Ledger,
    engines: [SharedEngine; 2],
    state: StateDb,
    index: LedgerIndex,
    blockfiles: BlockFileManager,
    cutter: BlockCutter,
    tip: ChainTip,
    pub blocks: u64,
    pub txs: u64,
}

impl CommitReplay {
    pub fn open(dir: &Path, durable: bool) -> Result<CommitReplay> {
        let cfg = ledger_config(durable);
        let state_engine = open_engine(
            dir.join("state"),
            cfg.state_db.clone(),
            Telemetry::disabled(),
        )?;
        let index_engine = open_engine(
            dir.join("index"),
            cfg.index_db.clone(),
            Telemetry::disabled(),
        )?;
        Ok(CommitReplay {
            host: Ledger::open(dir.join("host"), LedgerConfig::default())?,
            state: StateDb::new(Arc::clone(&state_engine)),
            index: LedgerIndex::new(Arc::clone(&index_engine)),
            engines: [state_engine, index_engine],
            blockfiles: BlockFileManager::open(
                dir.join("blocks"),
                cfg.blockfile_max_bytes,
                IoStats::new_shared(),
            )?,
            cutter: BlockCutter::new(cfg.block_max_txs, cfg.block_max_bytes),
            tip: ChainTip {
                height: 0,
                last_hash: Digest::ZERO,
            },
            blocks: 0,
            txs: 0,
        })
    }

    pub fn store_counts(&self) -> StoreCounts {
        StoreCounts::of([self.engines[0].metrics(), self.engines[1].metrics()])
    }

    pub fn submit(&mut self, events: &[Event], tracer: &mut Tracer) -> Result<()> {
        let id = self.tip.height;
        let build = tracer.enter("shim.tx_build", id);
        let tx = build_tx(&self.host, events)?;
        tracer.exit(build);
        let enqueue = tracer.enter("orderer.enqueue", id);
        let batches = self.cutter.enqueue(tx.tx);
        tracer.exit(enqueue);
        self.txs += 1;
        for batch in batches {
            self.commit(batch, tracer)?;
        }
        Ok(())
    }

    pub fn finish(&mut self, tracer: &mut Tracer) -> Result<()> {
        match self.cutter.cut() {
            Some(batch) => self.commit(batch, tracer),
            None => Ok(()),
        }
    }

    fn commit(&mut self, txs: Vec<Transaction>, tracer: &mut Tracer) -> Result<()> {
        let num = self.tip.height;
        let root = tracer.enter("commit.block", num);

        let validate = tracer.enter("validate.serial", num);
        let codes = validate_serial(&txs, num, |key| self.state.version(key))?.codes;
        tracer.exit(validate);

        let assemble = tracer.enter("block.new_hash", num);
        let block = Block::new(num, self.tip.last_hash, txs, codes)?;
        let tip = ChainTip {
            height: num + 1,
            last_hash: block.hash(),
        };
        tracer.exit(assemble);

        let append = tracer.enter("blockfile.append_block", num);
        let location = self.blockfiles.append_block(&block)?;
        tracer.exit(append);
        // `append_block` serialises the block before framing and writing it.
        let encode = tracer.enter_shadow("block.encode", append, num);
        black_box(block.encode());
        tracer.exit(encode);

        let effects = tracer.enter("ledger.collect_effects", num);
        let (history, writes, tx_ids) = collect_effects(&block);
        tracer.exit(effects);

        let index = tracer.enter("index.index_block", num);
        self.index
            .index_block(num, location, &history, &tx_ids, tip)?;
        tracer.exit(index);

        let apply = tracer.enter("statedb.apply", num);
        self.state.apply(&writes)?;
        tracer.exit(apply);

        self.tip = tip;
        self.blocks += 1;
        tracer.exit(root);
        Ok(())
    }
}

type BlockEffects = (
    Vec<(Bytes, TxNum, u64)>,
    Vec<StateUpdate>,
    Vec<(TxId, TxNum)>,
);

/// What a committed block adds to the history index, the state database and
/// the transaction-id index. The ledger keeps its own copy of this private;
/// the replay needs the same inputs for `index_block` and `apply`.
fn collect_effects(block: &Block) -> BlockEffects {
    let tx_ids = block
        .txs
        .iter()
        .enumerate()
        .map(|(i, tx)| (tx.id, i as TxNum))
        .collect();
    let mut history = Vec::new();
    let mut latest = HashMap::new();
    for (i, tx) in block.txs.iter().enumerate() {
        if block.validation[i] != ValidationCode::Valid {
            continue;
        }
        let tx_num = i as TxNum;
        for w in &tx.writes {
            history.push((w.key.clone(), tx_num, tx.timestamp));
            let version = Version {
                block_num: block.header.number,
                tx_num,
            };
            latest.insert(w.key.clone(), (w.value.clone(), version));
        }
    }
    let writes = latest
        .into_iter()
        .map(|(k, (v, ver))| (k, v, ver))
        .collect();
    (history, writes, tx_ids)
}
