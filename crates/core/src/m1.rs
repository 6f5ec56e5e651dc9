//! Model M1 — periodic index construction (paper §VI).
//!
//! The indexing process runs periodically. For the epoch `(t1, t2]` since
//! its last run it partitions time into index intervals `θ` (fixed length
//! `u` in the paper; pluggable via [`PartitionStrategy`]) and, for each key
//! `k` and non-empty interval `θ`:
//!
//! 1. executes a transaction ingesting `⟨(k,θ), EV(k,θ)⟩` — all of `k`'s
//!    events inside `θ` packed into one value, and
//! 2. executes a **second** transaction deleting `(k,θ)` — the fat value
//!    then lives only in history-db and the state-db stays minimal.
//!
//! A query for `(k, τ)` issues one `GetHistoryForKey((k,θ))` per index
//! interval overlapping `τ` and reads **only the first historical state**
//! (the event set). Thanks to the lazy history iterator this deserializes
//! exactly one block per index interval, regardless of how scattered the
//! original events were.
//!
//! The indexing process itself must read `k`'s events through a plain
//! `GetHistoryForKey(k)` scan from the beginning of history — there is no
//! index *for the indexer* — which is why each successive invocation costs
//! more than the last (paper Table III).

use bytes::Bytes;

use fabric_ledger::codec::{put_u64, put_uvarint, Cursor};
use fabric_ledger::{Error, Ledger, Result, TxSimulator};
use fabric_workload::{EntityId, Event};

use crate::cursor::{EventCursor, M1Cursor};
use crate::engine::{decode_event, TemporalEngine};
use crate::evset::{EvSet, TemporalEvent};
use crate::interval::Interval;
use crate::partition::{FixedLength, PartitionStrategy};
use crate::stats::{measure, QueryStats};

/// State-db key holding the global M1 indexing metadata.
pub const M1_META_KEY: &[u8] = b"__m1meta";

/// State-db key prefix for per-key interval catalogs (used by non-uniform
/// partition strategies, where Θ(k) cannot be computed arithmetically).
pub const M1_CATALOG_PREFIX: &[u8] = b"__m1cat#";

/// On-chain record of what the indexing process has built so far.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct M1Meta {
    /// Fixed interval length, or 0 when a per-key catalog strategy was
    /// used (queries must then consult the catalogs).
    pub u: u64,
    /// Indexing epochs completed, in order.
    pub epochs: Vec<Interval>,
}

impl M1Meta {
    /// Upper end of the indexed range (0 when nothing is indexed).
    pub fn indexed_to(&self) -> u64 {
        self.epochs.last().map_or(0, |e| e.end)
    }

    /// Serialise.
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::with_capacity(16 + self.epochs.len() * 16);
        put_u64(&mut out, self.u);
        put_uvarint(&mut out, self.epochs.len() as u64);
        for e in &self.epochs {
            put_u64(&mut out, e.start);
            put_u64(&mut out, e.end);
        }
        Bytes::from(out)
    }

    /// Inverse of [`M1Meta::encode`].
    pub fn decode(data: &[u8]) -> Result<Self> {
        let mut c = Cursor::new(data, "m1 meta");
        let u = c.get_u64()?;
        let count = c.get_uvarint()?;
        let mut epochs = Vec::with_capacity(count.min(1 << 16) as usize);
        for _ in 0..count {
            let start = c.get_u64()?;
            let end = c.get_u64()?;
            if end <= start {
                return Err(Error::InvalidArgument("empty epoch in m1 meta".into()));
            }
            epochs.push(Interval { start, end });
        }
        c.expect_end()?;
        Ok(M1Meta { u, epochs })
    }
}

/// Read the on-chain indexing metadata (`None` before the first epoch).
pub fn read_meta(ledger: &Ledger) -> Result<Option<M1Meta>> {
    match ledger.get_state(M1_META_KEY)? {
        Some(vv) => Ok(Some(M1Meta::decode(&vv.value)?)),
        None => Ok(None),
    }
}

/// Encode an interval catalog (ascending intervals).
fn encode_catalog(intervals: &[Interval]) -> Bytes {
    let mut out = Vec::with_capacity(8 + intervals.len() * 16);
    put_uvarint(&mut out, intervals.len() as u64);
    for i in intervals {
        put_u64(&mut out, i.start);
        put_u64(&mut out, i.end);
    }
    Bytes::from(out)
}

fn decode_catalog(data: &[u8]) -> Result<Vec<Interval>> {
    let mut c = Cursor::new(data, "m1 catalog");
    let count = c.get_uvarint()?;
    let mut out = Vec::with_capacity(count.min(1 << 20) as usize);
    for _ in 0..count {
        let start = c.get_u64()?;
        let end = c.get_u64()?;
        out.push(Interval::new(start, end));
    }
    c.expect_end()?;
    Ok(out)
}

fn catalog_key(key: EntityId) -> Bytes {
    let mut out = Vec::with_capacity(M1_CATALOG_PREFIX.len() + 6);
    out.extend_from_slice(M1_CATALOG_PREFIX);
    out.extend_from_slice(&key.key());
    Bytes::from(out)
}

/// Outcome of one indexing-process invocation.
#[derive(Debug, Clone)]
pub struct M1BuildReport {
    /// The epoch that was indexed.
    pub epoch: Interval,
    /// Keys processed.
    pub keys: usize,
    /// Index pairs ingested (non-empty `(k, θ)` sets).
    pub indexes: usize,
    /// Transactions submitted (2 per index + metadata).
    pub txs: u64,
    /// Measured cost of the invocation.
    pub stats: QueryStats,
}

/// The periodic indexing process.
///
/// `strategy` decides the intervals; when it is not the paper's
/// [`FixedLength`] rule, per-key interval catalogs are maintained on-chain
/// so queries can discover Θ(k).
pub struct M1Indexer<'s> {
    strategy: &'s (dyn PartitionStrategy + Sync),
    /// Fixed `u` when the strategy is the paper's; `None` → catalogs.
    fixed_u: Option<u64>,
}

impl<'s> M1Indexer<'s> {
    /// The paper's indexer: fixed-length intervals of size `u`.
    pub fn fixed(strategy: &'s FixedLength) -> Self {
        M1Indexer {
            strategy,
            fixed_u: Some(strategy.u),
        }
    }

    /// An indexer over an arbitrary partition strategy (maintains per-key
    /// catalogs).
    pub fn with_strategy(strategy: &'s (dyn PartitionStrategy + Sync)) -> Self {
        M1Indexer {
            strategy,
            fixed_u: None,
        }
    }

    /// Run one indexing invocation covering `epoch` for every key in
    /// `keys`. `epoch.start` must equal the previous epoch's end (0 for the
    /// first run).
    pub fn run_epoch(
        &self,
        ledger: &Ledger,
        keys: &[EntityId],
        epoch: Interval,
    ) -> Result<M1BuildReport> {
        let meta = validated_meta(ledger, epoch, self.fixed_u)?;
        let mut build_span = ledger
            .telemetry()
            .span("m1.build")
            .with_label(epoch.to_string());
        let mut indexes = 0usize;
        let mut txs = 0u64;
        let ((), stats) = measure(ledger, || -> Result<()> {
            // Phase 1 — read each key's epoch events (a GHFK scan of base
            // data) and build its `(θ, encoded EV set)` pairs.
            let items = keys
                .iter()
                .map(|&key| {
                    let events = self.collect_epoch_events(ledger, key, epoch)?;
                    Ok((key, pairs_from_events(self.strategy, epoch, &events)))
                })
                .collect::<Result<Vec<(EntityId, Vec<(Interval, Bytes)>)>>>()?;
            // Phase 2 — submit the index transactions in key order. They
            // write only composite `(k,θ)` keys and metadata, never the
            // base keys read above.
            let (i, t) = submit_epoch(ledger, &items, epoch, self.fixed_u, &[], &meta)?;
            indexes = i;
            txs = t;
            Ok(())
        })?;
        build_span.record("indexes", indexes as u64);
        build_span.record("txs", txs);
        Ok(M1BuildReport {
            epoch,
            keys: keys.len(),
            indexes,
            txs,
            stats,
        })
    }

    /// Read `key`'s events inside `epoch` via a plain GHFK scan (this is
    /// the indexing process's unavoidable full-history read).
    fn collect_epoch_events(
        &self,
        ledger: &Ledger,
        key: EntityId,
        epoch: Interval,
    ) -> Result<Vec<TemporalEvent>> {
        let mut iter = ledger.get_history_for_key(&key.key())?;
        let mut out = Vec::new();
        while let Some(state) = iter.next()? {
            let Some(value) = state.value else { continue };
            let event = decode_event(key, &value)?;
            if event.time > epoch.end {
                break; // lazy iterator: later blocks stay untouched
            }
            if epoch.contains(event.time) {
                out.push(TemporalEvent {
                    time: event.time,
                    value,
                });
            }
        }
        Ok(out)
    }
}

/// Read the current metadata and check that `epoch` legally extends it
/// under the given interval-length regime.
fn validated_meta(ledger: &Ledger, epoch: Interval, fixed_u: Option<u64>) -> Result<M1Meta> {
    let meta = read_meta(ledger)?.unwrap_or(M1Meta {
        u: fixed_u.unwrap_or(0),
        epochs: Vec::new(),
    });
    if meta.indexed_to() != epoch.start {
        return Err(Error::InvalidArgument(format!(
            "epoch {epoch} does not extend indexed range (indexed to {})",
            meta.indexed_to()
        )));
    }
    if let Some(u) = fixed_u {
        if meta.u != u && !meta.epochs.is_empty() {
            return Err(Error::InvalidArgument(format!(
                "interval length changed across epochs ({} -> {u})",
                meta.u
            )));
        }
    } else if meta.u != 0 && !meta.epochs.is_empty() {
        return Err(Error::InvalidArgument(format!(
            "catalog epochs cannot extend a fixed-u index (u = {})",
            meta.u
        )));
    }
    Ok(meta)
}

/// Build the non-empty `(θ, encoded EV-set)` pairs for one key from its
/// epoch events (ascending by time), partitioning `epoch` with `strategy`.
/// Shared between the batch build (events from a GHFK scan) and the
/// incremental daemon (events collected off commit notifications), so both
/// produce byte-identical EV sets for the same epoch.
pub fn pairs_from_events(
    strategy: &dyn PartitionStrategy,
    epoch: Interval,
    events: &[TemporalEvent],
) -> Vec<(Interval, Bytes)> {
    let times: Vec<u64> = events.iter().map(|e| e.time).collect();
    let mut out = Vec::new();
    for theta in strategy.partition(epoch, &times) {
        let set: Vec<TemporalEvent> = events
            .iter()
            .filter(|e| theta.contains(e.time))
            .cloned()
            .collect();
        // "These two pairs are ingested only if the set EV(k,θ)
        // is not empty."
        if set.is_empty() {
            continue;
        }
        out.push((theta, EvSet::new(set).encode()));
    }
    out
}

/// Append one already-prepared epoch to the index — the incremental path
/// used by [`crate::daemon::IndexerDaemon`].
///
/// `items` holds, per touched key, the `(θ, encoded EV-set)` pairs built
/// from events the caller collected as blocks committed — no GHFK re-scan
/// happens here, which removes the batch indexer's growing rebuild cost
/// (paper Table III). `extra_state` puts are committed in the same epoch
/// batch (the daemon persists its progress watermark there, atomically
/// with the epoch metadata). Transaction shapes and ordering match
/// [`M1Indexer::run_epoch`] exactly.
pub fn run_epoch_prepared(
    ledger: &Ledger,
    items: &[(EntityId, Vec<(Interval, Bytes)>)],
    epoch: Interval,
    fixed_u: Option<u64>,
    extra_state: &[(Bytes, Bytes)],
) -> Result<M1BuildReport> {
    let meta = validated_meta(ledger, epoch, fixed_u)?;
    let mut span = ledger
        .telemetry()
        .span("m1.append")
        .with_label(epoch.to_string());
    let mut indexes = 0usize;
    let mut txs = 0u64;
    let ((), stats) = measure(ledger, || -> Result<()> {
        let (i, t) = submit_epoch(ledger, items, epoch, fixed_u, extra_state, &meta)?;
        indexes = i;
        txs = t;
        Ok(())
    })?;
    span.record("indexes", indexes as u64);
    span.record("txs", txs);
    Ok(M1BuildReport {
        epoch,
        keys: items.len(),
        indexes,
        txs,
        stats,
    })
}

/// Phase 2 of an epoch: submit the index transactions serially in `items`
/// order — per pair a put of the composite key followed by its delete —
/// then per-key catalog appends (catalog regime), the epoch metadata, any
/// extra state puts, and a block cut.
fn submit_epoch(
    ledger: &Ledger,
    items: &[(EntityId, Vec<(Interval, Bytes)>)],
    epoch: Interval,
    fixed_u: Option<u64>,
    extra_state: &[(Bytes, Bytes)],
    meta: &M1Meta,
) -> Result<(usize, u64)> {
    let mut indexes = 0usize;
    let mut txs = 0u64;
    for (key, pairs) in items {
        let mut created: Vec<Interval> = Vec::new();
        for (theta, encoded_set) in pairs {
            let composite = theta.composite_key(&key.key());
            let mut sim = TxSimulator::new(ledger);
            sim.put_state(composite.clone(), encoded_set.clone());
            ledger.submit(sim.into_transaction(epoch.end)?)?;
            let mut sim = TxSimulator::new(ledger);
            sim.del_state(composite);
            ledger.submit(sim.into_transaction(epoch.end)?)?;
            txs += 2;
            indexes += 1;
            created.push(*theta);
        }
        if fixed_u.is_none() && !created.is_empty() {
            txs += append_catalog(ledger, *key, &created)?;
        }
    }
    // Commit the new epoch to the on-chain metadata.
    let mut new_meta = meta.clone();
    new_meta.u = fixed_u.unwrap_or(0);
    new_meta.epochs.push(epoch);
    let mut sim = TxSimulator::new(ledger);
    sim.put_state(Bytes::from_static(M1_META_KEY), new_meta.encode());
    ledger.submit(sim.into_transaction(epoch.end)?)?;
    txs += 1;
    for (k, v) in extra_state {
        let mut sim = TxSimulator::new(ledger);
        sim.put_state(k.clone(), v.clone());
        ledger.submit(sim.into_transaction(epoch.end)?)?;
        txs += 1;
    }
    ledger.cut_block()?;
    Ok((indexes, txs))
}

fn append_catalog(ledger: &Ledger, key: EntityId, created: &[Interval]) -> Result<u64> {
    let ckey = catalog_key(key);
    let mut intervals = match ledger.get_state(&ckey)? {
        Some(vv) => decode_catalog(&vv.value)?,
        None => Vec::new(),
    };
    // Idempotent under epoch replay (crash between a partially auto-cut
    // block and the metadata commit): only intervals starting at or past
    // the recorded tail are appended, so a re-run of the same epoch never
    // duplicates catalog entries.
    let tail = intervals.last().map_or(0, |i| i.end);
    intervals.extend(created.iter().copied().filter(|i| i.start >= tail));
    let mut sim = TxSimulator::new(ledger);
    sim.put_state(ckey, encode_catalog(&intervals));
    ledger.submit(sim.into_transaction(0)?)?;
    Ok(1)
}

/// A periodic-maintenance policy: keep M1 indexes within `period` ticks of
/// the ledger's logical clock.
///
/// The paper runs its indexing process "periodically" (every 25K
/// timestamps in Table III). This helper makes that operational: feed it
/// the ledger's current logical time — typically the `max_timestamp` of
/// [`fabric_ledger::ledger::CommitEvent`]s from
/// [`fabric_ledger::Ledger::subscribe`] — and it runs exactly the epochs
/// that have become due. Idempotent and crash-safe: progress is read from
/// the on-chain metadata every call.
#[derive(Debug, Clone, Copy)]
pub struct M1Maintenance {
    /// Epoch length (the paper's 25K).
    pub period: u64,
    /// Index-interval length (the paper's `u`).
    pub u: u64,
}

impl M1Maintenance {
    /// Run every epoch that is fully covered by `now`. Returns one report
    /// per epoch executed (possibly none).
    pub fn run_due_epochs(
        &self,
        ledger: &Ledger,
        keys: &[EntityId],
        now: u64,
    ) -> Result<Vec<M1BuildReport>> {
        assert!(self.period > 0 && self.u > 0);
        let strategy = FixedLength { u: self.u };
        let indexer = M1Indexer::fixed(&strategy);
        let mut reports = Vec::new();
        loop {
            let indexed_to = read_meta(ledger)?.map_or(0, |m| m.indexed_to());
            let next_end = indexed_to + self.period;
            if next_end > now {
                break;
            }
            reports.push(indexer.run_epoch(ledger, keys, Interval::new(indexed_to, next_end))?);
        }
        Ok(reports)
    }
}

/// The Model-M1 query engine (paper §VI-2).
#[derive(Debug, Clone, Copy)]
pub struct M1Engine {
    /// When `true` (default), query ranges beyond the indexed horizon fall
    /// back to a TQF scan of the base data so results stay complete; the
    /// paper's experiments always query inside the indexed range.
    pub scan_unindexed_tail: bool,
}

impl Default for M1Engine {
    fn default() -> Self {
        M1Engine {
            scan_unindexed_tail: true,
        }
    }
}

/// Read the first historical state of `(key, theta)` — one block — and
/// filter its events to `tau`.
pub(crate) fn read_index(
    ledger: &Ledger,
    key: EntityId,
    theta: Interval,
    tau: Interval,
    out: &mut Vec<Event>,
) -> Result<()> {
    let _span = ledger
        .telemetry()
        .span("m1.theta")
        .with_label(theta.to_string());
    let composite = theta.composite_key(&key.key());
    let mut iter = ledger.get_history_for_key(&composite)?;
    // First state only: the event set. The subsequent delete marker's
    // block is never deserialized (lazy iterator).
    let Some(state) = iter.next()? else {
        return Ok(()); // empty interval: no index pair was ingested
    };
    let Some(value) = state.value else {
        return Err(Error::InvalidArgument(format!(
            "index {} has a delete as first state",
            String::from_utf8_lossy(&composite)
        )));
    };
    let set = EvSet::decode(&value)?;
    for ev in set.filter(tau) {
        out.push(decode_event(key, &ev.value)?);
    }
    Ok(())
}

/// Θ(k) ∩ τ: the index intervals a query for `(key, tau)` must consult,
/// ascending. For fixed-`u` metadata the intervals are computed
/// arithmetically; catalog strategies read the on-chain per-key catalog
/// (one `GetState`).
pub(crate) fn overlapping_thetas(
    ledger: &Ledger,
    key: EntityId,
    tau: Interval,
    meta: &M1Meta,
) -> Result<Vec<Interval>> {
    let mut thetas = Vec::new();
    if meta.u > 0 {
        for epoch in &meta.epochs {
            let fixed = FixedLength { u: meta.u };
            for theta in fixed.partition(*epoch, &[]) {
                if theta.overlaps(&tau) {
                    thetas.push(theta);
                }
            }
        }
    } else {
        // Catalog-based strategies: Θ(k) comes from the on-chain
        // per-key catalog.
        let ckey = catalog_key(key);
        if let Some(vv) = ledger.get_state(&ckey)? {
            for theta in decode_catalog(&vv.value)? {
                if theta.overlaps(&tau) {
                    thetas.push(theta);
                }
            }
        }
    }
    Ok(thetas)
}

/// The residual window past the indexed horizon that `tau` still needs
/// from base data (`None` when the index fully covers the query).
pub(crate) fn residual_window(tau: Interval, indexed_to: u64) -> Option<Interval> {
    (tau.end > indexed_to).then(|| Interval::new(tau.start.max(indexed_to), tau.end))
}

impl TemporalEngine for M1Engine {
    fn name(&self) -> String {
        "M1".to_string()
    }

    fn events_cursor<'l>(
        &self,
        ledger: &'l Ledger,
        key: EntityId,
        tau: Interval,
    ) -> Result<Box<dyn EventCursor + 'l>> {
        let span = ledger
            .telemetry()
            .span("m1.key")
            .with_label(key.to_string());
        let meta = read_meta(ledger)?
            .ok_or_else(|| Error::InvalidArgument("M1 indexes have not been built".to_string()))?;
        let thetas = overlapping_thetas(ledger, key, tau, &meta)?;
        let residual = if self.scan_unindexed_tail {
            residual_window(tau, meta.indexed_to())
        } else {
            None
        };
        Ok(Box::new(M1Cursor::new(
            ledger, key, tau, thetas, residual, span,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tqf::TqfEngine;
    use fabric_ledger::LedgerConfig;
    use fabric_workload::ingest::{ingest, IdentityEncoder, IngestMode};
    use fabric_workload::EventKind;

    struct TempDir(std::path::PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let p = std::env::temp_dir().join(format!(
                "m1-test-{}-{tag}-{:?}",
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

    /// 40 events for shipment 0, times 10,20,…,400.
    fn setup(dir: &TempDir) -> (Ledger, Vec<Event>) {
        let ledger = Ledger::open(&dir.0, LedgerConfig::small_for_tests()).unwrap();
        let events: Vec<Event> = (1..=40).map(|i| event(0, i * 10)).collect();
        ingest(&ledger, &events, IngestMode::SingleEvent, &IdentityEncoder).unwrap();
        (ledger, events)
    }

    #[test]
    fn meta_roundtrip() {
        let meta = M1Meta {
            u: 2000,
            epochs: vec![Interval::new(0, 25_000), Interval::new(25_000, 50_000)],
        };
        assert_eq!(M1Meta::decode(&meta.encode()).unwrap(), meta);
        assert_eq!(meta.indexed_to(), 50_000);
        assert_eq!(M1Meta::default().indexed_to(), 0);
    }

    #[test]
    fn build_then_query_matches_tqf() {
        let dir = TempDir::new("match");
        let (ledger, _) = setup(&dir);
        let strategy = FixedLength { u: 100 };
        let report = M1Indexer::fixed(&strategy)
            .run_epoch(&ledger, &[EntityId::shipment(0)], Interval::new(0, 400))
            .unwrap();
        assert_eq!(report.indexes, 4); // 4 non-empty 100-tick intervals
        assert_eq!(report.txs, 9); // 2 per index + meta

        for tau in [
            Interval::new(0, 400),
            Interval::new(50, 150),
            Interval::new(100, 200),
            Interval::new(395, 400),
        ] {
            let m1 = M1Engine::default()
                .events_for_key(&ledger, EntityId::shipment(0), tau)
                .unwrap();
            let tqf = TqfEngine
                .events_for_key(&ledger, EntityId::shipment(0), tau)
                .unwrap();
            assert_eq!(m1, tqf, "mismatch for tau={tau}");
        }
    }

    #[test]
    fn query_deserializes_one_block_per_interval() {
        let dir = TempDir::new("oneblock");
        let (ledger, _) = setup(&dir);
        let strategy = FixedLength { u: 100 };
        M1Indexer::fixed(&strategy)
            .run_epoch(&ledger, &[EntityId::shipment(0)], Interval::new(0, 400))
            .unwrap();
        let before = ledger.stats();
        let got = M1Engine::default()
            .events_for_key(&ledger, EntityId::shipment(0), Interval::new(0, 200))
            .unwrap();
        assert_eq!(got.len(), 20);
        let d = ledger.stats().delta(&before);
        assert_eq!(d.ghfk_calls, 2, "one GHFK per overlapping interval");
        assert_eq!(
            d.blocks_deserialized, 2,
            "one block per index interval, delete markers untouched"
        );
    }

    #[test]
    fn index_pairs_removed_from_state_db() {
        let dir = TempDir::new("tombstoned");
        let (ledger, _) = setup(&dir);
        let strategy = FixedLength { u: 100 };
        M1Indexer::fixed(&strategy)
            .run_epoch(&ledger, &[EntityId::shipment(0)], Interval::new(0, 400))
            .unwrap();
        // No composite key may remain in the state database.
        let composites = ledger
            .get_state_by_range(
                Some(&Interval::key_prefix(&EntityId::shipment(0).key())),
                None,
            )
            .unwrap()
            .into_iter()
            .filter(|(k, _)| Interval::split_composite_key(k).is_some())
            .count();
        assert_eq!(composites, 0);
        // But the index is readable from history-db.
        let got = M1Engine::default()
            .events_for_key(&ledger, EntityId::shipment(0), Interval::new(0, 100))
            .unwrap();
        assert_eq!(got.len(), 10);
    }

    #[test]
    fn multiple_epochs_accumulate() {
        let dir = TempDir::new("epochs");
        let (ledger, _) = setup(&dir);
        let strategy = FixedLength { u: 100 };
        let indexer = M1Indexer::fixed(&strategy);
        indexer
            .run_epoch(&ledger, &[EntityId::shipment(0)], Interval::new(0, 200))
            .unwrap();
        indexer
            .run_epoch(&ledger, &[EntityId::shipment(0)], Interval::new(200, 400))
            .unwrap();
        let meta = read_meta(&ledger).unwrap().unwrap();
        assert_eq!(meta.epochs.len(), 2);
        assert_eq!(meta.indexed_to(), 400);
        let got = M1Engine::default()
            .events_for_key(&ledger, EntityId::shipment(0), Interval::new(150, 250))
            .unwrap();
        let times: Vec<u64> = got.iter().map(|e| e.time).collect();
        assert_eq!(
            times,
            vec![160, 170, 180, 190, 200, 210, 220, 230, 240, 250]
        );
    }

    #[test]
    fn non_contiguous_epoch_rejected() {
        let dir = TempDir::new("gap");
        let (ledger, _) = setup(&dir);
        let strategy = FixedLength { u: 100 };
        let indexer = M1Indexer::fixed(&strategy);
        indexer
            .run_epoch(&ledger, &[EntityId::shipment(0)], Interval::new(0, 200))
            .unwrap();
        assert!(indexer
            .run_epoch(&ledger, &[EntityId::shipment(0)], Interval::new(300, 400))
            .is_err());
    }

    #[test]
    fn successive_epochs_cost_more_to_build() {
        let dir = TempDir::new("cost");
        let (ledger, _) = setup(&dir);
        let strategy = FixedLength { u: 50 };
        let indexer = M1Indexer::fixed(&strategy);
        let r1 = indexer
            .run_epoch(&ledger, &[EntityId::shipment(0)], Interval::new(0, 100))
            .unwrap();
        let r2 = indexer
            .run_epoch(&ledger, &[EntityId::shipment(0)], Interval::new(100, 300))
            .unwrap();
        let r3 = indexer
            .run_epoch(&ledger, &[EntityId::shipment(0)], Interval::new(300, 400))
            .unwrap();
        // Each invocation re-scans all data ingested so far (paper
        // Table III): deserializations must be non-decreasing per epoch
        // even though epoch 3 is shorter than epoch 2.
        assert!(r2.stats.blocks_deserialized() > r1.stats.blocks_deserialized());
        assert!(r3.stats.blocks_deserialized() >= r2.stats.blocks_deserialized());
    }

    #[test]
    fn unindexed_tail_falls_back_to_base_scan() {
        let dir = TempDir::new("tail");
        let (ledger, _) = setup(&dir);
        let strategy = FixedLength { u: 100 };
        M1Indexer::fixed(&strategy)
            .run_epoch(&ledger, &[EntityId::shipment(0)], Interval::new(0, 200))
            .unwrap();
        // Query past the indexed horizon (events at 210..400 not indexed).
        let got = M1Engine::default()
            .events_for_key(&ledger, EntityId::shipment(0), Interval::new(150, 300))
            .unwrap();
        let times: Vec<u64> = got.iter().map(|e| e.time).collect();
        assert_eq!(times, (16..=30).map(|i| i * 10).collect::<Vec<_>>());
        // With the fallback disabled, only the indexed part is returned.
        let engine = M1Engine {
            scan_unindexed_tail: false,
        };
        let got = engine
            .events_for_key(&ledger, EntityId::shipment(0), Interval::new(150, 300))
            .unwrap();
        assert_eq!(got.last().unwrap().time, 200);
    }

    #[test]
    fn catalog_strategy_roundtrip() {
        use crate::partition::EventCountBalanced;
        let dir = TempDir::new("catalog");
        let (ledger, _) = setup(&dir);
        let strategy = EventCountBalanced { target_events: 7 };
        let indexer = M1Indexer::with_strategy(&strategy);
        indexer
            .run_epoch(&ledger, &[EntityId::shipment(0)], Interval::new(0, 400))
            .unwrap();
        let tau = Interval::new(90, 310);
        let m1 = M1Engine::default()
            .events_for_key(&ledger, EntityId::shipment(0), tau)
            .unwrap();
        let tqf = TqfEngine
            .events_for_key(&ledger, EntityId::shipment(0), tau)
            .unwrap();
        assert_eq!(m1, tqf);
    }

    #[test]
    fn maintenance_runs_exactly_due_epochs() {
        let dir = TempDir::new("maintenance");
        let (ledger, _) = setup(&dir); // events at 10..=400
        let policy = M1Maintenance { period: 100, u: 50 };
        // Clock at 250: epochs (0,100] and (100,200] are due.
        let reports = policy
            .run_due_epochs(&ledger, &[EntityId::shipment(0)], 250)
            .unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(read_meta(&ledger).unwrap().unwrap().indexed_to(), 200);
        // Same clock again: nothing new is due (idempotent).
        let reports = policy
            .run_due_epochs(&ledger, &[EntityId::shipment(0)], 250)
            .unwrap();
        assert!(reports.is_empty());
        // Clock at 400: two more epochs.
        let reports = policy
            .run_due_epochs(&ledger, &[EntityId::shipment(0)], 400)
            .unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(read_meta(&ledger).unwrap().unwrap().indexed_to(), 400);
    }

    #[test]
    fn maintenance_driven_by_commit_events() {
        let dir = TempDir::new("daemon");
        let ledger = Ledger::open(&dir.0, fabric_ledger::LedgerConfig::small_for_tests()).unwrap();
        let events: Vec<Event> = (1..=40).map(|i| event(0, i * 10)).collect();
        let rx = ledger.subscribe();
        fabric_workload::ingest::ingest(
            &ledger,
            &events,
            fabric_workload::IngestMode::SingleEvent,
            &fabric_workload::IdentityEncoder,
        )
        .unwrap();
        // Drain commit events; drive maintenance off the logical clock.
        let policy = M1Maintenance { period: 100, u: 50 };
        let mut clock = 0;
        let mut total_epochs = 0;
        while let Ok(ev) = rx.try_recv() {
            clock = clock.max(ev.max_timestamp);
            total_epochs += policy
                .run_due_epochs(&ledger, &[EntityId::shipment(0)], clock)
                .unwrap()
                .len();
        }
        assert_eq!(clock, 400);
        assert_eq!(total_epochs, 4);
        // Queries over the maintained index agree with TQF.
        let tau = Interval::new(120, 380);
        let m1 = M1Engine::default()
            .events_for_key(&ledger, EntityId::shipment(0), tau)
            .unwrap();
        let tqf = TqfEngine
            .events_for_key(&ledger, EntityId::shipment(0), tau)
            .unwrap();
        assert_eq!(m1, tqf);
    }

    #[test]
    fn query_without_indexes_errors() {
        let dir = TempDir::new("noindex");
        let (ledger, _) = setup(&dir);
        assert!(M1Engine::default()
            .events_for_key(&ledger, EntityId::shipment(0), Interval::new(0, 100))
            .is_err());
    }
}
