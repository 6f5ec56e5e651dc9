//! Key-range-sharded commit path: N partitions, each a full [`Ledger`].
//!
//! A [`ShardedLedger`] splits the key space into N disjoint partitions
//! and gives each its own blockfiles, history index and state db. The
//! router sends each transaction to the partition owning its write keys,
//! so partitions commit **concurrently** — N durable fsync streams
//! instead of one — while every per-shard artifact (blocks, hash chain,
//! indexes) stays exactly what a single-shard ledger over that key subset
//! would produce.
//!
//! ## Routing
//!
//! The workloads in this workspace use fixed-width structured keys:
//! one kind byte followed by five ASCII digits (`S00042`, `C00007`), with
//! composite event keys prefixed by such an entity key. For those, the
//! router stripes the *ordinal* space `00000..=99999` round-robin
//! (`ordinal mod n`) — aligned across kinds, so `S00042` and `C00042`
//! land on the same shard index deterministically, and any contiguous
//! block of entity ordinals (the shape every generator here produces)
//! spreads evenly over the partitions. Any other key falls back to a
//! first-byte stripe. Both rules are pure functions of the key bytes and
//! the shard count, so the count is fixed when the ledger is created.
//!
//! ## Layout
//!
//! [`ShardedLedger::create`] records the count in a `SHARDS` meta file
//! beside the `shard-NN` partition directories. [`ShardedLedger::open`]
//! reads the layout back from the directory: with a `SHARDS` file, that
//! many partitions; without one, a single partition rooted at the
//! directory itself, which is exactly what [`Ledger::open`] writes. A plain
//! ledger is therefore this type's one-shard case and nothing moves on
//! disk to make it so.
//!
//! ## Deterministic global block numbering
//!
//! Shard `i`'s local block `b` is globally block `b * n + i` — injective
//! across shards and independent of commit interleaving, so two runs that
//! route the same transactions produce the same global numbering
//! regardless of thread scheduling.

use std::io::Write;
use std::path::{Path, PathBuf};

use bytes::Bytes;

use fabric_telemetry::Telemetry;

use crate::block::Block;
use crate::config::LedgerConfig;
use crate::error::{Error, Result};
use crate::iostats::IoStatsSnapshot;
use crate::ledger::{HistoryIterator, Ledger};
use crate::statedb::VersionedValue;
use crate::tx::{BlockNum, Transaction};

/// Span name used for per-shard commit work (see
/// [`ShardedLedger::for_each_shard`]).
pub const SHARD_COMMIT_SPAN: &str = "shard.commit";

/// Meta file, directly under the root, holding a sharded layout's
/// partition count. A ledger directory without it is a plain ledger.
pub(crate) const SHARDS_META: &str = "SHARDS";

/// Whether `dir` is the root of a sharded layout: its `SHARDS` file, or a
/// first partition whose `SHARDS` is missing (a backup torn before its last
/// step). Such a root is never a plain ledger.
pub(crate) fn holds_sharded_layout(dir: &Path) -> bool {
    dir.join(SHARDS_META).exists() || dir.join("shard-00").exists()
}

/// Number of ordinals in the structured-key space (`00000..=99999`).
const ORDINAL_SPACE: usize = 100_000;

/// Pure key→shard routing over striped ordinal classes (see the
/// [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shards: usize,
}

impl ShardRouter {
    /// Router over `shards` partitions (`shards >= 1`).
    pub fn new(shards: usize) -> Self {
        ShardRouter {
            shards: shards.max(1),
        }
    }

    /// Number of partitions this router splits the key space into.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Shard index owning `key`.
    pub fn route(&self, key: &[u8]) -> usize {
        if self.shards <= 1 {
            return 0;
        }
        if key.len() >= 6 && key[1..6].iter().all(|b| b.is_ascii_digit()) {
            let mut ordinal = 0usize;
            for b in &key[1..6] {
                ordinal = ordinal * 10 + (b - b'0') as usize;
            }
            ordinal % self.shards
        } else {
            key.first().copied().unwrap_or(0) as usize % self.shards
        }
    }

    /// Shard index owning a transaction: its first write key (a
    /// transaction's writes all target one entity in the workloads here),
    /// falling back to the first read key, then shard 0.
    pub fn route_tx(&self, tx: &Transaction) -> usize {
        tx.writes
            .first()
            .map(|w| self.route(&w.key))
            .or_else(|| tx.reads.first().map(|r| self.route(&r.key)))
            .unwrap_or(0)
    }

    /// How many structured-key ordinals `shard` owns — documentation and
    /// test aid for the stripe split (shards with index below
    /// `SPACE mod n` own one extra ordinal).
    pub fn ordinal_count(&self, shard: usize) -> usize {
        ORDINAL_SPACE / self.shards + usize::from(shard < ORDINAL_SPACE % self.shards)
    }
}

/// The ledger handle: N key-range partitions committing concurrently,
/// where a plain ledger directory is the `N = 1` case.
///
/// Query APIs mirror [`Ledger`]'s: point lookups route to the owning
/// shard, range scans merge across shards, and [`ShardedLedger::shards`]
/// exposes the partitions themselves so per-shard machinery (cursors,
/// planners) runs unchanged against each one.
pub struct ShardedLedger {
    dir: PathBuf,
    router: ShardRouter,
    shards: Vec<Ledger>,
    tel: Telemetry,
}

impl std::fmt::Debug for ShardedLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedLedger")
            .field("dir", &self.dir)
            .field("shards", &self.shards.len())
            .field("height", &self.height())
            .finish()
    }
}

impl ShardedLedger {
    /// Upper bound on the partition count (a routing sanity rail, far
    /// above any sensible fan-out on one machine).
    pub const MAX_SHARDS: usize = 64;

    /// Open the ledger at `dir` in the layout the directory holds: a
    /// `SHARDS` file means that many `shard-NN` partitions, none means one
    /// partition rooted at `dir` itself (created when `dir` is new), the
    /// layout [`Ledger::open`] writes. Every partition shares one
    /// telemetry handle, which starts disabled (see
    /// [`ShardedLedger::telemetry`]).
    pub fn open(dir: impl Into<PathBuf>, config: LedgerConfig) -> Result<Self> {
        let dir = dir.into();
        let shards = Self::read_meta(&dir)?;
        Self::open_partitions(dir, config, shards)
    }

    /// Create a ledger of `shards` partitions under `dir/shard-NN`, or
    /// reopen one created with the same count. The router is a pure
    /// function of the count, so a different count is refused (it would
    /// orphan existing keys on their old shards), and so is a directory
    /// that already holds a plain ledger.
    pub fn create(dir: impl Into<PathBuf>, config: LedgerConfig, shards: usize) -> Result<Self> {
        let dir = dir.into();
        if shards == 0 || shards > Self::MAX_SHARDS {
            return Err(Error::InvalidArgument(format!(
                "shard count must be 1..={}, got {shards}",
                Self::MAX_SHARDS
            )));
        }
        match Self::read_meta(&dir)? {
            Some(stored) if stored != shards => {
                return Err(Error::InvalidArgument(format!(
                    "ledger at {} has {stored} shards, asked to create {shards}",
                    dir.display()
                )));
            }
            Some(_) => {}
            None if dir.join("blocks").exists() => {
                return Err(Error::InvalidArgument(format!(
                    "{} holds a plain ledger (no {SHARDS_META} file); \
                     it cannot be re-created with {shards} shards",
                    dir.display()
                )));
            }
            None => {
                std::fs::create_dir_all(&dir)
                    .map_err(|e| Error::io("creating sharded ledger dir".to_string(), e))?;
                Self::install_meta(&dir, shards)?;
            }
        }
        Self::open_partitions(dir, config, Some(shards))
    }

    fn open_partitions(dir: PathBuf, config: LedgerConfig, shards: Option<usize>) -> Result<Self> {
        // One handle across every partition, so spans and counters from
        // all shards land in the same flight recorder and registry.
        let tel = Telemetry::disabled();
        let open = |part: PathBuf| Ledger::open_with_telemetry(part, config.clone(), tel.clone());
        let parts = match shards {
            None => vec![open(dir.clone())?],
            Some(n) => (0..n)
                .map(|i| open(dir.join(format!("shard-{i:02}"))))
                .collect::<Result<Vec<_>>>()?,
        };
        Ok(ShardedLedger {
            dir,
            router: ShardRouter::new(parts.len()),
            shards: parts,
            tel,
        })
    }

    /// The partition count recorded in `dir/SHARDS`; `None` when there is
    /// no such file (a plain ledger, or nothing yet).
    fn read_meta(dir: &Path) -> Result<Option<usize>> {
        let meta = dir.join(SHARDS_META);
        match std::fs::read_to_string(&meta) {
            Ok(text) => match text.trim().parse() {
                Ok(n) if (1..=Self::MAX_SHARDS).contains(&n) => Ok(Some(n)),
                _ => Err(Error::corruption(
                    &meta,
                    format!("unparseable shard count {text:?}"),
                )),
            },
            // Partitions without the count are a backup torn before its
            // last step; opening the root as a plain ledger would hide them.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                if holds_sharded_layout(dir) {
                    Err(Error::corruption(&meta, "missing beside shard-00"))
                } else {
                    Ok(None)
                }
            }
            Err(e) => Err(Error::io("reading SHARDS meta".to_string(), e)),
        }
    }

    /// Durably publish `dir/SHARDS`. A crash leaves the whole file or none:
    /// a torn count would make every partition under `dir` unreachable.
    fn install_meta(dir: &Path, shards: usize) -> Result<()> {
        let tmp = dir.join("SHARDS.tmp");
        std::fs::File::create(&tmp)
            .and_then(|mut f| {
                f.write_all(format!("{shards}\n").as_bytes())?;
                f.sync_all()
            })
            .map_err(|e| Error::io(format!("writing {}", tmp.display()), e))?;
        std::fs::rename(&tmp, dir.join(SHARDS_META))
            .map_err(|e| Error::io(format!("installing {SHARDS_META} in {}", dir.display()), e))?;
        Ok(fabric_kvstore::fsync_dir(dir)?)
    }

    /// Number of partitions.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The partitions themselves, in shard order. Each is a full
    /// [`Ledger`]; run any per-shard query machinery directly against it.
    pub fn shards(&self) -> &[Ledger] {
        &self.shards
    }

    /// One partition by index.
    pub fn shard(&self, i: usize) -> &Ledger {
        &self.shards[i]
    }

    /// The ledger itself, for whole-ledger logic with no multi-partition
    /// form; an error naming the count when there is more than one.
    pub fn sole(&self) -> Result<&Ledger> {
        match self.shards.as_slice() {
            [only] => Ok(only),
            many => Err(Error::InvalidArgument(format!(
                "ledger at {} has {} shards; this operation needs a \
                 single-partition ledger",
                self.dir.display(),
                many.len()
            ))),
        }
    }

    /// Index of the shard owning `key`.
    pub fn shard_index_for_key(&self, key: &[u8]) -> usize {
        self.router.route(key)
    }

    /// The shard owning `key`.
    pub fn shard_for_key(&self, key: &[u8]) -> &Ledger {
        &self.shards[self.router.route(key)]
    }

    /// Run `work(shard index, partition)` on every partition and return the
    /// results in shard order. One partition runs inline; several run on a
    /// scoped thread each, under a `span` span labelled `shard <i>` (the
    /// chrome exporter groups `shard.`-prefixed spans into per-shard lanes).
    pub fn for_each_shard<T: Send>(
        &self,
        span: &'static str,
        work: impl Fn(usize, &Ledger) -> Result<T> + Sync,
    ) -> Result<Vec<T>> {
        if let [only] = self.shards.as_slice() {
            return Ok(vec![work(0, only)?]);
        }
        let ctx = self.tel.current_context();
        let work = &work;
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter()
                .enumerate()
                .map(|(i, shard)| {
                    scope.spawn(move || {
                        let _s = self.tel.span_in(span, ctx).with_label(format!("shard {i}"));
                        work(i, shard)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        Err(Error::io(
                            span.to_string(),
                            std::io::Error::other("shard worker panicked"),
                        ))
                    })
                })
                .collect()
        })
    }

    /// Global block number of shard `i`'s local block `b`.
    pub fn global_block_num(&self, shard: usize, local: BlockNum) -> BlockNum {
        local * self.shards.len() as u64 + shard as u64
    }

    /// Submit a transaction to the owning shard's orderer. Returns the
    /// *global* numbers of any blocks the submission caused to be cut.
    pub fn submit(&self, tx: Transaction) -> Result<Vec<BlockNum>> {
        let shard = self.router.route_tx(&tx);
        let locals = self.shards[shard].submit(tx)?;
        Ok(locals
            .into_iter()
            .map(|b| self.global_block_num(shard, b))
            .collect())
    }

    /// Force-cut every shard's pending batch. Returns global numbers of
    /// the blocks cut, sorted.
    pub fn cut_blocks(&self) -> Result<Vec<BlockNum>> {
        let mut out = Vec::new();
        for (i, shard) in self.shards.iter().enumerate() {
            if let Some(b) = shard.cut_block()? {
                out.push(self.global_block_num(i, b));
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Flush every shard's state and index stores.
    pub fn flush_stores(&self) -> Result<()> {
        for shard in &self.shards {
            shard.flush_stores()?;
        }
        Ok(())
    }

    /// Total committed blocks across all shards.
    pub fn height(&self) -> u64 {
        self.shards.iter().map(|s| s.height()).sum()
    }

    /// Per-shard heights, in shard order.
    pub fn heights(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.height()).collect()
    }

    /// Fetch a block by *global* number (see the [module docs](self) for
    /// the numbering scheme).
    pub fn get_block(&self, global: BlockNum) -> Result<std::sync::Arc<Block>> {
        let n = self.shards.len() as u64;
        self.shards[(global % n) as usize].get_block(global / n)
    }

    /// `GetState` routed to the owning shard.
    pub fn get_state(&self, key: &[u8]) -> Result<Option<VersionedValue>> {
        self.shard_for_key(key).get_state(key)
    }

    /// `GetHistoryForKey` routed to the owning shard (a key's entire
    /// history lives on one shard, so the iterator is complete).
    pub fn get_history_for_key(&self, key: &[u8]) -> Result<HistoryIterator<'_>> {
        self.shard_for_key(key).get_history_for_key(key)
    }

    /// `GetStateByRange` merged across shards and re-sorted by key (the
    /// contiguous range routing means each shard contributes sorted,
    /// mostly disjoint runs; the final sort restores the global order).
    pub fn get_state_by_range(
        &self,
        start: Option<&[u8]>,
        end: Option<&[u8]>,
    ) -> Result<Vec<(Bytes, VersionedValue)>> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.get_state_by_range(start, end)?);
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }

    /// Aggregated I/O counters: the counter-wise sum of every shard's
    /// snapshot, so query-cost accounting (`blocks_deserialized`,
    /// `ghfk_calls`, …) reads like a single ledger's.
    pub fn stats(&self) -> IoStatsSnapshot {
        self.shards
            .iter()
            .fold(IoStatsSnapshot::default(), |acc, s| acc.merge(&s.stats()))
    }

    /// Audit every shard's hash chain ([`Ledger::verify_chain`] per
    /// partition, run concurrently — each shard is an independent chain).
    /// Returns the per-shard tip digests, in shard order.
    pub fn verify_chain(&self) -> Result<Vec<crate::hash::Digest>> {
        self.for_each_shard("shard.verify", |_, shard| shard.verify_chain())
    }

    /// Write a consistent, openable backup into `dest` in this ledger's own
    /// layout: a plain [`Ledger::backup`] when the one partition is rooted
    /// at the directory itself, otherwise one per shard under
    /// `dest/shard-NN` plus the `SHARDS` meta file, so the backup routes
    /// identically and is a drop-in replica.
    pub fn backup(&self, dest: impl Into<PathBuf>) -> Result<()> {
        let dest = dest.into();
        if holds_sharded_layout(&dest) || dest.join("blocks").exists() {
            return Err(Error::InvalidArgument(format!(
                "backup destination {} already holds a ledger",
                dest.display()
            )));
        }
        if self.shards[0].dir() == self.dir {
            return self.shards[0].backup(dest);
        }
        std::fs::create_dir_all(&dest)
            .map_err(|e| Error::io("creating sharded backup dir".to_string(), e))?;
        for (i, shard) in self.shards.iter().enumerate() {
            shard.backup(dest.join(format!("shard-{i:02}")))?;
        }
        // The meta file goes last: a complete backup always reopens, a
        // torn one is refused for its missing `SHARDS`.
        Self::install_meta(&dest, self.shards.len())
    }

    /// The telemetry handle shared by every shard.
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// Root directory: the ledger itself in the plain layout, the parent of
    /// the `shard-NN` subdirectories otherwise.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Refresh gauges on the shared registry: aggregate `ledger.height`,
    /// plus per-shard `ledger.shard.<i>.blocks` (chain height) and
    /// `ledger.shard.<i>.events` (state writes committed since open) for
    /// the `/metrics` endpoint.
    pub fn publish_gauges(&self) {
        let reg = self.tel.registry();
        reg.gauge("ledger.shards").set(self.shards.len() as i64);
        for (i, shard) in self.shards.iter().enumerate() {
            reg.gauge_owned(format!("ledger.shard.{i}.blocks"))
                .set(shard.height() as i64);
            reg.gauge_owned(format!("ledger.shard.{i}.events"))
                .set(shard.stats().events_committed as i64);
        }
        // One partition publishes the totals itself, with its store-shape
        // gauges (`statedb.*`, `indexdb.*`, `ledger.cache.*`); those carry
        // no partition in their names, so several partitions publish none.
        if let [only] = self.shards.as_slice() {
            return only.publish_gauges();
        }
        reg.gauge("ledger.height").set(self.height() as i64);
        fabric_telemetry::alloc::publish_memory_gauges(&self.tel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shim::TxSimulator;
    use crate::tx::Timestamp;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sharded-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn put(ledger: &ShardedLedger, key: &str, value: &str, ts: Timestamp) {
        let shard = ledger.shard_for_key(key.as_bytes());
        let mut sim = TxSimulator::new(shard);
        sim.put_state(key.to_string(), value.to_string());
        ledger.submit(sim.into_transaction(ts).unwrap()).unwrap();
    }

    #[test]
    fn router_stripes_structured_keys_across_aligned_shards() {
        let router = ShardRouter::new(4);
        assert_eq!(router.route(b"S00000"), 0);
        assert_eq!(router.route(b"S00001"), 1);
        assert_eq!(router.route(b"S00003"), 3);
        assert_eq!(router.route(b"S00004"), 0);
        assert_eq!(router.route(b"S99999"), 99_999 % 4);
        // Aligned across kinds: same ordinal → same shard.
        assert_eq!(router.route(b"S00042"), router.route(b"C00042"));
        assert_eq!(router.route(b"T00042"), router.route(b"C00042"));
        // Composite keys route with their entity prefix.
        assert_eq!(router.route(b"S70000|evt|17"), router.route(b"S70000"));
        // Stripes cover the ordinal space, and even a small contiguous
        // block of ordinals (real workloads number entities from 0)
        // spreads over every shard.
        assert_eq!(
            (0..4).map(|s| router.ordinal_count(s)).sum::<usize>(),
            100_000
        );
        let mut per_shard = [0usize; 4];
        for o in 0..64 {
            per_shard[router.route(format!("S{o:05}").as_bytes())] += 1;
        }
        assert_eq!(per_shard, [16, 16, 16, 16]);
    }

    #[test]
    fn router_falls_back_to_first_byte_stripes() {
        let router = ShardRouter::new(2);
        assert_eq!(router.route(b"aa"), (b'a' % 2) as usize);
        assert_eq!(router.route(&[0xF1, 0x01]), 1);
        assert_eq!(router.route(b""), 0);
        assert_eq!(ShardRouter::new(1).route(b"anything"), 0);
    }

    #[test]
    fn point_queries_route_and_range_scans_merge() {
        let dir = tmp("queries");
        let ledger = ShardedLedger::create(&dir, LedgerConfig::small_for_tests(), 4).unwrap();
        for (i, key) in ["S00004", "S00013", "S00022", "S00031"].iter().enumerate() {
            put(&ledger, key, &format!("v{i}"), 10 + i as u64);
        }
        ledger.cut_blocks().unwrap();
        // Keys landed on distinct shards.
        let owners: std::collections::HashSet<usize> = ["S00004", "S00013", "S00022", "S00031"]
            .iter()
            .map(|k| ledger.shard_index_for_key(k.as_bytes()))
            .collect();
        assert_eq!(owners.len(), 4);
        assert_eq!(
            ledger.get_state(b"S00022").unwrap().unwrap().value.as_ref(),
            b"v2"
        );
        let all = ledger.get_state_by_range(None, None).unwrap();
        assert_eq!(all.len(), 4);
        let keys: Vec<&[u8]> = all.iter().map(|(k, _)| k.as_ref()).collect();
        assert_eq!(keys, vec![&b"S00004"[..], b"S00013", b"S00022", b"S00031"]);
        let history: Vec<_> = ledger
            .get_history_for_key(b"S00031")
            .unwrap()
            .collect_all()
            .unwrap();
        assert_eq!(history.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn global_block_numbers_are_injective_and_resolvable() {
        let dir = tmp("numbering");
        let ledger = ShardedLedger::create(&dir, LedgerConfig::small_for_tests(), 2).unwrap();
        put(&ledger, "S00002", "a", 1); // shard 0
        put(&ledger, "S00003", "b", 2); // shard 1
        put(&ledger, "S00004", "c", 3); // shard 0
        let cut = ledger.cut_blocks().unwrap();
        assert_eq!(cut, vec![0, 1], "local block 0 on each shard");
        assert_eq!(ledger.height(), 2);
        let b0 = ledger.get_block(0).unwrap();
        assert_eq!(b0.txs.len(), 2, "shard 0 holds both even-ordinal txs");
        let b1 = ledger.get_block(1).unwrap();
        assert_eq!(b1.txs.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_with_wrong_shard_count_is_rejected() {
        let dir = tmp("meta");
        {
            let ledger = ShardedLedger::create(&dir, LedgerConfig::small_for_tests(), 2).unwrap();
            put(&ledger, "S00001", "a", 1);
            ledger.cut_blocks().unwrap();
        }
        let err = ShardedLedger::create(&dir, LedgerConfig::small_for_tests(), 4).unwrap_err();
        assert!(err.to_string().contains("2 shards"), "{err}");
        // Same count reopens fine and sees the data.
        ShardedLedger::create(&dir, LedgerConfig::small_for_tests(), 2).unwrap();
        let ledger = ShardedLedger::open(&dir, LedgerConfig::small_for_tests()).unwrap();
        assert_eq!(ledger.shard_count(), 2, "the count is read from SHARDS");
        assert_eq!(
            ledger.get_state(b"S00001").unwrap().unwrap().value.as_ref(),
            b"a"
        );
        assert!(
            ShardedLedger::create(tmp("meta-zero"), LedgerConfig::small_for_tests(), 0).is_err()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_chain_audits_every_shard() {
        let dir = tmp("verify");
        let ledger = ShardedLedger::create(&dir, LedgerConfig::small_for_tests(), 3).unwrap();
        for i in 0..9u64 {
            put(&ledger, &format!("S{i:05}"), "v", i + 1);
        }
        ledger.cut_blocks().unwrap();
        let tips = ledger.verify_chain().unwrap();
        assert_eq!(tips.len(), 3);
        // Each tip is the shard's own chain head, not a placeholder.
        for (i, tip) in tips.iter().enumerate() {
            assert_eq!(*tip, ledger.shard(i).last_hash(), "shard {i} tip");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn backup_round_trips_across_four_shards() {
        let dir = tmp("backup-src");
        let dest = tmp("backup-dst");
        let ledger = ShardedLedger::create(&dir, LedgerConfig::small_for_tests(), 4).unwrap();
        for i in 0..16u64 {
            put(&ledger, &format!("S{i:05}"), &format!("v{i}"), i + 1);
        }
        ledger.cut_blocks().unwrap();
        ledger.backup(&dest).unwrap();
        // A second backup into the same destination is refused.
        let err = ledger.backup(&dest).unwrap_err();
        assert!(err.to_string().contains("already holds"), "{err}");
        // The backup opens with the source's shard count and answers every
        // query the source does; a wrong count is rejected by the meta.
        assert!(ShardedLedger::create(&dest, LedgerConfig::small_for_tests(), 2).is_err());
        let restored = ShardedLedger::open(&dest, LedgerConfig::small_for_tests()).unwrap();
        assert_eq!(restored.height(), ledger.height());
        assert_eq!(restored.heights(), ledger.heights());
        for i in 0..16u64 {
            let key = format!("S{i:05}");
            assert_eq!(
                restored.get_state(key.as_bytes()).unwrap().unwrap().value,
                ledger.get_state(key.as_bytes()).unwrap().unwrap().value,
                "{key}"
            );
        }
        let tips = restored.verify_chain().unwrap();
        for (i, tip) in tips.iter().enumerate() {
            assert_eq!(*tip, ledger.shard(i).last_hash(), "shard {i} tip");
        }
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&dest).ok();
    }

    fn listing(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn open_reads_the_layout_from_the_directory() {
        let config = LedgerConfig::small_for_tests;
        // No SHARDS file: one partition rooted at the directory itself.
        let dir = tmp("layout-root");
        let dest = tmp("layout-root-bk");
        {
            let ledger = ShardedLedger::open(&dir, config()).unwrap();
            assert_eq!(ledger.sole().unwrap().dir(), dir);
            put(&ledger, "S00001", "a", 1);
            assert_eq!(ledger.cut_blocks().unwrap(), vec![0]);
            assert_eq!(ledger.global_block_num(0, 7), 7);
            ledger.backup(&dest).unwrap();
        }
        assert_eq!(listing(&dir), ["blocks", "index", "state"]);
        assert_eq!(listing(&dest), ["blocks", "index", "state"], "plain backup");
        // It is a plain ledger to `Ledger::open` too.
        let ledger = Ledger::open(&dest, config()).unwrap();
        assert_eq!(
            ledger.get_state(b"S00001").unwrap().unwrap().value.as_ref(),
            b"a"
        );
        drop(ledger);
        // A SHARDS file: that many partitions, and no sole ledger.
        let sharded = tmp("layout-sharded");
        drop(ShardedLedger::create(&sharded, config(), 2).unwrap());
        let ledger = ShardedLedger::open(&sharded, config()).unwrap();
        assert_eq!(ledger.shard_count(), 2);
        let err = ledger.sole().unwrap_err();
        assert!(err.to_string().contains("has 2 shards"), "{err}");
        for d in [dir, dest, sharded] {
            std::fs::remove_dir_all(d).ok();
        }
    }

    #[test]
    fn layout_mixups_are_refused_and_touch_nothing() {
        let config = LedgerConfig::small_for_tests;
        let sharded = tmp("mix-sharded");
        drop(ShardedLedger::create(&sharded, config(), 2).unwrap());
        let before = listing(&sharded);
        assert_eq!(before, ["SHARDS", "shard-00", "shard-01"], "no SHARDS.tmp");
        let err = Ledger::open(&sharded, config()).unwrap_err();
        assert!(matches!(err, Error::InvalidArgument(_)), "{err}");
        assert!(err.to_string().contains("sharded ledger"), "{err}");
        assert_eq!(listing(&sharded), before);

        let plain = tmp("mix-plain");
        drop(Ledger::open(&plain, config()).unwrap());
        let before = listing(&plain);
        let err = ShardedLedger::create(&plain, config(), 2).unwrap_err();
        assert!(err.to_string().contains("plain ledger"), "{err}");
        assert_eq!(listing(&plain), before);
        std::fs::remove_dir_all(&sharded).ok();
        std::fs::remove_dir_all(&plain).ok();
    }

    #[test]
    fn torn_shards_meta_is_corruption_naming_the_file() {
        let dir = tmp("torn-meta");
        drop(ShardedLedger::create(&dir, LedgerConfig::small_for_tests(), 2).unwrap());
        // What a crash inside a bare `fs::write` used to leave behind, then
        // what a crash before a backup's last step leaves.
        std::fs::write(dir.join("SHARDS"), "").unwrap();
        let empty = ShardedLedger::open(&dir, LedgerConfig::small_for_tests()).unwrap_err();
        std::fs::remove_file(dir.join("SHARDS")).unwrap();
        let before = listing(&dir);
        for err in [
            empty,
            ShardedLedger::open(&dir, LedgerConfig::small_for_tests()).unwrap_err(),
            ShardedLedger::create(&dir, LedgerConfig::small_for_tests(), 2).unwrap_err(),
        ] {
            match err {
                Error::Corruption { file, .. } => assert_eq!(file, dir.join("SHARDS")),
                other => panic!("expected corruption, got {other}"),
            }
        }
        // Nor does the plain open plant `blocks/ index/ state/` beside the
        // partitions of the torn layout.
        let err = Ledger::open(&dir, LedgerConfig::small_for_tests()).unwrap_err();
        assert!(matches!(err, Error::InvalidArgument(_)), "{err}");
        assert_eq!(listing(&dir), before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn per_shard_gauges_publish() {
        let dir = tmp("gauges");
        drop(ShardedLedger::create(&dir, LedgerConfig::small_for_tests(), 2).unwrap());
        let ledger = ShardedLedger::open(&dir, LedgerConfig::small_for_tests()).unwrap();
        ledger.telemetry().enable();
        put(&ledger, "S00001", "a", 1);
        put(&ledger, "S00002", "b", 2);
        ledger.cut_blocks().unwrap();
        ledger.publish_gauges();
        let snap = ledger.telemetry().registry().snapshot();
        assert_eq!(snap.gauge("ledger.height"), Some(2));
        assert_eq!(snap.gauge("ledger.shards"), Some(2));
        assert_eq!(snap.gauge("ledger.shard.0.blocks"), Some(1));
        assert_eq!(snap.gauge("ledger.shard.1.blocks"), Some(1));
        assert_eq!(snap.gauge("ledger.shard.0.events"), Some(1));
        assert_eq!(snap.gauge("ledger.shard.1.events"), Some(1));
        std::fs::remove_dir_all(&dir).ok();
    }
}
