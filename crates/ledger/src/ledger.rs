//! The ledger engine: the commit path, chain state, recovery and queries.
//!
//! Data flow on commit (mirrors a Fabric peer):
//!
//! ```text
//! TxSimulator → submit() → BlockCutter → commit_batch():
//!     1. MVCC-validate each tx's read set against current state
//!     2. assemble Block (header chains to previous hash)
//!     3. append to block files              (history-db grows here)
//!     4. write block-location + history index entries
//!     5. apply valid txs' writes to state-db
//! ```
//!
//! On open, the engine recovers from a crash at any point in that sequence:
//! blocks present in the files but missing from the indexes are re-indexed
//! and their state updates re-applied (both operations are idempotent).

use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

use bytes::Bytes;

use fabric_kvstore::{open_engine, Backend};
use fabric_telemetry::{SpanGuard, Telemetry};

use crate::block::Block;
use crate::blockfile::BlockFileManager;
use crate::cache::BlockCache;
use crate::config::LedgerConfig;
use crate::error::{Error, Result};
use crate::hash::Digest;
use crate::index::{ChainTip, HistoryLocation, LedgerIndex};
use crate::iostats::{IoStats, IoStatsSnapshot};
use crate::orderer::BlockCutter;
use crate::sharded::{holds_sharded_layout, SHARDS_META};
use crate::statedb::{StateDb, VersionedValue};
use crate::tx::{BlockNum, Timestamp, Transaction, TxNum, ValidationCode, Version};

/// One state-database update produced by a committed block:
/// `(key, new value or None for delete, committing version)`.
pub type StateUpdate = (Bytes, Option<Bytes>, Version);

/// Everything a committed block contributes to the indexes:
/// history entries, state updates, and tx-id index entries.
type BlockEffects = (
    Vec<(Bytes, TxNum, Timestamp)>,
    Vec<StateUpdate>,
    Vec<(crate::tx::TxId, TxNum)>,
);

/// A single-peer Fabric-style ledger.
///
/// See the [crate docs](crate) for the architecture overview and the
/// [module docs](self) for the commit path.
pub struct Ledger {
    #[allow(dead_code)]
    dir: PathBuf,
    stats: Arc<IoStats>,
    tel: Telemetry,
    blockfiles: BlockFileManager,
    index: LedgerIndex,
    state: StateDb,
    cache: Option<BlockCache>,
    /// Group history locations into per-block runs (see
    /// [`crate::config::LedgerConfig::coalesce_history`]).
    coalesce_history: bool,
    chain: Mutex<ChainTip>,
    cutter: Mutex<BlockCutter>,
    /// Senders of the live [`Ledger::subscribe`] channels.
    subscribers: Mutex<Vec<mpsc::Sender<CommitEvent>>>,
}

/// Notification sent to [`Ledger::subscribe`]rs after each block commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitEvent {
    /// The committed block's number.
    pub block_num: BlockNum,
    /// Number of transactions in the block.
    pub tx_count: usize,
    /// Largest transaction timestamp in the block (0 for empty blocks) —
    /// index-maintenance daemons use this as the ledger's logical clock.
    pub max_timestamp: Timestamp,
}

impl std::fmt::Debug for Ledger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ledger")
            .field("dir", &self.dir)
            .field("height", &self.height())
            .finish()
    }
}

impl Ledger {
    /// Open (or create) a ledger rooted at `dir`. Telemetry starts
    /// disabled; call [`Ledger::telemetry`]`().enable()` to light it up.
    pub fn open(dir: impl Into<PathBuf>, config: LedgerConfig) -> Result<Self> {
        Self::open_with_telemetry(dir, config, Telemetry::disabled())
    }

    /// Open (or create) a ledger rooted at `dir`, sharing `tel` with every
    /// component it owns: block files, the index store and the state store
    /// all record spans and counters into the same handle.
    pub fn open_with_telemetry(
        dir: impl Into<PathBuf>,
        config: LedgerConfig,
        tel: Telemetry,
    ) -> Result<Self> {
        let dir = dir.into();
        // Opening the root of a sharded layout would create an empty
        // ledger beside the partitions that hold the data.
        if holds_sharded_layout(&dir) {
            return Err(Error::InvalidArgument(format!(
                "{} holds a sharded ledger ({SHARDS_META} or shard-00): \
                 open it with ShardedLedger::open",
                dir.display()
            )));
        }
        let stats = IoStats::new_shared();
        let blockfiles = BlockFileManager::open_with_telemetry(
            dir.join("blocks"),
            config.blockfile_max_bytes,
            stats.clone(),
            tel.clone(),
        )?;
        // Engine resolution per store directory: `config.backend` seeds the
        // per-store options, and the on-disk marker wins for existing dirs
        // (see `fabric_kvstore::open_engine`), so reopening an existing
        // ledger never silently reformats it.
        let mut index_opts = config.index_db.clone();
        let mut state_opts = config.state_db.clone();
        if config.backend != Backend::Auto {
            index_opts.backend = config.backend;
            state_opts.backend = config.backend;
        }
        let index_db = open_engine(dir.join("index"), index_opts, tel.clone())?;
        let state_db = open_engine(dir.join("state"), state_opts, tel.clone())?;
        let index = LedgerIndex::new(index_db);
        let state = StateDb::new(state_db);
        let cache = (config.cache_blocks > 0).then(|| BlockCache::new(config.cache_blocks));
        let tip = index.chain_tip()?.unwrap_or(ChainTip {
            height: 0,
            last_hash: Digest::ZERO,
        });
        let ledger = Ledger {
            dir,
            stats,
            tel,
            blockfiles,
            index,
            state,
            cache,
            coalesce_history: config.coalesce_history,
            chain: Mutex::new(tip),
            cutter: Mutex::new(BlockCutter::new(
                config.block_max_txs,
                config.block_max_bytes,
            )),
            subscribers: Mutex::new(Vec::new()),
        };
        ledger.recover()?;
        Ok(ledger)
    }

    /// Re-index and re-apply any blocks that reached the block files but
    /// not the indexes (crash between steps 3 and 4/5 of a commit). The
    /// opposite case, an index that names a block the block files do not
    /// hold as a whole frame, is refused: serving it would fail reads of
    /// that block and chain the next block onto bytes that are not there.
    fn recover(&self) -> Result<()> {
        let indexed_height = self.chain.lock().unwrap_or_else(|e| e.into_inner()).height;
        // Start scanning at the last indexed block (a known frame boundary);
        // blocks before it are skipped by the height check below.
        let start = if indexed_height > 0 {
            self.index.block_location(indexed_height - 1)?
        } else {
            None
        };
        let mut tip_on_disk = indexed_height == 0;
        let mut recovered_tip: Option<ChainTip> = None;
        self.blockfiles.scan_from(start, |block, location| {
            let num = block.header.number;
            if num < indexed_height {
                tip_on_disk |= num + 1 == indexed_height;
                return Ok(()); // already indexed
            }
            let (history, writes, tx_ids) = Self::collect_effects(&block);
            let tip = ChainTip {
                height: num + 1,
                last_hash: block.hash(),
            };
            self.index
                .index_block(num, location, &history, &tx_ids, tip)?;
            self.state.apply(&writes)?;
            recovered_tip = Some(tip);
            Ok(())
        })?;
        if !tip_on_disk {
            // Failure path only: a full scan to tell the operator how far
            // the block files really go.
            let mut last_whole: Option<BlockNum> = None;
            self.blockfiles.scan_all(|block, _| {
                last_whole = Some(block.header.number);
                Ok(())
            })?;
            let file = match start {
                Some(s) => crate::blockfile::file_path(self.blockfiles.dir(), s.file_num),
                None => self.blockfiles.dir().to_path_buf(),
            };
            return Err(Error::corruption(
                file,
                format!(
                    "the index records height {indexed_height} but block {} is not a whole \
                     frame in the block files (last whole block: {}); refusing to serve or \
                     build on a block that is not on disk",
                    indexed_height - 1,
                    last_whole.map_or("none".to_string(), |n| n.to_string()),
                ),
            ));
        }
        if let Some(tip) = recovered_tip {
            *self.chain.lock().unwrap_or_else(|e| e.into_inner()) = tip;
        }
        Ok(())
    }

    /// Extract a committed block's index entries and state updates,
    /// honouring the recorded validation codes.
    fn collect_effects(block: &Block) -> BlockEffects {
        let mut tx_ids = Vec::with_capacity(block.txs.len());
        for (i, tx) in block.txs.iter().enumerate() {
            tx_ids.push((tx.id, i as TxNum));
        }
        let mut history = Vec::new();
        // Later txs in the block overwrite earlier ones in state.
        let mut latest: HashMap<Bytes, (Option<Bytes>, Version)> = HashMap::new();
        for (i, tx) in block.txs.iter().enumerate() {
            if block.validation[i] != ValidationCode::Valid {
                continue;
            }
            let tx_num = i as TxNum;
            for w in &tx.writes {
                history.push((w.key.clone(), tx_num, tx.timestamp));
                latest.insert(
                    w.key.clone(),
                    (
                        w.value.clone(),
                        Version {
                            block_num: block.header.number,
                            tx_num,
                        },
                    ),
                );
            }
        }
        let writes = latest
            .into_iter()
            .map(|(k, (v, ver))| (k, v, ver))
            .collect();
        (history, writes, tx_ids)
    }

    /// Submit a transaction to the orderer. Blocks are cut and committed
    /// according to the batch-size rules; returns the numbers of any blocks
    /// committed as a result of this submission.
    pub fn submit(&self, tx: Transaction) -> Result<Vec<BlockNum>> {
        let batches = self
            .cutter
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .enqueue(tx);
        let mut committed = Vec::with_capacity(batches.len());
        for batch in batches {
            committed.push(self.commit_batch(batch)?);
        }
        Ok(committed)
    }

    /// Force-cut the pending batch (the orderer's batch-timeout path).
    /// Returns the committed block number, or `None` if nothing was pending.
    pub fn cut_block(&self) -> Result<Option<BlockNum>> {
        let batch = self.cutter.lock().unwrap_or_else(|e| e.into_inner()).cut();
        match batch {
            Some(batch) => Ok(Some(self.commit_batch(batch)?)),
            None => Ok(None),
        }
    }

    /// Validate, assemble, persist and index one block: the one commit
    /// path, and the paper's cost model. Every stage runs on the caller
    /// thread, in order, so a returned block number means the block is in
    /// the block file, the index and the state db (see DESIGN.md §6 for
    /// what has been fsynced at that point).
    fn commit_batch(&self, txs: Vec<Transaction>) -> Result<BlockNum> {
        let mut commit_span = self.tel.span("ledger.commit");
        let mut chain = self.chain.lock().unwrap_or_else(|e| e.into_inner());
        let block_num = chain.height;
        // MVCC validation: a read set is valid when every observed version
        // still matches the committed state — including writes made by
        // earlier valid transactions in this same block.
        let validation = {
            let mut span = self.tel.span("commit.mvcc_validate");
            let outcome =
                crate::validate::validate_serial(&txs, block_num, |key| self.state.version(key))?;
            span.record("txs", txs.len() as u64);
            span.record("conflicts", outcome.conflicts);
            self.tel.count("commit.validate.txs", txs.len() as u64);
            self.tel
                .count("commit.validate.conflicts", outcome.conflicts);
            outcome.codes
        };
        // State writes the block will apply: every write of every valid tx
        // (the number of history entries — committed events — it adds).
        let events: u64 = txs
            .iter()
            .zip(&validation)
            .filter(|(_, c)| **c == ValidationCode::Valid)
            .map(|(tx, _)| tx.writes.len() as u64)
            .sum();
        let tx_count = txs.len() as u64;
        let block = {
            let _s = self.tel.span("commit.assemble");
            Block::new(block_num, chain.last_hash, txs, validation)?
        };
        let location = {
            let _s = self.tel.span("commit.append");
            self.blockfiles.append_block(&block)?
        };
        let (history, writes, tx_ids) = Self::collect_effects(&block);
        let tip = ChainTip {
            height: block_num + 1,
            last_hash: block.hash(),
        };
        {
            let _s = self.tel.span("commit.index");
            self.index
                .index_block(block_num, location, &history, &tx_ids, tip)?;
        }
        {
            let _s = self.tel.span("commit.statedb");
            self.state.apply(&writes)?;
        }
        *chain = tip;
        commit_span.record("txs", tx_count);
        IoStats::add(&self.stats.txs_committed, tx_count);
        IoStats::incr(&self.stats.blocks_committed);
        IoStats::add(&self.stats.events_committed, events);
        self.notify_commit(CommitEvent {
            block_num,
            tx_count: tx_count as usize,
            max_timestamp: block.txs.iter().map(|t| t.timestamp).max().unwrap_or(0),
        });
        Ok(block_num)
    }

    /// Commits are synchronous, so there is never anything to wait for;
    /// kept because the frozen `benchmark/src/sut.rs` calls it.
    pub fn drain_commits(&self) -> Result<()> {
        Ok(())
    }

    fn notify_commit(&self, event: CommitEvent) {
        let mut subs = self.subscribers.lock().unwrap_or_else(|e| e.into_inner());
        // Drop subscribers whose receiver has gone away.
        subs.retain(|tx| tx.send(event).is_ok());
    }

    /// Subscribe to block-commit events. Every block committed after this
    /// call produces one [`CommitEvent`] on the returned channel (unbounded;
    /// a slow consumer buffers, never blocks commits). Dropping the receiver
    /// unsubscribes.
    pub fn subscribe(&self) -> mpsc::Receiver<CommitEvent> {
        let (tx, rx) = mpsc::channel();
        self.subscribers
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(tx);
        rx
    }

    /// Number of committed blocks.
    pub fn height(&self) -> u64 {
        self.chain.lock().unwrap_or_else(|e| e.into_inner()).height
    }

    /// Hash of the latest block ([`Digest::ZERO`] pre-genesis).
    pub fn last_hash(&self) -> Digest {
        self.chain
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .last_hash
    }

    /// Transactions queued in the orderer but not yet in a block.
    pub fn pending_txs(&self) -> usize {
        self.cutter
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pending_len()
    }

    /// Fetch a committed block by number (cache-aware).
    pub fn get_block(&self, num: BlockNum) -> Result<Arc<Block>> {
        if let Some(cache) = &self.cache {
            if let Some(block) = cache.get(num) {
                IoStats::incr(&self.stats.cache_hits);
                self.tel.count("ledger.cache.hits", 1);
                return Ok(block);
            }
        }
        let location = self
            .index
            .block_location(num)?
            .ok_or_else(|| Error::NotFound(format!("block {num}")))?;
        let block = Arc::new(self.blockfiles.read_block(location)?);
        if let Some(cache) = &self.cache {
            cache.put(num, block.clone());
        }
        Ok(block)
    }

    /// `GetTransactionByID`: fetch a committed transaction and its
    /// position plus validation outcome. Deserializes the containing
    /// block.
    pub fn get_transaction(
        &self,
        id: &crate::tx::TxId,
    ) -> Result<Option<(Transaction, BlockNum, TxNum, ValidationCode)>> {
        let Some((block_num, tx_num)) = self.index.tx_location(id)? else {
            return Ok(None);
        };
        let block = self.get_block(block_num)?;
        let tx = block.txs.get(tx_num as usize).ok_or_else(|| {
            Error::NotFound(format!("tx {tx_num} in block {block_num} (index stale?)"))
        })?;
        Ok(Some((
            tx.clone(),
            block_num,
            tx_num,
            block.validation[tx_num as usize],
        )))
    }

    /// `GetState`: current state of `key`.
    pub fn get_state(&self, key: &[u8]) -> Result<Option<VersionedValue>> {
        IoStats::incr(&self.stats.get_state_calls);
        self.state.get(key)
    }

    /// `GetStateByRange`: current states with keys in `[start, end)`;
    /// `None` bounds are open.
    pub fn get_state_by_range(
        &self,
        start: Option<&[u8]>,
        end: Option<&[u8]>,
    ) -> Result<Vec<(Bytes, VersionedValue)>> {
        IoStats::incr(&self.stats.range_scan_calls);
        self.state.range(start, end)
    }

    /// `GetHistoryForKey`: a **lazy** iterator over all persisted states of
    /// `key`, oldest first. Blocks are deserialized one at a time as the
    /// iterator advances — stopping early skips the remaining blocks, which
    /// is precisely the behaviour the paper's Model M1 exploits.
    ///
    /// With [`LedgerConfig::coalesce_history`] on (the default) the
    /// iterator groups the key's history locations into per-block runs, so
    /// each block is read and decoded at most once per scan even when the
    /// key's entries revisit a block non-consecutively; without a block
    /// cache the run is fetched through the selective
    /// [`BlockFileManager::read_block_txs`] path, decoding only the txs
    /// the scan needs. Laziness is preserved run-by-run: a block is not
    /// touched until its first entry is consumed.
    pub fn get_history_for_key(&self, key: &[u8]) -> Result<HistoryIterator<'_>> {
        self.history_iterator(key, None)
    }

    /// Bounded variant of [`Ledger::get_history_for_key`]: skips history
    /// entries whose **recorded** transaction timestamp is `<= after_ts`.
    /// Entries with no recorded timestamp (pre-timestamp indexes) are kept,
    /// so the scan only ever skips entries it can prove are old. Because a
    /// transaction's timestamp is an upper bound on the event times it
    /// carries, a skipped entry cannot contribute an event later than
    /// `after_ts` — which makes this safe as the residual scan of a hybrid
    /// plan that already covered everything up to `after_ts` from an index.
    pub fn get_history_for_key_from(
        &self,
        key: &[u8],
        after_ts: Timestamp,
    ) -> Result<HistoryIterator<'_>> {
        self.history_iterator(key, Some(after_ts))
    }

    /// The key's history-index entries with their recorded transaction
    /// timestamps, oldest first. A pure index scan: no block files are
    /// touched and no [`IoStats`] query counter moves, so planners can call
    /// this freely to cost access paths before executing one.
    pub fn history_profile(&self, key: &[u8]) -> Result<Vec<crate::index::HistoryEntryMeta>> {
        self.index.history_profile(key)
    }

    fn history_iterator(
        &self,
        key: &[u8],
        after_ts: Option<Timestamp>,
    ) -> Result<HistoryIterator<'_>> {
        IoStats::incr(&self.stats.ghfk_calls);
        // The span lives inside the iterator: per-block deserialize spans
        // nest under it for as long as the cursor is alive, so a trace
        // shows exactly which blocks each GHFK call paid for.
        let span = self
            .tel
            .span("ghfk")
            .with_label(String::from_utf8_lossy(key).into_owned());
        let locations: Vec<HistoryLocation> = match after_ts {
            None => self.index.history_locations(key)?,
            Some(bound) => self
                .index
                .history_profile(key)?
                .into_iter()
                .filter(|e| match e.timestamp {
                    Some(ts) => ts > bound,
                    None => true,
                })
                .map(|e| e.location)
                .collect(),
        };
        let remaining = locations.len();
        let mut blocks_hint = 0usize;
        let mut prev_block = None;
        for loc in &locations {
            if prev_block != Some(loc.block_num) {
                blocks_hint += 1;
                prev_block = Some(loc.block_num);
            }
        }
        let source = if self.coalesce_history {
            let mut runs: Vec<(BlockNum, Vec<TxNum>)> = Vec::new();
            for loc in locations {
                match runs.last_mut() {
                    Some((num, txs)) if *num == loc.block_num => txs.push(loc.tx_num),
                    _ => runs.push((loc.block_num, vec![loc.tx_num])),
                }
            }
            HistorySource::Coalesced {
                runs: runs.into_iter(),
                pending: VecDeque::new(),
            }
        } else {
            HistorySource::PerLocation {
                locations: locations.into_iter(),
                current_block: None,
            }
        };
        Ok(HistoryIterator {
            ledger: self,
            key: Bytes::copy_from_slice(key),
            source,
            remaining,
            blocks_hint,
            span,
        })
    }

    /// Direct access to the state database (used by index-maintenance code
    /// that must bypass call counting).
    pub fn state_db(&self) -> &StateDb {
        &self.state
    }

    /// Walk the whole chain verifying the prev-hash links and per-block
    /// data hashes. Returns the tip hash on success.
    pub fn verify_chain(&self) -> Result<Digest> {
        let height = self.height();
        let mut prev = Digest::ZERO;
        for num in 0..height {
            let block = self.get_block(num)?;
            if block.header.number != num {
                return Err(Error::corruption(
                    self.dir.join("blocks"),
                    format!("block {num} stored with number {}", block.header.number),
                ));
            }
            if block.header.prev_hash != prev {
                return Err(Error::corruption(
                    self.dir.join("blocks"),
                    format!("block {num} breaks the hash chain"),
                ));
            }
            // The read path uses trusted decode (frame CRC only); this
            // audit recomputes the full hash tree: every tx id and the
            // block data hash.
            for tx in &block.txs {
                let recoded = Transaction::decode(&tx.encode()).map_err(|e| {
                    Error::corruption(
                        self.dir.join("blocks"),
                        format!("block {num} holds a tx with a bad id: {e}"),
                    )
                })?;
                debug_assert_eq!(recoded.id, tx.id);
            }
            if Block::compute_data_hash(&block.txs) != block.header.data_hash {
                return Err(Error::corruption(
                    self.dir.join("blocks"),
                    format!("block {num} data hash mismatch"),
                ));
            }
            prev = block.hash();
        }
        Ok(prev)
    }

    /// Shared I/O statistics.
    pub fn stats(&self) -> IoStatsSnapshot {
        self.stats.snapshot()
    }

    /// The shared stats handle (for components that record their own
    /// counters against this ledger).
    pub fn stats_handle(&self) -> Arc<IoStats> {
        self.stats.clone()
    }

    /// The telemetry handle shared by the block files, index store and
    /// state store. Enable it to record spans/histograms across the stack.
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// Refresh occupancy gauges on the shared telemetry registry: chain
    /// height, block-cache residency and the storage shape (SSTable count,
    /// WAL bytes, memtable occupancy) of the state and index stores. Cheap
    /// enough to call on every metrics scrape.
    pub fn publish_gauges(&self) {
        let reg = self.tel.registry();
        reg.gauge("ledger.height").set(self.height() as i64);
        if let Some(cache) = &self.cache {
            let stats = cache.stats();
            reg.gauge("ledger.cache.blocks")
                .set(stats.total.blocks as i64);
            reg.gauge("ledger.cache.hit_total")
                .set(stats.total.hits as i64);
            reg.gauge("ledger.cache.miss_total")
                .set(stats.total.misses as i64);
            reg.gauge("ledger.cache.eviction_total")
                .set(stats.total.evictions as i64);
            reg.gauge("ledger.cache.shards")
                .set(stats.shards.len() as i64);
            for (i, shard) in stats.shards.iter().enumerate() {
                let set = |metric: &str, v: u64| {
                    reg.gauge_owned(format!("ledger.cache.shard{i}.{metric}"))
                        .set(v as i64)
                };
                set("blocks", shard.blocks);
                set("hits", shard.hits);
                set("misses", shard.misses);
                set("evictions", shard.evictions);
            }
        }
        let set = |name: &'static str, v: u64| reg.gauge(name).set(v as i64);
        let state = self.state.store().storage_stats();
        set("statedb.sstables", state.sstables);
        set("statedb.wal_bytes", state.wal_bytes);
        set("statedb.memtable_entries", state.memtable_entries);
        set("statedb.memtable_bytes", state.memtable_bytes);
        let index = self.index.store().storage_stats();
        set("indexdb.sstables", index.sstables);
        set("indexdb.wal_bytes", index.wal_bytes);
        set("indexdb.memtable_entries", index.memtable_entries);
        set("indexdb.memtable_bytes", index.memtable_bytes);
        // Per-backend shape: which engine hosts each store (0 = lsm,
        // 1 = log) and the value-log occupancy counters. The log gauges
        // read zero on LSM-backed stores, so scrapes see a stable set of
        // series regardless of backend.
        reg.gauge("statedb.kv.backend")
            .set(state.backend.as_gauge());
        set("statedb.kv.log.data_files", state.data_files);
        set("statedb.kv.log.uncompacted_bytes", state.uncompacted_bytes);
        set("statedb.kv.log.compactions", state.compactions);
        reg.gauge("indexdb.kv.backend")
            .set(index.backend.as_gauge());
        set("indexdb.kv.log.data_files", index.data_files);
        set("indexdb.kv.log.uncompacted_bytes", index.uncompacted_bytes);
        set("indexdb.kv.log.compactions", index.compactions);
        // Write-path shape: the fsync count per store is the headline
        // durability cost.
        set(
            "statedb.wal_fsyncs",
            self.state.store().metrics().wal_fsyncs,
        );
        set(
            "indexdb.wal_fsyncs",
            self.index.store().metrics().wal_fsyncs,
        );
        // Process-level memory: RSS from /proc plus counting-allocator
        // totals (zero when the binary runs on the system allocator).
        fabric_telemetry::alloc::publish_memory_gauges(&self.tel);
    }

    /// Flush state and index stores (clean shutdown aid; the block files
    /// are append-only and always consistent up to the last full frame).
    pub fn flush_stores(&self) -> Result<()> {
        self.index.flush()?;
        self.state.flush()?;
        Ok(())
    }

    /// Write a consistent, openable backup of the whole ledger into
    /// `dest`. The index and state stores are checkpointed FIRST, then the
    /// append-only block files are copied: opening the backup re-runs
    /// recovery, which re-indexes any blocks committed between the two
    /// steps, so a backup taken against a live ledger is still consistent.
    pub fn backup(&self, dest: impl Into<PathBuf>) -> Result<()> {
        let dest = dest.into();
        if dest.join("blocks").exists() {
            return Err(Error::InvalidArgument(format!(
                "backup destination {} already holds a ledger",
                dest.display()
            )));
        }
        let blocks_dest = dest.join("blocks");
        std::fs::create_dir_all(&blocks_dest)
            .map_err(|e| Error::io("creating backup dir".to_string(), e))?;
        self.index.checkpoint(dest.join("index"))?;
        self.state.checkpoint(dest.join("state"))?;
        for entry in std::fs::read_dir(self.blockfiles.dir())
            .map_err(|e| Error::io("listing block files".to_string(), e))?
        {
            let entry = entry.map_err(|e| Error::io("reading block dir".to_string(), e))?;
            if entry
                .file_name()
                .to_str()
                .is_some_and(|n| n.starts_with("blockfile_"))
            {
                std::fs::copy(entry.path(), blocks_dest.join(entry.file_name()))
                    .map_err(|e| Error::io("copying block file".to_string(), e))?;
            }
        }
        Ok(())
    }

    /// Root directory of this ledger.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// One historical state of a key, as yielded by
/// [`Ledger::get_history_for_key`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoricalState {
    /// The value written; `None` when the write was a delete.
    pub value: Option<Bytes>,
    /// Timestamp of the writing transaction.
    pub timestamp: Timestamp,
    /// Block that committed the write.
    pub block_num: BlockNum,
    /// Transaction index within the block.
    pub tx_num: TxNum,
}

/// Where the iterator draws its entries from.
enum HistorySource {
    /// Seed read path: one index location at a time, reusing the last
    /// fetched block only across *consecutive* same-block entries.
    PerLocation {
        locations: std::vec::IntoIter<HistoryLocation>,
        /// The most recently deserialized block, reused while consecutive
        /// history entries fall in the same block.
        current_block: Option<(BlockNum, Arc<Block>)>,
    },
    /// Coalesced read path: locations grouped into per-block runs; each
    /// block is fetched exactly once, when its first entry is consumed.
    Coalesced {
        runs: std::vec::IntoIter<(BlockNum, Vec<TxNum>)>,
        /// Entries of the current run, already extracted from the block.
        pending: VecDeque<HistoricalState>,
    },
}

/// Lazy history cursor: deserializes blocks only as entries are consumed.
pub struct HistoryIterator<'l> {
    ledger: &'l Ledger,
    key: Bytes,
    source: HistorySource,
    /// Entries not yet yielded.
    remaining: usize,
    /// Distinct blocks the full scan would touch (fixed at construction).
    blocks_hint: usize,
    /// Open `ghfk` span; per-block `block.deserialize` spans nest under
    /// it until the iterator is dropped. Each consumed entry bumps the
    /// span's `entries` metric.
    span: SpanGuard,
}

fn stale_index_error(block_num: BlockNum, tx_num: TxNum) -> Error {
    Error::NotFound(format!(
        "tx {tx_num} in block {block_num} (history index stale?)"
    ))
}

/// Project one transaction onto `key`'s historical state.
fn state_from_tx(
    key: &Bytes,
    tx: &Transaction,
    block_num: BlockNum,
    tx_num: TxNum,
) -> Result<HistoricalState> {
    let write = tx.writes.iter().find(|w| w.key == *key).ok_or_else(|| {
        Error::NotFound(format!(
            "write for key {:?} in block {} tx {}",
            String::from_utf8_lossy(key),
            block_num,
            tx_num
        ))
    })?;
    Ok(HistoricalState {
        value: write.value.clone(),
        timestamp: tx.timestamp,
        block_num,
        tx_num,
    })
}

impl<'l> HistoryIterator<'l> {
    /// Next historical state, oldest first.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<HistoricalState>> {
        let ledger = self.ledger;
        let key = &self.key;
        let state = match &mut self.source {
            HistorySource::PerLocation {
                locations,
                current_block,
            } => {
                let Some(loc) = locations.next() else {
                    return Ok(None);
                };
                let block = match current_block {
                    Some((num, block)) if *num == loc.block_num => block.clone(),
                    _ => {
                        let block = ledger.get_block(loc.block_num)?;
                        *current_block = Some((loc.block_num, block.clone()));
                        block
                    }
                };
                let tx = block
                    .txs
                    .get(loc.tx_num as usize)
                    .ok_or_else(|| stale_index_error(loc.block_num, loc.tx_num))?;
                state_from_tx(key, tx, loc.block_num, loc.tx_num)?
            }
            HistorySource::Coalesced { runs, pending } => {
                while pending.is_empty() {
                    let Some((block_num, tx_nums)) = runs.next() else {
                        return Ok(None);
                    };
                    if ledger.cache.is_some() {
                        // Cached path: fetch (or reuse) the whole block so
                        // the cache can serve later scans.
                        let block = ledger.get_block(block_num)?;
                        for &t in &tx_nums {
                            let tx = block
                                .txs
                                .get(t as usize)
                                .ok_or_else(|| stale_index_error(block_num, t))?;
                            pending.push_back(state_from_tx(key, tx, block_num, t)?);
                        }
                    } else {
                        // Uncached path: selective decode of just this
                        // run's txs through the block's offset table.
                        let location = ledger
                            .index
                            .block_location(block_num)?
                            .ok_or_else(|| Error::NotFound(format!("block {block_num}")))?;
                        let partial = ledger.blockfiles.read_block_txs(location, &tx_nums)?;
                        for (t, tx) in &partial.txs {
                            pending.push_back(state_from_tx(key, tx, block_num, *t)?);
                        }
                    }
                }
                pending.pop_front().expect("pending run is non-empty")
            }
        };
        self.span.record("entries", 1);
        self.remaining = self.remaining.saturating_sub(1);
        Ok(Some(state))
    }

    /// Drain the remaining history into a vector.
    pub fn collect_all(mut self) -> Result<Vec<HistoricalState>> {
        let mut out = Vec::new();
        while let Some(state) = self.next()? {
            out.push(state);
        }
        Ok(out)
    }

    /// How many history entries remain (index entries, not blocks).
    pub fn remaining_hint(&self) -> usize {
        self.remaining
    }

    /// How many **distinct blocks** the full scan would deserialize at
    /// most, fixed at construction. A tighter planning bound than
    /// [`HistoryIterator::remaining_hint`] whenever a block holds several
    /// of the key's writes.
    pub fn blocks_hint(&self) -> usize {
        self.blocks_hint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockfile::BlockLocation;
    use crate::tx::{KvRead, KvWrite};

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let p = std::env::temp_dir().join(format!(
                "ledger-test-{}-{tag}-{:?}",
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

    fn put_tx(ts: u64, key: &str, value: &str) -> Transaction {
        Transaction::new(
            ts,
            vec![],
            vec![KvWrite {
                key: Bytes::copy_from_slice(key.as_bytes()),
                value: Some(Bytes::copy_from_slice(value.as_bytes())),
            }],
        )
        .unwrap()
    }

    fn open(dir: &TempDir) -> Ledger {
        Ledger::open(&dir.0, LedgerConfig::small_for_tests()).unwrap()
    }

    #[test]
    fn submit_commits_blocks_at_batch_size() {
        let dir = TempDir::new("batch");
        let ledger = open(&dir); // block_max_txs = 3
        assert!(ledger.submit(put_tx(1, "a", "1")).unwrap().is_empty());
        assert!(ledger.submit(put_tx(2, "b", "2")).unwrap().is_empty());
        let committed = ledger.submit(put_tx(3, "c", "3")).unwrap();
        assert_eq!(committed, vec![0]);
        assert_eq!(ledger.height(), 1);
        assert_eq!(ledger.pending_txs(), 0);
        // A returned block number means applied: state and history serve
        // the write at once, with nothing to wait for.
        assert_eq!(
            ledger.get_state(b"c").unwrap().unwrap().version.block_num,
            0
        );
        let history = ledger.get_history_for_key(b"c").unwrap();
        assert_eq!(history.collect_all().unwrap().len(), 1);
    }

    #[test]
    fn cut_block_flushes_partial_batch() {
        let dir = TempDir::new("cut");
        let ledger = open(&dir);
        ledger.submit(put_tx(1, "a", "1")).unwrap();
        assert_eq!(ledger.height(), 0);
        assert_eq!(ledger.cut_block().unwrap(), Some(0));
        assert_eq!(ledger.height(), 1);
        assert_eq!(ledger.cut_block().unwrap(), None);
    }

    #[test]
    fn state_reflects_committed_writes_only() {
        let dir = TempDir::new("state");
        let ledger = open(&dir);
        ledger.submit(put_tx(1, "k", "v")).unwrap();
        // Still pending: not visible.
        assert!(ledger.get_state(b"k").unwrap().is_none());
        ledger.cut_block().unwrap();
        let vv = ledger.get_state(b"k").unwrap().unwrap();
        assert_eq!(vv.value, Bytes::from_static(b"v"));
        assert_eq!(vv.version.block_num, 0);
    }

    #[test]
    fn history_returns_all_states_oldest_first() {
        let dir = TempDir::new("history");
        let ledger = open(&dir);
        for (ts, v) in [(10, "v1"), (20, "v2"), (30, "v3"), (40, "v4")] {
            ledger.submit(put_tx(ts, "k", v)).unwrap();
        }
        ledger.cut_block().unwrap();
        let history = ledger
            .get_history_for_key(b"k")
            .unwrap()
            .collect_all()
            .unwrap();
        assert_eq!(history.len(), 4);
        let values: Vec<&[u8]> = history
            .iter()
            .map(|h| h.value.as_deref().unwrap())
            .collect();
        assert_eq!(values, vec![b"v1", b"v2", b"v3", b"v4"]);
        let stamps: Vec<u64> = history.iter().map(|h| h.timestamp).collect();
        assert_eq!(stamps, vec![10, 20, 30, 40]);
    }

    #[test]
    fn lazy_history_deserializes_only_touched_blocks() {
        let dir = TempDir::new("lazy");
        let ledger = open(&dir); // 3 txs per block
        for i in 0..9 {
            ledger.submit(put_tx(i, "k", &format!("v{i}"))).unwrap();
        }
        assert_eq!(ledger.height(), 3);
        let before = ledger.stats();
        let mut iter = ledger.get_history_for_key(b"k").unwrap();
        // Consume only the first entry: exactly one block deserialized.
        let first = iter.next().unwrap().unwrap();
        assert_eq!(first.value.as_deref(), Some(&b"v0"[..]));
        let after = ledger.stats();
        assert_eq!(after.delta(&before).blocks_deserialized, 1);
        assert_eq!(after.delta(&before).ghfk_calls, 1);
        // Consuming the rest touches the other two blocks.
        while iter.next().unwrap().is_some() {}
        let done = ledger.stats();
        assert_eq!(done.delta(&before).blocks_deserialized, 3);
    }

    #[test]
    fn history_reuses_block_across_entries_in_same_block() {
        let dir = TempDir::new("reuse");
        let ledger = open(&dir);
        // Three txs writing the SAME key land in one block (batch size 3).
        for i in 0..3 {
            ledger.submit(put_tx(i, "k", &format!("v{i}"))).unwrap();
        }
        assert_eq!(ledger.height(), 1);
        let before = ledger.stats();
        let history = ledger
            .get_history_for_key(b"k")
            .unwrap()
            .collect_all()
            .unwrap();
        assert_eq!(history.len(), 3);
        assert_eq!(ledger.stats().delta(&before).blocks_deserialized, 1);
    }

    #[test]
    fn mvcc_conflict_invalidates_tx() {
        let dir = TempDir::new("mvcc");
        let ledger = Ledger::open_with_telemetry(
            &dir.0,
            LedgerConfig::small_for_tests(),
            Telemetry::enabled(),
        )
        .unwrap();
        ledger.submit(put_tx(1, "k", "v0")).unwrap();
        ledger.cut_block().unwrap();
        let v0 = ledger.get_state(b"k").unwrap().unwrap().version;
        // Two txs read version v0 and write; the second must conflict.
        let read = KvRead {
            key: Bytes::from_static(b"k"),
            version: Some(v0),
        };
        let t1 = Transaction::new(
            2,
            vec![read.clone()],
            vec![KvWrite {
                key: Bytes::from_static(b"k"),
                value: Some(Bytes::from_static(b"first")),
            }],
        )
        .unwrap();
        let t2 = Transaction::new(
            3,
            vec![read],
            vec![KvWrite {
                key: Bytes::from_static(b"k"),
                value: Some(Bytes::from_static(b"second")),
            }],
        )
        .unwrap();
        ledger.submit(t1).unwrap();
        ledger.submit(t2).unwrap();
        ledger.cut_block().unwrap();
        // First write won; second was invalidated.
        assert_eq!(
            ledger.get_state(b"k").unwrap().unwrap().value,
            Bytes::from_static(b"first")
        );
        let block = ledger.get_block(1).unwrap();
        assert_eq!(block.validation[0], ValidationCode::Valid);
        assert_eq!(block.validation[1], ValidationCode::MvccConflict);
        // Invalid tx must not appear in history.
        let history = ledger
            .get_history_for_key(b"k")
            .unwrap()
            .collect_all()
            .unwrap();
        assert_eq!(history.len(), 2); // v0 + "first"
        let snap = ledger.telemetry().snapshot();
        assert_eq!(snap.counter("commit.validate.txs"), 3);
        assert_eq!(snap.counter("commit.validate.conflicts"), 1);
    }

    #[test]
    fn reopen_preserves_chain_and_state() {
        let dir = TempDir::new("reopen");
        let tip;
        {
            let ledger = open(&dir);
            for i in 0..7 {
                ledger.submit(put_tx(i, &format!("key{i}"), "v")).unwrap();
            }
            ledger.cut_block().unwrap();
            tip = (ledger.height(), ledger.last_hash());
            ledger.flush_stores().unwrap();
        }
        let ledger = open(&dir);
        assert_eq!((ledger.height(), ledger.last_hash()), tip);
        assert!(ledger.get_state(b"key3").unwrap().is_some());
        ledger.verify_chain().unwrap();
    }

    #[test]
    fn verify_chain_passes_on_clean_ledger() {
        let dir = TempDir::new("verify");
        let ledger = open(&dir);
        for i in 0..12 {
            ledger
                .submit(put_tx(i, &format!("k{}", i % 4), &format!("v{i}")))
                .unwrap();
        }
        ledger.cut_block().unwrap();
        let tip = ledger.verify_chain().unwrap();
        assert_eq!(tip, ledger.last_hash());
    }

    #[test]
    fn missing_block_is_not_found() {
        let dir = TempDir::new("missing");
        let ledger = open(&dir);
        assert!(matches!(ledger.get_block(99), Err(Error::NotFound(_))));
    }

    #[test]
    fn delete_removes_from_state_but_stays_in_history() {
        let dir = TempDir::new("delete");
        let ledger = open(&dir);
        ledger.submit(put_tx(1, "k", "v")).unwrap();
        let del = Transaction::new(
            2,
            vec![],
            vec![KvWrite {
                key: Bytes::from_static(b"k"),
                value: None,
            }],
        )
        .unwrap();
        ledger.submit(del).unwrap();
        ledger.cut_block().unwrap();
        assert!(ledger.get_state(b"k").unwrap().is_none());
        let history = ledger
            .get_history_for_key(b"k")
            .unwrap()
            .collect_all()
            .unwrap();
        assert_eq!(history.len(), 2);
        assert!(history[1].value.is_none());
    }

    #[test]
    fn cache_serves_repeat_reads_without_deserializing() {
        let dir = TempDir::new("cache");
        let config = LedgerConfig::small_for_tests().with_cache_blocks(8);
        let ledger = Ledger::open(&dir.0, config).unwrap();
        for i in 0..3 {
            ledger.submit(put_tx(i, "k", &format!("v{i}"))).unwrap();
        }
        let before = ledger.stats();
        ledger
            .get_history_for_key(b"k")
            .unwrap()
            .collect_all()
            .unwrap();
        ledger
            .get_history_for_key(b"k")
            .unwrap()
            .collect_all()
            .unwrap();
        let d = ledger.stats().delta(&before);
        assert_eq!(d.blocks_deserialized, 1, "second read should hit cache");
        assert!(d.cache_hits >= 1);
    }

    #[test]
    fn get_transaction_by_id() {
        let dir = TempDir::new("txid");
        let ledger = open(&dir);
        let tx = put_tx(5, "k", "v");
        let id = tx.id;
        ledger.submit(tx).unwrap();
        ledger.cut_block().unwrap();
        let (found, block_num, tx_num, code) =
            ledger.get_transaction(&id).unwrap().expect("tx indexed");
        assert_eq!(found.id, id);
        assert_eq!((block_num, tx_num), (0, 0));
        assert_eq!(code, ValidationCode::Valid);
        // Unknown id → None.
        let ghost = put_tx(99, "ghost", "x");
        assert!(ledger.get_transaction(&ghost.id).unwrap().is_none());
    }

    #[test]
    fn get_transaction_reports_invalid_code() {
        let dir = TempDir::new("txid-invalid");
        let ledger = open(&dir);
        ledger.submit(put_tx(1, "k", "v0")).unwrap();
        ledger.cut_block().unwrap();
        let v0 = ledger.get_state(b"k").unwrap().unwrap().version;
        let read = KvRead {
            key: Bytes::from_static(b"k"),
            version: Some(v0),
        };
        let t1 = Transaction::new(
            2,
            vec![read.clone()],
            vec![KvWrite {
                key: Bytes::from_static(b"k"),
                value: Some(Bytes::from_static(b"a")),
            }],
        )
        .unwrap();
        let t2 = Transaction::new(
            3,
            vec![read],
            vec![KvWrite {
                key: Bytes::from_static(b"k"),
                value: Some(Bytes::from_static(b"b")),
            }],
        )
        .unwrap();
        let id2 = t2.id;
        ledger.submit(t1).unwrap();
        ledger.submit(t2).unwrap();
        ledger.cut_block().unwrap();
        let (_, _, _, code) = ledger.get_transaction(&id2).unwrap().unwrap();
        assert_eq!(code, ValidationCode::MvccConflict);
    }

    #[test]
    fn subscribers_receive_commit_events() {
        let dir = TempDir::new("subscribe");
        let ledger = open(&dir); // batch size 3
        let rx = ledger.subscribe();
        for i in 0..6 {
            ledger
                .submit(put_tx(i * 10, &format!("k{i}"), "v"))
                .unwrap();
        }
        ledger.submit(put_tx(100, "last", "v")).unwrap();
        ledger.cut_block().unwrap();
        let events: Vec<CommitEvent> = rx.try_iter().collect();
        assert_eq!(events.len(), 3, "two full blocks + one forced cut");
        assert_eq!(events[0].block_num, 0);
        assert_eq!(events[0].tx_count, 3);
        assert_eq!(events[0].max_timestamp, 20);
        assert_eq!(events[2].tx_count, 1);
        assert_eq!(events[2].max_timestamp, 100);
    }

    #[test]
    fn dropped_subscriber_does_not_block_commits() {
        let dir = TempDir::new("unsubscribe");
        let ledger = open(&dir);
        let rx = ledger.subscribe();
        drop(rx);
        for i in 0..4 {
            ledger.submit(put_tx(i, &format!("k{i}"), "v")).unwrap();
        }
        ledger.cut_block().unwrap();
        assert_eq!(ledger.height(), 2);
    }

    #[test]
    fn publish_gauges_reports_height_cache_and_storage_shape() {
        let dir = TempDir::new("gauges");
        let tel = Telemetry::enabled();
        let config = LedgerConfig::small_for_tests().with_cache_blocks(8);
        let ledger = Ledger::open_with_telemetry(&dir.0, config, tel.clone()).unwrap();
        for i in 0..6 {
            ledger.submit(put_tx(i, "k", &format!("v{i}"))).unwrap();
        }
        // Warm the block cache so the residency gauge is non-zero.
        ledger.get_block(1).unwrap();
        ledger.publish_gauges();
        let snap = tel.snapshot();
        assert_eq!(snap.gauge("ledger.height"), Some(2));
        assert!(snap.gauge("ledger.cache.blocks").unwrap_or(0) >= 1);
        for name in [
            "statedb.sstables",
            "statedb.wal_bytes",
            "statedb.memtable_entries",
            "statedb.memtable_bytes",
            "indexdb.sstables",
            "indexdb.wal_bytes",
            "indexdb.memtable_entries",
            "indexdb.memtable_bytes",
        ] {
            assert!(snap.gauge(name).is_some(), "missing gauge {name}");
        }
        // Commits wrote through both stores' WALs.
        assert!(snap.gauge("statedb.wal_bytes").unwrap() > 0);
        assert!(snap.gauge("indexdb.wal_bytes").unwrap() > 0);
    }

    #[test]
    fn telemetry_nests_block_deserialize_under_ghfk() {
        let dir = TempDir::new("tel-ghfk");
        let tel = Telemetry::enabled();
        let ledger =
            Ledger::open_with_telemetry(&dir.0, LedgerConfig::small_for_tests(), tel.clone())
                .unwrap();
        for i in 0..9 {
            ledger.submit(put_tx(i, "k", &format!("v{i}"))).unwrap();
        }
        assert_eq!(ledger.height(), 3);
        tel.reset();
        let before = ledger.stats();
        ledger
            .get_history_for_key(b"k")
            .unwrap()
            .collect_all()
            .unwrap();
        let deserialized = ledger.stats().delta(&before).blocks_deserialized;
        assert_eq!(deserialized, 3);
        let tree = tel.span_tree();
        let ghfk: Vec<_> = tree.iter().filter(|n| n.record.name == "ghfk").collect();
        assert_eq!(ghfk.len(), 1, "one root ghfk span, got: {tree:?}");
        assert_eq!(ghfk[0].record.label.as_deref(), Some("k"));
        assert_eq!(ghfk[0].count_named("block.deserialize"), 3);
        assert_eq!(ghfk[0].record.metric("entries"), Some(9));
        // The registry counter tracks IoStats exactly.
        assert_eq!(
            tel.snapshot().counter("ledger.blocks.deserialized"),
            deserialized
        );
    }

    #[test]
    fn telemetry_records_commit_pipeline_phases() {
        let dir = TempDir::new("tel-commit");
        let tel = Telemetry::enabled();
        let ledger =
            Ledger::open_with_telemetry(&dir.0, LedgerConfig::small_for_tests(), tel.clone())
                .unwrap();
        for i in 0..3 {
            ledger.submit(put_tx(i, &format!("k{i}"), "v")).unwrap();
        }
        assert_eq!(ledger.height(), 1);
        let tree = tel.span_tree();
        let commit = tree
            .iter()
            .find(|n| n.record.name == "ledger.commit")
            .expect("commit span");
        assert_eq!(commit.record.metric("txs"), Some(3));
        for phase in [
            "commit.mvcc_validate",
            "commit.assemble",
            "commit.append",
            "commit.index",
            "commit.statedb",
        ] {
            assert_eq!(commit.count_named(phase), 1, "missing {phase}");
        }
        // The shared handle reaches the underlying kvstores too: a commit
        // writes both the index and state stores through their WALs.
        assert!(tel.snapshot().histogram("kv.wal.append").is_some());
    }

    #[test]
    fn disabled_telemetry_ledger_records_nothing() {
        let dir = TempDir::new("tel-off");
        let ledger = open(&dir);
        for i in 0..3 {
            ledger.submit(put_tx(i, "k", &format!("v{i}"))).unwrap();
        }
        ledger
            .get_history_for_key(b"k")
            .unwrap()
            .collect_all()
            .unwrap();
        assert!(ledger.telemetry().drain_spans().is_empty());
        // Disabled telemetry records no values.
        let snap = ledger.telemetry().snapshot();
        assert!(snap.counters.iter().all(|(_, v)| *v == 0), "{snap:?}");
    }

    #[test]
    fn failed_block_read_does_not_record_a_deserialize_span() {
        let dir = TempDir::new("tel-corrupt");
        let tel = Telemetry::enabled();
        {
            let ledger =
                Ledger::open_with_telemetry(&dir.0, LedgerConfig::small_for_tests(), tel.clone())
                    .unwrap();
            for i in 0..3 {
                ledger.submit(put_tx(i, "k", &format!("v{i}"))).unwrap();
            }
            ledger.flush_stores().unwrap();
        }
        // Flip a payload byte in the only block file.
        let path = dir.0.join("blocks").join("blockfile_000000");
        let mut data = std::fs::read(&path).unwrap();
        let n = data.len();
        data[n - 5] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        let stats = IoStats::new_shared();
        let mgr = BlockFileManager::open_with_telemetry(
            dir.0.join("blocks"),
            1 << 20,
            stats.clone(),
            tel.clone(),
        )
        .unwrap();
        tel.reset();
        let loc = BlockLocation {
            file_num: 0,
            offset: 0,
            len: n as u32,
        };
        assert!(mgr.read_block(loc).is_err());
        let spans = tel.drain_spans();
        assert!(
            spans.iter().all(|s| s.name != "block.deserialize"),
            "failed read must not count: {spans:?}"
        );
        assert_eq!(stats.snapshot().blocks_deserialized, 0);
        assert_eq!(tel.snapshot().counter("ledger.blocks.deserialized"), 0);
    }

    #[test]
    fn coalescing_off_returns_identical_history() {
        let dir_on = TempDir::new("coalesce-on");
        let dir_off = TempDir::new("coalesce-off");
        let on = Ledger::open(&dir_on.0, LedgerConfig::small_for_tests()).unwrap();
        let off = Ledger::open(
            &dir_off.0,
            LedgerConfig::small_for_tests().with_coalesce_history(false),
        )
        .unwrap();
        // Interleave three keys so blocks hold a mix of txs.
        for ledger in [&on, &off] {
            for i in 0..12u64 {
                let key = ["a", "b", "c"][(i % 3) as usize];
                ledger.submit(put_tx(i, key, &format!("v{i}"))).unwrap();
            }
            ledger.cut_block().unwrap();
        }
        for key in [b"a".as_slice(), b"b", b"c"] {
            let h_on = on.get_history_for_key(key).unwrap().collect_all().unwrap();
            let h_off = off.get_history_for_key(key).unwrap().collect_all().unwrap();
            assert_eq!(h_on, h_off, "key {:?}", String::from_utf8_lossy(key));
            assert_eq!(h_on.len(), 4);
        }
        // A single scan touches each block once either way: coalescing
        // never changes the paper's blocks_deserialized for one pass.
        let b_on = on.stats();
        let b_off = off.stats();
        on.get_history_for_key(b"a").unwrap().collect_all().unwrap();
        off.get_history_for_key(b"a")
            .unwrap()
            .collect_all()
            .unwrap();
        assert_eq!(
            on.stats().delta(&b_on).blocks_deserialized,
            off.stats().delta(&b_off).blocks_deserialized
        );
    }

    #[test]
    fn selective_decode_skips_unrelated_txs() {
        let dir_on = TempDir::new("selective-on");
        let dir_off = TempDir::new("selective-off");
        let on = Ledger::open(&dir_on.0, LedgerConfig::small_for_tests()).unwrap();
        let off = Ledger::open(
            &dir_off.0,
            LedgerConfig::small_for_tests().with_coalesce_history(false),
        )
        .unwrap();
        // Each block (3 txs) holds exactly one tx for key "a".
        for ledger in [&on, &off] {
            for i in 0..12u64 {
                let key = ["a", "b", "c"][(i % 3) as usize];
                ledger.submit(put_tx(i, key, &format!("v{i}"))).unwrap();
            }
            ledger.cut_block().unwrap();
        }
        let before = on.stats();
        on.get_history_for_key(b"a").unwrap().collect_all().unwrap();
        let d = on.stats().delta(&before);
        assert_eq!(d.blocks_deserialized, 4);
        assert_eq!(d.txs_decoded, 4, "only key-a txs decoded");
        let before = off.stats();
        off.get_history_for_key(b"a")
            .unwrap()
            .collect_all()
            .unwrap();
        let d = off.stats().delta(&before);
        assert_eq!(d.blocks_deserialized, 4);
        assert_eq!(d.txs_decoded, 12, "per-location path decodes full blocks");
    }

    #[test]
    fn coalesced_cached_ghfk_reduces_blocks_vs_seed_path() {
        // The acceptance-criteria ablation, as a test: repeated GHFK scans
        // with the overhaul on (coalescing + sharded cache) deserialize
        // fewer blocks than the seed read path, with identical results.
        let dir_seed = TempDir::new("overhaul-seed");
        let dir_new = TempDir::new("overhaul-new");
        let seed = Ledger::open(
            &dir_seed.0,
            LedgerConfig::small_for_tests().with_coalesce_history(false),
        )
        .unwrap();
        let new = Ledger::open(
            &dir_new.0,
            LedgerConfig::small_for_tests().with_cache_blocks(64),
        )
        .unwrap();
        for ledger in [&seed, &new] {
            for i in 0..18u64 {
                ledger.submit(put_tx(i, "k", &format!("v{i}"))).unwrap();
            }
            ledger.cut_block().unwrap();
        }
        let (b_seed, b_new) = (seed.stats(), new.stats());
        let mut h_seed = Vec::new();
        let mut h_new = Vec::new();
        for _ in 0..3 {
            h_seed = seed
                .get_history_for_key(b"k")
                .unwrap()
                .collect_all()
                .unwrap();
            h_new = new
                .get_history_for_key(b"k")
                .unwrap()
                .collect_all()
                .unwrap();
        }
        assert_eq!(h_seed, h_new, "results must be bit-identical");
        assert_eq!(h_new.len(), 18);
        let d_seed = seed.stats().delta(&b_seed);
        let d_new = new.stats().delta(&b_new);
        // Seed: 6 blocks × 3 scans. Overhaul: 6 blocks once, then cache.
        assert_eq!(d_seed.blocks_deserialized, 18);
        assert_eq!(d_new.blocks_deserialized, 6);
        assert!(d_new.cache_hits >= 12);
    }

    #[test]
    fn remaining_hint_tracks_consumption() {
        let dir = TempDir::new("hint");
        let ledger = open(&dir);
        for i in 0..5u64 {
            ledger.submit(put_tx(i, "k", &format!("v{i}"))).unwrap();
        }
        ledger.cut_block().unwrap();
        let mut iter = ledger.get_history_for_key(b"k").unwrap();
        assert_eq!(iter.remaining_hint(), 5);
        iter.next().unwrap().unwrap();
        assert_eq!(iter.remaining_hint(), 4);
        while iter.next().unwrap().is_some() {}
        assert_eq!(iter.remaining_hint(), 0);
    }

    #[test]
    fn publish_gauges_exports_cache_shard_counters() {
        let dir = TempDir::new("gauges-shards");
        let tel = Telemetry::enabled();
        // 32 blocks is the smallest capacity that derives two shards.
        let config = LedgerConfig::small_for_tests().with_cache_blocks(32);
        let ledger = Ledger::open_with_telemetry(&dir.0, config, tel.clone()).unwrap();
        for i in 0..6 {
            ledger.submit(put_tx(i, "k", &format!("v{i}"))).unwrap();
        }
        ledger.get_block(0).unwrap();
        ledger.get_block(0).unwrap(); // second read: a hit
        ledger.publish_gauges();
        let snap = tel.snapshot();
        assert_eq!(snap.gauge("ledger.cache.shards"), Some(2));
        assert!(snap.gauge("ledger.cache.hit_total").unwrap() >= 1);
        assert!(snap.gauge("ledger.cache.blocks").unwrap() >= 1);
        for name in [
            "ledger.cache.shard0.blocks",
            "ledger.cache.shard0.hits",
            "ledger.cache.shard0.misses",
            "ledger.cache.shard0.evictions",
            "ledger.cache.shard1.blocks",
        ] {
            assert!(snap.gauge(name).is_some(), "missing gauge {name}");
        }
        // Block 0 lives in shard 0: its hit landed there.
        assert!(snap.gauge("ledger.cache.shard0.hits").unwrap() >= 1);
    }

    #[test]
    fn range_scan_counts_and_returns_sorted() {
        let dir = TempDir::new("rangescan");
        let ledger = open(&dir);
        for (i, k) in ["s3", "s1", "c2", "s2"].iter().enumerate() {
            ledger.submit(put_tx(i as u64, k, "v")).unwrap();
        }
        ledger.cut_block().unwrap();
        let rows = ledger.get_state_by_range(Some(b"s"), Some(b"t")).unwrap();
        let keys: Vec<&[u8]> = rows.iter().map(|(k, _)| &k[..]).collect();
        assert_eq!(keys, vec![b"s1", b"s2", b"s3"]);
        assert_eq!(ledger.stats().range_scan_calls, 1);
    }
}
