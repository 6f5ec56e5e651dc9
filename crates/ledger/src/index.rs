//! Block-location and history indexes, hosted on one [`KvStore`].
//!
//! Three keyspaces share the store, separated by a one-byte prefix:
//!
//! * `B` + `block_num: u64 BE` → [`BlockLocation`] (16 bytes)
//! * `H` + `key` + `0x00` + `block_num: u64 BE` + `tx_num: u32 BE` →
//!   `timestamp: u64 LE` — the Fabric-style history index
//!   (`ns~key~blockNo~tranNo`), extended with the writing transaction's
//!   timestamp so planners can bound scan costs without touching block
//!   files. Indexes written before this extension hold empty values, which
//!   read back as "timestamp unknown". User keys may not contain `0x00`,
//!   which [`crate::tx::Transaction::new`] enforces.
//! * `T` + `tx_id` (32 bytes) → `block_num: u64 LE` + `tx_num: u32 LE`
//!   — Fabric's transaction-id index (`GetTransactionByID`)
//! * `M` + name → chain metadata (height, last hash)
//!
//! History entries are written **only for valid transactions**, exactly as
//! Fabric's history database does.

use bytes::Bytes;
use fabric_kvstore::{EngineIter, SharedEngine, StorageEngine, WriteBatch};

use crate::blockfile::BlockLocation;
use crate::error::{Error, Result};
use crate::hash::Digest;
use crate::tx::{BlockNum, Timestamp, TxNum};

const PREFIX_BLOCK: u8 = b'B';
const PREFIX_HISTORY: u8 = b'H';
const PREFIX_TXID: u8 = b'T';
const PREFIX_META: u8 = b'M';
const KEY_SEP: u8 = 0x00;

/// Combined block + history index over a shared key-value store. Generic
/// over the storage engine: any [`StorageEngine`] implementation can host
/// the index keyspaces.
#[derive(Debug, Clone)]
pub struct LedgerIndex {
    db: SharedEngine,
}

/// One history-index hit: which transaction (in which block) wrote the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct HistoryLocation {
    /// Block that committed the write.
    pub block_num: BlockNum,
    /// Transaction index within the block.
    pub tx_num: TxNum,
}

/// One history-index entry with its stored metadata: position plus the
/// writing transaction's timestamp when the index recorded one. This is
/// everything a cost-based planner can learn about a key's history from
/// the index alone, without deserializing any block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistoryEntryMeta {
    /// Where the write committed.
    pub location: HistoryLocation,
    /// The writing transaction's timestamp, or `None` for entries written
    /// by pre-timestamp index versions.
    pub timestamp: Option<Timestamp>,
}

impl HistoryEntryMeta {
    /// Whether this entry can carry an event later than `after_ts`: its
    /// recorded timestamp (an upper bound on its events) is past it, or
    /// unknown. Bounded scans skip exactly the entries for which this is
    /// false.
    pub fn may_follow(&self, after_ts: Timestamp) -> bool {
        self.timestamp.is_none_or(|ts| ts > after_ts)
    }
}

/// One key's history-index entries, oldest first, parsed as they are
/// pulled (see [`LedgerIndex::history_entries`]).
pub(crate) struct HistoryEntries {
    iter: Box<dyn EngineIter>,
    prefix_len: usize,
}

impl HistoryEntries {
    fn parse(&self, k: &[u8], v: &[u8]) -> Result<HistoryEntryMeta> {
        let suffix = &k[self.prefix_len..];
        if suffix.len() != 12 {
            return Err(Error::InvalidArgument(format!(
                "malformed history index key (suffix len {})",
                suffix.len()
            )));
        }
        let timestamp = match v.len() {
            // Pre-timestamp index versions stored empty values.
            0 => None,
            8 => Some(Timestamp::from_le_bytes(v[..8].try_into().unwrap())),
            n => {
                return Err(Error::InvalidArgument(format!(
                    "malformed history index value ({n} bytes)"
                )));
            }
        };
        Ok(HistoryEntryMeta {
            location: HistoryLocation {
                block_num: u64::from_be_bytes(suffix[..8].try_into().unwrap()),
                tx_num: u32::from_be_bytes(suffix[8..12].try_into().unwrap()),
            },
            timestamp,
        })
    }
}

impl Iterator for HistoryEntries {
    type Item = Result<HistoryEntryMeta>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.iter.next() {
            Ok(Some((k, v))) => Some(self.parse(&k, &v)),
            Ok(None) => None,
            Err(e) => Some(Err(e.into())),
        }
    }
}

/// Persistent chain tip recorded in the metadata keyspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainTip {
    /// Number of committed blocks (next block gets this number).
    pub height: u64,
    /// Hash of the most recent block ([`Digest::ZERO`] pre-genesis).
    pub last_hash: Digest,
}

fn block_key(num: BlockNum) -> Vec<u8> {
    let mut k = Vec::with_capacity(9);
    k.push(PREFIX_BLOCK);
    k.extend_from_slice(&num.to_be_bytes());
    k
}

fn history_key(key: &[u8], block_num: BlockNum, tx_num: TxNum) -> Vec<u8> {
    let mut k = Vec::with_capacity(key.len() + 14);
    k.push(PREFIX_HISTORY);
    k.extend_from_slice(key);
    k.push(KEY_SEP);
    k.extend_from_slice(&block_num.to_be_bytes());
    k.extend_from_slice(&tx_num.to_be_bytes());
    k
}

fn history_prefix(key: &[u8]) -> Vec<u8> {
    let mut k = Vec::with_capacity(key.len() + 2);
    k.push(PREFIX_HISTORY);
    k.extend_from_slice(key);
    k.push(KEY_SEP);
    k
}

fn txid_key(id: &crate::tx::TxId) -> Vec<u8> {
    let mut k = Vec::with_capacity(33);
    k.push(PREFIX_TXID);
    k.extend_from_slice(&id.0 .0);
    k
}

fn meta_key(name: &str) -> Vec<u8> {
    let mut k = Vec::with_capacity(name.len() + 1);
    k.push(PREFIX_META);
    k.extend_from_slice(name.as_bytes());
    k
}

impl LedgerIndex {
    /// Wrap an open storage engine.
    pub fn new(db: SharedEngine) -> Self {
        LedgerIndex { db }
    }

    /// The underlying store (for occupancy gauges).
    pub(crate) fn store(&self) -> &dyn StorageEngine {
        self.db.as_ref()
    }

    /// Record everything one committed block contributes to the indexes,
    /// atomically: its location, its history entries (valid txs only) and
    /// the new chain tip.
    pub fn index_block(
        &self,
        block_num: BlockNum,
        location: BlockLocation,
        history_entries: &[(Bytes, TxNum, Timestamp)],
        tx_ids: &[(crate::tx::TxId, TxNum)],
        tip: ChainTip,
    ) -> Result<()> {
        let mut batch = WriteBatch::new();
        batch.put(block_key(block_num), location.encode().to_vec());
        for (key, tx_num, tx_ts) in history_entries {
            batch.put(
                history_key(key, block_num, *tx_num),
                tx_ts.to_le_bytes().to_vec(),
            );
        }
        for (id, tx_num) in tx_ids {
            let mut loc = Vec::with_capacity(12);
            loc.extend_from_slice(&block_num.to_le_bytes());
            loc.extend_from_slice(&tx_num.to_le_bytes());
            batch.put(txid_key(id), loc);
        }
        let mut tip_bytes = Vec::with_capacity(40);
        tip_bytes.extend_from_slice(&tip.height.to_le_bytes());
        tip_bytes.extend_from_slice(&tip.last_hash.0);
        batch.put(meta_key("tip"), tip_bytes);
        self.db.write(batch)?;
        Ok(())
    }

    /// Look up where a block lives.
    pub fn block_location(&self, num: BlockNum) -> Result<Option<BlockLocation>> {
        match self.db.get(&block_key(num))? {
            Some(bytes) => Ok(Some(BlockLocation::decode(&bytes)?)),
            None => Ok(None),
        }
    }

    /// All history entries for `key` (the `(block, tx)` positions that
    /// wrote it) with their stored timestamps, oldest first. This is an
    /// index scan (cheap, ordered) that never touches the block files; the
    /// expensive part of a history read is deserializing the blocks these
    /// point at.
    pub fn history_profile(&self, key: &[u8]) -> Result<Vec<HistoryEntryMeta>> {
        self.history_entries(key)?.collect()
    }

    /// The entries of [`LedgerIndex::history_profile`] as a stream, parsed
    /// one at a time as they are pulled. The stream reads a snapshot of
    /// the index taken now: writes, flushes and compactions after this
    /// call do not change what it yields.
    pub(crate) fn history_entries(&self, key: &[u8]) -> Result<HistoryEntries> {
        let prefix = history_prefix(key);
        Ok(HistoryEntries {
            iter: self.db.prefix(&prefix)?,
            prefix_len: prefix.len(),
        })
    }

    /// Where the transaction with `id` was committed, if anywhere.
    pub fn tx_location(&self, id: &crate::tx::TxId) -> Result<Option<(BlockNum, TxNum)>> {
        let Some(bytes) = self.db.get(&txid_key(id))? else {
            return Ok(None);
        };
        if bytes.len() != 12 {
            return Err(Error::InvalidArgument(format!(
                "malformed tx location ({} bytes)",
                bytes.len()
            )));
        }
        Ok(Some((
            u64::from_le_bytes(bytes[..8].try_into().unwrap()),
            u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
        )))
    }

    /// Read the persisted chain tip, if the ledger has one.
    pub fn chain_tip(&self) -> Result<Option<ChainTip>> {
        let Some(bytes) = self.db.get(&meta_key("tip"))? else {
            return Ok(None);
        };
        if bytes.len() != 40 {
            return Err(Error::InvalidArgument(format!(
                "malformed chain tip ({} bytes)",
                bytes.len()
            )));
        }
        Ok(Some(ChainTip {
            height: u64::from_le_bytes(bytes[..8].try_into().unwrap()),
            last_hash: Digest(bytes[8..40].try_into().unwrap()),
        }))
    }

    /// Flush the underlying store (used by tests and clean shutdown).
    pub fn flush(&self) -> Result<()> {
        self.db.flush()?;
        Ok(())
    }

    /// Checkpoint the underlying store into `dest` (see
    /// [`StorageEngine::checkpoint`]).
    pub fn checkpoint(&self, dest: impl Into<std::path::PathBuf>) -> Result<()> {
        self.db.checkpoint(&dest.into())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;
    use fabric_kvstore::{MetricsSnapshot, Options, StorageStats};
    use std::ops::Bound;
    use std::path::Path;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// A storage engine that counts every pair its iterators yield: the
    /// index entries a reader pulls.
    #[derive(Debug)]
    struct Counting {
        inner: SharedEngine,
        pulls: Arc<AtomicU64>,
    }

    struct CountingIter {
        inner: Box<dyn EngineIter>,
        pulls: Arc<AtomicU64>,
    }

    impl EngineIter for CountingIter {
        fn next(&mut self) -> fabric_kvstore::Result<Option<(Bytes, Bytes)>> {
            let pair = self.inner.next()?;
            if pair.is_some() {
                self.pulls.fetch_add(1, Ordering::Relaxed);
            }
            Ok(pair)
        }
    }

    impl Counting {
        fn wrap(&self, inner: Box<dyn EngineIter>) -> Box<dyn EngineIter> {
            Box::new(CountingIter {
                inner,
                pulls: self.pulls.clone(),
            })
        }
    }

    impl StorageEngine for Counting {
        fn put(&self, key: Bytes, value: Bytes) -> fabric_kvstore::Result<()> {
            self.inner.put(key, value)
        }
        fn delete(&self, key: Bytes) -> fabric_kvstore::Result<()> {
            self.inner.delete(key)
        }
        fn write(&self, batch: WriteBatch) -> fabric_kvstore::Result<()> {
            self.inner.write(batch)
        }
        fn get(&self, key: &[u8]) -> fabric_kvstore::Result<Option<Bytes>> {
            self.inner.get(key)
        }
        fn range(
            &self,
            start: Bound<&[u8]>,
            end: Bound<&[u8]>,
        ) -> fabric_kvstore::Result<Box<dyn EngineIter>> {
            Ok(self.wrap(self.inner.range(start, end)?))
        }
        fn prefix(&self, prefix: &[u8]) -> fabric_kvstore::Result<Box<dyn EngineIter>> {
            Ok(self.wrap(self.inner.prefix(prefix)?))
        }
        fn flush(&self) -> fabric_kvstore::Result<()> {
            self.inner.flush()
        }
        fn compact(&self) -> fabric_kvstore::Result<()> {
            self.inner.compact()
        }
        fn checkpoint(&self, dest: &Path) -> fabric_kvstore::Result<()> {
            self.inner.checkpoint(dest)
        }
        fn storage_stats(&self) -> StorageStats {
            self.inner.storage_stats()
        }
        fn metrics(&self) -> MetricsSnapshot {
            self.inner.metrics()
        }
        fn telemetry(&self) -> &Telemetry {
            self.inner.telemetry()
        }
        fn dir(&self) -> &Path {
            self.inner.dir()
        }
    }

    impl LedgerIndex {
        /// This index over the same store, counting the entries pulled
        /// through it into the returned cell.
        pub(crate) fn counted(&self) -> (LedgerIndex, Arc<AtomicU64>) {
            let pulls = Arc::new(AtomicU64::new(0));
            let engine = Counting {
                inner: self.db.clone(),
                pulls: pulls.clone(),
            };
            (LedgerIndex::new(Arc::new(engine)), pulls)
        }
    }

    struct TempDir(std::path::PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let p = std::env::temp_dir().join(format!(
                "ledgeridx-test-{}-{tag}-{:?}",
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

    fn index(dir: &TempDir) -> LedgerIndex {
        LedgerIndex::new(std::sync::Arc::new(
            fabric_kvstore::KvStore::open(&dir.0, Options::small_for_tests()).unwrap(),
        ))
    }

    fn history_locations(idx: &LedgerIndex, key: &[u8]) -> Vec<HistoryLocation> {
        let profile = idx.history_profile(key).unwrap();
        profile.into_iter().map(|e| e.location).collect()
    }

    fn loc(n: u32) -> BlockLocation {
        BlockLocation {
            file_num: n,
            offset: u64::from(n) * 100,
            len: 42,
        }
    }

    #[test]
    fn block_location_roundtrip() {
        let dir = TempDir::new("bloc");
        let idx = index(&dir);
        idx.index_block(
            5,
            loc(1),
            &[],
            &[],
            ChainTip {
                height: 6,
                last_hash: Digest::ZERO,
            },
        )
        .unwrap();
        assert_eq!(idx.block_location(5).unwrap(), Some(loc(1)));
        assert_eq!(idx.block_location(6).unwrap(), None);
    }

    #[test]
    fn history_locations_ordered_oldest_first() {
        let dir = TempDir::new("hist");
        let idx = index(&dir);
        let key = Bytes::from_static(b"ship-1");
        let tip = |h| ChainTip {
            height: h,
            last_hash: Digest::ZERO,
        };
        // Insert out of block order to prove ordering comes from the index.
        idx.index_block(10, loc(1), &[(key.clone(), 2, 100)], &[], tip(11))
            .unwrap();
        idx.index_block(
            3,
            loc(2),
            &[(key.clone(), 0, 30), (key.clone(), 7, 31)],
            &[],
            tip(11),
        )
        .unwrap();
        let locs = history_locations(&idx, b"ship-1");
        assert_eq!(
            locs,
            vec![
                HistoryLocation {
                    block_num: 3,
                    tx_num: 0
                },
                HistoryLocation {
                    block_num: 3,
                    tx_num: 7
                },
                HistoryLocation {
                    block_num: 10,
                    tx_num: 2
                },
            ]
        );
    }

    #[test]
    fn history_does_not_leak_across_keys() {
        let dir = TempDir::new("leak");
        let idx = index(&dir);
        let tip = ChainTip {
            height: 1,
            last_hash: Digest::ZERO,
        };
        // "ship" is a prefix of "ship-1": the 0x00 separator must keep
        // their histories apart.
        idx.index_block(
            0,
            loc(0),
            &[
                (Bytes::from_static(b"ship"), 0, 1),
                (Bytes::from_static(b"ship-1"), 1, 2),
            ],
            &[],
            tip,
        )
        .unwrap();
        assert_eq!(history_locations(&idx, b"ship").len(), 1);
        assert_eq!(history_locations(&idx, b"ship-1").len(), 1);
        assert_eq!(history_locations(&idx, b"shi").len(), 0);
    }

    #[test]
    fn chain_tip_roundtrip() {
        let dir = TempDir::new("tip");
        let idx = index(&dir);
        assert_eq!(idx.chain_tip().unwrap(), None);
        let tip = ChainTip {
            height: 9,
            last_hash: crate::hash::sha256(b"x"),
        };
        idx.index_block(8, loc(3), &[], &[], tip).unwrap();
        assert_eq!(idx.chain_tip().unwrap(), Some(tip));
    }

    #[test]
    fn block_ordering_is_big_endian_numeric() {
        let dir = TempDir::new("order");
        let idx = index(&dir);
        let tip = ChainTip {
            height: 300,
            last_hash: Digest::ZERO,
        };
        let key = Bytes::from_static(b"k");
        // Block 255 vs 256 would sort wrongly under a naive LE encoding.
        idx.index_block(256, loc(2), &[(key.clone(), 0, 256)], &[], tip)
            .unwrap();
        idx.index_block(255, loc(1), &[(key.clone(), 0, 255)], &[], tip)
            .unwrap();
        let locs = history_locations(&idx, b"k");
        assert_eq!(locs[0].block_num, 255);
        assert_eq!(locs[1].block_num, 256);
    }

    #[test]
    fn history_entries_are_pulled_on_demand() {
        let dir = TempDir::new("on-demand");
        let idx = index(&dir);
        let key = Bytes::from_static(b"k");
        for b in 0..40u64 {
            let tip = ChainTip {
                height: b + 1,
                last_hash: Digest::ZERO,
            };
            idx.index_block(b, loc(b as u32), &[(key.clone(), 0, b)], &[], tip)
                .unwrap();
        }
        // Most of the history in tables, the rest in the memtable.
        idx.flush().unwrap();
        let (counted, pulls) = idx.counted();
        let mut entries = counted.history_entries(b"k").unwrap();
        assert_eq!(pulls.load(Ordering::Relaxed), 0, "opening pulls nothing");
        for k in 1..=5u64 {
            let entry = entries.next().unwrap().unwrap();
            assert_eq!(entry.location.block_num, k - 1);
            assert_eq!(pulls.load(Ordering::Relaxed), k);
        }
        drop(entries);
        pulls.store(0, Ordering::Relaxed);
        assert_eq!(counted.history_profile(b"k").unwrap().len(), 40);
        assert_eq!(pulls.load(Ordering::Relaxed), 40, "a profile pulls all");
    }
}
