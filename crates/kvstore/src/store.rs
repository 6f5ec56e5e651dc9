//! The [`KvStore`] facade: durability, flushing, compaction and reads.
//!
//! Directory layout:
//!
//! ```text
//! <dir>/MANIFEST          current file set, rewritten atomically
//! <dir>/NNNNNN.sst        immutable sorted tables (higher N = newer)
//! <dir>/NNNNNN.wal        write-ahead log for the active memtable
//! ```
//!
//! The manifest is a small text file: `next <n>`, `wal <n>` and one
//! `sst <n>` line per live table, oldest first. It is replaced with a
//! write-to-temp, fsync, rename, fsync-the-directory sequence so a crash
//! can never leave a half-written manifest or one naming a file whose
//! directory entry was lost; the WAL covers everything newer than the
//! manifest.

use std::fs::File;
use std::io::Write;
use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock, TryLockError};

use bytes::Bytes;
use fabric_telemetry::Telemetry;

use crate::batch::{BatchOp, WriteBatch};
use crate::error::{Error, Result};
use crate::iter::{EntrySource, MergeIter, VecSource};
use crate::memtable::{MemTable, Slot};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::options::Options;
use crate::sstable::{SsEntry, SsTableReader, SsTableWriter};
use crate::wal::{replay, Wal};

#[derive(Debug)]
struct Inner {
    memtable: MemTable,
    /// Live tables, oldest first (later entries shadow earlier ones).
    tables: Vec<Arc<SsTableReader>>,
    /// File numbers matching `tables` (for manifest rewrites).
    table_nums: Vec<u64>,
    wal: Wal,
    wal_num: u64,
    next_file: u64,
}

/// An embedded, ordered, persistent key-value store.
///
/// Thread-safe: reads take a shared lock, writes an exclusive one. All keys
/// and values are arbitrary byte strings; iteration order is lexicographic
/// on the raw bytes.
pub struct KvStore {
    dir: PathBuf,
    options: Options,
    inner: RwLock<Inner>,
    metrics: Metrics,
    tel: Telemetry,
    /// Serializes compactions so the merge can run outside the writer lock
    /// without two merges racing over the same input tables.
    compaction_gate: Mutex<()>,
}

/// Create a WAL at a freshly allocated file number. A crash between
/// allocating the number and persisting the manifest can leave an orphan
/// file at this path from a previous process; it was never referenced by
/// any manifest, so it is explicitly discarded here — [`Wal::create`]
/// itself refuses to touch an existing file.
fn create_fresh_wal(dir: &Path, num: u64, sync: bool) -> Result<Wal> {
    let path = wal_path(dir, num);
    if path.exists() {
        std::fs::remove_file(&path)
            .map_err(|e| Error::io(format!("removing orphan wal {}", path.display()), e))?;
    }
    Wal::create(path, sync)
}

impl std::fmt::Debug for KvStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvStore").field("dir", &self.dir).finish()
    }
}

/// Make `dir`'s entry list (names created, renamed or unlinked in it)
/// durable. A file's own `sync_all` covers its bytes, not its name.
pub fn fsync_dir(dir: &Path) -> Result<()> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| Error::io(format!("syncing directory {}", dir.display()), e))
}

/// Durably replace `dir/MANIFEST` with `text`: on return a crash leaves the
/// new manifest, whole, and every file it names; a crash before return
/// leaves either that or the old manifest untouched. Callers unlink files
/// only the old manifest named (the previous WAL, merged tables) after
/// this returns, never before.
fn install_manifest(dir: &Path, text: &str) -> Result<()> {
    let tmp = dir.join("MANIFEST.tmp");
    File::create(&tmp)
        .and_then(|mut f| {
            f.write_all(text.as_bytes())?;
            f.sync_all()
        })
        .map_err(|e| Error::io(format!("writing {}", tmp.display()), e))?;
    // The names of the files the manifest lists (a table just written, the
    // new WAL) must be on disk before the rename can publish them.
    fsync_dir(dir)?;
    std::fs::rename(&tmp, dir.join("MANIFEST"))
        .map_err(|e| Error::io(format!("installing manifest in {}", dir.display()), e))?;
    fsync_dir(dir)
}

fn sst_path(dir: &Path, num: u64) -> PathBuf {
    dir.join(format!("{num:06}.sst"))
}

fn wal_path(dir: &Path, num: u64) -> PathBuf {
    dir.join(format!("{num:06}.wal"))
}

impl KvStore {
    /// Open (or create) a store in `dir`.
    pub fn open(dir: impl Into<PathBuf>, options: Options) -> Result<Self> {
        Self::open_with_telemetry(dir, options, Telemetry::disabled())
    }

    /// Open (or create) a store in `dir`, recording spans and counters
    /// into `tel` whenever that handle is enabled. The handle is shared:
    /// the ledger passes the same one to every store it owns so a single
    /// `enable()` lights up the whole stack.
    pub fn open_with_telemetry(
        dir: impl Into<PathBuf>,
        options: Options,
        tel: Telemetry,
    ) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| Error::io(format!("creating store dir {}", dir.display()), e))?;
        let manifest_path = dir.join("MANIFEST");
        let (mut next_file, wal_num, table_nums) = match std::fs::read_to_string(&manifest_path) {
            Ok(text) => Self::parse_manifest(&manifest_path, &text)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => (1, 0, Vec::new()),
            Err(e) => return Err(Error::io("reading manifest".to_string(), e)),
        };
        let mut tables = Vec::with_capacity(table_nums.len());
        for &num in &table_nums {
            tables.push(SsTableReader::open(sst_path(&dir, num))?);
        }
        // Replay the WAL (if any) into a fresh memtable, then continue
        // appending to a new WAL so replay is idempotent across crashes
        // during open.
        let mut memtable = MemTable::new();
        let old_wal = wal_path(&dir, wal_num);
        for record in replay(&old_wal)? {
            let batch = WriteBatch::decode(&record)?;
            Self::apply_to_memtable(&mut memtable, batch);
        }
        let new_wal_num = next_file;
        next_file += 1;
        let mut wal = create_fresh_wal(&dir, new_wal_num, options.sync_wal)?;
        // Re-log replayed entries so the old WAL can be dropped.
        if !memtable.is_empty() {
            let mut batch = WriteBatch::new();
            for (k, slot) in memtable.iter() {
                match slot {
                    Slot::Value(v) => batch.put(k.clone(), v.clone()),
                    Slot::Tombstone => batch.delete(k.clone()),
                };
            }
            wal.append(&batch.encode())?;
        }
        let store = KvStore {
            dir: dir.clone(),
            options,
            inner: RwLock::new(Inner {
                memtable,
                tables,
                table_nums,
                wal,
                wal_num: new_wal_num,
                next_file,
            }),
            metrics: Metrics::default(),
            tel,
            compaction_gate: Mutex::new(()),
        };
        store.write_manifest(&store.inner.read().unwrap_or_else(|e| e.into_inner()))?;
        if old_wal.exists() && old_wal != wal_path(&dir, new_wal_num) {
            let _ = std::fs::remove_file(old_wal);
        }
        Ok(store)
    }

    fn parse_manifest(path: &Path, text: &str) -> Result<(u64, u64, Vec<u64>)> {
        let mut next_file = 1u64;
        let mut wal_num = 0u64;
        let mut table_nums = Vec::new();
        for line in text.lines() {
            let mut parts = line.split_whitespace();
            let (Some(kind), Some(num)) = (parts.next(), parts.next()) else {
                continue;
            };
            let num: u64 = num
                .parse()
                .map_err(|_| Error::corruption(path, format!("bad manifest line: {line}")))?;
            match kind {
                "next" => next_file = num,
                "wal" => wal_num = num,
                "sst" => table_nums.push(num),
                other => {
                    return Err(Error::corruption(
                        path,
                        format!("unknown manifest entry: {other}"),
                    ))
                }
            }
        }
        Ok((next_file, wal_num, table_nums))
    }

    fn write_manifest(&self, inner: &Inner) -> Result<()> {
        let mut text = format!("next {}\nwal {}\n", inner.next_file, inner.wal_num);
        for num in &inner.table_nums {
            text.push_str(&format!("sst {num}\n"));
        }
        install_manifest(&self.dir, &text)
    }

    fn apply_to_memtable(memtable: &mut MemTable, batch: WriteBatch) {
        for op in batch.into_ops() {
            match op {
                BatchOp::Put { key, value } => memtable.put(key, value),
                BatchOp::Delete { key } => memtable.delete(key),
            }
        }
    }

    /// Insert or overwrite a single key.
    pub fn put(&self, key: impl Into<Bytes>, value: impl Into<Bytes>) -> Result<()> {
        let mut batch = WriteBatch::new();
        batch.put(key.into(), value.into());
        self.write(batch)
    }

    /// Delete a single key (idempotent).
    pub fn delete(&self, key: impl Into<Bytes>) -> Result<()> {
        let mut batch = WriteBatch::new();
        batch.delete(key.into());
        self.write(batch)
    }

    /// Apply a batch atomically: logged as one WAL record, applied to the
    /// memtable under one lock.
    pub fn write(&self, batch: WriteBatch) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let puts = batch
            .iter()
            .filter(|op| matches!(op, BatchOp::Put { .. }))
            .count();
        let dels = batch.len() - puts;
        let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        let bytes = {
            let mut span = self.tel.span("kv.wal.append");
            let bytes = inner.wal.append(&batch.encode())?;
            span.record("bytes", bytes);
            bytes
        };
        Metrics::add(&self.metrics.bytes_wal, bytes);
        if self.options.sync_wal {
            Metrics::incr(&self.metrics.wal_fsyncs);
            self.tel.count("kv.wal.fsyncs", 1);
        }
        Metrics::add(&self.metrics.puts, puts as u64);
        Metrics::add(&self.metrics.deletes, dels as u64);
        Self::apply_to_memtable(&mut inner.memtable, batch);
        let wants_compaction = self.maybe_flush_locked(&mut inner)?;
        drop(inner);
        self.compact_if_wanted(wants_compaction)
    }

    /// Flush when the memtable is over its cap. Returns whether the flush
    /// brought the table count up to the compaction trigger; the caller
    /// must release the writer lock before acting on it.
    fn maybe_flush_locked(&self, inner: &mut Inner) -> Result<bool> {
        if inner.memtable.approx_bytes() < self.options.memtable_max_bytes {
            return Ok(false);
        }
        self.flush_locked(inner)?;
        Ok(self.options.compaction_trigger > 0
            && inner.tables.len() >= self.options.compaction_trigger)
    }

    /// Run a compaction with the writer lock **released**. `try_lock`
    /// keeps this automatic path single-flight: if another thread is
    /// already compacting, this one moves on.
    fn compact_if_wanted(&self, wanted: bool) -> Result<()> {
        if !wanted {
            return Ok(());
        }
        match self.compaction_gate.try_lock() {
            Err(TryLockError::WouldBlock) => Ok(()),
            // Free, or poisoned by a merge that panicked: the gate guards
            // no data, so either way this thread now holds it.
            _gate => self.compact_gated(),
        }
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Result<Option<Bytes>> {
        Metrics::incr(&self.metrics.gets);
        let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
        if let Some(slot) = inner.memtable.get(key) {
            return Ok(slot.as_value().cloned());
        }
        for table in inner.tables.iter().rev() {
            if table.definitely_absent(key) {
                Metrics::incr(&self.metrics.bloom_negatives);
                self.tel.count("kv.bloom.negatives", 1);
                continue;
            }
            Metrics::incr(&self.metrics.sstable_point_reads);
            let _span = self.tel.span("kv.sstable.read");
            if let Some(slot) = table.get(key)? {
                return Ok(slot.as_value().cloned());
            }
            // The bloom filter (and key-range check) said "maybe", yet the
            // table had no entry: a false positive we paid a data read for.
            Metrics::incr(&self.metrics.bloom_false_positives);
            self.tel.count("kv.bloom.false_positives", 1);
        }
        Ok(None)
    }

    /// Iterate live entries with keys in `[start, end)`.
    ///
    /// The iterator sees a snapshot of the memtable taken now plus the
    /// current set of SSTables; writes performed after this call are not
    /// reflected.
    pub fn range(&self, start: Bound<&[u8]>, end: Bound<&[u8]>) -> Result<RangeIter> {
        Metrics::incr(&self.metrics.range_scans);
        // An inverted or empty range is a no-op, not a panic (BTreeMap's
        // `range` would panic on start > end).
        let inverted = match (&start, &end) {
            (Bound::Included(s) | Bound::Excluded(s), Bound::Included(e)) => s > e,
            (Bound::Included(s), Bound::Excluded(e)) => s >= e,
            (Bound::Excluded(s), Bound::Excluded(e)) => s >= e,
            _ => false,
        };
        if inverted {
            return Ok(RangeIter {
                merge: MergeIter::new(Vec::new())?,
                start: Bound::Unbounded,
                end: Bound::Unbounded,
                done: true,
            });
        }
        let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
        let mut sources: Vec<Box<dyn EntrySource + Send>> = Vec::new();
        // Memtable snapshot is the newest source.
        let mem_entries: Vec<SsEntry> = inner
            .memtable
            .range(start, Bound::Unbounded)
            .map(|(k, slot)| SsEntry {
                key: k.clone(),
                slot: slot.clone(),
            })
            .collect();
        sources.push(Box::new(VecSource::new(mem_entries)));
        for table in inner.tables.iter().rev() {
            let iter = match start {
                Bound::Included(k) | Bound::Excluded(k) => table.seek(k)?,
                Bound::Unbounded => table.iter()?,
            };
            sources.push(Box::new(iter));
        }
        let start_owned = match start {
            Bound::Included(k) => Bound::Included(Bytes::copy_from_slice(k)),
            Bound::Excluded(k) => Bound::Excluded(Bytes::copy_from_slice(k)),
            Bound::Unbounded => Bound::Unbounded,
        };
        let end_owned = match end {
            Bound::Included(k) => Bound::Included(Bytes::copy_from_slice(k)),
            Bound::Excluded(k) => Bound::Excluded(Bytes::copy_from_slice(k)),
            Bound::Unbounded => Bound::Unbounded,
        };
        Ok(RangeIter {
            merge: MergeIter::new(sources)?,
            start: start_owned,
            end: end_owned,
            done: false,
        })
    }

    /// Iterate live entries whose key starts with `prefix`.
    pub fn prefix(&self, prefix: &[u8]) -> Result<RangeIter> {
        let end = prefix_end(prefix);
        match &end {
            Some(end) => self.range(Bound::Included(prefix), Bound::Excluded(end)),
            None => self.range(Bound::Included(prefix), Bound::Unbounded),
        }
    }

    /// Force the memtable to an SSTable regardless of size.
    pub fn flush(&self) -> Result<()> {
        let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        self.flush_locked(&mut inner)
    }

    fn flush_locked(&self, inner: &mut Inner) -> Result<()> {
        if inner.memtable.is_empty() {
            return Ok(());
        }
        let mut span = self.tel.span("kv.memtable.flush");
        let num = inner.next_file;
        inner.next_file += 1;
        let path = sst_path(&self.dir, num);
        let mut writer = SsTableWriter::create(
            &path,
            self.options.sparse_index_interval,
            self.options.bloom_bits_per_key,
        )?;
        for (key, slot) in inner.memtable.iter() {
            writer.add(key, slot)?;
        }
        let bytes = writer.finish()?;
        span.record("bytes", bytes);
        Metrics::add(&self.metrics.bytes_flushed, bytes);
        Metrics::incr(&self.metrics.flushes);
        inner.tables.push(SsTableReader::open(&path)?);
        inner.table_nums.push(num);
        inner.memtable = MemTable::new();
        // Rotate the WAL: everything it contained is now durable in the sst.
        let old_wal = wal_path(&self.dir, inner.wal_num);
        let new_wal_num = inner.next_file;
        inner.next_file += 1;
        inner.wal = create_fresh_wal(&self.dir, new_wal_num, self.options.sync_wal)?;
        inner.wal_num = new_wal_num;
        self.write_manifest(inner)?;
        let _ = std::fs::remove_file(old_wal);
        Ok(())
    }

    /// Merge every SSTable into one, dropping shadowed versions and
    /// tombstones (safe: a full merge leaves nothing older underneath).
    ///
    /// The merge itself runs **without** the writer lock, so concurrent
    /// readers and writers proceed; only the snapshot at the start and the
    /// table swap at the end take the lock briefly.
    pub fn compact(&self) -> Result<()> {
        let _gate = self
            .compaction_gate
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        self.compact_gated()
    }

    /// Compaction body; caller must hold `compaction_gate` and must NOT
    /// hold the `inner` lock.
    fn compact_gated(&self) -> Result<()> {
        // Phase 1 (brief write lock): snapshot the live tables and reserve
        // an output file number. `tables` is oldest-first and flushes only
        // append, so the snapshot is a stable bottom prefix of the stack —
        // dropping tombstones from its merge stays safe because nothing
        // older can exist beneath it.
        let (snap_tables, snap_nums, out_num) = {
            let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
            if inner.tables.len() <= 1 {
                return Ok(());
            }
            let num = inner.next_file;
            inner.next_file += 1;
            (inner.tables.clone(), inner.table_nums.clone(), num)
        };
        let mut span = self.tel.span("kv.compaction");
        // Input size: every snapshot table is read in full during the merge.
        let bytes_read: u64 = snap_nums
            .iter()
            .filter_map(|&n| std::fs::metadata(sst_path(&self.dir, n)).ok())
            .map(|m| m.len())
            .sum();
        Metrics::add(&self.metrics.compaction_bytes_read, bytes_read);
        span.record("bytes_read", bytes_read);
        // Phase 2 (no lock): merge the snapshot into one table. A crash
        // here leaves an orphan .sst never named by any manifest; the next
        // writer of that number truncates it (`SsTableWriter::create`).
        let path = sst_path(&self.dir, out_num);
        let mut writer = SsTableWriter::create(
            &path,
            self.options.sparse_index_interval,
            self.options.bloom_bits_per_key,
        )?;
        {
            // Newest-first sources; exclude the memtable (it stays live).
            let sources: Vec<Box<dyn EntrySource + Send>> = snap_tables
                .iter()
                .rev()
                .map(|t| t.iter().map(|i| Box::new(i) as Box<dyn EntrySource + Send>))
                .collect::<Result<_>>()?;
            let mut merge = MergeIter::new(sources)?;
            while let Some((key, value)) = merge.next_live()? {
                writer.add(&key, &Slot::Value(value))?;
            }
        }
        let bytes = writer.finish()?;
        span.record("bytes_written", bytes);
        Metrics::add(&self.metrics.bytes_flushed, bytes);
        Metrics::add(&self.metrics.compaction_bytes_written, bytes);
        Metrics::incr(&self.metrics.compactions);
        let merged = SsTableReader::open(&path)?;
        // Phase 3 (brief write lock): swap the snapshot prefix for the
        // merged table. Tables flushed during the merge stay stacked on
        // top, in order.
        {
            let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
            debug_assert_eq!(inner.table_nums[..snap_nums.len()], snap_nums[..]);
            let newer_tables = inner.tables.split_off(snap_tables.len());
            let newer_nums = inner.table_nums.split_off(snap_nums.len());
            inner.tables = std::iter::once(merged).chain(newer_tables).collect();
            inner.table_nums = std::iter::once(out_num).chain(newer_nums).collect();
            self.write_manifest(&inner)?;
        }
        for old in snap_nums {
            let _ = std::fs::remove_file(sst_path(&self.dir, old));
        }
        Ok(())
    }

    /// Write a consistent checkpoint of the store into `dest` (which must
    /// not already contain a store). The checkpoint is a fully openable
    /// copy: the memtable is flushed first, then the live SSTables and a
    /// fresh manifest are copied under the write lock, so no concurrent
    /// writer can interleave.
    pub fn checkpoint(&self, dest: impl Into<PathBuf>) -> Result<()> {
        let dest = dest.into();
        std::fs::create_dir_all(&dest)
            .map_err(|e| Error::io(format!("creating checkpoint dir {}", dest.display()), e))?;
        if dest.join("MANIFEST").exists() {
            return Err(Error::InvalidArgument(format!(
                "checkpoint destination {} already holds a store",
                dest.display()
            )));
        }
        let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        self.flush_locked(&mut inner)?;
        let mut text = format!("next {}\nwal 0\n", inner.next_file);
        for (num, _table) in inner.table_nums.iter().zip(&inner.tables) {
            let name = format!("{num:06}.sst");
            std::fs::copy(sst_path(&self.dir, *num), dest.join(&name))
                .map_err(|e| Error::io(format!("copying {name} to checkpoint"), e))?;
            text.push_str(&format!("sst {num}\n"));
        }
        install_manifest(&dest, &text)
    }

    /// Number of live SSTables (diagnostics / tests).
    pub fn table_count(&self) -> usize {
        self.inner
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .tables
            .len()
    }

    /// Point-in-time occupancy numbers for live-metrics surfaces
    /// (`/metrics` gauges): SSTable count, bytes appended to the current
    /// WAL, and memtable entries/bytes. One shared read lock, no I/O.
    pub fn storage_stats(&self) -> StorageStats {
        let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
        StorageStats {
            sstables: inner.tables.len() as u64,
            wal_bytes: inner.wal.bytes_written(),
            memtable_entries: inner.memtable.len() as u64,
            memtable_bytes: inner.memtable.approx_bytes() as u64,
            ..StorageStats::default()
        }
    }

    /// Snapshot of the operation counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The telemetry handle this store records into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// Directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// Point-in-time storage occupancy (see [`KvStore::storage_stats`] and
/// [`crate::LogStore::storage_stats`]). One struct serves both engines;
/// fields that do not apply to a backend read zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageStats {
    /// Which engine produced these numbers.
    pub backend: crate::options::Backend,
    /// LSM: live SSTables backing the store.
    pub sstables: u64,
    /// Bytes appended to the current append log: the LSM's write-ahead log,
    /// or the value log's active data file.
    pub wal_bytes: u64,
    /// LSM: entries (values + tombstones) in the active memtable.
    pub memtable_entries: u64,
    /// LSM: approximate bytes held by the active memtable.
    pub memtable_bytes: u64,
    /// Value log: data files on disk (sealed + active).
    pub data_files: u64,
    /// Value log: estimated bytes of dead entries awaiting compaction.
    pub uncompacted_bytes: u64,
    /// Value log: merge compactions run since open.
    pub compactions: u64,
}

impl Default for StorageStats {
    fn default() -> Self {
        StorageStats {
            // Stats always describe a concrete engine, so the default is the
            // default engine, not `Backend::Auto`.
            backend: crate::options::Backend::Lsm,
            sstables: 0,
            wal_bytes: 0,
            memtable_entries: 0,
            memtable_bytes: 0,
            data_files: 0,
            uncompacted_bytes: 0,
            compactions: 0,
        }
    }
}

/// Smallest byte string strictly greater than every string with `prefix`.
/// `None` when the prefix is all `0xFF` (no upper bound exists).
pub fn prefix_end(prefix: &[u8]) -> Option<Vec<u8>> {
    let mut end = prefix.to_vec();
    while let Some(last) = end.last_mut() {
        if *last < 0xFF {
            *last += 1;
            return Some(end);
        }
        end.pop();
    }
    None
}

/// Snapshot iterator over a key range; yields live `(key, value)` pairs in
/// ascending key order.
pub struct RangeIter {
    merge: MergeIter,
    start: Bound<Bytes>,
    end: Bound<Bytes>,
    done: bool,
}

impl RangeIter {
    fn within_start(&self, key: &[u8]) -> bool {
        match &self.start {
            Bound::Included(s) => key >= &s[..],
            Bound::Excluded(s) => key > &s[..],
            Bound::Unbounded => true,
        }
    }

    fn within_end(&self, key: &[u8]) -> bool {
        match &self.end {
            Bound::Included(e) => key <= &e[..],
            Bound::Excluded(e) => key < &e[..],
            Bound::Unbounded => true,
        }
    }

    /// Next pair, or `None` at the end of the range.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<(Bytes, Bytes)>> {
        if self.done {
            return Ok(None);
        }
        while let Some((key, value)) = self.merge.next_live()? {
            if !self.within_start(&key) {
                continue; // sstable seek may land slightly before start
            }
            if !self.within_end(&key) {
                self.done = true;
                return Ok(None);
            }
            return Ok(Some((key, value)));
        }
        self.done = true;
        Ok(None)
    }

    /// Drain the iterator into a vector (convenience for tests/queries).
    pub fn collect_all(mut self) -> Result<Vec<(Bytes, Bytes)>> {
        let mut out = Vec::new();
        while let Some(pair) = self.next()? {
            out.push(pair);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let p = std::env::temp_dir().join(format!(
                "kvstore-test-{}-{tag}-{:?}",
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

    fn open(dir: &TempDir) -> KvStore {
        KvStore::open(&dir.0, Options::small_for_tests()).unwrap()
    }

    /// The numbers on the installed manifest's lines starting with `kind`.
    fn manifest_nums(dir: &TempDir, kind: &str) -> Vec<u64> {
        std::fs::read_to_string(dir.0.join("MANIFEST"))
            .unwrap()
            .lines()
            .filter_map(|l| l.strip_prefix(kind))
            .map(|n| n.trim().parse().unwrap())
            .collect()
    }

    #[test]
    fn put_get_delete() {
        let dir = TempDir::new("pgd");
        let db = open(&dir);
        db.put(&b"k"[..], &b"v"[..]).unwrap();
        assert_eq!(db.get(b"k").unwrap().unwrap(), &b"v"[..]);
        db.delete(&b"k"[..]).unwrap();
        assert!(db.get(b"k").unwrap().is_none());
        assert!(db.get(b"never").unwrap().is_none());
    }

    #[test]
    fn survives_reopen_via_wal() {
        let dir = TempDir::new("wal-reopen");
        {
            let db = open(&dir);
            db.put(&b"persist"[..], &b"me"[..]).unwrap();
        }
        let db = open(&dir);
        assert_eq!(db.get(b"persist").unwrap().unwrap(), &b"me"[..]);
    }

    #[test]
    fn survives_reopen_via_sstables() {
        let dir = TempDir::new("sst-reopen");
        {
            let db = open(&dir);
            for i in 0..200 {
                db.put(format!("key{i:04}"), format!("val{i}")).unwrap();
            }
            db.flush().unwrap();
        }
        let db = open(&dir);
        assert_eq!(db.get(b"key0123").unwrap().unwrap(), &b"val123"[..]);
        assert!(db.table_count() >= 1);
    }

    #[test]
    fn storage_stats_tracks_occupancy() {
        let dir = TempDir::new("storage-stats");
        let db = open(&dir);
        assert_eq!(db.storage_stats(), StorageStats::default());
        db.put(&b"k"[..], &b"v"[..]).unwrap();
        let s = db.storage_stats();
        assert_eq!(s.memtable_entries, 1);
        assert!(s.memtable_bytes > 0);
        assert!(s.wal_bytes > 0);
        assert_eq!(s.sstables, 0);
        db.flush().unwrap();
        let s = db.storage_stats();
        assert_eq!(s.memtable_entries, 0);
        assert_eq!(s.sstables, 1);
    }

    #[test]
    fn flush_triggers_automatically() {
        let dir = TempDir::new("autoflush");
        let db = open(&dir); // memtable_max_bytes = 1024
        for i in 0..100 {
            db.put(format!("key-{i:05}"), "x".repeat(50)).unwrap();
        }
        assert!(db.metrics().flushes > 0, "expected automatic flushes");
        for i in 0..100 {
            let k = format!("key-{i:05}");
            assert_eq!(
                db.get(k.as_bytes()).unwrap().unwrap(),
                "x".repeat(50).as_bytes()
            );
        }
    }

    #[test]
    fn compaction_reduces_table_count_and_preserves_data() {
        let dir = TempDir::new("compact");
        let db = open(&dir);
        for round in 0..5 {
            for i in 0..20 {
                db.put(format!("key{i:03}"), format!("round{round}"))
                    .unwrap();
            }
            db.flush().unwrap();
        }
        db.compact().unwrap();
        assert_eq!(db.table_count(), 1);
        for i in 0..20 {
            let k = format!("key{i:03}");
            assert_eq!(db.get(k.as_bytes()).unwrap().unwrap(), &b"round4"[..]);
        }
    }

    #[test]
    fn compaction_drops_tombstones() {
        let dir = TempDir::new("compact-tomb");
        let db = open(&dir);
        db.put(&b"dead"[..], &b"v"[..]).unwrap();
        db.flush().unwrap();
        db.delete(&b"dead"[..]).unwrap();
        db.put(&b"live"[..], &b"v"[..]).unwrap();
        db.flush().unwrap();
        db.compact().unwrap();
        assert!(db.get(b"dead").unwrap().is_none());
        assert_eq!(db.get(b"live").unwrap().unwrap(), &b"v"[..]);
        // After compaction the single table should hold exactly one entry.
        assert_eq!(db.table_count(), 1);
    }

    #[test]
    fn range_scan_merges_all_levels() {
        let dir = TempDir::new("range");
        let db = open(&dir);
        db.put(&b"a"[..], &b"old"[..]).unwrap();
        db.put(&b"c"[..], &b"1"[..]).unwrap();
        db.flush().unwrap();
        db.put(&b"a"[..], &b"new"[..]).unwrap(); // shadows sstable version
        db.put(&b"b"[..], &b"2"[..]).unwrap(); // memtable only
        let got = db
            .range(Bound::Unbounded, Bound::Unbounded)
            .unwrap()
            .collect_all()
            .unwrap();
        let got: Vec<(String, String)> = got
            .into_iter()
            .map(|(k, v)| {
                (
                    String::from_utf8(k.to_vec()).unwrap(),
                    String::from_utf8(v.to_vec()).unwrap(),
                )
            })
            .collect();
        assert_eq!(
            got,
            vec![
                ("a".into(), "new".into()),
                ("b".into(), "2".into()),
                ("c".into(), "1".into())
            ]
        );
    }

    #[test]
    fn range_scan_respects_bounds() {
        let dir = TempDir::new("range-bounds");
        let db = open(&dir);
        for k in ["a", "b", "c", "d", "e"] {
            db.put(k.as_bytes().to_vec(), &b"v"[..]).unwrap();
        }
        let got = db
            .range(Bound::Excluded(&b"a"[..]), Bound::Included(&b"d"[..]))
            .unwrap()
            .collect_all()
            .unwrap();
        let keys: Vec<&[u8]> = got.iter().map(|(k, _)| &k[..]).collect();
        assert_eq!(keys, vec![b"b", b"c", b"d"]);
    }

    #[test]
    fn range_scan_skips_deleted() {
        let dir = TempDir::new("range-del");
        let db = open(&dir);
        db.put(&b"a"[..], &b"1"[..]).unwrap();
        db.put(&b"b"[..], &b"2"[..]).unwrap();
        db.flush().unwrap();
        db.delete(&b"a"[..]).unwrap();
        let got = db
            .range(Bound::Unbounded, Bound::Unbounded)
            .unwrap()
            .collect_all()
            .unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(&got[0].0[..], b"b");
    }

    #[test]
    fn prefix_scan() {
        let dir = TempDir::new("prefix");
        let db = open(&dir);
        for k in ["app:1", "app:2", "apple", "b:1"] {
            db.put(k.as_bytes().to_vec(), &b"v"[..]).unwrap();
        }
        let got = db.prefix(b"app:").unwrap().collect_all().unwrap();
        assert_eq!(got.len(), 2);
        let got = db.prefix(b"app").unwrap().collect_all().unwrap();
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn prefix_end_edge_cases() {
        assert_eq!(prefix_end(b"abc"), Some(b"abd".to_vec()));
        assert_eq!(prefix_end(b"ab\xff"), Some(b"ac".to_vec()));
        assert_eq!(prefix_end(b"\xff\xff"), None);
        assert_eq!(prefix_end(b""), None);
    }

    #[test]
    fn atomic_batch_applies_all_or_nothing() {
        let dir = TempDir::new("batch");
        let db = open(&dir);
        db.put(&b"x"[..], &b"old"[..]).unwrap();
        let mut batch = WriteBatch::new();
        batch
            .put(&b"x"[..], &b"new"[..])
            .put(&b"y"[..], &b"1"[..])
            .delete(&b"x"[..]);
        db.write(batch).unwrap();
        // Ops apply in order: final state of x is deleted.
        assert!(db.get(b"x").unwrap().is_none());
        assert_eq!(db.get(b"y").unwrap().unwrap(), &b"1"[..]);
    }

    #[test]
    fn reopen_after_flush_and_more_writes() {
        let dir = TempDir::new("mixed-reopen");
        {
            let db = open(&dir);
            db.put(&b"in-sst"[..], &b"1"[..]).unwrap();
            db.flush().unwrap();
            db.put(&b"in-wal"[..], &b"2"[..]).unwrap();
        }
        let db = open(&dir);
        assert_eq!(db.get(b"in-sst").unwrap().unwrap(), &b"1"[..]);
        assert_eq!(db.get(b"in-wal").unwrap().unwrap(), &b"2"[..]);
    }

    #[test]
    fn delete_of_flushed_key_survives_reopen() {
        let dir = TempDir::new("tomb-reopen");
        {
            let db = open(&dir);
            db.put(&b"k"[..], &b"v"[..]).unwrap();
            db.flush().unwrap();
            db.delete(&b"k"[..]).unwrap();
        }
        let db = open(&dir);
        assert!(db.get(b"k").unwrap().is_none());
    }

    #[test]
    fn empty_batch_is_noop() {
        let dir = TempDir::new("empty-batch");
        let db = open(&dir);
        db.write(WriteBatch::new()).unwrap();
        assert_eq!(db.metrics().puts, 0);
    }

    #[test]
    fn metrics_track_operations() {
        let dir = TempDir::new("metrics");
        let db = open(&dir);
        db.put(&b"a"[..], &b"1"[..]).unwrap();
        db.get(b"a").unwrap();
        db.get(b"missing").unwrap();
        db.delete(&b"a"[..]).unwrap();
        let m = db.metrics();
        assert_eq!(m.puts, 1);
        assert_eq!(m.gets, 2);
        assert_eq!(m.deletes, 1);
        assert!(m.bytes_wal > 0);
    }

    #[test]
    fn bloom_false_positives_are_counted() {
        let dir = TempDir::new("bloom-fp");
        // Blooms disabled: every in-range probe of a missing key is a
        // deterministic "maybe" that misses — exactly the false-positive
        // accounting path.
        let mut opts = Options::small_for_tests();
        opts.bloom_bits_per_key = 0;
        let db = KvStore::open(&dir.0, opts).unwrap();
        db.put(&b"aaa"[..], &b"1"[..]).unwrap();
        db.put(&b"zzz"[..], &b"2"[..]).unwrap();
        db.flush().unwrap();
        db.get(b"mmm").unwrap(); // inside [aaa, zzz], not present
        let m = db.metrics();
        assert_eq!(m.bloom_false_positives, 1);
        assert_eq!(m.sstable_point_reads, 1);
        db.get(b"aaa").unwrap(); // present: a true positive, not counted
        assert_eq!(db.metrics().bloom_false_positives, 1);
    }

    #[test]
    fn wal_fsyncs_are_counted_when_sync_enabled() {
        let dir = TempDir::new("wal-fsync");
        let mut opts = Options::small_for_tests();
        opts.sync_wal = true;
        let db = KvStore::open(&dir.0, opts).unwrap();
        db.put(&b"a"[..], &b"1"[..]).unwrap();
        db.put(&b"b"[..], &b"2"[..]).unwrap();
        assert_eq!(db.metrics().wal_fsyncs, 2);

        let dir2 = TempDir::new("wal-nosync");
        let db2 = open(&dir2); // sync_wal = false
        db2.put(&b"a"[..], &b"1"[..]).unwrap();
        assert_eq!(db2.metrics().wal_fsyncs, 0);
    }

    #[test]
    fn compaction_byte_counters_track_inputs_and_outputs() {
        let dir = TempDir::new("compact-bytes");
        let db = open(&dir);
        for round in 0..3 {
            for i in 0..20 {
                db.put(format!("key{i:03}"), format!("round{round}"))
                    .unwrap();
            }
            db.flush().unwrap();
        }
        assert_eq!(db.metrics().compaction_bytes_read, 0);
        db.compact().unwrap();
        let m = db.metrics();
        assert!(m.compaction_bytes_read > 0, "inputs were read");
        assert!(
            m.compaction_bytes_written > 0,
            "an output table was written"
        );
        // Shadowed versions are dropped, so the output is smaller than the
        // three overlapping inputs combined.
        assert!(m.compaction_bytes_written < m.compaction_bytes_read);
    }

    #[test]
    fn telemetry_spans_cover_write_flush_compact() {
        let dir = TempDir::new("telemetry");
        let tel = fabric_telemetry::Telemetry::enabled();
        let db =
            KvStore::open_with_telemetry(&dir.0, Options::small_for_tests(), tel.clone()).unwrap();
        for round in 0..2 {
            for i in 0..40 {
                db.put(
                    format!("key{i:03}"),
                    format!("round{round}-{}", "x".repeat(20)),
                )
                .unwrap();
            }
            db.flush().unwrap();
        }
        db.compact().unwrap();
        db.get(b"key001").unwrap();
        let spans = tel.drain_spans();
        let names: std::collections::HashSet<&str> = spans.iter().map(|s| s.name).collect();
        for expected in [
            "kv.wal.append",
            "kv.memtable.flush",
            "kv.compaction",
            "kv.sstable.read",
        ] {
            assert!(names.contains(expected), "missing span {expected}");
        }
        // Auto-compaction may fire during the writes too, so compare the
        // sum over every compaction span against the cumulative counters.
        let read: u64 = spans
            .iter()
            .filter(|s| s.name == "kv.compaction")
            .filter_map(|s| s.metric("bytes_read"))
            .sum();
        let written: u64 = spans
            .iter()
            .filter(|s| s.name == "kv.compaction")
            .filter_map(|s| s.metric("bytes_written"))
            .sum();
        assert_eq!(read, db.metrics().compaction_bytes_read);
        assert_eq!(written, db.metrics().compaction_bytes_written);
    }

    #[test]
    fn disabled_telemetry_records_nothing_by_default() {
        let dir = TempDir::new("telemetry-off");
        let db = open(&dir);
        db.put(&b"k"[..], &b"v"[..]).unwrap();
        db.flush().unwrap();
        assert!(!db.telemetry().is_enabled());
        assert!(db.telemetry().drain_spans().is_empty());
    }

    #[test]
    fn checkpoint_is_openable_and_frozen() {
        let dir = TempDir::new("ckpt-src");
        let dest = TempDir::new("ckpt-dst");
        let ckpt_dir = dest.0.join("snap");
        let db = open(&dir);
        for i in 0..50 {
            db.put(format!("key{i:03}"), format!("v{i}")).unwrap();
        }
        db.flush().unwrap();
        db.put(&b"unflushed"[..], &b"in-memtable"[..]).unwrap();
        db.checkpoint(&ckpt_dir).unwrap();
        // Mutate the original afterwards.
        db.put(&b"key000"[..], &b"MUTATED"[..]).unwrap();
        db.delete(&b"key001"[..]).unwrap();
        // The checkpoint preserves the moment-of-checkpoint state,
        // including what was only in the memtable.
        let snap = KvStore::open(&ckpt_dir, Options::small_for_tests()).unwrap();
        assert_eq!(snap.get(b"key000").unwrap().unwrap(), &b"v0"[..]);
        assert_eq!(snap.get(b"key001").unwrap().unwrap(), &b"v1"[..]);
        assert_eq!(
            snap.get(b"unflushed").unwrap().unwrap(),
            &b"in-memtable"[..]
        );
        // And the original kept its mutations.
        assert_eq!(db.get(b"key000").unwrap().unwrap(), &b"MUTATED"[..]);
    }

    #[test]
    fn checkpoint_refuses_existing_store() {
        let dir = TempDir::new("ckpt-refuse");
        let db = open(&dir);
        db.put(&b"k"[..], &b"v"[..]).unwrap();
        let dest = dir.0.join("snap");
        db.checkpoint(&dest).unwrap();
        assert!(
            db.checkpoint(&dest).is_err(),
            "second checkpoint must refuse"
        );
    }

    /// Crash-recovery property under concurrent writers: after a torn
    /// tail (a record that was being appended when the process died, never
    /// acknowledged), replay yields exactly the acknowledged writes.
    fn torn_wal_tail_crash_recovery(sync_wal: bool, tag: &str) {
        let dir = TempDir::new(tag);
        let opts = Options {
            sync_wal,
            ..Options::default()
        };
        {
            let db = std::sync::Arc::new(KvStore::open(&dir.0, opts.clone()).unwrap());
            let mut handles = Vec::new();
            for t in 0..4 {
                let db = db.clone();
                handles.push(std::thread::spawn(move || {
                    for i in 0..25 {
                        db.put(format!("t{t}-k{i}"), format!("v{i}")).unwrap();
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            // Simulate the crash mid-append: frame a valid record for a
            // batch that was never acknowledged, chop its tail, and append
            // it to the live WAL by hand.
            let wal_file = std::fs::read_dir(&dir.0)
                .unwrap()
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "wal"))
                .max()
                .unwrap();
            let mut unacked = WriteBatch::new();
            unacked.put(&b"torn-key"[..], &b"never-acked"[..]);
            let payload = unacked.encode();
            let mut frame = Vec::new();
            frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frame.extend_from_slice(&payload);
            let crc = crate::crc32::crc32(&frame);
            let mut record = Vec::new();
            record.extend_from_slice(&crc.to_le_bytes());
            record.extend_from_slice(&frame);
            record.truncate(record.len() - 3); // torn tail
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&wal_file)
                .unwrap();
            f.write_all(&record).unwrap();
            // `db` dropped without any shutdown: the "crash".
        }
        let db = KvStore::open(&dir.0, opts).unwrap();
        for t in 0..4 {
            for i in 0..25 {
                let key = format!("t{t}-k{i}");
                assert_eq!(
                    db.get(key.as_bytes()).unwrap().unwrap(),
                    format!("v{i}").as_bytes(),
                    "acknowledged write {key} lost"
                );
            }
        }
        assert!(
            db.get(b"torn-key").unwrap().is_none(),
            "unacknowledged torn write must not replay"
        );
        db.put(&b"post-crash"[..], &b"ok"[..]).unwrap();
        assert_eq!(db.get(b"post-crash").unwrap().unwrap(), &b"ok"[..]);
    }

    #[test]
    fn torn_wal_tail_crash_recovery_sync() {
        torn_wal_tail_crash_recovery(true, "torn-crash-sync");
    }

    #[test]
    fn torn_wal_tail_crash_recovery_nosync() {
        torn_wal_tail_crash_recovery(false, "torn-crash-nosync");
    }

    #[test]
    fn reads_and_writes_proceed_during_compaction() {
        let dir = TempDir::new("compact-concurrent");
        let mut opts = Options::small_for_tests();
        opts.compaction_trigger = 0; // manual compaction only
        let db = std::sync::Arc::new(KvStore::open(&dir.0, opts).unwrap());
        for round in 0..6 {
            for i in 0..200 {
                db.put(format!("key{i:04}"), format!("round{round}"))
                    .unwrap();
            }
            db.flush().unwrap();
        }
        assert!(db.table_count() >= 6);
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let reader = {
            let db = db.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut reads = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    for i in (0..200).step_by(17) {
                        let k = format!("key{i:04}");
                        assert!(
                            db.get(k.as_bytes()).unwrap().is_some(),
                            "{k} vanished mid-compaction"
                        );
                        reads += 1;
                    }
                }
                reads
            })
        };
        let writer = {
            let db = db.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    db.put(format!("new-{i:06}"), &b"x"[..]).unwrap();
                    i += 1;
                }
                i
            })
        };
        db.compact().unwrap();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let reads = reader.join().unwrap();
        let writes = writer.join().unwrap();
        assert!(reads > 0);
        // Every key written during the merge survives the table swap.
        for i in 0..writes {
            let k = format!("new-{i:06}");
            assert!(
                db.get(k.as_bytes()).unwrap().is_some(),
                "{k} lost in compaction swap"
            );
        }
        for i in 0..200 {
            let k = format!("key{i:04}");
            assert_eq!(db.get(k.as_bytes()).unwrap().unwrap(), &b"round5"[..]);
        }
    }

    #[test]
    fn flush_installs_a_whole_manifest_naming_the_new_wal() {
        let dir = TempDir::new("manifest-install");
        let wal_before;
        {
            let db = open(&dir);
            db.put(&b"k"[..], &b"v"[..]).unwrap();
            wal_before = manifest_nums(&dir, "wal ")[0];
            db.flush().unwrap();
            // The flush rotated the WAL; the installed manifest names the
            // new one and the new table, both present, and nothing else.
            let wal_after = manifest_nums(&dir, "wal ")[0];
            assert_ne!(wal_after, wal_before);
            assert!(wal_path(&dir.0, wal_after).exists());
            assert!(!wal_path(&dir.0, wal_before).exists());
            let tables = manifest_nums(&dir, "sst ");
            assert_eq!(tables.len(), 1);
            assert!(sst_path(&dir.0, tables[0]).exists());
            assert!(!dir.0.join("MANIFEST.tmp").exists());
        }
        let db = open(&dir);
        assert_eq!(db.get(b"k").unwrap().unwrap(), &b"v"[..]);
        assert_eq!(db.table_count(), 1);
    }

    #[test]
    fn fsync_dir_reports_a_missing_directory() {
        let dir = TempDir::new("fsync-missing");
        let gone = dir.0.join("not-there");
        let err = fsync_dir(&gone).unwrap_err();
        assert!(err.to_string().contains("not-there"), "{err}");
        fsync_dir(&dir.0).unwrap();
    }

    #[test]
    fn open_discards_orphan_wal_from_crashed_rotation() {
        let dir = TempDir::new("orphan-wal");
        {
            let db = open(&dir);
            db.put(&b"live"[..], &b"1"[..]).unwrap();
        }
        // A crash between allocating a WAL number and writing the manifest
        // leaves an unreferenced file at `next`. Fabricate garbage there;
        // the next open must discard it rather than refuse or replay it.
        let next = manifest_nums(&dir, "next ")[0];
        std::fs::write(dir.0.join(format!("{next:06}.wal")), b"garbage orphan").unwrap();
        let db = open(&dir);
        assert_eq!(db.get(b"live").unwrap().unwrap(), &b"1"[..]);
        db.put(&b"after"[..], &b"2"[..]).unwrap();
        assert_eq!(db.get(b"after").unwrap().unwrap(), &b"2"[..]);
    }

    #[test]
    fn concurrent_readers_and_writer() {
        let dir = TempDir::new("concurrent");
        let db = std::sync::Arc::new(KvStore::open(&dir.0, Options::default()).unwrap());
        let mut handles = Vec::new();
        for t in 0..4 {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..250 {
                    let key = format!("t{t}-k{i}");
                    db.put(key.clone(), format!("v{i}")).unwrap();
                    assert_eq!(
                        db.get(key.as_bytes()).unwrap().unwrap(),
                        format!("v{i}").as_bytes()
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for t in 0..4 {
            for i in 0..250 {
                let key = format!("t{t}-k{i}");
                assert!(db.get(key.as_bytes()).unwrap().is_some(), "{key} missing");
            }
        }
    }
}
