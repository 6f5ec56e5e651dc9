//! The [`LogStore`]: a bitcask-style value-log storage engine.
//!
//! Directory layout:
//!
//! ```text
//! <dir>/ENGINE            backend marker ("log"), written once at creation
//! <dir>/NNNNNN.vlog       append-only data files (higher N = newer)
//! <dir>/NNNNNN.vmerge     in-flight compaction output (removed on open)
//! ```
//!
//! Every write batch is appended to the active data file as one CRC-framed
//! record using the WAL framing (`[crc32][len][payload]`, payload = the
//! [`WriteBatch`] encoding), so the batch is atomic: either every operation
//! replays after a crash or none does. The entire key set lives in an
//! in-memory map `key → (file, offset, len)` rebuilt on open by scanning the
//! data files in file-number order; reads are one `pread` against the named
//! file. A torn tail — a crash mid-append — is truncated on recovery exactly
//! like the LSM's write-ahead log; a damaged record *followed by newer data*
//! is reported as corruption instead.
//!
//! Overwritten and deleted entries leave dead bytes behind. Each file tracks
//! an estimate of its dead bytes; once the total crosses
//! [`Options::log_compaction_bytes`] a merge compaction rewrites every live
//! entry into fresh output files and deletes the old ones. The merge runs
//! without the writer lock (same three-phase shape as the LSM's compaction),
//! and readers stay safe throughout because every file's reader handle is an
//! `Arc<File>`: a file deleted mid-scan stays readable until the last handle
//! drops. Crash safety of the merge itself comes from ordering: outputs are
//! written under a `.vmerge` name, renamed into place, the directory is
//! fsynced, and only then are the inputs deleted — replaying an input *and*
//! the merge output that superseded it is idempotent.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::Read;
use std::ops::Bound;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock, TryLockError};

use bytes::Bytes;
use fabric_telemetry::Telemetry;

use crate::batch::{get_uvarint, put_uvarint, WriteBatch, TAG_DELETE, TAG_PUT};
use crate::crc32::crc32;
use crate::engine::ENGINE_MARKER;
use crate::error::{Error, Result};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::options::{Backend, Options};
use crate::store::{fsync_dir, prefix_end, StorageStats};
use crate::wal::Wal;

fn vlog_path(dir: &Path, num: u64) -> PathBuf {
    dir.join(format!("{num:06}.vlog"))
}

fn vmerge_path(dir: &Path, num: u64) -> PathBuf {
    dir.join(format!("{num:06}.vmerge"))
}

/// Where a key's current value lives on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ValueLoc {
    file_id: u64,
    /// Byte offset of the value within the file.
    offset: u64,
    /// Value length in bytes.
    len: u32,
    /// On-disk footprint of the whole entry (tag, key, value and their
    /// length prefixes) — the bytes that become dead when it is superseded.
    entry_bytes: u32,
}

/// One data file: a shared read handle plus occupancy accounting.
#[derive(Debug)]
struct DataFile {
    reader: Arc<File>,
    len: u64,
    dead_bytes: u64,
}

#[derive(Debug)]
struct VInner {
    index: BTreeMap<Bytes, ValueLoc>,
    files: BTreeMap<u64, DataFile>,
    active_id: u64,
    active: Wal,
    next_file: u64,
}

impl VInner {
    fn total_dead_bytes(&self) -> u64 {
        self.files.values().map(|f| f.dead_bytes).sum()
    }
}

/// A bitcask-style log-structured key-value store.
///
/// Same surface and thread-safety contract as [`crate::KvStore`]; selected
/// through [`crate::open_engine`] with [`Backend::Log`]. Strictly sequential
/// writes and O(1) point reads, at the cost of holding every key in memory
/// and losing range-scan locality (scans are index-ordered `pread`s).
pub struct LogStore {
    dir: PathBuf,
    options: Options,
    inner: RwLock<VInner>,
    metrics: Metrics,
    tel: Telemetry,
    /// Serializes merges so two compactions never race over one input set.
    compaction_gate: Mutex<()>,
}

impl std::fmt::Debug for LogStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogStore").field("dir", &self.dir).finish()
    }
}

/// One decoded operation inside a record payload, with enough position
/// information to index the value in place.
struct ParsedOp {
    key: Bytes,
    /// `Some((offset_in_payload, len))` for a put, `None` for a delete.
    value: Option<(u64, u32)>,
    /// Bytes this operation occupies inside the payload.
    op_bytes: u32,
}

/// Walk a record payload (the [`WriteBatch`] encoding) yielding each
/// operation with its in-payload value position.
fn parse_ops(payload: &[u8]) -> Option<Vec<ParsedOp>> {
    let mut pos = 0usize;
    let count = get_uvarint(payload, &mut pos)?;
    let mut ops = Vec::with_capacity(count.min(1 << 20) as usize);
    for _ in 0..count {
        let op_start = pos;
        let tag = *payload.get(pos)?;
        pos += 1;
        let klen = get_uvarint(payload, &mut pos)? as usize;
        let key = payload.get(pos..pos + klen)?;
        pos += klen;
        let value = match tag {
            TAG_PUT => {
                let vlen = get_uvarint(payload, &mut pos)? as usize;
                let voff = pos as u64;
                payload.get(pos..pos + vlen)?;
                pos += vlen;
                Some((voff, vlen as u32))
            }
            TAG_DELETE => None,
            _ => return None,
        };
        ops.push(ParsedOp {
            key: Bytes::copy_from_slice(key),
            value,
            op_bytes: (pos - op_start) as u32,
        });
    }
    if pos != payload.len() {
        return None;
    }
    Some(ops)
}

/// Apply one record's operations to the index, charging superseded entries
/// to their file's dead-byte count. `payload_off` is the payload's byte
/// offset within file `file_id`.
fn apply_record(
    index: &mut BTreeMap<Bytes, ValueLoc>,
    files: &mut BTreeMap<u64, DataFile>,
    file_id: u64,
    payload_off: u64,
    ops: Vec<ParsedOp>,
) {
    let mut kill = |loc: ValueLoc| {
        if let Some(f) = files.get_mut(&loc.file_id) {
            f.dead_bytes += u64::from(loc.entry_bytes);
        }
    };
    for op in ops {
        match op.value {
            Some((voff, vlen)) => {
                let loc = ValueLoc {
                    file_id,
                    offset: payload_off + voff,
                    len: vlen,
                    entry_bytes: op.op_bytes,
                };
                if let Some(old) = index.insert(op.key, loc) {
                    kill(old);
                }
            }
            None => {
                if let Some(old) = index.remove(&op.key) {
                    kill(old);
                }
                // The tombstone itself is dead weight from the moment it is
                // written: a full merge drops tombstones entirely.
                kill(ValueLoc {
                    file_id,
                    offset: 0,
                    len: 0,
                    entry_bytes: op.op_bytes,
                });
            }
        }
    }
}

/// Result of scanning one data file on open.
struct FileScan {
    /// `(payload_offset, payload)` for every intact record, append order.
    records: Vec<(u64, Vec<u8>)>,
    /// Bytes covered by intact records; anything past this is a torn tail.
    valid_len: u64,
    /// `false` when bytes past `valid_len` exist (torn or corrupt tail).
    clean: bool,
}

/// Read every intact CRC-framed record from `path`, with offsets. Framing is
/// identical to the WAL's; this variant additionally reports where each
/// payload sits so the caller can index values in place.
fn scan_file(path: &Path) -> Result<FileScan> {
    let mut file = File::open(path)
        .map_err(|e| Error::io(format!("opening data file {}", path.display()), e))?;
    let mut data = Vec::new();
    file.read_to_end(&mut data)
        .map_err(|e| Error::io(format!("reading data file {}", path.display()), e))?;
    let mut records = Vec::new();
    let mut pos = 0usize;
    while data.len() - pos >= 8 {
        let crc_stored = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap());
        let len = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().unwrap()) as usize;
        let Some(frame) = data.get(pos + 4..pos + 8 + len) else {
            break;
        };
        if crc32(frame) != crc_stored {
            break;
        }
        records.push((pos as u64 + 8, frame[4..].to_vec()));
        pos += 8 + len;
    }
    Ok(FileScan {
        records,
        valid_len: pos as u64,
        clean: pos == data.len(),
    })
}

fn open_reader(path: &Path) -> Result<Arc<File>> {
    File::open(path)
        .map(Arc::new)
        .map_err(|e| Error::io(format!("opening reader for {}", path.display()), e))
}

impl LogStore {
    /// Open (or create) a value-log store in `dir`.
    pub fn open(dir: impl Into<PathBuf>, options: Options) -> Result<Self> {
        Self::open_with_telemetry(dir, options, Telemetry::disabled())
    }

    /// Open (or create) a value-log store in `dir`, recording spans and
    /// counters into `tel` whenever that handle is enabled.
    pub fn open_with_telemetry(
        dir: impl Into<PathBuf>,
        options: Options,
        tel: Telemetry,
    ) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| Error::io(format!("creating store dir {}", dir.display()), e))?;
        // Mark the directory so reopen auto-detects the backend. Written
        // via rename so a crash can never leave a half-written marker.
        let marker = dir.join(ENGINE_MARKER);
        if !marker.exists() {
            let tmp = dir.join("ENGINE.tmp");
            std::fs::write(&tmp, "log\n")
                .and_then(|_| std::fs::rename(&tmp, &marker))
                .map_err(|e| Error::io("writing backend marker".to_string(), e))?;
        }
        // Collect data files; drop leftovers from an interrupted merge —
        // their inputs are still present, so nothing is lost.
        let mut ids = Vec::new();
        let entries = std::fs::read_dir(&dir)
            .map_err(|e| Error::io(format!("listing store dir {}", dir.display()), e))?;
        for entry in entries {
            let entry = entry.map_err(|e| Error::io("listing store dir".to_string(), e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(stem) = name.strip_suffix(".vmerge") {
                if stem.parse::<u64>().is_ok() {
                    let _ = std::fs::remove_file(entry.path());
                }
            } else if let Some(stem) = name.strip_suffix(".vlog") {
                if let Ok(id) = stem.parse::<u64>() {
                    ids.push(id);
                }
            }
        }
        ids.sort_unstable();
        // Scan oldest-first, rebuilding the index. A torn tail is legal only
        // when nothing newer exists: records are appended strictly in file-id
        // order, so damage *followed by* newer data is real corruption.
        let mut scans = Vec::with_capacity(ids.len());
        for &id in &ids {
            scans.push(scan_file(&vlog_path(&dir, id))?);
        }
        let last_data = scans.iter().rposition(|s| !s.records.is_empty());
        let mut index = BTreeMap::new();
        let mut files = BTreeMap::new();
        for (i, (&id, scan)) in ids.iter().zip(&scans).enumerate() {
            let path = vlog_path(&dir, id);
            if !scan.clean {
                if last_data.is_some_and(|last| i < last) {
                    return Err(Error::corruption(
                        &path,
                        "damaged record followed by newer data files",
                    ));
                }
                let file = std::fs::OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|e| {
                        Error::io(
                            format!("truncating torn tail of {name}", name = path.display()),
                            e,
                        )
                    })?;
                file.set_len(scan.valid_len)
                    .and_then(|_| file.sync_all())
                    .map_err(|e| {
                        Error::io(
                            format!("truncating torn tail of {name}", name = path.display()),
                            e,
                        )
                    })?;
            }
            if scan.records.is_empty() {
                // Nothing live can point here; reclaim the empty file.
                let _ = std::fs::remove_file(&path);
                continue;
            }
            files.insert(
                id,
                DataFile {
                    reader: open_reader(&path)?,
                    len: scan.valid_len,
                    dead_bytes: 0,
                },
            );
            for (payload_off, payload) in &scan.records {
                let ops = parse_ops(payload).ok_or_else(|| {
                    Error::corruption(&path, "checksummed record holds a malformed batch")
                })?;
                apply_record(&mut index, &mut files, id, *payload_off, ops);
            }
        }
        // Always start a fresh active file: sealed files are never appended
        // to again, which keeps the torn-tail rule simple.
        let active_id = ids.last().map_or(1, |last| last + 1);
        let active = Wal::create(vlog_path(&dir, active_id), options.sync_wal)?;
        files.insert(
            active_id,
            DataFile {
                reader: open_reader(active.path())?,
                len: 0,
                dead_bytes: 0,
            },
        );
        Ok(LogStore {
            inner: RwLock::new(VInner {
                index,
                files,
                active_id,
                active,
                next_file: active_id + 1,
            }),
            dir,
            options,
            metrics: Metrics::default(),
            tel,
            compaction_gate: Mutex::new(()),
        })
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

    /// Apply a batch atomically: one CRC-framed record, so either every
    /// operation replays after a crash or none does.
    pub fn write(&self, batch: WriteBatch) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        for op in batch.iter() {
            match op {
                crate::batch::BatchOp::Put { .. } => Metrics::incr(&self.metrics.puts),
                crate::batch::BatchOp::Delete { .. } => Metrics::incr(&self.metrics.deletes),
            }
        }
        let payload = batch.encode();
        let dead_total;
        {
            let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
            let base = inner.active.bytes_written();
            let mut span = self.tel.span("kv.vlog.append");
            let bytes = inner.active.append(&payload)?;
            span.record("bytes", bytes);
            drop(span);
            Metrics::add(&self.metrics.bytes_wal, bytes);
            if self.options.sync_wal {
                Metrics::incr(&self.metrics.wal_fsyncs);
                self.tel.count("kv.wal.fsyncs", 1);
            }
            let inner = &mut *inner;
            let ops = parse_ops(&payload).expect("just-encoded batch reparses");
            apply_record(
                &mut inner.index,
                &mut inner.files,
                inner.active_id,
                base + 8,
                ops,
            );
            let active_len = inner.active.bytes_written();
            if let Some(f) = inner.files.get_mut(&inner.active_id) {
                f.len = active_len;
            }
            if active_len >= self.options.log_file_max_bytes {
                self.rotate_active(inner)?;
            }
            dead_total = inner.total_dead_bytes();
        }
        if self.options.log_compaction_bytes > 0 && dead_total >= self.options.log_compaction_bytes
        {
            self.maybe_compact()?;
        }
        Ok(())
    }

    /// Seal the active file and start a new one. Appends are flushed to the
    /// OS as they happen, so sealing is just a writer swap.
    fn rotate_active(&self, inner: &mut VInner) -> Result<()> {
        let id = inner.next_file;
        inner.next_file += 1;
        let active = Wal::create(vlog_path(&self.dir, id), self.options.sync_wal)?;
        inner.files.insert(
            id,
            DataFile {
                reader: open_reader(active.path())?,
                len: 0,
                dead_bytes: 0,
            },
        );
        inner.active = active;
        inner.active_id = id;
        Metrics::incr(&self.metrics.flushes);
        Ok(())
    }

    /// Point lookup: index probe under the shared lock, then one `pread`
    /// with the lock released (the `Arc<File>` keeps the file readable even
    /// if a compaction deletes it meanwhile).
    pub fn get(&self, key: &[u8]) -> Result<Option<Bytes>> {
        Metrics::incr(&self.metrics.gets);
        let (loc, reader) = {
            let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
            let Some(loc) = inner.index.get(key).copied() else {
                return Ok(None);
            };
            let reader = inner
                .files
                .get(&loc.file_id)
                .expect("index points at a live file")
                .reader
                .clone();
            (loc, reader)
        };
        read_value(&reader, loc).map(Some)
    }

    /// Iterate live entries with keys in `[start, end)`. The iterator sees a
    /// snapshot of the index taken now; writes performed after this call are
    /// not reflected, and a concurrent compaction cannot invalidate it.
    pub fn range(&self, start: Bound<&[u8]>, end: Bound<&[u8]>) -> Result<LogRangeIter> {
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
            return Ok(LogRangeIter {
                entries: Vec::new().into_iter(),
            });
        }
        let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
        let entries: Vec<(Bytes, ValueLoc, Arc<File>)> = inner
            .index
            .range::<[u8], _>((start, end))
            .map(|(k, loc)| {
                let reader = inner
                    .files
                    .get(&loc.file_id)
                    .expect("index points at a live file")
                    .reader
                    .clone();
                (k.clone(), *loc, reader)
            })
            .collect();
        Ok(LogRangeIter {
            entries: entries.into_iter(),
        })
    }

    /// Iterate live entries whose key starts with `prefix`.
    pub fn prefix(&self, prefix: &[u8]) -> Result<LogRangeIter> {
        let end = prefix_end(prefix);
        match &end {
            Some(end) => self.range(Bound::Included(prefix), Bound::Excluded(end)),
            None => self.range(Bound::Included(prefix), Bound::Unbounded),
        }
    }

    /// Durably flush the active data file.
    pub fn flush(&self) -> Result<()> {
        self.inner
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .active
            .sync()
    }

    /// Run a merge compaction: rewrite every live entry into fresh output
    /// files, then delete the inputs. Blocks until any in-flight compaction
    /// finishes first.
    pub fn compact(&self) -> Result<()> {
        let _gate = self
            .compaction_gate
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        self.compact_gated()
    }

    /// Compact only if no other compaction is already running — the write
    /// path's trigger, so a burst of writers cannot queue up merges.
    fn maybe_compact(&self) -> Result<()> {
        match self.compaction_gate.try_lock() {
            Err(TryLockError::WouldBlock) => Ok(()),
            // Free, or poisoned by a merge that panicked: the gate guards
            // no data, so either way this thread now holds it.
            _gate => self.compact_gated(),
        }
    }

    fn compact_gated(&self) -> Result<()> {
        let mut span = self.tel.span("kv.compaction");
        // Phase 1 (brief write lock): seal the active file, snapshot the
        // sealed set and the live entries pointing into it. Output file
        // numbers are reserved *below* the new active file so replay order
        // (file-id ascending) keeps merge output older than new writes.
        let (sealed_ids, snapshot, readers, out_base, out_reserve);
        {
            let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
            let inner = &mut *inner;
            sealed_ids = inner
                .files
                .keys()
                .copied()
                .collect::<std::collections::BTreeSet<u64>>();
            let total_bytes: u64 = inner.files.values().map(|f| f.len).sum();
            out_reserve = total_bytes / self.options.log_file_max_bytes.max(1) + 2;
            out_base = inner.next_file;
            let active_id = out_base + out_reserve;
            inner.next_file = active_id + 1;
            let active = Wal::create(vlog_path(&self.dir, active_id), self.options.sync_wal)?;
            inner.files.insert(
                active_id,
                DataFile {
                    reader: open_reader(active.path())?,
                    len: 0,
                    dead_bytes: 0,
                },
            );
            inner.active = active;
            inner.active_id = active_id;
            snapshot = inner
                .index
                .iter()
                .filter(|(_, loc)| sealed_ids.contains(&loc.file_id))
                .map(|(k, loc)| (k.clone(), *loc))
                .collect::<Vec<_>>();
            readers = inner
                .files
                .iter()
                .filter(|(id, _)| sealed_ids.contains(*id))
                .map(|(id, f)| (*id, f.reader.clone()))
                .collect::<BTreeMap<u64, Arc<File>>>();
        }
        // Phase 2 (no lock): rewrite live entries into `.vmerge` outputs.
        // Batches of entries share one record to amortise framing.
        let mut bytes_read = 0u64;
        let mut bytes_written = 0u64;
        let mut new_locs: Vec<(Bytes, ValueLoc)> = Vec::with_capacity(snapshot.len());
        let mut out_ids: Vec<u64> = Vec::new();
        let mut out: Option<Wal> = None;
        let mut group: Vec<(Bytes, u64, u32, u32)> = Vec::new();
        let mut ops_buf: Vec<u8> = Vec::new();
        const GROUP_OPS: usize = 256;
        let mut flush_group = |out: &mut Option<Wal>,
                               group: &mut Vec<(Bytes, u64, u32, u32)>,
                               ops_buf: &mut Vec<u8>,
                               out_ids: &mut Vec<u64>,
                               bytes_written: &mut u64|
         -> Result<()> {
            if group.is_empty() {
                return Ok(());
            }
            let wal = match out {
                Some(w) => w,
                None => {
                    let id = out_base + out_ids.len() as u64;
                    debug_assert!(id < out_base + out_reserve);
                    out_ids.push(id);
                    out.insert(Wal::create(vmerge_path(&self.dir, id), false)?)
                }
            };
            let out_id = *out_ids.last().expect("output id just pushed");
            let mut payload = Vec::with_capacity(8 + ops_buf.len());
            put_uvarint(&mut payload, group.len() as u64);
            let header = payload.len() as u64;
            payload.extend_from_slice(ops_buf);
            let record_off = wal.bytes_written();
            *bytes_written += wal.append(&payload)?;
            for (key, voff, vlen, entry_bytes) in group.drain(..) {
                new_locs.push((
                    key,
                    ValueLoc {
                        file_id: out_id,
                        offset: record_off + 8 + header + voff,
                        len: vlen,
                        entry_bytes,
                    },
                ));
            }
            ops_buf.clear();
            if wal.bytes_written() >= self.options.log_file_max_bytes {
                wal.sync()?;
                *out = None;
            }
            Ok(())
        };
        for (key, loc) in &snapshot {
            let reader = &readers[&loc.file_id];
            let value = read_value(reader, *loc)?;
            bytes_read += u64::from(loc.len);
            let op_start = ops_buf.len();
            ops_buf.push(TAG_PUT);
            put_uvarint(&mut ops_buf, key.len() as u64);
            ops_buf.extend_from_slice(key);
            put_uvarint(&mut ops_buf, value.len() as u64);
            let voff = ops_buf.len() as u64;
            ops_buf.extend_from_slice(&value);
            group.push((
                key.clone(),
                voff,
                value.len() as u32,
                (ops_buf.len() - op_start) as u32,
            ));
            if group.len() >= GROUP_OPS {
                flush_group(
                    &mut out,
                    &mut group,
                    &mut ops_buf,
                    &mut out_ids,
                    &mut bytes_written,
                )?;
            }
        }
        flush_group(
            &mut out,
            &mut group,
            &mut ops_buf,
            &mut out_ids,
            &mut bytes_written,
        )?;
        if let Some(wal) = &mut out {
            wal.sync()?;
        }
        drop(out);
        // Phase 3 (brief write lock): publish outputs, retarget unchanged
        // index entries, drop the inputs. Rename-then-fsync-then-delete
        // ordering makes a crash at any point recoverable: inputs are only
        // removed once every output is durably in place, and replaying both
        // is idempotent.
        {
            let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
            let inner = &mut *inner;
            let mut out_files = BTreeMap::new();
            for &id in &out_ids {
                let final_path = vlog_path(&self.dir, id);
                std::fs::rename(vmerge_path(&self.dir, id), &final_path)
                    .map_err(|e| Error::io("publishing compaction output".to_string(), e))?;
                let len = std::fs::metadata(&final_path)
                    .map_err(|e| Error::io("sizing compaction output".to_string(), e))?
                    .len();
                out_files.insert(
                    id,
                    DataFile {
                        reader: open_reader(&final_path)?,
                        len,
                        dead_bytes: 0,
                    },
                );
            }
            if !out_ids.is_empty() {
                fsync_dir(&self.dir)?;
            }
            inner.files.append(&mut out_files);
            for (key, new_loc) in new_locs {
                match inner.index.get(&key) {
                    // Untouched since the snapshot: point it at the merge copy.
                    Some(cur) if sealed_ids.contains(&cur.file_id) => {
                        inner.index.insert(key, new_loc);
                    }
                    // Overwritten or deleted during the merge: the copy we
                    // just wrote is already dead.
                    _ => {
                        if let Some(f) = inner.files.get_mut(&new_loc.file_id) {
                            f.dead_bytes += u64::from(new_loc.entry_bytes);
                        }
                    }
                }
            }
            for id in &sealed_ids {
                inner.files.remove(id);
                // Best-effort: a file that refuses to die replays before the
                // merge output and is shadowed by it, so it is only wasted
                // space, not wrong data.
                let _ = std::fs::remove_file(vlog_path(&self.dir, *id));
            }
        }
        Metrics::incr(&self.metrics.compactions);
        Metrics::add(&self.metrics.compaction_bytes_read, bytes_read);
        Metrics::add(&self.metrics.compaction_bytes_written, bytes_written);
        span.record("bytes_read", bytes_read);
        span.record("bytes_written", bytes_written);
        Ok(())
    }

    /// Write a consistent checkpoint of the store into `dest` (which must
    /// not already contain a store). Data files are copied under the write
    /// lock, so no concurrent writer can interleave; the copy opens as a
    /// normal value-log store.
    pub fn checkpoint(&self, dest: impl Into<PathBuf>) -> Result<()> {
        let dest = dest.into();
        std::fs::create_dir_all(&dest)
            .map_err(|e| Error::io(format!("creating checkpoint dir {}", dest.display()), e))?;
        if dest.join("MANIFEST").exists() || dest.join(ENGINE_MARKER).exists() {
            return Err(Error::InvalidArgument(format!(
                "checkpoint destination {} already holds a store",
                dest.display()
            )));
        }
        let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        inner.active.sync()?;
        for &id in inner.files.keys() {
            let name = format!("{id:06}.vlog");
            std::fs::copy(vlog_path(&self.dir, id), dest.join(&name))
                .map_err(|e| Error::io(format!("copying {name} to checkpoint"), e))?;
        }
        std::fs::write(dest.join(ENGINE_MARKER), "log\n")
            .map_err(|e| Error::io("writing checkpoint backend marker".to_string(), e))?;
        Ok(())
    }

    /// Point-in-time occupancy numbers for live-metrics surfaces: data-file
    /// count, active-file bytes and the dead-byte estimate compaction runs
    /// on. One shared read lock, no I/O.
    pub fn storage_stats(&self) -> StorageStats {
        let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
        StorageStats {
            backend: Backend::Log,
            wal_bytes: inner.active.bytes_written(),
            data_files: inner.files.len() as u64,
            uncompacted_bytes: inner.total_dead_bytes(),
            compactions: self.metrics.snapshot().compactions,
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

    /// Number of data files on disk, sealed plus active (diagnostics/tests).
    pub fn data_file_count(&self) -> usize {
        self.inner
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .files
            .len()
    }

    /// Number of live keys (diagnostics/tests).
    pub fn key_count(&self) -> usize {
        self.inner
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .index
            .len()
    }
}

fn read_value(reader: &File, loc: ValueLoc) -> Result<Bytes> {
    if loc.len == 0 {
        return Ok(Bytes::new());
    }
    let mut buf = vec![0u8; loc.len as usize];
    reader
        .read_exact_at(&mut buf, loc.offset)
        .map_err(|e| Error::io(format!("reading value at offset {}", loc.offset), e))?;
    Ok(Bytes::from(buf))
}

/// Snapshot iterator over a key range of a [`LogStore`]; yields live
/// `(key, value)` pairs in ascending key order. Values are read lazily, one
/// `pread` per entry, against reader handles captured at snapshot time.
pub struct LogRangeIter {
    entries: std::vec::IntoIter<(Bytes, ValueLoc, Arc<File>)>,
}

impl LogRangeIter {
    /// Advance and return the next pair, or `None` when exhausted.
    ///
    /// Mirrors `RangeIter::next` on the LSM side: shaped like
    /// `Iterator::next` but fallible, so each step can surface I/O errors.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<(Bytes, Bytes)>> {
        match self.entries.next() {
            Some((key, loc, reader)) => Ok(Some((key, read_value(&reader, loc)?))),
            None => Ok(None),
        }
    }

    /// Drain the iterator into a vector (tests / small scans).
    pub fn collect_all(mut self) -> Result<Vec<(Bytes, Bytes)>> {
        let mut out = Vec::new();
        while let Some(kv) = self.next()? {
            out.push(kv);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(name: &str) -> Self {
            let dir = std::env::temp_dir().join(format!(
                "vlog-{name}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            std::fs::remove_dir_all(&dir).ok();
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    fn opts() -> Options {
        Options {
            // Compact only on request so tests control the file set.
            log_compaction_bytes: 0,
            ..Options::small_for_tests()
        }
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let dir = TempDir::new("roundtrip");
        let db = LogStore::open(&dir.0, opts()).unwrap();
        db.put(&b"a"[..], &b"1"[..]).unwrap();
        db.put(&b"b"[..], &b""[..]).unwrap();
        assert_eq!(db.get(b"a").unwrap().unwrap(), &b"1"[..]);
        assert_eq!(db.get(b"b").unwrap().unwrap(), &b""[..]);
        assert_eq!(db.get(b"missing").unwrap(), None);
        db.put(&b"a"[..], &b"2"[..]).unwrap();
        assert_eq!(db.get(b"a").unwrap().unwrap(), &b"2"[..]);
        db.delete(&b"a"[..]).unwrap();
        assert_eq!(db.get(b"a").unwrap(), None);
    }

    #[test]
    fn batches_are_atomic_units() {
        let dir = TempDir::new("batch");
        let db = LogStore::open(&dir.0, opts()).unwrap();
        let mut b = WriteBatch::new();
        b.put(&b"x"[..], &b"1"[..])
            .delete(&b"x"[..])
            .put(&b"y"[..], &b"2"[..]);
        db.write(b).unwrap();
        assert_eq!(db.get(b"x").unwrap(), None);
        assert_eq!(db.get(b"y").unwrap().unwrap(), &b"2"[..]);
    }

    #[test]
    fn reopen_rebuilds_index_across_rotated_files() {
        let dir = TempDir::new("reopen");
        {
            let db = LogStore::open(&dir.0, opts()).unwrap();
            for i in 0..100 {
                db.put(format!("k{i:03}"), vec![b'v'; 64]).unwrap();
            }
            db.delete(&b"k000"[..]).unwrap();
            db.put(&b"k001"[..], &b"latest"[..]).unwrap();
            assert!(db.data_file_count() > 1, "rotation never happened");
        }
        let db = LogStore::open(&dir.0, opts()).unwrap();
        assert_eq!(db.get(b"k000").unwrap(), None);
        assert_eq!(db.get(b"k001").unwrap().unwrap(), &b"latest"[..]);
        assert_eq!(db.get(b"k099").unwrap().unwrap(), &vec![b'v'; 64][..]);
        assert_eq!(db.key_count(), 99);
    }

    #[test]
    fn range_and_prefix_scans() {
        let dir = TempDir::new("range");
        let db = LogStore::open(&dir.0, opts()).unwrap();
        for key in ["a:1", "a:2", "b:1", "c:1"] {
            db.put(key, key.to_uppercase()).unwrap();
        }
        let all = db
            .range(Bound::Unbounded, Bound::Unbounded)
            .unwrap()
            .collect_all()
            .unwrap();
        assert_eq!(all.len(), 4);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
        let a = db.prefix(b"a:").unwrap().collect_all().unwrap();
        assert_eq!(a.len(), 2);
        assert_eq!(&a[1].1[..], b"A:2");
        // Inverted range is empty, not a panic.
        let none = db
            .range(Bound::Included(&b"z"[..]), Bound::Excluded(&b"a"[..]))
            .unwrap()
            .collect_all()
            .unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn torn_tail_recovers_to_last_whole_record() {
        let dir = TempDir::new("torn");
        {
            let db = LogStore::open(&dir.0, opts()).unwrap();
            db.put(&b"keep"[..], &b"me"[..]).unwrap();
            db.put(&b"lose"[..], &b"me"[..]).unwrap();
        }
        // Tear the last record of the newest data file.
        let newest = newest_vlog(&dir.0);
        let data = std::fs::read(&newest).unwrap();
        std::fs::write(&newest, &data[..data.len() - 3]).unwrap();
        let db = LogStore::open(&dir.0, opts()).unwrap();
        assert_eq!(db.get(b"keep").unwrap().unwrap(), &b"me"[..]);
        assert_eq!(db.get(b"lose").unwrap(), None);
    }

    #[test]
    fn damage_before_newer_data_is_corruption() {
        let dir = TempDir::new("midfile");
        {
            let db = LogStore::open(&dir.0, opts()).unwrap();
            for i in 0..100 {
                db.put(format!("k{i:03}"), vec![b'v'; 64]).unwrap();
            }
            assert!(db.data_file_count() > 2);
        }
        let oldest = oldest_vlog(&dir.0);
        let data = std::fs::read(&oldest).unwrap();
        std::fs::write(&oldest, &data[..data.len() - 3]).unwrap();
        let err = LogStore::open(&dir.0, opts()).unwrap_err();
        assert!(matches!(err, Error::Corruption { .. }), "{err}");
    }

    #[test]
    fn compaction_reclaims_dead_bytes_and_preserves_live_keys() {
        let dir = TempDir::new("compact");
        let db = LogStore::open(&dir.0, opts()).unwrap();
        // Overwrite a small key set many times: almost everything is dead.
        for round in 0..20 {
            for i in 0..10 {
                db.put(format!("k{i}"), format!("round-{round}-{i}").repeat(8))
                    .unwrap();
            }
        }
        db.delete(&b"k9"[..]).unwrap();
        let before = db.storage_stats();
        assert!(before.uncompacted_bytes > 0);
        let files_before = db.data_file_count();
        assert!(files_before > 2);
        db.compact().unwrap();
        let after = db.storage_stats();
        assert_eq!(after.uncompacted_bytes, 0);
        assert_eq!(after.compactions, 1);
        assert!(
            db.data_file_count() < files_before,
            "{} !< {files_before}",
            db.data_file_count()
        );
        for i in 0..9 {
            assert_eq!(
                db.get(format!("k{i}").as_bytes()).unwrap().unwrap(),
                format!("round-19-{i}").repeat(8).as_bytes()
            );
        }
        assert_eq!(db.get(b"k9").unwrap(), None);
        // Survives reopen: the merge output is a normal data file.
        drop(db);
        let db = LogStore::open(&dir.0, opts()).unwrap();
        assert_eq!(db.key_count(), 9);
        assert_eq!(
            db.get(b"k0").unwrap().unwrap(),
            "round-19-0".repeat(8).as_bytes()
        );
    }

    #[test]
    fn automatic_compaction_bounds_dead_bytes() {
        let dir = TempDir::new("auto-compact");
        let db = LogStore::open(
            &dir.0,
            Options {
                log_compaction_bytes: 4096,
                ..Options::small_for_tests()
            },
        )
        .unwrap();
        for round in 0..50 {
            db.put(&b"hot"[..], format!("{round}").repeat(64)).unwrap();
        }
        let stats = db.storage_stats();
        assert!(stats.compactions >= 1, "never auto-compacted: {stats:?}");
        // The threshold bounds the dead backlog (one write may overshoot).
        assert!(
            stats.uncompacted_bytes < 4096 + 1024,
            "dead bytes unbounded: {stats:?}"
        );
        assert_eq!(db.get(b"hot").unwrap().unwrap(), "49".repeat(64).as_bytes());
    }

    #[test]
    fn scans_survive_concurrent_compaction() {
        let dir = TempDir::new("scan-compact");
        let db = LogStore::open(&dir.0, opts()).unwrap();
        for i in 0..50 {
            db.put(format!("k{i:02}"), vec![b'x'; 100]).unwrap();
        }
        let iter = db.range(Bound::Unbounded, Bound::Unbounded).unwrap();
        // Invalidate everything the iterator points at.
        for i in 0..50 {
            db.put(format!("k{i:02}"), vec![b'y'; 100]).unwrap();
        }
        db.compact().unwrap();
        // The snapshot still reads the old values from deleted files.
        let all = iter.collect_all().unwrap();
        assert_eq!(all.len(), 50);
        assert!(all.iter().all(|(_, v)| v[..] == vec![b'x'; 100][..]));
    }

    #[test]
    fn checkpoint_roundtrip() {
        let dir = TempDir::new("ckpt");
        let dest = TempDir::new("ckpt-dest");
        let db = LogStore::open(&dir.0, opts()).unwrap();
        for i in 0..30 {
            db.put(format!("k{i:02}"), format!("v{i}")).unwrap();
        }
        db.delete(&b"k00"[..]).unwrap();
        db.checkpoint(&dest.0).unwrap();
        // Destination already holding a store is refused.
        let err = db.checkpoint(&dest.0).unwrap_err();
        assert!(matches!(err, Error::InvalidArgument(_)), "{err}");
        // Source keeps writing; the checkpoint is frozen.
        db.put(&b"k01"[..], &b"newer"[..]).unwrap();
        let copy = LogStore::open(&dest.0, opts()).unwrap();
        assert_eq!(copy.get(b"k00").unwrap(), None);
        assert_eq!(copy.get(b"k01").unwrap().unwrap(), &b"v1"[..]);
        assert_eq!(copy.key_count(), 29);
    }

    #[test]
    fn stats_report_log_shape() {
        let dir = TempDir::new("stats");
        let db = LogStore::open(&dir.0, opts()).unwrap();
        db.put(&b"k"[..], &b"v"[..]).unwrap();
        db.put(&b"k"[..], &b"w"[..]).unwrap();
        let stats = db.storage_stats();
        assert_eq!(stats.backend, Backend::Log);
        assert!(stats.data_files >= 1);
        assert!(stats.wal_bytes > 0);
        assert!(stats.uncompacted_bytes > 0, "overwrite left no dead bytes");
        assert_eq!(stats.sstables, 0);
        assert_eq!(stats.memtable_entries, 0);
    }

    #[test]
    fn interrupted_merge_leftovers_are_discarded() {
        let dir = TempDir::new("vmerge");
        {
            let db = LogStore::open(&dir.0, opts()).unwrap();
            db.put(&b"k"[..], &b"v"[..]).unwrap();
        }
        std::fs::write(dir.0.join("000099.vmerge"), b"half-written").unwrap();
        let db = LogStore::open(&dir.0, opts()).unwrap();
        assert_eq!(db.get(b"k").unwrap().unwrap(), &b"v"[..]);
        assert!(!dir.0.join("000099.vmerge").exists());
    }

    fn newest_vlog(dir: &Path) -> PathBuf {
        vlogs(dir)
            .into_iter()
            .max()
            .map(|id| vlog_path(dir, id))
            .unwrap()
    }

    fn oldest_vlog(dir: &Path) -> PathBuf {
        vlogs(dir)
            .into_iter()
            .min()
            .map(|id| vlog_path(dir, id))
            .unwrap()
    }

    fn vlogs(dir: &Path) -> Vec<u64> {
        std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| {
                e.unwrap()
                    .file_name()
                    .to_str()
                    .and_then(|n| n.strip_suffix(".vlog").map(str::to_string))
            })
            .map(|stem| stem.parse().unwrap())
            .collect()
    }
}
