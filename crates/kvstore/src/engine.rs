//! The pluggable storage-engine boundary.
//!
//! Everything above this crate — the ledger indexes, the state database, the
//! CLI — talks to storage through the [`StorageEngine`] trait, so the
//! concrete engine is a deployment choice rather than a compile-time one.
//! Two implementations ship today:
//!
//! * [`crate::KvStore`] — the LSM (WAL + memtable + SSTables), the default.
//! * [`crate::LogStore`] — a bitcask-style value log (append-only data
//!   files with an in-memory offset index), which trades range-scan
//!   locality for strictly sequential writes and cheap garbage collection
//!   of overwritten values.
//!
//! [`open_engine`] resolves which implementation owns a directory. Value-log
//! directories carry an `ENGINE` marker file; LSM directories deliberately
//! do **not**, so every store created before this boundary existed keeps its
//! byte-identical on-disk layout and auto-detects as LSM.

use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bytes::Bytes;
use fabric_telemetry::Telemetry;

use crate::batch::WriteBatch;
use crate::error::{Error, Result};
use crate::metrics::MetricsSnapshot;
use crate::options::{Backend, Options};
use crate::store::{KvStore, RangeIter, StorageStats};
use crate::vlog::{LogRangeIter, LogStore};

/// Name of the backend marker file written into value-log directories.
pub const ENGINE_MARKER: &str = "ENGINE";

/// A shared, dynamically dispatched storage engine.
pub type SharedEngine = Arc<dyn StorageEngine>;

/// A snapshot iterator handed out by a [`StorageEngine`]: live
/// `(key, value)` pairs in ascending key order.
pub trait EngineIter: Send {
    /// Advance and return the next pair, or `None` when exhausted.
    ///
    /// Deliberately shaped like `Iterator::next` but fallible; the trait
    /// stays object-safe and callers handle I/O errors per step.
    #[allow(clippy::should_implement_trait)]
    fn next(&mut self) -> Result<Option<(Bytes, Bytes)>>;

    /// Drain the iterator into a vector (tests / small scans).
    fn collect_all(&mut self) -> Result<Vec<(Bytes, Bytes)>> {
        let mut out = Vec::new();
        while let Some(kv) = self.next()? {
            out.push(kv);
        }
        Ok(out)
    }
}

impl EngineIter for RangeIter {
    fn next(&mut self) -> Result<Option<(Bytes, Bytes)>> {
        RangeIter::next(self)
    }
}

impl EngineIter for LogRangeIter {
    fn next(&mut self) -> Result<Option<(Bytes, Bytes)>> {
        LogRangeIter::next(self)
    }
}

/// The full storage surface the upper layers use. Object-safe so engines can
/// be swapped at runtime (`Arc<dyn StorageEngine>`).
pub trait StorageEngine: Send + Sync + std::fmt::Debug {
    /// Which implementation this is.
    fn backend(&self) -> Backend;

    /// Insert or overwrite one key.
    fn put(&self, key: Bytes, value: Bytes) -> Result<()>;

    /// Remove one key.
    fn delete(&self, key: Bytes) -> Result<()>;

    /// Apply a batch atomically: either every operation replays after a
    /// crash or none does.
    fn write(&self, batch: WriteBatch) -> Result<()>;

    /// Point lookup.
    fn get(&self, key: &[u8]) -> Result<Option<Bytes>>;

    /// Snapshot scan over a key range in ascending order. An inverted range
    /// yields an empty iterator.
    fn range(&self, start: Bound<&[u8]>, end: Bound<&[u8]>) -> Result<Box<dyn EngineIter>>;

    /// Snapshot scan over every key starting with `prefix`.
    fn prefix(&self, prefix: &[u8]) -> Result<Box<dyn EngineIter>>;

    /// Force buffered writes down to durable storage.
    fn flush(&self) -> Result<()>;

    /// Run a full merge compaction, reclaiming dead entries.
    fn compact(&self) -> Result<()>;

    /// Write a point-in-time copy of the store into `dest`, which must not
    /// already hold a store. The copy opens as a normal store.
    fn checkpoint(&self, dest: &Path) -> Result<()>;

    /// Point-in-time occupancy numbers for live-metrics surfaces.
    fn storage_stats(&self) -> StorageStats;

    /// Snapshot of the operation counters.
    fn metrics(&self) -> MetricsSnapshot;

    /// The telemetry handle this store records into.
    fn telemetry(&self) -> &Telemetry;

    /// Directory this store lives in.
    fn dir(&self) -> &Path;
}

impl StorageEngine for KvStore {
    fn backend(&self) -> Backend {
        Backend::Lsm
    }

    fn put(&self, key: Bytes, value: Bytes) -> Result<()> {
        KvStore::put(self, key, value)
    }

    fn delete(&self, key: Bytes) -> Result<()> {
        KvStore::delete(self, key)
    }

    fn write(&self, batch: WriteBatch) -> Result<()> {
        KvStore::write(self, batch)
    }

    fn get(&self, key: &[u8]) -> Result<Option<Bytes>> {
        KvStore::get(self, key)
    }

    fn range(&self, start: Bound<&[u8]>, end: Bound<&[u8]>) -> Result<Box<dyn EngineIter>> {
        Ok(Box::new(KvStore::range(self, start, end)?))
    }

    fn prefix(&self, prefix: &[u8]) -> Result<Box<dyn EngineIter>> {
        Ok(Box::new(KvStore::prefix(self, prefix)?))
    }

    fn flush(&self) -> Result<()> {
        KvStore::flush(self)
    }

    fn compact(&self) -> Result<()> {
        KvStore::compact(self)
    }

    fn checkpoint(&self, dest: &Path) -> Result<()> {
        KvStore::checkpoint(self, dest)
    }

    fn storage_stats(&self) -> StorageStats {
        KvStore::storage_stats(self)
    }

    fn metrics(&self) -> MetricsSnapshot {
        KvStore::metrics(self)
    }

    fn telemetry(&self) -> &Telemetry {
        KvStore::telemetry(self)
    }

    fn dir(&self) -> &Path {
        KvStore::dir(self)
    }
}

impl StorageEngine for LogStore {
    fn backend(&self) -> Backend {
        Backend::Log
    }

    fn put(&self, key: Bytes, value: Bytes) -> Result<()> {
        LogStore::put(self, key, value)
    }

    fn delete(&self, key: Bytes) -> Result<()> {
        LogStore::delete(self, key)
    }

    fn write(&self, batch: WriteBatch) -> Result<()> {
        LogStore::write(self, batch)
    }

    fn get(&self, key: &[u8]) -> Result<Option<Bytes>> {
        LogStore::get(self, key)
    }

    fn range(&self, start: Bound<&[u8]>, end: Bound<&[u8]>) -> Result<Box<dyn EngineIter>> {
        Ok(Box::new(LogStore::range(self, start, end)?))
    }

    fn prefix(&self, prefix: &[u8]) -> Result<Box<dyn EngineIter>> {
        Ok(Box::new(LogStore::prefix(self, prefix)?))
    }

    fn flush(&self) -> Result<()> {
        LogStore::flush(self)
    }

    fn compact(&self) -> Result<()> {
        LogStore::compact(self)
    }

    fn checkpoint(&self, dest: &Path) -> Result<()> {
        LogStore::checkpoint(self, dest)
    }

    fn storage_stats(&self) -> StorageStats {
        LogStore::storage_stats(self)
    }

    fn metrics(&self) -> MetricsSnapshot {
        LogStore::metrics(self)
    }

    fn telemetry(&self) -> &Telemetry {
        LogStore::telemetry(self)
    }

    fn dir(&self) -> &Path {
        LogStore::dir(self)
    }
}

/// Read the backend marker in `dir`, if one is present. `Ok(None)` means the
/// directory is unmarked (an LSM store, or not a store at all).
pub fn detect_backend(dir: &Path) -> Result<Option<Backend>> {
    let marker = dir.join(ENGINE_MARKER);
    match std::fs::read_to_string(&marker) {
        Ok(text) => match text.trim() {
            "lsm" => Ok(Some(Backend::Lsm)),
            "log" => Ok(Some(Backend::Log)),
            other => Err(Error::corruption(
                &marker,
                format!("unknown backend marker {other:?}"),
            )),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(Error::io(
            format!("reading backend marker {}", marker.display()),
            e,
        )),
    }
}

/// Open the engine that owns `dir`, creating it if needed.
///
/// Resolution rules:
///
/// * A marked directory always opens as its marked backend; asking for the
///   other backend explicitly is an error rather than a silent reformat.
/// * An unmarked directory resolves [`Backend::Auto`] to LSM — this is what
///   keeps pre-boundary stores opening unchanged.
/// * An unmarked directory that already holds an LSM store (has a
///   `MANIFEST`) refuses to open as `log`.
pub fn open_engine(
    dir: impl Into<PathBuf>,
    options: Options,
    tel: Telemetry,
) -> Result<SharedEngine> {
    let dir = dir.into();
    let marked = detect_backend(&dir)?;
    let resolved = match (marked, options.backend) {
        (Some(found), Backend::Auto) => found,
        (Some(found), requested) if requested == found => found,
        (Some(found), requested) => {
            return Err(Error::InvalidArgument(format!(
                "store at {} uses the {found} backend; cannot open it as {requested}",
                dir.display()
            )))
        }
        (None, Backend::Auto) => Backend::Lsm,
        (None, Backend::Log) if dir.join("MANIFEST").exists() => {
            return Err(Error::InvalidArgument(format!(
                "store at {} holds an lsm store; cannot open it as log",
                dir.display()
            )))
        }
        (None, requested) => requested,
    };
    Ok(match resolved {
        Backend::Log => Arc::new(LogStore::open_with_telemetry(dir, options, tel)?),
        _ => Arc::new(KvStore::open_with_telemetry(dir, options, tel)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(name: &str) -> Self {
            let dir = std::env::temp_dir().join(format!(
                "engine-{name}-{}-{:?}",
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

    fn opts(backend: Backend) -> Options {
        Options {
            backend,
            ..Options::small_for_tests()
        }
    }

    #[test]
    fn auto_resolves_fresh_dir_to_lsm() {
        let dir = TempDir::new("auto-lsm");
        let db = open_engine(&dir.0, opts(Backend::Auto), Telemetry::disabled()).unwrap();
        assert_eq!(db.backend(), Backend::Lsm);
        // The LSM layout stays marker-free: pre-boundary stores must keep
        // their exact on-disk shape.
        assert!(!dir.0.join(ENGINE_MARKER).exists());
        assert!(dir.0.join("MANIFEST").exists());
    }

    #[test]
    fn log_dirs_are_marked_and_autodetected() {
        let dir = TempDir::new("auto-log");
        {
            let db = open_engine(&dir.0, opts(Backend::Log), Telemetry::disabled()).unwrap();
            db.put(Bytes::from_static(b"k"), Bytes::from_static(b"v"))
                .unwrap();
            assert_eq!(db.backend(), Backend::Log);
        }
        assert_eq!(detect_backend(&dir.0).unwrap(), Some(Backend::Log));
        let db = open_engine(&dir.0, opts(Backend::Auto), Telemetry::disabled()).unwrap();
        assert_eq!(db.backend(), Backend::Log);
        assert_eq!(db.get(b"k").unwrap().unwrap(), &b"v"[..]);
    }

    #[test]
    fn backend_mismatch_is_rejected() {
        let dir = TempDir::new("mismatch");
        drop(open_engine(&dir.0, opts(Backend::Log), Telemetry::disabled()).unwrap());
        let err = open_engine(&dir.0, opts(Backend::Lsm), Telemetry::disabled()).unwrap_err();
        assert!(matches!(err, Error::InvalidArgument(_)), "{err}");
    }

    #[test]
    fn unmarked_lsm_dir_refuses_log_backend() {
        let dir = TempDir::new("unmarked");
        drop(open_engine(&dir.0, opts(Backend::Lsm), Telemetry::disabled()).unwrap());
        let err = open_engine(&dir.0, opts(Backend::Log), Telemetry::disabled()).unwrap_err();
        assert!(matches!(err, Error::InvalidArgument(_)), "{err}");
    }

    #[test]
    fn garbage_marker_is_corruption() {
        let dir = TempDir::new("garbage-marker");
        std::fs::create_dir_all(&dir.0).unwrap();
        std::fs::write(dir.0.join(ENGINE_MARKER), "riak\n").unwrap();
        let err = open_engine(&dir.0, opts(Backend::Auto), Telemetry::disabled()).unwrap_err();
        assert!(matches!(err, Error::Corruption { .. }), "{err}");
    }

    #[test]
    fn trait_surface_matches_concrete_store() {
        let dir = TempDir::new("surface");
        let db = open_engine(&dir.0, opts(Backend::Auto), Telemetry::disabled()).unwrap();
        db.put(Bytes::from_static(b"a"), Bytes::from_static(b"1"))
            .unwrap();
        let mut batch = WriteBatch::new();
        batch.put(&b"b"[..], &b"2"[..]).delete(&b"a"[..]);
        db.write(batch).unwrap();
        assert_eq!(db.get(b"a").unwrap(), None);
        let mut iter = db.range(Bound::Unbounded, Bound::Unbounded).unwrap();
        let all = iter.collect_all().unwrap();
        assert_eq!(all.len(), 1);
        assert_eq!(&all[0].0[..], b"b");
        assert_eq!(db.storage_stats().backend, Backend::Lsm);
        assert!(db.metrics().puts >= 2);
        assert_eq!(db.dir(), &dir.0);
    }
}
