//! The storage-engine boundary.
//!
//! Everything above this crate — the ledger indexes, the state database, the
//! CLI — talks to storage through the [`StorageEngine`] trait. One engine
//! implements it, the LSM [`crate::KvStore`] (WAL + memtable + SSTables);
//! the trait stays so that callers can wrap a store, e.g. to count the
//! entries a scan pulls.
//!
//! [`open_engine`] opens the store in a directory. Directories written by the
//! value-log engine that older builds shipped carry an `ENGINE` marker file;
//! they are refused by name and left untouched, never opened as an empty LSM.

use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bytes::Bytes;
use fabric_telemetry::Telemetry;

use crate::batch::WriteBatch;
use crate::error::{Error, Result};
use crate::metrics::MetricsSnapshot;
use crate::options::Options;
use crate::store::{KvStore, RangeIter, StorageStats};

/// Name of the marker file the value-log engine of older builds wrote into
/// its store directories. LSM directories never hold one.
const ENGINE_MARKER: &str = "ENGINE";

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

/// The full storage surface the upper layers use. Object-safe so a store can
/// be wrapped at runtime (`Arc<dyn StorageEngine>`).
pub trait StorageEngine: Send + Sync + std::fmt::Debug {
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

/// Open the store in `dir`, creating it if needed. A value-log directory
/// is refused first (see [`refuse_value_log`]).
pub fn open_engine(
    dir: impl Into<PathBuf>,
    options: Options,
    tel: Telemetry,
) -> Result<SharedEngine> {
    let dir = dir.into();
    refuse_value_log(&dir)?;
    Ok(Arc::new(KvStore::open_with_telemetry(dir, options, tel)?))
}

/// Refuse a store directory that holds an `ENGINE` marker: the value-log
/// engine that wrote it is no longer supported. The error names the marker,
/// and nothing is created, so the directory is left as it was.
pub fn refuse_value_log(dir: &Path) -> Result<()> {
    let marker = dir.join(ENGINE_MARKER);
    if marker.exists() {
        return Err(Error::InvalidArgument(format!(
            "{} marks a value-log store, which is no longer supported",
            marker.display()
        )));
    }
    Ok(())
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

    #[test]
    fn value_log_dir_is_refused_and_left_untouched() {
        let dir = TempDir::new("value-log");
        std::fs::create_dir_all(&dir.0).unwrap();
        std::fs::write(dir.0.join(ENGINE_MARKER), "log\n").unwrap();
        let err =
            open_engine(&dir.0, Options::small_for_tests(), Telemetry::disabled()).unwrap_err();
        assert!(matches!(err, Error::InvalidArgument(_)), "{err}");
        assert!(err.to_string().contains(ENGINE_MARKER), "{err}");
        let left: Vec<_> = std::fs::read_dir(&dir.0)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(left, [ENGINE_MARKER], "refusing wrote into the directory");
    }

    #[test]
    fn trait_surface_matches_concrete_store() {
        let dir = TempDir::new("surface");
        let db = open_engine(&dir.0, Options::small_for_tests(), Telemetry::disabled()).unwrap();
        // A fresh directory is an LSM store, and it is never marked.
        assert!(dir.0.join("MANIFEST").exists());
        assert!(!dir.0.join(ENGINE_MARKER).exists());
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
        assert!(db.metrics().puts >= 2);
        assert_eq!(db.dir(), &dir.0);
    }
}
