//! The state database: current state of every key.
//!
//! Fabric keeps this in LevelDB/CouchDB; here it lives on a
//! [`fabric_kvstore::KvStore`]. Each stored value is the committing
//! version (12 bytes) followed by the value bytes, so MVCC validation can
//! compare versions without a second lookup.

use std::ops::Bound;

use bytes::Bytes;
use fabric_kvstore::{SharedEngine, StorageEngine, WriteBatch};

use crate::error::{Error, Result};
use crate::tx::Version;

/// A versioned value as stored in the state database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionedValue {
    /// Which block/tx wrote this state.
    pub version: Version,
    /// The value bytes.
    pub value: Bytes,
}

impl VersionedValue {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + self.value.len());
        out.extend_from_slice(&self.version.block_num.to_le_bytes());
        out.extend_from_slice(&self.version.tx_num.to_le_bytes());
        out.extend_from_slice(&self.value);
        out
    }

    fn decode(data: &[u8]) -> Result<Self> {
        if data.len() < 12 {
            return Err(Error::InvalidArgument(
                "state value shorter than version header".into(),
            ));
        }
        Ok(VersionedValue {
            version: Version {
                block_num: u64::from_le_bytes(data[..8].try_into().unwrap()),
                tx_num: u32::from_le_bytes(data[8..12].try_into().unwrap()),
            },
            value: Bytes::copy_from_slice(&data[12..]),
        })
    }
}

/// The current-state store. Generic over the storage engine: any
/// [`StorageEngine`] implementation can host the state keyspace.
#[derive(Debug, Clone)]
pub struct StateDb {
    db: SharedEngine,
}

impl StateDb {
    /// Wrap an open storage engine.
    pub fn new(db: SharedEngine) -> Self {
        StateDb { db }
    }

    /// The underlying store (for occupancy gauges).
    pub(crate) fn store(&self) -> &dyn StorageEngine {
        self.db.as_ref()
    }

    /// Current state of `key`, with its committing version.
    pub fn get(&self, key: &[u8]) -> Result<Option<VersionedValue>> {
        match self.db.get(key)? {
            Some(bytes) => Ok(Some(VersionedValue::decode(&bytes)?)),
            None => Ok(None),
        }
    }

    /// Version of `key`'s current state (MVCC read-set capture).
    pub fn version(&self, key: &[u8]) -> Result<Option<Version>> {
        Ok(self.get(key)?.map(|v| v.version))
    }

    /// Apply one committed block's state updates atomically.
    /// `None` values delete the key.
    pub fn apply(&self, updates: &[(Bytes, Option<Bytes>, Version)]) -> Result<()> {
        if updates.is_empty() {
            return Ok(());
        }
        let mut batch = WriteBatch::new();
        for (key, value, version) in updates {
            match value {
                Some(v) => {
                    let vv = VersionedValue {
                        version: *version,
                        value: v.clone(),
                    };
                    batch.put(key.clone(), vv.encode());
                }
                None => {
                    batch.delete(key.clone());
                }
            }
        }
        self.db.write(batch)?;
        Ok(())
    }

    /// Range scan over current states: keys in `[start, end)`
    /// (`GetStateByRange` semantics; `None` bounds are open).
    pub fn range(
        &self,
        start: Option<&[u8]>,
        end: Option<&[u8]>,
    ) -> Result<Vec<(Bytes, VersionedValue)>> {
        let start_bound = start.map_or(Bound::Unbounded, Bound::Included);
        let end_bound = end.map_or(Bound::Unbounded, Bound::Excluded);
        let mut iter = self.db.range(start_bound, end_bound)?;
        let mut out = Vec::new();
        while let Some((k, v)) = iter.next()? {
            out.push((k, VersionedValue::decode(&v)?));
        }
        Ok(out)
    }

    /// Keys starting with `prefix`, with their current states.
    pub fn prefix(&self, prefix: &[u8]) -> Result<Vec<(Bytes, VersionedValue)>> {
        let mut iter = self.db.prefix(prefix)?;
        let mut out = Vec::new();
        while let Some((k, v)) = iter.next()? {
            out.push((k, VersionedValue::decode(&v)?));
        }
        Ok(out)
    }

    /// Number of live keys (diagnostic; walks the store).
    pub fn key_count(&self) -> Result<usize> {
        let mut iter = self.db.range(Bound::Unbounded, Bound::Unbounded)?;
        let mut n = 0;
        while iter.next()?.is_some() {
            n += 1;
        }
        Ok(n)
    }

    /// Flush the underlying store.
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
    use fabric_kvstore::Options;

    struct TempDir(std::path::PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let p = std::env::temp_dir().join(format!(
                "statedb-test-{}-{tag}-{:?}",
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

    fn statedb(dir: &TempDir) -> StateDb {
        StateDb::new(std::sync::Arc::new(
            fabric_kvstore::KvStore::open(&dir.0, Options::small_for_tests()).unwrap(),
        ))
    }

    fn v(block: u64, tx: u32) -> Version {
        Version {
            block_num: block,
            tx_num: tx,
        }
    }

    #[test]
    fn apply_and_get() {
        let dir = TempDir::new("ag");
        let db = statedb(&dir);
        db.apply(&[(
            Bytes::from_static(b"k"),
            Some(Bytes::from_static(b"val")),
            v(1, 0),
        )])
        .unwrap();
        let got = db.get(b"k").unwrap().unwrap();
        assert_eq!(got.value, Bytes::from_static(b"val"));
        assert_eq!(got.version, v(1, 0));
        assert_eq!(db.version(b"k").unwrap(), Some(v(1, 0)));
        assert_eq!(db.get(b"absent").unwrap(), None);
    }

    #[test]
    fn apply_overwrites_and_deletes() {
        let dir = TempDir::new("od");
        let db = statedb(&dir);
        db.apply(&[(
            Bytes::from_static(b"k"),
            Some(Bytes::from_static(b"v1")),
            v(1, 0),
        )])
        .unwrap();
        db.apply(&[(
            Bytes::from_static(b"k"),
            Some(Bytes::from_static(b"v2")),
            v(2, 0),
        )])
        .unwrap();
        assert_eq!(
            db.get(b"k").unwrap().unwrap().value,
            Bytes::from_static(b"v2")
        );
        db.apply(&[(Bytes::from_static(b"k"), None, v(3, 0))])
            .unwrap();
        assert_eq!(db.get(b"k").unwrap(), None);
    }

    #[test]
    fn range_scan_is_sorted_and_bounded() {
        let dir = TempDir::new("range");
        let db = statedb(&dir);
        for (i, key) in ["c1", "s1", "s2", "s3", "t1"].iter().enumerate() {
            db.apply(&[(
                Bytes::copy_from_slice(key.as_bytes()),
                Some(Bytes::from_static(b"x")),
                v(i as u64, 0),
            )])
            .unwrap();
        }
        let got = db.range(Some(b"s1"), Some(b"t")).unwrap();
        let keys: Vec<&[u8]> = got.iter().map(|(k, _)| &k[..]).collect();
        assert_eq!(keys, vec![b"s1", b"s2", b"s3"]);
        let all = db.range(None, None).unwrap();
        assert_eq!(all.len(), 5);
    }

    #[test]
    fn prefix_scan() {
        let dir = TempDir::new("prefix");
        let db = statedb(&dir);
        for key in ["s:1", "s:2", "t:1"] {
            db.apply(&[(
                Bytes::copy_from_slice(key.as_bytes()),
                Some(Bytes::from_static(b"x")),
                v(0, 0),
            )])
            .unwrap();
        }
        assert_eq!(db.prefix(b"s:").unwrap().len(), 2);
        assert_eq!(db.key_count().unwrap(), 3);
    }

    #[test]
    fn decode_rejects_short_values() {
        assert!(VersionedValue::decode(&[1, 2, 3]).is_err());
    }
}
