//! # fabric-kvstore
//!
//! An embedded, ordered, persistent key-value store in the LevelDB family,
//! built from scratch for the `temporal-fabric` workspace. It plays the role
//! LevelDB plays inside a Hyperledger Fabric peer: the **state database**
//! (current state of every key), the **history index** and the **block
//! location index** are all hosted on instances of this store.
//!
//! ## Architecture
//!
//! * Writes go to a CRC-framed [write-ahead log](wal) and a sorted in-memory
//!   [`memtable`].
//! * When the memtable exceeds [`Options::memtable_max_bytes`] it is flushed
//!   to an immutable [SSTable](sstable) with a sparse index, a bloom filter
//!   and per-region checksums.
//! * Reads consult the memtable, then SSTables newest-first; bloom filters
//!   and min/max key fences prune tables that cannot contain the key.
//! * Range scans [merge](iter) all levels, newest version wins.
//! * A full-merge [compaction](store::KvStore::compact) folds all tables
//!   into one, dropping shadowed versions and tombstones.
//!
//! ## Example
//!
//! ```
//! use fabric_kvstore::{KvStore, Options};
//!
//! let dir = std::env::temp_dir().join(format!("kv-doc-{}", std::process::id()));
//! let db = KvStore::open(&dir, Options::default())?;
//! db.put(&b"ship:1"[..], &b"container-9"[..])?;
//! db.put(&b"ship:2"[..], &b"container-4"[..])?;
//! assert_eq!(db.get(b"ship:1")?.unwrap(), &b"container-9"[..]);
//!
//! let mut iter = db.prefix(b"ship:")?;
//! let mut n = 0;
//! while let Some((_k, _v)) = iter.next()? {
//!     n += 1;
//! }
//! assert_eq!(n, 2);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), fabric_kvstore::Error>(())
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod batch;
pub mod bloom;
pub mod crc32;
pub mod engine;
pub mod error;
pub mod iter;
pub mod memtable;
pub mod metrics;
pub mod options;
pub mod sstable;
pub mod store;
pub mod wal;

pub use batch::{BatchOp, WriteBatch};
pub use engine::{open_engine, refuse_value_log, EngineIter, SharedEngine, StorageEngine};
pub use error::{Error, Result};
pub use memtable::Slot;
pub use metrics::MetricsSnapshot;
pub use options::Options;
pub use store::{fsync_dir, prefix_end, KvStore, RangeIter, StorageStats};
