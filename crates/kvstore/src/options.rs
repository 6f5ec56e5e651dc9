//! Tunable options controlling store behaviour.

/// Which storage-engine implementation backs a store directory.
///
/// Selected through [`Options::backend`] and resolved by
/// [`crate::open_engine`]: directories created by the value-log engine carry
/// an `ENGINE` marker file and are auto-detected on reopen; LSM directories
/// keep the original marker-free layout, so pre-existing stores keep opening
/// bit-identically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Backend {
    /// Resolve from the on-disk marker, falling back to [`Backend::Lsm`]
    /// for unmarked (or fresh) directories.
    #[default]
    Auto,
    /// The LSM engine ([`crate::KvStore`]): WAL + memtable + SSTables.
    Lsm,
    /// The bitcask-style value-log engine ([`crate::LogStore`]):
    /// append-only data files + in-memory offset index.
    Log,
}

impl Backend {
    /// Numeric encoding used for the `kv.backend` gauge: 0 = lsm, 1 = log.
    /// `Auto` never survives engine resolution, but encodes as -1 for
    /// completeness.
    pub fn as_gauge(self) -> i64 {
        match self {
            Backend::Auto => -1,
            Backend::Lsm => 0,
            Backend::Log => 1,
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Backend::Auto => "auto",
            Backend::Lsm => "lsm",
            Backend::Log => "log",
        })
    }
}

impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(Backend::Auto),
            "lsm" => Ok(Backend::Lsm),
            "log" => Ok(Backend::Log),
            other => Err(format!(
                "unknown backend {other:?} (expected lsm, log or auto)"
            )),
        }
    }
}

/// Configuration for a [`crate::KvStore`].
///
/// The defaults are sized for the ledger workloads in this workspace:
/// small values, many keys, frequent range scans.
#[derive(Debug, Clone)]
pub struct Options {
    /// Flush the memtable to an SSTable once its approximate in-memory
    /// footprint exceeds this many bytes.
    pub memtable_max_bytes: usize,
    /// `fsync` the write-ahead log after every write batch. Turning this off
    /// trades durability of the most recent writes for throughput; the store
    /// remains crash-consistent either way (torn tails are discarded).
    pub sync_wal: bool,
    /// One sparse-index entry is emitted for every `sparse_index_interval`
    /// entries written to an SSTable.
    pub sparse_index_interval: usize,
    /// Bits per key for SSTable bloom filters. Zero disables blooms.
    pub bloom_bits_per_key: usize,
    /// Trigger a full merge compaction when the number of live SSTables
    /// reaches this count. Zero disables automatic compaction.
    pub compaction_trigger: usize,
    /// Which engine implementation to open (see [`Backend`]). Ignored by the
    /// concrete constructors (`KvStore::open` is always LSM); consulted by
    /// [`crate::open_engine`].
    pub backend: Backend,
    /// Value-log engine only: rotate the active data file once it exceeds
    /// this many bytes.
    pub log_file_max_bytes: u64,
    /// Value-log engine only: trigger a merge compaction once the estimated
    /// bytes of dead entries (overwritten or deleted) across sealed data
    /// files reaches this threshold. Zero disables automatic compaction.
    pub log_compaction_bytes: u64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            memtable_max_bytes: 4 << 20,
            sync_wal: false,
            sparse_index_interval: 16,
            bloom_bits_per_key: 10,
            compaction_trigger: 8,
            backend: Backend::Auto,
            log_file_max_bytes: 16 << 20,
            log_compaction_bytes: 8 << 20,
        }
    }
}

impl Options {
    /// Options tuned for unit tests: tiny memtable so flush/compaction paths
    /// are exercised with little data.
    pub fn small_for_tests() -> Self {
        Options {
            memtable_max_bytes: 1024,
            sync_wal: false,
            sparse_index_interval: 4,
            bloom_bits_per_key: 10,
            compaction_trigger: 4,
            backend: Backend::Auto,
            log_file_max_bytes: 2048,
            log_compaction_bytes: 4096,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let o = Options::default();
        assert!(o.memtable_max_bytes > 0);
        assert!(o.sparse_index_interval > 0);
        assert!(o.compaction_trigger > 1);
    }

    #[test]
    fn test_options_are_tiny() {
        let o = Options::small_for_tests();
        assert!(o.memtable_max_bytes <= 4096);
        assert!(o.log_file_max_bytes <= 4096);
        assert!(o.log_compaction_bytes <= 8192);
    }

    #[test]
    fn backend_parses_and_displays() {
        for (text, want) in [
            ("auto", Backend::Auto),
            ("lsm", Backend::Lsm),
            ("log", Backend::Log),
        ] {
            let parsed: Backend = text.parse().unwrap();
            assert_eq!(parsed, want);
            assert_eq!(parsed.to_string(), text);
        }
        assert!("leveldb".parse::<Backend>().is_err());
        assert_eq!(Backend::default(), Backend::Auto);
    }

    #[test]
    fn backend_gauge_encoding_is_stable() {
        assert_eq!(Backend::Lsm.as_gauge(), 0);
        assert_eq!(Backend::Log.as_gauge(), 1);
    }
}
