//! Tunable options controlling store behaviour.

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
}

impl Default for Options {
    fn default() -> Self {
        Options {
            memtable_max_bytes: 4 << 20,
            sync_wal: false,
            sparse_index_interval: 16,
            bloom_bits_per_key: 10,
            compaction_trigger: 8,
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
    }
}
