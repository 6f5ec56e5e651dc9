//! Ledger configuration.

use fabric_kvstore::{Backend, Options as KvOptions};

/// Configuration for a [`crate::ledger::Ledger`].
#[derive(Debug, Clone)]
pub struct LedgerConfig {
    /// The orderer cuts a block once this many transactions are pending
    /// (Fabric v1.0's `BatchSize.MaxMessageCount`, default 10).
    pub block_max_txs: usize,
    /// The orderer also cuts a block once the pending batch reaches this
    /// many payload bytes (`PreferredMaxBytes` analogue).
    pub block_max_bytes: usize,
    /// Roll to a new block file after it exceeds this size.
    pub blockfile_max_bytes: u64,
    /// Options for the state database store.
    pub state_db: KvOptions,
    /// Options for the index store (block locations + history index).
    pub index_db: KvOptions,
    /// Storage engine backing the index and state stores. The default,
    /// [`Backend::Auto`], resolves from each store directory's on-disk
    /// marker (falling back to the LSM for fresh or pre-boundary
    /// directories), so existing ledgers keep opening unchanged; set
    /// explicitly to create a ledger on the value-log engine.
    pub backend: Backend,
}

impl Default for LedgerConfig {
    fn default() -> Self {
        LedgerConfig {
            block_max_txs: 10,
            block_max_bytes: 512 << 10,
            blockfile_max_bytes: 64 << 20,
            state_db: KvOptions::default(),
            index_db: KvOptions::default(),
            backend: Backend::Auto,
        }
    }
}

impl LedgerConfig {
    /// Small batches and files, for tests that want many blocks quickly.
    pub fn small_for_tests() -> Self {
        LedgerConfig {
            block_max_txs: 3,
            block_max_bytes: 4 << 10,
            blockfile_max_bytes: 8 << 10,
            state_db: KvOptions::small_for_tests(),
            index_db: KvOptions::small_for_tests(),
            backend: Backend::Auto,
        }
    }

    /// Builder-style setter for [`LedgerConfig::block_max_txs`].
    pub fn with_block_max_txs(mut self, n: usize) -> Self {
        self.block_max_txs = n;
        self
    }

    /// Builder-style setter for [`LedgerConfig::backend`].
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_fabric_v1_batch_size() {
        // Exhaustive on purpose (no `..`): adding a field fails to compile
        // here until its default is stated.
        let LedgerConfig {
            block_max_txs,
            block_max_bytes,
            blockfile_max_bytes,
            state_db,
            index_db,
            backend,
        } = LedgerConfig::default();
        assert_eq!(block_max_txs, 10);
        assert_eq!(block_max_bytes, 512 << 10);
        assert_eq!(blockfile_max_bytes, 64 << 20);
        assert!(!state_db.sync_wal && !index_db.sync_wal);
        assert_eq!(
            backend,
            Backend::Auto,
            "backend must auto-detect so existing ledgers keep opening"
        );
    }

    #[test]
    fn builders_apply() {
        let c = LedgerConfig::default()
            .with_block_max_txs(50)
            .with_backend(Backend::Log);
        assert_eq!(c.block_max_txs, 50);
        assert_eq!(c.backend, Backend::Log);
    }
}
