//! Ledger-wide I/O and call counters.
//!
//! These counters are the *deterministic* cost model of the reproduction:
//! the paper's query times are dominated by block deserialization, so
//! `blocks_deserialized` (and friends) reproduce the paper's comparisons
//! independent of hardware. Wall-clock measurements are reported alongside,
//! never instead.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared counter set. Cheap to clone (it's an `Arc` inside consumers).
#[derive(Debug, Default)]
pub struct IoStats {
    /// Blocks appended to block files.
    pub blocks_written: AtomicU64,
    /// Blocks read *and decoded* from block files (the paper's unit of
    /// query cost).
    pub blocks_deserialized: AtomicU64,
    /// Transactions actually decoded while reading blocks. A full
    /// [`read_block`](crate::blockfile::BlockFileManager::read_block)
    /// decodes every tx in the block; the selective
    /// [`read_block_txs`](crate::blockfile::BlockFileManager::read_block_txs)
    /// path counts only the txs a history scan asked for, so
    /// `txs_decoded / blocks_deserialized` quantifies how much decode work
    /// the offset table saves.
    pub txs_decoded: AtomicU64,
    /// Bytes read from block files for deserialization.
    pub block_bytes_read: AtomicU64,
    /// Bytes appended to block files.
    pub block_bytes_written: AtomicU64,
    /// `GetHistoryForKey` calls issued.
    pub ghfk_calls: AtomicU64,
    /// `GetState` calls issued.
    pub get_state_calls: AtomicU64,
    /// `GetStateByRange` calls issued.
    pub range_scan_calls: AtomicU64,
    /// Transactions committed (valid or not).
    pub txs_committed: AtomicU64,
    /// Blocks committed.
    pub blocks_committed: AtomicU64,
    /// State writes applied from *valid* transactions — the number of
    /// history entries the ledger has grown by, i.e. committed events.
    pub events_committed: AtomicU64,
}

impl IoStats {
    /// New zeroed counter set behind an `Arc`.
    pub fn new_shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    #[inline]
    pub(crate) fn incr(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Point-in-time copy of all counters.
    pub fn snapshot(&self) -> IoStatsSnapshot {
        IoStatsSnapshot {
            blocks_written: self.blocks_written.load(Ordering::Relaxed),
            blocks_deserialized: self.blocks_deserialized.load(Ordering::Relaxed),
            txs_decoded: self.txs_decoded.load(Ordering::Relaxed),
            block_bytes_read: self.block_bytes_read.load(Ordering::Relaxed),
            block_bytes_written: self.block_bytes_written.load(Ordering::Relaxed),
            cache_hits: 0,
            ghfk_calls: self.ghfk_calls.load(Ordering::Relaxed),
            get_state_calls: self.get_state_calls.load(Ordering::Relaxed),
            range_scan_calls: self.range_scan_calls.load(Ordering::Relaxed),
            txs_committed: self.txs_committed.load(Ordering::Relaxed),
            blocks_committed: self.blocks_committed.load(Ordering::Relaxed),
            events_committed: self.events_committed.load(Ordering::Relaxed),
        }
    }
}

/// Copyable snapshot of [`IoStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStatsSnapshot {
    /// See [`IoStats::blocks_written`].
    pub blocks_written: u64,
    /// See [`IoStats::blocks_deserialized`].
    pub blocks_deserialized: u64,
    /// See [`IoStats::txs_decoded`].
    pub txs_decoded: u64,
    /// See [`IoStats::block_bytes_read`].
    pub block_bytes_read: u64,
    /// See [`IoStats::block_bytes_written`].
    pub block_bytes_written: u64,
    /// Always 0: the ledger has no block cache, so every block a scan
    /// needs is deserialized. Kept because the benchmark harness reads it.
    pub cache_hits: u64,
    /// See [`IoStats::ghfk_calls`].
    pub ghfk_calls: u64,
    /// See [`IoStats::get_state_calls`].
    pub get_state_calls: u64,
    /// See [`IoStats::range_scan_calls`].
    pub range_scan_calls: u64,
    /// See [`IoStats::txs_committed`].
    pub txs_committed: u64,
    /// See [`IoStats::blocks_committed`].
    pub blocks_committed: u64,
    /// See [`IoStats::events_committed`].
    pub events_committed: u64,
}

impl IoStatsSnapshot {
    /// Counter-wise difference `self - earlier` (saturating). Alias of
    /// [`IoStatsSnapshot::delta`] matching the kvstore snapshot API.
    pub fn diff(&self, earlier: &IoStatsSnapshot) -> IoStatsSnapshot {
        self.delta(earlier)
    }

    /// Counter-wise difference `self - earlier` (saturating).
    pub fn delta(&self, earlier: &IoStatsSnapshot) -> IoStatsSnapshot {
        IoStatsSnapshot {
            blocks_written: self.blocks_written.saturating_sub(earlier.blocks_written),
            blocks_deserialized: self
                .blocks_deserialized
                .saturating_sub(earlier.blocks_deserialized),
            txs_decoded: self.txs_decoded.saturating_sub(earlier.txs_decoded),
            block_bytes_read: self
                .block_bytes_read
                .saturating_sub(earlier.block_bytes_read),
            block_bytes_written: self
                .block_bytes_written
                .saturating_sub(earlier.block_bytes_written),
            cache_hits: 0,
            ghfk_calls: self.ghfk_calls.saturating_sub(earlier.ghfk_calls),
            get_state_calls: self.get_state_calls.saturating_sub(earlier.get_state_calls),
            range_scan_calls: self
                .range_scan_calls
                .saturating_sub(earlier.range_scan_calls),
            txs_committed: self.txs_committed.saturating_sub(earlier.txs_committed),
            blocks_committed: self
                .blocks_committed
                .saturating_sub(earlier.blocks_committed),
            events_committed: self
                .events_committed
                .saturating_sub(earlier.events_committed),
        }
    }
}

impl std::fmt::Display for IoStatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "blocks_committed {}  txs_committed {}  events_committed {}  blocks_written {}  block_bytes_written {}",
            self.blocks_committed,
            self.txs_committed,
            self.events_committed,
            self.blocks_written,
            self.block_bytes_written
        )?;
        writeln!(
            f,
            "blocks_deserialized {}  txs_decoded {}  block_bytes_read {}",
            self.blocks_deserialized, self.txs_decoded, self.block_bytes_read
        )?;
        write!(
            f,
            "ghfk_calls {}  get_state_calls {}  range_scan_calls {}",
            self.ghfk_calls, self.get_state_calls, self.range_scan_calls
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_delta() {
        let stats = IoStats::new_shared();
        IoStats::incr(&stats.ghfk_calls);
        let first = stats.snapshot();
        IoStats::incr(&stats.ghfk_calls);
        IoStats::add(&stats.block_bytes_read, 500);
        let second = stats.snapshot();
        let d = second.delta(&first);
        assert_eq!(d.ghfk_calls, 1);
        assert_eq!(d.block_bytes_read, 500);
        assert_eq!(d.blocks_written, 0);
    }

    #[test]
    fn display_mentions_every_counter() {
        let text = IoStatsSnapshot::default().to_string();
        for field in [
            "blocks_committed",
            "txs_committed",
            "events_committed",
            "blocks_written",
            "block_bytes_written",
            "blocks_deserialized",
            "txs_decoded",
            "block_bytes_read",
            "ghfk_calls",
            "get_state_calls",
            "range_scan_calls",
        ] {
            assert!(text.contains(field), "missing {field} in {text}");
        }
    }

    #[test]
    fn diff_is_an_alias_for_delta() {
        let a = IoStatsSnapshot {
            ghfk_calls: 7,
            ..Default::default()
        };
        let b = IoStatsSnapshot {
            ghfk_calls: 3,
            ..Default::default()
        };
        assert_eq!(a.diff(&b), a.delta(&b));
        assert_eq!(a.diff(&b).ghfk_calls, 4);
    }

    #[test]
    fn delta_saturates() {
        let a = IoStatsSnapshot {
            ghfk_calls: 1,
            ..Default::default()
        };
        let b = IoStatsSnapshot {
            ghfk_calls: 5,
            ..Default::default()
        };
        assert_eq!(a.delta(&b).ghfk_calls, 0);
    }
}
