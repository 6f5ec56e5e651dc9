//! Lightweight operation counters.
//!
//! Every counter is a relaxed atomic: metrics must never contend with the
//! data path. Snapshots are taken with [`Metrics::snapshot`].

use std::sync::atomic::{AtomicU64, Ordering};

/// Internal counter set shared by all store components.
#[derive(Debug, Default)]
pub struct Metrics {
    pub(crate) gets: AtomicU64,
    pub(crate) puts: AtomicU64,
    pub(crate) deletes: AtomicU64,
    pub(crate) range_scans: AtomicU64,
    pub(crate) bloom_negatives: AtomicU64,
    pub(crate) bloom_false_positives: AtomicU64,
    pub(crate) sstable_point_reads: AtomicU64,
    pub(crate) bytes_flushed: AtomicU64,
    pub(crate) bytes_wal: AtomicU64,
    pub(crate) wal_fsyncs: AtomicU64,
    pub(crate) flushes: AtomicU64,
    pub(crate) compactions: AtomicU64,
    pub(crate) compaction_bytes_read: AtomicU64,
    pub(crate) compaction_bytes_written: AtomicU64,
}

impl Metrics {
    #[inline]
    pub(crate) fn incr(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Capture a point-in-time copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            gets: self.gets.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            range_scans: self.range_scans.load(Ordering::Relaxed),
            bloom_negatives: self.bloom_negatives.load(Ordering::Relaxed),
            bloom_false_positives: self.bloom_false_positives.load(Ordering::Relaxed),
            sstable_point_reads: self.sstable_point_reads.load(Ordering::Relaxed),
            bytes_flushed: self.bytes_flushed.load(Ordering::Relaxed),
            bytes_wal: self.bytes_wal.load(Ordering::Relaxed),
            wal_fsyncs: self.wal_fsyncs.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            compaction_bytes_read: self.compaction_bytes_read.load(Ordering::Relaxed),
            compaction_bytes_written: self.compaction_bytes_written.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of store counters; cheap to copy and compare.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Point lookups served.
    pub gets: u64,
    /// Keys written (including batch writes).
    pub puts: u64,
    /// Tombstones written.
    pub deletes: u64,
    /// Range iterators constructed.
    pub range_scans: u64,
    /// Point reads short-circuited by a bloom filter.
    pub bloom_negatives: u64,
    /// Bloom probes that said "maybe" but the SSTable had no entry.
    pub bloom_false_positives: u64,
    /// Point reads that had to consult an SSTable's data region.
    pub sstable_point_reads: u64,
    /// Bytes written to SSTables by flushes and compactions.
    pub bytes_flushed: u64,
    /// Bytes appended to the write-ahead log.
    pub bytes_wal: u64,
    /// WAL appends that forced an fsync (`Options::sync_wal`).
    pub wal_fsyncs: u64,
    /// Memtable flushes performed.
    pub flushes: u64,
    /// Compactions performed.
    pub compactions: u64,
    /// SSTable bytes read as compaction input.
    pub compaction_bytes_read: u64,
    /// SSTable bytes produced as compaction output.
    pub compaction_bytes_written: u64,
}

impl MetricsSnapshot {
    /// Per-field difference against an `earlier` snapshot (saturating, so
    /// a reset store never yields garbage).
    pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            gets: self.gets.saturating_sub(earlier.gets),
            puts: self.puts.saturating_sub(earlier.puts),
            deletes: self.deletes.saturating_sub(earlier.deletes),
            range_scans: self.range_scans.saturating_sub(earlier.range_scans),
            bloom_negatives: self.bloom_negatives.saturating_sub(earlier.bloom_negatives),
            bloom_false_positives: self
                .bloom_false_positives
                .saturating_sub(earlier.bloom_false_positives),
            sstable_point_reads: self
                .sstable_point_reads
                .saturating_sub(earlier.sstable_point_reads),
            bytes_flushed: self.bytes_flushed.saturating_sub(earlier.bytes_flushed),
            bytes_wal: self.bytes_wal.saturating_sub(earlier.bytes_wal),
            wal_fsyncs: self.wal_fsyncs.saturating_sub(earlier.wal_fsyncs),
            flushes: self.flushes.saturating_sub(earlier.flushes),
            compactions: self.compactions.saturating_sub(earlier.compactions),
            compaction_bytes_read: self
                .compaction_bytes_read
                .saturating_sub(earlier.compaction_bytes_read),
            compaction_bytes_written: self
                .compaction_bytes_written
                .saturating_sub(earlier.compaction_bytes_written),
        }
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "gets {}  puts {}  deletes {}  range_scans {}",
            self.gets, self.puts, self.deletes, self.range_scans
        )?;
        writeln!(
            f,
            "bloom_negatives {}  bloom_false_positives {}  sstable_point_reads {}",
            self.bloom_negatives, self.bloom_false_positives, self.sstable_point_reads
        )?;
        writeln!(
            f,
            "bytes_wal {}  wal_fsyncs {}  bytes_flushed {}  flushes {}",
            self.bytes_wal, self.wal_fsyncs, self.bytes_flushed, self.flushes
        )?;
        write!(
            f,
            "compactions {}  compaction_bytes_read {}  compaction_bytes_written {}",
            self.compactions, self.compaction_bytes_read, self.compaction_bytes_written
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_into_snapshot() {
        let m = Metrics::default();
        Metrics::incr(&m.gets);
        Metrics::incr(&m.gets);
        Metrics::add(&m.bytes_wal, 128);
        let snap = m.snapshot();
        assert_eq!(snap.gets, 2);
        assert_eq!(snap.bytes_wal, 128);
        assert_eq!(snap.puts, 0);
    }

    #[test]
    fn diff_subtracts_fieldwise_and_saturates() {
        let m = Metrics::default();
        Metrics::incr(&m.gets);
        let earlier = m.snapshot();
        Metrics::incr(&m.gets);
        Metrics::incr(&m.wal_fsyncs);
        Metrics::add(&m.compaction_bytes_read, 512);
        let d = m.snapshot().diff(&earlier);
        assert_eq!(d.gets, 1);
        assert_eq!(d.wal_fsyncs, 1);
        assert_eq!(d.compaction_bytes_read, 512);
        // Saturation: diffing the other way round yields zero, not wrap.
        assert_eq!(earlier.diff(&m.snapshot()).gets, 0);
    }

    #[test]
    fn display_mentions_every_counter_family() {
        let text = MetricsSnapshot::default().to_string();
        for field in [
            "gets",
            "bloom_false_positives",
            "wal_fsyncs",
            "compaction_bytes_read",
            "compaction_bytes_written",
        ] {
            assert!(text.contains(field), "missing {field} in {text}");
        }
    }
}
