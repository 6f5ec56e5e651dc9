//! Sorted string tables: the immutable on-disk segment format.
//!
//! File layout (all offsets absolute, regions contiguous):
//!
//! ```text
//! [data region]    entry*: tag u8, klen uvarint, key, (vlen uvarint, value)?
//! [sparse index]   entry*: klen uvarint, key, data_offset uvarint
//! [bloom filter]   see `bloom` module encoding
//! [meta region]    min_key, max_key (uvarint-prefixed), entry_count uvarint
//! [footer, 72 B]   data_len u64 | index_off u64 | index_len u64 |
//!                  bloom_off u64 | bloom_len u64 | meta_off u64 |
//!                  meta_len u64 | data_crc u32 | tail_crc u32 | magic u64
//! ```
//!
//! `tail_crc` covers index+bloom+meta and is verified when the table is
//! opened (those regions are read eagerly). `data_crc` covers the data
//! region and is verified on demand by [`SsTableReader::verify`] — per-read
//! validation would double I/O on the hot path for no benefit at this scale.
//!
//! The data region is read in sparse-index segments (one per
//! `sparse_interval` entries) with positioned reads on the file opened
//! once by [`SsTableReader::open`]. A point read reads the one segment that
//! could hold its key; a scan reads its first segment alone, then up to
//! 64 KiB of whole segments at a time. Decoded keys and values are views of
//! the segment buffer, so a value pins its segment (about 1 KB at the
//! default interval) until dropped: a view never outlives a query, and
//! whatever keeps data longer (compaction's writer, the memtable, the
//! state database's value decode) copies it.

use std::fs::File;
use std::io::Write;
use std::ops::Bound;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bytes::Bytes;

use crate::bloom::BloomFilter;
use crate::crc32::{crc32, crc32_update};
use crate::error::{Error, Result};
use crate::memtable::Slot;

const MAGIC: u64 = 0x7355_7374_6232_3031; // "sUstb201"
const FOOTER_LEN: usize = 72;
const TAG_VALUE: u8 = 1;
const TAG_TOMBSTONE: u8 = 2;

fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

fn get_uvarint(data: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *data.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// A uvarint length followed by that many bytes: the bytes' range in
/// `data`. `None` when the varint or the bytes run past the end.
fn get_len_prefixed(data: &[u8], pos: &mut usize) -> Option<std::ops::Range<usize>> {
    let len = usize::try_from(get_uvarint(data, pos)?).ok()?;
    let start = *pos;
    let end = start.checked_add(len).filter(|&end| end <= data.len())?;
    *pos = end;
    Some(start..end)
}

/// Builds an SSTable from entries added in strictly ascending key order.
#[derive(Debug)]
pub struct SsTableWriter {
    path: PathBuf,
    file: File,
    data_buf: Vec<u8>,
    index: Vec<u8>,
    keys: Vec<Bytes>,
    last_key: Option<Bytes>,
    min_key: Option<Bytes>,
    entry_count: u64,
    sparse_interval: usize,
    bloom_bits_per_key: usize,
    data_crc_state: u32,
    data_written: u64,
}

impl SsTableWriter {
    /// Start writing a table at `path` (truncates any existing file).
    pub fn create(
        path: impl Into<PathBuf>,
        sparse_interval: usize,
        bloom_bits_per_key: usize,
    ) -> Result<Self> {
        let path = path.into();
        let file = File::create(&path)
            .map_err(|e| Error::io(format!("creating sstable {}", path.display()), e))?;
        Ok(SsTableWriter {
            path,
            file,
            data_buf: Vec::with_capacity(64 << 10),
            index: Vec::new(),
            keys: Vec::new(),
            last_key: None,
            min_key: None,
            entry_count: 0,
            sparse_interval: sparse_interval.max(1),
            bloom_bits_per_key,
            data_crc_state: 0xFFFF_FFFF,
            data_written: 0,
        })
    }

    /// Append one entry. Keys must arrive in strictly ascending order.
    pub fn add(&mut self, key: &[u8], slot: &Slot) -> Result<()> {
        if let Some(last) = &self.last_key {
            if key <= &last[..] {
                return Err(Error::InvalidArgument(format!(
                    "sstable keys out of order: {:?} after {:?}",
                    String::from_utf8_lossy(key),
                    String::from_utf8_lossy(last)
                )));
            }
        }
        let offset = self.data_written + self.data_buf.len() as u64;
        if (self.entry_count as usize).is_multiple_of(self.sparse_interval) {
            put_uvarint(&mut self.index, key.len() as u64);
            self.index.extend_from_slice(key);
            put_uvarint(&mut self.index, offset);
        }
        match slot {
            Slot::Value(v) => {
                self.data_buf.push(TAG_VALUE);
                put_uvarint(&mut self.data_buf, key.len() as u64);
                self.data_buf.extend_from_slice(key);
                put_uvarint(&mut self.data_buf, v.len() as u64);
                self.data_buf.extend_from_slice(v);
            }
            Slot::Tombstone => {
                self.data_buf.push(TAG_TOMBSTONE);
                put_uvarint(&mut self.data_buf, key.len() as u64);
                self.data_buf.extend_from_slice(key);
            }
        }
        let key = Bytes::copy_from_slice(key);
        if self.min_key.is_none() {
            self.min_key = Some(key.clone());
        }
        self.keys.push(key.clone());
        self.last_key = Some(key);
        self.entry_count += 1;
        if self.data_buf.len() >= (1 << 20) {
            self.flush_data()?;
        }
        Ok(())
    }

    fn flush_data(&mut self) -> Result<()> {
        self.data_crc_state = crc32_update(self.data_crc_state, &self.data_buf);
        self.file
            .write_all(&self.data_buf)
            .map_err(|e| Error::io(format!("writing sstable {}", self.path.display()), e))?;
        self.data_written += self.data_buf.len() as u64;
        self.data_buf.clear();
        Ok(())
    }

    /// Number of entries added so far.
    pub fn entry_count(&self) -> u64 {
        self.entry_count
    }

    /// Finalise the table: write index, bloom, meta, footer, fsync.
    /// Returns the total file size in bytes.
    pub fn finish(mut self) -> Result<u64> {
        self.flush_data()?;
        let data_len = self.data_written;
        let data_crc = self.data_crc_state ^ 0xFFFF_FFFF;

        let bloom = BloomFilter::build(&self.keys, self.bloom_bits_per_key);
        let mut bloom_buf = Vec::with_capacity(bloom.encoded_len());
        bloom.encode_into(&mut bloom_buf);

        let mut meta = Vec::new();
        let min_key = self.min_key.clone().unwrap_or_default();
        let max_key = self.last_key.clone().unwrap_or_default();
        put_uvarint(&mut meta, min_key.len() as u64);
        meta.extend_from_slice(&min_key);
        put_uvarint(&mut meta, max_key.len() as u64);
        meta.extend_from_slice(&max_key);
        put_uvarint(&mut meta, self.entry_count);

        let index_off = data_len;
        let index_len = self.index.len() as u64;
        let bloom_off = index_off + index_len;
        let bloom_len = bloom_buf.len() as u64;
        let meta_off = bloom_off + bloom_len;
        let meta_len = meta.len() as u64;

        let mut tail = Vec::with_capacity((index_len + bloom_len + meta_len) as usize);
        tail.extend_from_slice(&self.index);
        tail.extend_from_slice(&bloom_buf);
        tail.extend_from_slice(&meta);
        let tail_crc = crc32(&tail);

        let mut footer = Vec::with_capacity(FOOTER_LEN);
        for v in [
            data_len, index_off, index_len, bloom_off, bloom_len, meta_off, meta_len,
        ] {
            footer.extend_from_slice(&v.to_le_bytes());
        }
        footer.extend_from_slice(&data_crc.to_le_bytes());
        footer.extend_from_slice(&tail_crc.to_le_bytes());
        footer.extend_from_slice(&MAGIC.to_le_bytes());
        debug_assert_eq!(footer.len(), FOOTER_LEN);

        let ctx = || format!("finishing sstable {}", self.path.display());
        self.file
            .write_all(&tail)
            .and_then(|_| self.file.write_all(&footer))
            .and_then(|_| self.file.sync_data())
            .map_err(|e| Error::io(ctx(), e))?;
        Ok(meta_off + meta_len + FOOTER_LEN as u64)
    }
}

/// One parsed sparse-index entry.
#[derive(Debug, Clone)]
struct IndexEntry {
    key: Bytes,
    offset: u64,
}

/// A decoded data-region entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SsEntry {
    /// Entry key.
    pub key: Bytes,
    /// Value or tombstone.
    pub slot: Slot,
}

/// An open, immutable SSTable.
///
/// Shared as an `Arc` (the store does, and every scan holds one): all
/// reads are positioned reads on the one file descriptor opened here.
#[derive(Debug)]
pub struct SsTableReader {
    path: PathBuf,
    file: File,
    data_len: u64,
    data_crc: u32,
    index: Vec<IndexEntry>,
    bloom: BloomFilter,
    min_key: Bytes,
    max_key: Bytes,
    entry_count: u64,
}

impl SsTableReader {
    /// Open and validate the table at `path`.
    pub fn open(path: impl Into<PathBuf>) -> Result<Arc<Self>> {
        let path = path.into();
        let file = File::open(&path)
            .map_err(|e| Error::io(format!("opening sstable {}", path.display()), e))?;
        let file_len = file
            .metadata()
            .map_err(|e| Error::io(format!("stat sstable {}", path.display()), e))?
            .len();
        if file_len < FOOTER_LEN as u64 {
            return Err(Error::corruption(&path, "file shorter than footer"));
        }
        let mut footer = [0u8; FOOTER_LEN];
        file.read_exact_at(&mut footer, file_len - FOOTER_LEN as u64)
            .map_err(|e| Error::io(format!("reading footer of {}", path.display()), e))?;
        let u64_at = |i: usize| u64::from_le_bytes(footer[i * 8..i * 8 + 8].try_into().unwrap());
        let data_len = u64_at(0);
        let index_off = u64_at(1);
        let index_len = u64_at(2);
        let bloom_off = u64_at(3);
        let bloom_len = u64_at(4);
        let meta_off = u64_at(5);
        let meta_len = u64_at(6);
        let data_crc = u32::from_le_bytes(footer[56..60].try_into().unwrap());
        let tail_crc = u32::from_le_bytes(footer[60..64].try_into().unwrap());
        let magic = u64::from_le_bytes(footer[64..72].try_into().unwrap());
        if magic != MAGIC {
            return Err(Error::corruption(&path, "bad magic"));
        }
        // Checked: a corrupt footer must not overflow the arithmetic.
        if index_off != data_len
            || index_off.checked_add(index_len) != Some(bloom_off)
            || bloom_off.checked_add(bloom_len) != Some(meta_off)
            || meta_off
                .checked_add(meta_len)
                .and_then(|end| end.checked_add(FOOTER_LEN as u64))
                != Some(file_len)
        {
            return Err(Error::corruption(&path, "inconsistent region offsets"));
        }
        let tail_len = file_len - FOOTER_LEN as u64 - index_off;
        let mut tail = vec![0u8; tail_len as usize];
        file.read_exact_at(&mut tail, index_off)
            .map_err(|e| Error::io(format!("reading tail of {}", path.display()), e))?;
        if crc32(&tail) != tail_crc {
            return Err(Error::corruption(&path, "tail checksum mismatch"));
        }
        // Parse sparse index.
        let index_bytes = &tail[..index_len as usize];
        let mut index: Vec<IndexEntry> = Vec::new();
        let mut pos = 0usize;
        while pos < index_bytes.len() {
            let key = get_len_prefixed(index_bytes, &mut pos)
                .ok_or_else(|| Error::corruption(&path, "truncated index key"))?;
            let offset = get_uvarint(index_bytes, &mut pos)
                .ok_or_else(|| Error::corruption(&path, "bad index offset"))?;
            // Segments start at 0 and ascend strictly inside the data
            // region, so every segment read is non-empty and in bounds.
            let in_order = match index.last() {
                None => offset == 0,
                Some(prev) => offset > prev.offset,
            };
            if !in_order || offset >= data_len {
                return Err(Error::corruption(&path, "sparse index offset out of order"));
            }
            index.push(IndexEntry {
                key: Bytes::copy_from_slice(&index_bytes[key]),
                offset,
            });
        }
        // Parse bloom.
        let bloom_bytes = &tail[index_len as usize..(index_len + bloom_len) as usize];
        let bloom = BloomFilter::decode(bloom_bytes)
            .ok_or_else(|| Error::corruption(&path, "bad bloom region"))?;
        // Parse meta.
        let meta_bytes = &tail[(index_len + bloom_len) as usize..];
        let mut pos = 0usize;
        let read_key = |pos: &mut usize| -> Result<Bytes> {
            let key = get_len_prefixed(meta_bytes, pos)
                .ok_or_else(|| Error::corruption(&path, "truncated meta key"))?;
            Ok(Bytes::copy_from_slice(&meta_bytes[key]))
        };
        let min_key = read_key(&mut pos)?;
        let max_key = read_key(&mut pos)?;
        let entry_count = get_uvarint(meta_bytes, &mut pos)
            .ok_or_else(|| Error::corruption(&path, "bad meta count"))?;
        // An empty table has no data, no segments and a zero count; any
        // other table has all three, so a read always finds a segment.
        if index.is_empty() != (data_len == 0) || (entry_count == 0) != (data_len == 0) {
            return Err(Error::corruption(
                &path,
                "sparse index or entry count disagrees with the data region",
            ));
        }

        Ok(Arc::new(SsTableReader {
            path,
            file,
            data_len,
            data_crc,
            index,
            bloom,
            min_key,
            max_key,
            entry_count,
        }))
    }

    /// Path of the table file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of entries in the table.
    pub fn entry_count(&self) -> u64 {
        self.entry_count
    }

    /// Smallest key in the table (empty for an empty table).
    pub fn min_key(&self) -> &[u8] {
        &self.min_key
    }

    /// Largest key in the table (empty for an empty table).
    pub fn max_key(&self) -> &[u8] {
        &self.max_key
    }

    /// `true` when `key` is outside `[min_key, max_key]` or rejected by the
    /// bloom filter — i.e. a point read can skip this table.
    pub fn definitely_absent(&self, key: &[u8]) -> bool {
        if self.entry_count == 0 || key < &self.min_key[..] || key > &self.max_key[..] {
            return true;
        }
        !self.bloom.may_contain(key)
    }

    /// `false` when no key of `[start, end)` can be in this table: it is
    /// empty, or its `[min_key, max_key]` span misses the range. A range
    /// scan skips such a table, as a point read skips it through
    /// [`SsTableReader::definitely_absent`].
    pub(crate) fn overlaps(&self, start: Bound<&[u8]>, end: Bound<&[u8]>) -> bool {
        let min = &self.min_key[..];
        let max = &self.max_key[..];
        let after_start = match start {
            Bound::Included(s) => max >= s,
            Bound::Excluded(s) => max > s,
            Bound::Unbounded => true,
        };
        let before_end = match end {
            Bound::Included(e) => min <= e,
            Bound::Excluded(e) => min < e,
            Bound::Unbounded => true,
        };
        self.entry_count > 0 && after_start && before_end
    }

    /// The sparse-index segment that could contain `key`: the last one
    /// whose first key is `<= key`, or the first.
    fn segment_of(&self, key: &[u8]) -> usize {
        match self.index.binary_search_by(|e| e.key[..].cmp(key)) {
            Ok(i) => i,
            Err(i) => i.saturating_sub(1),
        }
    }

    /// End offset of segment `seg`: the next segment's start, or the end
    /// of the data region.
    fn segment_end(&self, seg: usize) -> u64 {
        self.index.get(seg + 1).map_or(self.data_len, |e| e.offset)
    }

    /// Read segments `first..=last` with one positioned read on the open
    /// file. The caller keeps `first <= last < index.len()`.
    fn read_segments(&self, first: usize, last: usize) -> Result<Bytes> {
        let start = self.index[first].offset;
        let mut buf = vec![0u8; (self.segment_end(last) - start) as usize];
        self.file
            .read_exact_at(&mut buf, start)
            .map_err(|e| Error::io(format!("reading sstable {}", self.path.display()), e))?;
        Ok(Bytes::from(buf))
    }

    /// Decode the entry at `pos` of a segment buffer. Key and value are
    /// views of `buf`, not copies.
    fn decode_entry(&self, buf: &Bytes, pos: &mut usize) -> Result<SsEntry> {
        let corrupt = |d: &str| Error::corruption(&self.path, d);
        let tag = *buf
            .get(*pos)
            .ok_or_else(|| corrupt("truncated entry tag"))?;
        *pos += 1;
        let key = get_len_prefixed(buf, pos).ok_or_else(|| corrupt("truncated key"))?;
        let slot = match tag {
            TAG_VALUE => {
                let value = get_len_prefixed(buf, pos).ok_or_else(|| corrupt("truncated value"))?;
                Slot::Value(buf.slice(value))
            }
            TAG_TOMBSTONE => Slot::Tombstone,
            _ => return Err(corrupt("unknown entry tag")),
        };
        Ok(SsEntry {
            key: buf.slice(key),
            slot,
        })
    }

    /// Point lookup. Returns `None` when the key is not in this table.
    /// Reads the one segment that could hold `key`.
    pub fn get(&self, key: &[u8]) -> Result<Option<Slot>> {
        if self.definitely_absent(key) {
            return Ok(None);
        }
        let seg = self.segment_of(key);
        let buf = self.read_segments(seg, seg)?;
        let mut pos = 0;
        while pos < buf.len() {
            let entry = self.decode_entry(&buf, &mut pos)?;
            match entry.key[..].cmp(key) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => return Ok(Some(entry.slot)),
                std::cmp::Ordering::Greater => return Ok(None),
            }
        }
        Ok(None)
    }

    /// Stream entries from the start of segment `seg`.
    fn scan_from(self: &Arc<Self>, seg: usize) -> SsTableIter {
        SsTableIter {
            table: Arc::clone(self),
            next_seg: seg,
            filled: false,
            buf: Bytes::new(),
            pos: 0,
        }
    }

    /// Stream all entries in key order.
    pub fn iter(self: &Arc<Self>) -> SsTableIter {
        self.scan_from(0)
    }

    /// Stream entries with key `>= start`: the sparse index names the one
    /// segment that can hold the first of them, and the entries before it
    /// are skipped here, so the cursor is positioned on return.
    pub fn seek(self: &Arc<Self>, start: &[u8]) -> Result<SsTableIter> {
        let mut iter = self.scan_from(self.segment_of(start));
        iter.skip_below(start)?;
        Ok(iter)
    }

    /// Recompute the data-region checksum and compare with the footer.
    pub fn verify(&self) -> Result<()> {
        let mut remaining = self.data_len;
        let mut offset = 0u64;
        let mut buf = vec![0u8; 256 << 10];
        let mut state = 0xFFFF_FFFFu32;
        while remaining > 0 {
            let n = remaining.min(buf.len() as u64) as usize;
            self.file
                .read_exact_at(&mut buf[..n], offset)
                .map_err(|e| Error::io(format!("verifying {}", self.path.display()), e))?;
            state = crc32_update(state, &buf[..n]);
            offset += n as u64;
            remaining -= n as u64;
        }
        if state ^ 0xFFFF_FFFF != self.data_crc {
            return Err(Error::corruption(&self.path, "data checksum mismatch"));
        }
        Ok(())
    }
}

/// Streaming cursor over an SSTable's data region.
///
/// Holds the table, so a table that compaction unlinks stays readable
/// through the open file for as long as the cursor lives. The first read
/// is exactly one segment, and so is the read that finishes positioning a
/// seek; a seek usually needs no more. Later reads take up to
/// 64 KiB (`READ_AHEAD`) of whole segments, so full scans stay sequential.
#[derive(Debug)]
pub struct SsTableIter {
    table: Arc<SsTableReader>,
    /// Next segment to read once `buf` is consumed.
    next_seg: usize,
    /// Whether a segment was read before: later reads read ahead.
    filled: bool,
    buf: Bytes,
    pos: usize,
}

/// Largest read a scan past its first segment issues (unless a single
/// segment is larger).
const READ_AHEAD: u64 = 64 << 10;

impl SsTableIter {
    /// Decode the next entry, or `None` at end of data.
    pub fn next_entry(&mut self) -> Result<Option<SsEntry>> {
        if self.pos >= self.buf.len() && !self.fill(self.filled)? {
            return Ok(None);
        }
        self.table.decode_entry(&self.buf, &mut self.pos).map(Some)
    }

    /// Replace the consumed buffer with the next segment, or with `wide`
    /// the next whole segments up to [`READ_AHEAD`] bytes. `false` at the
    /// end of the data.
    fn fill(&mut self, wide: bool) -> Result<bool> {
        let table = &self.table;
        let first = self.next_seg;
        if first >= table.index.len() {
            return Ok(false);
        }
        let mut last = first;
        if wide {
            let start = table.index[first].offset;
            while last + 1 < table.index.len() && table.segment_end(last + 1) - start <= READ_AHEAD
            {
                last += 1;
            }
        }
        self.buf = table.read_segments(first, last)?;
        self.pos = 0;
        self.next_seg = last + 1;
        self.filled = true;
        Ok(true)
    }

    /// Advance past the entries with key `< start`. They lie in the first
    /// segment; if all of it does, the next segment starts past `start`.
    fn skip_below(&mut self, start: &[u8]) -> Result<()> {
        loop {
            if self.pos >= self.buf.len() && !self.fill(false)? {
                return Ok(());
            }
            let mut pos = self.pos;
            if self.table.decode_entry(&self.buf, &mut pos)?.key[..] >= *start {
                return Ok(());
            }
            self.pos = pos;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let p = std::env::temp_dir().join(format!(
                "sst-test-{}-{tag}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&p);
            std::fs::create_dir_all(&p).unwrap();
            TempDir(p)
        }
        fn file(&self, name: &str) -> PathBuf {
            self.0.join(name)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn build_table(path: &Path, entries: &[(&str, Option<&str>)]) -> Arc<SsTableReader> {
        let mut w = SsTableWriter::create(path, 4, 10).unwrap();
        for (k, v) in entries {
            let slot = match v {
                Some(v) => Slot::Value(Bytes::copy_from_slice(v.as_bytes())),
                None => Slot::Tombstone,
            };
            w.add(k.as_bytes(), &slot).unwrap();
        }
        w.finish().unwrap();
        SsTableReader::open(path).unwrap()
    }

    #[test]
    fn write_read_roundtrip() {
        let dir = TempDir::new("roundtrip");
        let entries: Vec<(String, String)> = (0..100)
            .map(|i| (format!("key-{i:04}"), format!("value-{i}")))
            .collect();
        let refs: Vec<(&str, Option<&str>)> = entries
            .iter()
            .map(|(k, v)| (k.as_str(), Some(v.as_str())))
            .collect();
        let t = build_table(&dir.file("a.sst"), &refs);
        assert_eq!(t.entry_count(), 100);
        assert_eq!(t.min_key(), b"key-0000");
        assert_eq!(t.max_key(), b"key-0099");
        for (k, v) in &entries {
            let got = t.get(k.as_bytes()).unwrap().unwrap();
            assert_eq!(got.as_value().unwrap(), v.as_bytes());
        }
        assert!(t.get(b"absent").unwrap().is_none());
        assert!(t.get(b"key-0050x").unwrap().is_none());
        t.verify().unwrap();
    }

    #[test]
    fn tombstones_roundtrip() {
        let dir = TempDir::new("tomb");
        let t = build_table(
            &dir.file("t.sst"),
            &[("a", Some("1")), ("b", None), ("c", Some("3"))],
        );
        assert!(t.get(b"b").unwrap().unwrap().is_tombstone());
        assert_eq!(t.get(b"a").unwrap().unwrap().as_value().unwrap(), &b"1"[..]);
    }

    #[test]
    fn iter_returns_all_in_order() {
        let dir = TempDir::new("iter");
        let t = build_table(
            &dir.file("i.sst"),
            &[("a", Some("1")), ("m", None), ("z", Some("26"))],
        );
        let mut it = t.iter();
        let mut keys = Vec::new();
        while let Some(e) = it.next_entry().unwrap() {
            keys.push(e.key);
        }
        assert_eq!(keys, vec![&b"a"[..], &b"m"[..], &b"z"[..]]);
    }

    #[test]
    fn seek_lands_at_or_before_target() {
        let dir = TempDir::new("seek");
        let entries: Vec<(String, String)> = (0..50)
            .map(|i| (format!("k{i:03}"), format!("{i}")))
            .collect();
        let refs: Vec<(&str, Option<&str>)> = entries
            .iter()
            .map(|(k, v)| (k.as_str(), Some(v.as_str())))
            .collect();
        let t = build_table(&dir.file("s.sst"), &refs);
        let mut it = t.seek(b"k025").unwrap();
        let mut found = Vec::new();
        while let Some(e) = it.next_entry().unwrap() {
            found.push(e.key);
        }
        assert_eq!(found.len(), 25);
        assert_eq!(&found[0][..], b"k025");
    }

    #[test]
    fn seek_between_segments_lands_on_the_next_key() {
        let dir = TempDir::new("seek-gap");
        let entries: Vec<String> = (0..20).map(|i| format!("k{i:03}")).collect();
        let refs: Vec<(&str, Option<&str>)> =
            entries.iter().map(|k| (k.as_str(), Some("v"))).collect();
        let t = build_table(&dir.file("g.sst"), &refs); // 4 entries per segment
                                                        // Past every key of the segment the index names; between two keys
                                                        // of one segment; past the end.
        for (start, first) in [
            ("k0035", Some("k004")),
            ("k0015", Some("k002")),
            ("k1", None),
        ] {
            let mut it = t.seek(start.as_bytes()).unwrap();
            let got = it.next_entry().unwrap().map(|e| e.key);
            assert_eq!(got.as_deref(), first.map(str::as_bytes), "seek {start}");
        }
    }

    #[test]
    fn out_of_order_add_rejected() {
        let dir = TempDir::new("order");
        let mut w = SsTableWriter::create(dir.file("o.sst"), 4, 10).unwrap();
        w.add(b"b", &Slot::Value(Bytes::from_static(b"1"))).unwrap();
        assert!(w.add(b"a", &Slot::Value(Bytes::from_static(b"2"))).is_err());
        assert!(w.add(b"b", &Slot::Value(Bytes::from_static(b"2"))).is_err());
    }

    #[test]
    fn empty_table_roundtrip() {
        let dir = TempDir::new("empty");
        let w = SsTableWriter::create(dir.file("e.sst"), 4, 10).unwrap();
        w.finish().unwrap();
        let t = SsTableReader::open(dir.file("e.sst")).unwrap();
        assert_eq!(t.entry_count(), 0);
        assert!(t.get(b"anything").unwrap().is_none());
        let mut it = t.iter();
        assert!(it.next_entry().unwrap().is_none());
    }

    #[test]
    fn corrupted_tail_detected_at_open() {
        let dir = TempDir::new("corrupt-tail");
        let path = dir.file("c.sst");
        build_table(&path, &[("a", Some("1")), ("b", Some("2"))]);
        let mut data = std::fs::read(&path).unwrap();
        // Flip a byte in the index region (right after the small data region).
        let n = data.len();
        data[n - FOOTER_LEN - 2] ^= 0x55;
        std::fs::write(&path, &data).unwrap();
        match SsTableReader::open(&path) {
            Err(Error::Corruption { .. }) => {}
            other => panic!("expected corruption error, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_data_detected_by_verify() {
        let dir = TempDir::new("corrupt-data");
        let path = dir.file("d.sst");
        build_table(&path, &[("aaa", Some("111")), ("bbb", Some("222"))]);
        let mut data = std::fs::read(&path).unwrap();
        data[2] ^= 0x01; // inside data region
        std::fs::write(&path, &data).unwrap();
        // Tail is intact so open succeeds...
        let t = SsTableReader::open(&path).unwrap();
        // ...but full verification catches the flip.
        assert!(matches!(t.verify(), Err(Error::Corruption { .. })));
    }

    #[test]
    fn bad_magic_rejected() {
        let dir = TempDir::new("magic");
        let path = dir.file("m.sst");
        build_table(&path, &[("a", Some("1"))]);
        let mut data = std::fs::read(&path).unwrap();
        let n = data.len();
        data[n - 1] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        assert!(matches!(
            SsTableReader::open(&path),
            Err(Error::Corruption { .. })
        ));
    }

    #[test]
    fn truncated_file_rejected() {
        let dir = TempDir::new("trunc");
        let path = dir.file("t.sst");
        std::fs::write(&path, b"short").unwrap();
        assert!(matches!(
            SsTableReader::open(&path),
            Err(Error::Corruption { .. })
        ));
    }

    #[test]
    fn large_values_cross_internal_flush_boundary() {
        let dir = TempDir::new("large");
        let path = dir.file("big.sst");
        let mut w = SsTableWriter::create(&path, 16, 10).unwrap();
        let big = "x".repeat(300_000);
        for i in 0..8 {
            let key = format!("key{i}");
            w.add(
                key.as_bytes(),
                &Slot::Value(Bytes::copy_from_slice(big.as_bytes())),
            )
            .unwrap();
        }
        w.finish().unwrap();
        let t = SsTableReader::open(&path).unwrap();
        t.verify().unwrap();
        let got = t.get(b"key5").unwrap().unwrap();
        assert_eq!(got.as_value().unwrap().len(), 300_000);
    }
}
