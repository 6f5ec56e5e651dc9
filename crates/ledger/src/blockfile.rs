//! Append-only block files — Fabric's `blockfile_000000` equivalent.
//!
//! Blocks are framed as `[len: u32 LE][crc32: u32 LE][payload]` and appended
//! to numbered files; a file is rolled once it exceeds
//! `max_file_bytes`. Reads are positioned (`pread`) so concurrent readers
//! never contend on a shared file offset. Every read verifies the frame CRC
//! and decodes the block — that decode is the paper's unit of query cost,
//! counted in [`IoStats::blocks_deserialized`] whether the decode was full
//! ([`BlockFileManager::read_block`]) or selective
//! ([`BlockFileManager::read_block_txs`], which uses the block's per-tx
//! offset table to decode only the transactions a history scan needs; the
//! per-tx work is counted separately in [`IoStats::txs_decoded`]).

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use fabric_kvstore::crc32::crc32;
use fabric_telemetry::Telemetry;

use crate::block::{Block, PartialBlock};
use crate::error::{Error, Result};
use crate::iostats::IoStats;
use crate::tx::TxNum;

/// Where a block lives on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockLocation {
    /// Which `blockfile_NNNNNN` holds the block.
    pub file_num: u32,
    /// Byte offset of the frame within that file.
    pub offset: u64,
    /// Frame length (header + payload).
    pub len: u32,
}

impl BlockLocation {
    /// Encode as 16 bytes (used by the block index).
    pub fn encode(&self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..4].copy_from_slice(&self.file_num.to_le_bytes());
        out[4..12].copy_from_slice(&self.offset.to_le_bytes());
        out[12..16].copy_from_slice(&self.len.to_le_bytes());
        out
    }

    /// Inverse of [`BlockLocation::encode`].
    pub fn decode(data: &[u8]) -> Result<Self> {
        if data.len() != 16 {
            return Err(Error::InvalidArgument(format!(
                "block location must be 16 bytes, got {}",
                data.len()
            )));
        }
        Ok(BlockLocation {
            file_num: u32::from_le_bytes(data[..4].try_into().unwrap()),
            offset: u64::from_le_bytes(data[4..12].try_into().unwrap()),
            len: u32::from_le_bytes(data[12..16].try_into().unwrap()),
        })
    }
}

const FRAME_HEADER: usize = 8;

struct ActiveFile {
    num: u32,
    file: File,
    offset: u64,
}

/// Manages the set of append-only block files in a directory.
pub struct BlockFileManager {
    dir: PathBuf,
    max_file_bytes: u64,
    active: Mutex<ActiveFile>,
    /// Cached read handles, keyed by file number.
    readers: Mutex<HashMap<u32, Arc<File>>>,
    stats: Arc<IoStats>,
    tel: Telemetry,
}

impl std::fmt::Debug for BlockFileManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockFileManager")
            .field("dir", &self.dir)
            .finish()
    }
}

pub(crate) fn file_path(dir: &Path, num: u32) -> PathBuf {
    dir.join(format!("blockfile_{num:06}"))
}

impl BlockFileManager {
    /// Open the manager in `dir`, resuming after the highest existing file.
    pub fn open(dir: impl Into<PathBuf>, max_file_bytes: u64, stats: Arc<IoStats>) -> Result<Self> {
        Self::open_with_telemetry(dir, max_file_bytes, stats, Telemetry::disabled())
    }

    /// Like [`BlockFileManager::open`], recording a `block.deserialize`
    /// span per [`BlockFileManager::read_block`] into `tel` when enabled.
    pub fn open_with_telemetry(
        dir: impl Into<PathBuf>,
        max_file_bytes: u64,
        stats: Arc<IoStats>,
        tel: Telemetry,
    ) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| Error::io(format!("creating block dir {}", dir.display()), e))?;
        let mut max_num: Option<u32> = None;
        for entry in std::fs::read_dir(&dir)
            .map_err(|e| Error::io(format!("listing block dir {}", dir.display()), e))?
        {
            let entry = entry.map_err(|e| Error::io("reading block dir entry".to_string(), e))?;
            let name = entry.file_name();
            let Some(num) = name
                .to_str()
                .and_then(|n| n.strip_prefix("blockfile_"))
                .and_then(|n| n.parse::<u32>().ok())
            else {
                continue;
            };
            max_num = Some(max_num.map_or(num, |m: u32| m.max(num)));
        }
        let num = max_num.unwrap_or(0);
        let path = file_path(&dir, num);
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(&path)
            .map_err(|e| Error::io(format!("opening block file {}", path.display()), e))?;
        let offset = file
            .seek(SeekFrom::End(0))
            .map_err(|e| Error::io(format!("seeking block file {}", path.display()), e))?;
        Ok(BlockFileManager {
            dir,
            max_file_bytes: max_file_bytes.max(1),
            active: Mutex::new(ActiveFile { num, file, offset }),
            readers: Mutex::new(HashMap::new()),
            stats,
            tel,
        })
    }

    /// Serialise and append `block`, returning its location.
    pub fn append_block(&self, block: &Block) -> Result<BlockLocation> {
        let payload = block.encode();
        let len = u32::try_from(payload.len())
            .map_err(|_| Error::InvalidArgument("block exceeds 4 GiB".into()))?;
        let crc = crc32(&payload);
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&crc.to_le_bytes());
        frame.extend_from_slice(&payload);

        let mut active = self.active.lock().unwrap_or_else(|e| e.into_inner());
        // Roll to a new file if the active one is full (but never leave a
        // file completely empty: always write at least one block).
        if active.offset > 0 && active.offset + frame.len() as u64 > self.max_file_bytes {
            let next = active.num + 1;
            let path = file_path(&self.dir, next);
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .read(true)
                .open(&path)
                .map_err(|e| Error::io(format!("rolling to block file {}", path.display()), e))?;
            *active = ActiveFile {
                num: next,
                file,
                offset: 0,
            };
        }
        let location = BlockLocation {
            file_num: active.num,
            offset: active.offset,
            len: frame.len() as u32,
        };
        active
            .file
            .write_all(&frame)
            .map_err(|e| Error::io("appending block".to_string(), e))?;
        active.offset += frame.len() as u64;
        IoStats::incr(&self.stats.blocks_written);
        IoStats::add(&self.stats.block_bytes_written, frame.len() as u64);
        Ok(location)
    }

    /// Durably flush the active file.
    pub fn sync(&self) -> Result<()> {
        let active = self.active.lock().unwrap_or_else(|e| e.into_inner());
        active
            .file
            .sync_data()
            .map_err(|e| Error::io("syncing block file".to_string(), e))
    }

    fn reader(&self, file_num: u32) -> Result<Arc<File>> {
        let mut readers = self.readers.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(f) = readers.get(&file_num) {
            return Ok(f.clone());
        }
        let path = file_path(&self.dir, file_num);
        let file = File::open(&path)
            .map_err(|e| Error::io(format!("opening block file {}", path.display()), e))?;
        let file = Arc::new(file);
        readers.insert(file_num, file.clone());
        Ok(file)
    }

    /// Read, CRC-check and decode the block at `location`.
    ///
    /// This is the deliberate cost centre: one call = one block
    /// deserialization, counted in [`IoStats::blocks_deserialized`].
    pub fn read_block(&self, location: BlockLocation) -> Result<Block> {
        let mut span = self.tel.span("block.deserialize");
        match self.read_block_inner(location) {
            Ok(block) => {
                span.record("bytes", location.len as u64);
                span.record("txs", block.tx_count() as u64);
                self.tel.count("ledger.blocks.deserialized", 1);
                self.tel
                    .count("ledger.txs.decoded", block.tx_count() as u64);
                Ok(block)
            }
            Err(e) => {
                // A failed read is not a deserialization: keep the span
                // count in lock-step with `IoStats::blocks_deserialized`.
                span.cancel();
                Err(e)
            }
        }
    }

    /// Read and CRC-check the block at `location` but decode only the
    /// transactions in `tx_nums`, seeking through the block's per-tx
    /// offset table. Still counts as one block deserialization — the frame
    /// is read and checksummed in full, and the paper's cost model charges
    /// per block touched — but [`IoStats::txs_decoded`] advances by
    /// `tx_nums.len()` instead of the whole block's tx count.
    pub fn read_block_txs(
        &self,
        location: BlockLocation,
        tx_nums: &[TxNum],
    ) -> Result<PartialBlock> {
        let mut span = self.tel.span("block.deserialize");
        match self.read_block_txs_inner(location, tx_nums) {
            Ok(partial) => {
                span.record("bytes", location.len as u64);
                span.record("txs", partial.txs.len() as u64);
                self.tel.count("ledger.blocks.deserialized", 1);
                self.tel
                    .count("ledger.txs.decoded", partial.txs.len() as u64);
                Ok(partial)
            }
            Err(e) => {
                span.cancel();
                Err(e)
            }
        }
    }

    /// Fetch the frame at `location`, verify its CRC and return the
    /// payload bytes (block encoding).
    fn read_frame(&self, location: BlockLocation) -> Result<Vec<u8>> {
        use std::os::unix::fs::FileExt;
        let file = self.reader(location.file_num)?;
        let mut frame = vec![0u8; location.len as usize];
        let path = file_path(&self.dir, location.file_num);
        file.read_exact_at(&mut frame, location.offset)
            .map_err(|e| Error::io(format!("reading block at {}", path.display()), e))?;
        if frame.len() < FRAME_HEADER {
            return Err(Error::corruption(&path, "frame shorter than header"));
        }
        let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
        let crc_stored = u32::from_le_bytes(frame[4..8].try_into().unwrap());
        if len + FRAME_HEADER != frame.len() {
            return Err(Error::corruption(&path, "frame length mismatch"));
        }
        if crc32(&frame[FRAME_HEADER..]) != crc_stored {
            return Err(Error::corruption(&path, "block checksum mismatch"));
        }
        frame.drain(..FRAME_HEADER);
        Ok(frame)
    }

    fn read_block_inner(&self, location: BlockLocation) -> Result<Block> {
        let payload = self.read_frame(location)?;
        let path = file_path(&self.dir, location.file_num);
        let block = Block::decode_trusted(&payload)
            .map_err(|e| Error::corruption(&path, format!("block decode failed: {e}")))?;
        IoStats::incr(&self.stats.blocks_deserialized);
        IoStats::add(&self.stats.txs_decoded, block.tx_count() as u64);
        IoStats::add(&self.stats.block_bytes_read, location.len as u64);
        Ok(block)
    }

    fn read_block_txs_inner(
        &self,
        location: BlockLocation,
        tx_nums: &[TxNum],
    ) -> Result<PartialBlock> {
        let payload = self.read_frame(location)?;
        let path = file_path(&self.dir, location.file_num);
        let partial = Block::decode_txs(&payload, tx_nums)
            .map_err(|e| Error::corruption(&path, format!("block decode failed: {e}")))?;
        IoStats::incr(&self.stats.blocks_deserialized);
        IoStats::add(&self.stats.txs_decoded, partial.txs.len() as u64);
        IoStats::add(&self.stats.block_bytes_read, location.len as u64);
        Ok(partial)
    }

    /// Sequentially scan every block in every file, in write order, invoking
    /// `visit` for each. Used to rebuild indexes on recovery. A torn final
    /// frame (crash during append) is tolerated and scanning stops there;
    /// corruption anywhere else is an error.
    pub fn scan_all(&self, visit: impl FnMut(Block, BlockLocation) -> Result<()>) -> Result<()> {
        self.scan_from(None, visit)
    }

    /// Like [`BlockFileManager::scan_all`] but starts at `start` (a known
    /// block frame boundary, typically the location of the last indexed
    /// block) instead of the beginning — recovery cost is then proportional
    /// to the un-indexed suffix, not the chain length.
    pub fn scan_from(
        &self,
        start: Option<BlockLocation>,
        mut visit: impl FnMut(Block, BlockLocation) -> Result<()>,
    ) -> Result<()> {
        let last_file = self.active.lock().unwrap_or_else(|e| e.into_inner()).num;
        let first_file = start.map_or(0, |s| s.file_num);
        for file_num in first_file..=last_file {
            let path = file_path(&self.dir, file_num);
            let mut file = match File::open(&path) {
                Ok(f) => f,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(Error::io(format!("opening {}", path.display()), e)),
            };
            let start_offset = match start {
                Some(s) if s.file_num == file_num => s.offset,
                _ => 0,
            };
            file.seek(SeekFrom::Start(start_offset))
                .map_err(|e| Error::io(format!("seeking {}", path.display()), e))?;
            let mut data = Vec::new();
            file.read_to_end(&mut data)
                .map_err(|e| Error::io(format!("scanning {}", path.display()), e))?;
            let mut pos = 0usize;
            let base = start_offset as usize;
            while data.len() - pos >= FRAME_HEADER {
                let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
                let crc_stored = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().unwrap());
                let Some(payload) = data.get(pos + FRAME_HEADER..pos + FRAME_HEADER + len) else {
                    // Torn tail on the last file is a survivable crash
                    // artifact; anywhere else it is corruption.
                    if file_num == last_file {
                        break;
                    }
                    return Err(Error::corruption(&path, "truncated frame mid-chain"));
                };
                if crc32(payload) != crc_stored {
                    if file_num == last_file && pos + FRAME_HEADER + len == data.len() {
                        break; // torn final frame
                    }
                    return Err(Error::corruption(&path, "frame checksum mismatch"));
                }
                let block = Block::decode_trusted(payload)
                    .map_err(|e| Error::corruption(&path, format!("block decode failed: {e}")))?;
                let location = BlockLocation {
                    file_num,
                    offset: (base + pos) as u64,
                    len: (FRAME_HEADER + len) as u32,
                };
                visit(block, location)?;
                pos += FRAME_HEADER + len;
            }
        }
        Ok(())
    }

    /// Directory containing the block files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::Digest;
    use crate::tx::{KvWrite, Transaction, ValidationCode};
    use bytes::Bytes;

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let p = std::env::temp_dir().join(format!(
                "blockfile-test-{}-{tag}-{:?}",
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

    fn make_block(number: u64, prev: Digest, tag: u64) -> Block {
        let tx = Transaction::new(
            tag,
            vec![],
            vec![KvWrite {
                key: Bytes::copy_from_slice(format!("key{tag}").as_bytes()),
                value: Some(Bytes::copy_from_slice(format!("value{tag}").as_bytes())),
            }],
        )
        .unwrap();
        Block::new(number, prev, vec![tx], vec![ValidationCode::Valid]).unwrap()
    }

    #[test]
    fn append_and_read_back() {
        let dir = TempDir::new("rw");
        let stats = IoStats::new_shared();
        let mgr = BlockFileManager::open(&dir.0, 1 << 20, stats.clone()).unwrap();
        let b0 = make_block(0, Digest::ZERO, 100);
        let b1 = make_block(1, b0.hash(), 101);
        let l0 = mgr.append_block(&b0).unwrap();
        let l1 = mgr.append_block(&b1).unwrap();
        assert_eq!(mgr.read_block(l1).unwrap(), b1);
        assert_eq!(mgr.read_block(l0).unwrap(), b0);
        let snap = stats.snapshot();
        assert_eq!(snap.blocks_written, 2);
        assert_eq!(snap.blocks_deserialized, 2);
        assert!(snap.block_bytes_read > 0);
    }

    #[test]
    fn files_roll_at_size_cap() {
        let dir = TempDir::new("roll");
        let stats = IoStats::new_shared();
        let mgr = BlockFileManager::open(&dir.0, 400, stats).unwrap();
        let mut prev = Digest::ZERO;
        let mut locations = Vec::new();
        for i in 0..10 {
            let b = make_block(i, prev, i);
            prev = b.hash();
            locations.push((mgr.append_block(&b).unwrap(), b));
        }
        let distinct_files: std::collections::HashSet<u32> =
            locations.iter().map(|(l, _)| l.file_num).collect();
        assert!(distinct_files.len() > 1, "expected multiple block files");
        for (loc, block) in &locations {
            assert_eq!(&mgr.read_block(*loc).unwrap(), block);
        }
    }

    #[test]
    fn reopen_resumes_appending() {
        let dir = TempDir::new("reopen");
        let stats = IoStats::new_shared();
        let b0 = make_block(0, Digest::ZERO, 1);
        let l0;
        {
            let mgr = BlockFileManager::open(&dir.0, 1 << 20, stats.clone()).unwrap();
            l0 = mgr.append_block(&b0).unwrap();
        }
        let mgr = BlockFileManager::open(&dir.0, 1 << 20, stats).unwrap();
        let b1 = make_block(1, b0.hash(), 2);
        let l1 = mgr.append_block(&b1).unwrap();
        assert!(l1.offset > l0.offset || l1.file_num > l0.file_num);
        assert_eq!(mgr.read_block(l0).unwrap(), b0);
        assert_eq!(mgr.read_block(l1).unwrap(), b1);
    }

    #[test]
    fn scan_all_visits_in_order() {
        let dir = TempDir::new("scan");
        let stats = IoStats::new_shared();
        let mgr = BlockFileManager::open(&dir.0, 300, stats).unwrap();
        let mut prev = Digest::ZERO;
        for i in 0..8 {
            let b = make_block(i, prev, i);
            prev = b.hash();
            mgr.append_block(&b).unwrap();
        }
        let mut seen = Vec::new();
        mgr.scan_all(|block, _loc| {
            seen.push(block.header.number);
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn scan_tolerates_torn_tail() {
        let dir = TempDir::new("torn");
        let stats = IoStats::new_shared();
        {
            let mgr = BlockFileManager::open(&dir.0, 1 << 20, stats.clone()).unwrap();
            mgr.append_block(&make_block(0, Digest::ZERO, 1)).unwrap();
            mgr.append_block(&make_block(1, Digest::ZERO, 2)).unwrap();
        }
        // Truncate mid-way through the second frame.
        let path = file_path(&dir.0, 0);
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 5]).unwrap();
        let mgr = BlockFileManager::open(&dir.0, 1 << 20, stats).unwrap();
        let mut seen = Vec::new();
        mgr.scan_all(|block, _| {
            seen.push(block.header.number);
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, vec![0]);
    }

    #[test]
    fn corrupt_block_read_fails() {
        let dir = TempDir::new("corrupt");
        let stats = IoStats::new_shared();
        let mgr = BlockFileManager::open(&dir.0, 1 << 20, stats).unwrap();
        let loc = mgr.append_block(&make_block(0, Digest::ZERO, 1)).unwrap();
        drop(mgr);
        let path = file_path(&dir.0, 0);
        let mut data = std::fs::read(&path).unwrap();
        data[20] ^= 0xFF; // inside payload
        std::fs::write(&path, &data).unwrap();
        let stats = IoStats::new_shared();
        let mgr = BlockFileManager::open(&dir.0, 1 << 20, stats.clone()).unwrap();
        assert!(matches!(mgr.read_block(loc), Err(Error::Corruption { .. })));
        // Failed reads must not count as deserializations.
        assert_eq!(stats.snapshot().blocks_deserialized, 0);
    }

    #[test]
    fn read_block_txs_decodes_selectively() {
        let dir = TempDir::new("selective");
        let stats = IoStats::new_shared();
        let mgr = BlockFileManager::open(&dir.0, 1 << 20, stats.clone()).unwrap();
        let txs: Vec<Transaction> = (0..5u64)
            .map(|i| {
                Transaction::new(
                    i,
                    vec![],
                    vec![KvWrite {
                        key: Bytes::copy_from_slice(format!("key{i}").as_bytes()),
                        value: Some(Bytes::copy_from_slice(format!("value{i}").as_bytes())),
                    }],
                )
                .unwrap()
            })
            .collect();
        let block = Block::new(0, Digest::ZERO, txs, vec![ValidationCode::Valid; 5]).unwrap();
        let loc = mgr.append_block(&block).unwrap();

        let partial = mgr.read_block_txs(loc, &[0, 3]).unwrap();
        assert_eq!(partial.header, block.header);
        assert_eq!(partial.tx_count, 5);
        assert_eq!(partial.txs[0].1, block.txs[0]);
        assert_eq!(partial.txs[1].1, block.txs[3]);
        let snap = stats.snapshot();
        // One block deserialization, but only 2 of 5 txs decoded.
        assert_eq!(snap.blocks_deserialized, 1);
        assert_eq!(snap.txs_decoded, 2);
        assert_eq!(snap.block_bytes_read, loc.len as u64);

        // The full read decodes every tx.
        mgr.read_block(loc).unwrap();
        let snap = stats.snapshot();
        assert_eq!(snap.blocks_deserialized, 2);
        assert_eq!(snap.txs_decoded, 7);

        // Out-of-range requests fail without counting a deserialization.
        assert!(mgr.read_block_txs(loc, &[5]).is_err());
        assert_eq!(stats.snapshot().blocks_deserialized, 2);
    }

    #[test]
    fn location_encoding_roundtrip() {
        let loc = BlockLocation {
            file_num: 7,
            offset: 123_456_789,
            len: 4096,
        };
        assert_eq!(BlockLocation::decode(&loc.encode()).unwrap(), loc);
        assert!(BlockLocation::decode(&[0u8; 5]).is_err());
    }
}
