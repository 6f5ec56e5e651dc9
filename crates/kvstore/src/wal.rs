//! Write-ahead log.
//!
//! Record framing on disk:
//!
//! ```text
//! [crc32: u32 LE] [len: u32 LE] [payload: len bytes]
//! ```
//!
//! where the CRC covers `len || payload`. Replay stops at the first record
//! that is truncated or fails its checksum — a torn tail from a crash is
//! discarded rather than treated as corruption, matching LevelDB semantics.
//! A checksum failure *followed by more valid data* would indicate real
//! corruption, but distinguishing the two is not worth the complexity at
//! this scale; the conservative stop-at-first-bad-record rule never replays
//! garbage.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use crate::crc32::crc32;
use crate::error::{Error, Result};

/// Append-only log writer.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    writer: BufWriter<File>,
    sync: bool,
    bytes_written: u64,
}

impl Wal {
    /// Create a new log at `path`. Refuses to open an existing file: a log
    /// that is silently truncated loses every record it held, so the caller
    /// must decide explicitly — replay it, or remove it as a known orphan —
    /// before a `Wal` can be created at that path.
    pub fn create(path: impl Into<PathBuf>, sync: bool) -> Result<Self> {
        let path = path.into();
        let file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(&path)
            .map_err(|e| {
                if e.kind() == std::io::ErrorKind::AlreadyExists {
                    Error::InvalidArgument(format!(
                        "wal {} already exists; replay or remove it before creating",
                        path.display()
                    ))
                } else {
                    Error::io(format!("creating wal {}", path.display()), e)
                }
            })?;
        Ok(Wal {
            path,
            writer: BufWriter::new(file),
            sync,
            bytes_written: 0,
        })
    }

    /// Append one record and flush it to the OS (and to disk when `sync`).
    pub fn append(&mut self, payload: &[u8]) -> Result<u64> {
        let len = u32::try_from(payload.len())
            .map_err(|_| Error::InvalidArgument("wal record exceeds 4 GiB".into()))?;
        let mut crc_input = Vec::with_capacity(4 + payload.len());
        crc_input.extend_from_slice(&len.to_le_bytes());
        crc_input.extend_from_slice(payload);
        let crc = crc32(&crc_input);
        let ctx = || format!("appending to wal {}", self.path.display());
        self.writer
            .write_all(&crc.to_le_bytes())
            .and_then(|_| self.writer.write_all(&crc_input))
            .map_err(|e| Error::io(ctx(), e))?;
        self.writer.flush().map_err(|e| Error::io(ctx(), e))?;
        if self.sync {
            self.writer
                .get_ref()
                .sync_data()
                .map_err(|e| Error::io(ctx(), e))?;
        }
        let written = 8 + payload.len() as u64;
        self.bytes_written += written;
        Ok(written)
    }

    /// Total bytes appended since creation.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Durably flush buffered records.
    pub fn sync(&mut self) -> Result<()> {
        self.writer
            .flush()
            .and_then(|_| self.writer.get_ref().sync_data())
            .map_err(|e| Error::io(format!("syncing wal {}", self.path.display()), e))
    }
}

/// Read every intact record from the log at `path`.
///
/// Returns the record payloads in append order. A truncated or checksum-
/// failing tail is silently dropped (see module docs).
pub fn replay(path: &Path) -> Result<Vec<Vec<u8>>> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(Error::io(format!("opening wal {}", path.display()), e)),
    };
    let mut data = Vec::new();
    file.read_to_end(&mut data)
        .map_err(|e| Error::io(format!("reading wal {}", path.display()), e))?;

    let mut records = Vec::new();
    let mut pos = 0usize;
    while data.len() - pos >= 8 {
        let crc_stored = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap());
        let len = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().unwrap()) as usize;
        let Some(frame) = data.get(pos + 4..pos + 8 + len) else {
            break; // torn tail
        };
        if crc32(frame) != crc_stored {
            break; // torn or corrupt tail
        }
        records.push(frame[4..].to_vec());
        pos += 8 + len;
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir() -> tempdir::TempDir {
        tempdir::TempDir::new()
    }

    /// Minimal temp-dir helper so the crate keeps zero dev-deps beyond the
    /// approved list.
    mod tempdir {
        use std::path::{Path, PathBuf};
        use std::sync::atomic::{AtomicU64, Ordering};

        pub struct TempDir(PathBuf);
        static N: AtomicU64 = AtomicU64::new(0);

        impl TempDir {
            pub fn new() -> Self {
                let n = N.fetch_add(1, Ordering::Relaxed);
                let p = std::env::temp_dir().join(format!("kvwal-test-{}-{n}", std::process::id()));
                std::fs::create_dir_all(&p).unwrap();
                TempDir(p)
            }
            pub fn path(&self) -> &Path {
                &self.0
            }
        }
        impl Drop for TempDir {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
    }

    #[test]
    fn append_then_replay() {
        let dir = tmpdir();
        let path = dir.path().join("000001.wal");
        let mut wal = Wal::create(&path, false).unwrap();
        wal.append(b"first").unwrap();
        wal.append(b"").unwrap();
        wal.append(b"third record").unwrap();
        drop(wal);
        let records = replay(&path).unwrap();
        assert_eq!(
            records,
            vec![b"first".to_vec(), b"".to_vec(), b"third record".to_vec()]
        );
    }

    #[test]
    fn replay_missing_file_is_empty() {
        let dir = tmpdir();
        let records = replay(&dir.path().join("nope.wal")).unwrap();
        assert!(records.is_empty());
    }

    #[test]
    fn torn_tail_is_dropped() {
        let dir = tmpdir();
        let path = dir.path().join("torn.wal");
        let mut wal = Wal::create(&path, false).unwrap();
        wal.append(b"keep me").unwrap();
        wal.append(b"lose me").unwrap();
        drop(wal);
        // Chop 3 bytes off the end: second record becomes torn.
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 3]).unwrap();
        let records = replay(&path).unwrap();
        assert_eq!(records, vec![b"keep me".to_vec()]);
    }

    #[test]
    fn corrupt_record_stops_replay() {
        let dir = tmpdir();
        let path = dir.path().join("corrupt.wal");
        let mut wal = Wal::create(&path, false).unwrap();
        wal.append(b"good").unwrap();
        wal.append(b"bad!").unwrap();
        drop(wal);
        let mut data = std::fs::read(&path).unwrap();
        let n = data.len();
        data[n - 2] ^= 0xFF; // flip a payload byte of the last record
        std::fs::write(&path, &data).unwrap();
        let records = replay(&path).unwrap();
        assert_eq!(records, vec![b"good".to_vec()]);
    }

    #[test]
    fn create_refuses_existing_path() {
        let dir = tmpdir();
        let path = dir.path().join("reuse.wal");
        let mut wal = Wal::create(&path, false).unwrap();
        wal.append(b"precious").unwrap();
        drop(wal);
        // A second create must NOT truncate the log out from under us.
        let err = Wal::create(&path, false).unwrap_err();
        assert!(err.to_string().contains("already exists"), "{err}");
        assert_eq!(replay(&path).unwrap(), vec![b"precious".to_vec()]);
        // After the caller explicitly removes the orphan, create succeeds.
        std::fs::remove_file(&path).unwrap();
        Wal::create(&path, false).unwrap();
    }

    #[test]
    fn bytes_written_tracks_framing() {
        let dir = tmpdir();
        let mut wal = Wal::create(dir.path().join("b.wal"), false).unwrap();
        let n = wal.append(b"12345").unwrap();
        assert_eq!(n, 13); // 8 header + 5 payload
        assert_eq!(wal.bytes_written(), 13);
    }

    #[test]
    fn sync_mode_writes_are_replayable() {
        let dir = tmpdir();
        let path = dir.path().join("sync.wal");
        let mut wal = Wal::create(&path, true).unwrap();
        wal.append(b"durable").unwrap();
        wal.sync().unwrap();
        drop(wal);
        assert_eq!(replay(&path).unwrap(), vec![b"durable".to_vec()]);
    }
}
