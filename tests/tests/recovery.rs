//! Failure injection and recovery across the whole stack: torn writes,
//! index loss, flipped bits, reopen-and-continue.

use fabric_ledger::{Error, Ledger, LedgerConfig};
use fabric_workload::dataset::{generate_scaled, DatasetId};
use fabric_workload::ingest::{ingest, IdentityEncoder, IngestMode};
use temporal_core::interval::Interval;
use temporal_core::join::ferry_query;
use temporal_core::tqf::TqfEngine;

struct TempDir(std::path::PathBuf);
impl TempDir {
    fn new(tag: &str) -> Self {
        let p = std::env::temp_dir().join(format!(
            "recovery-test-{}-{tag}-{:?}",
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

fn build(dir: &std::path::Path) -> (Ledger, fabric_workload::GeneratedWorkload) {
    let workload = generate_scaled(DatasetId::Ds3, 60);
    let ledger = Ledger::open(dir, LedgerConfig::default()).unwrap();
    ingest(
        &ledger,
        &workload.events,
        IngestMode::MultiEvent,
        &IdentityEncoder,
    )
    .unwrap();
    (ledger, workload)
}

#[test]
fn reopen_preserves_queries_and_chain() {
    let dir = TempDir::new("reopen");
    let t_max;
    let want;
    {
        let (ledger, workload) = build(&dir.0);
        t_max = workload.params.t_max;
        want = ferry_query(&TqfEngine, &ledger, Interval::new(0, t_max))
            .unwrap()
            .records;
        ledger.flush_stores().unwrap();
    }
    let ledger = Ledger::open(&dir.0, LedgerConfig::default()).unwrap();
    ledger.verify_chain().unwrap();
    let got = ferry_query(&TqfEngine, &ledger, Interval::new(0, t_max))
        .unwrap()
        .records;
    assert_eq!(got, want);
}

#[test]
fn indexes_rebuilt_after_index_db_loss() {
    // Deleting the whole index store simulates a crash before any index
    // write ever landed; recovery must rebuild everything from the block
    // files alone.
    let dir = TempDir::new("idx-loss");
    let t_max;
    let want_height;
    let want;
    {
        let (ledger, workload) = build(&dir.0);
        t_max = workload.params.t_max;
        want_height = ledger.height();
        want = ferry_query(&TqfEngine, &ledger, Interval::new(0, t_max))
            .unwrap()
            .records;
    }
    std::fs::remove_dir_all(dir.0.join("index")).unwrap();
    std::fs::remove_dir_all(dir.0.join("state")).unwrap();
    let ledger = Ledger::open(&dir.0, LedgerConfig::default()).unwrap();
    assert_eq!(
        ledger.height(),
        want_height,
        "height rebuilt from block files"
    );
    ledger.verify_chain().unwrap();
    let got = ferry_query(&TqfEngine, &ledger, Interval::new(0, t_max))
        .unwrap()
        .records;
    assert_eq!(got, want, "queries identical after full index rebuild");
}

#[test]
fn torn_index_wal_tail_is_reapplied_from_blocks() {
    // Crash mid-write of the index store: tear the tail off its newest
    // WAL, dropping the final batch (the last block's index rows and the
    // chain tip), then reopen. The WAL replay discards the torn record and
    // ledger recovery re-applies the lost block from the block files.
    let dir = TempDir::new("idx-wal-tear");
    let workload = generate_scaled(DatasetId::Ds3, 40);
    let t_max = workload.params.t_max;
    let want_height;
    let want;
    {
        let ledger = Ledger::open(&dir.0, LedgerConfig::default()).unwrap();
        ingest(
            &ledger,
            &workload.events,
            IngestMode::MultiEvent,
            &IdentityEncoder,
        )
        .unwrap();
        want_height = ledger.height();
        want = ferry_query(&TqfEngine, &ledger, Interval::new(0, t_max))
            .unwrap()
            .records;
        // No flush: the index rows of the last block live in the WAL.
    }
    let newest = std::fs::read_dir(dir.0.join("index"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "wal"))
        .max()
        .expect("index store holds a WAL");
    let data = std::fs::read(&newest).unwrap();
    assert!(data.len() > 16, "the WAL must hold records");
    std::fs::write(&newest, &data[..data.len() - 9]).unwrap();
    // The tear took the chain tip with it: the index alone is behind.
    {
        use fabric_ledger::index::LedgerIndex;
        let store = fabric_kvstore::open_engine(
            dir.0.join("index"),
            fabric_kvstore::Options::default(),
            fabric_ledger::Telemetry::disabled(),
        )
        .unwrap();
        let torn = LedgerIndex::new(store).chain_tip().unwrap();
        assert!(torn.map_or(0, |t| t.height) < want_height, "{torn:?}");
    }

    let ledger = Ledger::open(&dir.0, LedgerConfig::default()).unwrap();
    assert_eq!(ledger.height(), want_height, "lost block re-applied");
    ledger.verify_chain().unwrap();
    let got = ferry_query(&TqfEngine, &ledger, Interval::new(0, t_max))
        .unwrap()
        .records;
    assert_eq!(got, want, "answers identical after the torn tail");
}

#[test]
fn torn_block_tail_is_discarded_and_ledger_continues() {
    let dir = TempDir::new("torn");
    let height_before;
    {
        let (ledger, _) = build(&dir.0);
        height_before = ledger.height();
    }
    // Tear the final block frame, then drop index/state so recovery must
    // re-scan and sees the torn frame.
    let blocks_dir = dir.0.join("blocks");
    let mut files: Vec<_> = std::fs::read_dir(&blocks_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    let last = files.last().unwrap();
    let data = std::fs::read(last).unwrap();
    std::fs::write(last, &data[..data.len() - 7]).unwrap();
    std::fs::remove_dir_all(dir.0.join("index")).unwrap();
    std::fs::remove_dir_all(dir.0.join("state")).unwrap();

    let ledger = Ledger::open(&dir.0, LedgerConfig::default()).unwrap();
    assert_eq!(
        ledger.height(),
        height_before - 1,
        "exactly the torn block is lost"
    );
    ledger.verify_chain().unwrap();
    // And the ledger accepts new blocks after the repair.
    let mut sim = fabric_ledger::TxSimulator::new(&ledger);
    sim.put_state(&b"post-crash"[..], &b"ok"[..]);
    ledger.submit(sim.into_transaction(1).unwrap()).unwrap();
    ledger.cut_block().unwrap();
    assert_eq!(ledger.height(), height_before);
    assert!(ledger.get_state(b"post-crash").unwrap().is_some());
}

/// Every file under `dir` with its length, sorted by path. Opening a
/// kvstore always moves its WAL to a fresh file number (also on a refused
/// ledger open, which must read the index to know the height), so a WAL
/// is listed under its directory, not its number.
fn listing(dir: &std::path::Path) -> Vec<(std::path::PathBuf, u64)> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let entry = entry.unwrap();
            let meta = entry.metadata().unwrap();
            let path = entry.path();
            if meta.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|x| x == "wal") {
                out.push((d.join("wal"), meta.len()));
            } else {
                out.push((path, meta.len()));
            }
        }
    }
    out.sort();
    out
}

#[test]
fn index_ahead_of_block_file_is_refused() {
    // The same tear as above, but index and state survive intact: they now
    // name a block whose bytes are not whole on disk. Opening must refuse
    // (serving would fail reads of that block and chain the next one onto
    // a hash with no block behind it) and must leave the data alone.
    let dir = TempDir::new("idx-ahead");
    let tip;
    {
        let (ledger, _) = build(&dir.0);
        tip = (ledger.height(), ledger.last_hash());
        ledger.flush_stores().unwrap();
    }
    let blocks_dir = dir.0.join("blocks");
    let mut files: Vec<_> = std::fs::read_dir(&blocks_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    let last = files.last().unwrap();
    let whole = std::fs::read(last).unwrap();
    let torn = &whole[..whole.len() - 7];
    std::fs::write(last, torn).unwrap();
    let before = listing(&dir.0);

    // Refused, and refused again: the first attempt repaired nothing.
    for _ in 0..2 {
        let err = Ledger::open(&dir.0, LedgerConfig::default()).unwrap_err();
        match &err {
            Error::Corruption { file, detail } => {
                assert_eq!(file, last, "names the torn block file");
                assert!(
                    detail.contains(&format!("height {}", tip.0))
                        && detail.contains(&format!("last whole block: {}", tip.0 - 2)),
                    "{detail}"
                );
            }
            other => panic!("expected Corruption, got {other}"),
        }
        assert_eq!(listing(&dir.0), before, "a refused open changes nothing");
        assert_eq!(std::fs::read(last).unwrap(), torn);
    }
    // Nothing was lost by refusing: with the bytes back, the ledger opens
    // at the old tip and audits clean.
    std::fs::write(last, &whole).unwrap();
    let ledger = Ledger::open(&dir.0, LedgerConfig::default()).unwrap();
    assert_eq!((ledger.height(), ledger.last_hash()), tip);
    ledger.verify_chain().unwrap();
}

#[test]
fn flipped_bit_in_block_file_detected_on_read() {
    let dir = TempDir::new("bitflip");
    {
        build(&dir.0);
    }
    // Flip one bit near the middle of the first block file.
    let blocks_dir = dir.0.join("blocks");
    let mut files: Vec<_> = std::fs::read_dir(&blocks_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    let first = &files[0];
    let mut data = std::fs::read(first).unwrap();
    let mid = data.len() / 2;
    data[mid] ^= 0x40;
    std::fs::write(first, &data).unwrap();

    // Index/state still intact, so the ledger opens; reading the damaged
    // block must fail with a corruption error, not bad data.
    let ledger = Ledger::open(&dir.0, LedgerConfig::default()).unwrap();
    let mut saw_corruption = false;
    for num in 0..ledger.height() {
        match ledger.get_block(num) {
            Ok(_) => {}
            Err(Error::Corruption { .. }) => {
                saw_corruption = true;
                break;
            }
            Err(other) => panic!("unexpected error kind: {other}"),
        }
    }
    assert!(saw_corruption, "the flipped bit must be detected");
    assert!(ledger.verify_chain().is_err(), "chain audit must fail too");
}

#[test]
fn kvstore_wal_tail_loss_is_bounded() {
    // Chop the state-db WAL mid-record: only the torn tail may be lost.
    use fabric_kvstore::{KvStore, Options};
    let dir = TempDir::new("wal-tear");
    {
        let db = KvStore::open(&dir.0, Options::default()).unwrap();
        for i in 0..50 {
            db.put(format!("key{i:03}"), format!("value{i}")).unwrap();
        }
        // No flush: everything lives in the WAL.
    }
    let wal = std::fs::read_dir(&dir.0)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "wal"))
        .expect("wal file exists");
    let data = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &data[..data.len() - 3]).unwrap();
    let db = KvStore::open(&dir.0, Options::default()).unwrap();
    // Keys 0..49 were separate WAL records; only the last may be gone.
    for i in 0..49 {
        assert!(
            db.get(format!("key{i:03}").as_bytes()).unwrap().is_some(),
            "key{i:03} must survive"
        );
    }
    assert!(db.get(b"key049").unwrap().is_none(), "torn record dropped");
}

#[test]
fn backup_is_openable_and_independent() {
    let dir = TempDir::new("backup");
    let backup_dir = TempDir::new("backup-dest");
    let dest = backup_dir.0.join("snap");
    let (ledger, workload) = build(&dir.0);
    let t_max = workload.params.t_max;
    let height = ledger.height();
    let want = ferry_query(&TqfEngine, &ledger, Interval::new(0, t_max))
        .unwrap()
        .records;
    ledger.backup(&dest).unwrap();
    // Mutate the original after the backup.
    let mut sim = fabric_ledger::TxSimulator::new(&ledger);
    sim.put_state(&b"post-backup"[..], &b"x"[..]);
    ledger
        .submit(sim.into_transaction(t_max + 1).unwrap())
        .unwrap();
    ledger.cut_block().unwrap();
    // The backup opens, verifies, answers identically, and lacks the
    // post-backup write.
    let snap = Ledger::open(&dest, LedgerConfig::default()).unwrap();
    assert_eq!(snap.height(), height);
    snap.verify_chain().unwrap();
    assert!(snap.get_state(b"post-backup").unwrap().is_none());
    let got = ferry_query(&TqfEngine, &snap, Interval::new(0, t_max))
        .unwrap()
        .records;
    assert_eq!(got, want);
    // Refuses to overwrite an existing backup.
    assert!(ledger.backup(&dest).is_err());
}
