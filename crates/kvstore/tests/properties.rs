//! Property-based tests: the store must behave exactly like a sorted map,
//! no matter how operations interleave with flushes, compactions and
//! reopens.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::path::PathBuf;

use proptest::prelude::*;

use fabric_kvstore::{KvStore, LogStore, Options, WriteBatch};

#[derive(Debug, Clone)]
enum Op {
    Put(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
    Batch(Vec<(Vec<u8>, Option<Vec<u8>>)>),
    Flush,
    Compact,
    Reopen,
}

fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    // Small keyspace so puts/deletes/overwrites actually collide.
    prop::collection::vec(prop::sample::select(b"abcdxyz".to_vec()), 1..4)
}

fn value_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..24)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (key_strategy(), value_strategy()).prop_map(|(k, v)| Op::Put(k, v)),
        2 => key_strategy().prop_map(Op::Delete),
        2 => prop::collection::vec(
            (key_strategy(), prop::option::of(value_strategy())),
            1..5
        )
        .prop_map(Op::Batch),
        1 => Just(Op::Flush),
        1 => Just(Op::Compact),
        1 => Just(Op::Reopen),
    ]
}

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: u64) -> Self {
        let p = std::env::temp_dir().join(format!(
            "kv-prop-{}-{tag}-{:?}",
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

fn check_equiv(db: &KvStore, model: &BTreeMap<Vec<u8>, Vec<u8>>) {
    // Every model key matches; a range scan reproduces the whole model.
    let scanned = db
        .range(Bound::Unbounded, Bound::Unbounded)
        .unwrap()
        .collect_all()
        .unwrap();
    let scanned: Vec<(Vec<u8>, Vec<u8>)> = scanned
        .into_iter()
        .map(|(k, v)| (k.to_vec(), v.to_vec()))
        .collect();
    let expected: Vec<(Vec<u8>, Vec<u8>)> =
        model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    assert_eq!(scanned, expected, "full scan diverged from model");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn store_matches_sorted_map_model(ops in prop::collection::vec(op_strategy(), 1..60), seed in any::<u64>()) {
        let dir = TempDir::new(seed);
        let mut db = KvStore::open(&dir.0, Options::small_for_tests()).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Put(k, v) => {
                    db.put(k.clone(), v.clone()).unwrap();
                    model.insert(k, v);
                }
                Op::Delete(k) => {
                    db.delete(k.clone()).unwrap();
                    model.remove(&k);
                }
                Op::Batch(entries) => {
                    let mut batch = WriteBatch::new();
                    for (k, v) in &entries {
                        match v {
                            Some(v) => { batch.put(k.clone(), v.clone()); }
                            None => { batch.delete(k.clone()); }
                        }
                    }
                    db.write(batch).unwrap();
                    for (k, v) in entries {
                        match v {
                            Some(v) => { model.insert(k, v); }
                            None => { model.remove(&k); }
                        }
                    }
                }
                Op::Flush => db.flush().unwrap(),
                Op::Compact => db.compact().unwrap(),
                Op::Reopen => {
                    drop(db);
                    db = KvStore::open(&dir.0, Options::small_for_tests()).unwrap();
                }
            }
            // Spot-check point reads continuously (cheap).
            for (k, v) in model.iter().take(4) {
                let got = db.get(k).unwrap();
                prop_assert_eq!(got.as_deref(), Some(v.as_slice()));
            }
        }
        check_equiv(&db, &model);
        // Point reads for everything, including deleted keys.
        for key in [b"a".to_vec(), b"zz".to_vec(), b"dcba".to_vec()] {
            prop_assert_eq!(db.get(&key).unwrap().map(|b| b.to_vec()), model.get(&key).cloned());
        }
        // Survives one final reopen.
        drop(db);
        let db = KvStore::open(&dir.0, Options::small_for_tests()).unwrap();
        check_equiv(&db, &model);
    }

    #[test]
    fn range_bounds_match_model(
        tables in prop::collection::vec(
            prop::collection::btree_map(key_strategy(), value_strategy(), 0..12),
            1..4,
        ),
        empty_table in any::<bool>(),
        random_keys in prop::collection::vec(key_strategy(), 2),
        seed in any::<u64>(),
    ) {
        // Each table is one flush, its keys behind their own letter, so the
        // tables' spans are disjoint with gaps below, between and above
        // them. Manual compaction only, so the tables stay apart.
        let dir = TempDir::new(seed.wrapping_add(1_000_000));
        let db = KvStore::open(
            &dir.0,
            Options { compaction_trigger: 0, ..Options::small_for_tests() },
        )
        .unwrap();
        if empty_table {
            // A value and its tombstone in two tables: compacting them
            // leaves one table with no entries and an empty key span.
            db.put(&b"m"[..], &b"gone"[..]).unwrap();
            db.flush().unwrap();
            db.delete(&b"m"[..]).unwrap();
            db.flush().unwrap();
            db.compact().unwrap();
            prop_assert_eq!(db.table_count(), 1);
        }
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        // Bounds: every table's min and max key, keys below, between and
        // above every span, and random keys, each included and excluded.
        let mut candidates: Vec<Vec<u8>> = vec![b"".to_vec(), b"c".to_vec(), b"{".to_vec()];
        candidates.extend(random_keys);
        for (entries, letter) in tables.iter().zip([b'b', b'd', b'z']) {
            let table: BTreeMap<Vec<u8>, Vec<u8>> = entries
                .iter()
                .map(|(k, v)| ([&[letter], &k[..]].concat(), v.clone()))
                .collect();
            for (k, v) in &table {
                db.put(k.clone(), v.clone()).unwrap();
            }
            db.flush().unwrap();
            if let (Some((min, _)), Some((max, _))) = (table.first_key_value(), table.last_key_value()) {
                candidates.push(min.clone());
                candidates.push(max.clone());
            }
            model.extend(table);
        }
        let mut bounds = vec![Bound::Unbounded];
        for key in &candidates {
            bounds.push(Bound::Included(key.as_slice()));
            bounds.push(Bound::Excluded(key.as_slice()));
        }
        for &start in &bounds {
            for &end in &bounds {
                let got: Vec<(Vec<u8>, Vec<u8>)> = db
                    .range(start, end)
                    .unwrap()
                    .collect_all()
                    .unwrap()
                    .into_iter()
                    .map(|(k, v)| (k.to_vec(), v.to_vec()))
                    .collect();
                let want: Vec<(Vec<u8>, Vec<u8>)> = model
                    .iter()
                    .filter(|(k, _)| {
                        let k = k.as_slice();
                        let after_start = match start {
                            Bound::Included(s) => k >= s,
                            Bound::Excluded(s) => k > s,
                            Bound::Unbounded => true,
                        };
                        let before_end = match end {
                            Bound::Included(e) => k <= e,
                            Bound::Excluded(e) => k < e,
                            Bound::Unbounded => true,
                        };
                        after_start && before_end
                    })
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                prop_assert_eq!(got, want, "range {:?}..{:?}", start, end);
            }
        }
    }

    #[test]
    fn prefix_scan_matches_model(
        entries in prop::collection::btree_map(key_strategy(), value_strategy(), 0..30),
        prefix in key_strategy(),
        seed in any::<u64>(),
    ) {
        let dir = TempDir::new(seed.wrapping_add(2_000_000));
        let db = KvStore::open(&dir.0, Options::small_for_tests()).unwrap();
        for (k, v) in &entries {
            db.put(k.clone(), v.clone()).unwrap();
        }
        let got = db.prefix(&prefix).unwrap().collect_all().unwrap();
        let got: Vec<Vec<u8>> = got.into_iter().map(|(k, _)| k.to_vec()).collect();
        let want: Vec<Vec<u8>> = entries
            .keys()
            .filter(|k| k.starts_with(&prefix))
            .cloned()
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn log_store_matches_sorted_map_model(ops in prop::collection::vec(op_strategy(), 1..60), seed in any::<u64>()) {
        // Same model test against the value-log engine, whose tiny
        // small_for_tests file/compaction thresholds force frequent
        // rotations and automatic merges: compaction and reopen must
        // never lose a live key or resurrect a deleted one.
        let dir = TempDir::new(seed.wrapping_add(3_000_000));
        let mut db = LogStore::open(&dir.0, Options::small_for_tests()).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Put(k, v) => {
                    db.put(k.clone(), v.clone()).unwrap();
                    model.insert(k, v);
                }
                Op::Delete(k) => {
                    db.delete(k.clone()).unwrap();
                    model.remove(&k);
                }
                Op::Batch(entries) => {
                    let mut batch = WriteBatch::new();
                    for (k, v) in &entries {
                        match v {
                            Some(v) => { batch.put(k.clone(), v.clone()); }
                            None => { batch.delete(k.clone()); }
                        }
                    }
                    db.write(batch).unwrap();
                    for (k, v) in entries {
                        match v {
                            Some(v) => { model.insert(k, v); }
                            None => { model.remove(&k); }
                        }
                    }
                }
                Op::Flush => db.flush().unwrap(),
                Op::Compact => db.compact().unwrap(),
                Op::Reopen => {
                    drop(db);
                    db = LogStore::open(&dir.0, Options::small_for_tests()).unwrap();
                }
            }
            for (k, v) in model.iter().take(4) {
                let got = db.get(k).unwrap();
                prop_assert_eq!(got.as_deref(), Some(v.as_slice()));
            }
        }
        let scan = |db: &LogStore| -> Vec<(Vec<u8>, Vec<u8>)> {
            db.range(Bound::Unbounded, Bound::Unbounded)
                .unwrap()
                .collect_all()
                .unwrap()
                .into_iter()
                .map(|(k, v)| (k.to_vec(), v.to_vec()))
                .collect()
        };
        let expected: Vec<(Vec<u8>, Vec<u8>)> =
            model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(scan(&db), expected.clone(), "full scan diverged from model");
        // A forced merge plus one reopen must be invisible too.
        db.compact().unwrap();
        prop_assert_eq!(scan(&db), expected.clone(), "scan diverged after compaction");
        drop(db);
        let db = LogStore::open(&dir.0, Options::small_for_tests()).unwrap();
        prop_assert_eq!(scan(&db), expected, "scan diverged after reopen");
    }

    #[test]
    fn log_torn_tail_recovers_to_last_whole_record(
        ops in prop::collection::vec((key_strategy(), value_strategy()), 1..30),
        chop in 1usize..48,
        seed in any::<u64>(),
    ) {
        // Write every op as one record into a single data file, tear an
        // arbitrary number of bytes off its tail, and reopen: recovery
        // must keep exactly the records whose frames survive whole —
        // the store equals the model of that operation prefix.
        let dir = TempDir::new(seed.wrapping_add(4_000_000));
        let mut opts = Options::small_for_tests();
        opts.log_file_max_bytes = u64::MAX; // one data file
        opts.log_compaction_bytes = u64::MAX; // no merges: frames = ops
        {
            let db = LogStore::open(&dir.0, opts.clone()).unwrap();
            for (k, v) in &ops {
                db.put(k.clone(), v.clone()).unwrap();
            }
        }
        let vlog = std::fs::read_dir(&dir.0)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "vlog"))
            .max()
            .expect("data file exists");
        let data = std::fs::read(&vlog).unwrap();
        // Walk the CRC framing to find each record's end offset.
        let mut ends = Vec::new();
        let mut off = 0usize;
        while off + 8 <= data.len() {
            let len = u32::from_le_bytes(data[off + 4..off + 8].try_into().unwrap()) as usize;
            if off + 8 + len > data.len() {
                break;
            }
            off += 8 + len;
            ends.push(off);
        }
        prop_assert_eq!(ends.len(), ops.len(), "one record per put");
        let keep = data.len() - chop.min(data.len());
        std::fs::write(&vlog, &data[..keep]).unwrap();
        let survivors = ends.iter().filter(|&&e| e <= keep).count();
        let db = LogStore::open(&dir.0, opts).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for (k, v) in &ops[..survivors] {
            model.insert(k.clone(), v.clone());
        }
        let got: Vec<(Vec<u8>, Vec<u8>)> = db
            .range(Bound::Unbounded, Bound::Unbounded)
            .unwrap()
            .collect_all()
            .unwrap()
            .into_iter()
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect();
        let want: Vec<(Vec<u8>, Vec<u8>)> =
            model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(got, want, "recovered to a different prefix");
    }
}
