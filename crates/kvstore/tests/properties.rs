//! Property-based tests: the store must behave exactly like a sorted map,
//! no matter how operations interleave with flushes, compactions and
//! reopens.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::path::PathBuf;

use proptest::prelude::*;

use fabric_kvstore::{KvStore, Options, WriteBatch};

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
}
