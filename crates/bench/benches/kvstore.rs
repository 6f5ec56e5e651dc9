//! Microbenchmarks for the key-value store substrate: the state-db's point
//! reads, writes, range scans, and the flush/compaction machinery that
//! every higher-level number sits on.

use std::ops::Bound;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use fabric_kvstore::{KvStore, Options, WriteBatch};

struct TempDir(std::path::PathBuf);
impl TempDir {
    fn new(tag: &str) -> Self {
        let p = std::env::temp_dir().join(format!("kv-bench-{}-{tag}", std::process::id()));
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

fn populated(dir: &TempDir, n: usize) -> KvStore {
    let db = KvStore::open(&dir.0, Options::default()).unwrap();
    for i in 0..n {
        db.put(format!("key{i:08}"), format!("value-{i}")).unwrap();
    }
    db.flush().unwrap();
    db
}

fn bench_puts(c: &mut Criterion) {
    let mut g = c.benchmark_group("kvstore/put");
    g.throughput(Throughput::Elements(1));
    let dir = TempDir::new("put");
    let db = KvStore::open(&dir.0, Options::default()).unwrap();
    let mut i = 0u64;
    g.bench_function("single", |b| {
        b.iter(|| {
            i += 1;
            db.put(format!("key{i:012}"), &b"value-bytes-here"[..])
                .unwrap();
        })
    });
    let mut j = 0u64;
    g.bench_function("batch-100", |b| {
        b.iter(|| {
            let mut batch = WriteBatch::new();
            for _ in 0..100 {
                j += 1;
                batch.put(format!("batch{j:012}"), &b"value-bytes-here"[..]);
            }
            db.write(batch).unwrap();
        })
    });
    g.finish();
}

fn bench_gets(c: &mut Criterion) {
    let mut g = c.benchmark_group("kvstore/get");
    let dir = TempDir::new("get");
    let db = populated(&dir, 100_000);
    let mut i = 0usize;
    g.bench_function("hit-flushed", |b| {
        b.iter(|| {
            i = (i + 7919) % 100_000;
            let key = format!("key{i:08}");
            assert!(db.get(key.as_bytes()).unwrap().is_some());
        })
    });
    g.bench_function("miss-bloom-filtered", |b| {
        b.iter(|| {
            i += 1;
            let key = format!("absent{i:08}");
            assert!(db.get(key.as_bytes()).unwrap().is_none());
        })
    });
    g.finish();
}

fn bench_range(c: &mut Criterion) {
    let mut g = c.benchmark_group("kvstore/range");
    let dir = TempDir::new("range");
    let db = populated(&dir, 100_000);
    g.bench_function("scan-1k-of-100k", |b| {
        b.iter(|| {
            let mut iter = db
                .range(
                    Bound::Included(&b"key00050000"[..]),
                    Bound::Excluded(&b"key00051000"[..]),
                )
                .unwrap();
            let mut n = 0;
            while iter.next().unwrap().is_some() {
                n += 1;
            }
            assert_eq!(n, 1000);
        })
    });
    g.bench_function("prefix-probe", |b| {
        b.iter(|| {
            let mut iter = db.prefix(b"key0009999").unwrap();
            let mut n = 0;
            while iter.next().unwrap().is_some() {
                n += 1;
            }
            assert_eq!(n, 10);
        })
    });
    g.finish();
}

fn bench_maintenance(c: &mut Criterion) {
    let mut g = c.benchmark_group("kvstore/maintenance");
    g.sample_size(10);
    g.bench_function("flush-10k-entries", |b| {
        b.iter_batched(
            || {
                let dir = TempDir::new("flush");
                let db = KvStore::open(&dir.0, Options::default()).unwrap();
                for i in 0..10_000 {
                    db.put(format!("key{i:08}"), format!("v{i}")).unwrap();
                }
                (dir, db)
            },
            |(_dir, db)| db.flush().unwrap(),
            BatchSize::PerIteration,
        )
    });
    g.bench_function("compact-4-tables", |b| {
        b.iter_batched(
            || {
                let dir = TempDir::new("compact");
                let db = KvStore::open(&dir.0, Options::default()).unwrap();
                for round in 0..4 {
                    for i in 0..2500 {
                        db.put(format!("key{i:08}"), format!("round{round}"))
                            .unwrap();
                    }
                    db.flush().unwrap();
                }
                (dir, db)
            },
            |(_dir, db)| db.compact().unwrap(),
            BatchSize::PerIteration,
        )
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_puts,
    bench_gets,
    bench_range,
    bench_maintenance
);
criterion_main!(benches);
