//! Ablations of the design choices DESIGN.md calls out:
//!
//! * **Lazy vs eager GHFK** — M1's "one block per index GHFK" depends on
//!   the lazy iterator never touching the delete-marker's block; an eager
//!   reader pays roughly double.
//! * **Block cache on/off** — Fabric v1.0 has none; how much of TQF's pain
//!   would an LRU block cache absorb?
//! * **Partition strategy** — the paper's fixed-`u` vs the future-work
//!   event-count-balanced strategy, on zipf-skewed DS2.
//! * **Telemetry overhead** — disabled telemetry must be free (a relaxed
//!   atomic load per instrument site); enabled telemetry should stay in
//!   the low single-digit percent for query work.
//! * **Read path** — the seed per-location path vs coalesced history runs
//!   with selective tx decode, and the sharded clock-LRU cache at 1/4/8
//!   shards under parallel query load.

use criterion::{criterion_group, criterion_main, Criterion};

use fabric_ledger::{Ledger, LedgerConfig};
use fabric_workload::dataset::{generate_scaled, DatasetId};
use fabric_workload::ingest::{ingest, IdentityEncoder, IngestMode};
use temporal_bench::Ctx;
use temporal_core::interval::Interval;
use temporal_core::join::ferry_query;
use temporal_core::m1::{M1Engine, M1Indexer};
use temporal_core::partition::{EventCountBalanced, FixedLength};
use temporal_core::tqf::TqfEngine;

const SCALE: u32 = 300;

fn bench_lazy_vs_eager_ghfk(c: &mut Criterion) {
    let ctx = Ctx::with_scale(SCALE);
    let id = DatasetId::Ds1;
    let u = ctx.scale_time(id, 2000);
    let ledger = ctx
        .m1_ledger(id, IngestMode::MultiEvent, u)
        .expect("m1 fixture");
    let key = ctx.workload(id).keys()[0];
    let theta = Interval::new(0, u);
    let composite = theta.composite_key(&key.key());

    let mut g = c.benchmark_group("ablation/ghfk_index_read");
    // Lazy: read the event set (first state) and abandon the iterator —
    // the delete marker's block is never deserialized.
    g.bench_function("lazy-first-state", |b| {
        b.iter(|| {
            let mut iter = ledger.get_history_for_key(&composite).unwrap();
            iter.next().unwrap().map(|s| s.value.map(|v| v.len()))
        })
    });
    // Eager: drain the whole history — also deserializes the block holding
    // the delete marker.
    g.bench_function("eager-full-history", |b| {
        b.iter(|| {
            ledger
                .get_history_for_key(&composite)
                .unwrap()
                .collect_all()
                .unwrap()
                .len()
        })
    });
    // Report the counter difference once, so the ablation is quantified in
    // blocks and not only nanoseconds.
    let before = ledger.stats();
    let mut iter = ledger.get_history_for_key(&composite).unwrap();
    let _ = iter.next().unwrap();
    let lazy_blocks = ledger.stats().delta(&before).blocks_deserialized;
    let before = ledger.stats();
    ledger
        .get_history_for_key(&composite)
        .unwrap()
        .collect_all()
        .unwrap();
    let eager_blocks = ledger.stats().delta(&before).blocks_deserialized;
    eprintln!("[ablation] lazy reads {lazy_blocks} block(s), eager reads {eager_blocks}");
    g.finish();
}

fn bench_block_cache(c: &mut Criterion) {
    // Same data, TQF repeated on a late window, with and without an LRU
    // block cache. The cached run models a peer that amortizes repeated
    // temporal queries; the uncached run is Fabric v1.0 (and the paper).
    let workload = generate_scaled(DatasetId::Ds1, 600);
    let t_max = workload.params.t_max;
    let tau = Interval::new(t_max - t_max / 15, t_max);
    let root = std::env::temp_dir().join(format!("ablation-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let build = |sub: &str, cache_blocks: usize| {
        let ledger = Ledger::open(
            root.join(sub),
            LedgerConfig::default().with_cache_blocks(cache_blocks),
        )
        .unwrap();
        ingest(
            &ledger,
            &workload.events,
            IngestMode::MultiEvent,
            &IdentityEncoder,
        )
        .unwrap();
        ledger
    };
    let uncached = build("off", 0);
    let cached = build("on", 100_000);
    // Warm the cache once so the benchmark measures the steady state.
    ferry_query(&TqfEngine, &cached, tau).unwrap();

    let mut g = c.benchmark_group("ablation/block_cache_tqf_late");
    g.sample_size(10);
    g.bench_function("cache-off", |b| {
        b.iter(|| {
            ferry_query(&TqfEngine, &uncached, tau)
                .unwrap()
                .records
                .len()
        })
    });
    g.bench_function("cache-on-warm", |b| {
        b.iter(|| ferry_query(&TqfEngine, &cached, tau).unwrap().records.len())
    });
    g.finish();
    let _ = std::fs::remove_dir_all(&root);
}

fn bench_read_path(c: &mut Criterion) {
    // The read-path overhaul, broken into its two levers:
    //
    // * coalescing + selective decode — same blocks_deserialized for a
    //   single scan (locations are (block, tx)-sorted either way), but far
    //   fewer transactions decoded, so less CPU per block touched;
    // * the clock-LRU cache — repeated scans stop re-deserializing blocks
    //   entirely.
    let workload = generate_scaled(DatasetId::Ds1, 600);
    let t_max = workload.params.t_max;
    let tau = Interval::new(t_max - t_max / 15, t_max);
    let root = std::env::temp_dir().join(format!("ablation-readpath-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let build = |sub: &str, config: LedgerConfig| {
        let ledger = Ledger::open(root.join(sub), config).unwrap();
        ingest(
            &ledger,
            &workload.events,
            IngestMode::MultiEvent,
            &IdentityEncoder,
        )
        .unwrap();
        ledger
    };
    let seed = build("seed", LedgerConfig::default().with_coalesce_history(false));
    let coalesced = build("coalesced", LedgerConfig::default());

    // Quantify the selective-decode lever in counters, not nanoseconds:
    // identical blocks_deserialized, fewer txs_decoded.
    let scan = |ledger: &Ledger| {
        let before = ledger.stats();
        ferry_query(&TqfEngine, ledger, tau).unwrap();
        ledger.stats().delta(&before)
    };
    let d_seed = scan(&seed);
    let d_coal = scan(&coalesced);
    assert_eq!(d_seed.blocks_deserialized, d_coal.blocks_deserialized);
    eprintln!(
        "[ablation] single scan: {} block(s) both paths; txs_decoded {} (per-location) vs {} (selective)",
        d_seed.blocks_deserialized, d_seed.txs_decoded, d_coal.txs_decoded
    );

    let mut g = c.benchmark_group("ablation/read_path_tqf_late");
    g.sample_size(10);
    g.bench_function("per-location", |b| {
        b.iter(|| ferry_query(&TqfEngine, &seed, tau).unwrap().records.len())
    });
    g.bench_function("coalesced-selective", |b| {
        b.iter(|| {
            ferry_query(&TqfEngine, &coalesced, tau)
                .unwrap()
                .records
                .len()
        })
    });
    g.finish();
    let _ = std::fs::remove_dir_all(&root);
}

fn bench_partition_strategies(c: &mut Criterion) {
    // Fixed-u vs event-count-balanced on zipf data: balanced intervals put
    // a bounded number of events behind every index GHFK, which pays off
    // in the dense early region.
    let workload = generate_scaled(DatasetId::Ds2, 600);
    let t_max = workload.params.t_max;
    let u = t_max / 75;
    let per_interval_target = (workload.params.events_per_key as usize / 75).max(2);
    let root = std::env::temp_dir().join(format!("ablation-part-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let fixed_ledger = Ledger::open(root.join("fixed"), LedgerConfig::default()).unwrap();
    ingest(
        &fixed_ledger,
        &workload.events,
        IngestMode::MultiEvent,
        &IdentityEncoder,
    )
    .unwrap();
    let strategy = FixedLength { u };
    M1Indexer::fixed(&strategy)
        .run_epoch(&fixed_ledger, &workload.keys(), Interval::new(0, t_max))
        .unwrap();

    let balanced_ledger = Ledger::open(root.join("balanced"), LedgerConfig::default()).unwrap();
    ingest(
        &balanced_ledger,
        &workload.events,
        IngestMode::MultiEvent,
        &IdentityEncoder,
    )
    .unwrap();
    let balanced = EventCountBalanced {
        target_events: per_interval_target,
    };
    M1Indexer::with_strategy(&balanced)
        .run_epoch(&balanced_ledger, &workload.keys(), Interval::new(0, t_max))
        .unwrap();

    // Dense early window, where zipf piles up the events.
    let tau = Interval::new(0, t_max / 15);
    let mut g = c.benchmark_group("ablation/partition_zipf_dense_window");
    g.sample_size(20);
    g.bench_function("fixed-u", |b| {
        b.iter(|| {
            ferry_query(&M1Engine::default(), &fixed_ledger, tau)
                .unwrap()
                .records
                .len()
        })
    });
    g.bench_function("count-balanced", |b| {
        b.iter(|| {
            ferry_query(&M1Engine::default(), &balanced_ledger, tau)
                .unwrap()
                .records
                .len()
        })
    });
    g.finish();
    let _ = std::fs::remove_dir_all(&root);
}

fn bench_parallel_query(c: &mut Criterion) {
    // Extension beyond the paper: per-key retrieval fans out over threads.
    use temporal_core::parallel::ferry_query_parallel;
    let ctx = Ctx::with_scale(SCALE);
    let id = DatasetId::Ds1;
    let t_max = ctx.t_max(id);
    let u = ctx.scale_time(id, 2000);
    // Build (or find) the cached fixture, then open it through the handle.
    let dir = ctx
        .m1_ledger(id, IngestMode::MultiEvent, u)
        .expect("m1 fixture")
        .dir()
        .to_path_buf();
    let ledger = fabric_ledger::ShardedLedger::open(dir, LedgerConfig::default())
        .expect("m1 fixture handle");
    let tau = Interval::new(t_max - t_max / 15, t_max);

    let mut g = c.benchmark_group("ablation/parallel_tqf_late");
    g.sample_size(10);
    for workers in [1usize, 2, 4, 8] {
        g.bench_function(format!("workers-{workers}"), |b| {
            b.iter(|| {
                ferry_query_parallel(&TqfEngine, &ledger, tau, workers)
                    .unwrap()
                    .records
                    .len()
            })
        });
    }
    g.finish();
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    // kvstore micro: the same store read through a disabled telemetry
    // handle vs an enabled one. The disabled case is the zero-cost claim —
    // it must be indistinguishable (<2%) from a store built before the
    // telemetry layer existed.
    use fabric_kvstore::{KvStore, Options};
    use fabric_telemetry::Telemetry;
    let root = std::env::temp_dir().join(format!("ablation-tel-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let tel = Telemetry::disabled();
    let store =
        KvStore::open_with_telemetry(root.join("kv"), Options::default(), tel.clone()).unwrap();
    for i in 0..10_000u32 {
        store
            .put(format!("key{i:06}").into_bytes(), vec![0u8; 64])
            .unwrap();
    }
    store.flush().unwrap();

    let mut g = c.benchmark_group("ablation/telemetry_kvstore_get");
    let mut i = 0u32;
    g.bench_function("disabled", |b| {
        b.iter(|| {
            i = (i + 1) % 10_000;
            store.get(format!("key{i:06}").as_bytes()).unwrap()
        })
    });
    tel.enable();
    // "enabled" includes the always-on flight recorder: every finished span
    // is cloned into the ring. The budget vs disabled is ≤5%.
    g.bench_function("enabled", |b| {
        b.iter(|| {
            i = (i + 1) % 10_000;
            store.get(format!("key{i:06}").as_bytes()).unwrap()
        })
    });
    // Slow-log detection on top (threshold high enough that nothing fires,
    // so this measures the per-root check, not sink I/O).
    let (_buffer, sink) = fabric_telemetry::slowlog::memory_sink();
    tel.install_slow_log(fabric_telemetry::SlowLogConfig::threshold_ms(10_000), sink);
    g.bench_function("enabled+slowlog", |b| {
        b.iter(|| {
            i = (i + 1) % 10_000;
            store.get(format!("key{i:06}").as_bytes()).unwrap()
        })
    });
    tel.remove_slow_log();
    tel.disable();
    g.finish();

    // Query meso: a whole ferry join with telemetry off vs on (spans for
    // every GHFK call and block deserialization).
    let ctx = Ctx::with_scale(SCALE);
    let id = DatasetId::Ds1;
    let u = ctx.scale_time(id, 2000);
    let ledger = ctx
        .m1_ledger(id, IngestMode::MultiEvent, u)
        .expect("m1 fixture");
    let t_max = ctx.t_max(id);
    let tau = Interval::new(t_max - t_max / 15, t_max);
    let mut g = c.benchmark_group("ablation/telemetry_ferry_query");
    g.sample_size(10);
    g.bench_function("disabled", |b| {
        b.iter(|| {
            ferry_query(&M1Engine::default(), &ledger, tau)
                .unwrap()
                .records
                .len()
        })
    });
    ledger.telemetry().enable();
    g.bench_function("enabled", |b| {
        b.iter(|| {
            ledger.telemetry().reset();
            ferry_query(&M1Engine::default(), &ledger, tau)
                .unwrap()
                .records
                .len()
        })
    });
    ledger.telemetry().disable();
    g.finish();
    let _ = std::fs::remove_dir_all(&root);
}

criterion_group!(
    benches,
    bench_lazy_vs_eager_ghfk,
    bench_block_cache,
    bench_read_path,
    bench_partition_strategies,
    bench_parallel_query,
    bench_telemetry_overhead
);
criterion_main!(benches);
