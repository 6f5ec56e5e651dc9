//! Criterion counterpart of paper Table III's cost axes: event-ingestion
//! throughput under SE vs ME batching, the (zero) overhead of the M2
//! ingest transformation, and the cost of one M1 indexing invocation.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use fabric_ledger::{Ledger, LedgerConfig};
use fabric_workload::dataset::{generate_scaled, DatasetId};
use fabric_workload::ingest::{ingest, IdentityEncoder, IngestMode};
use temporal_bench::Ctx;
use temporal_core::interval::Interval;
use temporal_core::m1::M1Indexer;
use temporal_core::m2::M2Encoder;
use temporal_core::partition::FixedLength;

fn fresh_ledger(tag: &str) -> (std::path::PathBuf, Ledger) {
    // One ledger per tag is alive at a time: each routine deletes its own.
    let dir = std::env::temp_dir().join(format!("ingest-bench-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ledger = Ledger::open(&dir, LedgerConfig::default()).unwrap();
    (dir, ledger)
}

fn bench_ingestion_modes(c: &mut Criterion) {
    let workload = generate_scaled(DatasetId::Ds1, 600);
    let n = workload.events.len() as u64;
    let mut g = c.benchmark_group("table3/ingest");
    g.sample_size(10);
    g.throughput(Throughput::Elements(n));
    for (label, mode) in [
        ("se", IngestMode::SingleEvent),
        ("me", IngestMode::MultiEvent),
    ] {
        g.bench_function(format!("{label}-identity"), |b| {
            b.iter_batched(
                || fresh_ledger(label),
                |(dir, ledger)| {
                    ingest(&ledger, &workload.events, mode, &IdentityEncoder).unwrap();
                    let _ = std::fs::remove_dir_all(dir);
                },
                BatchSize::PerIteration,
            )
        });
    }
    // M2's claim: ingestion cost ≈ identical to base ingestion (no extra
    // GHFK calls, no extra transactions — just a key rewrite).
    let u = workload.params.t_max / 75;
    g.bench_function("me-m2-encoder", |b| {
        b.iter_batched(
            || fresh_ledger("m2"),
            |(dir, ledger)| {
                ingest(
                    &ledger,
                    &workload.events,
                    IngestMode::MultiEvent,
                    &M2Encoder { u },
                )
                .unwrap();
                let _ = std::fs::remove_dir_all(dir);
            },
            BatchSize::PerIteration,
        )
    });
    g.finish();
}

fn bench_m1_index_build(c: &mut Criterion) {
    // One M1 invocation over fully-ingested data (the §VI-A.2 one-shot
    // case), isolated from ingestion.
    let ctx = Ctx::with_scale(600);
    let id = DatasetId::Ds1;
    let workload = ctx.workload(id);
    let t_max = workload.params.t_max;
    let u = ctx.scale_time(id, 2000);
    let mut g = c.benchmark_group("table3/m1_index_build");
    g.sample_size(10);
    g.bench_function("one-shot", |b| {
        b.iter_batched(
            || {
                let (dir, ledger) = fresh_ledger("m1build");
                ingest(
                    &ledger,
                    &workload.events,
                    IngestMode::MultiEvent,
                    &IdentityEncoder,
                )
                .unwrap();
                (dir, ledger)
            },
            |(dir, ledger)| {
                let strategy = FixedLength { u };
                M1Indexer::fixed(&strategy)
                    .run_epoch(&ledger, &workload.keys(), Interval::new(0, t_max))
                    .unwrap();
                let _ = std::fs::remove_dir_all(dir);
            },
            BatchSize::PerIteration,
        )
    });
    g.finish();
}

criterion_group!(benches, bench_ingestion_modes, bench_m1_index_build);
criterion_main!(benches);
