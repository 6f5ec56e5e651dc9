//! Criterion counterpart of paper Tables I & II: TQF vs M1 vs M2 query
//! cost on an early window vs a late window, and the M1 `u` sweep.
//!
//! Runs on a scaled DS1 (shapes are scale-invariant; the full-scale numbers
//! come from the `table1`/`table2` harness binaries). The headline
//! expectation: TQF's late window is several times slower than its early
//! window, while M1 and M2 stay flat.

use criterion::{criterion_group, criterion_main, Criterion};

use fabric_workload::dataset::DatasetId;
use fabric_workload::ingest::IngestMode;
use temporal_bench::Ctx;
use temporal_core::interval::Interval;
use temporal_core::join::ferry_query;
use temporal_core::m1::M1Engine;
use temporal_core::m2::M2Engine;
use temporal_core::tqf::TqfEngine;
use temporal_core::TemporalEngine;

const SCALE: u32 = 300;

fn bench_join_models(c: &mut Criterion) {
    let ctx = Ctx::with_scale(SCALE);
    let id = DatasetId::Ds1;
    let t_max = ctx.t_max(id);
    let u = ctx.scale_time(id, 2000);
    let m1_ledger = ctx
        .m1_ledger(id, IngestMode::MultiEvent, u)
        .expect("m1 fixture");
    let m2_ledger = ctx
        .m2_ledger(id, IngestMode::MultiEvent, u)
        .expect("m2 fixture");

    let w = t_max / 15;
    let early = Interval::new(0, w);
    let late = Interval::new(14 * w, 15 * w);

    let mut g = c.benchmark_group("table1/join");
    g.sample_size(20);
    for (label, tau) in [("early", early), ("late", late)] {
        g.bench_function(format!("tqf/{label}"), |b| {
            b.iter(|| {
                ferry_query(&TqfEngine, &m1_ledger, tau)
                    .unwrap()
                    .records
                    .len()
            })
        });
        g.bench_function(format!("m1/{label}"), |b| {
            b.iter(|| {
                ferry_query(&M1Engine::default(), &m1_ledger, tau)
                    .unwrap()
                    .records
                    .len()
            })
        });
        g.bench_function(format!("m2/{label}"), |b| {
            b.iter(|| {
                ferry_query(&M2Engine { u }, &m2_ledger, tau)
                    .unwrap()
                    .records
                    .len()
            })
        });
    }
    g.finish();
}

fn bench_events_for_key(c: &mut Criterion) {
    let ctx = Ctx::with_scale(SCALE);
    let id = DatasetId::Ds1;
    let t_max = ctx.t_max(id);
    let u = ctx.scale_time(id, 2000);
    let m1_ledger = ctx
        .m1_ledger(id, IngestMode::MultiEvent, u)
        .expect("m1 fixture");
    let m2_ledger = ctx
        .m2_ledger(id, IngestMode::MultiEvent, u)
        .expect("m2 fixture");
    let key = ctx.workload(id).keys()[0];
    let tau = Interval::new(t_max - t_max / 15, t_max);

    let mut g = c.benchmark_group("table1/events_for_key_late");
    g.bench_function("tqf", |b| {
        b.iter(|| {
            TqfEngine
                .events_for_key(&m1_ledger, key, tau)
                .unwrap()
                .len()
        })
    });
    g.bench_function("m1", |b| {
        b.iter(|| {
            M1Engine::default()
                .events_for_key(&m1_ledger, key, tau)
                .unwrap()
                .len()
        })
    });
    g.bench_function("m2", |b| {
        b.iter(|| {
            M2Engine { u }
                .events_for_key(&m2_ledger, key, tau)
                .unwrap()
                .len()
        })
    });
    g.finish();
}

fn bench_u_sweep(c: &mut Criterion) {
    let ctx = Ctx::with_scale(SCALE);
    let id = DatasetId::Ds1;
    let t_max = ctx.t_max(id);
    let tau = Interval::new(t_max * 2 / 15, t_max * 9 / 15); // (20K, 90K] analogue

    let mut g = c.benchmark_group("table2/m1_u_sweep");
    g.sample_size(20);
    for u_paper in [2000u64, 10_000, 50_000] {
        let u = ctx.scale_time(id, u_paper);
        let ledger = ctx
            .m1_ledger(id, IngestMode::MultiEvent, u)
            .expect("m1 fixture");
        g.bench_function(format!("u{u_paper}"), |b| {
            b.iter(|| {
                ferry_query(&M1Engine::default(), &ledger, tau)
                    .unwrap()
                    .records
                    .len()
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_join_models,
    bench_events_for_key,
    bench_u_sweep
);
criterion_main!(benches);
