//! Criterion counterpart of paper Table IV: GetState-Base / GHFK-Base on
//! M2-transformed data across interval lengths, against plain GetState /
//! GHFK on base data.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fabric_workload::dataset::DatasetId;
use fabric_workload::ingest::IngestMode;
use temporal_bench::Ctx;
use temporal_core::base_api::M2BaseApi;

const SCALE: u32 = 300;

fn bench_get_state_base(c: &mut Criterion) {
    let ctx = Ctx::with_scale(SCALE);
    let id = DatasetId::Ds1;
    let keys = ctx.workload(id).keys();
    let t_max = ctx.t_max(id);
    let mut g = c.benchmark_group("table4/get_state_base");
    for u_paper in [2000u64, 10_000, 50_000, 75_000] {
        let u = ctx.scale_time(id, u_paper);
        let ledger = ctx
            .m2_ledger(id, IngestMode::MultiEvent, u)
            .expect("m2 fixture");
        let api = M2BaseApi::new(u, t_max);
        let mut rng = StdRng::seed_from_u64(1);
        g.bench_function(format!("u{u_paper}"), |b| {
            b.iter(|| {
                let key = keys[rng.gen_range(0..keys.len())];
                api.get_state_base(&ledger, key).unwrap().probes
            })
        });
    }
    // Reference: plain GetState on base data.
    let base = ctx
        .base_ledger(id, IngestMode::MultiEvent)
        .expect("base fixture");
    let mut rng = StdRng::seed_from_u64(1);
    g.bench_function("base-get-state", |b| {
        b.iter(|| {
            let key = keys[rng.gen_range(0..keys.len())];
            base.get_state(&key.key()).unwrap().is_some()
        })
    });
    g.finish();
}

fn bench_ghfk_base(c: &mut Criterion) {
    let ctx = Ctx::with_scale(SCALE);
    let id = DatasetId::Ds1;
    let keys = ctx.workload(id).keys();
    let t_max = ctx.t_max(id);
    let mut g = c.benchmark_group("table4/ghfk_base");
    g.sample_size(10);
    for u_paper in [2000u64, 50_000] {
        let u = ctx.scale_time(id, u_paper);
        let ledger = ctx
            .m2_ledger(id, IngestMode::MultiEvent, u)
            .expect("m2 fixture");
        let api = M2BaseApi::new(u, t_max);
        let mut rng = StdRng::seed_from_u64(2);
        g.bench_function(format!("u{u_paper}"), |b| {
            b.iter(|| {
                let key = keys[rng.gen_range(0..keys.len())];
                api.ghfk_base(&ledger, key).unwrap().len()
            })
        });
    }
    let base = ctx
        .base_ledger(id, IngestMode::MultiEvent)
        .expect("base fixture");
    let mut rng = StdRng::seed_from_u64(2);
    g.bench_function("base-ghfk", |b| {
        b.iter(|| {
            let key = keys[rng.gen_range(0..keys.len())];
            base.get_history_for_key(&key.key())
                .unwrap()
                .collect_all()
                .unwrap()
                .len()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_get_state_base, bench_ghfk_base);
criterion_main!(benches);
