//! Table II — impact of the index-interval length `u` on Model M1.
//!
//! DS1 with ME ingestion; M1 indexes built with u ∈ {2K, 10K, 50K}; join
//! time measured for τ = (20K, 90K] and τ = (0, 40K]. Larger `u` packs more
//! events per index pair, so fewer GHFK calls / blocks — join time drops.

use fabric_ledger::Result;
use fabric_workload::dataset::DatasetId;
use fabric_workload::ingest::IngestMode;
use temporal_core::interval::Interval;
use temporal_core::join::ferry_query;
use temporal_core::m1::M1Engine;

use crate::harness::{fmt_secs, Ctx, TableOut};

/// The paper's `u` values.
pub const PAPER_US: [u64; 3] = [2000, 10_000, 50_000];

/// Run the Table II reproduction.
pub fn run(ctx: &Ctx) -> Result<String> {
    let id = DatasetId::Ds1;
    let t_max = ctx.t_max(id);
    // τ=(20K,90K] and τ=(0,40K] as fractions of t_max = 150K.
    let taus = [
        Interval::new(t_max * 2 / 15, t_max * 9 / 15),
        Interval::new(0, t_max * 4 / 15),
    ];
    let mut table = TableOut::new(&[
        "u",
        &format!("tau=({},{}] join", taus[0].start, taus[0].end),
        "calls/blocks",
        &format!("tau=(0,{}] join", taus[1].end),
        "calls/blocks ",
    ]);
    let mut csv = TableOut::new(&[
        "u_paper",
        "u_scaled",
        "tau_start",
        "tau_end",
        "join_s",
        "ghfk_calls",
        "blocks",
        "sim_s",
    ]);
    for u_paper in PAPER_US {
        let u = ctx.scale_time(id, u_paper);
        eprintln!("[table2] building M1 ledger u={u} ...");
        let ledger = ctx.m1_ledger(id, IngestMode::MultiEvent, u)?;
        let mut row = vec![format!("{u_paper} (scaled {u})")];
        for tau in taus {
            let outcome = ferry_query(&M1Engine, &ledger, tau)?;
            row.push(format!(
                "{} (sim {:.1}s)",
                fmt_secs(outcome.stats.wall),
                ctx.sim.simulate(&outcome.stats)
            ));
            row.push(format!(
                "{} / {}",
                outcome.stats.ghfk_calls(),
                outcome.stats.blocks_deserialized()
            ));
            csv.row(vec![
                u_paper.to_string(),
                u.to_string(),
                tau.start.to_string(),
                tau.end.to_string(),
                outcome.stats.wall.as_secs_f64().to_string(),
                outcome.stats.ghfk_calls().to_string(),
                outcome.stats.blocks_deserialized().to_string(),
                format!("{:.3}", ctx.sim.simulate(&outcome.stats)),
            ]);
        }
        table.row(row);
    }
    ctx.save_result("table2.csv", &csv.to_csv());
    Ok(format!(
        "# Table II — M1 join time vs u (DS1, ME, scale 1/{})\n\n{}",
        ctx.scale,
        table.to_markdown()
    ))
}
