//! Table I — join performance: Model M1 vs TQF vs Model M2.
//!
//! Reproduces the paper's headline comparison: the temporal-join time (and
//! GHFK time / call counts) for nine query windows sweeping left to right
//! across the timeline, on DS1 (ME ingestion, with M2 at u=2K and u=50K),
//! DS2 (ME) and DS3 (SE).

use fabric_ledger::{Ledger, LedgerConfig, Result, ShardedLedger};
use fabric_workload::dataset::DatasetId;
use fabric_workload::ingest::IngestMode;
use temporal_core::join::ferry_query;
use temporal_core::m1::M1Engine;
use temporal_core::m2::M2Engine;
use temporal_core::parallel::{ferry_query_parallel, SLOT_CAPACITY};
use temporal_core::tqf::TqfEngine;
use temporal_core::{AutoEngine, TemporalEngine};

/// Worker-pool width for the parallel-streaming ablation row.
const PARALLEL_WORKERS: usize = 4;

use crate::harness::{fmt_secs, with_telemetry, Ctx, TableOut};
use crate::regress::{bench_file_from_samples, MetricKind};

struct Cell {
    join_wall: std::time::Duration,
    ghfk_wall: std::time::Duration,
    ghfk_calls: u64,
    blocks: u64,
    txs_decoded: u64,
    sim_secs: f64,
    records: usize,
}

fn run_engine(
    ctx: &Ctx,
    engine: &dyn TemporalEngine,
    ledger: &Ledger,
    tau: temporal_core::Interval,
) -> Result<(Cell, Option<fabric_telemetry::RegistrySnapshot>)> {
    let (outcome, snapshot) = if ctx.telemetry {
        let (outcome, snapshot) = with_telemetry(ledger, || ferry_query(engine, ledger, tau));
        (outcome?, Some(snapshot))
    } else {
        (ferry_query(engine, ledger, tau)?, None)
    };
    let cell = Cell {
        join_wall: outcome.stats.wall,
        ghfk_wall: outcome.retrieval_wall,
        ghfk_calls: outcome.stats.ghfk_calls(),
        blocks: outcome.stats.blocks_deserialized(),
        txs_decoded: outcome.stats.txs_decoded(),
        sim_secs: ctx.sim.simulate(&outcome.stats),
        records: outcome.records.len(),
    };
    if let Some(snapshot) = &snapshot {
        // The span-fed counter and the IoStats counter increment in
        // lock-step; a mismatch means an uninstrumented read path.
        assert_eq!(
            snapshot.counter("ledger.blocks.deserialized"),
            cell.blocks,
            "telemetry counter diverged from IoStats for {}",
            engine.name()
        );
    }
    Ok((cell, snapshot))
}

fn telemetry_line(
    snapshot: fabric_telemetry::RegistrySnapshot,
    id: DatasetId,
    mode: IngestMode,
    engine: &str,
    tau: temporal_core::Interval,
    cell: &Cell,
) -> String {
    fabric_telemetry::Report::new(snapshot)
        .with("table", "table1")
        .with("dataset", id.to_string())
        .with("mode", mode.to_string())
        .with("engine", engine)
        .with("tau_start", tau.start.to_string())
        .with("tau_end", tau.end.to_string())
        .with("records", cell.records.to_string())
        .with("iostats_blocks_deserialized", cell.blocks.to_string())
        .json_line()
}

/// Run the full Table I reproduction.
pub fn run(ctx: &Ctx) -> Result<String> {
    let mut report = String::new();
    report.push_str(&format!(
        "# Table I — M1 vs TQF vs M2 (scale 1/{})\n\n",
        ctx.scale
    ));
    let mut csv = TableOut::new(&[
        "dataset",
        "mode",
        "engine",
        "tau_start",
        "tau_end",
        "join_s",
        "ghfk_s",
        "ghfk_calls",
        "blocks_deserialized",
        "txs_decoded",
        "sim_s",
        "records",
    ]);
    let mut jsonl = String::new();
    // Calibration sink for the auto-planner ablation (`--planner-log`):
    // every auto query's certified bounds + measured actuals, stamped with
    // the dataset currently under test.
    let planner_log = ctx.open_planner_log();
    // Raw samples for the machine-readable bench file: one entry per
    // (dataset/mode/engine/metric) per window, reduced to medians at the end.
    let mut samples: Vec<(String, MetricKind, f64)> = Vec::new();
    // Parallel-ablation samples, collected separately because the `sample`
    // closure below holds the mutable borrow of `samples`; merged at the end.
    let mut parallel_samples: Vec<(String, MetricKind, f64)> = Vec::new();
    let mut sample = |id: DatasetId, mode: IngestMode, engine: &str, cell: &Cell| {
        let prefix = format!("{id}/{mode}/{engine}").to_lowercase();
        samples.push((
            format!("{prefix}/join_s"),
            MetricKind::Time,
            cell.join_wall.as_secs_f64(),
        ));
        samples.push((
            format!("{prefix}/ghfk_s"),
            MetricKind::Time,
            cell.ghfk_wall.as_secs_f64(),
        ));
        samples.push((
            format!("{prefix}/ghfk_calls"),
            MetricKind::Counter,
            cell.ghfk_calls as f64,
        ));
        samples.push((
            format!("{prefix}/blocks"),
            MetricKind::Counter,
            cell.blocks as f64,
        ));
        samples.push((
            format!("{prefix}/txs_decoded"),
            MetricKind::Counter,
            cell.txs_decoded as f64,
        ));
        samples.push((format!("{prefix}/sim_s"), MetricKind::Time, cell.sim_secs));
    };

    for (id, mode, m2_us) in [
        (
            DatasetId::Ds1,
            IngestMode::MultiEvent,
            vec![2000u64, 50_000],
        ),
        (DatasetId::Ds2, IngestMode::MultiEvent, vec![2000]),
        (DatasetId::Ds3, IngestMode::SingleEvent, vec![2000]),
    ] {
        let u_index = ctx.scale_time(id, 2000);
        if let Some(log) = &planner_log {
            log.set_dataset(&id.to_string().to_lowercase());
        }
        eprintln!("[table1] building ledgers for {id} ({mode}) ...");
        let m1_ledger = ctx.m1_ledger(id, mode, u_index)?;
        let m2_ledgers: Vec<(u64, Ledger)> = m2_us
            .iter()
            .map(|&u_paper| {
                let u = ctx.scale_time(id, u_paper);
                ctx.m2_ledger(id, mode, u).map(|l| (u_paper, l))
            })
            .collect::<Result<_>>()?;

        let mut headers = vec![
            "Query Interval".to_string(),
            format!("M1(u={u_index}) Join",),
            "M1 GHFK (calls)".to_string(),
            "TQF Join".to_string(),
            "TQF GHFK (calls)".to_string(),
            "Auto Join".to_string(),
            "Auto GHFK (calls)".to_string(),
        ];
        for (u_paper, _) in &m2_ledgers {
            headers.push(format!("M2(u≈{u_paper}) Join"));
            headers.push("M2 GHFK (calls)".to_string());
        }
        let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let mut table = TableOut::new(&header_refs);

        for tau in ctx.table1_windows(id) {
            eprintln!("[table1] {id} tau={tau} ...");
            let mut row = vec![tau.to_string()];
            let mut record_counts = Vec::new();
            let push_cell = |cell: &Cell, row: &mut Vec<String>| {
                row.push(format!(
                    "{} (sim {:.1}s)",
                    fmt_secs(cell.join_wall),
                    cell.sim_secs
                ));
                row.push(format!(
                    "{} ({}) [{} blk]",
                    fmt_secs(cell.ghfk_wall),
                    cell.ghfk_calls,
                    cell.blocks
                ));
            };

            let (m1, snap) = run_engine(ctx, &M1Engine::default(), &m1_ledger, tau)?;
            if let Some(snap) = snap {
                jsonl.push_str(&telemetry_line(snap, id, mode, "M1", tau, &m1));
                jsonl.push('\n');
            }
            sample(id, mode, "m1", &m1);
            push_cell(&m1, &mut row);
            record_counts.push(m1.records);
            csv.row(vec![
                id.to_string(),
                mode.to_string(),
                "M1".into(),
                tau.start.to_string(),
                tau.end.to_string(),
                m1.join_wall.as_secs_f64().to_string(),
                m1.ghfk_wall.as_secs_f64().to_string(),
                m1.ghfk_calls.to_string(),
                m1.blocks.to_string(),
                m1.txs_decoded.to_string(),
                format!("{:.3}", m1.sim_secs),
                m1.records.to_string(),
            ]);

            // TQF runs against the same base data (M1 leaves it untouched).
            let (tqf, snap) = run_engine(ctx, &TqfEngine, &m1_ledger, tau)?;
            if let Some(snap) = snap {
                jsonl.push_str(&telemetry_line(snap, id, mode, "TQF", tau, &tqf));
                jsonl.push('\n');
            }
            sample(id, mode, "tqf", &tqf);
            push_cell(&tqf, &mut row);
            record_counts.push(tqf.records);
            csv.row(vec![
                id.to_string(),
                mode.to_string(),
                "TQF".into(),
                tau.start.to_string(),
                tau.end.to_string(),
                tqf.join_wall.as_secs_f64().to_string(),
                tqf.ghfk_wall.as_secs_f64().to_string(),
                tqf.ghfk_calls.to_string(),
                tqf.blocks.to_string(),
                tqf.txs_decoded.to_string(),
                format!("{:.3}", tqf.sim_secs),
                tqf.records.to_string(),
            ]);

            // Planner ablation: auto runs on the same base+M1 ledger and
            // must never deserialize more blocks than the better of the
            // two fixed engines it chooses between.
            let auto_engine = match &planner_log {
                Some(log) => AutoEngine::with_log(log.clone()),
                None => AutoEngine::default(),
            };
            let (auto, snap) = run_engine(ctx, &auto_engine, &m1_ledger, tau)?;
            if let Some(snap) = snap {
                jsonl.push_str(&telemetry_line(snap, id, mode, "Auto", tau, &auto));
                jsonl.push('\n');
            }
            sample(id, mode, "auto", &auto);
            push_cell(&auto, &mut row);
            record_counts.push(auto.records);
            assert!(
                auto.blocks <= m1.blocks.min(tqf.blocks),
                "auto planner read {} blocks on {id} {tau}, best fixed engine {}",
                auto.blocks,
                m1.blocks.min(tqf.blocks)
            );
            csv.row(vec![
                id.to_string(),
                mode.to_string(),
                "Auto".into(),
                tau.start.to_string(),
                tau.end.to_string(),
                auto.join_wall.as_secs_f64().to_string(),
                auto.ghfk_wall.as_secs_f64().to_string(),
                auto.ghfk_calls.to_string(),
                auto.blocks.to_string(),
                auto.txs_decoded.to_string(),
                format!("{:.3}", auto.sim_secs),
                auto.records.to_string(),
            ]);

            for (u_paper, ledger) in &m2_ledgers {
                let u = ctx.scale_time(id, *u_paper);
                let (m2, snap) = run_engine(ctx, &M2Engine { u }, ledger, tau)?;
                if let Some(snap) = snap {
                    jsonl.push_str(&telemetry_line(
                        snap,
                        id,
                        mode,
                        &format!("M2(u={u_paper})"),
                        tau,
                        &m2,
                    ));
                    jsonl.push('\n');
                }
                sample(id, mode, &format!("m2-u{u_paper}"), &m2);
                push_cell(&m2, &mut row);
                record_counts.push(m2.records);
                csv.row(vec![
                    id.to_string(),
                    mode.to_string(),
                    format!("M2(u={u_paper})"),
                    tau.start.to_string(),
                    tau.end.to_string(),
                    m2.join_wall.as_secs_f64().to_string(),
                    m2.ghfk_wall.as_secs_f64().to_string(),
                    m2.ghfk_calls.to_string(),
                    m2.blocks.to_string(),
                    m2.txs_decoded.to_string(),
                    format!("{:.3}", m2.sim_secs),
                    m2.records.to_string(),
                ]);
            }
            // Cross-engine agreement check: all engines must compute the
            // same join.
            assert!(
                record_counts.windows(2).all(|w| w[0] == w[1]),
                "engines disagree on {id} {tau}: {record_counts:?}"
            );
            table.row(row);
        }
        report.push_str(&format!("## Dataset {id}, ingestion with {mode}\n\n"));
        report.push_str(&table.to_markdown());
        report.push('\n');

        // Parallel-streaming ablation over the whole timeline: the bounded
        // cursor fan-out must agree with the serial join and keep its
        // in-flight buffering within the per-slot channel bound.
        let full = temporal_core::Interval::new(0, ctx.t_max(id));
        let key_count = ctx.workload(id).keys().len();
        let serial = ferry_query(&M1Engine::default(), &m1_ledger, full)?;
        let m1_dir = m1_ledger.dir().to_path_buf();
        drop(m1_ledger);
        let m1_handle = ShardedLedger::open(m1_dir, LedgerConfig::default())?;
        let par = ferry_query_parallel(&M1Engine::default(), &m1_handle, full, PARALLEL_WORKERS)?;
        assert_eq!(
            serial.records, par.records,
            "parallel join diverged from serial on {id}"
        );
        assert!(
            par.peak_buffered_events <= SLOT_CAPACITY * key_count,
            "peak buffered events {} exceed bound {} on {id}",
            par.peak_buffered_events,
            SLOT_CAPACITY * key_count
        );
        let prefix = format!("{id}/{mode}/parallel-m1").to_lowercase();
        parallel_samples.push((
            format!("{prefix}/join_s"),
            MetricKind::Time,
            par.stats.wall.as_secs_f64(),
        ));
        parallel_samples.push((
            format!("{prefix}/records"),
            MetricKind::Counter,
            par.records.len() as f64,
        ));
        parallel_samples.push((
            format!("{prefix}/peak_buffered_events"),
            MetricKind::Counter,
            par.peak_buffered_events as f64,
        ));
        report.push_str(&format!(
            "Parallel streaming ({PARALLEL_WORKERS} workers, full window): \
             {} record(s) in {}, peak {} buffered event(s) (bound {})\n\n",
            par.records.len(),
            fmt_secs(par.stats.wall),
            par.peak_buffered_events,
            SLOT_CAPACITY * key_count
        ));
    }
    // Observability-overhead ablation (DS3, full window, TQF): the same
    // join with instrumentation off, with span recording on (plus
    // allocation accounting when the binary installs the counting
    // allocator), and with the 99Hz sampling profiler on top of that.
    // Three runs per cell reduce to medians in the bench file; the
    // headline ratios print so a profiler-cost regression is visible in
    // the report itself.
    {
        let id = DatasetId::Ds3;
        let ledger = ctx.m1_ledger(id, IngestMode::SingleEvent, ctx.scale_time(id, 2000))?;
        let full = temporal_core::Interval::new(0, ctx.t_max(id));
        let cell = |label: &str,
                    samples: &mut Vec<(String, MetricKind, f64)>,
                    run: &mut dyn FnMut() -> Result<f64>|
         -> Result<f64> {
            let mut secs = Vec::new();
            for _ in 0..3 {
                let s = run()?;
                samples.push((
                    format!("ablation/observability/{label}/join_s"),
                    MetricKind::Time,
                    s,
                ));
                secs.push(s);
            }
            secs.sort_by(f64::total_cmp);
            Ok(secs[1])
        };
        let base = cell("base", &mut samples, &mut || {
            Ok(ferry_query(&TqfEngine, &ledger, full)?
                .stats
                .wall
                .as_secs_f64())
        })?;
        let spans = cell("spans", &mut samples, &mut || {
            let (out, _) = with_telemetry(&ledger, || ferry_query(&TqfEngine, &ledger, full));
            Ok(out?.stats.wall.as_secs_f64())
        })?;
        let profiled = cell("profile99", &mut samples, &mut || {
            let profiler = fabric_telemetry::Profiler::start(ledger.telemetry(), 99);
            let (out, _) = with_telemetry(&ledger, || ferry_query(&TqfEngine, &ledger, full));
            profiler.stop();
            Ok(out?.stats.wall.as_secs_f64())
        })?;
        // Sampling-rate sanity over a fixed 150ms span (the CI-scale join
        // itself is too short to guarantee a tick): 99Hz must land ~15
        // samples, never zero — a zero here means the sampler thread died.
        let profiler_samples = {
            let profiler = fabric_telemetry::Profiler::start(ledger.telemetry(), 99);
            {
                let tel = ledger.telemetry();
                let was_enabled = tel.is_enabled();
                tel.enable();
                {
                    let _s = tel.span("bench.profiler.probe");
                    std::thread::sleep(std::time::Duration::from_millis(150));
                }
                if !was_enabled {
                    tel.disable();
                }
            }
            profiler.stop().samples()
        };
        samples.push((
            "ablation/observability/profile99/samples".to_string(),
            MetricKind::Counter,
            profiler_samples as f64,
        ));
        report.push_str(&format!(
            "Observability overhead (DS3 full window, TQF, median of 3): \
             base {base:.4}s, spans {spans:.4}s ({:+.1}%), \
             spans+profiler@99Hz {profiled:.4}s ({:+.1}%), \
             {profiler_samples} profiler sample(s)\n\n",
            (spans / base - 1.0) * 100.0,
            (profiled / base - 1.0) * 100.0,
        ));
    }
    ctx.save_result("table1.csv", &csv.to_csv());
    samples.extend(parallel_samples);
    if ctx.json_out.is_some() {
        ctx.save_bench_file(&bench_file_from_samples("table1", ctx.machine(), &samples));
    }
    if ctx.telemetry {
        ctx.save_result("BENCH_table1.jsonl", &jsonl);
        report.push_str(&format!(
            "Telemetry: {} JSON-lines record(s) written to {}\n",
            jsonl.lines().count(),
            ctx.results_dir().join("BENCH_table1.jsonl").display()
        ));
    }
    Ok(report)
}
