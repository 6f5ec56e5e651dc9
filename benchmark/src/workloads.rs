//! The four workloads: what each sets up, what it times, what it checks and
//! where every metric comes from. Nothing here names a type of the
//! repository; that is `sut.rs`.

use std::collections::BTreeMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::loadgen::{due_times, run_open_loop, Clock, WallClock};
use crate::spec::Workload;
use crate::stats::{
    highest_supported_percentile, median, percentile, percentile_by_time, percentile_supported,
    sorted,
};
use crate::sut::{
    me_batches, CommitReplay, Counts, DaemonStats, Dataset, EngineKind, Event, KvProbe, Oracle,
    QueryTrace, Records, Result, Shape, StoreCounts, Sut, Window,
};
use crate::trace::{Agg, Tracer};

/// Open-loop write rate of `live-mixed`, events per second. Frozen, never
/// derived at run time. It is 1.3% of what `ingest-durable` sustains at the
/// seed commit: what bounds it is not the commit path but the reader, whose
/// queries slow down as the index store's memtable fills, and 15 s at this
/// rate fills about three quarters of one (README.md has the arithmetic).
const LIVE_RATE_EVENTS_PER_S: f64 = 2000.0;
/// Share of the `live-mixed` data ingested in set-up, before the stream starts.
const LIVE_SETUP_SHARE: f64 = 0.25;
/// The daemon cuts an epoch once this many data blocks wait to be indexed.
const LIVE_LAG_BLOCKS: u64 = 16;
/// Both `live-mixed` threads run for this long before the stream starts and
/// anything is timed: the reader queries, the writer spins. The reader's
/// first seconds hold most of its queries (they are the cheap ones), and a
/// second CPU that has been idle is slow to come up to speed on this virtual
/// machine; without the warm-up `q_per_s` depended on what ran before.
const LIVE_WARMUP_S: f64 = 1.0;
/// Smoke data is a few dozen blocks in all: a slower stream and a shorter
/// lag keep the same phases (epochs cut in set-up, epochs cut mid-stream).
const SMOKE_RATE_EVENTS_PER_S: f64 = 1500.0;
const SMOKE_LAG_BLOCKS: u64 = 2;
/// Fewest times set-up runs; `setup_s` is the median, and the commits of all
/// of them are the commit-latency sample on the query workloads.
const SETUP_REPS: usize = 7;
/// On the query workloads set-up repeats between queries for this share of
/// the time spent querying.
const SETUP_SHARE: f64 = 0.08;
/// Starts of the paper's nine Table-I windows, in fifteenths of `t_max`.
const TABLE1_STARTS: [u64; 9] = [0, 1, 2, 6, 7, 8, 12, 13, 14];
/// Spans kept in a span file; the rest are counted, not written.
const SPAN_FILE_CAP: usize = 100_000;

pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Scratch space for ledgers; removed when the run ends.
    pub work_dir: PathBuf,
    /// Where span files go.
    pub out_dir: PathBuf,
}

impl RunCfg {
    fn setup_reps(&self) -> usize {
        if self.smoke {
            2
        } else {
            SETUP_REPS
        }
    }

    fn live_rate(&self) -> f64 {
        if self.smoke {
            SMOKE_RATE_EVENTS_PER_S
        } else {
            LIVE_RATE_EVENTS_PER_S
        }
    }

    fn live_warmup_ns(&self) -> u64 {
        let s = if self.smoke { 0.1 } else { LIVE_WARMUP_S };
        (s * 1e9) as u64
    }

    fn live_lag_blocks(&self) -> u64 {
        if self.smoke {
            SMOKE_LAG_BLOCKS
        } else {
            LIVE_LAG_BLOCKS
        }
    }
}

/// What one run reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layer: BTreeMap<&'static str, f64>,
    /// Context printed before the result: sample counts, sizes, warnings.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Count one operation or check; a failure is described in the notes.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                self.notes.push(format!("FAILED: {}", what()));
            }
        }
    }

    fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Report a latency sample as its median and one higher percentile.
    fn latency(&mut self, p50: &'static str, tail: (&'static str, f64), ns: &[u64], how: Sample) {
        let lat = sorted(ns.iter().map(|&n| ms(n)).collect());
        let pick = match how {
            Sample::Ramp => percentile_by_time,
            Sample::Cycles | Sample::Steady => percentile,
        };
        self.e2e.insert(p50, pick(&lat, 0.50));
        self.e2e.insert(tail.0, pick(&lat, tail.1));
        if how == Sample::Steady && !percentile_supported(lat.len(), tail.1) {
            self.note(format!(
                "warn: {} rests on {} samples, fewer than ten beyond it",
                tail.0,
                lat.len()
            ));
        }
    }
}

/// What kind of latency sample a phase produced, which decides how its
/// percentiles are taken.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Sample {
    /// Free-running operations on a system in a steady state: percentiles by
    /// count, a tail only with ten samples beyond it.
    Steady,
    /// Whole cycles over the same few windows: a percentile by count picks
    /// out the cost of the dearer windows, not a tail.
    Cycles,
    /// A closed loop on a system that slows down through the run, as the
    /// `live-mixed` reader's does while the stream fills the index store's
    /// memtable (latency climbs from 10 to 340 ms). By count, half the
    /// queries fall in the first two seconds and the median describes those;
    /// weighted by the time each query took, the percentiles describe what a
    /// query meets at a random moment of the run, and sit where neighbouring
    /// samples differ by 2% and not by 20%.
    Ramp,
}

pub fn run(workload: Workload, cfg: &RunCfg) -> Result<Outcome> {
    let mut out = match workload {
        Workload::QTqf => run_query(workload, EngineKind::Tqf, cfg)?,
        Workload::QM1 => run_query(workload, EngineKind::Auto, cfg)?,
        Workload::IngestDurable => run_ingest(workload, cfg)?,
        Workload::LiveMixed => run_live(workload, cfg)?,
    };
    out.e2e.insert("peak_rss_mb", peak_rss_mb());
    Ok(out)
}

// ---------------------------------------------------------------- helpers

fn windows_of(t_max: u64, len: u64) -> Vec<Window> {
    TABLE1_STARTS
        .iter()
        .map(|k| Window {
            start: k * len,
            end: ((k + 1) * len).min(t_max),
        })
        .collect()
}

/// The paper's nine Table-I windows: a fifteenth of the time range each.
fn table1_windows(t_max: u64) -> Vec<Window> {
    windows_of(t_max, (t_max / 15).max(1))
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Seeded fractions in `[0, 1)` for the reader's window ends: the
/// golden-ratio sequence from a start the seed picks. Every run of
/// consecutive terms covers the range evenly, so two seeds ask for much the
/// same mix of early and late windows, which independent draws would not.
struct WindowEnds(u64);

impl WindowEnds {
    fn new(seed: u64) -> Self {
        WindowEnds(seed.wrapping_mul(0xBF58_476D_1CE4_E5B9))
    }

    /// The next fraction, scaled to `0..below`.
    fn next_below(&mut self, below: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        ((u128::from(self.0) * u128::from(below)) >> 64) as u64
    }
}

/// Run `build` in a fresh directory `reps` times, tearing the previous
/// result down before each; returns the wall time of each and the last one.
fn repeat_setup<T>(
    cfg: &RunCfg,
    reps: usize,
    mut build: impl FnMut(&Path) -> Result<T>,
    mut teardown: impl FnMut(T) -> Result<()>,
) -> Result<(Vec<f64>, T, PathBuf)> {
    let mut times = Vec::with_capacity(reps);
    let mut last: Option<(T, PathBuf)> = None;
    for rep in 0..reps {
        if let Some((built, dir)) = last.take() {
            teardown(built)?;
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = cfg.work_dir.join(format!("setup-{rep}"));
        let t = Instant::now();
        let built = build(&dir)?;
        times.push(t.elapsed().as_secs_f64());
        last = Some((built, dir));
    }
    let (built, dir) = last.expect("at least one set-up");
    Ok((times, built, dir))
}

struct IngestRun {
    events: u64,
    wall_s: f64,
}

/// Closed-loop ME ingest with one client: build a transaction, submit it,
/// wait for the acknowledgement, repeat; then cut and drain. Times the
/// `submit` calls that cut a block.
fn ingest_closed(
    sut: &Sut,
    events: &[Event],
    batches: &[Range<usize>],
    commit_ns: &mut Vec<u64>,
    out: &mut Outcome,
) -> Result<IngestRun> {
    let start = Instant::now();
    let mut n_events = 0u64;
    for r in batches {
        let tx = sut.build_tx(&events[r.clone()])?;
        let t = Instant::now();
        let res = sut.submit(tx);
        let took = t.elapsed().as_nanos() as u64;
        if let Ok(true) = res {
            commit_ns.push(took);
        }
        out.check(res.is_ok(), || {
            format!("submit: {}", res.as_ref().unwrap_err())
        });
        n_events += r.len() as u64;
    }
    sut.finish_ingest()?;
    Ok(IngestRun {
        events: n_events,
        wall_s: start.elapsed().as_secs_f64(),
    })
}

/// One closed-loop query phase.
struct QPhase {
    lat_ns: Vec<u64>,
    wall_s: f64,
    cycles: u64,
    /// Counter diffs over the first cycle; every later cycle must match.
    cycle: Counts,
    total: Counts,
}

impl QPhase {
    fn queries(&self) -> u64 {
        self.lat_ns.len() as u64
    }

    /// Add the cycles of a later phase over the same windows.
    fn absorb(&mut self, later: QPhase) {
        self.lat_ns.extend(later.lat_ns);
        self.wall_s += later.wall_s;
        self.cycles += later.cycles;
        self.total = self.total.plus(&later.total);
    }
}

/// Cycle through `windows` in order, one client, next query after the
/// previous answer, until `seconds` have passed; whole cycles only, so counts
/// per query are over the same windows every time. Answers are checked
/// against `expected`. `pause` runs after each query with the seconds spent
/// in queries so far; what it does counts towards `seconds` and not towards
/// the phase's `wall_s`, which is the time the client spent waiting for
/// answers.
#[allow(clippy::too_many_arguments)]
fn query_cycles(
    sut: &Sut,
    kind: EngineKind,
    windows: &[Window],
    expected: &[Records],
    seconds: f64,
    out: &mut Outcome,
    pause: &mut dyn FnMut(f64, &mut Outcome) -> Result<()>,
) -> Result<QPhase> {
    let mut lat_ns = Vec::new();
    let mut cycle = Counts::default();
    let mut cycles = 0u64;
    let mut wall_ns = 0u64;
    let begin = sut.counts();
    let start = Instant::now();
    loop {
        let c0 = sut.counts();
        for (w, want) in windows.iter().zip(expected) {
            let t = Instant::now();
            let got = sut.query(kind, *w)?;
            let took = t.elapsed().as_nanos() as u64;
            lat_ns.push(took);
            wall_ns += took;
            out.check(got == *want, || {
                format!(
                    "Q over ({}, {}]: {} records, oracle has {}",
                    w.start,
                    w.end,
                    got.len(),
                    want.len()
                )
            });
            pause(wall_ns as f64 / 1e9, out)?;
        }
        // The pauses work on other ledgers, so this one's counters see only
        // the queries.
        let used = sut.counts().since(&c0);
        if cycles == 0 {
            cycle = used;
        } else {
            out.check(used == cycle, || {
                format!("cycle {cycles} counted {used:?}, the first {cycle:?}")
            });
        }
        cycles += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    Ok(QPhase {
        lat_ns,
        wall_s: wall_ns as f64 / 1e9,
        cycles,
        cycle,
        total: sut.counts().since(&begin),
    })
}

/// For phases with nothing to do between queries.
fn no_pause(_: f64, _: &mut Outcome) -> Result<()> {
    Ok(())
}

/// Query metrics from the latencies of `lat_ns.len()` queries that took
/// `wall_s` together; `cycles` when they were whole cycles over fixed windows.
fn report_queries(
    out: &mut Outcome,
    lat_ns: &[u64],
    wall_s: f64,
    cycles: Option<u64>,
    blocks_per_q: f64,
) {
    out.e2e.insert("q_per_s", lat_ns.len() as f64 / wall_s);
    let how = if cycles.is_some() {
        Sample::Cycles
    } else {
        Sample::Ramp
    };
    out.latency("q_p50_ms", ("q_p90_ms", 0.90), lat_ns, how);
    out.e2e.insert("blocks_per_q", blocks_per_q);
    out.layer.insert("q.samples", lat_ns.len() as f64);
    // The highest of p99, p95 and p90 with ten samples beyond it.
    let lat = sorted(lat_ns.iter().map(|&n| ms(n)).collect());
    let p = highest_supported_percentile(lat.len()).unwrap_or(0.5);
    out.layer.insert("q.tail_ms", percentile(&lat, p));
    out.layer.insert("q.tail_percentile", p * 100.0);
    out.note(format!(
        "queries: {} in {wall_s:.2} s{}",
        lat_ns.len(),
        cycles.map_or(String::new(), |c| format!(", {c} whole cycles"))
    ));
}

fn report_cycles(out: &mut Outcome, phase: &QPhase) {
    report_queries(
        out,
        &phase.lat_ns,
        phase.wall_s,
        Some(phase.cycles),
        per(phase.total.blocks_deserialized, phase.queries()),
    );
}

fn report_commits(out: &mut Outcome, rates: &[f64], commit_ns: &[u64], disk_bytes_per_event: f64) {
    out.e2e.insert("ingest_events_per_s", median(rates));
    out.latency(
        "commit_p50_ms",
        ("commit_p90_ms", 0.90),
        commit_ns,
        Sample::Steady,
    );
    out.e2e.insert("disk_bytes_per_event", disk_bytes_per_event);
    out.layer.insert("commit.samples", commit_ns.len() as f64);
}

fn per(total: u64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total as f64 / n as f64
    }
}

fn agg(by: &BTreeMap<&'static str, Agg>, name: &str) -> Agg {
    by.get(name).copied().unwrap_or_default()
}

fn report_kv_probe(out: &mut Outcome, probe: &KvProbe) {
    out.layer.insert("kvstore.get_ns", probe.get_ns);
    out.layer.insert("kvstore.seek_ns", probe.seek_ns);
    out.layer
        .insert("kvstore.sst_reads_per_get", probe.sst_reads_per_get);
    out.layer
        .insert("kvstore.scan_ns_per_entry", probe.scan_ns_per_entry);
    out.layer
        .insert("index.block_location_ns_per_block", probe.block_location_ns);
}

// ------------------------------------------------------- q-tqf and q-m1

struct QuerySetup {
    ds: Dataset,
    sut: Sut,
    m1: Option<DaemonStats>,
    data_blocks: u64,
}

/// What the set-ups of a query run measured, one entry per set-up.
#[derive(Default)]
struct SetupSamples {
    wall_s: Vec<f64>,
    ingest_rates: Vec<f64>,
    commit_ns: Vec<u64>,
    m1_build_s: Vec<f64>,
}

/// One set-up of a query workload: generate the data, ingest it into a new
/// ledger in `dir` and, for `Auto`, build the M1 index over it.
fn build_query_ledger(
    kind: EngineKind,
    cfg: &RunCfg,
    dir: &Path,
    samples: &mut SetupSamples,
    out: &mut Outcome,
) -> Result<QuerySetup> {
    let t = Instant::now();
    let ds = Dataset::generate(Shape::Query, cfg.smoke, cfg.seed);
    let batches = me_batches(&ds.events);
    let sut = Sut::open(dir)?;
    let run = ingest_closed(&sut, &ds.events, &batches, &mut samples.commit_ns, out)?;
    samples.ingest_rates.push(run.events as f64 / run.wall_s);
    let data_blocks = sut.counts().blocks_committed;
    let m1 = match kind {
        EngineKind::Tqf => None,
        EngineKind::Auto => {
            let t = Instant::now();
            let stats = sut.build_m1_index(ds.u())?;
            samples.m1_build_s.push(t.elapsed().as_secs_f64());
            Some(stats)
        }
    };
    samples.wall_s.push(t.elapsed().as_secs_f64());
    Ok(QuerySetup {
        ds,
        sut,
        m1,
        data_blocks,
    })
}

fn run_query(workload: Workload, kind: EngineKind, cfg: &RunCfg) -> Result<Outcome> {
    let mut out = Outcome::default();
    let mut samples = SetupSamples::default();
    let dir = cfg.work_dir.join("ledger");
    let QuerySetup {
        ds,
        sut,
        m1,
        data_blocks,
    } = build_query_ledger(kind, cfg, &dir, &mut samples, &mut out)?;
    let n_events = ds.events.len() as u64;
    out.check(sut.counts().events_committed >= n_events, || {
        "set-up committed fewer events than it sent".to_string()
    });
    let disk_bytes_per_event = per(dir_bytes(&dir), n_events);
    out.note(format!(
        "data: {} events, {} keys, t_max {}, {} data blocks of {} on the chain",
        n_events,
        ds.keys,
        ds.t_max,
        data_blocks,
        sut.counts().blocks_committed
    ));

    let windows = table1_windows(ds.t_max);
    let oracle = Oracle::new(&ds.events);
    let expected: Vec<Records> = windows.iter().map(|w| oracle.answer(*w)).collect();
    // One untimed cycle: the OS cache holds the block files afterwards, and
    // on q-m1 so does the planner's occupancy-probe cache.
    query_cycles(
        &sut,
        kind,
        &windows,
        &expected,
        0.0,
        &mut out,
        &mut no_pause,
    )?;
    // The set-up is short, and a short measurement taken once lands wherever
    // the machine's speed happens to be at that moment. So it is repeated in
    // scratch directories between queries, across the whole run, and
    // each set-up metric is the median of those repeats.
    let mut scratch = 0;
    let mut set_up_again = |samples: &mut SetupSamples, out: &mut Outcome| -> Result<()> {
        let dir = cfg.work_dir.join(format!("setup-{scratch}"));
        scratch += 1;
        drop(build_query_ledger(kind, cfg, &dir, samples, out)?);
        let _ = std::fs::remove_dir_all(dir);
        Ok(())
    };
    let budget = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let phase = query_cycles(
        &sut,
        kind,
        &windows,
        &expected,
        budget,
        &mut out,
        &mut |query_s, out| {
            while samples.wall_s.iter().sum::<f64>() < SETUP_SHARE * query_s {
                set_up_again(&mut samples, out)?;
            }
            Ok(())
        },
    )?;
    while samples.wall_s.len() < cfg.setup_reps() {
        set_up_again(&mut samples, &mut out)?;
    }
    out.e2e.insert("setup_s", median(&samples.wall_s));
    report_commits(
        &mut out,
        &samples.ingest_rates,
        &samples.commit_ns,
        disk_bytes_per_event,
    );
    out.note(format!("set-ups: {}", samples.wall_s.len()));
    report_cycles(&mut out, &phase);

    if let Some(stats) = m1 {
        out.check(stats.late_events == 0, || {
            format!("{} late events", stats.late_events)
        });
        out.layer
            .insert("m1.index_build_s", median(&samples.m1_build_s));
        out.layer.insert("daemon.epochs", stats.epochs as f64);
        out.layer
            .insert("daemon.index_pairs", stats.index_pairs as f64);
        let all = sut.counts().blocks_committed;
        out.layer
            .insert("daemon.index_block_share", per(all - data_blocks, all));
    }
    if cfg.trace {
        trace_queries(
            workload, kind, cfg, sut, &windows, &expected, &phase, &mut out,
        )?;
    }
    Ok(out)
}

/// The traced half of a query run: every query again step by step under
/// spans, then the index store alone.
#[allow(clippy::too_many_arguments)]
fn trace_queries(
    workload: Workload,
    kind: EngineKind,
    cfg: &RunCfg,
    sut: Sut,
    windows: &[Window],
    expected: &[Records],
    untraced: &QPhase,
    out: &mut Outcome,
) -> Result<()> {
    let mut qt = sut.query_trace()?;
    let start = Instant::now();
    let mut cycles = 0u64;
    loop {
        for (w, want) in windows.iter().zip(expected) {
            let got = sut.traced_query(kind, *w, &mut qt)?;
            out.check(got == *want, || {
                format!(
                    "traced Q over ({}, {}] differs from the oracle",
                    w.start, w.end
                )
            });
        }
        cycles += 1;
        if start.elapsed().as_secs_f64() >= cfg.seconds / 2.0 {
            break;
        }
    }
    let traced_wall_ns = start.elapsed().as_nanos() as f64;

    // The parts are parts of that whole: the traced queries must ask the
    // ledger for exactly what the untraced ones did, cycle for cycle.
    let want = untraced.cycle;
    let got = qt.tally.live;
    out.check(
        got.ghfk_calls == want.ghfk_calls * cycles
            && got.block_accesses() == want.block_accesses() * cycles
            && got.txs_decoded == want.txs_decoded * cycles,
        || {
            format!(
                "traced cycles counted {got:?} over {cycles} cycles, an untraced cycle {want:?}"
            )
        },
    );

    let probe = sut.probe_index_store(&qt.blocks_touched())?;
    let QueryTrace { tracer, tally, .. } = qt;
    report_kv_probe(out, &probe);

    let by = tracer.by_name();
    let n_q = tally.queries;
    let live_wall_ns = agg(&by, "q.ferry_query").total_ns as f64;
    let untraced_ns_per_q = untraced.wall_s * 1e9 / untraced.queries() as f64;
    // Each block read also looks its location up in the index store, inside
    // the ledger; priced with the probe's measurement of the same lookups.
    let lookups_ns = tally.shadow_blocks as f64 * probe.block_location_ns;
    let cursor_self = (agg(&by, "cursor.open").self_ns + agg(&by, "cursor.drain").self_ns) as f64;
    let layers: [(&'static str, f64); 8] = [
        (
            "q_share.statedb",
            agg(&by, "statedb.list_keys").self_ns as f64,
        ),
        (
            "q_share.index",
            agg(&by, "index.history_scan").self_ns as f64 + lookups_ns.min(cursor_self),
        ),
        (
            "q_share.blockfile",
            agg(&by, "blockfile.read_block_txs").self_ns as f64,
        ),
        ("q_share.block", agg(&by, "block.decode_txs").self_ns as f64),
        ("q_share.evset", agg(&by, "evset.decode").self_ns as f64),
        ("q_share.planner", agg(&by, "planner.choose").self_ns as f64),
        ("q_share.cursor", (cursor_self - lookups_ns).max(0.0)),
        (
            "q_share.join",
            (agg(&by, "join.build_stays").self_ns + agg(&by, "join.temporal_join").self_ns) as f64,
        ),
    ];
    let attributed: f64 = layers.iter().map(|(_, ns)| ns).sum();
    for (name, ns) in layers {
        out.layer.insert(name, ns / live_wall_ns);
    }
    out.layer.insert(
        "trace.unattributed_frac",
        1.0 - attributed / n_q as f64 / untraced_ns_per_q,
    );
    out.layer.insert(
        "trace.overhead_frac",
        traced_wall_ns / n_q as f64 / untraced_ns_per_q - 1.0,
    );
    out.layer
        .insert("trace.count_mismatches", tally.count_mismatches as f64);

    out.layer.insert(
        "statedb.range_ns_per_q",
        per(agg(&by, "statedb.list_keys").total_ns, n_q),
    );
    out.layer.insert(
        "index.history_scan_ns_per_key",
        per(agg(&by, "index.history_scan").total_ns, tally.keys),
    );
    out.layer
        .insert("index.entries_per_q", per(tally.index_entries, n_q));
    out.layer.insert(
        "blockfile.read_ns_per_block",
        per(
            agg(&by, "blockfile.read_block_txs").self_ns,
            tally.shadow_blocks,
        ),
    );
    out.layer
        .insert("blockfile.bytes_read_per_q", per(got.block_bytes_read, n_q));
    out.layer.insert(
        "block.decode_ns_per_tx",
        per(agg(&by, "block.decode_txs").total_ns, tally.shadow_txs),
    );
    out.layer
        .insert("block.txs_decoded_per_q", per(got.txs_decoded, n_q));
    out.layer
        .insert("cache.hit_ratio", per(got.cache_hits, got.block_accesses()));
    out.layer
        .insert("ledger.ghfk_calls_per_q", per(got.ghfk_calls, n_q));
    out.layer.insert(
        "evset.decode_ns_per_event",
        per(agg(&by, "evset.decode").total_ns, tally.evset_events),
    );
    out.layer.insert(
        "planner.choose_ns_per_key",
        per(agg(&by, "planner.choose").total_ns, tally.keys),
    );
    out.layer
        .insert("planner.m1_pick_frac", per(tally.m1_picks, tally.keys));
    out.layer.insert(
        "join.stays_ns_per_event",
        per(agg(&by, "join.build_stays").total_ns, tally.events),
    );
    out.layer.insert(
        "join.join_ns_per_q",
        per(agg(&by, "join.temporal_join").total_ns, n_q),
    );
    out.layer.insert(
        "cursor.self_ns_per_event",
        (cursor_self - lookups_ns).max(0.0) / tally.events.max(1) as f64,
    );
    out.note(format!(
        "traced: {n_q} queries, {} spans; counts per cycle {want:?}",
        tracer.spans().len()
    ));
    write_spans(cfg, workload, &tracer, out);
    Ok(())
}

fn write_spans(cfg: &RunCfg, workload: Workload, tracer: &Tracer, out: &mut Outcome) {
    let path = cfg.out_dir.join(format!("trace-{}.json", workload.name()));
    match tracer.write_json(&path, workload.name(), SPAN_FILE_CAP) {
        Ok(()) => out.note(format!("spans: {}", path.display())),
        Err(e) => out.note(format!("warn: could not write {}: {e}", path.display())),
    }
}

// ------------------------------------------------------- ingest-durable

fn run_ingest(workload: Workload, cfg: &RunCfg) -> Result<Outcome> {
    let mut out = Outcome::default();
    let (setup_s, (ds, batches), _) = repeat_setup(
        cfg,
        cfg.setup_reps(),
        |dir| {
            let ds = Dataset::generate(Shape::Ingest, cfg.smoke, cfg.seed);
            let batches = me_batches(&ds.events);
            // An empty durable ledger, opened and closed: what a round starts from.
            drop(Sut::open(dir)?);
            Ok((ds, batches))
        },
        |_| Ok(()),
    )?;
    out.e2e.insert("setup_s", median(&setup_s));
    let n_events = ds.events.len() as u64;

    // The nine windows at a hundredth of their length and offset, so the
    // latest ends 1% of the way in: TQF cost follows the window's end, and
    // the full windows on 500K events would take minutes.
    let windows = windows_of(ds.t_max, (ds.t_max / 1500).max(1));
    let oracle = Oracle::new(&ds.events);
    let expected: Vec<Records> = windows.iter().map(|w| oracle.answer(*w)).collect();

    // A round ingests the whole dataset into a fresh ledger: fixed work, so
    // its counts are exact. Every acknowledged write must then be there
    // after a restart, and queryable: the round flushes, reopens the ledger
    // and reads the start of history back with one cycle of Q. Rounds repeat
    // until the time is up, so both halves are sampled across the whole run.
    let mut commit_ns = Vec::new();
    let mut rates = Vec::new();
    let mut disk = Vec::new();
    let mut reads: Option<QPhase> = None;
    let start = Instant::now();
    let (sut, counts, fsyncs) = loop {
        let dir = cfg.work_dir.join(format!("round-{}", rates.len()));
        let sut = Sut::open(&dir)?;
        let run = ingest_closed(&sut, &ds.events, &batches, &mut commit_ns, &mut out)?;
        rates.push(run.events as f64 / run.wall_s);
        let counts = sut.counts();
        let fsyncs = sut.wal_fsyncs();
        out.check(counts.events_committed == n_events, || {
            format!(
                "{} events committed, {} sent",
                counts.events_committed, n_events
            )
        });
        sut.flush_stores()?;
        disk.push(dir_bytes(&dir));
        let sut = sut.reopen()?;
        // One untimed query touches every key's history once, as a reopened
        // ledger's first query would.
        query_cycles(
            &sut,
            EngineKind::Tqf,
            &windows[..1],
            &expected[..1],
            0.0,
            &mut out,
            &mut no_pause,
        )?;
        let cycle = query_cycles(
            &sut,
            EngineKind::Tqf,
            &windows,
            &expected,
            0.0,
            &mut out,
            &mut no_pause,
        )?;
        match &mut reads {
            None => reads = Some(cycle),
            Some(all) => {
                out.check(cycle.cycle == all.cycle, || {
                    format!(
                        "round {} read back {:?}, the first {:?}",
                        rates.len(),
                        cycle.cycle,
                        all.cycle
                    )
                });
                all.absorb(cycle);
            }
        }
        // A traced run spends its time on the two replays instead.
        if cfg.trace || start.elapsed().as_secs_f64() >= cfg.seconds {
            break (sut, counts, fsyncs);
        }
        drop(sut);
        let _ = std::fs::remove_dir_all(dir);
    };
    out.check(disk.iter().all(|&b| b == disk[0]), || {
        format!("disk bytes differ between rounds: {disk:?}")
    });
    report_commits(&mut out, &rates, &commit_ns, per(disk[0], n_events));
    out.note(format!(
        "rounds: {} of {n_events} events, {} txs, {} blocks each",
        rates.len(),
        batches.len(),
        counts.blocks_committed
    ));
    report_cycles(&mut out, &reads.expect("at least one round"));
    let verified = sut.verify_chain();
    out.check(verified.is_ok(), || {
        format!("verify_chain: {}", verified.unwrap_err())
    });

    if cfg.trace {
        let blocks: Vec<u64> = (0..counts.blocks_committed).collect();
        let probe = sut.probe_index_store(&blocks)?;
        report_kv_probe(&mut out, &probe);
        let untraced_ns = n_events as f64 / rates[0] * 1e9;
        trace_commits(
            workload,
            cfg,
            &ds,
            &batches,
            untraced_ns,
            counts,
            fsyncs,
            &mut out,
        )?;
    }
    Ok(out)
}

struct ReplayRun {
    by: BTreeMap<&'static str, Agg>,
    wall_ns: f64,
    blocks: u64,
    txs: u64,
    stores: StoreCounts,
    tracer: Tracer,
}

fn replay_commits(
    dir: &Path,
    durable: bool,
    ds: &Dataset,
    batches: &[Range<usize>],
) -> Result<ReplayRun> {
    let mut tracer = Tracer::default();
    let mut replay = CommitReplay::open(dir, durable)?;
    let start = Instant::now();
    for r in batches {
        replay.submit(&ds.events[r.clone()], &mut tracer)?;
    }
    replay.finish(&mut tracer)?;
    Ok(ReplayRun {
        wall_ns: start.elapsed().as_nanos() as f64,
        by: tracer.by_name(),
        blocks: replay.blocks,
        txs: replay.txs,
        stores: replay.store_counts(),
        tracer,
    })
}

/// The traced half of an ingest run: the same transactions through the
/// commit path's parts, once buffered and once durable.
#[allow(clippy::too_many_arguments)]
fn trace_commits(
    workload: Workload,
    cfg: &RunCfg,
    ds: &Dataset,
    batches: &[Range<usize>],
    untraced_ns: f64,
    untraced: Counts,
    untraced_fsyncs: Option<u64>,
    out: &mut Outcome,
) -> Result<()> {
    let buffered = replay_commits(&cfg.work_dir.join("replay-buffered"), false, ds, batches)?;
    let durable = replay_commits(&cfg.work_dir.join("replay-durable"), true, ds, batches)?;
    out.check(
        durable.blocks == untraced.blocks_committed && buffered.blocks == untraced.blocks_committed,
        || {
            format!(
                "replays cut {} and {} blocks, the ledger {}",
                buffered.blocks, durable.blocks, untraced.blocks_committed
            )
        },
    );
    match untraced_fsyncs {
        Some(n) => out.check(durable.stores.wal_fsyncs == n, || {
            format!(
                "durable replay made {} WAL fsyncs, the ledger {n}",
                durable.stores.wal_fsyncs
            )
        }),
        None => out.note(
            "warn: the ledger's WAL fsync gauges are gone; fsync counts not compared".to_string(),
        ),
    }
    out.check(buffered.stores.wal_fsyncs == 0, || {
        "the buffered replay fsynced".to_string()
    });

    let by = &durable.by;
    let blocks = durable.blocks;
    let store_ns = |run: &ReplayRun| {
        (agg(&run.by, "index.index_block").total_ns + agg(&run.by, "statedb.apply").total_ns) as f64
    };
    out.layer.insert(
        "shim.tx_build_ns_per_tx",
        per(agg(by, "shim.tx_build").total_ns, durable.txs),
    );
    out.layer.insert(
        "validate.ns_per_block",
        per(agg(by, "validate.serial").total_ns, blocks),
    );
    out.layer.insert(
        "block.encode_ns_per_block",
        per(
            agg(by, "block.new_hash").total_ns + agg(by, "block.encode").total_ns,
            blocks,
        ),
    );
    out.layer.insert(
        "blockfile.append_ns_per_block",
        per(agg(by, "blockfile.append_block").self_ns, blocks),
    );
    out.layer.insert(
        "ledger.effects_ns_per_block",
        per(agg(by, "ledger.collect_effects").total_ns, blocks),
    );
    out.layer.insert(
        "index.write_ns_per_block",
        per(agg(by, "index.index_block").total_ns, blocks),
    );
    out.layer.insert(
        "statedb.apply_ns_per_block",
        per(agg(by, "statedb.apply").total_ns, blocks),
    );
    // Two write batches per block, one to each store.
    out.layer.insert(
        "kvstore.write_batch_ns",
        store_ns(&buffered) / (2 * buffered.blocks) as f64,
    );
    out.layer.insert(
        "kvstore.wal_fsync_ns",
        (store_ns(&durable) - store_ns(&buffered)).max(0.0)
            / durable.stores.wal_fsyncs.max(1) as f64,
    );
    out.layer.insert(
        "kvstore.wal_fsyncs_per_block",
        per(durable.stores.wal_fsyncs, blocks),
    );
    out.layer
        .insert("kvstore.flushes", durable.stores.flushes as f64);
    out.layer
        .insert("kvstore.compactions", durable.stores.compactions as f64);
    out.layer.insert(
        "kvstore.compaction_bytes_written",
        durable.stores.compaction_bytes_written as f64,
    );
    // The WAL holds one copy of every byte the ledger hands the stores.
    out.layer.insert(
        "kvstore.write_amp",
        per(
            durable.stores.bytes_wal + durable.stores.bytes_flushed,
            durable.stores.bytes_wal,
        ),
    );

    let layers: [(&'static str, &[&str]); 8] = [
        ("commit_share.shim", &["shim.tx_build"]),
        ("commit_share.orderer", &["orderer.enqueue"]),
        ("commit_share.validate", &["validate.serial"]),
        ("commit_share.block", &["block.new_hash", "block.encode"]),
        ("commit_share.blockfile", &["blockfile.append_block"]),
        ("commit_share.ledger", &["ledger.collect_effects"]),
        ("commit_share.index", &["index.index_block"]),
        ("commit_share.statedb", &["statedb.apply"]),
    ];
    let mut attributed = 0.0;
    for (name, spans) in layers {
        let ns: f64 = spans.iter().map(|s| agg(by, s).self_ns as f64).sum();
        attributed += ns;
        out.layer.insert(name, ns / durable.wall_ns);
    }
    out.layer
        .insert("trace.unattributed_frac", 1.0 - attributed / untraced_ns);
    out.layer
        .insert("trace.overhead_frac", durable.wall_ns / untraced_ns - 1.0);
    out.note(format!(
        "replays: {} blocks, {} WAL fsyncs durable, {} spans each; buffered {:.2} s, durable {:.2} s, ledger {:.2} s",
        blocks,
        durable.stores.wal_fsyncs,
        durable.tracer.spans().len(),
        buffered.wall_ns / 1e9,
        durable.wall_ns / 1e9,
        untraced_ns / 1e9
    ));
    write_spans(cfg, workload, &durable.tracer, out);
    Ok(())
}

// ----------------------------------------------------------- live-mixed

struct LiveSetup {
    ds: Dataset,
    batches: Vec<Range<usize>>,
    /// Transactions ingested before the stream starts.
    setup_txs: usize,
    sut: Sut,
    daemon: crate::sut::RunningDaemon,
}

struct QuerySample {
    window: Window,
    records: Records,
    lat_ns: u64,
    lag_blocks: u64,
}

fn run_live(workload: Workload, cfg: &RunCfg) -> Result<Outcome> {
    let mut out = Outcome::default();
    let mut setup_commit_ns = Vec::new();
    let (setup_s, built, dir) = repeat_setup(
        cfg,
        cfg.setup_reps(),
        |dir| {
            let ds = Dataset::generate(Shape::Live, cfg.smoke, cfg.seed);
            let batches = me_batches(&ds.events);
            let setup_events = (ds.events.len() as f64 * LIVE_SETUP_SHARE) as usize;
            let setup_txs = batches.partition_point(|r| r.end <= setup_events).max(1);
            let sut = Sut::open(dir)?;
            ingest_closed(
                &sut,
                &ds.events,
                &batches[..setup_txs],
                &mut setup_commit_ns,
                &mut out,
            )?;
            let daemon = sut.start_daemon(ds.u(), cfg.live_lag_blocks())?;
            // Start every run at the bottom of the index store's memtable
            // cycle: a seek there costs in proportion to what the memtable
            // holds, so where in the cycle the stream starts sets the
            // reader's latencies. The stream then fills about three quarters
            // of a memtable and no flush falls inside the run.
            sut.flush_stores()?;
            Ok(LiveSetup {
                ds,
                batches,
                setup_txs,
                sut,
                daemon,
            })
        },
        |built| built.daemon.stop().map(|_| ()),
    )?;
    out.e2e.insert("setup_s", median(&setup_s));
    // Until the first epoch commits its metadata the planner cannot tell an
    // M1 ledger from an M2 one, so the stream must start after that.
    let indexed = built.sut.index_lag_blocks()?.is_some();
    out.check(indexed, || {
        "set-up ended before the daemon cut its first epoch".to_string()
    });
    let LiveSetup {
        ds,
        batches,
        setup_txs,
        sut,
        daemon,
    } = built;

    // The stream: the transactions after set-up that fall due within the
    // run, each due once the events ahead of it have been released at the
    // fixed rate. All of them are sent, however late.
    let stream = &batches[setup_txs..];
    let sizes: Vec<u32> = stream.iter().map(|r| r.len() as u32).collect();
    let due_all = due_times(&sizes, cfg.live_rate());
    let n_due = due_all
        .partition_point(|&d| (d as f64) < cfg.seconds * 1e9)
        .max(1);
    let warmup_ns = cfg.live_warmup_ns();
    let due: Vec<u64> = due_all[..n_due].iter().map(|d| d + warmup_ns).collect();
    let stream = &stream[..n_due];
    let first = stream[0].start;
    let ingested = stream[n_due - 1].end;
    out.check(n_due < due_all.len(), || {
        "the dataset ran out before the run ended".to_string()
    });
    let window_len = (ds.t_max / 15).max(1);

    // The reader draws window ends strictly below this: every event up to
    // the end of the window is then in a committed block, so the oracle's
    // answer is the only right one.
    let committed_to = AtomicU64::new(ds.events[first - 1].time);
    let writer_done = AtomicBool::new(false);
    let before = sut.counts();
    let epoch = Instant::now();
    let (written, read) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut tracer = Tracer::with_epoch(epoch);
            let mut cut = Vec::with_capacity(n_due);
            let mut errors: Vec<String> = Vec::new();
            let mut clock = WallClock::start();
            let sent = run_open_loop(&mut clock, &due, |i, _| {
                let span = cfg.trace.then(|| tracer.enter("client.submit", i as u64));
                let res = sut.build_tx(&ds.events[stream[i].clone()]).and_then(|tx| {
                    let last_time = tx.last_time;
                    let did_cut = sut.submit(tx)?;
                    if did_cut {
                        committed_to.store(last_time, Ordering::Release);
                    }
                    Ok(did_cut)
                });
                if let Some(span) = span {
                    tracer.exit(span);
                }
                cut.push(matches!(res, Ok(true)));
                if let Err(e) = res {
                    errors.push(e.to_string());
                }
            });
            let wall_ns = clock.now_ns() - warmup_ns;
            writer_done.store(true, Ordering::Release);
            (sent, cut, errors, wall_ns, tracer)
        });
        let reader = s.spawn(|| -> Result<(Vec<QuerySample>, f64, Tracer, [u64; 2])> {
            let mut tracer = Tracer::with_epoch(epoch);
            let mut ends = WindowEnds::new(cfg.seed);
            let mut samples = Vec::new();
            let mut sstables = None;
            let mut flushes_compactions = [0u64; 2];
            let go = epoch + Duration::from_nanos(warmup_ns);
            let mut start = go;
            while !writer_done.load(Ordering::Acquire) {
                // A query begun during the warm-up is run and dropped.
                let warm = Instant::now() < go;
                let trace = cfg.trace && !warm;
                let below = committed_to.load(Ordering::Acquire);
                if below < 2 {
                    std::thread::yield_now();
                    continue;
                }
                let end = 1 + ends.next_below(below - 1);
                let window = Window {
                    start: end.saturating_sub(window_len),
                    end,
                };
                let qid = samples.len() as u64;
                let span = trace.then(|| tracer.enter("client.index_freshness", qid));
                let lag_blocks = sut.index_lag_blocks()?.unwrap_or(0);
                if let Some(span) = span {
                    tracer.exit(span);
                    // An SSTable more is a flush, fewer a compaction.
                    let now = sut.sstables();
                    if let (Some(was), Some(now)) = (sstables, now) {
                        for (a, b) in std::iter::zip::<[u64; 2], [u64; 2]>(was, now) {
                            flushes_compactions[0] += u64::from(b > a);
                            flushes_compactions[1] += u64::from(b < a);
                        }
                    }
                    sstables = now;
                }
                let span = trace.then(|| tracer.enter("client.ferry_query", qid));
                let t = Instant::now();
                let got = sut.query(EngineKind::Auto, window)?;
                let lat_ns = t.elapsed().as_nanos() as u64;
                if let Some(span) = span {
                    tracer.exit(span);
                }
                if warm {
                    start = Instant::now();
                    continue;
                }
                samples.push(QuerySample {
                    window,
                    records: got,
                    lat_ns,
                    lag_blocks,
                });
            }
            Ok((
                samples,
                start.elapsed().as_secs_f64(),
                tracer,
                flushes_compactions,
            ))
        });
        (
            writer.join().expect("writer thread panicked"),
            reader.join().expect("reader thread panicked"),
        )
    });
    let (sent, cut, errors, writer_wall_ns, mut tracer) = written;
    let (samples, reader_wall_s, reader_tracer, flushes_compactions) = read?;
    sut.finish_ingest()?;
    let during = sut.counts().since(&before);
    let stats = daemon.stop()?;

    out.attempted += sent.len() as u64;
    out.failed += errors.len() as u64;
    for e in errors.iter().take(5) {
        out.note(format!("FAILED: submit: {e}"));
    }
    let oracle = Oracle::new(&ds.events[..ingested]);
    for s in &samples {
        let want = oracle.answer(s.window);
        out.check(s.records == want, || {
            format!(
                "live Q over ({}, {}]: {} records, oracle has {}",
                s.window.start,
                s.window.end,
                s.records.len(),
                want.len()
            )
        });
    }

    let stream_events = (ingested - first) as f64;
    let commit_ns: Vec<u64> = sent
        .iter()
        .zip(&cut)
        .filter(|(_, &c)| c)
        .map(|(s, _)| s.latency_from_due_ns)
        .collect();
    let lat_ns: Vec<u64> = samples.iter().map(|s| s.lat_ns).collect();
    out.note(format!(
        "stream: {n_due} txs, {stream_events} events at {} events/s, {} commits timed; set-up {setup_txs} txs",
        cfg.live_rate(),
        commit_ns.len(),
    ));

    // Quiescent checks: the daemon is stopped and flushed to the tip.
    out.check(stats.late_events == 0, || {
        format!("{} late events", stats.late_events)
    });
    let verified = sut.verify_chain();
    out.check(verified.is_ok(), || {
        format!("verify_chain: {}", verified.unwrap_err())
    });
    out.check(sut.counts().events_committed >= ingested as u64, || {
        format!(
            "{} events committed, {} sent",
            sut.counts().events_committed,
            ingested
        )
    });
    sut.flush_stores()?;
    let rate = stream_events / (writer_wall_ns as f64 / 1e9);
    report_commits(
        &mut out,
        &[rate],
        &commit_ns,
        per(dir_bytes(&dir), ingested as u64),
    );
    let sut = sut.reopen()?;
    let windows = table1_windows(ds.events[ingested - 1].time);
    let expected: Vec<Records> = windows.iter().map(|w| oracle.answer(*w)).collect();
    let auto = query_cycles(
        &sut,
        EngineKind::Auto,
        &windows,
        &expected,
        0.0,
        &mut out,
        &mut no_pause,
    )?;
    // TQF on the early windows only: it re-reads history from the start, and
    // the late windows on this ledger would take longer than the run.
    query_cycles(
        &sut,
        EngineKind::Tqf,
        &windows[..3],
        &expected[..3],
        0.0,
        &mut out,
        &mut no_pause,
    )?;
    report_queries(
        &mut out,
        &lat_ns,
        reader_wall_s,
        None,
        per(auto.total.blocks_deserialized, auto.queries()),
    );

    let lags = sorted(samples.iter().map(|s| s.lag_blocks as f64).collect());
    out.layer
        .insert("daemon.index_lag_blocks_p90", percentile(&lags, 0.90));
    out.layer.insert("daemon.epochs", stats.epochs as f64);
    out.layer
        .insert("daemon.index_pairs", stats.index_pairs as f64);
    let data_blocks = cut.iter().filter(|&&c| c).count() as u64;
    out.layer.insert(
        "daemon.index_block_share",
        per(
            during.blocks_committed.saturating_sub(data_blocks),
            during.blocks_committed,
        ),
    );
    let late = sorted(sent.iter().map(|s| ms(s.late_ns)).collect());
    out.layer
        .insert("loadgen.late_p99_ms", percentile(&late, 0.99));
    if cfg.trace {
        tracer.absorb(reader_tracer);
        out.layer
            .insert("kvstore.flushes", flushes_compactions[0] as f64);
        out.layer
            .insert("kvstore.compactions", flushes_compactions[1] as f64);
        out.layer.insert(
            "trace.overhead_frac",
            tracer.spans().len() as f64 * Tracer::calibrate_ns_per_span() / (cfg.seconds * 1e9),
        );
        out.layer.insert(
            "ledger.ghfk_calls_per_q",
            per(auto.total.ghfk_calls, auto.queries()),
        );
        out.layer.insert(
            "block.txs_decoded_per_q",
            per(auto.total.txs_decoded, auto.queries()),
        );
        out.layer.insert(
            "blockfile.bytes_read_per_q",
            per(auto.total.block_bytes_read, auto.queries()),
        );
        out.layer.insert(
            "cache.hit_ratio",
            per(auto.total.cache_hits, auto.total.block_accesses()),
        );
        write_spans(cfg, workload, &tracer, &mut out);
        report_kv_probe(&mut out, &sut.probe_index_store(&[])?);
    }
    Ok(out)
}
