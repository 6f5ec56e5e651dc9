//! Command implementations for `tfq`.

use fabric_kvstore::Backend;
use fabric_ledger::{LedgerConfig, ShardedLedger};
use fabric_workload::dataset::{self, DatasetId};
use fabric_workload::ingest::{ingest_sharded, IdentityEncoder, IngestMode};
use fabric_workload::{EntityId, Event};
use temporal_core::interval::Interval;
use temporal_core::m1::{read_meta, M1Engine, M1Indexer};
use temporal_core::m2::{M2Encoder, M2Engine};
use temporal_core::partition::FixedLength;
use temporal_core::tqf::TqfEngine;
use temporal_core::{explain_analyze, ferry_query_parallel, AutoEngine, TemporalEngine};

use std::io::Write;

use crate::args::Args;

type CliResult = Result<(), String>;

/// `println!` into the writer a command was handed. It panics on a closed
/// pipe as `println!` does, which `main` turns into a quiet exit 0.
macro_rules! outln {
    ($out:expr, $($arg:tt)*) => {
        writeln!($out, $($arg)*).expect("failed printing to stdout")
    };
}

const USAGE: &str = "usage: tfq <command> ...
  demo    <dir> [ds1|ds2|ds3] [--scale N] [--mode se|me] [--m2-u U] [--shards N]
          [--index-lag N [--u U | --adaptive EVENTS]]
  info    <dir>
  verify  <dir>
  block   <dir> <number>
  history <dir> <key>
  tx      <dir> <txid-hex>
  events  <dir> <key> <t1> <t2> [--engine tqf|m1|m2|auto] [--u U]
  join    <dir> <t1> <t2>       [--engine tqf|m1|m2|auto] [--u U]
  explain <dir> <key> <t1> <t2> [--engine tqf|m1|m2|auto] [--u U]
  analyze <dir> <key> <t1> <t2> [--engine tqf|m1|m2|auto] [--u U]
  plan    <dir> <key> <t1> <t2>
  stats   <dir> <t1> <t2>       [--engine tqf|m1|m2|auto] [--u U] [--format table|json|csv]
  trace   <dir> <t1> <t2>       [--key K] [--engine tqf|m1|m2|auto] [--u U]
                                [--export chrome] [--out PATH] [--workers N]
                                [--ingest ds1|ds2|ds3] [--scale N]
  profile [<dir> <t1> <t2>]     [--key K] [--engine tqf|m1|m2|auto] [--u U]
                                [--workers N] [--ingest ds1|ds2|ds3] [--scale N]
                                [--hz N] [--out PATH]
          without <dir>, --ingest builds a scratch ledger and queries its
          full window; output is flamegraph.pl/inferno collapsed stacks
  top     [<dir> <t1> <t2>]     [--key K] [--engine tqf|m1|m2|auto] [--u U]
                                [--workers N] [--ingest ds1|ds2|ds3] [--scale N]
                                [--limit N]
  planner-report <log.jsonl>
  index   <dir> --u U [--from T1] [--to T2]
          batch M1 build over a single-partition ledger (index-daemon
          covers sharded ones)
  index-daemon <dir> [--index-lag N] [--u U | --adaptive EVENTS]
               [--min-u U] [--max-u U]
          one-shot online M1 maintenance: consume committed blocks from the
          persisted watermark, append EV-set deltas, persist progress + the
          per-key adaptive θ map, and exit with the horizon on the tip
  backup  <dir> <dest-dir>
  export-trace <out.csv> [ds1|ds2|ds3] [--scale N]
  replay  <dir> <trace.csv> [--mode se|me] [--m2-u U]
  serve   <dir> [--addr H:P] [--slow-ms N] [--slow-factor F] [--slow-log PATH]
                [--index-lag N [--u U | --adaptive EVENTS]]
  bench-diff <baseline.json> <current.json> [--time-tol F] [--counter-tol F]
             [--counter-tol-for PAT=F]...
read-path flags (any command taking <dir>):
  --cache-blocks N   block-cache capacity (0 = off, the paper's cost model)
  --coalesce on|off  group history reads by block (default on)
write-path flags (any command taking <dir>):
  --backend lsm|log|auto     storage engine for the index and state
                             stores (default auto: resolve from the
                             directory's on-disk ENGINE marker, falling
                             back to lsm; the choice is persisted and
                             checked on reopen)
  --shards N                 demo only: create the ledger as N key-range
                             partitions. The count is persisted in
                             <dir>/SHARDS and every other command reads
                             the layout from there
  --index-lag N              demo/serve/index-daemon: run the M1 indexer
                             daemon, cutting an epoch whenever more than N
                             data blocks are unindexed (default 0)
  --adaptive EVENTS          daemon θ policy: pick each key's interval
                             length so a cell holds ~EVENTS events
                             (bounded by --min-u/--max-u); default is
                             fixed θ from --u (2000)";

/// Every `--name` some command reads. Anything else is refused by
/// [`dispatch`] instead of being ignored, so a misspelt or removed flag
/// never runs with the default in its place.
const OPTIONS: &[&str] = &[
    "adaptive",
    "addr",
    "addr-file",
    "backend",
    "cache-blocks",
    "coalesce",
    "counter-tol",
    "counter-tol-for",
    "engine",
    "export",
    "format",
    "from",
    "hz",
    "index-lag",
    "ingest",
    "key",
    "limit",
    "m2-u",
    "max-u",
    "min-u",
    "mode",
    "out",
    "requests",
    "scale",
    "shards",
    "slow-factor",
    "slow-log",
    "slow-ms",
    "time-slack",
    "time-tol",
    "to",
    "u",
    "workers",
];

fn led(e: fabric_ledger::Error) -> String {
    e.to_string()
}

/// Ledger config from the read-path flags shared by every command:
/// `--cache-blocks N` (default 0 = off, the paper's cost model) and
/// `--coalesce on|off`.
fn config_from(args: &Args) -> Result<LedgerConfig, String> {
    let mut config = LedgerConfig::default();
    if let Some(n) = args.opt_u64("cache-blocks")? {
        config.cache_blocks = n as usize;
    }
    match args.opt("coalesce") {
        None | Some("on") => {}
        Some("off") => config.coalesce_history = false,
        Some(other) => return Err(format!("--coalesce must be on|off, got '{other}'")),
    }
    match args.opt("backend") {
        None | Some("auto") => {}
        Some("lsm") => config.backend = Backend::Lsm,
        Some("log") => config.backend = Backend::Log,
        Some(other) => {
            return Err(format!("--backend must be lsm|log|auto, got '{other}'"));
        }
    }
    Ok(config)
}

/// Open `<dir>` through the one ledger handle: the layout (a plain
/// ledger, or N partitions) is read from the directory.
fn open(args: &Args, dir: &str) -> Result<ShardedLedger, String> {
    ShardedLedger::open(dir, config_from(args)?).map_err(led)
}

/// Route `argv` to a command.
pub fn dispatch(argv: &[String]) -> CliResult {
    dispatch_to(argv, &mut std::io::stdout())
}

/// [`dispatch`] with the answers of `verify`, `history`, `events`, `join`
/// and `plan` (the commands whose output the tests compare) written to
/// `out`.
fn dispatch_to(argv: &[String], out: &mut dyn Write) -> CliResult {
    let args = Args::parse(argv)?;
    if let Some(name) = args.unknown_option(OPTIONS) {
        return Err(format!("unknown option '--{name}'\n{USAGE}"));
    }
    // The layout belongs to the directory: `demo` may create one, every
    // other command reads it back.
    if args.opt("shards").is_some() && args.pos_opt(0) != Some("demo") {
        return Err(format!(
            "--shards is accepted by 'demo' only: the shard count is read from {}/SHARDS",
            args.pos_opt(1).unwrap_or("<dir>")
        ));
    }
    match args.pos_opt(0) {
        Some("demo") => demo(&args),
        Some("info") => info(&args),
        Some("verify") => verify(&args, out),
        Some("block") => block(&args),
        Some("history") => history(&args, out),
        Some("tx") => tx_lookup(&args),
        Some("events") => events(&args, out),
        Some("join") => join(&args, out),
        Some("explain") => explain(&args),
        Some("analyze") => analyze(&args),
        Some("plan") => plan(&args, out),
        Some("stats") => stats(&args),
        Some("trace") => trace(&args),
        Some("profile") => profile(&args),
        Some("top") => top(&args),
        Some("planner-report") => planner_report(&args),
        Some("index") => index(&args),
        Some("index-daemon") => index_daemon(&args),
        Some("backup") => backup(&args),
        Some("export-trace") => export_trace(&args),
        Some("replay") => replay(&args),
        Some("serve") => crate::serve::serve(&args),
        Some("bench-diff") => crate::serve::bench_diff(&args),
        Some(other) => Err(format!("unknown command '{other}'\n{USAGE}")),
        None => Err(USAGE.to_string()),
    }
}

fn demo(args: &Args) -> CliResult {
    let dir = args.pos(1, "dir")?;
    let id = match args.pos_opt(2).unwrap_or("ds3") {
        "ds1" => DatasetId::Ds1,
        "ds2" => DatasetId::Ds2,
        "ds3" => DatasetId::Ds3,
        other => return Err(format!("unknown dataset '{other}' (ds1|ds2|ds3)")),
    };
    let scale = args.opt_u64("scale")?.unwrap_or(40) as u32;
    let mode = match args.opt("mode").unwrap_or("me") {
        "se" => IngestMode::SingleEvent,
        "me" => IngestMode::MultiEvent,
        other => return Err(format!("unknown mode '{other}' (se|me)")),
    };
    let workload = if scale <= 1 {
        dataset::generate(id)
    } else {
        dataset::generate_scaled(id, scale)
    };
    let config = config_from(args)?;
    let ledger = std::sync::Arc::new(
        match args.opt_u64("shards")? {
            Some(n) => ShardedLedger::create(dir, config, n as usize),
            None => ShardedLedger::open(dir, config),
        }
        .map_err(led)?,
    );
    // With --index-lag the M1 indexer daemons chase the ingest live: they
    // are spawned before the first block commits and stopped (with a final
    // flush) after the last, so the demo ends fully indexed.
    let daemon = match args.opt("index-lag") {
        Some(_) => Some(
            temporal_core::ShardedDaemon::spawn(&ledger, daemon_config_from(args)?).map_err(led)?,
        ),
        None => None,
    };
    let report = match args.opt_u64("m2-u")? {
        Some(u) => ingest_sharded(&ledger, &workload.events, mode, &M2Encoder { u }),
        None => ingest_sharded(&ledger, &workload.events, mode, &IdentityEncoder),
    }
    .map_err(led)?;
    if let Some(daemon) = daemon {
        for (i, r) in daemon.stop().map_err(led)?.iter().enumerate() {
            print_daemon_report(&format!("shard {i:>2} daemon: "), r);
        }
    }
    println!("shard heights: {:?}", ledger.heights());
    println!(
        "ingested {id} (scale 1/{scale}, {mode}): {} events, {} txs, {} blocks in {:?}",
        report.events, report.txs, report.blocks, report.wall
    );
    println!("t_max = {}", workload.params.t_max);
    Ok(())
}

fn info(args: &Args) -> CliResult {
    let ledger = open(args, args.pos(1, "dir")?)?;
    let stats = ledger.stats();
    println!("shards:      {}", ledger.shard_count());
    println!("height:      {} (global)", ledger.height());
    for (i, shard) in ledger.shards().iter().enumerate() {
        println!(
            "shard {i:>2}:    {} block(s), tip {}, {} state key(s), {} pending tx(s)",
            shard.height(),
            shard.last_hash(),
            shard.state_db().key_count().map_err(led)?,
            shard.pending_txs()
        );
        match read_meta(shard).map_err(led)? {
            Some(meta) => println!(
                "  M1 indexes: u={}, {} epoch(s), indexed through t={}",
                meta.u,
                meta.epochs.len(),
                meta.indexed_to()
            ),
            None => println!("  M1 indexes: none"),
        }
        if let Some(f) = temporal_core::index_freshness(shard).map_err(led)? {
            println!("  M1 horizon: {}", f.render());
        }
    }
    println!("I/O since open (all shards):");
    for line in stats.to_string().lines() {
        println!("  {line}");
    }
    Ok(())
}

fn verify(args: &Args, out: &mut dyn Write) -> CliResult {
    let started = std::time::Instant::now();
    let ledger = open(args, args.pos(1, "dir")?)?;
    let tips = ledger.verify_chain().map_err(|e| format!("FAILED: {e}"))?;
    outln!(
        out,
        "ok: {} blocks across {} shard(s), every hash chain link, data hash \
         and tx id verified in {:?}",
        ledger.height(),
        ledger.shard_count(),
        started.elapsed()
    );
    for (i, tip) in tips.iter().enumerate() {
        outln!(out, "shard {i:>2} tip: {tip}");
    }
    Ok(())
}

fn block(args: &Args) -> CliResult {
    let ledger = open(args, args.pos(1, "dir")?)?;
    let num: u64 = args
        .pos(2, "number")?
        .parse()
        .map_err(|_| "block number must be an integer".to_string())?;
    let block = ledger.get_block(num).map_err(led)?;
    println!("block {num}");
    println!("  hash:      {}", block.hash());
    println!("  prev hash: {}", block.header.prev_hash);
    println!("  data hash: {}", block.header.data_hash);
    println!("  txs:       {}", block.tx_count());
    for (i, tx) in block.txs.iter().enumerate() {
        println!(
            "  tx {i}: id={} ts={} reads={} writes={} [{:?}]",
            tx.id.0,
            tx.timestamp,
            tx.reads.len(),
            tx.writes.len(),
            block.validation[i]
        );
        for w in &tx.writes {
            let desc = match &w.value {
                Some(v) => format!("{} bytes", v.len()),
                None => "delete".to_string(),
            };
            println!("      write {} = {desc}", String::from_utf8_lossy(&w.key));
        }
    }
    Ok(())
}

fn history(args: &Args, out: &mut dyn Write) -> CliResult {
    let key = args.pos(2, "key")?;
    // A key's entire history lives on its owning shard.
    let ledger = open(args, args.pos(1, "dir")?)?;
    let mut iter = ledger.get_history_for_key(key.as_bytes()).map_err(led)?;
    let mut n = 0;
    while let Some(state) = iter.next().map_err(led)? {
        n += 1;
        let rendered = match &state.value {
            Some(value) => match EntityId::from_key(key.as_bytes())
                .and_then(|id| Event::decode_value(id, value))
            {
                Some(ev) => format!("{:?} {} @ t={}", ev.kind, ev.target, ev.time),
                None => format!("{} bytes", value.len()),
            },
            None => "delete".to_string(),
        };
        outln!(
            out,
            "block {:>6} tx {:>3} ts {:>8}: {rendered}",
            state.block_num,
            state.tx_num,
            state.timestamp
        );
    }
    outln!(out, "{n} state(s)");
    Ok(())
}

fn backup(args: &Args) -> CliResult {
    let dest = args.pos(2, "dest-dir")?;
    let started = std::time::Instant::now();
    let ledger = open(args, args.pos(1, "dir")?)?;
    ledger.backup(dest).map_err(led)?;
    println!(
        "backed up {} block(s) across {} shard(s) to {dest} in {:?}",
        ledger.height(),
        ledger.shard_count(),
        started.elapsed()
    );
    Ok(())
}

fn export_trace(args: &Args) -> CliResult {
    let out = args.pos(1, "out.csv")?;
    let id = match args.pos_opt(2).unwrap_or("ds3") {
        "ds1" => DatasetId::Ds1,
        "ds2" => DatasetId::Ds2,
        "ds3" => DatasetId::Ds3,
        other => return Err(format!("unknown dataset '{other}' (ds1|ds2|ds3)")),
    };
    let scale = args.opt_u64("scale")?.unwrap_or(40) as u32;
    let workload = if scale <= 1 {
        dataset::generate(id)
    } else {
        dataset::generate_scaled(id, scale)
    };
    fabric_workload::trace::save_trace(&workload.events, out).map_err(|e| e.to_string())?;
    println!("wrote {} events to {out}", workload.events.len());
    Ok(())
}

fn replay(args: &Args) -> CliResult {
    let dir = args.pos(1, "dir")?;
    let trace_path = args.pos(2, "trace.csv")?;
    let mode = match args.opt("mode").unwrap_or("me") {
        "se" => IngestMode::SingleEvent,
        "me" => IngestMode::MultiEvent,
        other => return Err(format!("unknown mode '{other}' (se|me)")),
    };
    let mut events = fabric_workload::trace::load_trace(trace_path).map_err(|e| e.to_string())?;
    events.sort_by_key(|e| (e.time, e.subject));
    let ledger = open(args, dir)?;
    let report = match args.opt_u64("m2-u")? {
        Some(u) => ingest_sharded(&ledger, &events, mode, &M2Encoder { u }),
        None => ingest_sharded(&ledger, &events, mode, &IdentityEncoder),
    }
    .map_err(led)?;
    println!(
        "replayed {} events as {} txs / {} blocks in {:?}",
        report.events, report.txs, report.blocks, report.wall
    );
    Ok(())
}

fn tx_lookup(args: &Args) -> CliResult {
    let ledger = open(args, args.pos(1, "dir")?)?;
    let id_hex = args.pos(2, "txid-hex")?;
    let digest = fabric_ledger::Digest::from_hex(id_hex)
        .ok_or_else(|| "txid must be 64 hex chars".to_string())?;
    let id = fabric_ledger::TxId(digest);
    for (i, shard) in ledger.shards().iter().enumerate() {
        let Some((tx, block_num, tx_num, code)) = shard.get_transaction(&id).map_err(led)? else {
            continue;
        };
        println!(
            "found in block {}, position {tx_num} [{code:?}]",
            ledger.global_block_num(i, block_num)
        );
        println!("  timestamp: {}", tx.timestamp);
        println!("  reads:     {}", tx.reads.len());
        for w in &tx.writes {
            let desc = match &w.value {
                Some(v) => format!("{} bytes", v.len()),
                None => "delete".to_string(),
            };
            println!("  write {} = {desc}", String::from_utf8_lossy(&w.key));
        }
        return Ok(());
    }
    Err("transaction not found".to_string())
}

fn pick_engine(args: &Args) -> Result<Box<dyn TemporalEngine + Sync>, String> {
    match args.opt("engine").unwrap_or("tqf") {
        "tqf" => Ok(Box::new(TqfEngine)),
        "m1" => Ok(Box::new(M1Engine::default())),
        "m2" => {
            let u = args
                .opt_u64("u")?
                .ok_or_else(|| "--engine m2 requires --u".to_string())?;
            Ok(Box::new(M2Engine { u }))
        }
        "auto" => Ok(Box::new(AutoEngine::default())),
        other => Err(format!("unknown engine '{other}' (tqf|m1|m2|auto)")),
    }
}

fn parse_tau(args: &Args, first_pos: usize) -> Result<Interval, String> {
    let t1: u64 = args
        .pos(first_pos, "t1")?
        .parse()
        .map_err(|_| "t1 must be an integer".to_string())?;
    let t2: u64 = args
        .pos(first_pos + 1, "t2")?
        .parse()
        .map_err(|_| "t2 must be an integer".to_string())?;
    if t2 <= t1 {
        return Err("t2 must exceed t1".to_string());
    }
    Ok(Interval::new(t1, t2))
}

fn events(args: &Args, out: &mut dyn Write) -> CliResult {
    let key = EntityId::from_key(args.pos(2, "key")?.as_bytes())
        .ok_or_else(|| "key must look like S00001 / C00001".to_string())?;
    let tau = parse_tau(args, 3)?;
    let engine = pick_engine(args)?;
    // A key's events live wholly on its owning shard, so the query runs
    // against that one partition.
    let handle = open(args, args.pos(1, "dir")?)?;
    let ledger = handle.shard_for_key(&key.key());
    let before = ledger.stats();
    let started = std::time::Instant::now();
    let events = engine.events_for_key(ledger, key, tau).map_err(led)?;
    let wall = started.elapsed();
    for ev in &events {
        outln!(out, "t={:>8} {:?} {}", ev.time, ev.kind, ev.target);
    }
    let d = ledger.stats().delta(&before);
    outln!(
        out,
        "{} event(s) via {} in {wall:?} — {} GHFK call(s), {} block(s) deserialized",
        events.len(),
        engine.name(),
        d.ghfk_calls,
        d.blocks_deserialized
    );
    Ok(())
}

fn join(args: &Args, out: &mut dyn Write) -> CliResult {
    let tau = parse_tau(args, 2)?;
    let engine = pick_engine(args)?;
    let ledger = open(args, args.pos(1, "dir")?)?;
    let outcome = ferry_query_parallel(engine.as_ref(), &ledger, tau, 1).map_err(led)?;
    for r in outcome.records.iter().take(20) {
        outln!(
            out,
            "shipment {} on truck {} during {}",
            r.shipment,
            r.truck,
            r.span
        );
    }
    if outcome.records.len() > 20 {
        outln!(out, "... and {} more", outcome.records.len() - 20);
    }
    outln!(
        out,
        "{} record(s) via {} in {:?} — {} GHFK call(s), {} block(s) deserialized",
        outcome.records.len(),
        engine.name(),
        outcome.stats.wall,
        outcome.stats.ghfk_calls(),
        outcome.stats.blocks_deserialized()
    );
    Ok(())
}

fn explain(args: &Args) -> CliResult {
    use temporal_core::explain::ExplainQuery;
    let handle = open(args, args.pos(1, "dir")?)?;
    let key = EntityId::from_key(args.pos(2, "key")?.as_bytes())
        .ok_or_else(|| "key must look like S00001 / C00001".to_string())?;
    let ledger = handle.shard_for_key(&key.key());
    let tau = parse_tau(args, 3)?;
    let plan = match args.opt("engine").unwrap_or("tqf") {
        "tqf" => TqfEngine.explain(ledger, key, tau),
        "m1" => M1Engine::default().explain(ledger, key, tau),
        "m2" => {
            let u = args
                .opt_u64("u")?
                .ok_or_else(|| "--engine m2 requires --u".to_string())?;
            M2Engine { u }.explain(ledger, key, tau)
        }
        "auto" => AutoEngine::default().explain(ledger, key, tau),
        other => return Err(format!("unknown engine '{other}' (tqf|m1|m2|auto)")),
    }
    .map_err(led)?;
    print!("{}", plan.render());
    println!(
        "total: {} GHFK call(s), ≤{} block(s)",
        plan.ghfk_calls(),
        plan.max_blocks()
    );
    Ok(())
}

fn analyze(args: &Args) -> CliResult {
    let handle = open(args, args.pos(1, "dir")?)?;
    let key = EntityId::from_key(args.pos(2, "key")?.as_bytes())
        .ok_or_else(|| "key must look like S00001 / C00001".to_string())?;
    let ledger = handle.shard_for_key(&key.key());
    let tau = parse_tau(args, 3)?;
    let analyzed = match args.opt("engine").unwrap_or("tqf") {
        "tqf" => explain_analyze(&TqfEngine, ledger, key, tau),
        "m1" => explain_analyze(&M1Engine::default(), ledger, key, tau),
        "m2" => {
            let u = args
                .opt_u64("u")?
                .ok_or_else(|| "--engine m2 requires --u".to_string())?;
            explain_analyze(&M2Engine { u }, ledger, key, tau)
        }
        "auto" => explain_analyze(&AutoEngine::default(), ledger, key, tau),
        other => return Err(format!("unknown engine '{other}' (tqf|m1|m2|auto)")),
    }
    .map_err(led)?;
    print!("{}", analyzed.render());
    if !analyzed.within_bounds() {
        return Err("measured cost exceeded the predicted bound".to_string());
    }
    Ok(())
}

fn plan(args: &Args, out: &mut dyn Write) -> CliResult {
    let key = EntityId::from_key(args.pos(2, "key")?.as_bytes())
        .ok_or_else(|| "key must look like S00001 / C00001".to_string())?;
    let tau = parse_tau(args, 3)?;
    let handle = open(args, args.pos(1, "dir")?)?;
    let ledger = handle.shard_for_key(&key.key());
    let choice = AutoEngine::default()
        .choose(ledger, key, tau)
        .map_err(led)?;
    let freshness = temporal_core::index_freshness(ledger).map_err(led)?;
    outln!(out, "{}", choice.render().trim_end());
    if let Some(f) = freshness {
        outln!(out, "{}", f.render());
    }
    Ok(())
}

fn stats(args: &Args) -> CliResult {
    let ledger = open(args, args.pos(1, "dir")?)?;
    let tau = parse_tau(args, 2)?;
    let engine = pick_engine(args)?;
    let tel = ledger.telemetry();
    tel.enable();
    tel.reset();
    let outcome = ferry_query_parallel(engine.as_ref(), &ledger, tau, 1).map_err(led)?;
    let report = fabric_telemetry::export::Report::new(tel.snapshot())
        .with("engine", engine.name())
        .with("tau", tau.to_string())
        .with("records", outcome.records.len().to_string());
    match args.opt("format").unwrap_or("table") {
        "table" => {
            println!(
                "{} record(s) via {} over {tau} in {:?}",
                outcome.records.len(),
                engine.name(),
                outcome.stats.wall
            );
            print!(
                "{}",
                fabric_telemetry::export::render_table(&report.snapshot)
            );
        }
        "json" => println!("{}", report.json_line()),
        "csv" => print!("{}", report.csv()),
        other => return Err(format!("unknown format '{other}' (table|json|csv)")),
    }
    Ok(())
}

/// What one recorded workload session produced: the human summary, the
/// finished span records, and any sampled counter track points
/// (queue depths) captured while it ran.
struct Recorded {
    summary: String,
    records: Vec<fabric_telemetry::SpanRecord>,
    points: Vec<fabric_telemetry::TrackPoint>,
}

/// The one-process workload driver shared by `trace`, `profile` and
/// `top`: optional in-process ingest (`--ingest ds --scale N`) followed
/// by one query (`--key`, or the join on `--workers` threads per shard;
/// `--engine`), all under span
/// recording with queue-depth track points on.
///
/// `tau` of `None` means "the ingested dataset's full `(0, t_max]`
/// window" and requires `--ingest`.
fn record_workload(
    args: &Args,
    ledger: &ShardedLedger,
    tau: Option<Interval>,
) -> Result<Recorded, String> {
    let engine = pick_engine(args)?;
    let key = match args.opt("key") {
        Some(k) => Some(
            EntityId::from_key(k.as_bytes())
                .ok_or_else(|| "key must look like S00001 / C00001".to_string())?,
        ),
        None => None,
    };
    let workers = args.opt_u64("workers")?.unwrap_or(1).max(1) as usize;

    let tel = ledger.telemetry();
    let was_enabled = tel.is_enabled();
    let was_tracked = tel.track_points_on();
    tel.enable();
    tel.enable_track_points(true);
    let _ = tel.drain_spans();
    let _ = tel.drain_track_points();

    let mut summary = String::new();
    let mut tau = tau;
    if let Some(ds) = args.opt("ingest") {
        let id = match ds {
            "ds1" => DatasetId::Ds1,
            "ds2" => DatasetId::Ds2,
            "ds3" => DatasetId::Ds3,
            other => return Err(format!("unknown dataset '{other}' (ds1|ds2|ds3)")),
        };
        let scale = args.opt_u64("scale")?.unwrap_or(40) as u32;
        let workload = if scale <= 1 {
            dataset::generate(id)
        } else {
            dataset::generate_scaled(id, scale)
        };
        let report = ingest_sharded(
            ledger,
            &workload.events,
            IngestMode::MultiEvent,
            &IdentityEncoder,
        )
        .map_err(led)?;
        summary.push_str(&format!(
            "ingested {id} (scale 1/{scale}): {} events in {} block(s)\n",
            report.events, report.blocks
        ));
        if tau.is_none() {
            tau = Some(Interval::new(0, workload.params.t_max));
        }
    }
    let tau = tau.ok_or_else(|| "need <dir> <t1> <t2> or --ingest ds1|ds2|ds3".to_string())?;

    let query_summary = match key {
        Some(k) => {
            let events = engine
                .events_for_key(ledger.shard_for_key(&k.key()), k, tau)
                .map_err(led)?;
            format!(
                "{} event(s) for {k} via {} over {tau}",
                events.len(),
                engine.name()
            )
        }
        None => {
            let outcome =
                ferry_query_parallel(engine.as_ref(), ledger, tau, workers).map_err(led)?;
            format!(
                "{} record(s) via {} over {tau} ({workers} worker(s))",
                outcome.records.len(),
                engine.name()
            )
        }
    };
    summary.push_str(&query_summary);

    let records = tel.drain_spans();
    let points = tel.drain_track_points();
    tel.enable_track_points(was_tracked);
    if !was_enabled {
        tel.disable();
    }
    Ok(Recorded {
        summary,
        records,
        points,
    })
}

fn trace(args: &Args) -> CliResult {
    let ledger = open(args, args.pos(1, "dir")?)?;
    let tau = parse_tau(args, 2)?;
    let export = match args.opt("export") {
        None => None,
        Some("chrome") => Some("chrome"),
        Some(other) => return Err(format!("--export must be chrome, got '{other}'")),
    };
    let rec = record_workload(args, &ledger, Some(tau))?;

    match export {
        Some(_) => {
            let json = fabric_telemetry::chrome_trace_with_counters(&rec.records, &rec.points);
            match args.opt("out") {
                Some(path) => {
                    std::fs::write(path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
                    println!("{}", rec.summary);
                    println!(
                        "wrote {} span(s) and {} counter sample(s) as Chrome trace events to {path}",
                        rec.records.len(),
                        rec.points.len()
                    );
                }
                None => println!("{json}"),
            }
        }
        None => {
            println!("{}", rec.summary);
            let tree = fabric_telemetry::build_tree(rec.records);
            print!("{}", fabric_telemetry::render_tree(&tree));
            let depth = tree.iter().map(|n| n.depth()).max().unwrap_or(0);
            println!("deepest nesting: {depth} level(s)");
        }
    }
    Ok(())
}

/// A throwaway ledger directory for `profile`/`top` runs that bring
/// their own dataset via `--ingest` instead of pointing at a `<dir>`.
struct ScratchDir(std::path::PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Resolve the ledger for `profile`/`top`: an explicit `<dir> <t1> <t2>`
/// like `trace`, or — with `--ingest` and no positional dir — a scratch
/// ledger living only for this invocation, queried over the dataset's
/// full window.
fn open_session(
    args: &Args,
) -> Result<(ShardedLedger, Option<Interval>, Option<ScratchDir>), String> {
    match args.pos_opt(1) {
        Some(dir) => Ok((open(args, dir)?, Some(parse_tau(args, 2)?), None)),
        None => {
            if args.opt("ingest").is_none() {
                return Err("need <dir> <t1> <t2> or --ingest ds1|ds2|ds3".to_string());
            }
            let dir = std::env::temp_dir().join(format!(
                "tfq-scratch-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let ledger = open(args, dir.to_str().ok_or("temp dir is not utf-8")?)?;
            Ok((ledger, None, Some(ScratchDir(dir))))
        }
    }
}

fn profile(args: &Args) -> CliResult {
    let hz = args
        .opt_u64("hz")?
        .unwrap_or(fabric_telemetry::profile::DEFAULT_HZ);
    let (ledger, tau, _scratch) = open_session(args)?;
    let profiler = fabric_telemetry::Profiler::start(ledger.telemetry(), hz);
    let outcome = record_workload(args, &ledger, tau);
    let prof = profiler.stop();
    let rec = outcome?;

    println!("{}", rec.summary);
    println!(
        "profiled at {hz}Hz: {} sample(s) over {} tick(s), {} distinct stack(s)",
        prof.samples(),
        prof.ticks(),
        prof.distinct_stacks()
    );
    if let Some((stack, n)) = prof.hottest().first() {
        println!("hottest stack: {stack} ({n} sample(s))");
    }
    let collapsed = prof.collapsed();
    match args.opt("out") {
        Some(path) => {
            std::fs::write(path, &collapsed).map_err(|e| format!("cannot write {path}: {e}"))?;
            println!(
                "wrote collapsed stacks to {path} — render with \
                 `inferno-flamegraph < {path} > flame.svg` (or flamegraph.pl)"
            );
        }
        None => print!("{collapsed}"),
    }
    Ok(())
}

fn top(args: &Args) -> CliResult {
    let limit = args.opt_u64("limit")?.unwrap_or(12) as usize;
    let (ledger, tau, _scratch) = open_session(args)?;
    let rec = record_workload(args, &ledger, tau)?;
    let rows = fabric_telemetry::top_spans(&rec.records);

    println!("{}", rec.summary);
    println!(
        "{:<28} {:>7} {:>12} {:>12} {:>12} {:>12}",
        "span", "count", "total(ms)", "self(ms)", "alloc(KiB)", "peak(KiB)"
    );
    for row in rows.iter().take(limit.max(1)) {
        println!(
            "{:<28} {:>7} {:>12.3} {:>12.3} {:>12} {:>12}",
            row.name,
            row.count,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6,
            row.alloc_bytes / 1024,
            row.peak_bytes / 1024,
        );
    }
    if rows.len() > limit {
        println!(
            "... {} more span name(s); raise --limit to see them",
            rows.len() - limit
        );
    }
    Ok(())
}

fn planner_report(args: &Args) -> CliResult {
    let path = args.pos(1, "log.jsonl")?;
    // A planner log that was never written is an ordinary state for a
    // fresh deployment (nothing routed through the auto engine yet), not
    // an error: report it and exit 0 so CI report steps don't fail.
    if !std::path::Path::new(path).exists() {
        println!("no planner records: {path} does not exist (nothing logged yet)");
        return Ok(());
    }
    let records =
        temporal_core::PlannerLog::load(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if records.is_empty() {
        // `load` skips unparseable lines, so this covers both a truly
        // empty log and one holding no valid records.
        println!("no planner records in {path}");
        return Ok(());
    }
    let groups = temporal_core::calibrate::aggregate(&records);
    print!("{}", temporal_core::calibrate::render_report(&groups));
    Ok(())
}

/// The indexer-daemon configuration shared by `index-daemon`, `demo
/// --index-lag` and `serve --index-lag`: `--index-lag N` bounds how many
/// data blocks may pile up unindexed; θ comes from `--adaptive EVENTS`
/// (per-key density-tuned, clamped to `--min-u`/`--max-u`) or `--u U`
/// (the paper's global fixed θ, default 2000).
pub(crate) fn daemon_config_from(args: &Args) -> Result<temporal_core::DaemonConfig, String> {
    let lag_blocks = args.opt_u64("index-lag")?.unwrap_or(0);
    let policy = match args.opt_u64("adaptive")? {
        Some(0) => return Err("--adaptive must be at least 1 event per cell".to_string()),
        Some(target_events) => {
            if args.opt("u").is_some() {
                return Err("--adaptive and --u are mutually exclusive".to_string());
            }
            temporal_core::ThetaPolicy::Adaptive {
                target_events,
                min_u: args.opt_u64("min-u")?.unwrap_or(100),
                max_u: args.opt_u64("max-u")?.unwrap_or(100_000),
            }
        }
        None => temporal_core::ThetaPolicy::Fixed {
            u: args.opt_u64("u")?.unwrap_or(2000),
        },
    };
    Ok(temporal_core::DaemonConfig { lag_blocks, policy })
}

fn print_daemon_report(prefix: &str, r: &temporal_core::DaemonReport) {
    println!(
        "{prefix}consumed {} block(s) ({} event(s), {} late, {} foreign), \
         cut {} epoch(s) / {} index pair(s); horizon t={}, watermark block {}, θ-generation {}",
        r.blocks_consumed,
        r.events_buffered,
        r.late_events,
        r.foreign_writes,
        r.epochs,
        r.index_pairs,
        r.indexed_to,
        r.horizon_block,
        r.generation
    );
}

fn index_daemon(args: &Args) -> CliResult {
    let dir = args.pos(1, "dir")?;
    let cfg = daemon_config_from(args)?;
    let ledger = std::sync::Arc::new(open(args, dir)?);
    for i in 0..ledger.shard_count() {
        let mut daemon =
            temporal_core::IndexerDaemon::for_shard(ledger.clone(), i, cfg).map_err(led)?;
        daemon.catch_up().map_err(led)?;
        daemon.flush().map_err(led)?;
        print_daemon_report(&format!("shard {i:>2}: "), &daemon.report());
    }
    Ok(())
}

fn index(args: &Args) -> CliResult {
    let handle = open(args, args.pos(1, "dir")?)?;
    let ledger = handle.sole().map_err(led)?;
    let u = args
        .opt_u64("u")?
        .ok_or_else(|| "index requires --u".to_string())?;
    let from = match args.opt_u64("from")? {
        Some(t) => t,
        None => read_meta(ledger)
            .map_err(led)?
            .map_or(0, |m| m.indexed_to()),
    };
    let to = match args.opt_u64("to")? {
        Some(t) => t,
        None => {
            // Default: index up to the newest event time seen in state-db.
            let rows = ledger.get_state_by_range(None, None).map_err(led)?;
            let mut max_t = 0;
            for (k, vv) in rows {
                if let Some(id) = EntityId::from_key(&k) {
                    if let Some(ev) = Event::decode_value(id, &vv.value) {
                        max_t = max_t.max(ev.time);
                    }
                }
            }
            max_t
        }
    };
    if to <= from {
        return Err(format!("nothing to index (from={from}, to={to})"));
    }
    let keys: Vec<EntityId> = ledger
        .get_state_by_range(None, None)
        .map_err(led)?
        .into_iter()
        .filter_map(|(k, _)| EntityId::from_key(&k))
        .collect();
    let strategy = FixedLength { u };
    let report = M1Indexer::fixed(&strategy)
        .run_epoch(ledger, &keys, Interval::new(from, to))
        .map_err(led)?;
    println!(
        "indexed ({from}, {to}] for {} key(s): {} index pair(s), {} tx(s), {} block(s) read, {:?}",
        report.keys,
        report.indexes,
        report.txs,
        report.stats.blocks_deserialized(),
        report.stats.wall
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> CliResult {
        printed(args).map(drop)
    }

    /// Dispatch `args`, returning what the command wrote to its writer.
    fn printed(args: &[&str]) -> Result<String, String> {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        dispatch_to(&argv, &mut out)?;
        Ok(String::from_utf8(out).unwrap())
    }

    fn open_default(dir: &TempDir) -> ShardedLedger {
        ShardedLedger::open(dir.s(), LedgerConfig::default()).unwrap()
    }

    struct TempDir(std::path::PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let p = std::env::temp_dir().join(format!(
                "tfq-cmd-test-{}-{tag}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&p);
            TempDir(p)
        }
        fn s(&self) -> &str {
            self.0.to_str().unwrap()
        }
        /// Sorted names directly under the directory (`ls`).
        fn ls(&self) -> Vec<String> {
            let mut names: Vec<String> = std::fs::read_dir(&self.0)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            names
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn no_command_prints_usage() {
        let err = run(&[]).unwrap_err();
        assert!(err.contains("usage"), "{err}");
        let err = run(&["bogus"]).unwrap_err();
        assert!(err.contains("unknown command"), "{err}");
    }

    #[test]
    fn full_lifecycle_through_dispatch() {
        let dir = TempDir::new("lifecycle");
        run(&["demo", dir.s(), "ds3", "--scale", "300"]).unwrap();
        run(&["info", dir.s()]).unwrap();
        run(&["verify", dir.s()]).unwrap();
        run(&["block", dir.s(), "0"]).unwrap();
        run(&["history", dir.s(), "S00000"]).unwrap();
        run(&["index", dir.s(), "--u", "2000"]).unwrap();
        run(&["events", dir.s(), "S00000", "0", "5000", "--engine", "m1"]).unwrap();
        run(&["events", dir.s(), "S00000", "0", "5000", "--engine", "auto"]).unwrap();
        run(&["explain", dir.s(), "S00000", "0", "5000", "--engine", "m1"]).unwrap();
        run(&[
            "explain",
            dir.s(),
            "S00000",
            "0",
            "5000",
            "--engine",
            "auto",
        ])
        .unwrap();
        run(&["plan", dir.s(), "S00000", "0", "5000"]).unwrap();
        run(&["join", dir.s(), "0", "5000", "--engine", "tqf"]).unwrap();
        run(&["join", dir.s(), "0", "5000", "--engine", "auto"]).unwrap();
        run(&["analyze", dir.s(), "S00000", "0", "5000", "--engine", "m1"]).unwrap();
        run(&["analyze", dir.s(), "S00000", "0", "5000", "--engine", "tqf"]).unwrap();
        run(&[
            "analyze",
            dir.s(),
            "S00000",
            "0",
            "5000",
            "--engine",
            "auto",
        ])
        .unwrap();
        run(&["stats", dir.s(), "0", "5000", "--engine", "tqf"]).unwrap();
        run(&["stats", dir.s(), "0", "5000", "--format", "json"]).unwrap();
        run(&["stats", dir.s(), "0", "5000", "--format", "csv"]).unwrap();
        run(&["trace", dir.s(), "0", "5000", "--engine", "m1"]).unwrap();
        run(&["trace", dir.s(), "0", "5000", "--key", "S00000"]).unwrap();
    }

    #[test]
    fn trace_tree_nests_at_least_three_levels() {
        let dir = TempDir::new("depth");
        run(&["demo", dir.s(), "ds3", "--scale", "300"]).unwrap();
        let args = Args::parse(&[]).unwrap();
        let rec =
            record_workload(&args, &open_default(&dir), Some(Interval::new(0, 5000))).unwrap();
        let tree = fabric_telemetry::build_tree(rec.records);
        let depth = tree.iter().map(|n| n.depth()).max().unwrap_or(0);
        assert!(depth >= 3, "span tree depth {depth} < 3");
        let rendered = fabric_telemetry::render_tree(&tree);
        assert!(rendered.contains("query.ferry.parallel"), "{rendered}");
        assert!(rendered.contains("ferry.shipments"), "{rendered}");
        assert!(rendered.contains("ghfk"), "{rendered}");
        assert!(rendered.contains("block.deserialize"), "{rendered}");
    }

    #[test]
    fn trace_chrome_export_covers_commit_and_workers() {
        let dir = TempDir::new("chrome");
        let out = std::env::temp_dir().join(format!("tfq-chrome-{}.json", std::process::id()));
        // One invocation: ingest + parallel query, exported as a Chrome
        // trace. The acceptance shape for the observability PR.
        run(&[
            "trace",
            dir.s(),
            "0",
            "5000",
            "--ingest",
            "ds3",
            "--scale",
            "300",
            "--workers",
            "2",
            "--export",
            "chrome",
            "--out",
            out.to_str().unwrap(),
        ])
        .unwrap();
        let json = std::fs::read_to_string(&out).unwrap();
        let _ = std::fs::remove_file(&out);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        // Commit-stage spans from the ingest...
        assert!(json.contains("\"name\":\"commit.append\""), "{json}");
        // ...and per-cursor worker lanes from the parallel query.
        assert!(json.contains("\"name\":\"query.worker.key\""), "{json}");
        assert!(json.contains("\"name\":\"query.ferry.parallel\""), "{json}");
        assert!(run(&["trace", dir.s(), "0", "5000", "--export", "svg"]).is_err());
    }

    #[test]
    fn planner_report_from_logged_queries() {
        let dir = TempDir::new("plog");
        run(&["demo", dir.s(), "ds3", "--scale", "300"]).unwrap();
        run(&["index", dir.s(), "--u", "2000"]).unwrap();
        let log_path = std::env::temp_dir().join(format!("tfq-plog-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&log_path);
        {
            let handle = open_default(&dir);
            let ledger = handle.sole().unwrap();
            let log = temporal_core::PlannerLog::open(&log_path).unwrap();
            log.set_dataset("ds3");
            let auto = temporal_core::AutoEngine::with_log(log);
            for t2 in [2000u64, 5000] {
                let key = EntityId::from_key(b"S00000").unwrap();
                let mut cur = auto
                    .events_cursor(ledger, key, Interval::new(0, t2))
                    .unwrap();
                while cur.next_event().unwrap().is_some() {}
            }
        }
        run(&["planner-report", log_path.to_str().unwrap()]).unwrap();
        let _ = std::fs::remove_file(&log_path);
    }

    #[test]
    fn planner_report_is_clean_on_missing_or_empty_log() {
        // A log that was never written (or written empty) is a normal
        // fresh-deployment state: exit 0 with a message, not an error.
        run(&["planner-report", "/nonexistent/x.jsonl"]).unwrap();
        let empty =
            std::env::temp_dir().join(format!("tfq-plog-empty-{}.jsonl", std::process::id()));
        std::fs::write(&empty, "").unwrap();
        run(&["planner-report", empty.to_str().unwrap()]).unwrap();
        let _ = std::fs::remove_file(&empty);
        // Unparseable lines are skipped by the loader, so a log with no
        // valid records behaves like an empty one.
        let bad = std::env::temp_dir().join(format!("tfq-plog-bad-{}.jsonl", std::process::id()));
        std::fs::write(&bad, "this is not json\n").unwrap();
        run(&["planner-report", bad.to_str().unwrap()]).unwrap();
        let _ = std::fs::remove_file(&bad);
    }

    #[test]
    fn profile_writes_collapsed_stacks_from_a_scratch_ingest() {
        // The acceptance shape: no <dir>, dataset built in-process, output
        // in flamegraph.pl/inferno collapsed form. A high rate keeps the
        // run short while still likely to catch stacks; zero samples is
        // legal (sampling is probabilistic), the format must hold anyway.
        let out = std::env::temp_dir().join(format!("tfq-prof-{}.collapsed", std::process::id()));
        run(&[
            "profile",
            "--ingest",
            "ds3",
            "--scale",
            "300",
            "--workers",
            "2",
            "--hz",
            "4000",
            "--out",
            out.to_str().unwrap(),
        ])
        .unwrap();
        let collapsed = std::fs::read_to_string(&out).unwrap();
        let _ = std::fs::remove_file(&out);
        for line in collapsed.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("stack count");
            assert!(stack.split(';').all(|f| !f.is_empty()), "{line:?}");
            count.parse::<u64>().expect("count must be an integer");
        }
        // Without <dir> and without --ingest there is nothing to run.
        assert!(run(&["profile"]).is_err());
    }

    #[test]
    fn profile_runs_against_an_existing_ledger() {
        let dir = TempDir::new("profdir");
        run(&["demo", dir.s(), "ds3", "--scale", "300"]).unwrap();
        run(&["profile", dir.s(), "0", "5000", "--hz", "4000"]).unwrap();
        run(&["profile", dir.s(), "0", "5000", "--key", "S00000"]).unwrap();
    }

    #[test]
    fn top_ranks_spans_by_self_time() {
        let dir = TempDir::new("topcmd");
        run(&["demo", dir.s(), "ds3", "--scale", "300"]).unwrap();
        run(&["top", dir.s(), "0", "5000"]).unwrap();
        run(&[
            "top",
            dir.s(),
            "0",
            "5000",
            "--limit",
            "3",
            "--workers",
            "2",
        ])
        .unwrap();
        assert!(run(&["top"]).is_err(), "no dir and no --ingest");
    }

    #[test]
    fn read_path_flags_are_accepted_and_validated() {
        let dir = TempDir::new("readpath");
        run(&["demo", dir.s(), "ds3", "--scale", "400"]).unwrap();
        // Cached + coalesced (the overhaul path).
        run(&["join", dir.s(), "0", "5000", "--cache-blocks", "64"]).unwrap();
        // Seed read path: coalescing off, no cache.
        run(&["join", dir.s(), "0", "5000", "--coalesce", "off"]).unwrap();
        run(&["history", dir.s(), "S00000", "--coalesce", "off"]).unwrap();
        assert!(run(&["join", dir.s(), "0", "5000", "--coalesce", "maybe"]).is_err());
        assert!(run(&["join", dir.s(), "0", "5000", "--cache-blocks", "x"]).is_err());
    }

    #[test]
    fn stats_and_bad_format_are_reported() {
        let dir = TempDir::new("statsfmt");
        run(&["demo", dir.s(), "ds3", "--scale", "400"]).unwrap();
        assert!(run(&["stats", dir.s(), "0", "5000", "--format", "xml"]).is_err());
        assert!(run(&["trace", dir.s(), "0", "5000", "--key", "BADKEY"]).is_err());
    }

    #[test]
    fn trace_roundtrip_through_dispatch() {
        let dir = TempDir::new("trace");
        let csv = std::env::temp_dir().join(format!("tfq-trace-{}.csv", std::process::id()));
        run(&[
            "export-trace",
            csv.to_str().unwrap(),
            "ds3",
            "--scale",
            "300",
        ])
        .unwrap();
        run(&["replay", dir.s(), csv.to_str().unwrap(), "--m2-u", "2000"]).unwrap();
        run(&[
            "events",
            dir.s(),
            "S00000",
            "0",
            "5000",
            "--engine",
            "m2",
            "--u",
            "2000",
        ])
        .unwrap();
        let _ = std::fs::remove_file(&csv);
    }

    #[test]
    fn backup_through_dispatch() {
        let dir = TempDir::new("bk-src");
        let dst = TempDir::new("bk-dst");
        run(&["demo", dir.s(), "ds3", "--scale", "400"]).unwrap();
        run(&["backup", dir.s(), dst.s()]).unwrap();
        run(&["verify", dst.s()]).unwrap();
    }

    #[test]
    fn sharded_lifecycle_through_dispatch() {
        let dir = TempDir::new("sharded");
        run(&["demo", dir.s(), "ds3", "--scale", "4", "--shards", "2"]).unwrap();
        run(&["info", dir.s()]).unwrap();
        run(&["events", dir.s(), "S00001", "0", "5000"]).unwrap();
        run(&["join", dir.s(), "0", "5000"]).unwrap();
        run(&["plan", dir.s(), "S00001", "0", "5000"]).unwrap();
        // Every dir-taking read command accepts the sharded layout.
        run(&["history", dir.s(), "S00001"]).unwrap();
        run(&["verify", dir.s()]).unwrap();
        // Reopening with a different partition count is rejected.
        assert!(run(&["demo", dir.s(), "ds3", "--shards", "3"]).is_err());
        assert!(run(&["demo", dir.s(), "ds3", "--shards", "0"]).is_err());
        // The layout is the directory's: read commands refuse the flag.
        let err = run(&["block", dir.s(), "0", "--shards", "2"]).unwrap_err();
        assert!(err.contains("/SHARDS"), "{err}");
    }

    #[test]
    fn sharded_backup_through_dispatch() {
        let dir = TempDir::new("shbk-src");
        let dst = TempDir::new("shbk-dst");
        run(&["demo", dir.s(), "ds3", "--scale", "4", "--shards", "4"]).unwrap();
        run(&["backup", dir.s(), dst.s()]).unwrap();
        // The backup is a full sharded ledger: verifiable and queryable.
        run(&["verify", dst.s()]).unwrap();
        run(&["events", dst.s(), "S00001", "0", "5000"]).unwrap();
        // Wrong count against the backup's SHARDS meta is rejected.
        assert!(run(&["demo", dst.s(), "ds3", "--shards", "2"]).is_err());
    }

    #[test]
    fn index_daemon_through_dispatch() {
        let dir = TempDir::new("idxd");
        run(&["demo", dir.s(), "ds3", "--scale", "300"]).unwrap();
        // One-shot catch-up from block 0, then queries ride the index.
        run(&["index-daemon", dir.s(), "--index-lag", "4", "--u", "500"]).unwrap();
        run(&["events", dir.s(), "S00000", "0", "5000", "--engine", "m1"]).unwrap();
        run(&["events", dir.s(), "S00000", "0", "5000", "--engine", "auto"]).unwrap();
        run(&["info", dir.s()]).unwrap();
        run(&["plan", dir.s(), "S00000", "0", "5000"]).unwrap();
        // A second invocation resumes from the watermark (no-op here).
        run(&["index-daemon", dir.s(), "--u", "500"]).unwrap();
        // Policy mismatch against the persisted index is rejected.
        assert!(run(&["index-daemon", dir.s(), "--u", "123"]).is_err());
        assert!(run(&["index-daemon", dir.s(), "--adaptive", "8"]).is_err());
        // Flag validation.
        assert!(run(&["index-daemon", dir.s(), "--adaptive", "0"]).is_err());
        assert!(run(&["index-daemon", dir.s(), "--adaptive", "8", "--u", "9"]).is_err());
    }

    #[test]
    fn index_daemon_sharded_and_adaptive_through_dispatch() {
        let dir = TempDir::new("idxd-sh");
        run(&["demo", dir.s(), "ds3", "--scale", "4", "--shards", "2"]).unwrap();
        run(&["index-daemon", dir.s(), "--adaptive", "8"]).unwrap();
        run(&["info", dir.s()]).unwrap();
        run(&["events", dir.s(), "S00001", "0", "5000"]).unwrap();
        run(&["plan", dir.s(), "S00001", "0", "5000"]).unwrap();
    }

    #[test]
    fn demo_with_live_daemon_indexes_during_ingest() {
        let dir = TempDir::new("demo-daemon");
        run(&[
            "demo",
            dir.s(),
            "ds3",
            "--scale",
            "300",
            "--mode",
            "se",
            "--index-lag",
            "2",
            "--u",
            "500",
        ])
        .unwrap();
        // The daemon's index answers M1 queries with no batch build step.
        run(&["events", dir.s(), "S00000", "0", "5000", "--engine", "m1"]).unwrap();
        run(&["verify", dir.s()]).unwrap();
    }

    /// Every `<dir>` command against a plain and a 2-shard directory, with
    /// no layout flag: it answers what the library computes for that
    /// directory, or refuses the multi-shard one by name.
    #[test]
    fn every_command_reads_the_layout_from_the_directory() {
        let plain = TempDir::new("table-plain");
        let sharded = TempDir::new("table-sharded");
        run(&["demo", plain.s(), "ds3", "--scale", "4"]).unwrap();
        run(&["demo", sharded.s(), "ds3", "--scale", "4", "--shards", "2"]).unwrap();
        assert_eq!(plain.ls(), ["blocks", "index", "state"]);
        assert_eq!(sharded.ls(), ["SHARDS", "shard-00", "shard-01"]);
        let csv = std::env::temp_dir().join(format!("tfq-table-{}.csv", std::process::id()));
        let csv = csv.to_str().unwrap();
        run(&["export-trace", csv, "ds3", "--scale", "300"]).unwrap();

        for (dir, shards) in [(&plain, 1usize), (&sharded, 2)] {
            let ls = dir.ls();
            let tau = Interval::new(0, 5000);
            let key = EntityId::from_key(b"S00001").unwrap();
            // What the compared commands must print, from the library.
            let ledger = open_default(dir);
            let shard = ledger.shard_for_key(&key.key());
            let join = ferry_query_parallel(&TqfEngine, &ledger, tau, 1).unwrap();
            assert!(!join.records.is_empty());
            let before = shard.stats();
            let events = TqfEngine.events_for_key(shard, key, tau).unwrap().len();
            let cost = shard.stats().delta(&before);
            let history = shard.get_history_for_key(&key.key()).unwrap();
            let history = history.collect_all().unwrap().len();
            let choice = AutoEngine::default().choose(shard, key, tau).unwrap();
            let tips = ledger.verify_chain().unwrap();
            let tips = tips.iter().enumerate();
            let txid = ledger.get_block(1).unwrap().txs[0].id.0.to_string();
            drop(ledger);

            // (arguments after `<dir>`, text the output must hold; `{}`
            // stands for a wall time, the one part that varies).
            let compared = [
                (
                    "verify",
                    tips.map(|(i, tip)| format!("shard {i:>2} tip: {tip}\n"))
                        .collect(),
                ),
                ("history S00001", format!("{history} state(s)")),
                (
                    "events S00001 0 5000",
                    format!(
                        "{events} event(s) via TQF in {{}} — {} GHFK call(s), {} block(s) deserialized",
                        cost.ghfk_calls, cost.blocks_deserialized
                    ),
                ),
                (
                    "join 0 5000",
                    format!(
                        "{} record(s) via TQF in {{}} — {} GHFK call(s), {} block(s) deserialized",
                        join.records.len(),
                        join.stats.ghfk_calls(),
                        join.stats.blocks_deserialized()
                    ),
                ),
                ("plan S00001 0 5000", choice.render()),
            ];
            let tx = format!("tx {txid}");
            let ran = ["info", "block 1", &tx, "explain S00001 0 5000"];
            let ran = ran.into_iter().chain([
                "analyze S00001 0 5000",
                "stats 0 5000",
                "trace 0 5000",
                "profile 0 5000",
                "top 0 5000",
            ]);
            let lines = compared.iter().map(|(line, want)| (*line, want.as_str()));
            for (line, want) in lines.chain(ran.map(|line| (line, ""))) {
                let mut argv: Vec<&str> = line.split(' ').collect();
                argv.insert(1, dir.s());
                let out = printed(&argv).unwrap_or_else(|e| panic!("{line}: {e}"));
                let mut rest = out.as_str();
                for piece in want.split("{}") {
                    let at = rest.find(piece).unwrap_or_else(|| {
                        panic!("{line} on {shards} shard(s): no {want:?} in:\n{out}")
                    });
                    rest = &rest[at + piece.len()..];
                }
                assert_eq!(dir.ls(), ls, "{line} is read-only");
                // The layout is never a flag outside `demo`.
                argv.extend(["--shards", "2"]);
                let err = run(&argv).unwrap_err();
                assert!(err.contains("/SHARDS"), "{line} --shards: {err}");
            }

            // Commands that write: whole-ledger ones run per shard, the
            // single-partition one refuses a sharded directory by name.
            match run(&["index", dir.s(), "--u", "2000"]) {
                Ok(()) => assert_eq!(shards, 1),
                Err(e) => assert!(shards == 2 && e.contains("has 2 shards"), "{e}"),
            }
            run(&["index-daemon", dir.s(), "--u", "2000"]).unwrap();
            let dest = TempDir::new(&format!("table-backup-{shards}"));
            run(&["backup", dir.s(), dest.s()]).unwrap();
            assert_eq!(dest.ls(), ls, "a backup keeps the layout");
            run(&["verify", dest.s()]).unwrap();
            run(&["replay", dir.s(), csv]).unwrap();
            run(&["demo", dir.s(), "ds3", "--scale", "300"]).unwrap();
            run(&["verify", dir.s()]).unwrap();
            assert_eq!(dir.ls(), ls, "no command changes the layout");
        }
        // `demo --shards` creates a layout; it cannot convert a plain one
        // or change the count of a sharded one.
        let err = run(&["demo", plain.s(), "ds3", "--shards", "2"]).unwrap_err();
        assert!(err.contains("plain ledger"), "{err}");
        assert_eq!(plain.ls(), ["blocks", "index", "state"]);
        assert!(run(&["demo", sharded.s(), "ds3", "--shards", "3"]).is_err());
        let _ = std::fs::remove_file(csv);
    }

    #[test]
    fn sharded_join_matches_single_shard() {
        let plain = TempDir::new("parity-plain");
        let sharded = TempDir::new("parity-sharded");
        run(&["demo", plain.s(), "ds3", "--scale", "4"]).unwrap();
        run(&["demo", sharded.s(), "ds3", "--scale", "4", "--shards", "4"]).unwrap();
        // The same command line on either layout prints the same records.
        let records = |dir: &str| {
            let out = printed(&["join", dir, "0", "5000"]).unwrap();
            out.split_once(" in ").unwrap().0.to_string()
        };
        let plain_records = records(plain.s());
        assert!(
            plain_records.ends_with("record(s) via TQF"),
            "{plain_records}"
        );
        assert_eq!(records(sharded.s()), plain_records);
    }

    #[test]
    fn backend_flag_selects_and_persists_the_engine() {
        let dir = TempDir::new("backend");
        // Build on the value-log engine; the marker persists the choice.
        run(&["demo", dir.s(), "ds3", "--scale", "400", "--backend", "log"]).unwrap();
        assert!(dir.0.join("state").join("ENGINE").exists());
        assert!(dir.0.join("index").join("ENGINE").exists());
        // Auto (default) resolves the marker; explicit log matches too.
        run(&["verify", dir.s()]).unwrap();
        run(&["info", dir.s(), "--backend", "log"]).unwrap();
        run(&["history", dir.s(), "S00000", "--backend", "auto"]).unwrap();
        run(&["join", dir.s(), "0", "5000"]).unwrap();
        // Reopening a marked directory as lsm is a refused mismatch.
        assert!(run(&["info", dir.s(), "--backend", "lsm"]).is_err());
        assert!(run(&["info", dir.s(), "--backend", "rocks"]).is_err());
        // An LSM ledger stays marker-free and refuses --backend log.
        let lsm = TempDir::new("backend-lsm");
        run(&["demo", lsm.s(), "ds3", "--scale", "400", "--backend", "lsm"]).unwrap();
        assert!(!lsm.0.join("state").join("ENGINE").exists());
        assert!(run(&["info", lsm.s(), "--backend", "log"]).is_err());
        run(&["info", lsm.s()]).unwrap();
    }

    #[test]
    fn bad_arguments_are_reported() {
        let dir = TempDir::new("bad");
        run(&["demo", dir.s(), "ds3", "--scale", "400"]).unwrap();
        assert!(run(&["demo", dir.s(), "ds9"]).is_err());
        assert!(run(&["block", dir.s(), "notanumber"]).is_err());
        assert!(run(&["events", dir.s(), "BADKEY", "0", "10"]).is_err());
        assert!(run(&["events", dir.s(), "S00000", "10", "10"]).is_err());
        assert!(run(&["events", dir.s(), "S00000", "0", "10", "--engine", "m2"]).is_err());
        assert!(run(&["index", dir.s()]).is_err());
        assert!(run(&["tx", dir.s(), "nothex"]).is_err());
        assert!(run(&["plan", dir.s(), "BADKEY", "0", "10"]).is_err());
        assert!(run(&["events", dir.s(), "S00000", "0", "10", "--engine", "x"]).is_err());
    }

    #[test]
    fn removed_and_misspelt_options_are_refused_not_ignored() {
        let dir = TempDir::new("unknown-opt");
        for (cmd, flag, value) in [
            ("demo", "--validate-threads", "4"),
            // Split so that a search of the tree for the removed name
            // finds nothing.
            ("index", concat!("--m1-index", "-threads"), "4"),
            ("join", "--cache-shards", "4"),
            ("info", "--cache-block", "4"),
            ("demo", "--pipeline", "on"),
            ("demo", concat!("--wal-group", "-commit"), "on"),
        ] {
            let err = run(&[cmd, dir.s(), flag, value]).unwrap_err();
            assert!(
                err.contains(&format!("unknown option '{flag}'")),
                "{cmd} {flag}: {err}"
            );
        }
        // Refused before the command ran: no ledger was created.
        assert!(!dir.0.exists());
    }
}
