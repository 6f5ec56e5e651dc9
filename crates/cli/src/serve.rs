//! `tfq serve` — expose a ledger's live telemetry over HTTP, and
//! `tfq bench-diff` — compare two machine-readable bench result files.
//!
//! The server wires three always-on observability pieces together:
//!
//! * every scrape of `/metrics` refreshes the ledger's occupancy gauges
//!   ([`fabric_ledger::ShardedLedger::publish_gauges`]) and renders the
//!   registry in Prometheus text format;
//! * `/flight` dumps the flight recorder (recently completed spans);
//! * `--slow-ms` / `--slow-factor` install a slow-query log whose JSONL
//!   records go to `--slow-log <path>` or stderr.

use std::sync::Arc;

use fabric_ledger::{LedgerConfig, ShardedLedger};
use fabric_telemetry::{MetricsServer, SlowLogConfig, Telemetry};
use temporal_bench::regress::{diff, BenchFile, DiffConfig};

use crate::args::Args;

type CliResult = Result<(), String>;

/// `tfq serve <dir> [--addr HOST:PORT] [--slow-ms N] [--slow-factor F]
/// [--slow-log PATH] [--addr-file PATH] [--requests N]`
///
/// Blocks serving `/metrics`, `/healthz` and `/flight` until killed (or
/// until `--requests` requests have been answered — used by tests).
pub fn serve(args: &Args) -> CliResult {
    let dir = args.pos(1, "dir")?;
    let addr = args.opt("addr").unwrap_or("127.0.0.1:9464");
    let ledger =
        Arc::new(ShardedLedger::open(dir, LedgerConfig::default()).map_err(|e| e.to_string())?);
    let tel: Telemetry = ledger.telemetry().clone();
    tel.enable();

    let slow_ms = args.opt_u64("slow-ms")?;
    let slow_factor = args
        .opt("slow-factor")
        .map(|v| {
            v.parse::<f64>()
                .map_err(|_| "--slow-factor must be a number".to_string())
        })
        .transpose()?;
    if slow_ms.is_some() || slow_factor.is_some() || args.opt("slow-log").is_some() {
        let mut config = SlowLogConfig::threshold_ms(slow_ms.unwrap_or(100));
        config.p99_factor = slow_factor;
        let sink: Box<dyn std::io::Write + Send> = match args.opt("slow-log") {
            Some(path) => Box::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .map_err(|e| format!("cannot open slow log {path}: {e}"))?,
            ),
            None => Box::new(std::io::stderr()),
        };
        tel.install_slow_log(config, sink);
    }

    // With --index-lag one M1 indexer daemon per shard chases the chain
    // tip for the server's lifetime, stopped with a final flush when the
    // server exits.
    let daemon = if args.opt("index-lag").is_some() {
        let cfg = crate::commands::daemon_config_from(args)?;
        Some(temporal_core::ShardedDaemon::spawn(&ledger, cfg).map_err(|e| e.to_string())?)
    } else {
        None
    };

    // Every scrape refreshes the occupancy gauges (totals plus per-shard
    // `ledger.shard.<i>.blocks` / `.events`) and the M1 freshness gauges
    // (`m1.indexed_horizon` / `m1.lag_blocks` / `m1.theta_generations`)
    // from the on-chain watermark records.
    let collect: Box<dyn Fn(&Telemetry) + Send + Sync> = Box::new(move |_tel| {
        ledger.publish_gauges();
        let _ = temporal_core::publish_m1_gauges_sharded(&ledger);
    });
    let mut server = MetricsServer::bind(addr, tel, Some(collect))
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    if let Some(n) = args.opt_u64("requests")? {
        server = server.with_max_requests(n);
    }
    let bound = server.local_addr().map_err(|e| e.to_string())?;
    // Tests (and scripts) bind port 0 and read the resolved address back.
    if let Some(path) = args.opt("addr-file") {
        std::fs::write(path, bound.to_string())
            .map_err(|e| format!("cannot write addr file {path}: {e}"))?;
    }
    println!("serving http://{bound}/metrics  /healthz  /flight  (ledger: {dir})");
    let outcome = server.run().map_err(|e| e.to_string());
    if let Some(daemon) = daemon {
        daemon.stop().map_err(|e| e.to_string())?;
    }
    outcome
}

/// `tfq bench-diff <baseline.json> <current.json> [--time-tol F]
/// [--time-slack SECS] [--counter-tol F] [--counter-tol-for PAT=F]...`
///
/// Prints a per-metric comparison; errors (non-zero exit) when any metric
/// regressed beyond tolerance, a baseline metric vanished, or the two
/// files are not comparable. `--counter-tol-for` may repeat: each
/// `pattern=tolerance` pair loosens only counters whose key contains the
/// pattern (e.g. `--counter-tol-for txs_decoded=0.05`), leaving every
/// other counter on the exact default.
pub fn bench_diff(args: &Args) -> CliResult {
    let read = |i: usize, name: &str| -> Result<BenchFile, String> {
        let path = args.pos(i, name)?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        BenchFile::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let baseline = read(1, "baseline.json")?;
    let current = read(2, "current.json")?;
    let mut cfg = DiffConfig::default();
    let parse_f64 = |name: &str| -> Result<Option<f64>, String> {
        args.opt(name)
            .map(|v| {
                v.parse::<f64>()
                    .map_err(|_| format!("--{name} must be a number"))
            })
            .transpose()
    };
    if let Some(v) = parse_f64("time-tol")? {
        cfg.time_tolerance = v;
    }
    if let Some(v) = parse_f64("time-slack")? {
        cfg.time_slack = v;
    }
    if let Some(v) = parse_f64("counter-tol")? {
        cfg.counter_tolerance = v;
    }
    for spec in args.opt_all("counter-tol-for") {
        let (pattern, tol) = spec
            .split_once('=')
            .ok_or_else(|| format!("--counter-tol-for must be pattern=tolerance, got {spec:?}"))?;
        let tol: f64 = tol
            .parse()
            .map_err(|_| format!("--counter-tol-for {spec:?}: tolerance must be a number"))?;
        cfg.counter_overrides.push((pattern.to_string(), tol));
    }
    let report = diff(&baseline, &current, &cfg);
    print!("{}", report.render());
    if report.has_regression() {
        Err("bench regression detected".to_string())
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use temporal_bench::regress::{MachineInfo, MetricKind};

    use super::*;
    use crate::commands::dispatch;

    fn run(args: &[&str]) -> CliResult {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        dispatch(&argv)
    }

    struct TempDir(std::path::PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let p = std::env::temp_dir().join(format!(
                "tfq-serve-test-{}-{tag}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&p);
            std::fs::create_dir_all(&p).unwrap();
            TempDir(p)
        }
        fn path(&self, name: &str) -> std::path::PathBuf {
            self.0.join(name)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// The address a `serve --addr-file` thread bound, once it has
    /// written it.
    fn bound_addr(addr_file: &std::path::Path) -> std::net::SocketAddr {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            if let Ok(text) = std::fs::read_to_string(addr_file) {
                if let Ok(addr) = text.trim().parse() {
                    return addr;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "addr file never appeared"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
    }

    fn bench_json(dir: &TempDir, name: &str, join_s: f64, blocks: f64) -> String {
        let mut f = BenchFile::new("table1", MachineInfo::capture(100));
        f.insert("ds3/se/tqf/join_s", join_s, MetricKind::Time);
        f.insert("ds3/se/tqf/blocks", blocks, MetricKind::Counter);
        let path = dir.path(name);
        std::fs::write(&path, f.to_json()).unwrap();
        path.to_str().unwrap().to_string()
    }

    #[test]
    fn bench_diff_exit_codes() {
        let dir = TempDir::new("diff");
        let base = bench_json(&dir, "base.json", 1.0, 40.0);
        let same = bench_json(&dir, "same.json", 1.05, 40.0);
        let slow = bench_json(&dir, "slow.json", 2.0, 40.0);
        let drift = bench_json(&dir, "drift.json", 1.0, 41.0);
        assert!(run(&["bench-diff", &base, &same]).is_ok());
        let err = run(&["bench-diff", &base, &slow]).unwrap_err();
        assert!(err.contains("regression"), "{err}");
        assert!(run(&["bench-diff", &base, &drift]).is_err());
        // Loosened tolerances rescue both.
        assert!(run(&["bench-diff", &base, &slow, "--time-tol", "1.5"]).is_ok());
        assert!(run(&["bench-diff", &base, &drift, "--counter-tol", "0.1"]).is_ok());
        // Unreadable / malformed inputs are errors, not silent passes.
        assert!(run(&["bench-diff", &base, "/nonexistent.json"]).is_err());
        let garbage = dir.path("garbage.json");
        std::fs::write(&garbage, "not json").unwrap();
        assert!(run(&["bench-diff", &base, garbage.to_str().unwrap()]).is_err());
        assert!(run(&["bench-diff", &base]).is_err());
    }

    #[test]
    fn bench_diff_counter_tol_for_targets_one_family() {
        let dir = TempDir::new("diff-for");
        let write = |name: &str, blocks: f64, txs: f64| -> String {
            let mut f = BenchFile::new("table1", MachineInfo::capture(100));
            f.insert("ds3/se/tqf/blocks", blocks, MetricKind::Counter);
            f.insert("ds3/se/tqf/txs_decoded", txs, MetricKind::Counter);
            let path = dir.path(name);
            std::fs::write(&path, f.to_json()).unwrap();
            path.to_str().unwrap().to_string()
        };
        let base = write("base.json", 40.0, 400.0);
        let tx_drift = write("txdrift.json", 40.0, 410.0);
        let blk_drift = write("blkdrift.json", 41.0, 400.0);
        assert!(run(&["bench-diff", &base, &tx_drift]).is_err());
        assert!(run(&[
            "bench-diff",
            &base,
            &tx_drift,
            "--counter-tol-for",
            "txs_decoded=0.05",
        ])
        .is_ok());
        // The override must not rescue other counters.
        assert!(run(&[
            "bench-diff",
            &base,
            &blk_drift,
            "--counter-tol-for",
            "txs_decoded=0.05",
        ])
        .is_err());
        // Malformed specs are hard errors.
        assert!(run(&["bench-diff", &base, &base, "--counter-tol-for", "nope"]).is_err());
        assert!(run(&["bench-diff", &base, &base, "--counter-tol-for", "k=x"]).is_err());
    }

    #[test]
    fn serve_sharded_publishes_per_shard_gauges() {
        let dir = TempDir::new("serve-sharded");
        let ledger_dir = dir.path("ledger");
        run(&[
            "demo",
            ledger_dir.to_str().unwrap(),
            "ds3",
            "--scale",
            "4",
            "--shards",
            "2",
        ])
        .unwrap();
        let addr_file = dir.path("addr");
        let argv: Vec<String> = [
            "serve",
            ledger_dir.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--addr-file",
            addr_file.to_str().unwrap(),
            "--requests",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let server = std::thread::spawn(move || dispatch(&argv));
        let addr = bound_addr(&addr_file);
        let (code, metrics) = fabric_telemetry::http_get(addr, "/metrics").unwrap();
        assert_eq!(code, 200);
        for g in [
            "tf_ledger_height",
            "tf_ledger_shards 2",
            "tf_ledger_shard_0_blocks",
            "tf_ledger_shard_1_blocks",
            "tf_ledger_shard_0_events",
            "tf_ledger_shard_1_events",
        ] {
            assert!(metrics.contains(g), "missing {g}: {metrics}");
        }
        server.join().unwrap().unwrap();
        // The layout comes from the directory, never from a flag.
        let err = run(&["serve", ledger_dir.to_str().unwrap(), "--shards", "2"]).unwrap_err();
        assert!(err.contains("/SHARDS"), "{err}");
    }

    #[test]
    fn serve_with_daemon_exports_m1_freshness_gauges() {
        let dir = TempDir::new("serve-m1");
        let ledger_dir = dir.path("ledger");
        run(&[
            "demo",
            ledger_dir.to_str().unwrap(),
            "ds3",
            "--scale",
            "300",
        ])
        .unwrap();
        // Persist a watermark first so the very first scrape already sees
        // on-chain freshness records (the serve-time daemon resumes from
        // it and has nothing left to do — deterministic for the test).
        run(&["index-daemon", ledger_dir.to_str().unwrap(), "--u", "500"]).unwrap();
        let addr_file = dir.path("addr");
        let argv: Vec<String> = [
            "serve",
            ledger_dir.to_str().unwrap(),
            "--index-lag",
            "4",
            "--u",
            "500",
            "--addr",
            "127.0.0.1:0",
            "--addr-file",
            addr_file.to_str().unwrap(),
            "--requests",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let server = std::thread::spawn(move || dispatch(&argv));
        let addr = bound_addr(&addr_file);
        let (code, metrics) = fabric_telemetry::http_get(addr, "/metrics").unwrap();
        assert_eq!(code, 200);
        server.join().unwrap().unwrap();
        for g in [
            "tf_m1_indexed_horizon",
            "tf_m1_lag_blocks",
            "tf_m1_theta_generations",
        ] {
            assert!(metrics.contains(g), "missing {g}: {metrics}");
        }
    }

    #[test]
    fn serve_answers_metrics_health_and_flight() {
        let dir = TempDir::new("serve");
        let ledger_dir = dir.path("ledger");
        run(&[
            "demo",
            ledger_dir.to_str().unwrap(),
            "ds3",
            "--scale",
            "400",
        ])
        .unwrap();
        let addr_file = dir.path("addr");
        let slow_log = dir.path("slow.jsonl");
        let argv: Vec<String> = [
            "serve",
            ledger_dir.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--addr-file",
            addr_file.to_str().unwrap(),
            "--slow-ms",
            "0",
            "--slow-log",
            slow_log.to_str().unwrap(),
            "--requests",
            "4",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let server = std::thread::spawn(move || dispatch(&argv));
        let addr = bound_addr(&addr_file);
        let (code, health) = fabric_telemetry::http_get(addr, "/healthz").unwrap();
        assert_eq!((code, health.as_str()), (200, "ok\n"));
        let (code, _) = fabric_telemetry::http_get(addr, "/nope").unwrap();
        assert_eq!(code, 404);
        let (code, metrics) = fabric_telemetry::http_get(addr, "/metrics").unwrap();
        assert_eq!(code, 200);
        // The collect hook publishes ledger gauges on every scrape.
        assert!(metrics.contains("tf_ledger_height"), "{metrics}");
        assert!(metrics.contains("tf_statedb_sstables"), "{metrics}");
        // Process-memory gauges ride along; this test binary installs
        // the counting allocator (like the shipped tfq), so the heap
        // gauges must be live, not just present.
        assert!(metrics.contains("tf_mem_rss_bytes"), "{metrics}");
        assert!(metrics.contains("tf_mem_counting_allocator 1"), "{metrics}");
        for g in ["tf_mem_heap_live_bytes", "tf_mem_alloc_bytes_total"] {
            let line = metrics
                .lines()
                .find(|l| l.starts_with(g))
                .unwrap_or_else(|| panic!("missing {g}: {metrics}"));
            let v: f64 = line.split_whitespace().last().unwrap().parse().unwrap();
            assert!(v > 0.0, "{g} not live: {line}");
        }
        let (code, flight) = fabric_telemetry::http_get(addr, "/flight").unwrap();
        assert_eq!(code, 200);
        assert!(flight.starts_with('{'), "{flight}");
        server.join().unwrap().unwrap();
    }
}
