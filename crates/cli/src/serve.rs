//! `tfq serve` — expose a ledger's live telemetry over HTTP.
//!
//! The server wires three always-on observability pieces together:
//!
//! * every scrape of `/metrics` refreshes the ledger's occupancy gauges
//!   ([`fabric_ledger::Ledger::publish_gauges`]) and renders the
//!   registry in Prometheus text format;
//! * `/flight` dumps the flight recorder (recently completed spans);
//! * `--slow-ms` / `--slow-factor` install a slow-query log whose JSONL
//!   records go to `--slow-log <path>` or stderr.

use std::sync::Arc;

use fabric_ledger::{Ledger, LedgerConfig};
use fabric_telemetry::{MetricsServer, SlowLogConfig, Telemetry};

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
    let ledger = Arc::new(Ledger::open(dir, LedgerConfig::default()).map_err(|e| e.to_string())?);
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

    // With --index-lag an M1 indexer daemon chases the chain tip for the
    // server's lifetime, stopped with a final flush when the server exits.
    let daemon = if args.opt("index-lag").is_some() {
        let cfg = crate::commands::daemon_config_from(args)?;
        let daemon = temporal_core::IndexerDaemon::new(Arc::clone(&ledger), cfg);
        Some(daemon.map_err(|e| e.to_string())?.spawn())
    } else {
        None
    };

    // Every scrape refreshes the occupancy gauges and the M1 freshness
    // gauges (`m1.indexed_horizon` / `m1.lag_blocks` /
    // `m1.theta_generations`) from the on-chain watermark records.
    let collect: Box<dyn Fn(&Telemetry) + Send + Sync> = Box::new(move |_tel| {
        ledger.publish_gauges();
        let _ = temporal_core::publish_m1_gauges(&ledger);
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

#[cfg(test)]
mod tests {
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
