//! End-to-end acceptance for the continuous-observability subsystem: a
//! real ledger served over HTTP must expose a parseable Prometheus
//! exposition (counters, gauges, histograms with cumulative buckets), the
//! flight recorder must retain recent root spans, and a slow query must
//! produce a JSONL record carrying its full span tree.

use std::collections::BTreeMap;
use std::sync::Arc;

use fabric_ledger::{Ledger, LedgerConfig};
use fabric_telemetry::{http_get, MetricsServer, SlowLogConfig};
use fabric_workload::dataset::{generate_scaled, DatasetId};
use fabric_workload::ingest::{ingest, IdentityEncoder, IngestMode};
use temporal_core::interval::Interval;
use temporal_core::join::ferry_query;
use temporal_core::tqf::TqfEngine;

struct TempDir(std::path::PathBuf);
impl TempDir {
    fn new(tag: &str) -> Self {
        let p = std::env::temp_dir().join(format!(
            "metrics-ep-test-{}-{tag}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }
}
impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A queried ledger with telemetry enabled (spans + histograms populated).
fn queried_ledger(dir: &TempDir) -> Arc<Ledger> {
    let workload = generate_scaled(DatasetId::Ds3, 400);
    let ledger = Ledger::open(&dir.0, LedgerConfig::default()).unwrap();
    ledger.telemetry().enable();
    ingest(
        &ledger,
        &workload.events,
        IngestMode::SingleEvent,
        &IdentityEncoder,
    )
    .unwrap();
    ferry_query(
        &TqfEngine,
        &ledger,
        Interval::new(0, workload.params.t_max / 2),
    )
    .unwrap();
    Arc::new(ledger)
}

/// Parsed exposition: TYPE declarations plus every sample line.
struct Exposition {
    types: BTreeMap<String, String>,
    samples: Vec<(String, f64)>,
}

fn parse_exposition(text: &str) -> Exposition {
    let mut types = BTreeMap::new();
    let mut samples = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split(' ');
            let name = it.next().expect("TYPE name").to_string();
            let kind = it.next().expect("TYPE kind").to_string();
            assert!(it.next().is_none(), "malformed TYPE line: {line}");
            types.insert(name, kind);
            continue;
        }
        assert!(!line.starts_with('#'), "unexpected comment: {line}");
        let (series, value) = line.rsplit_once(' ').expect(line);
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("bad value: {line}"));
        // Metric names must stay within the Prometheus charset.
        let name_part = series.split('{').next().unwrap();
        assert!(
            name_part
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "invalid metric name: {series}"
        );
        samples.push((series.to_string(), value));
    }
    Exposition { types, samples }
}

impl Exposition {
    fn value(&self, series: &str) -> Option<f64> {
        self.samples
            .iter()
            .find(|(s, _)| s == series)
            .map(|(_, v)| *v)
    }

    fn names_of_kind(&self, kind: &str) -> Vec<&str> {
        self.types
            .iter()
            .filter(|(_, k)| k.as_str() == kind)
            .map(|(n, _)| n.as_str())
            .collect()
    }
}

#[test]
fn metrics_endpoint_serves_parseable_prometheus_exposition() {
    let dir = TempDir::new("scrape");
    let ledger = queried_ledger(&dir);
    let tel = ledger.telemetry().clone();
    let collect_ledger = ledger.clone();
    let server = MetricsServer::bind(
        "127.0.0.1:0",
        tel,
        Some(Box::new(move |_| collect_ledger.publish_gauges())),
    )
    .unwrap()
    .with_max_requests(2);
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().unwrap());

    let (code, health) = http_get(addr, "/healthz").unwrap();
    assert_eq!((code, health.as_str()), (200, "ok\n"));
    let (code, body) = http_get(addr, "/metrics").unwrap();
    assert_eq!(code, 200);
    handle.join().unwrap();

    let exp = parse_exposition(&body);

    // At least one counter fed by the query (block deserialisation).
    let counters = exp.names_of_kind("counter");
    assert!(!counters.is_empty(), "no counters in: {body}");
    assert!(
        exp.value("tf_ledger_blocks_deserialized").unwrap_or(0.0) > 0.0,
        "query did not feed the block counter: {body}"
    );

    // Ledger/kvstore occupancy gauges refreshed by the collect hook.
    let gauges = exp.names_of_kind("gauge");
    assert!(
        gauges.iter().any(|g| g.starts_with("tf_statedb_")),
        "no statedb gauges: {gauges:?}"
    );
    assert!(exp.value("tf_ledger_height").unwrap_or(0.0) > 0.0);

    // A histogram with cumulative buckets whose +Inf equals _count.
    let histograms = exp.names_of_kind("histogram");
    assert!(!histograms.is_empty(), "no histograms in: {body}");
    for name in histograms {
        let buckets: Vec<f64> = exp
            .samples
            .iter()
            .filter(|(s, _)| s.starts_with(&format!("{name}_bucket{{")))
            .map(|(_, v)| *v)
            .collect();
        assert!(!buckets.is_empty(), "{name} has no buckets");
        assert!(
            buckets.windows(2).all(|w| w[0] <= w[1]),
            "{name} buckets not cumulative: {buckets:?}"
        );
        let inf = exp
            .value(&format!("{name}_bucket{{le=\"+Inf\"}}"))
            .unwrap_or_else(|| panic!("{name} lacks an +Inf bucket"));
        assert_eq!(Some(inf), exp.value(&format!("{name}_count")));
    }
}

#[test]
fn flight_recorder_retains_recent_roots_and_serves_them() {
    let dir = TempDir::new("flight");
    let ledger = queried_ledger(&dir);
    let tel = ledger.telemetry().clone();

    // Many more root spans than the root ring holds: only the most recent
    // N survive, and the recorder says how many were dropped.
    tel.flight().set_capacity(256, 16);
    for i in 0..100u64 {
        let mut s = tel.span("flood.root");
        s.record("i", i);
    }
    let roots = tel.flight().recent_roots();
    assert_eq!(roots.len(), 16, "root ring must cap retention");
    assert!(roots.iter().all(|r| r.name == "flood.root"));
    assert!(
        roots[roots.len() - 1].metric("i") == Some(99),
        "newest root must be retained"
    );
    assert!(tel.flight().dropped() > 0);

    let server = MetricsServer::bind("127.0.0.1:0", tel, None)
        .unwrap()
        .with_max_requests(1);
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().unwrap());
    let (code, flight) = http_get(addr, "/flight").unwrap();
    handle.join().unwrap();
    assert_eq!(code, 200);
    assert!(flight.contains("\"recorded\""), "{flight}");
    assert!(flight.contains("flood.root"), "{flight}");
}

#[test]
fn slow_query_emits_jsonl_with_full_span_tree() {
    let dir = TempDir::new("slow");
    let ledger = queried_ledger(&dir);
    let tel = ledger.telemetry().clone();
    let (buffer, sink) = fabric_telemetry::slowlog::memory_sink();
    // Threshold 0: every root span is "slow", so one real query must
    // produce at least one record.
    tel.install_slow_log(
        SlowLogConfig {
            threshold_ns: 0,
            p99_factor: None,
            min_samples: u64::MAX,
        },
        sink,
    );
    ferry_query(&TqfEngine, &ledger, Interval::new(0, 1_000)).unwrap();
    tel.remove_slow_log();

    let logged = String::from_utf8(buffer.lock().unwrap().clone()).unwrap();
    let record = logged
        .lines()
        .find(|l| l.contains("\"name\":\"query.ferry\""))
        .unwrap_or_else(|| panic!("no query.ferry slow record in: {logged}"));
    // One JSON object per line, carrying the whole span tree: the root
    // query span must contain its per-phase children and, transitively,
    // the ledger's GHFK spans.
    assert!(record.starts_with('{') && record.ends_with('}'), "{record}");
    assert!(record.contains("\"kind\":\"slow_query\""), "{record}");
    assert!(record.contains("\"threshold_ns\":0"), "{record}");
    assert!(record.contains("\"children\":["), "{record}");
    assert!(record.contains("ferry.shipments"), "{record}");
    assert!(record.contains("ferry.join"), "{record}");
    assert!(record.contains("\"ghfk\""), "{record}");
}
