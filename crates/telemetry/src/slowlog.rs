//! Slow-query log: JSONL records for anomalously slow root spans.
//!
//! When a *root* span (no parent — a whole `query.ferry`, a whole
//! `tqf.key`/`m1.key`/`m2.key` retrieval, a whole `ledger.commit`)
//! finishes slower than a configured threshold, the full span tree is
//! reassembled from the [flight recorder](crate::flight) and dumped as one
//! JSON line to a sink (a file, stderr, or an in-memory buffer in tests).
//!
//! The threshold is the max of an absolute floor and, optionally, a
//! p99-relative bound: with [`SlowLogConfig::p99_factor`] set, a span is
//! slow once its duration exceeds `factor × p99` of its own name's latency
//! histogram (ignored until [`SlowLogConfig::min_samples`] samples exist,
//! so cold starts don't spam the log). The absolute floor keeps
//! microsecond-scale spans out of the log even when they are relative
//! outliers.
//!
//! Each record carries the root's name/label/duration, the threshold that
//! fired, the reassembled span tree with per-span metrics (the metrics are
//! the I/O deltas the instrumentation attaches — blocks deserialized, GHFK
//! calls, records produced), and a monotone sequence number.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::export::json_escape;
use crate::histogram::HistogramSnapshot;
use crate::span::{SpanNode, SpanRecord};

/// When a root span is considered slow. See the module docs.
#[derive(Debug, Clone, Copy)]
pub struct SlowLogConfig {
    /// Absolute threshold in nanoseconds; a root span at least this slow
    /// is always logged. Also the floor under the p99-relative bound.
    pub threshold_ns: u64,
    /// Optional p99-relative bound: log when `dur > factor × p99(name)`.
    pub p99_factor: Option<f64>,
    /// Samples a span-name histogram needs before the p99 bound applies.
    pub min_samples: u64,
}

impl Default for SlowLogConfig {
    fn default() -> Self {
        SlowLogConfig {
            threshold_ns: 100_000_000, // 100ms
            p99_factor: None,
            min_samples: 32,
        }
    }
}

impl SlowLogConfig {
    /// Absolute-only config with a millisecond threshold.
    pub fn threshold_ms(ms: u64) -> Self {
        SlowLogConfig {
            threshold_ns: ms.saturating_mul(1_000_000),
            ..Self::default()
        }
    }

    /// The effective threshold for a span given its latency histogram:
    /// `max(threshold_ns, factor × p99)` once enough samples exist,
    /// otherwise just the absolute floor.
    pub fn effective_threshold(&self, hist: Option<&HistogramSnapshot>) -> u64 {
        match (self.p99_factor, hist) {
            (Some(factor), Some(h)) if h.count >= self.min_samples => {
                let relative = (h.p99() as f64 * factor) as u64;
                self.threshold_ns.max(relative)
            }
            _ => self.threshold_ns,
        }
    }
}

/// An installed slow-query log: config plus a line sink.
pub struct SlowLog {
    config: SlowLogConfig,
    sink: Mutex<Box<dyn Write + Send>>,
    records: AtomicU64,
}

impl std::fmt::Debug for SlowLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlowLog")
            .field("config", &self.config)
            .field("records", &self.records_written())
            .finish()
    }
}

impl SlowLog {
    /// A slow log writing JSONL records to `sink`.
    pub fn new(config: SlowLogConfig, sink: Box<dyn Write + Send>) -> Self {
        SlowLog {
            config,
            sink: Mutex::new(sink),
            records: AtomicU64::new(0),
        }
    }

    /// The installed config.
    pub fn config(&self) -> &SlowLogConfig {
        &self.config
    }

    /// Number of records written so far.
    pub fn records_written(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }

    /// Emit one record (the caller has already decided it is slow).
    pub fn log(&self, tree: &SpanNode, threshold_ns: u64) {
        let seq = self.records.fetch_add(1, Ordering::Relaxed);
        let line = render_slow_record(tree, threshold_ns, seq);
        let mut sink = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        let _ = writeln!(sink, "{line}");
        let _ = sink.flush();
    }
}

/// One flat span as a JSON object (no children).
pub fn span_json(record: &SpanRecord) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"id\":{},\"trace\":{},\"thread\":{},\"name\":\"{}\"",
        record.id,
        record.trace,
        record.thread,
        json_escape(record.name)
    );
    if let Some(parent) = record.parent {
        let _ = write!(out, ",\"parent\":{parent}");
    }
    if let Some(label) = &record.label {
        let _ = write!(out, ",\"label\":\"{}\"", json_escape(label));
    }
    let _ = write!(
        out,
        ",\"start_ns\":{},\"dur_ns\":{}",
        record.start_ns, record.dur_ns
    );
    // Allocation charges from the counting allocator: omitted when all
    // zero (no allocator installed) so existing consumers see no change.
    if record.alloc_bytes > 0 || record.alloc_calls > 0 || record.peak_bytes > 0 {
        let _ = write!(
            out,
            ",\"alloc_bytes\":{},\"alloc_calls\":{},\"peak_bytes\":{}",
            record.alloc_bytes, record.alloc_calls, record.peak_bytes
        );
    }
    if !record.metrics.is_empty() {
        out.push_str(",\"metrics\":{");
        for (i, (m, v)) in record.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{v}", json_escape(m));
        }
        out.push('}');
    }
    out.push('}');
    out
}

/// A span tree as nested JSON (`children` arrays).
pub fn tree_json(node: &SpanNode) -> String {
    let mut out = span_json(&node.record);
    if !node.children.is_empty() {
        out.pop(); // reopen the object
        out.push_str(",\"children\":[");
        for (i, child) in node.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&tree_json(child));
        }
        out.push_str("]}");
    }
    out
}

/// One slow-query JSONL record.
pub fn render_slow_record(tree: &SpanNode, threshold_ns: u64, seq: u64) -> String {
    use std::fmt::Write as _;
    let root = &tree.record;
    let mut out = String::from("{\"kind\":\"slow_query\"");
    let _ = write!(
        out,
        ",\"seq\":{seq},\"name\":\"{}\"",
        json_escape(root.name)
    );
    if let Some(label) = &root.label {
        let _ = write!(out, ",\"label\":\"{}\"", json_escape(label));
    }
    let _ = write!(
        out,
        ",\"trace\":{},\"dur_ns\":{},\"threshold_ns\":{threshold_ns},\"start_ns\":{},\"spans\":{}",
        root.trace,
        root.dur_ns,
        root.start_ns,
        count_spans(tree)
    );
    // Hoist the planner's decision (chosen engine + certified bounds) to
    // the top level so a slow query is attributable to a misprediction
    // without digging through the tree or re-running `tfq analyze`.
    if let Some(choice) = find_named(tree, "planner.choice") {
        out.push_str(",\"planner\":{");
        let mut first = true;
        if let Some(label) = &choice.label {
            let _ = write!(out, "\"engine\":\"{}\"", json_escape(label));
            first = false;
        }
        for (m, v) in &choice.metrics {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\"{}\":{v}", json_escape(m));
        }
        out.push('}');
    }
    let _ = write!(out, ",\"tree\":{}", tree_json(tree));
    out.push('}');
    out
}

/// Depth-first search for the first span named `name` in the tree.
fn find_named<'a>(node: &'a SpanNode, name: &str) -> Option<&'a SpanRecord> {
    if node.record.name == name {
        return Some(&node.record);
    }
    node.children.iter().find_map(|c| find_named(c, name))
}

fn count_spans(node: &SpanNode) -> usize {
    1 + node.children.iter().map(count_spans).sum::<usize>()
}

/// An in-memory sink for tests: lines written through the returned writer
/// accumulate in the shared buffer.
pub fn memory_sink() -> (
    std::sync::Arc<Mutex<Vec<u8>>>,
    Box<dyn Write + Send + 'static>,
) {
    struct Shared(std::sync::Arc<Mutex<Vec<u8>>>);
    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let buffer = std::sync::Arc::new(Mutex::new(Vec::new()));
    (buffer.clone(), Box::new(Shared(buffer)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, name: &'static str, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            trace: 1,
            thread: 1,
            name,
            label: None,
            start_ns: id,
            dur_ns,
            metrics: Vec::new(),
            alloc_bytes: 0,
            alloc_calls: 0,
            peak_bytes: 0,
        }
    }

    #[test]
    fn alloc_fields_render_when_charged() {
        let mut r = rec(1, None, "query.ferry", 9_000);
        r.alloc_bytes = 123_456;
        r.alloc_calls = 42;
        r.peak_bytes = 65_536;
        let json = span_json(&r);
        assert!(
            json.contains("\"alloc_bytes\":123456,\"alloc_calls\":42,\"peak_bytes\":65536"),
            "{json}"
        );
        // All-zero records stay byte-compatible with the pre-accounting
        // format.
        assert!(
            !span_json(&rec(2, None, "q", 1)).contains("alloc"),
            "{json}"
        );
    }

    #[test]
    fn planner_choice_is_hoisted_to_top_level() {
        let root = rec(1, None, "tqf.key", 9_000);
        let mut choice = rec(2, Some(1), "planner.choice", 10);
        choice.label = Some("Auto→M1".into());
        choice.metrics.push(("tqf_blocks_hi", 40));
        choice.metrics.push(("m1_blocks_hi", 6));
        let tree = SpanNode {
            record: root,
            children: vec![SpanNode {
                record: choice,
                children: vec![],
            }],
        };
        let line = render_slow_record(&tree, 5_000, 0);
        assert!(
            line.contains(
                "\"planner\":{\"engine\":\"Auto→M1\",\"tqf_blocks_hi\":40,\"m1_blocks_hi\":6}"
            ),
            "{line}"
        );
    }

    #[test]
    fn absolute_threshold_without_histogram() {
        let cfg = SlowLogConfig::threshold_ms(5);
        assert_eq!(cfg.effective_threshold(None), 5_000_000);
    }

    #[test]
    fn p99_bound_waits_for_samples_and_respects_floor() {
        let cfg = SlowLogConfig {
            threshold_ns: 1_000,
            p99_factor: Some(2.0),
            min_samples: 4,
        };
        let h = crate::Histogram::new();
        h.record(1_000_000);
        assert_eq!(
            cfg.effective_threshold(Some(&h.snapshot())),
            1_000,
            "below min_samples only the floor applies"
        );
        for _ in 0..8 {
            h.record(1_000_000);
        }
        let snap = h.snapshot();
        let t = cfg.effective_threshold(Some(&snap));
        assert!(
            t >= 2 * snap.p99() - 2 && t > 1_000,
            "t={t} p99={}",
            snap.p99()
        );
    }

    #[test]
    fn record_json_has_tree_and_metrics() {
        let mut root = rec(1, None, "query.ferry", 9_000);
        root.label = Some("TQF".into());
        root.metrics.push(("blocks", 7));
        let child = rec(2, Some(1), "ghfk", 4_000);
        let tree = SpanNode {
            record: root,
            children: vec![SpanNode {
                record: child,
                children: vec![],
            }],
        };
        let line = render_slow_record(&tree, 5_000, 3);
        assert!(line.contains("\"kind\":\"slow_query\""));
        assert!(line.contains("\"seq\":3"));
        assert!(line.contains("\"name\":\"query.ferry\""));
        assert!(line.contains("\"label\":\"TQF\""));
        assert!(line.contains("\"threshold_ns\":5000"));
        assert!(line.contains("\"spans\":2"));
        assert!(line.contains("\"metrics\":{\"blocks\":7}"));
        assert!(line.contains("\"children\":[{\"id\":2"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn sink_accumulates_lines() {
        let (buffer, sink) = memory_sink();
        let log = SlowLog::new(SlowLogConfig::threshold_ms(1), sink);
        let tree = SpanNode {
            record: rec(1, None, "q", 2_000_000),
            children: vec![],
        };
        log.log(&tree, 1_000_000);
        log.log(&tree, 1_000_000);
        assert_eq!(log.records_written(), 2);
        let text = String::from_utf8(buffer.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text
            .lines()
            .all(|l| l.starts_with("{\"kind\":\"slow_query\"")));
    }
}
