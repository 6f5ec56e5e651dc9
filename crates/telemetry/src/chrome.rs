//! Chrome trace-event / Perfetto JSON exporter.
//!
//! Renders recorded [`SpanRecord`]s in the Trace Event Format understood
//! by `chrome://tracing` and [Perfetto](https://ui.perfetto.dev): one
//! complete (`"ph":"X"`) event per span, grouped so each **trace** becomes
//! a process row (`pid` = trace id) and each **thread lane** a track
//! (`tid` = lane). Cross-thread spans — parallel cursor workers — therefore
//! land on their own lanes but stay nested
//! under the one trace they follow from. Metadata events name each
//! process row after its root span so the UI reads
//! `trace 12: ledger.commit` instead of a bare number.
//!
//! Timestamps and durations are microseconds (the format's native unit)
//! with nanosecond precision kept in the fractional part.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::export::json_escape;
use crate::span::SpanRecord;
use crate::TrackPoint;

/// Microseconds with the nanosecond remainder as three decimals.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn complete_event(out: &mut String, r: &SpanRecord) {
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":{{\"span\":{}",
        json_escape(r.name),
        micros(r.start_ns),
        micros(r.dur_ns),
        r.trace,
        r.thread,
        r.id,
    );
    if let Some(parent) = r.parent {
        let _ = write!(out, ",\"parent\":{parent}");
    }
    let _ = write!(out, ",\"trace\":{}", r.trace);
    if let Some(label) = &r.label {
        let _ = write!(out, ",\"label\":\"{}\"", json_escape(label));
    }
    for (m, v) in &r.metrics {
        let _ = write!(out, ",\"{}\":{v}", json_escape(m));
    }
    // Resource accounting (zero — and omitted — without a counting
    // allocator, which keeps pre-existing golden files byte-identical).
    if r.alloc_bytes > 0 || r.alloc_calls > 0 {
        let _ = write!(
            out,
            ",\"alloc_bytes\":{},\"alloc_calls\":{}",
            r.alloc_bytes, r.alloc_calls
        );
    }
    if r.peak_bytes > 0 {
        let _ = write!(out, ",\"peak_bytes\":{}", r.peak_bytes);
    }
    out.push_str("}}");
}

/// Render spans as a Chrome trace-event JSON document.
///
/// Load the output in Perfetto (or `chrome://tracing`): each trace shows
/// as a process group named after its root span, with one track per
/// thread lane that contributed spans.
pub fn chrome_trace(records: &[SpanRecord]) -> String {
    chrome_trace_with_counters(records, &[])
}

/// [`chrome_trace`] plus Perfetto **counter tracks** (`ph:"C"` events)
/// from sampled [`TrackPoint`]s — queue depths next to the span lanes, so
/// backpressure is visible in the same view. All counter tracks live
/// under a dedicated pid-0 "counters" process row (only present when
/// `points` is non-empty, so plain exports are byte-identical to
/// [`chrome_trace`]).
pub fn chrome_trace_with_counters(records: &[SpanRecord], points: &[TrackPoint]) -> String {
    // Root-span names for process rows, and the lane set per trace for
    // thread rows — both sorted (BTreeMap) so output is deterministic.
    let mut root_names: BTreeMap<u64, &SpanRecord> = BTreeMap::new();
    let mut lanes: BTreeMap<(u64, u64), ()> = BTreeMap::new();
    for r in records {
        if r.id == r.trace {
            root_names.insert(r.trace, r);
        }
        lanes.insert((r.trace, r.thread), ());
    }
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut push_sep = |out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
    };
    for (trace, root) in &root_names {
        push_sep(&mut out);
        let mut name = root.name.to_string();
        if let Some(label) = &root.label {
            let _ = write!(name, "[{label}]");
        }
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{trace},\"args\":{{\"name\":\"trace {trace}: {}\"}}}}",
            json_escape(&name)
        );
    }
    for (trace, lane) in lanes.keys() {
        push_sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{trace},\"tid\":{lane},\"args\":{{\"name\":\"lane {lane}\"}}}}",
        );
    }
    if !points.is_empty() {
        push_sep(&mut out);
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"counters\"}}",
        );
    }
    let mut sorted: Vec<&SpanRecord> = records.iter().collect();
    sorted.sort_by_key(|r| (r.start_ns, r.id));
    for r in sorted {
        push_sep(&mut out);
        complete_event(&mut out, r);
    }
    let mut sorted_points: Vec<&TrackPoint> = points.iter().collect();
    sorted_points.sort_by(|a, b| (a.at_ns, &a.name).cmp(&(b.at_ns, &b.name)));
    for p in sorted_points {
        push_sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"counter\",\"ph\":\"C\",\"ts\":{},\"pid\":0,\"args\":{{\"value\":{}}}}}",
            json_escape(&p.name),
            micros(p.at_ns),
            p.value
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    fn rec(
        id: u64,
        parent: Option<u64>,
        trace: u64,
        thread: u64,
        name: &'static str,
        start_ns: u64,
    ) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            trace,
            thread,
            name,
            label: None,
            start_ns,
            dur_ns: 1_500,
            metrics: Vec::new(),
            alloc_bytes: 0,
            alloc_calls: 0,
            peak_bytes: 0,
        }
    }

    #[test]
    fn traces_become_processes_and_lanes_become_threads() {
        let mut root = rec(1, None, 1, 1, "ledger.commit", 0);
        root.label = Some("block 7".into());
        let mut worker = rec(2, Some(1), 1, 2, "commit.append", 100);
        worker.metrics.push(("blocks", 3));
        let out = chrome_trace(&[root, worker]);
        assert!(
            out.contains("\"name\":\"trace 1: ledger.commit[block 7]\""),
            "{out}"
        );
        assert!(out.contains("\"pid\":1,\"tid\":1"), "{out}");
        assert!(out.contains("\"pid\":1,\"tid\":2"), "{out}");
        assert!(out.contains("\"parent\":1"), "{out}");
        assert!(out.contains("\"blocks\":3"), "{out}");
        assert!(out.contains("\"ts\":0.100,\"dur\":1.500"), "{out}");
    }

    #[test]
    fn output_is_valid_enough_json() {
        // No serde in the workspace: check structural balance instead.
        let tel = Telemetry::enabled();
        {
            let _q = tel.span("query").with_label("esc\"ape");
            let _g = tel.span("ghfk");
        }
        let out = chrome_trace(&tel.drain_spans());
        assert_eq!(out.matches('{').count(), out.matches('}').count());
        assert_eq!(out.matches('[').count(), out.matches(']').count());
        assert!(out.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(out.ends_with("]}"));
        assert!(out.contains("esc\\\"ape"));
    }

    #[test]
    fn alloc_fields_show_up_as_args_when_nonzero() {
        let mut r = rec(1, None, 1, 1, "query", 0);
        r.alloc_bytes = 4096;
        r.alloc_calls = 7;
        r.peak_bytes = 2048;
        let out = chrome_trace(&[r]);
        assert!(
            out.contains("\"alloc_bytes\":4096,\"alloc_calls\":7"),
            "{out}"
        );
        assert!(out.contains("\"peak_bytes\":2048"), "{out}");
    }

    #[test]
    fn track_points_become_counter_tracks() {
        use std::sync::Arc;
        let name: Arc<str> = Arc::from("queue.query.slots.depth");
        let points = vec![
            crate::TrackPoint {
                name: Arc::clone(&name),
                at_ns: 2_000,
                value: 3,
            },
            crate::TrackPoint {
                name: Arc::clone(&name),
                at_ns: 1_000,
                value: 1,
            },
        ];
        let out = chrome_trace_with_counters(&[rec(1, None, 1, 1, "ledger.commit", 0)], &points);
        assert!(
            out.contains("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"counters\"}}"),
            "{out}"
        );
        assert!(
            out.contains(
                "{\"name\":\"queue.query.slots.depth\",\"cat\":\"counter\",\"ph\":\"C\",\"ts\":1.000,\"pid\":0,\"args\":{\"value\":1}}"
            ),
            "{out}"
        );
        let first = out.find("\"value\":1").unwrap();
        let second = out.find("\"value\":3").unwrap();
        assert!(first < second, "counter samples sort by time: {out}");
        // Structure stays balanced with counters present.
        assert_eq!(out.matches('{').count(), out.matches('}').count());
        // And the plain exporter stays byte-identical with no points.
        assert_eq!(
            chrome_trace_with_counters(&[rec(1, None, 1, 1, "ledger.commit", 0)], &[]),
            chrome_trace(&[rec(1, None, 1, 1, "ledger.commit", 0)])
        );
    }

    #[test]
    fn events_sort_by_start_time() {
        let out = chrome_trace(&[
            rec(2, None, 2, 1, "later", 900),
            rec(1, None, 1, 1, "early", 5),
        ]);
        let early = out.find("\"name\":\"early\"").unwrap();
        let later = out.find("\"name\":\"later\"").unwrap();
        assert!(early < later, "{out}");
    }
}
