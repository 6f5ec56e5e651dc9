//! In-memory spans recorded by the benchmark around calls into each layer.
//!
//! A *live* span times a call as it happens, nested under the span that was
//! open when it started. Many of those calls are opaque from outside (a
//! cursor drain reads blocks inside the ledger), so the traced run repeats
//! the work done under such a call through the lower layers' public
//! functions and records each repeat as a *shadow* span whose parent is the
//! live span it explains. Either way a span's self time is its duration
//! minus its children's, so a parent's self time is what the children do not
//! account for.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub type SpanId = u32;

#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<operation>`; the layer is the repository module doing the work.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Query or block number the span belongs to.
    pub id: u64,
    pub shadow: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// A tracer whose clock starts at `epoch`, so spans recorded by two
    /// threads share a time axis.
    pub fn with_epoch(epoch: Instant) -> Self {
        Tracer {
            epoch,
            ..Tracer::default()
        }
    }

    /// Append another tracer's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn start(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        id: u64,
        shadow: bool,
    ) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            id,
            shadow,
        });
        let sid = (self.spans.len() - 1) as SpanId;
        self.open.push(sid);
        sid
    }

    /// Open a live span under the innermost open span.
    pub fn enter(&mut self, name: &'static str, id: u64) -> SpanId {
        let parent = self.open.last().copied();
        self.start(name, parent, id, false)
    }

    /// Open a shadow span that explains part of `parent`, which has already
    /// ended or is an enclosing shadow.
    pub fn enter_shadow(&mut self, name: &'static str, parent: SpanId, id: u64) -> SpanId {
        self.start(name, Some(parent), id, true)
    }

    /// Close `sid`, which must be the innermost open span.
    pub fn exit(&mut self, sid: SpanId) {
        let now = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(sid),
            "spans must close innermost first"
        );
        self.spans[sid as usize].end_ns = now;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time by span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, Agg> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            let agg = out.entry(span.name).or_default();
            agg.count += 1;
            agg.total_ns += span.dur_ns();
            agg.self_ns += self_ns;
        }
        out
    }

    /// Mean cost of recording one empty span, measured here and now.
    pub fn calibrate_ns_per_span() -> f64 {
        let mut t = Tracer::default();
        let n = 20_000;
        let start = Instant::now();
        for i in 0..n {
            let s = t.enter("calibrate.empty", i);
            t.exit(s);
        }
        start.elapsed().as_nanos() as f64 / n as f64
    }

    /// Write the first `cap` spans as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str, cap: usize) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let written = self.spans.len().min(cap);
        writeln!(
            out,
            "{{\"workload\": \"{workload}\", \"spans_recorded\": {}, \"spans_written\": {written}, \"spans\": [",
            self.spans.len()
        )?;
        for (i, s) in self.spans.iter().take(written).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"id\": {}, \"kind\": \"{}\"}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.id,
                if s.shadow { "shadow" } else { "live" },
                if i + 1 < written { "," } else { "" }
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Per-span self time: duration minus the children's durations, floored at
/// zero (shadow children are timed apart from their parent, so noise can make
/// them sum to more than it).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<SpanId>,
        shadow: bool,
    ) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            id: 0,
            shadow,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("q.ferry_query", 0, 100, None, false),
            span("cursor.drain", 10, 80, Some(0), false),
            span("join.temporal_join", 80, 95, Some(0), false),
            // Shadows re-run work done inside cursor.drain, after it ended.
            span("blockfile.read_block_txs", 200, 240, Some(1), true),
            span("block.decode_txs", 300, 315, Some(3), true),
        ];
        assert_eq!(self_times(&spans), vec![15, 30, 15, 25, 15]);
        // Every nanosecond of the root is attributed exactly once.
        let attributed: u64 = self_times(&spans).iter().sum();
        assert_eq!(attributed, 100);
    }

    #[test]
    fn children_that_outweigh_their_parent_floor_at_zero() {
        let spans = vec![
            span("cursor.drain", 0, 10, None, false),
            span("blockfile.read_block_txs", 20, 32, Some(0), true),
        ];
        assert_eq!(self_times(&spans), vec![0, 12]);
    }

    #[test]
    fn tracer_nests_live_spans_and_attaches_shadows() {
        let mut t = Tracer::default();
        let root = t.enter("q.ferry_query", 7);
        let drain = t.enter("cursor.drain", 7);
        t.exit(drain);
        let sh = t.enter_shadow("blockfile.read_block_txs", drain, 7);
        let inner = t.enter_shadow("block.decode_txs", sh, 7);
        t.exit(inner);
        t.exit(sh);
        t.exit(root);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(root));
        assert_eq!(s[2].parent, Some(drain));
        assert!(s[2].shadow && s[3].shadow && !s[1].shadow);
        assert_eq!(s[3].parent, Some(sh));
        let by = t.by_name();
        assert_eq!(by["cursor.drain"].count, 1);
    }
}
