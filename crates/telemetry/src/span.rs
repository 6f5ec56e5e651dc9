//! Hierarchical spans.
//!
//! A [`SpanGuard`] measures the wall-clock time between its creation and
//! its drop. Parent/child relationships are inferred from a thread-local
//! "current span" cell: a span opened while another guard is alive on the
//! same thread records that guard's id as its parent. The cell stores a
//! `(telemetry-instance, span-id)` pair so that two independent
//! [`Telemetry`] handles on the same thread never adopt each other's
//! spans.
//!
//! Guards restore the previous cell value on drop, so the common
//! strictly-nested case behaves like a stack. Guards held in structs
//! (e.g. a lazy iterator keeping its query span open across `next()`
//! calls) also work: children attach for as long as the guard lives. The
//! one caveat is interleaved non-nested drops on one thread, where the
//! restored value may be stale — links degrade to "no parent" rather
//! than corrupting the tree.

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::export::fmt_ns;
use crate::Telemetry;

thread_local! {
    /// `(instance tag, span id, trace id)` of the innermost live span on
    /// this thread.
    static CURRENT: Cell<Option<(usize, u64, u64)>> = const { Cell::new(None) };
}

/// Process-wide monotone thread numbering, used only for trace lanes —
/// small, stable ids beat `ThreadId`'s opaque debug formatting.
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_LANE: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Small, stable id of the calling thread (1-based, process-wide).
pub fn thread_lane() -> u64 {
    THREAD_LANE.with(|t| *t)
}

/// A handoff token carrying a live span's identity across threads.
///
/// Captured via [`SpanGuard::context`] (or [`Telemetry::current_context`])
/// on the submitting thread and redeemed with [`Telemetry::span_in`] on a
/// worker thread, it makes the worker's span a child of the originating
/// span — a `follows_from` edge — so per-shard and fan-out workers stitch
/// into the same trace instead of becoming orphan roots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    pub(crate) tag: usize,
    pub(crate) span: u64,
    pub(crate) trace: u64,
}

impl SpanContext {
    /// Id of the span this context points at.
    pub fn span_id(&self) -> u64 {
        self.span
    }

    /// Id of the trace (the root span's id) this context belongs to.
    pub fn trace_id(&self) -> u64 {
        self.trace
    }
}

/// A finished span: timing, tree linkage, and attached metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id within one [`Telemetry`] instance.
    pub id: u64,
    /// Id of the span that was open on this thread when this one started,
    /// or that was handed off explicitly via [`SpanContext`].
    pub parent: Option<u64>,
    /// Id of the root span of the trace this span belongs to. A root
    /// span's trace id is its own id; children inherit it from their
    /// parent, including across thread handoffs.
    pub trace: u64,
    /// Lane id of the thread the span ran on (see [`thread_lane`]).
    pub thread: u64,
    /// Static span name, e.g. `"ghfk"` or `"block.deserialize"`.
    pub name: &'static str,
    /// Optional dynamic label, e.g. the key being iterated.
    pub label: Option<String>,
    /// Start time in nanoseconds relative to the telemetry epoch.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// Named metrics attached via [`SpanGuard::record`], summed per name.
    pub metrics: Vec<(&'static str, u64)>,
    /// Bytes allocated on the span's thread while it was open (zero when
    /// no [counting allocator](crate::alloc) is installed). Includes
    /// same-thread children, excludes fanned-out worker threads.
    pub alloc_bytes: u64,
    /// Allocator calls on the span's thread while it was open.
    pub alloc_calls: u64,
    /// High-water mark of net live bytes on the span's thread relative
    /// to span start (see [`crate::alloc`]).
    pub peak_bytes: u64,
}

impl SpanRecord {
    /// Value of an attached metric, if any.
    pub fn metric(&self, name: &str) -> Option<u64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}

struct Active {
    tel: Telemetry,
    id: u64,
    parent: Option<u64>,
    trace: u64,
    /// Previous thread-local value, restored on drop.
    prev: Option<(usize, u64, u64)>,
    name: &'static str,
    label: Option<String>,
    metrics: Vec<(&'static str, u64)>,
    start_ns: u64,
    start: Instant,
    /// Thread allocation counters at open (None without a counting
    /// allocator); closed out on drop into the record's alloc fields.
    alloc: Option<crate::alloc::AllocMark>,
    /// Whether a profiler shadow-stack frame was pushed and a pop is owed.
    profiled: bool,
}

/// RAII guard for a live span. Records a [`SpanRecord`] on drop, or
/// nothing at all if telemetry was disabled when it was created.
#[must_use = "a span measures the time until this guard is dropped"]
pub struct SpanGuard(Option<Active>);

impl SpanGuard {
    /// A guard that records nothing (telemetry disabled).
    #[inline]
    pub fn inert() -> Self {
        SpanGuard(None)
    }

    pub(crate) fn start(tel: Telemetry, name: &'static str) -> Self {
        Self::start_inner(tel, name, None)
    }

    /// Open a span whose parent is the span behind `follows`, regardless of
    /// what is live on this thread. Used for cross-thread handoffs.
    pub(crate) fn start_in(tel: Telemetry, name: &'static str, follows: SpanContext) -> Self {
        Self::start_inner(tel, name, Some(follows))
    }

    fn start_inner(tel: Telemetry, name: &'static str, follows: Option<SpanContext>) -> Self {
        let tag = tel.inner_ptr();
        let id = tel.next_span_id();
        // An explicit handoff token wins over the thread-local cell; a
        // token minted by a different Telemetry instance is ignored.
        let (parent, trace) = match follows.filter(|f| f.tag == tag) {
            Some(f) => (Some(f.span), f.trace),
            None => {
                let inherited = CURRENT.with(|c| c.get());
                match inherited {
                    Some((t, pid, trace)) if t == tag => (Some(pid), trace),
                    _ => (None, id),
                }
            }
        };
        let prev = CURRENT.with(|c| c.replace(Some((tag, id, trace))));
        let profiled = crate::profile::push_frame(name);
        let alloc = crate::alloc::span_enter();
        let start_ns = tel.now_ns();
        SpanGuard(Some(Active {
            tel,
            id,
            parent,
            trace,
            prev,
            name,
            label: None,
            metrics: Vec::new(),
            start_ns,
            start: Instant::now(),
            alloc,
            profiled,
        }))
    }

    /// Whether this guard will record a span (i.e. telemetry was enabled).
    pub fn is_active(&self) -> bool {
        self.0.is_some()
    }

    /// A handoff token for this live span, suitable for crossing threads.
    /// `None` for inert guards.
    pub fn context(&self) -> Option<SpanContext> {
        self.0.as_ref().map(|a| SpanContext {
            tag: a.tel.inner_ptr(),
            span: a.id,
            trace: a.trace,
        })
    }

    /// Attach a dynamic label (e.g. the key under iteration).
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        if let Some(a) = self.0.as_mut() {
            a.label = Some(label.into());
        }
        self
    }

    /// Add `n` to the named metric on this span (summed per name).
    pub fn record(&mut self, metric: &'static str, n: u64) {
        if let Some(a) = self.0.as_mut() {
            match a.metrics.iter_mut().find(|(m, _)| *m == metric) {
                Some((_, v)) => *v += n,
                None => a.metrics.push((metric, n)),
            }
        }
    }

    /// Close the span without recording it (e.g. the measured operation
    /// failed and must not count). Restores the thread-local parent link.
    pub fn cancel(mut self) {
        if let Some(a) = self.0.take() {
            CURRENT.with(|c| c.set(a.prev));
            if let Some(mark) = a.alloc {
                let _ = crate::alloc::span_exit(mark); // restore parent peak
            }
            if a.profiled {
                crate::profile::pop_frame();
            }
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(a) = self.0.take() {
            let dur_ns = a.start.elapsed().as_nanos() as u64;
            CURRENT.with(|c| c.set(a.prev));
            let alloc = a.alloc.map(crate::alloc::span_exit).unwrap_or_default();
            if a.profiled {
                crate::profile::pop_frame();
            }
            a.tel.push_span(SpanRecord {
                id: a.id,
                parent: a.parent,
                trace: a.trace,
                thread: thread_lane(),
                name: a.name,
                label: a.label,
                start_ns: a.start_ns,
                dur_ns,
                metrics: a.metrics,
                alloc_bytes: alloc.bytes,
                alloc_calls: alloc.calls,
                peak_bytes: alloc.peak_bytes,
            });
        }
    }
}

/// The innermost live span on this thread that belongs to the telemetry
/// instance tagged `tag`, as a handoff token.
pub(crate) fn current_context_for(tag: usize) -> Option<SpanContext> {
    CURRENT.with(|c| c.get()).and_then(|(t, span, trace)| {
        (t == tag).then_some(SpanContext {
            tag: t,
            span,
            trace,
        })
    })
}

/// One node of an assembled span tree.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// The span itself.
    pub record: SpanRecord,
    /// Spans whose parent is this span, ordered by start time.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Depth of the subtree rooted here (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        1 + self.children.iter().map(SpanNode::depth).max().unwrap_or(0)
    }

    /// Number of spans named `name` in this subtree (including self).
    pub fn count_named(&self, name: &str) -> usize {
        usize::from(self.record.name == name)
            + self
                .children
                .iter()
                .map(|c| c.count_named(name))
                .sum::<usize>()
    }

    /// Sum of metric `name` over this subtree (including self).
    pub fn total_metric(&self, name: &str) -> u64 {
        self.record.metric(name).unwrap_or(0)
            + self
                .children
                .iter()
                .map(|c| c.total_metric(name))
                .sum::<u64>()
    }

    fn render_into(&self, out: &mut String, prefix: &str, last: bool, root: bool) {
        if root {
            out.push_str(prefix);
        } else {
            let _ = write!(out, "{prefix}{}", if last { "└─ " } else { "├─ " });
        }
        out.push_str(self.record.name);
        if let Some(label) = &self.record.label {
            let _ = write!(out, "[{label}]");
        }
        let _ = write!(out, "  {}", fmt_ns(self.record.dur_ns));
        for (m, v) in &self.record.metrics {
            let _ = write!(out, "  {m}={v}");
        }
        out.push('\n');
        let child_prefix = if root {
            prefix.to_string()
        } else {
            format!("{prefix}{}", if last { "   " } else { "│  " })
        };
        let n = self.children.len();
        for (i, child) in self.children.iter().enumerate() {
            child.render_into(out, &child_prefix, i + 1 == n, false);
        }
    }
}

/// Assemble flat records (ordered by start time) into parent→child trees.
/// Records whose parent is absent from the batch become roots.
pub fn build_tree(records: Vec<SpanRecord>) -> Vec<SpanNode> {
    let ids: std::collections::HashSet<u64> = records.iter().map(|r| r.id).collect();
    let mut children_of: HashMap<u64, Vec<SpanRecord>> = HashMap::new();
    let mut roots = Vec::new();
    for r in records {
        match r.parent.filter(|p| ids.contains(p)) {
            Some(p) => children_of.entry(p).or_default().push(r),
            None => roots.push(r),
        }
    }
    fn build(record: SpanRecord, children_of: &mut HashMap<u64, Vec<SpanRecord>>) -> SpanNode {
        let children = children_of
            .remove(&record.id)
            .map(|kids| kids.into_iter().map(|k| build(k, children_of)).collect())
            .unwrap_or_default();
        SpanNode { record, children }
    }
    roots
        .into_iter()
        .map(|r| build(r, &mut children_of))
        .collect()
}

/// Render a forest of spans as an indented text tree.
pub fn render_tree(nodes: &[SpanNode]) -> String {
    let mut out = String::new();
    let n = nodes.len();
    for (i, node) in nodes.iter().enumerate() {
        node.render_into(&mut out, "", i + 1 == n, true);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, name: &'static str, start_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            trace: parent.unwrap_or(id),
            thread: 1,
            name,
            label: None,
            start_ns,
            dur_ns: 10,
            metrics: Vec::new(),
            alloc_bytes: 0,
            alloc_calls: 0,
            peak_bytes: 0,
        }
    }

    #[test]
    fn handoff_token_parents_across_threads() {
        let tel = Telemetry::enabled();
        let ctx = {
            let root = tel.span("commit");
            let ctx = root.context().unwrap();
            let tel2 = tel.clone();
            std::thread::spawn(move || {
                let _w = tel2.span_in("commit.append", Some(ctx));
                let _inner = tel2.span("kv.wal.append");
            })
            .join()
            .unwrap();
            ctx
        };
        let spans = tel.drain_spans();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.name == "commit").unwrap();
        let worker = spans.iter().find(|s| s.name == "commit.append").unwrap();
        let inner = spans.iter().find(|s| s.name == "kv.wal.append").unwrap();
        assert_eq!(ctx.trace_id(), root.id, "root's trace id is its own id");
        assert_eq!(worker.parent, Some(root.id), "handoff sets the parent");
        assert_eq!(worker.trace, root.trace, "trace id crosses the thread");
        assert_eq!(
            inner.parent,
            Some(worker.id),
            "nesting resumes on the worker"
        );
        assert_eq!(inner.trace, root.trace);
        assert_ne!(worker.thread, root.thread, "lanes identify threads");
        let tree = build_tree(spans);
        assert_eq!(tree.len(), 1, "one rooted tree, no orphans");
        assert_eq!(tree[0].depth(), 3);
    }

    #[test]
    fn foreign_token_is_ignored() {
        let tel = Telemetry::enabled();
        let other = Telemetry::enabled();
        let foreign = {
            let g = other.span("alien");
            g.context().unwrap()
        };
        {
            let _s = tel.span_in("local", Some(foreign));
        }
        let spans = tel.drain_spans();
        assert_eq!(spans[0].parent, None, "foreign token must not link");
        assert_eq!(spans[0].trace, spans[0].id);
    }

    #[test]
    fn current_context_matches_guard_context() {
        let tel = Telemetry::enabled();
        assert!(tel.current_context().is_none());
        let g = tel.span("q");
        assert_eq!(tel.current_context(), g.context());
    }

    #[test]
    fn orphan_parent_becomes_root() {
        let tree = build_tree(vec![rec(5, Some(99), "a", 0), rec(6, Some(5), "b", 1)]);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree[0].record.name, "a");
        assert_eq!(tree[0].children[0].record.name, "b");
    }

    #[test]
    fn totals_and_counts_cover_subtree() {
        let mut a = rec(1, None, "q", 0);
        a.metrics.push(("blocks", 1));
        let mut b = rec(2, Some(1), "ghfk", 1);
        b.metrics.push(("blocks", 2));
        let c = rec(3, Some(1), "ghfk", 2);
        let tree = build_tree(vec![a, b, c]);
        assert_eq!(tree[0].total_metric("blocks"), 3);
        assert_eq!(tree[0].count_named("ghfk"), 2);
        assert_eq!(tree[0].depth(), 2);
    }

    #[test]
    fn render_shows_connectors() {
        let tree = build_tree(vec![
            rec(1, None, "query", 0),
            rec(2, Some(1), "ghfk", 1),
            rec(3, Some(2), "block.deserialize", 2),
            rec(4, Some(1), "join", 3),
        ]);
        let text = render_tree(&tree);
        assert!(text.contains("query"));
        assert!(text.contains("├─ ghfk"));
        assert!(text.contains("└─ block.deserialize"));
        assert!(text.contains("└─ join"));
    }
}
