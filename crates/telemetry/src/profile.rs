//! Sampling profiler over live span stacks.
//!
//! Every thread that opens spans maintains a *shadow stack* of interned
//! span-name indices (fixed-size array of relaxed atomics plus an
//! acquire/release depth). While a [`Profiler`] is running, span open
//! and close push/pop one frame — two relaxed stores — and a sampler
//! thread walks every registered shadow stack at a configurable rate,
//! folding what it sees into collapsed-stack counts. When no profiler is
//! running the span path pays exactly one relaxed load.
//!
//! The collapsed output ([`Profile::collapsed`]) is the
//! `flamegraph.pl` / [inferno](https://github.com/jonhoo/inferno) input
//! format: one `frame;frame;frame count` line per distinct stack, sorted
//! lexicographically so the bytes are deterministic for a given sample
//! multiset.
//!
//! ## Sampling bias caveats
//!
//! * Samples hit whatever is on the stack *at the tick* — spans shorter
//!   than the sampling period are seen probabilistically (in proportion
//!   to their total time, which is the point), and a 99Hz default avoids
//!   lockstep with 10ms-periodic work.
//! * Stacks are read without stopping the world: a sampler may observe a
//!   frame slot mid-update and attribute one tick to a just-popped span.
//!   These torn samples are rare (one frame per push/pop race) and show
//!   up as noise, never as crashes — the slots are atomics.
//! * Spans already open when the profiler starts were never pushed, so
//!   their frames are missing from early samples; start the profiler
//!   before the workload for complete stacks.
//! * Stacks deeper than [`MAX_DEPTH`] are truncated (deepest frames
//!   dropped); the sampler still counts the truncated prefix.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock, Weak};
use std::time::Duration;

use crate::span::SpanRecord;
use crate::Telemetry;

/// Deepest span nesting the shadow stack records; deeper frames are
/// dropped from samples (the prefix is still counted).
pub const MAX_DEPTH: usize = 64;

/// Default sampling rate (Hz). Prime, so it does not beat against
/// 10ms-periodic work.
pub const DEFAULT_HZ: u64 = 99;

/// Number of profilers currently running, process-wide. Non-zero makes
/// span open/close maintain the shadow stacks.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

#[inline]
pub(crate) fn is_active() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0
}

/// Process-wide intern table: span names are `&'static str`, so the
/// table only ever grows and indices stay valid for the process life.
struct Interner {
    names: Vec<&'static str>,
    index: std::collections::HashMap<&'static str, u32>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            names: Vec::new(),
            index: std::collections::HashMap::new(),
        })
    })
}

fn intern(name: &'static str) -> u32 {
    if let Some(&idx) = interner()
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .index
        .get(name)
    {
        return idx;
    }
    let mut w = interner().write().unwrap_or_else(|e| e.into_inner());
    if let Some(&idx) = w.index.get(name) {
        return idx;
    }
    let idx = w.names.len() as u32;
    w.names.push(name);
    w.index.insert(name, idx);
    idx
}

fn resolve(idx: u32) -> Option<&'static str> {
    interner()
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .names
        .get(idx as usize)
        .copied()
}

/// One thread's live span stack, readable from the sampler thread.
struct ShadowStack {
    depth: AtomicUsize,
    frames: [AtomicU32; MAX_DEPTH],
}

impl ShadowStack {
    fn new() -> Self {
        ShadowStack {
            depth: AtomicUsize::new(0),
            frames: std::array::from_fn(|_| AtomicU32::new(0)),
        }
    }
}

fn stack_registry() -> &'static Mutex<Vec<Weak<ShadowStack>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Weak<ShadowStack>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static MY_STACK: std::cell::OnceCell<Arc<ShadowStack>> = const { std::cell::OnceCell::new() };
}

/// Push `name` onto this thread's shadow stack if a profiler is running.
/// Returns whether a matching [`pop_frame`] is owed.
#[inline]
pub(crate) fn push_frame(name: &'static str) -> bool {
    if !is_active() {
        return false;
    }
    let idx = intern(name);
    MY_STACK
        .try_with(|cell| {
            let stack = cell.get_or_init(|| {
                let stack = Arc::new(ShadowStack::new());
                stack_registry()
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(Arc::downgrade(&stack));
                stack
            });
            let d = stack.depth.load(Ordering::Relaxed);
            if d < MAX_DEPTH {
                stack.frames[d].store(idx, Ordering::Relaxed);
            }
            // Release-publish the new depth so a sampler that sees it
            // also sees the frame store above.
            stack.depth.store(d + 1, Ordering::Release);
        })
        .is_ok()
}

/// Pop the frame pushed by the matching [`push_frame`]. Always safe to
/// call once per `true` push, even after the profiler stopped.
#[inline]
pub(crate) fn pop_frame() {
    let _ = MY_STACK.try_with(|cell| {
        if let Some(stack) = cell.get() {
            let d = stack.depth.load(Ordering::Relaxed);
            if d > 0 {
                stack.depth.store(d - 1, Ordering::Release);
            }
        }
    });
}

/// Aggregated samples in collapsed-stack form.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    stacks: BTreeMap<String, u64>,
    samples: u64,
    ticks: u64,
}

impl Profile {
    /// Fold one observed stack (outermost frame first) into the counts.
    pub fn record_sample(&mut self, frames: &[&str]) {
        if frames.is_empty() {
            return;
        }
        *self.stacks.entry(frames.join(";")).or_insert(0) += 1;
        self.samples += 1;
    }

    /// Total stack samples recorded (one per non-idle thread per tick).
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Sampler wake-ups, including ones where every thread was idle.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Number of distinct stacks observed.
    pub fn distinct_stacks(&self) -> usize {
        self.stacks.len()
    }

    /// The stacks and their counts, heaviest first.
    pub fn hottest(&self) -> Vec<(&str, u64)> {
        let mut v: Vec<(&str, u64)> = self.stacks.iter().map(|(k, &n)| (k.as_str(), n)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        v
    }

    /// Render in `flamegraph.pl` / inferno collapsed form: one
    /// `frame;frame count` line per distinct stack, sorted
    /// lexicographically (deterministic for a given sample multiset).
    pub fn collapsed(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (stack, count) in &self.stacks {
            let _ = writeln!(out, "{stack} {count}");
        }
        out
    }
}

/// A running sampling profiler. Stop it to get the [`Profile`].
pub struct Profiler {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<Profile>,
    tel: Telemetry,
}

impl Profiler {
    /// Start sampling every registered thread's span stack at `hz`
    /// (clamped to \[1, 10_000\]). Sample/tick counters land in `tel`'s
    /// registry as `profiler.samples` / `profiler.ticks`, and the
    /// `profiler.active` gauge is held at 1 while running.
    pub fn start(tel: &Telemetry, hz: u64) -> Profiler {
        let hz = hz.clamp(1, 10_000);
        ACTIVE.fetch_add(1, Ordering::SeqCst);
        tel.registry().gauge("profiler.active").add(1);
        let stop = Arc::new(AtomicBool::new(false));
        let period = Duration::from_nanos(1_000_000_000 / hz);
        let handle = {
            let stop = Arc::clone(&stop);
            let tel = tel.clone();
            std::thread::Builder::new()
                .name("tf-profiler".into())
                .spawn(move || {
                    let mut profile = Profile::default();
                    let samples = tel.registry().counter("profiler.samples");
                    let ticks = tel.registry().counter("profiler.ticks");
                    while !stop.load(Ordering::Relaxed) {
                        let taken = sample_all(&mut profile);
                        profile.ticks += 1;
                        ticks.incr();
                        samples.add(taken);
                        std::thread::sleep(period);
                    }
                    profile
                })
                .expect("spawn profiler thread")
        };
        Profiler {
            stop,
            handle,
            tel: tel.clone(),
        }
    }

    /// Stop the sampler and return the aggregated profile.
    pub fn stop(self) -> Profile {
        self.stop.store(true, Ordering::Relaxed);
        let profile = self.handle.join().expect("profiler thread panicked");
        ACTIVE.fetch_sub(1, Ordering::SeqCst);
        self.tel.registry().gauge("profiler.active").add(-1);
        profile
    }
}

/// Walk every live shadow stack once; returns how many non-empty stacks
/// were sampled. Dead threads' stacks are pruned as they are found.
fn sample_all(profile: &mut Profile) -> u64 {
    let mut taken = 0;
    let mut frames: Vec<&'static str> = Vec::with_capacity(MAX_DEPTH);
    let mut registry = stack_registry().lock().unwrap_or_else(|e| e.into_inner());
    registry.retain(|weak| {
        let Some(stack) = weak.upgrade() else {
            return false;
        };
        let depth = stack.depth.load(Ordering::Acquire).min(MAX_DEPTH);
        if depth > 0 {
            frames.clear();
            for slot in &stack.frames[..depth] {
                if let Some(name) = resolve(slot.load(Ordering::Relaxed)) {
                    frames.push(name);
                }
            }
            if !frames.is_empty() {
                profile.record_sample(&frames);
                taken += 1;
            }
        }
        true
    });
    taken
}

/// One row of the `tfq top` report: a span name with call counts, total
/// and self wall-clock time, and allocation charges, aggregated over a
/// batch of finished spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopEntry {
    /// Span name.
    pub name: &'static str,
    /// Number of finished spans with this name.
    pub count: u64,
    /// Sum of wall-clock durations.
    pub total_ns: u64,
    /// Sum of durations minus time spent in child spans (any thread).
    pub self_ns: u64,
    /// Sum of bytes allocated on the span's thread while open.
    pub alloc_bytes: u64,
    /// Maximum single-span net-live high-water mark.
    pub peak_bytes: u64,
}

/// Aggregate finished spans into per-name rows, hottest self-time first.
/// Self time subtracts each span's direct children (including cross-
/// thread `span_in` children), so a parent that merely waits on workers
/// scores low while the workers score high.
pub fn top_spans(records: &[SpanRecord]) -> Vec<TopEntry> {
    let mut child_time: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for r in records {
        if let Some(parent) = r.parent {
            *child_time.entry(parent).or_insert(0) += r.dur_ns;
        }
    }
    let mut by_name: BTreeMap<&'static str, TopEntry> = BTreeMap::new();
    for r in records {
        let entry = by_name.entry(r.name).or_insert(TopEntry {
            name: r.name,
            count: 0,
            total_ns: 0,
            self_ns: 0,
            alloc_bytes: 0,
            peak_bytes: 0,
        });
        entry.count += 1;
        entry.total_ns += r.dur_ns;
        entry.self_ns += r
            .dur_ns
            .saturating_sub(child_time.get(&r.id).copied().unwrap_or(0));
        entry.alloc_bytes += r.alloc_bytes;
        entry.peak_bytes = entry.peak_bytes.max(r.peak_bytes);
    }
    let mut rows: Vec<TopEntry> = by_name.into_values().collect();
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.name.cmp(b.name)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, name: &'static str, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            trace: parent.unwrap_or(id),
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
    fn collapsed_output_is_sorted_and_deterministic() {
        let mut p = Profile::default();
        p.record_sample(&["query.ferry", "ghfk", "block.deserialize"]);
        p.record_sample(&["query.ferry", "ghfk"]);
        p.record_sample(&["query.ferry", "ghfk", "block.deserialize"]);
        p.record_sample(&["ledger.commit"]);
        assert_eq!(
            p.collapsed(),
            "ledger.commit 1\n\
             query.ferry;ghfk 1\n\
             query.ferry;ghfk;block.deserialize 2\n"
        );
        assert_eq!(p.samples(), 4);
        assert_eq!(p.distinct_stacks(), 3);
        assert_eq!(p.hottest()[0].0, "query.ferry;ghfk;block.deserialize");
    }

    #[test]
    fn empty_sample_is_ignored() {
        let mut p = Profile::default();
        p.record_sample(&[]);
        assert_eq!(p.samples(), 0);
        assert_eq!(p.collapsed(), "");
    }

    #[test]
    fn profiler_samples_live_spans() {
        let tel = Telemetry::enabled();
        let profiler = Profiler::start(&tel, 2_000);
        {
            let _outer = tel.span("proftest.outer");
            let _inner = tel.span("proftest.inner");
            std::thread::sleep(Duration::from_millis(40));
        }
        let profile = profiler.stop();
        // Tests share this process; other spans may appear. Filter to the
        // unique names this test owns.
        let ours: u64 = profile
            .hottest()
            .iter()
            .filter(|(stack, _)| stack.starts_with("proftest.outer"))
            .map(|(_, n)| n)
            .sum();
        assert!(
            ours > 0,
            "no samples of the 40ms span:\n{}",
            profile.collapsed()
        );
        assert!(
            profile
                .collapsed()
                .contains("proftest.outer;proftest.inner"),
            "nesting lost:\n{}",
            profile.collapsed()
        );
        assert!(profile.ticks() > 0);
        let snap = tel.snapshot();
        assert!(snap.counter("profiler.samples") > 0);
        assert!(snap.counter("profiler.ticks") > 0);
        assert_eq!(snap.gauge("profiler.active"), Some(0), "gauge must reset");
    }

    #[test]
    fn spans_pay_nothing_when_no_profiler_runs() {
        // Not a timing assertion — just that push is refused so pop is
        // not owed and the shadow stack stays untouched.
        assert!(!is_active() || ACTIVE.load(Ordering::SeqCst) > 0);
        if !is_active() {
            assert!(!push_frame("idle.span"));
        }
    }

    #[test]
    fn top_spans_compute_self_time_and_rank() {
        let mut root = rec(1, None, "query.ferry", 1_000_000);
        root.alloc_bytes = 500;
        let mut g1 = rec(2, Some(1), "ghfk", 600_000);
        g1.alloc_bytes = 4_000;
        g1.peak_bytes = 2_000;
        let mut g2 = rec(3, Some(1), "ghfk", 300_000);
        g2.peak_bytes = 9_000;
        let rows = top_spans(&[root, g1, g2]);
        assert_eq!(rows[0].name, "ghfk");
        assert_eq!(rows[0].count, 2);
        assert_eq!(rows[0].total_ns, 900_000);
        assert_eq!(rows[0].self_ns, 900_000);
        assert_eq!(rows[0].alloc_bytes, 4_000);
        assert_eq!(rows[0].peak_bytes, 9_000, "peak is a max, not a sum");
        let ferry = rows.iter().find(|r| r.name == "query.ferry").unwrap();
        assert_eq!(ferry.self_ns, 100_000, "children subtracted");
        assert_eq!(ferry.total_ns, 1_000_000);
    }

    #[test]
    fn interner_round_trips() {
        let a = intern("interner.a");
        let b = intern("interner.b");
        assert_ne!(a, b);
        assert_eq!(intern("interner.a"), a);
        assert_eq!(resolve(a), Some("interner.a"));
        assert_eq!(resolve(u32::MAX), None);
    }
}
