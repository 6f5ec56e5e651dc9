//! Shared harness: dataset/ledger caching, scaling, table rendering.
//!
//! Full-scale runs reproduce the paper exactly (DS1/DS2 = 1M events); set
//! `TF_SCALE=n` (or pass `--scale n`) to shrink every dataset by ~n× for
//! quick runs — the *shapes* of all results are scale-invariant. Built
//! ledgers are cached under `target/bench-data/` and reused across runs.

use std::path::{Path, PathBuf};
use std::time::Duration;

use fabric_ledger::{Ledger, LedgerConfig, Result};
use fabric_workload::dataset::{self, DatasetId};
use fabric_workload::generator::GeneratedWorkload;
use fabric_workload::ingest::{ingest, IdentityEncoder, IngestMode};
use temporal_core::interval::Interval;
use temporal_core::m1::M1Indexer;
use temporal_core::m2::M2Encoder;
use temporal_core::partition::FixedLength;
use temporal_core::SimCostModel;

/// On-disk format tag written into each cached ledger's `COMPLETE` marker.
/// Bump whenever the block codec or index layout changes shape (v2: per-tx
/// offset table; v3: timestamped history index, which the cost-based
/// planner reads) so stale `target/bench-data` ledgers rebuild instead of
/// failing or silently degrading planner bounds.
pub const CACHE_FORMAT: &str = "v3";

/// Harness context: scaling factor, cache root, simulated cost model.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Dataset shrink factor (1 = the paper's full scale).
    pub scale: u32,
    /// Cache directory for built ledgers.
    pub data_root: PathBuf,
    /// Counter → simulated-seconds model (paper-hardware calibration).
    pub sim: SimCostModel,
    /// Emit per-run telemetry JSON-lines alongside the usual CSV results
    /// (`--telemetry` / `TF_TELEMETRY=1`).
    pub telemetry: bool,
    /// Write a machine-readable [`crate::regress::BenchFile`] of the run's
    /// exact counters to this path (`--json-out path` / `TF_JSON_OUT=path`).
    pub json_out: Option<PathBuf>,
}

impl Ctx {
    /// Build from `TF_SCALE` / `TF_DATA_ROOT` / `TF_TELEMETRY` env vars and
    /// argv (`--scale n` wins over the env var; `--telemetry` enables
    /// telemetry emission).
    pub fn from_env() -> Self {
        let mut scale = std::env::var("TF_SCALE")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1u32);
        let args: Vec<String> = std::env::args().collect();
        if let Some(i) = args.iter().position(|a| a == "--scale") {
            if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                scale = v;
            }
        }
        let telemetry = args.iter().any(|a| a == "--telemetry")
            || std::env::var("TF_TELEMETRY").is_ok_and(|v| !v.is_empty() && v != "0");
        let json_out = args
            .iter()
            .position(|a| a == "--json-out")
            .and_then(|i| args.get(i + 1))
            .map(PathBuf::from)
            .or_else(|| {
                std::env::var("TF_JSON_OUT")
                    .ok()
                    .filter(|v| !v.is_empty())
                    .map(PathBuf::from)
            });
        let data_root = std::env::var("TF_DATA_ROOT")
            .map(PathBuf::from)
            .unwrap_or_else(|_| {
                PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/bench-data")
            });
        Ctx {
            scale: scale.max(1),
            data_root,
            sim: SimCostModel::default(),
            telemetry,
            json_out,
        }
    }

    /// Reduce `samples` to a bench file named `name` at this context's
    /// scale and write it to the `--json-out` path, if one was given.
    pub fn save_bench_file(&self, name: &str, samples: &[(String, f64)]) {
        let Some(path) = &self.json_out else { return };
        let file = crate::regress::bench_file_from_samples(name, self.scale as u64, samples);
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        match std::fs::write(path, file.to_json()) {
            Ok(()) => eprintln!(
                "[bench] wrote {} metric(s) to {}",
                file.metrics.len(),
                path.display()
            ),
            Err(e) => eprintln!("warning: could not save {}: {e}", path.display()),
        }
    }

    /// With an explicit scale in place of `TF_SCALE`.
    pub fn with_scale(scale: u32) -> Self {
        let mut ctx = Ctx::from_env();
        ctx.scale = scale.max(1);
        ctx
    }

    /// The workload for `id` at this context's scale.
    pub fn workload(&self, id: DatasetId) -> GeneratedWorkload {
        if self.scale == 1 {
            dataset::generate(id)
        } else {
            dataset::generate_scaled(id, self.scale)
        }
    }

    /// `t_max` at this scale.
    pub fn t_max(&self, id: DatasetId) -> u64 {
        if self.scale == 1 {
            dataset::params(id).t_max
        } else {
            dataset::params_scaled(id, self.scale).t_max
        }
    }

    /// Scale an absolute paper quantity (e.g. `u = 2000`, call counts) to
    /// this context, proportional to the `t_max` shrink.
    pub fn scale_time(&self, id: DatasetId, paper_value: u64) -> u64 {
        let full = dataset::params(id).t_max;
        (paper_value * self.t_max(id)).div_ceil(full).max(1)
    }

    /// The paper's Table-I query windows, scaled: 9 windows of length
    /// `t_max/15` starting at 0, 1/15, 2/15, 6/15, 7/15, 8/15, 12/15,
    /// 13/15, 14/15 of `t_max`.
    pub fn table1_windows(&self, id: DatasetId) -> Vec<Interval> {
        let t_max = self.t_max(id);
        let w = t_max / 15;
        [0u64, 1, 2, 6, 7, 8, 12, 13, 14]
            .iter()
            .map(|&i| Interval::new(i * w, (i + 1) * w))
            .collect()
    }

    fn cache_dir(&self, name: &str) -> PathBuf {
        self.data_root
            .join(format!("scale{}", self.scale))
            .join(name)
    }

    /// Open the cached ledger `name`, building it with `build` on a miss.
    /// `build` receives a fresh ledger rooted in the cache directory.
    ///
    /// The `COMPLETE` marker stores [`CACHE_FORMAT`]; a ledger built by an
    /// older binary with a different on-disk block layout is discarded and
    /// rebuilt rather than failing to decode (CI caches `target/`).
    pub fn cached_ledger(
        &self,
        name: &str,
        config: LedgerConfig,
        build: impl FnOnce(&Ledger) -> Result<()>,
    ) -> Result<Ledger> {
        let dir = self.cache_dir(name);
        let marker = dir.join("COMPLETE");
        if std::fs::read(&marker).is_ok_and(|v| v == CACHE_FORMAT.as_bytes()) {
            return Ledger::open(&dir, config);
        }
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| {
            fabric_ledger::Error::InvalidArgument(format!(
                "cannot create cache dir {}: {e}",
                dir.display()
            ))
        })?;
        let ledger = Ledger::open(&dir, config)?;
        build(&ledger)?;
        ledger.flush_stores()?;
        std::fs::write(&marker, CACHE_FORMAT).map_err(|e| {
            fabric_ledger::Error::InvalidArgument(format!("cannot write marker: {e}"))
        })?;
        Ok(ledger)
    }

    /// Cached base-data ledger (identity encoding) for `id` + `mode`.
    pub fn base_ledger(&self, id: DatasetId, mode: IngestMode) -> Result<Ledger> {
        let name = format!("{id}-{mode}-base").to_lowercase();
        let workload = self.workload(id);
        self.cached_ledger(&name, LedgerConfig::default(), |ledger| {
            ingest(ledger, &workload.events, mode, &IdentityEncoder)?;
            Ok(())
        })
    }

    /// Cached M2-transformed ledger for `id` + `mode` with interval `u`
    /// (already scaled by the caller).
    pub fn m2_ledger(&self, id: DatasetId, mode: IngestMode, u: u64) -> Result<Ledger> {
        let name = format!("{id}-{mode}-m2-u{u}").to_lowercase();
        let workload = self.workload(id);
        self.cached_ledger(&name, LedgerConfig::default(), |ledger| {
            ingest(ledger, &workload.events, mode, &M2Encoder { u })?;
            Ok(())
        })
    }

    /// Cached base ledger with Model-M1 indexes built in one shot over the
    /// whole time range with interval `u` (already scaled).
    pub fn m1_ledger(&self, id: DatasetId, mode: IngestMode, u: u64) -> Result<Ledger> {
        let name = format!("{id}-{mode}-m1-u{u}").to_lowercase();
        let workload = self.workload(id);
        let t_max = workload.params.t_max;
        self.cached_ledger(&name, LedgerConfig::default(), |ledger| {
            ingest(ledger, &workload.events, mode, &IdentityEncoder)?;
            let strategy = FixedLength { u };
            let keys = workload.keys();
            M1Indexer::fixed(&strategy).run_epoch(ledger, &keys, Interval::new(0, t_max))?;
            Ok(())
        })
    }

    /// Where CSV results are written.
    pub fn results_dir(&self) -> PathBuf {
        let dir = self.data_root.join("results");
        let _ = std::fs::create_dir_all(&dir);
        dir
    }

    /// Write `content` to `results/<name>` (best-effort).
    pub fn save_result(&self, name: &str, content: &str) {
        let path = self.results_dir().join(name);
        if let Err(e) = std::fs::write(&path, content) {
            eprintln!("warning: could not save {}: {e}", path.display());
        }
    }
}

/// Run `f` with the ledger's telemetry enabled and freshly reset, returning
/// `f`'s result alongside the registry snapshot covering exactly that run.
/// The previous enabled/disabled state is restored afterwards.
pub fn with_telemetry<T>(
    ledger: &Ledger,
    f: impl FnOnce() -> T,
) -> (T, fabric_telemetry::RegistrySnapshot) {
    let tel = ledger.telemetry();
    let was_enabled = tel.is_enabled();
    tel.enable();
    tel.reset();
    let out = f();
    let snapshot = tel.snapshot();
    if !was_enabled {
        tel.disable();
    }
    (out, snapshot)
}

/// Copy a ledger cache directory (used to fork a base ledger before
/// destructive maintenance like periodic indexing).
pub fn copy_dir_recursive(src: &Path, dst: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let to = dst.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir_recursive(&entry.path(), &to)?;
        } else {
            std::fs::copy(entry.path(), &to)?;
        }
    }
    Ok(())
}

/// Render seconds with adaptive precision (`12.3s`, `0.245s`, `3.2ms`).
pub fn fmt_secs(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 10.0 {
        format!("{s:.1}s")
    } else if s >= 0.1 {
        format!("{s:.2}s")
    } else if s >= 0.001 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{:.0}µs", s * 1e6)
    }
}

/// A minimal fixed-width / markdown table builder.
#[derive(Debug, Default)]
pub struct TableOut {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TableOut {
    /// Start a table with the given headers.
    pub fn new(headers: &[&str]) -> Self {
        TableOut {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render as a GitHub-flavoured markdown table.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let render = |cells: &[String], widths: &[usize], out: &mut String| {
            out.push('|');
            for (c, w) in cells.iter().zip(widths) {
                out.push_str(&format!(" {c:<w$} |"));
            }
            out.push('\n');
        };
        render(&self.headers, &widths, &mut out);
        out.push('|');
        for w in &widths {
            out.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        out.push('\n');
        for row in &self.rows {
            render(row, &widths, &mut out);
        }
        out
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |c: &str| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        };
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown_and_csv() {
        let mut t = TableOut::new(&["a", "b"]);
        t.row(vec!["1".into(), "hello, world".into()]);
        let md = t.to_markdown();
        assert!(md.contains("| a"), "{md}");
        assert!(md.lines().count() == 3);
        let csv = t.to_csv();
        assert!(csv.contains("\"hello, world\""));
    }

    #[test]
    fn windows_match_paper_at_full_scale() {
        let ctx = Ctx::with_scale(1);
        let w = ctx.table1_windows(DatasetId::Ds1);
        assert_eq!(w.len(), 9);
        assert_eq!(w[0], Interval::new(0, 10_000));
        assert_eq!(w[3], Interval::new(60_000, 70_000));
        assert_eq!(w[8], Interval::new(140_000, 150_000));
    }

    #[test]
    fn scale_time_is_proportional() {
        let ctx = Ctx::with_scale(1);
        assert_eq!(ctx.scale_time(DatasetId::Ds1, 2000), 2000);
        let ctx = Ctx::with_scale(100);
        let scaled = ctx.scale_time(DatasetId::Ds1, 2000);
        assert!((100..=400).contains(&scaled), "scaled={scaled}");
    }

    #[test]
    fn telemetry_counter_matches_iostats_delta() {
        use fabric_workload::{EntityId, Event, EventKind};
        use temporal_core::join::ferry_query;
        use temporal_core::tqf::TqfEngine;
        let dir = std::env::temp_dir().join(format!(
            "harness-tel-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let ledger = Ledger::open(&dir, LedgerConfig::small_for_tests()).unwrap();
        let events: Vec<Event> = (1..=40u64)
            .map(|i| Event {
                subject: EntityId::shipment(0),
                target: EntityId::container(0),
                time: i * 10,
                kind: if i % 2 == 1 {
                    EventKind::Load
                } else {
                    EventKind::Unload
                },
            })
            .collect();
        ingest(&ledger, &events, IngestMode::SingleEvent, &IdentityEncoder).unwrap();
        let (outcome, snapshot) = with_telemetry(&ledger, || {
            ferry_query(&TqfEngine, &ledger, Interval::new(0, 400)).unwrap()
        });
        assert_eq!(
            snapshot.counter("ledger.blocks.deserialized"),
            outcome.stats.blocks_deserialized(),
            "telemetry counter must match the IoStats delta exactly"
        );
        assert!(outcome.stats.blocks_deserialized() > 0);
        assert!(!ledger.telemetry().is_enabled(), "state must be restored");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_cache_format_marker_triggers_rebuild() {
        let root = std::env::temp_dir().join(format!(
            "harness-marker-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let mut ctx = Ctx::with_scale(7777);
        ctx.data_root = root.clone();
        let built = std::cell::Cell::new(0u32);
        let build = |_: &Ledger| {
            built.set(built.get() + 1);
            Ok(())
        };
        ctx.cached_ledger("fmt", LedgerConfig::small_for_tests(), build)
            .unwrap();
        assert_eq!(built.get(), 1);
        // Fresh marker with the current format: reopened, not rebuilt.
        ctx.cached_ledger("fmt", LedgerConfig::small_for_tests(), build)
            .unwrap();
        assert_eq!(built.get(), 1, "matching marker must reuse the cache");
        // A pre-versioning marker (old binaries wrote "ok") must rebuild.
        let marker = root.join("scale7777").join("fmt").join("COMPLETE");
        std::fs::write(&marker, b"ok").unwrap();
        ctx.cached_ledger("fmt", LedgerConfig::small_for_tests(), build)
            .unwrap();
        assert_eq!(built.get(), 2, "stale format marker must trigger rebuild");
        assert_eq!(std::fs::read(&marker).unwrap(), CACHE_FORMAT.as_bytes());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn fmt_secs_ranges() {
        assert_eq!(fmt_secs(Duration::from_secs(12)), "12.0s");
        assert_eq!(fmt_secs(Duration::from_millis(250)), "0.25s");
        assert_eq!(fmt_secs(Duration::from_millis(3)), "3.0ms");
        assert_eq!(fmt_secs(Duration::from_micros(5)), "5µs");
    }
}
