//! Planner self-calibration: certified predictions vs. measured actuals.
//!
//! [`crate::planner::AutoEngine`] certifies block bounds *before* running a
//! query. This module closes the loop: every auto-planned cursor is wrapped
//! in a [`CalibratedCursor`] that snapshots the ledger's I/O counters at
//! creation and, when the cursor is dropped, compares what the query
//! actually cost against what the planner promised. The comparison feeds
//!
//! * `planner.regret.*` telemetry counters (queries observed, certified
//!   bounds missed, total overrun/slack in blocks),
//! * a `planner.calibration.ratio_pct` histogram (actual blocks as a
//!   percentage of the certified worst case — >100 means the certificate
//!   was wrong), and
//! * an optional JSONL query log ([`PlannerLog`]) that `tfq planner-report`
//!   aggregates into per-dataset/per-engine calibration error tables.
//!
//! Attribution caveat: actuals come from the ledger-wide [`IoStats`
//! deltas](fabric_ledger::IoStatsSnapshot), so concurrent queries on the
//! same ledger can bleed blocks into each other's measurements. Single
//! query streams (the CLI, the benches) measure exactly.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use fabric_ledger::{Ledger, Result};
use fabric_workload::Event;

use crate::cursor::EventCursor;
use crate::planner::{AccessPath, PlanChoice};

/// One planner decision with its measured outcome — a line in the JSONL
/// calibration log.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerRecord {
    /// Dataset tag stamped by the harness (empty when unset).
    pub dataset: String,
    /// Chosen engine label, e.g. `Auto→M1`.
    pub engine: String,
    /// Queried key, rendered.
    pub key: String,
    /// Query window.
    pub tau: (u64, u64),
    /// Whether the predicted bounds are certified (TQF and M1 paths; M2
    /// carries no block certificate).
    pub certified: bool,
    /// `(certain, worst_case)` predicted blocks for the chosen path.
    pub predicted: Option<(u64, u64)>,
    /// Blocks actually deserialized while the cursor was alive.
    pub actual_blocks: u64,
    /// GHFK calls actually issued while the cursor was alive.
    pub actual_ghfk: u64,
}

impl PlannerRecord {
    /// Serialize as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"dataset\":\"{}\",\"engine\":\"{}\",\"key\":\"{}\",\"tau_start\":{},\"tau_end\":{},\"certified\":{}",
            escape(&self.dataset),
            escape(&self.engine),
            escape(&self.key),
            self.tau.0,
            self.tau.1,
            self.certified,
        );
        if let Some((lo, hi)) = self.predicted {
            out.push_str(&format!(",\"predicted_lo\":{lo},\"predicted_hi\":{hi}"));
        }
        out.push_str(&format!(
            ",\"actual_blocks\":{},\"actual_ghfk\":{}}}",
            self.actual_blocks, self.actual_ghfk
        ));
        out
    }

    /// Parse a line produced by [`Self::to_json`]. Returns `None` on
    /// malformed input (foreign lines are skipped, not fatal).
    pub fn from_json_line(line: &str) -> Option<PlannerRecord> {
        let line = line.trim();
        if !line.starts_with('{') || !line.ends_with('}') {
            return None;
        }
        let lo = json_u64(line, "predicted_lo");
        let hi = json_u64(line, "predicted_hi");
        Some(PlannerRecord {
            dataset: json_str(line, "dataset")?,
            engine: json_str(line, "engine")?,
            key: json_str(line, "key")?,
            tau: (json_u64(line, "tau_start")?, json_u64(line, "tau_end")?),
            certified: json_bool(line, "certified")?,
            predicted: match (lo, hi) {
                (Some(lo), Some(hi)) => Some((lo, hi)),
                _ => None,
            },
            actual_blocks: json_u64(line, "actual_blocks")?,
            actual_ghfk: json_u64(line, "actual_ghfk")?,
        })
    }

    /// Actual blocks as a percentage of the certified worst case (100 =
    /// exactly the bound; >100 = the certificate was violated). `None`
    /// when there is no usable prediction.
    pub fn ratio_pct(&self) -> Option<u64> {
        match self.predicted {
            Some((_, hi)) if hi > 0 => Some(self.actual_blocks * 100 / hi),
            Some((_, 0)) => Some(if self.actual_blocks == 0 {
                100
            } else {
                u64::MAX
            }),
            _ => None,
        }
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn json_field<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let pat = format!("\"{name}\":");
    let at = line.find(&pat)? + pat.len();
    Some(&line[at..])
}

fn json_u64(line: &str, name: &str) -> Option<u64> {
    let rest = json_field(line, name)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn json_bool(line: &str, name: &str) -> Option<bool> {
    let rest = json_field(line, name)?;
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

fn json_str(line: &str, name: &str) -> Option<String> {
    let rest = json_field(line, name)?.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'u' => {
                    let code: String = (&mut chars).take(4).collect();
                    out.push(char::from_u32(u32::from_str_radix(&code, 16).ok()?)?);
                }
                e => out.push(e),
            },
            c => out.push(c),
        }
    }
    None
}

/// Append-only JSONL sink for [`PlannerRecord`]s, shared by every cursor
/// the [`crate::planner::AutoEngine`] hands out.
pub struct PlannerLog {
    path: PathBuf,
    file: Mutex<std::fs::File>,
    dataset: Mutex<String>,
}

impl std::fmt::Debug for PlannerLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlannerLog")
            .field("path", &self.path)
            .finish()
    }
}

impl PlannerLog {
    /// Open (append) the log at `path`.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<Arc<PlannerLog>> {
        let path = path.into();
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        Ok(Arc::new(PlannerLog {
            path,
            file: Mutex::new(file),
            dataset: Mutex::new(String::new()),
        }))
    }

    /// Stamp subsequent records with `dataset` (the harness calls this
    /// once per benchmark dataset).
    pub fn set_dataset(&self, dataset: &str) {
        *self.dataset.lock().unwrap_or_else(|e| e.into_inner()) = dataset.to_string();
    }

    /// Current dataset tag.
    pub fn dataset(&self) -> String {
        self.dataset
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Where the log writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one record (errors are swallowed — observability must not
    /// fail the query).
    pub fn record(&self, rec: &PlannerRecord) {
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        let _ = writeln!(file, "{}", rec.to_json());
    }

    /// Read every well-formed record from a JSONL calibration log.
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<Vec<PlannerRecord>> {
        let text = std::fs::read_to_string(path)?;
        Ok(text
            .lines()
            .filter_map(PlannerRecord::from_json_line)
            .collect())
    }
}

/// Wraps an auto-planned cursor; on drop, measures actual I/O against the
/// planner's certified bounds and feeds the calibration instruments.
pub struct CalibratedCursor<'l> {
    inner: Box<dyn EventCursor + 'l>,
    ledger: &'l Ledger,
    engine: String,
    key: String,
    tau: (u64, u64),
    certified: bool,
    predicted: Option<(u64, u64)>,
    start_blocks: u64,
    start_ghfk: u64,
    log: Option<Arc<PlannerLog>>,
}

impl<'l> CalibratedCursor<'l> {
    /// Wrap `inner`, snapshotting the ledger's counters now.
    pub fn new(
        inner: Box<dyn EventCursor + 'l>,
        ledger: &'l Ledger,
        choice: &PlanChoice,
        log: Option<Arc<PlannerLog>>,
    ) -> CalibratedCursor<'l> {
        let now = ledger.stats();
        let (certified, predicted) = match choice.path {
            AccessPath::Tqf => (true, Some(choice.tqf_blocks)),
            AccessPath::M1 { .. } => (true, choice.m1_blocks),
            AccessPath::M2 => (false, None),
        };
        CalibratedCursor {
            inner,
            ledger,
            engine: choice.plan.engine.clone(),
            key: format!("{}", choice.key),
            tau: (choice.tau.start, choice.tau.end),
            certified,
            predicted,
            start_blocks: now.blocks_deserialized,
            start_ghfk: now.ghfk_calls,
            log,
        }
    }
}

impl EventCursor for CalibratedCursor<'_> {
    fn next_event(&mut self) -> Result<Option<Event>> {
        self.inner.next_event()
    }
}

impl Drop for CalibratedCursor<'_> {
    fn drop(&mut self) {
        let now = self.ledger.stats();
        let rec = PlannerRecord {
            dataset: self.log.as_ref().map(|l| l.dataset()).unwrap_or_default(),
            engine: std::mem::take(&mut self.engine),
            key: std::mem::take(&mut self.key),
            tau: self.tau,
            certified: self.certified,
            predicted: self.predicted,
            actual_blocks: now.blocks_deserialized.saturating_sub(self.start_blocks),
            actual_ghfk: now.ghfk_calls.saturating_sub(self.start_ghfk),
        };
        let tel = self.ledger.telemetry();
        tel.count("planner.regret.queries", 1);
        if let Some((_, hi)) = rec.predicted {
            if rec.actual_blocks > hi {
                if rec.certified {
                    tel.count("planner.regret.certified_miss", 1);
                }
                tel.count("planner.regret.overrun_blocks", rec.actual_blocks - hi);
            } else {
                tel.count("planner.regret.slack_blocks", hi - rec.actual_blocks);
            }
        }
        if let Some(pct) = rec.ratio_pct() {
            tel.observe("planner.calibration.ratio_pct", pct.min(u64::MAX / 2));
        }
        if let Some(log) = &self.log {
            log.record(&rec);
        }
    }
}

/// Per-`(dataset, engine)` aggregate of a calibration log, as rendered by
/// `tfq planner-report`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CalibrationGroup {
    /// Dataset tag ("-" when the log carries none).
    pub dataset: String,
    /// Engine label.
    pub engine: String,
    /// Queries observed.
    pub queries: u64,
    /// Queries with a certified bound.
    pub certified: u64,
    /// Certified bounds violated (`actual > predicted_hi`).
    pub misses: u64,
    /// Sum over queries of `actual - predicted_hi` where positive.
    pub overrun_blocks: u64,
    /// Sum over queries of `predicted_hi - actual` where positive.
    pub slack_blocks: u64,
    /// Sum of per-query `actual*100/predicted_hi` (for the mean).
    ratio_pct_sum: u64,
    /// Queries contributing to `ratio_pct_sum`.
    ratio_pct_n: u64,
    /// Worst per-query ratio.
    pub max_ratio_pct: u64,
}

impl CalibrationGroup {
    /// Mean misprediction ratio in percent (actual / certified worst
    /// case), over queries with a usable prediction.
    pub fn mean_ratio_pct(&self) -> Option<u64> {
        (self.ratio_pct_n > 0).then(|| self.ratio_pct_sum / self.ratio_pct_n)
    }
}

/// Aggregate records per `(dataset, engine)`, sorted by group key.
pub fn aggregate(records: &[PlannerRecord]) -> Vec<CalibrationGroup> {
    let mut groups: std::collections::BTreeMap<(String, String), CalibrationGroup> =
        std::collections::BTreeMap::new();
    for rec in records {
        let dataset = if rec.dataset.is_empty() {
            "-".to_string()
        } else {
            rec.dataset.clone()
        };
        let g = groups
            .entry((dataset.clone(), rec.engine.clone()))
            .or_insert_with(|| CalibrationGroup {
                dataset,
                engine: rec.engine.clone(),
                ..CalibrationGroup::default()
            });
        g.queries += 1;
        if rec.certified {
            g.certified += 1;
        }
        if let Some((_, hi)) = rec.predicted {
            if rec.actual_blocks > hi {
                if rec.certified {
                    g.misses += 1;
                }
                g.overrun_blocks += rec.actual_blocks - hi;
            } else {
                g.slack_blocks += hi - rec.actual_blocks;
            }
        }
        if let Some(pct) = rec.ratio_pct() {
            g.ratio_pct_sum += pct;
            g.ratio_pct_n += 1;
            g.max_ratio_pct = g.max_ratio_pct.max(pct);
        }
    }
    groups.into_values().collect()
}

/// Render the aggregate as the `tfq planner-report` table.
pub fn render_report(groups: &[CalibrationGroup]) -> String {
    let mut out = String::from(
        "dataset  engine        queries certified misses mean%  max%  slack  overrun\n",
    );
    for g in groups {
        let mean = g
            .mean_ratio_pct()
            .map_or("-".to_string(), |m| m.to_string());
        let max = if g.queries > 0 && g.mean_ratio_pct().is_some() {
            g.max_ratio_pct.to_string()
        } else {
            "-".to_string()
        };
        out.push_str(&format!(
            "{:<8} {:<13} {:>7} {:>9} {:>6} {:>5} {:>5} {:>6} {:>8}\n",
            g.dataset,
            g.engine,
            g.queries,
            g.certified,
            g.misses,
            mean,
            max,
            g.slack_blocks,
            g.overrun_blocks,
        ));
    }
    if groups.is_empty() {
        out.push_str("(no records)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(engine: &str, predicted: Option<(u64, u64)>, actual: u64) -> PlannerRecord {
        PlannerRecord {
            dataset: "ds1".to_string(),
            engine: engine.to_string(),
            key: "shipment:1".to_string(),
            tau: (0, 100),
            certified: predicted.is_some(),
            predicted,
            actual_blocks: actual,
            actual_ghfk: 1,
        }
    }

    #[test]
    fn json_roundtrip_preserves_record() {
        for r in [
            rec("Auto→TQF", Some((2, 5)), 3),
            rec("Auto→M2", None, 7),
            PlannerRecord {
                key: "weird\"key\\x".to_string(),
                ..rec("Auto→M1", Some((0, 0)), 0)
            },
        ] {
            let parsed = PlannerRecord::from_json_line(&r.to_json()).expect("parses");
            assert_eq!(parsed, r);
        }
    }

    #[test]
    fn ratio_flags_certificate_violations() {
        assert_eq!(rec("e", Some((1, 4)), 2).ratio_pct(), Some(50));
        assert_eq!(rec("e", Some((1, 4)), 4).ratio_pct(), Some(100));
        assert_eq!(rec("e", Some((1, 4)), 6).ratio_pct(), Some(150));
        assert_eq!(rec("e", None, 6).ratio_pct(), None);
        assert_eq!(rec("e", Some((0, 0)), 0).ratio_pct(), Some(100));
    }

    #[test]
    fn aggregate_groups_by_dataset_and_engine() {
        let records = vec![
            rec("Auto→TQF", Some((1, 2)), 2),
            rec("Auto→TQF", Some((1, 2)), 3), // miss, overrun 1
            rec("Auto→M1", Some((4, 4)), 2),  // slack 2
        ];
        let groups = aggregate(&records);
        assert_eq!(groups.len(), 2);
        let tqf = groups.iter().find(|g| g.engine == "Auto→TQF").unwrap();
        assert_eq!(tqf.queries, 2);
        assert_eq!(tqf.misses, 1);
        assert_eq!(tqf.overrun_blocks, 1);
        assert_eq!(tqf.mean_ratio_pct(), Some(125));
        let m1 = groups.iter().find(|g| g.engine == "Auto→M1").unwrap();
        assert_eq!(m1.slack_blocks, 2);
        assert_eq!(m1.misses, 0);
        let table = render_report(&groups);
        assert!(table.contains("Auto→TQF"), "{table}");
        assert!(table.contains("ds1"), "{table}");
    }

    #[test]
    fn planner_log_appends_and_loads() {
        let path = std::env::temp_dir().join(format!(
            "planner-log-test-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        {
            let log = PlannerLog::open(&path).unwrap();
            log.set_dataset("ds2");
            assert_eq!(log.dataset(), "ds2");
            let mut r = rec("Auto→TQF", Some((1, 1)), 1);
            r.dataset = log.dataset();
            log.record(&r);
            log.record(&r);
        }
        let loaded = PlannerLog::load(&path).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].dataset, "ds2");
        let _ = std::fs::remove_file(&path);
    }
}
