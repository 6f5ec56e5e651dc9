//! The checked-in bench files: exact counters, compared byte for byte.
//!
//! A bench run can emit a `BENCH_<name>.json` file ([`BenchFile`]) holding
//! per-table/per-engine **counters**: blocks deserialized, GHFK calls,
//! events, WAL syncs and the like. They depend on the workload and the
//! engine, never on the machine or the scheduler, so the gate is file
//! equality: regenerate the file into a scratch directory and `diff` it
//! against the tracked copy. A moved counter means the engine or the
//! workload changed. Timings stay in the printed tables and CSVs; the
//! repository's `benchmark/` package is what measures them.
//!
//! The workspace deliberately carries no JSON dependency, so this module
//! writes the files itself, deterministically (sorted keys, one metric per
//! line), keeping checked-in files diff-friendly.

use std::collections::BTreeMap;

/// A machine-readable bench result: named exact counters at one scale.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchFile {
    /// Which bench produced this (e.g. `table1`).
    pub name: String,
    /// The harness scale factor (`TF_SCALE`): counters at different scales
    /// are different files.
    pub scale: u64,
    /// Counter medians keyed `dataset/mode/engine/metric`.
    pub metrics: BTreeMap<String, f64>,
}

impl BenchFile {
    /// Serialise deterministically (sorted keys, one metric per line).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"name\": {},\n  \"scale\": {},\n  \"metrics\": {{\n",
            json_string(&self.name),
            self.scale
        );
        let n = self.metrics.len();
        for (i, (key, value)) in self.metrics.iter().enumerate() {
            out.push_str(&format!(
                "    {}: {value}{}\n",
                json_string(key),
                if i + 1 < n { "," } else { "" }
            ));
        }
        out.push_str("  }\n}\n");
        out
    }
}

/// Median of `values` (averaging the middle pair for even counts);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Group raw `(key, value)` counter samples by key and reduce each group to
/// its median — the bridge from a bench's inner loop to a [`BenchFile`].
/// Every group the benches record is odd-sized (nine query windows, three
/// repetitions or one run), so each median is one of the counted values.
pub fn bench_file_from_samples(
    name: impl Into<String>,
    scale: u64,
    samples: &[(String, f64)],
) -> BenchFile {
    let mut grouped: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (key, value) in samples {
        grouped.entry(key.as_str()).or_default().push(*value);
    }
    BenchFile {
        name: name.into(),
        scale,
        metrics: grouped
            .into_iter()
            .map(|(key, values)| (key.to_string(), median(&values)))
            .collect(),
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn samples_group_to_medians() {
        let samples = vec![
            ("a".to_string(), 1.0),
            ("a".to_string(), 3.0),
            ("a".to_string(), 100.0),
            ("b".to_string(), 7.0),
        ];
        let f = bench_file_from_samples("t", 1500, &samples);
        assert_eq!(f.metrics["a"], 3.0);
        assert_eq!(f.metrics["b"], 7.0);
    }

    #[test]
    fn json_is_sorted_one_counter_per_line() {
        let samples = vec![
            ("ds3/se/tqf/blocks".to_string(), 65.0),
            ("ds1/me/m1/ghfk_calls".to_string(), 20.0),
            ("odd \"key\"\n".to_string(), 1.0),
        ];
        let text = bench_file_from_samples("table1", 1500, &samples).to_json();
        assert_eq!(
            text,
            "{\n  \"name\": \"table1\",\n  \"scale\": 1500,\n  \"metrics\": {\n    \
             \"ds1/me/m1/ghfk_calls\": 20,\n    \
             \"ds3/se/tqf/blocks\": 65,\n    \
             \"odd \\\"key\\\"\\n\": 1\n  }\n}\n"
        );
    }
}
