//! `repeat.sh`: run the full set twice on this commit, with two seeds, and
//! hold the two sets against the bounds of `BENCHMARK.json`.
//!
//! Every run is a fresh process of this binary, as the driver's runs are.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use crate::spec::{Workload, END_TO_END, RUN_SECONDS, WORKLOADS};
use crate::stats::{within_bound, worse_by};

/// End-to-end metrics that depend on the data and not on timing, so two runs
/// with one seed must report the same number.
const EXACT_WITHIN_A_SEED: [(&str, &[Workload]); 2] = [
    (
        "blocks_per_q",
        &[Workload::QTqf, Workload::QM1, Workload::IngestDurable],
    ),
    (
        "disk_bytes_per_event",
        &[Workload::QTqf, Workload::QM1, Workload::IngestDurable],
    ),
];

/// `name -> value` out of a result line printed by this binary.
pub fn parse_metrics(line: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let Some(at) = line.find("\"metrics\": {") else {
        return out;
    };
    let mut rest = &line[at + "\"metrics\": {".len()..];
    while let Some(q) = rest.find('"') {
        rest = &rest[q + 1..];
        let Some(end) = rest.find('"') else { break };
        let name = &rest[..end];
        let Some(v) = rest.find("{\"value\": ") else {
            break;
        };
        rest = &rest[v + "{\"value\": ".len()..];
        let Some(stop) = rest.find(',') else { break };
        if let Ok(value) = rest[..stop].parse::<f64>() {
            out.insert(name.to_string(), value);
        }
        let Some(close) = rest.find('}') else { break };
        rest = &rest[close + 1..];
    }
    out
}

struct Run {
    ok: bool,
    metrics: BTreeMap<String, f64>,
}

struct Opts {
    seeds: Vec<u64>,
    seconds: f64,
    smoke: bool,
    out_dir: String,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        seeds: vec![1, 2],
        seconds: RUN_SECONDS as f64,
        smoke: false,
        out_dir: "out".to_string(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--smoke" => {
                opts.smoke = true;
                opts.seconds = 1.0;
            }
            "--seeds" => {
                opts.seeds = value()?
                    .split(',')
                    .map(|s| s.parse().map_err(|e| format!("--seeds: {e}")))
                    .collect::<Result<_, _>>()?
            }
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--out" => opts.out_dir = value()?.clone(),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

fn run_once(workload: Workload, seed: u64, opts: &Opts) -> Run {
    let exe = std::env::current_exe().expect("path of this binary");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string(), "--trace", "0"])
        .args(["--out", &opts.out_dir]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().expect("run the benchmark binary");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !output.status.success() {
        eprint!("{stdout}{}", String::from_utf8_lossy(&output.stderr));
    }
    Run {
        ok: output.status.success() && last.contains("\"correct\": true"),
        metrics: parse_metrics(last),
    }
}

pub fn main(args: &[String]) -> ExitCode {
    let opts = match parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}; usage: repeat.sh [--seeds A,B] [--seconds S] [--smoke]");
            return ExitCode::from(2);
        }
    };
    let mut bad = 0u32;
    println!(
        "{:<15} {:<21} {:>5} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "seed", "first", "second", "worse", "bound"
    );
    for workload in WORKLOADS {
        for &seed in &opts.seeds {
            let first = run_once(workload, seed, &opts);
            let second = run_once(workload, seed, &opts);
            if !(first.ok && second.ok) {
                println!(
                    "{:<15} seed {seed}: a run failed or answered wrongly",
                    workload.name()
                );
                bad += 1;
                continue;
            }
            for m in END_TO_END {
                let (Some(&a), Some(&b)) = (first.metrics.get(m.name), second.metrics.get(m.name))
                else {
                    println!("{:<15} {:<21} {seed:>5} missing", workload.name(), m.name);
                    bad += 1;
                    continue;
                };
                let exact = EXACT_WITHIN_A_SEED
                    .iter()
                    .any(|(name, on)| *name == m.name && on.contains(&workload));
                // Either run may be the worse one: the two are the same code.
                let worse = worse_by(m.better, a, b).max(worse_by(m.better, b, a));
                let ok = if exact {
                    a == b
                } else {
                    within_bound(m.better, a, b, m.bound) && within_bound(m.better, b, a, m.bound)
                };
                // A smoke run times a second of work on a few dozen blocks:
                // its timings are shown, and only its counts are judged.
                let judged = exact || !opts.smoke;
                bad += u32::from(judged && !ok);
                println!(
                    "{:<15} {:<21} {seed:>5} {a:>14.4} {b:>14.4} {worse:>8.4} {:>6}  {}",
                    workload.name(),
                    m.name,
                    if exact {
                        "exact".to_string()
                    } else {
                        m.bound.to_string()
                    },
                    match (ok, judged) {
                        (true, _) => "ok",
                        (false, true) => "OUTSIDE",
                        (false, false) => "outside (smoke: not judged)",
                    }
                );
            }
        }
    }
    if bad == 0 {
        println!(
            "{}",
            if opts.smoke {
                "all runs correct and all counts repeat (smoke: timings not judged)"
            } else {
                "all metrics within their bounds"
            }
        );
        ExitCode::SUCCESS
    } else {
        println!("{bad} outside their bounds");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_its_own_result_lines() {
        let line = r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.8127, "unit": "s"}, "q_per_s": {"value": 12.5, "unit": "1/s"}}}"#;
        let m = parse_metrics(line);
        assert_eq!(m.len(), 2);
        assert_eq!(m["setup_s"], 0.8127);
        assert_eq!(m["q_per_s"], 12.5);
        assert!(parse_metrics("no result here").is_empty());
    }
}
