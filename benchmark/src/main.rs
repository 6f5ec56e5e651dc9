//! `tf-benchmark`: see README.md. `run.sh` builds and calls this binary.

mod loadgen;
mod repeat;
mod spec;
mod stats;
mod sut;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use spec::{Workload, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use workloads::{Outcome, RunCfg};

const USAGE: &str =
    "usage: run.sh <workload>|all [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
       run.sh --workload <name> --seed N --seconds S --trace 0|1
       run.sh spec                 print BENCHMARK.json
       repeat.sh [--seeds A,B] [--seconds S] [--smoke]
workloads: q-tqf q-m1 ingest-durable live-mixed";

pub struct Args {
    pub workloads: Vec<Workload>,
    pub seed: u64,
    pub seconds: f64,
    /// `None` when not given: a full run is then untraced, and a smoke run
    /// covers both modes.
    pub trace: Option<bool>,
    pub smoke: bool,
    pub out_dir: PathBuf,
}

fn parse_workloads(name: &str) -> Result<Vec<Workload>, String> {
    if name == "all" {
        return Ok(WORKLOADS.to_vec());
    }
    Workload::from_name(name)
        .map(|w| vec![w])
        .ok_or_else(|| format!("unknown workload {name:?}"))
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: None,
        smoke: false,
        out_dir: PathBuf::from("out"),
    };
    let mut seconds_given = false;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => out.workloads = parse_workloads(&value("a name")?)?,
            "--seed" => {
                out.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                out.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--out" => out.out_dir = PathBuf::from(value("a directory")?),
            "--smoke" => out.smoke = true,
            "--trace" => {
                // `--trace 0|1` for the driver, bare `--trace` by hand.
                out.trace = Some(match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                });
            }
            name if !name.starts_with('-') && out.workloads.is_empty() => {
                out.workloads = parse_workloads(name)?
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if out.smoke && !seconds_given {
        out.seconds = 1.0;
    }
    if !(out.seconds > 0.0 && out.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    if out.workloads.is_empty() {
        if !out.smoke {
            return Err("no workload named".to_string());
        }
        out.workloads = WORKLOADS.to_vec();
    }
    Ok(out)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The metrics a run in this mode reports, in the contract's order: name,
/// unit, value. A per-layer metric the workload does not exercise reads 0.
fn metric_rows(out: &Outcome, trace: bool) -> Vec<(&'static str, &'static str, f64)> {
    if trace {
        PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name,
                    m.unit,
                    out.layer.get(m.name).copied().unwrap_or(0.0),
                )
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                let v = out.e2e.get(m.name).copied().unwrap_or(f64::NAN);
                (m.name, m.unit, v)
            })
            .collect()
    }
}

/// The result line: one JSON object with exactly the keys the driver reads.
pub fn result_line(out: &Outcome, trace: bool) -> String {
    let metrics: Vec<String> = metric_rows(out, trace)
        .into_iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

/// Run one workload and print its notes and result. Returns whether every
/// answer was right.
fn run_one(workload: Workload, args: &Args, trace: bool) -> bool {
    let work_dir = args
        .out_dir
        .join(format!("work-{}-{}", workload.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&work_dir);
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        trace,
        smoke: args.smoke,
        work_dir: work_dir.clone(),
        out_dir: args.out_dir.clone(),
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# {} seed={} seconds={} trace={} smoke={} deps: offline nproc={nproc}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(trace),
        args.smoke
    );
    let result = workloads::run(workload, &cfg);
    let _ = std::fs::remove_dir_all(&work_dir);
    match result {
        Ok(out) => {
            for note in &out.notes {
                println!("# {note}");
            }
            // A missing end-to-end number is a bug in the benchmark, not a result.
            let missing: Vec<&str> = END_TO_END
                .iter()
                .map(|m| m.name)
                .filter(|n| !out.e2e.get(n).is_some_and(|v| v.is_finite() && *v > 0.0))
                .collect();
            if !missing.is_empty() {
                eprintln!("error: {}: no value for {missing:?}", workload.name());
                return false;
            }
            for (name, unit, v) in metric_rows(&out, trace) {
                println!("# {name}={v} {unit}");
            }
            println!("{}", result_line(&out, trace));
            out.correct()
        }
        Err(e) => {
            eprintln!("error: {}: {e}", workload.name());
            false
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None | Some("-h" | "--help") => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
        Some("spec") => {
            print!("{}", spec::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Some("repeat") => return repeat::main(&args[1..]),
        _ => {}
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    let modes: &[bool] = match (args.trace, args.smoke) {
        (Some(true), _) => &[true],
        (Some(false), _) | (None, false) => &[false],
        (None, true) => &[false, true],
    };
    for &w in &args.workloads {
        for &trace in modes {
            ok &= run_one(w, &args, trace);
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_form_and_the_short_form_parse_alike() {
        let a = args("--workload q-m1 --seed 7 --seconds 15 --trace 1").unwrap();
        assert_eq!(
            (a.workloads, a.seed, a.seconds, a.trace),
            (vec![Workload::QM1], 7, 15.0, Some(true))
        );
        let b = args("q-m1 --seed 7 --trace").unwrap();
        assert_eq!(
            (b.workloads, b.seed, b.trace),
            (vec![Workload::QM1], 7, Some(true))
        );
        assert_eq!(
            args("--workload q-tqf --seed 1 --seconds 15 --trace 0")
                .unwrap()
                .trace,
            Some(false)
        );
        assert_eq!(args("q-tqf").unwrap().trace, None);
        assert_eq!(args("all").unwrap().workloads.len(), 4);
        assert!(args("--smoke").unwrap().smoke);
        assert!(args("q-m2").is_err());
        assert!(args("--seed 3").is_err());
        assert!(args("q-tqf --seconds 0").is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome::default();
        for m in END_TO_END {
            out.e2e.insert(m.name, 1.5);
        }
        out.attempted = 10;
        let line = result_line(&out, false);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        let traced = result_line(&out, true);
        assert_eq!(traced.matches("\"value\"").count(), PER_LAYER.len());
        assert_eq!(repeat::parse_metrics(&line).len(), END_TO_END.len());
    }
}
