//! The repository benchmark.
//!
//! `benchmark run --workload NAME --seed N --seconds S --trace 0|1` runs one
//! workload in this process, checks every output, prints each pick as
//! `pick key gpu_us`, each metric as `name value unit` and, as its last
//! line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
//! end-to-end ones; with `--trace 1` the run records spans around every
//! layer's public calls and reports the per-layer metrics instead
//! (`--trace-out FILE` also writes the spans as JSON lines).
//!
//! `benchmark compare PARENT CHANGE [--seed N]` builds the benchmark in two
//! checkouts and applies the paired-run rule to them (see `compare.rs`).
//!
//! Plan stores live under `.bench_state/` in the working directory while a
//! run lasts.

mod check;
mod compare;
mod layers;
mod report;
mod search;
mod serve;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use barracuda::json::Json;

use crate::trace::Trace;
use crate::workload::{Outcome, RunOptions, Workload};

const USAGE: &str = "usage:
  benchmark run --workload NAME --seconds S [--seed N] [--trace 0|1] [--trace-out FILE]
  benchmark run --workload NAME --smoke [--seed N] [--trace 0|1] [--trace-out FILE]
  benchmark compare PARENT_DIR CHANGE_DIR [--seed N]
workloads: search-tce, search-nwchem, serve-warm, serve-mixed";

fn main() -> ExitCode {
    // Every load runs on at most two threads; the vendored rayon pool would
    // otherwise add one worker per core and change what is measured with
    // the machine.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).map(run_command),
        Some("compare") => compare::parse(&args[1..]).map(compare::run),
        _ => Err("missing command".to_string()),
    };
    parsed.unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        ExitCode::from(2)
    })
}

fn parse_run(args: &[String]) -> Result<RunOptions, String> {
    let mut opts = RunOptions {
        workload: Workload::SearchTce,
        seed: 1,
        // The run length is `run_seconds` in BENCHMARK.json; every caller
        // passes it, and smoke runs take their own.
        seconds: f64::NAN,
        trace: false,
        trace_out: None,
        smoke: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => opts.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                opts.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--trace-out" => opts.trace_out = Some(PathBuf::from(value()?)),
            "--smoke" => opts.smoke = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    if opts.seconds.is_nan() && !opts.smoke {
        return Err("--seconds is required".into());
    }
    Ok(opts)
}

/// Runs one workload with its plan stores in a private directory under
/// `.bench_state/`, removed afterwards.
pub fn run(opts: &RunOptions) -> Outcome {
    let state = PathBuf::from(".bench_state").join(format!(
        "{}-{}",
        opts.workload.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&state);
    let out = match opts.workload {
        Workload::SearchTce | Workload::SearchNwchem => search::run(opts, &state),
        Workload::ServeWarm | Workload::ServeMixed => serve::run(opts, &state),
    };
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_dir(".bench_state");
    out
}

fn run_command(opts: RunOptions) -> ExitCode {
    let mut out = run(&opts);
    for (key, us) in &out.picks {
        println!("pick {key} {us}");
    }
    for m in out.metrics.clone() {
        if !m.value.is_finite() {
            out.fail(format!("metric {} was not measured", m.name));
        }
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    for f in &out.failures {
        eprintln!("FAILED: {f}");
    }
    let correct = out.failed == 0;
    let metrics = out
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(out.attempted as f64)),
        ("failed".into(), Json::Num(out.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", line.to_string_compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes the run's spans where `--trace-out` asks.
pub fn write_trace(opts: &RunOptions, trace: &Trace) {
    if let (Some(path), true) = (&opts.trace_out, trace.is_on()) {
        if let Err(e) = trace.write_jsonl(path) {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs_every_workload_correctly() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let out = run(&RunOptions {
                    workload,
                    seed: 5,
                    seconds: 1.0,
                    trace,
                    trace_out: None,
                    smoke: true,
                });
                assert!(out.attempted > 0, "{}", workload.name());
                assert_eq!(out.failed, 0, "{}: {:?}", workload.name(), out.failures);
                assert!(
                    out.metrics.iter().all(|m| m.value.is_finite()),
                    "{} (trace {trace})",
                    workload.name()
                );
            }
        }
    }
}
