//! `benchmark compare PARENT CHANGE`: the paired-run rule between two
//! checkouts of the repository.
//!
//! The parent's `BENCHMARK.json` fixes the workloads, the run length and
//! the bounds, and the change must carry the same benchmark: a change that
//! edits it cannot be judged by it. Each checkout's benchmark is built once
//! into its own `.bench_build`. For every workload, pair `i` of ten runs
//! both sides with seed `seed + i`, alternating which side goes first. Per
//! end-to-end metric the verdict is:
//!
//! - **gain**: the change wins at least 9 in 10 pairs (ties count for
//!   neither side) and the medians differ, in its favour, by more than the
//!   parent's own spread (the distance between its quartiles);
//! - **regression**: the change's median is worse than the parent's by more
//!   than the metric's bound;
//! - **unresolved**: the run-to-run spread (on either side) is wider than
//!   the bound, unless every change run reads better than every parent run;
//! - **no regression** otherwise.
//!
//! The kernels the runs pick are also compared key by key, at bound 0 (see
//! [`pick_verdict`]): a change may not buy speed with slower picks.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use barracuda::json::Json;

use crate::stats::{median, quartiles};

/// Pairs of runs per workload: the fewest the gain rule (9 wins in 10)
/// can be applied to.
const PAIRS: usize = 10;
/// The benchmark's own directory, which both checkouts must hold alike.
const BENCH_DIR: &str = "benchmark";

pub struct CompareOptions {
    parent: PathBuf,
    change: PathBuf,
    /// Seed of the first pair. A claimed gain must also hold on seeds not
    /// used while the change was written, so the caller picks them.
    seed: u64,
}

pub fn parse(args: &[String]) -> Result<CompareOptions, String> {
    let mut dirs = Vec::new();
    let mut seed = 1;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|_| "--seed takes an integer")?
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            dir => dirs.push(PathBuf::from(dir)),
        }
    }
    let [parent, change] = <[PathBuf; 2]>::try_from(dirs)
        .map_err(|_| "compare takes a parent and a change directory".to_string())?;
    // Absolute, because each run starts in its checkout.
    let absolute = |dir: PathBuf| {
        dir.canonicalize()
            .map_err(|e| format!("{}: {e}", dir.display()))
    };
    let (parent, change) = (absolute(parent)?, absolute(change)?);
    Ok(CompareOptions {
        parent,
        change,
        seed,
    })
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Gain,
    Regression,
    Unresolved,
    NoRegression,
}

/// The verdict on one metric from paired runs (`parent[i]` and `change[i]`
/// ran with the same seed), plus the change's win count.
pub fn verdict(
    parent: &[f64],
    change: &[f64],
    higher_is_better: bool,
    bound: f64,
) -> (Verdict, usize) {
    let better = |a: f64, b: f64| if higher_is_better { a > b } else { a < b };
    let n = parent.len().min(change.len());
    let wins = (0..n).filter(|&i| better(change[i], parent[i])).count();
    let (pm, cm) = (median(parent), median(change));
    let (pq1, pq3) = quartiles(parent);
    let (cq1, cq3) = quartiles(change);
    let worse_by = if higher_is_better { pm - cm } else { cm - pm } / pm;
    let spread = ((pq3 - pq1) / pm).max((cq3 - cq1) / cm);
    let separated = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let v = if n >= 10 && wins * 10 >= 9 * n && better(cm, pm) && (cm - pm).abs() > pq3 - pq1 {
        Verdict::Gain
    } else if worse_by > bound {
        Verdict::Regression
    } else if spread > bound && !separated {
        Verdict::Unresolved
    } else {
        Verdict::NoRegression
    };
    (v, wins)
}

/// One run's picks: device time in µs by tuned key.
type Picks = Vec<(String, f64)>;

/// The picks of paired runs, key by key. A seed tunes the same keys the
/// same way on both commits, so their picks compare without noise, at
/// bound 0: the change regresses when, in any pair, the geometric mean of
/// its picks over the keys both runs tuned is slower than the parent's.
/// Also returns how many pairs read slower and how many picks differ.
pub fn pick_verdict(parent: &[Picks], change: &[Picks]) -> (Verdict, usize, usize) {
    let mut slower_pairs = 0;
    let mut differing = 0;
    for (p, c) in parent.iter().zip(change) {
        let by_key: std::collections::HashMap<&str, f64> =
            p.iter().map(|(k, us)| (k.as_str(), *us)).collect();
        let mut log_ratio = 0.0;
        for (k, us) in c {
            if let Some(p_us) = by_key.get(k.as_str()) {
                differing += usize::from(us.to_bits() != p_us.to_bits());
                log_ratio += (us / p_us).ln();
            }
        }
        slower_pairs += usize::from(log_ratio > 0.0);
    }
    let v = if slower_pairs > 0 {
        Verdict::Regression
    } else {
        Verdict::NoRegression
    };
    (v, slower_pairs, differing)
}

struct Bound {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

/// The end-to-end metrics, their directions and bounds, and the workloads
/// of a checkout's `BENCHMARK.json`.
fn read_contract(dir: &Path) -> Result<(Vec<Bound>, Vec<String>, f64), String> {
    let path = dir.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = |k: &str| v.get(k).and_then(Json::as_arr).unwrap_or(&[]).to_vec();
    let name = |m: &Json| {
        m.get("name")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string()
    };
    let bounds = list("end_to_end")
        .iter()
        .map(|m| Bound {
            name: name(m),
            higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
            bound: m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
        })
        .collect();
    let workloads = list("workloads").iter().map(name).collect();
    let seconds = v
        .get("run_seconds")
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{}: no run_seconds", path.display()))?;
    Ok((bounds, workloads, seconds))
}

/// `BENCHMARK.json` and every file of the benchmark's directory, by path
/// relative to the checkout. Build output (`target/`) is skipped, and so is
/// `Cargo.lock`, which records the program's own crates and may move with
/// them.
fn benchmark_files(dir: &Path) -> Result<Vec<(PathBuf, Vec<u8>)>, String> {
    fn walk(root: &Path, rel: &Path, out: &mut Vec<(PathBuf, Vec<u8>)>) -> Result<(), String> {
        let path = root.join(rel);
        let read_err = |e: std::io::Error| format!("{}: {e}", path.display());
        if path.is_dir() {
            for entry in std::fs::read_dir(&path).map_err(read_err)? {
                let name = entry.map_err(read_err)?.file_name();
                if name != "target" && name != "Cargo.lock" {
                    walk(root, &rel.join(name), out)?;
                }
            }
        } else {
            out.push((rel.to_path_buf(), std::fs::read(&path).map_err(read_err)?));
        }
        Ok(())
    }
    let mut files = Vec::new();
    walk(dir, Path::new("BENCHMARK.json"), &mut files)?;
    walk(dir, Path::new(BENCH_DIR), &mut files)?;
    files.sort();
    Ok(files)
}

/// Builds a checkout's benchmark into its own `.bench_build` and returns
/// the binary.
fn build(dir: &Path) -> Result<PathBuf, String> {
    let target = dir.join(".bench_build");
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
        ])
        .arg(dir.join(BENCH_DIR).join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!(
            "building the benchmark in {} failed",
            dir.display()
        ));
    }
    Ok(target.join("release/benchmark"))
}

/// One run's end-to-end metrics by name, and its picks.
fn run_once(
    bin: &Path,
    dir: &Path,
    workload: &str,
    seed: u64,
    seconds: f64,
) -> Result<(Vec<(String, f64)>, Picks), String> {
    let out = Command::new(bin)
        .args(["run", "--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .current_dir(dir)
        .output()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let v = Json::parse(last).map_err(|e| format!("{workload} in {}: {e}", dir.display()))?;
    if v.get("correct").and_then(Json::as_bool) != Some(true) || !out.status.success() {
        return Err(format!("{workload} in {} was not correct", dir.display()));
    }
    let picks = stdout
        .lines()
        .filter_map(|line| match line.split(' ').collect::<Vec<_>>()[..] {
            ["pick", key, us] => Some((key.to_string(), us.parse().ok()?)),
            _ => None,
        })
        .collect();
    match v.get("metrics") {
        Some(Json::Obj(members)) => Ok((
            members
                .iter()
                .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
                .collect(),
            picks,
        )),
        _ => Err(format!(
            "{workload} in {} printed no metrics",
            dir.display()
        )),
    }
}

pub fn run(opts: CompareOptions) -> ExitCode {
    match compare(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::FAILURE
        }
    }
}

fn compare(opts: &CompareOptions) -> Result<(), String> {
    let (bounds, workloads, seconds) = read_contract(&opts.parent)?;
    if benchmark_files(&opts.parent)? != benchmark_files(&opts.change)? {
        return Err(format!(
            "{} edits the benchmark; a change is measured with the parent's benchmark \
             unchanged, and a change to the benchmark claims no gain",
            opts.change.display()
        ));
    }
    let sides = [&opts.parent, &opts.change];
    let bins = [build(sides[0])?, build(sides[1])?];
    println!(
        "{:14} {:20} {:>32} {:>32} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    for w in &workloads {
        // runs[side][pair] = metrics of that run; picks likewise
        let mut runs: [Vec<Vec<(String, f64)>>; 2] = [Vec::new(), Vec::new()];
        let mut picks: [Vec<Picks>; 2] = [Vec::new(), Vec::new()];
        for i in 0..PAIRS {
            let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
            for side in order {
                let (m, p) = run_once(&bins[side], sides[side], w, opts.seed + i as u64, seconds)?;
                runs[side].push(m);
                picks[side].push(p);
            }
        }
        let (v, slower, differing) = pick_verdict(&picks[0], &picks[1]);
        println!(
            "{w:14} {:20} {differing} picks differ, {slower} of {PAIRS} pairs pick slower  {v:?}",
            "picks (bound 0)"
        );
        for b in &bounds {
            let values = |side: usize| -> Vec<f64> {
                runs[side]
                    .iter()
                    .filter_map(|m| m.iter().find(|(k, _)| *k == b.name).map(|(_, v)| *v))
                    .collect()
            };
            let (p, c) = (values(0), values(1));
            let (v, wins) = verdict(&p, &c, b.higher_is_better, b.bound);
            let summary = |x: &[f64]| {
                let (q1, q3) = quartiles(x);
                format!("{:.4} [{:.4}, {:.4}]", median(x), q1, q3)
            };
            println!(
                "{w:14} {:20} {:>32} {:>32} {:>3}/{:<2}  {v:?}",
                b.name,
                summary(&p),
                summary(&c),
                wins,
                p.len().min(c.len())
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, jitter: &[f64]) -> Vec<f64> {
        jitter.iter().map(|j| center * (1.0 + j)).collect()
    }

    const JITTER: [f64; 10] = [
        0.01, -0.01, 0.0, 0.005, -0.005, 0.002, -0.002, 0.008, -0.008, 0.0,
    ];

    #[test]
    fn clear_gain_needs_nine_wins_and_a_gap_beyond_the_spread() {
        let parent = around(100.0, &JITTER);
        let change = around(80.0, &JITTER);
        assert_eq!(verdict(&parent, &change, false, 0.1), (Verdict::Gain, 10));
        // Higher-is-better metrics win the other way round.
        assert_eq!(verdict(&change, &parent, true, 0.1), (Verdict::Gain, 10));
        // Too few pairs never claim a gain.
        assert_ne!(
            verdict(&parent[..5], &change[..5], false, 0.1).0,
            Verdict::Gain
        );
    }

    #[test]
    fn worse_by_more_than_the_bound_is_a_regression() {
        let parent = around(100.0, &JITTER);
        let change = around(115.0, &JITTER);
        assert_eq!(verdict(&parent, &change, false, 0.1).0, Verdict::Regression);
        assert_eq!(
            verdict(&parent, &change, false, 0.2).0,
            Verdict::NoRegression
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let wide = [0.3, -0.3, 0.0, 0.2, -0.2, 0.1, -0.1, 0.25, -0.25, 0.0];
        let parent = around(100.0, &wide);
        let change = around(101.0, &wide);
        assert_eq!(verdict(&parent, &change, false, 0.1).0, Verdict::Unresolved);
        // Unless every change run beats every parent run.
        let far = around(10.0, &wide);
        assert_eq!(verdict(&parent, &far, false, 0.1).0, Verdict::Gain);
    }

    #[test]
    fn any_pair_with_slower_picks_is_a_regression() {
        let run = |picks: &[(&str, f64)]| -> Picks {
            picks.iter().map(|&(k, us)| (k.to_string(), us)).collect()
        };
        let parent = vec![run(&[("tce#0", 100.0), ("tce#1", 200.0)]); 10];
        // Identical picks, even with an extra tune on one side.
        let mut same = parent.clone();
        same[3].push(("tce#2".to_string(), 900.0));
        assert_eq!(pick_verdict(&parent, &same), (Verdict::NoRegression, 0, 0));
        // One pick faster and one slower by more: slower on balance.
        let mut change = parent.clone();
        change[7] = run(&[("tce#0", 90.0), ("tce#1", 240.0)]);
        assert_eq!(pick_verdict(&parent, &change), (Verdict::Regression, 1, 2));
        // Faster on balance is no regression.
        change[7] = run(&[("tce#0", 80.0), ("tce#1", 210.0)]);
        assert_eq!(
            pick_verdict(&parent, &change),
            (Verdict::NoRegression, 0, 2)
        );
    }

    #[test]
    fn a_change_that_edits_the_benchmark_is_refused() {
        let root = std::env::temp_dir().join(format!("bench-compare-{}", std::process::id()));
        let checkout = |side: &str, main_rs: &str| {
            let dir = root.join(side);
            std::fs::create_dir_all(dir.join("benchmark/src")).unwrap();
            std::fs::create_dir_all(dir.join("benchmark/target")).unwrap();
            std::fs::write(dir.join("BENCHMARK.json"), "{}").unwrap();
            std::fs::write(dir.join("benchmark/src/main.rs"), main_rs).unwrap();
            std::fs::write(dir.join("benchmark/target/junk"), side).unwrap();
            std::fs::write(dir.join("benchmark/Cargo.lock"), side).unwrap();
            benchmark_files(&dir).unwrap()
        };
        let parent = checkout("parent", "fn main() {}");
        // Build output and the lock file may differ.
        assert_eq!(parent, checkout("same", "fn main() {}"));
        assert_ne!(parent, checkout("edited", "fn main() { loop {} }"));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn ties_count_for_neither_side() {
        let same = around(100.0, &JITTER);
        assert_eq!(
            verdict(&same, &same, false, 0.1),
            (Verdict::NoRegression, 0)
        );
    }
}
