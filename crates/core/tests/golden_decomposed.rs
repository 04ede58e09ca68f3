//! Golden pin for joint and decomposed tuning.
//!
//! Joint (`autotune`) and decomposed (`autotune_decomposed`) tuning run
//! one search, once over every statement or once per statement. These
//! values were captured before the two paths shared any code. A change
//! here means a pick, a reported time or the recorded search trace moved;
//! that is a regression, not a test to re-bless casually.
//!
//! One deliberate re-capture: the three `balanced joint` lines' `times=`
//! digests. The joint path used to record the objective's scores in
//! `evaluated_times`, where the decomposed path recorded times; both now
//! record the measured time of each evaluation (noiseless under
//! `quick()`), so eqn1 and tce, whose joint and decomposed searches are
//! the same search, now print equal digests on both lines.
//!
//! Pinned per (workload, objective, path) on the K20 under
//! `TuneParams::quick()`: the winning id, the bits of `gpu_seconds`,
//! `n_evals`, `batches`, and an FNV-1a digest over the bits of every
//! entry of `evaluated_times` (with its length). Every case runs serially
//! (`threads = 1`) and on the rayon pool (`threads = 0`) and must match
//! the same line.

use barracuda::pipeline::{TuneParams, TunedWorkload, WorkloadTuner};
use barracuda::{kernels, Objective};

const GOLDEN: &str = "\
eqn1 time joint id=126325579 gpu=3efd299973e787e0 evals=40 batches=5 times=40:25133701d0bb4324
eqn1 time decomposed id=126325579 gpu=3efd299973e787e0 evals=40 batches=5 times=40:25133701d0bb4324
eqn1 balanced joint id=128577674 gpu=3ef9f9b123bddfff evals=40 batches=5 times=40:1234b5547ec2fb33
eqn1 balanced decomposed id=128577674 gpu=3ef9f9b123bddfff evals=40 batches=5 times=40:1234b5547ec2fb33
lg3t time joint id=983412724 gpu=3f51999a4df18062 evals=40 batches=5 times=40:bf9f52f278b00f6b
lg3t time decomposed id=969700505 gpu=3f50ae6115ef52cb evals=120 batches=15 times=120:37452e7928d636af
lg3t balanced joint id=983412724 gpu=3f51999a4df18062 evals=40 batches=5 times=40:c6117a8c5b7cee81
lg3t balanced decomposed id=969700505 gpu=3f50ae6115ef52cb evals=120 batches=15 times=120:eb12b9705346e8b6
tce time joint id=1330588893 gpu=3f274d7e009c801e evals=40 batches=5 times=40:1be70e880bc0034b
tce time decomposed id=1330588893 gpu=3f274d7e009c801e evals=40 batches=5 times=40:1be70e880bc0034b
tce balanced joint id=1330588893 gpu=3f274d7e009c801e evals=40 batches=5 times=40:1be70e880bc0034b
tce balanced decomposed id=1330588893 gpu=3f274d7e009c801e evals=40 batches=5 times=40:1be70e880bc0034b
";

fn fnv_bits(xs: &[f64]) -> u64 {
    let mut h: u64 = 0xCBF29CE484222325;
    for x in xs {
        for b in x.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001B3);
        }
    }
    h
}

fn line(workload: &str, objective: &str, path: &str, t: &TunedWorkload) -> String {
    format!(
        "{workload} {objective} {path} id={} gpu={:016x} evals={} batches={} times={}:{:016x}\n",
        t.id,
        t.gpu_seconds.to_bits(),
        t.search.n_evals,
        t.search.batches,
        t.search.evaluated_times.len(),
        fnv_bits(&t.search.evaluated_times),
    )
}

fn capture(threads: usize) -> String {
    let arch = gpusim::k20();
    let mut out = String::new();
    for workload in ["eqn1", "lg3t", "tce"] {
        let w = kernels::builtin(workload).unwrap();
        let tuner = WorkloadTuner::build(&w);
        for (objective, o) in [
            ("time", Objective::time_only()),
            ("balanced", Objective::balanced()),
        ] {
            let mut params = TuneParams::quick();
            params.threads = threads;
            params.objective = o;
            let joint = tuner.autotune(&arch, params).unwrap();
            out.push_str(&line(workload, objective, "joint", &joint));
            let dec = tuner.autotune_decomposed(&arch, params).unwrap();
            out.push_str(&line(workload, objective, "decomposed", &dec));
        }
    }
    out
}

#[test]
fn serial_joint_and_decomposed_picks_match_the_golden_capture() {
    assert_eq!(capture(1), GOLDEN);
}

#[test]
fn parallel_joint_and_decomposed_picks_match_the_golden_capture() {
    assert_eq!(capture(0), GOLDEN);
}
