//! Golden pin for the bytes of a saved plan.
//!
//! A plan file is the artifact a search leaves behind for every later
//! replay: `--save-plan` files and plan-store entries written by one build
//! must keep replaying on the next. These texts are the schema-v4 capture:
//! the v3 capture with `schema_version` at 4 and without the three
//! provenance fields v4 dropped (the combined time-and-feature memo hit
//! rate, hits and misses), every other byte unchanged. A change here means
//! the on-disk layout moved; that is a format break, not a test to
//! re-bless.
//!
//! Two plans, both tuned on the K20 with `threads = 1`:
//! - tce under `TuneParams::quick()`, the plain case;
//! - eqn1 with every optional part of the layout non-empty: injected
//!   faults fill the quarantine list, an evaluation cap below the SURF
//!   budget degrades the status, and the balanced objective carries a
//!   penalize-mode memory budget.
//!
//! Only the values that change from run to run are masked: `wall_s` and
//! the four `hot` nanosecond counts. Each unmasked text must also survive
//! `from_json_text` followed by `to_json_text` byte for byte.

use barracuda::pipeline::{TuneParams, WorkloadTuner};
use barracuda::{kernels, BackendSet, BudgetMode, Objective, TunedPlan};
use surf::FaultPlan;

const GOLDEN_TCE: &str = r#"
{
  "schema_version": 4,
  "workload": "tce",
  "source": "S[a b i j] = Sum([c d e f k l], A[a c i k] * B[b e f l] * C[d f j k] * D[c d e l])",
  "dims": {
    "a": 10,
    "b": 10,
    "c": 10,
    "d": 10,
    "e": 10,
    "f": 10,
    "i": 10,
    "j": 10,
    "k": 10,
    "l": 10
  },
  "fingerprint": "efd8cea26f37304f",
  "backend": "k20",
  "cache_salt": "6e823a334554b6f9",
  "arch_name": "Tesla K20",
  "id": "1330588893",
  "choices": [
    {
      "version": 0,
      "local": "1330588893"
    }
  ],
  "gpu_seconds": 0.0001777855216511534,
  "transfer_seconds": 0.00010072727272727273,
  "flops": "6000000",
  "quarantine": [],
  "objective": {
    "time_weight": 1,
    "mem_weight": 0,
    "rw_weight": 0,
    "mem_budget": null,
    "budget_mode": "prune"
  },
  "provenance": {
    "n_evals": 40,
    "batches": 5,
    "space_size": "2914447608000",
    "pool_size": 2000,
    "wall_s": <masked>,
    "threads": 1,
    "quarantined_versions": 0,
    "quarantined_configs": 0,
    "per_op_hit_rate": 0.016666666666666666,
    "time_hit_rate": 0,
    "per_op_hits": 2,
    "per_op_misses": 118,
    "time_hits": 0,
    "time_misses": 40,
    "hot": {
      "decode_ns": <masked>,
      "map_ns": <masked>,
      "sim_ns": <masked>,
      "predict_ns": <masked>
    },
    "pruned_by_memory": 0,
    "versions_over_budget": 0,
    "peak_temp_bytes": "160000",
    "rw_bytes": "720000",
    "degraded": false,
    "status": "complete"
  }
}
"#;

const GOLDEN_EQN1: &str = r#"
{
  "schema_version": 4,
  "workload": "ex",
  "source": "V[i j k] = Sum([l m n], A[l k] * B[m j] * C[n i] * U[l m n])",
  "dims": {
    "i": 10,
    "j": 10,
    "k": 10,
    "l": 10,
    "m": 10,
    "n": 10
  },
  "fingerprint": "16b941b9172c4813",
  "backend": "k20",
  "cache_salt": "6e823a334554b6f9",
  "arch_name": "Tesla K20",
  "id": "129742251",
  "choices": [
    {
      "version": 2,
      "local": "129742251"
    }
  ],
  "gpu_seconds": 0.000022717510481586404,
  "transfer_seconds": 0.000031345454545454545,
  "flops": "60000",
  "quarantine": [
    {
      "stage": "simulation",
      "statement": null,
      "version": null,
      "config": "12466885240",
      "reason": "non-finite simulated time NaN"
    },
    {
      "stage": "injected",
      "statement": null,
      "version": null,
      "config": "31721164",
      "reason": "[injected] injected evaluation failure for config 31721164"
    },
    {
      "stage": "simulation",
      "statement": null,
      "version": null,
      "config": "1057790529",
      "reason": "non-finite simulated time NaN"
    }
  ],
  "objective": {
    "time_weight": 1,
    "mem_weight": 1,
    "rw_weight": 0.25,
    "mem_budget": "24000",
    "budget_mode": "penalize"
  },
  "provenance": {
    "n_evals": 21,
    "batches": 3,
    "space_size": "55867328000",
    "pool_size": 2000,
    "wall_s": <masked>,
    "threads": 1,
    "quarantined_versions": 0,
    "quarantined_configs": 3,
    "per_op_hit_rate": 0.031746031746031744,
    "time_hit_rate": 0,
    "per_op_hits": 2,
    "per_op_misses": 61,
    "time_hits": 0,
    "time_misses": 21,
    "hot": {
      "decode_ns": <masked>,
      "map_ns": <masked>,
      "sim_ns": <masked>,
      "predict_ns": <masked>
    },
    "pruned_by_memory": 0,
    "versions_over_budget": 9,
    "peak_temp_bytes": "16000",
    "rw_bytes": "50400",
    "degraded": true,
    "status": "degraded: evaluation budget exhausted after 24 attempts (cap 24)"
  }
}
"#;

/// Plan text of one tune of the builtin `workload` on the K20.
fn plan_text(workload: &str, params: TuneParams) -> String {
    let w = kernels::builtin(workload).unwrap();
    let tuner = WorkloadTuner::build(&w);
    let tuned = tuner.autotune(&gpusim::k20(), params).unwrap();
    let set = BackendSet::builtin();
    let k20 = set.get("k20").unwrap();
    TunedPlan::from_tuned_for(&tuner, k20.as_ref(), &tuned).to_json_text()
}

/// `text` with the wall-clock values replaced by a fixed marker.
fn masked(text: &str) -> String {
    const VARYING: [&str; 5] = [
        "\"wall_s\": ",
        "\"decode_ns\": ",
        "\"map_ns\": ",
        "\"sim_ns\": ",
        "\"predict_ns\": ",
    ];
    let mut out = String::new();
    for line in text.lines() {
        let trimmed = line.trim_start();
        match VARYING.iter().find(|k| trimmed.starts_with(*k)) {
            Some(key) => {
                let indent = &line[..line.len() - trimmed.len()];
                let comma = if trimmed.ends_with(',') { "," } else { "" };
                out.push_str(&format!("{indent}{key}<masked>{comma}"));
            }
            None => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

fn assert_pinned(text: &str, golden: &str) {
    assert_eq!(masked(text), golden.trim_start_matches('\n'));
    let back = TunedPlan::from_json_text(text).unwrap();
    assert_eq!(
        back.to_json_text(),
        text,
        "parse then write must be lossless"
    );
}

#[test]
fn plain_tce_plan_bytes_match_the_golden_capture() {
    let mut params = TuneParams::quick();
    params.threads = 1;
    assert_pinned(&plan_text("tce", params), GOLDEN_TCE);
}

#[test]
fn eqn1_plan_with_every_optional_part_matches_the_golden_capture() {
    let mut params = TuneParams::quick();
    params.threads = 1;
    params.fault_injection = Some(FaultPlan::mixed(0.2, 7));
    params.max_evaluations = Some(params.surf.max_evals - 16);
    params.objective = Objective {
        mem_budget: Some(24_000),
        budget_mode: BudgetMode::Penalize,
        ..Objective::balanced()
    };
    let text = plan_text("eqn1", params);
    assert!(text.contains("\"degraded\": true"), "{text}");
    assert!(text.contains("\"stage\": "), "{text}");
    assert_pinned(&text, GOLDEN_EQN1);
}
