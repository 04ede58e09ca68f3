//! Integration tests for the `barracuda` command-line tool.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_barracuda"))
}

#[test]
fn benchmarks_lists_builtins() {
    let out = bin().arg("benchmarks").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("builtin:eqn1"));
    assert!(text.contains("builtin:d1_1 .. builtin:d1_9"));
}

#[test]
fn info_on_a_dsl_file() {
    let dir = std::env::temp_dir();
    let path = dir.join("barracuda_cli_test.dsl");
    std::fs::write(&path, "W[a c] = Sum([b], X[a b] * Y[b c])").unwrap();
    let out = bin()
        .args(["info", path.to_str().unwrap(), "--dims", "8"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("1 OCTOPI version(s)"));
    assert!(text.contains("external inputs : [\"X\", \"Y\"]"));
}

#[test]
fn tune_builtin_quick_with_validation() {
    let out = bin()
        .args([
            "tune",
            "builtin:eqn1",
            "--quick",
            "--evals",
            "30",
            "--validate",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("GTX 980"));
    assert!(text.contains("validation: OK"));
}

#[test]
fn tune_emits_cuda() {
    let out = bin()
        .args([
            "tune",
            "builtin:eqn1",
            "--quick",
            "--evals",
            "20",
            "--emit",
            "cuda",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("__global__ void"));
}

#[test]
fn unknown_arch_exits_2_usage() {
    let out = bin()
        .args(["tune", "builtin:eqn1", "--arch", "h100"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown architecture"));
}

#[test]
fn quick_without_evals_searches_the_quick_budget() {
    let out = bin()
        .args(["tune", "builtin:eqn1", "--quick", "--arch", "k20"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("(40 evals, "), "stdout: {text}");
}

/// Malformed objectives, as CLI flags and, where JSON can say it, as the
/// fields of a daemon tune request (JSON has no NaN).
const MALFORMED_OBJECTIVES: [(&[&str], Option<&str>); 4] = [
    (
        &["--objective", "fastest"],
        Some(r#""objective":"fastest""#),
    ),
    (&["--mem-weight", "-1"], Some(r#""mem_weight":-1"#)),
    (&["--rw-weight", "NaN"], None),
    (&["--mem-penalize"], Some(r#""penalize":true"#)),
];

#[test]
fn malformed_objectives_are_refused_by_the_cli_and_the_daemon_alike() {
    use barracuda::json::Json;
    let daemon = barracuda::Daemon::new(barracuda::ServeOptions::default()).unwrap();
    for (flags, fields) in MALFORMED_OBJECTIVES {
        // Options are parsed before the workload is lowered, so each
        // refusal comes before any search.
        let out = bin()
            .args(["tune", "builtin:eqn1"])
            .args(flags)
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {err}");
        assert!(err.contains("error:"), "{flags:?}: {err}");
        let Some(fields) = fields else { continue };
        let line = format!(r#"{{"op":"tune","id":"bad","workload":"builtin:eqn1",{fields}}}"#);
        let response = Json::parse(&daemon.handle_line(&line).response).unwrap();
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            response.get("stage").and_then(Json::as_str),
            Some("serve"),
            "{line}"
        );
        assert_eq!(response.get("exit_code").and_then(Json::as_u64), Some(12));
        // The refusal echoes the request's op and id like any response.
        assert_eq!(response.get("op").and_then(Json::as_str), Some("tune"));
        assert_eq!(response.get("id").and_then(Json::as_str), Some("bad"));
    }
    // An unknown op is echoed too; a line that is not JSON has neither an
    // op nor an id to echo.
    for (line, op, id) in [
        (r#"{"op":"frob","id":"y"}"#, "frob", Some("y")),
        ("not json", "error", None),
    ] {
        let response = Json::parse(&daemon.handle_line(line).response).unwrap();
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(response.get("exit_code").and_then(Json::as_u64), Some(12));
        assert_eq!(response.get("op").and_then(Json::as_str), Some(op));
        assert_eq!(response.get("id").and_then(Json::as_str), id);
    }
}

#[test]
fn unknown_option_exits_2_usage() {
    let out = bin()
        .args(["tune", "builtin:eqn1", "--frobnicate"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn missing_file_exits_1() {
    let out = bin()
        .args(["tune", "/nonexistent/path.dsl"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn no_arguments_exits_2_with_usage() {
    let out = bin().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn syntax_error_exits_3_parse() {
    let dir = std::env::temp_dir();
    let path = dir.join("barracuda_cli_parse_error.dsl");
    std::fs::write(&path, "W[a c] = Sum([b], X[a b] *").unwrap();
    let out = bin()
        .args(["info", path.to_str().unwrap(), "--dims", "8"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("error[parse]"));
}

#[test]
fn missing_extent_exits_4_validation() {
    let dir = std::env::temp_dir();
    let path = dir.join("barracuda_cli_missing_extent.dsl");
    std::fs::write(&path, "W[a c] = Sum([b], X[a b] * Y[b c])").unwrap();
    // Only 'a' gets an extent; 'b' and 'c' are undeclared.
    let out = bin()
        .args(["info", path.to_str().unwrap(), "--dim", "a=8"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error[validation]"), "stderr: {err}");
    assert!(err.contains("statement"), "stderr: {err}");
}

/// A contraction whose three minimal-flop versions start with a scalar
/// temporary (`t1:() += A:(i)*B:(i)`): that op has no parallel loop, so
/// there is nothing to map onto GPU threads.
fn scalar_temp_dsl(tag: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!(
        "barracuda_cli_scalar_temp_{tag}_{}.dsl",
        std::process::id()
    ));
    std::fs::write(&path, "S[k] = Sum([i j], A[i] * B[i] * C[j k] * D[j])").unwrap();
    path
}

#[test]
fn scalar_temp_versions_are_quarantined_and_the_rest_tune() {
    let path = scalar_temp_dsl("tune");
    let out = bin()
        .args(["tune", path.to_str().unwrap(), "--dims", "3", "--quick"])
        .args(["--arch", "k20", "--validate"])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout: {text}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(text.contains("quarantine: 3 entries"), "stdout: {text}");
    assert!(text.contains("validation: OK"), "stdout: {text}");
}

#[test]
fn naive_openacc_on_a_scalar_output_exits_6_mapping() {
    let path = scalar_temp_dsl("acc");
    let out = bin()
        .args(["tune", path.to_str().unwrap(), "--dims", "3", "--quick"])
        .args(["--backend", "acc-naive"])
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(6), "stderr: {err}");
    assert!(err.contains("error[mapping]"), "stderr: {err}");
}

#[test]
fn saturated_fault_injection_exits_8_search() {
    let out = bin()
        .args([
            "tune",
            "builtin:eqn1",
            "--quick",
            "--evals",
            "20",
            "--inject-faults",
            "1.0",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(8));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error[search]"), "stderr: {err}");
}

#[test]
fn degraded_run_exits_0_without_strict_and_9_with() {
    let args = [
        "tune",
        "builtin:eqn1",
        "--quick",
        "--evals",
        "20",
        "--deadline",
        "0",
    ];
    let lenient = bin().args(args).output().unwrap();
    assert_eq!(
        lenient.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&lenient.stderr)
    );
    assert!(String::from_utf8_lossy(&lenient.stdout).contains("status: degraded"));

    let strict = bin().args(args).arg("--strict").output().unwrap();
    assert_eq!(strict.status.code(), Some(9));
    assert!(String::from_utf8_lossy(&strict.stderr).contains("degraded under --strict"));
}

#[test]
fn backends_lists_the_registry() {
    let out = bin().arg("backends").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for key in [
        "gtx980",
        "k20",
        "c2050",
        "cpu1",
        "cpu4",
        "acc-naive",
        "acc-opt",
    ] {
        assert!(text.contains(key), "missing backend {key}: {text}");
    }
}

/// End-to-end descriptor flow through the CLI: `--arch-file` adds a
/// backend, the store misses then hits, `plans list` reports descriptor
/// provenance, and editing the descriptor invalidates the stored plan
/// (replay exits 10) until a fresh search repopulates the store.
#[test]
fn descriptor_file_drives_tune_store_and_invalidation() {
    let dir = std::env::temp_dir().join(format!("barracuda_cli_descriptor_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let desc = dir.join("k20x.toml");
    let store = dir.join("store");
    // A K20 variant with its own key — tweaked bandwidth so the digest
    // (and the tuned result) are genuinely its own.
    let toml = "\
name = \"Tesla K20X (cli)\"\n\
key = \"k20x\"\n\
generation = \"Kepler\"\n\
sm_count = 14\n\
clock_ghz = 0.732\n\
dp_flops_per_cycle_per_sm = 128.0\n\
issue_lanes_per_cycle_per_sm = 160.0\n\
mem_bw_gbs = 180.0\n\
l2_bytes = 1572864\n\
l2_bw_gbs = 350.0\n\
smem_per_sm = 49152\n\
max_threads_per_sm = 2048\n\
max_blocks_per_sm = 16\n\
max_warps_per_sm = 64\n\
regs_per_sm = 65536\n\
warp_size = 32\n\
transaction_bytes = 128\n\
kernel_launch_us = 7.0\n\
pcie_bw_gbs = 5.5\n\
pcie_latency_us = 14.0\n\
dp_latency_cycles = 24.0\n\
l2_latency_cycles = 220.0\n\
compile_seconds = 7.6\n";
    std::fs::write(&desc, toml).unwrap();
    let desc_arg = desc.to_str().unwrap();
    let store_arg = store.to_str().unwrap();

    // The loaded descriptor shows up in `backends`.
    let out = bin()
        .args(["backends", "--arch-file", desc_arg])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("k20x"), "{text}");
    assert!(text.contains("Tesla K20X (cli)"), "{text}");

    // First tune: store miss, searched and persisted. No --arch needed —
    // the loaded descriptor is the default target.
    let tune = |args: &[&str]| {
        bin()
            .args([
                "tune",
                "builtin:eqn1",
                "--quick",
                "--evals",
                "20",
                "--arch-file",
                desc_arg,
                "--store",
                store_arg,
            ])
            .args(args)
            .output()
            .unwrap()
    };
    let first = tune(&[]);
    assert!(first.status.success());
    let first_text = String::from_utf8_lossy(&first.stdout);
    assert!(first_text.contains("Tesla K20X (cli)"), "{first_text}");
    assert!(first_text.contains("plan store: miss"), "{first_text}");

    // Second tune: warm hit, zero search evaluations, identical timing.
    let second = tune(&[]);
    assert!(second.status.success());
    let second_text = String::from_utf8_lossy(&second.stdout);
    assert!(
        second_text.contains("plan store: hit (0 search evaluations"),
        "{second_text}"
    );
    assert_eq!(
        first_text.lines().next(),
        second_text.lines().next(),
        "hit must replay the searched timing byte-identically"
    );

    // `plans list` ties the entry to the loaded descriptor digest.
    let list = bin()
        .args([
            "plans",
            "list",
            "--store",
            store_arg,
            "--arch-file",
            desc_arg,
        ])
        .output()
        .unwrap();
    assert!(list.status.success());
    let list_text = String::from_utf8_lossy(&list.stdout);
    assert!(list_text.contains("k20x"), "{list_text}");
    assert!(list_text.contains("descriptor "), "{list_text}");

    // Edit one field: the digest moves, so the stored plan no longer
    // answers — replay rejects it with the plan exit code.
    std::fs::write(&desc, toml.replace("180.0", "200.0")).unwrap();
    let replay = bin()
        .args([
            "replay",
            "builtin:eqn1",
            "--store",
            store_arg,
            "--arch-file",
            desc_arg,
        ])
        .output()
        .unwrap();
    assert_eq!(replay.status.code(), Some(10), "stale plan must exit 10");

    // The old entry is now reported as superseded...
    let list = bin()
        .args([
            "plans",
            "list",
            "--store",
            store_arg,
            "--arch-file",
            desc_arg,
        ])
        .output()
        .unwrap();
    let list_text = String::from_utf8_lossy(&list.stdout);
    assert!(list_text.contains("[superseded"), "{list_text}");
    // ...and without the descriptor loaded it degrades to a note.
    let list = bin()
        .args(["plans", "list", "--store", store_arg])
        .output()
        .unwrap();
    let list_text = String::from_utf8_lossy(&list.stdout);
    assert!(list_text.contains("[backend not loaded]"), "{list_text}");

    // A fresh tune under the edited descriptor searches again and files
    // a second entry under the new digest.
    let third = tune(&[]);
    assert!(third.status.success());
    let third_text = String::from_utf8_lossy(&third.stdout);
    assert!(third_text.contains("plan store: miss"), "{third_text}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A malformed descriptor file is a typed descriptor error: exit 14.
#[test]
fn bad_descriptor_file_exits_14() {
    let dir = std::env::temp_dir();
    let desc = dir.join(format!(
        "barracuda_cli_bad_descriptor_{}.toml",
        std::process::id()
    ));
    std::fs::write(&desc, "name = \"half a descriptor\"\n").unwrap();
    let out = bin()
        .args(["backends", "--arch-file", desc.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(14));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error[descriptor]"), "stderr: {err}");
    let _ = std::fs::remove_file(&desc);
}

#[test]
fn unknown_backend_exits_2_usage() {
    let out = bin()
        .args(["tune", "builtin:eqn1", "--backend", "tpu"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown backend"), "stderr: {err}");
}

#[test]
fn save_plan_then_replay_reproduces_the_time_without_searching() {
    let dir = std::env::temp_dir();
    let plan = dir.join("barracuda_cli_roundtrip.plan.json");
    let tune = bin()
        .args([
            "tune",
            "builtin:eqn1",
            "--quick",
            "--evals",
            "20",
            "--arch",
            "k20",
            "--save-plan",
            plan.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        tune.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&tune.stderr)
    );
    let tune_text = String::from_utf8_lossy(&tune.stdout);
    assert!(tune_text.contains("plan saved to"), "stdout: {tune_text}");

    let replay = bin()
        .args(["replay", plan.to_str().unwrap(), "--validate"])
        .output()
        .unwrap();
    assert!(
        replay.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&replay.stderr)
    );
    let replay_text = String::from_utf8_lossy(&replay.stdout);
    assert!(replay_text.contains("replayed"), "stdout: {replay_text}");
    assert!(
        replay_text.contains("validation: OK"),
        "stdout: {replay_text}"
    );

    // The timing columns ("<name> <us> us device ... GF w/transfers") must
    // be identical: replay reproduces the tuned result bit-for-bit. Only
    // the trailing parenthetical (eval counts) differs by design.
    let timing = |text: &str| -> String {
        text.lines()
            .find(|l| l.contains(" us device "))
            .unwrap_or_default()
            .split(" (")
            .next()
            .unwrap_or_default()
            .to_string()
    };
    assert_eq!(
        timing(&tune_text),
        timing(&replay_text),
        "tune: {tune_text}\nreplay: {replay_text}"
    );
}

#[test]
fn stale_plan_fingerprint_exits_10() {
    let dir = std::env::temp_dir();
    let plan = dir.join("barracuda_cli_stale.plan.json");
    let tune = bin()
        .args([
            "tune",
            "builtin:eqn1",
            "--quick",
            "--evals",
            "20",
            "--arch",
            "k20",
            "--save-plan",
            plan.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(tune.status.success());
    // Change the embedded workload source: the fingerprint no longer
    // matches and replay must refuse with the typed plan error.
    let text = std::fs::read_to_string(&plan).unwrap();
    let tampered = text.replace("V[i j k]", "W[i j k]");
    assert_ne!(text, tampered, "plan text should embed the DSL source");
    std::fs::write(&plan, tampered).unwrap();
    let replay = bin()
        .args(["replay", plan.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(replay.status.code(), Some(10));
    let err = String::from_utf8_lossy(&replay.stderr);
    assert!(err.contains("error[plan]"), "stderr: {err}");
    assert!(err.contains("fingerprint"), "stderr: {err}");
}

#[test]
fn store_hit_tune_replays_bit_identically_with_zero_evals() {
    let store =
        std::env::temp_dir().join(format!("barracuda_cli_store_hit_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let args = [
        "tune",
        "builtin:eqn1",
        "--quick",
        "--evals",
        "20",
        "--arch",
        "k20",
        "--store",
        store.to_str().unwrap(),
    ];
    let cold = bin().args(args).output().unwrap();
    assert!(
        cold.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&cold.stderr)
    );
    let cold_text = String::from_utf8_lossy(&cold.stdout);
    assert!(
        cold_text.contains("plan store: miss (searched, stored"),
        "stdout: {cold_text}"
    );

    let warm = bin().args(args).output().unwrap();
    assert!(warm.status.success());
    let warm_text = String::from_utf8_lossy(&warm.stdout);
    assert!(
        warm_text.contains("plan store: hit (0 search evaluations"),
        "stdout: {warm_text}"
    );
    // The whole timing line — including the "(N evals, space S)" tail
    // reconstructed from provenance — must be bit-identical to the
    // original tuned run.
    let timing = |text: &str| -> String {
        text.lines()
            .find(|l| l.contains(" us device "))
            .unwrap_or_default()
            .to_string()
    };
    assert_eq!(
        timing(&cold_text),
        timing(&warm_text),
        "cold: {cold_text}\nwarm: {warm_text}"
    );

    // `replay` with a store takes a workload spec, not a path, and
    // validates against the reference evaluator.
    let replay = bin()
        .args([
            "replay",
            "builtin:eqn1",
            "--store",
            store.to_str().unwrap(),
            "--backend",
            "k20",
            "--validate",
        ])
        .output()
        .unwrap();
    assert!(
        replay.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&replay.stderr)
    );
    let replay_text = String::from_utf8_lossy(&replay.stdout);
    assert!(replay_text.contains("validation: OK"), "{replay_text}");
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn plans_gc_evicts_a_planted_v1_plan() {
    let store = std::env::temp_dir().join(format!("barracuda_cli_store_gc_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let tune = bin()
        .args([
            "tune",
            "builtin:eqn1",
            "--quick",
            "--evals",
            "20",
            "--arch",
            "k20",
            "--store",
            store.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(tune.status.success());

    // Plant a v1 copy at its schema-1 address (what a pre-v2 build would
    // have left behind: salt zero, schema tag 1).
    let v3_path = std::fs::read_dir(&store)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.to_string_lossy().contains("-v3-"))
        .unwrap();
    let v3_name = v3_path.file_name().unwrap().to_string_lossy().into_owned();
    let (fingerprint, _) = v3_name.split_once('-').unwrap();
    let v1_path = store.join(format!("{fingerprint}-{:016x}-v1-k20.plan.json", 0));
    let v1_text = std::fs::read_to_string(&v3_path)
        .unwrap()
        .replace("\"schema_version\": 3", "\"schema_version\": 1");
    std::fs::write(&v1_path, v1_text).unwrap();

    let list = bin()
        .args(["plans", "list", "--store", store.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(list.status.success());
    let list_text = String::from_utf8_lossy(&list.stdout);
    assert!(list_text.contains("[stale schema]"), "{list_text}");

    let gc = bin()
        .args(["plans", "gc", "--store", store.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(gc.status.success());
    let gc_text = String::from_utf8_lossy(&gc.stdout);
    assert!(gc_text.contains("evicted 1 stale plan(s)"), "{gc_text}");
    assert!(!v1_path.exists());
    assert!(v3_path.exists(), "gc must keep the current entry");

    let relist = bin()
        .args(["plans", "list", "--store", store.to_str().unwrap()])
        .output()
        .unwrap();
    let relist_text = String::from_utf8_lossy(&relist.stdout);
    assert!(!relist_text.contains("[stale schema]"), "{relist_text}");
    let _ = std::fs::remove_dir_all(&store);
}

/// A saved v3 plan edited back into an older layout: `schema_version` set
/// to `schema` and the fields that schema lacked dropped.
fn legacy_plan_text(v3: &str, schema: u64) -> String {
    use barracuda::json::Json;
    const V2_LACKED: [&str; 5] = [
        "objective",
        "pruned_by_memory",
        "versions_over_budget",
        "peak_temp_bytes",
        "rw_bytes",
    ];
    const V1_ALSO_LACKED: [&str; 9] = [
        "cache_salt",
        "quarantine",
        "cache_hits",
        "cache_misses",
        "per_op_hits",
        "per_op_misses",
        "time_hits",
        "time_misses",
        "hot",
    ];
    let lacked =
        |key: &str| V2_LACKED.contains(&key) || (schema < 2 && V1_ALSO_LACKED.contains(&key));
    let Json::Obj(mut top) = Json::parse(v3).unwrap() else {
        panic!("a plan is a JSON object");
    };
    top.retain(|(k, _)| !lacked(k));
    for (k, v) in top.iter_mut() {
        match (k.as_str(), v) {
            ("schema_version", v) => *v = Json::Num(schema as f64),
            ("provenance", Json::Obj(p)) => p.retain(|(k, _)| !lacked(k)),
            _ => {}
        }
    }
    Json::Obj(top).to_string_pretty()
}

#[test]
fn v1_and_v2_plan_files_are_typed_plan_errors_exit_10() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let saved = dir.join(format!("barracuda_cli_legacy_{pid}.plan.json"));
    let tune = bin()
        .args([
            "tune",
            "builtin:eqn1",
            "--quick",
            "--evals",
            "20",
            "--arch",
            "k20",
            "--save-plan",
            saved.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(tune.status.success());
    let v3 = std::fs::read_to_string(&saved).unwrap();
    for schema in [1, 2] {
        let text = legacy_plan_text(&v3, schema);
        assert!(!text.contains("\"objective\""), "{text}");
        assert!(!text.contains("peak_temp_bytes"), "{text}");
        assert_eq!(text.contains("cache_salt"), schema == 2, "{text}");
        let refusal = format!("unsupported schema version {schema}");
        let err = barracuda::TunedPlan::from_json_text(&text).unwrap_err();
        assert_eq!(err.stage(), "plan");
        assert_eq!(err.exit_code(), 10);
        assert!(err.to_string().contains(&refusal), "{err}");

        let legacy = dir.join(format!("barracuda_cli_legacy_v{schema}_{pid}.plan.json"));
        std::fs::write(&legacy, &text).unwrap();
        let replay = bin()
            .args(["replay", legacy.to_str().unwrap()])
            .output()
            .unwrap();
        assert_eq!(replay.status.code(), Some(10), "schema {schema}");
        let stderr = String::from_utf8_lossy(&replay.stderr);
        assert!(stderr.contains("error[plan]"), "stderr: {stderr}");
        assert!(stderr.contains(&refusal), "stderr: {stderr}");
        let _ = std::fs::remove_file(&legacy);
    }
    let _ = std::fs::remove_file(&saved);
}

#[test]
fn foreign_cache_salt_exits_10() {
    let dir = std::env::temp_dir();
    let plan = dir.join("barracuda_cli_foreign_salt.plan.json");
    let tune = bin()
        .args([
            "tune",
            "builtin:eqn1",
            "--quick",
            "--evals",
            "20",
            "--arch",
            "k20",
            "--save-plan",
            plan.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(tune.status.success());
    // Flip one digit of the embedded salt: the plan now claims a
    // different model/architecture revision.
    let text = std::fs::read_to_string(&plan).unwrap();
    let salt = text
        .lines()
        .find(|l| l.contains("\"cache_salt\""))
        .unwrap()
        .split('"')
        .nth(3)
        .unwrap()
        .to_string();
    // Increment every hex digit (mod 16) so the tampered salt differs
    // from the original no matter which digits it contains.
    let flipped: String = salt
        .chars()
        .map(|c| {
            let d = c.to_digit(16).unwrap();
            char::from_digit((d + 1) % 16, 16).unwrap()
        })
        .collect();
    std::fs::write(&plan, text.replace(&salt, &flipped)).unwrap();
    let replay = bin()
        .args(["replay", plan.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(replay.status.code(), Some(10));
    let err = String::from_utf8_lossy(&replay.stderr);
    assert!(err.contains("error[plan]"), "stderr: {err}");
    assert!(err.contains("salt"), "stderr: {err}");
}

#[test]
fn stale_schema_version_exits_10() {
    let dir = std::env::temp_dir();
    let plan = dir.join("barracuda_cli_stale_schema.plan.json");
    let tune = bin()
        .args([
            "tune",
            "builtin:eqn1",
            "--quick",
            "--evals",
            "20",
            "--arch",
            "k20",
            "--save-plan",
            plan.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(tune.status.success());
    let text = std::fs::read_to_string(&plan).unwrap();
    std::fs::write(
        &plan,
        text.replace("\"schema_version\": 3", "\"schema_version\": 999"),
    )
    .unwrap();
    let replay = bin()
        .args(["replay", plan.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(replay.status.code(), Some(10));
    let err = String::from_utf8_lossy(&replay.stderr);
    assert!(err.contains("schema version"), "stderr: {err}");
}

#[test]
fn plans_without_store_exits_2_and_tolerates_undecodable_entries() {
    let no_store = bin().args(["plans", "list"]).output().unwrap();
    assert_eq!(no_store.status.code(), Some(2));

    // An undecodable file name degrades to a per-file report: `plans
    // list` succeeds (exit 0), names the bad file, and still lists the
    // good entries around it.
    let store =
        std::env::temp_dir().join(format!("barracuda_cli_store_bad_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    std::fs::create_dir_all(&store).unwrap();
    std::fs::write(store.join("NOT-A-KEY.plan.json"), "{}").unwrap();
    let tune = bin()
        .args([
            "tune",
            "builtin:eqn1",
            "--quick",
            "--evals",
            "20",
            "--arch",
            "k20",
            "--store",
            store.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(tune.status.success());
    let list = bin()
        .args(["plans", "list", "--store", store.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        list.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&list.stderr)
    );
    let text = String::from_utf8_lossy(&list.stdout);
    assert!(text.contains("[unreadable]"), "stdout: {text}");
    assert!(text.contains("NOT-A-KEY"), "stdout: {text}");
    assert!(
        text.contains("k20"),
        "the good entry must still list: {text}"
    );
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn plans_gc_corrupt_removes_quarantine_sidecars() {
    let store =
        std::env::temp_dir().join(format!("barracuda_cli_gc_corrupt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    std::fs::create_dir_all(&store).unwrap();
    std::fs::write(store.join("0-0-v2-k20.plan.json.corrupt"), "junk").unwrap();
    std::fs::write(store.join(".x.plan.json.123-4.partial"), "half").unwrap();
    let gc = bin()
        .args([
            "plans",
            "gc",
            "--store",
            store.to_str().unwrap(),
            "--corrupt",
        ])
        .output()
        .unwrap();
    assert_eq!(
        gc.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&gc.stderr)
    );
    let text = String::from_utf8_lossy(&gc.stdout);
    assert!(
        text.contains("removed 2 corrupt/partial file(s)"),
        "stdout: {text}"
    );
    let left: Vec<_> = std::fs::read_dir(&store).unwrap().collect();
    assert!(left.is_empty(), "sidecars must be gone: {left:?}");
    let _ = std::fs::remove_dir_all(&store);
}

/// Kill a tuning process mid-write (SIGKILL, no destructors): the store
/// must contain only decodable plans or invisible temp files, never a
/// half-written visible entry.
#[test]
fn sigkilled_writer_never_leaves_a_visible_partial_plan() {
    let store =
        std::env::temp_dir().join(format!("barracuda_cli_kill_writer_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    // Repeat a few times: the kill lands at a different point each run.
    for round in 0..3u32 {
        let mut child = bin()
            .args([
                "tune",
                "builtin:tce",
                "--quick",
                "--evals",
                "40",
                "--arch",
                "k20",
                "--store",
                store.to_str().unwrap(),
            ])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(15 * round as u64));
        let _ = child.kill();
        let _ = child.wait();
        let Ok(dir) = std::fs::read_dir(&store) else {
            continue; // killed before the store directory was created
        };
        for f in dir {
            let path = f.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().to_string();
            if name.ends_with(".partial") {
                continue; // invisible to lookup; `plans gc --corrupt` reaps it
            }
            assert!(name.ends_with(".plan.json"), "unexpected file {name}");
            let text = std::fs::read_to_string(&path).unwrap();
            barracuda::TunedPlan::from_json_text(&text)
                .unwrap_or_else(|e| panic!("visible entry {name} must decode: {e}"));
        }
    }
    // Whatever survived, the store must still answer `plans list`.
    let list = bin()
        .args(["plans", "list", "--store", store.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        list.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&list.stderr)
    );
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn injected_faults_are_reported_in_quarantine() {
    let out = bin()
        .args([
            "tune",
            "builtin:eqn1",
            "--quick",
            "--evals",
            "30",
            "--inject-faults",
            "0.2",
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("quarantine:"), "stdout: {text}");
    assert!(text.contains("injected"), "stdout: {text}");
}

#[test]
fn serve_over_stdio_cold_then_warm() {
    use std::io::Write;
    let store = std::env::temp_dir().join(format!("barracuda_cli_serve_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let mut child = bin()
        .args([
            "serve",
            "--store",
            store.to_str().unwrap(),
            "--quick",
            "--evals",
            "25",
        ])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(
            concat!(
                r#"{"op":"tune","id":"cold","workload":"builtin:eqn1"}"#,
                "\n",
                r#"{"op":"tune","id":"warm","workload":"builtin:eqn1"}"#,
                "\n",
                r#"{"op":"stats"}"#,
                "\n",
                r#"{"op":"shutdown"}"#,
                "\n"
            )
            .as_bytes(),
        )
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 4, "stdout: {stdout}");
    assert!(lines[0].contains(r#""source":"searched""#), "{}", lines[0]);
    assert!(lines[1].contains(r#""source":"hit""#), "{}", lines[1]);
    assert!(lines[1].contains(r#""evals_performed":0"#), "{}", lines[1]);
    assert!(lines[2].contains(r#""store_hits":1"#), "{}", lines[2]);
    assert!(lines[3].contains(r#""op":"shutdown""#), "{}", lines[3]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("1 store hits"), "stderr: {stderr}");
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn serve_rejects_a_bad_listen_spec_with_exit_12() {
    let out = bin()
        .args(["serve", "--listen", "carrier-pigeon:coop"])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(12),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("error[serve]"));
}
