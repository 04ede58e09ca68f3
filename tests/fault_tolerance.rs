//! Fault-tolerant autotuning: the search must survive injected evaluator
//! faults, quarantine exactly the configurations the deterministic fault
//! plan corrupts, stay bit-identical across thread counts, and respect
//! evaluation budgets and deadlines with an explicit degraded status.

use barracuda::prelude::*;
use barracuda::EvalCache;
use surf::{FaultPlan, SearchStatus};

fn quick() -> TuneParams {
    let mut p = TuneParams::quick();
    p.surf.max_evals = 40;
    p
}

/// With 20% of configurations corrupted (half hard failures, half silent
/// NaN times), every Table II workload still tunes to a finite result, and
/// the quarantine report matches the plan exactly.
#[test]
fn table2_survives_twenty_percent_injected_faults() {
    let plan = FaultPlan::mixed(0.20, 99);
    for w in kernels::table2_benchmarks() {
        let mut params = quick();
        params.fault_injection = Some(plan);
        let tuner = WorkloadTuner::build(&w);
        let tuned = tuner
            .autotune(&gpusim::gtx980(), params)
            .unwrap_or_else(|e| panic!("{} must survive 20% faults: {e}", w.name));

        assert!(
            tuned.gpu_seconds.is_finite() && tuned.gpu_seconds > 0.0,
            "{}: best time {} must be finite",
            w.name,
            tuned.gpu_seconds
        );
        // Counts on the stats mirror the report.
        assert_eq!(tuned.search.quarantined_configs, tuned.quarantine.configs());
        assert_eq!(
            tuned.search.quarantined_versions,
            tuned.quarantine.versions()
        );
        // Every quarantined config was one the plan corrupted (this model
        // has no organic mapping/simulation failures on these pools), and
        // the injected ones carry the injection marker in their reason.
        let injected: Vec<_> = tuned
            .quarantine
            .entries
            .iter()
            .filter_map(|e| e.config)
            .collect();
        assert!(
            !injected.is_empty(),
            "{}: a 20% fault rate must quarantine something over 40 attempts",
            w.name
        );
        for id in &injected {
            assert!(
                plan.decide(*id).is_some(),
                "{}: config {id} quarantined but the plan never corrupted it",
                w.name
            );
        }
        // No survivor was corrupted: the chosen config and every evaluated
        // time came from clean evaluations.
        assert!(
            plan.decide(tuned.id).is_none(),
            "{}: winner was corrupted",
            w.name
        );
        assert!(
            tuned.search.evaluated_times.iter().all(|t| t.is_finite()),
            "{}: quarantine must keep NaN out of the trace",
            w.name
        );
        assert_eq!(tuned.status, SearchStatus::Complete);
    }
}

/// Injected faults are keyed by configuration id, so the faulted search is
/// bit-identical serial vs parallel — same winner, same trace, same
/// quarantine report.
#[test]
fn faulted_search_is_bit_identical_serial_vs_parallel() {
    let w = kernels::lg3t(8, 16);
    let arch = gpusim::k20();
    let mut serial = quick();
    serial.threads = 1;
    serial.fault_injection = Some(FaultPlan::mixed(0.25, 7));
    let mut parallel = serial;
    parallel.threads = 0; // rayon pool

    let a = WorkloadTuner::build(&w).autotune(&arch, serial).unwrap();
    let b = WorkloadTuner::build(&w).autotune(&arch, parallel).unwrap();

    assert_eq!(a.id, b.id);
    assert_eq!(a.gpu_seconds.to_bits(), b.gpu_seconds.to_bits());
    let bits = |v: &[f64]| v.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&a.search.evaluated_times),
        bits(&b.search.evaluated_times)
    );
    // Identical quarantine: same ids, same stages, same reasons, same order.
    assert_eq!(a.quarantine.len(), b.quarantine.len());
    for (ea, eb) in a.quarantine.entries.iter().zip(&b.quarantine.entries) {
        assert_eq!(ea.config, eb.config);
        assert_eq!(ea.stage, eb.stage);
        assert_eq!(ea.reason, eb.reason);
    }
}

/// A shared cache memoizes failures as well as successes: a second run over
/// the same pool re-simulates nothing, and reports the same quarantine.
#[test]
fn shared_cache_never_resimulates_across_runs() {
    let w = kernels::eqn1(8);
    let arch = gpusim::gtx980();
    let cache = EvalCache::new();
    let tuner = WorkloadTuner::build(&w);
    let a = tuner.autotune_with_cache(&arch, quick(), &cache).unwrap();
    assert!(a.search.time_misses > 0);
    let b = tuner.autotune_with_cache(&arch, quick(), &cache).unwrap();
    assert_eq!(
        b.search.time_misses, 0,
        "second run must be served entirely from the shared cache"
    );
    assert_eq!(a.id, b.id);
    assert_eq!(a.search.quarantined_configs, b.search.quarantined_configs);
}

/// `max_evaluations` is a hard attempt cap, and exhausting it is an
/// explicit degradation, not a silent completion.
#[test]
fn evaluation_budget_caps_attempts_and_degrades() {
    let w = kernels::lg3(8, 16);
    let arch = gpusim::k20();
    let mut params = quick();
    params.max_evaluations = Some(12);
    let tuned = WorkloadTuner::build(&w).autotune(&arch, params).unwrap();
    assert!(
        tuned.search.n_evals + tuned.search.quarantined_configs <= 12,
        "attempts {} + {} must respect the cap",
        tuned.search.n_evals,
        tuned.search.quarantined_configs
    );
    assert!(tuned.is_degraded(), "a truncating budget must degrade");
    assert!(tuned.gpu_seconds.is_finite());
}

/// An already-expired wall deadline stops the search at the first batch
/// boundary with best-so-far and a deadline reason.
#[test]
fn expired_deadline_degrades_with_best_so_far() {
    let w = kernels::eqn1(8);
    let arch = gpusim::gtx980();
    let mut params = quick();
    params.wall_deadline_s = Some(0.0);
    let tuned = WorkloadTuner::build(&w).autotune(&arch, params).unwrap();
    match &tuned.status {
        SearchStatus::Degraded { reason } => {
            assert!(reason.contains("deadline"), "reason: {reason}")
        }
        s => panic!("expected a degraded status, got {s:?}"),
    }
    assert!(tuned.gpu_seconds.is_finite());
}

/// When quarantine eats more than the survivor-fraction threshold allows,
/// the search stops early (degraded) instead of burning the whole budget on
/// a poisoned pool.
#[test]
fn survivor_fraction_threshold_stops_poisoned_searches() {
    let w = kernels::lg3t(8, 16);
    let arch = gpusim::k20();
    let mut params = quick();
    params.fault_injection = Some(FaultPlan::mixed(0.6, 3));
    params.min_survivor_fraction = 0.7;
    let tuned = WorkloadTuner::build(&w).autotune(&arch, params).unwrap();
    match &tuned.status {
        SearchStatus::Degraded { reason } => {
            assert!(reason.contains("survivor fraction"), "reason: {reason}")
        }
        s => panic!("expected a degraded status, got {s:?}"),
    }
    assert!(tuned.gpu_seconds.is_finite());
}

/// A fully poisoned pool is the one hard search failure: every attempt
/// quarantined, no survivor to rank — a typed `Search` error, not a panic.
#[test]
fn total_fault_saturation_is_a_typed_error() {
    let w = kernels::eqn1(8);
    let mut params = quick();
    params.fault_injection = Some(FaultPlan {
        failure_rate: 1.0,
        nan_rate: 0.0,
        slow_rate: 0.0,
        slow_ms: 0,
        seed: 1,
    });
    let err = WorkloadTuner::build(&w)
        .autotune(&gpusim::gtx980(), params)
        .expect_err("a 100% fault rate cannot produce a result");
    match &err {
        BarracudaError::Search { workload, detail } => {
            assert_eq!(workload, &w.name);
            assert!(detail.contains("quarantined"), "detail: {detail}");
        }
        other => panic!("expected a Search error, got {other:?}"),
    }
    assert_eq!(err.exit_code(), 8);
}

/// Decomposed tuning shares one budget across statements and carries the
/// per-statement quarantine through to the merged report.
#[test]
fn decomposed_tuning_survives_faults_with_shared_budget() {
    let w = kernels::lg3(8, 16); // three statements
    let arch = gpusim::k20();
    let mut params = quick();
    params.fault_injection = Some(FaultPlan::mixed(0.2, 11));
    params.max_evaluations = Some(60);
    let tuned = WorkloadTuner::build(&w)
        .autotune_decomposed(&arch, params)
        .unwrap();
    assert!(tuned.gpu_seconds.is_finite() && tuned.gpu_seconds > 0.0);
    assert!(
        tuned.search.pool_size > 0,
        "the statements' pools are counted"
    );
    // The cap is shared; once it runs dry each remaining statement still
    // gets a single attempt (it needs *a* configuration), so the bound is
    // cap + one per statement.
    assert!(
        tuned.search.n_evals + tuned.search.quarantined_configs <= 60 + 3,
        "shared budget must bound total attempts, got {} + {}",
        tuned.search.n_evals,
        tuned.search.quarantined_configs
    );
    // Quarantined configs in the decomposed path are attributed to their
    // statement.
    for e in &tuned.quarantine.entries {
        if e.config.is_some() {
            assert!(
                e.statement.is_some(),
                "decomposed quarantine must name the statement"
            );
        }
    }
}
