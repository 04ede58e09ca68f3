//! End-to-end driver tests: the one-call API over the staged pipeline.
//!
//! These exercise the whole chain (frontend → lower → space → evaluate →
//! search) through `WorkloadTuner`, pinning correctness, determinism,
//! serial/parallel bit-identity and cache behavior.

use barracuda::cache::EvalCache;
use barracuda::pipeline::{TuneParams, WorkloadTuner};
use barracuda::workload::Workload;
use tensor::index::uniform_dims;

fn matmul_workload(n: usize) -> Workload {
    Workload::parse(
        "mm",
        "C[i k] = Sum([j], A[i j] * B[j k])",
        &uniform_dims(&["i", "j", "k"], n),
    )
    .unwrap()
}

fn eqn1_workload(n: usize) -> Workload {
    Workload::parse(
        "ex",
        "V[i j k] = Sum([l m n], A[l k] * B[m j] * C[n i] * U[l m n])",
        &uniform_dims(&["i", "j", "k", "l", "m", "n"], n),
    )
    .unwrap()
}

#[test]
fn tuned_matmul_is_correct() {
    let w = matmul_workload(8);
    let tuner = WorkloadTuner::build(&w);
    let arch = gpusim::gtx980();
    let tuned = tuner.autotune(&arch, TuneParams::quick()).unwrap();
    let inputs = w.random_inputs(3);
    let expect = w.evaluate_reference(&inputs).unwrap();
    let got = tuned.execute(&w, &inputs).unwrap();
    assert_eq!(expect.len(), got.len());
    for ((n1, t1), (n2, t2)) in expect.iter().zip(&got) {
        assert_eq!(n1, n2);
        assert!(t1.approx_eq(t2, 1e-10));
    }
}

#[test]
fn tuned_eqn1_is_correct_and_strength_reduced() {
    // N must be large enough for strength reduction to pay (at N=5 the
    // O(N^4) reorganizations cost about as much as the naive O(N^6)).
    let w = eqn1_workload(6);
    let tuner = WorkloadTuner::build(&w);
    let arch = gpusim::k20();
    let mut params = TuneParams::quick();
    params.surf.batch_size = 10;
    params.surf.max_evals = 150;
    let tuned = tuner.autotune(&arch, params).unwrap();
    // Correctness across the whole chain of temporaries.
    let inputs = w.random_inputs(11);
    let expect = w.evaluate_reference(&inputs).unwrap();
    let got = tuned.execute(&w, &inputs).unwrap();
    assert!(expect[0].1.approx_eq(&got[0].1, 1e-10));
    // The tuner must not pick the naive O(N^6) version.
    assert!(
        tuned.flops < w.naive_flops(),
        "strength reduction must win: {} vs naive {}",
        tuned.flops,
        w.naive_flops()
    );
}

#[test]
fn autotuning_beats_the_median_configuration() {
    let w = matmul_workload(32);
    let tuner = WorkloadTuner::build(&w);
    let arch = gpusim::c2050();
    let tuned = tuner.autotune(&arch, TuneParams::quick()).unwrap();
    // Compare against the average of a random sample.
    let pool = tuner.pool(64, 9);
    let avg: f64 = pool
        .iter()
        .map(|&id| tuner.gpu_seconds(id, &arch))
        .sum::<f64>()
        / pool.len() as f64;
    assert!(
        tuned.gpu_seconds <= avg,
        "tuned {} should beat average {avg}",
        tuned.gpu_seconds
    );
}

#[test]
fn deterministic_tuning() {
    let w = matmul_workload(16);
    let tuner = WorkloadTuner::build(&w);
    let arch = gpusim::gtx980();
    let a = tuner.autotune(&arch, TuneParams::quick()).unwrap();
    let b = tuner.autotune(&arch, TuneParams::quick()).unwrap();
    assert_eq!(a.id, b.id);
    assert_eq!(a.gpu_seconds, b.gpu_seconds);
}

#[test]
fn cuda_source_contains_all_kernels() {
    let w = eqn1_workload(6);
    let tuner = WorkloadTuner::build(&w);
    let tuned = tuner
        .autotune(&gpusim::gtx980(), TuneParams::quick())
        .unwrap();
    let src = tuned.cuda_source();
    let n_kernels: usize = tuned.kernels.iter().map(|k| k.len()).sum();
    assert_eq!(src.matches("__global__").count(), n_kernels);
    assert_eq!(src.matches("<<<").count(), n_kernels);
}

#[test]
fn search_stats_account_time() {
    let w = matmul_workload(16);
    let tuner = WorkloadTuner::build(&w);
    let arch = gpusim::gtx980();
    let tuned = tuner.autotune(&arch, TuneParams::quick()).unwrap();
    let s = tuned.search.search_seconds(&arch, 100);
    assert!(s > tuned.search.n_evals as f64 * arch.compile_seconds);
    // When the space is fully enumerated the two estimates coincide up
    // to averaging; otherwise exhaustive is (much) larger.
    assert!(tuned.search.exhaustive_seconds(&arch, 100) >= s * 0.999);
}

#[test]
fn decomposed_tuning_matches_joint_quality() {
    // The objective is separable, so per-statement search must find a
    // configuration at least as good as joint search at a similar
    // total budget (usually better: no cross-statement credit
    // assignment for the model to learn).
    let w = Workload::parse(
        "pair",
        "T[i l] = Sum([j], A[i j] * B[j l])\nC[i k] = Sum([l], T[i l] * D[l k])",
        &uniform_dims(&["i", "j", "k", "l"], 12),
    )
    .unwrap();
    let tuner = WorkloadTuner::build(&w);
    let arch = gpusim::k20();
    let mut params = TuneParams::quick();
    params.surf.max_evals = 60;
    let joint = tuner.autotune(&arch, params).unwrap();
    params.surf.max_evals = 30; // per statement -> same total budget
    let decomposed = tuner.autotune_decomposed(&arch, params).unwrap();
    assert!(
        decomposed.gpu_seconds <= joint.gpu_seconds * 1.05,
        "decomposed {} vs joint {}",
        decomposed.gpu_seconds,
        joint.gpu_seconds
    );
    // The result must execute correctly too.
    let inputs = w.random_inputs(3);
    let expect = w.evaluate_reference(&inputs).unwrap();
    let got = decomposed.execute(&w, &inputs).unwrap();
    assert!(expect[0].1.approx_eq(&got[0].1, 1e-10));
}

#[test]
fn parallel_tuning_is_bit_identical_to_serial() {
    let w = eqn1_workload(6);
    let tuner = WorkloadTuner::build(&w);
    let arch = gpusim::k20();
    let mut serial_params = TuneParams::quick();
    serial_params.threads = 1;
    let mut parallel_params = TuneParams::quick();
    parallel_params.threads = 0;
    let serial = tuner.autotune(&arch, serial_params).unwrap();
    let parallel = tuner.autotune(&arch, parallel_params).unwrap();
    assert_eq!(serial.id, parallel.id);
    assert_eq!(serial.gpu_seconds.to_bits(), parallel.gpu_seconds.to_bits());
    assert_eq!(serial.search.n_evals, parallel.search.n_evals);
    let bits = |v: &[f64]| v.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&serial.search.evaluated_times),
        bits(&parallel.search.evaluated_times)
    );
}

#[test]
fn one_search_never_duplicates_a_simulation() {
    // Every time-cache miss is one simulator call; SURF never
    // re-evaluates a configuration and the final noiseless pick only
    // re-reads evaluated ids, so misses = distinct evaluated ids and
    // the final pass is pure hits.
    let w = matmul_workload(16);
    let tuner = WorkloadTuner::build(&w);
    let arch = gpusim::gtx980();
    let cache = EvalCache::new();
    let tuned = tuner
        .autotune_with_cache(&arch, TuneParams::quick(), &cache)
        .unwrap();
    let total_lookups = tuned.search.cache_hits + tuned.search.cache_misses;
    assert!(total_lookups > 0);
    // Distinct simulations recorded in the shared cache must equal the
    // evaluation count — zero duplicate simulator calls.
    assert_eq!(cache.times_len(), tuned.search.n_evals);
}

#[test]
fn shared_cache_skips_resimulation_on_reruns() {
    let w = matmul_workload(16);
    let tuner = WorkloadTuner::build(&w);
    let arch = gpusim::gtx980();
    let cache = EvalCache::new();
    let first = tuner
        .autotune_with_cache(&arch, TuneParams::quick(), &cache)
        .unwrap();
    let second = tuner
        .autotune_with_cache(&arch, TuneParams::quick(), &cache)
        .unwrap();
    assert_eq!(first.id, second.id);
    // The second run re-simulates nothing: every time lookup hits.
    assert_eq!(second.search.cache_misses, 0);
    assert!(second.search.cache_hit_rate() == 1.0);
}

#[test]
fn pool_sampling_is_deterministic_and_distinct() {
    let w = eqn1_workload(10);
    let tuner = WorkloadTuner::build(&w);
    let a = tuner.pool(500, 1);
    let b = tuner.pool(500, 1);
    assert_eq!(a, b);
    assert_eq!(a.len(), 500);
    let mut c = a.clone();
    c.dedup();
    assert_eq!(c.len(), 500);
}

#[test]
fn tuner_matches_staged_driver_bit_for_bit() {
    // Driving the stages by hand over one lowering must reproduce the
    // tuner's own autotune over another lowering exactly.
    use barracuda::stages::{self, frontend, lower, space};
    let w = eqn1_workload(6);
    let lowered = WorkloadTuner::build(&w);
    assert_eq!(lowered.fingerprint(), frontend::workload_fingerprint(&w));
    let params = TuneParams::quick();
    let pool = space::joint_pool(&lowered.statements, params.pool_cap, params.seed);
    assert!(pool.len() as u128 <= lower::total_space(&lowered.statements));
    let arch = gpusim::k20();
    let cache = EvalCache::new();
    let staged =
        stages::search::autotune_joint(&w, &lowered.statements, &arch, params, &cache).unwrap();
    let tuner = WorkloadTuner::build(&w);
    assert_eq!(pool, tuner.pool(params.pool_cap, params.seed));
    let tuned = tuner.autotune(&arch, params).unwrap();
    assert_eq!(staged.id, tuned.id);
    assert_eq!(staged.gpu_seconds.to_bits(), tuned.gpu_seconds.to_bits());
    assert_eq!(staged.search.n_evals, tuned.search.n_evals);
    assert_eq!(staged.search.space_size, tuner.total_space());
}
