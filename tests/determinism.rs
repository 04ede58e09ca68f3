//! Reproducibility: every experiment driver must produce bit-identical
//! results across runs (the tables in EXPERIMENTS.md are regenerable).

use barracuda::prelude::*;

fn quick() -> TuneParams {
    let mut p = TuneParams::quick();
    p.surf.max_evals = 30;
    p
}

#[test]
fn autotuning_is_bit_deterministic() {
    let w = kernels::lg3t(8, 16);
    let arch = gpusim::k20();
    let a = WorkloadTuner::build(&w).autotune(&arch, quick()).unwrap();
    let b = WorkloadTuner::build(&w).autotune(&arch, quick()).unwrap();
    assert_eq!(a.id, b.id);
    assert_eq!(a.gpu_seconds.to_bits(), b.gpu_seconds.to_bits());
    assert_eq!(a.search.evaluated_times, b.search.evaluated_times);
}

#[test]
fn parallel_tuning_is_bit_identical_to_serial() {
    // The parallel evaluation engine must not perturb the search: noise is
    // keyed by configuration id, batches fold in batch order and a memo
    // layer counts a miss only when its insert adds the key, so any thread
    // count reproduces the serial search bit for bit, memo counters
    // included, on every Table II workload.
    let arch = gpusim::k20();
    let params = TuneParams {
        pool_cap: 500,
        ..quick()
    };
    for w in kernels::table2_benchmarks() {
        let tuner = WorkloadTuner::build(&w);
        // threads 0: the rayon pool (RAYON_NUM_THREADS or all cores).
        let [serial, parallel] = [1, 0].map(|threads| {
            let t = tuner
                .autotune(&arch, TuneParams { threads, ..params })
                .unwrap();
            let s = t.search;
            let times: Vec<u64> = s.evaluated_times.iter().map(|x| x.to_bits()).collect();
            let memo = (s.per_op_hits, s.per_op_misses, s.time_hits, s.time_misses);
            (
                t.id,
                t.gpu_seconds.to_bits(),
                times,
                s.n_evals,
                s.batches,
                memo,
            )
        });
        assert_eq!(serial, parallel, "{}", w.name);
    }
}

#[test]
fn noisy_paper_params_are_still_deterministic() {
    // Noise is seeded, so even the noisy search must reproduce exactly.
    let w = kernels::eqn1(8);
    let arch = gpusim::gtx980();
    let mut p = TuneParams::paper();
    p.surf.max_evals = 60;
    let a = WorkloadTuner::build(&w).autotune(&arch, p).unwrap();
    let b = WorkloadTuner::build(&w).autotune(&arch, p).unwrap();
    assert_eq!(a.id, b.id);
    assert_eq!(a.search.n_evals, b.search.n_evals);
}

#[test]
fn simulator_times_are_pure_functions() {
    let w = kernels::nwchem_d2(3, 8);
    let tuner = WorkloadTuner::build(&w);
    for arch in gpusim::arch::all_architectures() {
        let pool = tuner.pool(32, 5);
        for &id in &pool {
            let t1 = tuner.gpu_seconds(id, &arch);
            let t2 = tuner.gpu_seconds(id, &arch);
            assert_eq!(t1.to_bits(), t2.to_bits());
        }
    }
}

#[test]
fn cpu_model_is_deterministic() {
    use barracuda::cpu::workload_cpu_time;
    use cpusim::model::CpuModel;
    let w = kernels::lg3(8, 16);
    for threads in [1, 4] {
        let a = workload_cpu_time(&w, &CpuModel::haswell(), threads);
        let b = workload_cpu_time(&w, &CpuModel::haswell(), threads);
        assert_eq!(a.time_s.to_bits(), b.time_s.to_bits());
    }
}

#[test]
fn random_inputs_and_reference_reproduce() {
    let w = kernels::tce_ex(3);
    let i1 = w.random_inputs(9);
    let i2 = w.random_inputs(9);
    assert_eq!(i1, i2);
    let o1 = w.evaluate_reference(&i1).unwrap();
    let o2 = w.evaluate_reference(&i2).unwrap();
    for ((_, a), (_, b)) in o1.iter().zip(&o2) {
        assert_eq!(a.data(), b.data());
    }
}
