//! Cross-crate integration: every path through the pipeline must compute
//! the same tensor as the reference einsum oracle.
//!
//! The chain under test spans five crates: `octopi` (factorization) →
//! `tcr` (lowering + search space + mapping) → `gpusim` (functional
//! execution) and `cpusim` (real CPU executors), all validated against
//! `tensor`'s brute-force evaluator.

use barracuda::prelude::*;
use tensor::index::uniform_dims;

/// Workloads covering the benchmark families at validation-friendly sizes.
fn validation_workloads() -> Vec<Workload> {
    vec![
        kernels::eqn1(4),
        kernels::lg3(4, 3),
        kernels::lg3t(4, 3),
        kernels::tce_ex(3),
        kernels::nwchem_s1(2, 4),
        kernels::nwchem_d1(5, 4),
        kernels::nwchem_d2(8, 4),
        Workload::parse(
            "mv",
            "y[i] = Sum([j], A[i j] * x[j])",
            &uniform_dims(&["i", "j"], 7),
        )
        .unwrap(),
    ]
}

#[test]
fn tuned_kernels_match_oracle_on_every_family() {
    for w in validation_workloads() {
        let tuner = WorkloadTuner::build(&w);
        for arch in gpusim::arch::all_architectures() {
            let tuned = tuner.autotune(&arch, TuneParams::quick()).unwrap();
            let inputs = w.random_inputs(17);
            let expect = w.evaluate_reference(&inputs).unwrap();
            let got = tuned.execute(&w, &inputs).unwrap();
            for ((n1, t1), (n2, t2)) in expect.iter().zip(&got) {
                assert_eq!(n1, n2);
                assert!(
                    t1.approx_eq(t2, 1e-10),
                    "{} on {} produced a wrong {}",
                    w.name,
                    arch.name,
                    n1
                );
            }
        }
    }
}

#[test]
fn cpu_executors_match_oracle_on_every_family() {
    for w in validation_workloads() {
        let inputs = w.random_inputs(23);
        let expect = w.evaluate_reference(&inputs).unwrap();
        for threads in [1, 4] {
            let got = barracuda::cpu::execute_workload_cpu(&w, &inputs, threads).unwrap();
            for ((n1, t1), (n2, t2)) in expect.iter().zip(&got) {
                assert_eq!(n1, n2);
                assert!(
                    t1.approx_eq(t2, 1e-10),
                    "{} with {} threads produced a wrong {}",
                    w.name,
                    threads,
                    n1
                );
            }
        }
    }
}

#[test]
fn openacc_mappings_match_oracle() {
    for w in validation_workloads() {
        let acc = barracuda::openacc::openacc_naive(&w);
        let inputs = w.random_inputs(29);
        let expect = w.evaluate_reference(&inputs).unwrap();
        // Chain the naive-ACC kernels through a name environment.
        let mut env: std::collections::BTreeMap<String, tensor::Tensor> =
            inputs.iter().cloned().collect();
        for (program, (st, kernels)) in acc
            .programs
            .iter()
            .zip(w.statements.iter().zip(&acc.kernels))
        {
            let operands: Vec<&tensor::Tensor> = program
                .input_ids()
                .iter()
                .map(|&id| &env[&program.arrays[id].name])
                .collect();
            let fresh = gpusim::execute_program(program, kernels, &operands);
            match env.entry(st.output.name.clone()) {
                std::collections::btree_map::Entry::Occupied(mut o) if st.accumulate => {
                    for (a, b) in o.get_mut().data_mut().iter_mut().zip(fresh.data()) {
                        *a += b;
                    }
                }
                std::collections::btree_map::Entry::Occupied(mut o) => *o.get_mut() = fresh,
                std::collections::btree_map::Entry::Vacant(v) => {
                    v.insert(fresh);
                }
            }
        }
        for (name, t) in &expect {
            assert!(
                t.approx_eq(&env[name], 1e-10),
                "{}: naive-ACC mapping wrong for {}",
                w.name,
                name
            );
        }
    }
}

#[test]
fn every_variant_of_eqn1_is_executable_and_correct() {
    let w = kernels::eqn1(3);
    let tuner = WorkloadTuner::build(&w);
    let st = &tuner.statements[0];
    let inputs = w.random_inputs(31);
    let expect = w.evaluate_reference(&inputs).unwrap();
    for (vi, v) in st.variants.iter().enumerate() {
        // First, middle, and last configuration of every version.
        let total = v.space.len();
        for id in [0, total / 2, total - 1] {
            let cfg = v.space.config(id);
            let Ok(kernels) = tcr::mapping::map_program(&v.program, &v.space, &cfg, false) else {
                continue; // unmappable sample point: not a correctness question
            };
            let operands: Vec<&tensor::Tensor> = v
                .program
                .input_ids()
                .iter()
                .map(|&aid| {
                    let name = &v.program.arrays[aid].name;
                    &inputs.iter().find(|(n, _)| n == name).unwrap().1
                })
                .collect();
            let got = gpusim::execute_program(&v.program, &kernels, &operands);
            assert!(
                expect[0].1.approx_eq(&got, 1e-10),
                "version {vi} config {id} wrong"
            );
        }
    }
}

#[test]
fn signed_statements_flow_through_every_executor() {
    // A -= statement followed by an accumulating 2.5x statement: the
    // coefficient must survive OCTOPI, TCR, the GPU executor, the fused
    // executor and the CPU executors identically.
    let w = Workload::parse(
        "signed",
        "y[i k] -= Sum([j], A[i j] * B[j k])\ny[i k] += Sum([j], 2.5 * A[i j] * B[j k])",
        &tensor::index::uniform_dims(&["i", "j", "k"], 6),
    )
    .unwrap();
    let inputs = w.random_inputs(37);
    let expect = w.evaluate_reference(&inputs).unwrap();
    // Net effect: +1.5x of A*B plus the initial y.
    let tuner = WorkloadTuner::build(&w);
    for arch in [gpusim::gtx980(), gpusim::k20()] {
        let tuned = tuner.autotune(&arch, TuneParams::quick()).unwrap();
        let got = tuned.execute(&w, &inputs).unwrap();
        assert!(
            expect[0].1.approx_eq(&got[0].1, 1e-10),
            "GPU executor wrong on {}",
            arch.name
        );
        let fused = barracuda::fusionopt::execute_with_fusion(&tuned, &w, &arch, &inputs).unwrap();
        assert!(expect[0].1.approx_eq(&fused[0].1, 1e-10), "fused wrong");
    }
    for threads in [1, 3] {
        let got = barracuda::cpu::execute_workload_cpu(&w, &inputs, threads).unwrap();
        assert!(expect[0].1.approx_eq(&got[0].1, 1e-10), "CPU wrong");
    }
}

#[test]
fn cuda_source_emitted_for_all_families() {
    for w in validation_workloads() {
        let tuner = WorkloadTuner::build(&w);
        let tuned = tuner
            .autotune(&gpusim::gtx980(), TuneParams::quick())
            .unwrap();
        let src = tuned.cuda_source();
        let n: usize = tuned.kernels.iter().map(|k| k.len()).sum();
        assert_eq!(
            src.matches("__global__").count(),
            n,
            "{}: kernel count mismatch in CUDA source",
            w.name
        );
        assert!(src.contains("threadIdx.x"));
    }
}
