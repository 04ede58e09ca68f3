//! Sequential and OpenMP CPU baselines for whole workloads.
//!
//! Wraps the `cpusim` crate: the *timing* comes from the deterministic
//! Haswell model (so tables reproduce bit-identically), while the *values*
//! can be computed with the real executors for validation. Whole-workload
//! execution is the shared statement chain (`stages::search::execute_chain`,
//! also behind [`crate::pipeline::TunedWorkload::execute`]) around the
//! `cpusim` program executors.

use crate::error::BarracudaError;
use crate::stages::search::execute_chain;
use crate::workload::Workload;
use cpusim::model::{time_cpu, CpuModel, CpuTiming};
use octopi::enumerate_factorizations;
use tcr::TcrProgram;
use tensor::Tensor;

/// Best-flop (strength-reduced) per-statement programs: what a reasonable
/// hand-written sequential implementation computes. Panics on a lowering
/// failure; [`try_cpu_programs`] reports it typed instead.
pub fn cpu_programs(workload: &Workload) -> Vec<TcrProgram> {
    try_cpu_programs(workload).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`cpu_programs`]: a lowering failure becomes a typed
/// [`BarracudaError::Factorization`] instead of a panic (the `Backend`
/// registry validates workloads through this).
pub fn try_cpu_programs(workload: &Workload) -> Result<Vec<TcrProgram>, BarracudaError> {
    workload
        .statements
        .iter()
        .enumerate()
        .map(|(i, st)| {
            let fs = enumerate_factorizations(st, &workload.dims);
            TcrProgram::try_from_factorization(
                format!("{}_{}", workload.name, i),
                st,
                &fs[0],
                &workload.dims,
            )
            .map_err(|detail| BarracudaError::Factorization {
                workload: workload.name.clone(),
                statement: i,
                version: 0,
                detail,
            })
        })
        .collect()
}

/// Modeled CPU timing of a whole workload on `threads` cores.
pub fn workload_cpu_time(workload: &Workload, model: &CpuModel, threads: usize) -> CpuTiming {
    let mut time_s = 0.0;
    let mut compute_s = 0.0;
    let mut memory_s = 0.0;
    let mut flops = 0u64;
    for p in cpu_programs(workload) {
        let t = time_cpu(&p, model, threads);
        time_s += t.time_s;
        compute_s += t.compute_s;
        memory_s += t.memory_s;
        flops += t.flops;
    }
    CpuTiming {
        time_s,
        compute_s,
        memory_s,
        flops,
    }
}

/// Modeled sustained GFlop/s on the CPU.
pub fn cpu_gflops(workload: &Workload, model: &CpuModel, threads: usize) -> f64 {
    let t = workload_cpu_time(workload, model, threads);
    t.flops as f64 / t.time_s / 1e9
}

/// Really executes the workload on the CPU (sequential at one thread,
/// threaded otherwise) over the best-flop programs of [`try_cpu_programs`].
/// Used for validation and Criterion benchmarks of the real executors.
/// Fails when `inputs` is missing a tensor some statement consumes.
pub fn execute_workload_cpu(
    workload: &Workload,
    inputs: &[(String, Tensor)],
    threads: usize,
) -> Result<Vec<(String, Tensor)>, BarracudaError> {
    let programs = try_cpu_programs(workload)?;
    execute_chain(workload, &programs, inputs, |sidx, operands| {
        if threads <= 1 {
            cpusim::execute_sequential(&programs[sidx], operands)
        } else {
            cpusim::execute_parallel(&programs[sidx], operands, threads)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::index::uniform_dims;

    fn eqn1_workload(n: usize) -> Workload {
        Workload::parse(
            "ex",
            "V[i j k] = Sum([l m n], A[l k] * B[m j] * C[n i] * U[l m n])",
            &uniform_dims(&["i", "j", "k", "l", "m", "n"], n),
        )
        .unwrap()
    }

    #[test]
    fn real_cpu_execution_matches_oracle() {
        let w = eqn1_workload(4);
        let inputs = w.random_inputs(7);
        let expect = w.evaluate_reference(&inputs).unwrap();
        for threads in [1, 4] {
            let got = execute_workload_cpu(&w, &inputs, threads).unwrap();
            assert!(
                expect[0].1.approx_eq(&got[0].1, 1e-10),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn openmp_faster_than_sequential_when_compute_bound() {
        let w = eqn1_workload(16);
        let m = CpuModel::haswell();
        let t1 = workload_cpu_time(&w, &m, 1);
        let t4 = workload_cpu_time(&w, &m, 4);
        assert!(t4.time_s < t1.time_s);
    }

    #[test]
    fn gflops_reasonable_magnitude() {
        let w = eqn1_workload(16);
        let gf = cpu_gflops(&w, &CpuModel::haswell(), 1);
        assert!((0.1..30.0).contains(&gf), "1-core {gf} GF");
    }
}
