//! OpenACC comparison mappings (paper §VI-B).
//!
//! The paper evaluates two directive-based strategies by replacing its CUDA
//! constructs with OpenACC:
//!
//! - **Naive**: "simply includes parallelization directives but no guidance
//!   on parallelization decomposition". We model the PGI default on a plain
//!   loop nest: gang over the outermost parallel loop, vector over the next
//!   one, everything else sequential inside the kernel — and *no* scalar
//!   replacement ("the `private` designation in OpenACC does not produce
//!   the desired result"). Because the outer loops of a row-major tensor
//!   have the largest strides, the vectorized loop is uncoalesced — which
//!   is exactly why naive OpenACC "is even slower than sequential
//!   execution".
//! - **Optimized**: "adds directives on thread and block decomposition that
//!   were derived by Barracuda and performs scalar replacement on the
//!   output" — but no interior loop permutation and no unrolling (those
//!   require a transformation framework, not directives).

use crate::cpu::try_cpu_programs;
use crate::error::BarracudaError;
use crate::pipeline::TunedWorkload;
use crate::workload::Workload;
use tcr::mapping::{map_kernel, MappedKernel};
use tcr::space::{LoopSel, OpConfig};
use tcr::TcrProgram;

/// Per-statement programs (best-flop version, as a human would write the
/// OpenACC loops after TCE-style strength reduction) and their kernels.
pub struct AccMapping {
    pub programs: Vec<TcrProgram>,
    pub kernels: Vec<Vec<MappedKernel>>,
}

impl AccMapping {
    /// Device time + the workload's transfer time on `arch`.
    pub fn total_seconds(&self, workload: &Workload, arch: &gpusim::GpuArch) -> f64 {
        self.gpu_seconds(arch)
            + workload.transfer_bytes() as f64 / (arch.pcie_bw_gbs * 1e9)
            + 2.0 * arch.pcie_latency_us * 1e-6
    }

    pub fn gpu_seconds(&self, arch: &gpusim::GpuArch) -> f64 {
        self.programs
            .iter()
            .zip(&self.kernels)
            .map(|(p, ks)| gpusim::time_program(p, ks, arch, false).gpu_s)
            .sum()
    }

    pub fn flops(&self) -> u64 {
        self.programs.iter().map(|p| p.flops()).sum()
    }
}

/// The naive OpenACC mapping of one statement; an op with a scalar
/// output has no loop to put on threads, which is a typed mapping error.
fn naive_config(program: &TcrProgram, op_index: usize) -> Result<OpConfig, String> {
    let op = &program.ops[op_index];
    let out = &program.arrays[op.output].indices;
    // Gang = outermost output loop, vector = second output loop (PGI picks
    // the outer loops of the nest); with rank-1 outputs everything lands in
    // one block.
    let (bx, tx) = match out.as_slice() {
        [] => {
            return Err(format!(
                "op {op_index} has a scalar output: no parallel loop to map onto GPU threads"
            ))
        }
        [only] => (LoopSel::One, only.clone()),
        [outer, second, ..] => (LoopSel::Var(outer.clone()), second.clone()),
    };
    let interior: Vec<tensor::IndexVar> = program
        .loop_vars(op)
        .into_iter()
        .filter(|v| *v != tx && Some(v) != bx.var())
        .collect();
    Ok(OpConfig {
        tx,
        ty: LoopSel::One,
        bx,
        by: LoopSel::One,
        interior,
        unroll: 1,
        staged: Vec::new(),
    })
}

/// Builds the naive-OpenACC analog for a workload.
///
/// Panics on a mapping failure (the naive config covers every loop by
/// construction, so a failure is a programmer error);
/// [`try_openacc_naive`] reports it as a typed error instead.
pub fn openacc_naive(workload: &Workload) -> AccMapping {
    try_openacc_naive(workload)
        .unwrap_or_else(|e| panic!("naive OpenACC config failed to map: {e}"))
}

/// Fallible [`openacc_naive`]: lowering and mapping failures become typed
/// [`BarracudaError`]s (the `Backend` registry goes through this).
pub fn try_openacc_naive(workload: &Workload) -> Result<AccMapping, BarracudaError> {
    let programs = try_cpu_programs(workload)?;
    let kernels = programs
        .iter()
        .zip(&workload.statements)
        .enumerate()
        .map(|(sidx, (p, st))| {
            (0..p.ops.len())
                .map(|i| {
                    let mapping = |detail: String| BarracudaError::Mapping {
                        workload: workload.name.clone(),
                        statement: sidx,
                        version: Some(0),
                        config: None,
                        detail,
                    };
                    let cfg = naive_config(p, i).map_err(mapping)?;
                    let mut k = map_kernel(p, i, cfg, st.accumulate)
                        .map_err(|detail| mapping(detail.to_string()))?;
                    k.scalar_replacement = false;
                    k.name = format!("{}_acc_naive", k.name);
                    Ok(k)
                })
                .collect::<Result<Vec<_>, BarracudaError>>()
        })
        .collect::<Result<Vec<_>, BarracudaError>>()?;
    Ok(AccMapping { programs, kernels })
}

/// Builds the optimized-OpenACC analog: Barracuda's tuned thread/block
/// decomposition + scalar replacement, default interior order, no unroll.
///
/// Panics on a mapping failure (the config is derived from kernels that
/// already mapped); [`try_openacc_optimized`] reports it typed instead.
pub fn openacc_optimized(workload: &Workload, tuned: &TunedWorkload) -> AccMapping {
    try_openacc_optimized(workload, tuned)
        .unwrap_or_else(|e| panic!("optimized OpenACC config failed to map: {e}"))
}

/// Fallible [`openacc_optimized`] over an already-tuned workload.
pub fn try_openacc_optimized(
    workload: &Workload,
    tuned: &TunedWorkload,
) -> Result<AccMapping, BarracudaError> {
    try_openacc_optimized_parts(workload, &tuned.programs, &tuned.kernels)
}

/// Core of the optimized-OpenACC construction, taking the tuned mapping as
/// bare parts (`programs` = chosen version per statement, `kernels` = its
/// mapped kernels) so callers holding only a configuration id — the
/// `Backend` registry derives both from `(tuner, id)` — can build it
/// without a full [`TunedWorkload`].
pub fn try_openacc_optimized_parts(
    workload: &Workload,
    tuned_programs: &[TcrProgram],
    tuned_kernels: &[Vec<MappedKernel>],
) -> Result<AccMapping, BarracudaError> {
    let programs = try_cpu_programs(workload)?;
    let kernels: Vec<Vec<MappedKernel>> = tuned_programs
        .iter()
        .zip(&workload.statements)
        .enumerate()
        .map(|(sidx, (program, st))| {
            // Reuse the tuned kernels' decomposition but reset interior
            // order to default and unroll to 1.
            tuned_kernels
                .iter()
                .flatten()
                .filter(|k| k.name.starts_with(&program.name))
                .map(|k| {
                    let mapped = k.config();
                    let interior = program
                        .loop_vars(&program.ops[k.op_index])
                        .into_iter()
                        .filter(|v| !mapped.mapped_vars_iter().any(|m| m == v))
                        .collect();
                    let cfg = OpConfig {
                        interior,
                        unroll: 1,
                        staged: Vec::new(),
                        ..mapped
                    };
                    // Derived from a kernel that already mapped, so this
                    // config covers the same loops.
                    let mut nk =
                        map_kernel(program, k.op_index, cfg, st.accumulate).map_err(|detail| {
                            BarracudaError::Mapping {
                                workload: workload.name.clone(),
                                statement: sidx,
                                version: None,
                                config: None,
                                detail: detail.to_string(),
                            }
                        })?;
                    nk.name = format!("{}_acc_opt", nk.name);
                    Ok(nk)
                })
                .collect::<Result<Vec<_>, BarracudaError>>()
        })
        .collect::<Result<Vec<_>, BarracudaError>>()?;
    Ok(AccMapping { programs, kernels })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{TuneParams, WorkloadTuner};
    use tensor::index::uniform_dims;

    fn matmul_workload(n: usize) -> Workload {
        Workload::parse(
            "mm",
            "C[i k] = Sum([j], A[i j] * B[j k])",
            &uniform_dims(&["i", "j", "k"], n),
        )
        .unwrap()
    }

    #[test]
    fn naive_mapping_is_uncoalesced_and_unregistered() {
        let w = matmul_workload(64);
        let acc = openacc_naive(&w);
        let k = &acc.kernels[0][0];
        assert!(!k.scalar_replacement);
        assert!(!k.output_fully_registered());
        // tx = second output loop 'k' for C[i,k]; bx = 'i'.
        assert_eq!(k.tx.0.name(), "k");
        assert_eq!(k.bx.as_ref().unwrap().0.name(), "i");
    }

    #[test]
    fn naive_is_slower_than_tuned() {
        let w = matmul_workload(64);
        let tuner = WorkloadTuner::build(&w);
        let arch = gpusim::k20();
        let tuned = tuner.autotune(&arch, TuneParams::quick()).unwrap();
        let naive = openacc_naive(&w);
        assert!(
            naive.gpu_seconds(&arch) > tuned.gpu_seconds,
            "naive {} must be slower than tuned {}",
            naive.gpu_seconds(&arch),
            tuned.gpu_seconds
        );
    }

    #[test]
    fn optimized_between_naive_and_tuned() {
        let w = matmul_workload(64);
        let tuner = WorkloadTuner::build(&w);
        let arch = gpusim::c2050();
        let tuned = tuner.autotune(&arch, TuneParams::quick()).unwrap();
        let naive = openacc_naive(&w).gpu_seconds(&arch);
        let opt = openacc_optimized(&w, &tuned).gpu_seconds(&arch);
        assert!(
            opt <= naive,
            "optimized {opt} must not exceed naive {naive}"
        );
        assert!(
            tuned.gpu_seconds <= opt * 1.001,
            "tuned {} must not exceed optimized {opt}",
            tuned.gpu_seconds
        );
    }

    #[test]
    fn kernels_execute_correctly_despite_bad_mappings() {
        // Even the worst mapping must compute the right answer.
        let w = matmul_workload(8);
        let acc = openacc_naive(&w);
        let inputs = w.random_inputs(2);
        let expect = w.evaluate_reference(&inputs).unwrap();
        let operands: Vec<&tensor::Tensor> = acc.programs[0]
            .input_ids()
            .iter()
            .map(|&id| {
                let name = &acc.programs[0].arrays[id].name;
                &inputs.iter().find(|(n, _)| n == name).unwrap().1
            })
            .collect();
        let got = gpusim::execute_program(&acc.programs[0], &acc.kernels[0], &operands);
        assert!(expect[0].1.approx_eq(&got, 1e-10));
    }
}
