//! Fusion as a pipeline-level alternative (§III).
//!
//! After SURF picks a version and configuration for each statement, this
//! module builds the *fused* form of each statement's chain (one kernel,
//! shared-memory temporary slices — see `tcr::fusion`) and compares
//! simulated times, reporting whichever wins. For launch-bound chains like
//! Eqn. (1), fusion is the difference between three kernel launches and
//! one. Executing with fusion is the shared statement chain
//! (`stages::search::execute_chain`, also behind
//! [`TunedWorkload::execute`]) with the fused kernel swapped in per
//! statement.

use crate::error::BarracudaError;
use crate::pipeline::TunedWorkload;
use crate::stages::search::execute_chain;
use crate::workload::Workload;
use gpusim::GpuArch;
use tcr::fusion::{build_fused, validate_fused, FusedKernel};
use tensor::Tensor;

/// A fused alternative for one statement's chain.
#[derive(Clone, Debug)]
pub struct FusedAlternative {
    pub statement: usize,
    pub kernel: FusedKernel,
    /// Simulated device time of the fused kernel.
    pub fused_seconds: f64,
    /// Simulated device time of the tuned unfused chain.
    pub unfused_seconds: f64,
}

impl FusedAlternative {
    /// Speedup of fusing (>1 means fusion wins).
    pub fn speedup(&self) -> f64 {
        self.unfused_seconds / self.fused_seconds
    }
}

/// Attempts to fuse each statement of a tuned workload. Statements whose
/// chains cannot fuse (single kernel, no shared output index, slices too
/// large) yield `None`.
pub fn fuse_alternatives(tuned: &TunedWorkload, arch: &GpuArch) -> Vec<Option<FusedAlternative>> {
    tuned
        .programs
        .iter()
        .zip(&tuned.kernels)
        .enumerate()
        .map(|(i, (program, kernels))| {
            let mut fused = build_fused(program)?;
            fused.accumulate = kernels.last().map(|k| k.accumulate).unwrap_or(false);
            validate_fused(&fused, program).ok()?;
            let fused_seconds = gpusim::time_fused(&fused, program, arch).time_s;
            let unfused_seconds = gpusim::time_program(program, kernels, arch, false).gpu_s;
            Some(FusedAlternative {
                statement: i,
                kernel: fused,
                fused_seconds,
                unfused_seconds,
            })
        })
        .collect()
}

/// Device time of the workload when every fusable statement uses its fused
/// kernel and the rest keep their tuned chains.
pub fn best_of_both_seconds(tuned: &TunedWorkload, arch: &GpuArch) -> f64 {
    let alts = fuse_alternatives(tuned, arch);
    tuned
        .programs
        .iter()
        .zip(&tuned.kernels)
        .zip(alts)
        .map(|((program, kernels), alt)| {
            let unfused = gpusim::time_program(program, kernels, arch, false).gpu_s;
            match alt {
                Some(a) => unfused.min(a.fused_seconds),
                None => unfused,
            }
        })
        .sum()
}

/// Executes a tuned workload with fused kernels where available and the
/// tuned kernels elsewhere, for correctness validation. Fails when
/// `inputs` is missing a tensor some statement consumes.
pub fn execute_with_fusion(
    tuned: &TunedWorkload,
    workload: &Workload,
    arch: &GpuArch,
    inputs: &[(String, Tensor)],
) -> Result<Vec<(String, Tensor)>, BarracudaError> {
    let alts = fuse_alternatives(tuned, arch);
    execute_chain(workload, &tuned.programs, inputs, |sidx, operands| {
        let program = &tuned.programs[sidx];
        match &alts[sidx] {
            Some(alt) => gpusim::execute_fused_program(&alt.kernel, program, operands),
            None => gpusim::execute_program(program, &tuned.kernels[sidx], operands),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{TuneParams, WorkloadTuner};

    #[test]
    fn eqn1_fuses_and_wins_when_launch_bound() {
        let w = crate::kernels::eqn1(10);
        let tuner = WorkloadTuner::build(&w);
        let arch = gpusim::gtx980();
        let tuned = tuner.autotune(&arch, TuneParams::quick()).unwrap();
        let alts = fuse_alternatives(&tuned, &arch);
        let alt = alts[0].as_ref().expect("eqn1 chain fuses");
        assert!(
            alt.speedup() > 1.0,
            "fusion must win on the launch-bound Eqn.(1): {}x",
            alt.speedup()
        );
        assert!(best_of_both_seconds(&tuned, &arch) <= tuned.gpu_seconds);
    }

    #[test]
    fn fused_execution_matches_reference_through_pipeline() {
        let w = crate::kernels::eqn1(5);
        let tuner = WorkloadTuner::build(&w);
        let arch = gpusim::k20();
        let tuned = tuner.autotune(&arch, TuneParams::quick()).unwrap();
        let inputs = w.random_inputs(13);
        let expect = w.evaluate_reference(&inputs).unwrap();
        let got = execute_with_fusion(&tuned, &w, &arch, &inputs).unwrap();
        assert!(expect[0].1.approx_eq(&got[0].1, 1e-10));
    }

    #[test]
    fn single_kernel_statements_do_not_fuse() {
        let w = crate::kernels::nwchem_d1(1, 6);
        let tuner = WorkloadTuner::build(&w);
        let arch = gpusim::k20();
        let tuned = tuner.autotune(&arch, TuneParams::quick()).unwrap();
        let alts = fuse_alternatives(&tuned, &arch);
        assert!(alts[0].is_none());
        // best-of-both degenerates to the tuned time.
        let t = best_of_both_seconds(&tuned, &arch);
        assert!((t - tuned.gpu_seconds).abs() < 1e-12);
    }

    #[test]
    fn fused_cuda_codegen_has_phases() {
        let w = crate::kernels::eqn1(10);
        let tuner = WorkloadTuner::build(&w);
        let arch = gpusim::gtx980();
        let tuned = tuner.autotune(&arch, TuneParams::quick()).unwrap();
        let alts = fuse_alternatives(&tuned, &arch);
        let alt = alts[0].as_ref().unwrap();
        let src = tcr::codegen::cuda_fused(&alt.kernel, &tuned.programs[0]);
        assert!(src.contains("__shared__ double s_"), "{src}");
        assert_eq!(src.matches("__syncthreads()").count(), 2, "{src}");
        assert!(src.contains("__global__ void"), "{src}");
    }
}
