//! The compiled form of a workload, and the one-call tuning API over it.
//!
//! A [`WorkloadTuner`] is what the pipeline makes of a workload before any
//! search: the workload itself, its fingerprint, and its lowering (every
//! statement's OCTOPI versions as TCR programs with their search spaces,
//! see [`crate::stages::lower`]). It joins the per-statement spaces into a
//! single flat configuration space (the cross product that reaches 512,000
//! variants for Lg3t in the paper), runs SURF against the GPU simulator —
//! once over that joint space, or once per statement's own space for
//! decomposed tuning — and returns a [`TunedWorkload`]: chosen version +
//! configuration per statement, mapped kernels, CUDA source, timing
//! breakdown, and search statistics including the modeled wall-clock
//! search time the paper reports in Table II. Lowering is the expensive
//! part of building one, so a [`crate::session::TuningSession`] keeps one
//! per fingerprint and every tune and replay takes it already built.

use crate::cache::{EvalCache, Traffic};
use crate::error::BarracudaError;
use crate::stages::evaluate::salt_of;
use crate::stages::frontend::workload_fingerprint;
use crate::stages::{evaluate, lower, search, space};
use crate::variant::StatementTuner;
use crate::workload::Workload;
use gpusim::GpuArch;
use rand::rngs::StdRng;
use tcr::mapping::MappedKernel;

pub use crate::stages::{SearchStats, TuneParams, TunedWorkload, TunerEvaluator};

impl<'a> TunerEvaluator<'a> {
    /// An evaluator over the tuner's whole joint space, measured the way
    /// [`WorkloadTuner::autotune`] measures it under `params`.
    pub fn new(
        tuner: &'a WorkloadTuner,
        arch: &'a GpuArch,
        cache: &'a EvalCache,
        params: &TuneParams,
    ) -> Self {
        TunerEvaluator::over(
            &tuner.workload,
            &tuner.statements,
            0,
            arch,
            cache,
            salt_of(&arch.name),
            params.noise(0),
        )
    }
}

/// Joint tuner over every statement of a workload: the workload's one
/// compiled form.
#[derive(Clone, Debug)]
pub struct WorkloadTuner {
    pub workload: Workload,
    pub statements: Vec<StatementTuner>,
    /// [`workload_fingerprint`] of `workload`, computed once at build.
    fingerprint: u64,
}

impl WorkloadTuner {
    /// Enumerates, lowers and space-builds every statement of `workload`.
    /// Statements are independent, so each is built on the rayon pool
    /// (order-preserving: offsets and ids match the serial construction).
    pub fn build(workload: &Workload) -> Self {
        let idx: Vec<usize> = (0..workload.statements.len()).collect();
        let statements = rayon::par_map_slice(&idx, |&i| {
            StatementTuner::build(
                &format!("{}_{}", workload.name, i),
                &workload.statements[i],
                &workload.dims,
            )
        });
        WorkloadTuner {
            workload: workload.clone(),
            statements,
            fingerprint: workload_fingerprint(workload),
        }
    }

    /// Builds the tuner with every statement's space pruned by `rules`
    /// (§VIII future work; see `tcr::prune`).
    pub fn build_pruned(workload: &Workload, rules: &tcr::PruneRules) -> Self {
        let mut tuner = Self::build(workload);
        for st in &mut tuner.statements {
            st.prune(rules);
        }
        tuner
    }

    /// The workload's fingerprint (see [`workload_fingerprint`]): what a
    /// session files the tuner, its cache and its stored plans under.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// A random neighbor of `id` for local-search baselines: re-draws one
    /// statement's configuration (keeping its OCTOPI version with
    /// probability ~0.7).
    pub fn neighbor(&self, id: u128, rng: &mut StdRng) -> u128 {
        space::neighbor(&self.statements, id, rng)
    }

    /// Total joint configurations (product of per-statement spaces).
    pub fn total_space(&self) -> u128 {
        lower::total_space(&self.statements)
    }

    /// Decodes a joint id into per-statement local ids.
    pub fn decode(&self, id: u128) -> Vec<u128> {
        lower::decode_joint(&self.statements, id)
    }

    /// Names of every binarized feature column of [`WorkloadTuner::features`].
    pub fn binarized_feature_names(&self) -> Vec<String> {
        lower::binarized_feature_names(&self.statements)
    }

    /// Binarized features of a joint id: concatenation across statements.
    pub fn features(&self, id: u128) -> Vec<f64> {
        lower::joint_features(&self.statements, id)
    }

    /// Maps every statement under the joint id (statements map in parallel
    /// on the rayon pool); fails with full context when any statement's
    /// configuration cannot be applied to its loop nest.
    pub fn kernels(&self, id: u128) -> Result<Vec<Vec<MappedKernel>>, BarracudaError> {
        lower::map_joint(&self.workload, &self.statements, id)
    }

    /// Device-side time of a joint configuration (no transfers — they are
    /// identical across configurations); `NaN` when mapping or simulation
    /// fails. Prefer [`WorkloadTuner::try_gpu_seconds`] for the reason.
    pub fn gpu_seconds(&self, id: u128, arch: &GpuArch) -> f64 {
        self.try_gpu_seconds(id, arch).unwrap_or(f64::NAN)
    }

    /// Device-side time of a joint configuration, with a typed error naming
    /// the statement/version/configuration when mapping fails or the
    /// simulator rejects a kernel.
    pub fn try_gpu_seconds(&self, id: u128, arch: &GpuArch) -> Result<f64, BarracudaError> {
        evaluate::joint_gpu_seconds(&self.workload, &self.statements, id, arch)
    }

    /// [`WorkloadTuner::try_gpu_seconds`] through the per-op memo layer of
    /// `cache` (see [`evaluate::joint_gpu_seconds_memo`]).
    pub fn try_gpu_seconds_memo(
        &self,
        id: u128,
        arch: &GpuArch,
        cache: &EvalCache,
    ) -> Result<f64, BarracudaError> {
        let own = Traffic::default();
        evaluate::joint_gpu_seconds_memo(&self.workload, &self.statements, 0, id, arch, cache, &own)
    }

    /// PCIe transfer time of the workload on `arch`.
    pub fn transfer_seconds(&self, arch: &GpuArch) -> f64 {
        evaluate::transfer_seconds(&self.workload, arch)
    }

    /// Flops of the versions selected by `id`.
    pub fn flops(&self, id: u128) -> u64 {
        lower::joint_flops(&self.statements, id)
    }

    /// Configuration pool: the full space when it fits under `cap`, else a
    /// deterministic stratified sample (see [`space::joint_pool`]).
    pub fn pool(&self, cap: usize, seed: u64) -> Vec<u128> {
        space::joint_pool(&self.statements, cap, seed)
    }

    /// Runs SURF and returns the tuned workload. Uses a fresh memo cache;
    /// [`WorkloadTuner::autotune_with_cache`] shares one across runs.
    pub fn autotune(
        &self,
        arch: &GpuArch,
        params: TuneParams,
    ) -> Result<TunedWorkload, BarracudaError> {
        self.autotune_with_cache(arch, params, &EvalCache::new())
    }

    /// Runs SURF against a caller-provided [`EvalCache`] (see
    /// [`search::autotune_joint`] for the full contract).
    pub fn autotune_with_cache(
        &self,
        arch: &GpuArch,
        params: TuneParams,
        cache: &EvalCache,
    ) -> Result<TunedWorkload, BarracudaError> {
        search::autotune_joint(&self.workload, &self.statements, arch, params, cache)
    }

    /// Decomposed tuning: each statement is searched independently (see
    /// [`search::autotune_decomposed`] for the budget semantics). Uses a
    /// fresh memo cache.
    pub fn autotune_decomposed(
        &self,
        arch: &GpuArch,
        params: TuneParams,
    ) -> Result<TunedWorkload, BarracudaError> {
        search::autotune_decomposed(
            &self.workload,
            &self.statements,
            arch,
            params,
            &EvalCache::new(),
        )
    }
}
