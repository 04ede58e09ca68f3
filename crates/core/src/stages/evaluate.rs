//! Stage 4 — evaluate: memoized simulated timing of configurations, plus
//! the deterministic measurement noise the search observes.
//!
//! [`TunerEvaluator`] times ids of a run of the workload's statements: all
//! of them for joint tuning, one for each search of decomposed tuning. It
//! implements [`surf::ParallelEvaluator`] over a shared [`EvalCache`] and
//! keys its noise by configuration id, never by evaluation order — which
//! is what keeps parallel runs bit-identical to serial ones. Under the
//! whole-configuration time cache sits a per-op memo layer
//! (`statement_time_memo`) keyed by `(statement, version, op, choice)` in
//! the workload's statement numbering, so joint and decomposed tuning share
//! each other's sub-results.

use crate::cache::{EvalCache, OpOutcome};
use crate::error::BarracudaError;
use crate::objective::Objective;
use crate::stages::lower;
use crate::variant::StatementTuner;
use crate::workload::Workload;
use gpusim::GpuArch;
use std::time::Instant;
use surf::{EvalFault, ParallelEvaluator, TransposedPool};
use tcr::mapping::{map_kernel, map_program};
use tcr::program::ArrayKind;

/// SplitMix64 hash mapped to [-1, 1): deterministic per-configuration noise.
pub(crate) fn noise_unit(mut z: u64) -> f64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^= z >> 31;
    2.0 * ((z >> 11) as f64 / (1u64 << 53) as f64) - 1.0
}

/// FNV-1a of a string, used to salt the shared [`EvalCache`] keyspace per
/// architecture (and per statement in decomposed tuning).
pub fn salt_of(name: &str) -> u64 {
    let mut h: u64 = 0xCBF29CE484222325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001B3);
    }
    h
}

/// Cache key of one per-op outcome: statement, version, op and the op's
/// configuration digit, packed bit-disjoint. Joint and decomposed tuning
/// use the same keys, so they share each other's sub-results.
pub fn op_key(stmt: usize, version: usize, op: usize, choice: usize) -> u128 {
    debug_assert!(stmt < 1 << 8 && op < 1 << 8 && version < 1 << 16);
    ((choice as u128) << 32) | ((version as u128) << 16) | ((op as u128) << 8) | stmt as u128
}

/// A statement-level failure reconstructed from memoized per-op outcomes,
/// carrying the exact detail string the unmemoized pipeline produces.
enum StatementFault {
    Mapping { version: usize, detail: String },
    Simulation { detail: String },
}

/// Device time of one statement under `(version, per-op choices)`, with
/// each op's map + validate + time outcome memoized in `cache` under
/// `salt`. Bitwise identical to `map_program` + `validate_kernel` +
/// `time_program(..).gpu_s`: the first op that fails to map fails the
/// statement (mapping runs before any validation), then the first
/// validation failure in op order, else the kernel times are summed
/// left-to-right exactly like `ProgramTiming::gpu_s`.
#[allow(clippy::too_many_arguments)]
fn statement_time_memo(
    st: &StatementTuner,
    stmt: usize,
    version: usize,
    choices: &[usize],
    accumulate: bool,
    arch: &GpuArch,
    cache: &EvalCache,
    salt: u64,
) -> Result<f64, StatementFault> {
    let variant = &st.variants[version];
    let mut sum = 0.0;
    let mut sim_fault: Option<String> = None;
    for (o, &choice) in choices.iter().enumerate() {
        let outcome = cache.op_outcome(salt, op_key(stmt, version, o, choice), || {
            let t0 = Instant::now();
            let cfg = variant.space.per_op[o].config(choice);
            // Only the statement writing the program output may accumulate
            // into pre-existing data (same rule as `map_program`).
            let acc = accumulate
                && variant.program.arrays[variant.program.ops[o].output].kind == ArrayKind::Output;
            match map_kernel(&variant.program, o, cfg, acc) {
                Ok(kernel) => {
                    cache.hot().add_map(t0.elapsed().as_nanos() as u64);
                    let t1 = Instant::now();
                    let out = match gpusim::validate_kernel(&kernel, arch) {
                        Ok(()) => OpOutcome::Time(gpusim::kernel_time_s(&kernel, arch)),
                        Err(detail) => OpOutcome::SimFault(detail),
                    };
                    cache.hot().add_sim(t1.elapsed().as_nanos() as u64);
                    out
                }
                Err(e) => {
                    cache.hot().add_map(t0.elapsed().as_nanos() as u64);
                    OpOutcome::MapFault(e.to_string())
                }
            }
        });
        match outcome {
            OpOutcome::Time(t) => sum += t,
            // Validation only runs once the whole statement maps, so a
            // later op's mapping failure still outranks this one.
            OpOutcome::SimFault(detail) => {
                if sim_fault.is_none() {
                    sim_fault = Some(detail);
                }
            }
            OpOutcome::MapFault(detail) => return Err(StatementFault::Mapping { version, detail }),
        }
    }
    match sim_fault {
        Some(detail) => Err(StatementFault::Simulation { detail }),
        None => Ok(sum),
    }
}

/// Device-side time of a joint configuration (no transfers — they are
/// identical across configurations), with a typed error naming the
/// statement/version/configuration when mapping fails or the simulator
/// rejects a kernel. Unmemoized; [`joint_gpu_seconds_memo`] is the hot
/// path.
pub fn joint_gpu_seconds(
    workload: &Workload,
    statements: &[StatementTuner],
    id: u128,
    arch: &GpuArch,
) -> Result<f64, BarracudaError> {
    let locals = lower::decode_joint(statements, id);
    let mut total = 0.0;
    for (k, (s, &local)) in statements.iter().zip(&locals).enumerate() {
        let (v, config) = s.decode(local);
        let variant = &s.variants[v];
        let st = &workload.statements[k];
        let kernels = map_program(&variant.program, &variant.space, &config, st.accumulate)
            .map_err(|e| BarracudaError::Mapping {
                workload: workload.name.clone(),
                statement: k,
                version: Some(v),
                config: Some(id),
                detail: e.to_string(),
            })?;
        for kernel in &kernels {
            gpusim::validate_kernel(kernel, arch).map_err(|detail| BarracudaError::Simulation {
                workload: workload.name.clone(),
                config: Some(id),
                detail,
            })?;
        }
        total += gpusim::time_program(&variant.program, &kernels, arch, false).gpu_s;
    }
    Ok(total)
}

/// [`joint_gpu_seconds`] through the per-op memo layer of `cache`: every op
/// outcome is keyed by `(statement, version, op, choice)`, so a fresh joint
/// configuration that re-combines already-seen per-op choices costs only
/// cache hits instead of a full map + validate + simulate pass. Bitwise
/// identical to the unmemoized path, including the error a faulting
/// configuration produces. `statements` are the workload's statements from
/// statement `first` on, and `id` is an id of their joint space; keys and
/// errors use the workload's statement numbers.
pub fn joint_gpu_seconds_memo(
    workload: &Workload,
    statements: &[StatementTuner],
    first: usize,
    id: u128,
    arch: &GpuArch,
    cache: &EvalCache,
) -> Result<f64, BarracudaError> {
    let salt = salt_of(&arch.name);
    let t0 = Instant::now();
    let locals = lower::decode_joint(statements, id);
    cache.hot().add_decode(t0.elapsed().as_nanos() as u64);
    let mut choices: Vec<usize> = Vec::new();
    let mut total = 0.0;
    for (k, (s, &local)) in (first..).zip(statements.iter().zip(&locals)) {
        let t0 = Instant::now();
        let (v, local_cfg) = s.decode_raw(local);
        s.variants[v].space.choices_into(local_cfg, &mut choices);
        cache.hot().add_decode(t0.elapsed().as_nanos() as u64);
        let accumulate = workload.statements[k].accumulate;
        match statement_time_memo(s, k, v, &choices, accumulate, arch, cache, salt) {
            Ok(stmt_s) => total += stmt_s,
            Err(StatementFault::Mapping { version, detail }) => {
                return Err(BarracudaError::Mapping {
                    workload: workload.name.clone(),
                    statement: k,
                    version: Some(version),
                    config: Some(id),
                    detail,
                })
            }
            Err(StatementFault::Simulation { detail }) => {
                return Err(BarracudaError::Simulation {
                    workload: workload.name.clone(),
                    config: Some(id),
                    detail,
                })
            }
        }
    }
    Ok(total)
}

/// PCIe transfer time of the workload on `arch`.
pub fn transfer_seconds(workload: &Workload, arch: &GpuArch) -> f64 {
    workload.transfer_bytes() as f64 / (arch.pcie_bw_gbs * 1e9) + 2.0 * arch.pcie_latency_us * 1e-6
}

/// The deterministic measurement noise the search observes, keyed by
/// configuration id (never by evaluation order).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Noise {
    /// Relative run-to-run noise.
    pub(crate) rel: f64,
    /// Absolute launch/measurement jitter in microseconds.
    pub(crate) floor_us: f64,
    pub(crate) seed: u64,
}

impl Noise {
    /// `t` as the search measures it: a relative component plus absolute
    /// jitter that dominates for microsecond-scale kernels.
    fn apply(&self, id: u128, t: f64) -> f64 {
        let rel = self.rel + self.floor_us * 1e-6 / t;
        t * (1.0 + rel * noise_unit(id as u64 ^ self.seed))
    }
}

/// Memoized noiseless time of `id` under `salt`, with typed failure.
/// `compute` runs on a cache miss; its failure is memoized as a cached
/// `NaN` sentinel, so re-asking about a quarantined configuration costs
/// one cache hit, not a re-simulation. A cached sentinel (or any
/// non-finite or non-positive time) comes back as a `simulation` fault.
fn checked_time(
    cache: &EvalCache,
    salt: u64,
    id: u128,
    compute: impl FnOnce() -> Result<f64, EvalFault>,
) -> Result<f64, EvalFault> {
    let mut fault = None;
    let t = cache.time(salt, id, || {
        compute().unwrap_or_else(|f| {
            fault = Some(f);
            f64::NAN
        })
    });
    if let Some(f) = fault {
        return Err(f);
    }
    if !t.is_finite() || t <= 0.0 {
        return Err(EvalFault::new(
            "simulation",
            format!("non-finite or non-positive simulated time {t} for config {id}"),
        ));
    }
    Ok(t)
}

/// Thread-safe evaluator over a run of the workload's statements — all of
/// them (joint tuning) or one (a search of decomposed tuning): memoized
/// simulated times from a shared [`EvalCache`], features straight from the
/// lowering, plus the deterministic measurement noise SURF observes.
/// Implements [`surf::ParallelEvaluator`], so one instance serves both the
/// serial and the parallel search — noise is keyed by configuration id,
/// never by evaluation order, which is what keeps parallel runs
/// bit-identical to serial ones.
pub struct TunerEvaluator<'a> {
    workload: &'a Workload,
    /// The timed statements: the workload's statements from `first` on.
    statements: &'a [StatementTuner],
    first: usize,
    arch: &'a GpuArch,
    cache: &'a EvalCache,
    /// Time-cache salt, so several runs of statements share one cache.
    salt: u64,
    noise: Noise,
}

impl<'a> TunerEvaluator<'a> {
    /// Times ids of the joint space of `statements`, the workload's
    /// statements from statement `first` on, with its times memoized under
    /// `salt` and measured under `noise`.
    pub(crate) fn over(
        workload: &'a Workload,
        statements: &'a [StatementTuner],
        first: usize,
        arch: &'a GpuArch,
        cache: &'a EvalCache,
        salt: u64,
        noise: Noise,
    ) -> Self {
        TunerEvaluator {
            workload,
            statements,
            first,
            arch,
            cache,
            salt,
            noise,
        }
    }

    /// Noiseless memoized simulated time of a configuration; `NaN` when
    /// the configuration fails to map or simulate (the NaN is cached, so a
    /// failing configuration is never re-simulated).
    pub fn time(&self, id: u128) -> f64 {
        self.try_time(id).unwrap_or(f64::NAN)
    }

    /// Noiseless memoized simulated time, with typed failure (see
    /// `checked_time` for the memoization of failures).
    pub fn try_time(&self, id: u128) -> Result<f64, EvalFault> {
        checked_time(self.cache, self.salt, id, || {
            joint_gpu_seconds_memo(
                self.workload,
                self.statements,
                self.first,
                id,
                self.arch,
                self.cache,
            )
            .map_err(|e| EvalFault::new(e.stage(), e.to_string()))
        })
    }

    /// The time the search measures for `id` when its noiseless time is
    /// `t`.
    pub(crate) fn measured(&self, id: u128, t: f64) -> f64 {
        self.noise.apply(id, t)
    }
}

impl ParallelEvaluator for TunerEvaluator<'_> {
    fn features(&self, id: u128) -> Vec<f64> {
        lower::joint_features(self.statements, id)
    }

    /// The pool written from the ids' configuration codes, so the search
    /// builds no feature row for it.
    fn transposed_pool(&self, ids: &[u128]) -> Option<TransposedPool> {
        Some(lower::joint_transposed_pool(self.statements, ids))
    }

    fn evaluate(&self, id: u128) -> f64 {
        self.try_evaluate(id).unwrap_or(f64::NAN)
    }

    fn try_evaluate(&self, id: u128) -> Result<f64, EvalFault> {
        self.try_time(id).map(|t| self.measured(id, t))
    }
}

/// Objective-scoring adapter: wraps any [`ParallelEvaluator`] so the value
/// the search minimizes is [`Objective::score`] of the wrapped evaluator's
/// (noisy) time and the candidate's modeled memory — looked up through
/// `memory`, a pure `id -> (peak_temp_bytes, rw_bytes)` function (a
/// version-table lookup in practice, see
/// [`crate::stages::lower::version_memory_table`]).
///
/// For a time-only objective the adapter returns the wrapped time
/// untouched — same bits, and `memory` is never called — which is what
/// keeps the default pipeline bit-identical to the raw-time builds.
/// Purity: `memory` depends only on `id`, so wrapping preserves the
/// order-independence [`ParallelEvaluator`] requires.
pub(crate) struct ObjectiveEvaluator<'a, E, M> {
    pub(crate) inner: &'a E,
    pub(crate) objective: Objective,
    pub(crate) memory: M,
}

impl<E: ParallelEvaluator, M: Fn(u128) -> (u64, u64) + Sync> ParallelEvaluator
    for ObjectiveEvaluator<'_, E, M>
{
    fn features(&self, id: u128) -> Vec<f64> {
        self.inner.features(id)
    }

    fn transposed_pool(&self, ids: &[u128]) -> Option<TransposedPool> {
        self.inner.transposed_pool(ids)
    }

    fn evaluate(&self, id: u128) -> f64 {
        self.try_evaluate(id).unwrap_or(f64::NAN)
    }

    fn try_evaluate(&self, id: u128) -> Result<f64, EvalFault> {
        let t = self.inner.try_evaluate(id)?;
        if self.objective.is_time_only() {
            return Ok(t);
        }
        let (peak, rw) = (self.memory)(id);
        Ok(self.objective.score(t, peak, rw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{TuneParams, WorkloadTuner};
    use tensor::index::uniform_dims;

    fn mm(n: usize) -> Workload {
        Workload::parse(
            "mm",
            "C[i k] = Sum([j], A[i j] * B[j k])",
            &uniform_dims(&["i", "j", "k"], n),
        )
        .unwrap()
    }

    #[test]
    fn evaluator_builds_from_the_lowering_alone() {
        // No search: the evaluate stage works from the workload and its
        // lowered statements directly.
        let w = mm(8);
        let lowered = WorkloadTuner::build(&w);
        let arch = gpusim::gtx980();
        let cache = EvalCache::new();
        let ev = TunerEvaluator::new(&lowered, &arch, &cache, &TuneParams::quick());
        let t = ev.try_time(0).unwrap();
        assert!(t.is_finite() && t > 0.0);
        // Memoized and bit-identical to the unmemoized path.
        assert_eq!(
            t.to_bits(),
            joint_gpu_seconds(&w, &lowered.statements, 0, &arch)
                .unwrap()
                .to_bits()
        );
        assert_eq!(ev.time(0).to_bits(), t.to_bits());
    }

    #[test]
    fn noise_is_keyed_by_id_not_order() {
        let w = mm(8);
        let lowered = WorkloadTuner::build(&w);
        let arch = gpusim::gtx980();
        let cache = EvalCache::new();
        let params = TuneParams {
            eval_noise: 0.05,
            noise_floor_us: 2.0,
            seed: 9,
            ..TuneParams::quick()
        };
        let ev = TunerEvaluator::new(&lowered, &arch, &cache, &params);
        let a = ev.evaluate(3);
        let _ = ev.evaluate(1);
        let b = ev.evaluate(3);
        assert_eq!(a.to_bits(), b.to_bits());
        assert_ne!(a.to_bits(), ev.time(3).to_bits(), "noise actually applied");
    }

    #[test]
    fn code_pools_equal_the_transposed_feature_rows() {
        // Every builtin, over all its statements and over each one alone:
        // the pool written from configuration codes is the pool the search
        // would transpose from feature rows. The ids go in reversed, as the
        // search's shuffled order does not follow the pool's.
        let nwchem = ["s1", "d1", "d2"]
            .into_iter()
            .flat_map(|f| (1..=9).map(move |v| format!("{f}_{v}")));
        let names = ["eqn1", "lg3", "lg3t", "tce"].map(String::from);
        let arch = gpusim::k20();
        let cache = EvalCache::new();
        let noise = TuneParams::quick().noise(0);
        for name in names.into_iter().chain(nwchem) {
            let w = crate::kernels::builtin(&name).expect("a builtin name");
            let tuner = WorkloadTuner::build(&w);
            let n = tuner.statements.len();
            for range in std::iter::once(0..n).chain((0..n).map(|k| k..k + 1)) {
                let statements = &tuner.statements[range.clone()];
                let ev = TunerEvaluator::over(&w, statements, range.start, &arch, &cache, 0, noise);
                let mut pool = crate::stages::space::joint_pool(statements, 2_000, 7);
                pool.reverse();
                let rows = pool.iter().map(|&id| ev.features(id));
                let want = TransposedPool::from_rows(pool.len(), rows);
                assert!(
                    ev.transposed_pool(&pool) == Some(want),
                    "{name}, statements {range:?}"
                );
            }
        }
    }

    #[test]
    fn op_keys_are_bit_disjoint() {
        let a = op_key(1, 2, 3, 4);
        let b = op_key(1, 2, 3, 5);
        let c = op_key(2, 2, 3, 4);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a & 0xFF, 1);
    }
}
