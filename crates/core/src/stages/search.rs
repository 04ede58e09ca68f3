//! Stage 5 — search: SURF over a candidate pool, final noiseless pick,
//! and the [`TunedWorkload`] result artifact.
//!
//! [`autotune_joint`] searches the whole joint space at once (the paper's
//! framing); [`autotune_decomposed`] searches each statement independently
//! (the objective is a sum over statements, so the optimum factors). Both
//! operate purely on stage artifacts — a [`Workload`] plus its lowered
//! `&[StatementTuner]` — and a shared [`EvalCache`].

use crate::cache::{EvalCache, HotPathSnapshot};
use crate::error::BarracudaError;
use crate::objective::{BudgetMode, Objective};
use crate::quarantine::QuarantineReport;
use crate::stages::evaluate::{
    salt_of, Noise, ObjectiveEvaluator, StatementEvaluator, TunerEvaluator,
};
use crate::stages::{evaluate, lower, space};
use crate::variant::StatementTuner;
use crate::workload::Workload;
use gpusim::GpuArch;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::time::Instant;
use surf::{
    surf_search_parallel, surf_search_serial, FaultPlan, FaultyEvaluator, ForestParams,
    ParallelEvaluator, SearchStatus, SurfParams, SurfResult,
};
use tcr::mapping::MappedKernel;
use tcr::space::Configuration;
use tcr::TcrProgram;
use tensor::Tensor;

/// Autotuning parameters.
#[derive(Clone, Copy, Debug)]
pub struct TuneParams {
    pub surf: SurfParams,
    /// Maximum pool presented to SURF; larger spaces are sampled.
    pub pool_cap: usize,
    /// Repetitions per empirical measurement (the paper averages 100) —
    /// only affects the modeled search time, not the deterministic result.
    pub reps: usize,
    /// Relative run-to-run measurement noise injected into the times SURF
    /// observes (seeded, deterministic). Real autotuners see a few percent;
    /// it is what makes near-flat landscapes (Eqn.(1)) hard to search —
    /// the mechanism behind the paper's longest search time (§VI-A).
    pub eval_noise: f64,
    /// Absolute timing jitter in microseconds (launch/measurement jitter).
    /// Relative to a 30 µs Eqn.(1) run this dwarfs the differences between
    /// its versions; relative to a millisecond Lg3 run it is invisible.
    pub noise_floor_us: f64,
    pub seed: u64,
    /// Evaluation parallelism: `1` evaluates serially on the calling
    /// thread; any other value fans batches out over the rayon pool (sized
    /// by `RAYON_NUM_THREADS`, default: all cores — `0` means "auto").
    /// Results are bit-identical at every setting: noise is keyed by
    /// configuration id, not by evaluation order.
    pub threads: usize,
    /// Hard cap on evaluation *attempts* (successes + quarantined) across
    /// the whole run, on top of `surf.max_evals`. Decomposed tuning spends
    /// it as one shared budget across statements. `None`: surf budget only.
    pub max_evaluations: Option<usize>,
    /// Wall-clock deadline for the search; when it expires the run stops at
    /// the next batch boundary and returns best-so-far with a
    /// [`SearchStatus::Degraded`] status.
    pub wall_deadline_s: Option<f64>,
    /// Minimum fraction of attempts that must survive quarantine; dipping
    /// below stops the search early with a degraded status. `0.0` disables.
    pub min_survivor_fraction: f64,
    /// Deterministic fault injection (tests, resilience experiments):
    /// failures are keyed by configuration id exactly like the measurement
    /// noise, so injected runs stay bit-identical serial vs parallel.
    pub fault_injection: Option<FaultPlan>,
    /// What the search minimizes: simulated time alone (the default — the
    /// paper's objective, bit-identical to the pre-objective pipeline) or
    /// a weighted time/memory/traffic score with an optional hard memory
    /// budget (see [`Objective`]). A budget in [`BudgetMode::Prune`] mode
    /// removes over-budget versions from the pool before evaluation; in
    /// either mode the final pick refuses them.
    pub objective: Objective,
}

impl TuneParams {
    /// Paper-scale settings: batch 10, generous eval budget with a
    /// patience stop (flat landscapes run long, §VI-A).
    pub fn paper() -> Self {
        TuneParams {
            surf: SurfParams {
                init_evals: 50,
                batch_size: 10,
                max_evals: 1200,
                // Stop after 8 batches without a >1% record: noisy flat
                // landscapes keep producing small records and run long.
                patience: Some(8),
                min_improvement: 0.01,
                seed: 0xBA22,
                wall_deadline_s: None,
                min_survivor_fraction: 0.0,
                forest: ForestParams {
                    n_trees: 30,
                    min_samples_leaf: 2,
                    k_features: Some(48),
                    seed: 0xF0357,
                },
            },
            pool_cap: 20_000,
            reps: 100,
            eval_noise: 0.02,
            noise_floor_us: 6.0,
            seed: 0xBA22,
            threads: 0,
            max_evaluations: None,
            wall_deadline_s: None,
            min_survivor_fraction: 0.0,
            fault_injection: None,
            objective: Objective::time_only(),
        }
    }

    /// Small settings for tests and doc examples.
    pub fn quick() -> Self {
        TuneParams {
            surf: SurfParams {
                init_evals: 0,
                batch_size: 8,
                max_evals: 40,
                patience: None,
                min_improvement: 0.01,
                seed: 0xBA22,
                wall_deadline_s: None,
                min_survivor_fraction: 0.0,
                forest: ForestParams {
                    n_trees: 10,
                    min_samples_leaf: 2,
                    k_features: Some(24),
                    seed: 0xF0357,
                },
            },
            pool_cap: 2_000,
            reps: 100,
            eval_noise: 0.0,
            noise_floor_us: 0.0,
            seed: 0xBA22,
            threads: 0,
            max_evaluations: None,
            wall_deadline_s: None,
            min_survivor_fraction: 0.0,
            fault_injection: None,
            objective: Objective::time_only(),
        }
    }

    /// The SURF parameters actually handed to the search: the tuner-level
    /// budget/deadline/threshold knobs folded into `surf`.
    fn effective_surf(&self) -> SurfParams {
        let mut sp = self.surf;
        if let Some(cap) = self.max_evaluations {
            sp.max_evals = sp.max_evals.min(cap.max(1));
        }
        if self.wall_deadline_s.is_some() {
            sp.wall_deadline_s = self.wall_deadline_s;
        }
        sp.min_survivor_fraction = sp.min_survivor_fraction.max(self.min_survivor_fraction);
        sp
    }
}

/// Search bookkeeping of one autotuning run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SearchStats {
    pub n_evals: usize,
    pub batches: usize,
    /// Simulated execution time of every evaluated variant.
    pub evaluated_times: Vec<f64>,
    /// Size of the full configuration space (before pool sampling).
    pub space_size: u128,
    pub pool_size: usize,
    /// Memo-cache hits during this run (times + features combined).
    pub cache_hits: usize,
    /// Memo-cache misses during this run (= distinct computations).
    pub cache_misses: usize,
    /// Wall-clock seconds spent inside the SURF search.
    pub wall_s: f64,
    /// Threads the evaluation ran on (1 = serial).
    pub threads: usize,
    /// OCTOPI versions quarantined at build time (lowering failures).
    pub quarantined_versions: usize,
    /// Configurations quarantined during the search (mapping/simulation
    /// failures, non-finite times, injected faults).
    pub quarantined_configs: usize,
    /// Per-op outcome cache hits during this run — the memo layer under the
    /// whole-configuration cache, keyed by `(statement, version, op,
    /// choice)` so distinct joint configurations share sub-results.
    pub per_op_hits: usize,
    pub per_op_misses: usize,
    /// Whole-configuration time cache hits/misses during this run.
    pub time_hits: usize,
    pub time_misses: usize,
    /// Duplicate candidate ids pruned from the pool before the search (0
    /// for the internal pools, which are built from sets; nonzero only
    /// when a caller hands SURF a pool with repeats).
    pub duplicate_candidates: usize,
    /// Pool candidates removed before the search because their modeled
    /// peak temporary footprint exceeded the objective's memory budget
    /// (0 without a budget, or under [`BudgetMode::Penalize`]).
    pub pruned_by_memory: usize,
    /// Distinct `(statement, version)` pairs whose modeled peak exceeds
    /// the objective's memory budget (0 without a budget).
    pub versions_over_budget: usize,
    /// Modeled peak live temporary bytes of the chosen configuration.
    pub peak_temp_bytes: u64,
    /// Modeled global read+write volume of the chosen configuration.
    pub rw_bytes: u64,
    /// Wall-time spent per hot-path stage (decode / map / simulate /
    /// predict) during this run.
    pub hot: HotPathSnapshot,
}

impl SearchStats {
    /// Modeled wall-clock search time the way the paper accounts it: per
    /// evaluated variant, one `nvcc` compile plus `reps` timed runs plus
    /// fixed measurement overhead.
    pub fn search_seconds(&self, arch: &GpuArch, reps: usize) -> f64 {
        self.evaluated_times
            .iter()
            .map(|t| arch.compile_seconds + reps as f64 * t + 0.1)
            .sum()
    }

    /// Modeled time to exhaustively enumerate the whole space at the same
    /// per-variant cost (the paper's "23 days" comparison for Lg3t).
    pub fn exhaustive_seconds(&self, arch: &GpuArch, reps: usize) -> f64 {
        let avg = if self.evaluated_times.is_empty() {
            0.0
        } else {
            self.evaluated_times.iter().sum::<f64>() / self.evaluated_times.len() as f64
        };
        self.space_size as f64 * (arch.compile_seconds + reps as f64 * avg + 0.1)
    }

    /// Fraction of cache lookups served without recomputation.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Fraction of per-op outcome lookups served from the memo layer. The
    /// joint space is a Cartesian product of per-op choices, so this runs
    /// far above the whole-configuration rates: a fresh joint id usually
    /// re-combines already-seen sub-configurations.
    pub fn per_op_hit_rate(&self) -> f64 {
        let total = self.per_op_hits + self.per_op_misses;
        if total == 0 {
            0.0
        } else {
            self.per_op_hits as f64 / total as f64
        }
    }

    /// Fraction of whole-configuration time lookups served memoized.
    pub fn time_hit_rate(&self) -> f64 {
        let total = self.time_hits + self.time_misses;
        if total == 0 {
            0.0
        } else {
            self.time_hits as f64 / total as f64
        }
    }
}

/// Runs SURF over `pool`: `evaluator` scored under the run's objective
/// (`memory` gives a candidate's modeled `(peak, rw)` bytes) and wrapped
/// in the run's injected faults. [`TuneParams::threads`] picks the serial
/// or the parallel entry point; both run the same driver over the same
/// evaluator (including its typed-fault path), so the choice never changes
/// the result — including which configurations get quarantined and why.
fn run_surf<E: ParallelEvaluator>(
    pool: &[u128],
    evaluator: &E,
    memory: impl Fn(u128) -> (u64, u64) + Sync,
    params: &TuneParams,
    surf_params: SurfParams,
) -> Result<SurfResult, surf::SearchError> {
    let scored = ObjectiveEvaluator {
        inner: evaluator,
        objective: params.objective,
        memory,
    };
    let plan = params.fault_injection.unwrap_or_else(FaultPlan::none);
    let faulty = FaultyEvaluator::new(&scored, plan);
    if params.threads == 1 {
        surf_search_serial(pool, &faulty, surf_params)
    } else {
        surf_search_parallel(pool, &faulty, surf_params)
    }
}

/// The final noiseless pick over everything a search evaluated. The search
/// observed noisy measurements; the pick re-measures carefully (the
/// paper's final numbers are 100-rep averages): one memo lookup of each
/// candidate's noiseless `time` — the search already simulated them all —
/// then the best objective score wins. Under the default objective the
/// score is the raw time, bit for bit. A candidate over the memory budget
/// is never selected, in either budget mode; the finite filter keeps even
/// a stray NaN from poisoning the pick; ties keep the earlier candidate,
/// matching `min_by`. Returns the pick (`None` when nothing qualifies) and
/// every looked-up time in evaluation order.
fn noiseless_pick(
    evaluated: &[(u128, f64)],
    objective: &Objective,
    time: impl Fn(u128) -> f64,
    memory: impl Fn(u128) -> (u64, u64),
) -> (Option<u128>, Vec<f64>) {
    let mut best: Option<(u128, f64)> = None;
    let mut times = Vec::with_capacity(evaluated.len());
    for &(cand, _) in evaluated {
        let t = time(cand);
        times.push(t);
        let s = if objective.is_time_only() {
            t
        } else {
            let (peak, rw) = memory(cand);
            if objective.over_budget(peak) {
                continue;
            }
            objective.score(t, peak, rw)
        };
        if s.is_finite() && best.is_none_or(|(_, bs)| s < bs) {
            best = Some((cand, s));
        }
    }
    (best.map(|(id, _)| id), times)
}

/// Distinct `(statement, version)` pairs whose modeled peak exceeds the
/// objective's memory budget (0 without a budget). The joint peak is the
/// max over statements, so a version over budget in isolation is over
/// budget in any joint configuration.
fn versions_over_budget(objective: &Objective, mem_table: &[Vec<(u64, u64)>]) -> usize {
    objective.mem_budget.map_or(0, |budget| {
        mem_table
            .iter()
            .flatten()
            .filter(|&&(peak, _)| peak > budget)
            .count()
    })
}

/// Memo-cache counters of an [`EvalCache`], read at the start of a run so
/// its statistics report only the traffic the run caused.
struct CacheCounters {
    /// Times + features combined.
    all: (usize, usize),
    time: (usize, usize),
    op: (usize, usize),
    hot: HotPathSnapshot,
}

impl CacheCounters {
    fn read(cache: &EvalCache) -> Self {
        CacheCounters {
            all: cache.stats(),
            time: cache.time_stats(),
            op: cache.op_stats(),
            hot: cache.hot().snapshot(),
        }
    }

    /// Records into `stats` the hits, misses and hot-path times `cache`
    /// has seen since `self` was read. SURF's own prediction time, which
    /// the cache does not see, is kept.
    fn record_since(&self, cache: &EvalCache, stats: &mut SearchStats) {
        let now = CacheCounters::read(cache);
        (stats.cache_hits, stats.cache_misses) = (now.all.0 - self.all.0, now.all.1 - self.all.1);
        (stats.time_hits, stats.time_misses) = (now.time.0 - self.time.0, now.time.1 - self.time.1);
        (stats.per_op_hits, stats.per_op_misses) = (now.op.0 - self.op.0, now.op.1 - self.op.1);
        stats.hot = HotPathSnapshot {
            predict_ns: stats.hot.predict_ns,
            ..now.hot.delta(&self.hot)
        };
    }
}

/// What the SURF runs of one tune add up to — one run for joint tuning,
/// one per statement for decomposed tuning.
struct SearchRun {
    stats: SearchStats,
    status: SearchStatus,
    quarantine: QuarantineReport,
}

impl SearchRun {
    fn new(statements: &[StatementTuner], versions_over_budget: usize) -> Self {
        SearchRun {
            stats: SearchStats {
                threads: 1,
                versions_over_budget,
                ..SearchStats::default()
            },
            status: SearchStatus::Complete,
            quarantine: lower::build_quarantine(statements),
        }
    }

    /// Folds one SURF result in; its quarantined configurations are
    /// recorded against `statement` (`None`: a joint id).
    fn add(&mut self, result: &SurfResult, statement: Option<usize>) {
        let s = &mut self.stats;
        s.n_evals += result.n_evals();
        s.batches += result.batches;
        s.wall_s += result.wall_s;
        s.threads = s.threads.max(result.threads);
        s.hot.predict_ns += result.predict_ns;
        s.duplicate_candidates += result.duplicates_pruned;
        for (cid, reason) in &result.quarantined {
            self.quarantine
                .record_config(statement, *cid, reason.clone());
        }
    }

    /// The result artifact for the picked joint configuration `id`: its
    /// per-statement choices, mapped kernels, noiseless model time and
    /// modeled memory, plus this run's statistics.
    fn finish(
        mut self,
        workload: &Workload,
        statements: &[StatementTuner],
        arch: &GpuArch,
        mem_table: &[Vec<(u64, u64)>],
        objective: Objective,
        id: u128,
    ) -> Result<TunedWorkload, BarracudaError> {
        let locals = lower::decode_joint(statements, id);
        let mut choices = Vec::new();
        let mut programs = Vec::new();
        for (s, &local) in statements.iter().zip(&locals) {
            let (v, config) = s.decode(local);
            programs.push(s.variants[v].program.clone());
            choices.push((v, config));
        }
        let kernels = lower::map_joint(workload, statements, id)?;
        // Report the noiseless model time of the chosen configuration.
        let gpu_seconds = evaluate::joint_gpu_seconds(workload, statements, id, arch)?;
        let s = &mut self.stats;
        s.space_size = lower::total_space(statements);
        s.quarantined_versions = self.quarantine.versions();
        s.quarantined_configs = self.quarantine.configs();
        (s.peak_temp_bytes, s.rw_bytes) = lower::joint_memory_from_table(statements, mem_table, id);
        Ok(TunedWorkload {
            name: workload.name.clone(),
            arch_name: arch.name.to_string(),
            id,
            choices,
            programs,
            kernels,
            gpu_seconds,
            transfer_seconds: evaluate::transfer_seconds(workload, arch),
            flops: lower::joint_flops(statements, id),
            search: self.stats,
            objective,
            status: self.status,
            quarantine: self.quarantine,
        })
    }
}

/// Result of autotuning one workload on one architecture.
#[derive(Clone, Debug)]
pub struct TunedWorkload {
    pub name: String,
    pub arch_name: String,
    /// Flat id of the chosen configuration.
    pub id: u128,
    /// Per statement: chosen version index + configuration.
    pub choices: Vec<(usize, Configuration)>,
    /// Per statement: the chosen version's TCR program.
    pub programs: Vec<TcrProgram>,
    /// Per statement: mapped kernels.
    pub kernels: Vec<Vec<MappedKernel>>,
    pub gpu_seconds: f64,
    pub transfer_seconds: f64,
    pub flops: u64,
    pub search: SearchStats,
    /// The objective this result was tuned under (recorded in plans, so
    /// replay can refuse a foreign-objective plan).
    pub objective: Objective,
    /// Whether the search ran to completion or stopped early (budget,
    /// deadline, survivor-fraction threshold) with best-so-far.
    pub status: SearchStatus,
    /// Every version and configuration excluded from the search, with the
    /// stage and reason it was quarantined.
    pub quarantine: QuarantineReport,
}

impl TunedWorkload {
    pub fn total_seconds(&self) -> f64 {
        self.gpu_seconds + self.transfer_seconds
    }

    /// `true` when the search stopped early instead of running to its
    /// configured budget (the result is still the best configuration seen).
    pub fn is_degraded(&self) -> bool {
        self.status.is_degraded()
    }

    /// Sustained GFlop/s including PCIe transfers.
    pub fn gflops(&self) -> f64 {
        self.flops as f64 / self.total_seconds() / 1e9
    }

    /// Device-side GFlop/s (kernels + launches only).
    pub fn gflops_device(&self) -> f64 {
        self.flops as f64 / self.gpu_seconds / 1e9
    }

    /// Time per run when the measurement loop repeats the kernels `reps`
    /// times over device-resident data (the paper averages 100 repetitions,
    /// so host transfers amortize across them).
    pub fn amortized_seconds(&self, reps: usize) -> f64 {
        self.gpu_seconds + self.transfer_seconds / reps.max(1) as f64
    }

    /// GFlop/s under `reps`-amortized transfers (the Table II metric).
    pub fn gflops_amortized(&self, reps: usize) -> f64 {
        self.flops as f64 / self.amortized_seconds(reps) / 1e9
    }

    /// Full CUDA source: every kernel plus the host launcher.
    pub fn cuda_source(&self) -> String {
        let mut s = String::new();
        for ks in &self.kernels {
            for k in ks {
                s.push_str(&tcr::codegen::cuda_kernel(k));
                s.push('\n');
            }
        }
        for ks in &self.kernels {
            s.push_str(&tcr::codegen::cuda_launcher(ks));
        }
        s
    }

    /// Executes the tuned kernels functionally (simulated GPU) over named
    /// inputs; returns the workload's external outputs. Fails when `inputs`
    /// is missing a tensor some statement consumes.
    pub fn execute(
        &self,
        workload: &Workload,
        inputs: &[(String, Tensor)],
    ) -> Result<Vec<(String, Tensor)>, BarracudaError> {
        execute_chain(workload, &self.programs, inputs, |sidx, operands| {
            gpusim::execute_program(&self.programs[sidx], &self.kernels[sidx], operands)
        })
    }
}

/// The one statement chain behind every whole-workload executor
/// ([`TunedWorkload::execute`], `cpu::execute_workload_cpu`,
/// `fusionopt::execute_with_fusion`): runs `programs[s]` for each
/// statement `s` through `run(s, operands)`, reading its operands by name
/// from the inputs and earlier outputs, overwriting or accumulating into
/// the statement's output (its `accumulate` flag), and returns the
/// external outputs in [`Workload::external_outputs`] order. A missing
/// operand or output is a typed [`BarracudaError::Validation`].
pub(crate) fn execute_chain(
    workload: &Workload,
    programs: &[TcrProgram],
    inputs: &[(String, Tensor)],
    mut run: impl FnMut(usize, &[&Tensor]) -> Tensor,
) -> Result<Vec<(String, Tensor)>, BarracudaError> {
    let mut env: BTreeMap<String, Tensor> = inputs.iter().cloned().collect();
    for (sidx, (st, program)) in workload.statements.iter().zip(programs).enumerate() {
        let operands: Vec<&Tensor> = program
            .input_ids()
            .iter()
            .map(|&id| {
                let name = &program.arrays[id].name;
                env.get(name).ok_or_else(|| BarracudaError::Validation {
                    workload: workload.name.clone(),
                    statement: Some(sidx),
                    detail: format!("missing input tensor {name}"),
                })
            })
            .collect::<Result<_, _>>()?;
        let fresh = run(sidx, &operands);
        match env.entry(st.output.name.clone()) {
            Entry::Occupied(mut o) if st.accumulate => {
                for (a, b) in o.get_mut().data_mut().iter_mut().zip(fresh.data()) {
                    *a += b;
                }
            }
            Entry::Occupied(mut o) => *o.get_mut() = fresh,
            Entry::Vacant(v) => {
                v.insert(fresh);
            }
        }
    }
    workload
        .external_outputs()
        .into_iter()
        .map(|name| {
            let t = env
                .remove(&name)
                .ok_or_else(|| BarracudaError::Validation {
                    workload: workload.name.clone(),
                    statement: None,
                    detail: format!("external output {name} was never computed"),
                })?;
            Ok((name, t))
        })
        .collect()
}

/// Runs SURF over the joint space against a caller-provided [`EvalCache`],
/// so repeated runs (per-architecture sweeps, benchmark repetitions,
/// decomposed + joint comparisons) never re-simulate a configuration they
/// have already seen.
///
/// Configurations that fail to map/simulate (or are failed by
/// [`TuneParams::fault_injection`]) are quarantined, not fatal: the search
/// continues over survivors and the report travels on the result. The only
/// hard errors are an empty pool and a search with no survivors at all.
pub fn autotune_joint(
    workload: &Workload,
    statements: &[StatementTuner],
    arch: &GpuArch,
    params: TuneParams,
    cache: &EvalCache,
) -> Result<TunedWorkload, BarracudaError> {
    let objective = params.objective;
    let mem_table = lower::version_memory_table(statements);
    let memory = |id: u128| lower::joint_memory_from_table(statements, &mem_table, id);
    let mut run = SearchRun::new(statements, versions_over_budget(&objective, &mem_table));
    let mut pool = space::joint_pool(statements, params.pool_cap, params.seed);
    if let Some(budget) = objective.mem_budget {
        if objective.budget_mode == BudgetMode::Prune {
            let before = pool.len();
            pool.retain(|&id| memory(id).0 <= budget);
            run.stats.pruned_by_memory = before - pool.len();
            if pool.is_empty() {
                return Err(BarracudaError::Search {
                    workload: workload.name.clone(),
                    detail: format!(
                        "memory budget {budget} B excludes every candidate \
                         ({} over-budget versions, {} configurations pruned) — raise the \
                         budget or use penalize mode",
                        run.stats.versions_over_budget, run.stats.pruned_by_memory
                    ),
                });
            }
        }
    }
    let evaluator = TunerEvaluator::from_parts(
        workload,
        statements,
        arch,
        cache,
        params.eval_noise,
        params.noise_floor_us,
        params.seed,
    );
    let start = CacheCounters::read(cache);
    let result =
        run_surf(&pool, &evaluator, memory, &params, params.effective_surf()).map_err(|e| {
            BarracudaError::Search {
                workload: workload.name.clone(),
                detail: e.to_string(),
            }
        })?;
    // Counted before the pick: the joint path reports the search's own
    // cache traffic.
    start.record_since(cache, &mut run.stats);
    run.add(&result, None);
    run.stats.pool_size = pool.len();
    run.stats.evaluated_times = result.evaluated.iter().map(|(_, t)| *t).collect();
    run.status = result.status.clone();
    // An external attempt cap that actually truncated the search is an
    // explicit degradation, not a silent completion.
    if let Some(cap) = params.max_evaluations {
        if !run.status.is_degraded() && cap < params.surf.max_evals && result.n_attempted() >= cap {
            run.status = SearchStatus::Degraded {
                reason: format!(
                    "evaluation budget exhausted after {} attempts (cap {cap})",
                    result.n_attempted()
                ),
            };
        }
    }
    let (best, _) = noiseless_pick(
        &result.evaluated,
        &objective,
        |id| evaluator.time(id),
        memory,
    );
    if best.is_none() && objective.mem_budget.is_some() {
        // Penalize mode lets over-budget candidates into the pool (their
        // evaluations still train the surrogate), but the pick must never
        // exceed the budget.
        return Err(BarracudaError::Search {
            workload: workload.name.clone(),
            detail: format!(
                "every surviving candidate exceeds the memory budget {} B \
                 ({} over-budget versions)",
                objective.mem_budget.unwrap_or(0),
                run.stats.versions_over_budget
            ),
        });
    }
    let id = best.unwrap_or(result.best_id);
    run.finish(workload, statements, arch, &mem_table, objective, id)
}

/// Decomposed tuning: each statement is searched *independently* (the
/// joint objective is a sum over statements, so the joint optimum factors —
/// an observation the paper's joint 512,000-variant framing leaves on the
/// table). Costs the sum of the per-statement budgets instead of one budget
/// over the product space. Statements salt the cache's keyspace
/// individually, so repeated or interleaved runs reuse each other's
/// simulations.
///
/// [`TuneParams::max_evaluations`] and [`TuneParams::wall_deadline_s`] are
/// *shared* budgets: each statement's search gets what the previous
/// statements left over, and exhaustion degrades the run rather than
/// failing it.
pub fn autotune_decomposed(
    workload: &Workload,
    statements: &[StatementTuner],
    arch: &GpuArch,
    params: TuneParams,
    cache: &EvalCache,
) -> Result<TunedWorkload, BarracudaError> {
    let objective = params.objective;
    let mem_table = lower::version_memory_table(statements);
    let mut run = SearchRun::new(statements, versions_over_budget(&objective, &mem_table));
    let mut locals: Vec<u128> = Vec::with_capacity(statements.len());
    let mut remaining = params.max_evaluations;
    let mut attempted_total = 0usize;
    let start_time = Instant::now();
    let start = CacheCounters::read(cache);
    for (k, st) in statements.iter().enumerate() {
        // Pool over this statement's own space.
        let mut pool = space::statement_pool(st, params.pool_cap, params.seed ^ k as u64);
        // Per-statement memory model. The joint peak is the max over
        // statements, so pruning one statement's over-budget versions is
        // exactly the joint-space prune restricted to this axis.
        let st_memory = |local: u128| {
            let (v, _) = st.decode_raw(local);
            mem_table[k][v]
        };
        if let Some(budget) = objective.mem_budget {
            if objective.budget_mode == BudgetMode::Prune {
                let before = pool.len();
                pool.retain(|&local| st_memory(local).0 <= budget);
                run.stats.pruned_by_memory += before - pool.len();
                if pool.is_empty() {
                    return Err(BarracudaError::Search {
                        workload: workload.name.clone(),
                        detail: format!(
                            "statement {k}: memory budget {budget} B excludes every \
                             candidate ({} over-budget versions) — raise the budget or use \
                             penalize mode",
                            run.stats.versions_over_budget
                        ),
                    });
                }
            }
        }
        let evaluator = StatementEvaluator {
            st,
            stmt: k,
            accumulate: workload.statements[k].accumulate,
            arch,
            cache,
            salt: salt_of(&arch.name) ^ (k as u64 + 1),
            op_salt: salt_of(&arch.name),
            noise: Noise {
                rel: params.eval_noise,
                floor_us: params.noise_floor_us,
                seed: params.seed ^ k as u64,
            },
        };
        // This statement's share of the run-wide budget/deadline.
        let mut sp = params.effective_surf();
        if let Some(rem) = remaining {
            sp.max_evals = sp.max_evals.min(rem.max(1));
        }
        if let Some(d) = params.wall_deadline_s {
            sp.wall_deadline_s = Some((d - start_time.elapsed().as_secs_f64()).max(0.0));
        }
        let result = run_surf(&pool, &evaluator, st_memory, &params, sp).map_err(|e| {
            BarracudaError::Search {
                workload: workload.name.clone(),
                detail: format!("statement {k}: {e}"),
            }
        })?;
        if let Some(rem) = remaining.as_mut() {
            *rem = rem.saturating_sub(result.n_attempted());
        }
        attempted_total += result.n_attempted();
        if let (SearchStatus::Complete, SearchStatus::Degraded { reason }) =
            (&run.status, &result.status)
        {
            run.status = SearchStatus::Degraded {
                reason: format!("statement {k}: {reason}"),
            };
        }
        run.add(&result, Some(k));
        // The decomposed path records the noiseless times of the pick.
        let (best, times) = noiseless_pick(
            &result.evaluated,
            &objective,
            |local| evaluator.time(local),
            st_memory,
        );
        run.stats.evaluated_times.extend(times);
        if best.is_none() && objective.mem_budget.is_some() {
            return Err(BarracudaError::Search {
                workload: workload.name.clone(),
                detail: format!(
                    "statement {k}: every surviving candidate exceeds the memory \
                     budget {} B ({} over-budget versions)",
                    objective.mem_budget.unwrap_or(0),
                    run.stats.versions_over_budget
                ),
            });
        }
        locals.push(best.unwrap_or(result.best_id));
    }
    start.record_since(cache, &mut run.stats);
    // The shared attempt budget ran dry: an explicit degradation.
    if let Some(cap) = params.max_evaluations {
        if !run.status.is_degraded() && attempted_total >= cap {
            run.status = SearchStatus::Degraded {
                reason: format!(
                    "shared evaluation budget exhausted after {attempted_total} attempts (cap {cap})"
                ),
            };
        }
    }
    let id = lower::encode_joint(statements, &locals);
    run.finish(workload, statements, arch, &mem_table, objective, id)
}
