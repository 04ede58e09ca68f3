//! Stage 5 — search: SURF over a candidate pool, final noiseless pick,
//! and the [`TunedWorkload`] result artifact.
//!
//! [`autotune_joint`] searches the whole joint space at once (the paper's
//! framing); [`autotune_decomposed`] runs that same search once per
//! statement, over the statement's own space (a workload's time is the sum
//! of its statements' times, so the optimum factors). Either way one search
//! draws a pool, prunes it to the memory budget, runs SURF against a
//! [`TunerEvaluator`] and picks noiselessly; the searches of one tune share
//! its attempt budget, deadline and statistics. Both operate purely on
//! stage artifacts — a [`Workload`] plus its lowered `&[StatementTuner]` —
//! and a shared [`EvalCache`].

use crate::cache::{EvalCache, HotPathSnapshot};
use crate::error::BarracudaError;
use crate::objective::{BudgetMode, Objective};
use crate::quarantine::QuarantineReport;
use crate::stages::evaluate::{salt_of, Noise, ObjectiveEvaluator, TunerEvaluator};
use crate::stages::{evaluate, lower, space};
use crate::variant::StatementTuner;
use crate::workload::Workload;
use gpusim::GpuArch;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
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

    /// A tuning request's parameters: the quick or the paper profile, its
    /// evaluation budget replaced only when `evals` gives one, then the
    /// request's deadline and objective.
    pub fn profile(
        quick: bool,
        evals: Option<usize>,
        wall_deadline_s: Option<f64>,
        objective: Objective,
    ) -> Self {
        let mut p = if quick {
            TuneParams::quick()
        } else {
            TuneParams::paper()
        };
        if let Some(n) = evals {
            p.surf.max_evals = n;
        }
        p.wall_deadline_s = wall_deadline_s;
        p.objective = objective;
        p
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

    /// The measurement noise of a search over the statements from `first`
    /// on, seeded `seed ^ first`.
    pub(crate) fn noise(&self, first: usize) -> Noise {
        Noise {
            rel: self.eval_noise,
            floor_us: self.noise_floor_us,
            seed: self.seed ^ first as u64,
        }
    }
}

/// Search bookkeeping of one autotuning run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SearchStats {
    pub n_evals: usize,
    pub batches: usize,
    /// The measured time of every surviving evaluation, in evaluation
    /// order: the simulated time with the search's measurement noise, as
    /// SURF saw it before the objective scored it. Decomposed tuning
    /// concatenates its statements' searches.
    pub evaluated_times: Vec<f64>,
    /// Size of the full configuration space (before pool sampling).
    pub space_size: u128,
    /// Candidates SURF searched over, after pool sampling and the memory
    /// prune, summed over the statements' searches when decomposed.
    pub pool_size: usize,
    /// Wall-clock seconds spent inside the SURF search.
    pub wall_s: f64,
    /// Threads the evaluation ran on (1 = serial).
    pub threads: usize,
    /// OCTOPI versions quarantined at build time (lowering failures).
    pub quarantined_versions: usize,
    /// Configurations quarantined during the search (mapping/simulation
    /// failures, non-finite times, injected faults).
    pub quarantined_configs: usize,
    /// Per-op outcome cache hits during the searches — the memo layer
    /// under the whole-configuration cache, keyed by `(statement, version,
    /// op, choice)` so distinct joint configurations share sub-results.
    /// Like the time counters, it counts the searches' own lookups: not the
    /// pick's re-reads, nor those of other searches sharing the cache.
    pub per_op_hits: usize,
    pub per_op_misses: usize,
    /// Whole-configuration time cache hits/misses during the searches.
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

    /// Fraction of per-op outcome lookups served from the memo layer. The
    /// joint space is a Cartesian product of per-op choices, so this runs
    /// far above the whole-configuration time rate: a fresh joint id usually
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
/// what the search measured for every candidate, in evaluation order,
/// before the objective scored it — recomputed from the looked-up time, so
/// the memo counters see no extra read.
fn noiseless_pick(
    evaluated: &[(u128, f64)],
    objective: &Objective,
    evaluator: &TunerEvaluator,
    memory: impl Fn(u128) -> (u64, u64),
) -> (Option<u128>, Vec<f64>) {
    let mut best: Option<(u128, f64)> = None;
    let mut times = Vec::with_capacity(evaluated.len());
    for &(cand, _) in evaluated {
        let t = evaluator.time(cand);
        times.push(evaluator.measured(cand, t));
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

/// One tune: the stage artifacts it searches and what its SURF searches
/// add up to — one search over every statement for joint tuning, one per
/// statement for decomposed tuning.
struct SearchRun<'a> {
    workload: &'a Workload,
    statements: &'a [StatementTuner],
    arch: &'a GpuArch,
    params: TuneParams,
    cache: &'a EvalCache,
    /// [`lower::version_memory_table`] of `statements`.
    mem_table: Vec<Vec<(u64, u64)>>,
    /// Searches run so far, and the attempts (survivors and quarantined)
    /// they spent of the shared budget.
    searches: usize,
    attempted: usize,
    stats: SearchStats,
    status: SearchStatus,
    quarantine: QuarantineReport,
}

impl<'a> SearchRun<'a> {
    /// A tune of `statements` that has not searched yet. A statement whose
    /// every version was quarantined leaves nothing to search: a typed
    /// error naming it.
    fn new(
        workload: &'a Workload,
        statements: &'a [StatementTuner],
        arch: &'a GpuArch,
        params: TuneParams,
        cache: &'a EvalCache,
    ) -> Result<Self, BarracudaError> {
        if let Some(k) = statements.iter().position(|s| s.variants.is_empty()) {
            let first = statements[k].quarantined_versions.first();
            return Err(BarracudaError::Validation {
                workload: workload.name.clone(),
                statement: Some(k),
                detail: first.map_or("no OCTOPI version".to_string(), |(v, reason)| {
                    format!("every OCTOPI version is quarantined (version {v}: {reason})")
                }),
            });
        }
        let mem_table = lower::version_memory_table(statements);
        let over_budget = |budget| mem_table.iter().flatten().filter(|v| v.0 > budget).count();
        Ok(SearchRun {
            stats: SearchStats {
                threads: 1,
                versions_over_budget: params.objective.mem_budget.map_or(0, over_budget),
                ..SearchStats::default()
            },
            status: SearchStatus::Complete,
            quarantine: lower::build_quarantine(statements),
            searches: 0,
            attempted: 0,
            workload,
            statements,
            arch,
            params,
            cache,
            mem_table,
        })
    }

    fn error(&self, detail: String) -> BarracudaError {
        BarracudaError::Search {
            workload: self.workload.name.clone(),
            detail,
        }
    }

    /// One SURF search over the joint space of every statement
    /// (`statement` is `None`) or over statement `k`'s own space
    /// (`Some(k)`), returning its pick, an id of that space. The search
    /// draws its pool and noise from `seed ^ first` (its first statement),
    /// keeps its times apart in the cache under its own salt, and spends
    /// what the earlier searches left of the attempt budget and deadline.
    /// Its errors, degradation and quarantined configurations name the
    /// statement `k`.
    fn search(&mut self, statement: Option<usize>) -> Result<u128, BarracudaError> {
        let (params, objective) = (self.params, self.params.objective);
        let range = statement.map_or(0..self.statements.len(), |k| k..k + 1);
        let label = statement.map_or(String::new(), |k| format!("statement {k}: "));
        let statements = &self.statements[range.clone()];
        let mem_table = &self.mem_table[range.clone()];
        let memory = |id: u128| lower::joint_memory_from_table(statements, mem_table, id);
        let mut pool = space::joint_pool(
            statements,
            params.pool_cap,
            params.seed ^ range.start as u64,
        );
        if let (Some(budget), BudgetMode::Prune) = (objective.mem_budget, objective.budget_mode) {
            let before = pool.len();
            pool.retain(|&id| memory(id).0 <= budget);
            self.stats.pruned_by_memory += before - pool.len();
            if pool.is_empty() {
                return Err(self.error(format!(
                    "{label}memory budget {budget} B excludes every candidate ({} over-budget \
                     versions, {} configurations pruned) — raise the budget or use penalize mode",
                    self.stats.versions_over_budget, self.stats.pruned_by_memory
                )));
            }
        }
        self.stats.pool_size += pool.len();
        let salt = salt_of(&self.arch.name) ^ statement.map_or(0, |k| k as u64 + 1);
        let noise = params.noise(range.start);
        let evaluator = TunerEvaluator::over(
            self.workload,
            statements,
            range.start,
            self.arch,
            self.cache,
            salt,
            noise,
        );
        let mut sp = params.effective_surf();
        if let Some(cap) = params.max_evaluations {
            sp.max_evals = sp.max_evals.min(cap.saturating_sub(self.attempted).max(1));
        }
        if let Some(deadline) = params.wall_deadline_s {
            sp.wall_deadline_s = Some(deadline - self.stats.wall_s);
        }
        let result = run_surf(&pool, &evaluator, memory, &params, sp)
            .map_err(|e| self.error(format!("{label}{e}")))?;
        // Read before the pick: the statistics report the search's own
        // cache traffic.
        let own = evaluator.traffic();
        let ((time_hits, time_misses), (op_hits, op_misses)) = (own.time_stats(), own.op_stats());
        let hot = own.hot().snapshot();
        let s = &mut self.stats;
        s.time_hits += time_hits;
        s.time_misses += time_misses;
        s.per_op_hits += op_hits;
        s.per_op_misses += op_misses;
        s.hot.decode_ns += hot.decode_ns;
        s.hot.map_ns += hot.map_ns;
        s.hot.sim_ns += hot.sim_ns;
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
        if let (SearchStatus::Complete, SearchStatus::Degraded { reason }) =
            (&self.status, &result.status)
        {
            self.status = SearchStatus::Degraded {
                reason: format!("{label}{reason}"),
            };
        }
        self.searches += 1;
        self.attempted += result.n_attempted();
        let (best, times) = noiseless_pick(&result.evaluated, &objective, &evaluator, memory);
        self.stats.evaluated_times.extend(times);
        match (best, objective.mem_budget) {
            (Some(id), _) => Ok(id),
            // Penalize mode lets over-budget candidates into the pool (their
            // evaluations still train the surrogate), but the pick must
            // never exceed the budget.
            (None, Some(budget)) => Err(self.error(format!(
                "{label}every surviving candidate exceeds the memory budget {budget} B ({} \
                 over-budget versions)",
                self.stats.versions_over_budget
            ))),
            (None, None) => Ok(result.best_id),
        }
    }

    /// The result artifact for the picked joint configuration `id`: its
    /// per-statement choices, mapped kernels, noiseless model time and
    /// modeled memory, plus the searches' statistics. An attempt cap that
    /// truncated the searches is an explicit degradation, not a silent
    /// completion.
    fn finish(mut self, id: u128) -> Result<TunedWorkload, BarracudaError> {
        let (workload, statements, arch) = (self.workload, self.statements, self.arch);
        if let Some(cap) = self.params.max_evaluations {
            let full = self.searches.saturating_mul(self.params.surf.max_evals);
            if !self.status.is_degraded() && cap < full && self.attempted >= cap {
                self.status = SearchStatus::Degraded {
                    reason: format!(
                        "evaluation budget exhausted after {} attempts (cap {cap})",
                        self.attempted
                    ),
                };
            }
        }
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
        (s.peak_temp_bytes, s.rw_bytes) =
            lower::joint_memory_from_table(statements, &self.mem_table, id);
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
            objective: self.params.objective,
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
/// hard errors are a statement with no surviving version, an empty pool
/// and a search with no survivors at all.
pub fn autotune_joint(
    workload: &Workload,
    statements: &[StatementTuner],
    arch: &GpuArch,
    params: TuneParams,
    cache: &EvalCache,
) -> Result<TunedWorkload, BarracudaError> {
    let mut run = SearchRun::new(workload, statements, arch, params, cache)?;
    let id = run.search(None)?;
    run.finish(id)
}

/// Decomposed tuning: the joint search run once per statement, over that
/// statement's own space. A workload's time is the sum of its statements'
/// times, so the joint optimum factors — an observation the paper's joint
/// 512,000-variant framing leaves on the table — and the cost is the sum of
/// the per-statement budgets instead of one budget over the product space.
/// Statements salt the cache's keyspace individually, so repeated or
/// interleaved runs reuse each other's simulations.
///
/// [`TuneParams::max_evaluations`] and [`TuneParams::wall_deadline_s`] are
/// *shared* budgets: each statement's search gets what the previous
/// statements' searches left over, and exhaustion degrades the run rather
/// than failing it.
pub fn autotune_decomposed(
    workload: &Workload,
    statements: &[StatementTuner],
    arch: &GpuArch,
    params: TuneParams,
    cache: &EvalCache,
) -> Result<TunedWorkload, BarracudaError> {
    let mut run = SearchRun::new(workload, statements, arch, params, cache)?;
    let locals = (0..statements.len())
        .map(|k| run.search(Some(k)))
        .collect::<Result<Vec<_>, _>>()?;
    run.finish(lower::encode_joint(statements, &locals))
}
