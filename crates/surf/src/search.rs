//! SURF model-based search — Algorithm 2 of the paper.
//!
//! Configurations are opaque `u128` ids drawn from a pool. The caller
//! provides the feature encoding and the (expensive, possibly parallel)
//! evaluation. Lower evaluation values are better (execution time).
//!
//! One driver runs every search. [`surf_search_serial`] and
//! [`surf_search_parallel`] hand it a [`ParallelEvaluator`] and say whether
//! the evaluator's calls (each batch, and the pool's one-time
//! featurization) run on the calling thread or fan out over the rayon pool;
//! [`surf_search`] adapts a pair of closures to the serial entry point.
//! Serial and parallel runs are *bit-identical* for pure evaluators: batch
//! membership is decided before evaluation, results are folded in batch
//! order, and parallel maps preserve index order, so no reduction depends
//! on thread scheduling.
//!
//! The surrogate scores the remaining pool on the calling thread in both
//! modes. The pool is kept transposed ([`TransposedPool`]), and each
//! round's forest partitions the set of remaining rows split by split
//! ([`ExtraTrees::predict_rows`]), so a pass costs a few ANDs per split
//! instead of a tree walk per row. An evaluator that can write that pool
//! from its configuration encoding hands it over through
//! [`ParallelEvaluator::transposed_pool`], and the search then asks for
//! features of the configurations it measures only.
//!
//! ## Fault tolerance
//!
//! An evaluation may fail ([`ParallelEvaluator::try_evaluate`] returns an
//! [`EvalFault`]) or come back non-finite. Either way the configuration is
//! *quarantined* — recorded in [`SurfResult::quarantined`] with its reason
//! and excluded from the surrogate's training set and from the incumbent —
//! and the search continues over survivors. Quarantined configurations
//! still consume evaluation budget (they cost a simulator/benchmark run),
//! and they are never retried: the pool is sampled without replacement.
//! When every attempted configuration is quarantined the search returns
//! [`SearchError::NoSurvivors`] rather than a bogus best.

use crate::binarize::TransposedPool;
use crate::forest::{ExtraTrees, ForestParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::time::Instant;

/// A typed evaluation failure surfaced by [`ParallelEvaluator::try_evaluate`].
///
/// `stage` is a short machine-readable tag naming the pipeline stage that
/// failed (`"mapping"`, `"simulation"`, `"injected"`, …); `detail` is the
/// human-readable reason recorded in the quarantine report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvalFault {
    pub stage: &'static str,
    pub detail: String,
}

impl EvalFault {
    pub fn new(stage: &'static str, detail: impl Into<String>) -> Self {
        EvalFault {
            stage,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for EvalFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.stage, self.detail)
    }
}

/// Why a search could not produce any result at all.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SearchError {
    /// The configuration pool was empty before the search began.
    EmptyPool,
    /// Every attempted configuration was quarantined; there is no finite
    /// best-so-far to return.
    NoSurvivors { attempted: usize },
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchError::EmptyPool => write!(f, "empty configuration pool"),
            SearchError::NoSurvivors { attempted } => write!(
                f,
                "all {attempted} attempted configurations were quarantined; no survivor to rank"
            ),
        }
    }
}

impl std::error::Error for SearchError {}

/// Whether the search ran to its stopping rule or was cut short.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SearchStatus {
    /// The search ran until a configured stopping rule (budget, patience,
    /// pool exhaustion) was satisfied.
    Complete,
    /// The search stopped early — deadline expired or too many
    /// quarantines — and returned the best survivor found so far.
    Degraded { reason: String },
}

impl SearchStatus {
    pub fn is_degraded(&self) -> bool {
        matches!(self, SearchStatus::Degraded { .. })
    }
}

/// Parameters of the search.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SurfParams {
    /// Random configurations evaluated before the first model fit (0 ⇒ one
    /// batch). A diverse initial design keeps the surrogate from locking
    /// onto the first basin it sees.
    pub init_evals: usize,
    /// Concurrent evaluations per iteration (`bs` in Algorithm 2).
    pub batch_size: usize,
    /// Evaluation budget (`nmax`). Quarantined attempts count against it.
    pub max_evals: usize,
    /// Stop early after this many consecutive batches without improving the
    /// incumbent by at least `min_improvement` (relative). `None` disables
    /// early stopping — the paper's flat Eqn.(1) landscape is what makes
    /// its search run long.
    pub patience: Option<usize>,
    /// Relative improvement threshold for the patience counter.
    pub min_improvement: f64,
    /// Wall-clock deadline in seconds, checked at batch boundaries; on
    /// expiry the search stops with a `Degraded` status and the best
    /// survivor so far. `None` disables the deadline (and keeps results
    /// independent of machine speed).
    pub wall_deadline_s: Option<f64>,
    /// Stop (Degraded) when the fraction of attempted configurations that
    /// survived quarantine falls below this after any batch. `0.0`
    /// disables the check.
    pub min_survivor_fraction: f64,
    pub seed: u64,
    pub forest: ForestParams,
}

impl Default for SurfParams {
    fn default() -> Self {
        SurfParams {
            init_evals: 0,
            batch_size: 10,
            max_evals: 100,
            patience: None,
            min_improvement: 0.01,
            wall_deadline_s: None,
            min_survivor_fraction: 0.0,
            seed: 0x5EED,
            forest: ForestParams::default(),
        }
    }
}

/// Result of a search run.
#[derive(Clone, Debug)]
pub struct SurfResult {
    pub best_id: u128,
    pub best_y: f64,
    /// Every surviving `(id, y)` pair in evaluation order.
    pub evaluated: Vec<(u128, f64)>,
    /// Every quarantined `(id, reason)` pair in evaluation order. Ids here
    /// are disjoint from `evaluated` and never retried.
    pub quarantined: Vec<(u128, String)>,
    /// Whether the search completed or degraded (deadline, quarantine
    /// threshold).
    pub status: SearchStatus,
    /// Batches executed (model refits).
    pub batches: usize,
    /// Threads the evaluation ran on (1 for the serial entry point).
    pub threads: usize,
    /// Wall-clock seconds spent inside the search.
    pub wall_s: f64,
    /// Nanoseconds spent in the surrogate's scoring passes: each round's
    /// partition scoring of the remaining pool rows. Excludes the forest
    /// fit and the one-time featurization and transposition of the pool.
    pub predict_ns: u64,
    /// Duplicate candidate ids pruned from the caller's pool before the
    /// search began (first occurrence kept). Duplicates would break
    /// sampling-without-replacement and be re-scored by every surrogate
    /// pass, so they never enter the shuffle.
    pub duplicates_pruned: usize,
}

impl SurfResult {
    /// Surviving evaluations (excludes quarantined attempts).
    pub fn n_evals(&self) -> usize {
        self.evaluated.len()
    }

    /// Total attempts: survivors plus quarantined.
    pub fn n_attempted(&self) -> usize {
        self.evaluated.len() + self.quarantined.len()
    }
}

/// A thread-safe configuration evaluator, the unit of work
/// [`surf_search_parallel`] fans out over the rayon pool. Implementations
/// must be *pure* per id (same id ⇒ same features and outcome regardless of
/// call order) for parallel runs to stay bit-identical to serial ones; a
/// shared memo cache behind interior mutability satisfies this.
pub trait ParallelEvaluator: Sync {
    /// Binarized feature vector of a configuration.
    fn features(&self, id: u128) -> Vec<f64>;
    /// Measured performance of a configuration (lower = better).
    fn evaluate(&self, id: u128) -> f64;
    /// Fallible evaluation. The default wraps [`evaluate`], so existing
    /// infallible evaluators keep working; evaluators whose pipeline can
    /// fail per configuration (mapping, simulation, injection) override
    /// this to surface a typed [`EvalFault`] instead of a panic or NaN.
    ///
    /// [`evaluate`]: ParallelEvaluator::evaluate
    fn try_evaluate(&self, id: u128) -> Result<f64, EvalFault> {
        Ok(self.evaluate(id))
    }
    /// The pool of `ids` transposed, row `r` being `ids[r]`: exactly the
    /// pool [`TransposedPool::from_rows`] builds from their
    /// [`features`](ParallelEvaluator::features), or `None` (the default)
    /// to have the search featurize every id and transpose the rows. An
    /// evaluator that can write the pool's bitsets from its configuration
    /// encoding overrides this; a pool that differs from the rows' moves
    /// the search's picks.
    fn transposed_pool(&self, _ids: &[u128]) -> Option<TransposedPool> {
        None
    }
}

/// Blanket impl so wrappers can borrow evaluators.
impl<E: ParallelEvaluator + ?Sized> ParallelEvaluator for &E {
    fn features(&self, id: u128) -> Vec<f64> {
        (**self).features(id)
    }
    fn evaluate(&self, id: u128) -> f64 {
        (**self).evaluate(id)
    }
    fn try_evaluate(&self, id: u128) -> Result<f64, EvalFault> {
        (**self).try_evaluate(id)
    }
    fn transposed_pool(&self, ids: &[u128]) -> Option<TransposedPool> {
        (**self).transposed_pool(ids)
    }
}

/// Runs SURF over `pool`, evaluating serially on the calling thread.
///
/// * `features(id)` returns the *binarized* feature vector of a config.
/// * `evaluate(id)` returns its measured performance (lower = better).
///
/// Non-finite evaluations are quarantined rather than panicking; see the
/// module docs.
pub fn surf_search(
    pool: &[u128],
    features: impl Fn(u128) -> Vec<f64> + Sync,
    evaluate: impl Fn(u128) -> f64 + Sync,
    params: SurfParams,
) -> Result<SurfResult, SearchError> {
    struct Closures<F, G>(F, G);
    impl<F: Fn(u128) -> Vec<f64> + Sync, G: Fn(u128) -> f64 + Sync> ParallelEvaluator
        for Closures<F, G>
    {
        fn features(&self, id: u128) -> Vec<f64> {
            (self.0)(id)
        }
        fn evaluate(&self, id: u128) -> f64 {
            (self.1)(id)
        }
    }
    surf_search_serial(pool, &Closures(features, evaluate), params)
}

/// Runs SURF over `pool` with a [`ParallelEvaluator`] on the calling
/// thread — identical fault semantics to [`surf_search_parallel`], without
/// touching the rayon pool. Bit-identical to the parallel entry point for
/// pure evaluators.
pub fn surf_search_serial<E: ParallelEvaluator>(
    pool: &[u128],
    evaluator: &E,
    params: SurfParams,
) -> Result<SurfResult, SearchError> {
    drive(pool, Evaluations::new(evaluator, false), params)
}

/// Runs SURF over `pool`, fanning each batch evaluation and the pool's
/// featurization out over the rayon thread pool (sized by
/// `RAYON_NUM_THREADS`, default: all cores); the surrogate scores the pool
/// on the calling thread. For pure evaluators the result is bit-identical
/// to [`surf_search_serial`] with the same parameters, at any thread count.
pub fn surf_search_parallel<E: ParallelEvaluator>(
    pool: &[u128],
    evaluator: &E,
    params: SurfParams,
) -> Result<SurfResult, SearchError> {
    drive(pool, Evaluations::new(evaluator, true), params)
}

/// The driver's evaluation side: runs a batch through the evaluator and
/// scores the remaining pool with the fitted surrogate. `parallel` fans the
/// evaluator's calls out over the rayon pool; both modes do the same work
/// per id and keep index order, so it never changes a result.
///
/// The pool is transposed once, on the first scoring pass (later
/// `remaining` sets are subsets: the pool only shrinks): by the evaluator's
/// [`ParallelEvaluator::transposed_pool`] when it offers one, else by
/// featurizing it in chunks that are folded into a [`TransposedPool`] as
/// they arrive. Every pass then scores the selected pool rows by partition
/// on the calling thread, bit-identical to per-id
/// `model.predict(features(id))`.
struct Evaluations<'a, E> {
    evaluator: &'a E,
    parallel: bool,
    /// The transposed pool, built on first use.
    pool: Option<TransposedPool>,
    predict_ns: u64,
}

/// Ids featurized per chunk while the pool is transposed: enough to keep
/// the rayon pool busy, and only one chunk's rows are held at a time.
const FEATURIZE_CHUNK: usize = 1024;

impl<'a, E: ParallelEvaluator> Evaluations<'a, E> {
    fn new(evaluator: &'a E, parallel: bool) -> Self {
        Evaluations {
            evaluator,
            parallel,
            pool: None,
            predict_ns: 0,
        }
    }

    /// `(features, outcome)` per id in batch order. Faulted configurations
    /// never reach the surrogate, so their features are left empty.
    fn eval_batch(&self, ids: &[u128]) -> Vec<(Vec<f64>, Result<f64, EvalFault>)> {
        map_ids(self.parallel, ids, |id| {
            match self.evaluator.try_evaluate(id) {
                Ok(y) => (self.evaluator.features(id), Ok(y)),
                Err(fault) => (Vec::new(), Err(fault)),
            }
        })
    }

    /// Scores `remaining` in order into the caller-owned `out`. `rows`
    /// holds each remaining id's pool row, in step with `remaining`; the
    /// first pass transposes the pool from `remaining` and numbers its rows
    /// in that order.
    fn score(
        &mut self,
        model: &ExtraTrees,
        remaining: &[u128],
        rows: &mut Vec<u32>,
        out: &mut Vec<f64>,
    ) {
        let pool = self.pool.get_or_insert_with(|| {
            rows.clear();
            rows.extend(0..remaining.len() as u32);
            let pool = self
                .evaluator
                .transposed_pool(remaining)
                .unwrap_or_else(|| {
                    let chunks = remaining.chunks(FEATURIZE_CHUNK);
                    let feats = chunks.flat_map(|ids| {
                        map_ids(self.parallel, ids, |id| self.evaluator.features(id))
                    });
                    TransposedPool::from_rows(remaining.len(), feats)
                });
            assert_eq!(pool.n_rows(), remaining.len(), "pool row count");
            pool
        });
        debug_assert_eq!(rows.len(), remaining.len(), "pool rows out of step");
        let t0 = Instant::now();
        model.predict_rows(pool, rows, out);
        self.predict_ns += t0.elapsed().as_nanos() as u64;
    }

    fn threads(&self) -> usize {
        if self.parallel {
            rayon::current_num_threads()
        } else {
            1
        }
    }
}

/// `f` over `ids` in index order, on the rayon pool when `parallel`.
fn map_ids<T: Send>(parallel: bool, ids: &[u128], f: impl Fn(u128) -> T + Sync) -> Vec<T> {
    if parallel {
        rayon::par_map_slice(ids, |&id| f(id))
    } else {
        ids.iter().map(|&id| f(id)).collect()
    }
}

fn drive<E: ParallelEvaluator>(
    pool: &[u128],
    mut evals: Evaluations<'_, E>,
    params: SurfParams,
) -> Result<SurfResult, SearchError> {
    if pool.is_empty() {
        return Err(SearchError::EmptyPool);
    }
    let batch_size = params.batch_size.max(1);
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(params.seed);

    // Remaining (unevaluated) pool. Duplicate ids in the caller's pool
    // would break sampling-without-replacement (the same configuration
    // evaluated twice) and be re-scored by every surrogate pass, so they
    // are pruned before the shuffle — first occurrence wins, order
    // otherwise preserved, which keeps already-unique pools bit-identical
    // to the history (the pre-shuffle sequence is unchanged).
    let mut remaining: Vec<u128> = pool.to_vec();
    {
        let mut seen = std::collections::HashSet::with_capacity(remaining.len());
        remaining.retain(|&id| seen.insert(id));
    }
    let duplicates_pruned = pool.len() - remaining.len();

    // Shuffled once for an unbiased init.
    for i in (1..remaining.len()).rev() {
        let j = rng.gen_range(0..=i);
        remaining.swap(i, j);
    }

    let mut xs: Vec<Vec<f64>> = Vec::new();
    let mut ys: Vec<f64> = Vec::new();
    let mut evaluated: Vec<(u128, f64)> = Vec::new();
    let mut quarantined: Vec<(u128, String)> = Vec::new();
    let mut best: Option<(u128, f64)> = None;
    let mut status = SearchStatus::Complete;
    let mut stale_batches = 0usize;
    let mut batches = 0usize;

    // Evaluates one batch (possibly in parallel) and folds the results in
    // batch order, so the incumbent/trace/quarantine updates are
    // scheduling-independent. Faulted or non-finite outcomes go to
    // quarantine and never reach the surrogate's training set.
    let run_batch = |ids: &[u128],
                     evals: &Evaluations<'_, E>,
                     xs: &mut Vec<Vec<f64>>,
                     ys: &mut Vec<f64>,
                     evaluated: &mut Vec<(u128, f64)>,
                     quarantined: &mut Vec<(u128, String)>,
                     best: &mut Option<(u128, f64)>|
     -> bool {
        let mut improved = false;
        for (&id, (x, outcome)) in ids.iter().zip(evals.eval_batch(ids)) {
            let y = match outcome {
                Ok(y) if y.is_finite() => y,
                Ok(y) => {
                    quarantined.push((id, format!("non-finite simulated time {y}")));
                    continue;
                }
                Err(fault) => {
                    quarantined.push((id, fault.to_string()));
                    continue;
                }
            };
            xs.push(x);
            ys.push(y);
            evaluated.push((id, y));
            let better = match best {
                Some((_, by)) => y < *by * (1.0 - 1e-12),
                None => true,
            };
            if better {
                if let Some((_, by)) = best {
                    if *by - y > params.min_improvement * *by {
                        improved = true;
                    }
                } else {
                    improved = true;
                }
                *best = Some((id, y));
            }
        }
        improved
    };

    // Degradation checks shared by every batch boundary. Returns the reason
    // when the search should stop early.
    let degraded = |start: &Instant, n_ok: usize, n_bad: usize| -> Option<String> {
        if let Some(deadline) = params.wall_deadline_s {
            if start.elapsed().as_secs_f64() >= deadline {
                return Some(format!(
                    "wall deadline {deadline}s expired after {} attempts",
                    n_ok + n_bad
                ));
            }
        }
        let attempted = n_ok + n_bad;
        if params.min_survivor_fraction > 0.0 && attempted > 0 {
            let frac = n_ok as f64 / attempted as f64;
            if frac < params.min_survivor_fraction {
                return Some(format!(
                    "survivor fraction {frac:.3} below threshold {} ({n_bad}/{attempted} quarantined)",
                    params.min_survivor_fraction
                ));
            }
        }
        None
    };

    // Initialization: random configurations (Algorithm 2, lines 1–4).
    let n_init = params
        .init_evals
        .max(batch_size)
        .min(params.max_evals)
        .min(remaining.len());
    let init: Vec<u128> = remaining.drain(..n_init).collect();
    run_batch(
        &init,
        &evals,
        &mut xs,
        &mut ys,
        &mut evaluated,
        &mut quarantined,
        &mut best,
    );
    batches += 1;

    // Per-round scratch, reused across the whole iterative phase. `rows`
    // holds each remaining id's pool row once the pool is transposed.
    let mut rows: Vec<u32> = Vec::new();
    let mut preds: Vec<f64> = Vec::new();
    let mut scored: Vec<(usize, f64)> = Vec::new();
    let mut ids: Vec<u128> = Vec::new();

    // Iterative phase (lines 5–12).
    while evaluated.len() + quarantined.len() < params.max_evals && !remaining.is_empty() {
        if let Some(reason) = degraded(&start, evaluated.len(), quarantined.len()) {
            status = SearchStatus::Degraded { reason };
            break;
        }
        let attempted = evaluated.len() + quarantined.len();
        let take = batch_size
            .min(params.max_evals - attempted)
            .min(remaining.len());

        ids.clear();
        if ys.is_empty() {
            // Nothing survived yet: the surrogate has no training data, so
            // keep drawing from the shuffled pool (pure random phase).
            ids.extend(remaining.drain(..take));
        } else {
            let model = ExtraTrees::fit(&xs, &ys, params.forest);
            // Predict all remaining configs, take the best-predicted batch:
            // the `take` smallest by (prediction, position in `remaining`),
            // a total order, removed from the back.
            evals.score(&model, &remaining, &mut rows, &mut preds);
            scored.clear();
            scored.extend(preds.iter().copied().enumerate());
            scored.select_nth_unstable_by(take - 1, |a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            let chosen = &mut scored[..take];
            chosen.sort_unstable_by_key(|&(k, _)| std::cmp::Reverse(k));
            for &(k, _) in chosen.iter() {
                ids.push(remaining.swap_remove(k));
                rows.swap_remove(k);
            }
        }

        let improved = run_batch(
            &ids,
            &evals,
            &mut xs,
            &mut ys,
            &mut evaluated,
            &mut quarantined,
            &mut best,
        );
        batches += 1;
        if improved {
            stale_batches = 0;
        } else {
            stale_batches += 1;
            if let Some(p) = params.patience {
                if stale_batches >= p {
                    break;
                }
            }
        }
    }

    // One final degradation check so a run that exhausted its budget while
    // below the survivor threshold is still reported as degraded.
    if status == SearchStatus::Complete {
        if let Some(reason) = degraded(&start, evaluated.len(), quarantined.len()) {
            status = SearchStatus::Degraded { reason };
        }
    }

    match best {
        Some((best_id, best_y)) => Ok(SurfResult {
            best_id,
            best_y,
            evaluated,
            quarantined,
            status,
            batches,
            threads: evals.threads(),
            wall_s: start.elapsed().as_secs_f64(),
            predict_ns: evals.predict_ns,
            duplicates_pruned,
        }),
        None => Err(SearchError::NoSurvivors {
            attempted: quarantined.len(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// One call counter per id in `0..n`.
    fn counters(n: usize) -> Vec<AtomicUsize> {
        (0..n).map(|_| AtomicUsize::new(0)).collect()
    }

    /// A structured landscape: low values clustered around a "good region"
    /// the model can learn.
    fn landscape(id: u128) -> f64 {
        let x = (id % 100) as f64;
        let y = (id / 100 % 100) as f64;
        ((x - 70.0).powi(2) + (y - 30.0).powi(2)) / 100.0 + 1.0
    }

    fn feats(id: u128) -> Vec<f64> {
        vec![(id % 100) as f64 / 100.0, (id / 100 % 100) as f64 / 100.0]
    }

    #[test]
    fn finds_near_optimum_with_few_evals() {
        let pool: Vec<u128> = (0..10_000).collect();
        let res = surf_search(&pool, feats, landscape, SurfParams::default()).unwrap();
        assert_eq!(res.n_evals(), 100);
        // Global optimum is 1.0 at (70,30); random-100 expectation is far
        // worse. SURF should land close.
        assert!(res.best_y < 3.0, "best = {}", res.best_y);
        assert_eq!(res.status, SearchStatus::Complete);
        assert!(res.quarantined.is_empty());
    }

    #[test]
    fn beats_random_search_on_structured_landscape() {
        let pool: Vec<u128> = (0..10_000).collect();
        let surf = surf_search(&pool, feats, landscape, SurfParams::default()).unwrap();
        let random = crate::baselines::random_search(&pool, landscape, 100, 0x5EED);
        assert!(
            surf.best_y <= random.best_y,
            "surf {} vs random {}",
            surf.best_y,
            random.best_y
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let pool: Vec<u128> = (0..5_000).collect();
        let a = surf_search(&pool, feats, landscape, SurfParams::default()).unwrap();
        let b = surf_search(&pool, feats, landscape, SurfParams::default()).unwrap();
        assert_eq!(a.best_id, b.best_id);
        assert_eq!(a.evaluated, b.evaluated);
    }

    #[test]
    fn never_reevaluates_a_configuration() {
        let pool: Vec<u128> = (0..500).collect();
        let count = counters(500);
        let eval = |id: u128| {
            count[id as usize].fetch_add(1, Ordering::Relaxed);
            landscape(id)
        };
        let res = surf_search(&pool, feats, eval, SurfParams::default()).unwrap();
        assert!(count.iter().all(|c| c.load(Ordering::Relaxed) <= 1));
        assert_eq!(res.n_evals(), 100);
    }

    #[test]
    fn exhausts_small_pools() {
        let pool: Vec<u128> = (0..37).collect();
        let res = surf_search(&pool, feats, landscape, SurfParams::default()).unwrap();
        assert_eq!(res.n_evals(), 37);
        // With the whole pool evaluated the optimum is exact.
        let expect = pool
            .iter()
            .map(|&id| landscape(id))
            .fold(f64::INFINITY, f64::min);
        assert_eq!(res.best_y, expect);
    }

    #[test]
    fn patience_stops_flat_landscapes_late_and_peaked_early() {
        let pool: Vec<u128> = (0..50_000).collect();
        let flat = |_: u128| 1.0;
        let params = SurfParams {
            max_evals: 1500,
            patience: Some(10),
            ..Default::default()
        };
        let res_flat = surf_search(&pool, feats, flat, params).unwrap();
        // Flat: the first evaluation is never improved upon; patience 10
        // means 10 more batches after the first.
        assert!(res_flat.n_evals() <= 110 + params.batch_size);
        let res_peaked = surf_search(&pool, feats, landscape, params).unwrap();
        assert!(res_peaked.n_evals() <= 1500);
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        struct Pure;
        impl ParallelEvaluator for Pure {
            fn features(&self, id: u128) -> Vec<f64> {
                feats(id)
            }
            fn evaluate(&self, id: u128) -> f64 {
                landscape(id)
            }
        }
        let pool: Vec<u128> = (0..5_000).collect();
        let serial = surf_search(&pool, feats, landscape, SurfParams::default()).unwrap();
        let parallel = surf_search_parallel(&pool, &Pure, SurfParams::default()).unwrap();
        assert_eq!(serial.best_id, parallel.best_id);
        assert_eq!(serial.best_y.to_bits(), parallel.best_y.to_bits());
        assert_eq!(serial.evaluated, parallel.evaluated);
        assert_eq!(serial.batches, parallel.batches);
        let eval_serial = surf_search_serial(&pool, &Pure, SurfParams::default()).unwrap();
        assert_eq!(eval_serial.evaluated, parallel.evaluated);
        assert_eq!(eval_serial.best_id, parallel.best_id);
    }

    #[test]
    fn parallel_never_reevaluates_a_configuration() {
        // Features: the init batch is featurized when it is measured, the
        // rest of the pool once on the first scoring pass, and each refit
        // batch again when it is measured: 10 + 490 + 90 calls, 90 ids
        // twice. A search that re-featurized the pool on every refit would
        // ask for 490 rows per round instead.
        struct Counting {
            features: Vec<AtomicUsize>,
            evals: Vec<AtomicUsize>,
        }
        impl ParallelEvaluator for Counting {
            fn features(&self, id: u128) -> Vec<f64> {
                self.features[id as usize].fetch_add(1, Ordering::Relaxed);
                feats(id)
            }
            fn evaluate(&self, id: u128) -> f64 {
                self.evals[id as usize].fetch_add(1, Ordering::Relaxed);
                landscape(id)
            }
        }
        let loads = |c: &[AtomicUsize]| -> Vec<usize> {
            c.iter().map(|c| c.load(Ordering::Relaxed)).collect()
        };
        let pool: Vec<u128> = (0..500).collect();
        for parallel in [false, true] {
            let evaluator = Counting {
                features: counters(500),
                evals: counters(500),
            };
            let res = if parallel {
                surf_search_parallel(&pool, &evaluator, SurfParams::default())
            } else {
                surf_search_serial(&pool, &evaluator, SurfParams::default())
            }
            .unwrap();
            assert_eq!((res.n_evals(), res.batches), (100, 10));
            let evals = loads(&evaluator.evals);
            assert_eq!(evals.iter().sum::<usize>(), 100, "parallel: {parallel}");
            assert!(evals.iter().all(|&c| c <= 1));
            let features = loads(&evaluator.features);
            assert_eq!(features.iter().sum::<usize>(), 590, "parallel: {parallel}");
            assert_eq!(features.iter().filter(|&&c| c == 2).count(), 90);
            assert!(features.iter().all(|&c| c == 1 || c == 2));
        }
    }

    #[test]
    fn an_evaluators_pool_stands_in_for_featurizing_the_pool() {
        // An evaluator that transposes the pool itself gets the row path's
        // result, and is asked for the features of measured ids only.
        struct Pooled {
            features: Vec<AtomicUsize>,
            evals: Vec<AtomicUsize>,
        }
        impl ParallelEvaluator for Pooled {
            fn features(&self, id: u128) -> Vec<f64> {
                self.features[id as usize].fetch_add(1, Ordering::Relaxed);
                feats(id)
            }
            fn evaluate(&self, id: u128) -> f64 {
                self.evals[id as usize].fetch_add(1, Ordering::Relaxed);
                landscape(id)
            }
            fn transposed_pool(&self, ids: &[u128]) -> Option<TransposedPool> {
                Some(TransposedPool::from_rows(
                    ids.len(),
                    ids.iter().map(|&id| feats(id)),
                ))
            }
        }
        let loads = |c: &[AtomicUsize]| -> Vec<usize> {
            c.iter().map(|c| c.load(Ordering::Relaxed)).collect()
        };
        let bits = |r: &SurfResult| -> Vec<(u128, u64)> {
            r.evaluated
                .iter()
                .map(|&(id, y)| (id, y.to_bits()))
                .collect()
        };
        let pool: Vec<u128> = (0..500).collect();
        let by_rows = surf_search(&pool, feats, landscape, SurfParams::default()).unwrap();
        for parallel in [false, true] {
            let evaluator = Pooled {
                features: counters(500),
                evals: counters(500),
            };
            let res = if parallel {
                surf_search_parallel(&pool, &evaluator, SurfParams::default())
            } else {
                surf_search_serial(&pool, &evaluator, SurfParams::default())
            }
            .unwrap();
            assert_eq!(bits(&res), bits(&by_rows), "parallel: {parallel}");
            assert_eq!(res.best_id, by_rows.best_id);
            assert_eq!(res.best_y.to_bits(), by_rows.best_y.to_bits());
            assert_eq!(res.batches, by_rows.batches);
            assert_eq!(res.status, by_rows.status);
            assert!(res.quarantined.is_empty() && by_rows.quarantined.is_empty());
            assert_eq!(loads(&evaluator.features), loads(&evaluator.evals));
            assert_eq!(loads(&evaluator.evals).iter().sum::<usize>(), 100);
        }
    }

    #[test]
    fn respects_max_evals_budget() {
        let pool: Vec<u128> = (0..10_000).collect();
        let params = SurfParams {
            max_evals: 23,
            batch_size: 10,
            ..Default::default()
        };
        let res = surf_search(&pool, feats, landscape, params).unwrap();
        assert_eq!(res.n_evals(), 23);
    }

    #[test]
    fn empty_pool_is_an_error_not_a_panic() {
        let res = surf_search(&[], feats, landscape, SurfParams::default());
        assert_eq!(res.unwrap_err(), SearchError::EmptyPool);
    }

    #[test]
    fn nan_evaluations_are_quarantined_not_fatal() {
        let pool: Vec<u128> = (0..400).collect();
        // Every 5th configuration yields NaN; the optimum (321 → 0.0 shifted
        // to 1.0) survives.
        let eval = |id: u128| {
            if id.is_multiple_of(5) {
                f64::NAN
            } else {
                landscape(id)
            }
        };
        let res = surf_search(&pool, feats, eval, SurfParams::default()).unwrap();
        assert!(res.best_y.is_finite());
        assert!(!res.quarantined.is_empty());
        assert!(res
            .quarantined
            .iter()
            .all(|(id, reason)| id % 5 == 0 && reason.contains("non-finite")));
        // Quarantined attempts count against the budget.
        assert_eq!(res.n_attempted(), 100);
        // No id appears in both lists.
        let ok: std::collections::HashSet<u128> = res.evaluated.iter().map(|&(id, _)| id).collect();
        assert!(res.quarantined.iter().all(|(id, _)| !ok.contains(id)));
    }

    #[test]
    fn all_faulty_pool_reports_no_survivors() {
        let pool: Vec<u128> = (0..50).collect();
        let res = surf_search(&pool, feats, |_| f64::INFINITY, SurfParams::default());
        assert_eq!(res.unwrap_err(), SearchError::NoSurvivors { attempted: 50 });
    }

    #[test]
    fn typed_faults_flow_through_try_evaluate() {
        struct Flaky;
        impl ParallelEvaluator for Flaky {
            fn features(&self, id: u128) -> Vec<f64> {
                feats(id)
            }
            fn evaluate(&self, id: u128) -> f64 {
                landscape(id)
            }
            fn try_evaluate(&self, id: u128) -> Result<f64, EvalFault> {
                if id.is_multiple_of(7) {
                    Err(EvalFault::new("injected", format!("boom on {id}")))
                } else {
                    Ok(landscape(id))
                }
            }
        }
        let pool: Vec<u128> = (0..600).collect();
        let par = surf_search_parallel(&pool, &Flaky, SurfParams::default()).unwrap();
        let ser = surf_search_serial(&pool, &Flaky, SurfParams::default()).unwrap();
        assert!(par.quarantined.iter().all(|(id, r)| {
            id % 7 == 0 && r.contains("injected") && r.contains(&format!("boom on {id}"))
        }));
        assert!(!par.quarantined.is_empty());
        assert_eq!(par.evaluated, ser.evaluated);
        assert_eq!(par.quarantined, ser.quarantined);
        assert_eq!(par.best_id, ser.best_id);
    }

    #[test]
    fn survivor_fraction_threshold_degrades() {
        let pool: Vec<u128> = (0..2_000).collect();
        // Two thirds of the pool is broken: survivor fraction ~1/3 < 0.5.
        let eval = |id: u128| {
            if !id.is_multiple_of(3) {
                f64::NAN
            } else {
                landscape(id)
            }
        };
        let params = SurfParams {
            min_survivor_fraction: 0.5,
            ..Default::default()
        };
        let res = surf_search(&pool, feats, eval, params).unwrap();
        assert!(res.status.is_degraded(), "status = {:?}", res.status);
        assert!(res.best_y.is_finite());
        // Degraded early: far fewer attempts than the full budget would
        // imply only when the threshold fired before exhaustion; at minimum
        // the status carries the reason.
        match &res.status {
            SearchStatus::Degraded { reason } => assert!(reason.contains("survivor fraction")),
            SearchStatus::Complete => unreachable!(),
        }
    }

    #[test]
    fn duplicate_pool_entries_are_pruned_and_counted() {
        // A pool listing every id twice (plus one triple) must behave
        // exactly like the unique pool: each configuration evaluated at
        // most once, and the prune count reported.
        let unique: Vec<u128> = (0..500).collect();
        let mut doubled: Vec<u128> = Vec::new();
        for &id in &unique {
            doubled.push(id);
            doubled.push(id);
        }
        doubled.push(3);
        let count = counters(unique.len());
        let eval = |id: u128| {
            count[id as usize].fetch_add(1, Ordering::Relaxed);
            landscape(id)
        };
        let res = surf_search(&doubled, feats, eval, SurfParams::default()).unwrap();
        assert_eq!(res.duplicates_pruned, unique.len() + 1);
        assert!(count.iter().all(|c| c.load(Ordering::Relaxed) <= 1));
        let ids: std::collections::HashSet<u128> =
            res.evaluated.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids.len(), res.n_evals());
    }

    #[test]
    fn deduplicated_pool_runs_bitwise_identical_to_unique_pool() {
        let unique: Vec<u128> = (0..500).collect();
        let mut doubled = unique.clone();
        doubled.extend(&unique);
        let base = surf_search(&unique, feats, landscape, SurfParams::default()).unwrap();
        let dup = surf_search(&doubled, feats, landscape, SurfParams::default()).unwrap();
        assert_eq!(base.best_id, dup.best_id);
        assert_eq!(base.best_y.to_bits(), dup.best_y.to_bits());
        assert_eq!(base.evaluated, dup.evaluated);
        assert_eq!(base.batches, dup.batches);
        assert_eq!(base.duplicates_pruned, 0);
        assert_eq!(dup.duplicates_pruned, unique.len());
    }

    #[test]
    fn zero_deadline_degrades_with_best_so_far() {
        let pool: Vec<u128> = (0..5_000).collect();
        let params = SurfParams {
            wall_deadline_s: Some(0.0),
            ..Default::default()
        };
        let res = surf_search(&pool, feats, landscape, params).unwrap();
        assert!(res.status.is_degraded());
        assert!(res.best_y.is_finite());
        // Only the init batch ran before the deadline check fired.
        assert_eq!(res.batches, 1);
    }
}
