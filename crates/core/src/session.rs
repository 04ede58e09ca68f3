//! [`TuningSession`]: the cache-first compile service the CLI, the bench
//! binaries and the daemon tune through.
//!
//! A session owns the three pieces every tuning entry point used to wire
//! by hand: the [`BackendSet`] its keys resolve against, one record **per
//! workload fingerprint**, and an optional content-addressed
//! [`PlanStore`]. A workload's record holds its shared [`EvalCache`] —
//! cache keys are `(salt, configuration id)` and configuration ids are
//! workload-local, so backends tuning the same workload share timings and
//! features while distinct workloads can never alias each other's entries
//! — and, once [`TuningSession::tuner_for`] has asked for it, its lowering
//! (the [`WorkloadTuner`]), built at most once. With a store attached,
//! `tune` is store-first: a hit replays the persisted plan — zero search
//! evaluations, bit-identical timing, full quarantine report — and a miss
//! runs SURF then persists the result under its content address, so the
//! *next* session hits. This is the paper's compile-once/run-many loop
//! (§5) made a first-class object instead of a pattern each binary
//! reimplements. It is also the one sweep over a whole backend set
//! ([`TuningSession::tune_all`]).

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::backend::{Backend, BackendSet};
use crate::cache::EvalCache;
use crate::cpu::{try_cpu_programs, workload_cpu_time};
use crate::error::BarracudaError;
use crate::pipeline::{TuneParams, TunedWorkload, WorkloadTuner};
use crate::plan::{TunedPlan, PLAN_SCHEMA_VERSION};
use crate::stages::frontend::workload_fingerprint;
use crate::store::{PlanStore, StoreKey};
use crate::workload::Workload;
use cpusim::model::CpuModel;

/// Where a tuning result came from.
#[derive(Clone, Debug, PartialEq)]
pub enum PlanSource {
    /// Replayed from the plan store: zero search evaluations.
    StoreHit { path: PathBuf },
    /// SURF ran; `stored` is the store path the fresh plan was persisted
    /// to (`None` when the session has no store attached).
    Searched { stored: Option<PathBuf> },
}

impl PlanSource {
    /// One status line for CLI/bench output (`plan store: hit … / miss …`).
    pub fn describe(&self) -> String {
        match self {
            PlanSource::StoreHit { path } => format!(
                "plan store: hit (0 search evaluations, replayed {})",
                path.display()
            ),
            PlanSource::Searched { stored: Some(p) } => {
                format!("plan store: miss (searched, stored {})", p.display())
            }
            PlanSource::Searched { stored: None } => "plan store: detached (searched)".to_string(),
        }
    }
}

/// One `tune` through a session: the result, the plan it is persisted as,
/// and where it came from.
#[derive(Debug)]
pub struct SessionOutcome {
    pub tuned: TunedWorkload,
    pub plan: TunedPlan,
    pub source: PlanSource,
}

/// One backend's row of a whole-set sweep.
pub struct BackendTuning {
    pub key: String,
    pub name: String,
    /// End-to-end modeled seconds (device + transfers, or CPU wall time).
    pub total_seconds: f64,
    /// Sustained GFlop/s at the flop count the backend executes.
    pub gflops: f64,
    /// The full search result, for backends that ran one (GPU targets).
    pub tuned: Option<TunedWorkload>,
}

/// A whole-set sweep through a session: one row per backend, plus
/// per-searchable-backend plan sources for reporting.
pub struct SweepOutcome {
    pub rows: Vec<BackendTuning>,
    /// `(backend key, source)` for each searchable backend, in registry
    /// order.
    pub notes: Vec<(String, PlanSource)>,
}

/// One workload's state in a session: its evaluation cache, and its
/// lowering once [`TuningSession::tuner_for`] has built it.
#[derive(Default)]
struct WorkloadRecord {
    cache: Arc<EvalCache>,
    tuner: OnceLock<Arc<WorkloadTuner>>,
}

/// The cache-first tuning context.
pub struct TuningSession {
    /// One record per workload fingerprint. Cache entries are keyed by
    /// `(salt, configuration id)` and ids are workload-local, so a single
    /// cache must never span workloads.
    workloads: Mutex<HashMap<u64, Arc<WorkloadRecord>>>,
    store: Option<PlanStore>,
    /// The backends this session resolves keys against: the built-ins by
    /// default, or a set extended with runtime-loaded descriptors.
    backends: Arc<BackendSet>,
}

impl Default for TuningSession {
    fn default() -> Self {
        TuningSession::new()
    }
}

impl TuningSession {
    /// A session with fresh caches and no plan store: every tune
    /// searches, nothing persists. What the bench binaries use.
    pub fn new() -> TuningSession {
        TuningSession {
            workloads: Mutex::new(HashMap::new()),
            store: None,
            backends: Arc::new(BackendSet::builtin()),
        }
    }

    /// A session backed by the store at `root` (created if absent).
    pub fn with_store(root: impl Into<PathBuf>) -> Result<TuningSession, BarracudaError> {
        Ok(Self::with_plan_store(PlanStore::open(root)?))
    }

    /// A session over an explicitly configured [`PlanStore`] — how the
    /// daemon opts into durable (fsync'd) inserts, and how the chaos
    /// harness injects store I/O faults.
    pub fn with_plan_store(store: PlanStore) -> TuningSession {
        TuningSession {
            workloads: Mutex::new(HashMap::new()),
            store: Some(store),
            backends: Arc::new(BackendSet::builtin()),
        }
    }

    /// Replaces the session's backend set (builder-style). How the CLI and
    /// the daemon make `--arch-file`/`--arch-dir` descriptors resolvable.
    pub fn with_backends(mut self, backends: Arc<BackendSet>) -> TuningSession {
        self.backends = backends;
        self
    }

    /// The backend set every key in this session resolves against.
    pub fn backends(&self) -> &BackendSet {
        &self.backends
    }

    /// The record filed under `fingerprint`, created empty on first sight.
    fn record(&self, fingerprint: u64) -> Arc<WorkloadRecord> {
        let mut workloads = self
            .workloads
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        Arc::clone(workloads.entry(fingerprint).or_default())
    }

    /// The session's lowering of `workload`, built on first sight and
    /// shared by every later caller. Callers racing on one workload wait
    /// for the first one's lowering instead of lowering again; the session
    /// map is not locked while it runs, so distinct workloads lower in
    /// parallel.
    pub fn tuner_for(&self, workload: &Workload) -> Arc<WorkloadTuner> {
        let record = self.record(workload_fingerprint(workload));
        Arc::clone(
            record
                .tuner
                .get_or_init(|| Arc::new(WorkloadTuner::build(workload))),
        )
    }

    /// The session's shared evaluation cache for `workload`: every tune
    /// and replay of a workload with this fingerprint goes through the
    /// same cache, and no other workload touches it.
    pub fn cache_for(&self, workload: &Workload) -> Arc<EvalCache> {
        Arc::clone(&self.record(workload_fingerprint(workload)).cache)
    }

    /// The attached plan store, when one is.
    pub fn store(&self) -> Option<&PlanStore> {
        self.store.as_ref()
    }

    /// The current-schema store key for `(workload, backend)`. Typed
    /// [`BarracudaError::Plan`] when the backend key is not in the
    /// session's backend set.
    pub fn key_for(&self, workload: &Workload, backend: &str) -> Result<StoreKey, BarracudaError> {
        self.key(workload, workload_fingerprint(workload), backend)
    }

    /// [`TuningSession::key_for`] with the fingerprint already known.
    fn key(
        &self,
        workload: &Workload,
        fingerprint: u64,
        backend: &str,
    ) -> Result<StoreKey, BarracudaError> {
        let b = self.backend(workload, backend)?;
        Ok(StoreKey {
            fingerprint,
            cache_salt: b.cache_salt(),
            schema: PLAN_SCHEMA_VERSION,
            backend: backend.to_string(),
        })
    }

    /// The backend `key` names, or a typed [`BarracudaError::Plan`].
    fn backend(&self, workload: &Workload, key: &str) -> Result<&Arc<dyn Backend>, BarracudaError> {
        self.backends.get(key).ok_or_else(|| BarracudaError::Plan {
            workload: workload.name.clone(),
            detail: format!("unknown backend `{key}`"),
        })
    }

    /// Store-first tune of a lowered workload on a searchable backend: a
    /// store hit replays the persisted plan (zero search evaluations,
    /// bit-identical result); a miss runs SURF through the workload's
    /// session cache and persists the fresh plan under its content
    /// address.
    pub fn tune(
        &self,
        tuner: &WorkloadTuner,
        backend: &str,
        params: TuneParams,
    ) -> Result<SessionOutcome, BarracudaError> {
        let workload = &tuner.workload;
        if let Some(hit) = self.replay_hit(tuner, backend, &params.objective)? {
            return Ok(hit);
        }
        let b = self.backend(workload, backend)?;
        let arch = b.arch().ok_or_else(|| BarracudaError::Search {
            workload: workload.name.clone(),
            detail: format!("backend `{backend}` is not searchable — no architecture to tune on"),
        })?;
        let cache = &self.record(tuner.fingerprint()).cache;
        let tuned = tuner.autotune_with_cache(arch, params, cache)?;
        let plan = TunedPlan::from_tuned_for(tuner, b.as_ref(), &tuned);
        let stored = match &self.store {
            Some(store) => Some(store.insert(&plan)?),
            None => None,
        };
        Ok(SessionOutcome {
            tuned,
            plan,
            source: PlanSource::Searched { stored },
        })
    }

    /// Store probe only: replays the persisted plan for
    /// `(workload, backend)` if one exists, without ever searching.
    /// `Ok(None)` on a miss or when no store is attached. A stored plan
    /// tuned under a different `objective` than the caller wants is also
    /// a miss (never an error here): the caller searches under its own
    /// objective and the fresh plan overwrites the foreign one. This is
    /// the daemon's warm fast path — it costs one lookup and one replay,
    /// so it can run *before* admission control and keep warm traffic
    /// flowing while every cold-search permit is taken.
    pub fn replay_hit(
        &self,
        tuner: &WorkloadTuner,
        backend: &str,
        objective: &crate::objective::Objective,
    ) -> Result<Option<SessionOutcome>, BarracudaError> {
        let Some(store) = &self.store else {
            return Ok(None);
        };
        let key = self.key(&tuner.workload, tuner.fingerprint(), backend)?;
        let Some(plan) = store.lookup(&key)? else {
            return Ok(None);
        };
        if !plan.objective.same_as(objective) {
            return Ok(None);
        }
        let tuned = self.replay(&plan, tuner)?;
        Ok(Some(SessionOutcome {
            tuned,
            plan,
            source: PlanSource::StoreHit {
                path: store.path_of(&key),
            },
        }))
    }

    /// Replays `plan` against its lowered workload through the workload's
    /// session cache.
    fn replay(
        &self,
        plan: &TunedPlan,
        tuner: &WorkloadTuner,
    ) -> Result<TunedWorkload, BarracudaError> {
        let cache = &self.record(tuner.fingerprint()).cache;
        plan.replay_built_in(&self.backends, &tuner.workload, tuner, cache)
    }

    /// Store-first tune on an explicit GPU architecture, the calling
    /// convention of the bench experiments. Registry architectures
    /// (`arch.key` names a backend) flow through [`TuningSession::tune`]
    /// and so share the session cache and hit the store; custom
    /// architectures fall back to a cached search, since they have no
    /// stable content address to file plans under.
    pub fn tune_on_arch(
        &self,
        tuner: &WorkloadTuner,
        arch: &gpusim::GpuArch,
        params: TuneParams,
    ) -> Result<TunedWorkload, BarracudaError> {
        if self.backends.get(&arch.key).is_some() {
            return Ok(self.tune(tuner, &arch.key, params)?.tuned);
        }
        tuner.autotune_with_cache(arch, params, &self.record(tuner.fingerprint()).cache)
    }

    /// Whole-set sweep, store-first per searchable backend: against a warm
    /// store the entire sweep is search-free. Searchable (GPU) backends
    /// each tune through [`TuningSession::tune`]; the derived
    /// backends (CPU baselines, OpenACC analogs) ride along and time the
    /// reference (K20) pick of this same sweep — id 0 until it is tuned —
    /// so they cost no extra search.
    pub fn tune_all(
        &self,
        tuner: &WorkloadTuner,
        params: TuneParams,
    ) -> Result<SweepOutcome, BarracudaError> {
        let mut rows = Vec::new();
        let mut notes = Vec::new();
        let mut reference = 0u128;
        // Derived-backend flop counts depend only on the workload: lower
        // once per sweep, lazily, instead of once per backend.
        let mut acc_flops: Option<u64> = None;
        let mut cpu_flops: Option<u64> = None;
        for backend in self.backends.iter() {
            let key = backend.key().to_string();
            if backend.caps().searchable {
                let out = self.tune(tuner, &key, params)?;
                if key == "k20" {
                    reference = out.tuned.id;
                }
                notes.push((key.clone(), out.source));
                rows.push(BackendTuning {
                    key,
                    name: backend.name(),
                    total_seconds: out.tuned.total_seconds(),
                    gflops: out.tuned.gflops(),
                    tuned: Some(out.tuned),
                });
                continue;
            }
            let total_seconds = backend.time_config(tuner, reference)?;
            let flops = if backend.caps().accelerator {
                // OpenACC analogs execute the best-flop lowering.
                match acc_flops {
                    Some(f) => f,
                    None => *acc_flops.insert(
                        try_cpu_programs(&tuner.workload)?
                            .iter()
                            .map(|p| p.flops())
                            .sum(),
                    ),
                }
            } else {
                *cpu_flops.get_or_insert_with(|| {
                    workload_cpu_time(&tuner.workload, &CpuModel::haswell(), 1).flops
                })
            };
            rows.push(BackendTuning {
                key,
                name: backend.name(),
                total_seconds,
                gflops: flops as f64 / total_seconds / 1e9,
                tuned: None,
            });
        }
        Ok(SweepOutcome { rows, notes })
    }

    /// Replays the stored plan for `(workload, backend)` without ever
    /// searching: a missing entry is a typed [`BarracudaError::Plan`],
    /// and so is a stored plan tuned under a different objective than
    /// `expected` — an explicit replay must never silently serve a pick
    /// optimized for something else.
    /// Returns the result, the plan, and the store path it came from.
    pub fn replay_from_store(
        &self,
        tuner: &WorkloadTuner,
        backend: &str,
        expected: &crate::objective::Objective,
    ) -> Result<(TunedWorkload, TunedPlan, PathBuf), BarracudaError> {
        let store = self.store.as_ref().ok_or_else(|| BarracudaError::Store {
            detail: "no plan store attached (pass --store DIR)".to_string(),
        })?;
        let key = self.key(&tuner.workload, tuner.fingerprint(), backend)?;
        let plan = store.lookup(&key)?.ok_or_else(|| BarracudaError::Plan {
            workload: tuner.workload.name.clone(),
            detail: format!(
                "no stored plan for {key} in {} — tune with --store first",
                store.root().display()
            ),
        })?;
        plan.validate_objective(expected)?;
        let tuned = self.replay(&plan, tuner)?;
        Ok((tuned, plan, store.path_of(&key)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::index::uniform_dims;

    fn matmul(n: usize) -> Workload {
        Workload::parse(
            "mm",
            "C[i k] = Sum([j], A[i j] * B[j k])",
            &uniform_dims(&["i", "j", "k"], n),
        )
        .unwrap()
    }

    fn temp_root(tag: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!(
            "barracuda_session_unit_{tag}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    #[test]
    fn second_tune_is_a_store_hit_with_identical_bits() {
        let root = temp_root("hit");
        let w = matmul(16);
        let params = TuneParams::quick();

        let s1 = TuningSession::with_store(&root).unwrap();
        let first = s1.tune(&s1.tuner_for(&w), "k20", params).unwrap();
        assert!(matches!(
            first.source,
            PlanSource::Searched { stored: Some(_) }
        ));
        assert!(first.tuned.search.n_evals > 0);

        // A brand-new session (cold cache) must still hit the store and
        // reproduce the result bit-for-bit without searching.
        let s2 = TuningSession::with_store(&root).unwrap();
        let second = s2.tune(&s2.tuner_for(&w), "k20", params).unwrap();
        assert!(matches!(second.source, PlanSource::StoreHit { .. }));
        assert_eq!(second.tuned.id, first.tuned.id);
        assert_eq!(
            second.tuned.gpu_seconds.to_bits(),
            first.tuned.gpu_seconds.to_bits()
        );
        // Replay reconstructs the original provenance, so callers render
        // the same "(N evals, space S)" line.
        assert_eq!(second.tuned.search.n_evals, first.tuned.search.n_evals);
        assert_eq!(
            second.tuned.search.space_size,
            first.tuned.search.space_size
        );
        // The cache saw no search-driven misses beyond the replay's own
        // re-timing.
        assert_eq!(second.plan, first.plan);
    }

    #[test]
    fn sweep_against_warm_store_is_fully_search_free() {
        let root = temp_root("sweep");
        let w = matmul(16);
        let tuner = WorkloadTuner::build(&w);
        let params = TuneParams::quick();

        let s1 = TuningSession::with_store(&root).unwrap();
        let cold = s1.tune_all(&tuner, params).unwrap();
        assert!(cold
            .notes
            .iter()
            .all(|(_, src)| matches!(src, PlanSource::Searched { stored: Some(_) })));

        let s2 = TuningSession::with_store(&root).unwrap();
        let warm = s2.tune_all(&tuner, params).unwrap();
        assert_eq!(warm.notes.len(), 3, "three searchable backends");
        assert!(
            warm.notes
                .iter()
                .all(|(_, src)| matches!(src, PlanSource::StoreHit { .. })),
            "warm sweep must be search-free"
        );
        // Row-for-row bit-identical totals.
        for (a, b) in cold.rows.iter().zip(&warm.rows) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.total_seconds.to_bits(), b.total_seconds.to_bits());
        }
    }

    #[test]
    fn sweep_covers_every_backend_and_shares_the_cache() {
        let w = matmul(16);
        let tuner = WorkloadTuner::build(&w);
        let s = TuningSession::new();
        let rows = s.tune_all(&tuner, TuneParams::quick()).unwrap().rows;
        assert_eq!(rows.len(), 7);
        for row in &rows {
            assert!(
                row.total_seconds.is_finite() && row.total_seconds > 0.0,
                "{}",
                row.key
            );
        }
        // The paper's ordering holds on matmul: tuned K20 beats naive ACC.
        let t = |k: &str| {
            rows.iter()
                .find(|r| r.key == k)
                .map(|r| r.total_seconds)
                .unwrap()
        };
        assert!(t("k20") <= t("acc-naive"));
        assert!(t("acc-opt") <= t("acc-naive"));
        // Re-sweeping through the same session's cache re-simulates
        // nothing.
        let again = s.tune_all(&tuner, TuneParams::quick()).unwrap().rows;
        for (a, b) in rows.iter().zip(&again) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.total_seconds.to_bits(), b.total_seconds.to_bits());
        }
        let searched = || again.iter().filter_map(|r| r.tuned.as_ref());
        let second_hits: usize = searched().map(|t| t.search.time_hits).sum();
        let second_misses: usize = searched().map(|t| t.search.time_misses).sum();
        assert_eq!(second_misses, 0, "second sweep must be pure cache hits");
        assert!(second_hits > 0);
    }

    #[test]
    fn sessions_without_a_store_always_search() {
        let w = matmul(16);
        let s = TuningSession::new();
        let out = s
            .tune(&s.tuner_for(&w), "k20", TuneParams::quick())
            .unwrap();
        assert_eq!(out.source, PlanSource::Searched { stored: None });
    }

    #[test]
    fn replay_from_store_misses_with_typed_plan_error() {
        let root = temp_root("replay_miss");
        let w = matmul(16);
        let s = TuningSession::with_store(&root).unwrap();
        let tuner = s.tuner_for(&w);
        let time_only = crate::objective::Objective::time_only();
        let err = s.replay_from_store(&tuner, "k20", &time_only).unwrap_err();
        assert_eq!(err.stage(), "plan");
        assert!(err.to_string().contains("no stored plan"));

        s.tune(&tuner, "k20", TuneParams::quick()).unwrap();
        let (tuned, plan, path) = s.replay_from_store(&tuner, "k20", &time_only).unwrap();
        assert!(path.exists());
        assert_eq!(tuned.gpu_seconds.to_bits(), plan.gpu_seconds.to_bits());

        // Explicitly replaying under a different objective is refused:
        // the stored pick answers a question nobody asked.
        let err = s
            .replay_from_store(&tuner, "k20", &crate::objective::Objective::balanced())
            .unwrap_err();
        assert_eq!(err.stage(), "plan");
        assert_eq!(err.exit_code(), 10);
        assert!(err.to_string().contains("objective"), "{err}");
    }

    #[test]
    fn foreign_objective_store_entry_is_a_miss_not_an_error() {
        let root = temp_root("foreign_objective");
        let w = matmul(16);
        let s = TuningSession::with_store(&root).unwrap();
        let tuner = s.tuner_for(&w);
        let time_tuned = s.tune(&tuner, "k20", TuneParams::quick()).unwrap();
        assert!(matches!(
            time_tuned.source,
            PlanSource::Searched { stored: Some(_) }
        ));

        // Same workload, different objective: the stored time-only plan
        // must not be served; the session searches under the new
        // objective and overwrites the entry.
        let mut params = TuneParams::quick();
        params.objective = crate::objective::Objective::balanced();
        let balanced = s.tune(&tuner, "k20", params).unwrap();
        assert!(
            matches!(balanced.source, PlanSource::Searched { stored: Some(_) }),
            "a foreign-objective store entry must be a miss"
        );
        assert!(balanced
            .plan
            .objective
            .same_as(&crate::objective::Objective::balanced()));

        // And now the balanced plan is the stored one: a balanced tune
        // hits, a time-only tune misses again.
        let warm = s.tune(&tuner, "k20", params).unwrap();
        assert!(matches!(warm.source, PlanSource::StoreHit { .. }));
        let cold = s.tune(&tuner, "k20", TuneParams::quick()).unwrap();
        assert!(matches!(cold.source, PlanSource::Searched { .. }));
    }

    #[test]
    fn distinct_workloads_never_share_cache_entries() {
        // Configuration ids are workload-local, so two workloads tuned
        // through one session must land in separate caches — a shared
        // cache would alias their ids and serve one workload the other's
        // memoized features/timings. Each result must match a
        // fresh-cache tune bit-for-bit.
        let a = matmul(16);
        let b = crate::kernels::lg3(4, 6);
        let params = TuneParams::quick();
        let arch = gpusim::k20();
        let s = TuningSession::new();
        let sa = s
            .tune_on_arch(&WorkloadTuner::build(&a), &arch, params)
            .unwrap();
        let sb = s
            .tune_on_arch(&WorkloadTuner::build(&b), &arch, params)
            .unwrap();
        let fa = WorkloadTuner::build(&a).autotune(&arch, params).unwrap();
        let fb = WorkloadTuner::build(&b).autotune(&arch, params).unwrap();
        assert_eq!(sa.id, fa.id);
        assert_eq!(sa.gpu_seconds.to_bits(), fa.gpu_seconds.to_bits());
        assert_eq!(sb.id, fb.id);
        assert_eq!(sb.gpu_seconds.to_bits(), fb.gpu_seconds.to_bits());
    }

    #[test]
    fn non_searchable_backend_is_a_typed_search_error() {
        let w = matmul(16);
        let s = TuningSession::new();
        let err = s
            .tune(&s.tuner_for(&w), "cpu1", TuneParams::quick())
            .unwrap_err();
        assert_eq!(err.stage(), "search");
        assert!(err.to_string().contains("not searchable"));
    }

    #[test]
    fn racing_callers_share_one_lowering() {
        let w = matmul(16);
        let s = TuningSession::new();
        let barrier = std::sync::Barrier::new(4);
        let tuners: Vec<Arc<WorkloadTuner>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        s.tuner_for(&w)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for t in &tuners {
            assert!(Arc::ptr_eq(t, &tuners[0]), "one lowering per workload");
        }
        assert!(Arc::ptr_eq(&s.tuner_for(&w), &tuners[0]));
        let other = s.tuner_for(&matmul(8));
        assert!(!Arc::ptr_eq(&other, &tuners[0]));
        assert_ne!(other.fingerprint(), tuners[0].fingerprint());
    }

    #[test]
    fn tuning_the_session_lowering_fills_the_workload_cache() {
        let w = matmul(16);
        let s = TuningSession::new();
        assert_eq!(s.cache_for(&w).time_stats().1, 0);
        s.tune(&s.tuner_for(&w), "k20", TuneParams::quick())
            .unwrap();
        assert!(s.cache_for(&w).time_stats().1 > 0);
    }
}
