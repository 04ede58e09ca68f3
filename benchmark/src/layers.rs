//! Outside-in reconstructions of the two product paths, one public call per
//! layer, each wrapped in a span.
//!
//! [`traced_tune`] rebuilds `WorkloadTuner::autotune_with_cache` from the
//! stage functions it calls (pool, SURF over a timing wrapper around
//! `TunerEvaluator`, noiseless pick); [`traced_request`] rebuilds the warm
//! path of `Daemon::handle_line` from the protocol, frontend, store and plan
//! pieces. Both return what the product returned so the caller can assert
//! the reconstruction is faithful.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use barracuda::serve::protocol;
use barracuda::serve::Request;
use barracuda::stages::frontend::workload_fingerprint;
use barracuda::stages::{evaluate, lower, space};
use barracuda::{
    kernels, Daemon, EvalCache, PlanStore, TuneParams, TunedPlan, TunedWorkload, TunerEvaluator,
    WorkloadTuner,
};
use gpusim::GpuArch;
use surf::{surf_search_parallel, surf_search_serial, EvalFault, ParallelEvaluator};

use crate::trace::Trace;

/// Sums the time and calls SURF spends in each evaluator callback.
struct TimedEvaluator<'a, E> {
    inner: &'a E,
    features_ns: AtomicU64,
    features_calls: AtomicU64,
    eval_ns: AtomicU64,
    eval_calls: AtomicU64,
}

impl<'a, E: ParallelEvaluator> TimedEvaluator<'a, E> {
    fn new(inner: &'a E) -> Self {
        TimedEvaluator {
            inner,
            features_ns: AtomicU64::new(0),
            features_calls: AtomicU64::new(0),
            eval_ns: AtomicU64::new(0),
            eval_calls: AtomicU64::new(0),
        }
    }

    fn timed<R>(&self, ns: &AtomicU64, calls: &AtomicU64, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        // Statistics only: Relaxed publishes nothing else.
        ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        calls.fetch_add(1, Ordering::Relaxed);
        out
    }
}

impl<E: ParallelEvaluator> ParallelEvaluator for TimedEvaluator<'_, E> {
    fn features(&self, id: u128) -> Vec<f64> {
        self.timed(&self.features_ns, &self.features_calls, || {
            self.inner.features(id)
        })
    }

    fn evaluate(&self, id: u128) -> f64 {
        self.timed(&self.eval_ns, &self.eval_calls, || self.inner.evaluate(id))
    }

    fn try_evaluate(&self, id: u128) -> Result<f64, EvalFault> {
        self.timed(&self.eval_ns, &self.eval_calls, || {
            self.inner.try_evaluate(id)
        })
    }
}

/// The pick a tune settled on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pick {
    pub id: u128,
    pub gpu_seconds: f64,
}

impl Pick {
    pub fn of(tuned: &TunedWorkload) -> Pick {
        Pick {
            id: tuned.id,
            gpu_seconds: tuned.gpu_seconds,
        }
    }

    /// Bit-for-bit equality, the only equality a deterministic pipeline owes.
    pub fn same_bits(&self, other: &Pick) -> bool {
        self.id == other.id && self.gpu_seconds.to_bits() == other.gpu_seconds.to_bits()
    }
}

/// `autotune_with_cache` on a fresh cache, one span per stage: `space.pool`,
/// `surf.search` (with evaluator callback and predict time as inner time,
/// the rest being forest fit and the driver), and `search.pick`. Only the
/// default objective without budgets, deadlines or faults is rebuilt, since
/// only then are the product's evaluator adapters pass-throughs.
pub fn traced_tune(
    trace: &mut Trace,
    tuner: &WorkloadTuner,
    arch: &GpuArch,
    params: &TuneParams,
) -> Result<Pick, String> {
    if !params.objective.is_time_only()
        || params.max_evaluations.is_some()
        || params.wall_deadline_s.is_some()
        || params.min_survivor_fraction > 0.0
        || params.fault_injection.is_some()
    {
        return Err("traced_tune rebuilds only the default search configuration".into());
    }
    let statements = &tuner.statements;
    trace.span("tune", |tr| {
        let pool = tr.span("space.pool", |tr| {
            let pool = space::joint_pool(statements, params.pool_cap, params.seed);
            tr.count("rows", pool.len() as f64);
            pool
        });
        let cache = EvalCache::new();
        let evaluator = TunerEvaluator::new(tuner, arch, &cache, params);
        let result = tr.span("surf.search", |tr| {
            let timed = TimedEvaluator::new(&evaluator);
            let result = if params.threads == 1 {
                surf_search_serial(&pool, &timed, params.surf)
            } else {
                surf_search_parallel(&pool, &timed, params.surf)
            };
            let hot = cache.hot().snapshot();
            tr.inner(
                "evaluate.features",
                timed.features_ns.load(Ordering::Relaxed),
            );
            tr.inner("evaluate.eval", timed.eval_ns.load(Ordering::Relaxed));
            tr.count(
                "features_calls",
                timed.features_calls.load(Ordering::Relaxed) as f64,
            );
            tr.count(
                "eval_calls",
                timed.eval_calls.load(Ordering::Relaxed) as f64,
            );
            tr.count("decode_ns", hot.decode_ns as f64);
            tr.count("map_ns", hot.map_ns as f64);
            tr.count("sim_ns", hot.sim_ns as f64);
            if let Ok(r) = &result {
                tr.inner("surf.predict", r.predict_ns);
                tr.count("rounds", r.batches as f64);
                tr.count("evals", r.n_evals() as f64);
            }
            result
        });
        let result = result.map_err(|e| format!("{}: {e}", tuner.workload.name))?;
        let pick = tr.span("search.pick", |tr| {
            // The product's pick: first strictly better finite noiseless
            // time among the survivors, in evaluation order.
            let mut best: Option<(u128, f64)> = None;
            for &(cand, _) in &result.evaluated {
                let t = evaluator.time(cand);
                if t.is_finite() && best.is_none_or(|(_, b)| t < b) {
                    best = Some((cand, t));
                }
            }
            let id = best.map_or(result.best_id, |(id, _)| id);
            lower::map_joint(&tuner.workload, statements, id).map_err(|e| e.to_string())?;
            let gpu_seconds = evaluate::joint_gpu_seconds(&tuner.workload, statements, id, arch)
                .map_err(|e| e.to_string())?;
            let (op_hits, op_misses) = cache.op_stats();
            let (time_hits, time_misses) = cache.time_stats();
            tr.count("op_hits", op_hits as f64);
            tr.count("op_misses", op_misses as f64);
            tr.count("time_hits", time_hits as f64);
            tr.count("time_misses", time_misses as f64);
            Ok::<_, String>(Pick { id, gpu_seconds })
        })?;
        Ok(pick)
    })
}

/// What a tuning session does after a search: encode the plan
/// (`plan.encode`) and file it in the store (`store.insert`).
pub fn traced_persist(
    trace: &mut Trace,
    tuner: &WorkloadTuner,
    backend: &dyn barracuda::Backend,
    tuned: &TunedWorkload,
    store: &PlanStore,
) -> Result<(), String> {
    let plan = trace.span("plan.encode", |_| {
        let plan = TunedPlan::from_tuned_for(tuner, backend, tuned);
        std::hint::black_box(plan.to_json_text());
        plan
    });
    trace
        .span("store.insert", |_| store.insert(&plan))
        .map(|_| ())
        .map_err(|e| e.to_string())
}

/// Lowered tuners by workload fingerprint. The daemon keeps its own map
/// private, so the reconstruction holds one built the same way.
pub type Tuners<'a> = HashMap<u64, &'a WorkloadTuner>;

/// One warm tune request replayed through the public pieces `handle_line`
/// calls: `serve.parse`, `serve.resolve` (builtin workload by name, then its
/// lowering by fingerprint), `store.lookup` (key + read), `plan.replay` and
/// `serve.encode`. The daemon must already hold a plan for the request; the
/// response is returned so the caller can compare it byte-for-byte with
/// `handle_line`'s. `handle_ns`, the time `handle_line` took for the same
/// request, is recorded on the span so the remainder can be reported.
pub fn traced_request(
    trace: &mut Trace,
    daemon: &Daemon,
    tuners: &Tuners,
    line: &str,
    handle_ns: u64,
) -> Result<String, String> {
    // The wire struct the encode span serializes comes from the daemon
    // itself, outside the span, so no response format is duplicated here.
    let Ok(Request::Tune(req)) = Request::parse(line) else {
        return Err(format!("not a tune request: {line}"));
    };
    let served = daemon.serve_tune(&req).map_err(|e| e.to_string())?;
    trace.span("request", |tr| {
        tr.count("handle_ns", handle_ns as f64);
        let Ok(Request::Tune(req)) = tr.span("serve.parse", |_| Request::parse(line)) else {
            return Err(format!("not a tune request: {line}"));
        };
        let session = daemon.session();
        let (workload, tuner) = tr
            .span("serve.resolve", |_| {
                let w = kernels::builtin(req.workload.trim_start_matches("builtin:"))?;
                let tuner = *tuners.get(&workload_fingerprint(&w))?;
                Some((w, tuner))
            })
            .ok_or_else(|| format!("no lowering for {}", req.workload))?;
        let backend = req
            .backend
            .as_deref()
            .ok_or_else(|| format!("request names no backend: {line}"))?;
        let plan = tr
            .span("store.lookup", |_| {
                let key = session.key_for(&workload, backend)?;
                let store = session.store().expect("a serving daemon has a store");
                store.lookup(&key)
            })
            .map_err(|e| e.to_string())?
            .ok_or_else(|| format!("no stored plan for {line}"))?;
        // The replayed result and the plan are dropped inside the span, as
        // they are inside `handle_line`.
        tr.span("plan.replay", |_| {
            let replayed = plan.replay_built_in(
                session.backends(),
                &workload,
                tuner,
                &session.cache_for(&workload),
            );
            drop(plan);
            replayed.map(drop)
        })
        .map_err(|e| e.to_string())?;
        Ok(tr.span("serve.encode", |_| {
            protocol::tune_response(req.id.as_deref(), &served).to_string_compact()
        }))
    })
}

/// A tune request line for a builtin workload on a backend.
pub fn tune_line(workload: &str, backend: &str) -> String {
    format!(r#"{{"op":"tune","workload":"builtin:{workload}","backend":"{backend}"}}"#)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_tune_reproduces_the_product_pick() {
        let arch = gpusim::k20();
        for w in [
            kernels::eqn1(kernels::EQN1_N),
            kernels::tce_ex(kernels::TCE_N),
        ] {
            let tuner = WorkloadTuner::build(&w);
            for rep in 0..2 {
                let params = crate::search::tune_params(9, rep, true);
                let product = tuner
                    .autotune_with_cache(&arch, params, &EvalCache::new())
                    .unwrap();
                let mut trace = Trace::new(true);
                let traced = traced_tune(&mut trace, &tuner, &arch, &params).unwrap();
                assert!(
                    traced.same_bits(&Pick::of(&product)),
                    "{} rep {rep}",
                    w.name
                );
                let (tune, _) = trace.named("tune").next().unwrap();
                let stages: Vec<&str> = trace
                    .spans()
                    .iter()
                    .filter(|s| s.parent == Some(tune))
                    .map(|s| s.name)
                    .collect();
                assert_eq!(stages, ["space.pool", "surf.search", "search.pick"]);
            }
        }
    }
}
