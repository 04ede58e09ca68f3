//! Deterministic fault injection for search robustness tests.
//!
//! [`FaultyEvaluator`] wraps any [`ParallelEvaluator`] and injects failures,
//! NaN times, and slow evaluations keyed purely by configuration id — the
//! same SplitMix64 scheme the pipeline's noise model uses — so an injected
//! fault plan is reproducible across runs, thread counts, and batch
//! schedules. The wrapper is pure per id: the same id always meets the same
//! fate, which keeps parallel searches bit-identical to serial ones even
//! under injection.

use crate::binarize::TransposedPool;
use crate::search::{EvalFault, ParallelEvaluator};

/// What the plan decided to do to one configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectedFault {
    /// `try_evaluate` returns an `EvalFault` (a hard failure).
    Failure,
    /// `try_evaluate` returns `Ok(NaN)` (a silent corruption the search
    /// must catch with its non-finite guard).
    NanTime,
    /// The evaluation sleeps before answering (exercises deadlines).
    Slow,
}

/// A deterministic fault plan: rates for each fault class plus a seed.
/// Decisions are a pure function of `(seed, id)`, so the same plan always
/// corrupts the same configurations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Fraction of configurations that hard-fail.
    pub failure_rate: f64,
    /// Fraction that silently return NaN.
    pub nan_rate: f64,
    /// Fraction that stall for `slow_ms` before answering.
    pub slow_rate: f64,
    /// Stall duration for slow configurations, in milliseconds.
    pub slow_ms: u64,
    /// Seed mixed into every per-id decision.
    pub seed: u64,
}

impl FaultPlan {
    /// A plan that injects nothing — `FaultyEvaluator` becomes a pure
    /// pass-through.
    pub fn none() -> Self {
        FaultPlan {
            failure_rate: 0.0,
            nan_rate: 0.0,
            slow_rate: 0.0,
            slow_ms: 0,
            seed: 0,
        }
    }

    /// Splits `rate` evenly between hard failures and NaN times.
    pub fn mixed(rate: f64, seed: u64) -> Self {
        FaultPlan {
            failure_rate: rate / 2.0,
            nan_rate: rate / 2.0,
            slow_rate: 0.0,
            slow_ms: 0,
            seed,
        }
    }

    pub fn is_none(&self) -> bool {
        self.failure_rate <= 0.0 && self.nan_rate <= 0.0 && self.slow_rate <= 0.0
    }

    /// The fate of configuration `id` under this plan: a pure, stateless
    /// decision, usable by tests to predict exactly which configurations a
    /// search must quarantine.
    pub fn decide(&self, id: u128) -> Option<InjectedFault> {
        if self.is_none() {
            return None;
        }
        let u = unit(self.seed, id);
        if u < self.failure_rate {
            Some(InjectedFault::Failure)
        } else if u < self.failure_rate + self.nan_rate {
            Some(InjectedFault::NanTime)
        } else if u < self.failure_rate + self.nan_rate + self.slow_rate {
            Some(InjectedFault::Slow)
        } else {
            None
        }
    }
}

/// Deterministic uniform draw in `[0, 1)` from `(seed, id)` — SplitMix64
/// finalization over the mixed key, mirroring the pipeline noise model.
/// Public so other fault planes (store I/O faults, serve-level chaos)
/// make their per-event decisions with the exact same scheme.
pub fn unit(seed: u64, id: u128) -> f64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(id as u64)
        .wrapping_add((id >> 64) as u64)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    // 53 high bits → [0, 1).
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Wraps an evaluator and applies a [`FaultPlan`] to every `try_evaluate`
/// call. Features and the transposed pool pass through untouched
/// (featurization is cheap and deterministic; the faults model the
/// expensive measurement step).
pub struct FaultyEvaluator<E> {
    inner: E,
    plan: FaultPlan,
}

impl<E: ParallelEvaluator> FaultyEvaluator<E> {
    pub fn new(inner: E, plan: FaultPlan) -> Self {
        FaultyEvaluator { inner, plan }
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    pub fn into_inner(self) -> E {
        self.inner
    }
}

impl<E: ParallelEvaluator> ParallelEvaluator for FaultyEvaluator<E> {
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
        match self.plan.decide(id) {
            Some(InjectedFault::Failure) => Err(EvalFault::new(
                "injected",
                format!("injected evaluation failure for config {id}"),
            )),
            Some(InjectedFault::NanTime) => Ok(f64::NAN),
            Some(InjectedFault::Slow) => {
                std::thread::sleep(std::time::Duration::from_millis(self.plan.slow_ms));
                self.inner.try_evaluate(id)
            }
            None => self.inner.try_evaluate(id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{surf_search_parallel, surf_search_serial, SurfParams};

    struct Quadratic;
    impl ParallelEvaluator for Quadratic {
        fn features(&self, id: u128) -> Vec<f64> {
            vec![(id % 100) as f64 / 100.0, (id / 100 % 100) as f64 / 100.0]
        }
        fn evaluate(&self, id: u128) -> f64 {
            let x = (id % 100) as f64;
            let y = (id / 100 % 100) as f64;
            ((x - 70.0).powi(2) + (y - 30.0).powi(2)) / 100.0 + 1.0
        }
    }

    #[test]
    fn decisions_are_deterministic_and_rate_accurate() {
        let plan = FaultPlan::mixed(0.2, 42);
        let n = 10_000u128;
        let faults = (0..n).filter(|&id| plan.decide(id).is_some()).count();
        let frac = faults as f64 / n as f64;
        assert!((frac - 0.2).abs() < 0.02, "observed fault rate {frac}");
        for id in 0..100 {
            assert_eq!(plan.decide(id), plan.decide(id));
        }
    }

    #[test]
    fn none_plan_is_transparent() {
        let wrapped = FaultyEvaluator::new(Quadratic, FaultPlan::none());
        for id in [0u128, 7, 7000, 12_345] {
            assert_eq!(
                wrapped.try_evaluate(id).unwrap().to_bits(),
                Quadratic.evaluate(id).to_bits()
            );
        }
    }

    #[test]
    fn injection_preserves_serial_parallel_bit_identity() {
        let pool: Vec<u128> = (0..4_000).collect();
        let wrapped = FaultyEvaluator::new(Quadratic, FaultPlan::mixed(0.3, 0xFA17));
        let par = surf_search_parallel(&pool, &wrapped, SurfParams::default()).unwrap();
        let ser = surf_search_serial(&pool, &wrapped, SurfParams::default()).unwrap();
        assert_eq!(par.evaluated, ser.evaluated);
        assert_eq!(par.quarantined, ser.quarantined);
        assert_eq!(par.best_id, ser.best_id);
        assert_eq!(par.best_y.to_bits(), ser.best_y.to_bits());
        assert!(!par.quarantined.is_empty());
    }

    #[test]
    fn quarantine_matches_plan_exactly() {
        let pool: Vec<u128> = (0..2_000).collect();
        let plan = FaultPlan::mixed(0.25, 7);
        let wrapped = FaultyEvaluator::new(Quadratic, plan);
        let res = surf_search_parallel(&pool, &wrapped, SurfParams::default()).unwrap();
        for (id, _) in &res.quarantined {
            assert!(
                plan.decide(*id).is_some(),
                "config {id} wrongly quarantined"
            );
        }
        for (id, _) in &res.evaluated {
            assert!(
                plan.decide(*id).is_none(),
                "config {id} should have faulted"
            );
        }
    }
}
