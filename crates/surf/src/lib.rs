//! SURF — Search Using Random Forest (paper §V).
//!
//! A model-based autotuning search: sample a small batch of configurations,
//! measure them, fit an extremely-randomized-trees surrogate over the
//! binarized parameter space, then iteratively evaluate the configurations
//! the surrogate predicts to be fastest, retraining after every batch
//! (Algorithm 2 of the paper).
//!
//! The crate is deliberately independent of the tensor pipeline: a
//! configuration is an opaque `u128` id, the caller supplies a feature
//! encoding ([`binarize::FeatureSpace`]) and an evaluation function. The
//! same machinery therefore serves the paper's GPU search, the ablation
//! benchmarks, and the unit tests' synthetic landscapes.

pub mod baselines;
pub mod binarize;
pub mod fault;
pub mod forest;
pub mod search;

pub use baselines::{
    contraction_order_annealing, exhaustive_search, hill_climb, random_search, simulated_annealing,
};
pub use binarize::{Feature, FeatureSpace, TransposedPool};
pub use fault::{unit as fault_unit, FaultPlan, FaultyEvaluator, InjectedFault};
pub use forest::{ExtraTrees, ForestParams};
pub use search::{
    surf_search, surf_search_parallel, surf_search_serial, EvalFault, ParallelEvaluator,
    SearchError, SearchStatus, SurfParams, SurfResult,
};
