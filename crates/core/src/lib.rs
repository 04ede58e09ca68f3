//! Barracuda — an autotuning pipeline for small tensor contractions on
//! (simulated) GPUs.
//!
//! This is the reproduction of *Nelson et al., "Generating Efficient Tensor
//! Contractions for GPUs", ICPP 2015*. The pipeline mirrors Figure 1 of the
//! paper:
//!
//! ```text
//!  DSL input ──OCTOPI──▶ versions ──TCR──▶ search space ──CUDA-CHiLL──▶ variants
//!                                                 │                        │
//!                                                 └────────── SURF ◀───────┘
//! ```
//!
//! - [`workload::Workload`] holds parsed summation statements plus extents;
//! - [`variant::StatementTuner`] enumerates OCTOPI factorizations of one
//!   statement, lowers each to a TCR program and builds its GPU search
//!   space;
//! - [`pipeline::WorkloadTuner`] is a workload's one compiled form: its
//!   fingerprint and every statement lowered, joined into one configuration
//!   space. It runs SURF against the GPU simulator, producing a
//!   [`pipeline::TunedWorkload`] with kernels, timings, CUDA source and
//!   search statistics;
//! - [`session::TuningSession`] keeps one record per workload fingerprint
//!   (its evaluation cache and its lowering, built once) and runs
//!   store-first tunes and replays over it; the [`serve`] daemon is one
//!   long-lived session;
//! - [`openacc`] builds the paper's OpenACC-naive / OpenACC-optimized
//!   comparison mappings, [`cpu`] the sequential / OpenMP baselines;
//! - [`kernels`] defines every benchmark of Table I (Eqn. (1), Lg3, Lg3t,
//!   TCE ex, the NWChem S1/D1/D2 kernel families) and [`nekbone`] the
//!   conjugate-gradient proxy application.
//!
//! # Quickstart
//!
//! ```
//! use barracuda::prelude::*;
//!
//! let workload = Workload::parse(
//!     "mm",
//!     "C[i k] = Sum([j], A[i j] * B[j k])",
//!     &tensor::index::uniform_dims(&["i", "j", "k"], 16),
//! )
//! .unwrap();
//! let tuner = WorkloadTuner::build(&workload);
//! let arch = gpusim::gtx980();
//! let tuned = tuner.autotune(&arch, TuneParams::quick()).unwrap();
//! assert!(tuned.gflops() > 0.0);
//! println!("{}", tuned.cuda_source());
//! ```
//!
//! Every fallible stage returns a typed [`error::BarracudaError`]; versions
//! and configurations that fail are quarantined (see [`quarantine`]) and the
//! search continues over survivors, degrading gracefully instead of
//! panicking.

pub mod backend;
pub mod cache;
pub mod cpu;
pub mod error;
pub mod fusionopt;
pub mod json;
pub mod kernels;
pub mod nekbone;
pub mod objective;
pub mod openacc;
pub mod pipeline;
pub mod plan;
pub mod quarantine;
pub mod report;
pub mod serve;
pub mod session;
pub mod stages;
pub mod store;
pub mod variant;
pub mod workload;

pub use backend::{Backend, BackendCaps, BackendSet};
pub use cache::EvalCache;
pub use error::{BarracudaError, Result};
pub use fusionopt::{fuse_alternatives, FusedAlternative};
pub use objective::{BudgetMode, Objective};
pub use pipeline::{SearchStats, TuneParams, TunedWorkload, TunerEvaluator, WorkloadTuner};
pub use plan::{PlanChoice, TunedPlan, PLAN_SCHEMA_VERSION};
pub use quarantine::{QuarantineEntry, QuarantineReport, QuarantineStage};
pub use serve::{
    AdmissionGate, ChaosPlan, Daemon, Listen, MetricsSnapshot, ServeMetrics, ServeOptions,
    ServedTune,
};
pub use session::{BackendTuning, PlanSource, SessionOutcome, SweepOutcome, TuningSession};
pub use store::{
    PlanStore, StoreEntry, StoreFault, StoreFaultPlan, StoreKey, StoreOptions, StoreScan,
};
pub use variant::{StatementTuner, Variant};
pub use workload::Workload;

/// Convenient glob-import for examples and applications.
pub mod prelude {
    pub use crate::error::BarracudaError;
    pub use crate::kernels;
    pub use crate::objective::{BudgetMode, Objective};
    pub use crate::openacc::{openacc_naive, openacc_optimized};
    pub use crate::pipeline::{TuneParams, TunedWorkload, WorkloadTuner};
    pub use crate::quarantine::{QuarantineReport, QuarantineStage};
    pub use crate::variant::{StatementTuner, Variant};
    pub use crate::workload::Workload;
}
