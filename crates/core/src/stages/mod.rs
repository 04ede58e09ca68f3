//! The staged compiler driver: the pipeline of the paper (OCTOPI → TCR →
//! mapping → SURF) as five stage modules over one compiled workload.
//!
//! ```text
//!  frontend ──▶ fingerprint         identity of a parsed workload
//!  lower    ──▶ [StatementTuner]    OCTOPI versions × TCR spaces, joined
//!  space    ──▶ pool                candidate ids over the joint space
//!  evaluate ──▶ seconds             map + simulate one configuration
//!  search   ──▶ TunedWorkload       SURF + final noiseless pick
//! ```
//!
//! The compiled workload is [`crate::pipeline::WorkloadTuner`]: its
//! `build` runs the frontend and lower stages once and keeps the result,
//! and a [`crate::session::TuningSession`] keeps one per fingerprint. The
//! stages themselves are free functions over its parts (the workload and a
//! `&[StatementTuner]` slice), so tests and the benchmark can drive a
//! pool, an evaluation or a search by hand. A [`TunedWorkload`] can then
//! be projected into a serializable [`crate::plan::TunedPlan`] for the
//! compile-once / serve-many workflow. The stages form a DAG with no
//! back-edges: `frontend ← lower ← {space, evaluate} ← search`.
//!
//! [`StatementTuner`]: crate::variant::StatementTuner

pub mod evaluate;
pub mod frontend;
pub mod lower;
pub mod search;
pub mod space;

pub use evaluate::TunerEvaluator;
pub use search::{SearchStats, TuneParams, TunedWorkload};
