//! Serializable tuning plans: persist a search result, replay it later.
//!
//! Autotuning is the expensive step — the paper models multi-hour searches
//! (Table II) for a configuration that is then reused for every production
//! run. A [`TunedPlan`] captures everything needed to skip the search next
//! time: the workload (canonical DSL source + extents + a fingerprint),
//! the backend it was tuned for (registry key plus its cache salt), the
//! winning joint configuration id with its per-statement `(version, local)`
//! decomposition, the modeled times, the full quarantine report, and
//! provenance describing how the search ran (evaluations, batches, memo
//! counters, hot-path stage times, degradation status).
//!
//! Plans are versioned hand-rolled JSON (see [`crate::json`] — no serde in
//! this repo): `f64` values round-trip bit-exactly via Rust's shortest
//! `Display`, and `u128`/`u64` quantities that exceed double precision
//! travel as strings. Schema v3 (current) embeds the search objective
//! (weights, memory budget, budget mode) plus the pick's modeled memory
//! statistics; v2 added the quarantine entries, per-op memo statistics and
//! the backend cache salt. Older plans still parse read-only (missing
//! fields default to empty/zero, the objective to time-only) so old
//! artifacts replay or are reported as stale by `barracuda plans gc`
//! rather than erroring. [`TunedPlan::replay`] rejects a plan whose schema
//! version, workload fingerprint or backend cache salt no longer matches
//! with a typed [`BarracudaError::Plan`] (CLI exit code 10), then re-maps
//! and re-times the configuration — bit-identical to the saved numbers,
//! since the simulator is deterministic — without searching anything.
//! Replaying under a different objective than the plan was tuned for is
//! the same class of error: use [`TunedPlan::validate_objective`].

use crate::backend::{Backend, BackendSet};
use crate::cache::{EvalCache, HotPathSnapshot};
use crate::error::BarracudaError;
use crate::json::Json;
use crate::objective::Objective;
use crate::pipeline::{TunedWorkload, WorkloadTuner};
use crate::quarantine::{QuarantineEntry, QuarantineReport, QuarantineStage};
use crate::stages::frontend::{canonical_source, workload_fingerprint};
use crate::stages::SearchStats;
use crate::workload::Workload;
use surf::SearchStatus;

/// Version of the on-disk plan schema. Bump on any incompatible change;
/// readers accept the current version plus the legacy versions listed in
/// [`PLAN_SCHEMA_READABLE`] and reject everything else rather than
/// misinterpreting fields.
pub const PLAN_SCHEMA_VERSION: u64 = 3;

/// Schema versions this build can still read. v1 plans (PR 4) lack the
/// quarantine entries, memo counters and cache salt; v2 plans lack the
/// search objective and memory statistics. Both parse with those fields
/// empty/zero (objective: time-only) and are flagged stale by the plan
/// store.
pub const PLAN_SCHEMA_READABLE: [u64; 3] = [1, 2, PLAN_SCHEMA_VERSION];

/// How the saved configuration was found: the search's bookkeeping,
/// flattened for serialization.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanProvenance {
    pub n_evals: usize,
    pub batches: usize,
    pub space_size: u128,
    pub pool_size: usize,
    pub wall_s: f64,
    pub threads: usize,
    pub quarantined_versions: usize,
    pub quarantined_configs: usize,
    pub cache_hit_rate: f64,
    pub per_op_hit_rate: f64,
    pub time_hit_rate: f64,
    /// Feature-memo hits/misses (schema v2; zero in v1 plans).
    pub cache_hits: usize,
    pub cache_misses: usize,
    /// Per-op decomposed-memo hits/misses (schema v2; zero in v1 plans).
    pub per_op_hits: usize,
    pub per_op_misses: usize,
    /// Whole-config time-memo hits/misses (schema v2; zero in v1 plans).
    pub time_hits: usize,
    pub time_misses: usize,
    /// Hot-path stage times at the end of the search (schema v2; zero in
    /// v1 plans). Serialized as decimal strings — nanosecond totals can
    /// exceed the 2^53 doubles carry exactly.
    pub hot_decode_ns: u64,
    pub hot_map_ns: u64,
    pub hot_sim_ns: u64,
    pub hot_predict_ns: u64,
    /// Pool candidates pruned before the search because their modeled peak
    /// exceeded the objective's memory budget (schema v3; zero in older
    /// plans or without a budget).
    pub pruned_by_memory: usize,
    /// Distinct `(statement, version)` pairs over the memory budget
    /// (schema v3; zero in older plans or without a budget).
    pub versions_over_budget: usize,
    /// Modeled peak live temporary bytes of the chosen configuration
    /// (schema v3; zero in older plans).
    pub peak_temp_bytes: u64,
    /// Modeled global read+write volume of the chosen configuration
    /// (schema v3; zero in older plans).
    pub rw_bytes: u64,
    /// Whether the search stopped early (budget, deadline, survivors).
    pub degraded: bool,
    /// Human-readable status (`complete` or `degraded: <reason>`).
    pub status: String,
}

/// One per-statement choice of the plan's joint configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanChoice {
    /// OCTOPI version index within the statement.
    pub version: usize,
    /// Local configuration id within the statement's own space.
    pub local: u128,
}

/// A persisted tuning result: enough to re-map, validate and emit CUDA for
/// the winning configuration without re-running the search.
#[derive(Clone, Debug, PartialEq)]
pub struct TunedPlan {
    pub schema_version: u64,
    pub workload_name: String,
    /// Canonical DSL source (statement `Display` forms, one per line).
    pub source: String,
    /// Index extents, sorted by index name.
    pub dims: Vec<(String, usize)>,
    /// FNV-1a fingerprint over source + dims (name excluded); replay
    /// refuses a workload whose fingerprint differs.
    pub fingerprint: u64,
    /// Backend registry key the plan was tuned for (`k20`, `gtx980`, …).
    pub backend: String,
    /// The backend's [`crate::backend::Backend::cache_salt`] at save time
    /// (schema v2). Replay refuses a plan whose salt differs from the live
    /// backend's — a changed model or architecture must re-tune, never
    /// serve a stale mapping. Zero means unknown, which only a legacy v1
    /// plan may be: a v2+ plan with salt zero is refused on replay.
    pub cache_salt: u64,
    /// Human-readable architecture name at save time.
    pub arch_name: String,
    /// Winning joint configuration id.
    pub id: u128,
    /// Per-statement decomposition of `id`.
    pub choices: Vec<PlanChoice>,
    pub gpu_seconds: f64,
    pub transfer_seconds: f64,
    pub flops: u64,
    /// Full quarantine report of the search (schema v2; empty in v1
    /// plans), so replay reconstructs exactly what the tuning run showed.
    pub quarantine: Vec<QuarantineEntry>,
    /// The objective the search minimized (schema v3; time-only in older
    /// plans). Replay under a different objective is refused — a plan
    /// tuned for a memory budget is not the time-optimal answer and vice
    /// versa. See [`TunedPlan::validate_objective`].
    pub objective: Objective,
    pub provenance: PlanProvenance,
}

impl TunedPlan {
    /// Captures a finished tuning run as a plan. The `tuner` must be the
    /// one the result came from (it decomposes the joint id), and
    /// `backend` the backend that was searched — the plan records its key
    /// and its cache salt (a GPU backend's descriptor digest), whichever
    /// set it was loaded from.
    pub fn from_tuned_for(
        tuner: &WorkloadTuner,
        backend: &dyn Backend,
        tuned: &TunedWorkload,
    ) -> TunedPlan {
        let locals = tuner.decode(tuned.id);
        let choices = tuner
            .statements
            .iter()
            .zip(&locals)
            .map(|(st, &local)| PlanChoice {
                version: st.decode_raw(local).0,
                local,
            })
            .collect();
        let s = &tuned.search;
        TunedPlan {
            schema_version: PLAN_SCHEMA_VERSION,
            workload_name: tuner.workload.name.clone(),
            source: canonical_source(&tuner.workload),
            dims: tuner
                .workload
                .dims
                .iter()
                .map(|(v, &n)| (v.name().to_string(), n))
                .collect(),
            fingerprint: workload_fingerprint(&tuner.workload),
            backend: backend.key().to_string(),
            cache_salt: backend.cache_salt(),
            arch_name: tuned.arch_name.clone(),
            id: tuned.id,
            choices,
            gpu_seconds: tuned.gpu_seconds,
            transfer_seconds: tuned.transfer_seconds,
            flops: tuned.flops,
            quarantine: tuned.quarantine.entries.clone(),
            objective: tuned.objective,
            provenance: PlanProvenance {
                n_evals: s.n_evals,
                batches: s.batches,
                space_size: s.space_size,
                pool_size: s.pool_size,
                wall_s: s.wall_s,
                threads: s.threads,
                quarantined_versions: s.quarantined_versions,
                quarantined_configs: s.quarantined_configs,
                cache_hit_rate: s.cache_hit_rate(),
                per_op_hit_rate: s.per_op_hit_rate(),
                time_hit_rate: s.time_hit_rate(),
                cache_hits: s.cache_hits,
                cache_misses: s.cache_misses,
                per_op_hits: s.per_op_hits,
                per_op_misses: s.per_op_misses,
                time_hits: s.time_hits,
                time_misses: s.time_misses,
                hot_decode_ns: s.hot.decode_ns,
                hot_map_ns: s.hot.map_ns,
                hot_sim_ns: s.hot.sim_ns,
                hot_predict_ns: s.hot.predict_ns,
                pruned_by_memory: s.pruned_by_memory,
                versions_over_budget: s.versions_over_budget,
                peak_temp_bytes: s.peak_temp_bytes,
                rw_bytes: s.rw_bytes,
                degraded: tuned.is_degraded(),
                status: match &tuned.status {
                    SearchStatus::Complete => "complete".to_string(),
                    SearchStatus::Degraded { reason } => format!("degraded: {reason}"),
                },
            },
        }
    }

    /// Whether the plan predates the current schema — readable, but the
    /// plan store treats it as evictable (`plans gc --schema-older-than`).
    pub fn is_stale(&self) -> bool {
        self.schema_version < PLAN_SCHEMA_VERSION
    }

    /// The plan as pretty-printed JSON text. A plan whose
    /// `schema_version` is 1 or 2 is written in that legacy layout (v1: no
    /// salt, quarantine or memo counters; v2: no objective or memory
    /// statistics), so tests and migration tooling can produce
    /// byte-faithful legacy artifacts.
    pub fn to_json_text(&self) -> String {
        let v2 = self.schema_version >= 2;
        let v3 = self.schema_version >= 3;
        let p = &self.provenance;
        let mut top = vec![
            (
                "schema_version".into(),
                Json::Num(self.schema_version as f64),
            ),
            ("workload".into(), Json::Str(self.workload_name.clone())),
            ("source".into(), Json::Str(self.source.clone())),
            (
                "dims".into(),
                Json::Obj(
                    self.dims
                        .iter()
                        .map(|(name, n)| (name.clone(), Json::Num(*n as f64)))
                        .collect(),
                ),
            ),
            (
                "fingerprint".into(),
                Json::Str(format!("{:016x}", self.fingerprint)),
            ),
            ("backend".into(), Json::Str(self.backend.clone())),
        ];
        if v2 {
            top.push((
                "cache_salt".into(),
                Json::Str(format!("{:016x}", self.cache_salt)),
            ));
        }
        top.push(("arch_name".into(), Json::Str(self.arch_name.clone())));
        top.push(("id".into(), Json::Str(self.id.to_string())));
        top.push((
            "choices".into(),
            Json::Arr(
                self.choices
                    .iter()
                    .map(|c| {
                        Json::Obj(vec![
                            ("version".into(), Json::Num(c.version as f64)),
                            ("local".into(), Json::Str(c.local.to_string())),
                        ])
                    })
                    .collect(),
            ),
        ));
        top.push(("gpu_seconds".into(), Json::Num(self.gpu_seconds)));
        top.push(("transfer_seconds".into(), Json::Num(self.transfer_seconds)));
        top.push(("flops".into(), Json::Str(self.flops.to_string())));
        if v2 {
            top.push((
                "quarantine".into(),
                Json::Arr(
                    self.quarantine
                        .iter()
                        .map(|e| {
                            Json::Obj(vec![
                                ("stage".into(), Json::Str(e.stage.as_str().to_string())),
                                (
                                    "statement".into(),
                                    e.statement.map_or(Json::Null, |s| Json::Num(s as f64)),
                                ),
                                (
                                    "version".into(),
                                    e.version.map_or(Json::Null, |v| Json::Num(v as f64)),
                                ),
                                (
                                    "config".into(),
                                    e.config.map_or(Json::Null, |c| Json::Str(c.to_string())),
                                ),
                                ("reason".into(), Json::Str(e.reason.clone())),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        if v3 {
            top.push(("objective".into(), self.objective.to_json()));
        }
        let mut prov = vec![
            ("n_evals".into(), Json::Num(p.n_evals as f64)),
            ("batches".into(), Json::Num(p.batches as f64)),
            ("space_size".into(), Json::Str(p.space_size.to_string())),
            ("pool_size".into(), Json::Num(p.pool_size as f64)),
            ("wall_s".into(), Json::Num(p.wall_s)),
            ("threads".into(), Json::Num(p.threads as f64)),
            (
                "quarantined_versions".into(),
                Json::Num(p.quarantined_versions as f64),
            ),
            (
                "quarantined_configs".into(),
                Json::Num(p.quarantined_configs as f64),
            ),
            ("cache_hit_rate".into(), Json::Num(p.cache_hit_rate)),
            ("per_op_hit_rate".into(), Json::Num(p.per_op_hit_rate)),
            ("time_hit_rate".into(), Json::Num(p.time_hit_rate)),
        ];
        if v2 {
            prov.push(("cache_hits".into(), Json::Num(p.cache_hits as f64)));
            prov.push(("cache_misses".into(), Json::Num(p.cache_misses as f64)));
            prov.push(("per_op_hits".into(), Json::Num(p.per_op_hits as f64)));
            prov.push(("per_op_misses".into(), Json::Num(p.per_op_misses as f64)));
            prov.push(("time_hits".into(), Json::Num(p.time_hits as f64)));
            prov.push(("time_misses".into(), Json::Num(p.time_misses as f64)));
            prov.push((
                "hot".into(),
                Json::Obj(vec![
                    ("decode_ns".into(), Json::Str(p.hot_decode_ns.to_string())),
                    ("map_ns".into(), Json::Str(p.hot_map_ns.to_string())),
                    ("sim_ns".into(), Json::Str(p.hot_sim_ns.to_string())),
                    ("predict_ns".into(), Json::Str(p.hot_predict_ns.to_string())),
                ]),
            ));
        }
        if v3 {
            prov.push((
                "pruned_by_memory".into(),
                Json::Num(p.pruned_by_memory as f64),
            ));
            prov.push((
                "versions_over_budget".into(),
                Json::Num(p.versions_over_budget as f64),
            ));
            prov.push((
                "peak_temp_bytes".into(),
                Json::Str(p.peak_temp_bytes.to_string()),
            ));
            prov.push(("rw_bytes".into(), Json::Str(p.rw_bytes.to_string())));
        }
        prov.push(("degraded".into(), Json::Bool(p.degraded)));
        prov.push(("status".into(), Json::Str(p.status.clone())));
        top.push(("provenance".into(), Json::Obj(prov)));
        Json::Obj(top).to_string_pretty()
    }

    /// Parses a plan from JSON text, rejecting unknown schema versions.
    /// Older schemas parse read-only: v2-only fields (cache salt,
    /// quarantine entries, memo counters, hot-path times) default to
    /// empty/zero in v1 plans, and v3-only fields (objective, memory
    /// statistics) default to time-only/zero in v1 and v2 plans.
    pub fn from_json_text(text: &str) -> Result<TunedPlan, BarracudaError> {
        let err = |detail: String| BarracudaError::Plan {
            workload: "plan".to_string(),
            detail,
        };
        let doc = Json::parse(text).map_err(|e| err(format!("invalid JSON: {e}")))?;
        let field = |key: &str| {
            doc.get(key)
                .ok_or_else(|| err(format!("missing field `{key}`")))
        };
        let str_field = |key: &str| {
            field(key)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| err(format!("field `{key}` must be a string")))
        };
        let num_field = |key: &str| {
            field(key)?
                .as_u64()
                .ok_or_else(|| err(format!("field `{key}` must be an integer")))
        };
        let schema_version = num_field("schema_version")?;
        if !PLAN_SCHEMA_READABLE.contains(&schema_version) {
            return Err(err(format!(
                "unsupported schema version {schema_version} (this build writes \
                 {PLAN_SCHEMA_VERSION} and reads {PLAN_SCHEMA_READABLE:?})"
            )));
        }
        let v2 = schema_version >= 2;
        let v3 = schema_version >= 3;
        let workload_name = str_field("workload")?;
        let perr = |detail: String| BarracudaError::Plan {
            workload: workload_name.clone(),
            detail,
        };
        let u128_field = |parent: &Json, key: &str| -> Result<u128, BarracudaError> {
            parent
                .get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| perr(format!("missing string field `{key}`")))?
                .parse::<u128>()
                .map_err(|_| perr(format!("field `{key}` is not a decimal u128")))
        };
        let f64_field = |parent: &Json, key: &str| -> Result<f64, BarracudaError> {
            parent
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| perr(format!("missing numeric field `{key}`")))
        };
        let usize_field = |parent: &Json, key: &str| -> Result<usize, BarracudaError> {
            parent
                .get(key)
                .and_then(Json::as_u64)
                .map(|n| n as usize)
                .ok_or_else(|| perr(format!("missing integer field `{key}`")))
        };
        // v2-only: required at schema 2, defaulted at schema 1.
        let usize_v2 = |parent: &Json, key: &str| -> Result<usize, BarracudaError> {
            if v2 {
                usize_field(parent, key)
            } else {
                Ok(0)
            }
        };
        let ns_v2 = |parent: &Json, key: &str| -> Result<u64, BarracudaError> {
            if !v2 {
                return Ok(0);
            }
            parent
                .get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| perr(format!("missing string field `{key}`")))?
                .parse::<u64>()
                .map_err(|_| perr(format!("field `{key}` is not a decimal u64")))
        };
        // v3-only: required at schema 3, defaulted at older schemas.
        let usize_v3 = |parent: &Json, key: &str| -> Result<usize, BarracudaError> {
            if v3 {
                usize_field(parent, key)
            } else {
                Ok(0)
            }
        };
        let bytes_v3 = |parent: &Json, key: &str| -> Result<u64, BarracudaError> {
            if !v3 {
                return Ok(0);
            }
            parent
                .get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| perr(format!("missing string field `{key}`")))?
                .parse::<u64>()
                .map_err(|_| perr(format!("field `{key}` is not a decimal u64")))
        };
        let dims = match field("dims")? {
            Json::Obj(members) => members
                .iter()
                .map(|(name, v)| {
                    v.as_u64()
                        .map(|n| (name.clone(), n as usize))
                        .ok_or_else(|| perr(format!("dimension `{name}` must be an integer")))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err(perr("field `dims` must be an object".to_string())),
        };
        let fingerprint = u64::from_str_radix(&str_field("fingerprint")?, 16)
            .map_err(|_| perr("field `fingerprint` is not a hex u64".to_string()))?;
        let cache_salt = if v2 {
            u64::from_str_radix(&str_field("cache_salt")?, 16)
                .map_err(|_| perr("field `cache_salt` is not a hex u64".to_string()))?
        } else {
            0
        };
        let choices = field("choices")?
            .as_arr()
            .ok_or_else(|| perr("field `choices` must be an array".to_string()))?
            .iter()
            .map(|c| {
                Ok(PlanChoice {
                    version: usize_field(c, "version")?,
                    local: u128_field(c, "local")?,
                })
            })
            .collect::<Result<Vec<_>, BarracudaError>>()?;
        let quarantine = if v2 {
            field("quarantine")?
                .as_arr()
                .ok_or_else(|| perr("field `quarantine` must be an array".to_string()))?
                .iter()
                .enumerate()
                .map(|(i, e)| {
                    let tag = e
                        .get("stage")
                        .and_then(Json::as_str)
                        .ok_or_else(|| perr(format!("quarantine entry {i}: missing `stage`")))?;
                    let stage = QuarantineStage::from_tag(tag).ok_or_else(|| {
                        perr(format!("quarantine entry {i}: unknown stage `{tag}`"))
                    })?;
                    let opt_usize = |key: &str| match e.get(key) {
                        None | Some(Json::Null) => Ok(None),
                        Some(v) => v.as_u64().map(|n| Some(n as usize)).ok_or_else(|| {
                            perr(format!("quarantine entry {i}: `{key}` must be an integer"))
                        }),
                    };
                    let config = match e.get("config") {
                        None | Some(Json::Null) => None,
                        Some(v) => {
                            Some(v.as_str().and_then(|s| s.parse::<u128>().ok()).ok_or_else(
                                || {
                                    perr(format!(
                                        "quarantine entry {i}: `config` must be a decimal u128 \
                                         string"
                                    ))
                                },
                            )?)
                        }
                    };
                    Ok(QuarantineEntry {
                        stage,
                        statement: opt_usize("statement")?,
                        version: opt_usize("version")?,
                        config,
                        reason: e
                            .get("reason")
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .ok_or_else(|| {
                                perr(format!("quarantine entry {i}: missing `reason`"))
                            })?,
                    })
                })
                .collect::<Result<Vec<_>, BarracudaError>>()?
        } else {
            Vec::new()
        };
        let objective = if v3 {
            let o = field("objective")?;
            Objective::from_json(o).map_err(&perr)?
        } else {
            Objective::time_only()
        };
        let prov = field("provenance")?;
        let hot = if v2 {
            prov.get("hot")
                .ok_or_else(|| perr("missing object field `hot`".to_string()))?
        } else {
            &Json::Null
        };
        let provenance = PlanProvenance {
            n_evals: usize_field(prov, "n_evals")?,
            batches: usize_field(prov, "batches")?,
            space_size: u128_field(prov, "space_size")?,
            pool_size: usize_field(prov, "pool_size")?,
            wall_s: f64_field(prov, "wall_s")?,
            threads: usize_field(prov, "threads")?,
            quarantined_versions: usize_field(prov, "quarantined_versions")?,
            quarantined_configs: usize_field(prov, "quarantined_configs")?,
            cache_hit_rate: f64_field(prov, "cache_hit_rate")?,
            per_op_hit_rate: f64_field(prov, "per_op_hit_rate")?,
            time_hit_rate: f64_field(prov, "time_hit_rate")?,
            cache_hits: usize_v2(prov, "cache_hits")?,
            cache_misses: usize_v2(prov, "cache_misses")?,
            per_op_hits: usize_v2(prov, "per_op_hits")?,
            per_op_misses: usize_v2(prov, "per_op_misses")?,
            time_hits: usize_v2(prov, "time_hits")?,
            time_misses: usize_v2(prov, "time_misses")?,
            hot_decode_ns: ns_v2(hot, "decode_ns")?,
            hot_map_ns: ns_v2(hot, "map_ns")?,
            hot_sim_ns: ns_v2(hot, "sim_ns")?,
            hot_predict_ns: ns_v2(hot, "predict_ns")?,
            pruned_by_memory: usize_v3(prov, "pruned_by_memory")?,
            versions_over_budget: usize_v3(prov, "versions_over_budget")?,
            peak_temp_bytes: bytes_v3(prov, "peak_temp_bytes")?,
            rw_bytes: bytes_v3(prov, "rw_bytes")?,
            degraded: prov
                .get("degraded")
                .and_then(Json::as_bool)
                .ok_or_else(|| perr("missing boolean field `degraded`".to_string()))?,
            status: prov
                .get("status")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| perr("missing string field `status`".to_string()))?,
        };
        Ok(TunedPlan {
            schema_version,
            source: str_field("source")?,
            dims,
            fingerprint,
            backend: str_field("backend")?,
            cache_salt,
            arch_name: str_field("arch_name")?,
            id: u128_field(&doc, "id")?,
            choices,
            gpu_seconds: f64_field(&doc, "gpu_seconds")?,
            transfer_seconds: f64_field(&doc, "transfer_seconds")?,
            flops: str_field("flops")?
                .parse::<u64>()
                .map_err(|_| perr("field `flops` is not a decimal u64".to_string()))?,
            quarantine,
            objective,
            provenance,
            workload_name,
        })
    }

    /// Writes the plan to `path` as JSON.
    pub fn save(&self, path: &std::path::Path) -> Result<(), BarracudaError> {
        std::fs::write(path, self.to_json_text()).map_err(|e| BarracudaError::Plan {
            workload: self.workload_name.clone(),
            detail: format!("cannot write {}: {e}", path.display()),
        })
    }

    /// Reads and parses a plan from `path`.
    pub fn load(path: &std::path::Path) -> Result<TunedPlan, BarracudaError> {
        let text = std::fs::read_to_string(path).map_err(|e| BarracudaError::Plan {
            workload: "plan".to_string(),
            detail: format!("cannot read {}: {e}", path.display()),
        })?;
        Self::from_json_text(&text)
    }

    /// Reconstructs the plan's workload from its embedded source + dims.
    pub fn workload(&self) -> Result<Workload, BarracudaError> {
        let dims = self
            .dims
            .iter()
            .map(|(name, n)| (tensor::IndexVar::new(name.clone()), *n))
            .collect();
        let w = Workload::parse(&self.workload_name, &self.source, &dims)?;
        self.validate_for(&w)?;
        Ok(w)
    }

    /// Checks that `workload` is the one this plan was tuned for: a
    /// readable schema version and the same source/dims fingerprint. A
    /// stale plan (the DSL or the extents changed since tuning) is a typed
    /// error, never a silently wrong kernel.
    pub fn validate_for(&self, workload: &Workload) -> Result<(), BarracudaError> {
        if !PLAN_SCHEMA_READABLE.contains(&self.schema_version) {
            return Err(BarracudaError::Plan {
                workload: workload.name.clone(),
                detail: format!(
                    "unsupported schema version {} (this build writes {PLAN_SCHEMA_VERSION} and \
                     reads {PLAN_SCHEMA_READABLE:?})",
                    self.schema_version
                ),
            });
        }
        let actual = workload_fingerprint(workload);
        if actual != self.fingerprint {
            return Err(BarracudaError::Plan {
                workload: workload.name.clone(),
                detail: format!(
                    "workload fingerprint {actual:016x} does not match plan fingerprint \
                     {:016x}: the statements or extents changed since tuning — re-tune \
                     instead of replaying",
                    self.fingerprint
                ),
            });
        }
        Ok(())
    }

    /// Checks that the plan was tuned under `expected`: a plan's winning
    /// configuration is only meaningful for the objective the search
    /// minimized, so replaying a memory-budgeted plan as if it were the
    /// time-optimal pick (or vice versa) is a typed [`BarracudaError::Plan`]
    /// — re-tune under the objective you want instead. Weights compare by
    /// f64 bits; older plans (schema < 3) carry the time-only objective.
    pub fn validate_objective(&self, expected: &Objective) -> Result<(), BarracudaError> {
        if self.objective.same_as(expected) {
            return Ok(());
        }
        Err(BarracudaError::Plan {
            workload: self.workload_name.clone(),
            detail: format!(
                "plan was tuned under objective `{}` but replay requested `{}` — a plan \
                 only answers the objective it was searched for; re-tune instead of \
                 replaying",
                self.objective.describe(),
                expected.describe()
            ),
        })
    }

    /// Replays the plan against `workload`, resolving its backend in
    /// `set` (runtime-loaded descriptors included): validates the
    /// fingerprint and the backend cache salt, re-maps the saved
    /// configuration and re-times it through `cache` — no search. The
    /// deterministic simulator reproduces the saved `gpu_seconds`
    /// bit-for-bit; a mismatch (an edited plan, a changed model) is
    /// reported as a typed error rather than trusted.
    pub fn replay_for_in(
        &self,
        set: &BackendSet,
        workload: &Workload,
        cache: &EvalCache,
    ) -> Result<TunedWorkload, BarracudaError> {
        self.validate_for(workload)?;
        let tuner = WorkloadTuner::build(workload);
        self.replay_built_in(set, workload, &tuner, cache)
    }

    /// [`TunedPlan::replay_for_in`] with a pre-built tuner: skips the
    /// lowering pass when the caller already holds the workload's
    /// [`WorkloadTuner`] — the serving daemon replays thousands of warm
    /// requests against one cached tuner. The caller must have built
    /// `tuner` from `workload` and validated the fingerprint (or accept
    /// the id-range check below as the only guard).
    pub fn replay_built_in(
        &self,
        set: &BackendSet,
        workload: &Workload,
        tuner: &WorkloadTuner,
        cache: &EvalCache,
    ) -> Result<TunedWorkload, BarracudaError> {
        self.validate_for(workload)?;
        let backend = set.get(&self.backend).ok_or_else(|| BarracudaError::Plan {
            workload: workload.name.clone(),
            detail: format!("unknown backend `{}` in plan", self.backend),
        })?;
        // Only schema-1 plans predate the salt. A later plan whose salt is
        // zero (hand-edited, or filed without its backend) must not replay
        // against whatever revision of the backend is loaded now.
        if self.schema_version >= 2 && self.cache_salt != backend.cache_salt() {
            return Err(BarracudaError::Plan {
                workload: workload.name.clone(),
                detail: format!(
                    "plan cache salt {:016x} does not match backend `{}` salt {:016x}: the \
                     plan was tuned against a different model or architecture revision — \
                     re-tune instead of replaying",
                    self.cache_salt,
                    self.backend,
                    backend.cache_salt()
                ),
            });
        }
        let arch = backend.arch().ok_or_else(|| BarracudaError::Plan {
            workload: workload.name.clone(),
            detail: format!(
                "backend `{}` has no architecture to replay on",
                self.backend
            ),
        })?;
        if self.id >= tuner.total_space() {
            return Err(BarracudaError::Plan {
                workload: workload.name.clone(),
                detail: format!(
                    "plan id {} exceeds the search space ({} configurations)",
                    self.id,
                    tuner.total_space()
                ),
            });
        }
        let locals = tuner.decode(self.id);
        let mut choices = Vec::new();
        let mut programs = Vec::new();
        for (k, (st, &local)) in tuner.statements.iter().zip(&locals).enumerate() {
            if let Some(saved) = self.choices.get(k) {
                if saved.local != local {
                    return Err(BarracudaError::Plan {
                        workload: workload.name.clone(),
                        detail: format!(
                            "statement {k}: plan id decomposes to local {local} but the plan \
                             recorded {} — the plan was edited inconsistently",
                            saved.local
                        ),
                    });
                }
            }
            let (v, config) = st.decode(local);
            programs.push(st.variants[v].program.clone());
            choices.push((v, config));
        }
        let kernels = tuner.kernels(self.id)?;
        let gpu_seconds = tuner.try_gpu_seconds_memo(self.id, arch, cache)?;
        if gpu_seconds.to_bits() != self.gpu_seconds.to_bits() {
            return Err(BarracudaError::Plan {
                workload: workload.name.clone(),
                detail: format!(
                    "replayed time {gpu_seconds} differs from saved {} — the plan no longer \
                     matches this build's performance model",
                    self.gpu_seconds
                ),
            });
        }
        let transfer_seconds = tuner.transfer_seconds(arch);
        let p = &self.provenance;
        Ok(TunedWorkload {
            name: workload.name.clone(),
            arch_name: arch.name.to_string(),
            id: self.id,
            choices,
            programs,
            kernels,
            gpu_seconds,
            transfer_seconds,
            flops: tuner.flops(self.id),
            search: SearchStats {
                n_evals: p.n_evals,
                batches: p.batches,
                evaluated_times: Vec::new(),
                space_size: p.space_size,
                pool_size: p.pool_size,
                cache_hits: p.cache_hits,
                cache_misses: p.cache_misses,
                wall_s: p.wall_s,
                threads: p.threads,
                quarantined_versions: p.quarantined_versions,
                quarantined_configs: p.quarantined_configs,
                per_op_hits: p.per_op_hits,
                per_op_misses: p.per_op_misses,
                time_hits: p.time_hits,
                time_misses: p.time_misses,
                // The replay never searches, so nothing was pruned here;
                // the original run's pools are unique by construction.
                duplicate_candidates: 0,
                pruned_by_memory: p.pruned_by_memory,
                versions_over_budget: p.versions_over_budget,
                peak_temp_bytes: p.peak_temp_bytes,
                rw_bytes: p.rw_bytes,
                hot: HotPathSnapshot {
                    decode_ns: p.hot_decode_ns,
                    map_ns: p.hot_map_ns,
                    sim_ns: p.hot_sim_ns,
                    predict_ns: p.hot_predict_ns,
                },
            },
            objective: self.objective,
            status: if p.degraded {
                // `status` carries the display form `degraded: <reason>`;
                // feed back the bare reason so replayed output is not
                // double-prefixed.
                SearchStatus::Degraded {
                    reason: p
                        .status
                        .strip_prefix("degraded: ")
                        .unwrap_or(&p.status)
                        .to_string(),
                }
            } else {
                SearchStatus::Complete
            },
            quarantine: QuarantineReport {
                entries: self.quarantine.clone(),
            },
        })
    }

    /// [`TunedPlan::replay_for_in`] over the built-in backends, against
    /// the workload embedded in the plan.
    pub fn replay(&self, cache: &EvalCache) -> Result<TunedWorkload, BarracudaError> {
        let w = self.workload()?;
        self.replay_for_in(&BackendSet::builtin(), &w, cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::TuneParams;
    use tensor::index::uniform_dims;

    fn matmul(n: usize) -> Workload {
        Workload::parse(
            "mm",
            "C[i k] = Sum([j], A[i j] * B[j k])",
            &uniform_dims(&["i", "j", "k"], n),
        )
        .unwrap()
    }

    fn tuned_plan(n: usize) -> (WorkloadTuner, TunedPlan) {
        let w = matmul(n);
        let tuner = WorkloadTuner::build(&w);
        let tuned = tuner.autotune(&gpusim::k20(), TuneParams::quick()).unwrap();
        let k20 = BackendSet::builtin().get("k20").unwrap().clone();
        let plan = TunedPlan::from_tuned_for(&tuner, k20.as_ref(), &tuned);
        (tuner, plan)
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let (_, mut plan) = tuned_plan(16);
        // Exercise every v2 field, including the ones a clean quick tune
        // leaves empty.
        plan.quarantine.push(QuarantineEntry {
            stage: QuarantineStage::Mapping,
            statement: Some(0),
            version: None,
            config: Some(u128::MAX),
            reason: "hostile \"reason\"\nwith newline".into(),
        });
        plan.provenance.hot_decode_ns = u64::MAX;
        let text = plan.to_json_text();
        let back = TunedPlan::from_json_text(&text).unwrap();
        assert_eq!(plan, back);
        assert_eq!(
            plan.gpu_seconds.to_bits(),
            back.gpu_seconds.to_bits(),
            "f64 fields must survive serialization bit-for-bit"
        );
    }

    #[test]
    fn v3_plans_carry_backend_salt_memo_counters_and_objective() {
        let (_, plan) = tuned_plan(16);
        assert_eq!(plan.schema_version, 3);
        assert!(!plan.is_stale());
        let expected = BackendSet::builtin().get("k20").unwrap().cache_salt();
        assert_eq!(plan.cache_salt, expected);
        assert_ne!(plan.cache_salt, 0);
        let p = &plan.provenance;
        assert!(
            p.time_hits + p.time_misses > 0,
            "a real search must record time-memo traffic"
        );
        assert!(plan.objective.is_time_only(), "default tune is time-only");
        assert!(
            p.rw_bytes > 0,
            "every real configuration moves some global memory"
        );
    }

    #[test]
    fn v2_layout_parses_read_only_with_time_only_objective() {
        let (_, plan) = tuned_plan(16);
        let mut v2 = plan.clone();
        v2.schema_version = 2;
        let text = v2.to_json_text();
        assert!(
            !text.contains("\"objective\""),
            "v2 layout has no objective"
        );
        assert!(!text.contains("peak_temp_bytes"));
        let back = TunedPlan::from_json_text(&text).unwrap();
        assert!(back.is_stale());
        assert!(back.objective.is_time_only());
        assert_eq!(back.provenance.peak_temp_bytes, 0);
        assert_eq!(back.provenance.rw_bytes, 0);
        assert_eq!(back.id, plan.id);
        assert_eq!(back.cache_salt, plan.cache_salt);
        // v2 plans still replay (read path preserved).
        let replayed = back.replay(&EvalCache::new()).unwrap();
        assert_eq!(replayed.gpu_seconds.to_bits(), plan.gpu_seconds.to_bits());
    }

    #[test]
    fn objective_round_trips_through_json() {
        let (_, mut plan) = tuned_plan(16);
        plan.objective = Objective {
            mem_budget: Some(123_456_789),
            budget_mode: crate::objective::BudgetMode::Penalize,
            ..Objective::balanced()
        };
        let back = TunedPlan::from_json_text(&plan.to_json_text()).unwrap();
        assert!(back.objective.same_as(&plan.objective));
        assert_eq!(back, plan);
    }

    #[test]
    fn foreign_objective_replay_is_a_typed_plan_error() {
        let (_, plan) = tuned_plan(16);
        plan.validate_objective(&Objective::time_only()).unwrap();
        let err = plan.validate_objective(&Objective::balanced()).unwrap_err();
        assert_eq!(err.stage(), "plan");
        assert_eq!(err.exit_code(), 10);
        assert!(err.to_string().contains("objective"), "{err}");
    }

    #[test]
    fn v1_layout_parses_read_only_and_is_stale() {
        let (_, plan) = tuned_plan(16);
        let mut v1 = plan.clone();
        v1.schema_version = 1;
        let text = v1.to_json_text();
        assert!(!text.contains("cache_salt"), "v1 layout has no salt");
        assert!(!text.contains("\"quarantine\""));
        let back = TunedPlan::from_json_text(&text).unwrap();
        assert!(back.is_stale());
        assert_eq!(back.cache_salt, 0);
        assert!(back.quarantine.is_empty());
        assert_eq!(back.id, plan.id);
        assert_eq!(back.gpu_seconds.to_bits(), plan.gpu_seconds.to_bits());
        // v1 plans still replay (read path preserved).
        let replayed = back.replay(&EvalCache::new()).unwrap();
        assert_eq!(replayed.gpu_seconds.to_bits(), plan.gpu_seconds.to_bits());
    }

    #[test]
    fn replay_reproduces_the_tuned_time_without_searching() {
        let (_, plan) = tuned_plan(16);
        let cache = EvalCache::new();
        let replayed = plan.replay(&cache).unwrap();
        assert_eq!(replayed.id, plan.id);
        assert_eq!(replayed.gpu_seconds.to_bits(), plan.gpu_seconds.to_bits());
        assert!(replayed.cuda_source().contains("__global__"));
        // v2 reconstructs the memo counters, not zeros.
        assert_eq!(replayed.search.time_hits, plan.provenance.time_hits);
        assert_eq!(replayed.search.time_misses, plan.provenance.time_misses);
    }

    #[test]
    fn replayed_degraded_status_is_not_double_prefixed() {
        let (_, mut plan) = tuned_plan(16);
        plan.provenance.degraded = true;
        plan.provenance.status = "degraded: eval budget exhausted".into();
        let replayed = plan.replay(&EvalCache::new()).unwrap();
        match replayed.status {
            SearchStatus::Degraded { reason } => {
                assert_eq!(reason, "eval budget exhausted");
            }
            SearchStatus::Complete => panic!("expected degraded status"),
        }
    }

    #[test]
    fn stale_fingerprint_is_a_typed_plan_error() {
        let (_, plan) = tuned_plan(16);
        // Same statements, different extents: a stale plan.
        let other = matmul(32);
        let err = plan
            .replay_for_in(&BackendSet::builtin(), &other, &EvalCache::new())
            .unwrap_err();
        assert_eq!(err.stage(), "plan");
        assert_eq!(err.exit_code(), 10);
        assert!(err.to_string().contains("fingerprint"));
    }

    #[test]
    fn foreign_cache_salt_is_a_typed_plan_error() {
        let (_, mut plan) = tuned_plan(16);
        plan.cache_salt ^= 1;
        let err = plan.replay(&EvalCache::new()).unwrap_err();
        assert_eq!(err.stage(), "plan");
        assert_eq!(err.exit_code(), 10);
        assert!(err.to_string().contains("salt"), "{err}");
    }

    #[test]
    fn zeroed_cache_salt_is_a_typed_plan_error_past_schema_1() {
        let (_, plan) = tuned_plan(16);
        for schema in [2, 3] {
            let mut zeroed = plan.clone();
            zeroed.schema_version = schema;
            zeroed.cache_salt = 0;
            // The zero survives the file round trip and is still refused.
            let back = TunedPlan::from_json_text(&zeroed.to_json_text()).unwrap();
            assert_eq!(back.cache_salt, 0);
            let err = back.replay(&EvalCache::new()).unwrap_err();
            assert_eq!(err.stage(), "plan", "schema {schema}");
            assert_eq!(err.exit_code(), 10, "schema {schema}");
            assert!(err.to_string().contains("salt"), "{err}");
        }
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let (_, plan) = tuned_plan(16);
        let text = plan
            .to_json_text()
            .replace("\"schema_version\": 3", "\"schema_version\": 999");
        let err = TunedPlan::from_json_text(&text).unwrap_err();
        assert_eq!(err.stage(), "plan");
        assert!(err.to_string().contains("schema version"));
    }

    #[test]
    fn corrupt_json_is_a_typed_plan_error() {
        let err = TunedPlan::from_json_text("{not json").unwrap_err();
        assert_eq!(err.stage(), "plan");
        let err = TunedPlan::from_json_text("{\"schema_version\": 1}").unwrap_err();
        assert!(err.to_string().contains("missing"));
    }
}
