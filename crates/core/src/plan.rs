//! Serializable tuning plans: persist a search result, replay it later.
//!
//! Autotuning is the expensive step — the paper models multi-hour searches
//! (Table II) for a configuration that is then reused for every production
//! run. A [`TunedPlan`] captures everything needed to skip the search next
//! time: the workload (canonical DSL source + extents + a fingerprint),
//! the backend it was tuned for (registry key plus its cache salt), the
//! winning joint configuration id with its per-statement `(version, local)`
//! decomposition, the modeled times, the full quarantine report, and the
//! search's own [`SearchStats`] and [`SearchStatus`] (evaluations,
//! batches, memo counters, hot-path stage times, degradation status).
//!
//! Plans are versioned hand-rolled JSON (see [`crate::json`] — no serde in
//! this repo): `f64` values round-trip bit-exactly via Rust's shortest
//! `Display`, and `u128`/`u64` quantities that exceed double precision
//! travel as strings. This build reads and writes one layout, schema v3,
//! which embeds the backend cache salt, the quarantine entries, the memo
//! counters, the search objective (weights, memory budget, budget mode)
//! and the pick's modeled memory statistics. A plan of any other schema —
//! the v1 and v2 layouts of older builds included — is a typed
//! [`BarracudaError::Plan`] (CLI exit code 10); `barracuda plans gc`
//! evicts store entries filed under an older schema.
//! [`TunedPlan::replay_built_in`] rejects a plan whose workload fingerprint
//! or backend cache salt no longer matches with the same typed error, then
//! re-maps and re-times the configuration on the workload's lowering —
//! bit-identical to the saved numbers, since the simulator is
//! deterministic — without searching anything. Replaying under a
//! different objective than the plan was tuned for is the same class of
//! error: use [`TunedPlan::validate_objective`].

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
/// readers reject every other version rather than misinterpreting fields.
pub const PLAN_SCHEMA_VERSION: u64 = 3;

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
    /// The backend's [`crate::backend::Backend::cache_salt`] at save time.
    /// Replay refuses a plan whose salt differs from the live backend's —
    /// a changed model or architecture must re-tune, never serve a stale
    /// mapping.
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
    /// Full quarantine report of the search, so replay reconstructs
    /// exactly what the tuning run showed.
    pub quarantine: Vec<QuarantineEntry>,
    /// The objective the search minimized. Replay under a different
    /// objective is refused — a plan tuned for a memory budget is not the
    /// time-optimal answer and vice versa. See
    /// [`TunedPlan::validate_objective`].
    pub objective: Objective,
    /// How the search ran, as the tuning run reported it. A plan never
    /// persists `evaluated_times` or `duplicate_candidates`: they are
    /// empty and zero here.
    pub search: SearchStats,
    /// Whether the search ran to completion or stopped early, and why.
    pub status: SearchStatus,
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
        TunedPlan {
            workload_name: tuner.workload.name.clone(),
            source: canonical_source(&tuner.workload),
            dims: tuner
                .workload
                .dims
                .iter()
                .map(|(v, &n)| (v.name().to_string(), n))
                .collect(),
            fingerprint: tuner.fingerprint(),
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
            search: SearchStats {
                evaluated_times: Vec::new(),
                duplicate_candidates: 0,
                ..tuned.search
            },
            status: tuned.status.clone(),
        }
    }

    /// The plan as pretty-printed JSON text in the schema-v3 layout.
    pub fn to_json_text(&self) -> String {
        Json::Obj(vec![
            (
                "schema_version".into(),
                Json::Num(PLAN_SCHEMA_VERSION as f64),
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
            (
                "cache_salt".into(),
                Json::Str(format!("{:016x}", self.cache_salt)),
            ),
            ("arch_name".into(), Json::Str(self.arch_name.clone())),
            ("id".into(), Json::Str(self.id.to_string())),
            (
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
            ),
            ("gpu_seconds".into(), Json::Num(self.gpu_seconds)),
            ("transfer_seconds".into(), Json::Num(self.transfer_seconds)),
            ("flops".into(), Json::Str(self.flops.to_string())),
            (
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
            ),
            ("objective".into(), self.objective.to_json()),
            (
                "provenance".into(),
                provenance_json(&self.search, &self.status),
            ),
        ])
        .to_string_pretty()
    }

    /// Parses a plan from JSON text. Every schema-v3 field is required;
    /// any other schema version is a typed [`BarracudaError::Plan`].
    pub fn from_json_text(text: &str) -> Result<TunedPlan, BarracudaError> {
        // Errors name the plan's workload once it is known.
        let r = Fields {
            workload: "plan".to_string(),
        };
        let doc = Json::parse(text).map_err(|e| r.err(format!("invalid JSON: {e}")))?;
        let schema = r.u64(&doc, "schema_version")?;
        if schema != PLAN_SCHEMA_VERSION {
            return Err(r.err(format!(
                "unsupported schema version {schema} (this build reads and writes only \
                 {PLAN_SCHEMA_VERSION} — re-tune instead of replaying)"
            )));
        }
        let r = Fields {
            workload: r.string(&doc, "workload")?,
        };
        let dims = match r.field(&doc, "dims")? {
            Json::Obj(members) => members
                .iter()
                .map(|(name, v)| {
                    v.as_u64()
                        .map(|n| (name.clone(), n as usize))
                        .ok_or_else(|| r.err(format!("dimension `{name}` must be an integer")))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err(r.err("field `dims` must be an object".to_string())),
        };
        let choices = r
            .array(&doc, "choices")?
            .iter()
            .map(|c| {
                Ok(PlanChoice {
                    version: r.usize(c, "version")?,
                    local: r.decimal(c, "local")?,
                })
            })
            .collect::<Result<Vec<_>, BarracudaError>>()?;
        let quarantine = r
            .array(&doc, "quarantine")?
            .iter()
            .enumerate()
            .map(|(i, e)| r.quarantine_entry(i, e))
            .collect::<Result<Vec<_>, _>>()?;
        let objective = Objective::from_json(r.field(&doc, "objective")?).map_err(|e| r.err(e))?;
        let (search, status) = r.provenance(r.field(&doc, "provenance")?)?;
        Ok(TunedPlan {
            source: r.string(&doc, "source")?,
            dims,
            fingerprint: r.hex(&doc, "fingerprint")?,
            backend: r.string(&doc, "backend")?,
            cache_salt: r.hex(&doc, "cache_salt")?,
            arch_name: r.string(&doc, "arch_name")?,
            id: r.decimal(&doc, "id")?,
            choices,
            gpu_seconds: r.f64(&doc, "gpu_seconds")?,
            transfer_seconds: r.f64(&doc, "transfer_seconds")?,
            flops: r.decimal(&doc, "flops")?,
            quarantine,
            objective,
            search,
            status,
            workload_name: r.workload,
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

    /// Checks that `workload` is the one this plan was tuned for: the same
    /// source/dims fingerprint. A stale plan (the DSL or the extents
    /// changed since tuning) is a typed error, never a silently wrong
    /// kernel.
    pub fn validate_for(&self, workload: &Workload) -> Result<(), BarracudaError> {
        self.check_fingerprint(&workload.name, workload_fingerprint(workload))
    }

    /// The check behind [`TunedPlan::validate_for`], given the workload's
    /// name and fingerprint.
    fn check_fingerprint(&self, name: &str, actual: u64) -> Result<(), BarracudaError> {
        if actual != self.fingerprint {
            return Err(BarracudaError::Plan {
                workload: name.to_string(),
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
    /// f64 bits.
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

    /// Replays the plan on `tuner`, the lowering of the workload it was
    /// tuned for, resolving its backend in `set` (runtime-loaded
    /// descriptors included): checks the tuner's fingerprint and the
    /// backend cache salt, re-maps the saved configuration and re-times it
    /// through `cache` — no search. The deterministic simulator reproduces
    /// the saved `gpu_seconds` bit-for-bit; a mismatch (an edited plan, a
    /// changed model) is reported as a typed error rather than trusted.
    /// `workload` names the result and its errors.
    pub fn replay_built_in(
        &self,
        set: &BackendSet,
        workload: &Workload,
        tuner: &WorkloadTuner,
        cache: &EvalCache,
    ) -> Result<TunedWorkload, BarracudaError> {
        self.check_fingerprint(&workload.name, tuner.fingerprint())?;
        let backend = set.get(&self.backend).ok_or_else(|| BarracudaError::Plan {
            workload: workload.name.clone(),
            detail: format!("unknown backend `{}` in plan", self.backend),
        })?;
        // Zero is no wildcard: a plan filed without its backend's salt, or
        // hand-edited, must not replay against whatever revision of the
        // backend is loaded now.
        if self.cache_salt != backend.cache_salt() {
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
            search: self.search.clone(),
            objective: self.objective,
            status: self.status.clone(),
            quarantine: QuarantineReport {
                entries: self.quarantine.clone(),
            },
        })
    }
}

/// The `provenance` object of a plan: the search's counters, with the
/// three hit rates derived from them, and its status.
fn provenance_json(s: &SearchStats, status: &SearchStatus) -> Json {
    let count = |n: usize| Json::Num(n as f64);
    // Nanosecond and byte totals can exceed the 2^53 doubles carry exactly.
    let decimal = |n: u64| Json::Str(n.to_string());
    Json::Obj(vec![
        ("n_evals".into(), count(s.n_evals)),
        ("batches".into(), count(s.batches)),
        ("space_size".into(), Json::Str(s.space_size.to_string())),
        ("pool_size".into(), count(s.pool_size)),
        ("wall_s".into(), Json::Num(s.wall_s)),
        ("threads".into(), count(s.threads)),
        ("quarantined_versions".into(), count(s.quarantined_versions)),
        ("quarantined_configs".into(), count(s.quarantined_configs)),
        ("cache_hit_rate".into(), Json::Num(s.cache_hit_rate())),
        ("per_op_hit_rate".into(), Json::Num(s.per_op_hit_rate())),
        ("time_hit_rate".into(), Json::Num(s.time_hit_rate())),
        ("cache_hits".into(), count(s.cache_hits)),
        ("cache_misses".into(), count(s.cache_misses)),
        ("per_op_hits".into(), count(s.per_op_hits)),
        ("per_op_misses".into(), count(s.per_op_misses)),
        ("time_hits".into(), count(s.time_hits)),
        ("time_misses".into(), count(s.time_misses)),
        (
            "hot".into(),
            Json::Obj(vec![
                ("decode_ns".into(), decimal(s.hot.decode_ns)),
                ("map_ns".into(), decimal(s.hot.map_ns)),
                ("sim_ns".into(), decimal(s.hot.sim_ns)),
                ("predict_ns".into(), decimal(s.hot.predict_ns)),
            ]),
        ),
        ("pruned_by_memory".into(), count(s.pruned_by_memory)),
        ("versions_over_budget".into(), count(s.versions_over_budget)),
        ("peak_temp_bytes".into(), decimal(s.peak_temp_bytes)),
        ("rw_bytes".into(), decimal(s.rw_bytes)),
        ("degraded".into(), Json::Bool(status.is_degraded())),
        (
            "status".into(),
            Json::Str(match status {
                SearchStatus::Complete => "complete".to_string(),
                SearchStatus::Degraded { reason } => format!("degraded: {reason}"),
            }),
        ),
    ])
}

/// Typed field readers over a parsed plan. Every failure is a
/// [`BarracudaError::Plan`] naming the plan's workload.
struct Fields {
    workload: String,
}

impl Fields {
    fn err(&self, detail: String) -> BarracudaError {
        BarracudaError::Plan {
            workload: self.workload.clone(),
            detail,
        }
    }

    fn field<'j>(&self, parent: &'j Json, key: &str) -> Result<&'j Json, BarracudaError> {
        parent
            .get(key)
            .ok_or_else(|| self.err(format!("missing field `{key}`")))
    }

    fn text<'j>(&self, parent: &'j Json, key: &str) -> Result<&'j str, BarracudaError> {
        self.field(parent, key)?
            .as_str()
            .ok_or_else(|| self.err(format!("field `{key}` must be a string")))
    }

    fn string(&self, parent: &Json, key: &str) -> Result<String, BarracudaError> {
        self.text(parent, key).map(str::to_string)
    }

    fn u64(&self, parent: &Json, key: &str) -> Result<u64, BarracudaError> {
        self.field(parent, key)?
            .as_u64()
            .ok_or_else(|| self.err(format!("field `{key}` must be an integer")))
    }

    fn usize(&self, parent: &Json, key: &str) -> Result<usize, BarracudaError> {
        self.u64(parent, key).map(|n| n as usize)
    }

    fn f64(&self, parent: &Json, key: &str) -> Result<f64, BarracudaError> {
        self.field(parent, key)?
            .as_f64()
            .ok_or_else(|| self.err(format!("field `{key}` must be a number")))
    }

    fn bool(&self, parent: &Json, key: &str) -> Result<bool, BarracudaError> {
        self.field(parent, key)?
            .as_bool()
            .ok_or_else(|| self.err(format!("field `{key}` must be a boolean")))
    }

    fn array<'j>(&self, parent: &'j Json, key: &str) -> Result<&'j [Json], BarracudaError> {
        self.field(parent, key)?
            .as_arr()
            .ok_or_else(|| self.err(format!("field `{key}` must be an array")))
    }

    /// An integer carried as a decimal string (`u64` or `u128`).
    fn decimal<T: std::str::FromStr>(&self, parent: &Json, key: &str) -> Result<T, BarracudaError> {
        self.text(parent, key)?
            .parse()
            .map_err(|_| self.err(format!("field `{key}` is not a decimal integer")))
    }

    /// A `u64` carried as a hex string.
    fn hex(&self, parent: &Json, key: &str) -> Result<u64, BarracudaError> {
        u64::from_str_radix(self.text(parent, key)?, 16)
            .map_err(|_| self.err(format!("field `{key}` is not a hex u64")))
    }

    fn quarantine_entry(&self, i: usize, e: &Json) -> Result<QuarantineEntry, BarracudaError> {
        let bad = |detail: String| self.err(format!("quarantine entry {i}: {detail}"));
        let tag = e
            .get("stage")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing `stage`".to_string()))?;
        let stage =
            QuarantineStage::from_tag(tag).ok_or_else(|| bad(format!("unknown stage `{tag}`")))?;
        // `statement`, `version` and `config` are null (or absent) when
        // the failure is not tied to one.
        let present = |key: &str| e.get(key).filter(|v| **v != Json::Null);
        let index = |key: &str| {
            present(key)
                .map(|v| {
                    v.as_u64()
                        .map(|n| n as usize)
                        .ok_or_else(|| bad(format!("`{key}` must be an integer")))
                })
                .transpose()
        };
        let config = present("config")
            .map(|v| {
                v.as_str()
                    .and_then(|s| s.parse::<u128>().ok())
                    .ok_or_else(|| bad("`config` must be a decimal u128 string".to_string()))
            })
            .transpose()?;
        Ok(QuarantineEntry {
            stage,
            statement: index("statement")?,
            version: index("version")?,
            config,
            reason: e
                .get("reason")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| bad("missing `reason`".to_string()))?,
        })
    }

    /// Inverse of [`provenance_json`]. The three hit rates must be present
    /// and numeric, but the counters they derive from are what is kept.
    fn provenance(&self, p: &Json) -> Result<(SearchStats, SearchStatus), BarracudaError> {
        for rate in ["cache_hit_rate", "per_op_hit_rate", "time_hit_rate"] {
            self.f64(p, rate)?;
        }
        let hot = self.field(p, "hot")?;
        let search = SearchStats {
            n_evals: self.usize(p, "n_evals")?,
            batches: self.usize(p, "batches")?,
            evaluated_times: Vec::new(),
            space_size: self.decimal(p, "space_size")?,
            pool_size: self.usize(p, "pool_size")?,
            cache_hits: self.usize(p, "cache_hits")?,
            cache_misses: self.usize(p, "cache_misses")?,
            wall_s: self.f64(p, "wall_s")?,
            threads: self.usize(p, "threads")?,
            quarantined_versions: self.usize(p, "quarantined_versions")?,
            quarantined_configs: self.usize(p, "quarantined_configs")?,
            per_op_hits: self.usize(p, "per_op_hits")?,
            per_op_misses: self.usize(p, "per_op_misses")?,
            time_hits: self.usize(p, "time_hits")?,
            time_misses: self.usize(p, "time_misses")?,
            duplicate_candidates: 0,
            pruned_by_memory: self.usize(p, "pruned_by_memory")?,
            versions_over_budget: self.usize(p, "versions_over_budget")?,
            peak_temp_bytes: self.decimal(p, "peak_temp_bytes")?,
            rw_bytes: self.decimal(p, "rw_bytes")?,
            hot: HotPathSnapshot {
                decode_ns: self.decimal(hot, "decode_ns")?,
                map_ns: self.decimal(hot, "map_ns")?,
                sim_ns: self.decimal(hot, "sim_ns")?,
                predict_ns: self.decimal(hot, "predict_ns")?,
            },
        };
        let status = self.text(p, "status")?;
        let status = if self.bool(p, "degraded")? {
            // `status` carries the display form `degraded: <reason>`; keep
            // the bare reason so replayed output is not double-prefixed.
            SearchStatus::Degraded {
                reason: status
                    .strip_prefix("degraded: ")
                    .unwrap_or(status)
                    .to_string(),
            }
        } else {
            SearchStatus::Complete
        };
        Ok((search, status))
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

    fn replay(plan: &TunedPlan, tuner: &WorkloadTuner) -> Result<TunedWorkload, BarracudaError> {
        let set = BackendSet::builtin();
        plan.replay_built_in(&set, &tuner.workload, tuner, &EvalCache::new())
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let (_, mut plan) = tuned_plan(16);
        // Exercise the parts a clean quick tune leaves empty.
        plan.quarantine.push(QuarantineEntry {
            stage: QuarantineStage::Mapping,
            statement: Some(0),
            version: None,
            config: Some(u128::MAX),
            reason: "hostile \"reason\"\nwith newline".into(),
        });
        plan.search.hot.decode_ns = u64::MAX;
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
        assert!(plan.to_json_text().contains("\"schema_version\": 3"));
        let expected = BackendSet::builtin().get("k20").unwrap().cache_salt();
        assert_eq!(plan.cache_salt, expected);
        assert_ne!(plan.cache_salt, 0);
        let s = &plan.search;
        assert!(
            s.time_hits + s.time_misses > 0,
            "a real search must record time-memo traffic"
        );
        assert!(s.evaluated_times.is_empty(), "never persisted");
        assert!(plan.objective.is_time_only(), "default tune is time-only");
        assert!(
            s.rw_bytes > 0,
            "every real configuration moves some global memory"
        );
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
    fn replay_reproduces_the_tuned_time_without_searching() {
        let (tuner, plan) = tuned_plan(16);
        let replayed = replay(&plan, &tuner).unwrap();
        assert_eq!(replayed.id, plan.id);
        assert_eq!(replayed.gpu_seconds.to_bits(), plan.gpu_seconds.to_bits());
        assert!(replayed.cuda_source().contains("__global__"));
        // Replay carries the saved search record, memo counters included.
        assert_eq!(replayed.search, plan.search);
        assert_eq!(replayed.status, plan.status);
    }

    #[test]
    fn replayed_degraded_status_is_not_double_prefixed() {
        let (tuner, mut plan) = tuned_plan(16);
        plan.status = SearchStatus::Degraded {
            reason: "eval budget exhausted".into(),
        };
        let text = plan.to_json_text();
        assert!(text.contains("\"status\": \"degraded: eval budget exhausted\""));
        let back = TunedPlan::from_json_text(&text).unwrap();
        let replayed = replay(&back, &tuner).unwrap();
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
        let other = WorkloadTuner::build(&matmul(32));
        let err = replay(&plan, &other).unwrap_err();
        assert_eq!(err.stage(), "plan");
        assert_eq!(err.exit_code(), 10);
        assert!(err.to_string().contains("fingerprint"));
    }

    #[test]
    fn foreign_cache_salt_is_a_typed_plan_error() {
        let (tuner, mut plan) = tuned_plan(16);
        plan.cache_salt ^= 1;
        let err = replay(&plan, &tuner).unwrap_err();
        assert_eq!(err.stage(), "plan");
        assert_eq!(err.exit_code(), 10);
        assert!(err.to_string().contains("salt"), "{err}");
    }

    #[test]
    fn zeroed_cache_salt_is_a_typed_plan_error() {
        let (tuner, mut plan) = tuned_plan(16);
        plan.cache_salt = 0;
        // The zero survives the file round trip and is still refused.
        let back = TunedPlan::from_json_text(&plan.to_json_text()).unwrap();
        assert_eq!(back.cache_salt, 0);
        let err = replay(&back, &tuner).unwrap_err();
        assert_eq!(err.stage(), "plan");
        assert_eq!(err.exit_code(), 10);
        assert!(err.to_string().contains("salt"), "{err}");
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
        let err = TunedPlan::from_json_text("{\"schema_version\": 3}").unwrap_err();
        assert!(err.to_string().contains("missing"));
    }
}
