//! Line-delimited JSON request/response protocol for `barracuda serve`.
//!
//! One request per line, one response line per request, in order. The
//! wire form is [`crate::json::Json::to_string_compact`] — a single line
//! with no interior newlines — so any language with a JSON parser and a
//! line reader is a client. Requests:
//!
//! ```text
//! {"op":"ping"}
//! {"op":"stats"}
//! {"op":"backends"}
//! {"op":"shutdown"}
//! {"op":"tune","id":"r1","workload":"builtin:tce","backend":"k20",
//!  "evals":40,"quick":true,"deadline_s":2.5}
//! {"op":"tune","workload":"tce","objective":"balanced",
//!  "mem_budget":1048576,"penalize":true}
//! ```
//!
//! A tune request may carry a search objective: `"objective"` names a
//! preset (`time` / `memory` / `balanced`), `"mem_weight"` /
//! `"rw_weight"` override individual weights, `"mem_budget"` sets a hard
//! cap on modeled peak temporary bytes and `"penalize"` selects
//! [`BudgetMode::Penalize`](crate::objective::BudgetMode) instead of
//! pruning. The daemon accepts and refuses the same objective inputs as
//! the CLI's `--objective`, `--mem-weight`, `--rw-weight`, `--mem-budget`
//! and `--mem-penalize` ([`Objective::from_request`] builds both): an
//! unknown preset, a negative weight, or `"penalize":true` without a
//! `"mem_budget"` is a typed serve error (exit 12). Requests with
//! different objectives never coalesce and never share stored plans.
//!
//! Every response carries `"ok"` and echoes `"op"` (and `"id"` when the
//! request had one). Failures return `"ok":false` with the typed stage
//! tag and the exit code the CLI would have died with, so scripted
//! clients branch on the same taxonomy either way.

use crate::error::BarracudaError;
use crate::json::Json;
use crate::objective::Objective;

/// One parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe; answered without touching the session.
    Ping,
    /// Daemon counters and latency percentiles.
    Stats,
    /// The daemon's loaded backend set (keys, names, cache salts).
    Backends,
    /// Stop accepting work; transports drain and exit.
    Shutdown,
    /// Tune (or replay) one workload on one backend.
    Tune(TuneRequest),
}

/// The tune request's fields, defaults filled by the daemon.
#[derive(Clone, Debug, PartialEq)]
pub struct TuneRequest {
    /// Opaque client correlation id, echoed verbatim in the response.
    pub id: Option<String>,
    /// Workload spec: `builtin:NAME` or a bare builtin name
    /// ([`crate::kernels::builtin`]).
    pub workload: String,
    /// Backend registry key; `None` uses the daemon default.
    pub backend: Option<String>,
    /// SURF evaluation budget override.
    pub evals: Option<usize>,
    /// `true` for quick-profile parameters, `false`/absent for the
    /// daemon's default profile.
    pub quick: Option<bool>,
    /// Per-request wall-clock deadline in seconds. Overruns degrade the
    /// result (best-so-far, typed status) — they never hang the request.
    pub deadline_s: Option<f64>,
    /// Search objective assembled from the request's `objective` /
    /// `mem_weight` / `rw_weight` / `mem_budget` / `penalize` fields;
    /// `None` (no objective fields at all) uses the daemon default
    /// (time-only).
    pub objective: Option<Objective>,
}

impl Request {
    /// Parse one request line. Malformed JSON, a missing/unknown `op`,
    /// a tune without a workload, or a tune field of the wrong JSON type
    /// (named in the error) is a typed [`BarracudaError::Serve`].
    pub fn parse(line: &str) -> Result<Request, BarracudaError> {
        let v = Json::parse(line).map_err(|e| BarracudaError::Serve {
            detail: format!("malformed request line: {e}"),
        })?;
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| BarracudaError::Serve {
                detail: "request has no \"op\" field".to_string(),
            })?;
        match op {
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "backends" => Ok(Request::Backends),
            "shutdown" => Ok(Request::Shutdown),
            "tune" => {
                let workload = field(&v, "workload", "a string", Json::as_str)?
                    .ok_or_else(|| BarracudaError::Serve {
                        detail: "tune request has no \"workload\" field".to_string(),
                    })?
                    .to_string();
                Ok(Request::Tune(TuneRequest {
                    id: field(&v, "id", "a string", Json::as_str)?.map(str::to_string),
                    workload,
                    backend: field(&v, "backend", "a string backend key", Json::as_str)?
                        .map(str::to_string),
                    evals: field(&v, "evals", "a non-negative integer", Json::as_u64)?
                        .map(|n| n as usize),
                    quick: field(&v, "quick", "a boolean", Json::as_bool)?,
                    deadline_s: field(&v, "deadline_s", "a number of seconds", Json::as_f64)?,
                    objective: parse_objective(&v)?,
                }))
            }
            other => Err(BarracudaError::Serve {
                detail: format!("unknown op \"{other}\""),
            }),
        }
    }
}

/// A tune request's objective from its optional fields: preset
/// (`objective`), weight overrides (`mem_weight` / `rw_weight`), budget
/// (`mem_budget` bytes) and mode (`penalize`). `Ok(None)` when no
/// objective field is present. Only the JSON types are checked here;
/// [`Objective::from_request`] accepts and refuses the values exactly as
/// it does for the CLI's flags. Either failure is a typed
/// [`BarracudaError::Serve`].
fn parse_objective(v: &Json) -> Result<Option<Objective>, BarracudaError> {
    let has_any = [
        "objective",
        "mem_weight",
        "rw_weight",
        "mem_budget",
        "penalize",
    ]
    .iter()
    .any(|k| v.get(k).is_some());
    if !has_any {
        return Ok(None);
    }
    Objective::from_request(
        field(v, "objective", "a string preset name", Json::as_str)?,
        field(v, "mem_weight", "a number", Json::as_f64)?,
        field(v, "rw_weight", "a number", Json::as_f64)?,
        field(v, "mem_budget", "an integer byte count", Json::as_u64)?,
        field(v, "penalize", "a boolean", Json::as_bool)?.unwrap_or(false),
    )
    .map(Some)
    .map_err(|detail| BarracudaError::Serve { detail })
}

/// Field `key` of `v` read by `read`: `None` when absent, a typed
/// [`BarracudaError::Serve`] naming the `want`ed type when `read` refuses it.
fn field<'a, T>(
    v: &'a Json,
    key: &str,
    want: &str,
    read: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<Option<T>, BarracudaError> {
    v.get(key)
        .map(|x| {
            read(x).ok_or_else(|| BarracudaError::Serve {
                detail: format!("field \"{key}\" must be {want}"),
            })
        })
        .transpose()
}

/// Where a served tune came from, as reported on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServedSource {
    /// Store hit: replayed, zero search evaluations.
    Hit,
    /// Store miss: SURF searched and the plan was persisted.
    Searched,
    /// No store attached: searched, nothing persisted.
    Detached,
}

impl ServedSource {
    /// The wire token (`"hit"` / `"searched"` / `"detached"`).
    pub fn token(self) -> &'static str {
        match self {
            ServedSource::Hit => "hit",
            ServedSource::Searched => "searched",
            ServedSource::Detached => "detached",
        }
    }
}

/// The shareable result of one tune — what coalesced duplicates receive
/// (every follower formats the *same* `Arc<ServedTune>`, so responses
/// are bit-identical up to the echoed request id).
#[derive(Clone, Debug)]
pub struct ServedTune {
    /// Resolved workload name.
    pub workload: String,
    /// Backend registry key.
    pub backend: String,
    /// Architecture display name (`Tesla K20`, …).
    pub arch: String,
    pub source: ServedSource,
    pub gpu_seconds: f64,
    pub gflops_device: f64,
    pub gflops: f64,
    /// Search provenance: evaluations recorded in the plan (identical
    /// hit vs. miss — it describes the tuning, not this request).
    pub n_evals: usize,
    /// Full configuration-space size (stringified on the wire: u128).
    pub space_size: u128,
    /// Evaluations this *request* performed: 0 on a store hit.
    pub evals_performed: usize,
    /// Quarantine entries carried by the result.
    pub quarantined: usize,
    /// Degraded reason, when the search stopped early.
    pub degraded: Option<String>,
    /// The objective the result was tuned under
    /// ([`Objective::describe`] form, e.g. `time-only`).
    pub objective: String,
    /// Modeled peak live temporary bytes of the served configuration.
    pub peak_temp_bytes: u64,
    /// The CLI timing line, byte-identical between a fresh search and a
    /// store-hit replay of the same plan.
    pub timing: String,
}

/// Successful tune response for one request.
pub fn tune_response(id: Option<&str>, t: &ServedTune) -> Json {
    let mut obj = vec![
        ("ok".to_string(), Json::Bool(true)),
        ("op".to_string(), Json::Str("tune".to_string())),
    ];
    if let Some(id) = id {
        obj.push(("id".to_string(), Json::Str(id.to_string())));
    }
    obj.extend([
        ("workload".to_string(), Json::Str(t.workload.clone())),
        ("backend".to_string(), Json::Str(t.backend.clone())),
        ("arch".to_string(), Json::Str(t.arch.clone())),
        (
            "source".to_string(),
            Json::Str(t.source.token().to_string()),
        ),
        ("gpu_us".to_string(), Json::Num(t.gpu_seconds * 1e6)),
        ("gflops_device".to_string(), Json::Num(t.gflops_device)),
        ("gflops".to_string(), Json::Num(t.gflops)),
        ("evals".to_string(), Json::Num(t.n_evals as f64)),
        ("space".to_string(), Json::Str(t.space_size.to_string())),
        (
            "evals_performed".to_string(),
            Json::Num(t.evals_performed as f64),
        ),
        ("quarantined".to_string(), Json::Num(t.quarantined as f64)),
        (
            "degraded".to_string(),
            match &t.degraded {
                Some(reason) => Json::Str(reason.clone()),
                None => Json::Null,
            },
        ),
        ("objective".to_string(), Json::Str(t.objective.clone())),
        (
            "peak_temp_bytes".to_string(),
            Json::Str(t.peak_temp_bytes.to_string()),
        ),
        ("timing".to_string(), Json::Str(t.timing.clone())),
    ]);
    Json::Obj(obj)
}

/// Trivial success response (`ping`, `shutdown`).
pub fn ack_response(op: &str) -> Json {
    Json::Obj(vec![
        ("ok".to_string(), Json::Bool(true)),
        ("op".to_string(), Json::Str(op.to_string())),
    ])
}

/// Failure response to a line [`Request::parse`] refused. It echoes the
/// line's own string `"op"` and `"id"` when the line is a JSON object, so
/// a pipelining client can match the refusal like any other response; a
/// line that is not JSON (or names no `"op"`) answers as `"op":"error"`.
/// The line is parsed a second time here, on the error path only.
pub fn refusal_response(line: &str, err: &BarracudaError) -> Json {
    let request = Json::parse(line).ok();
    let field = |key| request.as_ref()?.get(key)?.as_str();
    error_response(field("op").unwrap_or("error"), field("id"), err)
}

/// Failure response: typed stage + the exit code the CLI maps it to. A
/// [`BarracudaError::Busy`] rejection (the protocol's 429) additionally
/// carries `retry_after_ms`, the daemon's back-off hint, so clients can
/// retry with informed jitter instead of hammering a saturated pool.
pub fn error_response(op: &str, id: Option<&str>, err: &BarracudaError) -> Json {
    let mut obj = vec![
        ("ok".to_string(), Json::Bool(false)),
        ("op".to_string(), Json::Str(op.to_string())),
    ];
    if let Some(id) = id {
        obj.push(("id".to_string(), Json::Str(id.to_string())));
    }
    obj.extend([
        ("stage".to_string(), Json::Str(err.stage().to_string())),
        ("error".to_string(), Json::Str(err.to_string())),
        (
            "exit_code".to_string(),
            Json::Num(f64::from(err.exit_code())),
        ),
    ]);
    if let BarracudaError::Busy { retry_after_ms, .. } = err {
        obj.push((
            "retry_after_ms".to_string(),
            Json::Num(*retry_after_ms as f64),
        ));
    }
    Json::Obj(obj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::BudgetMode;

    #[test]
    fn parses_every_op() {
        assert_eq!(Request::parse(r#"{"op":"ping"}"#).unwrap(), Request::Ping);
        assert_eq!(Request::parse(r#"{"op":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(
            Request::parse(r#"{"op":"backends"}"#).unwrap(),
            Request::Backends
        );
        assert_eq!(
            Request::parse(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
        let t = Request::parse(
            r#"{"op":"tune","id":"r1","workload":"builtin:tce","backend":"k20","evals":40,"quick":true,"deadline_s":2.5}"#,
        )
        .unwrap();
        assert_eq!(
            t,
            Request::Tune(TuneRequest {
                id: Some("r1".to_string()),
                workload: "builtin:tce".to_string(),
                backend: Some("k20".to_string()),
                evals: Some(40),
                quick: Some(true),
                deadline_s: Some(2.5),
                objective: None,
            })
        );
    }

    #[test]
    fn parses_objective_fields() {
        let t = Request::parse(
            r#"{"op":"tune","workload":"tce","objective":"balanced","mem_budget":1048576,"penalize":true}"#,
        )
        .unwrap();
        let Request::Tune(req) = t else {
            panic!("expected a tune request")
        };
        let o = req.objective.expect("objective fields must be parsed");
        assert!(o.same_as(&Objective {
            mem_budget: Some(1_048_576),
            budget_mode: BudgetMode::Penalize,
            ..Objective::balanced()
        }));

        // Weight overrides on top of the time-only base.
        let t = Request::parse(r#"{"op":"tune","workload":"tce","mem_weight":2.5}"#).unwrap();
        let Request::Tune(req) = t else {
            panic!("expected a tune request")
        };
        let o = req.objective.unwrap();
        assert_eq!(o.mem_weight, 2.5);
        assert_eq!(o.rw_weight, 0.0);
        assert_eq!(o.mem_budget, None);

        // No objective fields at all: None, daemon default applies.
        let t = Request::parse(r#"{"op":"tune","workload":"tce"}"#).unwrap();
        let Request::Tune(req) = t else {
            panic!("expected a tune request")
        };
        assert_eq!(req.objective, None);
    }

    #[test]
    fn malformed_objective_fields_are_typed_serve_errors() {
        for line in [
            r#"{"op":"tune","workload":"tce","objective":"fastest"}"#,
            r#"{"op":"tune","workload":"tce","mem_weight":-1}"#,
            r#"{"op":"tune","workload":"tce","mem_budget":"lots"}"#,
            r#"{"op":"tune","workload":"tce","penalize":"yes"}"#,
            r#"{"op":"tune","workload":"tce","penalize":true}"#,
        ] {
            let err = Request::parse(line).unwrap_err();
            assert_eq!(err.stage(), "serve", "line {line:?}");
            assert_eq!(err.exit_code(), 12);
        }
    }

    #[test]
    fn malformed_lines_are_typed_serve_errors() {
        for line in ["", "not json", "{}", r#"{"op":"fly"}"#, r#"{"op":"tune"}"#] {
            let err = Request::parse(line).unwrap_err();
            assert_eq!(err.stage(), "serve", "line {line:?}");
            assert_eq!(err.exit_code(), 12);
        }
    }

    #[test]
    fn responses_are_single_lines_that_round_trip() {
        let t = ServedTune {
            workload: "tce".to_string(),
            backend: "k20".to_string(),
            arch: "Tesla K20".to_string(),
            source: ServedSource::Hit,
            gpu_seconds: 1.5e-4,
            gflops_device: 12.0,
            gflops: 8.0,
            n_evals: 40,
            space_size: 123456789,
            evals_performed: 0,
            quarantined: 2,
            degraded: None,
            objective: "time-only".to_string(),
            peak_temp_bytes: 4096,
            timing: "K20   150 us".to_string(),
        };
        let line = tune_response(Some("r1"), &t).to_string_compact();
        assert!(!line.contains('\n'));
        let back = Json::parse(&line).unwrap();
        assert_eq!(back.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(back.get("id").and_then(Json::as_str), Some("r1"));
        assert_eq!(back.get("source").and_then(Json::as_str), Some("hit"));
        assert_eq!(back.get("space").and_then(Json::as_str), Some("123456789"));
        assert_eq!(back.get("evals_performed").and_then(Json::as_u64), Some(0));
        assert_eq!(
            back.get("objective").and_then(Json::as_str),
            Some("time-only")
        );
        assert_eq!(
            back.get("peak_temp_bytes").and_then(Json::as_str),
            Some("4096")
        );

        let err = BarracudaError::Serve {
            detail: "nope".to_string(),
        };
        let e = error_response("tune", None, &err).to_string_compact();
        let back = Json::parse(&e).unwrap();
        assert_eq!(back.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(back.get("exit_code").and_then(Json::as_u64), Some(12));
        assert_eq!(back.get("retry_after_ms"), None);
    }

    #[test]
    fn busy_response_carries_retry_after_hint() {
        let err = BarracudaError::Busy {
            detail: "pool full".to_string(),
            retry_after_ms: 250,
        };
        let e = error_response("tune", Some("r9"), &err).to_string_compact();
        let back = Json::parse(&e).unwrap();
        assert_eq!(back.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(back.get("stage").and_then(Json::as_str), Some("busy"));
        assert_eq!(back.get("exit_code").and_then(Json::as_u64), Some(13));
        assert_eq!(back.get("retry_after_ms").and_then(Json::as_u64), Some(250));
    }
}
