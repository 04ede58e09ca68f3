//! `barracuda serve` — the tuning-as-a-service daemon.
//!
//! A [`Daemon`] is one long-lived [`TuningSession`] behind a
//! line-delimited JSON protocol ([`protocol`]): every request routes
//! through the same per-workload [`crate::cache::EvalCache`]s and the
//! same (optional) content-addressed plan store, so the paper's
//! compile-once/run-many loop (§5) becomes a network service. Five
//! properties the tests pin:
//!
//! - **Store hits replay.** A warm request never searches: the stored
//!   plan replays with zero search evaluations and the response's timing
//!   line is byte-identical to the one the original search printed.
//! - **Identical misses coalesce.** Concurrent requests for the same
//!   `(workload, backend, parameters)` run *one* search: the first
//!   becomes the leader, the rest wait on its [`ServedTune`] and answer
//!   with bit-identical results. Duplicate work is counted, not done.
//! - **Deadlines degrade, never hang.** A request deadline flows into
//!   [`TuneParams::wall_deadline_s`]; overrun returns best-so-far with
//!   the typed degraded status. A coalesced waiter is *always* bounded:
//!   by its deadline plus a fixed grace when it set one, by the
//!   server-side [`ServeOptions::follower_wait_s`] otherwise — overrun
//!   fails with a typed [`BarracudaError::Serve`], never a hang.
//! - **Cold searches are admitted, not unleashed.** A bounded permit
//!   pool ([`admission::AdmissionGate`], sized by `--max-searches`) plus
//!   a bounded wait queue (`--queue`) cap concurrent SURF searches.
//!   Overflow is rejected with a typed [`BarracudaError::Busy`] (exit
//!   13) carrying a `retry_after_ms` hint derived from recent search
//!   duration. Store hits bypass the gate entirely and coalesced
//!   followers ride their leader's permit, so warm traffic keeps
//!   flowing while a cold storm saturates the pool.
//! - **Chaos is survivable.** A seeded [`chaos::ChaosPlan`] can make
//!   leader searches panic or stall and make the transport drop
//!   responses; the daemon keeps serving, permits are released by RAII,
//!   and every injected failure surfaces as a typed error.
//!
//! Transports ([`transport`]): sequential stdio (deterministic — what CI
//! scripts drive) and thread-per-connection TCP or Unix sockets (where
//! coalescing actually overlaps). Tests and the load generator skip the
//! transport and call [`Daemon::handle_line`] directly.

pub mod admission;
pub mod chaos;
pub mod metrics;
pub mod protocol;
pub mod transport;

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::backend::BackendSet;
use crate::error::BarracudaError;
use crate::json::Json;
use crate::kernels;
use crate::pipeline::{TuneParams, TunedWorkload, WorkloadTuner};
use crate::report::fmt_tune;
use crate::session::{PlanSource, TuningSession};
use crate::store::{PlanStore, StoreFaultPlan, StoreOptions};
use crate::workload::Workload;

pub use admission::{AdmissionGate, AdmitReject, Permit};
pub use chaos::{ChaosEvent, ChaosPlan};
pub use metrics::{MetricsSnapshot, ServeMetrics};
pub use protocol::{Request, ServedSource, ServedTune, TuneRequest};
pub use transport::Listen;

/// Extra wall-clock a coalesced follower grants the leader past the
/// request deadline: the search stops at the next *batch boundary* after
/// the deadline, so the tail of one batch must fit inside the grace.
const COALESCE_GRACE_S: f64 = 30.0;

/// Default server-side cap on a coalesced follower's wait when the
/// request set no deadline (seconds). Generous — a paper-profile search
/// finishes well inside it — but finite: no request ever waits forever.
pub const DEFAULT_FOLLOWER_WAIT_S: f64 = 600.0;

/// Daemon-wide defaults for fields a tune request leaves unset.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Plan store directory; `None` serves without persistence (every
    /// cold request searches, warmth only via coalescing and caches).
    pub store: Option<PathBuf>,
    /// Default backend registry key for requests without `"backend"`.
    pub backend: String,
    /// Default parameter profile: `true` = quick, `false` = paper.
    pub quick: bool,
    /// Default SURF evaluation budget (`None`: the profile's own).
    pub evals: Option<usize>,
    /// Default per-request deadline in seconds.
    pub deadline_s: Option<f64>,
    /// Cold-search permit pool size (`--max-searches`); `None` sizes it
    /// to the machine's available parallelism.
    pub max_searches: Option<usize>,
    /// Wait-queue depth for cold searches (`--queue`); `None` matches
    /// the permit pool size.
    pub queue: Option<usize>,
    /// Server-side wait cap (seconds) for coalesced followers and queued
    /// leaders whose request set no deadline.
    pub follower_wait_s: f64,
    /// Fsync plan-store writes (`--fsync`): survive power loss, not just
    /// process crash.
    pub durable: bool,
    /// Architecture descriptor files (`--arch-file`) loaded into the
    /// daemon's backend set at startup, in order.
    pub arch_files: Vec<PathBuf>,
    /// Directory of `*.toml` descriptors (`--arch-dir`) loaded after
    /// `arch_files`, sorted by file name.
    pub arch_dir: Option<PathBuf>,
    /// Serve-level chaos plan (tests and the chaos harness only).
    pub chaos: ChaosPlan,
    /// Store-level I/O fault plan (tests and the chaos harness only).
    pub store_faults: StoreFaultPlan,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            store: None,
            backend: "gtx980".to_string(),
            quick: false,
            evals: None,
            deadline_s: None,
            max_searches: None,
            queue: None,
            follower_wait_s: DEFAULT_FOLLOWER_WAIT_S,
            durable: false,
            arch_files: Vec::new(),
            arch_dir: None,
            chaos: ChaosPlan::none(),
            store_faults: StoreFaultPlan::none(),
        }
    }
}

/// One handled request line: the response line (compact JSON, no
/// newline), whether this request asked the daemon to stop, and whether
/// the chaos plan told the transport to drop the response instead of
/// writing it.
#[derive(Clone, Debug)]
pub struct LineOutcome {
    pub response: String,
    pub shutdown: bool,
    /// Chaos: the transport should sever the connection (or swallow the
    /// line, on stdio) instead of delivering `response`. The work still
    /// happened and was still published/persisted.
    pub drop_connection: bool,
}

/// The slot duplicates rendezvous on: the leader publishes exactly once,
/// then wakes every waiter.
#[derive(Default)]
struct InFlight {
    slot: Mutex<Option<Result<Arc<ServedTune>, BarracudaError>>>,
    ready: Condvar,
}

enum Role {
    Leader(Arc<InFlight>),
    Follower(Arc<InFlight>),
}

/// The serving daemon: one shared session, the in-flight coalescing map,
/// the admission gate, and counters. The session holds each workload's
/// record (its cache and its lowering, built on the first request that
/// names it), so warm requests replay against a lowering built once.
/// `&self` everywhere — transports share one daemon across threads.
pub struct Daemon {
    session: TuningSession,
    options: ServeOptions,
    /// In-flight tunes by coalescing key; entries live from the leader's
    /// insertion to just after it publishes.
    inflight: Mutex<HashMap<(u64, String, u64), Arc<InFlight>>>,
    /// Cold-search admission: bounded permits + bounded wait queue.
    gate: AdmissionGate,
    metrics: ServeMetrics,
    shutdown: AtomicBool,
    /// Monotone request sequence — the chaos plan's decision key.
    req_seq: AtomicU64,
    /// EWMA of recent leader search wall time (ms), feeding the
    /// `retry_after_ms` hint in Busy rejections. 0 until the first
    /// search completes.
    search_ewma_ms: AtomicU64,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Permit pool size when `--max-searches` is not given: the machine's
/// available parallelism (at least 1).
fn default_max_searches() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

impl Daemon {
    /// Build a daemon. Fallible parts: opening the plan store, loading
    /// the architecture descriptors, and validating that the default
    /// backend exists in the loaded set and is searchable.
    pub fn new(options: ServeOptions) -> Result<Daemon, BarracudaError> {
        let (set, _) =
            BackendSet::with_descriptors(&options.arch_files, options.arch_dir.as_deref())?;
        set.searchable(&options.backend)
            .map_err(|reason| BarracudaError::Serve {
                detail: format!("default backend: {reason}"),
            })?;
        let session = match &options.store {
            Some(root) => {
                let store = PlanStore::open_with(
                    root.clone(),
                    StoreOptions {
                        durable: options.durable,
                        faults: options.store_faults,
                    },
                )?;
                TuningSession::with_plan_store(store)
            }
            None => TuningSession::new(),
        }
        .with_backends(Arc::new(set));
        let max = options.max_searches.unwrap_or_else(default_max_searches);
        let queue = options.queue.unwrap_or(max);
        Ok(Daemon {
            session,
            options,
            inflight: Mutex::new(HashMap::new()),
            gate: AdmissionGate::new(max, queue),
            metrics: ServeMetrics::default(),
            shutdown: AtomicBool::new(false),
            req_seq: AtomicU64::new(0),
            search_ewma_ms: AtomicU64::new(0),
        })
    }

    /// The daemon's counters (live; snapshot to read them consistently).
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// A consistent metrics snapshot, including the store's corruption
    /// quarantine count and the admission gate's current depth — what
    /// the `stats` op and the transports' shutdown line report.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut s = self.metrics.snapshot();
        s.store_corrupt = self
            .session
            .store()
            .map(PlanStore::corrupt_quarantined)
            .unwrap_or(0);
        let (active, queued) = self.gate.depth();
        s.active_searches = active;
        s.queued_searches = queued;
        s.backends_loaded = self.session.backends().len();
        s
    }

    /// The `backends` op: every backend in the daemon's loaded set, with
    /// its cache salt (the descriptor digest, for GPU backends) so
    /// clients can tell which machine description will address their
    /// plans — and which one is the default for requests that name none.
    fn backends_json(&self) -> Json {
        let list = self
            .session
            .backends()
            .iter()
            .map(|b| {
                Json::Obj(vec![
                    ("key".to_string(), Json::Str(b.key().to_string())),
                    ("name".to_string(), Json::Str(b.name().to_string())),
                    ("searchable".to_string(), Json::Bool(b.caps().searchable)),
                    (
                        "salt".to_string(),
                        Json::Str(format!("{:016x}", b.cache_salt())),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("ok".to_string(), Json::Bool(true)),
            ("op".to_string(), Json::Str("backends".to_string())),
            (
                "default".to_string(),
                Json::Str(self.options.backend.clone()),
            ),
            ("backends".to_string(), Json::Arr(list)),
        ])
    }

    /// The underlying session (tests reach its caches through this).
    pub fn session(&self) -> &TuningSession {
        &self.session
    }

    /// The cold-search admission gate (tests assert on its depth).
    pub fn gate(&self) -> &AdmissionGate {
        &self.gate
    }

    /// `true` once a shutdown request was handled.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Handle one request line end-to-end: parse, dispatch, count, and
    /// render the one response line. Never panics and never blocks
    /// beyond the request's own deadline plus the coalescing grace (or
    /// the server-side wait cap).
    pub fn handle_line(&self, line: &str) -> LineOutcome {
        let start = Instant::now();
        let seq = self.req_seq.fetch_add(1, Ordering::Relaxed);
        self.metrics.requests.fetch_add(1, Ordering::Relaxed);
        let mut shutdown = false;
        let response: Json = match Request::parse(line) {
            Err(e) => {
                self.metrics.errors.fetch_add(1, Ordering::Relaxed);
                protocol::error_response("error", None, &e)
            }
            Ok(Request::Ping) => protocol::ack_response("ping"),
            Ok(Request::Stats) => self.snapshot().to_json(),
            Ok(Request::Backends) => self.backends_json(),
            Ok(Request::Shutdown) => {
                self.shutdown.store(true, Ordering::SeqCst);
                shutdown = true;
                protocol::ack_response("shutdown")
            }
            Ok(Request::Tune(req)) => match self.serve_tune_at(&req, seq) {
                Ok(t) => {
                    self.metrics.tunes.fetch_add(1, Ordering::Relaxed);
                    self.metrics
                        .quarantined
                        .fetch_add(t.quarantined, Ordering::Relaxed);
                    if t.degraded.is_some() {
                        self.metrics.degraded.fetch_add(1, Ordering::Relaxed);
                    }
                    protocol::tune_response(req.id.as_deref(), &t)
                }
                Err(e) => {
                    // Busy is load shedding, not failure: counted apart
                    // so a saturation run can tell rejections from bugs.
                    match &e {
                        BarracudaError::Busy { .. } => {
                            self.metrics.busy.fetch_add(1, Ordering::Relaxed)
                        }
                        _ => self.metrics.errors.fetch_add(1, Ordering::Relaxed),
                    };
                    protocol::error_response("tune", req.id.as_deref(), &e)
                }
            },
        };
        self.metrics
            .record_latency_us(start.elapsed().as_micros() as u64);
        LineOutcome {
            response: response.to_string_compact(),
            shutdown,
            drop_connection: self.options.chaos.decide_drop(seq),
        }
    }

    /// Serve one tune request, coalescing with identical in-flight ones.
    /// Allocates its own chaos sequence number — transports go through
    /// [`Daemon::handle_line`] instead.
    pub fn serve_tune(&self, req: &TuneRequest) -> Result<Arc<ServedTune>, BarracudaError> {
        let seq = self.req_seq.fetch_add(1, Ordering::Relaxed);
        self.serve_tune_at(req, seq)
    }

    /// Serve one tune request with an explicit chaos sequence number.
    fn serve_tune_at(
        &self,
        req: &TuneRequest,
        seq: u64,
    ) -> Result<Arc<ServedTune>, BarracudaError> {
        // Draining: in-flight leaders finish and publish, new tunes are
        // shed with a typed Busy so clients fail over instead of hanging
        // on a daemon that is going away.
        if self.is_shutdown() {
            return Err(BarracudaError::Busy {
                detail: "daemon is draining for shutdown — retry against another instance"
                    .to_string(),
                retry_after_ms: self.recent_search_ms(),
            });
        }
        let workload = resolve_workload(&req.workload)?;
        let backend = req
            .backend
            .clone()
            .unwrap_or_else(|| self.options.backend.clone());
        let params = self.params_for(req);

        // Warm fast path: probe the store *before* admission control and
        // before taking a coalescing slot. A replayed hit costs zero
        // search evaluations, so it must keep flowing even while a cold
        // storm holds every permit.
        let tuner = self.session.tuner_for(&workload);
        if let Some(hit) = self
            .session
            .replay_hit(&tuner, &backend, &params.objective)?
        {
            self.metrics.store_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::new(served_from(
                &hit.tuned,
                &backend,
                ServedSource::Hit,
            )));
        }

        let key = self.coalesce_key(&workload, &backend, &params)?;
        let role = {
            let mut map = lock(&self.inflight);
            match map.entry(key.clone()) {
                Entry::Occupied(e) => Role::Follower(Arc::clone(e.get())),
                Entry::Vacant(e) => {
                    let f = Arc::new(InFlight::default());
                    e.insert(Arc::clone(&f));
                    Role::Leader(f)
                }
            }
        };
        match role {
            // Followers ride the leader's permit: they hold no admission
            // slot and cost no search, only a bounded wait.
            Role::Follower(flight) => {
                self.metrics.coalesced.fetch_add(1, Ordering::Relaxed);
                wait_for_leader(
                    &flight,
                    params.wall_deadline_s,
                    self.options.follower_wait_s,
                )
            }
            Role::Leader(flight) => {
                let result = self.lead_tune(&tuner, &backend, params, seq);
                *lock(&flight.slot) = Some(result.clone());
                flight.ready.notify_all();
                lock(&self.inflight).remove(&key);
                result
            }
        }
    }

    /// The leader's path: admission (bounded queue wait, typed Busy on
    /// overflow), then the search under `catch_unwind` with the permit
    /// held by RAII — a panicking search still releases its slot and
    /// still publishes a typed error to its followers.
    fn lead_tune(
        &self,
        tuner: &WorkloadTuner,
        backend: &str,
        params: TuneParams,
        seq: u64,
    ) -> Result<Arc<ServedTune>, BarracudaError> {
        let wait_cap = Duration::from_secs_f64(
            params
                .wall_deadline_s
                .map(|d| d.max(0.0) + COALESCE_GRACE_S)
                .unwrap_or(self.options.follower_wait_s)
                .max(0.0),
        );
        let permit = match self.gate.admit(wait_cap) {
            Ok(p) => p,
            Err(reject) => return Err(self.gate.busy_error(&reject, self.recent_search_ms())),
        };
        let started = Instant::now();
        let chaos = self.options.chaos;
        let result = catch_unwind(AssertUnwindSafe(|| {
            match chaos.decide_search(seq) {
                Some(ChaosEvent::PanicSearch) => {
                    panic!("chaos: injected leader-search panic (request seq {seq})")
                }
                Some(ChaosEvent::SlowSearch) => {
                    std::thread::sleep(Duration::from_millis(chaos.slow_ms));
                }
                Some(ChaosEvent::DropResponse) | None => {}
            }
            self.tune_once(tuner, backend, params)
        }))
        .unwrap_or_else(|panic| {
            Err(BarracudaError::Serve {
                detail: format!("tune panicked: {}", panic_message(panic.as_ref())),
            })
        })
        .map(Arc::new);
        self.note_search_ms(started.elapsed().as_millis() as u64);
        drop(permit);
        result
    }

    /// The leader's actual tune: store-first through the shared session
    /// over the session's lowering.
    fn tune_once(
        &self,
        tuner: &WorkloadTuner,
        backend: &str,
        params: TuneParams,
    ) -> Result<ServedTune, BarracudaError> {
        let out = self.session.tune(tuner, backend, params)?;
        let source = match &out.source {
            PlanSource::StoreHit { .. } => ServedSource::Hit,
            PlanSource::Searched { stored: Some(_) } => ServedSource::Searched,
            PlanSource::Searched { stored: None } => ServedSource::Detached,
        };
        match source {
            ServedSource::Hit => self.metrics.store_hits.fetch_add(1, Ordering::Relaxed),
            _ => self.metrics.store_misses.fetch_add(1, Ordering::Relaxed),
        };
        Ok(served_from(&out.tuned, backend, source))
    }

    /// Recent leader search wall time in milliseconds (EWMA), floored so
    /// the `retry_after_ms` hint is never zero. Before any search
    /// completes the floor alone answers.
    fn recent_search_ms(&self) -> u64 {
        self.search_ewma_ms.load(Ordering::Relaxed).max(50)
    }

    /// Fold one finished search's wall time into the EWMA (¾ old, ¼
    /// new). Racy read-modify-write is fine: this feeds a back-off hint,
    /// not an invariant.
    fn note_search_ms(&self, sample_ms: u64) {
        let old = self.search_ewma_ms.load(Ordering::Relaxed);
        let next = if old == 0 {
            sample_ms
        } else {
            (old.saturating_mul(3).saturating_add(sample_ms)) / 4
        };
        self.search_ewma_ms.store(next, Ordering::Relaxed);
    }

    /// Request parameters: each field the request sets, else the daemon's
    /// default, over the chosen profile.
    fn params_for(&self, req: &TuneRequest) -> TuneParams {
        TuneParams::profile(
            req.quick.unwrap_or(self.options.quick),
            req.evals.or(self.options.evals),
            req.deadline_s.or(self.options.deadline_s),
            req.objective.unwrap_or_default(),
        )
    }

    /// The coalescing key: workload fingerprint + backend + a digest of
    /// every parameter that changes the result. Two requests with equal
    /// keys are interchangeable, so one may answer for both.
    fn coalesce_key(
        &self,
        workload: &Workload,
        backend: &str,
        params: &TuneParams,
    ) -> Result<(u64, String, u64), BarracudaError> {
        // Validates the backend key early: an unknown backend fails the
        // request before it can occupy a coalescing slot.
        let key = self.session.key_for(workload, backend)?;
        let mut h = DefaultHasher::new();
        params.surf.max_evals.hash(&mut h);
        params.surf.batch_size.hash(&mut h);
        params.surf.seed.hash(&mut h);
        params
            .wall_deadline_s
            .unwrap_or(f64::NAN)
            .to_bits()
            .hash(&mut h);
        key.cache_salt.hash(&mut h);
        // Different objectives produce different winners: never coalesce
        // across them.
        params.objective.digest().hash(&mut h);
        Ok((key.fingerprint, key.backend, h.finish()))
    }
}

/// Follower wait: until the leader publishes, bounded by the request
/// deadline plus [`COALESCE_GRACE_S`] when one is set, by the
/// server-side `follower_wait_s` cap otherwise. Always finite: a wedged
/// leader costs its followers a typed error, never a hang.
fn wait_for_leader(
    flight: &InFlight,
    deadline_s: Option<f64>,
    follower_wait_s: f64,
) -> Result<Arc<ServedTune>, BarracudaError> {
    let cap = Duration::from_secs_f64(
        deadline_s
            .map(|d| d.max(0.0) + COALESCE_GRACE_S)
            .unwrap_or(follower_wait_s)
            .max(0.0),
    );
    let start = Instant::now();
    let mut slot = lock(&flight.slot);
    loop {
        if let Some(result) = slot.as_ref() {
            return result.clone();
        }
        let left = cap.checked_sub(start.elapsed()).unwrap_or(Duration::ZERO);
        if left.is_zero() {
            let bound = match deadline_s {
                Some(d) => format!("{d:.1}s deadline + {COALESCE_GRACE_S:.0}s grace"),
                None => format!("{follower_wait_s:.0}s server-side wait cap"),
            };
            return Err(BarracudaError::Serve {
                detail: format!(
                    "coalesced wait outlived its bound ({bound}) — the leading tune did not \
                     publish in time"
                ),
            });
        }
        slot = match flight.ready.wait_timeout(slot, left) {
            Ok((g, _)) => g,
            Err(poisoned) => poisoned.into_inner().0,
        };
    }
}

/// Resolve a request's workload spec (`builtin:NAME` or bare name).
fn resolve_workload(spec: &str) -> Result<Workload, BarracudaError> {
    let name = spec.strip_prefix("builtin:").unwrap_or(spec);
    kernels::builtin(name).ok_or_else(|| BarracudaError::Serve {
        detail: format!(
            "unknown workload \"{spec}\" — serve resolves builtin workloads only \
             (eqn1, lg3, lg3t, tce, s1_1..s1_9, d1_1..d1_9, d2_1..d2_9)"
        ),
    })
}

/// Project a tuned result onto the wire struct. The timing line is the
/// CLI `tune` line ([`fmt_tune`]), so a store-hit replay prints
/// byte-identical to the search that produced the plan.
fn served_from(tuned: &TunedWorkload, backend: &str, source: ServedSource) -> ServedTune {
    ServedTune {
        workload: tuned.name.clone(),
        backend: backend.to_string(),
        arch: tuned.arch_name.clone(),
        source,
        gpu_seconds: tuned.gpu_seconds,
        gflops_device: tuned.gflops_device(),
        gflops: tuned.gflops(),
        n_evals: tuned.search.n_evals,
        space_size: tuned.search.space_size,
        evals_performed: match source {
            ServedSource::Hit => 0,
            _ => tuned.search.n_evals,
        },
        quarantined: tuned.quarantine.len(),
        degraded: match &tuned.status {
            surf::SearchStatus::Complete => None,
            surf::SearchStatus::Degraded { reason } => Some(reason.clone()),
        },
        objective: tuned.objective.describe(),
        peak_temp_bytes: tuned.search.peak_temp_bytes,
        timing: fmt_tune(tuned),
    }
}

/// Best-effort text of a panic payload.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = panic.downcast_ref::<&str>() {
        s
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}
