//! The serving workloads: two closed-loop clients calling
//! `Daemon::handle_line` in process, each sending its next request only
//! after the previous answer.

use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::sync::Mutex;
use std::time::Instant;

use barracuda::json::Json;
use barracuda::stages::frontend::workload_fingerprint;
use barracuda::{
    kernels, BackendSet, Daemon, EvalCache, MetricsSnapshot, PlanStore, ServeOptions, TuneParams,
    TuningSession, WorkloadTuner,
};

use crate::check::{self, Answer};
use crate::layers::{self, Pick, Tuners};
use crate::report::{per_layer, LayerFacts};
use crate::search::set_up;
use crate::stats::{self, geomean, median, mix, percentile, Stream, Window};
use crate::trace::Trace;
use crate::workload::{metric, peak_rss_mb, Outcome, RunOptions, Workload, BUILTINS};

const CLIENTS: usize = 2;
/// A run is split into this many segments, each against a freshly set up
/// and prewarmed daemon, so the set-ups and their cold requests are spread
/// over the run like the load instead of bunched at its start.
const SEGMENTS: usize = 5;
/// Each client's requests are summarised over windows of this length, and
/// the run reports the least disturbed window. The shared machine runs at
/// two speeds about 1.6x apart, switching every few seconds and independently
/// per core, so a median over the whole run reads the mix of speeds more
/// than the daemon; the fastest window of a client reads the daemon on an
/// undisturbed core.
const WINDOW_NS: u64 = 100_000_000;
/// Each client scrapes `stats` once per this many requests.
const STATS_EVERY: usize = 10_000;
/// The traced run replays one warm request in this many through the layers.
const SAMPLE_EVERY: usize = 64;
/// The never-seen architectures of serve-mixed's cold keys.
const COLD_ARCHS: [&str; 4] = ["gtx980", "c2050", "a100", "h100"];
/// Requests per cold key, released together.
const COLD_COPIES: usize = 3;
/// The daemon's fixed per-search budget (quick profile).
const EVALS: usize = 40;
const BACKEND: &str = "k20";

fn options(store: &Path) -> ServeOptions {
    ServeOptions {
        store: Some(store.to_path_buf()),
        backend: BACKEND.to_string(),
        quick: true,
        evals: Some(EVALS),
        max_searches: Some(1),
        queue: Some(1),
        arch_dir: Some(descriptors()),
        ..ServeOptions::default()
    }
}

/// The repository's sample descriptors (A100, H100), found from the package
/// so the path holds whatever the working directory.
fn descriptors() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../descriptors")
}

/// What the daemon tunes a cold request with under [`options`].
fn daemon_params() -> TuneParams {
    let mut p = TuneParams::quick();
    p.surf.max_evals = EVALS;
    p
}

/// Never-seen keys released on a clock while the clients run: key `j` comes
/// due at its slot and is then requested [`COLD_COPIES`] times back to back,
/// by whichever clients are free, so duplicates coalesce.
struct ColdQueue {
    slots_ns: Vec<u64>,
    next_due_ns: AtomicU64,
    pending_len: AtomicUsize,
    state: Mutex<(usize, VecDeque<usize>)>,
}

impl ColdQueue {
    /// Slots spread evenly over the first 90% of a `run_s`-second run.
    fn new(keys: usize, run_s: f64) -> ColdQueue {
        let slots_ns: Vec<u64> = (0..keys)
            .map(|j| ((j as f64 + 0.5) * 0.9 * run_s / keys as f64 * 1e9) as u64)
            .collect();
        ColdQueue {
            next_due_ns: AtomicU64::new(slots_ns.first().copied().unwrap_or(u64::MAX)),
            slots_ns,
            pending_len: AtomicUsize::new(0),
            state: Mutex::new((0, VecDeque::new())),
        }
    }

    /// The next cold key to request at `now_ns` since the window opened.
    fn next(&self, now_ns: u64) -> Option<usize> {
        // Two relaxed loads keep the warm path free of the lock; a stale
        // read only delays a release to the next request.
        if now_ns < self.next_due_ns.load(Ordering::Relaxed)
            && self.pending_len.load(Ordering::Relaxed) == 0
        {
            return None;
        }
        let mut state = self
            .state
            .lock()
            .expect("no client panics holding the queue");
        let (released, pending) = &mut *state;
        while *released < self.slots_ns.len() && self.slots_ns[*released] <= now_ns {
            pending.extend([*released; COLD_COPIES]);
            *released += 1;
        }
        let next_due = self.slots_ns.get(*released).copied().unwrap_or(u64::MAX);
        self.next_due_ns.store(next_due, Ordering::Relaxed);
        let key = pending.pop_front();
        self.pending_len.store(pending.len(), Ordering::Relaxed);
        key
    }
}

/// Everything the clients share.
struct Load<'a> {
    daemon: &'a Daemon,
    tuners: &'a Tuners<'a>,
    warm_lines: Vec<String>,
    /// The byte-exact hit response of each warm line.
    expected: Vec<String>,
    cold_lines: Vec<String>,
    cold: Option<ColdQueue>,
    /// Each client scrapes `stats` once per this many requests.
    stats_every: usize,
    traced: bool,
    seed: u64,
    start: Instant,
    deadline: Instant,
}

#[derive(Default)]
struct ClientLog {
    latency_ns: Vec<u64>,
    /// When each request of `latency_ns` was sent, since the load started.
    sent_ns: Vec<u64>,
    /// Warm answers per builtin.
    warm_answers: Vec<usize>,
    stats_ns: Vec<u64>,
    /// `(cold key, latency, response)` of every cold request.
    cold: Vec<(usize, u64, String)>,
    out: Outcome,
    trace: Option<Trace>,
    /// `handle_line`'s latency for each traced sample.
    traced_ns: Vec<u64>,
    end: Option<Instant>,
}

fn client(load: &Load, c: usize) -> ClientLog {
    let mut log = ClientLog {
        warm_answers: vec![0; load.warm_lines.len()],
        ..ClientLog::default()
    };
    let mut trace = Trace::new(load.traced);
    let mut rng = Stream::new(mix(load.seed, 1000 + c as u64));
    let mut n = 0usize;
    let timed = |line: &str| {
        let t = Instant::now();
        let response = load.daemon.handle_line(line).response;
        (response, t.elapsed().as_nanos() as u64)
    };
    while Instant::now() < load.deadline {
        n += 1;
        log.out.attempted += 1;
        let now_ns = load.start.elapsed().as_nanos() as u64;
        log.sent_ns.push(now_ns);
        if let Some(k) = load.cold.as_ref().and_then(|q| q.next(now_ns)) {
            let (response, ns) = timed(&load.cold_lines[k]);
            log.latency_ns.push(ns);
            log.cold.push((k, ns, response));
            continue;
        }
        if n.is_multiple_of(load.stats_every) {
            let (response, ns) = timed(r#"{"op":"stats"}"#);
            log.latency_ns.push(ns);
            log.stats_ns.push(ns);
            let ok = Json::parse(&response)
                .ok()
                .and_then(|v| v.get("ok")?.as_bool());
            if ok != Some(true) {
                log.out.fail(format!("stats failed: {response}"));
            }
            continue;
        }
        let k = rng.below(load.warm_lines.len());
        let (response, ns) = timed(&load.warm_lines[k]);
        log.latency_ns.push(ns);
        log.warm_answers[k] += 1;
        if response != load.expected[k] {
            log.out.fail(format!(
                "warm response differs from the verified replay: {response}"
            ));
        }
        if load.traced && n.is_multiple_of(SAMPLE_EVERY) {
            trace.set_request(((c as u64) << 40) | n as u64);
            match layers::traced_request(
                &mut trace,
                load.daemon,
                load.tuners,
                &load.warm_lines[k],
                ns,
            ) {
                Ok(again) if again == response => log.traced_ns.push(ns),
                Ok(again) => log.out.fail(format!(
                    "traced request answered {again}, the daemon {response}"
                )),
                Err(e) => log.out.fail(e),
            }
        }
    }
    log.end = Some(Instant::now());
    log.trace = Some(trace);
    log
}

/// Daemon construction plus one cold tune of every builtin on k20: the
/// state a warm serving tier starts from. Returns the daemon and each
/// builtin's cold `(response, latency in ms)`.
fn prewarm(store: &Path) -> Result<(Daemon, Vec<(String, f64)>), String> {
    let daemon = Daemon::new(options(store)).map_err(|e| e.to_string())?;
    let cold = BUILTINS
        .iter()
        .map(|name| {
            let t = Instant::now();
            let response = daemon
                .handle_line(&layers::tune_line(name, BACKEND))
                .response;
            (response, t.elapsed().as_secs_f64() * 1e3)
        })
        .collect();
    Ok((daemon, cold))
}

/// A session over a stopped daemon's store, resolving the same backends:
/// the stored picks are checked against their own lowering once the
/// daemon's memory is released.
fn check_session(store: &Path) -> Result<TuningSession, String> {
    let mut set = BackendSet::builtin();
    set.load_arch_dir(&descriptors())
        .map_err(|e| e.to_string())?;
    let store = PlanStore::open(store).map_err(|e| e.to_string())?;
    Ok(TuningSession::with_plan_store(store).with_backends(Arc::new(set)))
}

/// The stored plan for `(tuner's workload, backend)` must carry a pick the
/// simulator reproduces, and the served `gpu_us` must be its time.
fn stored_pick(
    session: &TuningSession,
    tuner: &WorkloadTuner,
    backend: &str,
    gpu_us: f64,
) -> Result<Pick, String> {
    let key = session
        .key_for(&tuner.workload, backend)
        .map_err(|e| e.to_string())?;
    let plan = session
        .store()
        .expect("the check session has a store")
        .lookup(&key)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| format!("no stored plan for {key}"))?;
    let arch = session
        .backends()
        .get(backend)
        .and_then(|b| b.arch())
        .ok_or_else(|| format!("backend {backend} has no architecture"))?;
    check::pick(tuner, arch, plan.id, plan.gpu_seconds)?;
    if (plan.gpu_seconds * 1e6).to_bits() != gpu_us.to_bits() {
        return Err(format!(
            "{key}: served {gpu_us} us, stored {} s",
            plan.gpu_seconds
        ));
    }
    Ok(Pick {
        id: plan.id,
        gpu_seconds: plan.gpu_seconds,
    })
}

/// One cold request's work the way the daemon's leader does it: the
/// product tune on a fresh cache, its plan encoded and filed, then the
/// traced reconstruction of the same tune, whose pick is returned after
/// checking it against the product's.
fn cold_path(
    trace: &mut Trace,
    session: &TuningSession,
    tuner: &WorkloadTuner,
    backend_key: &str,
    scratch: &PlanStore,
) -> Result<Pick, String> {
    let backend = session
        .backends()
        .get(backend_key)
        .ok_or_else(|| format!("unknown backend {backend_key}"))?;
    let arch = backend.arch().ok_or("backend has no architecture")?;
    let params = daemon_params();
    let tuned = tuner
        .autotune_with_cache(arch, params, &EvalCache::new())
        .map_err(|e| e.to_string())?;
    layers::traced_persist(trace, tuner, backend.as_ref(), &tuned, scratch)?;
    let pick = layers::traced_tune(trace, tuner, arch, &params)?;
    if !pick.same_bits(&Pick::of(&tuned)) {
        return Err(format!(
            "{}: traced and product picks differ",
            tuner.workload.name
        ));
    }
    Ok(pick)
}

/// A plan a daemon served: builtin index, backend, served `gpu_us`, the
/// segment whose store holds it, and whether the traced run rebuilds its
/// search.
struct Stored {
    builtin: usize,
    backend: &'static str,
    gpu_us: f64,
    segment: usize,
    rebuild: bool,
}

/// The prewarm searched every builtin, and each now replays warm with the
/// same device time and timing line. Returns each builtin's verified hit
/// reply, which every later warm answer must equal byte for byte, and the
/// plans to check.
fn verify_prewarm(
    daemon: &Daemon,
    prewarmed: &[(String, f64)],
    segment: usize,
    rebuild: bool,
    out: &mut Outcome,
) -> (Vec<String>, Vec<Stored>) {
    let mut expected = Vec::new();
    let mut stored = Vec::new();
    for (k, (response, _)) in prewarmed.iter().enumerate() {
        let hit = daemon
            .handle_line(&layers::tune_line(BUILTINS[k], BACKEND))
            .response;
        let verified = check::answer(response).and_then(|cold| {
            if cold.source != "searched" {
                return Err(format!("prewarm did not search: {response}"));
            }
            let timing = check::warm_response(&hit, cold.gpu_us, cold.evals)?;
            if timing != cold.timing {
                return Err(format!(
                    "warm timing `{timing}` differs from cold `{}`",
                    cold.timing
                ));
            }
            Ok(cold.gpu_us)
        });
        match verified {
            Ok(gpu_us) => stored.push(Stored {
                builtin: k,
                backend: BACKEND,
                gpu_us,
                segment,
                rebuild,
            }),
            Err(e) => out.fail(format!("{}: {e}", BUILTINS[k])),
        }
        expected.push(hit);
    }
    (expected, stored)
}

/// Every answer to one cold key agrees, one of them searched, and the key
/// now replays warm with the searched timing line.
fn verify_cold_key(daemon: &Daemon, line: &str, answers: &[Answer]) -> Result<(), String> {
    let first = &answers[0];
    if answers
        .iter()
        .any(|a| a.gpu_us.to_bits() != first.gpu_us.to_bits())
    {
        return Err("duplicate requests were answered differently".to_string());
    }
    let searched = answers
        .iter()
        .find(|a| a.source == "searched")
        .ok_or("no request for a never-seen key searched")?;
    let hit = daemon.handle_line(line).response;
    let timing = check::warm_response(&hit, first.gpu_us, first.evals)?;
    if timing != searched.timing {
        return Err(format!(
            "warm timing `{timing}` differs from cold `{}`",
            searched.timing
        ));
    }
    Ok(())
}

/// The plan store of a run's segment `segment`.
fn store_dir(state: &Path, segment: usize) -> PathBuf {
    state.join(format!("store{segment}"))
}

/// Every stored pick against the run's own lowering (`tuners` when the run
/// is traced, else built one contraction at a time); traced, the searches
/// behind the flagged plans are rebuilt through the stage calls.
fn check_stored(
    stored: &mut [Stored],
    state: &Path,
    segments: usize,
    tuners: &[WorkloadTuner],
    trace: &mut Trace,
    out: &mut Outcome,
) {
    let sessions: Result<Vec<TuningSession>, String> = (0..segments)
        .map(|s| check_session(&store_dir(state, s)))
        .collect();
    let (sessions, scratch) = match (sessions, PlanStore::open(state.join("scratch"))) {
        (Ok(sessions), Ok(scratch)) => (sessions, scratch),
        (Err(e), _) => return out.fail(format!("cannot reopen a store: {e}")),
        (_, Err(e)) => return out.fail(format!("cannot open a scratch store: {e}")),
    };
    stored.sort_by_key(|s| s.builtin);
    for group in stored.chunk_by(|a, b| a.builtin == b.builtin) {
        let b = group[0].builtin;
        let own;
        let tuner = match tuners.get(b) {
            Some(t) => t,
            None => {
                own = WorkloadTuner::build(&kernels::builtin(BUILTINS[b]).expect("a builtin"));
                &own
            }
        };
        for s in group {
            let session = &sessions[s.segment];
            let checked = stored_pick(session, tuner, s.backend, s.gpu_us).and_then(|pick| {
                if !(trace.is_on() && s.rebuild) {
                    return Ok(());
                }
                trace.set_request(b as u64);
                let traced = cold_path(trace, session, tuner, s.backend, &scratch)?;
                if !traced.same_bits(&pick) {
                    return Err(format!(
                        "traced search picked {}, the daemon {}",
                        traced.id, pick.id
                    ));
                }
                Ok(())
            });
            if let Err(e) = checked {
                out.fail(format!("{} on {}: {e}", BUILTINS[b], s.backend));
            }
        }
    }
}

/// serve-mixed's never-seen keys, `(builtin, backend)`, in seeded order.
fn seeded_cold_keys(seed: u64) -> Vec<(usize, &'static str)> {
    let mut keys: Vec<(usize, &'static str)> = (0..BUILTINS.len())
        .flat_map(|k| COLD_ARCHS.iter().map(move |&a| (k, a)))
        .collect();
    Stream::new(mix(seed, 7)).shuffle(&mut keys);
    keys
}

/// What the segments of a run gathered.
#[derive(Default)]
struct Totals {
    setup_s: Vec<f64>,
    /// Latency of every prewarm request.
    prewarm_ms: Vec<f64>,
    requests: usize,
    wall_s: f64,
    /// Per segment and client, the complete windows.
    windows: Vec<Vec<Window>>,
    /// Latency of every searched answer to a never-seen key.
    cold_ms: Vec<f64>,
    cold_requests: usize,
    /// The device time of the kernel each tune answer handed back, with how
    /// many answers handed it back.
    answered_us: Vec<(f64, usize)>,
    stored: Vec<Stored>,
    stats_ns: Vec<u64>,
    traced_ns: Vec<u64>,
    /// Request and store counters over the segments' daemons: the most
    /// requests one daemon held, and every other count summed.
    snapshot: Option<MetricsSnapshot>,
}

impl Totals {
    fn add_snapshot(&mut self, s: MetricsSnapshot) {
        match &mut self.snapshot {
            None => self.snapshot = Some(s),
            Some(t) => {
                t.requests = t.requests.max(s.requests);
                t.store_hits += s.store_hits;
                t.store_misses += s.store_misses;
                t.coalesced += s.coalesced;
            }
        }
    }
}

/// One segment of a serving run: a fresh daemon is set up and prewarmed in
/// its own store, then the clients load it for `seconds`, requesting
/// `cold_keys` on the way.
#[allow(clippy::too_many_arguments)]
fn segment(
    segment: usize,
    opts: &RunOptions,
    state: &Path,
    cold_keys: &[(usize, &'static str)],
    seconds: f64,
    by_fp: &Tuners,
    trace: &mut Trace,
    out: &mut Outcome,
    totals: &mut Totals,
) -> Result<(), String> {
    let mixed = opts.workload == Workload::ServeMixed;
    let t = Instant::now();
    let built = prewarm(&store_dir(state, segment));
    totals.setup_s.push(t.elapsed().as_secs_f64());
    let (daemon, prewarmed) = built.map_err(|e| format!("cannot start the daemon: {e}"))?;
    totals
        .prewarm_ms
        .extend(prewarmed.iter().map(|(_, ms)| *ms));
    // Traced, serve-warm rebuilds the first prewarm's searches.
    let rebuild = !mixed && segment == 0;
    let (expected, stored) = verify_prewarm(&daemon, &prewarmed, segment, rebuild, out);
    let mut warm_us = vec![f64::NAN; BUILTINS.len()];
    for s in &stored {
        warm_us[s.builtin] = s.gpu_us;
    }
    totals.stored.extend(stored);

    let start = Instant::now();
    let load = Load {
        daemon: &daemon,
        tuners: by_fp,
        warm_lines: BUILTINS
            .iter()
            .map(|n| layers::tune_line(n, BACKEND))
            .collect(),
        expected,
        cold_lines: cold_keys
            .iter()
            .map(|&(k, arch)| layers::tune_line(BUILTINS[k], arch))
            .collect(),
        cold: mixed.then(|| ColdQueue::new(cold_keys.len(), seconds)),
        stats_every: if opts.smoke { 500 } else { STATS_EVERY },
        traced: opts.trace,
        seed: mix(opts.seed, 100 + segment as u64),
        start,
        deadline: start + std::time::Duration::from_secs_f64(seconds),
    };
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let load = &load;
                s.spawn(move || client(load, c))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    totals.wall_s += logs
        .iter()
        .filter_map(|l| l.end)
        .max()
        .map_or(f64::NAN, |end| end.duration_since(start).as_secs_f64());

    let complete = (seconds * 1e9 / WINDOW_NS as f64) as usize;
    let mut warm_answers = vec![0; BUILTINS.len()];
    let mut cold = Vec::new();
    for log in logs {
        let latency_ms: Vec<f64> = log.latency_ns.iter().map(|&ns| ns as f64 * 1e-6).collect();
        totals.requests += latency_ms.len();
        totals.windows.push(stats::windows(
            &log.sent_ns,
            &latency_ms,
            WINDOW_NS,
            complete,
            opts.workload.tail_percentile(),
        ));
        for (total, n) in warm_answers.iter_mut().zip(&log.warm_answers) {
            *total += n;
        }
        totals.stats_ns.extend(log.stats_ns);
        cold.extend(log.cold);
        totals.traced_ns.extend(log.traced_ns);
        out.attempted += log.out.attempted;
        out.failed += log.out.failed;
        out.failures.extend(log.out.failures);
        if let Some(t) = log.trace {
            trace.absorb(t);
        }
    }
    totals
        .answered_us
        .extend(warm_us.iter().copied().zip(warm_answers));

    totals.cold_requests += cold.len();
    let mut by_key: HashMap<usize, Vec<Answer>> = HashMap::new();
    for (k, ns, response) in &cold {
        match check::answer(response) {
            Ok(s) => {
                if s.source == "searched" {
                    totals.cold_ms.push(*ns as f64 * 1e-6);
                }
                totals.answered_us.push((s.gpu_us, 1));
                by_key.entry(*k).or_default().push(s);
            }
            Err(e) => out.fail(e),
        }
    }
    let mut keys: Vec<usize> = by_key.keys().copied().collect();
    keys.sort_unstable();
    for (n, k) in keys.into_iter().enumerate() {
        let (b, arch) = cold_keys[k];
        match verify_cold_key(&daemon, &load.cold_lines[k], &by_key[&k]) {
            Ok(()) => totals.stored.push(Stored {
                builtin: b,
                backend: arch,
                gpu_us: by_key[&k][0].gpu_us,
                segment,
                // Traced, a quarter of the cold keys' searches are rebuilt.
                rebuild: n % 4 == 0,
            }),
            Err(e) => out.fail(format!("{} on {arch}: {e}", BUILTINS[b])),
        }
    }
    let t = Instant::now();
    let stats = daemon.handle_line(r#"{"op":"stats"}"#).response;
    totals.stats_ns.push(t.elapsed().as_nanos() as u64);
    let snapshot = daemon.snapshot();
    if snapshot.errors + snapshot.busy > 0 {
        out.fail(format!("the daemon shed or failed requests: {stats}"));
    }
    totals.add_snapshot(snapshot);
    Ok(())
}

pub fn run(opts: &RunOptions, state: &Path) -> Outcome {
    let mut out = Outcome::default();
    let mut trace = Trace::new(opts.trace);

    // Traced, warm requests are replayed against the run's own lowering of
    // every builtin (which also gives the frontend and lower layers).
    let tuners = if opts.trace {
        set_up(&mut trace, &BUILTINS)
    } else {
        Vec::new()
    };
    let by_fp: Tuners = tuners
        .iter()
        .map(|t| (workload_fingerprint(&t.workload), t))
        .collect();

    let mut cold_keys = if opts.workload == Workload::ServeMixed {
        seeded_cold_keys(opts.seed)
    } else {
        Vec::new()
    };
    if opts.smoke {
        cold_keys.truncate(4);
    }
    let segments = if opts.smoke { 1 } else { SEGMENTS };
    let seconds = if opts.smoke { 0.3 } else { opts.seconds } / segments as f64;
    let per_segment = cold_keys.len().div_ceil(segments);
    let mut totals = Totals::default();
    for s in 0..segments {
        let keys = &cold_keys
            [(s * per_segment).min(cold_keys.len())..((s + 1) * per_segment).min(cold_keys.len())];
        let done = segment(
            s,
            opts,
            state,
            keys,
            seconds,
            &by_fp,
            &mut trace,
            &mut out,
            &mut totals,
        );
        if let Err(e) = done {
            out.fail(e);
            return out;
        }
    }

    out.picks = totals
        .stored
        .iter()
        .map(|s| {
            (
                format!("{}@{}#{}", BUILTINS[s.builtin], s.backend, s.segment),
                s.gpu_us,
            )
        })
        .collect();
    check_stored(
        &mut totals.stored,
        state,
        segments,
        &tuners,
        &mut trace,
        &mut out,
    );
    drop(by_fp);
    drop(tuners);
    let arch = gpusim::k20();
    for name in BUILTINS {
        if let Err(e) = check::executes_correctly(name, &arch, opts.seed) {
            out.fail(e);
        }
    }

    if opts.trace {
        let traced: Vec<f64> = trace
            .named("request")
            .map(|(_, s)| s.dur_ns() as f64)
            .collect();
        let handled: Vec<f64> = totals.traced_ns.iter().map(|&ns| ns as f64).collect();
        let facts = LayerFacts {
            stats_ms: totals.stats_ns.iter().map(|&ns| ns as f64 * 1e-6).collect(),
            snapshot: totals.snapshot.expect("every segment took a snapshot"),
            overhead: median(&traced) / median(&handled) - 1.0,
        };
        out.metrics = per_layer(&trace, &facts);
    } else {
        let all = || totals.windows.iter().flatten();
        let counts = || all().map(|w| w.count);
        eprintln!(
            "{}: {} requests ({} cold) in {:.2} s over {segments} segments; {} windows \
             of {} ms over {CLIENTS} clients, {}-{} requests each",
            opts.workload.name(),
            totals.requests,
            totals.cold_requests,
            totals.wall_s,
            all().count(),
            WINDOW_NS / 1_000_000,
            counts().min().unwrap_or(0),
            counts().max().unwrap_or(0),
        );
        // The least disturbed window of any client (see `WINDOW_NS`); each
        // client's rate in its own fullest window of a segment, summed over
        // the clients.
        let best = |f: fn(&Window) -> f64| all().map(f).fold(f64::NAN, f64::min);
        let fullest = |client: usize| {
            totals
                .windows
                .iter()
                .skip(client)
                .step_by(CLIENTS)
                .flatten()
                .map(|w| w.count)
                .max()
                .unwrap_or(0)
        };
        let rps: usize = (0..CLIENTS).map(fullest).sum();
        // serve-warm never misses the store while it is timed; its cold
        // path is the prewarm, on an idle daemon.
        let mut cold_ms = if opts.workload == Workload::ServeMixed {
            totals.cold_ms
        } else {
            totals.prewarm_ms
        };
        cold_ms.sort_by(f64::total_cmp);
        out.metrics = vec![
            metric("setup_s", median(&totals.setup_s), "s"),
            metric("p50_ms", best(|w| w.p50), "ms"),
            metric("tail_ms", best(|w| w.tail), "ms"),
            metric("rps", rps as f64 * 1e9 / WINDOW_NS as f64, "1/s"),
            metric("cold_p10_ms", percentile(&cold_ms, 10.0), "ms"),
            metric("pick_gpu_us_geomean", geomean(totals.answered_us), "us"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
        ];
    }
    crate::write_trace(opts, &trace);
    out
}
