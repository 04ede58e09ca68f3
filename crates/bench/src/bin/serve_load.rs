//! Load generator for `barracuda serve`: thousands of mixed hot/cold
//! requests against one in-process daemon, reported as
//! `BENCH_serve.json`.
//!
//! Three phases mirror how a tuning service warms up and then saturates:
//!
//! 1. **Cold bursts** — for most workloads, K identical requests fire
//!    concurrently against the empty store. Exactly one search runs per
//!    burst; the rest coalesce onto the leader's result.
//! 2. **Mixed steady state** — T client threads each fire hundreds of
//!    requests over every workload. Almost all are store hits (replay,
//!    zero search evaluations); the few workloads held back from phase 1
//!    go cold mid-stream, so hot and cold latencies interleave the way a
//!    live service sees them.
//! 3. **Open-loop overload** — against a fresh daemon pinned to one
//!    cold-search permit and an empty queue, requests arrive on a fixed
//!    clock regardless of completions (open loop — arrivals do not wait
//!    for the server, unlike the closed-loop phases above). Cold
//!    arrivals overflow admission and are shed with typed Busy; warm
//!    arrivals keep replaying from the store throughout the storm. The
//!    saturation/goodput story lands in the `open_loop` section of the
//!    report.
//!
//! The report's `steady_state_rps` is phase 2's request count
//! (`CLIENTS` × `REQUESTS_PER_CLIENT`, 3,200) divided by phase 2's wall
//! time. The phase ends only after its first cold searches of tce and
//! lg3 return, so the figure tracks cold-search time, not warm
//! throughput; the frozen benchmark's serve-warm `rps` is the warm
//! throughput trajectory.
//!
//! Requests are classified by the response's own `source` field; Busy
//! rejections are retried with jittered back-off seeded by the
//! response's `retry_after_ms` hint (phases 1–2) or counted as shed
//! load (phase 3). The run asserts the acceptance bars instead of
//! merely printing them: warm requests perform 0 search evaluations,
//! warm p50 is >= 100x below cold p50, coalescing deduplicated work,
//! and overload sheds typed Busy while warm hits keep flowing.

use std::sync::Arc;
use std::time::{Duration, Instant};

use barracuda::json::Json;
use barracuda::serve::metrics::percentile;
use barracuda::{Daemon, ServeOptions};

/// Workloads burst-tuned cold in phase 1 (NWChem excitations).
const PHASE1: &[&str] = &[
    "s1_1", "s1_2", "s1_3", "d1_1", "d1_2", "d1_3", "d2_1", "d2_2", "d2_3",
];
/// Held back from phase 1: their first touch lands mid-load, so the
/// steady-state phase is genuinely mixed hot/cold (Nekbone + TCE).
const PHASE2_ONLY: &[&str] = &["lg3", "tce"];
/// Distinct cold workloads for the phase-3 overload storm.
const STORM_COLD: &[&str] = &[
    "s1_4", "s1_5", "s1_6", "s1_7", "s1_8", "s1_9", "d1_4", "d1_5", "d1_6", "d1_7", "d1_8", "d1_9",
    "d2_4", "d2_5", "d2_6", "d2_7", "d2_8", "d2_9",
];

const BURST: usize = 4;
const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 400;
/// Phases 1–2 run under pinned admission (not the machine-sized
/// default) so the bench behaves identically on any host.
const PINNED_MAX_SEARCHES: usize = 4;
const PINNED_QUEUE: usize = 8;
/// Phase-3 open-loop schedule.
const STORM_ARRIVALS: usize = 120;
const STORM_INTERVAL_MS: u64 = 5;
/// Every Nth storm arrival targets the prewarmed workload.
const STORM_WARM_EVERY: usize = 3;

fn tune_line(workload: &str) -> String {
    format!(r#"{{"op":"tune","workload":"builtin:{workload}","backend":"k20"}}"#)
}

/// One classified response.
enum Outcome {
    /// `ok:true` — `hit` from the `source` field, wall time measured.
    Served { hit: bool, us: u64 },
    /// Typed Busy rejection (exit 13) with its back-off hint.
    Busy { retry_after_ms: u64 },
}

/// Fire one request and classify the response. Anything other than a
/// success or a typed Busy fails the bench.
fn fire_raw(daemon: &Daemon, line: &str) -> Outcome {
    let start = Instant::now();
    let out = daemon.handle_line(line);
    let us = start.elapsed().as_micros() as u64;
    let v = Json::parse(&out.response).unwrap_or(Json::Null);
    if v.get("ok").and_then(Json::as_bool) == Some(true) {
        let hit = v.get("source").and_then(Json::as_str) == Some("hit");
        if hit {
            assert_eq!(
                v.get("evals_performed").and_then(Json::as_u64),
                Some(0),
                "a store hit must not search: {}",
                out.response
            );
        }
        return Outcome::Served { hit, us };
    }
    assert_eq!(
        v.get("stage").and_then(Json::as_str),
        Some("busy"),
        "request failed with a non-busy error: {}",
        out.response
    );
    assert_eq!(
        v.get("exit_code").and_then(Json::as_u64),
        Some(13),
        "busy must map to exit 13: {}",
        out.response
    );
    let retry_after_ms = v
        .get("retry_after_ms")
        .and_then(Json::as_u64)
        .expect("busy response carries retry_after_ms");
    assert!(retry_after_ms > 0, "retry_after_ms must be positive");
    Outcome::Busy { retry_after_ms }
}

/// Deterministic jitter in `[0, cap_ms)` from a SplitMix64 draw.
fn jitter_ms(seed: u64, cap_ms: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % cap_ms.max(1)
}

/// Fire with retry-on-Busy: back off by the server's `retry_after_ms`
/// hint plus deterministic jitter, like a well-behaved client. Returns
/// `(hit, us, busy_retries)`.
fn fire(daemon: &Daemon, line: &str, seed: u64) -> (bool, u64, usize) {
    let mut retries = 0;
    loop {
        match fire_raw(daemon, line) {
            Outcome::Served { hit, us } => return (hit, us, retries),
            Outcome::Busy { retry_after_ms } => {
                retries += 1;
                assert!(retries < 50, "request never admitted after 50 retries");
                let backoff = retry_after_ms.min(500) + jitter_ms(seed ^ retries as u64, 20);
                std::thread::sleep(Duration::from_millis(backoff));
            }
        }
    }
}

/// Phase 3: open-loop overload against a fresh single-permit daemon.
fn open_loop_phase() -> Json {
    let store =
        std::env::temp_dir().join(format!("barracuda_serve_load_open_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let daemon = Arc::new(
        Daemon::new(ServeOptions {
            store: Some(store.clone()),
            backend: "k20".to_string(),
            quick: true,
            evals: Some(40),
            max_searches: Some(1),
            queue: Some(0),
            ..ServeOptions::default()
        })
        .expect("open-loop daemon"),
    );

    // Prewarm one workload so the storm carries genuine warm traffic.
    let warm_line = tune_line("eqn1");
    match fire_raw(&daemon, &warm_line) {
        Outcome::Served { hit: false, .. } => {}
        _ => panic!("prewarm tune must search the empty store"),
    }

    println!(
        "phase 3 (open loop): {STORM_ARRIVALS} arrivals at {STORM_INTERVAL_MS}ms intervals, \
         1 permit, empty queue"
    );
    let t0 = Instant::now();
    let outcomes: Vec<Outcome> = std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(STORM_ARRIVALS);
        for i in 0..STORM_ARRIVALS {
            // Open loop: arrivals ride the clock, not the completions.
            let due = Duration::from_millis(STORM_INTERVAL_MS * i as u64);
            if let Some(wait) = due.checked_sub(t0.elapsed()) {
                std::thread::sleep(wait);
            }
            let daemon = Arc::clone(&daemon);
            let line = if i % STORM_WARM_EVERY == 0 {
                warm_line.clone()
            } else {
                tune_line(STORM_COLD[i % STORM_COLD.len()])
            };
            handles.push(s.spawn(move || fire_raw(&daemon, &line)));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("storm client"))
            .collect()
    });
    let storm_wall = t0.elapsed().as_secs_f64();

    let mut served_hits = 0usize;
    let mut served_searched = 0usize;
    let mut busy = 0usize;
    let mut min_retry = u64::MAX;
    let mut served_us: Vec<u64> = Vec::new();
    for o in outcomes {
        match o {
            Outcome::Served { hit: true, us } => {
                served_hits += 1;
                served_us.push(us);
            }
            Outcome::Served { hit: false, us } => {
                served_searched += 1;
                served_us.push(us);
            }
            Outcome::Busy { retry_after_ms } => {
                busy += 1;
                min_retry = min_retry.min(retry_after_ms);
            }
        }
    }
    served_us.sort_unstable();
    let served = served_hits + served_searched;
    let goodput = served as f64 / STORM_ARRIVALS as f64;
    let offered_rps = STORM_ARRIVALS as f64 / storm_wall;
    let m = daemon.snapshot();
    println!(
        "phase 3 done in {storm_wall:.2}s: {served} served ({served_hits} warm hits, \
         {served_searched} searched), {busy} busy; goodput {:.0}%",
        goodput * 100.0
    );
    println!("{m}");

    // The overload acceptance bar, enforced:
    assert!(
        busy > 0,
        "a 1-permit daemon under an open-loop cold storm must shed load"
    );
    assert!(
        served_hits > 0,
        "warm hits must keep flowing while the cold pool is saturated"
    );
    assert_eq!(
        m.busy, busy,
        "daemon busy counter must agree with client-observed rejections"
    );
    assert!(m.errors == 0, "overload must shed typed Busy, not errors");

    let _ = std::fs::remove_dir_all(&store);
    Json::Obj(vec![
        ("offered".into(), Json::Num(STORM_ARRIVALS as f64)),
        (
            "arrival_interval_ms".into(),
            Json::Num(STORM_INTERVAL_MS as f64),
        ),
        ("offered_rps".into(), Json::Num(offered_rps.round())),
        ("max_searches".into(), Json::Num(1.0)),
        ("queue".into(), Json::Num(0.0)),
        ("served".into(), Json::Num(served as f64)),
        ("served_warm_hits".into(), Json::Num(served_hits as f64)),
        ("served_searched".into(), Json::Num(served_searched as f64)),
        ("busy".into(), Json::Num(busy as f64)),
        (
            "goodput".into(),
            Json::Num((goodput * 1000.0).round() / 1000.0),
        ),
        (
            "min_retry_after_ms".into(),
            Json::Num(if busy > 0 { min_retry as f64 } else { 0.0 }),
        ),
        (
            "served_p50_us".into(),
            Json::Num(percentile(&served_us, 50.0) as f64),
        ),
        (
            "served_p99_us".into(),
            Json::Num(percentile(&served_us, 99.0) as f64),
        ),
    ])
}

fn main() {
    let store = std::env::temp_dir().join(format!("barracuda_serve_load_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let daemon = Arc::new(
        Daemon::new(ServeOptions {
            store: Some(store.clone()),
            backend: "k20".to_string(),
            quick: true,
            evals: Some(40),
            max_searches: Some(PINNED_MAX_SEARCHES),
            queue: Some(PINNED_QUEUE),
            ..ServeOptions::default()
        })
        .expect("daemon"),
    );

    // Phase 1: concurrent identical cold bursts — coalescing under fire.
    println!(
        "phase 1: {} workloads x {BURST} concurrent identical cold requests \
         ({PINNED_MAX_SEARCHES} permits, queue {PINNED_QUEUE})",
        PHASE1.len()
    );
    let t0 = Instant::now();
    let mut cold_us: Vec<u64> = Vec::new();
    let mut warm_us: Vec<u64> = Vec::new();
    let mut busy_retries = 0usize;
    for w in PHASE1 {
        let line = tune_line(w);
        let burst: Vec<(bool, u64, usize)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..BURST)
                .map(|b| {
                    let daemon = Arc::clone(&daemon);
                    let line = line.clone();
                    s.spawn(move || fire(&daemon, &line, b as u64))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client"))
                .collect()
        });
        for (hit, us, retries) in burst {
            // A duplicate that lands after its leader published is a
            // legitimate store hit (the warm bypass answers it without
            // a search permit) — classify it, don't reject it.
            if hit {
                warm_us.push(us);
            } else {
                cold_us.push(us);
            }
            busy_retries += retries;
        }
    }
    let after_phase1 = daemon.metrics().snapshot();
    println!(
        "phase 1 done in {:.2}s: {} searches, {} coalesced, {} busy retries",
        t0.elapsed().as_secs_f64(),
        after_phase1.store_misses,
        after_phase1.coalesced,
        busy_retries
    );

    // Phase 2: mixed steady state over every workload.
    let all: Vec<String> = PHASE1
        .iter()
        .chain(PHASE2_ONLY)
        .map(|w| tune_line(w))
        .collect();
    let total = CLIENTS * REQUESTS_PER_CLIENT;
    println!("phase 2: {CLIENTS} clients x {REQUESTS_PER_CLIENT} mixed requests = {total}");
    let t1 = Instant::now();
    let results: Vec<Vec<(bool, u64, usize)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let daemon = Arc::clone(&daemon);
                let all = all.clone();
                s.spawn(move || {
                    // Per-client LCG walk over the workload list: cheap,
                    // deterministic, and different per client.
                    let mut x: u64 = 0x9E3779B97F4A7C15 ^ (c as u64);
                    (0..REQUESTS_PER_CLIENT)
                        .map(|_| {
                            x = x
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            fire(&daemon, &all[(x >> 33) as usize % all.len()], x)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let phase2_wall = t1.elapsed().as_secs_f64();
    for (hit, us, retries) in results.into_iter().flatten() {
        busy_retries += retries;
        if hit {
            warm_us.push(us);
        } else {
            cold_us.push(us);
        }
    }

    cold_us.sort_unstable();
    warm_us.sort_unstable();
    let m = daemon.snapshot();
    let cold_p50 = percentile(&cold_us, 50.0);
    let cold_p99 = percentile(&cold_us, 99.0);
    let warm_p50 = percentile(&warm_us, 50.0);
    let warm_p99 = percentile(&warm_us, 99.0);
    let speedup = cold_p50 as f64 / (warm_p50.max(1)) as f64;
    let throughput = total as f64 / phase2_wall;

    println!(
        "cold: {} requests, p50 {cold_p50} us, p99 {cold_p99} us",
        cold_us.len()
    );
    println!(
        "warm: {} requests, p50 {warm_p50} us, p99 {warm_p99} us",
        warm_us.len()
    );
    println!("warm speedup p50: {speedup:.0}x; steady-state throughput {throughput:.0} req/s");
    println!("{m}");

    // The tentpole's acceptance bar, enforced:
    assert!(
        m.coalesced > 0,
        "concurrent identical cold requests must coalesce"
    );
    assert!(
        speedup >= 100.0,
        "warm p50 ({warm_p50} us) must be >=100x below cold p50 ({cold_p50} us)"
    );
    assert!(
        warm_us.len() > cold_us.len(),
        "the load must be mostly warm"
    );

    // Phase 3: fresh daemon, open-loop overload.
    let open_loop = open_loop_phase();

    let json = Json::Obj(vec![
        (
            "workloads".into(),
            Json::Num((PHASE1.len() + PHASE2_ONLY.len()) as f64),
        ),
        ("max_searches".into(), Json::Num(PINNED_MAX_SEARCHES as f64)),
        ("queue".into(), Json::Num(PINNED_QUEUE as f64)),
        ("cold_requests".into(), Json::Num(cold_us.len() as f64)),
        ("warm_requests".into(), Json::Num(warm_us.len() as f64)),
        ("busy_retries".into(), Json::Num(busy_retries as f64)),
        ("cold_p50_us".into(), Json::Num(cold_p50 as f64)),
        ("cold_p99_us".into(), Json::Num(cold_p99 as f64)),
        ("warm_p50_us".into(), Json::Num(warm_p50 as f64)),
        ("warm_p99_us".into(), Json::Num(warm_p99 as f64)),
        (
            "warm_speedup_p50".into(),
            Json::Num((speedup * 10.0).round() / 10.0),
        ),
        ("steady_state_rps".into(), Json::Num(throughput.round())),
        ("store_hits".into(), Json::Num(m.store_hits as f64)),
        ("store_misses".into(), Json::Num(m.store_misses as f64)),
        ("coalesced".into(), Json::Num(m.coalesced as f64)),
        ("warm_zero_search_evals".into(), Json::Bool(true)),
        ("daemon_p50_us".into(), Json::Num(m.p50_us as f64)),
        ("daemon_p99_us".into(), Json::Num(m.p99_us as f64)),
        ("open_loop".into(), open_loop),
    ]);
    match std::fs::write("BENCH_serve.json", json.to_string_pretty()) {
        Ok(()) => println!("wrote BENCH_serve.json"),
        Err(e) => eprintln!("could not write BENCH_serve.json: {e}"),
    }
    let _ = std::fs::remove_dir_all(&store);
}
