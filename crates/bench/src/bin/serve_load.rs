//! Load generator for `barracuda serve`: thousands of mixed hot/cold
//! requests against one in-process daemon, with the serving bars asserted.
//!
//! Two phases mirror how a tuning service warms up:
//!
//! 1. **Cold bursts** — for most workloads, K identical requests fire
//!    concurrently against the empty store. Exactly one search runs per
//!    burst; the rest coalesce onto the leader's result.
//! 2. **Mixed steady state** — T client threads each fire hundreds of
//!    requests over every workload. Almost all are store hits (replay,
//!    zero search evaluations); the few workloads held back from phase 1
//!    go cold mid-stream, so hot and cold latencies interleave the way a
//!    live service sees them.
//!
//! Requests are classified by the response's own `source` field; Busy
//! rejections are retried with jittered back-off seeded by the
//! response's `retry_after_ms` hint. The run asserts the acceptance bars
//! and exits non-zero when one fails: warm requests perform 0 search
//! evaluations, concurrent identical cold requests coalesce, the load is
//! mostly warm, and warm p50 is >= 100x below cold p50. It writes no
//! file; its latencies print for reading, not as a trajectory (the frozen
//! benchmark's serve-warm and serve-mixed workloads time serving).
//! Overload shedding is checked over TCP by `overload_smoke`.

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
const BURST: usize = 4;
const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 400;
/// Phases 1–2 run under pinned admission (not the machine-sized
/// default) so the bench behaves identically on any host.
const PINNED_MAX_SEARCHES: usize = 4;
const PINNED_QUEUE: usize = 8;

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
    let mut phase2_retries = 0usize;
    for (hit, us, retries) in results.into_iter().flatten() {
        phase2_retries += retries;
        if hit {
            warm_us.push(us);
        } else {
            cold_us.push(us);
        }
    }
    println!(
        "phase 2 done in {:.2}s: {phase2_retries} busy retries",
        t1.elapsed().as_secs_f64()
    );

    cold_us.sort_unstable();
    warm_us.sort_unstable();
    let m = daemon.snapshot();
    let cold_p50 = percentile(&cold_us, 50.0);
    let cold_p99 = percentile(&cold_us, 99.0);
    let warm_p50 = percentile(&warm_us, 50.0);
    let warm_p99 = percentile(&warm_us, 99.0);
    let speedup = cold_p50 as f64 / (warm_p50.max(1)) as f64;

    println!(
        "cold: {} requests, p50 {cold_p50} us, p99 {cold_p99} us",
        cold_us.len()
    );
    println!(
        "warm: {} requests, p50 {warm_p50} us, p99 {warm_p99} us",
        warm_us.len()
    );
    println!("warm speedup p50: {speedup:.0}x");
    println!("{m}");

    // The serving bars, enforced:
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

    let _ = std::fs::remove_dir_all(&store);
}
