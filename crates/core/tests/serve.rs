//! Integration tests for the serving daemon: coalescing, store warmth,
//! deadlines, and protocol errors — all in-process through
//! [`Daemon::handle_line`], the same entry the transports call.

use std::sync::{Arc, Barrier};

use barracuda::json::Json;
use barracuda::kernels;
use barracuda::{Daemon, ServeOptions};

fn quick_daemon(store: Option<std::path::PathBuf>) -> Daemon {
    Daemon::new(ServeOptions {
        store,
        backend: "gtx980".to_string(),
        quick: true,
        evals: Some(30),
        ..ServeOptions::default()
    })
    .unwrap()
}

fn temp_store(tag: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("barracuda_serve_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

const TUNE_EQN1: &str = r#"{"op":"tune","workload":"builtin:eqn1","backend":"gtx980"}"#;

/// N identical cold requests fired concurrently run exactly ONE search:
/// the evaluation cache records one search's worth of misses, the other
/// N-1 requests coalesce, and all N responses are bit-identical.
#[test]
fn concurrent_identical_cold_requests_coalesce_into_one_search() {
    // Reference: one lone request on a fresh daemon — its miss count is
    // what "exactly one search" costs.
    let lone = quick_daemon(None);
    let out = lone.handle_line(TUNE_EQN1);
    assert!(out.response.contains("\"ok\":true"), "{}", out.response);
    let w = kernels::builtin("eqn1").unwrap();
    let (_, lone_misses) = lone.session().cache_for(&w).time_stats();
    assert!(lone_misses > 0, "a cold search must miss the time cache");

    const N: usize = 4;
    // Hold the leader's search open (injected stall — it does not touch
    // the search itself or the cache counters) so every follower joins
    // the coalition even under heavy test-runner load.
    let daemon = Arc::new(
        Daemon::new(ServeOptions {
            backend: "gtx980".to_string(),
            quick: true,
            evals: Some(30),
            chaos: barracuda::serve::ChaosPlan {
                slow_rate: 1.0,
                slow_ms: 500,
                ..barracuda::serve::ChaosPlan::none()
            },
            ..ServeOptions::default()
        })
        .unwrap(),
    );
    let barrier = Arc::new(Barrier::new(N));
    let responses: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..N)
            .map(|_| {
                let daemon = Arc::clone(&daemon);
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    barrier.wait();
                    daemon.handle_line(TUNE_EQN1).response
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for r in &responses {
        assert_eq!(
            r, &responses[0],
            "coalesced responses must be bit-identical"
        );
        assert!(r.contains("\"ok\":true"), "{r}");
    }
    let (_, misses) = daemon.session().cache_for(&w).time_stats();
    assert_eq!(
        misses, lone_misses,
        "N concurrent identical requests must cost exactly one search's misses"
    );
    let m = daemon.metrics().snapshot();
    assert_eq!(m.coalesced, N - 1, "all but the leader coalesce");
    assert_eq!(m.store_misses, 1, "only the leader tunes");
    assert_eq!(m.tunes, N, "every request is answered");
}

/// A store-backed daemon serves the second identical request by replay:
/// zero search evaluations, `source:"hit"`, and a timing line byte-equal
/// to the cold response's.
#[test]
fn warm_requests_replay_from_the_store() {
    let daemon = quick_daemon(Some(temp_store("warm")));
    let line = r#"{"op":"tune","workload":"tce","backend":"k20","evals":25}"#;
    let cold = Json::parse(&daemon.handle_line(line).response).unwrap();
    let warm = Json::parse(&daemon.handle_line(line).response).unwrap();
    assert_eq!(cold.get("source").and_then(Json::as_str), Some("searched"));
    assert_eq!(warm.get("source").and_then(Json::as_str), Some("hit"));
    assert_eq!(warm.get("evals_performed").and_then(Json::as_u64), Some(0));
    assert!(cold.get("evals_performed").and_then(Json::as_u64) > Some(0));
    assert_eq!(
        cold.get("timing").and_then(Json::as_str),
        warm.get("timing").and_then(Json::as_str),
        "hit must reproduce the search's timing line byte-for-byte"
    );
    let m = daemon.metrics().snapshot();
    assert_eq!((m.store_hits, m.store_misses), (1, 1));
}

/// A request whose deadline expires mid-search answers promptly with the
/// typed degraded status and best-so-far — it never hangs and never
/// errors.
#[test]
fn deadline_overrun_degrades_instead_of_hanging() {
    let daemon = quick_daemon(None);
    let line = r#"{"op":"tune","workload":"builtin:tce","backend":"k20","deadline_s":0.0}"#;
    let start = std::time::Instant::now();
    let out = daemon.handle_line(line);
    assert!(
        start.elapsed().as_secs() < 60,
        "deadline overrun must not hang"
    );
    let v = Json::parse(&out.response).unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    let reason = v.get("degraded").and_then(Json::as_str).unwrap();
    assert!(reason.contains("deadline"), "reason: {reason}");
    assert!(v.get("gpu_us").and_then(Json::as_f64).unwrap() > 0.0);
    assert_eq!(daemon.metrics().snapshot().degraded, 1);
}

/// Malformed lines and unknown workloads answer `ok:false` with the
/// serve stage and exit code 12 — and the daemon keeps serving.
#[test]
fn bad_requests_fail_typed_without_killing_the_daemon() {
    let daemon = quick_daemon(None);
    for line in [
        "not json at all",
        r#"{"op":"fly"}"#,
        r#"{"op":"tune","workload":"builtin:nope"}"#,
        r#"{"op":"tune","workload":"builtin:eqn1","backend":"warp9"}"#,
    ] {
        let v = Json::parse(&daemon.handle_line(line).response).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{line}");
        assert!(v.get("exit_code").and_then(Json::as_u64).unwrap() > 2);
    }
    let v = Json::parse(&daemon.handle_line(r#"{"op":"ping"}"#).response).unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    let m = daemon.metrics().snapshot();
    assert_eq!(m.errors, 4);
    assert!(!daemon.is_shutdown());
}

/// A line nested a million levels deep is refused by the parser's depth
/// cap — a typed serve error, not a stack overflow that would take down
/// every connection — and the next tune is served as usual.
#[test]
fn deeply_nested_line_is_a_typed_error_and_the_daemon_keeps_serving() {
    let daemon = quick_daemon(None);
    let deep = "[".repeat(1_000_000);
    let v = Json::parse(&daemon.handle_line(&deep).response).unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(v.get("stage").and_then(Json::as_str), Some("serve"));
    assert_eq!(v.get("exit_code").and_then(Json::as_u64), Some(12));
    let error = v.get("error").and_then(Json::as_str).unwrap();
    assert!(error.contains("nesting deeper than"), "{error}");
    let v = Json::parse(&daemon.handle_line(TUNE_EQN1).response).unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    assert!(!daemon.is_shutdown());
}

/// `stats` reports live counters; `shutdown` flips the daemon's flag and
/// tells the transport to stop.
#[test]
fn stats_and_shutdown_round_trip() {
    let daemon = quick_daemon(None);
    daemon.handle_line(r#"{"op":"ping"}"#);
    let v = Json::parse(&daemon.handle_line(r#"{"op":"stats"}"#).response).unwrap();
    assert_eq!(v.get("requests").and_then(Json::as_u64), Some(2));
    let out = daemon.handle_line(r#"{"op":"shutdown"}"#);
    assert!(out.shutdown);
    assert!(daemon.is_shutdown());
}
