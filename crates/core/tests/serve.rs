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

/// A quick daemon without a store whose every leader search first
/// stalls 500 ms. The injected stall touches neither the search nor the
/// cache counters; it holds the leader open so concurrent identical
/// requests join it even under heavy test-runner load.
fn stalled_daemon() -> Daemon {
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
    .unwrap()
}

/// `line` sent by `n` threads released together; their responses.
fn send_together(daemon: &Daemon, line: &str, n: usize) -> Vec<String> {
    let barrier = Barrier::new(n);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    daemon.handle_line(line).response
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

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
    let daemon = stalled_daemon();
    let responses = send_together(&daemon, TUNE_EQN1, N);

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

/// Every file in the store directory, by name, with its bytes.
fn store_files(root: &std::path::Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(root)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (e.file_name(), std::fs::read(e.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// A store-backed daemon answers every repeat of a request by replaying
/// the stored plan, and the warm path's cost is counted, not timed: each
/// warm answer is a hit with zero search evaluations and the cold
/// answer's timing line, runs no search (`store_misses` stays 1), no
/// fresh simulation (the workload's session cache gains no miss) and no
/// re-lowering (the session hands back the same tuner), and leaves the
/// store's one entry byte-identical.
#[test]
fn warm_requests_replay_from_the_store() {
    const WARM: usize = 20;
    let root = temp_store("warm");
    let daemon = quick_daemon(Some(root.clone()));
    let line = r#"{"op":"tune","workload":"tce","backend":"k20","evals":25}"#;
    let cold = Json::parse(&daemon.handle_line(line).response).unwrap();
    assert_eq!(cold.get("source").and_then(Json::as_str), Some("searched"));
    assert!(cold.get("evals_performed").and_then(Json::as_u64) > Some(0));

    let w = kernels::builtin("tce").unwrap();
    let tuner = daemon.session().tuner_for(&w);
    let cache = daemon.session().cache_for(&w);
    let misses = (cache.op_stats().1, cache.time_stats().1);
    let stored = store_files(&root);
    assert_eq!(stored.len(), 1, "one cold search stores one entry");
    for i in 0..WARM {
        let warm = Json::parse(&daemon.handle_line(line).response).unwrap();
        assert_eq!(
            warm.get("source").and_then(Json::as_str),
            Some("hit"),
            "warm answer {i}"
        );
        assert_eq!(warm.get("evals_performed").and_then(Json::as_u64), Some(0));
        assert_eq!(
            cold.get("timing").and_then(Json::as_str),
            warm.get("timing").and_then(Json::as_str),
            "hit must reproduce the search's timing line byte-for-byte"
        );
        assert_eq!(
            daemon.metrics().snapshot().store_misses,
            1,
            "warm answer {i} searched"
        );
        assert_eq!(
            (cache.op_stats().1, cache.time_stats().1),
            misses,
            "warm answer {i} simulated afresh"
        );
        assert!(
            Arc::ptr_eq(&daemon.session().tuner_for(&w), &tuner),
            "warm answer {i} lowered the workload again"
        );
        assert_eq!(
            store_files(&root),
            stored,
            "warm answer {i} moved the store"
        );
    }
    let m = daemon.metrics().snapshot();
    assert_eq!((m.store_hits, m.store_misses), (WARM, 1));
}

/// A wire deadline too large for a `Duration` is served like any other:
/// the leader's admission wait and its coalesced follower's wait both
/// saturate instead of panicking the threads that serve them.
#[test]
fn deadline_too_large_for_a_duration_is_served() {
    let daemon = stalled_daemon();
    let line = r#"{"op":"tune","workload":"builtin:s1_1","backend":"k20","deadline_s":1e300}"#;
    for r in send_together(&daemon, line, 2) {
        assert!(r.contains("\"ok\":true"), "{r}");
    }
    let m = daemon.metrics().snapshot();
    assert_eq!((m.tunes, m.coalesced, m.errors), (2, 1, 0));
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
    // Each line with the text its error must name ("" for any).
    let lines = [
        ("not json at all", ""),
        (r#"{"op":"fly"}"#, ""),
        (r#"{"op":"tune","workload":"builtin:nope"}"#, ""),
        (
            r#"{"op":"tune","workload":"builtin:eqn1","backend":"warp9"}"#,
            "",
        ),
        (
            r#"{"op":"tune","workload":"builtin:eqn1","backend":7}"#,
            "\"backend\"",
        ),
        (
            r#"{"op":"tune","workload":"builtin:eqn1","evals":"5"}"#,
            "\"evals\"",
        ),
        (
            r#"{"op":"tune","workload":"builtin:eqn1","evals":-3}"#,
            "\"evals\"",
        ),
    ];
    for (line, names) in lines {
        let v = Json::parse(&daemon.handle_line(line).response).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{line}");
        assert!(v.get("exit_code").and_then(Json::as_u64).unwrap() > 2);
        let error = v.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains(names), "{line}: {error}");
    }
    let v = Json::parse(&daemon.handle_line(r#"{"op":"ping"}"#).response).unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    let m = daemon.metrics().snapshot();
    assert_eq!(m.errors, lines.len());
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
