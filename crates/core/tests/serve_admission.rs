//! Admission-control tests for the serving daemon: a bounded cold-search
//! permit pool, typed Busy shedding with `retry_after_ms`, warm-traffic
//! bypass, follower piggybacking, bounded waits, and shutdown drain. The
//! cold storm runs over the TCP transport; the rest call
//! [`Daemon::handle_line`] in-process.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use barracuda::json::Json;
use barracuda::serve::transport::serve_tcp_on;
use barracuda::serve::ChaosPlan;
use barracuda::{Daemon, ServeOptions};

fn temp_store(tag: &str) -> std::path::PathBuf {
    let root =
        std::env::temp_dir().join(format!("barracuda_admission_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn tune_line(workload: &str) -> String {
    format!(r#"{{"op":"tune","workload":"builtin:{workload}","backend":"gtx980"}}"#)
}

fn parse(response: &str) -> Json {
    Json::parse(response).unwrap_or_else(|e| panic!("bad response {response}: {e}"))
}

/// One request line out over `conn`, its response line back.
fn call(conn: &mut BufReader<TcpStream>, line: &str) -> Json {
    writeln!(conn.get_mut(), "{line}").unwrap();
    let mut response = String::new();
    conn.read_line(&mut response).unwrap();
    parse(&response)
}

fn connect(addr: SocketAddr) -> BufReader<TcpStream> {
    BufReader::new(TcpStream::connect(addr).unwrap())
}

/// A barrier-released storm of distinct cold tunes against one permit
/// and an empty queue, over the TCP transport: exactly the overflow is
/// shed with typed Busy (exit 13, positive `retry_after_ms`), while warm
/// requests for an already-stored workload keep replaying from the store
/// the whole time. The daemon's `stats` agree with the busy answers its
/// clients saw, and `shutdown` drains the transport cleanly.
#[test]
fn cold_storm_is_shed_typed_while_warm_hits_keep_flowing() {
    let daemon = Arc::new(
        Daemon::new(ServeOptions {
            store: Some(temp_store("storm")),
            backend: "gtx980".to_string(),
            quick: true,
            evals: Some(30),
            max_searches: Some(1),
            queue: Some(0),
            // Slow every admitted search so the storm reliably overlaps.
            chaos: ChaosPlan {
                slow_rate: 1.0,
                slow_ms: 150,
                ..ChaosPlan::none()
            },
            ..ServeOptions::default()
        })
        .unwrap(),
    );
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = {
        let daemon = Arc::clone(&daemon);
        std::thread::spawn(move || serve_tcp_on(daemon, listener))
    };

    // Prewarm one workload so warm probes have something to hit.
    let warm = call(&mut connect(addr), &tune_line("eqn1"));
    assert_eq!(warm.get("source").and_then(Json::as_str), Some("searched"));

    const STORM: &[&str] = &["s1_1", "s1_2", "d1_1", "d1_2"];
    let barrier = Arc::new(Barrier::new(STORM.len()));
    let done = Arc::new(AtomicBool::new(false));
    let (responses, warm_hits) = std::thread::scope(|s| {
        let handles: Vec<_> = STORM
            .iter()
            .map(|w| {
                let barrier = Arc::clone(&barrier);
                let line = tune_line(w);
                s.spawn(move || {
                    let mut conn = connect(addr);
                    barrier.wait();
                    call(&mut conn, &line)
                })
            })
            .collect();
        // Warm probes on one connection while the storm is in flight:
        // store hits bypass the permit pool, so every one must succeed.
        let prober = {
            let done = Arc::clone(&done);
            s.spawn(move || {
                let mut conn = connect(addr);
                let mut hits = 0usize;
                while !done.load(Ordering::SeqCst) {
                    let v = call(&mut conn, &tune_line("eqn1"));
                    assert_eq!(
                        v.get("ok").and_then(Json::as_bool),
                        Some(true),
                        "warm probe failed under storm: {v:?}"
                    );
                    assert_eq!(v.get("source").and_then(Json::as_str), Some("hit"));
                    assert_eq!(v.get("evals_performed").and_then(Json::as_u64), Some(0));
                    hits += 1;
                }
                hits
            })
        };
        let responses: Vec<Json> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        done.store(true, Ordering::SeqCst);
        (responses, prober.join().unwrap())
    });
    assert!(warm_hits > 0, "warm probes must run during the storm");

    let mut served = 0usize;
    let mut busy = 0usize;
    for v in &responses {
        if v.get("ok").and_then(Json::as_bool) == Some(true) {
            served += 1;
            continue;
        }
        assert_eq!(v.get("stage").and_then(Json::as_str), Some("busy"), "{v:?}");
        assert_eq!(v.get("exit_code").and_then(Json::as_u64), Some(13), "{v:?}");
        assert!(
            v.get("retry_after_ms").and_then(Json::as_u64) > Some(0),
            "busy must carry a positive retry_after_ms: {v:?}"
        );
        busy += 1;
    }
    assert!(served >= 1, "one storm tune must win the permit");
    assert!(busy >= 1, "overflow must be shed with typed busy");

    let mut admin = connect(addr);
    let stats = call(&mut admin, r#"{"op":"stats"}"#);
    assert_eq!(
        stats.get("busy").and_then(Json::as_u64),
        Some(busy as u64),
        "daemon and clients must agree on busy count"
    );
    assert_eq!(
        stats.get("errors").and_then(Json::as_u64),
        Some(0),
        "admission sheds busy, not errors"
    );
    assert_eq!(daemon.gate().depth(), (0, 0), "all permits released");
    let down = call(&mut admin, r#"{"op":"shutdown"}"#);
    assert_eq!(down.get("ok").and_then(Json::as_bool), Some(true));
    drop(admin);
    server
        .join()
        .unwrap()
        .expect("the transport drains and exits cleanly");
}

/// Identical concurrent requests need only the leader's permit: with a
/// single permit and an empty queue, a burst of N identical cold tunes
/// all succeed — followers coalesce instead of competing for admission.
#[test]
fn coalesced_followers_ride_the_leaders_permit() {
    const N: usize = 4;
    let daemon = Arc::new(
        Daemon::new(ServeOptions {
            backend: "gtx980".to_string(),
            quick: true,
            evals: Some(30),
            max_searches: Some(1),
            queue: Some(0),
            // Hold the leader's search open long enough for every
            // follower to join the coalition before it publishes.
            chaos: ChaosPlan {
                slow_rate: 1.0,
                slow_ms: 500,
                ..ChaosPlan::none()
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
                    daemon.handle_line(&tune_line("eqn1")).response
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in &responses {
        let v = parse(r);
        assert_eq!(
            v.get("ok").and_then(Json::as_bool),
            Some(true),
            "identical requests must all succeed, not compete for permits: {r}"
        );
    }
    let m = daemon.snapshot();
    assert_eq!(m.busy, 0, "no follower may be shed");
    assert_eq!(m.coalesced, N - 1, "all but the leader coalesce");
}

/// With one permit and one queue slot, three distinct cold tunes split
/// exactly: one runs, one waits in the queue and then runs, one is
/// rejected `Full` immediately.
#[test]
fn queue_admits_exactly_its_depth() {
    let daemon = Arc::new(
        Daemon::new(ServeOptions {
            backend: "gtx980".to_string(),
            quick: true,
            evals: Some(30),
            max_searches: Some(1),
            queue: Some(1),
            // Hold each admitted search open long enough that all three
            // arrivals overlap: one runs, one queues, one overflows.
            chaos: ChaosPlan {
                slow_rate: 1.0,
                slow_ms: 2000,
                ..ChaosPlan::none()
            },
            ..ServeOptions::default()
        })
        .unwrap(),
    );
    // Three sibling excitations: near-identical setup cost, so all
    // three reach the admission gate while the first search is running.
    const WORKLOADS: &[&str] = &["s1_1", "s1_2", "s1_3"];
    let barrier = Arc::new(Barrier::new(WORKLOADS.len()));
    let responses: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = WORKLOADS
            .iter()
            .map(|w| {
                let daemon = Arc::clone(&daemon);
                let barrier = Arc::clone(&barrier);
                let line = tune_line(w);
                s.spawn(move || {
                    barrier.wait();
                    daemon.handle_line(&line).response
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let ok = responses
        .iter()
        .filter(|r| parse(r).get("ok").and_then(Json::as_bool) == Some(true))
        .count();
    let busy = responses
        .iter()
        .filter(|r| parse(r).get("stage").and_then(Json::as_str) == Some("busy"))
        .count();
    assert_eq!(
        (ok, busy),
        (2, 1),
        "1 permit + 1 queue slot serves exactly 2"
    );
    assert_eq!(daemon.gate().depth(), (0, 0));
}

/// A coalesced follower whose request set no deadline is still bounded:
/// the server-side `follower_wait_s` cap converts a wedged leader into a
/// typed serve error instead of an unbounded hang.
#[test]
fn follower_wait_is_capped_even_without_a_deadline() {
    let daemon = Arc::new(
        Daemon::new(ServeOptions {
            backend: "gtx980".to_string(),
            quick: true,
            evals: Some(30),
            follower_wait_s: 0.2,
            // Every leader stalls well past the follower cap.
            chaos: ChaosPlan {
                slow_rate: 1.0,
                slow_ms: 1500,
                ..ChaosPlan::none()
            },
            ..ServeOptions::default()
        })
        .unwrap(),
    );
    let barrier = Arc::new(Barrier::new(2));
    let start = std::time::Instant::now();
    let responses: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let daemon = Arc::clone(&daemon);
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    barrier.wait();
                    daemon.handle_line(&tune_line("eqn1")).response
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let oks: Vec<bool> = responses
        .iter()
        .map(|r| parse(r).get("ok").and_then(Json::as_bool) == Some(true))
        .collect();
    assert_eq!(
        oks.iter().filter(|&&b| b).count(),
        1,
        "the slow leader succeeds: {responses:?}"
    );
    let follower = responses
        .iter()
        .find(|r| parse(r).get("ok").and_then(Json::as_bool) == Some(false))
        .expect("the follower must time out");
    let v = parse(follower);
    assert_eq!(v.get("stage").and_then(Json::as_str), Some("serve"));
    assert!(
        v.get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("server-side wait cap"),
        "{follower}"
    );
    assert!(
        start.elapsed().as_secs() < 30,
        "the follower must give up at the cap, not hang"
    );
}

/// After a shutdown request the daemon drains: pings still answer, but
/// new tunes are shed with typed Busy so clients fail over promptly.
#[test]
fn shutdown_sheds_new_tunes_with_typed_busy() {
    let daemon = Daemon::new(ServeOptions {
        backend: "gtx980".to_string(),
        quick: true,
        evals: Some(30),
        ..ServeOptions::default()
    })
    .unwrap();
    let out = daemon.handle_line(r#"{"op":"shutdown"}"#);
    assert!(out.shutdown);
    let v = parse(&daemon.handle_line(&tune_line("eqn1")).response);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(v.get("stage").and_then(Json::as_str), Some("busy"));
    assert_eq!(v.get("exit_code").and_then(Json::as_u64), Some(13));
    assert!(
        v.get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("draining"),
        "{v:?}"
    );
    let ping = parse(&daemon.handle_line(r#"{"op":"ping"}"#).response);
    assert_eq!(ping.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(daemon.snapshot().busy, 1);
}
