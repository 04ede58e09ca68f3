//! Golden equivalence for the descriptor-driven backend refactor.
//!
//! The built-in backends are now parsed from embedded TOML descriptors
//! and resolved through a [`BackendSet`] instead of hard-coded structs
//! and a registry — these tests pin that the observable behavior did not
//! move: tuning through the set picks the same configuration with the
//! same times (bit-identical) as tuning the architecture directly, the
//! whole 7-key sweep holds together, and a *custom* descriptor round
//! trips tune → store → serve with a warm hit that spends zero search
//! evaluations.

use std::sync::Arc;

use barracuda::pipeline::{TuneParams, WorkloadTuner};
use barracuda::{BackendSet, Daemon, ServeOptions, TuningSession};
use gpusim::ArchDescriptor;

fn params() -> TuneParams {
    let mut p = TuneParams::quick();
    p.surf.max_evals = 25;
    p
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!(
        "barracuda_descriptor_golden_{tag}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// The built-in set still carries exactly the seven pre-refactor keys,
/// in order.
#[test]
fn builtin_set_has_the_seven_keys_in_order() {
    assert_eq!(
        BackendSet::builtin().keys(),
        vec![
            "gtx980",
            "k20",
            "c2050",
            "cpu1",
            "cpu4",
            "acc-naive",
            "acc-opt"
        ]
    );
}

/// Tuning a GPU backend through the session/BackendSet path is
/// bit-identical to tuning the architecture directly: same winning
/// configuration id, same device seconds, same search telemetry — which
/// is exactly what makes the CLI timing line byte-identical.
#[test]
fn session_tuning_matches_direct_arch_tuning_bitwise() {
    let w = barracuda::kernels::builtin("eqn1").unwrap();
    let tuner = WorkloadTuner::build(&w);
    for key in ["gtx980", "k20", "c2050"] {
        let arch = gpusim::arch_by_key(key).unwrap();
        let direct = tuner.autotune(&arch, params()).unwrap();
        let session = TuningSession::new();
        let via_set = session.tune(&tuner, key, params()).unwrap().tuned;
        assert_eq!(via_set.id, direct.id, "{key}: picked configuration");
        assert_eq!(
            via_set.gpu_seconds.to_bits(),
            direct.gpu_seconds.to_bits(),
            "{key}: device seconds must be bit-identical"
        );
        assert_eq!(via_set.arch_name, direct.arch_name, "{key}");
        assert_eq!(via_set.search.n_evals, direct.search.n_evals, "{key}");
        assert_eq!(via_set.search.space_size, direct.search.space_size, "{key}");
    }
}

/// The GPU backends' plan-store salts are the descriptor digests — and
/// differ from the eval-cache salts (which stay keyed by display name so
/// the shared feature memo layout is unchanged).
#[test]
fn gpu_store_salts_are_descriptor_digests() {
    for key in ["gtx980", "k20", "c2050"] {
        let arch = gpusim::arch_by_key(key).unwrap();
        let digest = ArchDescriptor::from_arch(arch).digest();
        let builtin = BackendSet::builtin();
        let b = builtin.get(key).unwrap();
        assert_eq!(b.cache_salt(), digest, "{key}");
        assert_ne!(digest, 0, "{key}: digest 0 is reserved");
    }
}

/// A custom descriptor round trips through the whole stack: load it into
/// a set, tune with a store (miss → searched + persisted), then serve
/// from the same store with the descriptor loaded — the daemon answers
/// with a warm hit, zero search evaluations, and the same result bits.
#[test]
fn custom_descriptor_round_trips_tune_store_serve() {
    // A K20 variant: different key/name and slightly different memory
    // bandwidth, so it is a genuinely distinct backend with its own salt.
    let mut arch = gpusim::k20();
    arch.key = "k20x".to_string();
    arch.name = "Tesla K20X (golden)".to_string();
    arch.mem_bw_gbs = 180.0;
    let toml = ArchDescriptor::from_arch(arch).canonical_toml();

    let dir = temp_dir("roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    let desc_path = dir.join("k20x.toml");
    std::fs::write(&desc_path, &toml).unwrap();
    let store = dir.join("store");

    // Tune side: CLI-equivalent session with the descriptor loaded.
    let mut set = BackendSet::builtin();
    let loaded = set.load_arch_file(&desc_path).unwrap();
    assert_eq!(loaded, "k20x");
    let session = TuningSession::with_store(&store)
        .unwrap()
        .with_backends(Arc::new(set));
    let w = barracuda::kernels::builtin("eqn1").unwrap();
    let tuner = WorkloadTuner::build(&w);
    let out = session.tune(&tuner, "k20x", params()).unwrap();
    assert!(
        matches!(
            out.source,
            barracuda::PlanSource::Searched { stored: Some(_) }
        ),
        "first tune must search and persist"
    );

    // Serve side: a fresh daemon loads the same descriptor and store.
    let daemon = Daemon::new(ServeOptions {
        store: Some(store),
        backend: "k20x".to_string(),
        quick: true,
        evals: Some(25),
        arch_files: vec![desc_path],
        ..ServeOptions::default()
    })
    .unwrap();
    let served = daemon
        .serve_tune(&barracuda::serve::TuneRequest {
            id: None,
            workload: "builtin:eqn1".to_string(),
            backend: Some("k20x".to_string()),
            evals: Some(25),
            quick: Some(true),
            deadline_s: None,
            objective: None,
        })
        .unwrap();
    assert_eq!(served.source, barracuda::serve::ServedSource::Hit);
    assert_eq!(served.evals_performed, 0, "warm hit must not search");
    assert_eq!(served.arch, "Tesla K20X (golden)");
    assert_eq!(
        served.gpu_seconds.to_bits(),
        out.tuned.gpu_seconds.to_bits(),
        "replayed result must be bit-identical to the searched one"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// An unknown default backend or a missing descriptor file fails daemon
/// construction with a typed error instead of a daemon that rejects
/// every request.
#[test]
fn daemon_rejects_bad_descriptor_configuration() {
    let Err(err) = Daemon::new(ServeOptions {
        backend: "nope".to_string(),
        ..ServeOptions::default()
    }) else {
        panic!("unknown default backend must fail daemon construction");
    };
    assert_eq!(err.stage(), "serve");

    let Err(err) = Daemon::new(ServeOptions {
        backend: "gtx980".to_string(),
        arch_files: vec![std::path::PathBuf::from("/nonexistent/arch.toml")],
        ..ServeOptions::default()
    }) else {
        panic!("missing descriptor file must fail daemon construction");
    };
    assert_eq!(err.stage(), "descriptor");
    assert_eq!(err.exit_code(), 14);
}
