//! Golden pin for the bytes of the daemon's tune responses.
//!
//! A response line is what a client of `barracuda serve` parses, so its
//! bytes are the daemon's contract: every field, every float's shortest
//! spelling, and the order the fields come in. These lines were captured
//! from [`Daemon::handle_line`] before the daemon's lowering and session
//! state were reorganized. A change here means the wire answer moved;
//! that is a protocol break, not a test to re-bless.
//!
//! One in-process daemon (quick profile, `evals: 30`, a temporary plan
//! store) answers, in order:
//! - a cold and then a warm `tce` on the K20;
//! - a cold `tce` on the GTX 980: a second backend of the same workload;
//! - a cold and then a warm `d2_5` on the GTX 980 under the balanced
//!   objective;
//! - `tce` on the K20 under the balanced objective, which meets the
//!   time-only plan stored above and must search again;
//! - an unknown workload, which gets the typed error line.

use barracuda::{Daemon, ServeOptions};

const EXCHANGE: &[(&str, &str)] = &[
    (
        r#"{"op":"tune","workload":"tce","backend":"k20"}"#,
        r#"{"ok":true,"op":"tune","workload":"tce","backend":"k20","arch":"Tesla K20","source":"searched","gpu_us":177.7855216511534,"gflops_device":33.7485299380737,"gflops":21.542995945269098,"evals":30,"space":"2914447608000","evals_performed":30,"quarantined":0,"degraded":null,"objective":"time-only","peak_temp_bytes":"160000","timing":"Tesla K20           178 us device     33.75 GF device     21.54 GF w/transfers  (30 evals, space 2914447608000)"}"#,
    ),
    (
        r#"{"op":"tune","workload":"tce","backend":"k20"}"#,
        r#"{"ok":true,"op":"tune","workload":"tce","backend":"k20","arch":"Tesla K20","source":"hit","gpu_us":177.7855216511534,"gflops_device":33.7485299380737,"gflops":21.542995945269098,"evals":30,"space":"2914447608000","evals_performed":0,"quarantined":0,"degraded":null,"objective":"time-only","peak_temp_bytes":"160000","timing":"Tesla K20           178 us device     33.75 GF device     21.54 GF w/transfers  (30 evals, space 2914447608000)"}"#,
    ),
    (
        r#"{"op":"tune","workload":"tce","backend":"gtx980"}"#,
        r#"{"ok":true,"op":"tune","workload":"tce","backend":"gtx980","arch":"GTX 980","source":"searched","gpu_us":137.60526158774746,"gflops_device":43.602983859552126,"gflops":30.932794192107206,"evals":30,"space":"2914447608000","evals_performed":30,"quarantined":0,"degraded":null,"objective":"time-only","peak_temp_bytes":"160000","timing":"GTX 980             138 us device     43.60 GF device     30.93 GF w/transfers  (30 evals, space 2914447608000)"}"#,
    ),
    (
        r#"{"op":"tune","workload":"d2_5","backend":"gtx980","objective":"balanced"}"#,
        r#"{"ok":true,"op":"tune","workload":"d2_5","backend":"gtx980","arch":"GTX 980","source":"searched","gpu_us":6952.067347607673,"gflops_device":77.224641988652,"gflops":17.059434646147807,"evals":30,"space":"18900","evals_performed":30,"quarantined":0,"degraded":null,"objective":"time*1+mem*1+rw*0.25","peak_temp_bytes":"0","timing":"GTX 980            6952 us device     77.22 GF device     17.06 GF w/transfers  (30 evals, space 18900)"}"#,
    ),
    (
        r#"{"op":"tune","workload":"d2_5","backend":"gtx980","objective":"balanced"}"#,
        r#"{"ok":true,"op":"tune","workload":"d2_5","backend":"gtx980","arch":"GTX 980","source":"hit","gpu_us":6952.067347607673,"gflops_device":77.224641988652,"gflops":17.059434646147807,"evals":30,"space":"18900","evals_performed":0,"quarantined":0,"degraded":null,"objective":"time*1+mem*1+rw*0.25","peak_temp_bytes":"0","timing":"GTX 980            6952 us device     77.22 GF device     17.06 GF w/transfers  (30 evals, space 18900)"}"#,
    ),
    (
        r#"{"op":"tune","workload":"tce","backend":"k20","objective":"balanced"}"#,
        r#"{"ok":true,"op":"tune","workload":"tce","backend":"k20","arch":"Tesla K20","source":"searched","gpu_us":177.7855216511534,"gflops_device":33.7485299380737,"gflops":21.542995945269098,"evals":30,"space":"2914447608000","evals_performed":30,"quarantined":0,"degraded":null,"objective":"time*1+mem*1+rw*0.25","peak_temp_bytes":"160000","timing":"Tesla K20           178 us device     33.75 GF device     21.54 GF w/transfers  (30 evals, space 2914447608000)"}"#,
    ),
    (
        r#"{"op":"tune","workload":"nope","backend":"k20"}"#,
        r#"{"ok":false,"op":"tune","stage":"serve","error":"serve error: unknown workload \"nope\" — serve resolves builtin workloads only (eqn1, lg3, lg3t, tce, s1_1..s1_9, d1_1..d1_9, d2_1..d2_9)","exit_code":12}"#,
    ),
];

#[test]
fn daemon_responses_are_byte_identical() {
    let root = std::env::temp_dir().join(format!("barracuda_golden_serve_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let daemon = Daemon::new(ServeOptions {
        store: Some(root.clone()),
        backend: "gtx980".to_string(),
        quick: true,
        evals: Some(30),
        ..ServeOptions::default()
    })
    .unwrap();
    for (request, response) in EXCHANGE {
        assert_eq!(daemon.handle_line(request).response, *response, "{request}");
    }
    let _ = std::fs::remove_dir_all(&root);
}
