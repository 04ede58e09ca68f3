//! The cold-search workloads: back-to-back tunes through the product path
//! `WorkloadTuner::autotune_with_cache`, one at a time on one thread.

use std::path::Path;
use std::time::Instant;

use barracuda::stages::frontend::workload_fingerprint;
use barracuda::{
    kernels, Daemon, EvalCache, ServeOptions, TuneParams, TuningSession, WorkloadTuner,
};

use crate::check;
use crate::layers::{self, Pick};
use crate::report::{per_layer, LayerFacts};
use crate::stats::{describe_tail, geomean, median, mix, percentile, Stream};
use crate::trace::Trace;
use crate::workload::{metric, peak_rss_mb, Outcome, RunOptions, Workload, BUILTINS};

/// Every tune evaluates exactly this many configurations: the paper's
/// 50-point initial design plus the 8 batches of 10 its patience rule always
/// runs. Disabling the early stop keeps the work per tune independent of the
/// seed, so run-to-run spread measures the machine, not the draw.
pub const EVALS: usize = 130;
/// Set-up is repeated and its median reported.
const SETUPS: usize = 9;
const BACKEND: &str = "k20";

/// The contractions a search workload cycles over.
pub fn contractions(workload: Workload) -> Vec<&'static str> {
    match workload {
        Workload::SearchTce => vec!["tce"],
        _ => BUILTINS
            .iter()
            .copied()
            .filter(|n| n.contains('_'))
            .collect(),
    }
}

/// The tune parameters of rep `rep`: the paper's search on one thread with a
/// fixed budget, SURF and forest seeds drawn from the run seed.
pub fn tune_params(seed: u64, rep: usize, smoke: bool) -> TuneParams {
    let mut p = TuneParams::paper();
    if smoke {
        p.pool_cap = 500;
        p.surf.init_evals = 10;
        p.surf.forest.n_trees = 5;
    }
    p.threads = 1;
    p.surf.patience = None;
    p.surf.max_evals = if smoke { 20 } else { EVALS };
    p.surf.seed = mix(seed, 2 * rep as u64);
    p.surf.forest.seed = mix(seed, 2 * rep as u64 + 1);
    p
}

/// Frontend and lowering of every contraction: the set-up a tune needs.
pub fn set_up(trace: &mut Trace, names: &[&str]) -> Vec<WorkloadTuner> {
    trace.span("setup", |tr| {
        names
            .iter()
            .map(|name| {
                let w = tr.span("frontend.parse", |_| {
                    kernels::builtin(name).expect("every name is a builtin")
                });
                tr.span("lower", |tr| {
                    let tuner = WorkloadTuner::build(&w);
                    let versions: usize = tuner.statements.iter().map(|s| s.variants.len()).sum();
                    tr.count("versions", versions as f64);
                    tuner
                })
            })
            .collect()
    })
}

pub fn run(opts: &RunOptions, state: &Path) -> Outcome {
    let mut out = Outcome::default();
    let mut names = contractions(opts.workload);
    let arch = gpusim::k20();
    let mut trace = Trace::new(opts.trace);
    if opts.smoke {
        names.truncate(2);
    }
    let mut setup_s = Vec::new();
    let mut tuners = Vec::new();
    for _ in 0..if opts.smoke { 1 } else { SETUPS } {
        drop(std::mem::take(&mut tuners));
        let t = Instant::now();
        tuners = set_up(&mut trace, &names);
        setup_s.push(t.elapsed().as_secs_f64());
    }

    // Every pick is filed in a plan store and replayed from it: the
    // compile-once / run-many loop plans exist for.
    let plans = state.join("plans");
    let session = match TuningSession::with_store(&plans) {
        Ok(session) => session,
        Err(e) => {
            out.fail(format!("cannot open the plan store: {e}"));
            return out;
        }
    };
    let store = session
        .store()
        .expect("the session was opened with a store");
    let backend = session
        .backends()
        .get(BACKEND)
        .expect("k20 is a builtin backend");
    // Traced, a daemon over the same store also serves each pick, so a warm
    // request can be split across the serving layers.
    let daemon = if opts.trace {
        match Daemon::new(ServeOptions {
            store: Some(plans.clone()),
            backend: BACKEND.to_string(),
            ..ServeOptions::default()
        }) {
            Ok(d) => Some(d),
            Err(e) => {
                out.fail(format!("cannot start the daemon: {e}"));
                return out;
            }
        }
    } else {
        None
    };
    let by_fp: layers::Tuners = tuners
        .iter()
        .map(|t| (workload_fingerprint(&t.workload), t))
        .collect();

    let mut tune_s = Vec::new();
    let mut traced_s = Vec::new();
    // Each cycle tunes every contraction once, in an order drawn afresh per
    // cycle. In a fixed order the costliest kernels would always run in the
    // same seconds of each cycle, and the tail would sample the machine's
    // speed in those seconds only.
    let mut order: Vec<usize> = (0..names.len()).collect();
    let mut draw = Stream::new(mix(opts.seed, 3));
    let start = Instant::now();
    let mut rep = 0usize;
    while if opts.smoke {
        rep < names.len()
    } else {
        start.elapsed().as_secs_f64() < opts.seconds
    } {
        if rep.is_multiple_of(names.len()) {
            draw.shuffle(&mut order);
        }
        let k = order[rep % names.len()];
        let tuner = &tuners[k];
        let params = tune_params(opts.seed, rep, opts.smoke);
        let key = format!("{}#{rep}", names[k]);
        trace.set_request(rep as u64);
        rep += 1;
        out.attempted += 1;

        let t = Instant::now();
        let tuned = tuner.autotune_with_cache(&arch, params, &EvalCache::new());
        let wall = t.elapsed().as_secs_f64();
        let tuned = match tuned {
            Ok(tuned) => tuned,
            Err(e) => {
                out.fail(format!("{}: tune failed: {e}", names[k]));
                continue;
            }
        };
        tune_s.push(wall);
        out.picks.push((key, tuned.gpu_seconds * 1e6));

        let checked = check::pick(tuner, &arch, tuned.id, tuned.gpu_seconds).and_then(|()| {
            layers::traced_persist(&mut trace, tuner, backend.as_ref(), &tuned, store)?;
            check::replays(&session, tuner, BACKEND, &tuned)?;
            let Some(daemon) = &daemon else {
                return Ok(());
            };
            let line = layers::tune_line(names[k], BACKEND);
            let response = daemon.handle_line(&line).response;
            check::warm_response(&response, tuned.gpu_seconds * 1e6, tuned.search.n_evals)?;
            // The first request lowers the contraction on first sight and
            // meets caches the tune evicted; split a second one, so the
            // split compares warm with warm.
            let t = Instant::now();
            let response = daemon.handle_line(&line).response;
            let handle_ns = t.elapsed().as_nanos() as u64;
            let again = layers::traced_request(&mut trace, daemon, &by_fp, &line, handle_ns)?;
            if again != response {
                return Err(format!(
                    "traced request answered {again}, daemon {response}"
                ));
            }
            Ok(())
        });
        if let Err(e) = checked {
            out.fail(e);
        }

        if trace.is_on() {
            let t = Instant::now();
            match layers::traced_tune(&mut trace, tuner, &arch, &params) {
                Ok(p) if p.same_bits(&Pick::of(&tuned)) => traced_s.push(t.elapsed().as_secs_f64()),
                Ok(p) => out.fail(format!(
                    "{}: traced reconstruction picked {} ({:e} s), the product {} ({:e} s)",
                    names[k], p.id, p.gpu_seconds, tuned.id, tuned.gpu_seconds
                )),
                Err(e) => out.fail(e),
            }
        }
    }

    let served = daemon.as_ref().map(|daemon| {
        let t = Instant::now();
        let stats = daemon.handle_line(r#"{"op":"stats"}"#).response;
        let stats_ms = t.elapsed().as_secs_f64() * 1e3;
        (stats, stats_ms, daemon.snapshot())
    });
    if let Some((stats, _, snapshot)) = &served {
        if snapshot.errors > 0 {
            out.fail(format!("the daemon serving the picks failed: {stats}"));
        }
    }
    // The executor check allocates on its own; release the product's state
    // first so it does not stack on the peak.
    drop(by_fp);
    drop(daemon);
    drop(session);
    drop(tuners);
    for name in &names {
        if let Err(e) = check::executes_correctly(name, &arch, opts.seed) {
            out.fail(e);
        }
    }

    if let Some((_, stats_ms, snapshot)) = served {
        let facts = LayerFacts {
            stats_ms: vec![stats_ms],
            snapshot,
            overhead: median(&traced_s) / median(&tune_s) - 1.0,
        };
        out.metrics = per_layer(&trace, &facts);
    } else {
        // Statistics over whole cycles only, so every run weighs each
        // contraction equally whatever the machine's speed.
        let whole = if tune_s.len() >= names.len() {
            tune_s.len() - tune_s.len() % names.len()
        } else {
            tune_s.len()
        };
        let mut sorted = tune_s[..whole].to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail = opts.workload.tail_percentile();
        eprintln!(
            "{}: {} tunes; tail {}",
            opts.workload.name(),
            sorted.len(),
            describe_tail(sorted.len(), tail)
        );
        out.metrics = vec![
            metric("setup_s", median(&setup_s), "s"),
            metric("p50_ms", percentile(&sorted, 50.0) * 1e3, "ms"),
            metric("tail_ms", percentile(&sorted, tail) * 1e3, "ms"),
            metric(
                "rps",
                sorted.len() as f64 / sorted.iter().sum::<f64>(),
                "1/s",
            ),
            // Every tune is a cold search.
            metric("cold_p10_ms", percentile(&sorted, 10.0) * 1e3, "ms"),
            metric(
                "pick_gpu_us_geomean",
                geomean(out.picks[..whole].iter().map(|&(_, us)| (us, 1))),
                "us",
            ),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
        ];
    }
    crate::write_trace(opts, &trace);
    out
}
