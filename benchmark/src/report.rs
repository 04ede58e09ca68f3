//! Per-layer metrics of a traced run, derived from its spans.

use barracuda::MetricsSnapshot;

use crate::stats::median;
use crate::trace::{Span, Trace};
use crate::workload::{metric, Metric};

/// What a traced run measured besides its spans.
pub struct LayerFacts {
    /// Latency of each `stats` scrape, in ms.
    pub stats_ms: Vec<f64>,
    /// The serving daemon's counters at the end of the run.
    pub snapshot: MetricsSnapshot,
    /// Traced ÷ untraced latency − 1, over the same operations.
    pub overhead: f64,
}

const MS: f64 = 1e-6;
const US: f64 = 1e-3;

fn med(values: impl Iterator<Item = f64>) -> f64 {
    median(&values.collect::<Vec<_>>())
}

/// Per `parent` span, `f` summed over its `child` spans.
fn per_parent(trace: &Trace, parent: &str, child: &str, f: impl Fn(&Span) -> f64) -> Vec<f64> {
    trace
        .named(parent)
        .map(|(idx, _)| {
            trace
                .spans()
                .iter()
                .filter(|s| s.parent == Some(idx) && s.name == child)
                .map(&f)
                .sum()
        })
        .collect()
}

/// Share of `hits` among `hits + misses`, summed over every `span` span.
fn hit_rate(trace: &Trace, span: &str, hits: &str, misses: &str) -> f64 {
    let (h, m) = trace.named(span).fold((0.0, 0.0), |(h, m), (_, s)| {
        (h + s.counter(hits), m + s.counter(misses))
    });
    h / (h + m)
}

pub fn per_layer(trace: &Trace, facts: &LayerFacts) -> Vec<Metric> {
    let dur =
        |name: &str, scale: f64| med(trace.named(name).map(|(_, s)| s.dur_ns() as f64 * scale));
    let count = |name: &str, key: &str| med(trace.named(name).map(|(_, s)| s.counter(key)));
    let surf_inner = |key: &str| {
        med(trace
            .named("surf.search")
            .map(|(_, s)| s.inner_ns(key) as f64 * MS))
    };
    let surf_ns = |key: &str| count("surf.search", key) * MS;
    let child_ns = trace.child_ns();
    let children = |i: usize| child_ns[i] as f64;
    let requests: Vec<(usize, &Span)> = trace.named("request").collect();
    let snap = &facts.snapshot;
    vec![
        metric(
            "frontend.parse_ms",
            median(&per_parent(trace, "setup", "frontend.parse", |s| {
                s.dur_ns() as f64
            })) * MS,
            "ms",
        ),
        metric(
            "lower.ms",
            median(&per_parent(trace, "setup", "lower", |s| s.dur_ns() as f64)) * MS,
            "ms",
        ),
        metric(
            "lower.versions",
            median(&per_parent(trace, "setup", "lower", |s| {
                s.counter("versions")
            })),
            "count",
        ),
        metric("space.pool_ms", dur("space.pool", MS), "ms"),
        metric("space.pool_rows", count("space.pool", "rows"), "count"),
        metric("surf.search_ms", dur("surf.search", MS), "ms"),
        metric("surf.rounds", count("surf.search", "rounds"), "count"),
        metric("surf.evals", count("surf.search", "evals"), "count"),
        metric("surf.predict_ms", surf_inner("surf.predict"), "ms"),
        metric(
            "surf.fit_driver_ms",
            med(trace
                .named("surf.search")
                .map(|(i, _)| trace.self_ns(i, &child_ns) as f64 * MS)),
            "ms",
        ),
        metric(
            "evaluate.features_ms",
            surf_inner("evaluate.features"),
            "ms",
        ),
        metric(
            "evaluate.features_calls",
            count("surf.search", "features_calls"),
            "count",
        ),
        metric("evaluate.eval_ms", surf_inner("evaluate.eval"), "ms"),
        metric(
            "evaluate.eval_calls",
            count("surf.search", "eval_calls"),
            "count",
        ),
        metric("evaluate.decode_ms", surf_ns("decode_ns"), "ms"),
        metric("evaluate.map_ms", surf_ns("map_ns"), "ms"),
        metric("evaluate.sim_ms", surf_ns("sim_ns"), "ms"),
        metric(
            "evaluate.per_op_hit_rate",
            hit_rate(trace, "search.pick", "op_hits", "op_misses"),
            "ratio",
        ),
        metric(
            "evaluate.time_hit_rate",
            hit_rate(trace, "search.pick", "time_hits", "time_misses"),
            "ratio",
        ),
        metric("search.pick_ms", dur("search.pick", MS), "ms"),
        metric(
            "search.coverage",
            med(trace
                .named("tune")
                .map(|(i, s)| children(i) / s.dur_ns() as f64)),
            "ratio",
        ),
        metric("plan.encode_ms", dur("plan.encode", MS), "ms"),
        metric("store.insert_ms", dur("store.insert", MS), "ms"),
        metric("serve.parse_us", dur("serve.parse", US), "us"),
        metric("serve.resolve_us", dur("serve.resolve", US), "us"),
        metric("store.lookup_us", dur("store.lookup", US), "us"),
        metric("plan.replay_us", dur("plan.replay", US), "us"),
        metric("serve.encode_us", dur("serve.encode", US), "us"),
        metric(
            "serve.other_us",
            med(requests
                .iter()
                .map(|&(i, s)| (s.counter("handle_ns") - children(i)) * US)),
            "us",
        ),
        metric(
            "serve.coverage",
            med(requests
                .iter()
                .map(|&(i, s)| children(i) / s.counter("handle_ns"))),
            "ratio",
        ),
        metric("serve.stats_ms", median(&facts.stats_ms), "ms"),
        metric(
            "serve.stats_max_ms",
            facts.stats_ms.iter().copied().fold(f64::NAN, f64::max),
            "ms",
        ),
        metric("serve.latencies_held", snap.requests as f64, "count"),
        metric("serve.store_hits", snap.store_hits as f64, "count"),
        metric("serve.store_misses", snap.store_misses as f64, "count"),
        metric("serve.coalesced", snap.coalesced as f64, "count"),
        metric("trace.overhead", facts.overhead, "ratio"),
    ]
}
