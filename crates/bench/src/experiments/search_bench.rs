//! Parallel-search benchmark: serial vs rayon-parallel SURF evaluation on
//! the Table II workloads, with memo-cache statistics.
//!
//! This measures the evaluation engine itself, not the simulated kernels:
//! wall-clock per search, evaluations per second, threads used, memo hit
//! rates, and a bit-identity check between the serial and parallel runs.
//! [`write_json`] emits the rows as `BENCH_search.json` for machine
//! consumption (the `report` binary calls it).

use barracuda::pipeline::{TuneParams, WorkloadTuner};
use barracuda::report::{fmt_f, Table};

/// One workload's serial-vs-parallel search measurements.
#[derive(Clone, Debug)]
pub struct SearchBenchRow {
    pub workload: String,
    pub space_size: u128,
    pub n_evals: usize,
    pub serial_wall_s: f64,
    pub parallel_wall_s: f64,
    /// Serial wall-clock over parallel wall-clock (>1 means parallel wins).
    pub speedup: f64,
    /// Actual size of the rayon pool the parallel run fanned out over
    /// (workers + calling thread). A single-CPU host legitimately reports
    /// 1 — the backend still goes through the parallel code path.
    pub threads: usize,
    pub evals_per_sec: f64,
    /// Per-op memo layer traffic: lookups keyed by `(statement, version,
    /// op, choice)` under the whole-configuration cache.
    pub per_op_hits: usize,
    pub per_op_misses: usize,
    pub per_op_hit_rate: f64,
    /// Whole-configuration time-cache hit rate (the rate the per-op layer
    /// is meant to beat).
    pub time_hit_rate: f64,
    /// Hot-path stage split of the parallel run, nanoseconds.
    pub decode_ns: u64,
    pub map_ns: u64,
    pub sim_ns: u64,
    pub predict_ns: u64,
    /// Parallel run reproduced the serial run bit for bit.
    pub identical: bool,
}

pub fn run(params: TuneParams) -> Vec<SearchBenchRow> {
    let arch = gpusim::k20();
    barracuda::kernels::table2_benchmarks()
        .iter()
        .map(|w| {
            let tuner = WorkloadTuner::build(w);
            let mut serial_params = params;
            serial_params.threads = 1;
            let serial = tuner.autotune(&arch, serial_params).unwrap();
            let mut parallel_params = params;
            parallel_params.threads = 0;
            let parallel = tuner.autotune(&arch, parallel_params).unwrap();
            let bits = |v: &[f64]| v.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
            let identical = serial.id == parallel.id
                && bits(&serial.search.evaluated_times) == bits(&parallel.search.evaluated_times);
            SearchBenchRow {
                workload: w.name.clone(),
                space_size: tuner.total_space(),
                n_evals: parallel.search.n_evals,
                serial_wall_s: serial.search.wall_s,
                parallel_wall_s: parallel.search.wall_s,
                speedup: serial.search.wall_s / parallel.search.wall_s.max(1e-12),
                // The backend's own count can be stale when the pool is
                // lazily initialized; ask rayon for the real pool size.
                threads: parallel.search.threads.max(rayon::current_num_threads()),
                evals_per_sec: parallel.search.n_evals as f64 / parallel.search.wall_s.max(1e-12),
                per_op_hits: parallel.search.per_op_hits,
                per_op_misses: parallel.search.per_op_misses,
                per_op_hit_rate: parallel.search.per_op_hit_rate(),
                time_hit_rate: parallel.search.time_hit_rate(),
                decode_ns: parallel.search.hot.decode_ns,
                map_ns: parallel.search.hot.map_ns,
                sim_ns: parallel.search.hot.sim_ns,
                predict_ns: parallel.search.hot.predict_ns,
                identical,
            }
        })
        .collect()
}

pub fn render(rows: &[SearchBenchRow]) -> Table {
    let mut t = Table::new(
        "Search engine: serial vs parallel wall-clock (identical results required)",
        &[
            "workload",
            "evals",
            "serial s",
            "parallel s",
            "speedup",
            "threads",
            "evals/s",
            "per-op rate",
            "identical",
        ],
    );
    for r in rows {
        t.row(vec![
            r.workload.clone(),
            r.n_evals.to_string(),
            fmt_f(r.serial_wall_s),
            fmt_f(r.parallel_wall_s),
            fmt_f(r.speedup),
            r.threads.to_string(),
            fmt_f(r.evals_per_sec),
            fmt_f(r.per_op_hit_rate),
            r.identical.to_string(),
        ]);
    }
    t
}

/// Hot-path stage split of the same rows: where evaluation wall-time goes.
pub fn render_hot(rows: &[SearchBenchRow]) -> Table {
    let mut t = Table::new(
        "Evaluation hot path: per-stage wall-time (ms) and memo traffic",
        &[
            "workload",
            "decode ms",
            "map ms",
            "sim ms",
            "predict ms",
            "per-op hits",
            "per-op misses",
            "per-op rate",
            "time rate",
        ],
    );
    let ms = |ns: u64| fmt_f(ns as f64 / 1e6);
    for r in rows {
        t.row(vec![
            r.workload.clone(),
            ms(r.decode_ns),
            ms(r.map_ns),
            ms(r.sim_ns),
            ms(r.predict_ns),
            r.per_op_hits.to_string(),
            r.per_op_misses.to_string(),
            fmt_f(r.per_op_hit_rate),
            fmt_f(r.time_hit_rate),
        ]);
    }
    t
}

/// Renders the rows as a JSON document (hand-rolled: the workspace carries
/// no serialization dependency).
pub fn to_json(rows: &[SearchBenchRow]) -> String {
    let mut s = String::from("{\n  \"search_bench\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"workload\": \"{}\", \"space_size\": {}, \"n_evals\": {}, \
             \"serial_wall_s\": {:.6}, \"parallel_wall_s\": {:.6}, \"speedup\": {:.3}, \
             \"threads\": {}, \"evals_per_sec\": {:.1}, \"per_op_hits\": {}, \
             \"per_op_misses\": {}, \"per_op_hit_rate\": {:.4}, \"time_hit_rate\": {:.4}, \
             \"decode_ns\": {}, \"map_ns\": {}, \"sim_ns\": {}, \"predict_ns\": {}, \
             \"identical\": {}}}{}\n",
            r.workload,
            r.space_size,
            r.n_evals,
            r.serial_wall_s,
            r.parallel_wall_s,
            r.speedup,
            r.threads,
            r.evals_per_sec,
            r.per_op_hits,
            r.per_op_misses,
            r.per_op_hit_rate,
            r.time_hit_rate,
            r.decode_ns,
            r.map_ns,
            r.sim_ns,
            r.predict_ns,
            r.identical,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Writes [`to_json`] to `path`.
pub fn write_json(rows: &[SearchBenchRow], path: &str) -> std::io::Result<()> {
    std::fs::write(path, to_json(rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::smoke_params;

    #[test]
    fn smoke_parallel_matches_serial_everywhere() {
        let rows = run(smoke_params());
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(
                r.identical,
                "{} diverged between serial/parallel",
                r.workload
            );
            assert!(r.n_evals > 0);
            assert!(r.threads >= 1);
        }
    }

    #[test]
    fn per_op_layer_sees_traffic_on_every_workload() {
        let rows = run(smoke_params());
        for r in &rows {
            assert!(
                r.per_op_hits + r.per_op_misses > 0,
                "{}: per-op memo layer saw no traffic",
                r.workload
            );
            // Fresh-cache runs never revisit a whole configuration, so the
            // per-op layer can only do better than the time cache.
            assert!(
                r.per_op_hit_rate >= r.time_hit_rate,
                "{}: per-op rate {} fell below whole-config time rate {}",
                r.workload,
                r.per_op_hit_rate,
                r.time_hit_rate
            );
        }
    }

    #[test]
    fn per_op_layer_outhits_whole_config_cache_at_real_budgets() {
        // Per-op reuse comes from distinct configurations sharing per-op
        // digits, which needs a non-trivial eval budget to materialize;
        // the search is seeded, so these rates are exact and reproducible.
        let w = barracuda::kernels::table2_benchmarks()
            .into_iter()
            .find(|w| w.name == "tce")
            .unwrap();
        let tuner = WorkloadTuner::build(&w);
        let mut params = TuneParams::quick();
        params.surf.max_evals = 150;
        params.pool_cap = 5000;
        let tuned = tuner.autotune(&gpusim::k20(), params).unwrap();
        assert!(
            tuned.search.per_op_hit_rate() > tuned.search.time_hit_rate(),
            "tce: per-op rate {} must beat whole-config rate {}",
            tuned.search.per_op_hit_rate(),
            tuned.search.time_hit_rate()
        );
    }

    #[test]
    fn json_is_well_formed_enough() {
        let rows = run(smoke_params());
        let j = to_json(&rows);
        assert!(j.starts_with('{') && j.trim_end().ends_with('}'));
        assert_eq!(j.matches("\"workload\"").count(), rows.len());
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "balanced braces"
        );
    }
}
