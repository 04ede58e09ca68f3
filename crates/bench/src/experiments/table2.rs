//! Table II: individual tensor-contraction results.
//!
//! For each of Eqn.(1), Lg3, Lg3t and TCE ex: speedup of the GTX 980 result
//! over sequential Haswell, plus (GFlops, SURF search time) on GTX 980,
//! K20 and C2050. GFlops include PCIe transfers, as the paper's do.

use barracuda::cpu::workload_cpu_time;
use barracuda::pipeline::{TuneParams, WorkloadTuner};
use barracuda::report::{fmt_f, fmt_secs, Table};
use barracuda::workload::Workload;
use barracuda::TuningSession;
use cpusim::model::CpuModel;
use gpusim::GpuArch;

/// One benchmark's results across the three architectures.
#[derive(Clone, Debug)]
pub struct Table2Row {
    pub name: String,
    /// GTX 980 speedup over sequential Haswell (paper's first column).
    pub speedup: f64,
    /// (gflops, search_seconds, n_evals) per architecture.
    pub per_arch: Vec<(String, f64, f64, usize)>,
}

/// Runs one benchmark on every architecture.
///
/// GFlops follow the paper's measurement protocol: times are averaged over
/// `reps` repetitions with device-resident data, so PCIe transfers amortize
/// across the repetitions. The speedup baseline is *naive* sequential C
/// (the untuned loop nests the framework starts from).
pub fn run_benchmark(
    session: &TuningSession,
    workload: &Workload,
    archs: &[GpuArch],
    params: TuneParams,
) -> Table2Row {
    let tuner = WorkloadTuner::build(workload);
    let cpu = workload_cpu_time(workload, &CpuModel::haswell_naive(), 1);
    let mut per_arch = Vec::new();
    let mut speedup = 0.0;
    for arch in archs {
        let tuned = session.tune_on_arch(&tuner, arch, params).unwrap();
        let search = tuned.search.search_seconds(arch, params.reps);
        if arch.name == "GTX 980" {
            speedup = cpu.time_s / tuned.amortized_seconds(params.reps);
        }
        per_arch.push((
            arch.name.to_string(),
            tuned.gflops_amortized(params.reps),
            search,
            tuned.search.n_evals,
        ));
    }
    Table2Row {
        name: workload.name.clone(),
        speedup,
        per_arch,
    }
}

/// Runs the full table on an explicit architecture list (`--backend`).
/// One [`TuningSession`] spans the whole table and keeps one record per
/// benchmark.
pub fn run_with_archs(archs: &[GpuArch], params: TuneParams) -> Vec<Table2Row> {
    let session = TuningSession::new();
    barracuda::kernels::table2_benchmarks()
        .iter()
        .map(|w| run_benchmark(&session, w, archs, params))
        .collect()
}

/// Runs the full table on the paper's three architectures.
pub fn run(params: TuneParams) -> Vec<Table2Row> {
    run_with_archs(&gpusim::arch::all_architectures(), params)
}

/// Renders the table in the paper's layout. The GF/search column pairs
/// follow whatever architectures the rows were run on (the paper's three
/// by default, fewer under `--backend`).
pub fn render(rows: &[Table2Row]) -> Table {
    // "GTX 980" -> "980", "Tesla K20" -> "K20".
    let short = |name: &str| {
        name.trim_start_matches("GTX ")
            .trim_start_matches("Tesla ")
            .to_string()
    };
    let mut headers = vec!["bench".to_string(), "speedup(980 vs 1-core)".to_string()];
    if let Some(first) = rows.first() {
        for (name, _, _, _) in &first.per_arch {
            headers.push(format!("{} GF", short(name)));
            headers.push(format!("{} search", short(name)));
        }
    }
    let mut t = Table::new(
        "Table II: individual tensor contractions (GFlops include transfers)",
        &headers.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    for r in rows {
        let mut cells = vec![r.name.clone(), format!("{:.2}x", r.speedup)];
        for (_, gf, search, _) in &r.per_arch {
            cells.push(fmt_f(*gf));
            cells.push(fmt_secs(*search));
        }
        t.row(cells);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::smoke_params;
    use tensor::index::uniform_dims;

    #[test]
    fn smoke_single_benchmark() {
        let w = Workload::parse(
            "mm",
            "C[i k] = Sum([j], A[i j] * B[j k])",
            &uniform_dims(&["i", "j", "k"], 12),
        )
        .unwrap();
        let archs = gpusim::arch::all_architectures();
        let row = run_benchmark(&TuningSession::new(), &w, &archs, smoke_params());
        assert_eq!(row.per_arch.len(), 3);
        assert!(row.speedup > 0.0);
        for (_, gf, search, evals) in &row.per_arch {
            assert!(*gf > 0.0);
            assert!(*search > 0.0);
            assert!(*evals > 0);
        }
        let t = render(&[row]);
        assert!(t.to_string().contains("mm"));
    }
}
