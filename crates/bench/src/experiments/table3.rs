//! Table III: Nekbone performance — OpenACC naive/optimized vs Barracuda
//! (GFlops on Tesla K20 and Tesla C2050).

use barracuda::nekbone::{model_gpu_perf_with, NekboneConfig, NekbonePerf};
use barracuda::pipeline::TuneParams;
use barracuda::report::{fmt_f, Table};
use barracuda::TuningSession;

/// One row: architecture + the three strategies' GFlops.
#[derive(Clone, Debug)]
pub struct Table3Row {
    pub arch: String,
    pub acc_naive: f64,
    pub acc_optimized: f64,
    pub barracuda: f64,
}

pub fn run_arch(
    session: &TuningSession,
    arch: &gpusim::GpuArch,
    cfg: NekboneConfig,
    params: TuneParams,
) -> Table3Row {
    let perf: NekbonePerf = model_gpu_perf_with(session, cfg, arch, params).unwrap();
    Table3Row {
        arch: arch.name.to_string(),
        acc_naive: perf.acc_naive_gflops,
        acc_optimized: perf.acc_opt_gflops,
        barracuda: perf.barracuda_gflops,
    }
}

/// Runs the table on an explicit architecture list (`--backend`). One
/// [`TuningSession`] spans both architectures.
pub fn run_with_archs(archs: &[gpusim::GpuArch], params: TuneParams) -> Vec<Table3Row> {
    let cfg = NekboneConfig::default();
    let session = TuningSession::new();
    archs
        .iter()
        .map(|a| run_arch(&session, a, cfg, params))
        .collect()
}

/// The paper reports K20 and C2050 for this table.
pub fn run(params: TuneParams) -> Vec<Table3Row> {
    run_with_archs(&[gpusim::k20(), gpusim::c2050()], params)
}

pub fn render(rows: &[Table3Row]) -> Table {
    let mut t = Table::new(
        "Table III: Nekbone, OpenACC vs Barracuda (GFlops)",
        &["arch", "ACC naive", "ACC optimized", "Barracuda"],
    );
    for r in rows {
        t.row(vec![
            r.arch.clone(),
            fmt_f(r.acc_naive),
            fmt_f(r.acc_optimized),
            fmt_f(r.barracuda),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::smoke_params;

    #[test]
    fn smoke_ordering() {
        let cfg = NekboneConfig {
            order: 8,
            elements: 32,
            cg_iters: 1,
            tol: 1e-6,
        };
        let row = run_arch(&TuningSession::new(), &gpusim::k20(), cfg, smoke_params());
        // The paper's headline ordering: naive << optimized <= Barracuda-ish.
        assert!(row.acc_naive < row.acc_optimized);
        assert!(row.barracuda > row.acc_naive);
        assert!(row.barracuda > 0.0);
    }
}
