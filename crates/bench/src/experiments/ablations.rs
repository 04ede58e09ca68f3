//! Ablations of the design choices DESIGN.md calls out: what does each
//! ingredient of the pipeline buy, measured on the simulator?
//!
//! - **strength reduction** (OCTOPI): best factorization vs the worst tree,
//! - **scalar replacement** (always-on in the paper): tuned kernels with the
//!   output register demoted back to global memory,
//! - **loop permutation**: tuned kernels with the interior order reset to
//!   the default,
//! - **unrolling**: tuned kernels with the unroll factor reset to 1,
//! - **search strategy**: SURF vs uniform random sampling at equal budget.

use barracuda::pipeline::{TuneParams, WorkloadTuner};
use barracuda::report::{fmt_f, Table};
use barracuda::workload::Workload;
use gpusim::GpuArch;
use surf::random_search;
use tcr::mapping::map_kernel;
use tcr::space::OpConfig;

/// Slowdown factors relative to the fully-tuned configuration (>1 = the
/// ablated variant is slower, i.e. the feature helps).
#[derive(Clone, Debug)]
pub struct AblationResult {
    pub workload: String,
    pub arch: String,
    pub tuned_us: f64,
    pub no_strength_reduction: f64,
    pub no_scalar_replacement: f64,
    pub no_permutation: f64,
    pub no_unroll: f64,
    pub random_vs_surf: f64,
    /// Speedup from fusing the statement chain into one kernel (1.0 when
    /// the chain cannot fuse).
    pub fusion_speedup: f64,
}

/// Times the tuned workload with one structural feature removed.
fn retime_with(
    tuned: &barracuda::pipeline::TunedWorkload,
    workload: &Workload,
    arch: &GpuArch,
    mutate: impl Fn(&tcr::TcrProgram, &tcr::MappedKernel) -> tcr::MappedKernel,
) -> f64 {
    let mut total = 0.0;
    for (program, ks) in tuned.programs.iter().zip(&tuned.kernels) {
        let new: Vec<tcr::MappedKernel> = ks.iter().map(|k| mutate(program, k)).collect();
        total += gpusim::time_program(program, &new, arch, false).gpu_s;
    }
    let _ = workload;
    total
}

/// Rebuilds a kernel's config with overrides applied.
fn remap(
    program: &tcr::TcrProgram,
    k: &tcr::MappedKernel,
    default_order: bool,
    unroll_one: bool,
) -> tcr::MappedKernel {
    let mapped = k.config();
    let interior: Vec<tensor::IndexVar> = if default_order {
        program
            .loop_vars(&program.ops[k.op_index])
            .into_iter()
            .filter(|v| !mapped.mapped_vars_iter().any(|m| m == v))
            .collect()
    } else {
        mapped.interior.clone()
    };
    let unroll = if unroll_one {
        1
    } else {
        // Clamp: a reordered interior may end in a different-extent loop.
        interior
            .last()
            .map(|v| k.unroll.min(program.dims[v]))
            .unwrap_or(1)
    };
    let cfg = OpConfig {
        interior,
        unroll,
        ..mapped
    };
    // Derived from a kernel that already mapped, so this config is valid.
    map_kernel(program, k.op_index, cfg, k.accumulate)
        .unwrap_or_else(|e| panic!("ablation remap failed: {e}"))
}

pub fn run_workload(workload: &Workload, arch: &GpuArch, params: TuneParams) -> AblationResult {
    let tuner = WorkloadTuner::build(workload);
    let tuned = tuner.autotune(arch, params).unwrap();
    let base = tuned.gpu_seconds;

    // No strength reduction: the worst (maximal-flop) version of every
    // statement vs the best version, each with its best-of-sample
    // configuration (same selection procedure on both sides so the ratio
    // isolates the factorization choice).
    let sweep_best = |variant: &barracuda::variant::Variant| -> f64 {
        let n = variant.space.len();
        let mut best = f64::INFINITY;
        for k in 0..64u128 {
            let cfg = variant.space.config(n * k / 64);
            let Ok(kernels) =
                tcr::mapping::map_program(&variant.program, &variant.space, &cfg, false)
            else {
                continue; // unmappable sample point: skip, don't abort the sweep
            };
            best = best.min(gpusim::time_program(&variant.program, &kernels, arch, false).gpu_s);
        }
        best
    };
    let mut worst_total = 0.0;
    let mut best_total = 0.0;
    for st in &tuner.statements {
        worst_total += sweep_best(st.variants.last().expect("at least one variant"));
        best_total += sweep_best(st.variants.first().expect("at least one variant"));
    }

    let no_scalar = retime_with(&tuned, workload, arch, |_, k| {
        let mut k = k.clone();
        k.scalar_replacement = false;
        k
    });
    let no_perm = retime_with(&tuned, workload, arch, |p, k| remap(p, k, true, false));
    let no_unroll = retime_with(&tuned, workload, arch, |p, k| remap(p, k, false, true));

    // Search strategy at equal budget.
    let pool = tuner.pool(params.pool_cap, params.seed);
    let rnd = random_search(
        &pool,
        |id| tuner.gpu_seconds(id, arch),
        tuned.search.n_evals,
        params.seed,
    );

    // Fusion alternative (paper SIII): one kernel instead of the chain.
    let fusion_speedup = barracuda::fusionopt::fuse_alternatives(&tuned, arch)
        .iter()
        .flatten()
        .map(|a| a.speedup())
        .fold(1.0f64, f64::max);

    AblationResult {
        workload: workload.name.clone(),
        arch: arch.name.to_string(),
        tuned_us: base * 1e6,
        no_strength_reduction: worst_total / best_total,
        no_scalar_replacement: no_scalar / base,
        no_permutation: no_perm / base,
        no_unroll: no_unroll / base,
        random_vs_surf: rnd.best_y / base,
        fusion_speedup,
    }
}

pub fn run(params: TuneParams) -> Vec<AblationResult> {
    let arch = gpusim::k20();
    vec![
        run_workload(&barracuda::kernels::eqn1(10), &arch, params),
        run_workload(
            &barracuda::kernels::lg3(
                barracuda::kernels::NEK_ORDER,
                barracuda::kernels::NEK_ELEMENTS,
            ),
            &arch,
            params,
        ),
        run_workload(&barracuda::kernels::nwchem_d1(1, 16), &arch, params),
    ]
}

pub fn render(rows: &[AblationResult]) -> Table {
    let mut t = Table::new(
        "Ablations: slowdown when a feature is removed (x tuned time)",
        &[
            "workload",
            "arch",
            "tuned (us)",
            "-strength-red.",
            "-scalar-repl.",
            "-permutation",
            "-unroll",
            "random search",
            "+fusion",
        ],
    );
    for r in rows {
        t.row(vec![
            r.workload.clone(),
            r.arch.clone(),
            fmt_f(r.tuned_us),
            format!("{:.2}x", r.no_strength_reduction),
            format!("{:.2}x", r.no_scalar_replacement),
            format!("{:.2}x", r.no_permutation),
            format!("{:.2}x", r.no_unroll),
            format!("{:.2}x", r.random_vs_surf),
            format!("{:.2}x", r.fusion_speedup),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::smoke_params;

    #[test]
    fn features_never_hurt_much_and_usually_help() {
        let w = barracuda::kernels::nwchem_d1(1, 8);
        let r = run_workload(&w, &gpusim::k20(), smoke_params());
        // Removing a searched feature can never make the kernel *faster*
        // than the tuned pick by more than noise.
        for v in [
            r.no_scalar_replacement,
            r.no_permutation,
            r.no_unroll,
            r.random_vs_surf,
        ] {
            assert!(v >= 0.95, "ablated variant unexpectedly faster: {v}");
        }
        assert!(r.no_strength_reduction >= 0.95);
    }

    #[test]
    fn strength_reduction_matters_for_eqn1() {
        let r = run_workload(
            &barracuda::kernels::eqn1(10),
            &gpusim::k20(),
            smoke_params(),
        );
        assert!(
            r.no_strength_reduction > 1.2,
            "worst tree should be clearly slower: {}",
            r.no_strength_reduction
        );
    }
}
