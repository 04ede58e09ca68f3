//! Nekbone proxy application: conjugate gradient over a spectral-element
//! Poisson-like operator built from `local_grad3` / `local_grad3t`.
//!
//! The paper integrates its tuned Lg3/Lg3t kernels into Nekbone's CG loop,
//! where the tensor contractions are ~60 % of sequential execution time
//! (§VI). This module provides:
//!
//! - a *real* CG solver whose operator `A u = lg3t(G ∘ lg3(u)) + m·u`
//!   executes through the same TCR programs the tuner optimizes (the mass
//!   term `m·u` keeps `A` symmetric positive definite),
//! - modeled application-level GFlop/s for the Barracuda / OpenACC / OpenMP
//!   strategies of Tables III and IV.

use crate::cpu::execute_workload_cpu;
use crate::kernels::{lg3, lg3t};
use crate::openacc::{openacc_naive, openacc_optimized};
use crate::pipeline::{TuneParams, TunedWorkload, WorkloadTuner};
use crate::session::TuningSession;
use crate::workload::Workload;
use cpusim::model::CpuModel;
use gpusim::GpuArch;
use tensor::{Shape, Tensor};

/// Problem configuration.
#[derive(Clone, Copy, Debug)]
pub struct NekboneConfig {
    /// Points per element edge (polynomial order + 1); the paper uses 12.
    pub order: usize,
    /// Mesh elements.
    pub elements: usize,
    /// CG iteration budget.
    pub cg_iters: usize,
    /// Relative residual target.
    pub tol: f64,
}

impl Default for NekboneConfig {
    fn default() -> Self {
        NekboneConfig {
            order: crate::kernels::NEK_ORDER,
            elements: crate::kernels::NEK_ELEMENTS,
            cg_iters: 50,
            tol: 1e-8,
        }
    }
}

/// CG run statistics.
#[derive(Clone, Debug)]
pub struct CgStats {
    pub iterations: usize,
    pub residuals: Vec<f64>,
    pub converged: bool,
    /// Flops spent in tensor contractions (lg3 + lg3t).
    pub contraction_flops: u64,
    /// Flops spent in vector operations (dot, axpy, pointwise scale).
    pub vector_flops: u64,
}

/// The spectral-element operator and its data.
pub struct NekboneOperator {
    pub cfg: NekboneConfig,
    lg3: Workload,
    lg3t: Workload,
    d: Tensor,
    /// Diagonal geometric factors, one per direction (all positive).
    g: [Tensor; 3],
    /// Mass-term coefficient (keeps the operator SPD).
    mass: f64,
}

impl NekboneOperator {
    pub fn new(cfg: NekboneConfig, seed: u64) -> Self {
        let field = Shape::new([cfg.elements, cfg.order, cfg.order, cfg.order]);
        let positive = |s: u64| {
            let mut t = Tensor::random(field.clone(), s);
            for v in t.data_mut() {
                *v = 1.0 + 0.1 * v.abs();
            }
            t
        };
        NekboneOperator {
            cfg,
            lg3: lg3(cfg.order, cfg.elements),
            lg3t: lg3t(cfg.order, cfg.elements),
            d: Tensor::random(Shape::new([cfg.order, cfg.order]), seed),
            g: [positive(seed + 1), positive(seed + 2), positive(seed + 3)],
            mass: 0.1,
        }
    }

    /// Applies `A u` through the real CPU executors. Also returns the flop
    /// counts spent in the contraction kernels.
    pub fn apply(&self, u: &Tensor, threads: usize) -> (Tensor, u64) {
        let grads = execute_workload_cpu(
            &self.lg3,
            &[
                ("D".to_string(), self.d.clone()),
                ("u".to_string(), u.clone()),
            ],
            threads,
        )
        .unwrap_or_else(|e| panic!("lg3 failed on the operator's own inputs: {e}"));
        // Pointwise metric scaling: ur *= g0, us *= g1, ut *= g2.
        let mut scaled: Vec<(String, Tensor)> = Vec::with_capacity(3);
        for (k, (name, grad)) in grads.into_iter().enumerate() {
            let mut t = grad;
            for (v, g) in t.data_mut().iter_mut().zip(self.g[k].data()) {
                *v *= g;
            }
            scaled.push((name, t));
        }
        scaled.push(("D".to_string(), self.d.clone()));
        let w = execute_workload_cpu(&self.lg3t, &scaled, threads)
            .unwrap_or_else(|e| panic!("lg3t failed on the operator's own inputs: {e}"));
        let mut out = w
            .into_iter()
            .next()
            .unwrap_or_else(|| panic!("lg3t produced no output"))
            .1;
        for (o, ui) in out.data_mut().iter_mut().zip(u.data()) {
            *o += self.mass * ui;
        }
        let flops = self.contraction_flops_per_apply();
        (out, flops)
    }

    /// Contraction flops of one operator application.
    pub fn contraction_flops_per_apply(&self) -> u64 {
        self.lg3.naive_flops() + self.lg3t.naive_flops()
    }

    /// Field size in elements.
    pub fn n(&self) -> usize {
        self.cfg.elements * self.cfg.order.pow(3)
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Solves `A x = b` with conjugate gradient using the real executors.
pub fn run_cg(op: &NekboneOperator, threads: usize) -> CgStats {
    let n = op.n();
    let shape = Shape::new([op.cfg.elements, op.cfg.order, op.cfg.order, op.cfg.order]);
    let b = Tensor::random(shape.clone(), 77);
    let mut x = vec![0.0; n];
    let mut r = b.data().to_vec();
    let mut p = r.clone();
    let r0 = dot(&r, &r).sqrt();
    let mut rsq = r0 * r0;

    let mut stats = CgStats {
        iterations: 0,
        residuals: vec![1.0],
        converged: false,
        contraction_flops: 0,
        vector_flops: 0,
    };

    for _ in 0..op.cfg.cg_iters {
        let p_t = Tensor::from_vec(shape.clone(), p.clone());
        let (ap, cf) = op.apply(&p_t, threads);
        stats.contraction_flops += cf;
        let ap = ap.data();
        let alpha = rsq / dot(&p, ap);
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        let rsq_new = dot(&r, &r);
        stats.vector_flops += 10 * n as u64; // 2 dots + 2 axpy + update
        stats.iterations += 1;
        let rel = rsq_new.sqrt() / r0;
        stats.residuals.push(rel);
        if rel < op.cfg.tol {
            stats.converged = true;
            break;
        }
        let beta = rsq_new / rsq;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
        rsq = rsq_new;
    }
    stats
}

/// Modeled GFlop/s of the Nekbone contraction core under each strategy.
pub struct NekbonePerf {
    pub barracuda_gflops: f64,
    pub acc_naive_gflops: f64,
    pub acc_opt_gflops: f64,
    pub tuned_lg3: TunedWorkload,
    pub tuned_lg3t: TunedWorkload,
}

/// Tunes lg3+lg3t on `arch` and evaluates the three GPU strategies.
/// Transfer of `u` in and `w` out is charged once per operator application
/// ("our results include the time to transfer data back and forth", §VII).
pub fn model_gpu_perf(
    cfg: NekboneConfig,
    arch: &GpuArch,
    params: TuneParams,
) -> Result<NekbonePerf, crate::error::BarracudaError> {
    model_gpu_perf_with(&TuningSession::new(), cfg, arch, params)
}

/// [`model_gpu_perf`] through a caller-owned [`TuningSession`], so the
/// lg3/lg3t searches share the session's evaluation cache (and plan
/// store, when one is attached) with everything else the caller tunes.
pub fn model_gpu_perf_with(
    session: &TuningSession,
    cfg: NekboneConfig,
    arch: &GpuArch,
    params: TuneParams,
) -> Result<NekbonePerf, crate::error::BarracudaError> {
    let w3 = lg3(cfg.order, cfg.elements);
    let w3t = lg3t(cfg.order, cfg.elements);
    let t3 = session.tune_on_arch(&WorkloadTuner::build(&w3), arch, params)?;
    let t3t = session.tune_on_arch(&WorkloadTuner::build(&w3t), arch, params)?;

    let field_bytes = (cfg.elements * cfg.order.pow(3) * 8) as f64;
    // One application moves u down and w up; intermediate gradients stay
    // device-resident.
    let transfer = 2.0 * field_bytes / (arch.pcie_bw_gbs * 1e9) + 2.0 * arch.pcie_latency_us * 1e-6;
    let flops = (t3.flops + t3t.flops) as f64;

    let bar_t = t3.gpu_seconds + t3t.gpu_seconds + transfer;
    let naive_t =
        openacc_naive(&w3).gpu_seconds(arch) + openacc_naive(&w3t).gpu_seconds(arch) + transfer;
    let opt_t = openacc_optimized(&w3, &t3).gpu_seconds(arch)
        + openacc_optimized(&w3t, &t3t).gpu_seconds(arch)
        + transfer;

    Ok(NekbonePerf {
        barracuda_gflops: flops / bar_t / 1e9,
        acc_naive_gflops: flops / naive_t / 1e9,
        acc_opt_gflops: flops / opt_t / 1e9,
        tuned_lg3: t3,
        tuned_lg3t: t3t,
    })
}

/// Modeled CPU GFlop/s of the Nekbone contraction core.
pub fn model_cpu_gflops(cfg: NekboneConfig, threads: usize) -> f64 {
    let w3 = lg3(cfg.order, cfg.elements);
    let w3t = lg3t(cfg.order, cfg.elements);
    let m = CpuModel::haswell();
    let t = crate::cpu::workload_cpu_time(&w3, &m, threads).time_s
        + crate::cpu::workload_cpu_time(&w3t, &m, threads).time_s;
    (w3.naive_flops() + w3t.naive_flops()) as f64 / t / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> NekboneConfig {
        NekboneConfig {
            order: 4,
            elements: 6,
            cg_iters: 200,
            tol: 1e-7,
        }
    }

    #[test]
    fn operator_is_symmetric() {
        let op = NekboneOperator::new(tiny(), 5);
        let shape = Shape::new([6, 4, 4, 4]);
        let u = Tensor::random(shape.clone(), 1);
        let v = Tensor::random(shape, 2);
        let (au, _) = op.apply(&u, 1);
        let (av, _) = op.apply(&v, 1);
        let lhs = dot(au.data(), v.data());
        let rhs = dot(av.data(), u.data());
        assert!(
            (lhs - rhs).abs() < 1e-8 * lhs.abs().max(1.0),
            "A must be symmetric: {lhs} vs {rhs}"
        );
    }

    #[test]
    fn operator_is_positive_definite() {
        let op = NekboneOperator::new(tiny(), 5);
        let shape = Shape::new([6, 4, 4, 4]);
        for seed in [3, 4, 5] {
            let u = Tensor::random(shape.clone(), seed);
            let (au, _) = op.apply(&u, 1);
            let q = dot(au.data(), u.data());
            assert!(q > 0.0, "u^T A u = {q} must be positive");
        }
    }

    #[test]
    fn cg_converges() {
        let op = NekboneOperator::new(tiny(), 5);
        let stats = run_cg(&op, 1);
        assert!(
            stats.converged,
            "CG must converge: residuals {:?}",
            &stats.residuals[stats.residuals.len().saturating_sub(3)..]
        );
        assert!(stats.residuals.last().unwrap() < &1e-7);
        assert!(stats.contraction_flops > 0);
    }

    #[test]
    fn cg_parallel_matches_sequential_trajectory() {
        let op = NekboneOperator::new(tiny(), 5);
        let s1 = run_cg(&op, 1);
        let s4 = run_cg(&op, 4);
        assert_eq!(s1.iterations, s4.iterations);
        for (a, b) in s1.residuals.iter().zip(&s4.residuals) {
            assert!((a - b).abs() < 1e-9, "residual trajectories diverge");
        }
    }

    #[test]
    fn residuals_decrease_overall() {
        let op = NekboneOperator::new(tiny(), 5);
        let stats = run_cg(&op, 1);
        let first = stats.residuals[1];
        let last = *stats.residuals.last().unwrap();
        assert!(last < first * 1e-3, "CG must reduce the residual");
    }
}
