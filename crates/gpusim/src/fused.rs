//! Functional execution and timing of fused kernels (`tcr::fusion`).
//!
//! A fused kernel runs its phases back to back inside each block,
//! synchronizing on the shared-memory slices between phases. The executor
//! interprets exactly that structure; the timing model applies the same
//! per-architecture bounds as `timing` but accounts the temporaries as
//! shared-memory (free of global traffic) and charges a single launch.
//! Buffers come from the shared runner, [`TcrProgram::run`], like every
//! other executor's.

use crate::arch::GpuArch;
use tcr::fusion::{FusedKernel, FusedOperand, FusionPhase};
use tcr::program::TcrProgram;
use tensor::{IndexVar, Tensor};

/// Variable assignment environment (tiny: fused + phase vars).
#[derive(Default)]
struct Env {
    vars: Vec<(IndexVar, usize)>,
}

impl Env {
    fn set(&mut self, v: &IndexVar, val: usize) {
        if let Some(slot) = self.vars.iter_mut().find(|(x, _)| x == v) {
            slot.1 = val;
        } else {
            self.vars.push((v.clone(), val));
        }
    }

    fn get(&self, v: &IndexVar) -> usize {
        self.vars
            .iter()
            .find(|(x, _)| x == v)
            .map(|(_, val)| *val)
            .unwrap_or_else(|| panic!("unbound fused-kernel variable {v}"))
    }

    fn addr(&self, terms: &[(IndexVar, usize)]) -> usize {
        terms.iter().map(|(v, s)| self.get(v) * s).sum()
    }
}

/// Iterates a rectangular space, calling `f` with the odometer values.
fn for_each_point(dims: &[(IndexVar, usize)], env: &mut Env, f: &mut impl FnMut(&mut Env)) {
    fn rec(dims: &[(IndexVar, usize)], d: usize, env: &mut Env, f: &mut impl FnMut(&mut Env)) {
        if d == dims.len() {
            f(env);
            return;
        }
        for v in 0..dims[d].1 {
            env.set(&dims[d].0, v);
            rec(dims, d + 1, env, f);
        }
    }
    rec(dims, 0, env, f);
}

fn run_phase(
    phase: &FusionPhase,
    env: &mut Env,
    slices: &mut [Vec<f64>],
    buffers: &mut [Vec<f64>],
    out_global: Option<usize>,
) {
    // Split borrow: the target slice is written, others read.
    let space: Vec<(IndexVar, usize)> = phase
        .par_dims
        .iter()
        .chain(phase.sum_dims.iter())
        .cloned()
        .collect();
    for_each_point(&space, env, &mut |env| {
        let mut prod = phase.coefficient;
        for opnd in phase.operands.iter() {
            prod *= match opnd {
                FusedOperand::Global { array, terms } => buffers[*array][env.addr(terms)],
                FusedOperand::Slice { slice, terms } => slices[*slice][env.addr(terms)],
            };
        }
        match (phase.target_slice, out_global) {
            (Some(sid), _) => {
                let a = env.addr(&phase.out_terms);
                slices[sid][a] += prod;
            }
            (None, Some(out_id)) => {
                let a = env.addr(&phase.out_terms);
                buffers[out_id][a] += prod;
            }
            (None, None) => unreachable!("final phase needs a global output"),
        }
    });
}

/// Executes the fused kernel over all blocks. `buffers[i]` is array id
/// `i`'s global storage (temporaries' buffers are ignored — they live in
/// per-block shared memory).
pub fn execute_fused(kernel: &FusedKernel, program: &TcrProgram, buffers: &mut [Vec<f64>]) {
    let out_id = program.output_id();
    let mut slices: Vec<Vec<f64>> = kernel.slices.iter().map(|s| vec![0.0; s.len]).collect();
    let mut env = Env::default();
    for_each_point(&kernel.fused.clone(), &mut env, &mut |env| {
        for s in slices.iter_mut() {
            s.iter_mut().for_each(|v| *v = 0.0);
        }
        for phase in &kernel.phases {
            run_phase(phase, env, &mut slices, buffers, Some(out_id));
        }
    });
}

/// Full program execution through the fused kernel on the shared runner,
/// [`TcrProgram::run`]: returns the output tensor.
pub fn execute_fused_program(
    kernel: &FusedKernel,
    program: &TcrProgram,
    inputs: &[&Tensor],
) -> Tensor {
    program.run(inputs, |buffers| execute_fused(kernel, program, buffers))
}

/// Timing of a fused kernel.
#[derive(Clone, Debug)]
pub struct FusedTiming {
    pub time_s: f64,
    pub launch_s: f64,
    /// Per-phase body time, seconds.
    pub phase_s: Vec<f64>,
    pub flops: u64,
    /// Global bytes after fusion (temporaries are free).
    pub global_bytes: f64,
}

/// Times the fused kernel on `arch` with the same bound structure as
/// `timing::time_kernel`, applied per phase (phases synchronize, so their
/// times add).
pub fn time_fused(kernel: &FusedKernel, program: &TcrProgram, arch: &GpuArch) -> FusedTiming {
    let clock_hz = arch.clock_ghz * 1e9;
    let blocks = kernel.num_blocks() as f64;
    let tpb = kernel.threads_per_block() as f64;
    let warps_per_block = (tpb / arch.warp_size as f64).ceil();
    let lane_eff = tpb / (warps_per_block * arch.warp_size as f64);

    // Occupancy: limited by threads, blocks and shared memory.
    let by_threads = (arch.max_threads_per_sm as f64 / tpb).floor().max(1.0);
    let by_smem = if kernel.smem_bytes() > 0 {
        (arch.smem_per_sm as f64 / kernel.smem_bytes() as f64)
            .floor()
            .max(1.0)
    } else {
        f64::INFINITY
    };
    let cap = by_threads.min(arch.max_blocks_per_sm as f64).min(by_smem);
    let active_sms = blocks.min(arch.sm_count as f64).max(1.0);
    let resident = (blocks / active_sms).ceil().min(cap).max(1.0);
    let active_warps = resident * warps_per_block;
    let waves = (blocks / (cap * arch.sm_count as f64)).ceil().max(1.0);

    let dp_lane_width = arch.dp_flops_per_cycle_per_sm / 2.0;
    let dp_util =
        (active_warps * arch.warp_size as f64 / arch.dp_latency_cycles / dp_lane_width).min(1.0);

    let mut phase_s = Vec::with_capacity(kernel.phases.len());
    let mut global_bytes_total = 0.0;
    for phase in &kernel.phases {
        let par: f64 = phase.par_dims.iter().map(|(_, e)| *e as f64).product();
        let sums: f64 = phase.sum_dims.iter().map(|(_, e)| *e as f64).product();
        let points_per_block = par * sums;
        let fma_total = blocks * points_per_block;

        // DP pipe.
        let dp_s = fma_total / (active_sms * dp_lane_width * clock_hz * dp_util * lane_eff);

        // Global traffic: only Global operands and the final output.
        let inner_par = phase.par_dims.last().map(|(v, _)| v.clone());
        let mut bytes = 0.0;
        let mut smem_loads_per_point = 0.0;
        let mut global_loads_per_point = 0.0;
        for opnd in &phase.operands {
            match opnd {
                FusedOperand::Global { terms, .. } => {
                    global_loads_per_point += 1.0;
                    // Coalescing proxy: unit stride under the thread-mapped
                    // innermost parallel dim => dense 8 B/point; otherwise a
                    // 128 B transaction serves a single 8 B value, softened
                    // by line reuse across the innermost summation loop.
                    let coalesced = inner_par
                        .as_ref()
                        .map(|v| terms.iter().any(|(tv, s)| tv == v && *s == 1))
                        .unwrap_or(false);
                    let waste = if coalesced { 1.0 } else { 4.0 };
                    bytes += blocks * points_per_block * 8.0 * waste;
                }
                FusedOperand::Slice { .. } => {
                    smem_loads_per_point += 1.0;
                }
            }
        }
        if phase.target_slice.is_none() {
            bytes += blocks * par * 8.0; // coalesced stores of the output
            if kernel.accumulate {
                bytes += blocks * par * 8.0;
            }
        }
        global_bytes_total += bytes;
        let l2_s = bytes / (arch.l2_bw_gbs * 1e9);
        let dram_s = {
            // Footprint of global arrays referenced by this phase.
            let fp: f64 = phase
                .operands
                .iter()
                .filter_map(|o| match o {
                    FusedOperand::Global { array, .. } => {
                        Some(program.arrays[*array].len(&program.dims) as f64 * 8.0)
                    }
                    FusedOperand::Slice { .. } => None,
                })
                .sum();
            let hit = (arch.l2_bytes as f64 / fp.max(1.0)).min(1.0).sqrt();
            let dram = fp + (bytes - fp).max(0.0) * (1.0 - hit);
            dram / (arch.mem_bw_gbs * 1e9)
        };

        // Latency floor: per-thread chain = sums x (FMA + stalls).
        let per_thread_points = (par / tpb).ceil() * sums;
        let stall_div = 1.0 + active_warps / 4.0;
        let stall = global_loads_per_point * arch.l2_latency_cycles / stall_div
            + smem_loads_per_point * 30.0 / stall_div;
        let serial_s = waves * per_thread_points * (arch.dp_latency_cycles + stall) / clock_hz;

        // Issue bound.
        let instr = blocks * points_per_block * 4.0; // FMA + addr + loop
        let issue_s =
            instr / (active_sms * arch.issue_lanes_per_cycle_per_sm * clock_hz * lane_eff);

        // Barrier cost between phases (~ tens of cycles per resident warp).
        let sync_s = 60.0 / clock_hz * waves;

        phase_s.push(dp_s.max(l2_s).max(dram_s).max(serial_s).max(issue_s) + sync_s);
    }

    let launch_s = arch.kernel_launch_us * 1e-6;
    FusedTiming {
        time_s: launch_s + phase_s.iter().sum::<f64>(),
        launch_s,
        phase_s,
        flops: kernel.flops(),
        global_bytes: global_bytes_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopi::ast::{Contraction, TensorRef};
    use octopi::enumerate_factorizations;
    use tcr::fusion::build_fused;
    use tensor::index::uniform_dims;
    use tensor::Shape;

    fn eqn1_program(n: usize) -> TcrProgram {
        let dims = uniform_dims(&["i", "j", "k", "l", "m", "n"], n);
        let c = Contraction {
            output: TensorRef::new("V", &["i", "j", "k"]),
            sum_indices: vec!["l".into(), "m".into(), "n".into()],
            terms: vec![
                TensorRef::new("A", &["l", "k"]),
                TensorRef::new("B", &["m", "j"]),
                TensorRef::new("C", &["n", "i"]),
                TensorRef::new("U", &["l", "m", "n"]),
            ],
            accumulate: false,
            coefficient: 1.0,
        };
        let fs = enumerate_factorizations(&c, &dims);
        TcrProgram::from_factorization("ex", &c, &fs[0], &dims)
    }

    #[test]
    fn fused_execution_matches_oracle() {
        let n = 5;
        let p = eqn1_program(n);
        let k = build_fused(&p).expect("fusable");
        let a = Tensor::random(Shape::new([n, n]), 1);
        let b = Tensor::random(Shape::new([n, n]), 2);
        let c = Tensor::random(Shape::new([n, n]), 3);
        let u = Tensor::random(Shape::new([n, n, n]), 4);
        let expect = p.evaluate(&[&a, &b, &c, &u]);
        let got = execute_fused_program(&k, &p, &[&a, &b, &c, &u]);
        assert!(expect.approx_eq(&got, 1e-10), "fused execution diverges");
    }

    #[test]
    fn fused_saves_launches_for_tiny_chains() {
        // Eqn.(1) at N=10 is launch-bound: one fused launch must beat three
        // separate ones.
        let p = eqn1_program(10);
        let k = build_fused(&p).unwrap();
        let arch = crate::arch::gtx980();
        let fused = time_fused(&k, &p, &arch);
        // Compare against three bare launches alone (lower bound of the
        // unfused chain).
        let three_launches = 3.0 * arch.kernel_launch_us * 1e-6;
        assert!(
            fused.time_s < three_launches,
            "fused {} should beat 3 launches {}",
            fused.time_s,
            three_launches
        );
        assert_eq!(fused.flops, p.flops());
    }

    #[test]
    fn fused_timing_deterministic_and_positive() {
        let p = eqn1_program(10);
        let k = build_fused(&p).unwrap();
        let arch = crate::arch::k20();
        let a = time_fused(&k, &p, &arch);
        let b = time_fused(&k, &p, &arch);
        assert_eq!(a.time_s, b.time_s);
        assert!(a.time_s > a.launch_s);
        assert_eq!(a.phase_s.len(), 3);
        assert!(a.global_bytes > 0.0);
    }

    #[test]
    fn fusion_beats_the_unfused_chain_on_launch_bound_sizes() {
        // Eqn.(1) at N=10: three tiny kernels vs one fused kernel. The
        // paper's motivation for fusion ("better memory usage" + fewer
        // kernels) must show up as a simulated-time win.
        let p = eqn1_program(10);
        let k = build_fused(&p).unwrap();
        let arch = crate::arch::gtx980();
        let fused = time_fused(&k, &p, &arch);

        let space = tcr::space::ProgramSpace::build(&p);
        let mut best_unfused = f64::INFINITY;
        let total = space.len();
        for frac in 0..64u128 {
            let cfg = space.config(total * frac / 64);
            let kernels = tcr::mapping::map_program(&p, &space, &cfg, false).unwrap();
            best_unfused =
                best_unfused.min(crate::timing::time_program(&p, &kernels, &arch, false).gpu_s);
        }
        assert!(
            fused.time_s < best_unfused,
            "fused {} must beat unfused best-of-64 {}",
            fused.time_s,
            best_unfused
        );
    }
}
