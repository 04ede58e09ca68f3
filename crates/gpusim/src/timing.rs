//! Deterministic execution-time model: per-architecture rooflines.
//!
//! A kernel's time is a fixed launch overhead plus the largest of five
//! mechanistic bounds:
//!
//! 1. **DP pipe** — FMA work over the double-precision lane throughput,
//!    throttled by occupancy (a serial accumulation chain needs enough
//!    resident warps to cover the FMA latency),
//! 2. **instruction issue** — all lane-instructions (FMA + loads + stores +
//!    loop overhead, reduced by unrolling) over the SM issue width,
//! 3. **L2 bandwidth** — global-memory transactions (coalescing-dependent)
//!    over the L2 bandwidth,
//! 4. **DRAM bandwidth** — compulsory footprint plus L2-miss traffic over
//!    the DRAM bandwidth,
//! 5. **latency floor** — per-wave critical path of the dependent FMA chain
//!    and unhidden memory stalls (dominates tiny kernels).
//!
//! A program's time adds PCIe transfers for the original inputs and final
//! output (temporaries stay device-resident — §II.B: "the data remains on
//! the GPU across these calls").

use crate::arch::GpuArch;
use crate::coalesce::{kernel_traffic, TrafficSummary};
use crate::occupancy::{occupancy, Occupancy};
use tcr::mapping::MappedKernel;
use tcr::program::TcrProgram;

/// Timing breakdown of one kernel.
#[derive(Clone, Debug)]
pub struct KernelTiming {
    pub name: String,
    /// Total kernel time including launch overhead, seconds.
    pub time_s: f64,
    pub launch_s: f64,
    pub dp_pipe_s: f64,
    pub issue_s: f64,
    pub l2_s: f64,
    pub dram_s: f64,
    pub serial_s: f64,
    pub flops: u64,
    pub occupancy: Occupancy,
    pub traffic: TrafficSummary,
}

impl KernelTiming {
    /// Which bound dominated (for reports / ablations).
    pub fn bottleneck(&self) -> &'static str {
        let body = self.time_s - self.launch_s;
        let candidates = [
            (self.dp_pipe_s, "dp-pipe"),
            (self.issue_s, "issue"),
            (self.l2_s, "l2-bw"),
            (self.dram_s, "dram-bw"),
            (self.serial_s, "latency"),
        ];
        let (mut best, mut name) = (0.0f64, "launch");
        for (v, n) in candidates {
            if v > best {
                best = v;
                name = n;
            }
        }
        if best >= body * 0.999 {
            name
        } else {
            "launch"
        }
    }
}

/// Timing of a whole program on one architecture.
#[derive(Clone, Debug)]
pub struct ProgramTiming {
    pub kernels: Vec<KernelTiming>,
    /// Device-side time (kernels + launches), seconds.
    pub gpu_s: f64,
    /// Host↔device transfer time, seconds (0 when transfers are excluded).
    pub transfer_s: f64,
    pub total_s: f64,
    pub flops: u64,
}

impl ProgramTiming {
    /// Sustained GFlop/s including transfer time (the paper includes "the
    /// time to transfer data back and forth", §VII).
    pub fn gflops(&self) -> f64 {
        self.flops as f64 / self.total_s / 1e9
    }

    /// GFlop/s of the device-side computation alone.
    pub fn gflops_device(&self) -> f64 {
        self.flops as f64 / self.gpu_s / 1e9
    }
}

/// Per-thread lane-instruction estimate: FMA + memory + loop overhead.
fn instr_per_thread(kernel: &MappedKernel) -> f64 {
    let trip = kernel.interior_trip_count() as f64;
    let fma = trip;
    let loads: f64 = (0..kernel.inputs.len())
        .map(|k| kernel.input_loads_per_thread(k) as f64)
        .sum();
    let stores = kernel.output_stores_per_thread() as f64;
    // Loop bookkeeping: ~2 instructions (increment + branch) per iteration
    // of each loop level; the innermost level is divided by the unroll
    // factor (that is precisely what unrolling buys).
    let mut overhead = 0.0;
    let mut iters = 1.0;
    let n = kernel.interior.len();
    for (d, l) in kernel.interior.iter().enumerate() {
        iters *= l.extent as f64;
        let per_level = if d + 1 == n {
            iters / kernel.unroll as f64
        } else {
            iters
        };
        overhead += 2.0 * per_level;
    }
    fma + 1.5 * (loads + stores) + overhead + 8.0
}

/// Checks that a mapped kernel is launchable on `arch` before the model is
/// asked to time it: nonzero launch geometry, block within the CUDA thread
/// limit, staged shared memory within the SM's budget. The pipeline runs
/// this as its simulation-stage guard so an unlaunchable kernel becomes a
/// quarantined configuration instead of a nonsense time.
pub fn validate_kernel(kernel: &MappedKernel, arch: &GpuArch) -> Result<(), String> {
    let threads = kernel.threads_per_block();
    if threads == 0 || kernel.num_blocks() == 0 {
        return Err(format!(
            "kernel {} has an empty launch geometry ({} blocks × {} threads)",
            kernel.name,
            kernel.num_blocks(),
            threads
        ));
    }
    if threads > 1024 {
        return Err(format!(
            "kernel {} block of {} threads exceeds the 1024-thread CUDA limit",
            kernel.name, threads
        ));
    }
    if threads > arch.max_threads_per_sm as usize {
        return Err(format!(
            "kernel {} block of {} threads exceeds {} threads/SM on {}",
            kernel.name, threads, arch.max_threads_per_sm, arch.name
        ));
    }
    let smem = kernel.smem_bytes_per_block();
    if smem > arch.smem_per_sm as usize {
        return Err(format!(
            "kernel {} stages {} B of shared memory per block, over the {} B/SM budget on {}",
            kernel.name, smem, arch.smem_per_sm, arch.name
        ));
    }
    if let Some(l) = kernel.interior.iter().find(|l| l.extent == 0) {
        return Err(format!(
            "kernel {} interior loop {} has zero extent",
            kernel.name, l.var
        ));
    }
    Ok(())
}

/// The five mechanistic bounds of one kernel, plus the occupancy and
/// traffic summaries they derive from. Shared by [`time_kernel`] (full
/// breakdown) and [`kernel_time_s`] (scalar fast path), so the two are
/// bitwise identical by construction.
struct KernelBounds {
    occ: Occupancy,
    traffic: TrafficSummary,
    dp_pipe_s: f64,
    issue_s: f64,
    l2_s: f64,
    dram_s: f64,
    serial_s: f64,
}

fn kernel_bounds(kernel: &MappedKernel, arch: &GpuArch) -> KernelBounds {
    let occ = occupancy(kernel, arch);
    let traffic = kernel_traffic(kernel, arch);
    let clock_hz = arch.clock_ghz * 1e9;
    let total_threads = (kernel.num_blocks() * kernel.threads_per_block()) as f64;
    let flops = kernel.flops();

    // 1. DP pipe with occupancy throttling: a warp can issue one dependent
    //    FMA of its accumulation chain every `dp_latency` cycles.
    let dp_lane_width = arch.dp_flops_per_cycle_per_sm / 2.0;
    let supply = occ.active_warps_per_sm as f64 * arch.warp_size as f64 / arch.dp_latency_cycles;
    let dp_util = (supply / dp_lane_width).min(1.0);
    let fma_total = flops as f64 / 2.0;
    let dp_pipe_s = fma_total
        / (occ.active_sms as f64 * dp_lane_width * clock_hz * dp_util * occ.lane_efficiency);

    // 2. Instruction issue.
    let instr_total = total_threads * instr_per_thread(kernel);
    let issue_s = instr_total
        / (occ.active_sms as f64
            * arch.issue_lanes_per_cycle_per_sm
            * clock_hz
            * occ.lane_efficiency);

    // 3. L2 bandwidth.
    let l2_s = traffic.l2_bytes / (arch.l2_bw_gbs * 1e9);

    // 4. DRAM bandwidth: compulsory footprint plus the L2 misses of the
    //    remaining traffic. The hit estimate decays with the ratio of
    //    footprint to cache capacity (square root: reuse windows overlap).
    let hit = (arch.l2_bytes as f64 / traffic.footprint_bytes.max(1.0))
        .min(1.0)
        .sqrt();
    let extra = (traffic.l2_bytes - traffic.footprint_bytes).max(0.0);
    let dram_bytes = traffic.footprint_bytes + extra * (1.0 - hit);
    let dram_s = dram_bytes / (arch.mem_bw_gbs * 1e9);

    // 5. Latency floor: per-wave critical path. Each interior point costs a
    //    dependent FMA plus memory stalls that shrink with warp-level
    //    parallelism and unrolling (independent loads overlap).
    let stall_div = 1.0 + occ.active_warps_per_sm as f64 / 4.0 + 2.0 * (kernel.unroll as f64 - 1.0);
    // Shared-memory reads cost ~30 cycles instead of an L2 round trip.
    let stall_cycles_per_point: f64 = (0..kernel.inputs.len())
        .map(|k| {
            if kernel.is_staged(k) {
                30.0
            } else {
                arch.l2_latency_cycles
            }
        })
        .sum();
    let per_point_cycles = arch.dp_latency_cycles + stall_cycles_per_point / stall_div;
    let serial_s =
        occ.waves as f64 * kernel.interior_trip_count() as f64 * per_point_cycles / clock_hz;

    KernelBounds {
        occ,
        traffic,
        dp_pipe_s,
        issue_s,
        l2_s,
        dram_s,
        serial_s,
    }
}

/// Times one kernel on `arch`.
pub fn time_kernel(kernel: &MappedKernel, arch: &GpuArch) -> KernelTiming {
    let b = kernel_bounds(kernel, arch);
    let launch_s = arch.kernel_launch_us * 1e-6;
    let body = b
        .dp_pipe_s
        .max(b.issue_s)
        .max(b.l2_s)
        .max(b.dram_s)
        .max(b.serial_s);
    KernelTiming {
        name: kernel.name.clone(),
        time_s: launch_s + body,
        launch_s,
        dp_pipe_s: b.dp_pipe_s,
        issue_s: b.issue_s,
        l2_s: b.l2_s,
        dram_s: b.dram_s,
        serial_s: b.serial_s,
        flops: kernel.flops(),
        occupancy: b.occ,
        traffic: b.traffic,
    }
}

/// Total time of one kernel (`time_kernel(..).time_s`) without building the
/// breakdown struct or cloning the kernel name — the memoized per-op hot
/// path's variant. Bitwise identical to the full path: both compute the
/// same `kernel_bounds`.
pub fn kernel_time_s(kernel: &MappedKernel, arch: &GpuArch) -> f64 {
    let b = kernel_bounds(kernel, arch);
    let launch_s = arch.kernel_launch_us * 1e-6;
    launch_s
        + b.dp_pipe_s
            .max(b.issue_s)
            .max(b.l2_s)
            .max(b.dram_s)
            .max(b.serial_s)
}

/// Times a whole mapped program. `include_transfer` adds PCIe movement of
/// the inputs and output (the paper's numbers include transfers).
pub fn time_program(
    program: &TcrProgram,
    kernels: &[MappedKernel],
    arch: &GpuArch,
    include_transfer: bool,
) -> ProgramTiming {
    let per_kernel: Vec<KernelTiming> = kernels.iter().map(|k| time_kernel(k, arch)).collect();
    let gpu_s: f64 = per_kernel.iter().map(|k| k.time_s).sum();
    let transfer_s = if include_transfer {
        program.transfer_bytes() as f64 / (arch.pcie_bw_gbs * 1e9)
            + 2.0 * arch.pcie_latency_us * 1e-6
    } else {
        0.0
    };
    let flops = per_kernel.iter().map(|k| k.flops).sum();
    ProgramTiming {
        kernels: per_kernel,
        gpu_s,
        transfer_s,
        total_s: gpu_s + transfer_s,
        flops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{all_architectures, c2050, gtx980};
    use octopi::ast::{Contraction, TensorRef};
    use octopi::enumerate_factorizations;
    use tcr::mapping::{map_kernel, map_program};
    use tcr::space::{Configuration, LoopSel, OpConfig, ProgramSpace};
    use tensor::index::uniform_dims;
    use tensor::IndexVar;

    fn matmul_program(n: usize) -> tcr::TcrProgram {
        let dims = uniform_dims(&["i", "j", "k"], n);
        let c = Contraction {
            output: TensorRef::new("C", &["i", "k"]),
            sum_indices: vec!["j".into()],
            terms: vec![
                TensorRef::new("A", &["i", "j"]),
                TensorRef::new("B", &["j", "k"]),
            ],
            accumulate: false,
            coefficient: 1.0,
        };
        let fs = enumerate_factorizations(&c, &dims);
        tcr::TcrProgram::from_factorization("mm", &c, &fs[0], &dims)
    }

    fn kernel_with(p: &tcr::TcrProgram, tx: &str, unroll: usize) -> tcr::MappedKernel {
        let other = if tx == "k" { "i" } else { "k" };
        let cfg = OpConfig {
            tx: IndexVar::new(tx),
            ty: LoopSel::One,
            bx: LoopSel::Var(IndexVar::new(other)),
            by: LoopSel::One,
            interior: vec![IndexVar::new("j")],
            unroll,
            staged: vec![],
        };
        map_kernel(p, 0, cfg, false).unwrap()
    }

    #[test]
    fn timing_is_deterministic() {
        let p = matmul_program(64);
        let k = kernel_with(&p, "k", 2);
        let arch = gtx980();
        let a = time_kernel(&k, &arch).time_s;
        let b = time_kernel(&k, &arch).time_s;
        assert_eq!(a, b);
    }

    #[test]
    fn fast_path_time_matches_full_breakdown_bitwise() {
        let p = matmul_program(96);
        for arch in all_architectures() {
            for unroll in [1, 2, 4] {
                let k = kernel_with(&p, "k", unroll);
                assert_eq!(kernel_time_s(&k, &arch), time_kernel(&k, &arch).time_s);
            }
        }
    }

    #[test]
    fn coalesced_beats_strided() {
        let p = matmul_program(128);
        let arch = gtx980();
        let good = time_kernel(&kernel_with(&p, "k", 1), &arch);
        let bad = time_kernel(&kernel_with(&p, "i", 1), &arch);
        assert!(
            good.time_s < bad.time_s,
            "coalesced {} !< strided {}",
            good.time_s,
            bad.time_s
        );
    }

    #[test]
    fn unrolling_helps_serial_small_kernels() {
        let p = matmul_program(32);
        let arch = c2050();
        let u1 = time_kernel(&kernel_with(&p, "k", 1), &arch);
        let u4 = time_kernel(&kernel_with(&p, "k", 4), &arch);
        assert!(
            u4.serial_s < u1.serial_s,
            "unroll must shrink the latency floor"
        );
    }

    #[test]
    fn tiny_kernels_are_launch_bound() {
        let p = matmul_program(10);
        let arch = gtx980();
        let t = time_kernel(&kernel_with(&p, "k", 1), &arch);
        assert!(t.launch_s > 0.5 * (t.time_s - t.launch_s));
        assert_eq!(t.bottleneck(), "latency");
    }

    #[test]
    fn program_time_accumulates_and_transfers() {
        let p = matmul_program(32);
        let space = ProgramSpace::build(&p);
        let kernels = map_program(&p, &space, &Configuration { choice: vec![0] }, false).unwrap();
        let arch = gtx980();
        let with = time_program(&p, &kernels, &arch, true);
        let without = time_program(&p, &kernels, &arch, false);
        assert!(with.total_s > without.total_s);
        assert_eq!(with.gpu_s, without.gpu_s);
        assert!(with.gflops() < without.gflops_device());
        assert_eq!(with.flops, p.flops());
    }

    #[test]
    fn all_bounds_positive_on_all_archs() {
        let p = matmul_program(64);
        for arch in all_architectures() {
            let t = time_kernel(&kernel_with(&p, "k", 2), &arch);
            for v in [
                t.dp_pipe_s,
                t.issue_s,
                t.l2_s,
                t.dram_s,
                t.serial_s,
                t.launch_s,
            ] {
                assert!(v > 0.0 && v.is_finite());
            }
            assert!(t.time_s >= t.launch_s);
        }
    }

    #[test]
    fn staging_small_shared_input_helps() {
        // lg3-like statement where D is read by every thread of the block.
        use octopi::ast::{Contraction, TensorRef};
        use octopi::enumerate_factorizations;
        let mut dims = uniform_dims(&["i", "j", "k", "l"], 12);
        dims.insert("e".into(), 256);
        let c = Contraction {
            output: TensorRef::new("ur", &["e", "i", "j", "k"]),
            sum_indices: vec!["l".into()],
            terms: vec![
                TensorRef::new("D", &["i", "l"]),
                TensorRef::new("u", &["e", "l", "j", "k"]),
            ],
            accumulate: false,
            coefficient: 1.0,
        };
        let fs = enumerate_factorizations(&c, &dims);
        let p = tcr::TcrProgram::from_factorization("lg3", &c, &fs[0], &dims);
        let base = OpConfig {
            tx: IndexVar::new("k"),
            ty: LoopSel::Var(IndexVar::new("j")),
            bx: LoopSel::Var(IndexVar::new("i")),
            by: LoopSel::Var(IndexVar::new("e")),
            interior: vec![IndexVar::new("l")],
            unroll: 1,
            staged: vec![],
        };
        let mut staged = base.clone();
        staged.staged = vec![0];
        let arch = gtx980();
        let t0 = time_kernel(&map_kernel(&p, 0, base, false).unwrap(), &arch);
        let t1 = time_kernel(&map_kernel(&p, 0, staged, false).unwrap(), &arch);
        // The win is latency: shared-memory reads replace L2 round trips in
        // the per-point critical path. (Traffic for a broadcast-friendly
        // reference is already cheap, so L2 bytes barely move.)
        assert!(
            t1.serial_s < t0.serial_s,
            "staging must shorten the latency floor: {} vs {}",
            t1.serial_s,
            t0.serial_s
        );
        assert!(t1.time_s <= t0.time_s * 1.05);
    }

    #[test]
    fn staging_costs_shared_memory_occupancy() {
        use crate::occupancy::occupancy;
        let p = matmul_program(16);
        let mut cfg = OpConfig {
            tx: IndexVar::new("k"),
            ty: LoopSel::One,
            bx: LoopSel::Var(IndexVar::new("i")),
            by: LoopSel::One,
            interior: vec![IndexVar::new("j")],
            unroll: 1,
            staged: vec![],
        };
        let arch = c2050();
        let k0 = map_kernel(&p, 0, cfg.clone(), false).unwrap();
        cfg.staged = vec![0, 1];
        let k1 = map_kernel(&p, 0, cfg, false).unwrap();
        assert!(k1.smem_bytes_per_block() > 0);
        let o0 = occupancy(&k0, &arch);
        let o1 = occupancy(&k1, &arch);
        assert!(o1.cap_blocks_per_sm <= o0.cap_blocks_per_sm);
    }

    #[test]
    fn gflops_bounded_by_peak() {
        let p = matmul_program(128);
        for arch in all_architectures() {
            let space = ProgramSpace::build(&p);
            let kernels =
                map_program(&p, &space, &Configuration { choice: vec![0] }, false).unwrap();
            let t = time_program(&p, &kernels, &arch, false);
            assert!(
                t.gflops_device() <= arch.peak_dp_gflops(),
                "{}: {} > peak {}",
                arch.name,
                t.gflops_device(),
                arch.peak_dp_gflops()
            );
        }
    }
}
