//! CUDA occupancy model: how many blocks and warps fit on one SM.

use crate::arch::GpuArch;
use tcr::mapping::MappedKernel;

/// Occupancy of one kernel on one architecture.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Occupancy {
    /// Resource cap: blocks that *can* be resident per SM.
    pub cap_blocks_per_sm: u32,
    /// Blocks actually resident per active SM in the first wave (the
    /// hardware scheduler spreads blocks round-robin across SMs).
    pub resident_blocks: u32,
    /// Resident warps per active SM.
    pub active_warps_per_sm: u32,
    /// `active_warps / max_warps`, in (0, 1].
    pub fraction: f64,
    /// SMs that receive at least one block.
    pub active_sms: u32,
    /// Number of block waves needed to drain the grid.
    pub waves: u32,
    /// Fraction of warp lanes doing useful work (partial warps waste lanes).
    pub lane_efficiency: f64,
    /// Estimated registers per thread.
    pub regs_per_thread: u32,
}

/// Registers per thread: a base working set plus the unrolled accumulator /
/// address registers. Mirrors how unrolling raises pressure in real kernels.
pub fn estimate_regs_per_thread(kernel: &MappedKernel) -> u32 {
    let base = 18u32;
    let per_input = 2 * kernel.inputs.len() as u32;
    let unroll_cost = 2 * (kernel.unroll as u32).saturating_sub(1);
    base + per_input + unroll_cost
}

/// Computes the occupancy of `kernel` on `arch`.
pub fn occupancy(kernel: &MappedKernel, arch: &GpuArch) -> Occupancy {
    let tpb = kernel.threads_per_block() as u32;
    let warp = arch.warp_size;
    let warps_per_block = tpb.div_ceil(warp);
    let regs_per_thread = estimate_regs_per_thread(kernel);

    // A descriptor may hold any positive u32, so every product below is
    // taken in u64; each quotient or minimum it feeds fits back in u32.
    let by_threads = arch.max_threads_per_sm / tpb.max(1);
    let by_blocks = arch.max_blocks_per_sm;
    let by_warps = arch.max_warps_per_sm / warps_per_block.max(1);
    let by_regs =
        (u64::from(arch.regs_per_sm) / (u64::from(regs_per_thread) * u64::from(tpb)).max(1)) as u32;
    let smem = kernel.smem_bytes_per_block() as u32;
    let by_smem = if smem > 0 {
        arch.smem_per_sm / smem.max(1)
    } else {
        u32::MAX
    };
    let cap = by_threads
        .min(by_blocks)
        .min(by_warps)
        .min(by_regs)
        .min(by_smem)
        .max(1);

    let num_blocks = kernel.num_blocks() as u32;
    let active_sms = num_blocks.min(arch.sm_count).max(1);
    let resident_blocks = num_blocks.div_ceil(active_sms).min(cap).max(1);
    let active_warps = (u64::from(resident_blocks) * u64::from(warps_per_block))
        .min(u64::from(arch.max_warps_per_sm)) as u32;
    let capacity = u64::from(cap) * u64::from(arch.sm_count);
    let waves = u64::from(num_blocks).div_ceil(capacity).max(1) as u32;

    Occupancy {
        cap_blocks_per_sm: cap,
        resident_blocks,
        active_warps_per_sm: active_warps,
        fraction: active_warps as f64 / arch.max_warps_per_sm as f64,
        active_sms,
        waves,
        lane_efficiency: tpb as f64 / (u64::from(warps_per_block) * u64::from(warp)) as f64,
        regs_per_thread,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{c2050, gtx980, k20};
    use octopi::ast::{Contraction, TensorRef};
    use octopi::enumerate_factorizations;
    use tcr::mapping::map_kernel;
    use tcr::space::{LoopSel, OpConfig};
    use tensor::index::uniform_dims;
    use tensor::IndexVar;

    fn kernel(n: usize, unroll: usize) -> tcr::MappedKernel {
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
        let p = tcr::TcrProgram::from_factorization("mm", &c, &fs[0], &dims);
        let cfg = OpConfig {
            tx: IndexVar::new("k"),
            ty: LoopSel::One,
            bx: LoopSel::Var(IndexVar::new("i")),
            by: LoopSel::One,
            interior: vec![IndexVar::new("j")],
            unroll,
            staged: vec![],
        };
        map_kernel(&p, 0, cfg, false).unwrap()
    }

    #[test]
    fn fermi_caps_blocks_per_sm_at_eight() {
        let k = kernel(16, 1);
        let occ = occupancy(&k, &c2050());
        assert_eq!(occ.cap_blocks_per_sm, 8);
    }

    #[test]
    fn small_grids_spread_across_sms() {
        // 16 blocks on 14 SMs: 14 active SMs, at most 2 resident each.
        let k = kernel(16, 1);
        let occ = occupancy(&k, &c2050());
        assert_eq!(occ.active_sms, 14);
        assert_eq!(occ.resident_blocks, 2);
        assert_eq!(occ.waves, 1);
        assert!(occ.fraction < 0.1);
    }

    #[test]
    fn partial_warps_reduce_lane_efficiency() {
        // 10-thread blocks: 1 warp per block, 10/32 lanes used.
        let k = kernel(10, 1);
        let occ = occupancy(&k, &gtx980());
        assert!((occ.lane_efficiency - 10.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn unroll_raises_register_pressure() {
        let k1 = kernel(64, 1);
        let k8 = kernel(64, 8);
        assert!(
            estimate_regs_per_thread(&k8) > estimate_regs_per_thread(&k1),
            "unrolling must cost registers"
        );
    }

    #[test]
    fn invariants_hold_across_architectures() {
        let k = kernel(64, 1);
        for arch in [gtx980(), k20(), c2050()] {
            let occ = occupancy(&k, &arch);
            assert!(occ.waves >= 1);
            assert!(occ.active_sms >= 1 && occ.active_sms <= arch.sm_count);
            assert!(occ.fraction > 0.0 && occ.fraction <= 1.0);
            assert!(occ.resident_blocks <= occ.cap_blocks_per_sm);
        }
    }
}
