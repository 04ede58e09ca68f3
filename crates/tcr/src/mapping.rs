//! Mapping engine: applies an [`OpConfig`] to a statement, producing a
//! [`MappedKernel`] — the analog of CUDA-CHiLL's `cuda(...)`,
//! `registers(...)`, `unroll(...)` transformation recipe (Figure 2(c)).
//!
//! A mapped kernel fixes which loops become the thread/block dimensions,
//! the order of the kernel-interior loops, the unroll factor of the
//! innermost loop, and linearized access expressions for every array
//! reference. It is *executable* (see the `gpusim` crate) and *printable*
//! as CUDA C (see [`crate::codegen`]).

use crate::program::{ArrayKind, TcrProgram};
use crate::space::{LoopSel, OpConfig};
use std::fmt;
use tensor::IndexVar;

/// A configuration that cannot be applied to its statement: the typed
/// replacement for the panics the mapper used to raise. Carried upward into
/// the pipeline's quarantine report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MapError {
    /// Statement the configuration was applied to.
    pub op_index: usize,
    pub detail: String,
}

impl MapError {
    fn new(op_index: usize, detail: impl Into<String>) -> Self {
        MapError {
            op_index,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "statement {}: {}", self.op_index, self.detail)
    }
}

impl std::error::Error for MapError {}

/// A linearized array reference: `base + Σ var·stride` over the kernel's
/// loop variables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArrayAccess {
    /// Array id within the program.
    pub array: usize,
    pub name: String,
    /// (loop variable, element stride) pairs; variables absent from the
    /// array's declaration do not appear.
    pub terms: Vec<(IndexVar, usize)>,
    /// Total elements of the array.
    pub len: usize,
    pub kind: ArrayKind,
}

impl ArrayAccess {
    /// Stride of a loop variable in this access (0 when the reference is
    /// invariant to it).
    pub fn stride_of(&self, v: &IndexVar) -> usize {
        self.terms
            .iter()
            .find(|(t, _)| t == v)
            .map(|(_, s)| *s)
            .unwrap_or(0)
    }

    /// True when the reference does not depend on any of `vars`.
    pub fn invariant_to_all(&self, vars: &[IndexVar]) -> bool {
        vars.iter().all(|v| self.stride_of(v) == 0)
    }
}

/// A kernel-interior loop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InteriorLoop {
    pub var: IndexVar,
    pub extent: usize,
    /// True when the loop is parallel (an unmapped output index).
    pub parallel: bool,
}

/// A statement mapped onto the GPU: the output of the CUDA-CHiLL analog.
#[derive(Clone, Debug, PartialEq)]
pub struct MappedKernel {
    /// Kernel symbol, `<program>_GPU_<op>` like the paper's `ex_GPU_2`.
    pub name: String,
    pub op_index: usize,
    /// (variable, extent) of the ThreadX dimension.
    pub tx: (IndexVar, usize),
    pub ty: Option<(IndexVar, usize)>,
    pub bx: Option<(IndexVar, usize)>,
    pub by: Option<(IndexVar, usize)>,
    /// Interior loops, outermost first.
    pub interior: Vec<InteriorLoop>,
    /// Unroll factor of the innermost interior loop (1 = none).
    pub unroll: usize,
    pub output: ArrayAccess,
    pub inputs: Vec<ArrayAccess>,
    /// True when the statement accumulates into pre-existing output values
    /// (the kernel must read-modify-write global memory).
    pub accumulate: bool,
    /// True when the output is copied to a register for the duration of the
    /// interior loops (the paper always applies this; the naive OpenACC
    /// baseline does not).
    pub scalar_replacement: bool,
    /// Input positions whose whole array is staged in shared memory per
    /// block (cooperative load + `__syncthreads()`).
    pub staged: Vec<usize>,
    /// Scalar multiplier applied to each accumulated product (from the
    /// statement's coefficient; -1 for `-=`).
    pub coefficient: f64,
}

impl MappedKernel {
    /// Thread-block dimensions `(x, y)`.
    pub fn block(&self) -> (usize, usize) {
        (self.tx.1, self.ty.as_ref().map(|t| t.1).unwrap_or(1))
    }

    /// Grid dimensions `(x, y)`.
    pub fn grid(&self) -> (usize, usize) {
        (
            self.bx.as_ref().map(|b| b.1).unwrap_or(1),
            self.by.as_ref().map(|b| b.1).unwrap_or(1),
        )
    }

    pub fn threads_per_block(&self) -> usize {
        let (x, y) = self.block();
        x * y
    }

    pub fn num_blocks(&self) -> usize {
        let (x, y) = self.grid();
        x * y
    }

    /// The configuration this kernel was mapped from: the inverse of
    /// [`map_kernel`], so `map_kernel(program, k.op_index, k.config(),
    /// k.accumulate)` rebuilds `k`.
    pub fn config(&self) -> OpConfig {
        let sel = |s: &Option<(IndexVar, usize)>| {
            s.as_ref()
                .map_or(LoopSel::One, |(v, _)| LoopSel::Var(v.clone()))
        };
        OpConfig {
            tx: self.tx.0.clone(),
            ty: sel(&self.ty),
            bx: sel(&self.bx),
            by: sel(&self.by),
            interior: self.interior.iter().map(|l| l.var.clone()).collect(),
            unroll: self.unroll,
            staged: self.staged.clone(),
        }
    }

    /// Iterations of the interior loop nest executed by each thread.
    pub fn interior_trip_count(&self) -> u64 {
        self.interior.iter().map(|l| l.extent as u64).product()
    }

    /// Total floating-point operations of the kernel (2 per innermost point
    /// for a 2-input statement, 1 for a unary reduction).
    pub fn flops(&self) -> u64 {
        let per_point = self.inputs.len() as u64;
        per_point.max(1)
            * self.num_blocks() as u64
            * self.threads_per_block() as u64
            * self.interior_trip_count()
    }

    /// True when scalar replacement fully registers the output: the output
    /// address is invariant across all interior loops, so each thread reads
    /// it at most once and writes it exactly once (Figure 2(d)'s `nv2`).
    /// Always false when scalar replacement is disabled.
    pub fn output_fully_registered(&self) -> bool {
        if !self.scalar_replacement {
            return false;
        }
        let vars: Vec<IndexVar> = self.interior.iter().map(|l| l.var.clone()).collect();
        self.output.invariant_to_all(&vars)
    }

    /// Per-thread global-memory *store* instructions to the output: one per
    /// distinct address touched when scalar replacement holds the value in
    /// a register, one per interior iteration when it does not.
    pub fn output_stores_per_thread(&self) -> u64 {
        if self.scalar_replacement {
            // The scalar can only be held across the innermost run of loops
            // that do not vary the output address; everything at or above
            // the deepest output-varying loop forces a store per iteration.
            match self
                .interior
                .iter()
                .rposition(|l| self.output.stride_of(&l.var) != 0)
            {
                None => 1,
                Some(d) => self.interior[..=d]
                    .iter()
                    .map(|l| l.extent as u64)
                    .product(),
            }
        } else {
            self.interior_trip_count()
        }
    }

    /// Per-thread global-memory *load* instructions for input `k`,
    /// assuming the compiler hoists loop-invariant loads out of the
    /// innermost loops they do not depend on.
    pub fn input_loads_per_thread(&self, k: usize) -> u64 {
        let acc = &self.inputs[k];
        // The load must re-execute for every interior loop at or outside
        // the outermost loop the address depends on. (A loop the address is
        // invariant to can only be hoisted if no *enclosing* varying loop
        // re-enters it; conservatively, multiply extents of all loops from
        // the outermost varying one inward.)
        let mut varying_seen = false;
        let mut loads = 1u64;
        for l in &self.interior {
            if acc.stride_of(&l.var) != 0 {
                varying_seen = true;
            }
            if varying_seen {
                loads *= l.extent as u64;
            }
        }
        // Loads that vary only with unrolled iterations still execute once
        // per iteration; `loads` already counts them.
        loads
    }

    /// Shared memory consumed per block by the staged inputs, bytes.
    pub fn smem_bytes_per_block(&self) -> usize {
        self.staged.iter().map(|&k| self.inputs[k].len * 8).sum()
    }

    /// True when input `k` is staged in shared memory.
    pub fn is_staged(&self, k: usize) -> bool {
        self.staged.contains(&k)
    }

    /// All loop variables of the kernel in deterministic order: mapped
    /// (tx, ty, bx, by) then interior.
    pub fn all_vars(&self) -> Vec<IndexVar> {
        let mut v = vec![self.tx.0.clone()];
        if let Some((ref t, _)) = self.ty {
            v.push(t.clone());
        }
        if let Some((ref b, _)) = self.bx {
            v.push(b.clone());
        }
        if let Some((ref b, _)) = self.by {
            v.push(b.clone());
        }
        v.extend(self.interior.iter().map(|l| l.var.clone()));
        v
    }
}

fn access_for(program: &TcrProgram, array_id: usize) -> ArrayAccess {
    let decl = &program.arrays[array_id];
    let shape = decl.shape(&program.dims);
    let strides = shape.strides();
    ArrayAccess {
        array: array_id,
        name: decl.name.clone(),
        terms: decl
            .indices
            .iter()
            .cloned()
            .zip(strides.iter().copied())
            .collect(),
        len: shape.len(),
        kind: decl.kind,
    }
}

/// Applies `cfg` to statement `op_index` of `program`; its loop names move
/// into the kernel.
///
/// Returns a [`MapError`] when the configuration is inconsistent with the
/// statement (loops not covered exactly once, a mapped loop that is not
/// parallel, a loop variable with no extent, or an unroll factor exceeding
/// the innermost extent) — configurations produced by
/// [`crate::space::ProgramSpace::build`] always satisfy these, so this
/// surfaces only for hand-built or corrupted configurations.
pub fn map_kernel(
    program: &TcrProgram,
    op_index: usize,
    cfg: OpConfig,
    accumulate: bool,
) -> Result<MappedKernel, MapError> {
    let op = program
        .ops
        .get(op_index)
        .ok_or_else(|| MapError::new(op_index, "statement index out of range"))?;
    let loop_vars = program.loop_vars(op);
    let out_indices = &program.arrays[op.output].indices;
    let ext = |v: &IndexVar| -> Result<usize, MapError> {
        program
            .dims
            .get(v)
            .copied()
            .ok_or_else(|| MapError::new(op_index, format!("loop variable {v} has no extent")))
    };

    // Coverage and parallelism checks.
    for v in cfg.mapped_vars_iter() {
        if !out_indices.contains(v) {
            return Err(MapError::new(
                op_index,
                format!("mapped loop {v} is not parallel in statement {op_index}"),
            ));
        }
    }
    // Set equality between (mapped ∪ interior) and the statement's loop
    // variables, checked by membership over the tiny loop nests instead of
    // building sorted scratch vectors on every call; the diagnostic lists
    // are materialized only on the failure path.
    let covers = |v: &IndexVar| cfg.mapped_vars_iter().any(|m| m == v) || cfg.interior.contains(v);
    let in_loops = |v: &IndexVar| loop_vars.contains(v);
    if !(loop_vars.iter().all(covers)
        && cfg.mapped_vars_iter().all(in_loops)
        && cfg.interior.iter().all(in_loops))
    {
        let mut covered_names: Vec<&str> = cfg
            .mapped_vars_iter()
            .chain(cfg.interior.iter())
            .map(|v| v.name())
            .collect();
        covered_names.sort_unstable();
        covered_names.dedup();
        let mut want: Vec<&str> = loop_vars.iter().map(|v| v.name()).collect();
        want.sort_unstable();
        return Err(MapError::new(
            op_index,
            format!(
                "configuration does not cover the loops of statement {op_index} exactly once \
                 (covered {covered_names:?}, want {want:?})"
            ),
        ));
    }

    let OpConfig {
        tx,
        ty,
        bx,
        by,
        interior: order,
        unroll,
        staged,
    } = cfg;
    let mut interior: Vec<InteriorLoop> = Vec::with_capacity(order.len());
    for var in order {
        let extent = ext(&var)?;
        let parallel = out_indices.contains(&var);
        interior.push(InteriorLoop {
            var,
            extent,
            parallel,
        });
    }
    if let Some(inner) = interior.last() {
        if unroll < 1 || unroll > inner.extent {
            return Err(MapError::new(
                op_index,
                format!(
                    "unroll factor {} out of range for extent {}",
                    unroll, inner.extent
                ),
            ));
        }
    } else if unroll != 1 {
        return Err(MapError::new(op_index, "unroll without interior loop"));
    }

    let sel = |s: LoopSel| -> Result<Option<(IndexVar, usize)>, MapError> {
        match s {
            LoopSel::Var(v) => {
                let extent = ext(&v)?;
                Ok(Some((v, extent)))
            }
            LoopSel::One => Ok(None),
        }
    };

    let tx_extent = ext(&tx)?;
    Ok(MappedKernel {
        name: format!("{}_GPU_{}", program.name, op_index),
        op_index,
        tx: (tx, tx_extent),
        ty: sel(ty)?,
        bx: sel(bx)?,
        by: sel(by)?,
        interior,
        unroll,
        output: access_for(program, op.output),
        inputs: op
            .inputs
            .iter()
            .map(|&id| access_for(program, id))
            .collect(),
        accumulate,
        scalar_replacement: true,
        staged,
        coefficient: op.coefficient,
    })
}

/// Maps every statement of a program under one [`crate::space::Configuration`].
/// Fails on the first statement whose configuration cannot be applied.
pub fn map_program(
    program: &TcrProgram,
    space: &crate::space::ProgramSpace,
    config: &crate::space::Configuration,
    accumulate_output: bool,
) -> Result<Vec<MappedKernel>, MapError> {
    program
        .ops
        .iter()
        .enumerate()
        .map(|(i, op)| {
            // Only the statement writing the program output may accumulate
            // into pre-existing data; temporaries always start from zero.
            let acc = accumulate_output && program.arrays[op.output].kind == ArrayKind::Output;
            map_kernel(program, i, space.per_op[i].config(config.choice[i]), acc)
        })
        .collect()
}

/// One program-mapping job for [`map_programs`].
pub struct MapJob<'a> {
    pub program: &'a TcrProgram,
    pub space: &'a crate::space::ProgramSpace,
    pub config: crate::space::Configuration,
    pub accumulate_output: bool,
}

/// Maps a batch of programs in parallel on the rayon pool. Results are
/// positionally identical to mapping each job serially — mapping is a pure
/// function of its job, so scheduling never shows in the output. Each job
/// fails independently; one bad configuration does not poison the batch.
pub fn map_programs(jobs: &[MapJob<'_>]) -> Vec<Result<Vec<MappedKernel>, MapError>> {
    rayon::par_map_slice(jobs, |j| {
        map_program(j.program, j.space, &j.config, j.accumulate_output)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::tests_support::{eqn1_program, matmul_program};
    use crate::space::ProgramSpace;

    #[test]
    fn matmul_mapping_dimensions() {
        let p = matmul_program(8);
        let space = ProgramSpace::build(&p).unwrap();
        let cfg = space.per_op[0].config(0);
        let k = map_kernel(&p, 0, cfg, false).unwrap();
        assert_eq!(k.tx.1, 8);
        let (bx, by) = k.grid();
        let (tx, ty) = k.block();
        assert!(tx * ty <= 1024);
        assert!(bx >= 1 && by >= 1);
        // j (summation) must be interior.
        assert!(k.interior.iter().any(|l| l.var == IndexVar::new("j")));
    }

    #[test]
    fn flops_invariant_across_all_configs() {
        let p = eqn1_program(6);
        let space = ProgramSpace::build(&p).unwrap();
        for (i, s) in space.per_op.iter().enumerate() {
            let expect = map_kernel(&p, i, s.config(0), false).unwrap().flops();
            for cfg in s.configs() {
                assert_eq!(map_kernel(&p, i, cfg, false).unwrap().flops(), expect);
            }
        }
    }

    #[test]
    fn program_flops_match_mapped_total() {
        let p = eqn1_program(6);
        let space = ProgramSpace::build(&p).unwrap();
        let cfgid = space.config(0);
        let kernels = map_program(&p, &space, &cfgid, false).unwrap();
        let total: u64 = kernels.iter().map(|k| k.flops()).sum();
        assert_eq!(total, p.flops());
    }

    #[test]
    fn scalar_replacement_detection() {
        let p = matmul_program(8);
        let space = ProgramSpace::build(&p).unwrap();
        // Find a config whose interior is exactly the summation loop j: the
        // output C[i,k] is invariant to it, so fully registered.
        let s = &space.per_op[0];
        let cfg = s
            .configs()
            .find(|c| c.interior.len() == 1)
            .expect("some config maps both parallel loops");
        let k = map_kernel(&p, 0, cfg, false).unwrap();
        assert!(k.output_fully_registered());
        assert_eq!(k.output_stores_per_thread(), 1);
    }

    #[test]
    fn input_loads_count_inner_reuse() {
        let p = matmul_program(8);
        let space = ProgramSpace::build(&p).unwrap();
        let s = &space.per_op[0];
        let cfg = s.configs().find(|c| c.interior.len() == 1).unwrap();
        let k = map_kernel(&p, 0, cfg, false).unwrap();
        // Both A[i,j] and B[j,k] vary with the interior loop j: 8 loads each.
        assert_eq!(k.input_loads_per_thread(0), 8);
        assert_eq!(k.input_loads_per_thread(1), 8);
    }

    #[test]
    fn accumulate_flag_only_on_output_statement() {
        let p = eqn1_program(4);
        let space = ProgramSpace::build(&p).unwrap();
        let kernels = map_program(&p, &space, &space.config(0), true).unwrap();
        for k in &kernels[..kernels.len() - 1] {
            assert!(!k.accumulate, "temporary kernels never accumulate");
        }
        assert!(kernels.last().unwrap().accumulate);
    }

    #[test]
    fn bad_interior_rejected() {
        let p = matmul_program(8);
        let space = ProgramSpace::build(&p).unwrap();
        let mut cfg = space.per_op[0].config(0);
        cfg.interior.clear();
        let err = map_kernel(&p, 0, cfg, false).unwrap_err();
        assert_eq!(err.op_index, 0);
        assert!(err.detail.contains("does not cover"), "{err}");
    }

    #[test]
    fn bad_unroll_rejected() {
        let p = matmul_program(8);
        let space = ProgramSpace::build(&p).unwrap();
        let mut cfg = space.per_op[0].config(0);
        cfg.unroll = 10_000;
        if cfg.interior.is_empty() {
            cfg.interior.push(tensor::IndexVar::new("j"));
        }
        let err = map_kernel(&p, 0, cfg, false).unwrap_err();
        assert!(err.detail.contains("unroll"), "{err}");
    }

    #[test]
    fn kernel_names_match_paper_style() {
        let p = eqn1_program(4);
        let space = ProgramSpace::build(&p).unwrap();
        let kernels = map_program(&p, &space, &space.config(0), false).unwrap();
        assert_eq!(kernels[2].name, "ex_GPU_2");
    }
}
