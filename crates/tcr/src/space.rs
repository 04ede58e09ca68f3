//! GPU decision algorithm and autotuning search-space generation (§IV).
//!
//! For every statement the algorithm picks candidates for the thread/block
//! decomposition:
//!
//! - **ThreadX**: any parallel loop whose adjacent values touch adjacent
//!   memory in some referenced tensor (global-memory coalescing),
//! - **ThreadY / BlockX / BlockY**: drawn from a pool built per the paper's
//!   two rules — parallel loop indices of *contiguous* tensors from
//!   innermost to outermost, then (if fewer than four were found) parallel
//!   indices of non-contiguous tensors from outermost to innermost.
//!   ThreadY and BlockY may also be `1` (absent ⇒ 1-D thread block/grid).
//!
//! Remaining loops stay inside the kernel; their order is a PERMUTE
//! parameter and the innermost one carries an unroll factor. Scalar
//! replacement of the output is always applied (not searched).
//!
//! The space of one statement is the paper's Orio PERMUTE and unroll
//! parameter domains under the distinctness constraint. An [`OpSpace`]
//! keeps each domain once, as a table (the four candidate lists, the
//! distinct interior orders, the distinct staging subsets), and lists its
//! valid configurations as 8-byte [`OpCode`]s that index those tables, in
//! enumeration order. A statement can hold tens of thousands of
//! configurations (tce's ops average 8,647), so an [`OpConfig`] with its
//! loop names is decoded on demand ([`OpSpace::config`]), never stored.
//! The cross-product across statements and OCTOPI versions is what
//! explodes (512,000 variants for Lg3t in the paper) and is only ever
//! addressed through mixed-radix indexing ([`ProgramSpace::config`]).

use crate::contiguity::{coalescing_vars, contiguous_arrays};
use crate::loopnest::LoopNest;
use crate::program::{TcrOp, TcrProgram};
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use tensor::IndexVar;

/// Maximum threads per block accepted by every simulated architecture.
pub const MAX_THREADS_PER_BLOCK: usize = 1024;

/// Largest unroll factor considered (the paper uses factors up to 10).
pub const MAX_UNROLL: usize = 10;

/// Largest array (bytes) eligible for whole-array shared-memory staging.
pub const MAX_STAGED_BYTES: usize = 16 << 10;

/// Inputs worth staging under a given thread mapping: small arrays whose
/// elements are shared by at least two threads of a block.
pub fn staging_candidates(
    program: &TcrProgram,
    op: &TcrOp,
    tx: &IndexVar,
    ty: Option<&IndexVar>,
) -> Vec<usize> {
    let ext = |v: &IndexVar| program.dims[v];
    let tpb = ext(tx) * ty.map(ext).unwrap_or(1);
    op.inputs
        .iter()
        .enumerate()
        .filter(|(_, &id)| {
            let decl = &program.arrays[id];
            let bytes = 8 * decl.len(&program.dims);
            if bytes > MAX_STAGED_BYTES {
                return false;
            }
            // Distinct elements touched by the block's threads in one
            // interior iteration: extents of thread-mapped vars the
            // reference actually depends on.
            let mut distinct = 1usize;
            if decl.stride_of(tx, &program.dims).is_some() {
                distinct *= ext(tx);
            }
            if let Some(tyv) = ty {
                if decl.stride_of(tyv, &program.dims).is_some() {
                    distinct *= ext(tyv);
                }
            }
            tpb / distinct.max(1) >= 2
        })
        .map(|(pos, _)| pos)
        .collect()
}

/// A decomposition choice: a loop variable or the literal `1` (dimension
/// absent, matching Orio's `'1'` PERMUTE value).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum LoopSel {
    One,
    Var(IndexVar),
}

impl LoopSel {
    pub fn var(&self) -> Option<&IndexVar> {
        match self {
            LoopSel::One => None,
            LoopSel::Var(v) => Some(v),
        }
    }
}

impl fmt::Display for LoopSel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoopSel::One => write!(f, "1"),
            LoopSel::Var(v) => write!(f, "{v}"),
        }
    }
}

/// One fully-specified configuration for a single statement.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct OpConfig {
    pub tx: IndexVar,
    pub ty: LoopSel,
    /// `One` only in the degenerate single-parallel-loop fallback (grid 1).
    pub bx: LoopSel,
    pub by: LoopSel,
    /// Kernel-interior loops, outermost first (unmapped parallel loops and
    /// all summation loops, in the chosen permutation).
    pub interior: Vec<IndexVar>,
    /// Unroll factor for the innermost interior loop (1 = none).
    pub unroll: usize,
    /// Input positions (indices into the statement's input list) staged in
    /// shared memory: the whole (small) array is cooperatively loaded per
    /// block. Part of Khan's decision algorithm's "data placement in
    /// different levels of the memory hierarchy".
    pub staged: Vec<usize>,
}

impl OpConfig {
    /// All loop variables consumed by the GPU decomposition.
    pub fn mapped_vars(&self) -> Vec<&IndexVar> {
        self.mapped_vars_iter().collect()
    }

    /// The grid/block-mapped loop variables, without allocating.
    pub fn mapped_vars_iter(&self) -> impl Iterator<Item = &IndexVar> {
        std::iter::once(&self.tx).chain(
            [&self.ty, &self.bx, &self.by]
                .into_iter()
                .filter_map(|s| s.var()),
        )
    }
}

/// One configuration of a statement, as indices into its [`OpSpace`]'s
/// tables: what the space stores per configuration instead of an
/// [`OpConfig`] (see [`OpSpace::config`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpCode {
    /// Index into [`OpSpace::tx_candidates`].
    pub tx: u8,
    /// Index into [`OpSpace::ty_candidates`].
    pub ty: u8,
    /// Index into [`OpSpace::bx_candidates`].
    pub bx: u8,
    /// Index into [`OpSpace::by_candidates`].
    pub by: u8,
    /// Index into [`OpSpace::interiors`].
    pub interior: u16,
    /// Unroll factor of the innermost interior loop (1 = none).
    pub unroll: u8,
    /// Index into [`OpSpace::stagings`].
    pub staged: u8,
}

const _: () = assert!(std::mem::size_of::<OpCode>() <= 8);

/// The candidate lists the decision algorithm produced for one statement,
/// the interior orders and staging subsets its configurations use, and the
/// valid configurations as codes into those tables. Outside this crate the
/// tables are read-only, so every code keeps pointing at the entries it
/// was enumerated from.
#[derive(Clone, Debug)]
pub struct OpSpace {
    pub op_index: usize,
    pub(crate) tx_candidates: Vec<IndexVar>,
    pub(crate) ty_candidates: Vec<LoopSel>,
    pub(crate) bx_candidates: Vec<LoopSel>,
    pub(crate) by_candidates: Vec<LoopSel>,
    /// Distinct interior loop orders, outermost loop first.
    pub(crate) interiors: Vec<Vec<IndexVar>>,
    /// Distinct staging subsets (input positions).
    pub(crate) stagings: Vec<Vec<usize>>,
    /// One code per valid configuration, in enumeration order.
    pub(crate) codes: Vec<OpCode>,
}

impl OpSpace {
    /// ThreadX candidates: coalescing-friendly parallel loops.
    pub fn tx_candidates(&self) -> &[IndexVar] {
        &self.tx_candidates
    }

    /// ThreadY candidates, `LoopSel::One` first.
    pub fn ty_candidates(&self) -> &[LoopSel] {
        &self.ty_candidates
    }

    /// BlockX candidates, then `LoopSel::One` when the single-parallel-loop
    /// fallback (a grid of one block) is in the space.
    pub fn bx_candidates(&self) -> &[LoopSel] {
        &self.bx_candidates
    }

    /// BlockY candidates, `LoopSel::One` first.
    pub fn by_candidates(&self) -> &[LoopSel] {
        &self.by_candidates
    }

    /// Distinct interior loop orders, outermost loop first.
    pub fn interiors(&self) -> &[Vec<IndexVar>] {
        &self.interiors
    }

    /// Distinct staging subsets (input positions).
    pub fn stagings(&self) -> &[Vec<usize>] {
        &self.stagings
    }

    /// Number of configurations of the statement.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when the statement has no configuration.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Code of configuration `choice`.
    pub fn code(&self, choice: usize) -> OpCode {
        self.codes[choice]
    }

    /// Configuration `choice` of the statement.
    pub fn config(&self, choice: usize) -> OpConfig {
        self.decode(self.codes[choice])
    }

    /// The configuration a code of this space stands for.
    fn decode(&self, code: OpCode) -> OpConfig {
        OpConfig {
            tx: self.tx_candidates[usize::from(code.tx)].clone(),
            ty: self.ty_candidates[usize::from(code.ty)].clone(),
            bx: self.bx_candidates[usize::from(code.bx)].clone(),
            by: self.by_candidates[usize::from(code.by)].clone(),
            interior: self.interiors[usize::from(code.interior)].clone(),
            unroll: usize::from(code.unroll),
            staged: self.stagings[usize::from(code.staged)].clone(),
        }
    }

    /// Every configuration, decoded in enumeration order.
    pub fn configs(&self) -> impl Iterator<Item = OpConfig> + '_ {
        self.codes.iter().map(|&c| self.decode(c))
    }
}

/// Search space of a whole TCR program: one [`OpSpace`] per statement.
#[derive(Clone, Debug)]
pub struct ProgramSpace {
    pub per_op: Vec<OpSpace>,
}

/// A program configuration: for each statement, the index of one of its
/// [`OpSpace`]'s configurations.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Configuration {
    pub choice: Vec<usize>,
}

impl ProgramSpace {
    /// Builds the search space for every statement of `program`, or names
    /// the first statement whose tables outgrow an 8-byte [`OpCode`].
    pub fn build(program: &TcrProgram) -> Result<Self, String> {
        let per_op = program
            .ops
            .iter()
            .enumerate()
            .map(|(i, op)| {
                build_op_space(program, op, i).map_err(|index| {
                    format!(
                        "op {i} too large for an 8-byte configuration code (table index {index})"
                    )
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(ProgramSpace { per_op })
    }

    /// Total number of program configurations (product across statements).
    pub fn len(&self) -> u128 {
        self.per_op.iter().map(|s| s.len() as u128).product()
    }

    pub fn is_empty(&self) -> bool {
        self.per_op.iter().any(|s| s.is_empty())
    }

    /// Mixed-radix digits of a flat configuration id as `(statement,
    /// choice)` pairs, last statement first (it varies fastest). Reads the
    /// digits without building a [`Configuration`].
    pub fn digits(&self, mut id: u128) -> impl Iterator<Item = (usize, usize)> + '_ {
        assert!(id < self.len(), "configuration id out of range");
        self.per_op.iter().enumerate().rev().map(move |(k, s)| {
            let radix = s.len() as u128;
            let digit = (id % radix) as usize;
            id /= radix;
            (k, digit)
        })
    }

    /// Mixed-radix decode of a flat configuration id.
    pub fn config(&self, id: u128) -> Configuration {
        let mut choice = Vec::new();
        self.choices_into(id, &mut choice);
        Configuration { choice }
    }

    /// Mixed-radix decode into a caller-provided scratch buffer (resized to
    /// one digit per op), so hot evaluation loops can reuse one allocation
    /// across many ids instead of building a [`Configuration`] each time.
    pub fn choices_into(&self, id: u128, out: &mut Vec<usize>) {
        out.clear();
        out.resize(self.per_op.len(), 0);
        for (k, digit) in self.digits(id) {
            out[k] = digit;
        }
    }

    /// Inverse of [`ProgramSpace::config`].
    pub fn config_id(&self, c: &Configuration) -> u128 {
        assert_eq!(c.choice.len(), self.per_op.len());
        let mut id = 0u128;
        for (k, s) in self.per_op.iter().enumerate() {
            debug_assert!(c.choice[k] < s.len());
            id = id * s.len() as u128 + c.choice[k] as u128;
        }
        id
    }
}

/// Decision algorithm: candidate generation + enumeration of valid configs
/// for one statement, or the first table index that outgrows its
/// [`OpCode`] field.
fn build_op_space(program: &TcrProgram, op: &TcrOp, op_index: usize) -> Result<OpSpace, usize> {
    let nest = LoopNest::for_op(program, op);
    let default_order = nest.vars();
    let parallel = nest.parallel_vars();
    let sequential = nest.sequential_vars();

    // ThreadX: coalescing-friendly parallel loops.
    let mut tx_candidates: Vec<IndexVar> = coalescing_vars(program, op)
        .into_iter()
        .filter(|v| parallel.contains(v))
        .collect();
    if tx_candidates.is_empty() {
        // Degenerate statement (no unit-stride parallel loop): fall back to
        // the innermost parallel loop so a mapping always exists.
        if let Some(v) = parallel.last() {
            tx_candidates.push(v.clone());
        }
    }

    // Pool for ThreadY / BlockX / BlockY.
    let referenced: Vec<usize> = {
        let mut ids = op.inputs.clone();
        ids.push(op.output);
        ids.sort_unstable();
        ids.dedup();
        ids
    };
    let contiguous = contiguous_arrays(program, op, &default_order);
    let mut pool: Vec<IndexVar> = Vec::new();
    // Rule 1: contiguous tensors, innermost → outermost.
    for &id in &contiguous {
        for ix in program.arrays[id].indices.iter().rev() {
            if parallel.contains(ix) && !pool.contains(ix) {
                pool.push(ix.clone());
            }
        }
    }
    // Rule 2: if fewer than four, non-contiguous tensors, outermost → innermost.
    if pool.len() < 4 {
        for &id in &referenced {
            if contiguous.contains(&id) {
                continue;
            }
            for ix in program.arrays[id].indices.iter() {
                if parallel.contains(ix) && !pool.contains(ix) {
                    pool.push(ix.clone());
                }
            }
        }
    }
    if pool.is_empty() {
        pool = parallel.clone();
    }

    let ty_candidates: Vec<LoopSel> = std::iter::once(LoopSel::One)
        .chain(pool.iter().cloned().map(LoopSel::Var))
        .collect();
    let mut bx_candidates: Vec<LoopSel> = pool.iter().cloned().map(LoopSel::Var).collect();
    let by_candidates: Vec<LoopSel> = std::iter::once(LoopSel::One)
        .chain(pool.iter().cloned().map(LoopSel::Var))
        .collect();

    // Enumerate valid configurations, as codes into the op's tables.
    let ext = |v: &IndexVar| program.dims[v];
    let mut tables = Tables::default();
    let mut codes = Vec::new();
    for (txi, tx) in tx_candidates.iter().enumerate() {
        for (tyi, ty) in ty_candidates.iter().enumerate() {
            // Distinctness (the Orio PERMUTE constraint) and block size.
            if ty.var() == Some(tx) {
                continue;
            }
            let block_threads = ext(tx) * ty.var().map(ext).unwrap_or(1);
            if block_threads > MAX_THREADS_PER_BLOCK {
                continue;
            }
            // `bx_candidates` lists the pool in order.
            for (bxi, bx) in pool.iter().enumerate() {
                if bx == tx || Some(bx) == ty.var() {
                    continue;
                }
                for (byi, by) in by_candidates.iter().enumerate() {
                    if by.var() == Some(tx) || by.var() == Some(bx) {
                        continue;
                    }
                    if by.var().is_some() && by.var() == ty.var() {
                        continue;
                    }
                    let mapped: Vec<&IndexVar> = {
                        let mut m = vec![tx, bx];
                        m.extend(ty.var());
                        m.extend(by.var());
                        m
                    };
                    // Interior loops: unmapped parallel (in default order)
                    // then summation loops.
                    let base_interior: Vec<IndexVar> = parallel
                        .iter()
                        .filter(|v| !mapped.contains(v))
                        .chain(sequential.iter())
                        .cloned()
                        .collect();
                    // Shared-memory staging choices under this thread map
                    // (capped at two candidates to bound the blow-up).
                    let mut cands = staging_candidates(program, op, tx, ty.var());
                    cands.truncate(2);
                    let stagings: Vec<usize> = staging_subsets(&cands)
                        .into_iter()
                        .map(|subset| tables.staging(subset))
                        .collect();
                    for interior in tables.orders(base_interior) {
                        let max_uf = tables.max_unroll(interior, &ext);
                        for unroll in 1..=max_uf {
                            for &staged in &stagings {
                                codes.push(OpCode {
                                    tx: narrow(txi)?,
                                    ty: narrow(tyi)?,
                                    bx: narrow(bxi)?,
                                    by: narrow(byi)?,
                                    interior: narrow(interior)?,
                                    unroll: narrow(unroll)?,
                                    staged: narrow(staged)?,
                                });
                            }
                        }
                    }
                }
            }
        }
    }

    debug_assert!(!codes.is_empty() || parallel.len() < 2);
    // Statements with a single parallel loop cannot fill tx and bx with
    // distinct loops; allow bx == a summation-free fallback by mapping the
    // single parallel loop to tx and blocks over nothing (grid 1). The
    // first ty and by candidates are always `LoopSel::One`; bx gets its
    // `One` entry here.
    if codes.is_empty() {
        if let Some(tx) = tx_candidates.first() {
            let grid_one = narrow(bx_candidates.len())?;
            bx_candidates.push(LoopSel::One);
            let base_interior: Vec<IndexVar> = parallel
                .iter()
                .filter(|v| *v != tx)
                .chain(sequential.iter())
                .cloned()
                .collect();
            let unstaged = tables.staging(Vec::new());
            for interior in tables.orders(base_interior) {
                let max_uf = tables.max_unroll(interior, &ext);
                for unroll in 1..=max_uf {
                    codes.push(OpCode {
                        tx: 0,
                        ty: 0,
                        bx: grid_one,
                        by: 0,
                        interior: narrow(interior)?,
                        unroll: narrow(unroll)?,
                        staged: narrow(unstaged)?,
                    });
                }
            }
        }
    }

    Ok(OpSpace {
        op_index,
        tx_candidates,
        ty_candidates,
        bx_candidates,
        by_candidates,
        interiors: tables.interiors,
        stagings: tables.stagings,
        codes,
    })
}

/// An index as an [`OpCode`] field, or the index back when it does not
/// fit. A statement whose tables outgrow the code (more than 255 parallel
/// loops or 65,536 interior orders) is refused rather than aliasing
/// configurations. The error is the bare index so that the enumeration's
/// inner loop carries no message.
fn narrow<T: TryFrom<usize>>(index: usize) -> Result<T, usize> {
    T::try_from(index).map_err(|_| index)
}

/// The interior orders and staging subsets of one statement while its
/// space is enumerated, each stored once.
#[derive(Default)]
struct Tables {
    interiors: Vec<Vec<IndexVar>>,
    /// The range of `interiors` holding each base list's orders.
    orders_of: HashMap<Vec<IndexVar>, Range<usize>>,
    stagings: Vec<Vec<usize>>,
}

impl Tables {
    /// Indices of the orders of `base` (see [`interior_orders`]), added on
    /// first sight. Orders depend only on which loops are mapped, so
    /// thread maps that map the same loops share them.
    fn orders(&mut self, base: Vec<IndexVar>) -> Range<usize> {
        let interiors = &mut self.interiors;
        self.orders_of
            .entry(base)
            .or_insert_with_key(|base| {
                let start = interiors.len();
                interiors.extend(interior_orders(base));
                start..interiors.len()
            })
            .clone()
    }

    /// Index of a staging subset, added on first sight.
    fn staging(&mut self, subset: Vec<usize>) -> usize {
        match self.stagings.iter().position(|s| *s == subset) {
            Some(k) => k,
            None => {
                self.stagings.push(subset);
                self.stagings.len() - 1
            }
        }
    }

    /// Largest unroll factor of interior order `k`: its innermost extent,
    /// capped at [`MAX_UNROLL`], or 1 with no interior loop.
    fn max_unroll(&self, k: usize, ext: &impl Fn(&IndexVar) -> usize) -> usize {
        self.interiors[k]
            .last()
            .map(|v| ext(v).min(MAX_UNROLL))
            .unwrap_or(1)
    }
}

/// All subsets of the staging candidates (empty set first).
fn staging_subsets(cands: &[usize]) -> Vec<Vec<usize>> {
    let mut out = Vec::with_capacity(1 << cands.len());
    for mask in 0..(1u32 << cands.len()) {
        out.push(
            cands
                .iter()
                .enumerate()
                .filter(|(k, _)| mask >> k & 1 == 1)
                .map(|(_, &c)| c)
                .collect(),
        );
    }
    out
}

/// Permutations of the interior loops. All orders for up to three loops;
/// beyond that, the leading loops stay fixed and only the innermost three
/// are permuted (keeps the space near the paper's scale).
fn interior_orders(base: &[IndexVar]) -> Vec<Vec<IndexVar>> {
    if base.len() <= 1 {
        return vec![base.to_vec()];
    }
    let (prefix, tail) = if base.len() <= 3 {
        (&base[..0], base)
    } else {
        base.split_at(base.len() - 3)
    };
    permutations(tail)
        .into_iter()
        .map(|perm| {
            let mut v = prefix.to_vec();
            v.extend(perm);
            v
        })
        .collect()
}

fn permutations(items: &[IndexVar]) -> Vec<Vec<IndexVar>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    for (i, first) in items.iter().enumerate() {
        let rest: Vec<IndexVar> = items
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .map(|(_, v)| v.clone())
            .collect();
        for mut tail in permutations(&rest) {
            tail.insert(0, first.clone());
            out.push(tail);
        }
    }
    out
}

/// True when a configuration maps the same loop to two dimensions (the
/// Orio PERMUTE constraint forbids this) — exposed for tests.
pub fn violates_permute_constraint(cfg: &OpConfig) -> bool {
    let mut seen: Vec<&IndexVar> = Vec::new();
    for v in cfg.mapped_vars() {
        if seen.contains(&v) {
            return true;
        }
        seen.push(v);
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::tests_support::{eqn1_program, matmul_program};

    #[test]
    fn matmul_space_candidates() {
        let p = matmul_program(8);
        let space = ProgramSpace::build(&p).unwrap();
        let s = &space.per_op[0];
        // ThreadX must be coalescing-friendly parallel loops: k (unit in B
        // and C); j is unit-stride in A but j is a summation loop.
        assert_eq!(s.tx_candidates, vec![IndexVar::new("k")]);
        assert!(s.ty_candidates.contains(&LoopSel::One));
        assert!(!s.is_empty());
    }

    #[test]
    fn all_configs_satisfy_permute_constraint() {
        let p = eqn1_program(10);
        let space = ProgramSpace::build(&p).unwrap();
        for s in &space.per_op {
            for c in s.configs() {
                assert!(
                    !violates_permute_constraint(&c),
                    "op {} config {:?} duplicates a loop",
                    s.op_index,
                    c
                );
            }
        }
    }

    #[test]
    fn all_mapped_loops_are_parallel() {
        let p = eqn1_program(10);
        let space = ProgramSpace::build(&p).unwrap();
        for (s, op) in space.per_op.iter().zip(&p.ops) {
            let nest = LoopNest::for_op(&p, op);
            let par = nest.parallel_vars();
            for c in s.configs() {
                for v in c.mapped_vars() {
                    assert!(par.contains(v), "mapped loop {v} is not parallel");
                }
            }
        }
    }

    #[test]
    fn interior_covers_unmapped_loops_exactly() {
        let p = eqn1_program(10);
        let space = ProgramSpace::build(&p).unwrap();
        for (s, op) in space.per_op.iter().zip(&p.ops) {
            let all = p.loop_vars(op);
            for c in s.configs() {
                let mut covered: Vec<&IndexVar> = c.mapped_vars();
                covered.extend(c.interior.iter());
                let mut covered: Vec<String> =
                    covered.iter().map(|v| v.name().to_string()).collect();
                covered.sort();
                covered.dedup();
                let mut want: Vec<String> = all.iter().map(|v| v.name().to_string()).collect();
                want.sort();
                assert_eq!(covered, want);
            }
        }
    }

    #[test]
    fn unroll_bounded_by_extent_and_max() {
        let p = eqn1_program(10);
        let space = ProgramSpace::build(&p).unwrap();
        for s in &space.per_op {
            for c in s.configs() {
                assert!(c.unroll >= 1 && c.unroll <= MAX_UNROLL);
                if let Some(inner) = c.interior.last() {
                    assert!(c.unroll <= p.dims[inner]);
                } else {
                    assert_eq!(c.unroll, 1);
                }
            }
        }
    }

    #[test]
    fn mixed_radix_roundtrip() {
        let p = eqn1_program(10);
        let space = ProgramSpace::build(&p).unwrap();
        let n = space.len();
        assert!(n > 0);
        for id in [0u128, 1, n / 2, n - 1] {
            let c = space.config(id);
            assert_eq!(space.config_id(&c), id);
        }
    }

    #[test]
    fn eqn1_space_is_large() {
        let p = eqn1_program(10);
        let space = ProgramSpace::build(&p).unwrap();
        // Three statements, each with hundreds+ configs: a search space the
        // paper calls "computationally prohibitive" to enumerate.
        assert!(space.len() > 10_000, "space = {}", space.len());
    }

    #[test]
    fn staging_candidates_detected_for_small_shared_matrix() {
        // lg3-like statement: ur[e i j k] = Sum(l, D[i l] u[e l j k]).
        // D is tiny and shared by every thread of a (tx=k, ty=j) block.
        use octopi::ast::{Contraction, TensorRef};
        use octopi::enumerate_factorizations;
        use tensor::index::uniform_dims;
        let mut dims = uniform_dims(&["i", "j", "k", "l"], 12);
        dims.insert("e".into(), 16);
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
        let p = TcrProgram::from_factorization("lg3", &c, &fs[0], &dims);
        let cands = staging_candidates(
            &p,
            &p.ops[0],
            &IndexVar::new("k"),
            Some(&IndexVar::new("j")),
        );
        // D (input position 0) qualifies; u does not (every thread touches
        // distinct elements and it is large).
        assert_eq!(cands, vec![0]);
        // And the enumerated space contains staged configurations.
        let space = ProgramSpace::build(&p).unwrap();
        assert!(space.per_op[0].configs().any(|c| !c.staged.is_empty()));
        assert!(space.per_op[0].configs().any(|c| c.staged.is_empty()));
    }

    #[test]
    fn no_staging_candidates_when_every_thread_is_distinct() {
        let p = matmul_program(64);
        // tx=k, ty absent: A[i,j] is invariant to k -> shared; but with
        // tx=i (varies A) and array large, no candidate.
        let cands = staging_candidates(&p, &p.ops[0], &IndexVar::new("k"), None);
        // A (64x64 = 32 KB) exceeds MAX_STAGED_BYTES; B varies with tx.
        assert!(cands.is_empty(), "{cands:?}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn config_id_range_checked() {
        let p = matmul_program(8);
        let space = ProgramSpace::build(&p).unwrap();
        let _ = space.config(space.len());
    }

    #[test]
    fn block_size_within_limits() {
        let p = eqn1_program(10);
        let space = ProgramSpace::build(&p).unwrap();
        for s in &space.per_op {
            for c in s.configs() {
                let threads = p.dims[&c.tx] * c.ty.var().map(|v| p.dims[v]).unwrap_or(1);
                assert!(threads <= MAX_THREADS_PER_BLOCK);
            }
        }
    }
}
