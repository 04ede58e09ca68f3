//! Extremely randomized trees regressor (Geurts, Ernst & Wehenkel 2006),
//! the surrogate model the paper adopts "due to their ability to handle the
//! binarized parameters using recursive partitioning and to model nonlinear
//! interactions among the parameters" (§V).
//!
//! Implemented from scratch: each tree is grown on the full training set;
//! at every node, `k_features` attributes are drawn at random, each gets a
//! uniformly random cut-point between its node-local min and max, and the
//! split with the best variance reduction wins.

use crate::binarize::{CompactMatrix, FeatureMatrix, NUMERIC_COL};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hyper-parameters of the forest.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ForestParams {
    pub n_trees: usize,
    /// Nodes with fewer samples become leaves.
    pub min_samples_leaf: usize,
    /// Random attributes examined per split; `None` = all attributes.
    pub k_features: Option<usize>,
    pub seed: u64,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams {
            n_trees: 30,
            min_samples_leaf: 2,
            k_features: None,
            seed: 0xBA22ACDA,
        }
    }
}

#[derive(Clone, Debug)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

#[derive(Clone, Debug)]
struct Tree {
    nodes: Vec<Node>,
}

impl Tree {
    fn predict(&self, x: &[f64]) -> f64 {
        let mut at = 0usize;
        loop {
            match &self.nodes[at] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    at = if x[*feature] < *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

/// One packed node: 24 bytes, so a traversal step touches a single cache
/// line instead of one per parallel array. Leaves self-loop
/// (`left == right == self`) with a `-inf` threshold, so a bounded walk
/// parks at the leaf without branching on the node kind.
#[derive(Clone, Copy, Debug)]
struct PackedNode {
    thr: f64,
    feat: u32,
    left: u32,
    right: u32,
}

/// Flat tree layout for the batch prediction hot path.
#[derive(Clone, Debug)]
struct PackedTree {
    nodes: Vec<PackedNode>,
    val: Vec<f64>,
    depth: u32,
}

impl PackedTree {
    fn pack(tree: &Tree) -> Self {
        let n = tree.nodes.len();
        let mut p = PackedTree {
            nodes: vec![
                PackedNode {
                    thr: f64::NEG_INFINITY,
                    feat: 0,
                    left: 0,
                    right: 0,
                };
                n
            ],
            val: vec![0.0; n],
            depth: 0,
        };
        for (i, node) in tree.nodes.iter().enumerate() {
            match node {
                Node::Leaf { value } => {
                    p.nodes[i].left = i as u32;
                    p.nodes[i].right = i as u32;
                    p.val[i] = *value;
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    p.nodes[i] = PackedNode {
                        thr: *threshold,
                        feat: *feature as u32,
                        left: *left as u32,
                        right: *right as u32,
                    };
                }
            }
        }
        // Depth of the deepest leaf: the maximal walk length.
        let mut stack = vec![(0u32, 0u32)];
        while let Some((at, d)) = stack.pop() {
            p.depth = p.depth.max(d);
            if let Node::Split { left, right, .. } = &tree.nodes[at as usize] {
                stack.push((*left as u32, d + 1));
                stack.push((*right as u32, d + 1));
            }
        }
        p
    }

    /// One step of the walk on a compact row: `xb` holds the bitset
    /// columns, `xn` the numeric ones (see [`CompiledForest`]).
    #[inline(always)]
    fn cstep(&self, xb: &[u64], xn: &[f64], at: u32) -> u32 {
        let n = &self.nodes[at as usize];
        let f = n.feat;
        let x = if f & NUMERIC_COL != 0 {
            xn[(f & !NUMERIC_COL) as usize]
        } else {
            ((xb[(f >> 6) as usize] >> (f & 63)) & 1) as f64
        };
        if x < n.thr {
            n.left
        } else {
            n.right
        }
    }

    /// Walks one compact row to its leaf value.
    #[inline]
    fn cleaf(&self, xb: &[u64], xn: &[f64]) -> f64 {
        let mut at = 0u32;
        for _ in 0..self.depth {
            let next = self.cstep(xb, xn, at);
            if next == at {
                break;
            }
            at = next;
        }
        self.val[at as usize]
    }
}

/// A forest whose node feature indices are rewritten against a
/// [`CompactMatrix`] schema: each node records whether its column lives in
/// the bitset or the numeric block, so traversal never consults a
/// translation table. The comparison is unchanged — a bit rereads as
/// exactly 0.0 or 1.0 before the `x < threshold` test — so every decision,
/// and therefore every prediction, is bit-identical to the scalar
/// [`ExtraTrees::predict`] on the row the compact matrix was built from.
#[derive(Clone, Debug)]
pub struct CompiledForest {
    trees: Vec<PackedTree>,
    n_trees: usize,
    n_features: usize,
}

impl CompiledForest {
    /// An empty forest to be filled by [`ExtraTrees::compile_into`]; keeps
    /// its allocations across refills.
    pub fn empty() -> CompiledForest {
        CompiledForest {
            trees: Vec::new(),
            n_trees: 0,
            n_features: 0,
        }
    }

    /// Predicts the selected `rows` of compact matrix `c` into `out`
    /// (cleared first); bit-identical to [`ExtraTrees::predict`] on each
    /// selected row.
    pub fn predict_rows_into(&self, c: &CompactMatrix, rows: &[u32], out: &mut Vec<f64>) {
        out.clear();
        out.resize(rows.len(), 0.0);
        self.predict_rows_to(c, rows, out);
    }

    /// Slice form of [`CompiledForest::predict_rows_into`]: fills the
    /// exactly-sized `out` without touching any allocation, so hot loops
    /// (and parallel chunked scoring) can reuse caller-owned buffers.
    pub fn predict_rows_to(&self, c: &CompactMatrix, rows: &[u32], out: &mut [f64]) {
        assert_eq!(rows.len(), out.len(), "output length mismatch");
        if rows.is_empty() {
            return;
        }
        assert_eq!(c.width(), self.n_features, "feature width mismatch");
        out.fill(0.0);
        // Each row's leaf values are accumulated in ascending tree order
        // from 0.0 and divided once, exactly the scalar path's reduction.
        // Rows run in cache-resident blocks with the tree loop outside, so
        // a tree's nodes stay hot across the block, and eight rows walk
        // each tree at once to overlap the dependent node→child loads.
        const BLOCK: usize = 128;
        for (bi, chunk) in rows.chunks(BLOCK).enumerate() {
            let acc = &mut out[bi * BLOCK..bi * BLOCK + chunk.len()];
            for t in &self.trees {
                const LANES: usize = 8;
                let mut i = 0;
                while i + LANES <= chunk.len() {
                    let xb: [&[u64]; LANES] =
                        std::array::from_fn(|l| c.bits_row(chunk[i + l] as usize));
                    let xn: [&[f64]; LANES] =
                        std::array::from_fn(|l| c.num_row(chunk[i + l] as usize));
                    let mut at = [0u32; LANES];
                    // Walk until every lane self-loops at a leaf; bounded by
                    // the tree depth, but usually far shorter because the
                    // deepest branch is rarely hit by any of the eight rows.
                    for _ in 0..t.depth {
                        let mut parked = true;
                        for l in 0..LANES {
                            let next = t.cstep(xb[l], xn[l], at[l]);
                            parked &= next == at[l];
                            at[l] = next;
                        }
                        if parked {
                            break;
                        }
                    }
                    for l in 0..LANES {
                        acc[i + l] += t.val[at[l] as usize];
                    }
                    i += LANES;
                }
                while i < chunk.len() {
                    let r = chunk[i] as usize;
                    acc[i] += t.cleaf(c.bits_row(r), c.num_row(r));
                    i += 1;
                }
            }
        }
        let n = self.n_trees as f64;
        for v in out.iter_mut() {
            *v /= n;
        }
    }
}

/// A fitted extra-trees regression forest.
#[derive(Clone, Debug)]
pub struct ExtraTrees {
    trees: Vec<Tree>,
    /// SoA mirror of `trees`, built once at fit time for batch traversal.
    packed: Vec<PackedTree>,
    pub params: ForestParams,
    n_features: usize,
    /// Accumulated variance reduction per (binarized) feature across every
    /// split of every tree, normalized to sum to 1 (all zeros when no tree
    /// ever split).
    importance: Vec<f64>,
}

/// Reusable per-tree buffers for `grow`: without these every candidate
/// split allocates two partition vectors, which dominates fit time.
#[derive(Default)]
struct GrowScratch {
    cand: Vec<usize>,
    left_ys: Vec<f64>,
    right_ys: Vec<f64>,
}

/// Column-major view of the training set, built once per fit so the
/// per-candidate min/max and partition passes scan one contiguous column
/// instead of chasing a row pointer per sample.
struct Cols<'a> {
    data: &'a [f64],
    n: usize,
    d: usize,
}

impl Cols<'_> {
    #[inline(always)]
    fn get(&self, i: usize, f: usize) -> f64 {
        self.data[f * self.n + i]
    }
}

fn mean(ys: &[f64], idx: &[usize]) -> f64 {
    idx.iter().map(|&i| ys[i]).sum::<f64>() / idx.len() as f64
}

fn sse(ys: &[f64], idx: &[usize]) -> f64 {
    let m = mean(ys, idx);
    idx.iter().map(|&i| (ys[i] - m).powi(2)).sum()
}

#[allow(clippy::too_many_arguments)]
fn grow(
    xs: &Cols<'_>,
    ys: &[f64],
    idx: Vec<usize>,
    nodes: &mut Vec<Node>,
    params: &ForestParams,
    rng: &mut StdRng,
    importance: &mut [f64],
    scratch: &mut GrowScratch,
) -> usize {
    let n_features = xs.d;
    let make_leaf = |nodes: &mut Vec<Node>, idx: &[usize]| {
        nodes.push(Node::Leaf {
            value: mean(ys, idx),
        });
        nodes.len() - 1
    };

    if idx.len() < params.min_samples_leaf.max(2) {
        return make_leaf(nodes, &idx);
    }
    let first_y = ys[idx[0]];
    if idx.iter().all(|&i| (ys[i] - first_y).abs() < 1e-15) {
        return make_leaf(nodes, &idx);
    }

    // Candidate features with non-constant values at this node.
    let k = params.k_features.unwrap_or(n_features).min(n_features);
    scratch.cand.clear();
    scratch.cand.extend(0..n_features);
    // Partial Fisher–Yates to draw k distinct features.
    for i in 0..k.min(n_features) {
        let j = rng.gen_range(i..n_features);
        scratch.cand.swap(i, j);
    }

    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, score)
    let parent_sse = sse(ys, &idx);
    for ci in 0..k {
        let f = scratch.cand[ci];
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &i in &idx {
            lo = lo.min(xs.get(i, f));
            hi = hi.max(xs.get(i, f));
        }
        if hi - lo < 1e-12 {
            continue;
        }
        let threshold = rng.gen_range(lo..hi).max(lo + (hi - lo) * 1e-9);
        // One partition pass gathers each side's targets contiguously and
        // accumulates their sums in the same left-to-right order `mean`
        // would, so the means — and the sse passes below — are bit-identical
        // to the separate filter+mean+sse formulation.
        scratch.left_ys.clear();
        scratch.right_ys.clear();
        let (mut sum_l, mut sum_r) = (0.0f64, 0.0f64);
        for &i in &idx {
            let y = ys[i];
            if xs.get(i, f) < threshold {
                scratch.left_ys.push(y);
                sum_l += y;
            } else {
                scratch.right_ys.push(y);
                sum_r += y;
            }
        }
        if scratch.left_ys.is_empty() || scratch.left_ys.len() == idx.len() {
            continue;
        }
        let m_l = sum_l / scratch.left_ys.len() as f64;
        let m_r = sum_r / scratch.right_ys.len() as f64;
        let sse_l: f64 = scratch.left_ys.iter().map(|&y| (y - m_l).powi(2)).sum();
        let sse_r: f64 = scratch.right_ys.iter().map(|&y| (y - m_r).powi(2)).sum();
        let score = parent_sse - sse_l - sse_r;
        if best.map(|(_, _, s)| score > s).unwrap_or(true) {
            best = Some((f, threshold, score));
        }
    }

    let Some((feature, threshold, gain)) = best else {
        return make_leaf(nodes, &idx);
    };
    importance[feature] += gain.max(0.0);
    let left_idx: Vec<usize> = idx
        .iter()
        .copied()
        .filter(|&i| xs.get(i, feature) < threshold)
        .collect();
    let right_idx: Vec<usize> = idx
        .iter()
        .copied()
        .filter(|&i| xs.get(i, feature) >= threshold)
        .collect();

    let at = nodes.len();
    nodes.push(Node::Leaf { value: 0.0 }); // placeholder
    let left = grow(xs, ys, left_idx, nodes, params, rng, importance, scratch);
    let right = grow(xs, ys, right_idx, nodes, params, rng, importance, scratch);
    nodes[at] = Node::Split {
        feature,
        threshold,
        left,
        right,
    };
    at
}

impl ExtraTrees {
    /// Fits the forest on binarized configurations `xs` with targets `ys`.
    ///
    /// Trees are grown in parallel on the rayon pool: each tree draws its
    /// own rng from `seed + tree_index`, so the forest is identical at any
    /// thread count. Per-tree importance contributions are summed in tree
    /// order, keeping the floating-point reduction scheduling-independent.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], params: ForestParams) -> Self {
        assert_eq!(xs.len(), ys.len(), "xs/ys length mismatch");
        assert!(!xs.is_empty(), "cannot fit on an empty training set");
        let n_features = xs[0].len();
        assert!(xs.iter().all(|x| x.len() == n_features));
        // Transpose once; every tree's split passes then scan contiguous
        // columns (values and visit order unchanged, so trees are
        // bit-identical to the row-major layout).
        let n = xs.len();
        let mut colmaj = vec![0.0; n * n_features];
        for (i, x) in xs.iter().enumerate() {
            for (f, &v) in x.iter().enumerate() {
                colmaj[f * n + i] = v;
            }
        }
        let cols = Cols {
            data: &colmaj,
            n,
            d: n_features,
        };
        let tree_ids: Vec<u64> = (0..params.n_trees as u64).collect();
        let grown: Vec<(Tree, Vec<f64>)> = rayon::par_map_slice(&tree_ids, |&t| {
            let mut rng = StdRng::seed_from_u64(params.seed.wrapping_add(t));
            let mut nodes = Vec::new();
            let mut importance = vec![0.0; n_features];
            let mut scratch = GrowScratch::default();
            let root = grow(
                &cols,
                ys,
                (0..n).collect(),
                &mut nodes,
                &params,
                &mut rng,
                &mut importance,
                &mut scratch,
            );
            debug_assert_eq!(root, 0);
            (Tree { nodes }, importance)
        });
        let mut trees = Vec::with_capacity(params.n_trees);
        let mut importance = vec![0.0; n_features];
        for (tree, imp) in grown {
            trees.push(tree);
            for (acc, v) in importance.iter_mut().zip(imp) {
                *acc += v;
            }
        }
        let total: f64 = importance.iter().sum();
        if total > 0.0 {
            importance.iter_mut().for_each(|v| *v /= total);
        }
        let packed = trees.iter().map(PackedTree::pack).collect();
        ExtraTrees {
            trees,
            packed,
            params,
            n_features,
            importance,
        }
    }

    /// Normalized per-feature importance (variance reduction attribution).
    pub fn feature_importance(&self) -> &[f64] {
        &self.importance
    }

    /// Predicts the target for one configuration (mean over trees).
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.n_features, "feature width mismatch");
        self.trees.iter().map(|t| t.predict(x)).sum::<f64>() / self.trees.len() as f64
    }

    /// Predicts a batch through the compact traversal the search uses;
    /// bit-identical to [`ExtraTrees::predict`] per row.
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        let mut out = Vec::new();
        if xs.is_empty() {
            return out;
        }
        let c = CompactMatrix::from_matrix(&FeatureMatrix::from_rows(xs));
        let rows: Vec<u32> = (0..xs.len() as u32).collect();
        self.compile(&c).predict_rows_into(&c, &rows, &mut out);
        out
    }

    /// Rewrites the forest's node feature indices against a compact-matrix
    /// schema, for repeated scoring of the same (large) candidate pool.
    pub fn compile(&self, schema: &CompactMatrix) -> CompiledForest {
        let mut out = CompiledForest::empty();
        self.compile_into(schema, &mut out);
        out
    }

    /// [`ExtraTrees::compile`] into a reusable buffer: node and leaf
    /// vectors are cloned in place (`clone_from`), so a search loop that
    /// refits and recompiles every round reuses the previous round's
    /// allocations instead of freeing and reallocating them. The filled
    /// forest is identical to a fresh [`ExtraTrees::compile`].
    pub fn compile_into(&self, schema: &CompactMatrix, out: &mut CompiledForest) {
        assert_eq!(schema.width(), self.n_features, "feature width mismatch");
        let kinds = schema.kinds();
        out.trees.truncate(self.packed.len());
        while out.trees.len() < self.packed.len() {
            out.trees.push(PackedTree {
                nodes: Vec::new(),
                val: Vec::new(),
                depth: 0,
            });
        }
        for (dst, src) in out.trees.iter_mut().zip(&self.packed) {
            dst.nodes.clone_from(&src.nodes);
            dst.val.clone_from(&src.val);
            dst.depth = src.depth;
            for n in &mut dst.nodes {
                n.feat = kinds[n.feat as usize];
            }
        }
        out.n_trees = self.trees.len();
        out.n_features = self.n_features;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn synthetic(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        // y = 3*x0 + (x1 one-hot group effect) + noise-free interaction.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let x0 = rng.gen_range(0.0..1.0f64);
            let cat = rng.gen_range(0..3usize);
            let mut x = vec![x0, 0.0, 0.0, 0.0];
            x[1 + cat] = 1.0;
            let y = 3.0 * x0 + [0.0, 5.0, -2.0][cat] + x0 * [1.0, 0.0, 2.0][cat];
            xs.push(x);
            ys.push(y);
        }
        (xs, ys)
    }

    #[test]
    fn fits_and_generalizes_synthetic() {
        let (xs, ys) = synthetic(400, 1);
        let model = ExtraTrees::fit(&xs, &ys, ForestParams::default());
        let (xt, yt) = synthetic(100, 2);
        let mut sse = 0.0;
        let mut var = 0.0;
        let m: f64 = yt.iter().sum::<f64>() / yt.len() as f64;
        for (x, y) in xt.iter().zip(&yt) {
            sse += (model.predict(x) - y).powi(2);
            var += (y - m).powi(2);
        }
        let r2 = 1.0 - sse / var;
        assert!(r2 > 0.85, "R^2 = {r2}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (xs, ys) = synthetic(100, 3);
        let a = ExtraTrees::fit(&xs, &ys, ForestParams::default());
        let b = ExtraTrees::fit(&xs, &ys, ForestParams::default());
        let x = &xs[0];
        assert_eq!(a.predict(x), b.predict(x));
    }

    #[test]
    fn constant_target_predicts_constant() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let ys = vec![7.5; 20];
        let model = ExtraTrees::fit(&xs, &ys, ForestParams::default());
        assert!((model.predict(&[3.0]) - 7.5).abs() < 1e-12);
    }

    #[test]
    fn single_sample_is_a_leaf() {
        let model = ExtraTrees::fit(&[vec![0.0, 1.0]], &[2.0], ForestParams::default());
        assert_eq!(model.predict(&[9.0, 9.0]), 2.0);
    }

    #[test]
    fn ranks_categorical_effects() {
        // Categories with clearly different means must be ranked correctly.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for rep in 0..30 {
            for cat in 0..3 {
                let mut x = vec![0.0; 3];
                x[cat] = 1.0;
                xs.push(x);
                ys.push([10.0, 1.0, 5.0][cat] + 0.01 * rep as f64);
            }
        }
        let model = ExtraTrees::fit(&xs, &ys, ForestParams::default());
        let p0 = model.predict(&[1.0, 0.0, 0.0]);
        let p1 = model.predict(&[0.0, 1.0, 0.0]);
        let p2 = model.predict(&[0.0, 0.0, 1.0]);
        assert!(p1 < p2 && p2 < p0, "{p0} {p1} {p2}");
    }

    #[test]
    fn importance_identifies_the_informative_feature() {
        // y depends only on x0; x1 is noise.
        let mut rng = StdRng::seed_from_u64(5);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..300 {
            let x0 = rng.gen_range(0.0..1.0f64);
            let x1 = rng.gen_range(0.0..1.0f64);
            xs.push(vec![x0, x1]);
            ys.push(10.0 * x0);
        }
        let model = ExtraTrees::fit(&xs, &ys, ForestParams::default());
        let imp = model.feature_importance();
        assert!(imp[0] > 0.8, "informative feature dominates: {imp:?}");
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_fit_panics() {
        let _ = ExtraTrees::fit(&[], &[], ForestParams::default());
    }

    #[test]
    fn packed_batch_prediction_is_bit_identical_to_scalar() {
        let (xs, ys) = synthetic(500, 11);
        let model = ExtraTrees::fit(&xs, &ys, ForestParams::default());
        let (xt, _) = synthetic(333, 12); // odd size exercises the remainder lanes
        let batch = model.predict_batch(&xt);
        for (x, p) in xt.iter().zip(&batch) {
            assert_eq!(model.predict(x).to_bits(), p.to_bits());
        }
    }

    /// Compact-traversal predictions of `rows` of `xs`, checked bit for
    /// bit against the scalar reference.
    fn assert_compact_matches_scalar(model: &ExtraTrees, xs: &[Vec<f64>], rows: &[u32]) {
        let c = CompactMatrix::from_matrix(&FeatureMatrix::from_rows(xs));
        let mut out = Vec::new();
        model.compile(&c).predict_rows_into(&c, rows, &mut out);
        assert_eq!(out.len(), rows.len());
        for (&r, p) in rows.iter().zip(&out) {
            assert_eq!(model.predict(&xs[r as usize]).to_bits(), p.to_bits());
        }
    }

    #[test]
    fn compiled_forest_matches_scalar_bitwise() {
        // Mixed binary (one-hot) and numeric columns, odd row count for the
        // remainder lanes; the compiled traversal must reproduce the
        // scalar predictions bit for bit.
        let (xs, ys) = synthetic(450, 21);
        let model = ExtraTrees::fit(&xs, &ys, ForestParams::default());
        let (xt, _) = synthetic(301, 22);
        let rows: Vec<u32> = (0..xt.len() as u32).collect();
        assert_compact_matches_scalar(&model, &xt, &rows);
        // Strided selections go through the same gather path.
        let sel: Vec<u32> = (0..xt.len() as u32).rev().step_by(7).collect();
        assert_compact_matches_scalar(&model, &xt, &sel);
        let sel: Vec<u32> = (0..xt.len() as u32).rev().step_by(3).collect();
        assert_compact_matches_scalar(&model, &xt, &sel);
    }

    #[test]
    fn compiled_forest_all_numeric_columns() {
        // No binary column at all: the bitset block is empty and every node
        // reads the numeric side.
        let mut rng = StdRng::seed_from_u64(31);
        let xs: Vec<Vec<f64>> = (0..120)
            .map(|_| vec![rng.gen_range(0.1..0.9), rng.gen_range(0.1..0.9)])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x[0] - x[1]).collect();
        let model = ExtraTrees::fit(&xs, &ys, ForestParams::default());
        let rows: Vec<u32> = (0..xs.len() as u32).collect();
        assert_compact_matches_scalar(&model, &xs, &rows);
    }

    #[test]
    fn empty_batch_predicts_empty() {
        let (xs, ys) = synthetic(50, 14);
        let model = ExtraTrees::fit(&xs, &ys, ForestParams::default());
        assert!(model.predict_batch(&[]).is_empty());
    }
}
