//! Extremely randomized trees regressor (Geurts, Ernst & Wehenkel 2006),
//! the surrogate model the paper adopts "due to their ability to handle the
//! binarized parameters using recursive partitioning and to model nonlinear
//! interactions among the parameters" (§V).
//!
//! Implemented from scratch: each tree is grown on the full training set;
//! at every node, `k_features` attributes are drawn at random, each gets a
//! uniformly random cut-point between its node-local min and max, and the
//! split with the best variance reduction wins.
//!
//! A candidate pool is scored by partition, as QuickScorer (Lucchese et
//! al., SIGIR 2015) scores ranking forests: [`ExtraTrees::predict_rows`]
//! pushes the bitset of the selected pool rows down each tree of a
//! [`TransposedPool`]. At a split `x[f] < threshold`, the left child gets
//! `S & mask` and the right child `S & !mask`, where `mask` is the pool's
//! bitset of rows below the threshold, and an empty side is skipped. At a
//! leaf, the leaf's value is added to every row of the set. A pass costs one
//! sweep over the pool's words per split, not one tree walk per row.
//! [`ExtraTrees::predict`] walks one row and is the scalar reference.

use crate::binarize::{Left, TransposedPool};
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

    /// Adds each leaf's value to every row of the set at offset `set` of
    /// `sets` that reaches the leaf from node `at`, at depth `depth`. A
    /// split ANDs the set with the pool's `x < threshold` bitset and its
    /// complement in one pass, into the two slots of depth `depth + 1`, and
    /// descends into each side that is not empty.
    fn score(
        &self,
        pool: &TransposedPool,
        mut at: usize,
        set: usize,
        depth: usize,
        sets: &mut Vec<u64>,
        sums: &mut [f64],
    ) {
        let words = pool.words();
        loop {
            match &self.nodes[at] {
                Node::Leaf { value } => {
                    for_each_row(&sets[set..set + words], |r| sums[r] += *value);
                    return;
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => match pool.left_of(*feature, *threshold) {
                    Left::None => at = *right,
                    Left::All => at = *left,
                    Left::Rows(mask) => {
                        let slots = (2 * depth + 1) * words;
                        if sets.len() < slots + 2 * words {
                            sets.resize(slots + 2 * words, 0);
                        }
                        let (parent, children) = sets.split_at_mut(slots);
                        let (l, r) = children[..2 * words].split_at_mut(words);
                        let (mut any_l, mut any_r) = (0, 0);
                        for (((l, r), &s), &m) in l.iter_mut().zip(r).zip(&parent[set..]).zip(mask)
                        {
                            *l = s & m;
                            *r = s & !m;
                            any_l |= *l;
                            any_r |= *r;
                        }
                        if any_l != 0 {
                            self.score(pool, *left, slots, depth + 1, sets, sums);
                        }
                        if any_r != 0 {
                            self.score(pool, *right, slots + words, depth + 1, sets, sums);
                        }
                        return;
                    }
                },
            }
        }
    }
}

/// Calls `f` with the index of every set bit of `set`, in ascending order.
fn for_each_row(set: &[u64], mut f: impl FnMut(usize)) {
    for (w, &bits) in set.iter().enumerate() {
        let mut b = bits;
        while b != 0 {
            f(w * 64 + b.trailing_zeros() as usize);
            b &= b - 1;
        }
    }
}

/// A fitted extra-trees regression forest.
#[derive(Clone, Debug)]
pub struct ExtraTrees {
    trees: Vec<Tree>,
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
        ExtraTrees {
            trees,
            params,
            n_features,
            importance,
        }
    }

    /// Normalized per-feature importance (variance reduction attribution).
    pub fn feature_importance(&self) -> &[f64] {
        &self.importance
    }

    /// Predicts the target for one configuration: the mean over trees,
    /// summed in tree order from 0.0. The scalar reference for
    /// [`ExtraTrees::predict_rows`].
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.n_features, "feature width mismatch");
        let sum = self.trees.iter().fold(0.0, |acc, t| acc + t.predict(x));
        sum / self.trees.len() as f64
    }

    /// Predicts pool rows `rows` into `out` (cleared first), in order, by
    /// partition: each tree pushes the bitset of the selected rows down
    /// its splits and adds each leaf's value to the rows that reach it.
    /// Trees run in ascending order and every row's sum starts at 0.0 and
    /// is divided once, so each prediction is bit-identical to
    /// [`ExtraTrees::predict`] on that row.
    pub fn predict_rows(&self, pool: &TransposedPool, rows: &[u32], out: &mut Vec<f64>) {
        out.clear();
        if rows.is_empty() {
            return;
        }
        assert_eq!(pool.width(), self.n_features, "feature width mismatch");
        // The selected rows, then two slots per depth for the sides of a
        // split (see `Tree::score`).
        let mut sets = vec![0u64; pool.words()];
        for &r in rows {
            sets[r as usize / 64] |= 1 << (r % 64);
        }
        let mut sums = vec![0.0; pool.n_rows()];
        for tree in &self.trees {
            tree.score(pool, 0, 0, 0, &mut sets, &mut sums);
        }
        let n = self.trees.len() as f64;
        out.extend(rows.iter().map(|&r| sums[r as usize] / n));
    }

    /// Predicts a batch of rows: transposes them into a pool and scores it
    /// with [`ExtraTrees::predict_rows`].
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        let mut out = Vec::new();
        if !xs.is_empty() {
            let pool = TransposedPool::from_rows(xs.len(), xs);
            let rows: Vec<u32> = (0..xs.len() as u32).collect();
            self.predict_rows(&pool, &rows, &mut out);
        }
        out
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
    fn batch_prediction_is_bit_identical_to_scalar() {
        let (xs, ys) = synthetic(500, 11);
        let model = ExtraTrees::fit(&xs, &ys, ForestParams::default());
        let (xt, _) = synthetic(333, 12); // off a multiple of 64
        let batch = model.predict_batch(&xt);
        for (x, p) in xt.iter().zip(&batch) {
            assert_eq!(model.predict(x).to_bits(), p.to_bits());
        }
    }

    /// Partition predictions of `rows` of `xs`, checked bit for bit
    /// against the scalar reference.
    fn assert_partition_matches_scalar(model: &ExtraTrees, xs: &[Vec<f64>], rows: &[u32]) {
        let pool = TransposedPool::from_rows(xs.len(), xs);
        let mut out = Vec::new();
        model.predict_rows(&pool, rows, &mut out);
        assert_eq!(out.len(), rows.len());
        for (&r, p) in rows.iter().zip(&out) {
            assert_eq!(model.predict(&xs[r as usize]).to_bits(), p.to_bits());
        }
    }

    #[test]
    fn partition_scoring_matches_scalar_bitwise() {
        // Mixed binary (one-hot) and numeric columns and a row count off a
        // multiple of 64; partition scoring must reproduce the scalar
        // predictions bit for bit.
        let (xs, ys) = synthetic(450, 21);
        let model = ExtraTrees::fit(&xs, &ys, ForestParams::default());
        let (xt, _) = synthetic(301, 22);
        let rows: Vec<u32> = (0..xt.len() as u32).collect();
        assert_partition_matches_scalar(&model, &xt, &rows);
        // Strided selections, in descending order.
        let sel: Vec<u32> = (0..xt.len() as u32).rev().step_by(7).collect();
        assert_partition_matches_scalar(&model, &xt, &sel);
        let sel: Vec<u32> = (0..xt.len() as u32).rev().step_by(3).collect();
        assert_partition_matches_scalar(&model, &xt, &sel);
    }

    #[test]
    fn partition_scoring_all_numeric_columns() {
        // No binary column at all: every column holds a cut per distinct
        // value, and every threshold picks one of them.
        let mut rng = StdRng::seed_from_u64(31);
        let xs: Vec<Vec<f64>> = (0..120)
            .map(|_| vec![rng.gen_range(0.1..0.9), rng.gen_range(0.1..0.9)])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x[0] - x[1]).collect();
        let model = ExtraTrees::fit(&xs, &ys, ForestParams::default());
        let rows: Vec<u32> = (0..xs.len() as u32).collect();
        assert_partition_matches_scalar(&model, &xs, &rows);
    }

    #[test]
    fn partition_splits_send_ties_and_nan_right() {
        // One split on a numeric column, at a pool value, below every pool
        // value and above every one: `x < threshold` goes left, so a tie
        // and a NaN go right, as in the scalar walk.
        let xs: Vec<Vec<f64>> = [0.25, 0.5, 0.75, f64::NAN, -0.0]
            .iter()
            .map(|&v| vec![v])
            .collect();
        let pool = TransposedPool::from_rows(xs.len(), &xs);
        let rows: Vec<u32> = (0..xs.len() as u32).collect();
        for threshold in [0.5, -5.0, 5.0] {
            let stump = ExtraTrees {
                trees: vec![Tree {
                    nodes: vec![
                        Node::Split {
                            feature: 0,
                            threshold,
                            left: 1,
                            right: 2,
                        },
                        Node::Leaf { value: 1.0 },
                        Node::Leaf { value: 2.0 },
                    ],
                }],
                params: ForestParams::default(),
                n_features: 1,
                importance: vec![0.0],
            };
            let mut out = Vec::new();
            stump.predict_rows(&pool, &rows, &mut out);
            let scalar: Vec<f64> = xs.iter().map(|x| stump.predict(x)).collect();
            assert_eq!(out, scalar, "threshold {threshold}");
        }
    }

    #[test]
    fn negative_zero_targets_predict_positive_zero_on_both_paths() {
        // Each leaf's mean of -0.0 targets is -0.0; both paths sum the
        // trees from 0.0, so both predict +0.0.
        let xs: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64, (i % 2) as f64]).collect();
        let model = ExtraTrees::fit(&xs, &[-0.0; 8], ForestParams::default());
        for (x, p) in xs.iter().zip(model.predict_batch(&xs)) {
            assert_eq!(model.predict(x).to_bits(), 0.0f64.to_bits());
            assert_eq!(p.to_bits(), 0.0f64.to_bits());
        }
    }

    #[test]
    fn empty_batch_predicts_empty() {
        let (xs, ys) = synthetic(50, 14);
        let model = ExtraTrees::fit(&xs, &ys, ForestParams::default());
        assert!(model.predict_batch(&[]).is_empty());
    }

    /// One column kind of [`random_case`] and the values training draws.
    enum Col {
        OneHot(usize),
        Numeric(Vec<f64>),
        Constant(f64),
    }

    /// A training set and a pool drawn from one seed. Columns are one-hot
    /// groups, numeric columns of at most 11 values in [0, 1] and constant
    /// columns; a quarter of the training sets have all-`-0.0` targets.
    /// Pool cells are sometimes NaN or a value never seen in training, and
    /// sometimes a whole pool column holds just two such values, so that
    /// thresholds fall outside the pool's range.
    fn random_case(seed: u64, n_pool: usize) -> (Vec<Vec<f64>>, Vec<f64>, Vec<Vec<f64>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cols = Vec::new();
        for _ in 0..rng.gen_range(1..=3) {
            cols.push(Col::OneHot(rng.gen_range(2..=5)));
        }
        for _ in 0..rng.gen_range(0..=3) {
            let levels = rng.gen_range(1..=11usize);
            let step = 1.0 / (levels.max(2) - 1) as f64;
            cols.push(Col::Numeric((0..levels).map(|k| k as f64 * step).collect()));
        }
        for _ in 0..rng.gen_range(0..=2) {
            cols.push(Col::Constant([0.0, 0.5, 1.0][rng.gen_range(0..3)]));
        }
        let draw = |rng: &mut StdRng| -> Vec<f64> {
            let mut x = Vec::new();
            for c in &cols {
                match c {
                    Col::OneHot(card) => {
                        let hot = rng.gen_range(0..*card);
                        x.extend((0..*card).map(|i| if i == hot { 1.0 } else { 0.0 }));
                    }
                    Col::Numeric(values) => x.push(values[rng.gen_range(0..values.len())]),
                    Col::Constant(v) => x.push(*v),
                }
            }
            x
        };
        let novel = |rng: &mut StdRng| match rng.gen_range(0..4) {
            0 => f64::NAN,
            1 => rng.gen_range(-0.5..1.5),
            _ => [-1.0, 2.0, -0.0][rng.gen_range(0..3)],
        };
        let n_train = rng.gen_range(2..=60);
        let xs: Vec<Vec<f64>> = (0..n_train).map(|_| draw(&mut rng)).collect();
        let ys: Vec<f64> = if rng.gen_range(0..4) == 0 {
            vec![-0.0; n_train]
        } else {
            (0..n_train)
                .map(|_| [-0.0, 0.0, 1.0, rng.gen_range(-1.0..1.0)][rng.gen_range(0..4)])
                .collect()
        };
        let novel_share = [0.0, 0.05, 0.3][rng.gen_range(0..3)];
        let mut pool: Vec<Vec<f64>> = (0..n_pool).map(|_| draw(&mut rng)).collect();
        for v in pool.iter_mut().flatten() {
            if rng.gen_bool(novel_share) {
                *v = novel(&mut rng);
            }
        }
        if rng.gen_bool(0.3) {
            let f = rng.gen_range(0..xs[0].len());
            let pair = [novel(&mut rng), novel(&mut rng)];
            pool.iter_mut()
                .for_each(|x| x[f] = pair[usize::from(rng.gen_bool(0.5))]);
        }
        (xs, ys, pool)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Partition scoring equals `ExtraTrees::predict` bit for bit on
        /// every selected row: random forests of 1–30 trees, pools of
        /// 1–300 rows, and random, empty and full row subsets.
        #[test]
        fn partition_scoring_equals_the_scalar_reference(
            seed in 0u64..1 << 40,
            n_trees in 1usize..=30,
            n_pool in 1usize..=300,
        ) {
            let (xs, ys, pool) = random_case(seed, n_pool);
            let mut rng = StdRng::seed_from_u64(!seed);
            let width = xs[0].len();
            let params = ForestParams {
                n_trees,
                min_samples_leaf: rng.gen_range(1..=3),
                k_features: rng.gen_bool(0.5).then(|| rng.gen_range(1..=width)),
                seed,
            };
            let model = ExtraTrees::fit(&xs, &ys, params);
            let transposed = TransposedPool::from_rows(pool.len(), &pool);
            let keep = rng.gen_range(0.0..1.0);
            let mut random: Vec<u32> = (0..n_pool as u32).filter(|_| rng.gen_bool(keep)).collect();
            for i in (1..random.len()).rev() {
                random.swap(i, rng.gen_range(0..=i));
            }
            let full: Vec<u32> = (0..n_pool as u32).collect();
            let mut out = Vec::new();
            for rows in [&random[..], &[], &full[..]] {
                model.predict_rows(&transposed, rows, &mut out);
                proptest::prop_assert_eq!(out.len(), rows.len());
                for (&r, p) in rows.iter().zip(&out) {
                    let want = model.predict(&pool[r as usize]);
                    proptest::prop_assert_eq!(want.to_bits(), p.to_bits(), "row {}", r);
                }
            }
        }
    }
}
