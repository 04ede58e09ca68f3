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
//! Both fitting and scoring work on row bitsets over a [`TransposedPool`],
//! as QuickScorer (Lucchese et al., SIGIR 2015) scores ranking forests. A
//! split `x[f] < threshold` of a row set `S` sends `S & mask` left and
//! `S & !mask` right, where `mask` is the pool's bitset of rows below the
//! threshold, so a NaN goes right on every path.
//!
//! - [`ExtraTrees::fit`] transposes the training rows and grows each node
//!   as the bitset of its rows. A drawn column's min and max at the node
//!   come from its cuts, so a column that is constant there (most drawn
//!   columns, since binarized columns are mostly one-hot) costs a few ANDs.
//!   Only a split that leaves both sides non-empty reads the node's
//!   targets, each side in row order.
//! - [`ExtraTrees::predict_rows`] pushes the bitset of the selected pool
//!   rows down each tree, skips an empty side, and adds each leaf's value
//!   to every row of the set that reaches it: one sweep over the pool's
//!   words per split, not one tree walk per row. [`ExtraTrees::predict`]
//!   walks one row and is the scalar reference.

use crate::binarize::{every_row, Left, TransposedPool};
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
                    rows(&sets[set..set + words]).for_each(|r| sums[r] += *value);
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

/// The indices of the set bits of a bitset, in ascending order.
struct Rows<'a> {
    set: &'a [u64],
    word: usize,
    bits: u64,
}

fn rows(set: &[u64]) -> Rows<'_> {
    Rows {
        set,
        word: 0,
        bits: set.first().copied().unwrap_or(0),
    }
}

impl Iterator for Rows<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.word += 1;
            self.bits = *self.set.get(self.word)?;
        }
        let r = self.word * 64 + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(r)
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

/// Mean target of the `n` rows of `set`: an iterator sum in row order,
/// which starts from -0.0, so a leaf of -0.0 targets keeps its sign.
fn mean(ys: &[f64], set: &[u64], n: usize) -> f64 {
    rows(set).map(|i| ys[i]).sum::<f64>() / n as f64
}

fn sse(ys: &[f64], set: &[u64], n: usize) -> f64 {
    let m = mean(ys, set, n);
    rows(set).map(|i| (ys[i] - m).powi(2)).sum()
}

/// One tree's growth over the training set `xs`, transposed: a node is the
/// bitset of its rows, kept in `sets` as [`Tree::score`] keeps them (the
/// root at offset 0, then two slots per depth for the sides of a split).
struct Grower<'a> {
    xs: &'a TransposedPool,
    ys: &'a [f64],
    params: &'a ForestParams,
    rng: StdRng,
    nodes: Vec<Node>,
    importance: Vec<f64>,
    /// Column draw order, reused across nodes.
    cand: Vec<usize>,
    sets: Vec<u64>,
    /// The sides of the candidate split being scored.
    left: Vec<u64>,
    right: Vec<u64>,
}

impl<'a> Grower<'a> {
    fn new(xs: &'a TransposedPool, ys: &'a [f64], params: &'a ForestParams, rng: StdRng) -> Self {
        let words = xs.words();
        Grower {
            xs,
            ys,
            params,
            rng,
            nodes: Vec::new(),
            importance: vec![0.0; xs.width()],
            cand: Vec::new(),
            sets: every_row(xs.n_rows()),
            left: vec![0; words],
            right: vec![0; words],
        }
    }

    /// Grows the subtree of the rows of the set at offset `set`, at depth
    /// `depth`, and returns the index of its root node.
    fn grow(&mut self, set: usize, depth: usize) -> usize {
        let words = self.xs.words();
        let n: usize = self.sets[set..set + words]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        let split = if n < self.params.min_samples_leaf.max(2) {
            None
        } else {
            self.best_split(set, n)
        };
        let Some((feature, threshold, gain, mask)) = split else {
            self.nodes.push(Node::Leaf {
                value: mean(self.ys, &self.sets[set..set + words], n),
            });
            return self.nodes.len() - 1;
        };
        self.importance[feature] += gain.max(0.0);
        // The sides: the rows below the threshold, and every other row of
        // the node (a NaN row goes right, as `predict` sends it).
        let slots = (2 * depth + 1) * words;
        if self.sets.len() < slots + 2 * words {
            self.sets.resize(slots + 2 * words, 0);
        }
        let (parent, children) = self.sets.split_at_mut(slots);
        let (l, r) = children[..2 * words].split_at_mut(words);
        for (((l, r), &s), &m) in l.iter_mut().zip(r).zip(&parent[set..]).zip(mask) {
            *l = s & m;
            *r = s & !m;
        }
        let at = self.nodes.len();
        self.nodes.push(Node::Leaf { value: 0.0 }); // placeholder
        let left = self.grow(slots, depth + 1);
        let right = self.grow(slots + words, depth + 1);
        self.nodes[at] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        at
    }

    /// The best of `k_features` random splits of the `n` rows of the set at
    /// offset `set`: `(feature, threshold, variance reduction, the pool's
    /// bitset of rows below the threshold)`, or `None` when the node's
    /// targets are all equal, or every drawn column is constant at the node
    /// or its cut leaves a side empty.
    fn best_split(&mut self, set: usize, n: usize) -> Option<(usize, f64, f64, &'a [u64])> {
        let xs = self.xs;
        let ys = self.ys;
        let node = &self.sets[set..set + xs.words()];
        let first_y = ys[rows(node).next()?];
        if rows(node).all(|i| (ys[i] - first_y).abs() < 1e-15) {
            return None;
        }
        let n_features = xs.width();
        let k = self.params.k_features.unwrap_or(n_features).min(n_features);
        self.cand.clear();
        self.cand.extend(0..n_features);
        // Partial Fisher–Yates to draw k distinct features.
        for i in 0..k {
            let j = self.rng.gen_range(i..n_features);
            self.cand.swap(i, j);
        }
        let parent_sse = sse(ys, node, n);
        let mut best: Option<(usize, f64, f64, &'a [u64])> = None;
        for &f in &self.cand[..k] {
            let (lo, hi) = xs.range_in(f, node, n);
            if hi - lo < 1e-12 {
                continue;
            }
            let threshold = self.rng.gen_range(lo..hi).max(lo + (hi - lo) * 1e-9);
            let Left::Rows(mask) = xs.left_of(f, threshold) else {
                // No row, or every row, is below the threshold.
                continue;
            };
            let (left, right) = (&mut self.left, &mut self.right);
            let mut n_l = 0;
            for (((l, r), &s), &m) in left.iter_mut().zip(right.iter_mut()).zip(node).zip(mask) {
                *l = s & m;
                *r = s & !m;
                n_l += l.count_ones() as usize;
            }
            if n_l == 0 || n_l == n {
                continue;
            }
            // The forest's bits depend on the float order: each side's sum
            // runs in row order from 0.0, its sum of squares in row order.
            let (mut sum_l, mut sum_r) = (0.0f64, 0.0f64);
            for i in rows(left) {
                sum_l += ys[i];
            }
            for i in rows(right) {
                sum_r += ys[i];
            }
            let m_l = sum_l / n_l as f64;
            let m_r = sum_r / (n - n_l) as f64;
            let sse_l: f64 = rows(left).map(|i| (ys[i] - m_l).powi(2)).sum();
            let sse_r: f64 = rows(right).map(|i| (ys[i] - m_r).powi(2)).sum();
            let score = parent_sse - sse_l - sse_r;
            if best.is_none_or(|(_, _, s, _)| score > s) {
                best = Some((f, threshold, score, mask));
            }
        }
        best
    }
}

impl ExtraTrees {
    /// Fits the forest on binarized configurations `xs` with targets `ys`.
    ///
    /// The rows are transposed once into a [`TransposedPool`], and every
    /// tree grows on row bitsets: a drawn column's range at a node comes
    /// from its cuts, a split is one AND with the cut below the threshold,
    /// and only a split that leaves both sides non-empty reads the node's
    /// targets. Trees are grown in parallel on the rayon pool: each tree
    /// draws its own rng from `seed + tree_index`, so the forest is
    /// identical at any thread count. Per-tree importance contributions are
    /// summed in tree order, keeping the floating-point reduction
    /// scheduling-independent.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], params: ForestParams) -> Self {
        assert_eq!(xs.len(), ys.len(), "xs/ys length mismatch");
        assert!(!xs.is_empty(), "cannot fit on an empty training set");
        let n_features = xs[0].len();
        let pool = TransposedPool::from_rows(xs.len(), xs);
        let tree_ids: Vec<u64> = (0..params.n_trees as u64).collect();
        let grown: Vec<(Tree, Vec<f64>)> = rayon::par_map_slice(&tree_ids, |&t| {
            let rng = StdRng::seed_from_u64(params.seed.wrapping_add(t));
            let mut grower = Grower::new(&pool, ys, &params, rng);
            let root = grower.grow(0, 0);
            debug_assert_eq!(root, 0);
            (
                Tree {
                    nodes: grower.nodes,
                },
                grower.importance,
            )
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
    fn nan_training_rows_go_right_at_a_split() {
        // The one split sends 0.0 left and 1.0 and NaN right, as `predict`
        // routes them; the right leaf then averages both targets.
        let xs: Vec<Vec<f64>> = [0.0, 0.0, 1.0, f64::NAN].iter().map(|&v| vec![v]).collect();
        let params = ForestParams {
            n_trees: 1,
            k_features: None,
            ..ForestParams::default()
        };
        let model = ExtraTrees::fit(&xs, &[0.0, 0.0, 10.0, 100.0], params);
        assert_eq!(model.predict(&[f64::NAN]), 55.0);
        assert_eq!(model.predict(&[1.0]), 55.0);
        assert_eq!(model.predict(&[0.0]), 0.0);
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

    /// A NaN-free training set drawn from `seed`, 1–150 rows, with the
    /// column kinds binarized features produce and a few hostile ones:
    /// one-hot groups, 11-level columns, columns mixing 0.0 and -0.0,
    /// constant columns, columns whose values lie under 1e-12 apart and
    /// continuous columns. Targets tie often and include both zeros.
    fn hostile_training_set(seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..=150usize);
        let mut cols: Vec<Vec<f64>> = Vec::new();
        for _ in 0..rng.gen_range(1..=10) {
            match rng.gen_range(0..6) {
                0 => {
                    let card = rng.gen_range(2..=6usize);
                    let hot: Vec<usize> = (0..n).map(|_| rng.gen_range(0..card)).collect();
                    for c in 0..card {
                        cols.push(hot.iter().map(|&h| f64::from(u8::from(h == c))).collect());
                    }
                }
                1 => cols.push(
                    (0..n)
                        .map(|_| rng.gen_range(0..=10) as f64 / 10.0)
                        .collect(),
                ),
                2 => {
                    let values = [0.0, -0.0, [1.0, -1.0, 0.0][rng.gen_range(0..3)]];
                    cols.push((0..n).map(|_| values[rng.gen_range(0..3)]).collect());
                }
                3 => cols.push(vec![[0.0, -0.0, 0.5, 1.0][rng.gen_range(0..4)]; n]),
                4 => {
                    let base = rng.gen_range(-1.0..1.0);
                    let far = if rng.gen_bool(0.5) { base + 0.25 } else { base };
                    let values = [base, base + 3e-13, base + 7e-13, far];
                    cols.push((0..n).map(|_| values[rng.gen_range(0..4)]).collect());
                }
                _ => cols.push((0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()),
            }
        }
        let xs = (0..n)
            .map(|i| cols.iter().map(|c| c[i]).collect())
            .collect();
        let ys = (0..n)
            .map(|_| match rng.gen_range(0..5) {
                0 => -0.0,
                1 => 0.0,
                2 => [1.0, 2.0][rng.gen_range(0..2)],
                _ => rng.gen_range(-1.0..1.0),
            })
            .collect();
        (xs, ys)
    }

    /// FNV-1a over every node of every tree (feature, threshold bits,
    /// children, leaf value bits) and the importance bits.
    fn forest_digest(model: &ExtraTrees, mut h: u64) -> u64 {
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100000001B3);
            }
        };
        for tree in &model.trees {
            eat(tree.nodes.len() as u64);
            for node in &tree.nodes {
                match node {
                    Node::Leaf { value } => {
                        eat(0);
                        eat(value.to_bits());
                    }
                    Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } => {
                        eat(1);
                        eat(*feature as u64);
                        eat(threshold.to_bits());
                        eat(*left as u64);
                        eat(*right as u64);
                    }
                }
            }
        }
        for v in &model.importance {
            eat(v.to_bits());
        }
        h
    }

    /// Pins every tree and importance bit of forests fit on 200 hostile
    /// NaN-free training sets with random `k_features` and
    /// `min_samples_leaf`. A change here means some fit moved; that is a
    /// regression, not a constant to re-capture.
    #[test]
    fn forest_digest_is_pinned() {
        let mut h = 0xCBF29CE484222325;
        for seed in 0..200u64 {
            let (xs, ys) = hostile_training_set(seed);
            let mut rng = StdRng::seed_from_u64(!seed);
            let width = xs[0].len();
            let params = ForestParams {
                n_trees: rng.gen_range(1..=8),
                min_samples_leaf: rng.gen_range(1..=4),
                k_features: rng.gen_bool(0.7).then(|| rng.gen_range(1..=width)),
                seed,
            };
            h = forest_digest(&ExtraTrees::fit(&xs, &ys, params), h);
        }
        assert_eq!(h, 0x4e38_aa6c_cb1d_a997, "forest digest {h:#018x}");
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
