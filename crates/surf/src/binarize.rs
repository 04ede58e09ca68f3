//! Feature binarization (paper §V).
//!
//! The decomposition (PERMUTE) parameters "do not admit a natural ordinal
//! relationship", so the paper one-hot encodes them before fitting the
//! surrogate ("feature binarization"). Integer parameters such as unroll
//! factors stay numeric.
//!
//! The candidate pool the surrogate scores, and the training set it is
//! fit on, are kept transposed ([`TransposedPool`]): per binarized column,
//! one bitset over the rows for each way a split `x < threshold` can cut
//! that column's values. The forest then grows and scores by partitioning
//! row sets instead of walking rows one by one (see [`crate::forest`]).
//!
//! A pool is transposed from its rows ([`TransposedPool::from_rows`]) or
//! from its value classes ([`TransposedPool::from_classes`]): per column,
//! the bitset of the rows holding each value. A caller that knows each
//! row's raw parameter values writes the bitsets of the rows by raw value
//! and lets [`FeatureSpace::binarize_classes`] turn them into the same
//! columns, without building a row.

/// One tunable parameter of a configuration.
#[derive(Clone, Debug, PartialEq)]
pub enum Feature {
    /// Unordered choice among `cardinality` alternatives → one-hot encoded.
    Categorical { name: String, cardinality: usize },
    /// Ordered integer parameter → single numeric column, min-max scaled.
    Integer { name: String, min: f64, max: f64 },
}

impl Feature {
    pub fn name(&self) -> &str {
        match self {
            Feature::Categorical { name, .. } | Feature::Integer { name, .. } => name,
        }
    }

    /// Number of columns this feature occupies after binarization.
    pub fn width(&self) -> usize {
        match self {
            Feature::Categorical { cardinality, .. } => *cardinality,
            Feature::Integer { .. } => 1,
        }
    }
}

/// An ordered list of features describing a configuration vector.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FeatureSpace {
    pub features: Vec<Feature>,
}

impl FeatureSpace {
    pub fn new(features: Vec<Feature>) -> Self {
        FeatureSpace { features }
    }

    pub fn categorical(mut self, name: impl Into<String>, cardinality: usize) -> Self {
        assert!(cardinality >= 1);
        self.features.push(Feature::Categorical {
            name: name.into(),
            cardinality,
        });
        self
    }

    pub fn integer(mut self, name: impl Into<String>, min: f64, max: f64) -> Self {
        assert!(max >= min);
        self.features.push(Feature::Integer {
            name: name.into(),
            min,
            max,
        });
        self
    }

    /// Total binarized width.
    pub fn width(&self) -> usize {
        self.features.iter().map(|f| f.width()).sum()
    }

    /// Binarizes one raw configuration vector (one value per feature:
    /// category index for categoricals, value for integers).
    pub fn binarize(&self, raw: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.width());
        self.binarize_into(raw, &mut out);
        out
    }

    /// Binarizes into a caller-provided buffer (appended, not cleared), so
    /// hot paths can pack many configurations into one flat allocation.
    pub fn binarize_into(&self, raw: &[f64], out: &mut Vec<f64>) {
        assert_eq!(raw.len(), self.features.len(), "raw vector length");
        // Zero the whole row once, then set one column per feature.
        let mut at = out.len();
        out.resize(at + self.width(), 0.0);
        for (f, &v) in self.features.iter().zip(raw) {
            match f {
                Feature::Categorical { cardinality, name } => {
                    // `v as usize` saturates, so the round trip also rejects
                    // negative, fractional and NaN values.
                    let idx = v as usize;
                    assert!(
                        idx as f64 == v && idx < *cardinality,
                        "category {v} out of range for {name}"
                    );
                    out[at + idx] = 1.0;
                    at += cardinality;
                }
                Feature::Integer { min, max, .. } => {
                    let span = (max - min).max(1e-12);
                    out[at] = (v - min) / span;
                    at += 1;
                }
            }
        }
    }

    /// Binarizes a pool of `n_rows` rows given by raw value instead of by
    /// row. `raw[j]` holds feature `j`'s rows by value: the bitset of the
    /// rows whose raw value is `v` at words `v * words..(v + 1) * words`,
    /// where `words = n_rows.div_ceil(64)`, so every raw value is a small
    /// non-negative integer (a category index, or an integer parameter's
    /// value); a value past the end of `raw[j]` holds no row. Returns each
    /// binarized column's value classes, `(value, rows)`, in the order of
    /// [`FeatureSpace::binarize`]'s columns: the columns
    /// [`TransposedPool::from_classes`] turns into the pool
    /// [`TransposedPool::from_rows`] builds from the binarized rows.
    pub fn binarize_classes(&self, n_rows: usize, raw: &[Vec<u64>]) -> Vec<Vec<(f64, Vec<u64>)>> {
        assert_eq!(raw.len(), self.features.len(), "raw class count");
        let words = n_rows.div_ceil(64);
        let every = every_row(n_rows);
        let mut columns = Vec::with_capacity(self.width());
        for (f, by_value) in self.features.iter().zip(raw) {
            let mut by_value = by_value.chunks_exact(words.max(1));
            match f {
                Feature::Categorical { cardinality, name } => {
                    assert!(
                        by_value.len() <= *cardinality,
                        "category out of range for {name}"
                    );
                    for _ in 0..*cardinality {
                        let ones = by_value.next().unwrap_or(&[]);
                        let mut zeros = every.clone();
                        zeros.iter_mut().zip(ones).for_each(|(z, o)| *z &= !o);
                        columns.push(vec![(0.0, zeros), (1.0, ones.to_vec())]);
                    }
                }
                Feature::Integer { min, max, .. } => {
                    let span = (max - min).max(1e-12);
                    let class =
                        |(v, rows): (usize, &[u64])| ((v as f64 - min) / span, rows.to_vec());
                    columns.push(by_value.enumerate().map(class).collect());
                }
            }
        }
        columns
    }
}

/// The bitset of every row of an `n_rows`-row pool.
pub(crate) fn every_row(n_rows: usize) -> Vec<u64> {
    let mut every = vec![!0u64; n_rows.div_ceil(64)];
    if !n_rows.is_multiple_of(64) {
        every[n_rows / 64] = (1 << (n_rows % 64)) - 1;
    }
    every
}

/// A pool of binarized rows stored column by column, as bit partitions of
/// the rows: the layout a forest needs to send a whole set of rows down a
/// split with one AND.
///
/// Column `f` keeps its distinct values `d_0 < … < d_{m-1}` and, for each
/// `k` in `1..m`, the bitset of the rows with `x[f] < d_k`. A one-hot column
/// holds one bitset, an unroll column at most ten. A NaN is never below a
/// threshold, so a column with NaN rows also keeps the bitset of its
/// non-NaN rows. A column costs `m - 1` bitsets of `n_rows / 8` bytes, which
/// suits binarized parameters: one-hot categories and short integer ranges.
#[derive(Clone, Debug, PartialEq)]
pub struct TransposedPool {
    n_rows: usize,
    /// Words per row bitset.
    words: usize,
    columns: Vec<Column>,
}

#[derive(Clone, Debug, PartialEq)]
struct Column {
    /// Distinct non-NaN values, ascending.
    values: Vec<f64>,
    /// Bitsets of `words` each: cut `k - 1` holds the rows with
    /// `x < values[k]`, then, if the column has NaN rows, one more holds
    /// every non-NaN row.
    below: Vec<u64>,
}

/// The pool rows a split `x[f] < threshold` sends left.
pub(crate) enum Left<'a> {
    None,
    All,
    Rows(&'a [u64]),
}

impl TransposedPool {
    /// Transposes `n_rows` rows of equal width. Each row is folded into its
    /// columns as it arrives and then dropped, so `rows` can produce them
    /// lazily and no row-major copy of the pool is ever held.
    pub fn from_rows<R: AsRef<[f64]>>(n_rows: usize, rows: impl IntoIterator<Item = R>) -> Self {
        let words = n_rows.div_ceil(64);
        // Per column, each distinct value (NaN counts as one) with the
        // bitset of the rows holding it, in order of first appearance. The
        // first value's bitset stays empty until every row is in: it holds
        // most rows (a one-hot column is mostly 0.0), so it is filled in as
        // the complement of the others.
        let mut classes: Vec<Vec<(f64, Vec<u64>)>> = Vec::new();
        let mut seen = 0;
        for (r, row) in rows.into_iter().enumerate() {
            let row = row.as_ref();
            assert!(r < n_rows, "more than {n_rows} rows");
            if r == 0 {
                classes = row.iter().map(|&x| vec![(x, vec![0; words])]).collect();
            }
            assert_eq!(row.len(), classes.len(), "row width mismatch");
            let (word, bit) = (r / 64, 1u64 << (r % 64));
            for (col, &x) in classes.iter_mut().zip(row) {
                if x == col[0].0 {
                    continue;
                }
                match col
                    .iter()
                    .position(|(v, _)| *v == x || (v.is_nan() && x.is_nan()))
                {
                    Some(0) => {}
                    Some(k) => col[k].1[word] |= bit,
                    None => {
                        let mut rows = vec![0; words];
                        rows[word] = bit;
                        col.push((x, rows));
                    }
                }
            }
            seen = r + 1;
        }
        assert_eq!(seen, n_rows, "row count mismatch");
        let every = every_row(n_rows);
        for col in &mut classes {
            let mut first = every.clone();
            for (_, rows) in &col[1..] {
                first.iter_mut().zip(rows).for_each(|(f, r)| *f &= !r);
            }
            col[0].1 = first;
        }
        TransposedPool::from_classes(n_rows, classes)
    }

    /// Transposes a pool of `n_rows` rows given column by column as its
    /// value classes: each `(value, rows)` pair holds a value and the
    /// bitset (`n_rows.div_ceil(64)` words) of the rows holding it. A
    /// column's classes partition its rows, in any order, and hold distinct
    /// values (`==`, with every NaN one value); a class with no row is
    /// dropped.
    pub fn from_classes(
        n_rows: usize,
        columns: impl IntoIterator<Item = Vec<(f64, Vec<u64>)>>,
    ) -> Self {
        let words = n_rows.div_ceil(64);
        TransposedPool {
            n_rows,
            words,
            columns: columns
                .into_iter()
                .map(|col| Column::cumulative(col, words))
                .collect(),
        }
    }

    pub(crate) fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Binarized width (0 for an empty pool).
    pub(crate) fn width(&self) -> usize {
        self.columns.len()
    }

    /// Words per row bitset.
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// The rows with `x[feature] < threshold`: the bitset of the number of
    /// distinct values below `threshold`, or none or every row.
    pub(crate) fn left_of(&self, feature: usize, threshold: f64) -> Left<'_> {
        let col = &self.columns[feature];
        let below = col.values.partition_point(|&v| v < threshold);
        if below == 0 {
            return Left::None;
        }
        match col.below.get((below - 1) * self.words..below * self.words) {
            Some(rows) => Left::Rows(rows),
            None => Left::All,
        }
    }

    /// The least and the greatest non-NaN value of column `feature` over
    /// `set`, a bitset of `n` rows, or `(∞, -∞)` when every one is NaN.
    /// Read from the cuts: the least value is the first whose cut holds a
    /// row of the set, the greatest the first whose cut holds all of them.
    pub(crate) fn range_in(&self, feature: usize, set: &[u64], n: usize) -> (f64, f64) {
        let col = &self.columns[feature];
        let Some(&top) = col.values.last() else {
            return (f64::INFINITY, f64::NEG_INFINITY);
        };
        let within = |cut: &[u64]| -> usize {
            set.iter()
                .zip(cut)
                .map(|(&s, &c)| (s & c).count_ones() as usize)
                .sum()
        };
        let mut cuts = col.below.chunks_exact(self.words);
        // A column with NaN rows ends on the cut of its non-NaN rows.
        let live = if col.below.len() == col.values.len() * self.words {
            cuts.next_back().map_or(0, within)
        } else {
            n
        };
        if live == 0 {
            return (f64::INFINITY, f64::NEG_INFINITY);
        }
        let mut lo = None;
        for (k, cut) in cuts.enumerate() {
            let below = within(cut);
            if below > 0 && lo.is_none() {
                lo = Some(col.values[k]);
            }
            if below == live {
                return (lo.unwrap_or(top), col.values[k]);
            }
        }
        (lo.unwrap_or(top), top)
    }
}

impl Column {
    /// Sorts a column's value classes (each with the bitset of the rows
    /// holding it, `words` words) and accumulates their bitsets into the
    /// `x < d_k` cuts.
    fn cumulative(mut classes: Vec<(f64, Vec<u64>)>, words: usize) -> Column {
        classes.retain(|(_, rows)| rows.iter().any(|&w| w != 0));
        let nan = classes.iter().position(|(v, _)| v.is_nan());
        if let Some(k) = nan {
            classes.swap_remove(k);
        }
        // `==` merged -0.0 with 0.0, so the classes are strictly ordered.
        classes.sort_by(|a, b| a.0.total_cmp(&b.0));
        let cuts = (classes.len() + usize::from(nan.is_some())).saturating_sub(1);
        let mut below = Vec::with_capacity(cuts * words);
        let mut acc = vec![0u64; words];
        for (_, rows) in classes.iter().take(cuts) {
            acc.iter_mut().zip(rows).for_each(|(a, r)| *a |= r);
            below.extend_from_slice(&acc);
        }
        Column {
            values: classes.into_iter().map(|(v, _)| v).collect(),
            below,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_sums_cardinalities() {
        let fs = FeatureSpace::default()
            .categorical("tx", 4)
            .categorical("ty", 5)
            .integer("uf", 1.0, 10.0);
        assert_eq!(fs.width(), 10);
    }

    #[test]
    fn one_hot_encoding() {
        let fs = FeatureSpace::default()
            .categorical("tx", 3)
            .integer("uf", 1.0, 5.0);
        let v = fs.binarize(&[2.0, 3.0]);
        assert_eq!(v, vec![0.0, 0.0, 1.0, 0.5]);
    }

    #[test]
    fn integer_scaling_endpoints() {
        let fs = FeatureSpace::default().integer("uf", 1.0, 10.0);
        assert_eq!(fs.binarize(&[1.0]), vec![0.0]);
        assert_eq!(fs.binarize(&[10.0]), vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn category_bounds_checked() {
        let fs = FeatureSpace::default().categorical("tx", 3);
        let _ = fs.binarize(&[3.0]);
    }

    #[test]
    #[should_panic(expected = "category -1 out of range")]
    fn negative_category_rejected() {
        let fs = FeatureSpace::default().categorical("tx", 3);
        let _ = fs.binarize(&[-1.0]);
    }

    /// The rows of a `Left::Rows` bitset, checking that no padding bit past
    /// `n_rows` is set.
    fn rows_of(left: Left<'_>, n_rows: usize) -> Vec<usize> {
        let Left::Rows(bits) = left else {
            panic!("expected a row bitset");
        };
        let rows: Vec<usize> = (0..bits.len() * 64)
            .filter(|&r| bits[r / 64] >> (r % 64) & 1 == 1)
            .collect();
        assert!(rows.iter().all(|&r| r < n_rows), "padding bit set");
        rows
    }

    #[test]
    fn transposed_pool_keeps_one_cut_per_value_step() {
        // A one-hot column (two values), an unroll-like column (eleven), a
        // constant column and a column of 1.0 or NaN, over 100 rows.
        let xs: Vec<Vec<f64>> = (0..100)
            .map(|i| {
                let nan_or_one = if i % 3 == 0 { f64::NAN } else { 1.0 };
                vec![(i % 2) as f64, (i % 11) as f64 / 10.0, 0.5, nan_or_one]
            })
            .collect();
        let pool = TransposedPool::from_rows(xs.len(), &xs);
        let cuts: Vec<usize> = pool
            .columns
            .iter()
            .map(|c| c.below.len() / pool.words())
            .collect();
        assert_eq!(cuts, [1, 10, 0, 1]);
        let even: Vec<usize> = (0..100).step_by(2).collect();
        assert_eq!(rows_of(pool.left_of(0, 0.5), 100), even);
        let low: Vec<usize> = (0..100).filter(|i| i % 11 < 3).collect();
        assert_eq!(rows_of(pool.left_of(1, 0.25), 100), low);
        assert!(matches!(pool.left_of(1, -1.0), Left::None));
        assert!(matches!(pool.left_of(1, 7.0), Left::All));
        assert!(matches!(pool.left_of(2, 0.4), Left::None));
        assert!(matches!(pool.left_of(2, 0.6), Left::All));
        // Every value of the last column is below 2.0, yet its NaN rows are
        // not: the split gets the non-NaN rows, not every row.
        let ones: Vec<usize> = (0..100).filter(|i| i % 3 != 0).collect();
        assert_eq!(rows_of(pool.left_of(3, 2.0), 100), ones);
    }

    #[test]
    fn degenerate_integer_range() {
        let fs = FeatureSpace::default().integer("uf", 2.0, 2.0);
        let v = fs.binarize(&[2.0]);
        assert_eq!(v.len(), 1);
        assert!(v[0].is_finite());
    }
}
