//! Per-statement tuning state: OCTOPI versions × TCR configurations.
//!
//! A [`StatementTuner`] owns every factorization (OCTOPI "version") of one
//! summation statement, each lowered to a TCR program with its GPU search
//! space. Configurations of the statement are addressed by a flat `u128`
//! id that selects a version and a configuration within it;
//! [`StatementTuner::features`]
//! binarizes an id for the SURF surrogate (version one-hot, loop-choice
//! one-hots over the statement's index vocabulary, numeric unroll and
//! staging count). The vocabulary slot of every entry of every op's tables
//! is computed once at build, so featurizing an id reads its per-op
//! [`OpCode`]s' values from those tables and binarizes them: no
//! configuration is decoded and no loop name compared.

use octopi::{enumerate_factorizations, Contraction, Factorization};
use rand::Rng;
use surf::FeatureSpace;
use tcr::space::{Configuration, OpCode, OpSpace, ProgramSpace};
use tcr::TcrProgram;
use tensor::{IndexMap, IndexVar};

/// Feature layout of a statement: version one-hot, then per op-slot six
/// loop-choice one-hots over the index vocabulary plus two integers. A
/// statement with no surviving version keeps a one-column version feature
/// (it has no id to featurize).
fn build_feature_space(n_variants: usize, vocab_len: usize, max_ops: usize) -> FeatureSpace {
    let card = vocab_len + 1;
    let mut fs = FeatureSpace::default().categorical("version", n_variants.max(1));
    for op in 0..max_ops {
        for name in ["tx", "ty", "bx", "by", "inner", "second"] {
            fs = fs.categorical(format!("op{op}_{name}"), card);
        }
        fs = fs.integer(format!("op{op}_unroll"), 0.0, 10.0);
        fs = fs.integer(format!("op{op}_staged"), 0.0, 2.0);
    }
    fs
}

/// Vocabulary slot of a loop choice: 0 for "absent", else one past the
/// variable's position in the sorted vocabulary. A variable outside the
/// vocabulary (impossible for well-formed spaces) also takes slot 0 rather
/// than aborting feature extraction.
fn vocab_slot(vocab: &[IndexVar], sel: Option<&IndexVar>) -> usize {
    sel.and_then(|v| vocab.iter().position(|x| x == v))
        .map_or(0, |p| p + 1)
}

/// One op's tables as raw feature values (vocabulary slots and staged
/// counts), indexed like the tables an [`OpCode`] points into.
#[derive(Clone, Debug)]
struct OpSlots {
    tx: Vec<f64>,
    ty: Vec<f64>,
    bx: Vec<f64>,
    by: Vec<f64>,
    /// Innermost and second-innermost slot of each interior order.
    inner: Vec<[f64; 2]>,
    /// Staged input count of each staging subset.
    staged: Vec<f64>,
}

impl OpSlots {
    fn new(space: &OpSpace, vocab: &[IndexVar]) -> Self {
        let slot = |sel: Option<&IndexVar>| vocab_slot(vocab, sel) as f64;
        OpSlots {
            tx: space
                .tx_candidates()
                .iter()
                .map(|v| slot(Some(v)))
                .collect(),
            ty: space
                .ty_candidates()
                .iter()
                .map(|s| slot(s.var()))
                .collect(),
            bx: space
                .bx_candidates()
                .iter()
                .map(|s| slot(s.var()))
                .collect(),
            by: space
                .by_candidates()
                .iter()
                .map(|s| slot(s.var()))
                .collect(),
            inner: space
                .interiors()
                .iter()
                .map(|order| {
                    let second = order.len().checked_sub(2).map(|k| &order[k]);
                    [slot(order.last()), slot(second)]
                })
                .collect(),
            staged: space.stagings().iter().map(|s| s.len() as f64).collect(),
        }
    }

    /// Raw feature values of a code: the `[tx, ty, bx, by, innermost,
    /// second-innermost]` slots, the unroll factor and the staged count.
    fn raw(&self, c: OpCode) -> [f64; 8] {
        let [inner, second] = self.inner[usize::from(c.interior)];
        [
            self.tx[usize::from(c.tx)],
            self.ty[usize::from(c.ty)],
            self.bx[usize::from(c.bx)],
            self.by[usize::from(c.by)],
            inner,
            second,
            f64::from(c.unroll),
            self.staged[usize::from(c.staged)],
        ]
    }
}

/// One OCTOPI version of a statement, lowered and with its search space.
#[derive(Clone, Debug)]
pub struct Variant {
    pub factorization: Factorization,
    pub program: TcrProgram,
    pub space: ProgramSpace,
}

/// Tuning state for one statement.
#[derive(Clone, Debug)]
pub struct StatementTuner {
    pub contraction: Contraction,
    pub dims: IndexMap,
    pub variants: Vec<Variant>,
    /// Versions whose lowering failed, as `(version index, reason)` —
    /// quarantined at build time and excluded from the id space.
    pub quarantined_versions: Vec<(usize, String)>,
    /// Prefix sums of per-variant space sizes (offsets[v] = first id of v).
    offsets: Vec<u128>,
    /// Sorted index vocabulary of the statement (for feature encoding).
    vocab: Vec<IndexVar>,
    /// Max statement count across variants (feature slots).
    max_ops: usize,
    /// Per version, per op: the op's tables as feature values, computed
    /// once so featurizing an id compares no loop names.
    slots: Vec<Vec<OpSlots>>,
    /// Feature layout, built once — rebuilding it per `features` call
    /// allocates a few hundred `String`s per candidate and used to dominate
    /// featurization time.
    feature_space: FeatureSpace,
}

impl StatementTuner {
    /// Enumerates factorizations of `contraction`, lowers each to TCR and
    /// builds its search space. Versions whose lowering fails, whose space
    /// outgrows an 8-byte configuration code, or that hold an op with no
    /// parallel loop, are quarantined (recorded in `quarantined_versions`)
    /// rather than aborting the build; the id space covers survivors only,
    /// and is empty when none survives.
    pub fn build(name: &str, contraction: &Contraction, dims: &IndexMap) -> Self {
        let factorizations = enumerate_factorizations(contraction, dims);
        // Lowering + space construction per version is independent work;
        // fan it out over the rayon pool (order-preserving, so version
        // indices and id offsets match the serial construction).
        let lowered: Vec<Result<Variant, String>> = rayon::par_map_slice(&factorizations, |f| {
            let program = TcrProgram::try_from_factorization(name, contraction, f, dims)?;
            let space = ProgramSpace::build(&program)?;
            // An op with a scalar output has an empty space: its version
            // has no configuration to search or map.
            if let Some(op) = space
                .per_op
                .iter()
                .position(|s| s.tx_candidates().is_empty())
            {
                return Err(format!(
                    "op {op} has no parallel loop to map onto GPU threads"
                ));
            }
            Ok(Variant {
                factorization: f.clone(),
                program,
                space,
            })
        });
        let mut variants = Vec::with_capacity(lowered.len());
        let mut quarantined_versions = Vec::new();
        for (v, r) in lowered.into_iter().enumerate() {
            match r {
                Ok(variant) => variants.push(variant),
                Err(reason) => quarantined_versions.push((v, reason)),
            }
        }
        let mut offsets = Vec::with_capacity(variants.len() + 1);
        let mut acc = 0u128;
        for v in &variants {
            offsets.push(acc);
            acc += v.space.len();
        }
        offsets.push(acc);
        let vocab: Vec<IndexVar> = contraction.all_indices().into_iter().collect();
        let max_ops = variants
            .iter()
            .map(|v| v.program.ops.len())
            .max()
            .unwrap_or(0);
        let feature_space = build_feature_space(variants.len(), vocab.len(), max_ops);
        let slots = variants
            .iter()
            .map(|v| {
                v.space
                    .per_op
                    .iter()
                    .map(|s| OpSlots::new(s, &vocab))
                    .collect()
            })
            .collect();
        StatementTuner {
            contraction: contraction.clone(),
            dims: dims.clone(),
            variants,
            quarantined_versions,
            offsets,
            vocab,
            max_ops,
            slots,
            feature_space,
        }
    }

    /// Total configurations across all (surviving) versions.
    pub fn total(&self) -> u128 {
        self.offsets.last().copied().unwrap_or(0)
    }

    /// First flat id of a version — its configuration 0. Version-level
    /// searches (e.g. contraction-order annealing, which explores versions
    /// at a canonical configuration) address versions without materializing
    /// a [`Configuration`].
    pub fn version_start(&self, variant: usize) -> u128 {
        self.offsets[variant]
    }

    /// Decodes a flat id into (version index, configuration id local to
    /// that version) without materializing the configuration — the memoized
    /// hot path extracts per-op digits from the local id directly.
    pub fn decode_raw(&self, id: u128) -> (usize, u128) {
        assert!(id < self.total(), "statement config id out of range");
        // offsets is sorted; find the variant whose range contains id.
        let v = match self.offsets.binary_search(&id) {
            Ok(exact) => exact.min(self.variants.len() - 1),
            Err(ins) => ins - 1,
        };
        (v, id - self.offsets[v])
    }

    /// Decodes a flat id into (version index, configuration).
    pub fn decode(&self, id: u128) -> (usize, Configuration) {
        let (v, local) = self.decode_raw(id);
        (v, self.variants[v].space.config(local))
    }

    /// Inverse of [`StatementTuner::decode`].
    pub fn encode(&self, variant: usize, config: &Configuration) -> u128 {
        self.offsets[variant] + self.variants[variant].space.config_id(config)
    }

    /// A uniformly drawn configuration of version `variant`, as a flat id:
    /// one `rng` draw, no [`Configuration`] built.
    pub(crate) fn draw(&self, variant: usize, rng: &mut impl Rng) -> u128 {
        self.offsets[variant] + rng.gen_range(0..self.variants[variant].space.len())
    }

    /// Feature layout for this statement (shared by every id).
    pub fn feature_space(&self) -> &FeatureSpace {
        &self.feature_space
    }

    /// Prunes every variant's space in place and rebuilds the offsets. A
    /// pruned space keeps its tables, so the feature slots stay valid.
    pub fn prune(&mut self, rules: &tcr::PruneRules) {
        for v in &mut self.variants {
            v.space = tcr::prune_space(&v.program, &v.space, rules);
        }
        let mut offsets = Vec::with_capacity(self.variants.len() + 1);
        let mut acc = 0u128;
        for v in &self.variants {
            offsets.push(acc);
            acc += v.space.len();
        }
        offsets.push(acc);
        self.offsets = offsets;
    }

    /// Human-readable name of every *binarized* feature column, aligned
    /// with [`StatementTuner::features`] (one-hot categories expand to
    /// `name=K` columns).
    pub fn binarized_feature_names(&self) -> Vec<String> {
        let fs = self.feature_space();
        let mut out = Vec::with_capacity(fs.width());
        for f in &fs.features {
            match f {
                surf::Feature::Categorical { name, cardinality } => {
                    for k in 0..*cardinality {
                        // Category slot 0 is "absent"; others map to the
                        // statement's index vocabulary (for loop params) or
                        // the version number.
                        let label = if name == "version" {
                            format!("{name}={k}")
                        } else if k == 0 {
                            format!("{name}=none")
                        } else {
                            format!("{name}={}", self.vocab[k - 1])
                        };
                        out.push(label);
                    }
                }
                surf::Feature::Integer { name, .. } => out.push(name.clone()),
            }
        }
        out
    }

    /// Binarized feature vector of a flat id.
    pub fn features(&self, id: u128) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.feature_space.width());
        self.features_into(id, &mut out);
        out
    }

    /// Appends the binarized features of a flat id to `out`, reading each
    /// op's raw values from its slot tables. An op slot the version does
    /// not use reads as every loop absent, unroll 0 and nothing staged.
    pub(crate) fn features_into(&self, id: u128, out: &mut Vec<f64>) {
        let (v, local) = self.decode_raw(id);
        let space = &self.variants[v].space;
        let mut raw = vec![0.0; 1 + 8 * self.max_ops];
        raw[0] = v as f64;
        for (op, choice) in space.digits(local) {
            let at = 1 + 8 * op;
            raw[at..at + 8].copy_from_slice(&self.slots[v][op].raw(space.per_op[op].code(choice)));
        }
        self.feature_space.binarize_into(&raw, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopi::ast::TensorRef;
    use tensor::index::uniform_dims;

    fn eqn1() -> Contraction {
        Contraction {
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
        }
    }

    #[test]
    fn fifteen_variants_with_offsets() {
        let dims = uniform_dims(&["i", "j", "k", "l", "m", "n"], 10);
        let t = StatementTuner::build("ex", &eqn1(), &dims);
        assert_eq!(t.variants.len(), 15);
        assert!(t.quarantined_versions.is_empty());
        assert_eq!(
            t.total(),
            t.variants.iter().map(|v| v.space.len()).sum::<u128>()
        );
    }

    #[test]
    fn decode_encode_roundtrip() {
        let dims = uniform_dims(&["i", "j", "k", "l", "m", "n"], 6);
        let t = StatementTuner::build("ex", &eqn1(), &dims);
        let total = t.total();
        for frac in [0u128, 1, 7, 100] {
            let id = total * frac % total;
            let (v, c) = t.decode(id);
            assert_eq!(t.encode(v, &c), id);
        }
        // Boundary ids decode into the right variant.
        let (v0, _) = t.decode(0);
        assert_eq!(v0, 0);
        let (vl, _) = t.decode(total - 1);
        assert_eq!(vl, t.variants.len() - 1);
    }

    #[test]
    fn features_fixed_width_across_ids() {
        let dims = uniform_dims(&["i", "j", "k", "l", "m", "n"], 6);
        let t = StatementTuner::build("ex", &eqn1(), &dims);
        let w = t.feature_space().width();
        let total = t.total();
        for frac in [0u128, 3, 11] {
            let id = total * frac % total;
            assert_eq!(t.features(id).len(), w);
        }
    }

    /// The featurization the slot tables replace: decode the
    /// configuration, look every loop up in the vocabulary, binarize.
    fn features_by_decoding(t: &StatementTuner, id: u128) -> Vec<f64> {
        let (v, config) = t.decode(id);
        let variant = &t.variants[v];
        let slot = |sel: Option<&IndexVar>| vocab_slot(&t.vocab, sel) as f64;
        let mut raw = vec![v as f64];
        for op in 0..t.max_ops {
            if op >= variant.program.ops.len() {
                raw.extend([0.0; 8]);
                continue;
            }
            let c = variant.space.per_op[op].config(config.choice[op]);
            let second = c.interior.len().checked_sub(2).map(|k| &c.interior[k]);
            raw.extend([
                slot(Some(&c.tx)),
                slot(c.ty.var()),
                slot(c.bx.var()),
                slot(c.by.var()),
                slot(c.interior.last()),
                slot(second),
                c.unroll as f64,
                c.staged.len() as f64,
            ]);
        }
        let mut out = Vec::new();
        t.feature_space().binarize_into(&raw, &mut out);
        out
    }

    #[test]
    fn slot_tables_featurize_like_decoding() {
        let dims = uniform_dims(&["i", "j", "k", "l", "m", "n"], 6);
        let t = StatementTuner::build("ex", &eqn1(), &dims);
        let total = t.total();
        for k in 0..2000u128 {
            let id = k * total / 2000;
            assert_eq!(t.features(id), features_by_decoding(&t, id), "id {id}");
        }
        // The single-parallel-loop fallback: bx is a grid of one block.
        let c = Contraction {
            output: TensorRef::new("C", &["i"]),
            sum_indices: vec!["j".into()],
            terms: vec![
                TensorRef::new("A", &["i", "j"]),
                TensorRef::new("B", &["j"]),
            ],
            accumulate: false,
            coefficient: 1.0,
        };
        let t = StatementTuner::build("mv", &c, &uniform_dims(&["i", "j"], 8));
        for id in 0..t.total() {
            assert_eq!(t.features(id), features_by_decoding(&t, id), "id {id}");
        }
    }

    #[test]
    fn distinct_ids_distinct_features() {
        let dims = uniform_dims(&["i", "j", "k", "l", "m", "n"], 6);
        let t = StatementTuner::build("ex", &eqn1(), &dims);
        let a = t.features(0);
        let b = t.features(1);
        assert_ne!(a, b, "adjacent configs differ at least in unroll");
    }

    #[test]
    fn single_variant_statement() {
        let dims = uniform_dims(&["i", "j", "k"], 8);
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
        let t = StatementTuner::build("mm", &c, &dims);
        assert_eq!(t.variants.len(), 1);
        assert!(t.total() > 0);
    }
}
