//! Per-statement tuning state: OCTOPI versions × TCR configurations.
//!
//! A [`StatementTuner`] owns every factorization (OCTOPI "version") of one
//! summation statement, each lowered to a TCR program with its GPU search
//! space. Configurations of the statement are addressed by a flat `u128`
//! id that selects a version and a configuration within it;
//! [`StatementTuner::features`]
//! binarizes an id for the SURF surrogate (version one-hot, loop-choice
//! one-hots over the statement's index vocabulary, numeric unroll).

use octopi::{enumerate_factorizations, Contraction, Factorization};
use rand::Rng;
use surf::FeatureSpace;
use tcr::space::{Configuration, LoopSel, OpConfig, ProgramSpace};
use tcr::TcrProgram;
use tensor::{IndexMap, IndexVar};

/// Feature layout of a statement: version one-hot, then per op-slot six
/// loop-choice one-hots over the index vocabulary plus two integers.
fn build_feature_space(n_variants: usize, vocab_len: usize, max_ops: usize) -> FeatureSpace {
    let card = vocab_len + 1;
    let mut fs = FeatureSpace::default().categorical("version", n_variants);
    for op in 0..max_ops {
        for name in ["tx", "ty", "bx", "by", "inner", "second"] {
            fs = fs.categorical(format!("op{op}_{name}"), card);
        }
        fs = fs.integer(format!("op{op}_unroll"), 0.0, 10.0);
        fs = fs.integer(format!("op{op}_staged"), 0.0, 2.0);
    }
    fs
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
    /// Feature layout, built once — rebuilding it per `features` call
    /// allocates a few hundred `String`s per candidate and used to dominate
    /// featurization time.
    feature_space: FeatureSpace,
}

impl StatementTuner {
    /// Enumerates factorizations of `contraction`, lowers each to TCR and
    /// builds its search space. Versions whose lowering fails, or that
    /// hold an op with no parallel loop, are quarantined (recorded in
    /// `quarantined_versions`) rather than aborting the build; the id space
    /// covers survivors only.
    pub fn build(name: &str, contraction: &Contraction, dims: &IndexMap) -> Self {
        let factorizations = enumerate_factorizations(contraction, dims);
        // Lowering + space construction per version is independent work;
        // fan it out over the rayon pool (order-preserving, so version
        // indices and id offsets match the serial construction).
        let lowered: Vec<Result<Variant, String>> = rayon::par_map_slice(&factorizations, |f| {
            let program = TcrProgram::try_from_factorization(name, contraction, f, dims)?;
            let space = ProgramSpace::build(&program);
            // An op with a scalar output has an empty space: its version
            // has no configuration to search or map.
            if let Some(op) = space.per_op.iter().position(|s| s.tx_candidates.is_empty()) {
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
        StatementTuner {
            contraction: contraction.clone(),
            dims: dims.clone(),
            variants,
            quarantined_versions,
            offsets,
            vocab,
            max_ops,
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

    fn vocab_slot(&self, sel: Option<&IndexVar>) -> f64 {
        match sel {
            None => 0.0,
            // Slot 0 doubles as "absent": a variable outside the vocabulary
            // (impossible for well-formed spaces) encodes as absent rather
            // than aborting feature extraction.
            Some(v) => self
                .vocab
                .iter()
                .position(|x| x == v)
                .map(|p| 1.0 + p as f64)
                .unwrap_or(0.0),
        }
    }

    /// Raw (pre-binarization) feature values of one per-op configuration:
    /// `[tx, ty, bx, by, innermost, second-innermost]` as vocabulary slots
    /// plus the unroll factor, appended to `raw`.
    fn op_raw_into(&self, cfg: &OpConfig, raw: &mut Vec<f64>) {
        let sel = |s: &LoopSel| self.vocab_slot(s.var());
        let inner = cfg.interior.last();
        let second = cfg.interior.len().checked_sub(2).map(|k| &cfg.interior[k]);
        raw.extend([
            self.vocab_slot(Some(&cfg.tx)),
            sel(&cfg.ty),
            sel(&cfg.bx),
            sel(&cfg.by),
            self.vocab_slot(inner),
            self.vocab_slot(second),
            cfg.unroll as f64,
            cfg.staged.len() as f64,
        ]);
    }

    /// Feature layout for this statement (shared by every id).
    pub fn feature_space(&self) -> &FeatureSpace {
        &self.feature_space
    }

    /// Prunes every variant's space in place and rebuilds the offsets.
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
        let (v, config) = self.decode(id);
        let variant = &self.variants[v];
        let mut raw = Vec::with_capacity(1 + 8 * self.max_ops);
        raw.push(v as f64);
        for op in 0..self.max_ops {
            if op < variant.program.ops.len() {
                self.op_raw_into(variant.space.op_config(&config, op), &mut raw);
            } else {
                raw.extend([0.0; 8]);
            }
        }
        let mut out = Vec::with_capacity(self.feature_space.width());
        self.feature_space.binarize_into(&raw, &mut out);
        out
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
