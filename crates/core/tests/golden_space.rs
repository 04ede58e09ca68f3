//! Golden pin for every per-statement configuration space.
//!
//! A space is the decision algorithm's output (§IV): per op, the thread
//! and block candidates, the interior loop orders, the unroll factors and
//! the staging subsets, enumerated in one fixed order. Configuration ids,
//! stored plans and every feature column are positions in that order, so
//! the order is behaviour, not an implementation detail. These digests were
//! captured before the spaces changed representation. A moved digest means
//! a configuration moved, appeared or vanished; that is a regression, not a
//! value to re-bless.
//!
//! Per workload, for the full space and for `WorkloadTuner::build_pruned`
//! under `PruneRules::aggressive()` and `conservative()`: the number of
//! per-op configurations over every statement, version and op, the joint
//! space size, and one FNV-1a digest over every configuration's fields in
//! index order (statement, version, op, `tx`, `ty`, `bx`, `by`, `interior`,
//! `unroll`, `staged`). For the full space also a digest of the `f64` bits
//! of `WorkloadTuner::features` over 1,000 ids strided across the joint
//! space. Fields are hashed directly, not through `Debug` text, so the test
//! stays fast in debug builds.
//!
//! `C[i] = Sum([j], A[i j] * B[j])` at extent 8 is the one case known to
//! reach the single-parallel-loop fallback (grid 1, eight configurations);
//! no builtin does.

use barracuda::pipeline::WorkloadTuner;
use barracuda::{kernels, Workload};
use tcr::{LoopSel, PruneRules};
use tensor::index::uniform_dims;

/// `(workload, space, per-op configurations, joint space, digest)`; the
/// `features` rows carry the number of ids digested instead of a
/// configuration count.
const GOLDEN: &[(&str, &str, usize, u128, u64)] = &[
    ("ex", "full", 66260, 55867328000, 0x94ee78b677424549),
    ("ex", "aggressive", 4899, 24282450, 0xeb862b1b2c185a55),
    ("ex", "conservative", 32518, 6539695600, 0x65a598aeb545bdaf),
    ("ex", "features", 1000, 55867328000, 0x98a8819f1ecbcb88),
    ("lg3", "full", 2220, 381024000, 0xbbe685f30a376625),
    ("lg3", "aggressive", 540, 5600000, 0x5a1847d0030767f3),
    ("lg3", "conservative", 1110, 47628000, 0x2902573143808b21),
    ("lg3", "features", 1000, 381024000, 0xce1d16f6f640fb35),
    ("lg3t", "full", 3300, 1028376000, 0x4f3ccb0554855db9),
    ("lg3t", "aggressive", 280, 686000, 0x77e3e909302a16d5),
    ("lg3t", "conservative", 1650, 128547000, 0x96f5efc742dfc773),
    ("lg3t", "features", 1000, 1028376000, 0x5e0a7112d5817ca8),
    ("tce", "full", 389100, 2914447608000, 0x628f9ca88a2ac521),
    ("tce", "aggressive", 28670, 2923047000, 0x93ff6e9a5019ed49),
    (
        "tce",
        "conservative",
        194550,
        364305951000,
        0xb8b5006da22df48d,
    ),
    ("tce", "features", 1000, 2914447608000, 0x01184fa1e0ece985),
    ("s1_1", "full", 19440, 19440, 0xec71c98550d8cffd),
    ("s1_1", "aggressive", 1220, 1220, 0x77461b324a83e1cd),
    ("s1_1", "conservative", 9720, 9720, 0xaadabc46351c292d),
    ("s1_1", "features", 1000, 19440, 0x59a58bf446b5316e),
    ("d1_1", "full", 12600, 12600, 0xb2d66fcd5501fd95),
    ("d1_1", "aggressive", 1510, 1510, 0xb770c3ca32245391),
    ("d1_1", "conservative", 6300, 6300, 0x61b3bef13d4d2a3d),
    ("d1_1", "features", 1000, 12600, 0xa56b0d3dd02f832d),
    ("d2_5", "full", 18900, 18900, 0x3cec87e52aa90035),
    ("d2_5", "aggressive", 880, 880, 0x7c0f502ced665329),
    ("d2_5", "conservative", 9450, 9450, 0x29412762eeb71b8d),
    ("d2_5", "features", 1000, 18900, 0xfb897cfd6279e8ad),
    ("matvec", "full", 8, 8, 0xe4223cd2066bade5),
    ("matvec", "aggressive", 4, 4, 0xee00df9a98a15586),
    ("matvec", "conservative", 4, 4, 0xee00df9a98a15586),
    ("matvec", "features", 1000, 8, 0x861acb0db403433b),
];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn num(&mut self, x: usize) {
        self.bytes(&(x as u64).to_le_bytes());
    }

    /// A name, length first, so adjacent names cannot run together.
    fn name(&mut self, s: &str) {
        self.num(s.len());
        self.bytes(s.as_bytes());
    }

    /// `LoopSel::One` hashes as the empty name.
    fn sel(&mut self, s: &LoopSel) {
        self.name(s.var().map_or("", |v| v.name()));
    }
}

fn workloads() -> Vec<Workload> {
    let mut ws: Vec<Workload> = ["eqn1", "lg3", "lg3t", "tce", "s1_1", "d1_1", "d2_5"]
        .iter()
        .map(|name| kernels::builtin(name).unwrap())
        .collect();
    ws.push(
        Workload::parse(
            "matvec",
            "C[i] = Sum([j], A[i j] * B[j])",
            &uniform_dims(&["i", "j"], 8),
        )
        .unwrap(),
    );
    ws
}

/// Per-op configuration count and digest of every configuration of `tuner`.
fn space_digest(tuner: &WorkloadTuner) -> (usize, u64) {
    let mut h = Fnv::new();
    let mut count = 0;
    for (s, st) in tuner.statements.iter().enumerate() {
        for (v, variant) in st.variants.iter().enumerate() {
            for (o, op) in variant.space.per_op.iter().enumerate() {
                for choice in 0..op.len() {
                    let c = op.config(choice);
                    h.num(s);
                    h.num(v);
                    h.num(o);
                    h.name(c.tx.name());
                    h.sel(&c.ty);
                    h.sel(&c.bx);
                    h.sel(&c.by);
                    h.num(c.interior.len());
                    for var in &c.interior {
                        h.name(var.name());
                    }
                    h.num(c.unroll);
                    h.num(c.staged.len());
                    for &k in &c.staged {
                        h.num(k);
                    }
                    count += 1;
                }
            }
        }
    }
    (count, h.0)
}

/// Digest of the feature bits of 1,000 ids strided across the joint space.
fn feature_digest(tuner: &WorkloadTuner) -> u64 {
    let total = tuner.total_space();
    let mut h = Fnv::new();
    for k in 0..1000u128 {
        for x in tuner.features(k * total / 1000) {
            h.bytes(&x.to_bits().to_le_bytes());
        }
    }
    h.0
}

fn actual() -> Vec<(String, String, usize, u128, u64)> {
    let mut rows = Vec::new();
    for w in workloads() {
        let full = WorkloadTuner::build(&w);
        let mut row = |space: &str, tuner: &WorkloadTuner| {
            let (count, digest) = space_digest(tuner);
            rows.push((
                w.name.clone(),
                space.to_string(),
                count,
                tuner.total_space(),
                digest,
            ));
        };
        row("full", &full);
        row(
            "aggressive",
            &WorkloadTuner::build_pruned(&w, &PruneRules::aggressive()),
        );
        row(
            "conservative",
            &WorkloadTuner::build_pruned(&w, &PruneRules::conservative()),
        );
        rows.push((
            w.name.clone(),
            "features".to_string(),
            1000,
            full.total_space(),
            feature_digest(&full),
        ));
    }
    rows
}

#[test]
fn every_space_keeps_its_configurations_and_features() {
    let got = actual();
    let table: String = got
        .iter()
        .map(|(w, s, n, total, d)| format!("    ({w:?}, {s:?}, {n}, {total}, 0x{d:016x}),\n"))
        .collect();
    let want: Vec<(String, String, usize, u128, u64)> = GOLDEN
        .iter()
        .map(|&(w, s, n, total, d)| (w.to_string(), s.to_string(), n, total, d))
        .collect();
    assert_eq!(got, want, "actual digests:\n{table}");
}
