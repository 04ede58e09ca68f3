//! Golden pin for the order in which SURF evaluates a tie-heavy pool.
//!
//! The landscape has 5,000 ids but only 350 distinct feature rows, so the
//! surrogate's predictions tie in groups of about 14 ids. Which of the tied
//! ids enter a batch, and in which order, is decided by the driver's
//! tie-break alone; the best id can survive a reversed tie-break, so only a
//! digest of the whole evaluation sequence catches it. A change here means
//! the search order moved; that is a regression, not a test to re-bless.
//!
//! Pinned for both entry points: the winning id, the number of batches and
//! an FNV-1a digest over every `(id, y bits)` of `evaluated` (with its
//! length).

use surf::{surf_search_parallel, surf_search_serial, ForestParams, ParallelEvaluator, SurfParams};

const GOLDEN: &str = "best=3721 batches=9 evaluated=130:c7ae655a104ab1c1";

/// `one-hot(id % 7) ++ one-hot((id / 7) % 5) ++ [((id / 35) % 10 + 1) / 10]`
/// with a smooth bowl over the three parameters and an id-keyed wobble of
/// at most 1e-3, so tied feature rows still measure differently.
struct TieHeavy;

impl ParallelEvaluator for TieHeavy {
    fn features(&self, id: u128) -> Vec<f64> {
        let mut x = vec![0.0; 13];
        x[(id % 7) as usize] = 1.0;
        x[7 + (id / 7 % 5) as usize] = 1.0;
        x[12] = ((id / 35 % 10 + 1) as f64) / 10.0;
        x
    }

    fn evaluate(&self, id: u128) -> f64 {
        let a = (id % 7) as f64;
        let b = (id / 7 % 5) as f64;
        let c = (id / 35 % 10) as f64;
        1.0 + 0.3 * (a - 4.0).powi(2) + 0.2 * (b - 1.0).powi(2) + 0.1 * (c - 6.0).abs() + wobble(id)
    }
}

/// SplitMix64 of the id, scaled into `[0, 1e-3)`.
fn wobble(id: u128) -> f64 {
    let mut z = (id as u64).wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64 * 1e-3
}

fn params() -> SurfParams {
    SurfParams {
        init_evals: 50,
        batch_size: 10,
        max_evals: 130,
        patience: None,
        forest: ForestParams {
            n_trees: 30,
            k_features: Some(48),
            ..ForestParams::default()
        },
        ..SurfParams::default()
    }
}

fn fnv(evaluated: &[(u128, f64)]) -> u64 {
    let mut h: u64 = 0xCBF29CE484222325;
    for (id, y) in evaluated {
        let bytes = id
            .to_le_bytes()
            .into_iter()
            .chain(y.to_bits().to_le_bytes());
        for b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001B3);
        }
    }
    h
}

fn line(r: &surf::SurfResult) -> String {
    format!(
        "best={} batches={} evaluated={}:{:016x}",
        r.best_id,
        r.batches,
        r.evaluated.len(),
        fnv(&r.evaluated)
    )
}

fn pool() -> Vec<u128> {
    (0..5000).collect()
}

#[test]
fn serial_search_order_matches_the_golden_capture() {
    let r = surf_search_serial(&pool(), &TieHeavy, params()).unwrap();
    assert_eq!(line(&r), GOLDEN);
}

#[test]
fn parallel_search_order_matches_the_golden_capture() {
    let r = surf_search_parallel(&pool(), &TieHeavy, params()).unwrap();
    assert_eq!(line(&r), GOLDEN);
}
