//! Stage 3 — space: candidate pools over the joint configuration space.
//!
//! A pool is the (possibly sampled) list of joint ids SURF searches over.
//! Sampling is deterministic and *stratified*: the OCTOPI version of every
//! statement is drawn uniformly, then a configuration within it — plain
//! uniform id sampling would weight versions by their space size and all
//! but hide the small-space (often minimal-flop) versions OCTOPI works
//! hardest to expose.

use crate::stages::lower;
use crate::variant::StatementTuner;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration pool: the full space when it fits under `cap`, else a
/// deterministic stratified sample of `cap` distinct ids.
pub fn joint_pool(statements: &[StatementTuner], cap: usize, seed: u64) -> Vec<u128> {
    let total = lower::total_space(statements);
    if total <= cap as u128 {
        return (0..total).collect();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut set = std::collections::BTreeSet::new();
    let mut guard = 0usize;
    while set.len() < cap && guard < cap * 20 {
        guard += 1;
        // Per statement: uniform version, then uniform config inside it.
        let mut id = 0u128;
        for st in statements {
            let v = rng.gen_range(0..st.variants.len());
            id = id * st.total() + st.draw(v, &mut rng);
        }
        set.insert(id);
    }
    set.into_iter().collect()
}

/// Pool over one statement's own space (decomposed tuning): the full space
/// when it fits under `cap`, else a stratified sample of local ids.
pub fn statement_pool(st: &StatementTuner, cap: usize, seed: u64) -> Vec<u128> {
    let total = st.total();
    let cap = cap as u128;
    if total <= cap {
        return (0..total).collect();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut set = std::collections::BTreeSet::new();
    while (set.len() as u128) < cap {
        let v = rng.gen_range(0..st.variants.len());
        set.insert(st.draw(v, &mut rng));
    }
    set.into_iter().collect()
}

/// A random neighbor of `id` for local-search baselines: re-draws one
/// statement's configuration (keeping its OCTOPI version with probability
/// ~0.7).
pub fn neighbor(statements: &[StatementTuner], id: u128, rng: &mut StdRng) -> u128 {
    let locals = lower::decode_joint(statements, id);
    let k = rng.gen_range(0..statements.len());
    let st = &statements[k];
    let (v, _) = st.decode_raw(locals[k]);
    let new_v = if st.variants.len() > 1 && rng.gen_range(0..10) < 3 {
        rng.gen_range(0..st.variants.len())
    } else {
        v
    };
    let new_local = st.draw(new_v, rng);
    // Re-encode the joint id.
    let mut out = 0u128;
    for (i, s) in statements.iter().enumerate() {
        let l = if i == k { new_local } else { locals[i] };
        out = out * s.total() + l;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::WorkloadTuner;
    use crate::workload::Workload;
    use tensor::index::uniform_dims;

    fn lowered_eqn1(n: usize) -> WorkloadTuner {
        let w = Workload::parse(
            "ex",
            "V[i j k] = Sum([l m n], A[l k] * B[m j] * C[n i] * U[l m n])",
            &uniform_dims(&["i", "j", "k", "l", "m", "n"], n),
        )
        .unwrap();
        WorkloadTuner::build(&w)
    }

    #[test]
    fn large_spaces_sample_distinct_ids_in_range() {
        let lowered = lowered_eqn1(10);
        let total = lowered.total_space();
        let pool = joint_pool(&lowered.statements, 500, 1);
        assert_eq!(pool.len(), 500);
        assert!(total > 500);
        assert!(pool.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
        assert!(pool.iter().all(|&id| id < total));
    }

    #[test]
    fn small_spaces_enumerate_exhaustively() {
        let w = Workload::parse(
            "mm",
            "C[i k] = Sum([j], A[i j] * B[j k])",
            &uniform_dims(&["i", "j", "k"], 8),
        )
        .unwrap();
        let lowered = WorkloadTuner::build(&w);
        let total = lowered.total_space();
        assert!(total < 100_000, "matmul space stays enumerable: {total}");
        let pool = joint_pool(&lowered.statements, total as usize, 1);
        assert_eq!(pool, (0..total).collect::<Vec<_>>());
    }

    #[test]
    fn statement_pool_is_deterministic_and_within_range() {
        let lowered = lowered_eqn1(10);
        let st = &lowered.statements[0];
        let a = statement_pool(st, 200, 7);
        let b = statement_pool(st, 200, 7);
        assert_eq!(a, b);
        assert!(a.iter().all(|&l| l < st.total()));
    }
}
