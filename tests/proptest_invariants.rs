//! Property-based tests over randomly generated contractions.
//!
//! The generator builds arbitrary valid summation statements (2–4 operands,
//! 2–6 indices of extents 2–4), then checks the pipeline's core invariants:
//! every factorization preserves semantics, lowering preserves flop counts,
//! configuration ids round-trip, mapped kernels execute to the oracle's
//! result (and re-map from their own configuration), plans replayed from
//! the plan store execute to the oracle's result, and the parser
//! round-trips through pretty-printing.

use barracuda::pipeline::{TuneParams, WorkloadTuner};
use barracuda::{TuningSession, Workload};
use octopi::ast::{Contraction, TensorRef};
use octopi::{enumerate_factorizations, parse_program};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use tcr::space::ProgramSpace;
use tcr::TcrProgram;
use tensor::{IndexMap, IndexVar, Shape, Tensor};

const NAMES: [&str; 6] = ["i", "j", "k", "l", "m", "n"];

#[derive(Clone, Debug)]
struct GenContraction {
    c: Contraction,
    dims: IndexMap,
}

/// Strategy: random valid contraction with at least one output index.
fn contraction_strategy() -> impl Strategy<Value = GenContraction> {
    // number of indices, extents, term memberships, output choice
    (2usize..=6, proptest::collection::vec(2usize..=4, 6))
        .prop_flat_map(|(n_idx, extents)| {
            let n_terms = 2usize..=4;
            // Each term: bitmask over indices (non-empty).
            let masks = proptest::collection::vec(1u32..(1 << n_idx), n_terms);
            (Just(n_idx), Just(extents), masks, 0u32..u32::MAX)
        })
        .prop_filter_map("valid contraction", |(n_idx, extents, masks, outsel)| {
            let idx: Vec<IndexVar> = NAMES[..n_idx].iter().map(|s| IndexVar::new(*s)).collect();
            let mut dims = IndexMap::new();
            for (k, ix) in idx.iter().enumerate() {
                dims.insert(ix.clone(), extents[k]);
            }
            // Union of term indices.
            let mut union = 0u32;
            for m in &masks {
                union |= m;
            }
            // Output: arbitrary non-empty subset of the union.
            let out_mask = (outsel & union).max(union & union.wrapping_neg());
            let output: Vec<IndexVar> = idx
                .iter()
                .enumerate()
                .filter(|(k, _)| out_mask >> k & 1 == 1)
                .map(|(_, ix)| ix.clone())
                .collect();
            if output.is_empty() {
                return None;
            }
            let sum_indices: Vec<IndexVar> = idx
                .iter()
                .enumerate()
                .filter(|(k, _)| union >> k & 1 == 1 && out_mask >> k & 1 == 0)
                .map(|(_, ix)| ix.clone())
                .collect();
            let terms: Vec<TensorRef> = masks
                .iter()
                .enumerate()
                .map(|(t, m)| TensorRef {
                    name: format!("T{t}"),
                    indices: idx
                        .iter()
                        .enumerate()
                        .filter(|(k, _)| m >> k & 1 == 1)
                        .map(|(_, ix)| ix.clone())
                        .collect(),
                })
                .collect();
            let c = Contraction {
                output: TensorRef {
                    name: "OUT".to_string(),
                    indices: output,
                },
                sum_indices,
                terms,
                accumulate: false,
                coefficient: 1.0,
            };
            c.validate(&dims).ok()?;
            Some(GenContraction { c, dims })
        })
}

fn random_operands(g: &GenContraction, seed: u64) -> Vec<Tensor> {
    g.c.terms
        .iter()
        .enumerate()
        .map(|(k, t)| {
            let shape = Shape::new(t.indices.iter().map(|ix| g.dims[ix]).collect::<Vec<_>>());
            Tensor::random(shape, seed + k as u64)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every factorization computes exactly the original statement.
    #[test]
    fn factorizations_preserve_semantics(g in contraction_strategy()) {
        let operands = random_operands(&g, 5);
        let refs: Vec<&Tensor> = operands.iter().collect();
        let expect = g.c.to_einsum(&g.dims).evaluate(&refs);
        for f in enumerate_factorizations(&g.c, &g.dims).iter().take(8) {
            let got = f.evaluate(&g.c, &g.dims, &refs);
            prop_assert!(expect.approx_eq(&got, 1e-9), "factorization {} diverges", f.key);
        }
    }

    /// Lowering to TCR preserves the factorization's flop count, and the
    /// lowered program evaluates to the oracle result.
    #[test]
    fn lowering_preserves_flops_and_semantics(g in contraction_strategy()) {
        let operands = random_operands(&g, 11);
        let refs: Vec<&Tensor> = operands.iter().collect();
        let expect = g.c.to_einsum(&g.dims).evaluate(&refs);
        let fs = enumerate_factorizations(&g.c, &g.dims);
        let f = &fs[0];
        let p = TcrProgram::from_factorization("p", &g.c, f, &g.dims);
        prop_assert_eq!(p.flops(), f.flops);
        // Gather program inputs by name (terms can repeat a tensor).
        let ins: Vec<&Tensor> = p.input_ids().iter().map(|&id| {
            let name = &p.arrays[id].name;
            let k: usize = name[1..].parse().unwrap();
            &operands[k]
        }).collect();
        let got = p.evaluate(&ins);
        prop_assert!(expect.approx_eq(&got, 1e-9));
    }

    /// Configuration ids round-trip through the mixed-radix encoding.
    #[test]
    fn config_ids_roundtrip(g in contraction_strategy(), frac in 0u64..1000) {
        let fs = enumerate_factorizations(&g.c, &g.dims);
        let p = TcrProgram::from_factorization("p", &g.c, &fs[0], &g.dims);
        let space = ProgramSpace::build(&p);
        prop_assume!(!space.is_empty());
        let id = space.len() * frac as u128 / 1000;
        let id = id.min(space.len() - 1);
        let cfg = space.config(id);
        prop_assert_eq!(space.config_id(&cfg), id);
    }

    /// Any generated configuration maps to an executable kernel whose
    /// result matches the oracle (the core transformation-safety property).
    #[test]
    fn mapped_kernels_execute_correctly(g in contraction_strategy(), frac in 0u64..1000) {
        let operands = random_operands(&g, 13);
        let expect = {
            let refs: Vec<&Tensor> = operands.iter().collect();
            g.c.to_einsum(&g.dims).evaluate(&refs)
        };
        let fs = enumerate_factorizations(&g.c, &g.dims);
        let f = &fs[0];
        let p = TcrProgram::from_factorization("p", &g.c, f, &g.dims);
        let space = ProgramSpace::build(&p);
        prop_assume!(!space.is_empty());
        let id = (space.len() * frac as u128 / 1000).min(space.len() - 1);
        let cfg = space.config(id);
        let Ok(kernels) = tcr::mapping::map_program(&p, &space, &cfg, false) else {
            // Unmappable config: typed rejection, not a correctness question.
            return Ok(());
        };
        let ins: Vec<&Tensor> = p.input_ids().iter().map(|&aid| {
            let name = &p.arrays[aid].name;
            let k: usize = name[1..].parse().unwrap();
            &operands[k]
        }).collect();
        let got = gpusim::execute_program(&p, &kernels, &ins);
        prop_assert!(expect.approx_eq(&got, 1e-9), "config {id} diverges");
    }

    /// `MappedKernel::config` inverts `map_kernel`: re-mapping a kernel's
    /// own configuration rebuilds the kernel exactly.
    #[test]
    fn kernel_config_inverts_map_kernel(
        g in contraction_strategy(),
        frac in 0u64..1000,
        accumulate in 0u8..2,
    ) {
        let fs = enumerate_factorizations(&g.c, &g.dims);
        let p = TcrProgram::from_factorization("p", &g.c, &fs[0], &g.dims);
        let space = ProgramSpace::build(&p);
        prop_assume!(!space.is_empty());
        let id = (space.len() * frac as u128 / 1000).min(space.len() - 1);
        let cfg = space.config(id);
        let Ok(kernels) = tcr::mapping::map_program(&p, &space, &cfg, accumulate == 1) else {
            return Ok(());
        };
        for k in kernels {
            let again = tcr::map_kernel(&p, k.op_index, k.config(), k.accumulate);
            prop_assert_eq!(again, Ok(k));
        }
    }

    /// Real CPU executors agree with the oracle for random statements.
    #[test]
    fn cpu_executors_agree(g in contraction_strategy(), threads in 1usize..5) {
        let operands = random_operands(&g, 19);
        let expect = {
            let refs: Vec<&Tensor> = operands.iter().collect();
            g.c.to_einsum(&g.dims).evaluate(&refs)
        };
        let fs = enumerate_factorizations(&g.c, &g.dims);
        let p = TcrProgram::from_factorization("p", &g.c, &fs[0], &g.dims);
        let ins: Vec<&Tensor> = p.input_ids().iter().map(|&aid| {
            let name = &p.arrays[aid].name;
            let k: usize = name[1..].parse().unwrap();
            &operands[k]
        }).collect();
        let got = if threads == 1 {
            cpusim::execute_sequential(&p, &ins)
        } else {
            cpusim::execute_parallel(&p, &ins, threads)
        };
        prop_assert!(expect.approx_eq(&got, 1e-9));
    }

    /// Fused chains (when fusable) execute to the oracle result.
    #[test]
    fn fused_kernels_execute_correctly(g in contraction_strategy()) {
        let operands = random_operands(&g, 29);
        let expect = {
            let refs: Vec<&Tensor> = operands.iter().collect();
            g.c.to_einsum(&g.dims).evaluate(&refs)
        };
        let fs = enumerate_factorizations(&g.c, &g.dims);
        let f = &fs[0];
        let p = TcrProgram::from_factorization("p", &g.c, f, &g.dims);
        let Some(k) = tcr::fusion::build_fused(&p) else {
            return Ok(());
        };
        tcr::fusion::validate_fused(&k, &p).unwrap();
        prop_assert_eq!(k.flops(), p.flops());
        let ins: Vec<&Tensor> = p.input_ids().iter().map(|&aid| {
            let name = &p.arrays[aid].name;
            let idx: usize = name[1..].parse().unwrap();
            &operands[idx]
        }).collect();
        let got = gpusim::execute_fused_program(&k, &p, &ins);
        prop_assert!(expect.approx_eq(&got, 1e-9), "fused execution diverges");
    }

    /// Pruned spaces only contain configurations from the full space, and
    /// every one still maps and executes correctly.
    #[test]
    fn pruned_configs_remain_valid(g in contraction_strategy(), frac in 0u64..1000) {
        let fs = enumerate_factorizations(&g.c, &g.dims);
        let p = TcrProgram::from_factorization("p", &g.c, &fs[0], &g.dims);
        let full = ProgramSpace::build(&p);
        prop_assume!(!full.is_empty());
        let pruned = tcr::prune_space(&p, &full, &tcr::PruneRules::aggressive());
        prop_assert!(pruned.len() <= full.len());
        prop_assert!(!pruned.is_empty());
        let id = (pruned.len() * frac as u128 / 1000).min(pruned.len() - 1);
        let cfg = pruned.config(id);
        // Must map without panicking.
        let _ = tcr::mapping::map_program(&p, &pruned, &cfg, false);
    }

    /// Pretty-printed statements re-parse to the same AST.
    #[test]
    fn parser_roundtrip(g in contraction_strategy()) {
        let printed = g.c.to_string();
        let reparsed = parse_program(&printed).unwrap();
        prop_assert_eq!(&reparsed.statements[0], &g.c);
    }

    /// Factorization flop counts never exceed the naive count by more than
    /// the joint-space blow-up bound, and the minimum never exceeds naive
    /// ... wait, at tiny extents a factorization *can* exceed naive; the
    /// sorted-first one is the cheapest and must be the minimum.
    #[test]
    fn factorizations_sorted_and_bounded(g in contraction_strategy()) {
        let fs = enumerate_factorizations(&g.c, &g.dims);
        prop_assert!(!fs.is_empty());
        for w in fs.windows(2) {
            prop_assert!(w[0].flops <= w[1].flops);
        }
    }
}

/// A plan store directory under the system temp dir, removed on drop.
struct TempStore(std::path::PathBuf);

impl TempStore {
    fn new() -> TempStore {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "barracuda-proptest-store-{}-{n}",
            std::process::id()
        ));
        TempStore(dir)
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every plan the store serves executes to the oracle's result: the
    /// statement is tuned into a fresh store, a second session replays it
    /// through the daemon's warm path (`replay_hit`), and the replayed
    /// kernels run on gpusim's functional executor.
    #[test]
    fn store_replayed_plans_execute_correctly(g in contraction_strategy(), seed in 0u64..1000) {
        let w = Workload::from_statements("prop", vec![g.c.clone()], g.dims.clone()).unwrap();
        let tuner = WorkloadTuner::build(&w);
        let params = TuneParams::quick();
        let store = TempStore::new();
        let cold = TuningSession::with_store(&store.0)
            .and_then(|s| s.tune(&tuner, "k20", params));
        prop_assert!(cold.is_ok(), "tune failed: {:?}", cold.err());
        let warm = TuningSession::with_store(&store.0)
            .and_then(|s| s.replay_hit(&tuner, "k20", &params.objective));
        let Ok(Some(hit)) = warm else {
            return Err(TestCaseError::fail(format!("no store hit: {warm:?}")));
        };
        let inputs = w.random_inputs(seed);
        let expect = w.evaluate_reference(&inputs).unwrap();
        let got = hit.tuned.execute(&w, &inputs).unwrap();
        prop_assert_eq!(expect.len(), got.len());
        for ((n1, t1), (n2, t2)) in expect.iter().zip(&got) {
            prop_assert_eq!(n1, n2);
            prop_assert!(t1.approx_eq(t2, 1e-9), "replayed plan computes a wrong {n1}");
        }
    }
}
