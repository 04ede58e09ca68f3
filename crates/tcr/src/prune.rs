//! Search-space pruning — the paper's stated future work (§VIII):
//! "we plan to extend this work to further prune the autotuning search
//! space once we develop a better understanding of where pruning does not
//! impact quality of results".
//!
//! Each rule removes configurations a human GPU programmer would reject on
//! sight; `bin/pruning` in the bench crate quantifies the space reduction
//! against the quality loss.

use crate::mapping::{map_kernel, MapError};
use crate::program::TcrProgram;
use crate::space::{OpCode, OpSpace, ProgramSpace};

/// Which pruning rules to apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PruneRules {
    /// Keep only configurations whose ThreadX loop walks the *output* with
    /// unit stride (coalesced stores). Uncoalesced stores are almost never
    /// optimal for accumulation-heavy kernels.
    pub coalesced_output: bool,
    /// Restrict unroll factors to {1, 2, 4, 8, full extent}: intermediate
    /// factors rarely win and multiply the space by ~2x.
    pub unroll_sweet_spots: bool,
    /// Keep only interior orders whose innermost loop has unit stride in at
    /// least one referenced array (temporal locality), unless no order
    /// qualifies.
    pub local_innermost: bool,
    /// Drop multi-array staging subsets (stage at most one input).
    pub single_staging: bool,
}

impl PruneRules {
    /// Everything on.
    pub fn aggressive() -> Self {
        PruneRules {
            coalesced_output: true,
            unroll_sweet_spots: true,
            local_innermost: true,
            single_staging: true,
        }
    }

    /// A conservative subset that provably cannot exclude the optimum class
    /// for store-bound kernels.
    pub fn conservative() -> Self {
        PruneRules {
            coalesced_output: false,
            unroll_sweet_spots: true,
            local_innermost: false,
            single_staging: true,
        }
    }
}

fn keeps(program: &TcrProgram, s: &OpSpace, code: OpCode, rules: &PruneRules) -> bool {
    let op = &program.ops[s.op_index];
    let interior = &s.interiors[usize::from(code.interior)];
    if rules.coalesced_output {
        let out = &program.arrays[op.output];
        let tx = &s.tx_candidates[usize::from(code.tx)];
        if out.stride_of(tx, &program.dims) != Some(1) {
            return false;
        }
    }
    if rules.unroll_sweet_spots {
        let full = interior.last().map(|v| program.dims[v]).unwrap_or(1);
        let full = full.min(crate::space::MAX_UNROLL);
        if ![1usize, 2, 4, 8, full].contains(&usize::from(code.unroll)) {
            return false;
        }
    }
    if rules.local_innermost {
        if let Some(inner) = interior.last() {
            let referenced: Vec<usize> = {
                let mut ids = op.inputs.clone();
                ids.push(op.output);
                ids
            };
            let local = referenced
                .iter()
                .any(|&id| program.arrays[id].stride_of(inner, &program.dims) == Some(1));
            if !local {
                return false;
            }
        }
    }
    if rules.single_staging && s.stagings[usize::from(code.staged)].len() > 1 {
        return false;
    }
    true
}

/// Applies the rules, keeping at least one configuration per statement
/// (falls back to the unpruned list when a rule empties it). The pruned
/// space keeps the full space's tables and a subset of its codes, in order.
pub fn prune_space(program: &TcrProgram, space: &ProgramSpace, rules: &PruneRules) -> ProgramSpace {
    let per_op = space
        .per_op
        .iter()
        .map(|s| {
            let kept: Vec<OpCode> = s
                .codes
                .iter()
                .copied()
                .filter(|&c| keeps(program, s, c, rules))
                .collect();
            OpSpace {
                op_index: s.op_index,
                tx_candidates: s.tx_candidates.clone(),
                ty_candidates: s.ty_candidates.clone(),
                bx_candidates: s.bx_candidates.clone(),
                by_candidates: s.by_candidates.clone(),
                interiors: s.interiors.clone(),
                stagings: s.stagings.clone(),
                codes: if kept.is_empty() {
                    s.codes.clone()
                } else {
                    kept
                },
            }
        })
        .collect();
    ProgramSpace { per_op }
}

/// Sanity helper: every pruned configuration must still map to a valid
/// kernel. Maps every configuration of every statement and returns how
/// many it checked, or the first mapping error.
pub fn validate_pruned(program: &TcrProgram, space: &ProgramSpace) -> Result<usize, MapError> {
    let mut checked = 0;
    for s in &space.per_op {
        for cfg in s.configs() {
            map_kernel(program, s.op_index, cfg, false)?;
            checked += 1;
        }
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::tests_support::{eqn1_program, matmul_program};

    #[test]
    fn pruning_shrinks_the_space() {
        let p = eqn1_program(10);
        let full = ProgramSpace::build(&p).unwrap();
        let pruned = prune_space(&p, &full, &PruneRules::aggressive());
        assert!(
            pruned.len() < full.len() / 4,
            "{} vs {}",
            pruned.len(),
            full.len()
        );
        assert!(!pruned.is_empty());
        let every: usize = pruned.per_op.iter().map(|s| s.len()).sum();
        assert_eq!(validate_pruned(&p, &pruned), Ok(every));
    }

    #[test]
    fn coalesced_output_rule_holds() {
        let p = matmul_program(8);
        let full = ProgramSpace::build(&p).unwrap();
        let rules = PruneRules {
            coalesced_output: true,
            unroll_sweet_spots: false,
            local_innermost: false,
            single_staging: false,
        };
        let pruned = prune_space(&p, &full, &rules);
        for s in &pruned.per_op {
            for c in s.configs() {
                let out = &p.arrays[p.ops[s.op_index].output];
                assert_eq!(out.stride_of(&c.tx, &p.dims), Some(1));
            }
        }
    }

    #[test]
    fn unroll_rule_keeps_sweet_spots_only() {
        let p = matmul_program(10);
        let full = ProgramSpace::build(&p).unwrap();
        let rules = PruneRules {
            coalesced_output: false,
            unroll_sweet_spots: true,
            local_innermost: false,
            single_staging: false,
        };
        let pruned = prune_space(&p, &full, &rules);
        for s in &pruned.per_op {
            for c in s.configs() {
                assert!([1, 2, 4, 8, 10].contains(&c.unroll), "unroll {}", c.unroll);
            }
        }
    }

    #[test]
    fn pruning_never_empties_a_statement() {
        // A rule set that matches nothing must fall back to the full list.
        let p = matmul_program(3);
        let full = ProgramSpace::build(&p).unwrap();
        let rules = PruneRules::aggressive();
        let pruned = prune_space(&p, &full, &rules);
        for s in &pruned.per_op {
            assert!(!s.is_empty());
        }
    }

    #[test]
    fn conservative_rules_are_weaker() {
        let p = eqn1_program(10);
        let full = ProgramSpace::build(&p).unwrap();
        let a = prune_space(&p, &full, &PruneRules::aggressive());
        let c = prune_space(&p, &full, &PruneRules::conservative());
        assert!(a.len() <= c.len());
        assert!(c.len() <= full.len());
    }
}
