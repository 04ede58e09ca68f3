//! Cross-statement common-subexpression analysis.
//!
//! The TCE line of work the paper builds on identifies "cost-effective
//! common subexpressions to reduce operation count" (Hartono et al., ICCS
//! 2006 — reference \[13\] of the paper). This module finds factorization
//! steps in *different statements* of a workload that compute the same
//! tensor (same input operands with the same index binding, same summation
//! set) — the second occurrence can reuse the first's temporary instead of
//! recomputing it.

use crate::ast::Contraction;
use crate::factorize::{Factorization, Operand};
use tensor::IndexMap;

/// Canonical identity of a step's computation (only steps whose operands
/// are original input tensors can match across statements).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct StepKey {
    /// Sorted operand signatures: `(tensor name, index names)`.
    operands: Vec<(String, Vec<String>)>,
    /// Sorted summed index names.
    summed: Vec<String>,
    /// Sorted produced index names.
    produced: Vec<String>,
}

fn step_key(
    contraction: &Contraction,
    factorization: &Factorization,
    step: usize,
) -> Option<StepKey> {
    let st = &factorization.steps[step];
    let mut operands = Vec::with_capacity(st.operands.len());
    for op in &st.operands {
        match op {
            Operand::Input(k) => {
                let t = &contraction.terms[*k];
                operands.push((
                    t.name.clone(),
                    t.indices.iter().map(|i| i.name().to_string()).collect(),
                ));
            }
            // Steps consuming earlier temporaries are statement-local.
            Operand::Temp(_) => return None,
        }
    }
    operands.sort();
    let mut summed: Vec<String> = st.sum_over.iter().map(|i| i.name().to_string()).collect();
    summed.sort();
    let mut produced: Vec<String> = st.indices.iter().map(|i| i.name().to_string()).collect();
    produced.sort();
    Some(StepKey {
        operands,
        summed,
        produced,
    })
}

/// One reuse opportunity: statement `later` step `later_step` recomputes
/// what statement `earlier` step `earlier_step` already produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CseMatch {
    pub earlier: usize,
    pub earlier_step: usize,
    pub later: usize,
    pub later_step: usize,
    /// Flops the later statement saves by reusing the temporary.
    pub flops_saved: u64,
}

/// CSE report for a whole workload.
#[derive(Clone, Debug, Default)]
pub struct CseReport {
    pub matches: Vec<CseMatch>,
    pub flops_total: u64,
    pub flops_saved: u64,
}

impl CseReport {
    /// Fraction of total work eliminated by reuse.
    pub fn savings(&self) -> f64 {
        if self.flops_total == 0 {
            return 0.0;
        }
        self.flops_saved as f64 / self.flops_total as f64
    }
}

/// Step flops under `dims` (mirrors the enumerator's accounting).
fn step_flops(f: &Factorization, step: usize, dims: &IndexMap) -> u64 {
    let st = &f.steps[step];
    let space: u64 = st
        .indices
        .iter()
        .chain(st.sum_over.iter())
        .map(|ix| dims[ix] as u64)
        .product();
    space * if st.operands.len() == 2 { 2 } else { 1 }
}

/// Analyzes the chosen factorization of every statement for reuse across
/// statements (first occurrence wins; each later duplicate is counted once).
pub fn analyze_cse(chosen: &[(&Contraction, &Factorization)], dims: &IndexMap) -> CseReport {
    let mut seen: Vec<(StepKey, usize, usize)> = Vec::new();
    let mut report = CseReport::default();
    for (si, (c, f)) in chosen.iter().enumerate() {
        report.flops_total += f.flops;
        for step in 0..f.steps.len() {
            let Some(key) = step_key(c, f, step) else {
                continue;
            };
            if let Some((_, ei, es)) = seen.iter().find(|(k, ei, _)| *k == key && *ei != si) {
                let saved = step_flops(f, step, dims);
                report.flops_saved += saved;
                report.matches.push(CseMatch {
                    earlier: *ei,
                    earlier_step: *es,
                    later: si,
                    later_step: step,
                    flops_saved: saved,
                });
            } else {
                seen.push((key, si, step));
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::TensorRef;
    use crate::factorize::enumerate_factorizations;
    use tensor::index::uniform_dims;

    fn stmt(out: &str, out_idx: &[&str], sums: &[&str], terms: &[(&str, &[&str])]) -> Contraction {
        Contraction {
            output: TensorRef::new(out, out_idx),
            sum_indices: sums.iter().map(|s| (*s).into()).collect(),
            terms: terms.iter().map(|(n, ix)| TensorRef::new(*n, ix)).collect(),
            accumulate: false,
            coefficient: 1.0,
        }
    }

    #[test]
    fn shared_subcontraction_detected() {
        // Both statements start by contracting C[n i] * U[l m n] over n.
        let dims = uniform_dims(&["i", "j", "k", "l", "m", "n"], 6);
        let s1 = stmt(
            "V",
            &["i", "j", "k"],
            &["l", "m", "n"],
            &[
                ("A", &["l", "k"]),
                ("B", &["m", "j"]),
                ("C", &["n", "i"]),
                ("U", &["l", "m", "n"]),
            ],
        );
        let s2 = stmt(
            "W",
            &["i", "j", "k"],
            &["l", "m", "n"],
            &[
                ("A2", &["l", "k"]),
                ("B2", &["m", "j"]),
                ("C", &["n", "i"]),
                ("U", &["l", "m", "n"]),
            ],
        );
        let f1 = enumerate_factorizations(&s1, &dims);
        let f2 = enumerate_factorizations(&s2, &dims);
        // Pick versions whose first step is C x U for both (the minimal
        // versions start with an N^4 pair; find one explicitly).
        let pick = |c: &Contraction, fs: &[Factorization]| -> Factorization {
            fs.iter()
                .find(|f| step_key(c, f, 0).is_some_and(|k| k.operands[0].0 == "C"))
                .expect("a version starting with C x U exists")
                .clone()
        };
        let p1 = pick(&s1, &f1);
        let p2 = pick(&s2, &f2);
        let report = analyze_cse(&[(&s1, &p1), (&s2, &p2)], &dims);
        assert_eq!(report.matches.len(), 1, "{report:?}");
        assert!(report.flops_saved > 0);
        assert!(report.savings() > 0.1, "savings {}", report.savings());
        let m = &report.matches[0];
        assert_eq!(m.earlier, 0);
        assert_eq!(m.later, 1);
    }

    #[test]
    fn different_index_bindings_do_not_match() {
        // lg3's three statements all multiply D by u but with different
        // index bindings — no reuse is possible.
        let mut dims = uniform_dims(&["i", "j", "k", "l"], 4);
        dims.insert("e".into(), 3);
        let s1 = stmt(
            "ur",
            &["e", "i", "j", "k"],
            &["l"],
            &[("D", &["i", "l"]), ("u", &["e", "l", "j", "k"])],
        );
        let s2 = stmt(
            "us",
            &["e", "i", "j", "k"],
            &["l"],
            &[("D", &["j", "l"]), ("u", &["e", "i", "l", "k"])],
        );
        let f1 = enumerate_factorizations(&s1, &dims);
        let f2 = enumerate_factorizations(&s2, &dims);
        let report = analyze_cse(&[(&s1, &f1[0]), (&s2, &f2[0])], &dims);
        assert!(report.matches.is_empty());
        assert_eq!(report.flops_saved, 0);
    }

    #[test]
    fn identical_statements_fully_shared_first_step() {
        let dims = uniform_dims(&["i", "j", "k"], 8);
        let s = stmt(
            "C",
            &["i", "k"],
            &["j"],
            &[("A", &["i", "j"]), ("B", &["j", "k"])],
        );
        let f = enumerate_factorizations(&s, &dims);
        let report = analyze_cse(&[(&s, &f[0]), (&s, &f[0])], &dims);
        assert_eq!(report.matches.len(), 1);
        // The whole second statement is one step, so savings = half.
        assert!((report.savings() - 0.5).abs() < 1e-12);
    }
}
