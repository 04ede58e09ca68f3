//! The TCR program form: declared arrays plus binary contraction statements.
//!
//! This mirrors the paper's Figure 2(b):
//!
//! ```text
//! variables:  temp1:(I,L,M)  C:(N,I)  U:(L,M,N) ...
//! operations: temp1:(i,l,m) += C:(n,i) * U:(l,m,n)
//! ```
//!
//! Arrays are accessed with exactly their declared index tuple (tensor
//! contractions never need skewed or affine subscripts), so an access is
//! identified by the array id alone.

use octopi::{Contraction, Factorization, Operand};
use std::collections::BTreeMap;
use tensor::{EinsumSpec, IndexMap, IndexVar, Shape, Tensor};

/// Role of a declared array within a program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArrayKind {
    /// An original input tensor (device-resident for the whole program).
    Input,
    /// An intermediate temporary produced and consumed on the GPU.
    Temp,
    /// The program's final output tensor.
    Output,
}

/// A declared array: name plus layout (index order, row-major).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArrayDecl {
    pub name: String,
    pub indices: Vec<IndexVar>,
    pub kind: ArrayKind,
}

impl ArrayDecl {
    /// Concrete shape under an extent map.
    pub fn shape(&self, dims: &IndexMap) -> Shape {
        Shape::new(self.indices.iter().map(|ix| dims[ix]).collect::<Vec<_>>())
    }

    /// Number of elements under an extent map.
    pub fn len(&self, dims: &IndexMap) -> usize {
        self.shape(dims).len()
    }

    /// Stride (in elements) of index `ix` in this array's row-major layout,
    /// or `None` when the array does not carry `ix`.
    pub fn stride_of(&self, ix: &IndexVar, dims: &IndexMap) -> Option<usize> {
        let pos = self.indices.iter().position(|d| d == ix)?;
        Some(self.shape(dims).strides()[pos])
    }
}

/// One statement: `arrays[output][...] += arrays[inputs[0]] (* arrays[inputs[1]])`,
/// summing over `sum_indices`.
#[derive(Clone, Debug, PartialEq)]
pub struct TcrOp {
    pub output: usize,
    pub inputs: Vec<usize>,
    pub sum_indices: Vec<IndexVar>,
    /// Scalar multiplier of the product (1.0 for every temporary; the final
    /// statement carries the contraction's coefficient, e.g. -1 for `-=`).
    pub coefficient: f64,
}

/// A complete TCR program: arrays + ordered statements + extents.
#[derive(Clone, Debug, PartialEq)]
pub struct TcrProgram {
    pub name: String,
    pub dims: IndexMap,
    pub arrays: Vec<ArrayDecl>,
    pub ops: Vec<TcrOp>,
}

impl TcrProgram {
    /// Lowers one OCTOPI factorization into a TCR program, panicking on a
    /// malformed factorization. Prefer [`TcrProgram::try_from_factorization`]
    /// when the factorization comes from an untrusted enumerator.
    pub fn from_factorization(
        name: impl Into<String>,
        contraction: &Contraction,
        factorization: &Factorization,
        dims: &IndexMap,
    ) -> Self {
        match Self::try_from_factorization(name, contraction, factorization, dims) {
            Ok(p) => p,
            Err(e) => panic!("from_factorization: {e}"),
        }
    }

    /// Fallible lowering of one OCTOPI factorization into a TCR program.
    ///
    /// Arrays: one per distinct original input term (shared between steps
    /// when a tensor appears in several), one per step temporary, with the
    /// final step writing the `Output` array.
    ///
    /// Fails when the factorization is malformed: no steps, an operand
    /// referencing an unknown term or not-yet-computed temporary, or an
    /// index with no extent in `dims`.
    pub fn try_from_factorization(
        name: impl Into<String>,
        contraction: &Contraction,
        factorization: &Factorization,
        dims: &IndexMap,
    ) -> Result<Self, String> {
        if factorization.steps.is_empty() {
            return Err("factorization has no steps".to_string());
        }
        let mut arrays: Vec<ArrayDecl> = Vec::new();
        // Map from input term id -> array id, merging repeated tensor names.
        let mut input_array: BTreeMap<usize, usize> = BTreeMap::new();
        for (k, term) in contraction.terms.iter().enumerate() {
            let existing = arrays
                .iter()
                .position(|a| a.name == term.name && a.indices == term.indices);
            let id = existing.unwrap_or_else(|| {
                arrays.push(ArrayDecl {
                    name: term.name.clone(),
                    indices: term.indices.clone(),
                    kind: ArrayKind::Input,
                });
                arrays.len() - 1
            });
            input_array.insert(k, id);
        }

        let n_steps = factorization.steps.len();
        let mut temp_array: BTreeMap<usize, usize> = BTreeMap::new();
        let mut ops = Vec::with_capacity(n_steps);
        for (j, step) in factorization.steps.iter().enumerate() {
            let is_final = j == n_steps - 1;
            arrays.push(ArrayDecl {
                name: step.name.clone(),
                indices: step.indices.clone(),
                kind: if is_final {
                    ArrayKind::Output
                } else {
                    ArrayKind::Temp
                },
            });
            let out_id = arrays.len() - 1;
            temp_array.insert(j, out_id);
            let inputs = step
                .operands
                .iter()
                .map(|op| match op {
                    Operand::Input(k) => input_array
                        .get(k)
                        .copied()
                        .ok_or_else(|| format!("step {j} references unknown input term {k}")),
                    Operand::Temp(t) => temp_array.get(t).copied().ok_or_else(|| {
                        format!("step {j} references not-yet-computed temporary {t}")
                    }),
                })
                .collect::<Result<Vec<usize>, String>>()?;
            ops.push(TcrOp {
                output: out_id,
                inputs,
                sum_indices: step.sum_over.clone(),
                coefficient: if is_final {
                    contraction.coefficient
                } else {
                    1.0
                },
            });
        }

        // Restrict dims to the indices actually used.
        let mut used: IndexMap = IndexMap::new();
        for a in &arrays {
            for ix in &a.indices {
                let ext = dims.get(ix).copied().ok_or_else(|| {
                    format!("index {} of array {} has no extent", ix.name(), a.name)
                })?;
                used.insert(ix.clone(), ext);
            }
        }

        Ok(TcrProgram {
            name: name.into(),
            dims: used,
            arrays,
            ops,
        })
    }

    /// Ids of the `Input` arrays, in declaration order.
    pub fn input_ids(&self) -> Vec<usize> {
        (0..self.arrays.len())
            .filter(|&i| self.arrays[i].kind == ArrayKind::Input)
            .collect()
    }

    /// Id of the `Output` array.
    pub fn output_id(&self) -> usize {
        self.arrays
            .iter()
            .position(|a| a.kind == ArrayKind::Output)
            .unwrap_or_else(|| panic!("program {} has no output array", self.name))
    }

    /// Loop variables of statement `op`: output indices (parallel) followed
    /// by summation indices (sequential), in declaration order.
    pub fn loop_vars(&self, op: &TcrOp) -> Vec<IndexVar> {
        let mut vars = self.arrays[op.output].indices.clone();
        vars.extend(op.sum_indices.iter().cloned());
        vars
    }

    /// The einsum spec of a single statement (for reference evaluation).
    pub fn op_spec(&self, op: &TcrOp) -> EinsumSpec {
        let mut dims = IndexMap::new();
        for id in op.inputs.iter().chain(std::iter::once(&op.output)) {
            for ix in &self.arrays[*id].indices {
                dims.insert(ix.clone(), self.dims[ix]);
            }
        }
        EinsumSpec {
            inputs: op
                .inputs
                .iter()
                .map(|id| self.arrays[*id].indices.clone())
                .collect(),
            output: self.arrays[op.output].indices.clone(),
            dims,
        }
    }

    /// Runs the program on real buffers: allocates one zeroed buffer per
    /// array, uploads `inputs` (`inputs[k]` is array `input_ids()[k]`),
    /// hands every buffer to `body` and returns the output array as a
    /// tensor. Every executor is a `body` around this one runner: the
    /// `cpusim` loop nests and the `gpusim` kernel interpreters differ only
    /// in their loops. Panics when `inputs` does not match the program's
    /// input arrays in count or shape.
    pub fn run(&self, inputs: &[&Tensor], body: impl FnOnce(&mut [Vec<f64>])) -> Tensor {
        let input_ids = self.input_ids();
        assert_eq!(inputs.len(), input_ids.len(), "input count mismatch");
        let mut buffers: Vec<Vec<f64>> = self
            .arrays
            .iter()
            .map(|a| vec![0.0; a.len(&self.dims)])
            .collect();
        for (k, id) in input_ids.iter().enumerate() {
            assert_eq!(
                inputs[k].shape(),
                &self.arrays[*id].shape(&self.dims),
                "input {k} shape mismatch"
            );
            buffers[*id].copy_from_slice(inputs[k].data());
        }
        body(&mut buffers);
        let out_id = self.output_id();
        Tensor::from_vec(
            self.arrays[out_id].shape(&self.dims),
            std::mem::take(&mut buffers[out_id]),
        )
    }

    /// Reference execution of the full program: runs every statement with
    /// the einsum oracle. `inputs[k]` corresponds to `input_ids()[k]`.
    pub fn evaluate(&self, inputs: &[&Tensor]) -> Tensor {
        let input_ids = self.input_ids();
        assert_eq!(inputs.len(), input_ids.len(), "input count mismatch");
        let mut storage: Vec<Option<Tensor>> = vec![None; self.arrays.len()];
        for (k, id) in input_ids.iter().enumerate() {
            assert_eq!(
                *inputs[k].shape(),
                self.arrays[*id].shape(&self.dims),
                "input {k} shape mismatch"
            );
            storage[*id] = Some(inputs[k].clone());
        }
        for op in &self.ops {
            let spec = self.op_spec(op);
            let operand_tensors: Vec<&Tensor> = op
                .inputs
                .iter()
                .map(|id| {
                    storage[*id]
                        .as_ref()
                        .unwrap_or_else(|| panic!("operand array {id} not yet computed"))
                })
                .collect();
            let mut result = spec.evaluate(&operand_tensors);
            if op.coefficient != 1.0 {
                for v in result.data_mut() {
                    *v *= op.coefficient;
                }
            }
            storage[op.output] = Some(result);
        }
        let out = self.output_id();
        storage[out]
            .take()
            .unwrap_or_else(|| panic!("output array {out} was never computed"))
    }

    /// Total floating-point operations of the program (2 per joint-space
    /// point per binary statement, 1 for unary reductions).
    pub fn flops(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| {
                let joint: u64 = self
                    .loop_vars(op)
                    .iter()
                    .map(|ix| self.dims[ix] as u64)
                    .product();
                joint * if op.inputs.len() == 2 { 2 } else { 1 }
            })
            .sum()
    }

    /// Bytes that must cross PCIe: inputs down, output up (f64 elements).
    pub fn transfer_bytes(&self) -> u64 {
        let mut bytes = 0u64;
        for a in &self.arrays {
            match a.kind {
                ArrayKind::Input | ArrayKind::Output => {
                    bytes += 8 * a.len(&self.dims) as u64;
                }
                ArrayKind::Temp => {}
            }
        }
        bytes
    }

    /// Pretty TCR listing in the style of Figure 2(b).
    pub fn listing(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "{}", self.name);
        let _ = writeln!(s, "access: linearize");
        let _ = writeln!(s, "define:");
        for (ix, ext) in &self.dims {
            let _ = writeln!(s, "  {} = {}", ix.name().to_uppercase(), ext);
        }
        let _ = writeln!(s, "variables:");
        for a in &self.arrays {
            let ups: Vec<String> = a.indices.iter().map(|i| i.name().to_uppercase()).collect();
            let _ = writeln!(s, "  {}:({})", a.name, ups.join(","));
        }
        let _ = writeln!(s, "operations:");
        for op in &self.ops {
            let fmt_ref = |id: usize| {
                let a = &self.arrays[id];
                let names: Vec<&str> = a.indices.iter().map(|i| i.name()).collect();
                format!("{}:({})", a.name, names.join(","))
            };
            let rhs: Vec<String> = op.inputs.iter().map(|&i| fmt_ref(i)).collect();
            let _ = writeln!(s, "  {} += {}", fmt_ref(op.output), rhs.join("*"));
        }
        s
    }
}

/// Shared fixtures for this crate's unit tests.
#[cfg(test)]
pub mod tests_support {
    use super::*;
    use octopi::ast::TensorRef;
    use octopi::enumerate_factorizations;
    use tensor::index::uniform_dims;

    /// The paper's Eqn. (1) statement.
    pub fn eqn1_contraction() -> Contraction {
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

    /// Best (minimal-flop) factorization of Eqn. (1), lowered at extent `n`.
    pub fn eqn1_program(n: usize) -> TcrProgram {
        let dims = uniform_dims(&["i", "j", "k", "l", "m", "n"], n);
        let c = eqn1_contraction();
        let fs = enumerate_factorizations(&c, &dims);
        TcrProgram::from_factorization("ex", &c, &fs[0], &dims)
    }

    /// A single matrix-multiply statement `C[i,k] = A[i,j] B[j,k]`.
    pub fn matmul_program(n: usize) -> TcrProgram {
        let dims = uniform_dims(&["i", "j", "k"], n);
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
        let fs = enumerate_factorizations(&c, &dims);
        TcrProgram::from_factorization("mm", &c, &fs[0], &dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopi::ast::TensorRef;
    use octopi::enumerate_factorizations;
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

    fn lower_best(n: usize) -> TcrProgram {
        let dims = uniform_dims(&["i", "j", "k", "l", "m", "n"], n);
        let c = eqn1();
        let fs = enumerate_factorizations(&c, &dims);
        TcrProgram::from_factorization("ex", &c, &fs[0], &dims)
    }

    #[test]
    fn lowering_creates_arrays_and_ops() {
        let p = lower_best(10);
        // 4 inputs + 2 temps + 1 output
        assert_eq!(p.arrays.len(), 7);
        assert_eq!(p.ops.len(), 3);
        assert_eq!(p.input_ids().len(), 4);
        let out = &p.arrays[p.output_id()];
        assert_eq!(out.name, "V");
        assert_eq!(out.kind, ArrayKind::Output);
    }

    #[test]
    fn program_evaluate_matches_reference() {
        let n = 4;
        let dims = uniform_dims(&["i", "j", "k", "l", "m", "n"], n);
        let c = eqn1();
        let reference = c.to_einsum(&dims);
        let a = Tensor::random(Shape::new([n, n]), 1);
        let b = Tensor::random(Shape::new([n, n]), 2);
        let cc = Tensor::random(Shape::new([n, n]), 3);
        let u = Tensor::random(Shape::new([n, n, n]), 4);
        let expect = reference.evaluate(&[&a, &b, &cc, &u]);
        for f in enumerate_factorizations(&c, &dims) {
            let p = TcrProgram::from_factorization("ex", &c, &f, &dims);
            let got = p.evaluate(&[&a, &b, &cc, &u]);
            assert!(expect.approx_eq(&got, 1e-10), "program {} diverges", f.key);
        }
    }

    #[test]
    fn flops_matches_factorization() {
        let dims = uniform_dims(&["i", "j", "k", "l", "m", "n"], 10);
        let c = eqn1();
        for f in enumerate_factorizations(&c, &dims) {
            let p = TcrProgram::from_factorization("ex", &c, &f, &dims);
            assert_eq!(p.flops(), f.flops);
        }
    }

    #[test]
    fn stride_of_row_major() {
        let p = lower_best(10);
        let u = p.arrays.iter().position(|a| a.name == "U").unwrap();
        let decl = &p.arrays[u];
        assert_eq!(decl.stride_of(&"n".into(), &p.dims), Some(1));
        assert_eq!(decl.stride_of(&"m".into(), &p.dims), Some(10));
        assert_eq!(decl.stride_of(&"l".into(), &p.dims), Some(100));
        assert_eq!(decl.stride_of(&"q".into(), &p.dims), None);
    }

    #[test]
    fn transfer_bytes_counts_inputs_and_output_only() {
        let p = lower_best(10);
        // inputs: 3x100 + 1000; output: 1000; temps excluded.
        assert_eq!(p.transfer_bytes(), 8 * (300 + 1000 + 1000));
    }

    #[test]
    fn listing_mentions_operations() {
        let p = lower_best(10);
        let l = p.listing();
        assert!(l.contains("operations:"));
        assert!(l.contains("V:("));
    }

    #[test]
    fn repeated_input_tensor_shares_array() {
        // B appears twice with identical indices: one array, referenced twice.
        let c = Contraction {
            output: TensorRef::new("S", &["i"]),
            sum_indices: vec!["j".into()],
            terms: vec![
                TensorRef::new("B", &["i", "j"]),
                TensorRef::new("B", &["i", "j"]),
            ],
            accumulate: false,
            coefficient: 1.0,
        };
        let dims = uniform_dims(&["i", "j"], 4);
        let fs = enumerate_factorizations(&c, &dims);
        let p = TcrProgram::from_factorization("sq", &c, &fs[0], &dims);
        assert_eq!(p.input_ids().len(), 1);
        assert_eq!(p.ops[0].inputs, vec![0, 0]);
    }
}
