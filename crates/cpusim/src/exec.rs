//! Real sequential executor for TCR programs.
//!
//! Executes each statement as an explicit loop nest over precomputed
//! strides — structurally the same code a C compiler would see, and
//! independent of the einsum oracle in the `tensor` crate. Buffers come
//! from the shared runner, [`TcrProgram::run`]; this module supplies only
//! the loop nest (and the stride helper the other executors share).

use tcr::program::{TcrOp, TcrProgram};
use tensor::Tensor;

/// Stride of each loop variable for one array access (0 = invariant).
pub(crate) fn strides_for(
    program: &TcrProgram,
    array_id: usize,
    loop_vars: &[tensor::IndexVar],
) -> Vec<usize> {
    loop_vars
        .iter()
        .map(|v| {
            program.arrays[array_id]
                .stride_of(v, &program.dims)
                .unwrap_or(0)
        })
        .collect()
}

/// Executes one statement, accumulating into `buffers[op.output]`.
pub fn execute_op(program: &TcrProgram, op: &TcrOp, buffers: &mut [Vec<f64>]) {
    let loop_vars = program.loop_vars(op);
    let extents: Vec<usize> = loop_vars.iter().map(|v| program.dims[v]).collect();
    let out_strides = strides_for(program, op.output, &loop_vars);
    let in_strides: Vec<Vec<usize>> = op
        .inputs
        .iter()
        .map(|&id| strides_for(program, id, &loop_vars))
        .collect();

    let mut out = std::mem::take(&mut buffers[op.output]);
    {
        let ins: Vec<&[f64]> = op.inputs.iter().map(|&id| buffers[id].as_slice()).collect();
        let n = loop_vars.len();
        let trip: usize = extents.iter().product();
        let coeff = op.coefficient;
        let mut idx = vec![0usize; n];
        let mut offs_out = 0usize;
        let mut offs_in = vec![0usize; ins.len()];
        for _ in 0..trip {
            let mut prod = coeff;
            for (k, inp) in ins.iter().enumerate() {
                prod *= inp[offs_in[k]];
            }
            out[offs_out] += prod;
            // Odometer with incremental offset updates.
            for d in (0..n).rev() {
                idx[d] += 1;
                offs_out += out_strides[d];
                for (k, s) in in_strides.iter().enumerate() {
                    offs_in[k] += s[d];
                }
                if idx[d] < extents[d] {
                    break;
                }
                // Wrap this dimension: subtract the full span.
                offs_out -= out_strides[d] * extents[d];
                for (k, s) in in_strides.iter().enumerate() {
                    offs_in[k] -= s[d] * extents[d];
                }
                idx[d] = 0;
            }
        }
    }
    buffers[op.output] = out;
}

/// Executes the whole program sequentially. `inputs[k]` matches
/// `program.input_ids()[k]`.
pub fn execute_sequential(program: &TcrProgram, inputs: &[&Tensor]) -> Tensor {
    program.run(inputs, |buffers| {
        for op in &program.ops {
            execute_op(program, op, buffers);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopi::ast::{Contraction, TensorRef};
    use octopi::enumerate_factorizations;
    use tensor::index::uniform_dims;
    use tensor::Shape;

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
    fn sequential_matches_oracle_on_all_eqn1_versions() {
        let n = 4;
        let dims = uniform_dims(&["i", "j", "k", "l", "m", "n"], n);
        let c = eqn1();
        let a = Tensor::random(Shape::new([n, n]), 1);
        let b = Tensor::random(Shape::new([n, n]), 2);
        let cc = Tensor::random(Shape::new([n, n]), 3);
        let u = Tensor::random(Shape::new([n, n, n]), 4);
        let expect = c.to_einsum(&dims).evaluate(&[&a, &b, &cc, &u]);
        for f in enumerate_factorizations(&c, &dims) {
            let p = tcr::TcrProgram::from_factorization("ex", &c, &f, &dims);
            let got = execute_sequential(&p, &[&a, &b, &cc, &u]);
            assert!(expect.approx_eq(&got, 1e-10), "version {} diverges", f.key);
        }
    }

    #[test]
    fn odometer_handles_rank_mixtures() {
        // y[i] = Sum(j, A[i,j] b[j]) — matrix-vector with a rank-1 operand.
        let dims = uniform_dims(&["i", "j"], 7);
        let c = Contraction {
            output: TensorRef::new("y", &["i"]),
            sum_indices: vec!["j".into()],
            terms: vec![
                TensorRef::new("A", &["i", "j"]),
                TensorRef::new("b", &["j"]),
            ],
            accumulate: false,
            coefficient: 1.0,
        };
        let fs = enumerate_factorizations(&c, &dims);
        let p = tcr::TcrProgram::from_factorization("mv", &c, &fs[0], &dims);
        let a = Tensor::random(Shape::new([7, 7]), 5);
        let b = Tensor::random(Shape::new([7]), 6);
        let got = execute_sequential(&p, &[&a, &b]);
        let expect = c.to_einsum(&dims).evaluate(&[&a, &b]);
        assert!(expect.approx_eq(&got, 1e-12));
    }
}
