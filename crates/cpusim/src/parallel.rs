//! Multi-threaded executor — the OpenMP-analog baseline.
//!
//! The paper's OpenMP comparison parallelizes "an outermost loop" (§VI-B).
//! This executor does the same: for each statement the outermost *output*
//! loop is chunked across a crossbeam scoped-thread team; each thread owns a
//! disjoint contiguous slice of the output (the outermost output index is
//! the slowest-varying one in row-major layout), so no synchronization is
//! needed beyond the implicit barrier between statements. Buffers come
//! from the shared runner, [`TcrProgram::run`]; this module supplies only
//! the threaded loop nest.

use crate::exec::strides_for;
use tcr::program::{TcrOp, TcrProgram};
use tensor::Tensor;

/// Executes one statement with `threads` workers splitting the outermost
/// output loop.
pub fn execute_op_parallel(
    program: &TcrProgram,
    op: &TcrOp,
    buffers: &mut [Vec<f64>],
    threads: usize,
) {
    assert!(threads >= 1);
    let out_decl = &program.arrays[op.output];
    let loop_vars = program.loop_vars(op);
    // A rank-0 output (full reduction into a scalar) has no parallel loop
    // to split; run it sequentially.
    let Some(first) = out_decl.indices.first() else {
        crate::exec::execute_op(program, op, buffers);
        return;
    };
    let outer_extent = program.dims[first];
    let out_shape = out_decl.shape(&program.dims);
    let chunk_elems = out_shape.strides()[0];

    // Remaining loops (everything except the outermost output index).
    let inner_vars: Vec<tensor::IndexVar> =
        loop_vars.iter().filter(|v| *v != first).cloned().collect();
    let extents: Vec<usize> = inner_vars.iter().map(|v| program.dims[v]).collect();
    let out_strides = strides_for(program, op.output, &inner_vars);
    let in_strides: Vec<Vec<usize>> = op
        .inputs
        .iter()
        .map(|&id| strides_for(program, id, &inner_vars))
        .collect();
    let in_outer_stride: Vec<usize> = op
        .inputs
        .iter()
        .map(|&id| {
            program.arrays[id]
                .stride_of(first, &program.dims)
                .unwrap_or(0)
        })
        .collect();

    let coeff = op.coefficient;
    let mut out = std::mem::take(&mut buffers[op.output]);
    {
        let ins: Vec<&[f64]> = op.inputs.iter().map(|&id| buffers[id].as_slice()).collect();
        let trip: usize = extents.iter().product();
        let n = inner_vars.len();

        // Static schedule: contiguous ranges of the outer loop per thread.
        let chunks: Vec<(usize, &mut [f64])> = {
            let mut v = Vec::new();
            let mut rest = out.as_mut_slice();
            let per = outer_extent.div_ceil(threads);
            let mut i0 = 0;
            while i0 < outer_extent {
                let span = per.min(outer_extent - i0);
                let (head, tail) = rest.split_at_mut(span * chunk_elems);
                v.push((i0, head));
                rest = tail;
                i0 += span;
            }
            v
        };

        crossbeam::thread::scope(|scope| {
            for (i0, chunk) in chunks {
                let ins = ins.clone();
                let extents = &extents;
                let out_strides = &out_strides;
                let in_strides = &in_strides;
                let in_outer_stride = &in_outer_stride;
                scope.spawn(move |_| {
                    let span = chunk.len() / chunk_elems;
                    for di in 0..span {
                        let i = i0 + di;
                        let mut idx = vec![0usize; n];
                        let mut off_out = di * chunk_elems;
                        let mut offs_in: Vec<usize> =
                            in_outer_stride.iter().map(|s| s * i).collect();
                        for _ in 0..trip.max(1) {
                            let mut prod = coeff;
                            for (k, inp) in ins.iter().enumerate() {
                                prod *= inp[offs_in[k]];
                            }
                            chunk[off_out] += prod;
                            for d in (0..n).rev() {
                                idx[d] += 1;
                                off_out += out_strides[d];
                                for (k, s) in in_strides.iter().enumerate() {
                                    offs_in[k] += s[d];
                                }
                                if idx[d] < extents[d] {
                                    break;
                                }
                                off_out -= out_strides[d] * extents[d];
                                for (k, s) in in_strides.iter().enumerate() {
                                    offs_in[k] -= s[d] * extents[d];
                                }
                                idx[d] = 0;
                            }
                        }
                    }
                });
            }
        })
        .unwrap_or_else(|_| panic!("worker thread panicked"));
    }
    buffers[op.output] = out;
}

/// Executes the whole program with a thread team per statement.
pub fn execute_parallel(program: &TcrProgram, inputs: &[&Tensor], threads: usize) -> Tensor {
    program.run(inputs, |buffers| {
        for op in &program.ops {
            execute_op_parallel(program, op, buffers, threads);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute_sequential;
    use octopi::ast::{Contraction, TensorRef};
    use octopi::enumerate_factorizations;
    use tensor::index::uniform_dims;
    use tensor::Shape;

    fn lower(c: &Contraction, dims: &tensor::IndexMap) -> tcr::TcrProgram {
        let fs = enumerate_factorizations(c, dims);
        tcr::TcrProgram::from_factorization("p", c, &fs[0], dims)
    }

    #[test]
    fn parallel_matches_sequential_matmul() {
        let n = 16;
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
        let p = lower(&c, &dims);
        let a = Tensor::random(Shape::new([n, n]), 1);
        let b = Tensor::random(Shape::new([n, n]), 2);
        let seq = execute_sequential(&p, &[&a, &b]);
        for threads in [1, 2, 4, 7] {
            let par = execute_parallel(&p, &[&a, &b], threads);
            assert!(seq.approx_eq(&par, 1e-12), "threads={threads}");
        }
    }

    #[test]
    fn parallel_matches_sequential_eqn1() {
        let n = 5;
        let dims = uniform_dims(&["i", "j", "k", "l", "m", "n"], n);
        let c = Contraction {
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
        };
        let p = lower(&c, &dims);
        let a = Tensor::random(Shape::new([n, n]), 1);
        let b = Tensor::random(Shape::new([n, n]), 2);
        let cc = Tensor::random(Shape::new([n, n]), 3);
        let u = Tensor::random(Shape::new([n, n, n]), 4);
        let seq = execute_sequential(&p, &[&a, &b, &cc, &u]);
        let par = execute_parallel(&p, &[&a, &b, &cc, &u], 4);
        assert!(seq.approx_eq(&par, 1e-12));
    }

    #[test]
    fn more_threads_than_outer_iterations() {
        // Outer extent 3, 8 threads: chunks must still cover everything.
        let dims = uniform_dims(&["i", "j"], 3);
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
        let p = lower(&c, &dims);
        let a = Tensor::random(Shape::new([3, 3]), 9);
        let b = Tensor::random(Shape::new([3]), 10);
        let seq = execute_sequential(&p, &[&a, &b]);
        let par = execute_parallel(&p, &[&a, &b], 8);
        assert!(seq.approx_eq(&par, 1e-12));
    }
}
