//! Functional executor: interprets a mapped kernel exactly as a GPU would,
//! block by block and thread by thread.
//!
//! This is the correctness half of the simulator. It shares no code with the
//! reference einsum evaluator, so agreement between the two is meaningful
//! evidence that a transformation is semantics-preserving. Buffers come
//! from the shared runner, [`TcrProgram::run`], that every executor uses;
//! this module supplies only the kernel interpreter.

use tcr::mapping::MappedKernel;
use tcr::program::TcrProgram;
use tensor::Tensor;

/// Executes one kernel over its whole grid. `buffers[i]` is the storage of
/// array id `i`; the output buffer is updated in place (accumulating — the
/// caller zero-fills fresh temporaries, matching `cudaMemset` before launch).
pub fn execute_kernel(kernel: &MappedKernel, buffers: &mut [Vec<f64>]) {
    for acc in &kernel.inputs {
        assert_ne!(
            acc.array, kernel.output.array,
            "statement reads and writes the same array"
        );
        assert_eq!(buffers[acc.array].len(), acc.len, "input buffer size");
    }
    assert_eq!(
        buffers[kernel.output.array].len(),
        kernel.output.len,
        "output buffer size"
    );

    // Take the output buffer out so inputs can be borrowed immutably.
    let mut out = std::mem::take(&mut buffers[kernel.output.array]);
    {
        let ins: Vec<&[f64]> = kernel
            .inputs
            .iter()
            .map(|a| buffers[a.array].as_slice())
            .collect();

        // Strides of each access w.r.t. the mapped dims and interior loops.
        let n_int = kernel.interior.len();
        let stride_vec =
            |acc: &tcr::mapping::ArrayAccess| -> (usize, usize, usize, usize, Vec<usize>) {
                let tx = acc.stride_of(&kernel.tx.0);
                let ty = kernel
                    .ty
                    .as_ref()
                    .map(|(v, _)| acc.stride_of(v))
                    .unwrap_or(0);
                let bx = kernel
                    .bx
                    .as_ref()
                    .map(|(v, _)| acc.stride_of(v))
                    .unwrap_or(0);
                let by = kernel
                    .by
                    .as_ref()
                    .map(|(v, _)| acc.stride_of(v))
                    .unwrap_or(0);
                let ints = kernel
                    .interior
                    .iter()
                    .map(|l| acc.stride_of(&l.var))
                    .collect();
                (tx, ty, bx, by, ints)
            };
        let out_s = stride_vec(&kernel.output);
        let in_s: Vec<_> = kernel.inputs.iter().map(stride_vec).collect();

        let (bdx, bdy) = kernel.block();
        let (gdx, gdy) = kernel.grid();
        let extents: Vec<usize> = kernel.interior.iter().map(|l| l.extent).collect();
        let trip: usize = extents.iter().product();

        let mut idx = vec![0usize; n_int];
        for by_v in 0..gdy {
            for bx_v in 0..gdx {
                for ty_v in 0..bdy {
                    for tx_v in 0..bdx {
                        let base = |s: &(usize, usize, usize, usize, Vec<usize>)| {
                            tx_v * s.0 + ty_v * s.1 + bx_v * s.2 + by_v * s.3
                        };
                        let out_base = base(&out_s);
                        // Odometer over the interior loops.
                        idx.iter_mut().for_each(|v| *v = 0);
                        for _ in 0..trip {
                            let mut prod = kernel.coefficient;
                            for (k, inp) in ins.iter().enumerate() {
                                let s = &in_s[k];
                                let mut a = base(s);
                                for (d, &iv) in idx.iter().enumerate() {
                                    a += iv * s.4[d];
                                }
                                prod *= inp[a];
                            }
                            let mut oa = out_base;
                            for (d, &iv) in idx.iter().enumerate() {
                                oa += iv * out_s.4[d];
                            }
                            out[oa] += prod;
                            // Advance odometer (row-major, innermost last).
                            for d in (0..n_int).rev() {
                                idx[d] += 1;
                                if idx[d] < extents[d] {
                                    break;
                                }
                                idx[d] = 0;
                            }
                        }
                    }
                }
            }
        }
    }
    buffers[kernel.output.array] = out;
}

/// Executes a whole mapped program: runs every kernel over the program's
/// buffers (temporaries stay "device-resident") and returns the output
/// tensor. `inputs[k]` corresponds to `program.input_ids()[k]`.
pub fn execute_program(
    program: &TcrProgram,
    kernels: &[MappedKernel],
    inputs: &[&Tensor],
) -> Tensor {
    program.run(inputs, |buffers| {
        for kernel in kernels {
            execute_kernel(kernel, buffers);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopi::ast::{Contraction, TensorRef};
    use octopi::enumerate_factorizations;
    use tcr::mapping::map_program;
    use tcr::space::ProgramSpace;
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

    /// Every mapped configuration of the matmul statement must produce the
    /// reference result: this is the core transformation-correctness gate.
    #[test]
    fn all_matmul_configs_execute_correctly() {
        let n = 6;
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
        let p = tcr::TcrProgram::from_factorization("mm", &c, &fs[0], &dims);
        let space = ProgramSpace::build(&p).unwrap();
        let a = Tensor::random(Shape::new([n, n]), 41);
        let b = Tensor::random(Shape::new([n, n]), 42);
        let expect = p.evaluate(&[&a, &b]);
        for ci in 0..space.per_op[0].len() {
            let cfg = tcr::space::Configuration { choice: vec![ci] };
            let kernels = map_program(&p, &space, &cfg, false).unwrap();
            let got = execute_program(&p, &kernels, &[&a, &b]);
            assert!(
                expect.approx_eq(&got, 1e-10),
                "config {ci} produced a wrong result"
            );
        }
    }

    #[test]
    fn eqn1_sampled_configs_execute_correctly() {
        let n = 4;
        let dims = uniform_dims(&["i", "j", "k", "l", "m", "n"], n);
        let c = eqn1();
        let fs = enumerate_factorizations(&c, &dims);
        let a = Tensor::random(Shape::new([n, n]), 1);
        let b = Tensor::random(Shape::new([n, n]), 2);
        let cc = Tensor::random(Shape::new([n, n]), 3);
        let u = Tensor::random(Shape::new([n, n, n]), 4);
        // Exercise a spread of factorizations and configurations.
        for f in fs.iter().step_by(4) {
            let p = tcr::TcrProgram::from_factorization("ex", &c, f, &dims);
            let expect = p.evaluate(&[&a, &b, &cc, &u]);
            let space = ProgramSpace::build(&p).unwrap();
            let total = space.len();
            for frac in [0u128, 1, 2, 5] {
                let id = total * frac / 7;
                let cfg = space.config(id);
                let kernels = map_program(&p, &space, &cfg, false).unwrap();
                let got = execute_program(&p, &kernels, &[&a, &b, &cc, &u]);
                assert!(
                    expect.approx_eq(&got, 1e-10),
                    "factorization {} config {id} wrong",
                    f.key
                );
            }
        }
    }

    #[test]
    fn accumulate_adds_to_existing_output() {
        let n = 4;
        let dims = uniform_dims(&["i", "j", "k"], n);
        let c = Contraction {
            output: TensorRef::new("C", &["i", "k"]),
            sum_indices: vec!["j".into()],
            terms: vec![
                TensorRef::new("A", &["i", "j"]),
                TensorRef::new("B", &["j", "k"]),
            ],
            accumulate: true,
            coefficient: 1.0,
        };
        let fs = enumerate_factorizations(&c, &dims);
        let p = tcr::TcrProgram::from_factorization("mm", &c, &fs[0], &dims);
        let space = ProgramSpace::build(&p).unwrap();
        let cfg = space.config(0);
        let kernels = map_program(&p, &space, &cfg, true).unwrap();
        let a = Tensor::random(Shape::new([n, n]), 7);
        let b = Tensor::random(Shape::new([n, n]), 8);

        // Run the kernel twice over the same buffers: result must be 2x.
        let mut buffers: Vec<Vec<f64>> =
            p.arrays.iter().map(|d| vec![0.0; d.len(&p.dims)]).collect();
        let ids = p.input_ids();
        buffers[ids[0]].copy_from_slice(a.data());
        buffers[ids[1]].copy_from_slice(b.data());
        for k in &kernels {
            execute_kernel(k, &mut buffers);
        }
        for k in &kernels {
            execute_kernel(k, &mut buffers);
        }
        let once = p.evaluate(&[&a, &b]);
        let out = Tensor::from_vec(
            p.arrays[p.output_id()].shape(&p.dims),
            buffers[p.output_id()].clone(),
        );
        let mut doubled = once.clone();
        for v in doubled.data_mut() {
            *v *= 2.0;
        }
        assert!(out.approx_eq(&doubled, 1e-10));
    }

    #[test]
    #[should_panic(expected = "input count mismatch")]
    fn wrong_input_count_panics() {
        let n = 4;
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
        let p = tcr::TcrProgram::from_factorization("mm", &c, &fs[0], &dims);
        let space = ProgramSpace::build(&p).unwrap();
        let kernels = map_program(&p, &space, &space.config(0), false).unwrap();
        let a = Tensor::random(Shape::new([n, n]), 7);
        let _ = execute_program(&p, &kernels, &[&a]);
    }
}
