//! Cache-tiled sequential executor.
//!
//! The paper's CPU baselines are untiled loop nests; real tensor libraries
//! tile. This executor splits every loop with a large extent into
//! (tile, intra-tile) pairs and walks tiles in the outer odometer so the
//! working set of each tile stays cache-resident — a genuinely faster way
//! to run the big contractions on the host, used by the Criterion
//! machinery benchmarks as the "tuned CPU" reference point. Buffers come
//! from the shared runner, [`TcrProgram::run`]; this module supplies only
//! the tiled loop nest.

use crate::exec::strides_for;
use tcr::program::{TcrOp, TcrProgram};
use tensor::Tensor;

/// Loops longer than this get tiled.
pub const DEFAULT_TILE: usize = 32;

/// Executes one statement with loop tiling at `tile`.
pub fn execute_op_tiled(program: &TcrProgram, op: &TcrOp, buffers: &mut [Vec<f64>], tile: usize) {
    assert!(tile >= 1);
    let loop_vars = program.loop_vars(op);
    let extents: Vec<usize> = loop_vars.iter().map(|v| program.dims[v]).collect();
    let out_strides = strides_for(program, op.output, &loop_vars);
    let in_strides: Vec<Vec<usize>> = op
        .inputs
        .iter()
        .map(|&id| strides_for(program, id, &loop_vars))
        .collect();

    let n = loop_vars.len();
    // Tile bases: per loop, the list of (start, len) tiles.
    let tiles: Vec<Vec<(usize, usize)>> = extents
        .iter()
        .map(|&e| {
            let mut v = Vec::new();
            let mut s = 0;
            while s < e {
                v.push((s, tile.min(e - s)));
                s += tile;
            }
            v
        })
        .collect();
    let n_tiles: Vec<usize> = tiles.iter().map(|t| t.len()).collect();

    let mut out = std::mem::take(&mut buffers[op.output]);
    {
        let ins: Vec<&[f64]> = op.inputs.iter().map(|&id| buffers[id].as_slice()).collect();
        // Outer odometer over tiles.
        let mut t_idx = vec![0usize; n];
        let total_tiles: usize = n_tiles.iter().product();
        for _ in 0..total_tiles.max(1) {
            let starts: Vec<usize> = (0..n).map(|d| tiles[d][t_idx[d]].0).collect();
            let lens: Vec<usize> = (0..n).map(|d| tiles[d][t_idx[d]].1).collect();
            // Inner odometer within the tile, with incremental offsets.
            let base_out: usize = (0..n).map(|d| starts[d] * out_strides[d]).sum();
            let base_in: Vec<usize> = in_strides
                .iter()
                .map(|s| (0..n).map(|d| starts[d] * s[d]).sum())
                .collect();
            let trip: usize = lens.iter().product();
            let mut idx = vec![0usize; n];
            let mut off_out = base_out;
            let mut offs_in = base_in.clone();
            for _ in 0..trip.max(1) {
                let mut prod = op.coefficient;
                for (k, inp) in ins.iter().enumerate() {
                    prod *= inp[offs_in[k]];
                }
                out[off_out] += prod;
                for d in (0..n).rev() {
                    idx[d] += 1;
                    off_out += out_strides[d];
                    for (k, s) in in_strides.iter().enumerate() {
                        offs_in[k] += s[d];
                    }
                    if idx[d] < lens[d] {
                        break;
                    }
                    off_out -= out_strides[d] * lens[d];
                    for (k, s) in in_strides.iter().enumerate() {
                        offs_in[k] -= s[d] * lens[d];
                    }
                    idx[d] = 0;
                }
            }
            // Advance the tile odometer.
            for d in (0..n).rev() {
                t_idx[d] += 1;
                if t_idx[d] < n_tiles[d] {
                    break;
                }
                t_idx[d] = 0;
            }
        }
    }
    buffers[op.output] = out;
}

/// Executes the whole program with tiling.
pub fn execute_tiled(program: &TcrProgram, inputs: &[&Tensor], tile: usize) -> Tensor {
    program.run(inputs, |buffers| {
        for op in &program.ops {
            execute_op_tiled(program, op, buffers, tile);
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

    fn matmul(n: usize) -> TcrProgram {
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

    #[test]
    fn tiled_matches_sequential_at_various_tiles() {
        let p = matmul(37); // deliberately not a multiple of any tile
        let a = Tensor::random(Shape::new([37, 37]), 1);
        let b = Tensor::random(Shape::new([37, 37]), 2);
        let expect = execute_sequential(&p, &[&a, &b]);
        for tile in [1, 5, 16, 32, 64] {
            let got = execute_tiled(&p, &[&a, &b], tile);
            assert!(expect.approx_eq(&got, 1e-12), "tile = {tile}");
        }
    }

    #[test]
    fn tiled_matches_on_deep_nests() {
        let dims = uniform_dims(&["i", "j", "k", "l", "m"], 5);
        let c = Contraction {
            output: TensorRef::new("V", &["i", "j", "k"]),
            sum_indices: vec!["l".into(), "m".into()],
            terms: vec![
                TensorRef::new("A", &["i", "l", "m"]),
                TensorRef::new("B", &["l", "m", "j", "k"]),
            ],
            accumulate: false,
            coefficient: 1.0,
        };
        let fs = enumerate_factorizations(&c, &dims);
        let p = TcrProgram::from_factorization("deep", &c, &fs[0], &dims);
        let a = Tensor::random(Shape::new([5, 5, 5]), 3);
        let b = Tensor::random(Shape::new([5, 5, 5, 5]), 4);
        let expect = execute_sequential(&p, &[&a, &b]);
        let got = execute_tiled(&p, &[&a, &b], 3);
        assert!(expect.approx_eq(&got, 1e-12));
    }

    #[test]
    fn tile_larger_than_extent_is_one_tile() {
        let p = matmul(8);
        let a = Tensor::random(Shape::new([8, 8]), 5);
        let b = Tensor::random(Shape::new([8, 8]), 6);
        let expect = execute_sequential(&p, &[&a, &b]);
        let got = execute_tiled(&p, &[&a, &b], 1024);
        assert!(expect.approx_eq(&got, 1e-12));
    }
}
