//! Golden pin for the output bits of every executor.
//!
//! Each executor runs a TCR program or a whole workload on real buffers:
//! the three `cpusim` loop nests, `gpusim`'s kernel and fused-kernel
//! interpreters, and the three whole-workload chains built on them. These
//! digests were captured before the executors were reorganized. They pin
//! the exact `f64` bits, not a tolerance: the executors' summation order
//! is part of their behaviour, and a moved digest means a loop or a buffer
//! changed. That is a regression, not a value to re-bless.
//!
//! Workloads: the benchmark's reduced set, on `random_inputs(7)`.
//! Whole-workload executors:
//! - `tuned`: `TunedWorkload::execute` of a K20 `TuneParams::quick()` tune
//!   with `threads = 1`;
//! - `cpu1`, `cpu4`: `cpu::execute_workload_cpu` at 1 and 4 threads;
//! - `fusion`: `fusionopt::execute_with_fusion` of that tune on the K20.
//!
//! Program executors, on every statement's version-0 program (`s<k>` is
//! the statement): `cpusim::execute_sequential`, `execute_parallel` at 3
//! threads, `execute_tiled` at tiles 2 and `DEFAULT_TILE`, and
//! `gpusim::execute_fused_program` wherever `tcr::fusion::build_fused`
//! returns a kernel.

use barracuda::pipeline::{TuneParams, WorkloadTuner};
use barracuda::{cpu, fusionopt, kernels, Workload};
use tcr::TcrProgram;
use tensor::Tensor;

/// `(workload, executor, FNV-1a digest of the output bits)`.
const GOLDEN: &[(&str, &str, u64)] = &[
    ("ex", "tuned", 0x770e97f85e55deba),
    ("ex", "cpu1", 0x47ee750a36f230a7),
    ("ex", "cpu4", 0x47ee750a36f230a7),
    ("ex", "fusion", 0x683df7f4b0e42f77),
    ("ex", "s0 seq", 0x47ee750a36f230a7),
    ("ex", "s0 par3", 0x47ee750a36f230a7),
    ("ex", "s0 tile2", 0x47ee750a36f230a7),
    ("ex", "s0 tile32", 0x47ee750a36f230a7),
    ("ex", "s0 fused", 0x47ee750a36f230a7),
    ("lg3", "tuned", 0x79a3d30d23678752),
    ("lg3", "cpu1", 0x79a3d30d23678752),
    ("lg3", "cpu4", 0x79a3d30d23678752),
    ("lg3", "fusion", 0x79a3d30d23678752),
    ("lg3", "s0 seq", 0x3f9aa99c04c43c52),
    ("lg3", "s0 par3", 0x3f9aa99c04c43c52),
    ("lg3", "s0 tile2", 0x3f9aa99c04c43c52),
    ("lg3", "s0 tile32", 0x3f9aa99c04c43c52),
    ("lg3", "s1 seq", 0x39695a92b573f978),
    ("lg3", "s1 par3", 0x39695a92b573f978),
    ("lg3", "s1 tile2", 0x39695a92b573f978),
    ("lg3", "s1 tile32", 0x39695a92b573f978),
    ("lg3", "s2 seq", 0x8d49f8a9a9e5f7c4),
    ("lg3", "s2 par3", 0x8d49f8a9a9e5f7c4),
    ("lg3", "s2 tile2", 0x8d49f8a9a9e5f7c4),
    ("lg3", "s2 tile32", 0x8d49f8a9a9e5f7c4),
    ("lg3t", "tuned", 0x907ca4fa9f14ac90),
    ("lg3t", "cpu1", 0x907ca4fa9f14ac90),
    ("lg3t", "cpu4", 0x907ca4fa9f14ac90),
    ("lg3t", "fusion", 0x907ca4fa9f14ac90),
    ("lg3t", "s0 seq", 0xaf663b262218c413),
    ("lg3t", "s0 par3", 0xaf663b262218c413),
    ("lg3t", "s0 tile2", 0xaf663b262218c413),
    ("lg3t", "s0 tile32", 0xaf663b262218c413),
    ("lg3t", "s1 seq", 0x8944e78a31df9713),
    ("lg3t", "s1 par3", 0x8944e78a31df9713),
    ("lg3t", "s1 tile2", 0x8944e78a31df9713),
    ("lg3t", "s1 tile32", 0x8944e78a31df9713),
    ("lg3t", "s2 seq", 0xdc0f5ae2349b1cf1),
    ("lg3t", "s2 par3", 0xdc0f5ae2349b1cf1),
    ("lg3t", "s2 tile2", 0xdc0f5ae2349b1cf1),
    ("lg3t", "s2 tile32", 0xdc0f5ae2349b1cf1),
    ("tce", "tuned", 0xf95ab2a87f8aaa30),
    ("tce", "cpu1", 0xf95ab2a87f8aaa30),
    ("tce", "cpu4", 0xf95ab2a87f8aaa30),
    ("tce", "fusion", 0xf95ab2a87f8aaa30),
    ("tce", "s0 seq", 0xf95ab2a87f8aaa30),
    ("tce", "s0 par3", 0xf95ab2a87f8aaa30),
    ("tce", "s0 tile2", 0x2403084da049cb0f),
    ("tce", "s0 tile32", 0xf95ab2a87f8aaa30),
    ("tce", "s0 fused", 0xf95ab2a87f8aaa30),
    ("s1_1", "tuned", 0xeece8388ca355762),
    ("s1_1", "cpu1", 0xeece8388ca355762),
    ("s1_1", "cpu4", 0xeece8388ca355762),
    ("s1_1", "fusion", 0xeece8388ca355762),
    ("s1_1", "s0 seq", 0xc4f1c48627ce3e97),
    ("s1_1", "s0 par3", 0xc4f1c48627ce3e97),
    ("s1_1", "s0 tile2", 0xc4f1c48627ce3e97),
    ("s1_1", "s0 tile32", 0xc4f1c48627ce3e97),
    ("d1_1", "tuned", 0xbb1975a5e62c7f3a),
    ("d1_1", "cpu1", 0xbb1975a5e62c7f3a),
    ("d1_1", "cpu4", 0xbb1975a5e62c7f3a),
    ("d1_1", "fusion", 0xbb1975a5e62c7f3a),
    ("d1_1", "s0 seq", 0xc969ec1d12c9ce39),
    ("d1_1", "s0 par3", 0xc969ec1d12c9ce39),
    ("d1_1", "s0 tile2", 0xc969ec1d12c9ce39),
    ("d1_1", "s0 tile32", 0xc969ec1d12c9ce39),
    ("d2_1", "tuned", 0x14c230c6a5333b2a),
    ("d2_1", "cpu1", 0x14c230c6a5333b2a),
    ("d2_1", "cpu4", 0x14c230c6a5333b2a),
    ("d2_1", "fusion", 0x14c230c6a5333b2a),
    ("d2_1", "s0 seq", 0x012106a7ed66eea4),
    ("d2_1", "s0 par3", 0x012106a7ed66eea4),
    ("d2_1", "s0 tile2", 0x012106a7ed66eea4),
    ("d2_1", "s0 tile32", 0x012106a7ed66eea4),
];

/// FNV-1a over the little-endian bits of every element, tensor after
/// tensor.
fn digest<'a>(tensors: impl IntoIterator<Item = &'a Tensor>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for t in tensors {
        for v in t.data() {
            for b in v.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn digest_named(outputs: &[(String, Tensor)]) -> u64 {
    digest(outputs.iter().map(|(_, t)| t))
}

/// The program's operands, looked up by name (every statement of the
/// reduced set reads only external inputs).
fn operands<'a>(program: &TcrProgram, inputs: &'a [(String, Tensor)]) -> Vec<&'a Tensor> {
    program
        .input_ids()
        .iter()
        .map(|&id| {
            let name = &program.arrays[id].name;
            &inputs.iter().find(|(n, _)| n == name).unwrap().1
        })
        .collect()
}

fn reduced_set() -> Vec<Workload> {
    vec![
        kernels::eqn1(6),
        kernels::lg3(4, 2),
        kernels::lg3t(4, 2),
        kernels::tce_ex(4),
        kernels::nwchem_s1(1, 4),
        kernels::nwchem_d1(1, 4),
        kernels::nwchem_d2(1, 4),
    ]
}

fn actual() -> Vec<(String, String, u64)> {
    let arch = gpusim::k20();
    let mut rows = Vec::new();
    for w in reduced_set() {
        let inputs = w.random_inputs(7);
        let tuner = WorkloadTuner::build(&w);
        let mut params = TuneParams::quick();
        params.threads = 1;
        let tuned = tuner.autotune(&arch, params).unwrap();
        let mut row = |executor: String, d: u64| rows.push((w.name.clone(), executor, d));
        row(
            "tuned".into(),
            digest_named(&tuned.execute(&w, &inputs).unwrap()),
        );
        for threads in [1, 4] {
            let got = cpu::execute_workload_cpu(&w, &inputs, threads).unwrap();
            row(format!("cpu{threads}"), digest_named(&got));
        }
        let fused = fusionopt::execute_with_fusion(&tuned, &w, &arch, &inputs).unwrap();
        row("fusion".into(), digest_named(&fused));
        for (s, st) in tuner.statements.iter().enumerate() {
            let p = &st.variants[0].program;
            let ins = operands(p, &inputs);
            let one = |t: Tensor| digest([&t]);
            row(
                format!("s{s} seq"),
                one(cpusim::execute_sequential(p, &ins)),
            );
            row(
                format!("s{s} par3"),
                one(cpusim::execute_parallel(p, &ins, 3)),
            );
            row(
                format!("s{s} tile2"),
                one(cpusim::execute_tiled(p, &ins, 2)),
            );
            row(
                format!("s{s} tile{}", cpusim::tiled::DEFAULT_TILE),
                one(cpusim::execute_tiled(p, &ins, cpusim::tiled::DEFAULT_TILE)),
            );
            if let Some(k) = tcr::fusion::build_fused(p) {
                row(
                    format!("s{s} fused"),
                    one(gpusim::execute_fused_program(&k, p, &ins)),
                );
            }
        }
    }
    rows
}

#[test]
fn every_executor_keeps_its_output_bits() {
    let got = actual();
    let table: String = got
        .iter()
        .map(|(w, e, d)| format!("    ({w:?}, {e:?}, 0x{d:016x}),\n"))
        .collect();
    let want: Vec<(String, String, u64)> = GOLDEN
        .iter()
        .map(|&(w, e, d)| (w.to_string(), e.to_string(), d))
        .collect();
    assert_eq!(got, want, "actual digests:\n{table}");
}
