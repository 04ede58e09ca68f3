//! Property tests for [`gpusim::ArchDescriptor`]: the hand-rolled TOML
//! canonicalization must round-trip arbitrary valid descriptors
//! losslessly, the content digest must ignore everything that is not a
//! field value (key order, whitespace, comments), and *every* single
//! field edit must change the digest — that is what makes the digest a
//! safe plan-store cache salt. The model itself must not panic under
//! any descriptor validation accepts, however extreme.

use std::panic::{catch_unwind, AssertUnwindSafe};

use gpusim::descriptor::FIELD_NAMES;
use gpusim::{kernel_time_s, validate_kernel, ArchDescriptor, GpuArch};
use proptest::prelude::*;
use tcr::mapping::{map_kernel, MappedKernel};
use tcr::space::ProgramSpace;
use tcr::TcrProgram;
use tensor::index::uniform_dims;

/// Characters legal in every string field (the key charset is the
/// restrictive one: `[A-Za-z0-9._-]`).
const IDENT_CHARS: &[char] = &[
    'a', 'b', 'z', 'A', 'Z', '0', '9', '.', '_', '-', 'G', 'T', 'X', 'k',
];

fn ident() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..IDENT_CHARS.len(), 1..16)
        .prop_map(|ixs| ixs.into_iter().map(|i| IDENT_CHARS[i]).collect())
}

/// Strictly positive floats that are exactly representable with a short
/// decimal fraction (≤ 10 digits) and bounded magnitude (< 1024), so a
/// textual edit that appends one digit (at the 1e-11 scale or larger)
/// is guaranteed to move the value by more than half an ULP.
fn pos_f64() -> impl Strategy<Value = f64> {
    (1u64..=1_000_000).prop_map(|n| n as f64 / 1024.0)
}

fn small_u32() -> impl Strategy<Value = u32> {
    1u32..=1_000_000
}

fn small_u64() -> impl Strategy<Value = u64> {
    1u64..=1_000_000_000_000
}

/// An arbitrary *valid* architecture: every string nonempty and in the
/// key charset, every numeric strictly positive.
#[allow(clippy::type_complexity)]
fn arch() -> impl Strategy<Value = GpuArch> {
    (
        (ident(), ident(), ident()),
        (small_u32(), pos_f64(), pos_f64(), pos_f64(), pos_f64()),
        (small_u64(), pos_f64(), small_u32(), small_u32()),
        (
            small_u32(),
            small_u32(),
            small_u32(),
            small_u32(),
            small_u32(),
        ),
        (
            pos_f64(),
            pos_f64(),
            pos_f64(),
            pos_f64(),
            pos_f64(),
            pos_f64(),
        ),
    )
        .prop_map(
            |(
                (name, key, generation),
                (sm_count, clock_ghz, dp_flops, issue_lanes, mem_bw),
                (l2_bytes, l2_bw, smem_per_sm, max_threads),
                (max_blocks, max_warps, regs_per_sm, warp_size, txn_bytes),
                (launch_us, pcie_bw, pcie_lat, dp_lat, l2_lat, compile_s),
            )| {
                let mut a = gpusim::k20();
                a.name = name;
                a.key = key;
                a.generation = generation;
                a.sm_count = sm_count;
                a.clock_ghz = clock_ghz;
                a.dp_flops_per_cycle_per_sm = dp_flops;
                a.issue_lanes_per_cycle_per_sm = issue_lanes;
                a.mem_bw_gbs = mem_bw;
                a.l2_bytes = l2_bytes;
                a.l2_bw_gbs = l2_bw;
                a.smem_per_sm = smem_per_sm;
                a.max_threads_per_sm = max_threads;
                a.max_blocks_per_sm = max_blocks;
                a.max_warps_per_sm = max_warps;
                a.regs_per_sm = regs_per_sm;
                a.warp_size = warp_size;
                a.transaction_bytes = txn_bytes;
                a.kernel_launch_us = launch_us;
                a.pcie_bw_gbs = pcie_bw;
                a.pcie_latency_us = pcie_lat;
                a.dp_latency_cycles = dp_lat;
                a.l2_latency_cycles = l2_lat;
                a.compile_seconds = compile_s;
                a
            },
        )
}

/// Deterministic Fisher–Yates with a splitmix-style generator, so line
/// permutations come from a plain u64 seed.
fn shuffle(lines: &mut [String], mut seed: u64) {
    let mut next = || {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..lines.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        lines.swap(i, j);
    }
}

proptest! {
    /// TOML → descriptor → TOML is lossless: the reparse is equal (so
    /// every f64 bit survives the text round trip) and re-serializes to
    /// byte-identical text.
    #[test]
    fn canonical_toml_round_trips_losslessly(a in arch()) {
        let d = ArchDescriptor::from_arch(a);
        let text = d.canonical_toml();
        let back = ArchDescriptor::parse_toml(&text)
            .expect("canonical text must reparse");
        prop_assert_eq!(&back, &d);
        prop_assert_eq!(back.canonical_toml(), text);
    }

    /// The digest depends only on field values: reordering the lines,
    /// changing the whitespace around `=`, and sprinkling whole-line and
    /// trailing comments leaves it untouched.
    #[test]
    fn digest_ignores_key_order_whitespace_and_comments(
        a in arch(),
        seed in 0u64..=u64::MAX,
        pad in 0usize..4,
    ) {
        let d = ArchDescriptor::from_arch(a);
        let mut lines: Vec<String> =
            d.canonical_toml().lines().map(str::to_string).collect();
        shuffle(&mut lines, seed);
        let mut text = String::from("# architecture descriptor\n\n");
        for line in &lines {
            let (key, value) = line.split_once(" = ")
                .expect("canonical lines are `key = value`");
            text.push_str(&" ".repeat(pad));
            text.push_str(key);
            text.push_str(&" ".repeat(pad));
            text.push('=');
            text.push_str(&" ".repeat(pad));
            text.push_str(value);
            text.push_str("  # trailing note\n\n");
        }
        let back = ArchDescriptor::parse_toml(&text)
            .expect("reformatted text must reparse");
        prop_assert_eq!(back.digest(), d.digest());
        prop_assert_eq!(&back, &d);
    }

    /// Editing any single field — whichever one — produces a different
    /// digest, so an edited descriptor file can never address the plans
    /// its predecessor wrote.
    #[test]
    fn any_single_field_edit_changes_the_digest(
        a in arch(),
        field_ix in 0usize..FIELD_NAMES.len(),
    ) {
        let d = ArchDescriptor::from_arch(a);
        let field = FIELD_NAMES[field_ix];
        let prefix = format!("{field} = ");
        let mut edited = String::new();
        let mut hits = 0;
        for line in d.canonical_toml().lines() {
            if line.starts_with(&prefix) {
                hits += 1;
                if let Some(unquoted) = line.strip_suffix('"') {
                    // String field: append a character inside the quotes.
                    edited.push_str(unquoted);
                    edited.push_str("x\"\n");
                } else {
                    // Numeric field: append a digit (the strategies keep
                    // values small enough that this always changes the
                    // parsed value without overflowing).
                    edited.push_str(line);
                    edited.push_str("1\n");
                }
            } else {
                edited.push_str(line);
                edited.push('\n');
            }
        }
        prop_assert_eq!(hits, 1, "field {} must appear exactly once", field);
        let back = ArchDescriptor::parse_toml(&edited)
            .expect("edited text must still be a valid descriptor");
        prop_assert_ne!(back.digest(), d.digest());
    }
}

/// A descriptor field's name, with a handle to set it.
type Field<T> = (&'static str, fn(&mut GpuArch) -> &mut T);

/// Every integer field of the descriptor schema but the one `u64`
/// (`l2_bytes`).
const U32_FIELDS: &[Field<u32>] = &[
    ("sm_count", |a| &mut a.sm_count),
    ("smem_per_sm", |a| &mut a.smem_per_sm),
    ("max_threads_per_sm", |a| &mut a.max_threads_per_sm),
    ("max_blocks_per_sm", |a| &mut a.max_blocks_per_sm),
    ("max_warps_per_sm", |a| &mut a.max_warps_per_sm),
    ("regs_per_sm", |a| &mut a.regs_per_sm),
    ("warp_size", |a| &mut a.warp_size),
    ("transaction_bytes", |a| &mut a.transaction_bytes),
];

/// Every float field of the descriptor schema.
const F64_FIELDS: &[Field<f64>] = &[
    ("clock_ghz", |a| &mut a.clock_ghz),
    ("dp_flops_per_cycle_per_sm", |a| {
        &mut a.dp_flops_per_cycle_per_sm
    }),
    ("issue_lanes_per_cycle_per_sm", |a| {
        &mut a.issue_lanes_per_cycle_per_sm
    }),
    ("mem_bw_gbs", |a| &mut a.mem_bw_gbs),
    ("l2_bw_gbs", |a| &mut a.l2_bw_gbs),
    ("kernel_launch_us", |a| &mut a.kernel_launch_us),
    ("pcie_bw_gbs", |a| &mut a.pcie_bw_gbs),
    ("pcie_latency_us", |a| &mut a.pcie_latency_us),
    ("dp_latency_cycles", |a| &mut a.dp_latency_cycles),
    ("l2_latency_cycles", |a| &mut a.l2_latency_cycles),
    ("compile_seconds", |a| &mut a.compile_seconds),
];

/// K20 with one numeric field moved to each extreme validation accepts:
/// an integer at 1 and at its type's maximum, a float at `f64::MAX` and
/// at `f64::MIN_POSITIVE`. Each is labelled `field = value`.
fn extreme_archs() -> Vec<(String, GpuArch)> {
    let mut out = Vec::new();
    let mut push = |label: String, edit: &dyn Fn(&mut GpuArch)| {
        let mut a = gpusim::k20();
        edit(&mut a);
        out.push((label, a));
    };
    for &(name, field) in U32_FIELDS {
        for v in [1, u32::MAX] {
            push(format!("{name} = {v}"), &|a| *field(a) = v);
        }
    }
    for v in [1, u64::MAX] {
        push(format!("l2_bytes = {v}"), &|a| a.l2_bytes = v);
    }
    for &(name, field) in F64_FIELDS {
        for v in [f64::MAX, f64::MIN_POSITIVE] {
            push(format!("{name} = {v:e}"), &|a| *field(a) = v);
        }
    }
    out
}

/// Mapped kernels of Eqn. (1) and the TCE example at the builtins'
/// extent 10: every version of each, with an evenly strided sample of
/// each statement's configurations.
fn sampled_kernels() -> Vec<MappedKernel> {
    let sources: [(&str, &[&str]); 2] = [
        (
            "V[i j k] = Sum([l m n], A[l k] * B[m j] * C[n i] * U[l m n])",
            &["i", "j", "k", "l", "m", "n"],
        ),
        (
            "S[a b i j] = Sum([c d e f k l], A[a c i k] * B[b e f l] * C[d f j k] * D[c d e l])",
            &["a", "b", "c", "d", "e", "f", "i", "j", "k", "l"],
        ),
    ];
    let mut kernels = Vec::new();
    for (src, indices) in sources {
        let dims = uniform_dims(indices, 10);
        let program = octopi::parse_program(src).expect("builtin source parses");
        let statement = &program.statements[0];
        for f in octopi::enumerate_factorizations(statement, &dims) {
            let p = TcrProgram::from_factorization("sample", statement, &f, &dims);
            let space = ProgramSpace::build(&p).expect("builtin space builds");
            for (op, op_space) in space.per_op.iter().enumerate() {
                let step = (op_space.len() / 8).max(1);
                for choice in (0..op_space.len()).step_by(step) {
                    if let Ok(k) = map_kernel(&p, op, op_space.config(choice), false) {
                        kernels.push(k);
                    }
                }
            }
        }
    }
    kernels
}

/// Under a valid but extreme descriptor the model answers: a typed
/// refusal or a time, never a panic (an integer overflow in a debug
/// build) or an abort (an allocation sized by a descriptor field).
#[test]
fn extreme_descriptors_never_panic_the_model() {
    let mut listed: Vec<&str> = ["name", "key", "generation", "l2_bytes"]
        .into_iter()
        .chain(U32_FIELDS.iter().map(|f| f.0))
        .chain(F64_FIELDS.iter().map(|f| f.0))
        .collect();
    listed.sort_unstable();
    let mut schema = FIELD_NAMES.to_vec();
    schema.sort_unstable();
    assert_eq!(
        listed, schema,
        "every numeric field is moved to its extremes"
    );
    let kernels = sampled_kernels();
    assert!(kernels.len() > 100, "{} kernels sampled", kernels.len());
    let mut panicked = Vec::new();
    for (label, arch) in extreme_archs() {
        let text = ArchDescriptor::from_arch(arch).canonical_toml();
        let arch = ArchDescriptor::parse_toml(&text)
            .unwrap_or_else(|e| panic!("validation must accept {label}: {e}"))
            .into_arch();
        let ran = catch_unwind(AssertUnwindSafe(|| {
            for k in &kernels {
                let _ = validate_kernel(k, &arch);
                let _ = kernel_time_s(k, &arch);
            }
        }));
        if ran.is_err() {
            panicked.push(label);
        }
    }
    assert!(panicked.is_empty(), "the model panicked under {panicked:?}");
}
