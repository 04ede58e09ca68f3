//! Architecture descriptors as data: a hand-rolled TOML subset, a canonical
//! serialization, and a content digest that makes plan-store addressing
//! self-invalidating.
//!
//! Every [`GpuArch`] field is representable in a flat `key = value` TOML
//! file (strings, integers, floats; `#` comments; any key order). Parsing
//! follows the same discipline as the repo's hand-rolled JSON module: a
//! small recursive-descent reader, typed errors, no external crates, and a
//! canonical writer whose output round-trips bit-losslessly (floats are
//! printed with Rust's shortest-roundtrip `Display` and re-read with the
//! correctly-rounded parser).
//!
//! [`ArchDescriptor::digest`] is FNV-1a over the canonical serialization —
//! *not* over the file text — so formatting, comments, and key order never
//! change the digest, while any change to any field value always does.
//! Backends derive their plan-store cache salt from this digest: editing a
//! descriptor therefore retires every plan tuned against the old numbers.

use crate::arch::GpuArch;
use std::fmt;
use std::path::Path;

/// A typed failure while reading or validating a descriptor file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DescriptorError {
    /// The file could not be read at all.
    Io { path: String, detail: String },
    /// A line did not lex as `key = value`, a comment, or a blank.
    Syntax { line: usize, detail: String },
    /// A field was unknown, duplicated, missing, or had a malformed value.
    Field { field: String, detail: String },
    /// The fields parsed but describe a machine the simulator rejects.
    Validate { field: String, detail: String },
}

impl fmt::Display for DescriptorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DescriptorError::Io { path, detail } => {
                write!(f, "cannot read descriptor {path}: {detail}")
            }
            DescriptorError::Syntax { line, detail } => {
                write!(f, "descriptor syntax error at line {line}: {detail}")
            }
            DescriptorError::Field { field, detail } => {
                write!(f, "descriptor field `{field}`: {detail}")
            }
            DescriptorError::Validate { field, detail } => {
                write!(f, "descriptor validation failed on `{field}`: {detail}")
            }
        }
    }
}

impl std::error::Error for DescriptorError {}

/// FNV-1a offset basis (also the fallback for the astronomically unlikely
/// zero digest — a plan whose salt reads zero must match no backend).
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a over a byte string, as used for cache salts everywhere else in
/// the workspace.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Invokes `$m!(field_name, Kind)` once per [`GpuArch`] field, in canonical
/// (struct-declaration) order. The single source of truth for the
/// descriptor schema: parser, serializer, and field list all expand from
/// this macro, so they cannot drift.
macro_rules! for_each_arch_field {
    ($m:ident) => {
        $m!(name, Str);
        $m!(key, Str);
        $m!(generation, Str);
        $m!(sm_count, U32);
        $m!(clock_ghz, F64);
        $m!(dp_flops_per_cycle_per_sm, F64);
        $m!(issue_lanes_per_cycle_per_sm, F64);
        $m!(mem_bw_gbs, F64);
        $m!(l2_bytes, U64);
        $m!(l2_bw_gbs, F64);
        $m!(smem_per_sm, U32);
        $m!(max_threads_per_sm, U32);
        $m!(max_blocks_per_sm, U32);
        $m!(max_warps_per_sm, U32);
        $m!(regs_per_sm, U32);
        $m!(warp_size, U32);
        $m!(transaction_bytes, U32);
        $m!(kernel_launch_us, F64);
        $m!(pcie_bw_gbs, F64);
        $m!(pcie_latency_us, F64);
        $m!(dp_latency_cycles, F64);
        $m!(l2_latency_cycles, F64);
        $m!(compile_seconds, F64);
    };
}

/// Every descriptor field name, in canonical order. Exposed so tests and
/// tooling can enumerate the schema without re-stating it.
pub const FIELD_NAMES: &[&str] = &[
    "name",
    "key",
    "generation",
    "sm_count",
    "clock_ghz",
    "dp_flops_per_cycle_per_sm",
    "issue_lanes_per_cycle_per_sm",
    "mem_bw_gbs",
    "l2_bytes",
    "l2_bw_gbs",
    "smem_per_sm",
    "max_threads_per_sm",
    "max_blocks_per_sm",
    "max_warps_per_sm",
    "regs_per_sm",
    "warp_size",
    "transaction_bytes",
    "kernel_launch_us",
    "pcie_bw_gbs",
    "pcie_latency_us",
    "dp_latency_cycles",
    "l2_latency_cycles",
    "compile_seconds",
];

/// A validated, canonically serializable view of one [`GpuArch`].
#[derive(Clone, Debug, PartialEq)]
pub struct ArchDescriptor {
    arch: GpuArch,
}

impl ArchDescriptor {
    /// Wraps an in-memory architecture without re-validating it (the three
    /// built-ins and programmatic callers are trusted).
    pub fn from_arch(arch: GpuArch) -> Self {
        ArchDescriptor { arch }
    }

    pub fn arch(&self) -> &GpuArch {
        &self.arch
    }

    pub fn into_arch(self) -> GpuArch {
        self.arch
    }

    /// The registry key this descriptor answers to.
    pub fn key(&self) -> &str {
        &self.arch.key
    }

    /// Reads and parses a descriptor file from disk.
    pub fn load(path: &Path) -> Result<Self, DescriptorError> {
        let text = std::fs::read_to_string(path).map_err(|e| DescriptorError::Io {
            path: path.display().to_string(),
            detail: e.to_string(),
        })?;
        Self::parse_toml(&text)
    }

    /// Parses the TOML subset: blank lines, `#` comments (whole-line or
    /// trailing), and flat `key = value` pairs in any order. Unknown,
    /// duplicated, or missing keys are errors; so is trailing garbage.
    pub fn parse_toml(text: &str) -> Result<Self, DescriptorError> {
        #[derive(Default)]
        struct Slots {
            name: Option<String>,
            key: Option<String>,
            generation: Option<String>,
            sm_count: Option<u32>,
            clock_ghz: Option<f64>,
            dp_flops_per_cycle_per_sm: Option<f64>,
            issue_lanes_per_cycle_per_sm: Option<f64>,
            mem_bw_gbs: Option<f64>,
            l2_bytes: Option<u64>,
            l2_bw_gbs: Option<f64>,
            smem_per_sm: Option<u32>,
            max_threads_per_sm: Option<u32>,
            max_blocks_per_sm: Option<u32>,
            max_warps_per_sm: Option<u32>,
            regs_per_sm: Option<u32>,
            warp_size: Option<u32>,
            transaction_bytes: Option<u32>,
            kernel_launch_us: Option<f64>,
            pcie_bw_gbs: Option<f64>,
            pcie_latency_us: Option<f64>,
            dp_latency_cycles: Option<f64>,
            l2_latency_cycles: Option<f64>,
            compile_seconds: Option<f64>,
        }
        let mut slots = Slots::default();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let eq = line.find('=').ok_or_else(|| DescriptorError::Syntax {
                line: lineno,
                detail: "expected `key = value`".to_string(),
            })?;
            let key = line[..eq].trim();
            let rest = line[eq + 1..].trim_start();
            let mut matched = false;
            macro_rules! parse_into {
                ($f:ident, Str) => {
                    if !matched && key == stringify!($f) {
                        matched = true;
                        if slots.$f.is_some() {
                            return Err(dup_field(stringify!($f), lineno));
                        }
                        slots.$f = Some(parse_string(stringify!($f), rest)?);
                    }
                };
                ($f:ident, U32) => {
                    if !matched && key == stringify!($f) {
                        matched = true;
                        if slots.$f.is_some() {
                            return Err(dup_field(stringify!($f), lineno));
                        }
                        slots.$f = Some(parse_u32(stringify!($f), rest)?);
                    }
                };
                ($f:ident, U64) => {
                    if !matched && key == stringify!($f) {
                        matched = true;
                        if slots.$f.is_some() {
                            return Err(dup_field(stringify!($f), lineno));
                        }
                        slots.$f = Some(parse_u64(stringify!($f), rest)?);
                    }
                };
                ($f:ident, F64) => {
                    if !matched && key == stringify!($f) {
                        matched = true;
                        if slots.$f.is_some() {
                            return Err(dup_field(stringify!($f), lineno));
                        }
                        slots.$f = Some(parse_f64(stringify!($f), rest)?);
                    }
                };
            }
            for_each_arch_field!(parse_into);
            if !matched {
                return Err(DescriptorError::Field {
                    field: key.to_string(),
                    detail: format!("unknown field at line {lineno}"),
                });
            }
        }
        macro_rules! take {
            ($f:ident) => {
                slots.$f.ok_or_else(|| DescriptorError::Field {
                    field: stringify!($f).to_string(),
                    detail: "missing".to_string(),
                })?
            };
        }
        let arch = GpuArch {
            name: take!(name),
            key: take!(key),
            generation: take!(generation),
            sm_count: take!(sm_count),
            clock_ghz: take!(clock_ghz),
            dp_flops_per_cycle_per_sm: take!(dp_flops_per_cycle_per_sm),
            issue_lanes_per_cycle_per_sm: take!(issue_lanes_per_cycle_per_sm),
            mem_bw_gbs: take!(mem_bw_gbs),
            l2_bytes: take!(l2_bytes),
            l2_bw_gbs: take!(l2_bw_gbs),
            smem_per_sm: take!(smem_per_sm),
            max_threads_per_sm: take!(max_threads_per_sm),
            max_blocks_per_sm: take!(max_blocks_per_sm),
            max_warps_per_sm: take!(max_warps_per_sm),
            regs_per_sm: take!(regs_per_sm),
            warp_size: take!(warp_size),
            transaction_bytes: take!(transaction_bytes),
            kernel_launch_us: take!(kernel_launch_us),
            pcie_bw_gbs: take!(pcie_bw_gbs),
            pcie_latency_us: take!(pcie_latency_us),
            dp_latency_cycles: take!(dp_latency_cycles),
            l2_latency_cycles: take!(l2_latency_cycles),
            compile_seconds: take!(compile_seconds),
        };
        validate(&arch)?;
        Ok(ArchDescriptor { arch })
    }

    /// The canonical serialization: every field in declaration order, one
    /// `key = value` per line, strings quoted/escaped, floats printed with
    /// shortest-roundtrip `Display`. Parsing this text reproduces the
    /// descriptor bit-for-bit.
    pub fn canonical_toml(&self) -> String {
        let a = &self.arch;
        let mut s = String::new();
        macro_rules! emit {
            ($f:ident, Str) => {
                s.push_str(stringify!($f));
                s.push_str(" = ");
                quote_into(&mut s, &a.$f);
                s.push('\n');
            };
            ($f:ident, U32) => {
                s.push_str(&format!("{} = {}\n", stringify!($f), a.$f));
            };
            ($f:ident, U64) => {
                s.push_str(&format!("{} = {}\n", stringify!($f), a.$f));
            };
            ($f:ident, F64) => {
                s.push_str(&format!("{} = {}\n", stringify!($f), a.$f));
            };
        }
        for_each_arch_field!(emit);
        s
    }

    /// Content digest: FNV-1a over [`Self::canonical_toml`]. Two
    /// descriptors share a digest iff every field is bit-identical;
    /// whitespace, comments, and key order in the source file are
    /// irrelevant. Never 0: a plan whose salt reads zero must match no
    /// backend.
    pub fn digest(&self) -> u64 {
        match fnv1a(self.canonical_toml().as_bytes()) {
            0 => FNV_OFFSET,
            h => h,
        }
    }
}

fn dup_field(field: &str, line: usize) -> DescriptorError {
    DescriptorError::Field {
        field: field.to_string(),
        detail: format!("duplicate at line {line}"),
    }
}

/// After a value token, only whitespace or a trailing comment may remain.
fn ensure_tail(field: &str, tail: &str) -> Result<(), DescriptorError> {
    let t = tail.trim_start();
    if t.is_empty() || t.starts_with('#') {
        Ok(())
    } else {
        Err(DescriptorError::Field {
            field: field.to_string(),
            detail: format!("trailing garbage after value: `{t}`"),
        })
    }
}

/// Parses a quoted TOML basic string with `\" \\ \n \t \r` escapes.
fn parse_string(field: &str, rest: &str) -> Result<String, DescriptorError> {
    let bad = |detail: &str| DescriptorError::Field {
        field: field.to_string(),
        detail: detail.to_string(),
    };
    let mut chars = rest.char_indices();
    match chars.next() {
        Some((_, '"')) => {}
        _ => return Err(bad("expected a quoted string")),
    }
    let mut out = String::new();
    let mut escaped = false;
    for (i, c) in chars {
        if escaped {
            match c {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'r' => out.push('\r'),
                other => return Err(bad(&format!("unsupported escape `\\{other}`"))),
            }
            escaped = false;
        } else if c == '\\' {
            escaped = true;
        } else if c == '"' {
            ensure_tail(field, &rest[i + 1..])?;
            return Ok(out);
        } else {
            out.push(c);
        }
    }
    Err(bad("unterminated string"))
}

/// Splits the bare (unquoted) value token off `rest` and checks the tail.
fn bare_token<'a>(field: &str, rest: &'a str) -> Result<&'a str, DescriptorError> {
    let end = rest
        .find(|c: char| c.is_whitespace() || c == '#')
        .unwrap_or(rest.len());
    let tok = &rest[..end];
    if tok.is_empty() {
        return Err(DescriptorError::Field {
            field: field.to_string(),
            detail: "missing value".to_string(),
        });
    }
    ensure_tail(field, &rest[end..])?;
    Ok(tok)
}

fn parse_u64(field: &str, rest: &str) -> Result<u64, DescriptorError> {
    let tok = bare_token(field, rest)?.replace('_', "");
    tok.parse::<u64>().map_err(|_| DescriptorError::Field {
        field: field.to_string(),
        detail: format!("expected an unsigned integer, got `{tok}`"),
    })
}

fn parse_u32(field: &str, rest: &str) -> Result<u32, DescriptorError> {
    let v = parse_u64(field, rest)?;
    u32::try_from(v).map_err(|_| DescriptorError::Field {
        field: field.to_string(),
        detail: format!("{v} does not fit in 32 bits"),
    })
}

fn parse_f64(field: &str, rest: &str) -> Result<f64, DescriptorError> {
    let tok = bare_token(field, rest)?.replace('_', "");
    // Rust's f64 parser is correctly rounded, so together with the
    // shortest-roundtrip Display used by the canonical writer the text
    // form is bit-lossless. `inf`/`nan` are rejected by validation.
    tok.parse::<f64>().map_err(|_| DescriptorError::Field {
        field: field.to_string(),
        detail: format!("expected a number, got `{tok}`"),
    })
}

/// Appends a TOML basic-string rendering of `v`.
fn quote_into(out: &mut String, v: &str) {
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            other => out.push(other),
        }
    }
    out.push('"');
}

/// Physical sanity: strings non-empty, the key filename/CLI-safe, every
/// numeric quantity finite and strictly positive. Deliberately loose —
/// descriptors describe hypothetical machines too.
fn validate(arch: &GpuArch) -> Result<(), DescriptorError> {
    let err = |field: &str, detail: String| {
        Err(DescriptorError::Validate {
            field: field.to_string(),
            detail,
        })
    };
    if arch.name.is_empty() {
        return err("name", "must be non-empty".to_string());
    }
    if arch.generation.is_empty() {
        return err("generation", "must be non-empty".to_string());
    }
    if arch.key.is_empty() {
        return err("key", "must be non-empty".to_string());
    }
    if !arch
        .key
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
    {
        return err(
            "key",
            format!("`{}` may only contain [A-Za-z0-9._-]", arch.key),
        );
    }
    macro_rules! check {
        ($f:ident, Str) => {};
        ($f:ident, U32) => {
            if arch.$f == 0 {
                return err(stringify!($f), "must be positive".to_string());
            }
        };
        ($f:ident, U64) => {
            if arch.$f == 0 {
                return err(stringify!($f), "must be positive".to_string());
            }
        };
        ($f:ident, F64) => {
            if !(arch.$f.is_finite() && arch.$f > 0.0) {
                return err(
                    stringify!($f),
                    format!("must be finite and positive, got {}", arch.$f),
                );
            }
        };
    }
    for_each_arch_field!(check);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::k20;

    #[test]
    fn canonical_form_roundtrips_bit_exactly() {
        let d = ArchDescriptor::from_arch(k20());
        let text = d.canonical_toml();
        let back = ArchDescriptor::parse_toml(&text).unwrap();
        assert_eq!(d, back);
        assert_eq!(text, back.canonical_toml());
        assert_eq!(d.digest(), back.digest());
    }

    #[test]
    fn canonical_field_order_matches_schema() {
        let text = ArchDescriptor::from_arch(k20()).canonical_toml();
        let keys: Vec<&str> = text
            .lines()
            .map(|l| l.split('=').next().unwrap().trim())
            .collect();
        assert_eq!(keys, FIELD_NAMES);
    }

    #[test]
    fn comments_whitespace_and_key_order_do_not_change_the_digest() {
        let d = ArchDescriptor::from_arch(k20());
        let canonical = d.canonical_toml();
        let mut lines: Vec<&str> = canonical.lines().collect();
        lines.reverse();
        let mut scrambled = String::from("# a leading comment\n\n");
        for l in lines {
            scrambled.push_str("  ");
            scrambled.push_str(l);
            scrambled.push_str("   # trailing note\n\n");
        }
        let back = ArchDescriptor::parse_toml(&scrambled).unwrap();
        assert_eq!(back.digest(), d.digest());
        assert_eq!(back, d);
    }

    #[test]
    fn unknown_duplicate_missing_fields_are_typed_errors() {
        let d = ArchDescriptor::from_arch(k20());
        let canonical = d.canonical_toml();
        let unknown = format!("{canonical}bogus = 1\n");
        assert!(matches!(
            ArchDescriptor::parse_toml(&unknown),
            Err(DescriptorError::Field { ref field, .. }) if field == "bogus"
        ));
        let dup = format!("{canonical}sm_count = 13\n");
        assert!(matches!(
            ArchDescriptor::parse_toml(&dup),
            Err(DescriptorError::Field { ref field, .. }) if field == "sm_count"
        ));
        let missing: String = canonical.lines().skip(1).fold(String::new(), |mut s, l| {
            s.push_str(l);
            s.push('\n');
            s
        });
        assert!(matches!(
            ArchDescriptor::parse_toml(&missing),
            Err(DescriptorError::Field { ref field, .. }) if field == "name"
        ));
    }

    #[test]
    fn validation_rejects_nonphysical_machines() {
        let canonical = ArchDescriptor::from_arch(k20()).canonical_toml();
        let zero_clock = canonical.replace("clock_ghz = 0.706", "clock_ghz = 0");
        assert!(matches!(
            ArchDescriptor::parse_toml(&zero_clock),
            Err(DescriptorError::Validate { ref field, .. }) if field == "clock_ghz"
        ));
        let bad_key = canonical.replace("key = \"k20\"", "key = \"k 20\"");
        assert!(matches!(
            ArchDescriptor::parse_toml(&bad_key),
            Err(DescriptorError::Validate { ref field, .. }) if field == "key"
        ));
    }

    #[test]
    fn digest_is_never_the_feature_memo_salt() {
        assert_ne!(ArchDescriptor::from_arch(k20()).digest(), 0);
    }
}
