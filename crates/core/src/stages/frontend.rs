//! Stage 1 — frontend: the identity of a parsed, validated workload.
//!
//! [`Workload::parse`] parses and validates DSL source; this stage gives
//! the result a deterministic fingerprint over its canonical source and
//! extents. The fingerprint is what lets a saved
//! [`crate::plan::TunedPlan`] prove at replay time that it was tuned for
//! *this* computation and not a stale or edited one, and what a
//! [`crate::session::TuningSession`] files each workload's record under.
//! [`crate::pipeline::WorkloadTuner::build`] computes it once per workload.

use crate::workload::Workload;

/// Canonical DSL text of a workload: every statement printed by its
/// `Display` form, one per line. Parsing this text back yields an equivalent
/// workload, so it doubles as the replayable source embedded in saved plans.
pub fn canonical_source(w: &Workload) -> String {
    let lines: Vec<String> = w.statements.iter().map(|s| s.to_string()).collect();
    lines.join("\n")
}

/// Deterministic fingerprint of a workload: FNV-1a over the canonical
/// source and the extent map (ordered — `IndexMap` is a `BTreeMap`). The
/// workload *name* is deliberately excluded: renaming a workload does not
/// change what was tuned.
pub fn workload_fingerprint(w: &Workload) -> u64 {
    let mut h: u64 = 0xCBF29CE484222325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001B3);
        }
    };
    eat(canonical_source(w).as_bytes());
    for (var, extent) in &w.dims {
        eat(b"\n");
        eat(var.name().as_bytes());
        eat(b"=");
        eat(extent.to_string().as_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::index::uniform_dims;

    fn mm(n: usize) -> Workload {
        Workload::parse(
            "mm",
            "C[i k] = Sum([j], A[i j] * B[j k])",
            &uniform_dims(&["i", "j", "k"], n),
        )
        .unwrap()
    }

    #[test]
    fn canonical_source_reparses_to_same_fingerprint() {
        let c = mm(8);
        let again = Workload::parse("renamed", &canonical_source(&c), &c.dims).unwrap();
        assert_eq!(workload_fingerprint(&c), workload_fingerprint(&again));
    }

    #[test]
    fn fingerprint_tracks_source_and_extents() {
        let a = mm(8);
        let b = mm(16); // same source, different extents
        assert_ne!(workload_fingerprint(&a), workload_fingerprint(&b));
        let c = Workload::parse(
            "mm",
            "C[i k] = Sum([j], A[k i] * B[j k])",
            &uniform_dims(&["i", "j", "k"], 8),
        )
        .unwrap();
        assert_ne!(workload_fingerprint(&a), workload_fingerprint(&c));
    }

    #[test]
    fn fingerprint_ignores_the_name() {
        let a = mm(8);
        let b = Workload::parse(
            "completely_different",
            "C[i k] = Sum([j], A[i j] * B[j k])",
            &uniform_dims(&["i", "j", "k"], 8),
        )
        .unwrap();
        assert_eq!(workload_fingerprint(&a), workload_fingerprint(&b));
    }
}
