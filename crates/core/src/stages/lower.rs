//! Stage 2 — lower: the joint configuration space over every statement's
//! OCTOPI versions × TCR configurations.
//!
//! [`crate::pipeline::WorkloadTuner::build`] lowers a workload into one
//! [`StatementTuner`] per statement. The joint configuration space is the
//! mixed-radix product of the per-statement spaces; the free functions here
//! ([`total_space`], [`decode_joint`], [`encode_joint`], [`joint_features`],
//! [`joint_flops`], [`map_joint`]) operate on any `&[StatementTuner]` slice
//! so the tuner, the evaluator and the search stage all share one
//! implementation, and a slice of one statement addresses that statement's
//! own space (decomposed tuning).

use crate::error::BarracudaError;
use crate::quarantine::QuarantineReport;
use crate::variant::StatementTuner;
use crate::workload::Workload;
use surf::TransposedPool;
use tcr::mapping::{map_programs, MapJob, MappedKernel};
use tcr::{ArrayKind, TcrProgram};

/// Total joint configurations (product of per-statement spaces).
pub fn total_space(statements: &[StatementTuner]) -> u128 {
    statements
        .iter()
        .map(|s| s.total())
        .fold(1u128, |a, b| a.saturating_mul(b))
}

/// Decodes a joint id into per-statement local ids.
pub fn decode_joint(statements: &[StatementTuner], mut id: u128) -> Vec<u128> {
    let mut locals = vec![0u128; statements.len()];
    for (k, s) in statements.iter().enumerate().rev() {
        let radix = s.total();
        locals[k] = id % radix;
        id /= radix;
    }
    locals
}

/// Inverse of [`decode_joint`]: re-encodes per-statement local ids into one
/// joint id.
pub fn encode_joint(statements: &[StatementTuner], locals: &[u128]) -> u128 {
    let mut id = 0u128;
    for (st, &local) in statements.iter().zip(locals) {
        id = id * st.total() + local;
    }
    id
}

/// Names of every binarized feature column of [`joint_features`].
pub fn binarized_feature_names(statements: &[StatementTuner]) -> Vec<String> {
    let mut out = Vec::new();
    for (k, st) in statements.iter().enumerate() {
        out.extend(
            st.binarized_feature_names()
                .into_iter()
                .map(|n| format!("s{k}.{n}")),
        );
    }
    out
}

/// Binarized features of a joint id: concatenation across statements,
/// written into one vector.
pub fn joint_features(statements: &[StatementTuner], id: u128) -> Vec<f64> {
    let locals = decode_joint(statements, id);
    let width = statements.iter().map(|s| s.feature_space().width()).sum();
    let mut out = Vec::with_capacity(width);
    for (s, &local) in statements.iter().zip(&locals) {
        s.features_into(local, &mut out);
    }
    out
}

/// The pool of `ids` transposed, row `r` being `ids[r]`: the pool
/// [`TransposedPool::from_rows`] builds from their [`joint_features`],
/// written from their configuration codes instead. Each id marks its row
/// in the bitset of every raw feature value it takes (its version and its
/// ops' slot-table values), and each statement's feature space binarizes
/// those value classes into its columns, so no feature row is built.
pub(crate) fn joint_transposed_pool(statements: &[StatementTuner], ids: &[u128]) -> TransposedPool {
    let words = ids.len().div_ceil(64);
    let mut raw: Vec<Vec<Vec<u64>>> = statements
        .iter()
        .map(|s| vec![Vec::new(); s.feature_space().features.len()])
        .collect();
    for (row, &id) in ids.iter().enumerate() {
        // `decode_joint` inline: allocating its vector per id took about
        // two-fifths of this function's time.
        let mut rest = id;
        for (s, raw) in statements.iter().zip(&mut raw).rev() {
            let radix = s.total();
            s.mark_raw_values(rest % radix, row, words, raw);
            rest /= radix;
        }
    }
    let columns = statements
        .iter()
        .zip(&raw)
        .flat_map(|(s, raw)| s.feature_space().binarize_classes(ids.len(), raw));
    TransposedPool::from_classes(ids.len(), columns)
}

/// Flops of the versions selected by a joint id.
pub fn joint_flops(statements: &[StatementTuner], id: u128) -> u64 {
    let locals = decode_joint(statements, id);
    statements
        .iter()
        .zip(&locals)
        .map(|(s, &local)| {
            let (v, _) = s.decode(local);
            s.variants[v].program.flops()
        })
        .sum()
}

/// Peak live temporary bytes of one TCR program: the largest sum of
/// simultaneously-live `Temp` arrays (f64 elements, 8 bytes each) over the
/// program's statement sequence. A temporary is live from the op that
/// produces it through the last op that consumes it; a produced-but-never-
/// consumed temporary is live only at its producing op. `Input` and
/// `Output` arrays are excluded — they are resident for the whole program
/// regardless of factorization, so only the temporaries differentiate
/// versions.
///
/// This is what an [`crate::objective::Objective`] memory budget caps:
/// the footprint is a function of the OCTOPI version alone (loop-nest
/// configurations never change array shapes), so over-budget versions can
/// be pruned before lowering or evaluation ever touches them.
pub fn program_peak_temp_bytes(program: &TcrProgram) -> u64 {
    let mut live_at = vec![0u64; program.ops.len()];
    for (a_id, a) in program.arrays.iter().enumerate() {
        if a.kind != ArrayKind::Temp {
            continue;
        }
        let Some(birth) = program.ops.iter().position(|op| op.output == a_id) else {
            continue;
        };
        let death = program
            .ops
            .iter()
            .rposition(|op| op.inputs.contains(&a_id))
            .map_or(birth, |d| d.max(birth));
        let bytes = 8 * a.len(&program.dims) as u64;
        for slot in &mut live_at[birth..=death] {
            *slot += bytes;
        }
    }
    live_at.into_iter().max().unwrap_or(0)
}

/// Total global-memory read+write volume of one TCR program: per op, the
/// output array is written once and every input array read once (f64
/// elements, 8 bytes), summed over the statement sequence. This models
/// DRAM traffic under perfect intra-kernel reuse — the quantity omeco's
/// `rw` weight scores — and, like [`program_peak_temp_bytes`], depends on
/// the version only, never the loop-nest configuration.
pub fn program_rw_bytes(program: &TcrProgram) -> u64 {
    program
        .ops
        .iter()
        .map(|op| {
            let elems = program.arrays[op.output].len(&program.dims)
                + op.inputs
                    .iter()
                    .map(|&i| program.arrays[i].len(&program.dims))
                    .sum::<usize>();
            8 * elems as u64
        })
        .sum()
}

/// Per-statement, per-version `(peak_temp_bytes, rw_bytes)` table,
/// computed once per search so the per-candidate objective score is two
/// table lookups instead of a liveness walk.
pub fn version_memory_table(statements: &[StatementTuner]) -> Vec<Vec<(u64, u64)>> {
    statements
        .iter()
        .map(|st| {
            st.variants
                .iter()
                .map(|v| {
                    (
                        program_peak_temp_bytes(&v.program),
                        program_rw_bytes(&v.program),
                    )
                })
                .collect()
        })
        .collect()
}

/// Hot-path variant of [`joint_memory`]: combines a precomputed
/// [`version_memory_table`] instead of re-walking each program's liveness,
/// so a per-candidate lookup costs one joint decode plus table reads.
pub fn joint_memory_from_table(
    statements: &[StatementTuner],
    table: &[Vec<(u64, u64)>],
    id: u128,
) -> (u64, u64) {
    let locals = decode_joint(statements, id);
    let mut peak = 0u64;
    let mut rw = 0u64;
    for (k, (s, &local)) in statements.iter().zip(&locals).enumerate() {
        let (v, _) = s.decode_raw(local);
        let (p, r) = table[k][v];
        peak = peak.max(p);
        rw = rw.saturating_add(r);
    }
    (peak, rw)
}

/// Modeled `(peak_temp_bytes, rw_bytes)` of a joint configuration:
/// statements execute in sequence and each statement's temporaries die at
/// its end, so the joint peak is the max over statements while the traffic
/// volume sums.
pub fn joint_memory(statements: &[StatementTuner], id: u128) -> (u64, u64) {
    let locals = decode_joint(statements, id);
    let mut peak = 0u64;
    let mut rw = 0u64;
    for (s, &local) in statements.iter().zip(&locals) {
        let (v, _) = s.decode(local);
        let program = &s.variants[v].program;
        peak = peak.max(program_peak_temp_bytes(program));
        rw = rw.saturating_add(program_rw_bytes(program));
    }
    (peak, rw)
}

/// Quarantine report of the build stage: every version whose lowering
/// failed, per statement.
pub fn build_quarantine(statements: &[StatementTuner]) -> QuarantineReport {
    let mut q = QuarantineReport::new();
    for (k, st) in statements.iter().enumerate() {
        for (v, reason) in &st.quarantined_versions {
            q.record_version(k, *v, reason.clone());
        }
    }
    q
}

/// Maps every statement under the joint id (statements map in parallel on
/// the rayon pool); fails with full context when any statement's
/// configuration cannot be applied to its loop nest.
pub fn map_joint(
    workload: &Workload,
    statements: &[StatementTuner],
    id: u128,
) -> Result<Vec<Vec<MappedKernel>>, BarracudaError> {
    let locals = decode_joint(statements, id);
    let jobs: Vec<MapJob<'_>> = statements
        .iter()
        .zip(&locals)
        .zip(&workload.statements)
        .map(|((s, &local), st)| {
            let (v, config) = s.decode(local);
            let variant = &s.variants[v];
            MapJob {
                program: &variant.program,
                space: &variant.space,
                config,
                accumulate_output: st.accumulate,
            }
        })
        .collect();
    map_programs(&jobs)
        .into_iter()
        .enumerate()
        .map(|(k, r)| {
            r.map_err(|e| BarracudaError::Mapping {
                workload: workload.name.clone(),
                statement: k,
                version: Some(statements[k].decode(locals[k]).0),
                config: Some(id),
                detail: e.to_string(),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::WorkloadTuner;
    use tensor::index::uniform_dims;

    fn lowered_pair() -> (Workload, WorkloadTuner) {
        let w = Workload::parse(
            "pair",
            "T[i l] = Sum([j], A[i j] * B[j l])\nC[i k] = Sum([l], T[i l] * D[l k])",
            &uniform_dims(&["i", "j", "k", "l"], 6),
        )
        .unwrap();
        let lowered = WorkloadTuner::build(&w);
        (w, lowered)
    }

    #[test]
    fn builds_in_isolation_without_searching() {
        let (_, lowered) = lowered_pair();
        assert_eq!(lowered.statements.len(), 2);
        assert!(lowered.total_space() > 0);
        assert_eq!(build_quarantine(&lowered.statements).versions(), 0);
    }

    #[test]
    fn joint_ids_roundtrip_through_decode_encode() {
        let (_, lowered) = lowered_pair();
        let total = lowered.total_space();
        for frac in [0u128, 1, 7, 1000] {
            let id = total * frac % total;
            let locals = decode_joint(&lowered.statements, id);
            assert_eq!(encode_joint(&lowered.statements, &locals), id);
        }
    }

    #[test]
    fn joint_features_concatenate_statement_features() {
        let (_, lowered) = lowered_pair();
        let width: usize = lowered
            .statements
            .iter()
            .map(|s| s.feature_space().width())
            .sum();
        assert_eq!(joint_features(&lowered.statements, 0).len(), width);
        assert_eq!(binarized_feature_names(&lowered.statements).len(), width);
    }

    #[test]
    fn map_joint_maps_every_statement() {
        let (w, lowered) = lowered_pair();
        let kernels = map_joint(&w, &lowered.statements, 0).unwrap();
        assert_eq!(kernels.len(), 2);
        assert!(kernels.iter().all(|ks| !ks.is_empty()));
    }

    #[test]
    fn single_step_programs_have_no_temporary_footprint() {
        // Both "pair" statements are binary contractions: one step, no
        // temps — the peak must be exactly zero while traffic is not.
        let (_, lowered) = lowered_pair();
        for st in &lowered.statements {
            for v in &st.variants {
                assert_eq!(program_peak_temp_bytes(&v.program), 0);
                assert!(program_rw_bytes(&v.program) > 0);
            }
        }
    }

    #[test]
    fn multi_step_versions_carry_live_temporaries() {
        let w = Workload::parse(
            "eqn1",
            "V[i j k] = Sum([l m n], A[l k] * B[m j] * C[n i] * U[l m n])",
            &uniform_dims(&["i", "j", "k", "l", "m", "n"], 6),
        )
        .unwrap();
        let lowered = WorkloadTuner::build(&w);
        let st = &lowered.statements[0];
        let peaks: Vec<u64> = st
            .variants
            .iter()
            .map(|v| program_peak_temp_bytes(&v.program))
            .collect();
        // Every eqn1 factorization chains at least two steps, so every
        // version owns at least one temporary...
        assert!(peaks.iter().all(|&p| p > 0), "{peaks:?}");
        // ...and the footprints differentiate versions (that is the whole
        // point of a memory-aware objective).
        assert!(peaks.iter().any(|&p| p != peaks[0]), "{peaks:?}");
    }

    #[test]
    fn joint_memory_is_max_peak_and_summed_traffic() {
        let (_, lowered) = lowered_pair();
        let table = version_memory_table(&lowered.statements);
        assert_eq!(table.len(), 2);
        for (st, versions) in lowered.statements.iter().zip(&table) {
            assert_eq!(st.variants.len(), versions.len());
        }
        let total = lowered.total_space();
        for id in [0u128, 1, total / 2, total - 1] {
            let (peak, rw) = joint_memory(&lowered.statements, id);
            let locals = decode_joint(&lowered.statements, id);
            let mut want_peak = 0u64;
            let mut want_rw = 0u64;
            for (k, (st, &local)) in lowered.statements.iter().zip(&locals).enumerate() {
                let (v, _) = st.decode(local);
                want_peak = want_peak.max(table[k][v].0);
                want_rw += table[k][v].1;
            }
            assert_eq!(peak, want_peak);
            assert_eq!(rw, want_rw);
        }
    }
}
