//! Property tests for [`barracuda::TunedPlan`]: the hand-rolled JSON
//! serialization must be lossless for *arbitrary* field values (bit-exact
//! f64s, full-range u128 ids, hostile strings), and replaying a saved plan
//! through a shared [`EvalCache`] must reproduce the tuned time
//! bit-identically without spending any search evaluations.

use barracuda::cache::HotPathSnapshot;
use barracuda::pipeline::{TuneParams, WorkloadTuner};
use barracuda::workload::Workload;
use barracuda::{
    BackendSet, BudgetMode, EvalCache, Objective, PlanChoice, QuarantineEntry, QuarantineStage,
    SearchStats, TunedPlan,
};
use proptest::prelude::*;
use surf::SearchStatus;
use tensor::index::uniform_dims;

/// Counter-like fields serialize through `Json::Num` (a double), so the
/// representable domain is exact integers up to 2^53.
const MAX_EXACT: usize = 9_007_199_254_740_992;

fn counter() -> impl Strategy<Value = usize> {
    0usize..=MAX_EXACT
}

/// Any finite double, including -0.0, subnormals and extreme exponents.
/// Non-finite values are excluded: JSON has no literal for them and the
/// planner never produces them (times and rates are finite by
/// construction).
fn finite_f64() -> impl Strategy<Value = f64> {
    (0u64..=u64::MAX)
        .prop_map(f64::from_bits)
        .prop_filter("finite", |f| f.is_finite())
}

fn any_u128() -> impl Strategy<Value = u128> {
    ((0u64..=u64::MAX), (0u64..=u64::MAX)).prop_map(|(hi, lo)| ((hi as u128) << 64) | lo as u128)
}

fn any_bool() -> impl Strategy<Value = bool> {
    (0u8..2).prop_map(|b| b == 1)
}

/// Strings drawn from a pool that exercises every escape path of the JSON
/// writer: quotes, backslashes, control characters, multi-byte unicode.
const CHARS: &[char] = &[
    'a', 'Z', '0', '9', ' ', '_', '-', '.', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', '=',
    '[', ']', '{', '}', ':', ',', '/', 'é', '∑', '𝄞',
];

fn any_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..CHARS.len(), 0..24)
        .prop_map(|ixs| ixs.into_iter().map(|i| CHARS[i]).collect())
}

/// Any search record a plan can carry: every persisted counter over its
/// full on-disk range. `evaluated_times` and `duplicate_candidates` are
/// never persisted, so they stay empty and zero.
fn search() -> impl Strategy<Value = SearchStats> {
    (
        (counter(), counter(), any_u128(), counter()),
        (finite_f64(), counter(), counter(), counter()),
        // Memo counters, then the hot-path nanoseconds (strings on disk,
        // so the full u64 range must survive).
        (
            counter(),
            counter(),
            counter(),
            counter(),
            counter(),
            counter(),
        ),
        (
            (0u64..=u64::MAX),
            (0u64..=u64::MAX),
            (0u64..=u64::MAX),
            (0u64..=u64::MAX),
        ),
        // Memory statistics (byte totals are strings on disk, so the full
        // u64 range must survive).
        (counter(), counter(), (0u64..=u64::MAX), (0u64..=u64::MAX)),
    )
        .prop_map(
            |(
                (n_evals, batches, space_size, pool_size),
                (wall_s, threads, quarantined_versions, quarantined_configs),
                (cache_hits, cache_misses, per_op_hits, per_op_misses, time_hits, time_misses),
                (decode_ns, map_ns, sim_ns, predict_ns),
                (pruned_by_memory, versions_over_budget, peak_temp_bytes, rw_bytes),
            )| SearchStats {
                n_evals,
                batches,
                evaluated_times: Vec::new(),
                space_size,
                pool_size,
                cache_hits,
                cache_misses,
                wall_s,
                threads,
                quarantined_versions,
                quarantined_configs,
                per_op_hits,
                per_op_misses,
                time_hits,
                time_misses,
                duplicate_candidates: 0,
                pruned_by_memory,
                versions_over_budget,
                peak_temp_bytes,
                rw_bytes,
                hot: HotPathSnapshot {
                    decode_ns,
                    map_ns,
                    sim_ns,
                    predict_ns,
                },
            },
        )
}

/// Complete, or degraded with any reason (a reason that itself starts
/// with `degraded: ` included).
fn status() -> impl Strategy<Value = SearchStatus> {
    (any_bool(), any_bool(), any_string()).prop_map(|(degraded, prefixed, reason)| {
        if !degraded {
            SearchStatus::Complete
        } else if prefixed {
            SearchStatus::Degraded {
                reason: format!("degraded: {reason}"),
            }
        } else {
            SearchStatus::Degraded { reason }
        }
    })
}

/// Any objective: arbitrary finite non-negative weights (bit patterns must
/// survive the round trip), an optional budget, either budget mode.
fn objective() -> impl Strategy<Value = Objective> {
    (
        finite_f64(),
        finite_f64(),
        finite_f64(),
        (any_bool(), (0u64..=u64::MAX)),
        any_bool(),
    )
        .prop_map(
            |(time_weight, mem_weight, rw_weight, budget, penalize)| Objective {
                time_weight: time_weight.abs(),
                mem_weight: mem_weight.abs(),
                rw_weight: rw_weight.abs(),
                mem_budget: budget.0.then_some(budget.1),
                budget_mode: if penalize {
                    BudgetMode::Penalize
                } else {
                    BudgetMode::Prune
                },
            },
        )
}

fn quarantine_entry() -> impl Strategy<Value = QuarantineEntry> {
    const STAGES: [QuarantineStage; 4] = [
        QuarantineStage::Factorization,
        QuarantineStage::Mapping,
        QuarantineStage::Simulation,
        QuarantineStage::Injected,
    ];
    (
        0usize..STAGES.len(),
        (any_bool(), counter()),
        (any_bool(), counter()),
        (any_bool(), any_u128()),
        any_string(),
    )
        .prop_map(
            |(stage, statement, version, config, reason)| QuarantineEntry {
                stage: STAGES[stage],
                statement: statement.0.then_some(statement.1),
                version: version.0.then_some(version.1),
                config: config.0.then_some(config.1),
                reason,
            },
        )
}

fn plan() -> impl Strategy<Value = TunedPlan> {
    (
        (
            any_string(),
            any_string(),
            proptest::collection::vec((any_string(), counter()), 0..4),
        ),
        (
            (0u64..=u64::MAX),
            any_string(),
            (0u64..=u64::MAX),
            any_string(),
            any_u128(),
        ),
        proptest::collection::vec(
            (counter(), any_u128()).prop_map(|(version, local)| PlanChoice { version, local }),
            0..4,
        ),
        (finite_f64(), finite_f64(), (0u64..=u64::MAX)),
        proptest::collection::vec(quarantine_entry(), 0..4),
        (search(), status(), objective()),
    )
        .prop_map(
            |(
                (workload_name, source, dims),
                (fingerprint, backend, cache_salt, arch_name, id),
                choices,
                (gpu_seconds, transfer_seconds, flops),
                quarantine,
                (search, status, objective),
            )| TunedPlan {
                workload_name,
                source,
                dims,
                fingerprint,
                backend,
                cache_salt,
                arch_name,
                id,
                choices,
                gpu_seconds,
                transfer_seconds,
                flops,
                quarantine,
                objective,
                search,
                status,
            },
        )
}

proptest! {
    /// Serialize → parse is the identity on every field, including f64
    /// bit patterns and u128 values JSON numbers could not carry.
    #[test]
    fn json_roundtrip_is_lossless_for_arbitrary_plans(plan in plan()) {
        let text = plan.to_json_text();
        let back = match TunedPlan::from_json_text(&text) {
            Ok(p) => p,
            Err(e) => return Err(proptest::test_runner::TestCaseError::fail(format!(
                "reparse failed: {e}\n{text}"
            ))),
        };
        prop_assert_eq!(&plan, &back);
        prop_assert_eq!(plan.gpu_seconds.to_bits(), back.gpu_seconds.to_bits());
        prop_assert_eq!(plan.transfer_seconds.to_bits(), back.transfer_seconds.to_bits());
        prop_assert_eq!(plan.search.wall_s.to_bits(), back.search.wall_s.to_bits());
        prop_assert_eq!(back.to_json_text(), text, "re-writing must reproduce the bytes");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Tune → save → load → replay reproduces the tuned time bit-for-bit
    /// through a shared cache, regardless of the search budget, and spends
    /// zero fresh evaluations doing so.
    #[test]
    fn replay_reproduces_tuned_time_for_any_budget(max_evals in 1usize..24, n in 6usize..14) {
        let w = Workload::parse(
            "mm",
            "C[i k] = Sum([j], A[i j] * B[j k])",
            &uniform_dims(&["i", "j", "k"], n),
        )
        .unwrap();
        let tuner = WorkloadTuner::build(&w);
        let mut params = TuneParams::quick();
        params.surf.max_evals = max_evals;
        let cache = EvalCache::new();
        let tuned = tuner
            .autotune_with_cache(&gpusim::k20(), params, &cache)
            .unwrap();
        let k20 = BackendSet::builtin().get("k20").unwrap().clone();
        let plan = TunedPlan::from_tuned_for(&tuner, k20.as_ref(), &tuned);
        let loaded = match TunedPlan::from_json_text(&plan.to_json_text()) {
            Ok(p) => p,
            Err(e) => return Err(proptest::test_runner::TestCaseError::fail(format!(
                "reparse failed: {e}"
            ))),
        };
        let (_, misses_before) = cache.time_stats();
        // Replay on the workload embedded in the plan, lowered afresh.
        let embedded = loaded.workload().unwrap();
        let replayed = loaded
            .replay_built_in(
                &BackendSet::builtin(),
                &embedded,
                &WorkloadTuner::build(&embedded),
                &cache,
            )
            .unwrap();
        let (_, misses_after) = cache.time_stats();
        prop_assert_eq!(replayed.id, tuned.id);
        prop_assert_eq!(replayed.gpu_seconds.to_bits(), tuned.gpu_seconds.to_bits());
        prop_assert_eq!(
            misses_after, misses_before,
            "replay through the shared cache must not recompute any timing"
        );
        prop_assert_eq!(
            replayed.search.n_evals, tuned.search.n_evals,
            "replay carries the original search provenance"
        );
    }
}
