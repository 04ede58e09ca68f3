//! Crash-safety and corruption properties of the plan store: arbitrary
//! on-disk damage (zero-length, truncated, bit-flipped entries) never
//! panics or fails a lookup — damaged entries are quarantined to
//! `*.corrupt` sidecars and re-tuning re-inserts a clean artifact; a
//! writer that dies before its rename leaves only an invisible `.partial`
//! temporary; and concurrent same-key inserters resolve to exactly one
//! un-torn winner.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, OnceLock};

use barracuda::pipeline::{TuneParams, WorkloadTuner};
use barracuda::workload::Workload;
use barracuda::{BackendSet, PlanStore, StoreFaultPlan, StoreKey, StoreOptions, TunedPlan};
use proptest::prelude::*;
use tensor::index::uniform_dims;

/// One small tuned plan, shared by every test/case: tuning is the
/// expensive part, corruption is cheap.
fn base_plan() -> &'static TunedPlan {
    static PLAN: OnceLock<TunedPlan> = OnceLock::new();
    PLAN.get_or_init(|| {
        let w = Workload::parse(
            "mm",
            "C[i k] = Sum([j], A[i j] * B[j k])",
            &uniform_dims(&["i", "j", "k"], 8),
        )
        .unwrap();
        let tuner = WorkloadTuner::build(&w);
        let mut params = TuneParams::quick();
        params.surf.max_evals = 6;
        let tuned = tuner.autotune(&gpusim::k20(), params).unwrap();
        let k20 = BackendSet::builtin().get("k20").unwrap().clone();
        TunedPlan::from_tuned_for(&tuner, k20.as_ref(), &tuned)
    })
}

fn fresh_root(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let root = std::env::temp_dir().join(format!(
        "barracuda_store_crash_{tag}_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn visible_plans(root: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut found = Vec::new();
    if let Ok(dir) = std::fs::read_dir(root) {
        for item in dir.flatten() {
            let name = item.file_name().to_string_lossy().into_owned();
            if name.ends_with(".plan.json") {
                found.push(item.path());
            }
        }
    }
    found.sort();
    found
}

fn files_with_suffix(root: &std::path::Path, suffix: &str) -> usize {
    std::fs::read_dir(root)
        .map(|dir| {
            dir.flatten()
                .filter(|i| i.file_name().to_string_lossy().ends_with(suffix))
                .count()
        })
        .unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Any single corruption of a stored entry — emptied, truncated at an
    /// arbitrary offset, or one flipped bit anywhere (including flips
    /// that break UTF-8) — leaves `lookup` returning `Ok`: either the
    /// damage was benign and a plan decodes, or the entry is quarantined
    /// to a `*.corrupt` sidecar, counted, and treated as a miss that a
    /// clean re-insert then fills.
    #[test]
    fn corrupted_entries_quarantine_instead_of_failing(
        mode in 0usize..3,
        frac_ppm in 0u32..1_000_000,
        bit in 0u32..8,
    ) {
        let frac = f64::from(frac_ppm) / 1_000_000.0;
        let plan = base_plan();
        let key = StoreKey::of_plan(plan);
        let root = fresh_root("corrupt");
        let store = PlanStore::open(&root).unwrap();
        let path = store.insert(plan).unwrap();

        let mut bytes = std::fs::read(&path).unwrap();
        prop_assert!(bytes.len() > 2);
        let offset = ((bytes.len() - 1) as f64 * frac) as usize;
        match mode {
            0 => bytes.clear(),
            1 => bytes.truncate(offset),
            _ => bytes[offset] ^= 1 << bit,
        }
        std::fs::write(&path, &bytes).unwrap();

        let looked = store.lookup(&key);
        prop_assert!(looked.is_ok(), "lookup must never fail on corruption: {looked:?}");
        match looked.unwrap() {
            // Benign flip: the entry still decodes to a plan at this
            // address (e.g. a digit of a timing float changed).
            Some(_) => prop_assert_eq!(store.corrupt_quarantined(), 0),
            None => {
                prop_assert_eq!(store.corrupt_quarantined(), 1, "miss must mean quarantine");
                prop_assert_eq!(files_with_suffix(&root, ".corrupt"), 1);
                prop_assert!(visible_plans(&root).is_empty(), "damaged entry must leave the address space");
                // Re-tune (here: re-insert the known-good artifact) and
                // the address serves cleanly again.
                store.insert(plan).unwrap();
                let back = store.lookup(&key).unwrap();
                prop_assert_eq!(back.as_ref(), Some(plan));
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// A writer that "crashes" after writing its temporary but before the
/// rename publishes nothing: lookups miss, no `*.plan.json` is visible,
/// only a `.partial` temporary remains — and a healthy writer on the
/// same directory then publishes normally, with `gc_corrupt` sweeping
/// the dead writer's leavings.
#[test]
fn crashed_writer_leaves_no_visible_entry() {
    let plan = base_plan();
    let key = StoreKey::of_plan(plan);
    let root = fresh_root("crash");
    let crashing = PlanStore::open_with(
        &root,
        StoreOptions {
            faults: StoreFaultPlan {
                crash_before_rename_rate: 1.0,
                ..StoreFaultPlan::none()
            },
            ..StoreOptions::default()
        },
    )
    .unwrap();
    let err = crashing.insert(plan).unwrap_err();
    assert_eq!(err.stage(), "store");
    assert!(
        visible_plans(&root).is_empty(),
        "a crashed insert must publish nothing"
    );
    assert!(
        files_with_suffix(&root, ".partial") >= 1,
        "the temporary must be left behind"
    );
    assert_eq!(crashing.lookup(&key).unwrap(), None);

    // A healthy store over the same directory recovers completely.
    let healthy = PlanStore::open(&root).unwrap();
    healthy.insert(plan).unwrap();
    assert_eq!(healthy.lookup(&key).unwrap().as_ref(), Some(plan));
    let swept = healthy.gc_corrupt().unwrap();
    assert!(
        !swept.is_empty(),
        "gc must sweep the dead writer's temporary"
    );
    assert_eq!(files_with_suffix(&root, ".partial"), 0);
    assert_eq!(
        healthy.lookup(&key).unwrap().as_ref(),
        Some(plan),
        "gc must not touch live entries"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Concurrent inserters racing on the same address resolve by atomic
/// rename: the surviving entry is byte-identical to ONE of the competing
/// artifacts — last writer wins, torn mixes are impossible — and exactly
/// one visible entry remains.
#[test]
fn concurrent_same_key_inserts_never_tear() {
    let plan_a = base_plan().clone();
    let mut plan_b = plan_a.clone();
    // Same store key (params are not part of the address), different
    // bytes: the search wall time differs between the two artifacts.
    plan_b.search.wall_s += 1.0;
    let (text_a, text_b) = (plan_a.to_json_text(), plan_b.to_json_text());
    assert_ne!(text_a, text_b);
    assert_eq!(StoreKey::of_plan(&plan_a), StoreKey::of_plan(&plan_b));

    let root = fresh_root("race");
    let store = Arc::new(PlanStore::open(&root).unwrap());
    const WRITERS: usize = 8;
    const ROUNDS: usize = 12;
    let barrier = Arc::new(Barrier::new(WRITERS));
    std::thread::scope(|s| {
        for i in 0..WRITERS {
            let store = Arc::clone(&store);
            let barrier = Arc::clone(&barrier);
            let mine = if i % 2 == 0 {
                plan_a.clone()
            } else {
                plan_b.clone()
            };
            s.spawn(move || {
                barrier.wait();
                for _ in 0..ROUNDS {
                    store.insert(&mine).unwrap();
                }
            });
        }
    });

    let visible = visible_plans(&root);
    assert_eq!(visible.len(), 1, "one address, one entry: {visible:?}");
    let survivor = std::fs::read_to_string(&visible[0]).unwrap();
    assert!(
        survivor == text_a || survivor == text_b,
        "survivor must be bit-equal to one competing artifact, never a torn mix"
    );
    let back = store.lookup(&StoreKey::of_plan(&plan_a)).unwrap().unwrap();
    assert!(back == plan_a || back == plan_b);
    let _ = std::fs::remove_dir_all(&root);
}
