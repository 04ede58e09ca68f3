//! Property tests for the content-addressed plan store keying: the
//! on-disk path encoding must be injective — hostile backend names and
//! distinct `(fingerprint, salt, schema)` tuples may never collide — and
//! a plan must survive an insert → lookup round trip bit-losslessly, the
//! same contract `plan_props.rs` holds the raw JSON layer to.

use barracuda::pipeline::{TuneParams, WorkloadTuner};
use barracuda::workload::Workload;
use barracuda::{BackendSet, EvalCache, PlanStore, StoreKey, TunedPlan};
use proptest::prelude::*;
use tensor::index::uniform_dims;

/// Backend-name alphabet chosen to attack the encoder: path separators,
/// traversal dots, percent signs (the escape character itself), case
/// pairs that collide on case-insensitive filesystems, NUL-adjacent
/// controls, multi-byte unicode.
const CHARS: &[char] = &[
    'a', 'b', 'z', 'A', 'B', 'Z', '0', '9', '_', '-', '.', '/', '\\', '%', ' ', ':', '\n', '\u{1}',
    'é', '∑', '𝄞',
];

fn hostile_name() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..CHARS.len(), 0..16)
        .prop_map(|ixs| ixs.into_iter().map(|i| CHARS[i]).collect())
}

fn any_key() -> impl Strategy<Value = StoreKey> {
    (
        (0u64..=u64::MAX),
        (0u64..=u64::MAX),
        (0u64..=u64::MAX),
        hostile_name(),
    )
        .prop_map(|(fingerprint, cache_salt, schema, backend)| StoreKey {
            fingerprint,
            cache_salt,
            schema,
            backend,
        })
}

/// The characters a store file name is spelled with, minus the letters
/// of the suffix: hex digits in both cases, `%`, `+`, `-` and `v`.
const NAME_CHARS: &[u8] = b"0123456789abcdefABCDEF%+-v";

/// The file name of a key whose backend is drawn from `NAME_CHARS`, then
/// up to four characters overwritten or inserted from the same alphabet:
/// mostly spellings `file_name` never writes (uppercase or `+`-signed hex,
/// a zero-padded schema, a needless or lowercase `%XX` escape).
fn near_miss_name() -> impl Strategy<Value = String> {
    (
        (0u64..=u64::MAX),
        (0u64..=u64::MAX),
        (0u64..5),
        proptest::collection::vec(0usize..NAME_CHARS.len(), 0..6),
        proptest::collection::vec((0usize..64, 0usize..NAME_CHARS.len(), 0u8..2), 0..5),
    )
        .prop_map(|(fingerprint, cache_salt, schema, backend, edits)| {
            let backend = backend.iter().map(|&i| NAME_CHARS[i] as char).collect();
            let key = StoreKey {
                fingerprint,
                cache_salt,
                schema,
                backend,
            };
            let mut name = key.file_name().into_bytes();
            for (at, c, insert) in edits {
                if insert == 1 {
                    name.insert(at % (name.len() + 1), NAME_CHARS[c]);
                } else {
                    let at = at % name.len();
                    name[at] = NAME_CHARS[c];
                }
            }
            String::from_utf8(name).expect("file names and edits are ASCII")
        })
}

proptest! {
    /// `file_name` → `parse_file_name` is the identity for any key, and
    /// the emitted name is always a single safe path component.
    #[test]
    fn file_name_roundtrips_any_key(key in any_key()) {
        let name = key.file_name();
        prop_assert!(
            !name.contains('/') && !name.contains('\\') && !name.contains("..")
                && name.is_ascii(),
            "unsafe file name {name:?}"
        );
        prop_assert_eq!(StoreKey::parse_file_name(&name), Some(key));
    }

    /// Injective: two distinct keys never map to the same file name. This
    /// is what stops a salt or schema change from ever serving a stale
    /// plan, and hostile backend names from aliasing each other.
    #[test]
    fn distinct_keys_never_collide(a in any_key(), b in any_key()) {
        if a != b {
            prop_assert!(
                a.file_name() != b.file_name(),
                "collision between {a} and {b}: {}",
                a.file_name()
            );
        }
    }

    /// Case pairs must stay distinct *after* encoding, because the store
    /// may live on a case-insensitive filesystem: uppercase bytes are
    /// escaped, so `K20` and `k20` land in different entries by byte
    /// content, not just by case.
    #[test]
    fn case_variants_do_not_alias(base in proptest::collection::vec(0usize..26, 1..8)) {
        let lower: String = base.iter().map(|&i| (b'a' + i as u8) as char).collect();
        let upper = lower.to_uppercase();
        let key = |backend: String| StoreKey {
            fingerprint: 1,
            cache_salt: 2,
            schema: 2,
            backend,
        };
        let a = key(lower).file_name();
        let b = key(upper).file_name();
        prop_assert_ne!(a.to_lowercase(), b.to_lowercase());
    }

    /// Only the canonical spelling decodes: a name that parses to a key is
    /// exactly that key's `file_name`, so `gc` evicts the file it scanned.
    #[test]
    fn only_canonical_names_decode(name in near_miss_name()) {
        if let Some(key) = StoreKey::parse_file_name(&name) {
            prop_assert_eq!(key.file_name(), name);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// Tune → insert → lookup → replay through the store is bit-lossless
    /// for any budget, exactly like the raw JSON round trip.
    #[test]
    fn store_roundtrip_is_bit_lossless(max_evals in 1usize..16, n in 6usize..12) {
        let root = std::env::temp_dir().join(format!(
            "barracuda_store_props_{}_{max_evals}_{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let store = PlanStore::open(&root).unwrap();
        let w = Workload::parse(
            "mm",
            "C[i k] = Sum([j], A[i j] * B[j k])",
            &uniform_dims(&["i", "j", "k"], n),
        )
        .unwrap();
        let tuner = WorkloadTuner::build(&w);
        let mut params = TuneParams::quick();
        params.surf.max_evals = max_evals;
        let tuned = tuner.autotune(&gpusim::k20(), params).unwrap();
        let k20 = BackendSet::builtin().get("k20").unwrap().clone();
        let plan = TunedPlan::from_tuned_for(&tuner, k20.as_ref(), &tuned);
        store.insert(&plan).unwrap();
        let back = store.lookup(&StoreKey::of_plan(&plan)).unwrap().unwrap();
        prop_assert_eq!(&plan, &back);
        prop_assert_eq!(plan.gpu_seconds.to_bits(), back.gpu_seconds.to_bits());
        let embedded = back.workload().unwrap();
        let replayed = back
            .replay_built_in(
                &BackendSet::builtin(),
                &embedded,
                &WorkloadTuner::build(&embedded),
                &EvalCache::new(),
            )
            .unwrap();
        prop_assert_eq!(replayed.gpu_seconds.to_bits(), tuned.gpu_seconds.to_bits());
        let _ = std::fs::remove_dir_all(&root);
    }
}
