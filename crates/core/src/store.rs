//! Content-addressed plan store: a directory of [`TunedPlan`] artifacts
//! keyed by what they are, not where the user put them.
//!
//! The paper's economics are compile-once/run-many: a search that takes
//! hours produces a mapping that is reused forever (§5, Table II). The
//! store makes that reuse automatic. Every plan lives at a path derived
//! from its [`StoreKey`] — `(workload fingerprint, backend key, backend
//! cache salt, plan schema version)` — so a `tune` can ask "has this
//! exact workload already been tuned for this exact backend under this
//! exact model revision?" and replay the answer with zero search
//! evaluations. The salt in the key means a model or architecture change
//! silently *misses* (and re-tunes) rather than serving a stale mapping;
//! the schema version in the key means old-format plans are flagged as
//! evictable by `gc`, never misread.
//!
//! File names are injective in the key: fixed-width lowercase hex for the
//! two u64s, a decimal schema tag, and a percent-encoded backend key
//! (every byte outside `[a-z0-9_-]` becomes `%XX`, so hostile or
//! case-colliding backend names cannot alias on case-insensitive
//! filesystems). Store-layer failures (unreadable directory, an entry the
//! filesystem refuses to read) are [`BarracudaError::Store`] (exit code
//! 11); a *standalone* plan file whose content is wrong stays
//! [`BarracudaError::Plan`] (exit code 10), so scripts can tell a broken
//! store from a broken artifact.
//!
//! **Crash safety.** `insert` never exposes a partial artifact: the plan
//! is written to a pid+sequence-suffixed temporary in the same directory
//! and atomically renamed into place, so a writer killed mid-write leaves
//! at worst an invisible `*.partial` file (swept by `gc`), and concurrent
//! inserters of the same key resolve last-writer-wins with every reader
//! seeing one complete artifact or the other, never a splice. With
//! [`StoreOptions::durable`], the temporary is fsync'd before the rename
//! (and the directory after), surviving power loss, not just process
//! death.
//!
//! **Corruption containment.** `lookup` treats an entry that *exists* but
//! cannot be trusted — truncated or bit-flipped JSON, content that
//! contradicts its own file name — as damage, not as caller error: the
//! file is renamed to a `*.corrupt` sidecar (logged, counted), and the
//! lookup reports a miss so the caller simply re-tunes and re-inserts a
//! clean artifact. `gc --corrupt` sweeps the sidecars.
//!
//! **Fault seam.** [`StoreFaultPlan`] deterministically injects read
//! failures, write failures, and crash-before-rename on a seeded per-op
//! schedule — the chaos harness drives the daemon through a misbehaving
//! store without touching the filesystem layer itself.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::error::BarracudaError;
use crate::plan::{TunedPlan, PLAN_SCHEMA_VERSION};

/// File-name suffix of every store entry.
const PLAN_SUFFIX: &str = ".plan.json";

/// Suffix appended (after the full entry name) to quarantined entries.
const CORRUPT_SUFFIX: &str = ".corrupt";

/// Suffix of in-flight temporary files (never visible to lookups: the
/// name does not end in `.plan.json`).
const PARTIAL_SUFFIX: &str = ".partial";

/// What a [`StoreFaultPlan`] decided to do to one store operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreFault {
    /// The read fails with an injected I/O error.
    ReadFail,
    /// The write fails before anything touches the filesystem.
    WriteFail,
    /// The temporary is written, then the writer "crashes": the insert
    /// errors out with the rename never issued, leaving the same
    /// `*.partial` debris a SIGKILL'd process would.
    CrashBeforeRename,
}

/// Deterministic store-level fault plan — the injectable seam the serve
/// chaos harness drives. Decisions are a pure function of
/// `(seed, operation sequence number)` via the same SplitMix64 draw as
/// [`surf::FaultPlan`], so a seeded run always injects the same faults at
/// the same operations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StoreFaultPlan {
    /// Fraction of lookups that fail with an injected read error.
    pub read_fail_rate: f64,
    /// Fraction of inserts that fail before writing anything.
    pub write_fail_rate: f64,
    /// Fraction of inserts that write the temporary then "crash".
    pub crash_before_rename_rate: f64,
    /// Seed mixed into every per-operation decision.
    pub seed: u64,
}

impl StoreFaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        StoreFaultPlan {
            read_fail_rate: 0.0,
            write_fail_rate: 0.0,
            crash_before_rename_rate: 0.0,
            seed: 0,
        }
    }

    pub fn is_none(&self) -> bool {
        self.read_fail_rate <= 0.0
            && self.write_fail_rate <= 0.0
            && self.crash_before_rename_rate <= 0.0
    }

    /// The fate of read operation `seq` under this plan.
    pub fn decide_read(&self, seq: u64) -> Option<StoreFault> {
        if self.read_fail_rate > 0.0
            && surf::fault_unit(self.seed ^ 0x5EED_0EAD, seq as u128) < self.read_fail_rate
        {
            return Some(StoreFault::ReadFail);
        }
        None
    }

    /// The fate of write operation `seq` under this plan.
    pub fn decide_write(&self, seq: u64) -> Option<StoreFault> {
        let u = surf::fault_unit(self.seed ^ 0x5EED_3317, seq as u128);
        if u < self.write_fail_rate {
            Some(StoreFault::WriteFail)
        } else if u < self.write_fail_rate + self.crash_before_rename_rate {
            Some(StoreFault::CrashBeforeRename)
        } else {
            None
        }
    }
}

/// How a [`PlanStore`] is opened.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StoreOptions {
    /// fsync the temporary before the rename (and the directory after),
    /// making inserts durable across power loss, not just process death.
    pub durable: bool,
    /// Injected fault schedule (tests and the chaos harness).
    pub faults: StoreFaultPlan,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            durable: false,
            faults: StoreFaultPlan::none(),
        }
    }
}

/// The identity of one stored plan.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StoreKey {
    /// Workload fingerprint (FNV-1a over canonical source + dims).
    pub fingerprint: u64,
    /// Backend cache salt at tuning time.
    pub cache_salt: u64,
    /// Plan schema version the artifact was written with.
    pub schema: u64,
    /// Backend registry key (`k20`, `gtx980`, …).
    pub backend: String,
}

impl StoreKey {
    /// The key a plan files under: every plan this build writes is
    /// current-schema.
    pub fn of_plan(plan: &TunedPlan) -> StoreKey {
        StoreKey {
            fingerprint: plan.fingerprint,
            cache_salt: plan.cache_salt,
            schema: PLAN_SCHEMA_VERSION,
            backend: plan.backend.clone(),
        }
    }

    /// The store file name for this key:
    /// `{fingerprint:016x}-{salt:016x}-v{schema}-{enc(backend)}.plan.json`.
    /// Injective: the hex fields are fixed width, the schema tag is a
    /// digit run terminated by `-`, and the backend encoding never emits
    /// a byte it also passes through raw.
    pub fn file_name(&self) -> String {
        format!(
            "{:016x}-{:016x}-v{}-{}{PLAN_SUFFIX}",
            self.fingerprint,
            self.cache_salt,
            self.schema,
            encode_component(&self.backend)
        )
    }

    /// Inverse of [`StoreKey::file_name`]. `None` if the name is not a
    /// store entry exactly as `file_name` spells it: another spelling of
    /// the same key (uppercase hex, a `+` sign, a zero-padded schema, a
    /// needless or lowercase `%XX` escape) is a different file, so
    /// accepting it would make `gc` evict a path it never scanned.
    pub fn parse_file_name(name: &str) -> Option<StoreKey> {
        let stem = name.strip_suffix(PLAN_SUFFIX)?;
        let (fp_hex, rest) = (stem.get(..16)?, stem.get(16..)?);
        let rest = rest.strip_prefix('-')?;
        let (salt_hex, rest) = (rest.get(..16)?, rest.get(16..)?);
        let rest = rest.strip_prefix("-v")?;
        let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
        let (schema_str, rest) = rest.split_at(digits);
        let backend = decode_component(rest.strip_prefix('-')?)?;
        let key = StoreKey {
            fingerprint: u64::from_str_radix(fp_hex, 16).ok()?,
            cache_salt: u64::from_str_radix(salt_hex, 16).ok()?,
            schema: schema_str.parse().ok()?,
            backend,
        };
        (key.file_name() == name).then_some(key)
    }

    /// Whether the entry predates the current plan schema (evictable via
    /// `gc`).
    pub fn is_stale(&self) -> bool {
        self.schema < PLAN_SCHEMA_VERSION
    }
}

impl std::fmt::Display for StoreKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:016x} {} (salt {:016x}, schema v{})",
            self.fingerprint, self.backend, self.cache_salt, self.schema
        )
    }
}

/// Percent-encodes a key component so distinct strings map to distinct
/// file names on any filesystem: lowercase ASCII letters, digits, `_`
/// and `-` pass through; every other byte (including `%` itself and
/// uppercase letters, which could alias on case-insensitive filesystems)
/// becomes `%XX` with uppercase hex.
fn encode_component(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'a'..=b'z' | b'0'..=b'9' | b'_' | b'-' => out.push(b as char),
            _ => {
                out.push('%');
                out.push_str(&format!("{b:02X}"));
            }
        }
    }
    out
}

/// Inverse of [`encode_component`]. `None` on a malformed escape.
fn decode_component(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = std::str::from_utf8(bytes.get(i + 1..i + 3)?).ok()?;
                out.push(u8::from_str_radix(hex, 16).ok()?);
                i += 3;
            }
            b @ (b'a'..=b'z' | b'0'..=b'9' | b'_' | b'-') => {
                out.push(b);
                i += 1;
            }
            _ => return None,
        }
    }
    String::from_utf8(out).ok()
}

/// One entry found by a store scan.
#[derive(Clone, Debug, PartialEq)]
pub struct StoreEntry {
    pub key: StoreKey,
    pub path: PathBuf,
}

/// A tolerant scan of the store: the decodable entries plus, per file
/// that could not be used, what is wrong with it. Listing a store with a
/// hand-renamed or unreadable file in it should degrade that one file,
/// not abort the whole listing.
#[derive(Clone, Debug, Default)]
pub struct StoreScan {
    /// Well-formed entries, sorted by file name.
    pub entries: Vec<StoreEntry>,
    /// `(path, reason)` for every `.plan.json` file that does not decode
    /// to a store key (or could not be stat'd), sorted by path.
    pub problems: Vec<(PathBuf, String)>,
    /// Quarantined `*.corrupt` sidecars present in the store.
    pub corrupt: Vec<PathBuf>,
}

/// A directory of content-addressed plans.
pub struct PlanStore {
    root: PathBuf,
    options: StoreOptions,
    /// Operation sequence for the fault plan's per-op decisions.
    fault_seq: AtomicU64,
    /// Entries this store handle quarantined to `*.corrupt` sidecars.
    corrupt_quarantined: AtomicUsize,
}

impl PlanStore {
    /// Opens (creating if needed) the store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<PlanStore, BarracudaError> {
        Self::open_with(root, StoreOptions::default())
    }

    /// Opens the store with explicit [`StoreOptions`] (durability,
    /// injected faults).
    pub fn open_with(
        root: impl Into<PathBuf>,
        options: StoreOptions,
    ) -> Result<PlanStore, BarracudaError> {
        let root = root.into();
        std::fs::create_dir_all(&root).map_err(|e| BarracudaError::Store {
            detail: format!("cannot create store directory {}: {e}", root.display()),
        })?;
        Ok(PlanStore {
            root,
            options,
            fault_seq: AtomicU64::new(0),
            corrupt_quarantined: AtomicUsize::new(0),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// How many entries this handle has quarantined to `*.corrupt`.
    pub fn corrupt_quarantined(&self) -> usize {
        self.corrupt_quarantined.load(Ordering::Relaxed)
    }

    /// Absolute path a plan with `key` lives at.
    pub fn path_of(&self, key: &StoreKey) -> PathBuf {
        self.root.join(key.file_name())
    }

    fn next_fault_seq(&self) -> u64 {
        self.fault_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Persists `plan` under its content address, replacing any previous
    /// plan with the same key. Crash-safe and multi-process-safe: the
    /// bytes land in a same-directory temporary (unique per pid and
    /// insert) and an atomic rename publishes them, so a concurrent
    /// reader sees the old complete artifact or the new complete
    /// artifact, never a torn write, and concurrent inserters resolve
    /// last-writer-wins. Returns the path written.
    pub fn insert(&self, plan: &TunedPlan) -> Result<PathBuf, BarracudaError> {
        let path = self.path_of(&StoreKey::of_plan(plan));
        let fault = self.options.faults.decide_write(self.next_fault_seq());
        if fault == Some(StoreFault::WriteFail) {
            return Err(BarracudaError::Store {
                detail: format!(
                    "cannot write store entry {}: injected write fault",
                    path.display()
                ),
            });
        }
        // The counter is process-wide, not per-handle: two handles over
        // the same directory (or a reopened store after a crash) must
        // never reuse a temp path — reusing one would silently rename a
        // dead writer's leftover partial into the address space.
        static INSERT_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = self.root.join(format!(
            ".{}.{}-{}{PARTIAL_SUFFIX}",
            StoreKey::of_plan(plan).file_name(),
            std::process::id(),
            INSERT_SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        let write_err = |e: std::io::Error| BarracudaError::Store {
            detail: format!("cannot write store entry {}: {e}", tmp.display()),
        };
        std::fs::write(&tmp, plan.to_json_text()).map_err(write_err)?;
        if self.options.durable {
            std::fs::File::open(&tmp)
                .and_then(|f| f.sync_all())
                .map_err(write_err)?;
        }
        if fault == Some(StoreFault::CrashBeforeRename) {
            // Leave the temporary behind, exactly like a writer killed
            // between the write and the rename would.
            return Err(BarracudaError::Store {
                detail: format!(
                    "cannot publish store entry {}: injected crash before rename",
                    path.display()
                ),
            });
        }
        std::fs::rename(&tmp, &path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            BarracudaError::Store {
                detail: format!("cannot publish store entry {}: {e}", path.display()),
            }
        })?;
        if self.options.durable {
            // Make the rename itself durable: fsync the directory.
            let _ = std::fs::File::open(&self.root).and_then(|d| d.sync_all());
        }
        Ok(path)
    }

    /// Loads the plan stored under `key`, if any. A present-but-corrupt
    /// entry — truncated or bit-flipped JSON, an unsupported embedded
    /// schema, or content that contradicts its own file name (a tampered
    /// fingerprint, a misfiled backend) — is **quarantined**: renamed to
    /// a `*.corrupt` sidecar (logged and counted) and reported as a miss,
    /// so the caller re-tunes and re-inserts a clean artifact instead of
    /// failing the request. Only a filesystem-level read failure on an
    /// entry that exists is a typed [`BarracudaError::Store`].
    pub fn lookup(&self, key: &StoreKey) -> Result<Option<TunedPlan>, BarracudaError> {
        let path = self.path_of(key);
        if self.options.faults.decide_read(self.next_fault_seq()) == Some(StoreFault::ReadFail) {
            return Err(BarracudaError::Store {
                detail: format!(
                    "cannot read store entry {}: injected read fault",
                    path.display()
                ),
            });
        }
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                return Err(BarracudaError::Store {
                    detail: format!("cannot read store entry {}: {e}", path.display()),
                })
            }
        };
        let text = match String::from_utf8(bytes) {
            Ok(text) => text,
            Err(e) => {
                self.quarantine_corrupt(&path, &format!("not valid UTF-8: {e}"));
                return Ok(None);
            }
        };
        let plan = match TunedPlan::from_json_text(&text) {
            Ok(plan) => plan,
            Err(e) => {
                self.quarantine_corrupt(&path, &format!("undecodable content: {e}"));
                return Ok(None);
            }
        };
        let actual = StoreKey::of_plan(&plan);
        if actual != *key {
            self.quarantine_corrupt(
                &path,
                &format!(
                    "content does not match its own address: file name says {key} but the \
                     content says {actual} — tampered with or misfiled"
                ),
            );
            return Ok(None);
        }
        Ok(Some(plan))
    }

    /// Moves a damaged entry out of the address space so it can never be
    /// served, preserving the bytes for post-mortem. Best-effort: if even
    /// the rename fails the entry is left in place (the next lookup will
    /// retry) — never panics, never aborts the request.
    fn quarantine_corrupt(&self, path: &Path, reason: &str) {
        let mut name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        name.push_str(CORRUPT_SUFFIX);
        let sidecar = self.root.join(name);
        match std::fs::rename(path, &sidecar) {
            Ok(()) => {
                self.corrupt_quarantined.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "store: quarantined corrupt entry {} -> {} ({reason})",
                    path.display(),
                    sidecar.display()
                );
            }
            Err(e) => eprintln!(
                "store: could not quarantine corrupt entry {} ({reason}): {e}",
                path.display()
            ),
        }
    }

    /// Tolerant full scan: every `.plan.json` file that decodes becomes
    /// an entry, every one that does not becomes a per-file problem, and
    /// `*.corrupt` sidecars are listed separately. Only the directory
    /// read itself can fail.
    pub fn scan(&self) -> Result<StoreScan, BarracudaError> {
        let dir = std::fs::read_dir(&self.root).map_err(|e| BarracudaError::Store {
            detail: format!("cannot scan store directory {}: {e}", self.root.display()),
        })?;
        let mut out = StoreScan::default();
        for item in dir {
            let name = match item {
                Ok(item) => item.file_name().to_string_lossy().into_owned(),
                Err(e) => {
                    out.problems.push((
                        self.root.clone(),
                        format!("unreadable directory entry: {e}"),
                    ));
                    continue;
                }
            };
            if name.ends_with(CORRUPT_SUFFIX) {
                out.corrupt.push(self.root.join(&name));
            } else if name.ends_with(PLAN_SUFFIX) {
                match StoreKey::parse_file_name(&name) {
                    Some(key) => out.entries.push(StoreEntry {
                        path: self.root.join(&name),
                        key,
                    }),
                    None => out.problems.push((
                        self.root.join(&name),
                        "file name does not decode to a store key — not a barracuda artifact, \
                         or renamed by hand"
                            .to_string(),
                    )),
                }
            }
        }
        out.entries.sort_by(|a, b| a.path.cmp(&b.path));
        out.problems.sort_by(|a, b| a.0.cmp(&b.0));
        out.corrupt.sort();
        Ok(out)
    }

    /// Removes the entry under `key`. Returns whether one existed.
    pub fn evict(&self, key: &StoreKey) -> Result<bool, BarracudaError> {
        let path = self.path_of(key);
        match std::fs::remove_file(&path) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(BarracudaError::Store {
                detail: format!("cannot remove store entry {}: {e}", path.display()),
            }),
        }
    }

    /// Evicts every entry addressed under a schema older than
    /// [`PLAN_SCHEMA_VERSION`] (see [`StoreKey::is_stale`]), returning the
    /// removed entries. Undecodable file names are skipped, not fatal
    /// (report them via [`PlanStore::scan`]).
    pub fn gc(&self) -> Result<Vec<StoreEntry>, BarracudaError> {
        let mut evicted = Vec::new();
        for entry in self.scan()?.entries {
            if entry.key.is_stale() {
                self.evict(&entry.key)?;
                evicted.push(entry);
            }
        }
        Ok(evicted)
    }

    /// Removes every `*.corrupt` sidecar (and stale `*.partial`
    /// temporaries from dead writers), returning the paths removed.
    pub fn gc_corrupt(&self) -> Result<Vec<PathBuf>, BarracudaError> {
        let mut removed = Vec::new();
        for path in self.scan()?.corrupt {
            std::fs::remove_file(&path).map_err(|e| BarracudaError::Store {
                detail: format!("cannot remove corrupt sidecar {}: {e}", path.display()),
            })?;
            removed.push(path);
        }
        // Partial temporaries from writers that died before their rename:
        // invisible to lookups, but worth sweeping with the sidecars.
        if let Ok(dir) = std::fs::read_dir(&self.root) {
            for item in dir.flatten() {
                let name = item.file_name().to_string_lossy().into_owned();
                if name.ends_with(PARTIAL_SUFFIX) && std::fs::remove_file(item.path()).is_ok() {
                    removed.push(item.path());
                }
            }
        }
        removed.sort();
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::EvalCache;
    use crate::pipeline::{TuneParams, WorkloadTuner};
    use crate::workload::Workload;
    use tensor::index::uniform_dims;

    fn temp_store(tag: &str) -> PlanStore {
        let root =
            std::env::temp_dir().join(format!("barracuda_store_unit_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        PlanStore::open(root).unwrap()
    }

    fn tuned_plan() -> TunedPlan {
        let w = Workload::parse(
            "mm",
            "C[i k] = Sum([j], A[i j] * B[j k])",
            &uniform_dims(&["i", "j", "k"], 16),
        )
        .unwrap();
        let tuner = WorkloadTuner::build(&w);
        let tuned = tuner.autotune(&gpusim::k20(), TuneParams::quick()).unwrap();
        let k20 = crate::BackendSet::builtin().get("k20").unwrap().clone();
        TunedPlan::from_tuned_for(&tuner, k20.as_ref(), &tuned)
    }

    #[test]
    fn file_name_roundtrips_hostile_backends() {
        for backend in [
            "k20",
            "acc-opt",
            "UPPER case/../%41%",
            "snowman ☃ backend",
            "",
            "a-b_c9",
        ] {
            let key = StoreKey {
                fingerprint: 0xdead_beef_0123_4567,
                cache_salt: u64::MAX,
                schema: 12,
                backend: backend.to_string(),
            };
            let name = key.file_name();
            assert!(
                !name.contains('/') && !name.contains("..") && !name.contains(' '),
                "unsafe file name {name}"
            );
            assert_eq!(StoreKey::parse_file_name(&name), Some(key), "{name}");
        }
    }

    #[test]
    fn insert_lookup_is_bit_lossless() {
        let store = temp_store("roundtrip");
        let plan = tuned_plan();
        let path = store.insert(&plan).unwrap();
        assert!(path.exists());
        let key = StoreKey::of_plan(&plan);
        let back = store.lookup(&key).unwrap().unwrap();
        assert_eq!(plan, back);
        assert_eq!(plan.gpu_seconds.to_bits(), back.gpu_seconds.to_bits());
        // Replays straight out of the store.
        let w = back.workload().unwrap();
        let replayed = back
            .replay_built_in(
                &crate::BackendSet::builtin(),
                &w,
                &WorkloadTuner::build(&w),
                &EvalCache::new(),
            )
            .unwrap();
        assert_eq!(replayed.gpu_seconds.to_bits(), plan.gpu_seconds.to_bits());
    }

    #[test]
    fn lookup_misses_on_foreign_salt_and_schema() {
        let store = temp_store("miss");
        let plan = tuned_plan();
        store.insert(&plan).unwrap();
        let key = StoreKey::of_plan(&plan);
        let mut foreign = key.clone();
        foreign.cache_salt ^= 1;
        assert_eq!(store.lookup(&foreign).unwrap(), None);
        let mut old = key.clone();
        old.schema = 1;
        assert_eq!(store.lookup(&old).unwrap(), None);
        assert!(store.lookup(&key).unwrap().is_some());
    }

    #[test]
    fn tampered_content_is_quarantined_and_reinserted_clean() {
        let store = temp_store("tamper");
        let plan = tuned_plan();
        let path = store.insert(&plan).unwrap();
        let key = StoreKey::of_plan(&plan);
        // Rewrite the embedded fingerprint: the file name no longer
        // matches the content.
        let text = std::fs::read_to_string(&path).unwrap();
        let want = format!("{:016x}", plan.fingerprint);
        let tampered = text.replace(&want, &format!("{:016x}", plan.fingerprint ^ 1));
        assert_ne!(text, tampered);
        std::fs::write(&path, tampered).unwrap();
        // The tampered entry is quarantined, not served and not fatal.
        assert_eq!(store.lookup(&key).unwrap(), None);
        assert!(!path.exists(), "quarantine must move the entry aside");
        assert_eq!(store.corrupt_quarantined(), 1);
        let scan = store.scan().unwrap();
        assert_eq!(scan.corrupt.len(), 1);
        assert!(scan.corrupt[0].to_string_lossy().ends_with(".corrupt"));
        // Re-inserting files a clean artifact at the same address.
        store.insert(&plan).unwrap();
        assert_eq!(store.lookup(&key).unwrap(), Some(plan));
        // `gc_corrupt` sweeps the sidecar and nothing else.
        let removed = store.gc_corrupt().unwrap();
        assert_eq!(removed, scan.corrupt);
        assert_eq!(store.scan().unwrap().corrupt.len(), 0);
        assert_eq!(store.scan().unwrap().entries.len(), 1);
    }

    #[test]
    fn deeply_nested_entry_is_quarantined_as_a_miss() {
        let store = temp_store("deep");
        let plan = tuned_plan();
        let path = store.insert(&plan).unwrap();
        std::fs::write(&path, "[".repeat(1_000_000)).unwrap();
        // The parser's depth cap turns the entry into a decode failure:
        // quarantined and read as a miss, never a stack overflow.
        assert_eq!(store.lookup(&StoreKey::of_plan(&plan)).unwrap(), None);
        assert!(!path.exists(), "quarantine must move the entry aside");
        assert_eq!(store.corrupt_quarantined(), 1);
        assert_eq!(store.scan().unwrap().corrupt.len(), 1);
    }

    #[test]
    fn undecodable_name_degrades_scan() {
        let store = temp_store("undecodable");
        std::fs::write(store.root().join("NOT-A-KEY.plan.json"), "{}").unwrap();
        // Tolerant scan: the bad file is a per-file problem, not fatal.
        let scan = store.scan().unwrap();
        assert!(scan.entries.is_empty());
        assert_eq!(scan.problems.len(), 1);
        assert!(scan.problems[0].1.contains("does not decode"));
        // Non-plan files are simply ignored.
        let store2 = temp_store("ignored");
        std::fs::write(store2.root().join("README.txt"), "hi").unwrap();
        let scan2 = store2.scan().unwrap();
        assert!(scan2.entries.is_empty() && scan2.problems.is_empty());
    }

    #[test]
    fn non_canonical_names_are_unreadable_and_never_evicted() {
        let store = temp_store("canonical");
        let plan = tuned_plan();
        let path = store.insert(&plan).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let key = StoreKey::of_plan(&plan);
        let (fp, salt) = (
            format!("{:016x}", key.fingerprint),
            format!("{:016x}", key.cache_salt),
        );
        assert_ne!(salt, salt.to_uppercase(), "the k20 salt has hex letters");
        // Copies of the live entry under spellings `file_name` never
        // writes. Each decoded to a key once, so `plans list` showed it
        // and `gc` "evicted" a different path, leaving the file behind.
        let aliases = [
            format!("{fp}-{salt}-v2-%6B20.plan.json"),
            format!("{fp}-{salt}-v2-k%2b.plan.json"),
            format!("+{}-{salt}-v2-k20.plan.json", &fp[1..]),
            format!("{fp}-{}-v2-k20.plan.json", salt.to_uppercase()),
            format!("{fp}-{salt}-v03-k20.plan.json"),
        ];
        for alias in &aliases {
            assert_eq!(StoreKey::parse_file_name(alias), None, "{alias}");
            std::fs::write(store.root().join(alias), &text).unwrap();
        }
        let scan = store.scan().unwrap();
        assert_eq!(scan.entries.len(), 1);
        assert_eq!(scan.entries[0].path, path);
        assert_eq!(scan.problems.len(), aliases.len());
        assert_eq!(store.gc().unwrap(), Vec::new());
        for alias in &aliases {
            assert!(store.root().join(alias).exists(), "{alias}");
        }
        assert_eq!(store.lookup(&key).unwrap(), Some(plan));
    }

    #[test]
    fn insert_is_atomic_and_leaves_no_visible_partial() {
        let store = temp_store("atomic");
        let plan = tuned_plan();
        let key = StoreKey::of_plan(&plan);
        // A simulated crash between write and rename: the insert errors,
        // the temporary stays invisible, and lookup still misses.
        let crashing = PlanStore::open_with(
            store.root(),
            StoreOptions {
                durable: false,
                faults: StoreFaultPlan {
                    crash_before_rename_rate: 1.0,
                    ..StoreFaultPlan::none()
                },
            },
        )
        .unwrap();
        let err = crashing.insert(&plan).unwrap_err();
        assert_eq!(err.stage(), "store");
        assert!(err.to_string().contains("injected crash before rename"));
        assert_eq!(
            store.lookup(&key).unwrap(),
            None,
            "partial must stay invisible"
        );
        assert!(store.scan().unwrap().entries.is_empty());
        // The debris exists but only as a .partial temp; gc_corrupt sweeps it.
        let debris: Vec<_> = std::fs::read_dir(store.root())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".partial"))
            .collect();
        assert_eq!(debris.len(), 1);
        assert!(!store.gc_corrupt().unwrap().is_empty());
        // A durable insert through the normal path publishes atomically.
        let durable = PlanStore::open_with(
            store.root(),
            StoreOptions {
                durable: true,
                faults: StoreFaultPlan::none(),
            },
        )
        .unwrap();
        durable.insert(&plan).unwrap();
        assert_eq!(store.lookup(&key).unwrap(), Some(plan));
    }

    #[test]
    fn injected_read_and_write_faults_are_typed_store_errors() {
        let store = temp_store("faulty");
        let plan = tuned_plan();
        store.insert(&plan).unwrap();
        let key = StoreKey::of_plan(&plan);
        let faulty = PlanStore::open_with(
            store.root(),
            StoreOptions {
                durable: false,
                faults: StoreFaultPlan {
                    read_fail_rate: 1.0,
                    write_fail_rate: 1.0,
                    ..StoreFaultPlan::none()
                },
            },
        )
        .unwrap();
        let err = faulty.lookup(&key).unwrap_err();
        assert_eq!(err.exit_code(), 11);
        assert!(err.to_string().contains("injected read fault"));
        let err = faulty.insert(&plan).unwrap_err();
        assert_eq!(err.exit_code(), 11);
        assert!(err.to_string().contains("injected write fault"));
        // The entry itself is untouched by the injected faults.
        assert_eq!(store.lookup(&key).unwrap(), Some(plan));
    }

    #[test]
    fn gc_evicts_only_older_schemas() {
        let store = temp_store("gc");
        let plan = tuned_plan();
        let current = store.insert(&plan).unwrap();
        // What an older build left behind: a plan at its v1 address.
        let v1 = StoreKey {
            schema: 1,
            cache_salt: 0,
            ..StoreKey::of_plan(&plan)
        };
        let v1_text = plan
            .to_json_text()
            .replace("\"schema_version\": 3", "\"schema_version\": 1");
        std::fs::write(store.path_of(&v1), v1_text).unwrap();
        assert_eq!(store.scan().unwrap().entries.len(), 2);
        let evicted = store.gc().unwrap();
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].key, v1);
        assert!(evicted[0].key.is_stale());
        assert!(!store.path_of(&v1).exists());
        let left = store.scan().unwrap().entries;
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].key.schema, PLAN_SCHEMA_VERSION);
        assert!(current.exists(), "gc must keep the current entry");
        assert_eq!(store.lookup(&StoreKey::of_plan(&plan)).unwrap(), Some(plan));
    }
}
