//! Unified `Backend` trait and string-keyed registry over every timing
//! target the reproduction models.
//!
//! The paper compares seven execution targets: three CUDA GPUs (GTX 980,
//! K20, C2050), sequential and 4-thread OpenMP CPU baselines, and the two
//! OpenACC analogs (naive and Barracuda-optimized directives). Before this
//! module each target had its own entry point with its own calling
//! convention; the [`Backend`] trait gives them one interface — name
//! yourself, time a configuration — and [`BackendSet`] makes them
//! addressable by stable string keys (`gtx980`, `cpu4`, `acc-opt`, …)
//! from the CLI, the daemon, the bench binaries and the tests alike, which
//! load descriptors ([`BackendSet::with_descriptors`]) and resolve search
//! targets ([`BackendSet::searchable`], [`BackendSet::gpu_targets`])
//! through the set.
//!
//! Backends are *data*: every GPU architecture is an
//! [`gpusim::ArchDescriptor`] (the built-ins ship as embedded TOML), and a
//! set can be extended at runtime from descriptor files (`--arch-file`,
//! `--arch-dir`). A GPU backend's [`Backend::cache_salt`] is the FNV-1a
//! digest of its canonical descriptor, so plan-store addressing is
//! self-invalidating: edit a descriptor and every plan tuned against the
//! old numbers misses (or is rejected on replay with the plan exit code).
//!
//! Sweeps over a whole set run through
//! [`crate::session::TuningSession::tune_all`]: one lowering, one shared
//! [`crate::EvalCache`] per workload, every backend. GPU backends salt
//! the cache's per-op keyspace by architecture name (distinct rooflines
//! must never share timings) but share the arch-independent feature
//! memo, so a three-arch sweep pays feature extraction once.

use crate::cpu::{try_cpu_programs, workload_cpu_time};
use crate::error::BarracudaError;
use crate::openacc::{try_openacc_naive, try_openacc_optimized_parts, AccMapping};
use crate::pipeline::WorkloadTuner;
use crate::stages::evaluate::salt_of;
use cpusim::model::CpuModel;
use gpusim::{ArchDescriptor, GpuArch};
use std::path::Path;
use std::sync::{Arc, OnceLock};
use tcr::TcrProgram;

/// What a backend can do, for capability-gated callers (a search loop only
/// wants searchable backends; a codegen path only CUDA emitters).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BackendCaps {
    /// The backend's time depends on the configuration id, so SURF search
    /// over the joint space is meaningful.
    pub searchable: bool,
    /// The backend can emit CUDA source for its chosen configuration.
    pub emits_cuda: bool,
    /// The backend models an accelerator (device + PCIe transfers) rather
    /// than a host CPU.
    pub accelerator: bool,
}

/// One timing target: a simulated GPU architecture, a CPU baseline, or an
/// OpenACC analog. Implementations are stateless and `Send + Sync`, so a
/// [`BackendSet`] can be shared across threads behind `Arc`s.
pub trait Backend: Send + Sync {
    /// Stable machine-readable registry key (`gtx980`, `cpu1`, `acc-opt`).
    fn key(&self) -> &str;

    /// Human-readable name (`"GTX 980"`, `"Haswell CPU, 4 threads"`).
    fn name(&self) -> String;

    /// The GPU architecture descriptor the backend times against, when it
    /// has one (CPU baselines return `None`).
    fn arch(&self) -> Option<&GpuArch>;

    fn caps(&self) -> BackendCaps;

    /// Salt naming this backend's model revision: plans and store entries
    /// carry it, and replay refuses a plan whose salt differs. Never 0, so
    /// a plan whose salt reads zero matches no backend.
    fn cache_salt(&self) -> u64;

    /// End-to-end modeled seconds (device + transfers, or CPU wall time) of
    /// configuration `id` of the tuner's workload. Backends whose time does
    /// not depend on the configuration (CPU baselines) ignore `id`. A
    /// configuration that does not lower or map on this backend is the
    /// typed error of the failing stage.
    fn time_config(&self, tuner: &WorkloadTuner, id: u128) -> Result<f64, BarracudaError>;
}

/// A simulated CUDA GPU: one of the paper's three architectures, or any
/// machine described by a descriptor file.
pub struct GpuBackend {
    pub arch: GpuArch,
    /// FNV-1a digest of the canonical descriptor, computed once at
    /// construction — this is the plan-store salt.
    digest: u64,
}

impl GpuBackend {
    pub fn new(arch: GpuArch) -> Self {
        let digest = ArchDescriptor::from_arch(arch.clone()).digest();
        GpuBackend { arch, digest }
    }
}

impl Backend for GpuBackend {
    fn key(&self) -> &str {
        &self.arch.key
    }

    fn name(&self) -> String {
        self.arch.name.to_string()
    }

    fn arch(&self) -> Option<&GpuArch> {
        Some(&self.arch)
    }

    fn caps(&self) -> BackendCaps {
        BackendCaps {
            searchable: true,
            emits_cuda: true,
            accelerator: true,
        }
    }

    fn cache_salt(&self) -> u64 {
        self.digest
    }

    fn time_config(&self, tuner: &WorkloadTuner, id: u128) -> Result<f64, BarracudaError> {
        Ok(tuner.try_gpu_seconds(id, &self.arch)? + tuner.transfer_seconds(&self.arch))
    }
}

/// A modeled Haswell CPU baseline (sequential or OpenMP).
pub struct CpuBackend {
    pub threads: usize,
    model: CpuModel,
}

impl CpuBackend {
    pub fn new(threads: usize) -> Self {
        CpuBackend {
            threads,
            model: CpuModel::haswell(),
        }
    }
}

impl Backend for CpuBackend {
    fn key(&self) -> &str {
        // The registry only constructs the paper's two thread counts.
        if self.threads <= 1 {
            "cpu1"
        } else {
            "cpu4"
        }
    }

    fn name(&self) -> String {
        if self.threads <= 1 {
            "Haswell CPU, sequential".to_string()
        } else {
            format!("Haswell CPU, {} OpenMP threads", self.threads)
        }
    }

    fn arch(&self) -> Option<&GpuArch> {
        None
    }

    fn caps(&self) -> BackendCaps {
        BackendCaps {
            searchable: false,
            emits_cuda: false,
            accelerator: false,
        }
    }

    fn cache_salt(&self) -> u64 {
        salt_of(self.key())
    }

    fn time_config(&self, tuner: &WorkloadTuner, _id: u128) -> Result<f64, BarracudaError> {
        // The CPU baseline always runs the best-flop lowering; the GPU
        // configuration id does not apply. Validate the lowering, then time.
        try_cpu_programs(&tuner.workload)?;
        Ok(workload_cpu_time(&tuner.workload, &self.model, self.threads).time_s)
    }
}

/// An OpenACC analog (paper §VI-B), timed on a reference GPU architecture.
pub struct AccBackend {
    pub optimized: bool,
    pub arch: GpuArch,
}

impl AccBackend {
    /// Directives with no decomposition guidance (gang/vector defaults).
    pub fn naive() -> Self {
        AccBackend {
            optimized: false,
            arch: gpusim::k20(),
        }
    }

    /// Barracuda-derived decomposition directives + scalar replacement.
    pub fn optimized() -> Self {
        AccBackend {
            optimized: true,
            arch: gpusim::k20(),
        }
    }

    /// Builds the mapping this backend times: naive ignores `id`; optimized
    /// derives its directives from the configuration `id` selects.
    fn mapping(&self, tuner: &WorkloadTuner, id: u128) -> Result<AccMapping, BarracudaError> {
        if !self.optimized {
            return try_openacc_naive(&tuner.workload);
        }
        let locals = tuner.decode(id);
        let programs: Vec<TcrProgram> = tuner
            .statements
            .iter()
            .zip(&locals)
            .map(|(st, &local)| {
                let (v, _) = st.decode(local);
                st.variants[v].program.clone()
            })
            .collect();
        let kernels = tuner.kernels(id)?;
        try_openacc_optimized_parts(&tuner.workload, &programs, &kernels)
    }
}

impl Backend for AccBackend {
    fn key(&self) -> &str {
        if self.optimized {
            "acc-opt"
        } else {
            "acc-naive"
        }
    }

    fn name(&self) -> String {
        if self.optimized {
            format!("OpenACC optimized on {}", self.arch.name)
        } else {
            format!("OpenACC naive on {}", self.arch.name)
        }
    }

    fn arch(&self) -> Option<&GpuArch> {
        Some(&self.arch)
    }

    fn caps(&self) -> BackendCaps {
        BackendCaps {
            // Optimized-ACC time varies with the id it borrows directives
            // from, but it is a derived mapping, not a search target.
            searchable: false,
            emits_cuda: false,
            accelerator: true,
        }
    }

    fn cache_salt(&self) -> u64 {
        salt_of(self.key())
    }

    fn time_config(&self, tuner: &WorkloadTuner, id: u128) -> Result<f64, BarracudaError> {
        Ok(self
            .mapping(tuner, id)?
            .total_seconds(&tuner.workload, &self.arch))
    }
}

/// An owned, ordered set of backends addressable by string key.
///
/// Constructed once and shared (`Arc<dyn Backend>` per entry), it replaces
/// the old `registry()` free function that re-built every box and re-cloned
/// every architecture on each lookup. The default set holds the paper's
/// seven targets in presentation order: three GPU architectures, two CPU
/// baselines, two OpenACC analogs. Descriptor files extend it at runtime.
#[derive(Clone)]
pub struct BackendSet {
    backends: Vec<Arc<dyn Backend>>,
}

impl Default for BackendSet {
    fn default() -> Self {
        Self::builtin()
    }
}

impl BackendSet {
    /// The seven built-in backends (a cheap clone of a process-wide set,
    /// built once on first use: seven `Arc` bumps, no arch parsing or
    /// boxing).
    pub fn builtin() -> BackendSet {
        static BUILTIN: OnceLock<BackendSet> = OnceLock::new();
        BUILTIN
            .get_or_init(|| {
                let mut v: Vec<Arc<dyn Backend>> = Vec::new();
                for arch in gpusim::all_architectures() {
                    v.push(Arc::new(GpuBackend::new(arch)));
                }
                v.push(Arc::new(CpuBackend::new(1)));
                v.push(Arc::new(CpuBackend::new(4)));
                v.push(Arc::new(AccBackend::naive()));
                v.push(Arc::new(AccBackend::optimized()));
                BackendSet { backends: v }
            })
            .clone()
    }

    /// The built-ins, then each descriptor file in order, then every
    /// `*.toml` in `dir` sorted by file name (`--arch-file`, `--arch-dir`).
    /// Also returns the keys the descriptors added, in load order.
    pub fn with_descriptors(
        files: &[impl AsRef<Path>],
        dir: Option<&Path>,
    ) -> Result<(BackendSet, Vec<String>), BarracudaError> {
        let mut set = BackendSet::builtin();
        let mut loaded = Vec::new();
        for file in files {
            loaded.push(set.load_arch_file(file.as_ref())?);
        }
        if let Some(dir) = dir {
            loaded.extend(set.load_arch_dir(dir)?);
        }
        Ok((set, loaded))
    }

    /// The architecture of the searchable backend `key` names, or the
    /// reason there is none (unknown key, or a backend with no search of
    /// its own).
    pub fn searchable(&self, key: &str) -> Result<&GpuArch, String> {
        let reason = |what: &str| {
            let keys: Vec<&str> = self
                .iter()
                .filter(|b| b.caps().searchable)
                .map(|b| b.key())
                .collect();
            format!("{what} (searchable: {})", keys.join(", "))
        };
        match self.get(key) {
            None => Err(reason(&format!("unknown architecture {key}"))),
            Some(b) => match b.arch() {
                Some(arch) if b.caps().searchable => Ok(arch),
                _ => Err(reason(&format!("backend {key} is not searchable"))),
            },
        }
    }

    /// The architectures `key` targets: [`BackendSet::searchable`]'s for
    /// one key, or every searchable backend's, in set order, for `all`.
    pub fn gpu_targets(&self, key: &str) -> Result<Vec<GpuArch>, String> {
        if key == "all" {
            return Ok(self
                .iter()
                .filter(|b| b.caps().searchable)
                .filter_map(|b| b.arch().cloned())
                .collect());
        }
        Ok(vec![self.searchable(key)?.clone()])
    }

    /// Registers a GPU architecture as a searchable backend. Keys and
    /// names must stay unique: two rooflines sharing a name would alias
    /// each other's evaluation-cache entries.
    pub fn add_arch(&mut self, arch: GpuArch) -> Result<(), BarracudaError> {
        if self.get(&arch.key).is_some() {
            return Err(BarracudaError::Descriptor {
                path: None,
                detail: format!("duplicate backend key `{}`", arch.key),
            });
        }
        if self.backends.iter().any(|b| b.name() == arch.name) {
            return Err(BarracudaError::Descriptor {
                path: None,
                detail: format!(
                    "duplicate backend name `{}` (names salt the shared eval cache)",
                    arch.name
                ),
            });
        }
        self.backends.push(Arc::new(GpuBackend::new(arch)));
        Ok(())
    }

    /// Loads one descriptor file and registers it. Returns the new key.
    pub fn load_arch_file(&mut self, path: &Path) -> Result<String, BarracudaError> {
        let d = ArchDescriptor::load(path).map_err(|e| with_path(e, path))?;
        let key = d.key().to_string();
        self.add_arch(d.into_arch()).map_err(|e| match e {
            BarracudaError::Descriptor { detail, .. } => BarracudaError::Descriptor {
                path: Some(path.display().to_string()),
                detail,
            },
            other => other,
        })?;
        Ok(key)
    }

    /// Loads every `*.toml` in a directory (sorted by file name, so the
    /// set's order — and any key collision — is deterministic). Returns
    /// the new keys.
    pub fn load_arch_dir(&mut self, dir: &Path) -> Result<Vec<String>, BarracudaError> {
        let entries = std::fs::read_dir(dir).map_err(|e| BarracudaError::Descriptor {
            path: Some(dir.display().to_string()),
            detail: format!("cannot read descriptor directory: {e}"),
        })?;
        let mut files: Vec<_> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "toml"))
            .collect();
        files.sort();
        let mut keys = Vec::new();
        for f in files {
            keys.push(self.load_arch_file(&f)?);
        }
        Ok(keys)
    }

    /// Looks a backend up by key — no allocation, no construction.
    pub fn get(&self, key: &str) -> Option<&Arc<dyn Backend>> {
        self.backends.iter().find(|b| b.key() == key)
    }

    pub fn iter(&self) -> impl Iterator<Item = &Arc<dyn Backend>> {
        self.backends.iter()
    }

    /// Every key, in set order (stable, CLI-facing).
    pub fn keys(&self) -> Vec<&str> {
        self.backends.iter().map(|b| b.key()).collect()
    }

    pub fn len(&self) -> usize {
        self.backends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.backends.is_empty()
    }
}

fn with_path(e: gpusim::DescriptorError, path: &Path) -> BarracudaError {
    BarracudaError::Descriptor {
        path: Some(path.display().to_string()),
        detail: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::TuneParams;
    use crate::workload::Workload;
    use std::collections::BTreeSet;
    use tensor::index::uniform_dims;

    fn matmul(n: usize) -> Workload {
        Workload::parse(
            "mm",
            "C[i k] = Sum([j], A[i j] * B[j k])",
            &uniform_dims(&["i", "j", "k"], n),
        )
        .unwrap()
    }

    #[test]
    fn registry_keys_are_stable_and_distinct() {
        let builtin = BackendSet::builtin();
        let keys = builtin.keys();
        assert_eq!(
            keys,
            vec![
                "gtx980",
                "k20",
                "c2050",
                "cpu1",
                "cpu4",
                "acc-naive",
                "acc-opt"
            ]
        );
        let set: BTreeSet<_> = keys.iter().collect();
        assert_eq!(set.len(), keys.len());
        for k in keys {
            assert!(builtin.get(k).is_some(), "lookup must find {k}");
        }
        assert!(builtin.get("tpu").is_none());
    }

    #[test]
    fn backend_salts_are_distinct_and_never_zero() {
        let salts: BTreeSet<u64> = BackendSet::builtin()
            .iter()
            .map(|b| b.cache_salt())
            .collect();
        assert_eq!(salts.len(), 7, "no two backends may share a timing salt");
        assert!(!salts.contains(&0), "salt 0 must match no backend");
    }

    #[test]
    fn gpu_salts_are_descriptor_digests() {
        for b in BackendSet::builtin().iter().filter(|b| b.caps().searchable) {
            let arch = b.arch().unwrap();
            let expected = ArchDescriptor::from_arch(arch.clone()).digest();
            assert_eq!(b.cache_salt(), expected, "{}", b.key());
        }
    }

    #[test]
    fn backend_set_extends_from_a_descriptor_and_rejects_duplicates() {
        let mut set = BackendSet::builtin();
        let mut arch = gpusim::k20();
        arch.key = "k20x".to_string();
        arch.name = "Tesla K20X-ish".to_string();
        arch.sm_count = 14;
        set.add_arch(arch.clone()).unwrap();
        assert_eq!(set.len(), 8);
        let b = set.get("k20x").unwrap();
        assert!(b.caps().searchable);
        // Same numbers as k20 except sm_count → a different digest.
        assert_ne!(b.cache_salt(), set.get("k20").unwrap().cache_salt());
        // Re-adding the same key, or a fresh key with a colliding name,
        // is a typed descriptor error.
        assert!(matches!(
            set.add_arch(arch.clone()),
            Err(BarracudaError::Descriptor { .. })
        ));
        arch.key = "k20y".to_string();
        assert!(matches!(
            set.add_arch(arch),
            Err(BarracudaError::Descriptor { .. })
        ));
    }

    #[test]
    fn every_backend_times_the_tuned_configuration() {
        let w = matmul(16);
        let tuner = WorkloadTuner::build(&w);
        let tuned = tuner.autotune(&gpusim::k20(), TuneParams::quick()).unwrap();
        for b in BackendSet::builtin().iter() {
            let t = b.time_config(&tuner, tuned.id).unwrap();
            assert!(t.is_finite() && t > 0.0, "{}: {t}", b.key());
        }
    }

    #[test]
    fn gpu_backend_time_matches_direct_path() {
        let w = matmul(16);
        let tuner = WorkloadTuner::build(&w);
        let arch = gpusim::gtx980();
        let tuned = tuner.autotune(&arch, TuneParams::quick()).unwrap();
        let builtin = BackendSet::builtin();
        let b = builtin.get("gtx980").unwrap();
        let t = b.time_config(&tuner, tuned.id).unwrap();
        assert_eq!(t.to_bits(), tuned.total_seconds().to_bits());
    }
}
