//! One module per paper table/figure.

pub mod ablations;
pub mod figure2;
pub mod figure3;
pub mod objective_ablation;
pub mod pruning;
pub mod search_compare;
pub mod search_stats;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod versions;

use barracuda::pipeline::TuneParams;
use gpusim::GpuArch;

/// Tuning parameters used by every experiment: the paper-scale settings.
pub fn experiment_params() -> TuneParams {
    TuneParams::paper()
}

/// Resolves the shared bench flags — `--backend KEY|all` plus repeatable
/// `--arch-file PATH` descriptor loads — into the GPU architectures to
/// run. No flags → `default`, so every binary's no-argument output stays
/// bit-identical to before the registry existed. Descriptor keys work
/// anywhere a built-in key does; `--arch-file` without `--backend` runs
/// the loaded descriptors themselves. Non-GPU backend keys are rejected:
/// these experiments time CUDA mappings.
pub fn archs_from_args(args: &[String], default: &[GpuArch]) -> Result<Vec<GpuArch>, String> {
    let mut backend: Option<String> = None;
    let mut files: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--backend" => backend = Some(it.next().ok_or("--backend needs a key")?.clone()),
            "--arch-file" => files.push(it.next().ok_or("--arch-file needs a path")?.clone()),
            other => {
                return Err(format!(
                    "unknown option {other} (only --backend KEY|all and --arch-file PATH)"
                ))
            }
        }
    }
    let (set, loaded) =
        barracuda::BackendSet::with_descriptors(&files, None).map_err(|e| e.to_string())?;
    match backend.as_deref() {
        None if loaded.is_empty() => Ok(default.to_vec()),
        None => loaded.iter().map(|k| set.searchable(k).cloned()).collect(),
        Some(key) => set.gpu_targets(key),
    }
}

/// [`archs_from_args`] with exit-2-on-usage-error semantics for binaries.
pub fn archs_or_exit(default: &[GpuArch]) -> Vec<GpuArch> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match archs_from_args(&args, default) {
        Ok(archs) => archs,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// Reduced parameters for smoke tests of the experiment drivers.
pub fn smoke_params() -> TuneParams {
    let mut p = TuneParams::quick();
    p.surf.max_evals = 30;
    p.pool_cap = 500;
    p
}
