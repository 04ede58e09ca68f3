//! Output checks every run makes, outside every timing.

use barracuda::json::Json;
use barracuda::stages::evaluate;
use barracuda::{
    kernels, EvalCache, TuneParams, TunedWorkload, TunerEvaluator, TuningSession, WorkloadTuner,
};
use gpusim::GpuArch;

/// A pick's reported device time must be the unmemoized simulator time of
/// its id, bit for bit, and the memoized evaluator must agree with it.
pub fn pick(
    tuner: &WorkloadTuner,
    arch: &GpuArch,
    id: u128,
    gpu_seconds: f64,
) -> Result<(), String> {
    let name = &tuner.workload.name;
    let direct = evaluate::joint_gpu_seconds(&tuner.workload, &tuner.statements, id, arch)
        .map_err(|e| format!("{name}: pick {id} no longer evaluates: {e}"))?;
    let cache = EvalCache::new();
    let memo = TunerEvaluator::new(tuner, arch, &cache, &TuneParams::paper()).time(id);
    if direct.to_bits() != gpu_seconds.to_bits() || memo.to_bits() != gpu_seconds.to_bits() {
        return Err(format!(
            "{name} on {}: pick {id} reports {gpu_seconds:e} s but the simulator gives \
             {direct:e} s unmemoized and {memo:e} s memoized",
            arch.name
        ));
    }
    Ok(())
}

/// The plan filed for `tuned` must replay from the store without searching
/// and reproduce the result bit for bit.
pub fn replays(
    session: &TuningSession,
    tuner: &WorkloadTuner,
    backend: &str,
    tuned: &TunedWorkload,
) -> Result<(), String> {
    let name = &tuner.workload.name;
    let replayed = session
        .replay_hit(tuner, backend, &tuned.objective)
        .map_err(|e| format!("{name}: stored plan does not replay: {e}"))?
        .ok_or_else(|| format!("{name}: no stored plan to replay"))?
        .tuned;
    let same = replayed.id == tuned.id
        && replayed.gpu_seconds.to_bits() == tuned.gpu_seconds.to_bits()
        && replayed.transfer_seconds.to_bits() == tuned.transfer_seconds.to_bits()
        && replayed.flops == tuned.flops
        && replayed.search.n_evals == tuned.search.n_evals
        && replayed.search.space_size == tuned.search.space_size;
    if !same {
        return Err(format!(
            "{name}: replayed plan differs from the tune it stored"
        ));
    }
    Ok(())
}

/// The fields of a successful `tune` answer the checks compare.
pub struct Answer {
    pub source: String,
    pub gpu_us: f64,
    pub evals: usize,
    pub evals_performed: usize,
    pub timing: String,
}

/// Parses a `tune` answer; an `ok:false` answer is an error.
pub fn answer(response: &str) -> Result<Answer, String> {
    let v = Json::parse(response).map_err(|e| format!("unparsable answer {response}: {e}"))?;
    let text = |k: &str| v.get(k).and_then(Json::as_str).map(str::to_string);
    let count = |k: &str| v.get(k).and_then(Json::as_u64).map(|n| n as usize);
    match (
        v.get("ok").and_then(Json::as_bool),
        text("source"),
        v.get("gpu_us").and_then(Json::as_f64),
        count("evals"),
        count("evals_performed"),
        text("timing"),
    ) {
        (
            Some(true),
            Some(source),
            Some(gpu_us),
            Some(evals),
            Some(evals_performed),
            Some(timing),
        ) => Ok(Answer {
            source,
            gpu_us,
            evals,
            evals_performed,
            timing,
        }),
        _ => Err(format!("request failed: {response}")),
    }
}

/// Checks one warm `tune` answer: a store hit that searched nothing and
/// reports the pick's device time (`gpu_us`) and evaluation count bit for
/// bit. Returns the timing line.
pub fn warm_response(response: &str, gpu_us: f64, n_evals: usize) -> Result<String, String> {
    let a = answer(response)?;
    if a.source != "hit"
        || a.evals_performed != 0
        || a.evals != n_evals
        || a.gpu_us.to_bits() != gpu_us.to_bits()
    {
        return Err(format!(
            "warm answer is not a zero-eval replay of the {gpu_us} us pick: {response}"
        ));
    }
    Ok(a.timing)
}

/// The contraction behind a builtin name at extents small enough to execute
/// functionally: the paper's extents take minutes per validation.
pub fn reduced(name: &str) -> Option<barracuda::Workload> {
    const N: usize = 4;
    Some(match name {
        "eqn1" => kernels::eqn1(6),
        "lg3" => kernels::lg3(N, 2),
        "lg3t" => kernels::lg3t(N, 2),
        "tce" => kernels::tce_ex(N),
        other => {
            let (family, v) = other.split_once('_')?;
            let v: usize = v.parse().ok()?;
            match family {
                "s1" => kernels::nwchem_s1(v, N),
                "d1" => kernels::nwchem_d1(v, N),
                "d2" => kernels::nwchem_d2(v, N),
                _ => return None,
            }
        }
    })
}

/// Tunes the reduced instance of `name` and runs the pick on gpusim's
/// functional executor; every output must match the reference einsum
/// within 1e-10.
pub fn executes_correctly(name: &str, arch: &GpuArch, seed: u64) -> Result<(), String> {
    let w = reduced(name).ok_or_else(|| format!("no reduced instance of {name}"))?;
    let tuner = WorkloadTuner::build(&w);
    let mut params = TuneParams::quick();
    params.threads = 1;
    let tuned: TunedWorkload = tuner
        .autotune(arch, params)
        .map_err(|e| format!("{name} (reduced): {e}"))?;
    let inputs = w.random_inputs(seed);
    let want = w
        .evaluate_reference(&inputs)
        .map_err(|e| format!("{name} (reduced) reference: {e}"))?;
    let got = tuned
        .execute(&w, &inputs)
        .map_err(|e| format!("{name} (reduced) executor: {e}"))?;
    if want.len() != got.len() {
        return Err(format!("{name} (reduced): output count differs"));
    }
    for ((n1, t1), (n2, t2)) in want.iter().zip(&got) {
        if n1 != n2 || !t1.approx_eq(t2, 1e-10) {
            return Err(format!(
                "{name} (reduced): executed pick {} computes a wrong {n1}",
                tuned.id
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builtin_has_a_reduced_instance() {
        for name in crate::workload::BUILTINS {
            let w = reduced(name).unwrap_or_else(|| panic!("{name}"));
            assert_eq!(
                w.statements.len(),
                kernels::builtin(name).unwrap().statements.len()
            );
        }
    }
}
