//! `barracuda` — command-line front end to the autotuning pipeline.
//!
//! ```text
//! barracuda tune <file.dsl | builtin:NAME> [options]
//! barracuda info <file.dsl | builtin:NAME> [options]
//! barracuda replay <plan.json> [--validate] [--emit cuda]
//! barracuda replay <file.dsl | builtin:NAME> --store DIR [--backend KEY]
//! barracuda plans <list|gc> --store DIR [--corrupt]
//! barracuda plans <show|path> <file.dsl | builtin:NAME> --store DIR
//! barracuda serve [--store DIR] [--listen stdio|tcp:HOST:PORT|unix:PATH]
//!                 [--max-searches N] [--queue N] [--fsync]
//! barracuda backends
//! barracuda benchmarks
//!
//! options:
//!   --arch gtx980|k20|c2050|all   target architecture (default gtx980,
//!                                 or the first loaded descriptor);
//!                                 `all` sweeps every searchable backend
//!                                 in the loaded set
//!   --arch-file PATH              load one architecture descriptor
//!                                 (TOML; repeatable) into the backend
//!                                 set — its key then works anywhere a
//!                                 built-in key does, and its plans are
//!                                 addressed by the descriptor digest
//!   --arch-dir DIR                load every `*.toml` descriptor in DIR
//!                                 (sorted by file name)
//!   --backend KEY|all             target backend from the registry (see
//!                                 `barracuda backends`); GPU keys behave
//!                                 like --arch, CPU/OpenACC keys report
//!                                 modeled baseline times, `all` sweeps
//!                                 every backend over one shared cache
//!   --store DIR                   content-addressed plan store: `tune`
//!                                 becomes store-first (hit -> replay with
//!                                 0 search evaluations, bit-identical
//!                                 timing; miss -> search then persist),
//!                                 `replay` takes a workload spec instead
//!                                 of a path, `plans` manages the entries
//!   --corrupt                     `plans gc`: also remove `*.corrupt`
//!                                 quarantine sidecars and orphaned
//!                                 `*.partial` temp files (`plans gc`
//!                                 always evicts entries filed under an
//!                                 older plan schema)
//!   --save-plan PATH              persist the winning configuration +
//!                                 provenance as versioned JSON (single
//!                                 GPU target only); `barracuda replay`
//!                                 re-maps and re-times it with no search
//!   --dim IDX=EXT                 extent for one index (repeatable)
//!   --dims N                      extent for every undeclared index
//!   --evals N                     SURF evaluation budget (default 1200)
//!   --objective time|memory|balanced
//!                                 search objective preset (default time:
//!                                 rank candidates by simulated time only,
//!                                 bit-identical to historical output);
//!                                 memory and balanced also weigh peak
//!                                 temporary bytes and global read/write
//!                                 volume into the score
//!   --mem-budget BYTES            hard cap on modeled peak temporary
//!                                 bytes: oversized versions are pruned
//!                                 before lowering/evaluation and the
//!                                 final pick never exceeds the budget
//!                                 (typed search failure, exit 8, when
//!                                 nothing fits); `replay` validates the
//!                                 requested objective against the plan's
//!   --mem-weight W                override the objective's weight on
//!                                 peak temporary MiB
//!   --rw-weight W                 override the objective's weight on
//!                                 global read/write MiB
//!   --mem-penalize                score over-budget candidates with a
//!                                 large penalty instead of pruning them
//!                                 (they still train the surrogate; the
//!                                 final pick still respects the budget)
//!   --quick                       small search budget (tests/demos)
//!   --deadline S                  wall-clock search deadline in seconds
//!   --min-survivors F             stop early when fewer than F of the
//!                                 attempts survive quarantine (0..1)
//!   --inject-faults RATE          deterministically fail RATE of the
//!                                 evaluations (resilience testing)
//!   --fault-seed N                seed for --inject-faults (default 7)
//!   --strict                      exit 9 when the search degrades
//!                                 (budget/deadline/survivor threshold)
//!   --listen SPEC                 `serve` transport: stdio (default,
//!                                 sequential), tcp:HOST:PORT or
//!                                 unix:PATH (thread per connection;
//!                                 identical concurrent requests coalesce
//!                                 into one search)
//!   --max-searches N              `serve`: cold-search permit pool size
//!                                 (default: available parallelism);
//!                                 store hits bypass the pool, coalesced
//!                                 followers ride their leader's permit
//!   --queue N                     `serve`: wait-queue depth for cold
//!                                 searches (default: --max-searches);
//!                                 overflow is shed with typed busy
//!                                 (exit 13, retry_after_ms on the wire)
//!   --fsync                       `serve`: fsync plan-store writes
//!                                 (survive power loss, not just crash)
//!   --emit cuda|tcr|annotation    artifact to print after tuning
//!   --validate                    execute the tuned kernels against the
//!                                 reference evaluator before reporting
//!   --fused                       also evaluate the fused alternative
//!   --explain                     per-kernel timing breakdown + which
//!                                 parameters the surrogate found important
//! ```
//!
//! Exit codes: 0 success, 1 generic failure, 2 usage; typed pipeline
//! failures exit with their stage code (3 parse, 4 validation,
//! 5 factorization, 6 mapping, 7 simulation, 8 search, 10 plan,
//! 11 store, 12 serve, 13 busy, 14 descriptor); 9 means the run
//! completed but degraded under `--strict`.
//! A bad plan *artifact* — unsupported schema version (any plan file
//! not written in the current v3 layout), tampered workload fingerprint,
//! foreign backend cache salt — is the exit-10 case; a bad
//! plan *store* — unreadable directory, an injected I/O fault — is the
//! exit-11 case (a corrupt *entry* is quarantined to a `*.corrupt`
//! sidecar and treated as a miss instead); a daemon that cannot bind its
//! transport is the exit-12 case (in-protocol failures answer `ok:false`
//! on the wire instead of killing the daemon); an overloaded or draining
//! daemon sheds tune requests with the typed busy rejection — exit 13,
//! `retry_after_ms` on the wire — instead of queueing them forever.
//!
//! Built-in workloads (for `builtin:NAME`): eqn1, lg3, lg3t, tce,
//! s1_1..s1_9, d1_1..d1_9, d2_1..d2_9.

use barracuda::prelude::*;
use barracuda::report::{fmt_f, fmt_timing};
use barracuda::{
    BackendSet, EvalCache, PlanStore, TunedPlan, TunedWorkload, TuningSession, PLAN_SCHEMA_VERSION,
};
use std::process::ExitCode;
use std::sync::Arc;
use surf::{FaultPlan, SearchStatus};
use tensor::IndexMap;

struct Options {
    arch: Option<String>,
    arch_files: Vec<String>,
    arch_dir: Option<String>,
    backend: Option<String>,
    store: Option<String>,
    save_plan: Option<String>,
    dims: IndexMap,
    default_dim: Option<usize>,
    evals: usize,
    quick: bool,
    deadline: Option<f64>,
    min_survivors: f64,
    inject_faults: Option<f64>,
    fault_seed: u64,
    strict: bool,
    emit: Option<String>,
    validate: bool,
    fused: bool,
    explain: bool,
    listen: Option<String>,
    max_searches: Option<usize>,
    queue: Option<usize>,
    fsync: bool,
    gc_corrupt: bool,
    /// The search objective assembled from `--objective`, `--mem-budget`,
    /// `--mem-weight`, `--rw-weight` and `--mem-penalize`. Defaults to
    /// time-only, which reproduces the historical ranking bit-for-bit.
    objective: Objective,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            arch: None,
            arch_files: Vec::new(),
            arch_dir: None,
            backend: None,
            store: None,
            save_plan: None,
            dims: IndexMap::new(),
            default_dim: None,
            evals: 1200,
            quick: false,
            deadline: None,
            min_survivors: 0.0,
            inject_faults: None,
            fault_seed: 7,
            strict: false,
            emit: None,
            validate: false,
            fused: false,
            explain: false,
            listen: None,
            max_searches: None,
            queue: None,
            fsync: false,
            gc_corrupt: false,
            objective: Objective::time_only(),
        }
    }
}

/// Everything the CLI can fail with, mapped onto the documented exit codes.
enum CliError {
    /// Bad command line: exit 2 (after printing usage).
    Usage(String),
    /// A typed pipeline failure: exits with the stage's own code (3..8).
    Pipeline(BarracudaError),
    /// Anything else (I/O, validation mismatch): exit 1.
    Other(String),
    /// `--strict` and the search degraded: exit 9.
    StrictDegraded(String),
}

impl From<BarracudaError> for CliError {
    fn from(e: BarracudaError) -> Self {
        CliError::Pipeline(e)
    }
}

impl CliError {
    fn report(self) -> ExitCode {
        match self {
            CliError::Usage(msg) => {
                eprintln!("error: {msg}");
                usage()
            }
            CliError::Pipeline(e) => {
                eprintln!("error[{}]: {e}", e.stage());
                ExitCode::from(e.exit_code() as u8)
            }
            CliError::Other(msg) => {
                eprintln!("error: {msg}");
                ExitCode::FAILURE
            }
            CliError::StrictDegraded(reason) => {
                eprintln!("error: search degraded under --strict: {reason}");
                ExitCode::from(9)
            }
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: barracuda <tune|info|replay|plans|serve|backends|benchmarks> \
         [<file.dsl>|builtin:NAME|<plan.json>] \
         [--arch A] [--arch-file PATH]... [--arch-dir DIR] \
         [--backend KEY|all] [--store DIR] [--save-plan PATH] \
         [--dim i=10]... [--dims N] [--evals N] [--quick] \
         [--objective time|memory|balanced] [--mem-budget BYTES] \
         [--mem-weight W] [--rw-weight W] [--mem-penalize] \
         [--deadline S] [--min-survivors F] [--inject-faults RATE] \
         [--fault-seed N] [--strict] \
         [--emit cuda|cufile|tcr|annotation] [--validate] [--fused]\n\
         \x20      barracuda plans <list|gc> --store DIR [--corrupt]\n\
         \x20      barracuda plans <show|path> <workload> --store DIR [--backend KEY]\n\
         \x20      barracuda serve [--store DIR] [--listen stdio|tcp:HOST:PORT|unix:PATH] \
         [--backend KEY] [--quick] [--evals N] [--deadline S] \
         [--max-searches N] [--queue N] [--fsync]"
    );
    ExitCode::from(2)
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut objective_name: Option<String> = None;
    let mut mem_weight: Option<f64> = None;
    let mut rw_weight: Option<f64> = None;
    let mut mem_budget: Option<u64> = None;
    let mut mem_penalize = false;
    let weight = |flag: &str, raw: &str| -> Result<f64, String> {
        let w: f64 = raw.parse().map_err(|_| format!("bad {flag} weight"))?;
        if !w.is_finite() || w < 0.0 {
            return Err(format!("{flag} must be finite and non-negative"));
        }
        Ok(w)
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--arch" => o.arch = Some(it.next().ok_or("--arch needs a value")?.clone()),
            "--arch-file" => o
                .arch_files
                .push(it.next().ok_or("--arch-file needs a path")?.clone()),
            "--arch-dir" => {
                o.arch_dir = Some(it.next().ok_or("--arch-dir needs a directory")?.clone())
            }
            "--backend" => o.backend = Some(it.next().ok_or("--backend needs a key")?.clone()),
            "--store" => o.store = Some(it.next().ok_or("--store needs a directory")?.clone()),
            "--save-plan" => {
                o.save_plan = Some(it.next().ok_or("--save-plan needs a path")?.clone())
            }
            "--dim" => {
                let spec = it.next().ok_or("--dim needs IDX=EXT")?;
                let (name, ext) = spec.split_once('=').ok_or("--dim needs IDX=EXT")?;
                let ext: usize = ext.parse().map_err(|_| "bad extent")?;
                o.dims.insert(name.into(), ext);
            }
            "--dims" => {
                o.default_dim = Some(
                    it.next()
                        .ok_or("--dims needs N")?
                        .parse()
                        .map_err(|_| "bad N")?,
                )
            }
            "--evals" => {
                o.evals = it
                    .next()
                    .ok_or("--evals needs N")?
                    .parse()
                    .map_err(|_| "bad N")?
            }
            "--quick" => o.quick = true,
            "--deadline" => {
                o.deadline = Some(
                    it.next()
                        .ok_or("--deadline needs seconds")?
                        .parse()
                        .map_err(|_| "bad deadline")?,
                )
            }
            "--min-survivors" => {
                let f: f64 = it
                    .next()
                    .ok_or("--min-survivors needs a fraction")?
                    .parse()
                    .map_err(|_| "bad fraction")?;
                if !(0.0..=1.0).contains(&f) {
                    return Err("--min-survivors must be in 0..1".to_string());
                }
                o.min_survivors = f;
            }
            "--inject-faults" => {
                let r: f64 = it
                    .next()
                    .ok_or("--inject-faults needs a rate")?
                    .parse()
                    .map_err(|_| "bad rate")?;
                if !(0.0..=1.0).contains(&r) {
                    return Err("--inject-faults rate must be in 0..1".to_string());
                }
                o.inject_faults = Some(r);
            }
            "--fault-seed" => {
                o.fault_seed = it
                    .next()
                    .ok_or("--fault-seed needs N")?
                    .parse()
                    .map_err(|_| "bad seed")?
            }
            "--strict" => o.strict = true,
            "--listen" => o.listen = Some(it.next().ok_or("--listen needs a spec")?.clone()),
            "--max-searches" => {
                let n: usize = it
                    .next()
                    .ok_or("--max-searches needs N")?
                    .parse()
                    .map_err(|_| "bad N")?;
                if n == 0 {
                    return Err("--max-searches must be at least 1".to_string());
                }
                o.max_searches = Some(n);
            }
            "--queue" => {
                o.queue = Some(
                    it.next()
                        .ok_or("--queue needs N")?
                        .parse()
                        .map_err(|_| "bad N")?,
                )
            }
            "--fsync" => o.fsync = true,
            "--corrupt" => o.gc_corrupt = true,
            "--emit" => o.emit = Some(it.next().ok_or("--emit needs a kind")?.clone()),
            "--validate" => o.validate = true,
            "--fused" => o.fused = true,
            "--explain" => o.explain = true,
            "--objective" => {
                objective_name = Some(it.next().ok_or("--objective needs a preset")?.clone())
            }
            "--mem-weight" => {
                mem_weight = Some(weight(
                    "--mem-weight",
                    it.next().ok_or("--mem-weight needs W")?,
                )?)
            }
            "--rw-weight" => {
                rw_weight = Some(weight(
                    "--rw-weight",
                    it.next().ok_or("--rw-weight needs W")?,
                )?)
            }
            "--mem-budget" => {
                mem_budget = Some(
                    it.next()
                        .ok_or("--mem-budget needs BYTES")?
                        .parse()
                        .map_err(|_| "bad --mem-budget byte count")?,
                )
            }
            "--mem-penalize" => mem_penalize = true,
            other => return Err(format!("unknown option {other}")),
        }
    }
    // Assemble the objective from its flags: preset first, then explicit
    // weight/budget overrides on top of it.
    let mut obj = match objective_name.as_deref() {
        None => Objective::time_only(),
        Some(name) => Objective::preset(name)
            .ok_or_else(|| format!("unknown objective preset {name} (time|memory|balanced)"))?,
    };
    if let Some(w) = mem_weight {
        obj.mem_weight = w;
    }
    if let Some(w) = rw_weight {
        obj.rw_weight = w;
    }
    if let Some(b) = mem_budget {
        obj.mem_budget = Some(b);
    }
    if mem_penalize {
        if obj.mem_budget.is_none() {
            return Err("--mem-penalize needs --mem-budget".to_string());
        }
        obj.budget_mode = BudgetMode::Penalize;
    }
    o.objective = obj;
    Ok(o)
}

fn builtin(name: &str) -> Option<Workload> {
    barracuda::kernels::builtin(name)
}

fn load_workload(spec: &str, o: &Options) -> Result<Workload, CliError> {
    if let Some(name) = spec.strip_prefix("builtin:") {
        return builtin(name)
            .ok_or_else(|| CliError::Other(format!("unknown builtin workload {name}")));
    }
    let src = std::fs::read_to_string(spec)
        .map_err(|e| CliError::Other(format!("cannot read {spec}: {e}")))?;
    // Collect indices so --dims can fill the gaps.
    let prog = octopi::parse_program(&src).map_err(|e| {
        CliError::Pipeline(BarracudaError::Parse {
            workload: "cli".to_string(),
            offset: e.offset,
            message: e.message,
        })
    })?;
    let mut dims = o.dims.clone();
    if let Some(n) = o.default_dim {
        for st in &prog.statements {
            for ix in st.all_indices() {
                dims.entry(ix).or_insert(n);
            }
        }
    }
    Ok(Workload::parse("cli", &src, &dims)?)
}

/// The backend set every command resolves against: the built-ins plus
/// every descriptor named by `--arch-file` / `--arch-dir`. Also returns
/// the keys the flags loaded, in load order — the first one is the
/// default target when no `--arch`/`--backend` was given.
fn backend_set_for(o: &Options) -> Result<(Arc<BackendSet>, Vec<String>), CliError> {
    let mut set = BackendSet::builtin();
    let mut loaded = Vec::new();
    for file in &o.arch_files {
        loaded.push(set.load_arch_file(std::path::Path::new(file))?);
    }
    if let Some(dir) = &o.arch_dir {
        loaded.extend(set.load_arch_dir(std::path::Path::new(dir))?);
    }
    Ok((Arc::new(set), loaded))
}

/// The architecture key targeted when `--arch` was not given: the first
/// descriptor `--arch-file`/`--arch-dir` loaded, else gtx980.
fn default_target(o: &Options, loaded: &[String]) -> String {
    o.arch
        .clone()
        .or_else(|| loaded.first().cloned())
        .unwrap_or_else(|| "gtx980".to_string())
}

fn archs_for(set: &BackendSet, name: &str) -> Result<Vec<gpusim::GpuArch>, CliError> {
    if name == "all" {
        return Ok(set
            .iter()
            .filter(|b| b.caps().searchable)
            .filter_map(|b| b.arch().cloned())
            .collect());
    }
    let unknown = || {
        let keys: Vec<&str> = set
            .iter()
            .filter(|b| b.caps().searchable)
            .map(|b| b.key())
            .collect();
        CliError::Usage(format!(
            "unknown architecture {name} ({}|all)",
            keys.join("|")
        ))
    };
    let b = set.get(name).ok_or_else(unknown)?;
    match b.arch() {
        Some(a) if b.caps().searchable => Ok(vec![a.clone()]),
        _ => Err(unknown()),
    }
}

fn params_for(o: &Options) -> TuneParams {
    let mut p = if o.quick {
        TuneParams::quick()
    } else {
        TuneParams::paper()
    };
    p.surf.max_evals = o.evals;
    p.wall_deadline_s = o.deadline;
    p.min_survivor_fraction = o.min_survivors;
    p.objective = o.objective;
    if let Some(rate) = o.inject_faults {
        p.fault_injection = Some(FaultPlan::mixed(rate, o.fault_seed));
    }
    p
}

fn cmd_info(w: &Workload) {
    println!("workload with {} statement(s):", w.statements.len());
    for st in &w.statements {
        println!("  {st}");
    }
    println!("external inputs : {:?}", w.external_inputs());
    println!("external outputs: {:?}", w.external_outputs());
    println!("naive flops     : {}", w.naive_flops());
    let tuner = WorkloadTuner::build(w);
    for (i, st) in tuner.statements.iter().enumerate() {
        println!(
            "statement {i}: {} OCTOPI version(s), {} configurations",
            st.variants.len(),
            st.total()
        );
        for (v, reason) in &st.quarantined_versions {
            println!("  version {v} quarantined: {reason}");
        }
        if let Some(best) = st.variants.first() {
            println!(
                "  best version: {} flops in {} kernel(s), temps {} elements",
                best.factorization.flops,
                best.program.ops.len(),
                best.factorization.temp_elems
            );
        }
    }
    println!("joint space: {} configurations", tuner.total_space());
    // Cross-statement common subexpressions (TCE-style CSE).
    if w.statements.len() > 1 {
        let chosen: Vec<(&octopi::Contraction, &octopi::Factorization)> = tuner
            .statements
            .iter()
            .zip(&w.statements)
            .map(|(st, c)| (c, &st.variants[0].factorization))
            .collect();
        let cse = octopi::analyze_cse(&chosen, &w.dims);
        if cse.matches.is_empty() {
            println!("cross-statement CSE: none");
        } else {
            println!(
                "cross-statement CSE: {} reuse(s), {:.1}% of flops",
                cse.matches.len(),
                cse.savings() * 100.0
            );
        }
    }
}

/// Modeled-baseline path for non-searchable backends (`cpu1`, `cpu4`,
/// `acc-naive`, `acc-opt`): no SURF run of their own — `acc-opt` first
/// tunes on its reference architecture to borrow a configuration.
fn cmd_tune_baseline(
    w: &Workload,
    tuner: &WorkloadTuner,
    backend: &dyn barracuda::Backend,
    o: &Options,
    params: TuneParams,
) -> Result<(), CliError> {
    if o.save_plan.is_some() {
        return Err(CliError::Usage(format!(
            "--save-plan needs a searchable GPU backend, not {}",
            backend.key()
        )));
    }
    if o.emit.is_some() {
        return Err(CliError::Usage(format!(
            "--emit is not available on backend {} (no CUDA mapping of its own)",
            backend.key()
        )));
    }
    let id = if backend.key() == "acc-opt" {
        let arch = backend
            .arch()
            .ok_or_else(|| CliError::Other("acc-opt has no reference architecture".into()))?;
        tuner.autotune(arch, params)?.id
    } else {
        0
    };
    backend.validate(tuner, id)?;
    let total = backend.time_config(tuner, id)?;
    let flops: u64 = barracuda::cpu::try_cpu_programs(w)?
        .iter()
        .map(|p| p.flops())
        .sum();
    println!(
        "{:28} {:>10} us total  {:>8} GF  (modeled baseline, no search)",
        backend.name(),
        fmt_f(total * 1e6),
        fmt_f(flops as f64 / total / 1e9),
    );
    Ok(())
}

/// The session every tuning command runs through: cache-only by default,
/// store-first when `--store` was given, resolving backends against the
/// loaded set (built-ins plus `--arch-file`/`--arch-dir` descriptors).
fn session_for(o: &Options, set: &Arc<BackendSet>) -> Result<TuningSession, CliError> {
    let session = match &o.store {
        Some(root) => TuningSession::with_store(root)?,
        None => TuningSession::new(),
    };
    Ok(session.with_backends(Arc::clone(set)))
}

fn cmd_tune(w: &Workload, o: &Options) -> Result<(), CliError> {
    let tuner = WorkloadTuner::build(w);
    let params = params_for(o);
    let (set, loaded) = backend_set_for(o)?;
    let session = session_for(o, &set)?;
    // --backend: set-driven dispatch. GPU keys join the --arch loop
    // below; baseline keys print modeled times; `all` sweeps everything
    // through the session (store-first per searchable backend).
    let archs = match o.backend.as_deref() {
        Some("all") => {
            if o.save_plan.is_some() || o.emit.is_some() {
                return Err(CliError::Usage(
                    "--backend all cannot combine with --save-plan or --emit".to_string(),
                ));
            }
            let sweep = session.tune_all(&tuner, params)?;
            for row in sweep.rows {
                println!(
                    "{:10} {:28} {:>10} us total  {:>8} GF",
                    row.key,
                    row.name,
                    fmt_f(row.total_seconds * 1e6),
                    fmt_f(row.gflops),
                );
            }
            if session.store().is_some() {
                for (key, source) in sweep.notes {
                    println!("  {:10} {}", key, source.describe());
                }
            }
            return Ok(());
        }
        Some(key) => {
            let backend = set.get(key).cloned().ok_or_else(|| {
                CliError::Usage(format!(
                    "unknown backend {key} (one of: {}, all)",
                    set.keys().join(", ")
                ))
            })?;
            if !backend.caps().searchable {
                return cmd_tune_baseline(w, &tuner, backend.as_ref(), o, params);
            }
            // A searchable backend is a GPU architecture: same path as
            // --arch.
            archs_for(&set, key)?
        }
        None => archs_for(&set, &default_target(o, &loaded))?,
    };
    if o.save_plan.is_some() && archs.len() > 1 {
        return Err(CliError::Usage(
            "--save-plan needs a single architecture, not `all`".to_string(),
        ));
    }
    for arch in archs {
        let out = session.tune(&tuner, &arch.key, params)?;
        let tuned = &out.tuned;
        println!(
            "{}  ({} evals, space {})",
            fmt_timing(tuned),
            tuned.search.n_evals,
            tuned.search.space_size,
        );
        // Non-default objectives annotate the pick; the default (time-only)
        // prints nothing extra so historical output stays byte-identical.
        if !tuned.objective.is_time_only() {
            println!("  objective: {}", tuned.objective.describe());
            println!(
                "  memory: peak temp {} B, global rw {} B ({} over-budget versions, {} configurations pruned)",
                tuned.search.peak_temp_bytes,
                tuned.search.rw_bytes,
                tuned.search.versions_over_budget,
                tuned.search.pruned_by_memory,
            );
            if let Some(budget) = tuned.objective.mem_budget {
                println!(
                    "  budget respected: peak {} B <= budget {} B",
                    tuned.search.peak_temp_bytes, budget
                );
            }
        }
        if session.store().is_some() {
            println!("  {}", out.source.describe());
        }
        if !tuned.quarantine.is_empty() {
            println!("  {}", tuned.quarantine);
        }
        match &tuned.status {
            SearchStatus::Complete => {}
            SearchStatus::Degraded { reason } => {
                println!("  status: degraded ({reason})");
                if o.strict {
                    return Err(CliError::StrictDegraded(reason.clone()));
                }
            }
        }
        if let Some(path) = &o.save_plan {
            out.plan.save(std::path::Path::new(path))?;
            println!(
                "  plan saved to {path} (schema v{PLAN_SCHEMA_VERSION}, fingerprint {:016x})",
                out.plan.fingerprint
            );
        }
        if o.validate {
            validate(w, tuned)?;
        }
        if o.fused {
            for alt in barracuda::fusionopt::fuse_alternatives(tuned, &arch)
                .into_iter()
                .flatten()
            {
                println!(
                    "  statement {} fused: {:.2} us vs {:.2} us unfused ({:.2}x)",
                    alt.statement,
                    alt.fused_seconds * 1e6,
                    alt.unfused_seconds * 1e6,
                    alt.speedup()
                );
            }
        }
        if o.explain {
            for (program, ks) in tuned.programs.iter().zip(&tuned.kernels) {
                for k in ks {
                    let t = gpusim::time_kernel(k, &arch);
                    println!(
                        "  {}: {:.2} us, grid {:?} block {:?}, unroll {}, staged {:?}",
                        k.name,
                        t.time_s * 1e6,
                        k.grid(),
                        k.block(),
                        k.unroll,
                        k.staged
                    );
                    println!(
                        "    bottleneck {} | occupancy {:.0}% | worst txn/warp {:.1} | regs/thread {}",
                        t.bottleneck(),
                        t.occupancy.fraction * 100.0,
                        t.traffic.worst_txn_per_warp,
                        t.occupancy.regs_per_thread
                    );
                }
                let _ = program;
            }
            // Which knobs mattered: fit a forest over a sample of the space
            // and report the top importance mass. Unmappable samples (NaN
            // time) are dropped rather than poisoning the fit.
            let pool = tuner.pool(512, params.seed);
            let (xs, ys): (Vec<Vec<f64>>, Vec<f64>) = pool
                .iter()
                .filter_map(|&id| {
                    let t = tuner.gpu_seconds(id, &arch);
                    t.is_finite().then(|| (tuner.features(id), t))
                })
                .unzip();
            let model = surf::ExtraTrees::fit(&xs, &ys, params.surf.forest);
            let names = tuner.binarized_feature_names();
            let mut ranked: Vec<(f64, &String)> = model
                .feature_importance()
                .iter()
                .copied()
                .zip(&names)
                .collect();
            ranked.sort_by(|a, b| b.0.total_cmp(&a.0));
            println!("  most important parameters (surrogate attribution):");
            for (imp, name) in ranked.iter().take(6) {
                if *imp > 0.0 {
                    println!("    {:>6.1}%  {}", imp * 100.0, name);
                }
            }
        }
        match o.emit.as_deref() {
            Some("cuda") => println!("{}", tuned.cuda_source()),
            Some("cufile") => {
                for (p, ks) in tuned.programs.iter().zip(&tuned.kernels) {
                    println!("{}", tcr::codegen::cuda_file(p, ks));
                }
            }
            Some("tcr") => {
                for p in &tuned.programs {
                    println!("{}", p.listing());
                }
            }
            Some("annotation") => {
                for ((v, _), st) in tuned.choices.iter().zip(&tuner.statements) {
                    println!("{}", tcr::codegen::orio_annotations(&st.variants[*v].space));
                }
            }
            Some(other) => return Err(CliError::Usage(format!("unknown --emit kind {other}"))),
            None => {}
        }
    }
    Ok(())
}

/// `--validate`: runs the tuned kernels on `gpusim`'s functional executor
/// and compares every output with the reference evaluator.
fn validate(w: &Workload, tuned: &TunedWorkload) -> Result<(), CliError> {
    let inputs = w.random_inputs(1);
    let expect = w.evaluate_reference(&inputs)?;
    let got = tuned.execute(w, &inputs)?;
    for ((n1, t1), (_, t2)) in expect.iter().zip(&got) {
        if !t1.approx_eq(t2, 1e-10) {
            return Err(CliError::Other(format!(
                "validation FAILED for output {n1}"
            )));
        }
    }
    println!("  validation: OK (matches the reference evaluator)");
    Ok(())
}

/// Re-applies a saved plan: fingerprint-checked re-mapping and re-timing,
/// zero search evaluations. With `--store`, the positional argument is a
/// workload spec and the plan comes from the store's content address.
fn cmd_replay(spec: &str, o: &Options) -> Result<(), CliError> {
    let (set, loaded) = backend_set_for(o)?;
    let (plan, w, tuned) = if o.store.is_some() {
        let backend = match o.backend.as_deref() {
            Some("all") => {
                return Err(CliError::Usage(
                    "replay --store needs a single backend, not `all`".to_string(),
                ))
            }
            Some(key) => key.to_string(),
            None => default_target(o, &loaded),
        };
        let session = session_for(o, &set)?;
        let w = load_workload(spec, o)?;
        let tuner = WorkloadTuner::build(&w);
        let (tuned, plan, _path) = session.replay_from_store(&tuner, &backend, &o.objective)?;
        (plan, w, tuned)
    } else {
        let plan = TunedPlan::load(std::path::Path::new(spec))?;
        // A plan only replays under the objective it was tuned for: replaying
        // a memory-tuned plan as if it were a time-only winner (or vice
        // versa) silently misrepresents the pick, so it is a typed plan
        // error instead.
        plan.validate_objective(&o.objective)?;
        let w = plan.workload()?;
        let tuner = WorkloadTuner::build(&w);
        let tuned = plan.replay_built_in(&set, &w, &tuner, &EvalCache::new())?;
        (plan, w, tuned)
    };
    report_replay(&plan, &w, &tuned, o)
}

/// Shared reporting tail of both replay modes.
fn report_replay(
    plan: &TunedPlan,
    w: &Workload,
    tuned: &TunedWorkload,
    o: &Options,
) -> Result<(), CliError> {
    println!(
        "{}  (replayed, 0 evals; search spent {})",
        fmt_timing(tuned),
        plan.search.n_evals,
    );
    if !plan.objective.is_time_only() {
        println!("  objective: {}", plan.objective.describe());
    }
    if !tuned.quarantine.is_empty() {
        println!("  {}", tuned.quarantine);
    }
    if let SearchStatus::Degraded { reason } = &plan.status {
        // The plan's `status` field as saved: `degraded: <reason>`.
        println!("  saved search was degraded: degraded: {reason}");
    }
    if o.validate {
        validate(w, tuned)?;
    }
    match o.emit.as_deref() {
        Some("cuda") => println!("{}", tuned.cuda_source()),
        Some("tcr") => {
            for p in &tuned.programs {
                println!("{}", p.listing());
            }
        }
        Some(other) => {
            return Err(CliError::Usage(format!(
                "replay supports --emit cuda|tcr, not {other}"
            )))
        }
        None => {}
    }
    Ok(())
}

/// `barracuda plans <list|show|gc|path>` — manage a content-addressed
/// plan store.
fn cmd_plans(sub: &str, spec: Option<&str>, o: &Options) -> Result<(), CliError> {
    let root = o
        .store
        .as_deref()
        .ok_or_else(|| CliError::Usage("plans needs --store DIR".to_string()))?;
    let store = PlanStore::open(root)?;
    let (set, loaded) = backend_set_for(o)?;
    // Resolves the store key of `(workload spec, --backend/--arch)`.
    let key_of = |spec: &str| -> Result<barracuda::StoreKey, CliError> {
        let w = load_workload(spec, o)?;
        let backend = o
            .backend
            .clone()
            .unwrap_or_else(|| default_target(o, &loaded));
        let session = TuningSession::new().with_backends(Arc::clone(&set));
        Ok(session.key_for(&w, &backend)?)
    };
    match sub {
        "list" => {
            // Tolerant: undecodable names and unreadable files degrade to
            // per-file reports — one bad entry never hides the rest.
            let scan = store.scan()?;
            if scan.entries.is_empty() && scan.problems.is_empty() && scan.corrupt.is_empty() {
                println!("plan store {}: empty", store.root().display());
                return Ok(());
            }
            println!(
                "plan store {} ({} entr{}):",
                store.root().display(),
                scan.entries.len(),
                if scan.entries.len() == 1 { "y" } else { "ies" }
            );
            for e in &scan.entries {
                let stale = if e.key.is_stale() {
                    "  [stale schema]"
                } else {
                    ""
                };
                // Descriptor provenance: resolve the entry's backend in
                // the loaded set. A salt match means the entry was
                // written by the backend as currently described; a
                // mismatch means its descriptor changed since (replay
                // would reject the plan); an absent key degrades to a
                // note instead of an error.
                let provenance = match set.get(&e.key.backend) {
                    Some(b) if b.cache_salt() == e.key.cache_salt => {
                        format!("  descriptor {:016x}", b.cache_salt())
                    }
                    Some(b) => {
                        format!("  [superseded: backend now {:016x}]", b.cache_salt())
                    }
                    None => "  [backend not loaded]".to_string(),
                };
                // Objective provenance: what the stored plan was tuned for.
                // The store key does not carry it, so read the entry itself;
                // an unreadable file already shows up under `problems`.
                let objective = match TunedPlan::load(&e.path) {
                    Ok(p) => format!("  objective {}", p.objective.describe()),
                    Err(_) => String::new(),
                };
                println!(
                    "  {:016x}  {:10} salt {:016x}  v{}{}{}{}",
                    e.key.fingerprint,
                    e.key.backend,
                    e.key.cache_salt,
                    e.key.schema,
                    stale,
                    provenance,
                    objective
                );
            }
            for (path, reason) in &scan.problems {
                println!("  [unreadable] {}: {reason}", path.display());
            }
            for path in &scan.corrupt {
                println!("  [quarantined] {}", path.display());
            }
            if !scan.problems.is_empty() || !scan.corrupt.is_empty() {
                println!(
                    "  ({} unreadable, {} quarantined — `plans gc --corrupt` cleans sidecars)",
                    scan.problems.len(),
                    scan.corrupt.len()
                );
            }
            Ok(())
        }
        "show" => {
            let spec = spec
                .ok_or_else(|| CliError::Usage("plans show needs a workload spec".to_string()))?;
            let key = key_of(spec)?;
            let plan = store.lookup(&key)?.ok_or(BarracudaError::Plan {
                workload: spec.to_string(),
                detail: format!("no stored plan for {key} in {}", store.root().display()),
            })?;
            print!("{}", plan.to_json_text());
            Ok(())
        }
        "gc" => {
            let evicted = store.gc()?;
            println!(
                "plan store {}: evicted {} stale plan(s) (schema < {PLAN_SCHEMA_VERSION})",
                store.root().display(),
                evicted.len()
            );
            for e in evicted {
                println!("  {}", e.path.display());
            }
            if o.gc_corrupt {
                let removed = store.gc_corrupt()?;
                println!(
                    "plan store {}: removed {} corrupt/partial file(s)",
                    store.root().display(),
                    removed.len()
                );
                for p in removed {
                    println!("  {}", p.display());
                }
            }
            Ok(())
        }
        "path" => {
            let spec = spec
                .ok_or_else(|| CliError::Usage("plans path needs a workload spec".to_string()))?;
            let key = key_of(spec)?;
            println!("{}", store.path_of(&key).display());
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown plans subcommand {other} (list|show|gc|path)"
        ))),
    }
}

/// `barracuda serve`: run the tuning daemon until a shutdown request
/// (or EOF on stdio). The default backend, parameter profile, eval
/// budget and deadline come from the usual tune flags; individual
/// requests may override each per the protocol.
fn cmd_serve(o: &Options) -> Result<(), CliError> {
    // Load the descriptor set up front so a bad --arch-file or an
    // unknown default backend is a usage-time failure, not a daemon that
    // rejects every request.
    let (set, loaded) = backend_set_for(o)?;
    let backend = o
        .backend
        .clone()
        .unwrap_or_else(|| default_target(o, &loaded));
    let b = set.get(&backend).ok_or_else(|| {
        CliError::Usage(format!(
            "serve needs a loaded backend as its default, not {backend} (one of: {})",
            set.keys().join(", ")
        ))
    })?;
    if !b.caps().searchable {
        return Err(CliError::Usage(format!(
            "serve default backend {backend} is not searchable — pick a GPU backend"
        )));
    }
    let listen = match &o.listen {
        Some(spec) => barracuda::Listen::parse(spec)?,
        None => barracuda::Listen::Stdio,
    };
    let daemon = std::sync::Arc::new(barracuda::Daemon::new(barracuda::ServeOptions {
        store: o.store.as_ref().map(std::path::PathBuf::from),
        backend,
        quick: o.quick,
        evals: Some(o.evals),
        deadline_s: o.deadline,
        max_searches: o.max_searches,
        queue: o.queue,
        durable: o.fsync,
        arch_files: o.arch_files.iter().map(std::path::PathBuf::from).collect(),
        arch_dir: o.arch_dir.as_ref().map(std::path::PathBuf::from),
        ..barracuda::ServeOptions::default()
    })?);
    barracuda::serve::transport::run(daemon, &listen)?;
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    match cmd.as_str() {
        "backends" => {
            let opts = match parse_options(&args[1..]) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("error: {e}");
                    return usage();
                }
            };
            let (set, _loaded) = match backend_set_for(&opts) {
                Ok(x) => x,
                Err(e) => return e.report(),
            };
            println!("backends (for --backend; GPU keys also work with --arch):");
            for b in set.iter() {
                let caps = b.caps();
                let mut flags = Vec::new();
                if caps.searchable {
                    flags.push("searchable");
                }
                if caps.emits_cuda {
                    flags.push("cuda");
                }
                if caps.accelerator {
                    flags.push("accelerator");
                }
                println!(
                    "  {:10} {:34} salt {:016x}  [{}]",
                    b.key(),
                    b.name(),
                    b.cache_salt(),
                    flags.join(", ")
                );
            }
            println!("  {:10} every backend above, one shared cache", "all");
            ExitCode::SUCCESS
        }
        "replay" => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            let opts = match parse_options(&args[2..]) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("error: {e}");
                    return usage();
                }
            };
            match cmd_replay(path, &opts) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => e.report(),
            }
        }
        "plans" => {
            let Some(sub) = args.get(1) else {
                return usage();
            };
            // show/path take a positional workload spec before the options.
            let (spec, rest) = match sub.as_str() {
                "show" | "path" => (
                    args.get(2).map(String::as_str),
                    args.get(3..).unwrap_or(&[]),
                ),
                _ => (None, args.get(2..).unwrap_or(&[])),
            };
            let opts = match parse_options(rest) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("error: {e}");
                    return usage();
                }
            };
            match cmd_plans(sub, spec, &opts) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => e.report(),
            }
        }
        "benchmarks" => {
            println!("builtin workloads:");
            for n in ["eqn1", "lg3", "lg3t", "tce"] {
                println!("  builtin:{n}");
            }
            for fam in ["s1", "d1", "d2"] {
                println!("  builtin:{fam}_1 .. builtin:{fam}_9");
            }
            ExitCode::SUCCESS
        }
        "serve" => {
            let opts = match parse_options(&args[1..]) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("error: {e}");
                    return usage();
                }
            };
            match cmd_serve(&opts) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => e.report(),
            }
        }
        "tune" | "info" => {
            let Some(spec) = args.get(1) else {
                return usage();
            };
            let opts = match parse_options(&args[2..]) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("error: {e}");
                    return usage();
                }
            };
            let w = match load_workload(spec, &opts) {
                Ok(w) => w,
                Err(e) => return e.report(),
            };
            let result = if cmd == "info" {
                cmd_info(&w);
                Ok(())
            } else {
                cmd_tune(&w, &opts)
            };
            match result {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => e.report(),
            }
        }
        _ => usage(),
    }
}
