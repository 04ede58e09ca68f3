//! The four workloads, the options of one run and what a run reports.

use std::path::PathBuf;

/// Every builtin contraction the serving workloads request.
pub const BUILTINS: [&str; 31] = [
    "eqn1", "lg3", "lg3t", "tce", "s1_1", "s1_2", "s1_3", "s1_4", "s1_5", "s1_6", "s1_7", "s1_8",
    "s1_9", "d1_1", "d1_2", "d1_3", "d1_4", "d1_5", "d1_6", "d1_7", "d1_8", "d1_9", "d2_1", "d2_2",
    "d2_3", "d2_4", "d2_5", "d2_6", "d2_7", "d2_8", "d2_9",
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Cold paper-parameter tunes of the TCE example: the largest space,
    /// pool sampled to 20k rows.
    SearchTce,
    /// Cold tunes cycling over the 27 NWChem kernels: small spaces scored
    /// exhaustively.
    SearchNwchem,
    /// Two closed-loop clients replaying stored plans; nothing searches.
    ServeWarm,
    /// The same clients with never-seen keys interleaved, so cold searches
    /// and store writes run beside warm replay.
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SearchTce,
        Workload::SearchNwchem,
        Workload::ServeWarm,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SearchTce => "search-tce",
            Workload::SearchNwchem => "search-nwchem",
            Workload::ServeWarm => "serve-warm",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The tail percentile `tail_ms` reports, fixed per workload so runs
    /// compare: high enough to be a tail, low enough to keep ten samples
    /// beyond it in a slow run (36 tce tunes, 54 NWChem tunes in two whole
    /// cycles). For requests, a window of a hundred supports p90; p99
    /// measures the shared machine's scheduler more than the daemon.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::SearchTce => 70.0,
            Workload::SearchNwchem => 80.0,
            Workload::ServeWarm | Workload::ServeMixed => 90.0,
        }
    }
}

pub struct RunOptions {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<PathBuf>,
    /// Tiny parameters and a fraction of a second of load: exercises every
    /// code path of a workload in seconds, for tests.
    pub smoke: bool,
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: tunes on the search workloads, requests on the
    /// serving workloads.
    pub attempted: usize,
    /// Failed operations and failed output checks.
    pub failed: usize,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// The device time in µs of each kernel the run picked, keyed by what
    /// was tuned: `contraction#rep` for a tune, `builtin@backend` for a
    /// served key. The same seed tunes the same keys the same way, so
    /// `compare` checks two commits' picks key by key.
    pub picks: Vec<(String, f64)>,
}

impl Outcome {
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why.into());
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
