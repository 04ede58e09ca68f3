//! §III claims: OCTOPI generates fifteen versions of Eqn. (1); among the
//! six that perform the same amount of floating-point computation the
//! performance on a GTX 980 varies "by as much as 9 %".

use barracuda::report::{fmt_f, Table};
use barracuda::variant::StatementTuner;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tcr::mapping::map_program;

/// Configurations `bin/versions` and `bin/report` sample per version.
pub const SWEEP: usize = 200;

#[derive(Clone, Debug)]
pub struct VersionsResult {
    pub n_versions: usize,
    pub n_minimal_flop: usize,
    /// Best time per minimal-flop version, seconds (its best config among
    /// a fixed-seed sample of its space).
    pub minimal_times: Vec<f64>,
    /// Relative spread among the minimal-flop versions.
    pub spread: f64,
}

/// Best time of each equal-flop Eqn. (1) version over `sweep` uniform
/// draws from its own space, all from one fixed-seed generator. A strided
/// sweep (`total * k / sweep`) is no sample: at 200 steps it gave all six
/// versions the same best time.
pub fn run(sweep: usize) -> VersionsResult {
    let w = barracuda::kernels::eqn1(barracuda::kernels::EQN1_N);
    let tuner = StatementTuner::build("ex", &w.statements[0], &w.dims);
    let arch = gpusim::gtx980();
    let min_flops = tuner.variants[0].factorization.flops;
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut minimal_times = Vec::new();
    for v in &tuner.variants {
        if v.factorization.flops != min_flops {
            continue;
        }
        let total = v.space.len();
        let mut best = f64::INFINITY;
        for _ in 0..sweep {
            let cfg = v.space.config(rng.gen_range(0..total));
            let Ok(kernels) = map_program(&v.program, &v.space, &cfg, false) else {
                continue; // unmappable sample point: skip, don't abort the sweep
            };
            let t = gpusim::time_program(&v.program, &kernels, &arch, false).gpu_s;
            best = best.min(t);
        }
        minimal_times.push(best);
    }
    let lo = minimal_times.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = minimal_times.iter().cloned().fold(0.0, f64::max);
    VersionsResult {
        n_versions: tuner.variants.len(),
        n_minimal_flop: minimal_times.len(),
        spread: hi / lo - 1.0,
        minimal_times,
    }
}

pub fn render(r: &VersionsResult) -> Table {
    let mut t = Table::new(
        "Eqn.(1) OCTOPI versions (paper: 15 total, 6 equal-flop, <=9% spread)",
        &["metric", "value"],
    );
    t.row(vec!["versions".into(), r.n_versions.to_string()]);
    t.row(vec![
        "equal-flop versions".into(),
        r.n_minimal_flop.to_string(),
    ]);
    t.row(vec![
        "spread among equal-flop".into(),
        format!("{}%", fmt_f(r.spread * 100.0)),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_counts() {
        let r = run(SWEEP);
        println!("{}", render(&r));
        assert_eq!(r.n_versions, 15);
        assert_eq!(r.n_minimal_flop, 6);
        // What `bin/versions` prints: a real spread, under the paper's "as
        // much as 9 %".
        assert_eq!(format!("{}%", fmt_f(r.spread * 100.0)), "0.877%");
        assert!(r.spread > 0.0 && r.spread < 0.09, "spread = {}", r.spread);
    }
}
