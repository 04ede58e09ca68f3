//! Runs every experiment and prints the full report (the source of
//! EXPERIMENTS.md's tables). Every line it prints is deterministic, so two
//! runs print the same bytes; it writes `BENCH_objective.json` to the
//! current directory.
fn main() {
    let params = bench::experiment_params();
    println!("# Barracuda reproduction report\n");
    let r = bench::versions::run(bench::versions::SWEEP);
    println!("{}\n", bench::versions::render(&r));
    let rows = bench::table2::run(params);
    println!("{}\n", bench::table2::render(&rows));
    let rows = bench::table3::run(params);
    println!("{}\n", bench::table3::render(&rows));
    let rows = bench::table4::run(params);
    println!("{}\n", bench::table4::render(&rows));
    let points = bench::figure3::run(barracuda::kernels::NWCHEM_TRIP, params);
    println!("{}", bench::figure3::render(&points));
    for family in ["s1", "d1", "d2"] {
        let (lo, hi) = bench::figure3::family_range(&points, family);
        println!("{family}: {lo:.0}-{hi:.0} GFlops (paper: s1 7-20, d1 20-125, d2 9-53)");
    }
    println!();
    let r = bench::search_stats::run(params);
    println!("{}\n", bench::search_stats::render(&r));
    let rows = bench::ablations::run(params);
    println!("{}\n", bench::ablations::render(&rows));
    let rows = bench::pruning::run(params);
    println!("{}\n", bench::pruning::render(&rows));
    let rows = bench::search_compare::run(params);
    println!("{}\n", bench::search_compare::render(&rows));
    let rows = bench::objective_ablation::run(params);
    println!("{}\n", bench::objective_ablation::render(&rows));
    match bench::objective_ablation::write_json(&rows, "BENCH_objective.json") {
        Ok(()) => println!("wrote BENCH_objective.json\n"),
        Err(e) => eprintln!("could not write BENCH_objective.json: {e}\n"),
    }
    let a = bench::figure2::run(params);
    println!("{}", bench::figure2::render(&a));
}
