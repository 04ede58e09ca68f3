//! CI smoke gate for the search engine: runs the serial-vs-parallel bench
//! at reduced budgets and fails (nonzero exit) if any workload's parallel
//! run diverges from the serial run bit-for-bit, memo hit and miss counters
//! included.
fn main() {
    let rows = bench::search_bench::run(bench::smoke_params());
    println!("{}", bench::search_bench::render(&rows));
    println!("{}", bench::search_bench::render_hot(&rows));
    let diverged: Vec<&str> = rows
        .iter()
        .filter(|r| !r.identical)
        .map(|r| r.workload.as_str())
        .collect();
    if !diverged.is_empty() {
        eprintln!("serial/parallel divergence in: {}", diverged.join(", "));
        std::process::exit(1);
    }
    println!("all workloads bit-identical serial vs parallel");
}
