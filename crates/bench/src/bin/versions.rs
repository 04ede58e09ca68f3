//! Regenerates the §III claim: 15 Eqn.(1) versions, 6 equal-flop, small spread.
fn main() {
    let r = bench::versions::run(bench::versions::SWEEP);
    println!("{}", bench::versions::render(&r));
}
