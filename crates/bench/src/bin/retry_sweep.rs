//! Regenerates the paper's retry_sweep data; see pto_bench::figs.
fn main() {
    let t = pto_bench::figs::retry_sweep();
    println!("{}", t.render());
    // Per-threshold abort-cause mix: the diagnostic the paper's retry
    // tuning (§3.1, §4.2) is based on — watch the cause balance move as
    // the attempt budget grows.
    println!("{}", t.render_causes_by_axis());
    t.write_csv("retry_sweep").expect("write results/retry_sweep.csv");
}
