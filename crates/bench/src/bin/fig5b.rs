//! Regenerates the paper's fig5b data; see pto_bench::figs.
fn main() {
    let t = pto_bench::figs::fig5b();
    println!("{}", t.render());
    t.write_csv("fig5b").expect("write results/fig5b.csv");
}
