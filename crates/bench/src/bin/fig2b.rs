//! Regenerates the paper's fig2b data; see pto_bench::figs.
fn main() {
    let t = pto_bench::figs::fig2b();
    println!("{}", t.render());
    t.write_csv("fig2b").expect("write results/fig2b.csv");
}
