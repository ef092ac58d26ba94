//! Regenerates the paper's fig5a data; see pto_bench::figs.
fn main() {
    let t = pto_bench::figs::fig5a();
    println!("{}", t.render());
    t.write_csv("fig5a").expect("write results/fig5a.csv");
}
