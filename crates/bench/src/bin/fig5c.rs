//! Regenerates the paper's fig5c data; see pto_bench::figs.
fn main() {
    let t = pto_bench::figs::fig5c();
    println!("{}", t.render());
    t.write_csv("fig5c").expect("write results/fig5c.csv");
}
