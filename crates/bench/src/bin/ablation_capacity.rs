//! Regenerates the paper's ablation_capacity data; see pto_bench::figs.
fn main() {
    let t = pto_bench::figs::ablation_capacity();
    println!("{}", t.render());
    t.write_csv("ablation_capacity").expect("write results/ablation_capacity.csv");
}
