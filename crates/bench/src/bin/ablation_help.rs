//! Regenerates the paper's ablation_help data; see pto_bench::figs.
fn main() {
    let t = pto_bench::figs::ablation_help();
    println!("{}", t.render());
    t.write_csv("ablation_help").expect("write results/ablation_help.csv");
}
