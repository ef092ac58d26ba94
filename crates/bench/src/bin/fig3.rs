//! Regenerates the paper's fig3 data (three subfigures); see pto_bench::figs.
fn main() {
    for (i, t) in pto_bench::figs::fig3().into_iter().enumerate() {
        println!("{}", t.render());
        let name = format!("fig3{}", ['a','b','c'][i]);
        t.write_csv(&name).expect("write csv");
    }
}
