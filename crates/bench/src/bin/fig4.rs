//! Regenerates the paper's fig4 data (three subfigures); see pto_bench::figs.
fn main() {
    for (i, t) in pto_bench::figs::fig4().into_iter().enumerate() {
        println!("{}", t.render());
        let name = format!("fig4{}", ['a','b','c'][i]);
        t.write_csv(&name).expect("write csv");
    }
}
