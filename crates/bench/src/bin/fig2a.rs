//! Regenerates the paper's fig2a data; see pto_bench::figs.
//!
//! Set `PTO_TRACE=<path.json>` to arm an observation session around the
//! run and export a Chrome trace-event file loadable in Perfetto or
//! `chrome://tracing` (one track per logical thread, spans plus counter
//! tracks); a span summary is printed to the terminal. `PTO_TRACE_CAP`
//! overrides the per-track event capacity (default 65536; overflow is
//! counted, not stored).

use pto_sim::obs::{self, Session};

fn main() {
    let trace_path = std::env::var("PTO_TRACE").ok();
    let session = trace_path.as_ref().map(|_| {
        Session::with_capacity(
            std::env::var("PTO_TRACE_CAP")
                .ok()
                .and_then(|s| s.parse::<usize>().ok())
                .unwrap_or(obs::DEFAULT_CAPACITY),
        )
    });

    let t = pto_bench::figs::fig2a();
    println!("{}", t.render());
    print!("{}", t.render_latency());
    t.write_csv("fig2a").expect("write results/fig2a.csv");
    t.write_latency_csv("fig2a").expect("write results/lat_fig2a.csv");
    let h = pto_htm::snapshot();
    println!("HTM: {} begins, {} commits ({:.1}% commit rate)", h.begins, h.commits, 100.0 * h.commit_rate());

    if let (Some(session), Some(path)) = (session, trace_path) {
        let trace = session.drain();
        let json = trace.to_chrome_json();
        let check = obs::validate_chrome(&json).expect("exported trace must validate");
        std::fs::write(&path, &json).expect("write trace json");
        println!(
            "trace: {} events on {} tracks ({} complete spans, {} dropped) -> {}",
            check.events, check.tracks, check.complete_spans, check.dropped_reported, path
        );
        print!("{}", trace.summary());
    }
}
