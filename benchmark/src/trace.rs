//! Span export for traced runs, in Chrome trace-event format (loads in
//! Perfetto or `chrome://tracing`).
//!
//! Process 1 is the host timeline: the benchmark's own phases (set-up and
//! measurement of every round) and the sampled operations, in host
//! microseconds. Process 2 replays the same sampled operations on the
//! virtual timeline, one virtual microsecond being 3,400 cycles at the
//! modelled 3.4 GHz.

use crate::workload::Span;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A host-time phase of the benchmark itself.
pub struct Phase {
    pub name: String,
    pub h0: u64,
    pub h1: u64,
}

/// Tid of the benchmark-phase track.
const PHASE_TID: usize = 1000;

const CYCLES_PER_US: f64 = pto_sim::CYCLES_PER_MS as f64 / 1000.0;

fn event(out: &mut String, name: &str, pid: u32, tid: usize, ts: f64, dur: f64, args: &str) {
    if !out.ends_with('[') {
        out.push(',');
    }
    let _ = write!(
        out,
        "\n{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts:.3},\"dur\":{dur:.3},\"args\":{{{args}}}}}"
    );
}

fn meta(out: &mut String, pid: u32, name: &str) {
    if !out.ends_with('[') {
        out.push(',');
    }
    let _ = write!(
        out,
        "\n{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{name}\"}}}}"
    );
}

/// Render phases and spans as one Chrome trace JSON document.
pub fn chrome_json(workload: &str, phases: &[Phase], spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    meta(&mut out, 1, &format!("{workload}: host time"));
    meta(&mut out, 2, &format!("{workload}: virtual time"));
    for p in phases {
        let (ts, dur) = (p.h0 as f64 / 1e3, (p.h1 - p.h0) as f64 / 1e3);
        event(&mut out, &p.name, 1, PHASE_TID, ts, dur, "");
    }
    for s in spans {
        let args = format!("\"v0\":{},\"v1\":{}", s.v0, s.v1);
        let (ts, dur) = (s.h0 as f64 / 1e3, (s.h1 - s.h0) as f64 / 1e3);
        event(&mut out, s.kind.name(), 1, s.lane, ts, dur, &args);
        let (ts, dur) = (
            s.v0 as f64 / CYCLES_PER_US,
            (s.v1 - s.v0) as f64 / CYCLES_PER_US,
        );
        event(&mut out, s.kind.name(), 2, s.lane, ts, dur, &args);
    }
    out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
    out
}

/// Where a workload's span file goes: `<cargo target dir>/benchmark/`.
pub fn span_path(workload: &str) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    Path::new(&target)
        .join("benchmark")
        .join(format!("trace_{workload}.json"))
}

pub fn write(path: &Path, json: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Kind;

    #[test]
    fn renders_valid_chrome_json() {
        let spans = [Span {
            kind: Kind::Pop,
            lane: 1,
            v0: 3400,
            v1: 6800,
            h0: 2_000,
            h1: 2_500,
        }];
        let phases = [Phase {
            name: "round 0 measure".into(),
            h0: 0,
            h1: 9_000,
        }];
        let json = chrome_json("mound-pq", &phases, &spans);
        let v = pto_sim::json::Value::parse(&json).expect("valid JSON");
        let events = v
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .expect("events");
        assert_eq!(
            events.len(),
            5,
            "2 process names + 1 phase + 2 views of one span"
        );
        assert!(
            json.contains("\"ts\":1.000,\"dur\":1.000"),
            "virtual view in µs"
        );
    }
}
