//! The PTO reproduction's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload W] [--seed S] [--seconds T] [--trace 0|1]
//!     [--check] [--repeat N]
//! ```
//!
//! Each workload runs in a child process of this same binary, one at a
//! time and with `PTO_PAR=1`, so globals and peak RSS are per workload and
//! no more OS threads run than the workload has lanes. The parent prints
//! every metric with its unit and, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. See README.md for the
//! workloads, the metrics and what each layer metric should move.

mod child;
mod metrics;
mod micro;
mod pct;
mod stats;
mod trace;
mod workload;

use metrics::{Metric, E2E, VIRTUAL};
use stats::{per, Spread};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workload::Workload;

const USAGE: &str = "usage: benchmark [--workload W] [--seed S] [--seconds T] \
[--trace 0|1] [--check] [--repeat N]
workloads: hash-read, bst-capacity, mound-pq, bank-transfer (default: all)";

/// The op-count scale of `--check` runs.
const CHECK_SCALE: f64 = 0.01;

/// Parsed command line. `--child`, `--rounds` and `--scale` are how the
/// parent starts a child and are accepted only together.
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    check: bool,
    repeat: Option<usize>,
    child: bool,
    rounds: Option<u64>,
    scale: Option<f64>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: 42,
        seconds: 0.0,
        traced: false,
        check: false,
        repeat: None,
        child: false,
        rounds: None,
        scale: None,
    };
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let v = value("a workload name")?;
                a.workloads
                    .push(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&a.seconds) {
                    return Err("--seconds must be in 0..=3600".into());
                }
            }
            "--rounds" => {
                let n: u64 = value("a count")?
                    .parse()
                    .map_err(|e| format!("--rounds: {e}"))?;
                if n == 0 {
                    return Err("--rounds must be at least 1".into());
                }
                a.rounds = Some(n);
            }
            "--scale" => {
                let x: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?;
                if !(x > 0.0 && x <= 1.0) {
                    return Err("--scale must be in (0, 1]".into());
                }
                a.scale = Some(x);
            }
            "--trace" => {
                a.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--check" => a.check = true,
            "--repeat" => {
                let n: usize = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if !(1..=1000).contains(&n) {
                    return Err("--repeat must be in 1..=1000".into());
                }
                a.repeat = Some(n);
            }
            "--child" => a.child = true,
            "-h" | "--help" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if a.workloads.is_empty() {
        a.workloads = Workload::ALL.to_vec();
    }
    if a.child && a.workloads.len() != 1 {
        return Err("--child runs exactly one --workload".into());
    }
    if !a.child && (a.rounds.is_some() || a.scale.is_some()) {
        return Err("--rounds and --scale are for --child only".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        let workload = args.workloads[0];
        child::run(&child::Plan {
            workload,
            seed: args.seed,
            rounds: args.rounds.unwrap_or(workload.rounds()),
            seconds: args.seconds,
            scale: args.scale.unwrap_or(1.0),
            traced: args.traced,
        });
        return ExitCode::SUCCESS;
    }
    let res = if args.check {
        check(&args)
    } else if let Some(n) = args.repeat {
        repeat(&args, n)
    } else {
        measure(&args)
    };
    match res {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What one child run reported.
struct Report {
    metrics: Vec<Metric>,
    info: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn get(&self, name: &str) -> Result<f64, String> {
        metrics::find(&self.metrics, name)
            .map(|m| m.value)
            .ok_or_else(|| format!("metric {name} missing"))
    }
}

/// The first CPU this process may run on, from `Cpus_allowed_list`.
fn first_allowed_cpu() -> Option<u32> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let first = list.trim().split([',', '-']).next()?;
    first.parse().ok()
}

/// How a child is started: rounds with distinct inputs, seconds to fill
/// with more untraced rounds, op-count scale, and tracing.
#[derive(Clone, Copy)]
struct ChildRun {
    rounds: u64,
    seconds: f64,
    scale: f64,
    traced: bool,
}

impl ChildRun {
    /// A full-scale run of `w`'s distinct rounds, then more until
    /// `seconds` have passed.
    fn full(w: Workload, seconds: f64) -> ChildRun {
        ChildRun {
            rounds: w.rounds(),
            seconds,
            scale: 1.0,
            traced: false,
        }
    }
}

/// Run one workload in a child process and collect its report.
///
/// The child is pinned to one CPU with `taskset`: the gate scheduler is
/// built for lanes taking turns on one core, and pinned runs give steady
/// host times and near-deterministic two-lane schedules, while unpinned
/// two-lane runs measure how the host places its vCPUs.
fn run_child(w: Workload, seed: u64, run: ChildRun) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let args = [
        "--child".to_string(),
        "--workload".into(),
        w.name().into(),
        "--seed".into(),
        seed.to_string(),
        "--rounds".into(),
        run.rounds.to_string(),
        "--seconds".into(),
        run.seconds.to_string(),
        "--scale".into(),
        run.scale.to_string(),
        "--trace".into(),
        u8::from(run.traced).to_string(),
    ];
    let spawn = |cmd: &mut Command| cmd.args(&args).env("PTO_PAR", "1").output();
    let out = match first_allowed_cpu() {
        Some(cpu) => match spawn(
            Command::new("taskset")
                .args(["-c", &cpu.to_string()])
                .arg(&exe),
        ) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                eprintln!("benchmark: taskset not found; the child runs unpinned");
                spawn(&mut Command::new(&exe))
            }
            res => res,
        },
        None => spawn(&mut Command::new(&exe)),
    }
    .map_err(|e| format!("cannot start child: {e}"))?;
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if !out.status.success() {
        return Err(format!("{} child failed: {}", w.name(), out.status));
    }
    let mut report = Report {
        metrics: Vec::new(),
        info: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let mut finished = false;
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        if let Some(m) = Metric::parse(line) {
            report.metrics.push(m);
        } else if let Some(text) = line.strip_prefix("info ") {
            report.info.push(text.to_string());
        } else if let Some(rest) = line.strip_prefix("result ") {
            let mut it = rest.split(' ').map(str::parse::<u64>);
            match (it.next(), it.next()) {
                (Some(Ok(a)), Some(Ok(f))) => (report.attempted, report.failed) = (a, f),
                _ => return Err(format!("bad result line {line:?}")),
            }
            finished = true;
        }
    }
    if !finished {
        return Err(format!("{} child printed no result", w.name()));
    }
    Ok(report)
}

/// The per-layer metrics of a traced run: the traced child's layer
/// counters, plus host cost per op and the tracing overhead against an
/// untraced child with the same seed.
fn traced_metrics(untraced: &Report, traced: &Report) -> Result<Vec<Metric>, String> {
    let layer_names = metrics::layer_defs();
    let mut out = Vec::with_capacity(layer_names.len());
    for (name, _) in &layer_names {
        let value = match name.as_str() {
            "sim.host_ns_per_op" => 1e9 / untraced.get("host_ops_s")?,
            "bench.trace_overhead_ratio" => {
                untraced.get("host_ops_s")? / traced.get("host_ops_s")?
            }
            _ => traced.get(name)?,
        };
        out.push(Metric::new(name, value));
    }
    Ok(out)
}

/// Print one workload's children (their notes and error rates) and the
/// metrics shown for it.
fn print_report(w: Workload, seed: u64, children: &[(&str, Report)], shown: &[Metric]) {
    println!("== {} (seed {seed}, {} lane(s))", w.name(), w.lanes());
    for (label, r) in children {
        for line in &r.info {
            println!("  [{label}] {line}");
        }
    }
    for m in shown {
        let better = E2E
            .iter()
            .find(|d| d.name == m.name)
            .map_or(String::new(), |d| format!("{} is better", d.better));
        println!("  {:<30} {:>18} {:<12} {better}", m.name, m.value, m.unit);
    }
    for (label, r) in children {
        println!(
            "  [{label}] error_rate {} ({} of {} ops failed the correctness check)",
            per(r.failed, r.attempted),
            r.failed,
            r.attempted
        );
    }
}

/// The default mode: measure each workload once. An untraced run reports
/// the end-to-end metrics of one child. A traced run reports the
/// per-layer metrics: a traced child runs the first quarter of the
/// distinct rounds and the microbenchmarks, then an untraced child with
/// the same seed runs those rounds again, for the host-time comparison,
/// and more while time is left. The operations of both children count.
fn measure(args: &Args) -> Result<(), String> {
    let (mut all, mut attempted, mut failed) = (Vec::new(), 0, 0);
    let prefix = args.workloads.len() > 1;
    for &w in &args.workloads {
        let (children, shown) = if args.traced {
            let started = Instant::now();
            let quarter = ChildRun {
                rounds: w.traced_rounds(),
                ..ChildRun::full(w, 0.0)
            };
            let t = run_child(
                w,
                args.seed,
                ChildRun {
                    traced: true,
                    ..quarter
                },
            )?;
            let left = (args.seconds - started.elapsed().as_secs_f64()).max(0.0);
            let u = run_child(
                w,
                args.seed,
                ChildRun {
                    seconds: left,
                    ..quarter
                },
            )?;
            let layers = traced_metrics(&u, &t)?;
            (vec![("untraced", u), ("traced", t)], layers)
        } else {
            let u = run_child(w, args.seed, ChildRun::full(w, args.seconds))?;
            let e2e = E2E
                .iter()
                .map(|d| Ok(Metric::new(d.name, u.get(d.name)?)))
                .collect::<Result<Vec<_>, String>>()?;
            (vec![("untraced", u)], e2e)
        };
        print_report(w, args.seed, &children, &shown);
        for (_, r) in &children {
            attempted += r.attempted;
            failed += r.failed;
        }
        all.extend(shown.into_iter().map(|mut m| {
            if prefix {
                m.name = format!("{}.{}", w.name(), m.name);
            }
            m
        }));
    }
    println!(
        "{}",
        metrics::result_json(failed == 0, attempted, failed, &all)
    );
    Ok(())
}

/// `--repeat N`: N rounds of one child per workload, workloads
/// alternating, seed `S + i` on the i-th; prints the median and quartiles
/// of every end-to-end metric per workload.
fn repeat(args: &Args, n: usize) -> Result<(), String> {
    let mut values: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); E2E.len()]; args.workloads.len()];
    for i in 0..n {
        for (wi, &w) in args.workloads.iter().enumerate() {
            let seed = args.seed + i as u64;
            let r = run_child(w, seed, ChildRun::full(w, args.seconds))?;
            if r.failed != 0 {
                return Err(format!("{} seed {seed}: {} ops failed", w.name(), r.failed));
            }
            for (d, v) in E2E.iter().zip(values[wi].iter_mut()) {
                v.push(r.get(d.name)?);
            }
            eprintln!("repeat {}/{n}: {} done", i + 1, w.name());
        }
    }
    for (wi, w) in args.workloads.iter().enumerate() {
        println!(
            "== {} ({n} runs, seeds {}..={})",
            w.name(),
            args.seed,
            args.seed + n as u64 - 1
        );
        println!(
            "  {:<22} {:>16} {:>16} {:>16} {:>9}  unit",
            "metric", "median", "q1", "q3", "IQR/med"
        );
        for (d, v) in E2E.iter().zip(&values[wi]) {
            let s = Spread::of(v);
            println!(
                "  {:<22} {:>16.4} {:>16.4} {:>16.4} {:>8.3}%  {}",
                d.name,
                s.median,
                s.q1,
                s.q3,
                100.0 * s.rel_iqr(),
                d.unit
            );
        }
    }
    Ok(())
}

/// `--check`: a smoke test of every workload at [`CHECK_SCALE`] of its
/// ops, over the rounds of a traced run. It fails unless every metric is
/// present with its unit, no op fails its check, and one-lane virtual
/// metrics repeat bit-for-bit, across two runs and with tracing on.
fn check(args: &Args) -> Result<(), String> {
    let seed = args.seed;
    let expect_units = |r: &Report, defs: &[(String, &str)]| -> Result<(), String> {
        for (name, unit) in defs {
            let m =
                metrics::find(&r.metrics, name).ok_or_else(|| format!("metric {name} missing"))?;
            if m.unit != *unit {
                return Err(format!("metric {name} has unit {} not {unit}", m.unit));
            }
        }
        Ok(())
    };
    let e2e: Vec<(String, &str)> = E2E.iter().map(|d| (d.name.to_string(), d.unit)).collect();
    let virtual_of =
        |r: &Report| -> Result<Vec<f64>, String> { VIRTUAL.iter().map(|n| r.get(n)).collect() };
    for &w in &args.workloads {
        let small = ChildRun {
            rounds: w.traced_rounds(),
            seconds: 0.0,
            scale: CHECK_SCALE,
            traced: false,
        };
        let u = run_child(w, seed, small)?;
        let t = run_child(
            w,
            seed,
            ChildRun {
                traced: true,
                ..small
            },
        )?;
        expect_units(&u, &e2e)?;
        expect_units(&t, &e2e)?;
        let layers = traced_metrics(&u, &t)?;
        for m in &layers {
            if metrics::unit_of(&m.name) != Some(m.unit.as_str()) {
                return Err(format!("metric {} has unit {}", m.name, m.unit));
            }
        }
        for r in [&u, &t] {
            if r.failed != 0 || r.attempted == 0 {
                return Err(format!(
                    "{}: error_rate {} ({} of {})",
                    w.name(),
                    per(r.failed, r.attempted),
                    r.failed,
                    r.attempted
                ));
            }
        }
        if w.lanes() == 1 {
            let again = run_child(w, seed, small)?;
            if virtual_of(&u)? != virtual_of(&again)? {
                return Err(format!("{}: same-seed virtual metrics differ", w.name()));
            }
            if virtual_of(&u)? != virtual_of(&t)? {
                return Err(format!("{}: tracing moved virtual metrics", w.name()));
            }
        }
        let spans = trace::span_path(w.name());
        if !spans.exists() {
            return Err(format!("{}: no span file at {}", w.name(), spans.display()));
        }
        println!(
            "check {:<14} ok: {} ops, {} metrics, vthroughput {:.2} ops/ms, spans in {}",
            w.name(),
            u.attempted,
            e2e.len() + layers.len(),
            u.get("vthroughput_ops_ms")?,
            spans.display()
        );
    }
    println!("check: all workloads passed");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse("--workload mound-pq --seed 7 --seconds 12 --trace 1").expect("valid");
        assert_eq!(a.workloads, vec![Workload::MoundPq]);
        assert_eq!((a.seed, a.seconds, a.traced), (7, 12.0, true));
        assert!(!parse("--trace 0").expect("valid").traced);
        assert_eq!(parse("").expect("valid").workloads.len(), 4);
        let c = parse("--child --workload hash-read --rounds 3 --scale 0.5").expect("valid");
        assert_eq!((c.rounds, c.scale), (Some(3), Some(0.5)));
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--trace 2",
            "--seconds -1",
            "--repeat 0",
            "--bogus",
            "--seed",
            "--child",
            "--traced",
            "--scale 0.5",
            "--rounds 4 --workload hash-read",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} was accepted");
        }
    }
}
