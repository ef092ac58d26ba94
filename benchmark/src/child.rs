//! One workload measured inside the current process: the body of a child
//! invocation. Results go to stdout as protocol lines for the parent:
//! `metric <name> <unit> <value>`, `info <text>` and finally
//! `result <attempted> <failed>`.

use crate::metrics::Metric;
use crate::pct::RoundMean;
use crate::stats::{per, Spread};
use crate::trace::{self, Phase as HostPhase};
use crate::workload::{Kind, LayerCounts, Paths, Round, Span, Workload};
use pto_core::profile::Phase;
use std::time::{Duration, Instant};

/// How a child runs.
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    /// Rounds with distinct inputs; virtual and per-layer metrics cover
    /// exactly these, so they depend only on the seed.
    pub rounds: u64,
    /// After the distinct rounds, an untraced run repeats them for host
    /// samples while the next round still ends within this many seconds.
    pub seconds: f64,
    /// Scales the per-round op count and the microbenchmark lengths.
    pub scale: f64,
    pub traced: bool,
}

/// The inputs of round `r` of `rounds`: round 0 uses the seed itself, and
/// rounds past the last distinct one cycle through the same inputs again.
fn round_seed(seed: u64, r: u64, rounds: u64) -> u64 {
    seed.wrapping_add((r % rounds).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Everything the rounds of one run add up to.
#[derive(Default)]
struct Totals {
    distinct: u64,
    rounds: u64,
    /// Ops and failures of every round.
    ops: u64,
    failed: u64,
    /// Host-time samples, one per round.
    setup_s: Vec<f64>,
    host_ops_s: Vec<f64>,
    /// Virtual-time results of the distinct rounds.
    vops: u64,
    makespan: u64,
    lane_cycles: u64,
    gate_parks: u64,
    lat: RoundMean,
    kind_lat: [RoundMean; 7],
    kind_ops: [u64; 7],
    host_ns: [u64; 7],
    paths: Paths,
    layers: LayerCounts,
    /// Spans of the first round only, and the host-time phases.
    spans: Vec<Span>,
    phases: Vec<HostPhase>,
}

impl Totals {
    fn add(&mut self, r: Round, start: Instant) {
        let ops = r.ops();
        let ns = |t: Instant| (t - start).as_nanos() as u64;
        let (s0, m0) = (ns(r.started), ns(r.epoch));
        self.phases.push(HostPhase {
            name: format!("round {} setup", self.rounds),
            h0: s0,
            h1: s0 + (r.setup_s * 1e9) as u64,
        });
        self.phases.push(HostPhase {
            name: format!("round {} measure", self.rounds),
            h0: m0,
            h1: m0 + (r.host_s * 1e9) as u64,
        });
        if self.rounds == 0 {
            self.spans = r
                .rec
                .spans
                .iter()
                .map(|s| Span {
                    h0: s.h0 + m0,
                    h1: s.h1 + m0,
                    ..*s
                })
                .collect();
        }
        self.ops += ops;
        self.failed += r.failed();
        self.setup_s.push(r.setup_s);
        self.host_ops_s.push(ops as f64 / r.host_s);
        if self.rounds < self.distinct {
            self.vops += ops;
            self.makespan += r.makespan;
            self.lane_cycles += r.lane_cycles;
            self.gate_parks += r.gate_parks;
            self.lat.add(&r.rec.all_kinds());
            for k in 0..Kind::ALL.len() {
                self.kind_lat[k].add(&r.rec.lat[k]);
                self.kind_ops[k] += r.rec.lat[k].count();
                self.host_ns[k] += r.rec.host_ns[k];
            }
            self.paths.merge(&r.paths);
            self.layers.merge(&r.layers);
        }
        self.rounds += 1;
    }
}

/// Run the plan and print its protocol lines. Every run covers the
/// distinct rounds once. An untraced run then repeats rounds while the
/// next one, taking as long as the last, still ends within `seconds`; a
/// traced run stops there, so its layer counters cover exactly the inputs
/// its virtual metrics do.
pub fn run(plan: &Plan) {
    let w = plan.workload;
    let ops_per_lane = ((w.ops_per_lane() as f64 * plan.scale) as u64).max(1);
    let deadline = Duration::from_secs_f64(plan.seconds);
    let start = Instant::now();
    let mut t = Totals {
        distinct: plan.rounds,
        ..Totals::default()
    };
    let mut last = Duration::ZERO;
    while t.rounds < plan.rounds || (!plan.traced && start.elapsed() + last <= deadline) {
        let r0 = Instant::now();
        let seed = round_seed(plan.seed, t.rounds, plan.rounds);
        t.add(w.run_round(seed, ops_per_lane, plan.traced), start);
        last = r0.elapsed();
    }
    let mut out = e2e(&t);
    println!(
        "info {} rounds of {} ops/lane on {} lane(s), {} with distinct inputs; \
         {} ops, {} failed; {} virtual latency samples",
        t.rounds,
        ops_per_lane,
        w.lanes(),
        plan.rounds,
        t.ops,
        t.failed,
        t.vops
    );
    if plan.traced {
        out.extend(layer_metrics(&t));
        let t0 = Instant::now();
        for m in crate::micro::run_all(plan.scale) {
            println!(
                "info micro {:<26} {:>9.2} ns  IQR {:.2} ns  ({})",
                m.name,
                m.ns.median,
                m.ns.iqr(),
                m.what
            );
            out.push(Metric::new(m.name, m.ns.median));
        }
        let h0 = (t0 - start).as_nanos() as u64;
        t.phases.push(HostPhase {
            name: "layer microbenchmarks".into(),
            h0,
            h1: h0 + t0.elapsed().as_nanos() as u64,
        });
        let path = trace::span_path(w.name());
        match trace::write(&path, &trace::chrome_json(w.name(), &t.phases, &t.spans)) {
            Ok(()) => println!(
                "info spans: {} written to {}",
                t.spans.len(),
                path.display()
            ),
            Err(e) => println!("info spans: could not write {}: {e}", path.display()),
        }
    }
    for m in &out {
        println!("{}", m.line());
    }
    println!("result {} {}", t.ops, t.failed);
}

fn e2e(t: &Totals) -> Vec<Metric> {
    vec![
        Metric::new(
            "vthroughput_ops_ms",
            pto_sim::ops_per_ms(t.vops, t.makespan),
        ),
        Metric::new("vlat_p50_cycles", t.lat.p50()),
        Metric::new("vlat_p99_cycles", t.lat.p99()),
        Metric::new("vlat_p999_cycles", t.lat.p999()),
        Metric::new("host_ops_s", Spread::of(&t.host_ops_s).median),
        Metric::new("setup_s", Spread::of(&t.setup_s).median),
        Metric::new("peak_rss_mb", peak_rss_mib()),
    ]
}

fn layer_metrics(t: &Totals) -> Vec<Metric> {
    let (h, m) = (&t.layers.htm, &t.layers.mem);
    let kop = |count: u64| per(count * 1000, t.vops);
    let phase_share = |p: Phase| per(t.layers.phase_cycles[p as usize], t.lane_cycles);
    let p = &t.paths;
    let mut out = vec![
        Metric::new("sim.makespan_cycles", per(t.makespan, t.distinct)),
        Metric::new("sim.gate_parks_per_kop", kop(t.gate_parks)),
        Metric::new("htm.begins_per_op", per(h.begins, t.vops)),
        Metric::new("htm.commit_ratio", h.commit_rate()),
        Metric::new("htm.aborts_conflict_per_kop", kop(h.aborts_conflict)),
        Metric::new("htm.aborts_capacity_per_kop", kop(h.aborts_capacity)),
        Metric::new("htm.aborts_explicit_per_kop", kop(h.aborts_explicit)),
        Metric::new("mem.epoch_advances_per_kop", kop(m.epoch_advances)),
        Metric::new("mem.limbo_reclaimed_per_kop", kop(m.limbo_reclaimed)),
        Metric::new("mem.hazard_scans_per_kop", kop(m.hazard_scans)),
        Metric::new(
            "core.prefix_share",
            per(p.fast, p.fast + p.middle + p.fallback),
        ),
        Metric::new("core.fallback_per_kop", kop(p.fallback)),
        Metric::new("core.middle_per_kop", kop(p.middle)),
        Metric::new("core.adapt_flips", per(t.layers.adapt_flips, t.distinct)),
        Metric::new(
            "core.compose_fallback_share",
            per(p.compose_fallbacks, p.compose_entries),
        ),
        Metric::new("core.attempt_cycle_share", phase_share(Phase::Attempt)),
        Metric::new("core.backoff_cycle_share", phase_share(Phase::Backoff)),
        Metric::new("core.fallback_cycle_share", phase_share(Phase::Fallback)),
    ];
    for k in Kind::ALL {
        let (lat, name) = (&t.kind_lat[k as usize], k.name());
        out.push(Metric::new(
            &format!("op.{name}.vlat_p50_cycles"),
            lat.p50(),
        ));
        out.push(Metric::new(
            &format!("op.{name}.vlat_p999_cycles"),
            lat.p999(),
        ));
        out.push(Metric::new(
            &format!("op.{name}.host_ns"),
            per(t.host_ns[k as usize], t.kind_ops[k as usize]),
        ));
    }
    out
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
