//! Declarative SLO specs and the pass/fail regression layer.
//!
//! A figure harness measures; this module judges. An [`SloSpec`] states
//! what a healthy run of one figure looks like — tail-latency ceilings
//! (p99/p99.9 in virtual cycles), an abort-rate ceiling, and a throughput
//! floor (the makespan budget, expressed per-op: the table's values are
//! ops/makespan) — and [`evaluate`] turns a measured [`Table`] into an
//! [`SloReport`] with one PASS/FAIL row per (series, check). Reports
//! render as a table section, export to `results/slo_<name>.csv`, and
//! gate CI: `obs_smoke` (and any `--check`-style harness) exits
//! nonzero when [`SloReport::pass`] is false.
//!
//! The compiled-in specs from [`spec_for`] are *sanity rails*, not tuned
//! targets: generous enough that a healthy build always passes, tight
//! enough that a pathological regression (an abort storm, a fallback
//! stampede, a 100× tail blowup) fails loudly.

use crate::lat::{OpKind, ALL};
use crate::report::Table;
use std::fmt::Write as _;
use std::path::Path;

/// One figure's service-level objectives for a family of series.
#[derive(Clone, Copy, Debug)]
pub struct SloSpec {
    /// Spec label (shows up in the report and CSV).
    pub name: &'static str,
    /// Applies to every series whose name contains this substring
    /// (`""` = all series).
    pub series: &'static str,
    /// Restrict latency checks to one op kind (`None` = every op kind
    /// that recorded samples).
    pub op: Option<OpKind>,
    /// p99 operation-latency ceiling in virtual cycles.
    pub p99_ceiling: Option<u64>,
    /// p99.9 operation-latency ceiling in virtual cycles.
    pub p999_ceiling: Option<u64>,
    /// Ceiling on aborted transaction attempts per begin, in [0,1].
    pub abort_rate_ceiling: Option<f64>,
    /// Throughput floor in ops/ms — the makespan budget per operation
    /// (table values are ops over virtual makespan). Checked against the
    /// series' *worst* axis point.
    pub min_ops_per_ms: Option<f64>,
}

impl SloSpec {
    /// A spec with no checks; chain the builder methods below.
    pub const fn new(name: &'static str, series: &'static str) -> Self {
        SloSpec {
            name,
            series,
            op: None,
            p99_ceiling: None,
            p999_ceiling: None,
            abort_rate_ceiling: None,
            min_ops_per_ms: None,
        }
    }

    pub const fn p99(mut self, ceiling: u64) -> Self {
        self.p99_ceiling = Some(ceiling);
        self
    }

    pub const fn p999(mut self, ceiling: u64) -> Self {
        self.p999_ceiling = Some(ceiling);
        self
    }

    pub const fn abort_rate(mut self, ceiling: f64) -> Self {
        self.abort_rate_ceiling = Some(ceiling);
        self
    }

    pub const fn min_throughput(mut self, floor: f64) -> Self {
        self.min_ops_per_ms = Some(floor);
        self
    }
}

/// One evaluated check: the budget, what was measured, and the verdict.
#[derive(Clone, Debug)]
pub struct SloResult {
    pub spec: &'static str,
    pub series: String,
    /// Check label, e.g. `p99(insert)` or `abort_rate`.
    pub check: String,
    pub budget: f64,
    pub actual: f64,
    pub pass: bool,
}

/// The evaluated SLOs of one figure.
#[derive(Clone, Debug, Default)]
pub struct SloReport {
    pub figure: String,
    pub results: Vec<SloResult>,
}

impl SloReport {
    /// True when every evaluated check passed (vacuously true when no
    /// spec applied — an empty report gates nothing).
    pub fn pass(&self) -> bool {
        self.results.iter().all(|r| r.pass)
    }

    pub fn failures(&self) -> usize {
        self.results.iter().filter(|r| !r.pass).count()
    }

    /// Render the pass/fail table section (empty when nothing applied).
    pub fn render(&self) -> String {
        if self.results.is_empty() {
            return String::new();
        }
        let mut out = String::new();
        let _ = writeln!(out, "### SLO — {}", self.figure);
        let _ = writeln!(
            out,
            "{:>16}{:>12}{:>20}{:>14}{:>14}{:>8}",
            "series", "spec", "check", "budget", "actual", "verdict"
        );
        for r in &self.results {
            let _ = writeln!(
                out,
                "{:>16}{:>12}{:>20}{:>14.1}{:>14.1}{:>8}",
                trunc(&r.series, 16),
                r.spec,
                trunc(&r.check, 20),
                r.budget,
                r.actual,
                if r.pass { "PASS" } else { "FAIL" }
            );
        }
        out
    }

    /// The CSV body written to `results/slo_<name>.csv`.
    pub fn to_csv_string(&self) -> String {
        let mut out = String::from("figure,series,spec,check,budget,actual,pass\n");
        for r in &self.results {
            let _ = writeln!(
                out,
                "{},{},{},{},{:.1},{:.1},{}",
                self.figure, r.series, r.spec, r.check, r.budget, r.actual, r.pass
            );
        }
        out
    }

    /// Write `results/slo_<name>.csv` (no file when nothing applied).
    pub fn write_csv(&self, name: &str) -> std::io::Result<()> {
        if self.results.is_empty() {
            return Ok(());
        }
        let dir = Path::new("results");
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("slo_{name}.csv")), self.to_csv_string())
    }
}

/// Evaluate `specs` against a measured table. Latency checks use the
/// series' merged distributions across all axis points; the abort rate
/// comes from the cause cells; the throughput floor is checked against
/// the series' worst axis point. A check whose inputs were never measured
/// (no latency cells, no cause cells, no rows) is skipped, not failed.
pub fn evaluate(figure: &str, table: &Table, specs: &[SloSpec]) -> SloReport {
    let mut report = SloReport {
        figure: figure.to_string(),
        results: Vec::new(),
    };
    for spec in specs {
        for series in &table.series {
            if !series.contains(spec.series) {
                continue;
            }
            let lat = table.merged_lat_for(series);
            let kinds: Vec<OpKind> = match spec.op {
                Some(k) => vec![k],
                None => ALL
                    .iter()
                    .copied()
                    .filter(|&k| lat.hists[k as usize].count > 0)
                    .collect(),
            };
            for kind in kinds {
                let h = &lat.hists[kind as usize];
                if h.count == 0 {
                    continue;
                }
                if let Some(c) = spec.p99_ceiling {
                    push(&mut report, spec, series, format!("p99({})", kind.name()), c as f64, h.p99() as f64, h.p99() <= c);
                }
                if let Some(c) = spec.p999_ceiling {
                    push(&mut report, spec, series, format!("p99.9({})", kind.name()), c as f64, h.p999() as f64, h.p999() <= c);
                }
            }
            if let Some(c) = spec.abort_rate_ceiling {
                let (htm, _) = table.merged_for(series);
                if htm.begins > 0 {
                    let aborts = htm.begins.saturating_sub(htm.commits);
                    let rate = aborts as f64 / htm.begins as f64;
                    push(&mut report, spec, series, "abort_rate".into(), c, rate, rate <= c);
                }
            }
            if let Some(floor) = spec.min_ops_per_ms {
                let idx = table.series.iter().position(|s| s == series).unwrap();
                let worst = table
                    .rows
                    .iter()
                    .map(|r| r.values[idx])
                    .fold(f64::INFINITY, f64::min);
                if worst.is_finite() {
                    push(&mut report, spec, series, "min_ops_per_ms".into(), floor, worst, worst >= floor);
                }
            }
        }
    }
    report
}

fn push(
    report: &mut SloReport,
    spec: &SloSpec,
    series: &str,
    check: String,
    budget: f64,
    actual: f64,
    pass: bool,
) {
    report.results.push(SloResult {
        spec: spec.name,
        series: series.to_string(),
        check,
        budget,
        actual,
        pass,
    });
}

/// Sanity ceilings shared by every figure's PTO series: an op's p99
/// staying under a million virtual cycles (~0.3 ms at the paper's
/// 3.4 GHz) and p99.9 under four million rules out tail blowups two
/// orders of magnitude past healthy, and the abort-rate ceiling catches
/// retry storms. The throughput floor is the makespan budget: any
/// measured series that does real work clears 1 op/ms by a wide margin.
const PTO_RAILS: SloSpec = SloSpec::new("pto-rails", "pto")
    .p99(1_000_000)
    .p999(4_000_000)
    .abort_rate(0.90)
    .min_throughput(1.0);

/// Rails for the lock-free baselines: latency and makespan only (the
/// baselines run no transactions, so an abort-rate check is vacuous).
const BASELINE_RAILS: SloSpec = SloSpec::new("lf-rails", "")
    .p99(1_000_000)
    .p999(4_000_000)
    .min_throughput(1.0);

/// The compiled-in SLO specs for a named figure/table. Every figure gets
/// the shared rails; figures whose axes intentionally explore pathological
/// regimes (capacity starvation, zero-attempt policies) are exempt from
/// the throughput floor on their sweep axis.
pub fn spec_for(figure: &str) -> Vec<SloSpec> {
    match figure {
        // Sweeps that intentionally visit degenerate configurations
        // (0 attempts, cap 1): keep the latency rails, drop the floor
        // and the abort ceiling — a 100% abort rate is the point.
        "retry_sweep" | "ablation_capacity" | "ablation_granularity" | "ablation_help" => {
            vec![SloSpec::new("sweep-rails", "").p99(1_000_000).p999(4_000_000)]
        }
        _ => vec![BASELINE_RAILS, PTO_RAILS],
    }
}

fn trunc(s: &str, n: usize) -> String {
    s.chars().take(n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pto_sim::hist::Histogram;

    fn table_with_lat(tail: u64) -> Table {
        let mut t = Table::new("T", &["lf", "pto"]);
        t.push(1, vec![100.0, 150.0]);
        t.push(8, vec![200.0, 600.0]);
        // 99.5% bulk at 1k cycles, a 0.5% tail at `tail` — the p99 rank
        // lands safely in the bulk, the p99.9 rank inside the tail region.
        let mut lat = crate::lat::LatSnapshot::default();
        let h = Histogram::new();
        for _ in 0..995 {
            h.record(1_000);
        }
        for _ in 0..5 {
            h.record(tail);
        }
        lat.hists[OpKind::Insert as usize] = h.snapshot();
        t.push_lat(1, "pto", lat);
        t.push_cause(
            1,
            "pto",
            pto_htm::HtmSnapshot {
                begins: 100,
                commits: 90,
                aborts_conflict: 10,
                ..Default::default()
            },
            Default::default(),
        );
        t
    }

    #[test]
    fn healthy_table_passes_the_rails() {
        let t = table_with_lat(1_000);
        let r = evaluate("T", &t, &spec_for("fig2a"));
        assert!(!r.results.is_empty());
        assert!(r.pass(), "healthy table failed:\n{}", r.render());
        // Both renderers carry the verdict.
        assert!(r.render().contains("PASS"));
        assert!(r.to_csv_string().contains(",true"));
    }

    #[test]
    fn tail_blowup_fails_p999() {
        // p99.9 lands on the outlier bucket, far past the ceiling; p99
        // stays in the bulk. The report must fail on exactly the tail.
        let t = table_with_lat(100_000_000);
        let spec = [SloSpec::new("tail", "pto").p99(1_000_000).p999(4_000_000)];
        let r = evaluate("T", &t, &spec);
        assert!(!r.pass());
        let failed: Vec<_> = r.results.iter().filter(|x| !x.pass).collect();
        assert!(failed.iter().all(|x| x.check.starts_with("p99.9")));
        assert!(r.render().contains("FAIL"));
    }

    #[test]
    fn abort_storm_fails_the_rate_ceiling() {
        let mut t = Table::new("T", &["pto"]);
        t.push(1, vec![50.0]);
        t.push_cause(
            1,
            "pto",
            pto_htm::HtmSnapshot {
                begins: 100,
                commits: 5,
                aborts_conflict: 95,
                ..Default::default()
            },
            Default::default(),
        );
        let spec = [SloSpec::new("rate", "pto").abort_rate(0.5)];
        let r = evaluate("T", &t, &spec);
        assert_eq!(r.results.len(), 1);
        assert!(!r.pass());
        assert_eq!(r.failures(), 1);
    }

    #[test]
    fn throughput_floor_checks_worst_axis_point() {
        let mut t = Table::new("T", &["pto"]);
        t.push(1, vec![100.0]);
        t.push(8, vec![0.5]); // collapsed at 8 threads
        let spec = [SloSpec::new("floor", "pto").min_throughput(1.0)];
        let r = evaluate("T", &t, &spec);
        assert!(!r.pass(), "worst axis point must gate");
        assert_eq!(r.results[0].actual, 0.5);
    }

    #[test]
    fn unmeasured_checks_are_skipped_not_failed() {
        // No latency cells, no cause cells: only the throughput floor
        // evaluates; the report still passes.
        let mut t = Table::new("T", &["pto"]);
        t.push(1, vec![100.0]);
        let r = evaluate("T", &t, &spec_for("fig2a"));
        assert!(r.pass());
        assert!(r.results.iter().all(|x| x.check == "min_ops_per_ms"));
        // And a table nothing applies to yields an empty, passing report.
        let empty = Table::new("T", &["other"]);
        let r2 = evaluate("T", &empty, &[SloSpec::new("x", "pto").p99(1)]);
        assert!(r2.results.is_empty() && r2.pass());
        assert!(r2.render().is_empty());
    }

    #[test]
    fn sweep_figures_drop_floor_and_abort_ceiling() {
        for fig in ["retry_sweep", "ablation_capacity"] {
            for s in spec_for(fig) {
                assert!(s.min_ops_per_ms.is_none(), "{fig} must not gate throughput");
                assert!(s.abort_rate_ceiling.is_none(), "{fig} must not gate aborts");
            }
        }
    }
}
