//! Metric names, units and directions, the child-to-parent line protocol,
//! and the final JSON line.

use crate::workload::Kind;
use std::fmt::Write as _;

/// An end-to-end metric: what a user of the system sees.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

pub const E2E: [Def; 7] = [
    def("vthroughput_ops_ms", "ops/ms", "higher"),
    def("vlat_p50_cycles", "cycles", "lower"),
    def("vlat_p99_cycles", "cycles", "lower"),
    def("vlat_p999_cycles", "cycles", "lower"),
    def("host_ops_s", "ops/s", "higher"),
    def("setup_s", "s", "lower"),
    def("peak_rss_mb", "MiB", "lower"),
];

/// The end-to-end metrics computed purely in virtual time: bit-identical
/// across runs of a one-lane workload with the same seed.
pub const VIRTUAL: [&str; 4] = [
    "vthroughput_ops_ms",
    "vlat_p50_cycles",
    "vlat_p99_cycles",
    "vlat_p999_cycles",
];

const LAYER_FIXED: [(&str, &str); 25] = [
    ("sim.makespan_cycles", "cycles"),
    ("sim.charge_ns", "ns"),
    ("sim.gate_parks_per_kop", "1/kop"),
    ("sim.host_ns_per_op", "ns"),
    ("sim.gate_charge_ns_2lane", "ns"),
    ("htm.begins_per_op", "1/op"),
    ("htm.commit_ratio", "ratio"),
    ("htm.aborts_conflict_per_kop", "1/kop"),
    ("htm.aborts_capacity_per_kop", "1/kop"),
    ("htm.aborts_explicit_per_kop", "1/kop"),
    ("htm.txn_ro_ns", "ns"),
    ("htm.txn_ns", "ns"),
    ("mem.epoch_advances_per_kop", "1/kop"),
    ("mem.limbo_reclaimed_per_kop", "1/kop"),
    ("mem.hazard_scans_per_kop", "1/kop"),
    ("mem.pool_ns", "ns"),
    ("core.prefix_share", "ratio"),
    ("core.fallback_per_kop", "1/kop"),
    ("core.middle_per_kop", "1/kop"),
    ("core.adapt_flips", "count/round"),
    ("core.compose_fallback_share", "ratio"),
    ("core.attempt_cycle_share", "ratio"),
    ("core.backoff_cycle_share", "ratio"),
    ("core.fallback_cycle_share", "ratio"),
    ("bench.trace_overhead_ratio", "ratio"),
];

/// Every per-layer metric a traced run reports, with its unit.
pub fn layer_defs() -> Vec<(String, &'static str)> {
    let mut defs: Vec<(String, &'static str)> = LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for k in Kind::ALL {
        defs.push((format!("op.{}.vlat_p50_cycles", k.name()), "cycles"));
        defs.push((format!("op.{}.vlat_p999_cycles", k.name()), "cycles"));
        defs.push((format!("op.{}.host_ns", k.name()), "ns"));
    }
    defs
}

/// The unit of a known metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    E2E.iter()
        .find(|d| d.name == name)
        .map(|d| d.unit)
        .or_else(|| {
            layer_defs()
                .into_iter()
                .find(|(n, _)| n == name)
                .map(|(_, u)| u)
        })
}

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

impl Metric {
    /// A known metric; panics on a name missing from the tables, so a typo
    /// cannot add an undeclared metric.
    pub fn new(name: &str, value: f64) -> Metric {
        let unit = unit_of(name).unwrap_or_else(|| panic!("undeclared metric {name}"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
        }
    }

    /// The child's output line. `{}` prints an `f64` with the fewest digits
    /// that read back to the same value, so the parent sees it exactly.
    pub fn line(&self) -> String {
        format!("metric {} {} {}", self.name, self.unit, self.value)
    }

    pub fn parse(line: &str) -> Option<Metric> {
        let mut it = line.strip_prefix("metric ")?.split(' ');
        let (name, unit, value) = (it.next()?, it.next()?, it.next()?);
        Some(Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value: value.parse().ok()?,
        })
    }
}

pub fn find<'a>(metrics: &'a [Metric], name: &str) -> Option<&'a Metric> {
    metrics.iter().find(|m| m.name == name)
}

/// The final line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_round_trip_exactly() {
        let m = Metric::new("vthroughput_ops_ms", 47026.19117647059);
        assert_eq!(Metric::parse(&m.line()), Some(m));
        let m = Metric::new("op.audit.host_ns", 1e-7);
        assert_eq!(Metric::parse(&m.line()), Some(m));
    }

    #[test]
    fn result_json_parses() {
        let ms = [
            Metric::new("setup_s", 0.25),
            Metric::new("vlat_p50_cycles", 74.0),
        ];
        let json = result_json(true, 10, 0, &ms);
        let v = pto_sim::json::Value::parse(&json).expect("valid JSON");
        let m = v
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        assert_eq!(m.get("value").and_then(|v| v.as_f64()), Some(0.25));
        assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some("s"));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<String> = layer_defs().into_iter().map(|(n, _)| n).collect();
        names.extend(E2E.iter().map(|d| d.name.to_string()));
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
