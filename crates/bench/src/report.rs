//! Table formatting and CSV output for the figure harnesses.

use crate::lat::{LatSnapshot, ALL};
use pto_sim::obs::{MetricsSnapshot, Series};
use std::fmt::Write as _;
use std::path::Path;

/// One x-axis point: a thread count plus the throughput of every series.
#[derive(Clone, Debug)]
pub struct Row {
    pub threads: usize,
    pub values: Vec<f64>,
}

/// The HTM/reclamation events attributed to one (axis point, series) cell
/// of a figure: the snapshots of the `HtmScope` and `MemScope` the cell's
/// trials ran under.
#[derive(Clone, Debug)]
pub struct CauseCell {
    pub axis: usize,
    pub series: String,
    pub htm: pto_htm::HtmSnapshot,
    pub mem: pto_mem::MemSnapshot,
}

/// The operation-latency distributions of one (axis point, series) cell,
/// snapshotted from [`crate::lat`]'s accumulators around the cell's
/// trials.
#[derive(Clone, Debug)]
pub struct LatCell {
    pub axis: usize,
    pub series: String,
    pub lat: LatSnapshot,
}

/// The metrics-series aggregates of one (axis point, series) cell,
/// snapshotted from the cell's [`pto_sim::obs::Session`].
#[derive(Clone, Debug)]
pub struct MetCell {
    pub axis: usize,
    pub series: String,
    pub met: MetricsSnapshot,
}

/// A figure: named series over the threads axis.
#[derive(Clone, Debug)]
pub struct Table {
    pub title: String,
    pub series: Vec<String>,
    pub rows: Vec<Row>,
    /// Per-cell abort-cause/reclamation attribution (optional; filled by
    /// figure harnesses that measure through [`crate::figs::probe`]).
    pub causes: Vec<CauseCell>,
    /// Per-cell operation-latency distributions (optional; also filled by
    /// [`crate::figs::probe`]).
    pub lats: Vec<LatCell>,
    /// Per-cell metrics-series aggregates (optional; also filled by
    /// [`crate::figs::probe`]).
    pub mets: Vec<MetCell>,
}

impl Table {
    pub fn new(title: &str, series: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            series: series.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            causes: Vec::new(),
            lats: Vec::new(),
            mets: Vec::new(),
        }
    }

    pub fn push(&mut self, threads: usize, values: Vec<f64>) {
        assert_eq!(values.len(), self.series.len());
        self.rows.push(Row { threads, values });
    }

    /// Attach one cell's scoped counter snapshots.
    pub fn push_cause(
        &mut self,
        axis: usize,
        series: &str,
        htm: pto_htm::HtmSnapshot,
        mem: pto_mem::MemSnapshot,
    ) {
        self.causes.push(CauseCell {
            axis,
            series: series.to_string(),
            htm,
            mem,
        });
    }

    /// Render an aligned text table with ratio columns against the first
    /// series (the lock-free baseline in every figure).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let _ = write!(out, "{:>8}", "threads");
        for s in &self.series {
            let _ = write!(out, "{s:>16}");
        }
        for s in self.series.iter().skip(1) {
            let _ = write!(out, "{:>12}", format!("{}/{}", short(s), short(&self.series[0])));
        }
        let _ = writeln!(out);
        for r in &self.rows {
            let _ = write!(out, "{:>8}", r.threads);
            for v in &r.values {
                let _ = write!(out, "{v:>16.0}");
            }
            let base = r.values[0];
            for v in r.values.iter().skip(1) {
                let ratio = if base > 0.0 { v / base } else { 0.0 };
                let _ = write!(out, "{ratio:>12.2}");
            }
            let _ = writeln!(out);
        }
        out
    }

    /// A compact unicode chart: one sparkline per series, scaled to the
    /// table's global maximum — enough to eyeball the figure's shape in a
    /// terminal.
    pub fn sparklines(&self) -> String {
        const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let max = self
            .rows
            .iter()
            .flat_map(|r| r.values.iter().copied())
            .fold(0.0f64, f64::max);
        let mut out = String::new();
        if max <= 0.0 {
            return out;
        }
        let width = self.series.iter().map(|s| s.len()).max().unwrap_or(0);
        for (i, s) in self.series.iter().enumerate() {
            let _ = write!(out, "{s:>width$} ");
            for r in &self.rows {
                let lvl = ((r.values[i] / max) * 7.0).round() as usize;
                out.push(BARS[lvl.min(7)]);
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Abort-cause breakdown aggregated per series (all axis points
    /// merged): begins, commit rate, the five cause columns, and the
    /// reclamation counters. Empty string when no cells were attached.
    pub fn render_causes(&self) -> String {
        if self.causes.is_empty() {
            return String::new();
        }
        let mut out = String::new();
        let _ = writeln!(out, "### abort causes — {}", self.title);
        let _ = writeln!(
            out,
            "{:>16}{:>10}{:>8}{:>10}{:>10}{:>10}{:>8}{:>10}{:>8}{:>8}{:>8}{:>8}{:>8}{:>8}",
            "series",
            "begins",
            "commit%",
            "conflict",
            "capacity",
            "explicit",
            "nested",
            "spurious",
            "rm-com",
            "rm-abt",
            "epochs",
            "scans",
            "reclaim",
            "orphans"
        );
        for s in &self.series {
            let (htm, mem) = self.merged_for(s);
            let _ = writeln!(
                out,
                "{:>16}{:>10}{:>8.1}{:>10}{:>10}{:>10}{:>8}{:>10}{:>8}{:>8}{:>8}{:>8}{:>8}{:>8}",
                trunc(s, 16),
                htm.begins,
                htm.commit_rate() * 100.0,
                htm.aborts_conflict,
                htm.aborts_capacity,
                htm.aborts_explicit,
                htm.aborts_nested,
                htm.aborts_spurious,
                htm.remote_commits,
                htm.remote_aborts,
                mem.epoch_advances,
                mem.hazard_scans,
                mem.hazard_reclaimed + mem.limbo_reclaimed,
                mem.orphans_drained
            );
        }
        out
    }

    /// Abort-cause breakdown with one row per (axis, series) cell — the
    /// per-threshold view the retry sweep prints.
    pub fn render_causes_by_axis(&self) -> String {
        if self.causes.is_empty() {
            return String::new();
        }
        let mut out = String::new();
        let _ = writeln!(out, "### abort causes by axis — {}", self.title);
        let _ = writeln!(
            out,
            "{:>6}{:>16}{:>10}{:>8}{:>10}{:>10}{:>10}{:>8}{:>10}",
            "axis", "series", "begins", "commit%", "conflict", "capacity", "explicit", "nested",
            "spurious"
        );
        for c in &self.causes {
            let _ = writeln!(
                out,
                "{:>6}{:>16}{:>10}{:>8.1}{:>10}{:>10}{:>10}{:>8}{:>10}",
                c.axis,
                trunc(&c.series, 16),
                c.htm.begins,
                c.htm.commit_rate() * 100.0,
                c.htm.aborts_conflict,
                c.htm.aborts_capacity,
                c.htm.aborts_explicit,
                c.htm.aborts_nested,
                c.htm.aborts_spurious
            );
        }
        out
    }

    /// Attach one cell's latency snapshot.
    pub fn push_lat(&mut self, axis: usize, series: &str, lat: LatSnapshot) {
        if lat.is_empty() {
            return;
        }
        self.lats.push(LatCell {
            axis,
            series: series.to_string(),
            lat,
        });
    }

    /// Latency percentiles aggregated per series (all axis points merged):
    /// one row per operation kind that occurred, in virtual cycles. Empty
    /// string when no latency cells were attached.
    pub fn render_latency(&self) -> String {
        if self.lats.is_empty() {
            return String::new();
        }
        let mut out = String::new();
        let _ = writeln!(out, "### latency (virtual cycles) — {}", self.title);
        let _ = writeln!(
            out,
            "{:>16}{:>10}{:>10}{:>8}{:>8}{:>8}{:>8}{:>8}{:>10}",
            "series", "op", "count", "p50", "p90", "p99", "p99.9", "max", "mean"
        );
        for s in &self.series {
            let merged = self.merged_lat_for(s);
            for (i, kind) in ALL.iter().enumerate() {
                let h = &merged.hists[i];
                if h.count == 0 {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "{:>16}{:>10}{:>10}{:>8}{:>8}{:>8}{:>8}{:>8}{:>10.1}",
                    trunc(s, 16),
                    kind.name(),
                    h.count,
                    h.p50(),
                    h.p90(),
                    h.p99(),
                    h.p999(),
                    h.max,
                    h.mean()
                );
            }
        }
        out
    }

    /// The latency CSV body written to `results/lat_<name>.csv`.
    pub fn latency_csv_string(&self) -> String {
        let mut out = String::from("series,op,count,p50,p90,p99,p999,max,mean\n");
        for s in &self.series {
            let merged = self.merged_lat_for(s);
            for (i, kind) in ALL.iter().enumerate() {
                let h = &merged.hists[i];
                if h.count == 0 {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "{},{},{},{},{},{},{},{},{:.1}",
                    s,
                    kind.name(),
                    h.count,
                    h.p50(),
                    h.p90(),
                    h.p99(),
                    h.p999(),
                    h.max,
                    h.mean()
                );
            }
        }
        out
    }

    /// Write `results/lat_<name>.csv` (no file when no latency cells).
    pub fn write_latency_csv(&self, name: &str) -> std::io::Result<()> {
        if self.lats.is_empty() {
            return Ok(());
        }
        let dir = Path::new("results");
        std::fs::create_dir_all(dir)?;
        std::fs::write(
            dir.join(format!("lat_{name}.csv")),
            self.latency_csv_string(),
        )
    }

    /// Attach one cell's metrics aggregates.
    pub fn push_met(&mut self, axis: usize, series: &str, met: MetricsSnapshot) {
        if met.is_empty() {
            return;
        }
        self.mets.push(MetCell {
            axis,
            series: series.to_string(),
            met,
        });
    }

    /// Metrics-series aggregates per series (all axis points merged):
    /// commit/abort totals from the metrics plane, fallback entries,
    /// composed-site entries and ordered-lock fallbacks
    /// (`policy.compose_*`), and the scheduler/reclamation diagnostics —
    /// gate park episodes, max
    /// park-time skew, tournament-root staleness backstops, max epoch lag,
    /// magazine and limbo high-water marks, combiner throughput. Empty
    /// string when no metrics cells were attached. Gate columns are
    /// wallclock scheduling detail and vary run to run.
    pub fn render_metrics(&self) -> String {
        if self.mets.is_empty() {
            return String::new();
        }
        let mut out = String::new();
        let _ = writeln!(out, "### metrics — {}", self.title);
        let _ = writeln!(
            out,
            "{:>16}{:>10}{:>10}{:>10}{:>9}{:>8}{:>11}{:>10}{:>10}{:>10}{:>8}{:>8}{:>10}",
            "series",
            "commits",
            "aborts",
            "fallback",
            "compose",
            "c_fall",
            "gate_parks",
            "backstops",
            "skew_max",
            "lag_max",
            "mag_max",
            "limbo",
            "combined"
        );
        const ABORTS: [Series; 5] = [
            Series::AbortConflict,
            Series::AbortCapacity,
            Series::AbortExplicit,
            Series::AbortNested,
            Series::AbortSpurious,
        ];
        for s in &self.series {
            let m = self.merged_met_for(s);
            let aborts: u64 = ABORTS.iter().map(|&a| m.total(a)).sum();
            let _ = writeln!(
                out,
                "{:>16}{:>10}{:>10}{:>10}{:>9}{:>8}{:>11}{:>10}{:>10}{:>10}{:>8}{:>8}{:>10}",
                trunc(s, 16),
                m.total(Series::Commits),
                aborts,
                m.total(Series::FallbackDepth),
                m.total(Series::PolicyComposeEntries),
                m.total(Series::PolicyComposeFallbacks),
                m.total(Series::GateParks),
                m.total(Series::GateBackstops),
                m.max(Series::GateSkew),
                m.max(Series::EpochLag),
                m.max(Series::PoolMagazine),
                m.max(Series::LimboDepth),
                m.total(Series::CombineServiced)
            );
        }
        out
    }

    /// Merge every metrics cell for `series` across the axis.
    fn merged_met_for(&self, series: &str) -> MetricsSnapshot {
        self.mets
            .iter()
            .filter(|c| c.series == series)
            .fold(MetricsSnapshot::default(), |acc, c| acc.merge(&c.met))
    }

    /// Merge every latency cell for `series` across the axis.
    pub(crate) fn merged_lat_for(&self, series: &str) -> LatSnapshot {
        self.lats
            .iter()
            .filter(|c| c.series == series)
            .fold(LatSnapshot::default(), |acc, c| acc.merge(&c.lat))
    }

    /// Merge every attached cell for `series` across the axis.
    pub(crate) fn merged_for(&self, series: &str) -> (pto_htm::HtmSnapshot, pto_mem::MemSnapshot) {
        self.causes
            .iter()
            .filter(|c| c.series == series)
            .fold(Default::default(), |(h, m): (pto_htm::HtmSnapshot, pto_mem::MemSnapshot), c| {
                (h.merge(&c.htm), m.merge(&c.mem))
            })
    }

    /// The CSV body written to `results/<name>.csv`: the threads × series
    /// throughput matrix, then — when cause cells are attached — a blank
    /// line and a second table carrying every counter
    /// [`Table::render_causes`] prints (and the rest of the two snapshots,
    /// so a parsed file reconstructs them exactly).
    pub fn to_csv_string(&self) -> String {
        let mut out = String::from("threads");
        for s in &self.series {
            let _ = write!(out, ",{s}");
        }
        out.push('\n');
        for r in &self.rows {
            let _ = write!(out, "{}", r.threads);
            for v in &r.values {
                let _ = write!(out, ",{v:.1}");
            }
            out.push('\n');
        }
        if !self.causes.is_empty() {
            out.push('\n');
            out.push_str(CAUSE_CSV_HEADER);
            out.push('\n');
            for c in &self.causes {
                let (h, m) = (&c.htm, &c.mem);
                let _ = writeln!(
                    out,
                    "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                    c.axis,
                    c.series,
                    h.begins,
                    h.commits,
                    h.aborts_conflict,
                    h.aborts_capacity,
                    h.aborts_explicit,
                    h.aborts_nested,
                    h.aborts_spurious,
                    h.remote_commits,
                    h.remote_aborts,
                    m.epoch_advances,
                    m.hazard_scans,
                    m.hazard_reclaimed,
                    m.limbo_reclaimed,
                    m.orphans_parked,
                    m.orphans_drained,
                    m.lanes_released
                );
            }
        }
        out
    }

    /// Parse a [`Table::to_csv_string`] body back (the title is not stored
    /// in the CSV and must be supplied). Inverse of `to_csv_string` up to
    /// the one-decimal rounding of throughput values.
    pub fn parse_csv(title: &str, text: &str) -> Result<Table, String> {
        let mut sections = text.split("\n\n");
        let matrix = sections.next().ok_or("empty csv")?;
        let mut lines = matrix.lines();
        let header = lines.next().ok_or("missing header")?;
        let mut cols = header.split(',');
        if cols.next() != Some("threads") {
            return Err(format!("bad matrix header: {header}"));
        }
        let series: Vec<&str> = cols.collect();
        let mut t = Table::new(title, &series);
        for line in lines.filter(|l| !l.is_empty()) {
            let mut f = line.split(',');
            let threads = parse_field::<usize>(&mut f, line)?;
            let mut values = Vec::new();
            for _ in &t.series {
                values.push(parse_field::<f64>(&mut f, line)?);
            }
            t.push(threads, values);
        }
        if let Some(causes) = sections.next() {
            let mut lines = causes.lines().filter(|l| !l.is_empty());
            let header = lines.next().ok_or("missing cause header")?;
            if header != CAUSE_CSV_HEADER {
                return Err(format!("bad cause header: {header}"));
            }
            for line in lines {
                let mut f = line.split(',');
                let axis = parse_field::<usize>(&mut f, line)?;
                let series = f.next().ok_or_else(|| format!("short row: {line}"))?.to_string();
                let htm = pto_htm::HtmSnapshot {
                    begins: parse_field(&mut f, line)?,
                    commits: parse_field(&mut f, line)?,
                    aborts_conflict: parse_field(&mut f, line)?,
                    aborts_capacity: parse_field(&mut f, line)?,
                    aborts_explicit: parse_field(&mut f, line)?,
                    aborts_nested: parse_field(&mut f, line)?,
                    aborts_spurious: parse_field(&mut f, line)?,
                    remote_commits: parse_field(&mut f, line)?,
                    remote_aborts: parse_field(&mut f, line)?,
                };
                let mem = pto_mem::MemSnapshot {
                    epoch_advances: parse_field(&mut f, line)?,
                    hazard_scans: parse_field(&mut f, line)?,
                    hazard_reclaimed: parse_field(&mut f, line)?,
                    limbo_reclaimed: parse_field(&mut f, line)?,
                    orphans_parked: parse_field(&mut f, line)?,
                    orphans_drained: parse_field(&mut f, line)?,
                    lanes_released: parse_field(&mut f, line)?,
                };
                t.push_cause(axis, &series, htm, mem);
            }
        }
        Ok(t)
    }

    /// Write `results/<name>.csv`.
    pub fn write_csv(&self, name: &str) -> std::io::Result<()> {
        let dir = Path::new("results");
        std::fs::create_dir_all(dir)?;
        std::fs::write(
            Path::new("results").join(format!("{name}.csv")),
            self.to_csv_string(),
        )
    }
}

/// Header of the cause section in [`Table::to_csv_string`].
pub const CAUSE_CSV_HEADER: &str = "axis,series,begins,commits,conflict,capacity,explicit,\
nested,spurious,remote_commits,remote_aborts,epoch_advances,hazard_scans,hazard_reclaimed,\
limbo_reclaimed,orphans_parked,orphans_drained,lanes_released";

fn parse_field<'a, T: std::str::FromStr>(
    fields: &mut impl Iterator<Item = &'a str>,
    line: &str,
) -> Result<T, String> {
    fields
        .next()
        .ok_or_else(|| format!("short row: {line}"))?
        .parse::<T>()
        .map_err(|_| format!("bad number in row: {line}"))
}

fn short(s: &str) -> String {
    s.chars().take(6).collect()
}

fn trunc(s: &str, n: usize) -> String {
    s.chars().take(n).collect()
}

/// Run `f` `trials` times and return the mean (the paper averages 5
/// trials per point).
pub fn average_trials(trials: u32, mut f: impl FnMut(u64) -> f64) -> f64 {
    let mut sum = 0.0;
    for t in 0..trials {
        sum += f(t as u64 + 1);
    }
    sum / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_with_ratios() {
        let mut t = Table::new("FIG-X", &["lockfree", "pto"]);
        t.push(1, vec![100.0, 150.0]);
        t.push(8, vec![200.0, 600.0]);
        let s = t.render();
        assert!(s.contains("FIG-X"));
        assert!(s.contains("1.50"));
        assert!(s.contains("3.00"));
    }

    #[test]
    fn sparklines_scale_to_max() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push(1, vec![10.0, 80.0]);
        t.push(2, vec![20.0, 40.0]);
        let s = t.sparklines();
        assert!(s.contains('█'), "max value should hit the top bar");
        assert_eq!(s.lines().count(), 2);
    }

    #[test]
    fn sparklines_empty_for_zero_data() {
        let mut t = Table::new("x", &["a"]);
        t.push(1, vec![0.0]);
        assert!(t.sparklines().is_empty());
    }

    #[test]
    fn average_trials_averages() {
        let v = average_trials(4, |t| t as f64);
        assert!((v - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn push_rejects_wrong_arity() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push(1, vec![1.0]);
    }

    #[test]
    fn cause_tables_render_and_merge_per_series() {
        let mut t = Table::new("x", &["lf", "pto"]);
        let htm = |begins, conflict| pto_htm::HtmSnapshot {
            begins,
            commits: begins - conflict,
            aborts_conflict: conflict,
            ..Default::default()
        };
        t.push_cause(1, "pto", htm(10, 2), Default::default());
        t.push_cause(8, "pto", htm(30, 8), Default::default());
        let s = t.render_causes();
        // The two pto cells merge: 40 begins, 10 conflicts.
        assert!(s.contains("40"), "merged begins missing:\n{s}");
        assert!(s.contains("10"), "merged conflicts missing:\n{s}");
        // The lf series has no cells: all-zero row, but still listed.
        assert!(s.contains("lf"));
        let by_axis = t.render_causes_by_axis();
        assert_eq!(by_axis.lines().count(), 2 + 2, "one row per cell");
        assert!(by_axis.contains("pto"));
    }

    #[test]
    fn cause_tables_are_empty_without_cells() {
        let t = Table::new("x", &["a"]);
        assert!(t.render_causes().is_empty());
        assert!(t.render_causes_by_axis().is_empty());
    }

    #[test]
    fn csv_round_trips_rows_and_causes() {
        let mut t = Table::new("RT", &["lf", "pto"]);
        t.push(1, vec![100.0, 150.5]);
        t.push(8, vec![200.0, 640.5]);
        let htm = pto_htm::HtmSnapshot {
            begins: 40,
            commits: 30,
            aborts_conflict: 6,
            aborts_capacity: 1,
            aborts_explicit: 2,
            aborts_nested: 0,
            aborts_spurious: 1,
            remote_commits: 12,
            remote_aborts: 4,
        };
        let mem = pto_mem::MemSnapshot {
            epoch_advances: 9,
            hazard_scans: 3,
            hazard_reclaimed: 128,
            orphans_parked: 5,
            orphans_drained: 5,
            lanes_released: 8,
            limbo_reclaimed: 64,
        };
        t.push_cause(1, "pto", htm, mem);
        t.push_cause(8, "pto", Default::default(), Default::default());
        let text = t.to_csv_string();
        let back = Table::parse_csv("RT", &text).expect("parse");
        assert_eq!(back.series, t.series);
        assert_eq!(back.rows.len(), 2);
        assert_eq!(back.rows[1].threads, 8);
        assert_eq!(back.rows[1].values, vec![200.0, 640.5]);
        assert_eq!(back.causes.len(), 2);
        assert_eq!(back.causes[0].series, "pto");
        assert_eq!(back.causes[0].htm, htm);
        assert_eq!(back.causes[0].mem, mem);
        // Everything render_causes prints is reconstructible: the rendered
        // cause table of the round-tripped table is identical.
        assert_eq!(back.render_causes(), t.render_causes());
        // And a second round-trip is textually a fixed point.
        assert_eq!(back.to_csv_string(), text);
    }

    #[test]
    fn csv_without_causes_parses_with_empty_causes() {
        let mut t = Table::new("x", &["a"]);
        t.push(4, vec![10.0]);
        let back = Table::parse_csv("x", &t.to_csv_string()).expect("parse");
        assert!(back.causes.is_empty());
        assert_eq!(back.rows[0].values, vec![10.0]);
    }

    #[test]
    fn csv_parse_rejects_garbage() {
        assert!(Table::parse_csv("x", "nope,a\n1,2\n").is_err());
        assert!(Table::parse_csv("x", "threads,a\n1,zzz\n").is_err());
        assert!(Table::parse_csv("x", "threads,a\n1,2\n\nbad,header\n").is_err());
    }

    #[test]
    fn latency_table_renders_percentiles_per_series() {
        use crate::lat::{LatSnapshot, OpKind};
        let mut t = Table::new("L", &["lf", "pto"]);
        let mut lat = LatSnapshot::default();
        let h = pto_sim::hist::Histogram::new();
        for v in [100u64, 200, 400, 800] {
            h.record(v);
        }
        lat.hists[OpKind::Arrive as usize] = h.snapshot();
        t.push_lat(1, "pto", lat.clone());
        t.push_lat(8, "pto", lat);
        let s = t.render_latency();
        assert!(s.contains("arrive"), "missing op row:\n{s}");
        assert!(s.contains("p50") && s.contains("p99") && s.contains("p99.9"));
        // Two cells merged: count 8.
        assert!(s.contains('8'), "merged count missing:\n{s}");
        let csv = t.latency_csv_string();
        assert!(csv.starts_with("series,op,count,p50,p90,p99,p999,max,mean"));
        assert!(csv.contains("pto,arrive,8,"));
        // Series without samples contribute no rows.
        assert!(!csv.contains("lf,"));
    }

    #[test]
    fn metrics_table_renders_and_merges_per_series() {
        let mut t = Table::new("M", &["lf", "pto"]);
        let mut m = MetricsSnapshot::default();
        m.counts[Series::Commits as usize] = 10;
        m.sums[Series::Commits as usize] = 10;
        m.counts[Series::GateParks as usize] = 3;
        m.sums[Series::GateParks as usize] = 3;
        m.maxes[Series::GateSkew as usize] = 512;
        t.push_met(1, "pto", m);
        t.push_met(8, "pto", m);
        let s = t.render_metrics();
        assert!(s.contains("gate_parks") && s.contains("backstops"));
        // Two cells merged: 20 commits, 6 parks, skew max stays 512.
        assert!(s.contains("20"), "merged commits missing:\n{s}");
        assert!(s.contains('6'), "merged parks missing:\n{s}");
        assert!(s.contains("512"), "max skew missing:\n{s}");
        // No cells → no table; empty snapshots are not even attached.
        assert!(Table::new("x", &["a"]).render_metrics().is_empty());
        let mut t2 = Table::new("x", &["a"]);
        t2.push_met(1, "a", MetricsSnapshot::default());
        assert!(t2.mets.is_empty());
    }

    #[test]
    fn latency_table_empty_without_cells() {
        let t = Table::new("L", &["a"]);
        assert!(t.render_latency().is_empty());
        // Empty snapshots are not even attached.
        let mut t2 = Table::new("L", &["a"]);
        t2.push_lat(1, "a", crate::lat::LatSnapshot::default());
        assert!(t2.lats.is_empty());
    }
}
