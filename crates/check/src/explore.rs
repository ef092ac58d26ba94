//! Schedule exploration: replay one seeded workload under many schedules
//! and check every resulting history.
//!
//! One seed fixes the *workload* (each lane's operation sequence); each
//! schedule index then perturbs the *interleaving*:
//!
//! * **gate quantum** — how far lanes may drift apart in virtual time;
//! * **PCT-style priority stalls** — random per-lane virtual-cycle stalls
//!   injected between operations, which reorder lanes the way a
//!   priority-based concurrency tester does;
//! * **deterministic abort injection** — `pto_htm::injection_scope`
//!   kills every p-th would-commit transaction, steering runs into the
//!   fallback paths and mixed prefix/fallback interleavings that random
//!   chaos rarely reaches. (Capacity and chaos faults are per-variant:
//!   construct the structure with a small `write_cap` or a nonzero
//!   `chaos_abort_pct` and every schedule explores under those faults.)
//!
//! Recording and injection are both *scoped* (context-slot guards
//! inherited by the sim lanes), so explorations of different variants are
//! independent cells: the sharded `lincheck` harness runs one per
//! [`pto_sim::par`] worker with nothing process-global shared between
//! them.
//!
//! Every history is decoded and checked against the sequential spec; the
//! first violation is minimized into an honest witness and exploration
//! stops.

use crate::record::{decode, RecordedFifo, RecordedPq, RecordedQui, RecordedSet};
use crate::spec::{FifoSpec, Op, PqSpec, QuiSpec};
use crate::wgl::{check, check_set_by_key, minimize, CheckOpts, History, SpecKind, Verdict, Witness};
use pto_core::{ConcurrentSet, FifoQueue, PriorityQueue, Quiescence};
use pto_sim::history::ScopedHistory;
use pto_sim::rng::{XorShift64, WEYL_STEP};
use pto_sim::{charge_cycles, Sim};

/// Exploration parameters. Defaults give ~1k-op histories on 4 lanes.
#[derive(Clone, Debug)]
pub struct ExploreCfg {
    /// Workload seed: fixes every lane's op sequence across schedules.
    pub seed: u64,
    pub lanes: usize,
    pub ops_per_lane: usize,
    /// Keys/values drawn from `0..keyspace`.
    pub keyspace: u64,
    /// Number of schedules to replay the workload under.
    pub schedules: u32,
    /// Per-history checker node budget.
    pub max_nodes: u64,
}

impl Default for ExploreCfg {
    fn default() -> Self {
        ExploreCfg {
            seed: 0x5EED_C0DE,
            lanes: 4,
            ops_per_lane: 64,
            keyspace: 24,
            schedules: 8,
            max_nodes: 5_000_000,
        }
    }
}

/// One derived schedule.
#[derive(Clone, Debug)]
pub(crate) struct Schedule {
    pub(crate) quantum: u64,
    /// Stall window per lane (0 = high priority); a stalling lane charges
    /// a uniform draw below its window before each operation.
    stall: Vec<u64>,
    /// Percent of op boundaries that stall.
    stall_pct: u64,
    /// Deterministic abort injection `(period, phase)`, if armed.
    inject: Option<(u64, u64)>,
}

pub(crate) fn derive_schedule(cfg: &ExploreCfg, idx: u32) -> Schedule {
    let mut rng = XorShift64::new(
        cfg.seed ^ WEYL_STEP.wrapping_mul(idx as u64 + 1),
    );
    let quantum = [50, 100, 200, 400][rng.below(4) as usize];
    let stall = (0..cfg.lanes)
        .map(|_| rng.below(3 * quantum + 1))
        .collect();
    let stall_pct = rng.below(40);
    // Every other schedule injects targeted aborts.
    let inject = if idx % 2 == 1 {
        let period = [3, 7, 13, 31][rng.below(4) as usize];
        Some((period, rng.below(period)))
    } else {
        None
    };
    Schedule {
        quantum,
        stall,
        stall_pct,
        inject,
    }
}

/// Per-lane workload RNG: same for a (seed, lane) pair across schedules.
fn lane_rng(cfg: &ExploreCfg, lane: usize) -> XorShift64 {
    XorShift64::new(cfg.seed ^ WEYL_STEP.wrapping_mul(0x10_0000 + lane as u64))
}

/// A violation found while exploring.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Schedule index the violating history was recorded under.
    pub schedule: u32,
    /// The full witness from the checker.
    pub witness: Witness,
    /// The ddmin-minimized honest witness.
    pub minimized: History,
}

/// The outcome of exploring one variant.
#[derive(Clone, Debug, Default)]
pub struct ExploreReport {
    pub schedules_run: u32,
    pub ops_checked: u64,
    /// Histories whose check ran out of node budget (says nothing).
    pub exhausted: u32,
    /// Queries excluded from checking under [`QueryMode::Quiescent`]
    /// because an update overlapped them.
    pub filtered_queries: u64,
    pub violation: Option<Violation>,
}

impl ExploreReport {
    /// True when every history checked linearizable (and none were
    /// inconclusive).
    pub fn all_linearizable(&self) -> bool {
        self.violation.is_none() && self.exhausted == 0
    }
}

/// Record one schedule's history for `body`, with stalls and optional
/// abort injection armed around the simulated run.
fn record_one<F>(cfg: &ExploreCfg, sched: &Schedule, body: F) -> History
where
    F: Fn(usize, usize, &mut XorShift64) + Sync,
{
    let raw = record_raw(cfg, sched, body);
    decode(&raw).expect("exploration histories record completely")
}

/// Like [`record_one`] but returning the raw recording, so decoders other
/// than the single-object one ([`crate::multi::decode_multi`]) can run.
pub(crate) fn record_raw<F>(
    cfg: &ExploreCfg,
    sched: &Schedule,
    body: F,
) -> pto_sim::history::RawHistory
where
    F: Fn(usize, usize, &mut XorShift64) + Sync,
{
    // Scoped history + scoped injection: the whole recording is private to
    // this thread (and the sim lanes it spawns), so explorer cells for
    // different variants can run concurrently on the cell runner's workers
    // without sharing the process-global session.
    let session = ScopedHistory::arm();
    let _inject = sched
        .inject
        .map(|(period, phase)| pto_htm::injection_scope(period, phase));
    let mut sim = Sim::new(cfg.lanes);
    sim.quantum = sched.quantum;
    let stall = &sched.stall;
    let stall_pct = sched.stall_pct;
    sim.run(|lane| {
        let mut rng = lane_rng(cfg, lane);
        let mut stall_rng = XorShift64::new(
            cfg.seed ^ WEYL_STEP.wrapping_mul(0x20_0000 + lane as u64),
        );
        for i in 0..cfg.ops_per_lane {
            if stall[lane] > 0 && stall_rng.chance(stall_pct, 100) {
                charge_cycles(stall_rng.below(stall[lane] + 1));
            }
            body(lane, i, &mut rng);
        }
    });
    session.drain()
}

fn finish(
    report: &mut ExploreReport,
    idx: u32,
    history: &History,
    verdict: Verdict,
    kind: SpecKind,
    prefill: &[u64],
    is_violation: &dyn Fn(&History) -> bool,
) -> bool {
    report.schedules_run += 1;
    report.ops_checked += history.ops() as u64;
    match verdict {
        Verdict::Linearizable => false,
        Verdict::Exhausted { .. } => {
            report.exhausted += 1;
            false
        }
        Verdict::NonLinearizable(witness) => {
            let minimized = minimize(history, kind, prefill, is_violation);
            report.violation = Some(Violation {
                schedule: idx,
                witness,
                minimized,
            });
            true
        }
    }
}

/// Explore a [`ConcurrentSet`] variant. `prefill` keys are inserted
/// directly (unrecorded) before each run and mirrored into the spec's
/// initial state.
pub fn explore_set(
    cfg: &ExploreCfg,
    make: &dyn Fn() -> Box<dyn ConcurrentSet>,
    prefill: &[u64],
) -> ExploreReport {
    let mut report = ExploreReport::default();
    for idx in 0..cfg.schedules {
        let sched = derive_schedule(cfg, idx);
        let structure = make();
        for &k in prefill {
            structure.insert(k);
        }
        let recorded = RecordedSet(&*structure);
        let history = record_one(cfg, &sched, |_lane, _i, rng| {
            let key = rng.below(cfg.keyspace);
            match rng.below(10) {
                0..=3 => {
                    recorded.insert(key);
                }
                4..=7 => {
                    recorded.remove(key);
                }
                _ => {
                    recorded.contains(key);
                }
            }
        });
        let opts = CheckOpts {
            max_nodes: cfg.max_nodes,
            ..CheckOpts::for_quantum(sched.quantum)
        };
        let verdict = check_set_by_key(&history, prefill, opts);
        let fails = |h: &History| !check_set_by_key(h, prefill, opts).is_linearizable();
        if finish(&mut report, idx, &history, verdict, SpecKind::Set, prefill, &fails) {
            break;
        }
    }
    report
}

/// Explore a [`FifoQueue`] variant. Enqueued values are unique per history
/// (lane tag in the high bits), which keeps the search sharp; every lane
/// enqueues an even count so pair-publishing faults lose nothing.
pub fn explore_fifo(
    cfg: &ExploreCfg,
    make: &dyn Fn() -> Box<dyn FifoQueue>,
    prefill: &[u64],
) -> ExploreReport {
    let mut report = ExploreReport::default();
    for idx in 0..cfg.schedules {
        let sched = derive_schedule(cfg, idx);
        let structure = make();
        for &v in prefill {
            structure.enqueue(v);
        }
        let recorded = RecordedFifo(&*structure);
        let history = record_one(cfg, &sched, |lane, i, rng| {
            // Strict alternation: even op indices enqueue, odd dequeue,
            // so each lane's enqueue count is ⌈ops_per_lane/2⌉ — even
            // whenever `ops_per_lane % 4 == 0` (the defaults), which
            // keeps pair-publishing faults from also losing values.
            let _ = rng.next_u64();
            if i % 2 == 0 {
                recorded.enqueue(((lane as u64) << 32) | i as u64);
            } else {
                recorded.dequeue();
            }
        });
        let opts = CheckOpts {
            max_nodes: cfg.max_nodes,
            ..CheckOpts::for_quantum(sched.quantum)
        };
        let spec = FifoSpec::with_prefill(prefill.iter().copied());
        let verdict = check(&history, spec.clone(), opts);
        let fails = |h: &History| !check(h, spec.clone(), opts).is_linearizable();
        if finish(&mut report, idx, &history, verdict, SpecKind::Fifo, prefill, &fails) {
            break;
        }
    }
    report
}

/// Explore a [`PriorityQueue`] variant.
pub fn explore_pq(
    cfg: &ExploreCfg,
    make: &dyn Fn() -> Box<dyn PriorityQueue>,
    prefill: &[u64],
) -> ExploreReport {
    let mut report = ExploreReport::default();
    for idx in 0..cfg.schedules {
        let sched = derive_schedule(cfg, idx);
        let structure = make();
        for &v in prefill {
            structure.push(v);
        }
        let recorded = RecordedPq(&*structure);
        let history = record_one(cfg, &sched, |_lane, _i, rng| {
            let key = rng.below(cfg.keyspace);
            match rng.below(10) {
                0..=4 => recorded.push(key),
                5..=8 => {
                    recorded.pop_min();
                }
                _ => {
                    recorded.peek_min();
                }
            }
        });
        let opts = CheckOpts {
            max_nodes: cfg.max_nodes,
            ..CheckOpts::for_quantum(sched.quantum)
        };
        let spec = PqSpec::with_prefill(prefill.iter().copied());
        let verdict = check(&history, spec.clone(), opts);
        let fails = |h: &History| !check(h, spec.clone(), opts).is_linearizable();
        if finish(&mut report, idx, &history, verdict, SpecKind::Pq, prefill, &fails) {
            break;
        }
    }
    report
}

/// How strictly [`explore_qui`] holds `query` to the sequential spec.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryMode {
    /// Queries are fully linearizable reads (the TLE variants, whose
    /// `query` is one atomic root load inside a transaction).
    Exact,
    /// Queries are only *quiescently consistent* — the lock-free and PTO
    /// Mindicators' documented contract: an arrive may early-stop below
    /// another thread's still-climbing fold, so a query overlapping an
    /// in-flight update can return a stale minimum. Queries no update
    /// overlaps (± the precedence margin) still must see the exact value
    /// and are checked; overlapped ones are excluded (they are
    /// state-neutral, so excluding them constrains nothing else).
    Quiescent,
}

/// Drop every query whose interval overlaps an update interval, with
/// `margin` slack on both sides (the same gate-skew slack the checker's
/// precedence relation uses, so virtual-time disjointness is a sound proxy
/// for wallclock disjointness). Returns the filtered history and the count
/// of dropped queries.
fn retain_quiescent_queries(history: &History, margin: u64) -> (History, u64) {
    let updates: Vec<(u64, u64)> = history
        .lanes
        .iter()
        .flatten()
        .filter(|o| matches!(o.op, Op::Arrive(_) | Op::Depart))
        .map(|o| (o.inv, o.res))
        .collect();
    let mut dropped = 0u64;
    let mut lanes = Vec::with_capacity(history.lanes.len());
    for lane in &history.lanes {
        let mut kept = Vec::with_capacity(lane.len());
        for o in lane {
            let overlapped = matches!(o.op, Op::Query)
                && updates.iter().any(|&(ui, ur)| {
                    !(o.res.saturating_add(margin) < ui
                        || ur.saturating_add(margin) < o.inv)
                });
            if overlapped {
                dropped += 1;
            } else {
                kept.push(*o);
            }
        }
        lanes.push(kept);
    }
    (History { lanes }, dropped)
}

/// Explore a [`Quiescence`] variant. Lanes cycle arrive → queries →
/// depart (no re-arrive while arrived: the structures' arrive climbs only
/// fold downward). `mode` selects the query contract to check.
pub fn explore_qui(
    cfg: &ExploreCfg,
    make: &dyn Fn() -> Box<dyn Quiescence>,
    mode: QueryMode,
) -> ExploreReport {
    let mut report = ExploreReport::default();
    for idx in 0..cfg.schedules {
        let sched = derive_schedule(cfg, idx);
        let structure = make();
        let recorded = RecordedQui(&*structure);
        let arrived: Vec<std::sync::atomic::AtomicBool> = (0..cfg.lanes)
            .map(|_| std::sync::atomic::AtomicBool::new(false))
            .collect();
        let history = record_one(cfg, &sched, |lane, _i, rng| {
            use std::sync::atomic::Ordering;
            let is_in = arrived[lane].load(Ordering::Relaxed);
            match (is_in, rng.below(10)) {
                (false, 0..=4) => {
                    recorded.arrive(rng.below(cfg.keyspace));
                    arrived[lane].store(true, Ordering::Relaxed);
                }
                (true, 0..=2) => {
                    recorded.depart();
                    arrived[lane].store(false, Ordering::Relaxed);
                }
                _ => {
                    recorded.query();
                }
            }
        });
        let opts = CheckOpts {
            max_nodes: cfg.max_nodes,
            ..CheckOpts::for_quantum(sched.quantum)
        };
        let history = match mode {
            QueryMode::Exact => history,
            QueryMode::Quiescent => {
                let (filtered, dropped) = retain_quiescent_queries(&history, opts.margin);
                report.filtered_queries += dropped;
                filtered
            }
        };
        let spec = QuiSpec::new(history.lanes.len());
        let verdict = check(&history, spec.clone(), opts);
        let fails = |h: &History| !check(h, spec.clone(), opts).is_linearizable();
        if finish(&mut report, idx, &history, verdict, SpecKind::Qui, &[], &fails) {
            break;
        }
    }
    report
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn tiny() -> ExploreCfg {
        ExploreCfg {
            schedules: 2,
            ops_per_lane: 16,
            lanes: 2,
            ..ExploreCfg::default()
        }
    }

    // Exploration is scoped (nothing process-global since the sharded
    // explorer), but each run spawns a multi-lane sim; serializing the
    // explorer tests keeps this crate's suite from oversubscribing the
    // small CI hosts with stacked sims.
    pub(crate) fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn schedules_are_deterministic_in_the_seed() {
        let cfg = ExploreCfg::default();
        for idx in 0..4 {
            let a = derive_schedule(&cfg, idx);
            let b = derive_schedule(&cfg, idx);
            assert_eq!(a.quantum, b.quantum);
            assert_eq!(a.stall, b.stall);
            assert_eq!(a.inject, b.inject);
        }
        // And differ across indices somewhere.
        let qs: Vec<u64> = (0..8).map(|i| derive_schedule(&cfg, i).quantum).collect();
        assert!(qs.iter().any(|&q| q != qs[0]), "{qs:?}");
    }

    #[test]
    fn tle_set_explores_clean() {
        let _g = serial();
        let report = explore_set(&tiny(), &|| Box::new(crate::tle::TleSet::new(24)), &[1, 2]);
        assert!(report.all_linearizable(), "{report:?}");
        assert_eq!(report.schedules_run, 2);
        assert!(report.ops_checked > 0);
    }

    #[test]
    fn broken_fifo_is_caught_and_minimized() {
        let _g = serial();
        let report = explore_fifo(
            &ExploreCfg {
                schedules: 4,
                ops_per_lane: 16,
                lanes: 2,
                ..ExploreCfg::default()
            },
            &|| Box::new(crate::broken::BrokenFifo::new()),
            &[],
        );
        let v = report.violation.expect("BrokenFifo must be caught");
        assert!(v.minimized.ops() <= 4, "{}", v.witness.render());
        assert!(v.minimized.ops() >= 2);
    }
}
