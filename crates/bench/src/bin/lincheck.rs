//! Linearizability sweep over the full variant matrix.
//!
//! Drives `pto-check`'s schedule explorer across every structure variant
//! the paper measures — lock-free, PTO, and TLE for all five abstract
//! types — and prints one results row per variant: schedules replayed,
//! operations checked, queries excluded under the quiescent contract, and
//! the verdict. Afterwards it runs the deliberately bug-seeded
//! [`pto_check::broken::BrokenFifo`] and prints the minimized witness, so
//! the output also demonstrates what a caught violation looks like.
//!
//! Every variant is one independent cell: exploration is fully scoped
//! (history, abort injection, HTM/reclamation stats, RNG stream), so the
//! matrix shards across the [`pto_sim::par`] workers via
//! [`pto_bench::cells::sweep`] and reports are printed in the fixed matrix
//! order afterwards — identical output to a sequential `PTO_PAR=1` run on
//! a multi-core host, just sooner.
//!
//! Run modes:
//!
//! * default — the full matrix at the acceptance workload (4 lanes,
//!   64 ops/lane, 5+ schedules per variant);
//! * `--smoke` — the premerge gate: every variant with a trimmed schedule
//!   count, bounded well under 30 s in release builds.
//!
//! Exits non-zero if any variant fails to linearize, any check runs out
//! of budget, or the broken queue is *not* caught.

use pto_bench::cells;
use pto_bst::{Bst, BstVariant};
use pto_check::broken::BrokenFifo;
use pto_check::explore::{
    explore_fifo, explore_pq, explore_qui, explore_set, ExploreCfg, QueryMode,
};
use pto_check::ExploreReport;
use pto_core::{ConcurrentSet, FifoQueue, PriorityQueue, Quiescence};
use pto_hashtable::{FSetHashTable, HashVariant};
use pto_list::{HarrisList, ListVariant};
use pto_mindicator::{LockFreeMindicator, PtoMindicator, TleMindicator};
use pto_mound::Mound;
use pto_msqueue::MsQueue;
use pto_skiplist::{SkipListSet, SkipQueue};

/// One cell of the variant matrix. Factories are plain fn pointers so the
/// job list is `Send + Sync` and can shard across the cell runner.
enum Kind {
    Qui(fn() -> Box<dyn Quiescence>, QueryMode),
    Fifo(fn() -> Box<dyn FifoQueue>, &'static [u64]),
    Set(fn() -> Box<dyn ConcurrentSet>, &'static [u64]),
    Pq(fn() -> Box<dyn PriorityQueue>, &'static [u64]),
    /// The seeded-fault demo: must produce a violation.
    Broken,
}

struct Job {
    name: &'static str,
    kind: Kind,
}

struct Tally {
    rows: Vec<(String, ExploreReport)>,
    failed: bool,
}

impl Tally {
    fn add(&mut self, name: &str, report: ExploreReport) {
        let verdict = if let Some(v) = &report.violation {
            self.failed = true;
            format!("VIOLATION (schedule {})", v.schedule)
        } else if report.exhausted > 0 {
            self.failed = true;
            format!("EXHAUSTED ({} histories)", report.exhausted)
        } else {
            "linearizable".to_string()
        };
        println!(
            "  {name:<22} {:>9} {:>12} {:>10}   {verdict}",
            report.schedules_run, report.ops_checked, report.filtered_queries,
        );
        if let Some(v) = &report.violation {
            println!("{}", v.witness.render());
        }
        self.rows.push((name.to_string(), report));
    }
}

/// attempts=1 + middle_streak=1: contended ops land on the single-orec
/// middle path after their first same-granule conflict, so the injected
/// (odd) schedules exercise the HTM -> middle -> fallback demotion chain.
fn middle_forced() -> pto_core::AdaptivePolicy {
    pto_core::AdaptivePolicy::new(pto_core::PtoPolicy::with_attempts(1)).with_middle_streak(1)
}

const FIFO_PREFILL: [u64; 3] = [1 << 40, 2 << 40, 3 << 40];
const SET_PREFILL: [u64; 6] = [1, 5, 9, 13, 17, 21];
const PQ_PREFILL: [u64; 3] = [3, 11, 19];

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let schedules = if smoke { 2 } else { 5 };
    let cfg = ExploreCfg {
        seed: 0x11CE_C4EC,
        lanes: 4,
        ops_per_lane: 64,
        keyspace: 24,
        schedules,
        max_nodes: 10_000_000,
    };
    // Quiescent-mode checking excludes update-overlapped queries, so those
    // variants replay 3x the schedules to keep the checked-op count
    // comparable.
    let qcfg = ExploreCfg {
        schedules: 3 * schedules,
        ..cfg.clone()
    };

    println!(
        "lincheck: {} lanes x {} ops/lane, {} schedules/variant, {} workers{}",
        cfg.lanes,
        cfg.ops_per_lane,
        cfg.schedules,
        pto_sim::par::worker_count(),
        if smoke { " (smoke)" } else { "" },
    );
    println!(
        "  {:<22} {:>9} {:>12} {:>10}   verdict",
        "variant", "schedules", "ops-checked", "q-excluded"
    );

    // The matrix, in print order. Mindicator (quiescence): lock-free and
    // PTO queries are quiescently consistent by design; TLE queries are
    // exact. Then the Michael–Scott queue (FIFO); the sets (Harris list,
    // hash table, skiplist, BST); the priority queues (Mound and the
    // Lotan–Shavit skiplist queue); and the bug-seeded witness demo.
    let jobs: Vec<Job> = vec![
        Job { name: "mindicator/lockfree", kind: Kind::Qui(|| Box::new(LockFreeMindicator::new(8)), QueryMode::Quiescent) },
        Job { name: "mindicator/pto", kind: Kind::Qui(|| Box::new(PtoMindicator::new(8)), QueryMode::Quiescent) },
        Job { name: "mindicator/tle", kind: Kind::Qui(|| Box::new(TleMindicator::new(8)), QueryMode::Exact) },
        Job { name: "qui/tle-generic", kind: Kind::Qui(|| Box::new(pto_check::tle::TleQui::new(8)), QueryMode::Exact) },
        Job { name: "msqueue/lockfree", kind: Kind::Fifo(|| Box::new(MsQueue::new_lockfree()), &FIFO_PREFILL) },
        Job { name: "msqueue/pto", kind: Kind::Fifo(|| Box::new(MsQueue::new_pto()), &FIFO_PREFILL) },
        Job { name: "fifo/tle-generic", kind: Kind::Fifo(|| Box::new(pto_check::tle::TleFifo::new(4096)), &FIFO_PREFILL) },
        Job { name: "list/lockfree", kind: Kind::Set(|| Box::new(HarrisList::new(ListVariant::LockFree)), &SET_PREFILL) },
        Job { name: "list/pto-whole", kind: Kind::Set(|| Box::new(HarrisList::new(ListVariant::PtoWhole)), &SET_PREFILL) },
        Job { name: "list/pto-update", kind: Kind::Set(|| Box::new(HarrisList::new(ListVariant::PtoUpdate)), &SET_PREFILL) },
        Job { name: "hashtable/lockfree", kind: Kind::Set(|| Box::new(FSetHashTable::new(HashVariant::LockFree, 4)), &SET_PREFILL) },
        Job { name: "hashtable/pto", kind: Kind::Set(|| Box::new(FSetHashTable::new(HashVariant::Pto, 4)), &SET_PREFILL) },
        Job { name: "hashtable/pto-inplace", kind: Kind::Set(|| Box::new(FSetHashTable::new(HashVariant::PtoInplace, 4)), &SET_PREFILL) },
        Job { name: "skiplist/lockfree", kind: Kind::Set(|| Box::new(SkipListSet::new_lockfree()), &SET_PREFILL) },
        Job { name: "skiplist/pto", kind: Kind::Set(|| Box::new(SkipListSet::new_pto()), &SET_PREFILL) },
        Job { name: "bst/lockfree", kind: Kind::Set(|| Box::new(Bst::new(BstVariant::LockFree)), &SET_PREFILL) },
        Job { name: "bst/pto1", kind: Kind::Set(|| Box::new(Bst::new(BstVariant::Pto1)), &SET_PREFILL) },
        Job { name: "bst/pto2", kind: Kind::Set(|| Box::new(Bst::new(BstVariant::Pto2)), &SET_PREFILL) },
        Job { name: "bst/pto1pto2", kind: Kind::Set(|| Box::new(Bst::new(BstVariant::Pto1Pto2)), &SET_PREFILL) },
        Job { name: "bst/adaptive-cap2", kind: Kind::Set(|| Box::new(pto_bench::figs::bst_adaptive(2)), &SET_PREFILL) },
        Job { name: "bst/adaptive-middle", kind: Kind::Set(|| Box::new(Bst::with_adaptive(middle_forced(), middle_forced())), &SET_PREFILL) },
        Job { name: "skiplist/adaptive-middle", kind: Kind::Set(|| Box::new(SkipListSet::new_adaptive_with(middle_forced())), &SET_PREFILL) },
        Job { name: "mound/lockfree", kind: Kind::Pq(|| Box::new(Mound::new_lockfree(10)), &PQ_PREFILL) },
        Job { name: "mound/pto", kind: Kind::Pq(|| Box::new(Mound::new_pto(10)), &PQ_PREFILL) },
        Job { name: "skipqueue/lockfree", kind: Kind::Pq(|| Box::new(SkipQueue::new_lockfree()), &PQ_PREFILL) },
        Job { name: "skipqueue/pto", kind: Kind::Pq(|| Box::new(SkipQueue::new_pto()), &PQ_PREFILL) },
        Job { name: "pq/tle-generic", kind: Kind::Pq(|| Box::new(pto_check::tle::TlePq::new(24)), &PQ_PREFILL) },
        Job { name: "broken-fifo", kind: Kind::Broken },
    ];

    let reports = cells::sweep(
        jobs,
        |j| cells::cell_key(j.name, 0),
        |j| {
            let report = match j.kind {
                Kind::Qui(make, mode) => {
                    let c = if mode == QueryMode::Quiescent { &qcfg } else { &cfg };
                    explore_qui(c, &make, mode)
                }
                Kind::Fifo(make, prefill) => explore_fifo(&cfg, &make, prefill),
                Kind::Set(make, prefill) => explore_set(&cfg, &make, prefill),
                Kind::Pq(make, prefill) => explore_pq(&cfg, &make, prefill),
                Kind::Broken => explore_fifo(&cfg, &|| Box::new(BrokenFifo::new()), &[]),
            };
            (j.name, report)
        },
    );

    let mut t = Tally {
        rows: Vec::new(),
        failed: false,
    };
    let mut broken = None;
    for out in reports {
        let (name, report) = out.value;
        if name == "broken-fifo" {
            broken = Some(report);
        } else {
            t.add(name, report);
        }
    }

    // The bug-seeded queue: must be caught, and its witness must shrink.
    println!("\nwitness demo: BrokenFifo (commit-reorder fault)");
    match broken.expect("broken-fifo cell ran").violation {
        Some(v) => {
            println!(
                "  caught under schedule {}; minimized to {} ops:",
                v.schedule,
                v.minimized.ops()
            );
            for (lane, ops) in v.minimized.lanes.iter().enumerate() {
                for o in ops {
                    println!(
                        "    lane {lane}: [{:>6}, {:>6}] {:?} -> {:?}",
                        o.inv, o.res, o.op, o.ret
                    );
                }
            }
        }
        None => {
            println!("  ERROR: the seeded fault was not caught");
            t.failed = true;
        }
    }

    let checked: u64 = t.rows.iter().map(|(_, r)| r.ops_checked).sum();
    println!(
        "\n{} variants, {} ops checked total",
        t.rows.len(),
        checked
    );
    if t.failed {
        std::process::exit(1);
    }
}
