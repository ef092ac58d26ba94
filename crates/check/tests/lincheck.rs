//! End-to-end linearizability checks: the acceptance matrix.
//!
//! Every one of the paper's five structures is explored under its
//! lock-free, PTO, and TLE variants (structure-specific TLE where it
//! exists — the Mindicator — and the generic `pto_check::tle` baselines
//! for the other abstract types), on seeded multi-schedule workloads of
//! at least 4 lanes and at least 1k checked operations per variant. A
//! deliberately broken variant proves the pipeline catches ordering bugs
//! and shrinks them to readable witnesses.
//!
//! History recording and abort injection are scoped per exploration, but
//! each exploration spawns multi-lane sims and they share the process-wide
//! orec table, so everything runs under one serializing lock.

use pto_bst::{Bst, BstVariant};
use pto_check::broken::BrokenFifo;
use pto_check::explore::{
    explore_fifo, explore_pq, explore_qui, explore_set, ExploreCfg, QueryMode,
};
use pto_check::tle::{TleFifo, TlePq, TleQui, TleSet};
use pto_core::{ConcurrentSet, FifoQueue, PriorityQueue, Quiescence};
use pto_hashtable::{FSetHashTable, HashVariant};
use pto_list::{HarrisList, ListVariant};
use pto_mindicator::{LockFreeMindicator, PtoMindicator, TleMindicator};
use pto_mound::Mound;
use pto_msqueue::MsQueue;
use pto_skiplist::{SkipListSet, SkipQueue};

fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// ≥ 4 lanes, 64 ops per lane, 5 schedules → ≥ 1 280 checked ops.
fn cfg() -> ExploreCfg {
    ExploreCfg {
        seed: 0x11CE_C4EC,
        lanes: 4,
        ops_per_lane: 64,
        keyspace: 24,
        schedules: 5,
        max_nodes: 10_000_000,
    }
}

fn assert_clean(name: &str, report: &pto_check::ExploreReport) {
    if let Some(v) = &report.violation {
        panic!(
            "{name}: non-linearizable under schedule {}\n{}",
            v.schedule,
            v.witness.render()
        );
    }
    assert_eq!(report.exhausted, 0, "{name}: checker ran out of budget");
    assert!(
        report.ops_checked >= 1_000,
        "{name}: only {} ops checked",
        report.ops_checked
    );
}

fn check_set(name: &str, make: &dyn Fn() -> Box<dyn ConcurrentSet>) {
    let prefill = [1, 5, 9, 13, 17, 21];
    let report = explore_set(&cfg(), make, &prefill);
    assert_clean(name, &report);
}

fn check_fifo(name: &str, make: &dyn Fn() -> Box<dyn FifoQueue>) {
    let prefill = [1 << 40, 2 << 40, 3 << 40];
    let report = explore_fifo(&cfg(), make, &prefill);
    assert_clean(name, &report);
}

fn check_pq(name: &str, make: &dyn Fn() -> Box<dyn PriorityQueue>) {
    let prefill = [3, 11, 19];
    let report = explore_pq(&cfg(), make, &prefill);
    assert_clean(name, &report);
}

fn check_qui(name: &str, make: &dyn Fn() -> Box<dyn Quiescence>, mode: QueryMode) {
    // Quiescent mode excludes update-overlapped queries from checking
    // (roughly two thirds of a busy 4-lane run), so those variants explore
    // three times the schedules to keep ≥ 1k ops actually checked.
    let cfg = match mode {
        QueryMode::Exact => cfg(),
        QueryMode::Quiescent => ExploreCfg {
            schedules: 15,
            ..cfg()
        },
    };
    let report = explore_qui(&cfg, make, mode);
    assert_clean(name, &report);
}

// -- structure 1: Mindicator (quiescence) --------------------------------

#[test]
fn mindicator_variants_linearize() {
    let _g = serial();
    // The lock-free and PTO Mindicators' query is quiescently consistent
    // by design (an arrive may early-stop below another thread's
    // still-climbing fold), so only update ops and quiescent queries are
    // held to the spec; the TLE variants' query is a single atomic root
    // read and is checked exactly.
    check_qui(
        "mindicator/lockfree",
        &|| Box::new(LockFreeMindicator::new(8)),
        QueryMode::Quiescent,
    );
    check_qui(
        "mindicator/pto",
        &|| Box::new(PtoMindicator::new(8)),
        QueryMode::Quiescent,
    );
    check_qui(
        "mindicator/tle",
        &|| Box::new(TleMindicator::new(8)),
        QueryMode::Exact,
    );
    check_qui("qui/tle-generic", &|| Box::new(TleQui::new(8)), QueryMode::Exact);
}

// -- structure 2: Michael–Scott queue (FIFO) -----------------------------

#[test]
fn msqueue_variants_linearize() {
    let _g = serial();
    check_fifo("msqueue/lockfree", &|| Box::new(MsQueue::new_lockfree()));
    check_fifo("msqueue/pto", &|| Box::new(MsQueue::new_pto()));
    check_fifo("fifo/tle-generic", &|| Box::new(TleFifo::new(4096)));
}

// -- structure 3: list + hash table (set) --------------------------------

#[test]
fn list_and_hashtable_variants_linearize() {
    let _g = serial();
    check_set("list/lockfree", &|| {
        Box::new(HarrisList::new(ListVariant::LockFree))
    });
    check_set("list/pto-whole", &|| {
        Box::new(HarrisList::new(ListVariant::PtoWhole))
    });
    check_set("list/pto-update", &|| {
        Box::new(HarrisList::new(ListVariant::PtoUpdate))
    });
    check_set("hashtable/lockfree", &|| {
        Box::new(FSetHashTable::new(HashVariant::LockFree, 4))
    });
    check_set("hashtable/pto", &|| {
        Box::new(FSetHashTable::new(HashVariant::Pto, 4))
    });
    check_set("hashtable/pto-inplace", &|| {
        Box::new(FSetHashTable::new(HashVariant::PtoInplace, 4))
    });
    check_set("set/tle-generic", &|| Box::new(TleSet::new(24)));
}

// -- structure 4: skiplist (set + pq) and BST (set) ----------------------

#[test]
fn skiplist_and_bst_variants_linearize() {
    let _g = serial();
    check_set("skiplist/lockfree", &|| {
        Box::new(SkipListSet::new_lockfree())
    });
    check_set("skiplist/pto", &|| Box::new(SkipListSet::new_pto()));
    check_pq("skipqueue/lockfree", &|| Box::new(SkipQueue::new_lockfree()));
    check_pq("skipqueue/pto", &|| Box::new(SkipQueue::new_pto()));
    check_set("bst/lockfree", &|| Box::new(Bst::new(BstVariant::LockFree)));
    check_set("bst/pto1", &|| Box::new(Bst::new(BstVariant::Pto1)));
    check_set("bst/pto2", &|| Box::new(Bst::new(BstVariant::Pto2)));
    check_set("bst/pto1pto2", &|| Box::new(Bst::new(BstVariant::Pto1Pto2)));
    // The adaptive tree at write cap 2: its deletes are capacity-doomed,
    // so they run the PTO2 preamble and the lock-free delete.
    check_set("bst/adaptive-cap2", &|| Box::new(bst_adaptive_cap2()));
}

/// The adaptive PTO1∘PTO2 tree at write cap 2 (the `bst-capacity`
/// benchmark's tree, `pto_bench::figs::bst_adaptive(2)`).
fn bst_adaptive_cap2() -> Bst {
    use pto_core::{AdaptivePolicy, PtoPolicy};
    Bst::with_adaptive(
        AdaptivePolicy::new(PtoPolicy::with_attempts(2).with_write_cap(2)),
        AdaptivePolicy::new(PtoPolicy::with_attempts(16).with_write_cap(2)),
    )
}

// -- middle path: adaptive variants forced onto the single-orec path -----

/// attempts=1 + middle_streak=1: every op whose single HTM attempt hits a
/// same-granule conflict re-runs under the software-held orec, so the
/// explorer's schedules (half of which inject deterministic aborts) walk
/// the HTM -> middle -> fallback demotion chain constantly.
fn middle_forced() -> pto_core::AdaptivePolicy {
    pto_core::AdaptivePolicy::new(pto_core::PtoPolicy::with_attempts(1)).with_middle_streak(1)
}

#[test]
fn adaptive_middle_path_variants_linearize() {
    let _g = serial();
    check_set("bst/adaptive-middle", &|| {
        Box::new(Bst::with_adaptive(middle_forced(), middle_forced()))
    });
    check_set("skiplist/adaptive-middle", &|| {
        Box::new(SkipListSet::new_adaptive_with(middle_forced()))
    });
}

#[test]
fn abort_injection_walks_the_demotion_chain() {
    let _g = serial();
    // Dense deterministic injection (every 2nd would-commit aborts
    // Spurious) dooms HTM attempts and middle re-runs alike. Over a hot
    // 8-key range the middle-forced BST must visibly take all three
    // paths: fast HTM commits, owned-orec middle commits, and full
    // fallbacks when even the middle run is injected away.
    let _scope = pto_htm::injection_scope(2, 1);
    let t = Bst::with_adaptive(middle_forced(), middle_forced());
    pto_sim::clock::reset();
    pto_sim::Sim::new(4).run(|lane| {
        let mut rng = pto_sim::rng::XorShift64::new(0xDE40 ^ ((lane as u64 + 1) * 0x9E37_79B9));
        for _ in 0..300 {
            let k = rng.below(8);
            if rng.chance(1, 2) {
                t.insert(k);
            } else {
                t.remove(k);
            }
        }
    });
    let fast = t.stats1.fast.get() + t.stats2.fast.get();
    let middle = t.stats1.middle.get() + t.stats2.middle.get();
    let fallback = t.stats1.fallback.get() + t.stats2.fallback.get();
    let spurious = t.stats1.causes.spurious.get() + t.stats2.causes.spurious.get();
    assert!(spurious > 0, "injection never fired");
    assert!(fast > 0, "no op survived on the fast path (fast {fast})");
    assert!(middle > 0, "demotion never reached the middle path");
    assert!(fallback > 0, "demotion never reached the fallback");
    // The structure is still a set: contains agrees with itself across a
    // full quiescent sweep (no torn nodes / stuck locks after the churn).
    for k in 0..8 {
        let a = t.contains(k);
        let b = t.contains(k);
        assert_eq!(a, b, "unstable quiescent contains({k})");
    }
}

// -- structure 5: Mound (pq) ---------------------------------------------

#[test]
fn mound_variants_linearize() {
    let _g = serial();
    check_pq("mound/lockfree", &|| Box::new(Mound::new_lockfree(10)));
    check_pq("mound/pto", &|| Box::new(Mound::new_pto(10)));
    check_pq("pq/tle-generic", &|| Box::new(TlePq::new(24)));
}

// -- the bug is caught ----------------------------------------------------

#[test]
fn broken_fifo_yields_a_minimized_witness() {
    let _g = serial();
    let report = explore_fifo(&cfg(), &|| Box::new(BrokenFifo::new()), &[]);
    let v = report.violation.expect("commit-reorder fault must be caught");
    // The minimized witness is tiny and honest: a handful of ops, every
    // dequeued value still sourced by a retained enqueue.
    assert!(
        (2..=4).contains(&v.minimized.ops()),
        "witness not minimal:\n{}",
        v.witness.render()
    );
    for o in v.minimized.lanes.iter().flatten() {
        if let pto_check::Ret::Opt(Some(val)) = o.ret {
            assert!(
                v.minimized
                    .lanes
                    .iter()
                    .flatten()
                    .any(|e| e.op == pto_check::Op::Enqueue(val)),
                "witness dequeues {val} without its enqueue"
            );
        }
    }
    // And the renderer produces something a human can read.
    let text = v.witness.render();
    assert!(text.contains("non-linearizable"));
}
