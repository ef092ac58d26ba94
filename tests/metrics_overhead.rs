//! Zero-overhead regression for the series and attribution folds: an
//! emit with no session live is a single relaxed load, and an armed
//! observation session ([`MetricsScope`], [`ProfileSession`]) only *reads*
//! the virtual clock — so instrumented and uninstrumented runs of a
//! deterministic workload must produce *bit-identical* virtual-time
//! results.
//!
//! Same discipline as `trace_overhead.rs`: the workload avoids chaos
//! injection, transient aborts, and cross-lane conflicts, so the makespan
//! is a pure function of the per-lane op sequences.

use pto_core::policy::{pto, PtoPolicy, PtoStats};
use pto_core::profile::ProfileSession;
use pto_htm::TxWord;
use pto_sim::metrics::{MetricsScope, Series};
use pto_sim::obs::{self, Event};
use pto_sim::{charge, CostKind, Sim};
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

/// Deterministic 4-lane workload covering the metrics emit sites: lane 0
/// runs private-word transactions (Commits) plus explicit-abort→fallback
/// ops (AbortExplicit, FallbackDepth, and the profiler's Fallback phase);
/// lanes 1–3 run pool alloc/retire churn under an epoch pin (PoolMagazine,
/// LimboDepth, EpochLag). Returns the full virtual-time outcome tuple.
fn workload() -> (u64, Vec<u64>, u64, u64) {
    pto_sim::clock::reset();
    let word = TxWord::new(0);
    let stats = PtoStats::new();
    let out = Sim::new(4).run(|lane| {
        if lane == 0 {
            let policy = PtoPolicy::with_attempts(3);
            for _ in 0..200 {
                pto(
                    &policy,
                    &stats,
                    |tx| {
                        let v = tx.read(&word)?;
                        tx.write(&word, v + 1)?;
                        Ok(())
                    },
                    || unreachable!("private word: the prefix cannot abort"),
                );
            }
            for _ in 0..50 {
                pto(&policy, &stats, |tx| Err::<(), _>(tx.abort(1)), || ());
            }
        } else {
            let pool: pto_mem::Pool<TxWord> = pto_mem::Pool::new();
            for i in 0..200u64 {
                let _g = pto_mem::epoch::pin();
                let idx = pool.alloc();
                if i % 8 == 0 {
                    pool.retire(idx);
                } else {
                    pool.free_now(idx);
                }
                pto_sim::charge_n(CostKind::Work, 3);
            }
        }
    });
    (
        out.makespan,
        out.per_thread.clone(),
        stats.fast.get(),
        stats.fallback.get(),
    )
}

#[test]
fn armed_metrics_session_changes_no_virtual_time_outcome() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let before = workload();

    let scope = MetricsScope::new();
    let armed = workload();
    let m = scope.snapshot();
    drop(scope);
    assert!(m.total(Series::Commits) > 0, "armed run folded no commits");
    assert!(
        m.total(Series::AbortExplicit) > 0,
        "armed run folded no aborts"
    );

    let after = workload();

    // Armed folding reads the clock but never charges it; disarmed emits
    // are dead relaxed loads. The whole outcome tuple — makespan, per-lane
    // finish times, commit and fallback counts — is identical in all three
    // configurations.
    assert_eq!(before, armed, "arming metrics changed a virtual-time outcome");
    assert_eq!(before, after, "a past metrics session perturbs later runs");
}

#[test]
fn armed_profiler_changes_no_virtual_time_outcome() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let before = workload();

    let session = ProfileSession::arm();
    let armed = workload();
    let profile = session.drain();
    assert!(
        profile.total_cycles() > 0,
        "armed profiler attributed nothing"
    );

    let after = workload();

    assert_eq!(before, armed, "arming the profiler changed a virtual-time outcome");
    assert_eq!(before, after, "a past profiler session perturbs later runs");
}

#[test]
fn disarmed_metrics_emit_charges_nothing() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // A charge loop with no emits — the "never compiled in" baseline...
    pto_sim::clock::reset();
    for _ in 0..1_000 {
        charge(CostKind::Work);
    }
    let plain = pto_sim::now();
    // ...must land on the same clock as the same loop with disarmed
    // counter emits per iteration.
    pto_sim::clock::reset();
    for _ in 0..1_000 {
        charge(CostKind::Work);
        obs::emit(Event::TxCommit { rv: 0, wv: 0 });
        obs::emit(Event::GateWaitBegin { skew: 1 });
    }
    assert_eq!(pto_sim::now(), plain);
}
