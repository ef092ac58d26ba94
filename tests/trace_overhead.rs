//! Zero-overhead regression: an armed observation session never charges
//! the virtual clock, and an emit with no session live is a single relaxed
//! load — so traced, disarmed, and never-traced runs of a deterministic
//! workload must produce *bit-identical* virtual-time results.
//!
//! The workload avoids every nondeterminism source on purpose: no chaos
//! injection and no transient aborts (both draw from order-seeded RNGs),
//! and no cross-lane conflicts. Lane clocks advance only by their own
//! charges, so the makespan is a pure function of the per-lane op
//! sequences.

use pto_core::policy::{pto, PtoPolicy, PtoStats};
use pto_htm::TxWord;
use pto_sim::obs::{self, Event, Session};
use pto_sim::{charge, CostKind, Sim};
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

/// Deterministic 4-lane workload: lane 0 runs private-word RMW
/// transactions plus explicit-abort→fallback ops (covering the tx,
/// abort, and fallback emit sites); lanes 1–3 run epoch pin/unpin loops
/// with a fixed work charge. Returns (makespan, ops/ms).
fn workload() -> (u64, f64) {
    pto_sim::clock::reset();
    let word = TxWord::new(0);
    let out = Sim::new(4).run(|lane| {
        if lane == 0 {
            let policy = PtoPolicy::with_attempts(3);
            let stats = PtoStats::new();
            for _ in 0..300 {
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
            for _ in 0..100 {
                // Explicit abort is permanent: no retry, no backoff RNG —
                // straight to the fallback, deterministically.
                pto(&policy, &stats, |tx| Err::<(), _>(tx.abort(1)), || ());
            }
        } else {
            for _ in 0..400 {
                let _g = pto_mem::epoch::pin();
                pto_sim::charge_n(CostKind::Work, 5);
            }
        }
    });
    (out.makespan, pto_sim::ops_per_ms(400, out.makespan))
}

#[test]
fn disarmed_tracing_reproduces_untraced_results_exactly() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (m_before, t_before) = workload();

    let session = Session::arm();
    let (m_armed, t_armed) = workload();
    let captured = session.drain();
    assert!(captured.events() > 0, "armed run captured nothing");

    let (m_after, t_after) = workload();

    // Armed tracing emits events but never charges the clock; disarmed
    // tracing is a dead relaxed load. Virtual time is identical in all
    // three configurations, down to the f64 bit pattern.
    assert_eq!(m_before, m_armed, "arming tracing changed the makespan");
    assert_eq!(m_before, m_after, "a past session perturbs later runs");
    assert_eq!(t_before.to_bits(), t_armed.to_bits());
    assert_eq!(t_before.to_bits(), t_after.to_bits());
}

#[test]
fn disarmed_emit_sites_charge_nothing() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // A charge loop with no emit calls at all — the "never compiled in"
    // baseline...
    pto_sim::clock::reset();
    for _ in 0..1_000 {
        charge(CostKind::Work);
    }
    let plain = pto_sim::now();
    // ...must land on the same clock as the same loop with a disarmed
    // emit per iteration.
    pto_sim::clock::reset();
    for _ in 0..1_000 {
        charge(CostKind::Work);
        obs::emit(Event::EpochPin);
    }
    assert_eq!(pto_sim::now(), plain);
}
