//! Pinned observer folds: the exact series totals, per-(call site, phase)
//! attribution and per-kind event counts of one deterministic 1-lane
//! workload that runs every instrumented executor — `pto`, `pto2`,
//! `pto_adaptive` (with a capacity-doomed site, so it flips regime),
//! `Tle::execute` and `FlatCombining::execute` — plus pool/epoch churn.
//!
//! One lane means no cross-lane conflicts and no gate waits; chaos and
//! backoff draw from per-lane seeded streams, so every number below is a
//! pure function of the op sequence. A change to how observation is
//! collected must leave all of them unchanged.
//!
//! The sessions nest the way the benchmark arms them: a `MetricsScope`,
//! then a `ProfileSession` inside it, drained first. Both must see every
//! event.

use pto_core::fc::FlatCombining;
use pto_core::policy::{pto, pto2, pto_adaptive, AdaptivePolicy, PtoPolicy, PtoStats};
use pto_core::profile::{ProfileSession, N_PHASES};
use pto_core::tle::Tle;
use pto_htm::{TxOpts, TxWord};
use pto_sim::metrics::MetricsScope;
use pto_sim::obs::{Capture, Event};
use pto_sim::Sim;

fn workload() -> u64 {
    pto_sim::clock::reset();
    let out = Sim::new(1).run(|_| {
        let w = TxWord::new(0);
        let stats = PtoStats::new();
        // pto: fast-path commits, explicit aborts straight to the
        // fallback, and chaos aborts with charged backoff between retries.
        let plain = PtoPolicy::with_attempts(3);
        let chaotic = PtoPolicy::with_attempts(4)
            .with_chaos(60)
            .with_backoff(4, 64);
        for i in 0..40u64 {
            pto(
                &plain,
                &stats,
                |tx| {
                    let v = tx.read(&w)?;
                    tx.write(&w, v + i)?;
                    Ok(())
                },
                || (),
            );
            if i % 4 == 0 {
                pto(
                    &plain,
                    &stats,
                    |tx| Err::<(), _>(tx.abort(1)),
                    || pto_sim::charge_n(pto_sim::CostKind::Work, 3),
                );
            }
            pto(
                &chaotic,
                &stats,
                |tx| {
                    let v = tx.read(&w)?;
                    tx.write(&w, v + 1)?;
                    Ok(())
                },
                || {
                    w.store(
                        w.load(std::sync::atomic::Ordering::Acquire) + 1,
                        std::sync::atomic::Ordering::Release,
                    )
                },
            );
        }
        // pto2: the outer prefix overflows its write cap, the inner one
        // commits half the time and explicitly aborts otherwise.
        let words: Vec<TxWord> = (0..6).map(|_| TxWord::new(0)).collect();
        let outer = PtoPolicy::with_attempts(2).with_write_cap(2);
        let inner = PtoPolicy::with_attempts(3);
        let inner_stats = PtoStats::new();
        for i in 0..20u64 {
            pto2(
                &outer,
                &inner,
                &stats,
                &inner_stats,
                |tx| {
                    for x in &words {
                        tx.write(x, i)?;
                    }
                    Ok(())
                },
                |tx| {
                    if i % 2 == 0 {
                        return Err(tx.abort(2));
                    }
                    tx.write(&words[0], i)?;
                    Ok(())
                },
                || pto_sim::charge_n(pto_sim::CostKind::Work, 2),
            );
        }
        // pto_adaptive: a capacity-doomed site flips Healthy -> Capacity.
        let cap_ap = AdaptivePolicy::new(PtoPolicy::with_attempts(2).with_write_cap(2))
            .with_middle_streak(u32::MAX);
        for _ in 0..48 {
            pto_adaptive(
                &cap_ap,
                &stats,
                |tx| {
                    for x in &words {
                        let v = tx.read(x)?;
                        tx.write(x, v + 1)?;
                    }
                    Ok(())
                },
                || pto_sim::charge_n(pto_sim::CostKind::Work, 4),
            );
        }
        // Tle: elided sections, then sections doomed by chaos to the lock.
        let tle = Tle::new(2);
        let doomed = Tle::with_opts(
            2,
            TxOpts {
                chaos_abort_pct: 100,
                ..TxOpts::default()
            },
        );
        for _ in 0..16 {
            tle.execute(|ctx| {
                let v = ctx.read(&w)?;
                ctx.write(&w, v + 1)?;
                Ok(())
            });
            doomed.execute(|ctx| {
                let v = ctx.read(&w)?;
                ctx.write(&w, v + 1)?;
                Ok(())
            });
        }
        // FlatCombining: one lane is always its own combiner.
        let fc = FlatCombining::new(0u64);
        for i in 0..24u64 {
            fc.execute(i, |s, r| {
                *s += r;
                *s
            });
        }
        // Pool/epoch churn: magazine, limbo, epoch pin/advance.
        let pool: pto_mem::Pool<TxWord> = pto_mem::Pool::new();
        for i in 0..64u64 {
            let _g = pto_mem::epoch::pin();
            let idx = pool.alloc();
            if i % 4 == 0 {
                pool.retire(idx);
            } else {
                pool.free_now(idx);
            }
        }
    });
    out.makespan
}

/// Counts of the event kinds every observer version records.
fn kind_counts(trace: &Capture) -> [u64; 16] {
    let mut n = [0u64; 16];
    for t in &trace.tracks {
        for e in &t.events {
            let k = match e.event {
                Event::TxBegin => 0,
                Event::TxCommit { .. } => 1,
                Event::TxAbort { .. } => 2,
                Event::FallbackEnter => 3,
                Event::FallbackExit => 4,
                Event::BackoffBegin { .. } => 5,
                Event::BackoffEnd => 6,
                Event::EpochPin => 7,
                Event::EpochUnpin => 8,
                Event::EpochAdvance { .. } => 9,
                Event::HazardScanBegin => 10,
                Event::HazardScanEnd { .. } => 11,
                Event::GateWaitBegin { .. } => 12,
                Event::GateWaitEnd => 13,
                Event::CombineBegin => 14,
                Event::CombineEnd { .. } => 15,
                _ => continue,
            };
            n[k] += 1;
        }
    }
    n
}

#[test]
fn observer_folds_of_a_deterministic_workload_are_pinned() {
    let m = MetricsScope::new();
    let p = ProfileSession::with_capacity(1 << 20);
    let makespan = workload();
    let prof = p.drain();
    let met = m.snapshot();
    let trace = &prof;
    assert_eq!(trace.dropped(), 0);
    assert_eq!(prof.series, met, "the nested sessions saw different events");

    assert_eq!(makespan, 50_924);
    // TxBegin, TxCommit, TxAbort, FallbackEnter/Exit, BackoffBegin/End,
    // EpochPin/Unpin, EpochAdvance, HazardScanBegin/End, GateWaitBegin/End,
    // CombineBegin/End.
    assert_eq!(
        kind_counts(trace),
        [226, 102, 124, 108, 108, 41, 41, 64, 64, 17, 0, 0, 0, 0, 24, 24]
    );
    // Per series, in `Series` index order: emissions, emitted sum, max.
    assert_eq!(
        met.counts,
        [102, 0, 27, 20, 0, 77, 216, 0, 0, 0, 17, 112, 33, 24, 48, 0, 1, 0, 0]
    );
    assert_eq!(
        met.sums,
        [102, 0, 27, 20, 0, 77, 108, 0, 0, 0, 0, 48, 47, 24, 13, 0, 1, 0, 0]
    );
    assert_eq!(
        met.maxes,
        [1, 0, 1, 1, 0, 1, 1, 0, 0, 0, 0, 1, 2, 1, 2, 0, 1, 0, 0]
    );
    // Per call site in source order: (cycles, counts) per phase
    // (attempt, backoff, fallback, combine).
    let mut sites: Vec<_> = prof.sites.iter().collect();
    sites.sort_by_key(|s| s.line);
    let sites: Vec<_> = sites.iter().map(|s| (s.cycles, s.counts)).collect();
    let pinned: [([u64; N_PHASES], [u64; N_PHASES]); 8] = [
        ([1840, 0, 0, 0], [40, 0, 0, 0]),         // pto, commits
        ([260, 0, 60, 0], [10, 0, 10, 0]),        // pto, explicit abort
        ([3366, 1764, 48, 0], [81, 41, 4, 0]),    // pto, chaos + backoff
        ([1400, 0, 720, 0], [40, 0, 30, 0]),      // pto2 (inclusive)
        ([434, 0, 384, 0], [7, 0, 48, 0]),        // pto_adaptive
        ([864, 0, 0, 0], [16, 0, 0, 0]),          // Tle, elided
        ([1472, 0, 768, 0], [32, 0, 16, 0]),      // Tle, locked
        ([0, 0, 0, 25440], [0, 0, 0, 24]),        // FlatCombining
    ];
    assert_eq!(sites, pinned);
}
