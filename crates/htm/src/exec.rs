//! `TxBegin`/`TxEnd` execution: one best-effort attempt per call.
//!
//! [`transaction`] is the analogue of the paper's `TxBegin ... TxEnd`
//! bracket: the closure body is the transaction; returning `Ok` commits;
//! any `Err` (conflict, capacity, explicit `tx.abort(code)`) rolls back and
//! reports the cause, exactly like `TxBegin` "returning more than once"
//! with a status word. Retrying is the caller's decision — the PTO
//! executor in `pto-core` implements the retry/fallback policy.

use crate::stats;
use crate::txn::{AbortCause, FenceMode, Txn};
use crate::TxResult;
use pto_sim::ctx;
use pto_sim::obs::{self, Event};
use pto_sim::{charge, CostKind};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-attempt configuration.
#[derive(Clone, Copy, Debug)]
pub struct TxOpts {
    /// Max distinct orecs readable before a `Capacity` abort.
    pub read_cap: usize,
    /// Max buffered writes before a `Capacity` abort (TSX's write set is
    /// L1-bound; 512 word-writes is the same order of magnitude).
    pub write_cap: usize,
    /// Fence elision toggle for the Figure 5(b)/(c) ablation.
    pub fence_mode: FenceMode,
    /// Failure injection: percentage (0–100) of attempts spontaneously
    /// aborted at commit time with [`AbortCause::Spurious`]. Real
    /// best-effort HTM fails for reasons invisible to the program
    /// (interrupts, cache geometry); tests use this to drive every
    /// fallback path.
    pub chaos_abort_pct: u8,
}

impl Default for TxOpts {
    fn default() -> Self {
        TxOpts {
            read_cap: 8192,
            write_cap: 512,
            fence_mode: FenceMode::Elide,
            chaos_abort_pct: 0,
        }
    }
}

thread_local! {
    static IN_TXN: Cell<bool> = const { Cell::new(false) };
    static CHAOS_SLOT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Identity of the chaos-injection draw site (hashed, never used raw).
const CHAOS_SITE: u64 = 0xC0A0_5EED_0000_0001;

/// Cheap per-lane draw for failure injection. Streams are keyed by
/// `(site, cell stream key, lane)` via [`pto_sim::rng::lane_draw`], so at
/// 64–512 lanes every lane flips an independent, reproducible coin — the
/// old first-use-order Weyl seeding made lane streams depend on OS thread
/// startup order and correlated at scale.
fn chaos_strikes(pct: u8) -> bool {
    CHAOS_SLOT.with(|slot| {
        let x = pto_sim::rng::lane_draw(CHAOS_SITE, slot);
        (x >> 57) < (pct as u64 * 128 / 100)
    })
}

// ---------------------------------------------------------------------------
// Deterministic abort injection (schedule-exploration hook)
//
// Where `chaos_abort_pct` models *random* best-effort failures, the
// `pto-check` explorer needs *targeted* ones: "abort the k-th, k+p-th, ...
// would-commit attempt in this run" steers executions into the fallback and
// mixed prefix/fallback interleavings that random chaos only rarely hits.
// The hook is process-global (armed around one `Sim::run`) and counts
// attempts whose body completed — the same point `chaos_abort_pct` strikes.

/// Injection period; 0 = disarmed (the hot path is one relaxed load).
static INJECT_PERIOD: AtomicU64 = AtomicU64::new(0);
static INJECT_PHASE: AtomicU64 = AtomicU64::new(0);
static INJECT_ATTEMPTS: AtomicU64 = AtomicU64::new(0);

/// Arm deterministic abort injection: while armed, the attempt counter is
/// incremented by every transaction whose body completes on a **simulator
/// lane** (threads not attached to a gate are never struck, so arming
/// cannot perturb unrelated work), and attempts where
/// `counter % period == phase` abort with [`AbortCause::Spurious`] instead
/// of committing.
///
/// Panics if `period` is zero. Arm before `Sim::run`, disarm after; the
/// counter resets on each arm.
pub fn arm_abort_injection(period: u64, phase: u64) {
    assert!(period > 0, "abort-injection period must be positive");
    INJECT_PHASE.store(phase % period, Ordering::SeqCst);
    INJECT_ATTEMPTS.store(0, Ordering::SeqCst);
    INJECT_PERIOD.store(period, Ordering::SeqCst);
}

/// Disarm abort injection (idempotent). Transactions in flight observe the
/// disarm at their next commit point.
pub fn disarm_abort_injection() {
    INJECT_PERIOD.store(0, Ordering::SeqCst);
}

/// A scoped injection schedule (context slot [`ctx::SLOT_HTM_INJECT`]).
struct InjectState {
    period: u64,
    phase: u64,
    attempts: AtomicU64,
}

/// RAII deterministic abort injection scoped to one cell.
///
/// The scheduling contract matches [`arm_abort_injection`] — would-commit
/// attempt `k` on a simulator lane aborts iff `k % period == phase` — but
/// the schedule and its attempt counter live in the installing thread's
/// context (inherited by its `Sim` lanes and `par` jobs), so concurrent
/// exploration cells each count their *own* attempts. A scoped schedule
/// takes precedence over the process-global one.
pub struct InjectionScope {
    _guard: ctx::ScopeGuard,
}

/// Install a scoped injection schedule until the returned guard drops.
/// Panics if `period` is zero.
pub fn injection_scope(period: u64, phase: u64) -> InjectionScope {
    assert!(period > 0, "abort-injection period must be positive");
    let state = Arc::new(InjectState {
        period,
        phase: phase % period,
        attempts: AtomicU64::new(0),
    });
    InjectionScope {
        _guard: ctx::ScopeGuard::install(
            ctx::SLOT_HTM_INJECT,
            state as Arc<dyn std::any::Any + Send + Sync>,
        ),
    }
}

#[inline]
fn injection_strikes() -> bool {
    // Hot path: one relaxed load and one thread-local flag check.
    if INJECT_PERIOD.load(Ordering::Relaxed) == 0 && !ctx::is_set(ctx::SLOT_HTM_INJECT) {
        return false;
    }
    injection_strikes_armed()
}

#[cold]
fn injection_strikes_armed() -> bool {
    if pto_sim::clock::current_lane().is_none() {
        return false;
    }
    // A scoped schedule wins over the process-global hook.
    let scoped = ctx::with::<InjectState, _>(ctx::SLOT_HTM_INJECT, |st| {
        st.map(|st| st.attempts.fetch_add(1, Ordering::Relaxed) % st.period == st.phase)
    });
    if let Some(hit) = scoped {
        return hit;
    }
    let period = INJECT_PERIOD.load(Ordering::Relaxed);
    if period == 0 {
        return false;
    }
    let phase = INJECT_PHASE.load(Ordering::Relaxed);
    INJECT_ATTEMPTS.fetch_add(1, Ordering::Relaxed) % period == phase
}

struct NestGuard;

impl Drop for NestGuard {
    fn drop(&mut self) {
        IN_TXN.with(|f| f.set(false));
    }
}

/// Run one best-effort transaction attempt with default options.
///
/// ```
/// use pto_htm::{transaction, TxWord};
///
/// let a = TxWord::new(1);
/// let b = TxWord::new(2);
/// // Swap two words atomically; no observer can see a half-swap.
/// let sum = transaction(|tx| {
///     let x = tx.read(&a)?;
///     let y = tx.read(&b)?;
///     tx.write(&a, y)?;
///     tx.write(&b, x)?;
///     Ok(x + y)
/// })
/// .expect("uncontended transactions commit");
/// assert_eq!(sum, 3);
/// assert_eq!((a.peek(), b.peek()), (2, 1));
/// ```
pub fn transaction<'e, T>(
    f: impl FnMut(&mut Txn<'e>) -> TxResult<T>,
) -> Result<T, AbortCause> {
    transaction_with(TxOpts::default(), f)
}

/// Run one best-effort transaction attempt.
///
/// Returns `Ok(value)` if the body ran to completion and the commit
/// published its writes atomically; otherwise returns the abort cause and
/// guarantees no effect on shared memory.
pub fn transaction_with<'e, T>(
    opts: TxOpts,
    f: impl FnMut(&mut Txn<'e>) -> TxResult<T>,
) -> Result<T, AbortCause> {
    transaction_impl(opts, None, f).0
}

/// Run one attempt under a software-held orec — the PTO **middle path**.
///
/// The caller holds `guard` ([`crate::try_acquire_orec`]), typically on
/// the granule its previous attempts kept conflicting on
/// ([`crate::last_conflict_orec`]). The attempt runs the normal TL2
/// protocol except on the owned granule, where the held lock is expected:
/// reads validate the pre-acquire version, and commit treats the orec as
/// pre-acquired. Holding the lock excludes every competing writer —
/// transactional committers fail their try-lock and readers abort with
/// `Conflict`, while non-transactional updates spin in the word layer —
/// so conflicts on that granule cannot abort this attempt.
///
/// On a writing commit that touched the owned granule, the commit itself
/// releases the orec at the write version and the guard is marked
/// consumed; in every other outcome (abort, read-only commit, granule
/// untouched) the guard keeps holding the orec and restores the
/// pre-acquire value when dropped.
pub fn transaction_owned<'e, T>(
    opts: TxOpts,
    guard: &mut crate::orec::OrecGuard,
    f: impl FnMut(&mut Txn<'e>) -> TxResult<T>,
) -> Result<T, AbortCause> {
    let (res, published) = transaction_impl(opts, Some((guard.oidx(), guard.pre())), f);
    if published {
        guard.mark_released();
    }
    res
}

/// Shared attempt body. `owned` is `None` for the plain fast path, which
/// takes no middle-path step, so static-policy golden makespans do not
/// depend on the middle path.
///
/// Every attempt is one `TxBegin` event, stamped before any charge, and
/// one `TxCommit`/`TxAbort` after the last: the span is the attempt's
/// whole virtual cost.
fn transaction_impl<'e, T>(
    opts: TxOpts,
    owned: Option<(usize, u64)>,
    mut f: impl FnMut(&mut Txn<'e>) -> TxResult<T>,
) -> (Result<T, AbortCause>, bool) {
    obs::emit(Event::TxBegin);
    // This HTM does not nest (real RTM nests by flattening; none of the
    // paper's prefixes need it). An inner TxBegin aborts like an
    // unsupported instruction would.
    let already = IN_TXN.with(|fl| fl.replace(true));
    if already {
        return (Err(aborted(AbortCause::Nested)), false);
    }
    let _guard = NestGuard;

    charge(CostKind::TxBegin);
    stats::record_begin();
    let rv = crate::orec::gvc_now();
    let mut tx = Txn::new(rv, opts.fence_mode, opts.read_cap, opts.write_cap, owned);
    let res = match f(&mut tx) {
        Ok(_) if injection_strikes() => {
            charge(CostKind::TxAbort);
            Err(aborted(AbortCause::Spurious))
        }
        Ok(_) if opts.chaos_abort_pct > 0 && chaos_strikes(opts.chaos_abort_pct) => {
            charge(CostKind::TxAbort);
            Err(aborted(AbortCause::Spurious))
        }
        Ok(val) => match tx.commit() {
            Ok(wv) => {
                stats::record_commit();
                obs::emit(Event::TxCommit { rv, wv });
                Ok(val)
            }
            Err(cause) => {
                charge(CostKind::TxAbort);
                Err(aborted(cause))
            }
        },
        Err(abort) => {
            charge(CostKind::TxAbort);
            Err(aborted(abort.cause))
        }
    };
    let published = tx.owned_published();
    (res, published)
}

/// Count and report an abort; returns its cause.
fn aborted(cause: AbortCause) -> AbortCause {
    stats::record_abort(cause);
    obs::emit(Event::TxAbort {
        cause: cause.trace_code(),
    });
    cause
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TxWord;

    #[test]
    fn nested_transactions_abort_with_nested() {
        let w = TxWord::new(0);
        let r = transaction(|tx| {
            tx.read(&w)?;
            let inner: Result<(), AbortCause> = transaction(|tx2| {
                tx2.read(&w)?;
                Ok(())
            });
            assert_eq!(inner.unwrap_err(), AbortCause::Nested);
            Ok(())
        });
        assert!(r.is_ok());
    }

    #[test]
    fn nesting_flag_clears_after_abort() {
        let w = TxWord::new(0);
        let r: Result<(), _> = transaction(|tx| Err(tx.abort(1)));
        assert!(r.is_err());
        // A fresh transaction must not be treated as nested.
        assert!(transaction(|tx| tx.read(&w)).is_ok());
    }

    #[test]
    fn nesting_flag_clears_after_panic() {
        let w = TxWord::new(0);
        let _ = std::panic::catch_unwind(|| {
            let _ = transaction::<()>(|_| panic!("boom"));
        });
        assert!(transaction(|tx| tx.read(&w)).is_ok());
    }

    #[test]
    fn stats_track_commits_and_aborts() {
        let w = TxWord::new(0);
        let before = crate::snapshot();
        let _ = transaction(|tx| tx.read(&w));
        let _: Result<(), _> = transaction(|tx| Err(tx.abort(9)));
        let after = crate::snapshot();
        assert_eq!(after.commits - before.commits, 1);
        assert_eq!(after.aborts_explicit - before.aborts_explicit, 1);
        assert!(after.begins - before.begins >= 2);
    }

    #[test]
    fn chaos_sequences_differ_per_lane_and_reproduce() {
        // Regression (server-scale RNG audit): chaos streams used to be
        // seeded by OS-thread first-use order, so lane k's stream changed
        // run to run and could collide across lanes. Streams are now keyed
        // by (site, stream key, lane): within one run every lane draws a
        // distinct 64-flip sequence, and a rerun of the same cell draws
        // the *same* per-lane sequences.
        let run = || {
            let seqs = std::sync::Mutex::new(vec![Vec::new(); 8]);
            pto_sim::Sim::new(8).run(|lane| {
                let v: Vec<bool> = (0..64).map(|_| chaos_strikes(50)).collect();
                seqs.lock().unwrap()[lane] = v;
            });
            seqs.into_inner().unwrap()
        };
        let a = run();
        for i in 0..8 {
            assert!(
                a[i].iter().any(|&x| x) && a[i].iter().any(|&x| !x),
                "lane {i} drew a degenerate 50% sequence"
            );
            for j in i + 1..8 {
                assert_ne!(a[i], a[j], "lanes {i} and {j} drew identical chaos");
            }
        }
        let b = run();
        assert_eq!(a, b, "identical cells drew different chaos sequences");
    }

    #[test]
    fn chaos_streams_follow_the_cell_stream_key() {
        // Two cells with different stream keys draw different chaos even
        // on the same lanes; the same key reproduces.
        let run = |key: u64| {
            let _k = ctx::stream_scope(key);
            let seqs = std::sync::Mutex::new(vec![Vec::new(); 4]);
            pto_sim::Sim::new(4).run(|lane| {
                let v: Vec<bool> = (0..64).map(|_| chaos_strikes(50)).collect();
                seqs.lock().unwrap()[lane] = v;
            });
            seqs.into_inner().unwrap()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn chaos_pct_extremes() {
        // 0% never strikes; 100% always strikes — on any thread seed.
        std::thread::spawn(|| {
            for _ in 0..128 {
                assert!(!chaos_strikes(0));
            }
            for _ in 0..128 {
                assert!(chaos_strikes(100));
            }
        })
        .join()
        .unwrap();
    }

    // Abort injection is process-global; tests that arm it must not overlap.
    fn inject_serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn injection_strikes_every_period_th_commit_on_a_lane() {
        let _g = inject_serial();
        arm_abort_injection(3, 1);
        let w = TxWord::new(0);
        let outcomes = std::sync::Mutex::new(Vec::new());
        pto_sim::Sim::new(1).run(|_| {
            for _ in 0..9 {
                let ok = transaction(|tx| tx.read(&w)).is_ok();
                outcomes.lock().unwrap().push(ok);
            }
        });
        disarm_abort_injection();
        // Attempts 1, 4, 7 (0-based) hit phase 1 of period 3.
        let expected = [true, false, true, true, false, true, true, false, true];
        assert_eq!(outcomes.into_inner().unwrap(), expected);
    }

    #[test]
    fn injection_ignores_threads_off_the_gate() {
        let _g = inject_serial();
        arm_abort_injection(1, 0); // would abort every lane attempt
        let w = TxWord::new(0);
        for _ in 0..8 {
            assert!(transaction(|tx| tx.read(&w)).is_ok());
        }
        disarm_abort_injection();
    }

    #[test]
    fn disarmed_injection_never_strikes() {
        let _g = inject_serial();
        disarm_abort_injection();
        let w = TxWord::new(0);
        pto_sim::Sim::new(1).run(|_| {
            for _ in 0..8 {
                assert!(transaction(|tx| tx.read(&w)).is_ok());
            }
        });
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_injection_panics() {
        arm_abort_injection(0, 0);
    }

    #[test]
    fn scoped_injection_strikes_on_schedule() {
        // No global arming: the scope alone drives the schedule, and its
        // counter is private, so this test needs no serialization lock.
        let _scope = injection_scope(3, 1);
        let w = TxWord::new(0);
        let outcomes = std::sync::Mutex::new(Vec::new());
        pto_sim::Sim::new(1).run(|_| {
            for _ in 0..9 {
                let ok = transaction(|tx| tx.read(&w)).is_ok();
                outcomes.lock().unwrap().push(ok);
            }
        });
        let expected = [true, false, true, true, false, true, true, false, true];
        assert_eq!(outcomes.into_inner().unwrap(), expected);
    }

    #[test]
    fn scoped_injection_wins_over_global_and_unwinds() {
        let _g = inject_serial();
        arm_abort_injection(1, 0); // global: abort every lane attempt
        let w = TxWord::new(0);
        {
            // Scope with a period no attempt reaches: nothing aborts.
            let _scope = injection_scope(1_000_000, 999);
            pto_sim::Sim::new(1).run(|_| {
                for _ in 0..4 {
                    assert!(transaction(|tx| tx.read(&w)).is_ok());
                }
            });
        }
        // Scope gone: the global schedule applies again.
        pto_sim::Sim::new(1).run(|_| {
            assert!(transaction(|tx| tx.read(&w)).is_err());
        });
        disarm_abort_injection();
    }

    #[test]
    fn concurrent_scoped_injections_count_independently() {
        // Two cells on worker threads, each aborting every 2nd attempt:
        // with a shared counter the interleaving would skew one cell's
        // phase; with scoped counters both see the exact pattern.
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let _scope = injection_scope(2, 1);
                    let w = TxWord::new(0);
                    let outcomes = std::sync::Mutex::new(Vec::new());
                    pto_sim::Sim::new(1).run(|_| {
                        for _ in 0..8 {
                            let ok = transaction(|tx| tx.read(&w)).is_ok();
                            outcomes.lock().unwrap().push(ok);
                        }
                    });
                    let expect = [true, false, true, false, true, false, true, false];
                    assert_eq!(outcomes.into_inner().unwrap(), expect);
                });
            }
        });
    }

    #[test]
    fn owned_transaction_commits_under_its_held_orec() {
        let w = TxWord::new(5);
        let mut g = crate::try_acquire_orec(w.orec_index(), 8).expect("uncontended");
        let r = transaction_owned(TxOpts::default(), &mut g, |tx| {
            let v = tx.read(&w)?;
            tx.write(&w, v + 1)?;
            Ok(())
        });
        assert!(r.is_ok());
        drop(g); // consumed: must not restore the pre value
        assert_eq!(w.peek(), 6);
        // The orec was released at the write version: a fresh transaction
        // on the same word succeeds.
        assert!(transaction(|tx| tx.read(&w)).is_ok());
    }

    #[test]
    fn owned_abort_keeps_the_orec_held_for_retry() {
        let w = TxWord::new(7);
        let mut g = crate::try_acquire_orec(w.orec_index(), 8).expect("uncontended");
        let r: Result<(), _> = transaction_owned(TxOpts::default(), &mut g, |tx| {
            tx.write(&w, 99)?;
            Err(tx.abort(1))
        });
        assert_eq!(r.unwrap_err(), AbortCause::Explicit(1));
        // (`peek` would spin on the still-held orec; read under the guard.)
        let v = transaction_owned(TxOpts::default(), &mut g, |tx| tx.read(&w)).unwrap();
        assert_eq!(v, 7);
        // Still held: a retry under the same guard succeeds.
        let r = transaction_owned(TxOpts::default(), &mut g, |tx| {
            let v = tx.read(&w)?;
            tx.write(&w, v + 1)?;
            Ok(())
        });
        assert!(r.is_ok());
        drop(g);
        assert_eq!(w.peek(), 8);
    }

    #[test]
    fn owned_read_only_commit_leaves_release_to_the_guard() {
        let w = TxWord::new(3);
        let mut g = crate::try_acquire_orec(w.orec_index(), 8).expect("uncontended");
        let r = transaction_owned(TxOpts::default(), &mut g, |tx| tx.read(&w));
        assert_eq!(r.unwrap(), 3);
        // Read-only: the guard still holds the orec, so a competitor's
        // read of the granule conflicts until the guard drops.
        assert_eq!(
            transaction(|tx| tx.read(&w)).unwrap_err(),
            AbortCause::Conflict
        );
        drop(g);
        assert_eq!(transaction(|tx| tx.read(&w)).unwrap(), 3);
    }

    #[test]
    fn held_orec_conflicts_competing_transactions_and_reports_the_granule() {
        let w = TxWord::new(0);
        let g = crate::try_acquire_orec(w.orec_index(), 8).expect("uncontended");
        let r: Result<u64, _> = transaction(|tx| tx.read(&w));
        assert_eq!(r.unwrap_err(), AbortCause::Conflict);
        assert_eq!(crate::last_conflict_orec(), Some(w.orec_index()));
        drop(g);
    }

    #[test]
    fn owned_transaction_still_aborts_on_foreign_conflicts() {
        // Holding one orec protects only that granule: a conflict on a
        // different word still aborts the owned attempt, and the owned
        // orec stays held across the abort.
        let a = TxWord::new(1);
        // Find a `b` whose orec differs from `a`'s (the hash spreads
        // adjacent words, so one of a handful qualifies).
        let pool: Vec<TxWord> = (0..64).map(|_| TxWord::new(2)).collect();
        let b = pool
            .iter()
            .find(|w| w.orec_index() != a.orec_index())
            .expect("orec hash spreads");
        let mut g = crate::try_acquire_orec(a.orec_index(), 8).expect("uncontended");
        let foreign = crate::try_acquire_orec(b.orec_index(), 8).expect("uncontended");
        let r: Result<u64, _> = transaction_owned(TxOpts::default(), &mut g, |tx| {
            tx.read(&a)?;
            tx.read(&b)
        });
        assert_eq!(r.unwrap_err(), AbortCause::Conflict);
        assert_eq!(crate::last_conflict_orec(), Some(b.orec_index()));
        drop(foreign);
        // Retry under the same guard now commits.
        let r = transaction_owned(TxOpts::default(), &mut g, |tx| {
            let x = tx.read(&a)?;
            let y = tx.read(&b)?;
            tx.write(&a, x + y)?;
            Ok(())
        });
        assert!(r.is_ok());
        drop(g);
        assert_eq!(a.peek(), 3);
    }

    #[test]
    fn owned_and_plain_charge_sequences_match() {
        // The middle-path entry must not perturb the virtual-time charge
        // sequence of an identical attempt (golden-makespan contract).
        let w = TxWord::new(0);
        pto_sim::clock::reset();
        let _ = transaction_with(TxOpts::default(), |tx| {
            let v = tx.read(&w)?;
            tx.write(&w, v + 1)?;
            Ok(())
        });
        let plain = pto_sim::now();
        pto_sim::clock::reset();
        let mut g = crate::try_acquire_orec(w.orec_index(), 8).expect("uncontended");
        let acquire_cost = pto_sim::now();
        let _ = transaction_owned(TxOpts::default(), &mut g, |tx| {
            let v = tx.read(&w)?;
            tx.write(&w, v + 1)?;
            Ok(())
        });
        drop(g);
        let owned = pto_sim::now() - acquire_cost;
        assert_eq!(plain, owned);
    }

    #[test]
    fn transaction_charges_begin_and_end() {
        use pto_sim::cost;
        let w = TxWord::new(0);
        pto_sim::clock::reset();
        let _ = transaction(|tx| tx.read(&w));
        let total = pto_sim::now();
        assert_eq!(
            total,
            cost::cycles(pto_sim::CostKind::TxBegin)
                + cost::cycles(pto_sim::CostKind::TxLoad)
                + cost::cycles(pto_sim::CostKind::TxEnd)
        );
    }
}
