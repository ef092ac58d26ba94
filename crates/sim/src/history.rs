//! Operation-history recording for linearizability checking.
//!
//! Where [`obs`](crate::obs) records low-level *events* (transaction
//! boundaries, epoch pins), this module records whole *operations* —
//! invocation and response, stamped with the recording thread's virtual
//! clock — so `pto-check` can replay them against a sequential
//! specification and decide whether the concurrent execution linearizes.
//!
//! The recorded payload is deliberately untyped: an operation is a `u16`
//! code plus two `u64` words (argument and encoded return value). The
//! meaning of the codes belongs to the recorder (`pto_check::record`); this
//! module only owns the timestamping and the per-thread buffering, which
//! must live next to [`clock`](crate::clock) so the stamps are the same
//! virtual cycles every other subsystem reports.
//!
//! Recording is scoped: a [`ScopedHistory`] installs its collector in the
//! current thread's [`ctx`](crate::ctx) slot, inherited by every `Sim::run`
//! lane the thread spawns, so many histories can record concurrently on
//! disjoint worker threads (the sharded lincheck explorer runs one per
//! worker). Design constraints:
//!
//! 1. **Zero effect when disarmed.** [`record`] never calls
//!    [`charge`](crate::charge), and with no scope installed it is one
//!    context-slot check, so virtual-time results are bit-identical with
//!    recording compiled in but disarmed.
//! 2. **Bounded memory.** Each per-thread buffer stores at most the scope's
//!    capacity; overflow increments a drop counter, and a drained history
//!    that dropped records is unusable for checking (the checker refuses
//!    incomplete histories).
//! 3. **No cross-thread coordination on the hot path.** Buffers are
//!    thread-local; they park into the scope's collector, which the hot
//!    path never locks.
//!
//! A lost history makes the checker unsound, so collection must not depend
//! on TLS destructor timing. A thread's TLS destructor parks its buffer,
//! and `Sim::run` and a plain `spawn`/`join` both wait out their threads'
//! TLS destructors, so a lane's buffer is collected before they return.
//! `std::thread::scope`'s implicit join returns as soon as each worker's
//! closure finishes, *before* that thread's TLS destructors run, so a body
//! run directly under it calls [`flush`] as its last statement — a flush
//! inside the closure happens-before the scope join and hence before the
//! drain. [`RawHistory::lost_threads`] counts any buffer that was created
//! but never collected so a checker can refuse the history rather than
//! silently verify a subset.

use crate::sync::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default per-thread operation capacity of a scope.
pub const DEFAULT_CAPACITY: usize = 1 << 20;

/// One completed operation as the recorder saw it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpRecord {
    /// Virtual clock at invocation (before the operation ran).
    pub inv: u64,
    /// Virtual clock at response (after it returned). `res >= inv` on a
    /// given thread; cross-thread comparisons carry the gate skew.
    pub res: u64,
    /// Operation code; meaning assigned by the recorder.
    pub op: u16,
    /// Operation argument (key/value), recorder-defined.
    pub arg: u64,
    /// Encoded return value, recorder-defined.
    pub ret: u64,
}

/// One recording thread's operation sequence, in program order.
#[derive(Debug)]
pub struct ThreadHistory {
    /// The gate lane the thread was attached to at its first record, if any.
    pub lane: Option<usize>,
    /// Creation order across all threads of the session (stable id).
    pub ordinal: u64,
    pub ops: Vec<OpRecord>,
    /// Records discarded after the buffer reached the session capacity.
    pub dropped: u64,
}

/// The shared state behind a [`ScopedHistory`]: its capacity, ordinal
/// counter, and collector.
pub struct HistoryScope {
    capacity: usize,
    next_ordinal: AtomicU64,
    collector: Mutex<Vec<ThreadHistory>>,
}

struct LocalHist {
    /// The scope this buffer belongs to.
    scope: Arc<HistoryScope>,
    hist: ThreadHistory,
}

/// TLS wrapper whose destructor parks the thread's history when the thread
/// exits mid-recording (`Sim::run` lanes exit before the drain).
struct LocalSlot {
    slot: RefCell<Option<LocalHist>>,
}

impl Drop for LocalSlot {
    fn drop(&mut self) {
        if let Some(lh) = self.slot.borrow_mut().take() {
            park(lh);
        }
    }
}

thread_local! {
    static LOCAL: LocalSlot = const {
        LocalSlot {
            slot: RefCell::new(None),
        }
    };
}

/// Park a buffer into its scope's collector. The `Arc` in the buffer keeps
/// the scope alive past its guard, so parking is race-free.
fn park(lh: LocalHist) {
    lh.scope.collector.lock().push(lh.hist);
}

/// Park the current thread's buffer into its scope's collector.
///
/// Recording bodies that run directly under `std::thread::scope` must call
/// this as their **last statement**: its implicit join does not wait for
/// TLS destructors, so only an explicit flush is guaranteed to land before
/// the harness drains. `Sim::run` lanes need not: it joins each lane whole.
/// Safe to call when nothing was recorded or no scope is installed (a
/// no-op); recording again after a flush starts a fresh [`ThreadHistory`]
/// with a new ordinal.
pub fn flush() {
    let _ = LOCAL.try_with(|local| {
        if let Some(lh) = local.slot.borrow_mut().take() {
            park(lh);
        }
    });
}

/// True while the current thread would record: a [`ScopedHistory`] is
/// installed on it (recorders may use this to skip building payloads;
/// [`record`] is safe to call either way).
#[inline]
pub fn armed() -> bool {
    crate::ctx::is_set(crate::ctx::SLOT_HISTORY)
}

/// Record one completed operation on the current thread.
///
/// `inv` and `res` are the caller's [`now`](crate::now) readings bracketing
/// the operation (reading the clock charges nothing). A no-op (one
/// context-slot check) unless armed for this thread; never charges
/// virtual time.
#[inline]
pub fn record(op: u16, arg: u64, ret: u64, inv: u64, res: u64) {
    if !armed() {
        return;
    }
    record_slow(op, arg, ret, inv, res);
}

#[cold]
fn record_slow(op: u16, arg: u64, ret: u64, inv: u64, res: u64) {
    let Some(scope) = crate::ctx::get::<HistoryScope>(crate::ctx::SLOT_HISTORY) else {
        return;
    };
    // try_with: records arriving while TLS is being torn down are dropped.
    let _ = LOCAL.try_with(|local| {
        let mut slot = local.slot.borrow_mut();
        if slot
            .as_ref()
            .is_none_or(|lh| !Arc::ptr_eq(&lh.scope, &scope))
        {
            // A buffer for a different scope parks rather than vanishes.
            if let Some(old) = slot.take() {
                park(old);
            }
            let ordinal = scope.next_ordinal.fetch_add(1, Ordering::Relaxed);
            let ops = Vec::with_capacity(scope.capacity.min(1024));
            *slot = Some(LocalHist {
                scope,
                hist: ThreadHistory {
                    lane: crate::clock::current_lane(),
                    ordinal,
                    ops,
                    dropped: 0,
                },
            });
        }
        let lh = slot.as_mut().unwrap();
        if lh.hist.ops.len() >= lh.scope.capacity {
            lh.hist.dropped += 1;
        } else {
            lh.hist.ops.push(OpRecord {
                inv,
                res,
                op,
                arg,
                ret,
            });
        }
    });
}

/// A drained scope: one [`ThreadHistory`] per recording thread, in
/// thread-creation order.
#[derive(Debug)]
pub struct RawHistory {
    pub threads: Vec<ThreadHistory>,
    /// Buffers created during the recording that never reached the collector
    /// (a recording body exited without [`flush`] and its TLS destructor
    /// lost the race with the drain). Nonzero means the history is
    /// incomplete and must not be checked.
    pub lost_threads: u64,
}

impl RawHistory {
    /// Total recorded operations across all threads.
    pub fn ops(&self) -> usize {
        self.threads.iter().map(|t| t.ops.len()).sum()
    }

    /// Total operations discarded due to capacity, across all threads.
    pub fn dropped(&self) -> u64 {
        self.threads.iter().map(|t| t.dropped).sum()
    }

    /// True when every created buffer was collected and none overflowed:
    /// the history is exactly what the recorders observed.
    pub fn complete(&self) -> bool {
        self.lost_threads == 0 && self.dropped() == 0
    }
}

/// A thread-scoped history recording: installs a private collector in the
/// current thread's context slot ([`ctx::SLOT_HISTORY`](crate::ctx)),
/// inherited by every `Sim::run` lane this thread spawns. Any number of
/// scoped histories may record concurrently on disjoint threads — the
/// sharded lincheck explorer runs one per worker.
///
/// Recording bodies under `std::thread::scope` must call [`flush`] as
/// their last statement (see the module docs); check
/// [`RawHistory::lost_threads`] before trusting the drain.
#[must_use = "records nothing once dropped; call drain() to collect"]
pub struct ScopedHistory {
    scope: Arc<HistoryScope>,
    _guard: crate::ctx::ScopeGuard,
}

impl ScopedHistory {
    /// Scope recording to this thread (and its future sim lanes) with
    /// [`DEFAULT_CAPACITY`] operations per recording thread.
    pub fn arm() -> ScopedHistory {
        ScopedHistory::with_capacity(DEFAULT_CAPACITY)
    }

    /// Scope recording with an explicit per-thread operation capacity.
    pub fn with_capacity(capacity: usize) -> ScopedHistory {
        assert!(capacity > 0, "history capacity must be positive");
        let scope = Arc::new(HistoryScope {
            capacity,
            next_ordinal: AtomicU64::new(0),
            collector: Mutex::new(Vec::new()),
        });
        let guard =
            crate::ctx::ScopeGuard::install(crate::ctx::SLOT_HISTORY, Arc::clone(&scope) as _);
        ScopedHistory {
            scope,
            _guard: guard,
        }
    }

    /// Uninstall the scope and collect everything recorded into it.
    pub fn drain(self) -> RawHistory {
        flush();
        let ScopedHistory { scope, _guard } = self;
        drop(_guard);
        let mut threads = std::mem::take(&mut *scope.collector.lock());
        let lost_threads =
            scope.next_ordinal.load(Ordering::SeqCst) - threads.len() as u64;
        threads.retain(|t| !t.ops.is_empty() || t.dropped > 0);
        threads.sort_by_key(|t| t.ordinal);
        RawHistory {
            threads,
            lost_threads,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_record_is_a_no_op() {
        record(1, 2, 3, 0, 10);
        assert!(!armed());
        let raw = ScopedHistory::arm().drain();
        assert_eq!(raw.ops(), 0, "a record before arming leaked in");
    }

    #[test]
    fn records_round_trip_in_program_order() {
        let scoped = ScopedHistory::arm();
        assert!(armed());
        record(1, 100, 1, 0, 5);
        record(2, 200, 0, 5, 9);
        let raw = scoped.drain();
        assert_eq!(raw.threads.len(), 1);
        let own = &raw.threads[0];
        assert_eq!(own.ops.len(), 2);
        assert_eq!(own.ops[0], OpRecord { inv: 0, res: 5, op: 1, arg: 100, ret: 1 });
        assert_eq!(own.ops[1], OpRecord { inv: 5, res: 9, op: 2, arg: 200, ret: 0 });
        // Recording after the drain is a no-op.
        assert!(!armed(), "draining the scope disarms the thread");
        record(3, 300, 0, 9, 12);
        assert_eq!(ScopedHistory::arm().drain().ops(), 0);
    }

    #[test]
    fn flushed_worker_histories_survive_scope_join() {
        let scoped = ScopedHistory::arm();
        let inherited = crate::ctx::capture();
        std::thread::scope(|s| {
            s.spawn(|| {
                crate::ctx::adopt(&inherited);
                record(7, 1, 0, 0, 1);
                record(7, 2, 0, 1, 2);
                flush();
            });
            s.spawn(|| {
                crate::ctx::adopt(&inherited);
                record(7, 3, 0, 0, 1);
                flush();
            });
        });
        let raw = scoped.drain();
        assert_eq!(raw.lost_threads, 0);
        assert_eq!(raw.ops(), 3);
        // Two distinct thread histories with stable ordinals.
        assert_eq!(raw.threads.len(), 2);
        assert_ne!(raw.threads[0].ordinal, raw.threads[1].ordinal);
        assert!(raw.complete());
    }

    #[test]
    fn joined_thread_history_is_parked_by_tls_destructor() {
        // Plain spawn + join waits for TLS destructors, so the backup
        // parking path collects without an explicit flush.
        let scoped = ScopedHistory::arm();
        let inherited = crate::ctx::capture();
        std::thread::spawn(move || {
            crate::ctx::adopt(&inherited);
            record(7, 9, 0, 0, 1);
        })
        .join()
        .unwrap();
        let raw = scoped.drain();
        assert_eq!(raw.lost_threads, 0);
        assert_eq!(raw.ops(), 1);
        assert_eq!(raw.threads[0].ops[0].arg, 9);
    }

    #[test]
    fn sim_lane_history_is_parked_without_flush() {
        // `Sim::run` joins each lane whole, so the TLS destructor's parking
        // lands before it returns.
        let scoped = ScopedHistory::arm();
        crate::Sim::new(4).run(|lane| record(7, lane as u64, 0, 0, 1));
        let raw = scoped.drain();
        assert_eq!(raw.lost_threads, 0);
        assert_eq!(raw.ops(), 4);
    }

    #[test]
    fn unflushed_scoped_worker_is_counted_as_lost() {
        // A scoped worker that skips flush() may or may not win the TLS
        // destructor race against the drain; either way the accounting must
        // balance so the checker can tell whether the history is whole.
        let scoped = ScopedHistory::arm();
        let inherited = crate::ctx::capture();
        std::thread::scope(|s| {
            s.spawn(|| {
                crate::ctx::adopt(&inherited);
                record(7, 1, 0, 0, 1);
            });
        });
        let raw = scoped.drain();
        assert_eq!(raw.threads.len() as u64 + raw.lost_threads, 1);
        assert_eq!(raw.complete(), raw.ops() == 1);
    }

    #[test]
    fn capacity_overflow_counts_drops() {
        let scoped = ScopedHistory::with_capacity(3);
        for i in 0..10 {
            record(1, i, 0, i, i + 1);
        }
        let raw = scoped.drain();
        assert_eq!(raw.ops(), 3);
        assert_eq!(raw.dropped(), 7);
        assert!(!raw.complete());
    }

    #[test]
    fn abandoned_scope_disarms() {
        let scoped = ScopedHistory::arm();
        record(5, 1, 0, 0, 1);
        drop(scoped); // abandoned: must uninstall
        assert!(!armed());
        record(5, 2, 0, 1, 2);
        let raw = ScopedHistory::arm().drain();
        assert_eq!(raw.ops(), 0, "an abandoned scope's buffer resurfaced");
    }

    #[test]
    fn sim_lanes_record_into_the_spawners_scope() {
        let scoped = ScopedHistory::arm();
        let out = crate::Sim::new(2).run(|lane| {
            let t0 = crate::now();
            crate::charge_cycles(10);
            record(9, lane as u64, 0, t0, crate::now());
            flush();
        });
        assert_eq!(out.per_thread.len(), 2);
        let raw = scoped.drain();
        assert_eq!(raw.lost_threads, 0);
        assert_eq!(raw.ops(), 2);
        assert!(!armed(), "dropping the scope disarms the thread");
    }

    #[test]
    fn concurrent_scoped_histories_stay_isolated() {
        // Four worker threads, each its own scope and its own 2-lane sim:
        // the sharded-lincheck shape. Each drain must see exactly its own
        // cell's ops.
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for cell in 0..4u64 {
                handles.push(s.spawn(move || {
                    let scoped = ScopedHistory::arm();
                    crate::Sim::new(2).run(|_| {
                        for i in 0..10 + cell {
                            record(1, cell * 1000 + i, 0, i, i + 1);
                        }
                        flush();
                    });
                    (cell, scoped.drain())
                }));
            }
            for h in handles {
                let (cell, raw) = h.join().unwrap();
                assert_eq!(raw.lost_threads, 0, "cell {cell}");
                assert_eq!(raw.ops() as u64, 2 * (10 + cell), "cell {cell}");
                for t in &raw.threads {
                    assert!(
                        t.ops.iter().all(|o| o.arg / 1000 == cell),
                        "cell {cell} saw a foreign record"
                    );
                }
            }
        });
    }

    #[test]
    fn lane_is_captured_from_the_gate() {
        let scoped = ScopedHistory::arm();
        let out = crate::Sim::new(2).run(|lane| {
            let t0 = crate::now();
            crate::charge_cycles(10);
            record(9, lane as u64, 0, t0, crate::now());
            flush();
        });
        assert_eq!(out.per_thread.len(), 2);
        let raw = scoped.drain();
        assert_eq!(raw.lost_threads, 0);
        let lanes: Vec<Option<usize>> = raw.threads.iter().map(|t| t.lane).collect();
        assert!(lanes.contains(&Some(0)) && lanes.contains(&Some(1)), "{lanes:?}");
        for t in &raw.threads {
            assert!(t.ops.iter().all(|o| o.res >= o.inv));
        }
    }
}
