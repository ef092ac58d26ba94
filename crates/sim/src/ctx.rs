//! Scoped per-thread context: the plumbing that lets independent
//! simulation cells run concurrently on real OS threads.
//!
//! Every observability channel in the workspace (HTM stats, reclamation
//! counters, latency histograms, linearizability histories,
//! abort-injection schedules) is scoped to a cell, so `run_all`/`lincheck`
//! can shard cells across cores without one cell's counts bleeding into
//! another's.
//!
//! This module gives each OS thread a tiny array of **context slots**,
//! each holding an `Arc<dyn Any>` installed by a scope guard. A cell
//! runner sets its slots, and [`Sim::run`](crate::sched::Sim::run)
//! propagates them to every lane thread it spawns ([`capture`]/[`adopt`]).
//! Consumers (`pto-htm` stats, `pto-mem` counters, …) check their slot and
//! do nothing when it is empty.
//!
//! The slot array is deliberately flat and fixed-size: a lookup is one
//! thread-local borrow and an index — cheap enough for abort-injection's
//! per-commit check.
//!
//! The module also carries a per-thread **stream key**: a 64-bit value
//! mixed into deterministic per-lane RNG seeding (see
//! [`rng::lane_draw`](crate::rng::lane_draw)) so that distinct cells get
//! distinct, reproducible random streams regardless of which OS thread
//! or order they run in.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::sync::Arc;

/// Number of context slots per thread.
pub const N_SLOTS: usize = 8;

/// Slot of `pto-htm`'s scoped transaction statistics.
pub const SLOT_HTM_STATS: usize = 0;
/// Slot of `pto-htm`'s scoped abort-injection schedule.
pub const SLOT_HTM_INJECT: usize = 1;
/// Slot of `pto-mem`'s scoped reclamation counters.
pub const SLOT_MEM: usize = 2;
/// Slot of `pto-bench`'s scoped latency histograms.
pub const SLOT_LAT: usize = 3;
/// Slot of `pto-sim`'s scoped history collector.
pub const SLOT_HISTORY: usize = 4;
/// Slot of `pto-sim`'s installed observation sessions ([`crate::obs`]).
pub const SLOT_OBS: usize = 5;

type Slot = Option<Arc<dyn Any + Send + Sync>>;

thread_local! {
    static SLOTS: RefCell<[Slot; N_SLOTS]> = const { RefCell::new([None, None, None, None, None, None, None, None]) };
    static STREAM_KEY: Cell<u64> = const { Cell::new(0) };
}

// Every accessor below uses `try_with`: consumers include thread-exit
// destructors (pool magazines, hazard leases), which may run *after* this
// module's thread-locals were destroyed. Once the slots are gone the
// thread is exiting and no scope can be live on it, so "slot empty /
// key 0" is the correct degraded answer — never a panic-in-drop abort.

/// Install `value` in `idx` for the current thread, returning the previous
/// occupant (restore it when your scope ends — see [`ScopeGuard`]).
pub fn set(idx: usize, value: Arc<dyn Any + Send + Sync>) -> Slot {
    SLOTS
        .try_with(|s| s.borrow_mut()[idx].replace(value))
        .unwrap_or(None)
}

/// Clear `idx` for the current thread, returning the previous occupant.
pub fn clear(idx: usize) -> Slot {
    SLOTS.try_with(|s| s.borrow_mut()[idx].take()).unwrap_or(None)
}

/// Restore a slot to a previously captured occupant.
pub fn restore(idx: usize, prev: Slot) {
    let _ = SLOTS.try_with(|s| s.borrow_mut()[idx] = prev);
}

/// Is `idx` occupied on the current thread? (One borrow, no downcast —
/// the fast path for hot consumers.)
#[inline]
pub fn is_set(idx: usize) -> bool {
    SLOTS
        .try_with(|s| s.borrow()[idx].is_some())
        .unwrap_or(false)
}

/// Run `f` with the slot's value downcast to `T` (or `None` if the slot
/// is empty / holds another type — including after TLS teardown, when `f`
/// still runs exactly once, with `None`).
#[inline]
pub fn with<T: 'static, R>(idx: usize, f: impl FnOnce(Option<&T>) -> R) -> R {
    let mut f = Some(f);
    let res = SLOTS.try_with(|s| {
        let slots = s.borrow();
        (f.take().unwrap())(slots[idx].as_ref().and_then(|v| v.downcast_ref::<T>()))
    });
    match res {
        Ok(r) => r,
        // `try_with` failed before the closure ran, so `f` is still here.
        Err(_) => (f.take().unwrap())(None),
    }
}

/// Clone the slot's `Arc` out (for consumers that need to hold it past
/// the borrow, e.g. thread-exit destructors).
pub fn get<T: Send + Sync + 'static>(idx: usize) -> Option<Arc<T>> {
    SLOTS
        .try_with(|s| {
            let slots = s.borrow();
            slots[idx].clone().and_then(|v| v.downcast::<T>().ok())
        })
        .unwrap_or(None)
}

/// The current thread's RNG stream key (0 = unscoped).
#[inline]
pub fn stream_key() -> u64 {
    STREAM_KEY.try_with(|k| k.get()).unwrap_or(0)
}

/// Set the stream key, returning the previous value.
pub fn set_stream_key(key: u64) -> u64 {
    STREAM_KEY.try_with(|k| k.replace(key)).unwrap_or(0)
}

/// Everything a spawned worker must inherit to behave as if it ran on the
/// spawning thread: the slot array and the stream key.
#[derive(Clone)]
pub struct Inherited {
    slots: [Slot; N_SLOTS],
    stream_key: u64,
}

/// Capture the current thread's context for propagation to workers.
pub fn capture() -> Inherited {
    Inherited {
        slots: SLOTS.with(|s| s.borrow().clone()),
        stream_key: stream_key(),
    }
}

/// Adopt a captured context on the current (worker) thread.
pub fn adopt(inherited: &Inherited) {
    SLOTS.with(|s| *s.borrow_mut() = inherited.slots.clone());
    STREAM_KEY.with(|k| k.set(inherited.stream_key));
}

/// RAII: install a value in a slot for the guard's lifetime; the previous
/// occupant (usually `None`) is restored on drop.
pub struct ScopeGuard {
    idx: usize,
    prev: Slot,
}

impl ScopeGuard {
    /// Install `value` in `idx` until the guard drops.
    pub fn install(idx: usize, value: Arc<dyn Any + Send + Sync>) -> Self {
        let prev = set(idx, value);
        ScopeGuard { idx, prev }
    }
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        restore(self.idx, self.prev.take());
    }
}

/// RAII: set the RNG stream key for the guard's lifetime.
pub struct StreamScope {
    prev: u64,
}

/// Scope a deterministic RNG stream key (e.g. a mixed cell index) to the
/// current thread until the returned guard drops.
pub fn stream_scope(key: u64) -> StreamScope {
    StreamScope {
        prev: set_stream_key(key),
    }
}

impl Drop for StreamScope {
    fn drop(&mut self) {
        set_stream_key(self.prev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_thread_local_and_scoped() {
        assert!(!is_set(SLOT_HTM_STATS));
        {
            let _g = ScopeGuard::install(SLOT_HTM_STATS, Arc::new(42u64));
            assert!(is_set(SLOT_HTM_STATS));
            with::<u64, _>(SLOT_HTM_STATS, |v| assert_eq!(v.copied(), Some(42)));
            // Wrong type downcasts to None rather than panicking.
            with::<u32, _>(SLOT_HTM_STATS, |v| assert!(v.is_none()));
            // Another thread sees nothing.
            std::thread::scope(|s| {
                s.spawn(|| assert!(!is_set(SLOT_HTM_STATS)));
            });
        }
        assert!(!is_set(SLOT_HTM_STATS));
    }

    #[test]
    fn guards_nest_and_restore() {
        let _outer = ScopeGuard::install(SLOT_MEM, Arc::new(1u64));
        {
            let _inner = ScopeGuard::install(SLOT_MEM, Arc::new(2u64));
            with::<u64, _>(SLOT_MEM, |v| assert_eq!(v.copied(), Some(2)));
        }
        with::<u64, _>(SLOT_MEM, |v| assert_eq!(v.copied(), Some(1)));
    }

    #[test]
    fn capture_adopt_round_trips() {
        let _g = ScopeGuard::install(SLOT_LAT, Arc::new(7u64));
        let _k = stream_scope(0xABCD);
        let inherited = capture();
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(!is_set(SLOT_LAT));
                adopt(&inherited);
                with::<u64, _>(SLOT_LAT, |v| assert_eq!(v.copied(), Some(7)));
                assert_eq!(stream_key(), 0xABCD);
            });
        });
    }

    #[test]
    fn sim_lanes_inherit_the_spawners_context() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let seen = Arc::new(AtomicU64::new(0));
        let _g = ScopeGuard::install(SLOT_HISTORY, Arc::new(Arc::clone(&seen)));
        let _k = stream_scope(99);
        crate::sched::Sim::new(4).run(|_| {
            assert_eq!(stream_key(), 99);
            with::<Arc<AtomicU64>, _>(SLOT_HISTORY, |v| {
                v.expect("lane missing inherited slot")
                    .fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(seen.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn stream_scope_restores() {
        assert_eq!(stream_key(), 0);
        {
            let _a = stream_scope(5);
            assert_eq!(stream_key(), 5);
            {
                let _b = stream_scope(6);
                assert_eq!(stream_key(), 6);
            }
            assert_eq!(stream_key(), 5);
        }
        assert_eq!(stream_key(), 0);
    }
}
