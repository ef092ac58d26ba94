//! Transactional lock elision over a single global lock — the baseline the
//! paper compares against in Figure 2(a).
//!
//! TLE attempts the critical section as a transaction that *subscribes* to
//! the lock word (reads it and aborts if held); after `attempts` failures
//! it acquires the lock for real. The same sequential code runs in both
//! modes through the [`Ctx`] accessor. Because the fallback is a mutual
//! exclusion lock, TLE scales poorly once aborts force serialization —
//! which is exactly the trend Figure 2(a) shows and PTO avoids by falling
//! back to *lock-free* code instead.

use pto_htm::{transaction_with, Abort, AbortCause, CauseCounters, TxOpts, TxResult, TxWord, Txn};
use pto_sim::obs::{self, Event, Site};
use pto_sim::stats::Counter;
use std::sync::atomic::Ordering;

/// Dual-mode memory accessor: the sequential critical section is written
/// once against `Ctx` and runs either inside a transaction or directly
/// under the lock.
pub enum Ctx<'a, 'e> {
    /// Speculative mode: accesses go through the transaction.
    Tx(&'a mut Txn<'e>),
    /// Lock-holder mode: plain accesses (mutual exclusion holds).
    Direct,
}

impl<'a, 'e> Ctx<'a, 'e> {
    /// Read a shared word.
    pub fn read(&mut self, w: &'e TxWord) -> TxResult<u64> {
        match self {
            Ctx::Tx(tx) => tx.read(w),
            Ctx::Direct => Ok(w.load(Ordering::Acquire)),
        }
    }

    /// Write a shared word.
    pub fn write(&mut self, w: &'e TxWord, v: u64) -> TxResult<()> {
        match self {
            Ctx::Tx(tx) => tx.write(w, v),
            Ctx::Direct => {
                w.store(v, Ordering::Release);
                Ok(())
            }
        }
    }
}

/// Outcome counters for a TLE-protected object.
#[derive(Default, Debug)]
pub struct TleStats {
    /// Critical sections completed speculatively.
    pub elided: Counter,
    /// Critical sections that took the lock.
    pub locked: Counter,
    /// Speculation failures bucketed by [`AbortCause`] (lock-held shows up
    /// as `conflict` via the subscription abort).
    pub aborts: CauseCounters,
}

impl TleStats {
    pub const fn new() -> Self {
        TleStats {
            elided: Counter::new(),
            locked: Counter::new(),
            aborts: CauseCounters::new(),
        }
    }
}

/// A single elidable test-and-test-and-set lock.
pub struct Tle {
    lock: TxWord,
    attempts: u32,
    opts: TxOpts,
    pub stats: TleStats,
}

impl Tle {
    /// A TLE lock that speculates `attempts` times before locking.
    pub fn new(attempts: u32) -> Self {
        Tle::with_opts(attempts, TxOpts::default())
    }

    /// A TLE lock with explicit transaction options (capacity/chaos
    /// ablations for the elision figures).
    pub fn with_opts(attempts: u32, opts: TxOpts) -> Self {
        Tle {
            lock: TxWord::new(0),
            attempts,
            opts,
            stats: TleStats::new(),
        }
    }

    /// Run `body` atomically: speculatively when possible, under the lock
    /// otherwise. `body` must be idempotent up to its `Ctx` accesses (it
    /// may run several times speculatively before one run takes effect).
    #[track_caller]
    pub fn execute<'e, T>(&'e self, mut body: impl FnMut(&mut Ctx<'_, 'e>) -> TxResult<T>) -> T {
        let _op = obs::op(Site::caller());
        for _ in 0..self.attempts {
            let r = transaction_with(self.opts, |tx| {
                // Lock subscription: any lock acquisition during our window
                // bumps the word's version and aborts us (strong atomicity).
                if tx.read(&self.lock)? != 0 {
                    return Err(Abort {
                        cause: AbortCause::Conflict,
                    });
                }
                body(&mut Ctx::Tx(tx))
            });
            match r {
                Ok(v) => {
                    self.stats.elided.inc();
                    return v;
                }
                Err(cause) => self.stats.aborts.record(cause),
            }
        }
        // Serialized fallback: acquire the global lock. For TLE the
        // "fallback" span covers the whole lock-acquire/run/release
        // section — lock waits show up as span length in a trace.
        obs::emit(Event::FallbackEnter);
        loop {
            if self.lock.load(Ordering::Acquire) == 0 && self.lock.cas(0, 1) {
                break;
            }
            std::hint::spin_loop();
        }
        let v = body(&mut Ctx::Direct).unwrap_or_else(|_| {
            unreachable!("direct-mode Ctx accesses are infallible")
        });
        self.lock.store(0, Ordering::Release);
        self.stats.locked.inc();
        obs::emit(Event::FallbackExit);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_sections_elide() {
        let tle = Tle::new(3);
        let w = TxWord::new(0);
        for i in 1..=10 {
            tle.execute(|ctx| {
                let v = ctx.read(&w)?;
                ctx.write(&w, v + 1)?;
                Ok(())
            });
            assert_eq!(w.peek(), i);
        }
        assert_eq!(tle.stats.elided.get(), 10);
        assert_eq!(tle.stats.locked.get(), 0);
    }

    #[test]
    fn aborts_are_bucketed_by_cause() {
        // Chaos at 100% kills every speculation as Spurious, so all
        // `attempts` aborts land in that bucket and the lock path runs.
        let opts = TxOpts {
            chaos_abort_pct: 100,
            ..TxOpts::default()
        };
        let tle = Tle::with_opts(3, opts);
        let w = TxWord::new(0);
        let v = tle.execute(|ctx| ctx.read(&w));
        assert_eq!(v, 0);
        assert_eq!(tle.stats.locked.get(), 1);
        assert_eq!(tle.stats.elided.get(), 0);
        assert_eq!(tle.stats.aborts.spurious.get(), 3);
        assert_eq!(tle.stats.aborts.total(), 3);
    }

    #[test]
    fn zero_attempts_always_locks() {
        let tle = Tle::new(0);
        let w = TxWord::new(5);
        let v = tle.execute(|ctx| ctx.read(&w));
        assert_eq!(v, 5);
        assert_eq!(tle.stats.locked.get(), 1);
    }

    #[test]
    fn concurrent_counter_is_exact() {
        // Atomicity across elided and locked paths together.
        let tle = Tle::new(2);
        let w = TxWord::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..2_500 {
                        tle.execute(|ctx| {
                            let v = ctx.read(&w)?;
                            ctx.write(&w, v + 1)?;
                            Ok(())
                        });
                    }
                });
            }
        });
        assert_eq!(w.peek(), 10_000);
    }

    #[test]
    fn multi_word_invariant_holds_across_modes() {
        let tle = Tle::new(1);
        let a = TxWord::new(500);
        let b = TxWord::new(500);
        std::thread::scope(|s| {
            for t in 0..4 {
                s.spawn(|| {
                    for _ in 0..1_500 {
                        tle.execute(|ctx| {
                            let x = ctx.read(&a)?;
                            let y = ctx.read(&b)?;
                            ctx.write(&a, x + 1)?;
                            ctx.write(&b, y.wrapping_sub(1))?;
                            Ok(())
                        });
                    }
                });
                let _ = t;
            }
        });
        // b wraps below zero (u64); the invariant holds in wrapping
        // arithmetic.
        assert_eq!(a.peek().wrapping_add(b.peek()), 1000);
        assert_eq!(a.peek(), 500 + 6_000);
    }
}
