//! `TxWord`: a shared 64-bit word accessible both transactionally and
//! non-transactionally, with strong atomicity between the two.
//!
//! Non-transactional operations implement the "memory side" of the HTM:
//!
//! * stores and RMWs acquire the word's orec, publish the value, and release
//!   with a fresh global version — dooming any in-flight transaction that
//!   read the word (requester-wins conflict with non-transactional code);
//! * loads are seqlock-style: they re-read the orec around the value load
//!   and wait out in-flight commit write-backs, so no thread ever observes a
//!   partially committed transaction. The wait is bounded by the committer's
//!   write-back (a handful of stores), mirroring the way hardware
//!   serializes a cache-line handoff.
//!
//! Each operation charges the `pto-sim` cost model. `Ordering::SeqCst`
//! stores charge an extra full-fence — this is how the *baseline* lock-free
//! algorithms pay for the fences that PTO's prefix transactions elide.

use crate::orec;
use pto_sim::{charge, CostKind};
use std::sync::atomic::{AtomicU64, Ordering};

/// A shared word with transactional strong atomicity. See module docs.
#[repr(transparent)]
#[derive(Default)]
pub struct TxWord {
    pub(crate) cell: AtomicU64,
}

impl TxWord {
    /// A new word holding `v`. Construction is private initialization, not a
    /// shared-memory event: nothing is charged.
    pub const fn new(v: u64) -> Self {
        TxWord {
            cell: AtomicU64::new(v),
        }
    }

    #[inline]
    pub(crate) fn addr(&self) -> usize {
        self as *const _ as usize
    }

    /// Uncharged, consistency-checked read for tests, assertions and
    /// statistics. Not part of the modeled algorithm.
    pub fn peek(&self) -> u64 {
        self.read_consistent()
    }

    /// Uncharged **racy** read: the bare cell, with no orec handshake. A
    /// concurrent commit write-back may be mid-flight, so the value can be
    /// transiently stale or about-to-change — fit only for heuristic
    /// test-then-act spin loops (e.g. "does this lock *look* free?") that
    /// confirm with a real CAS afterwards. Unlike [`TxWord::peek`], it can
    /// never spin, and unlike [`TxWord::cas`], it never locks the word's
    /// orec — which is what makes it safe to call in a tight wait loop
    /// without starving the holder's release.
    #[inline]
    pub fn peek_racy(&self) -> u64 {
        self.cell.load(Ordering::Acquire)
    }

    /// Index of the ownership record this word hashes to — the granule
    /// identity used by conflict diagnostics and the middle path
    /// ([`crate::try_acquire_orec`]). Uncharged.
    #[inline]
    pub fn orec_index(&self) -> usize {
        orec::orec_index(self.addr())
    }

    /// Seqlock-consistent read of the current committed value.
    #[inline]
    fn read_consistent(&self) -> u64 {
        let o = orec::orec_for(self.addr());
        loop {
            let v1 = o.load(Ordering::Acquire);
            if orec::is_locked(v1) {
                std::hint::spin_loop();
                continue;
            }
            // The Acquire on the value load keeps the second orec load from
            // moving up past it; x86-TSO additionally keeps the writer's
            // value/version stores ordered.
            let val = self.cell.load(Ordering::Acquire);
            let v2 = o.load(Ordering::Acquire);
            if v1 == v2 {
                return val;
            }
        }
    }

    /// Non-transactional load.
    ///
    /// Charges one shared load. (On x86 a SeqCst load is a plain `mov`, so
    /// no fence surcharge applies to loads.)
    #[inline]
    pub fn load(&self, _order: Ordering) -> u64 {
        charge(CostKind::SharedLoad);
        let o = orec::orec_for(self.addr());
        loop {
            let v1 = o.load(Ordering::Acquire);
            if orec::is_locked(v1) {
                // Waiting on another lane's commit write-back: gate-aware
                // wait (a wait costs its virtual duration, not one charge
                // per physical poll — see `pto_sim::spin_wait_tick`).
                pto_sim::spin_wait_tick();
                std::hint::spin_loop();
                continue;
            }
            let val = self.cell.load(Ordering::Acquire);
            let v2 = o.load(Ordering::Acquire);
            if v1 == v2 {
                return val;
            }
            charge(CostKind::SpinIter);
        }
    }

    /// Acquire the orec for a non-transactional update, spinning (and
    /// charging) while a commit write-back holds it. Returns the pre-lock
    /// orec value.
    #[inline]
    fn lock_orec(o: &AtomicU64) -> u64 {
        loop {
            let cur = o.load(Ordering::Acquire);
            if !orec::is_locked(cur)
                && o.compare_exchange_weak(
                    cur,
                    orec::make_locked(cur),
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                )
                .is_ok()
            {
                return cur;
            }
            // Gate-aware wait on the current holder (commit write-back or
            // another non-transactional update).
            pto_sim::spin_wait_tick();
            std::hint::spin_loop();
        }
    }

    /// Non-transactional store. Dooms any in-flight transaction that has the
    /// word in its read set (strong atomicity).
    ///
    /// Charges a shared store, plus a full fence for `SeqCst` — the cost the
    /// paper's baseline algorithms pay on architectures with weak models,
    /// and the first thing PTO elides (§2.3 "Eliminating Synchronization").
    #[inline]
    pub fn store(&self, v: u64, order: Ordering) {
        charge(CostKind::SharedStore);
        if order == Ordering::SeqCst {
            charge(CostKind::Fence);
        }
        let o = orec::orec_for(self.addr());
        Self::lock_orec(o);
        self.cell.store(v, Ordering::Release);
        o.store(orec::make_version(orec::gvc_bump()), Ordering::Release);
    }

    /// Non-transactional compare-and-swap. Returns `Ok(previous)` on success
    /// and `Err(current)` on failure, like `AtomicU64::compare_exchange`.
    ///
    /// Charges one CAS; a failed CAS charges the extra line-ping-pong
    /// penalty. (A lock-prefixed RMW already includes full-fence semantics
    /// on x86, so no SeqCst surcharge.)
    #[inline]
    pub fn compare_exchange(&self, expected: u64, new: u64, _order: Ordering) -> Result<u64, u64> {
        charge(CostKind::Cas);
        let o = orec::orec_for(self.addr());
        let pre = Self::lock_orec(o);
        let cur = self.cell.load(Ordering::Acquire);
        if cur == expected {
            self.cell.store(new, Ordering::Release);
            o.store(orec::make_version(orec::gvc_bump()), Ordering::Release);
            Ok(cur)
        } else {
            charge(CostKind::CasFail);
            // Release without a version bump: the word did not change.
            o.store(pre, Ordering::Release);
            Err(cur)
        }
    }

    /// Convenience: CAS returning a success flag.
    #[inline]
    pub fn cas(&self, expected: u64, new: u64) -> bool {
        self.compare_exchange(expected, new, Ordering::SeqCst).is_ok()
    }

    /// Non-transactional fetch-and-add. Charges one CAS-class RMW.
    #[inline]
    pub fn fetch_add(&self, delta: u64, _order: Ordering) -> u64 {
        charge(CostKind::Cas);
        let o = orec::orec_for(self.addr());
        Self::lock_orec(o);
        let cur = self.cell.load(Ordering::Acquire);
        self.cell.store(cur.wrapping_add(delta), Ordering::Release);
        o.store(orec::make_version(orec::gvc_bump()), Ordering::Release);
        cur
    }

    /// Non-transactional unconditional swap. Charges one CAS-class RMW.
    #[inline]
    pub fn swap(&self, v: u64, _order: Ordering) -> u64 {
        charge(CostKind::Cas);
        let o = orec::orec_for(self.addr());
        Self::lock_orec(o);
        let cur = self.cell.load(Ordering::Acquire);
        self.cell.store(v, Ordering::Release);
        o.store(orec::make_version(orec::gvc_bump()), Ordering::Release);
        cur
    }

    /// Reinitialize a word that is provably private to the caller (e.g. a
    /// freshly allocated, not-yet-published pool slot). Bumps the version so
    /// any stale transactional reader of a recycled slot aborts, but charges
    /// only a plain store.
    ///
    /// Inside a running transaction, initialize through [`crate::Txn::write`]
    /// instead. The version bump lands at once, on an orec shared by
    /// every word that hashes to it, so a word of the running transaction's
    /// own read set that aliases the slot makes it fail validation: a
    /// Conflict abort with nothing else running, recurring on every retry
    /// that reuses the slot, and varying with heap addresses from run to
    /// run. A buffered write charges no more, and its commit stamps the
    /// slot's orecs, so stale readers still abort.
    #[inline]
    pub fn init(&self, v: u64) {
        charge(CostKind::SharedStore);
        let o = orec::orec_for(self.addr());
        Self::lock_orec(o);
        self.cell.store(v, Ordering::Release);
        o.store(orec::make_version(orec::gvc_bump()), Ordering::Release);
    }
}

impl std::fmt::Debug for TxWord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TxWord({})", self.peek())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pto_sim::cost;

    #[test]
    fn store_then_load_roundtrips() {
        let w = TxWord::new(0);
        w.store(123, Ordering::Release);
        assert_eq!(w.load(Ordering::Acquire), 123);
    }

    #[test]
    fn cas_success_and_failure() {
        let w = TxWord::new(5);
        assert_eq!(w.compare_exchange(5, 6, Ordering::SeqCst), Ok(5));
        assert_eq!(w.compare_exchange(5, 7, Ordering::SeqCst), Err(6));
        assert_eq!(w.peek(), 6);
    }

    #[test]
    fn fetch_add_returns_previous() {
        let w = TxWord::new(10);
        assert_eq!(w.fetch_add(5, Ordering::AcqRel), 10);
        assert_eq!(w.peek(), 15);
    }

    #[test]
    fn swap_returns_previous() {
        let w = TxWord::new(1);
        assert_eq!(w.swap(2, Ordering::AcqRel), 1);
        assert_eq!(w.peek(), 2);
    }

    #[test]
    fn seqcst_store_charges_a_fence() {
        let w = TxWord::new(0);
        pto_sim::clock::reset();
        w.store(1, Ordering::Release);
        let rel = pto_sim::now();
        pto_sim::clock::reset();
        w.store(2, Ordering::SeqCst);
        let sc = pto_sim::now();
        assert_eq!(sc - rel, cost::cycles(CostKind::Fence));
    }

    #[test]
    fn failed_cas_charges_penalty() {
        let w = TxWord::new(0);
        pto_sim::clock::reset();
        let _ = w.compare_exchange(0, 1, Ordering::SeqCst);
        let ok_cost = pto_sim::now();
        pto_sim::clock::reset();
        let _ = w.compare_exchange(0, 1, Ordering::SeqCst); // now fails
        let fail_cost = pto_sim::now();
        assert_eq!(fail_cost - ok_cost, cost::cycles(CostKind::CasFail));
    }

    #[test]
    fn concurrent_fetch_adds_are_linearizable() {
        let w = TxWord::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..5_000 {
                        w.fetch_add(1, Ordering::AcqRel);
                    }
                });
            }
        });
        assert_eq!(w.peek(), 20_000);
    }

    #[test]
    fn concurrent_cas_admits_exactly_one_winner() {
        let w = TxWord::new(0);
        let winners = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 1..=8u64 {
                let w = &w;
                let winners = &winners;
                s.spawn(move || {
                    if w.cas(0, t) {
                        winners.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(winners.load(Ordering::Relaxed), 1);
        assert_ne!(w.peek(), 0);
    }
}
