//! # pto-msqueue — the Michael–Scott queue, PTO-accelerated
//!
//! The paper's §2.3 names two optimization classes and cites the MS queue
//! for both:
//!
//! * **Eliminating redundant loads** — "double-checking is a technique
//!   used in many concurrent data structures \[35\]": the MS dequeue
//!   re-reads `head` after reading `head.next` to ensure a consistent
//!   pair. Inside a prefix transaction a single read suffices; any
//!   conflicting write aborts the transaction.
//! * **Eliminating redundant stores** — hazard-pointer maintenance
//!   ("insertion followed by removal" on the hazard list) is dead work
//!   inside a transaction; opacity already protects against reclamation.
//!
//! The lock-free baseline is Michael & Scott (PODC'96) with Michael's
//! hazard-pointer reclamation: every operation publishes (store+fence) and
//! clears hazards and double-checks its snapshots. The PTO front runs the
//! whole operation as one transaction with none of that, plus it folds the
//! MS queue's separate tail-swing CAS into the same transaction. On abort,
//! the untouched baseline runs — lock-freedom is preserved.

use pto_core::compose::Anchor;
use pto_core::policy::{pto, PtoPolicy, PtoStats};
use pto_core::traits::FifoQueue;
use pto_htm::{TxResult, TxWord, Txn};
use pto_mem::{HazardDomain, Pool, NIL};
use std::sync::atomic::Ordering;

/// A queue node. Recycled through hazard-pointer reclamation.
#[derive(Default)]
pub struct QNode {
    value: TxWord,
    next: TxWord,
}

/// Hazard slot roles.
const HP_HEAD: usize = 0;
const HP_NEXT: usize = 1;
const HP_TAIL: usize = 2;

/// Which implementation runs first.
// One long-lived instance per structure; `PtoStats` is cache-padded by
// design, so the size gap between variants is deliberate.
#[allow(clippy::large_enum_variant)]
enum Mode {
    LockFree,
    Pto { policy: PtoPolicy, stats: PtoStats },
}

/// An MPMC FIFO queue of `u64` values.
pub struct MsQueue {
    nodes: Pool<QNode>,
    hp: HazardDomain,
    head: TxWord,
    tail: TxWord,
    mode: Mode,
    anchor: Anchor,
}

impl MsQueue {
    fn with_mode(mode: Mode) -> Self {
        let nodes: Pool<QNode> = Pool::new();
        let dummy = nodes.alloc();
        nodes.get(dummy).value.init(0);
        nodes.get(dummy).next.init(NIL as u64);
        MsQueue {
            head: TxWord::new(dummy as u64),
            tail: TxWord::new(dummy as u64),
            nodes,
            hp: HazardDomain::new(),
            mode,
            anchor: Anchor::new(),
        }
    }

    /// The lock-free baseline (hazard pointers, double-checked snapshots).
    pub fn new_lockfree() -> Self {
        Self::with_mode(Mode::LockFree)
    }

    /// PTO with 3 prefix attempts before the baseline runs.
    pub fn new_pto() -> Self {
        Self::new_pto_with(PtoPolicy::with_attempts(3))
    }

    pub fn new_pto_with(policy: PtoPolicy) -> Self {
        Self::with_mode(Mode::Pto {
            policy,
            stats: PtoStats::new(),
        })
    }

    pub fn pto_stats(&self) -> Option<&PtoStats> {
        match &self.mode {
            Mode::LockFree => None,
            Mode::Pto { stats, .. } => Some(stats),
        }
    }

    #[inline]
    fn next_of(&self, n: u32) -> &TxWord {
        &self.nodes.get(n).next
    }

    /// Publish a hazard for the node a shared word currently points at,
    /// with Michael's validate-after-publish loop.
    fn protect_from(&self, slot: usize, word: &TxWord) -> u32 {
        loop {
            let n = word.load(Ordering::Acquire) as u32;
            self.hp.protect(slot, n);
            if word.load(Ordering::Acquire) as u32 == n {
                return n;
            }
        }
    }

    // ------------------------------------------------------------------
    // Lock-free baseline
    // ------------------------------------------------------------------

    fn lf_enqueue(&self, node: u32) {
        loop {
            let t = self.protect_from(HP_TAIL, &self.tail);
            let next = self.next_of(t).load(Ordering::Acquire) as u32;
            // Double-check: tail may have moved while we read its next.
            if self.tail.load(Ordering::Acquire) as u32 != t {
                continue;
            }
            if next != NIL {
                // Lagging tail: help swing it.
                let _ = self.tail.compare_exchange(t as u64, next as u64, Ordering::SeqCst);
                continue;
            }
            if self
                .next_of(t)
                .compare_exchange(NIL as u64, node as u64, Ordering::SeqCst)
                .is_ok()
            {
                let _ = self.tail.compare_exchange(t as u64, node as u64, Ordering::SeqCst);
                self.hp.clear(HP_TAIL);
                return;
            }
        }
    }

    fn lf_dequeue(&self) -> Option<u64> {
        loop {
            let h = self.protect_from(HP_HEAD, &self.head);
            let t = self.tail.load(Ordering::Acquire) as u32;
            let next = self.next_of(h).load(Ordering::Acquire) as u32;
            if next != NIL {
                self.hp.protect(HP_NEXT, next);
            }
            // Double-check (§2.3's cited pattern): head must not have moved
            // between the head read and the next read.
            if self.head.load(Ordering::Acquire) as u32 != h {
                continue;
            }
            if next == NIL {
                self.hp.clear(HP_HEAD);
                return None;
            }
            if h == t {
                let _ = self.tail.compare_exchange(t as u64, next as u64, Ordering::SeqCst);
                continue;
            }
            let v = self.nodes.get(next).value.load(Ordering::Acquire);
            if self
                .head
                .compare_exchange(h as u64, next as u64, Ordering::SeqCst)
                .is_ok()
            {
                self.hp.clear(HP_HEAD);
                self.hp.clear(HP_NEXT);
                self.hp.retire(&self.nodes, h);
                return Some(v);
            }
        }
    }

    // ------------------------------------------------------------------
    // Prefix transactions
    // ------------------------------------------------------------------

    /// Enqueue prefix: single reads (no double-check), no hazards, and the
    /// tail swing folded into the same atomic step.
    fn tx_enqueue<'e>(&'e self, tx: &mut Txn<'e>, node: u32) -> TxResult<()> {
        let t = tx.read(&self.tail)? as u32;
        let next = tx.read(self.next_of(t))? as u32;
        if next != NIL {
            // A lagging tail means an enqueue needs helping: abort (§2.4).
            return Err(tx.abort(pto_core::ABORT_HELP));
        }
        tx.write(self.next_of(t), node as u64)?;
        tx.fence();
        tx.write(&self.tail, node as u64)?;
        tx.fence();
        Ok(())
    }

    /// Dequeue prefix: returns the value and the dummy to retire.
    fn tx_dequeue<'e>(&'e self, tx: &mut Txn<'e>) -> TxResult<Option<(u64, u32)>> {
        let h = tx.read(&self.head)? as u32;
        let next = tx.read(self.next_of(h))? as u32;
        if next == NIL {
            return Ok(None);
        }
        let t = tx.read(&self.tail)? as u32;
        if h == t {
            // Fix the lagging tail within the transaction.
            tx.write(&self.tail, next as u64)?;
        }
        let v = tx.read(&self.nodes.get(next).value)?;
        tx.write(&self.head, next as u64)?;
        tx.fence();
        Ok(Some((v, h)))
    }
}

impl FifoQueue for MsQueue {
    fn enqueue(&self, value: u64) {
        let node = self.nodes.alloc();
        self.nodes.get(node).value.init(value);
        self.nodes.get(node).next.init(NIL as u64);
        match &self.mode {
            Mode::LockFree => self.lf_enqueue(node),
            Mode::Pto { policy, stats } => pto(
                policy,
                stats,
                |tx| self.tx_enqueue(tx, node),
                || self.lf_enqueue(node),
            ),
        }
    }

    fn dequeue(&self) -> Option<u64> {
        match &self.mode {
            Mode::LockFree => self.lf_dequeue(),
            Mode::Pto { policy, stats } => {
                let out = pto(
                    policy,
                    stats,
                    |tx| self.tx_dequeue(tx),
                    || self.lf_dequeue().map(|v| (v, NIL)),
                );
                match out {
                    Some((v, dummy)) => {
                        if dummy != NIL {
                            // Fast path: retire the displaced dummy (the
                            // fallback already retired its own).
                            self.hp.retire(&self.nodes, dummy);
                        }
                        Some(v)
                    }
                    None => None,
                }
            }
        }
    }
}

/// Compose surface ([`pto_core::compose`]): transactional halves and
/// anchored-fallback halves for cross-structure operations. These are the
/// building blocks a `Composed` site assembles; they are not meant for
/// direct standalone use (hence `doc(hidden)`), because on their own they
/// provide neither retries nor the fallback's anchor locks.
impl MsQueue {
    /// This queue's participation anchor for composed operations.
    pub fn anchor(&self) -> &Anchor {
        &self.anchor
    }

    /// Allocate and initialize a node outside the prefix loop (allocation
    /// is not transactional; the node is private until linked).
    #[doc(hidden)]
    pub fn compose_alloc(&self, value: u64) -> u32 {
        let node = self.nodes.alloc();
        self.nodes.get(node).value.init(value);
        self.nodes.get(node).next.init(NIL as u64);
        node
    }

    /// Return an allocated-but-never-linked node to the pool (e.g. the
    /// composed op decided not to enqueue).
    #[doc(hidden)]
    pub fn compose_release(&self, node: u32) {
        self.nodes.free_now(node);
    }

    /// Transactional enqueue half over a node from [`compose_alloc`].
    #[doc(hidden)]
    pub fn tx_enqueue_node<'e>(&'e self, tx: &mut Txn<'e>, node: u32) -> TxResult<()> {
        self.anchor.tx_check(tx)?;
        self.tx_enqueue(tx, node)
    }

    /// A racy glimpse of the value a dequeue would currently return, or
    /// `None` when the queue looks empty. **Not linearizable** — composed
    /// pop-and-insert uses it to pre-build the insert half outside the
    /// prefix, and the prefix re-validates by comparing the transactional
    /// dequeue's value against the guess (aborting on mismatch).
    #[doc(hidden)]
    pub fn compose_peek(&self) -> Option<u64> {
        let dummy = self.head.load(Ordering::Acquire) as u32;
        let next = self.next_of(dummy).load(Ordering::Acquire) as u32;
        if next == NIL {
            None
        } else {
            Some(self.nodes.get(next).value.load(Ordering::Acquire))
        }
    }

    /// Transactional dequeue half; `Some((value, dummy))` on success. The
    /// caller must pass `dummy` to [`compose_retire`] **after** the
    /// composed transaction commits.
    #[doc(hidden)]
    pub fn tx_dequeue_raw<'e>(&'e self, tx: &mut Txn<'e>) -> TxResult<Option<(u64, u32)>> {
        self.anchor.tx_check(tx)?;
        self.tx_dequeue(tx)
    }

    /// Retire the dummy displaced by a committed [`tx_dequeue_raw`].
    #[doc(hidden)]
    pub fn compose_retire(&self, dummy: u32) {
        self.hp.retire(&self.nodes, dummy);
    }

    /// Fallback enqueue half (the lock-free baseline; runs under the
    /// composed op's anchors).
    #[doc(hidden)]
    pub fn fallback_enqueue(&self, node: u32) {
        self.lf_enqueue(node);
    }

    /// Fallback dequeue half (retires its own dummy).
    #[doc(hidden)]
    pub fn fallback_dequeue(&self) -> Option<u64> {
        self.lf_dequeue()
    }
}

impl MsQueue {
    /// Number of queued elements (quiescent walk; diagnostics).
    pub fn len(&self) -> usize {
        let mut n = 0;
        let mut cur = self.head.load(Ordering::Relaxed) as u32;
        loop {
            let next = self.next_of(cur).load(Ordering::Relaxed) as u32;
            if next == NIL {
                return n;
            }
            n += 1;
            cur = next;
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pto_sim::rng::XorShift64;
    use std::collections::VecDeque;

    fn fifo_order(q: &MsQueue) {
        assert_eq!(q.dequeue(), None);
        for v in [10u64, 20, 30] {
            q.enqueue(v);
        }
        assert_eq!(q.len(), 3);
        assert_eq!(q.dequeue(), Some(10));
        q.enqueue(40);
        assert_eq!(q.dequeue(), Some(20));
        assert_eq!(q.dequeue(), Some(30));
        assert_eq!(q.dequeue(), Some(40));
        assert_eq!(q.dequeue(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn fifo_order_lockfree() {
        fifo_order(&MsQueue::new_lockfree());
    }

    #[test]
    fn fifo_order_pto() {
        let q = MsQueue::new_pto();
        fifo_order(&q);
        assert!(q.pto_stats().unwrap().fast.get() > 0);
    }

    #[test]
    fn matches_vecdeque_oracle() {
        for q in [MsQueue::new_lockfree(), MsQueue::new_pto()] {
            let mut oracle = VecDeque::new();
            let mut rng = XorShift64::new(2718);
            for _ in 0..5_000 {
                if rng.chance(3, 5) {
                    let v = rng.next_u64();
                    q.enqueue(v);
                    oracle.push_back(v);
                } else {
                    assert_eq!(q.dequeue(), oracle.pop_front());
                }
            }
            assert_eq!(q.len(), oracle.len());
        }
    }

    fn mpmc_conservation_and_order(q: &MsQueue, producers: usize, consumers: usize, per: u64) {
        use std::sync::atomic::AtomicU64;
        // Values encode (producer, seq); consumers check per-producer FIFO.
        let consumed = AtomicU64::new(0);
        let done_producing = AtomicU64::new(0);
        std::thread::scope(|s| {
            for p in 0..producers as u64 {
                let q = &q;
                let done = &done_producing;
                s.spawn(move || {
                    for seq in 0..per {
                        q.enqueue(p << 32 | seq);
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                });
            }
            for _ in 0..consumers {
                let q = &q;
                let consumed = &consumed;
                let done = &done_producing;
                s.spawn(move || {
                    let mut last = vec![None::<u64>; producers];
                    loop {
                        match q.dequeue() {
                            Some(v) => {
                                let (p, seq) = ((v >> 32) as usize, v & 0xFFFF_FFFF);
                                if let Some(prev) = last[p] {
                                    assert!(seq > prev, "per-producer FIFO violated");
                                }
                                last[p] = Some(seq);
                                consumed.fetch_add(1, Ordering::Relaxed);
                            }
                            None => {
                                if done.load(Ordering::Relaxed) == producers as u64
                                    && consumed.load(Ordering::Relaxed)
                                        >= producers as u64 * per
                                {
                                    break;
                                }
                                std::hint::spin_loop();
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(consumed.load(Ordering::Relaxed), producers as u64 * per);
        assert!(q.is_empty());
    }

    #[test]
    fn mpmc_lockfree() {
        let q = MsQueue::new_lockfree();
        mpmc_conservation_and_order(&q, 2, 2, 2_000);
    }

    #[test]
    fn mpmc_pto() {
        let q = MsQueue::new_pto();
        mpmc_conservation_and_order(&q, 2, 2, 2_000);
    }

    #[test]
    fn mpmc_pto_zero_attempts_equals_lockfree() {
        let q = MsQueue::new_pto_with(PtoPolicy::with_attempts(0));
        mpmc_conservation_and_order(&q, 2, 2, 1_000);
        assert_eq!(q.pto_stats().unwrap().fast.get(), 0);
    }

    #[test]
    fn pto_elides_hazards_and_double_checks() {
        // §2.3 reproduced as a cost property: the transactional round trip
        // (begin+end = 34 cycles) must undercut the hazard traffic and
        // double-checking it replaces (≥ 2 protects = 52+, plus re-reads).
        let lf = MsQueue::new_lockfree();
        let pt = MsQueue::new_pto();
        for i in 0..64 {
            lf.enqueue(i);
            pt.enqueue(i);
        }
        pto_sim::clock::reset();
        for i in 0..1_000 {
            lf.enqueue(i);
            lf.dequeue();
        }
        let lf_cost = pto_sim::now();
        pto_sim::clock::reset();
        for i in 0..1_000 {
            pt.enqueue(i);
            pt.dequeue();
        }
        let pto_cost = pto_sim::now();
        assert!(
            (pto_cost as f64) < 0.85 * lf_cost as f64,
            "PTO queue ({pto_cost}) should clearly beat lock-free ({lf_cost})"
        );
    }

    #[test]
    fn values_use_the_full_u64_range() {
        let q = MsQueue::new_pto();
        q.enqueue(u64::MAX);
        q.enqueue(0);
        assert_eq!(q.dequeue(), Some(u64::MAX));
        assert_eq!(q.dequeue(), Some(0));
    }
}

#[cfg(test)]
mod cause_observability {
    use super::*;
    use pto_core::FifoQueue;

    #[test]
    fn chaos_aborts_land_in_the_spurious_bucket() {
        let q = MsQueue::new_pto_with(PtoPolicy::with_attempts(2).with_chaos(100));
        q.enqueue(11);
        assert_eq!(q.dequeue(), Some(11));
        let stats = q.pto_stats().unwrap();
        assert!(stats.causes.spurious.get() > 0);
        assert_eq!(stats.causes.total(), stats.aborted_attempts.get());
        assert_eq!(stats.causes.conflict.get(), 0);
    }
}
