//! # pto-list — Harris's lock-free linked list, PTO-accelerated
//!
//! Harris (DISC'01) is the paper's §2.3 citation for intermediate states
//! kept in "unused bits embedded in the data fields": removal first
//! *marks* the victim's next pointer (logical delete, forcing concurrent
//! inserts after it to fail), then unlinks it. The structure makes a clean
//! study of PTO granularity (§2.5):
//!
//! * [`ListVariant::PtoWhole`] — the entire operation (O(n) traversal plus
//!   update) as one prefix transaction. Maximal elimination (no marking
//!   round trip, no per-step validation), but the read set spans the whole
//!   search path, so conflicts and capacity aborts grow with the list.
//! * [`ListVariant::PtoUpdate`] — traversal outside the transaction,
//!   update phase (validate the `pred → curr` edge, then link/unlink)
//!   inside. Minimal conflict window at the cost of keeping the baseline's
//!   search overhead.
//!
//! Both remove variants fuse mark + unlink into one atomic step — the
//! marked-but-still-linked intermediate state never becomes visible, yet
//! concurrent fallback inserts after the victim still fail because the
//! victim's next-word changes (mark included) under them. The fallback is
//! Harris's original code, untouched; reclamation is epoch-based.

use pto_core::policy::{pto, PtoPolicy, PtoStats};
use pto_core::ConcurrentSet;
use pto_htm::{TxResult, TxWord, Txn};
use pto_mem::epoch::{self, Guard};
use pto_mem::{Pool, NIL};
use std::cell::Cell;
use std::sync::atomic::Ordering;

/// List node; `claim` arbitrates retirement.
#[derive(Default)]
pub struct LNode {
    key: TxWord,
    next: TxWord,
    claim: TxWord,
}

const HEAD: u32 = 0;
const TAIL: u32 = 1;
const KEY_TAIL: u32 = u32::MAX;

#[inline]
fn mk(idx: u32, marked: bool) -> u64 {
    ((idx as u64) << 1) | marked as u64
}

#[inline]
fn idx_of(link: u64) -> u32 {
    (link >> 1) as u32
}

#[inline]
fn marked(link: u64) -> bool {
    link & 1 == 1
}

/// Which implementation runs first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ListVariant {
    LockFree,
    PtoWhole,
    PtoUpdate,
}

/// A sorted linked-list set of `u64` keys (< 2^32 - 2).
pub struct HarrisList {
    nodes: Pool<LNode>,
    variant: ListVariant,
    policy: PtoPolicy,
    pub stats: PtoStats,
}

/// An insert's private node: empty until an attempt has proven the key
/// absent, then reused (its `next` re-initialized) by every later attempt
/// of the same operation, fallback included. An insert that finds its key
/// therefore allocates nothing.
type InsertNode = Cell<Option<u32>>;

struct Edge {
    pred: u32,
    curr: u32,
    /// curr's link word at search time (unmarked).
    curr_link: u64,
}

impl HarrisList {
    pub fn new(variant: ListVariant) -> Self {
        Self::with_policy(variant, PtoPolicy::with_attempts(3))
    }

    pub fn with_policy(variant: ListVariant, policy: PtoPolicy) -> Self {
        let nodes: Pool<LNode> = Pool::new();
        let h = nodes.alloc();
        debug_assert_eq!(h, HEAD);
        let t = nodes.alloc();
        debug_assert_eq!(t, TAIL);
        nodes.get(HEAD).key.init(0);
        nodes.get(HEAD).next.init(mk(TAIL, false));
        nodes.get(HEAD).claim.init(0);
        nodes.get(TAIL).key.init(KEY_TAIL as u64);
        nodes.get(TAIL).next.init(mk(NIL, false));
        nodes.get(TAIL).claim.init(0);
        HarrisList {
            nodes,
            variant,
            policy,
            stats: PtoStats::new(),
        }
    }

    #[inline]
    fn key(&self, n: u32) -> u32 {
        self.nodes.get(n).key.load(Ordering::Acquire) as u32
    }

    #[inline]
    fn next(&self, n: u32) -> &TxWord {
        &self.nodes.get(n).next
    }

    /// Harris search: returns the edge `pred → curr` with
    /// `key(pred) < key ≤ key(curr)`, physically unlinking marked chains.
    fn search(&self, key: u32, _g: &Guard) -> Edge {
        'retry: loop {
            let mut pred = HEAD;
            let mut curr = idx_of(self.next(pred).load(Ordering::Acquire));
            loop {
                let link = self.next(curr).load(Ordering::Acquire);
                if marked(link) {
                    // Unlink the marked node; restart on interference.
                    let succ = idx_of(link);
                    if self
                        .next(pred)
                        .compare_exchange(mk(curr, false), mk(succ, false), Ordering::SeqCst)
                        .is_err()
                    {
                        continue 'retry;
                    }
                    curr = succ;
                    continue;
                }
                if self.key(curr) >= key {
                    return Edge {
                        pred,
                        curr,
                        curr_link: link,
                    };
                }
                pred = curr;
                curr = idx_of(link);
            }
        }
    }

    /// Read-only membership (no unlinking).
    fn lf_contains(&self, key: u32, _g: &Guard) -> bool {
        let mut curr = idx_of(self.next(HEAD).load(Ordering::Acquire));
        loop {
            let link = self.next(curr).load(Ordering::Acquire);
            let k = self.key(curr);
            if k >= key {
                return k == key && !marked(link);
            }
            curr = idx_of(link);
        }
    }

    /// The op's private node, pointed at `succ`; allocated on first use.
    /// `Pool::alloc` touches no `TxWord`, so calling this inside a prefix
    /// cannot abort it.
    fn insert_node(&self, key: u32, succ: u32, node: &InsertNode) -> u32 {
        if let Some(n) = node.get() {
            self.nodes.get(n).next.init(mk(succ, false));
            return n;
        }
        let n = self.nodes.alloc();
        let fresh = self.nodes.get(n);
        fresh.key.init(key as u64);
        fresh.next.init(mk(succ, false));
        fresh.claim.init(0);
        node.set(Some(n));
        n
    }

    /// Retire exactly once (mark winner calls this after ensuring the node
    /// is unlinked).
    fn retire_once(&self, n: u32) {
        if self.nodes.get(n).claim.cas(0, 1) {
            self.nodes.retire(n);
        }
    }

    // ------------------------------------------------------------------
    // Lock-free attempts (Harris's original protocol)
    // ------------------------------------------------------------------

    fn lf_insert_attempt(&self, key: u32, e: &Edge, node: &InsertNode) -> Option<bool> {
        if self.key(e.curr) == key {
            return Some(false);
        }
        let n = self.insert_node(key, e.curr, node);
        if self
            .next(e.pred)
            .compare_exchange(mk(e.curr, false), mk(n, false), Ordering::SeqCst)
            .is_ok()
        {
            Some(true)
        } else {
            None // stale edge: re-search
        }
    }

    fn lf_insert_loop(&self, key: u32, node: &InsertNode) -> bool {
        let g = epoch::pin();
        loop {
            let e = self.search(key, &g);
            if let Some(r) = self.lf_insert_attempt(key, &e, node) {
                return r;
            }
        }
    }

    fn lf_remove_attempt(&self, key: u32, e: &Edge, g: &Guard) -> Option<bool> {
        if self.key(e.curr) != key {
            return Some(false);
        }
        let succ = idx_of(e.curr_link);
        // Logical delete: mark curr's next.
        if self
            .next(e.curr)
            .compare_exchange(mk(succ, false), mk(succ, true), Ordering::SeqCst)
            .is_err()
        {
            return None; // lost the mark race (or succ changed): retry
        }
        // Physical unlink (best effort; searches clean up too).
        let _ = self
            .next(e.pred)
            .compare_exchange(mk(e.curr, false), mk(succ, false), Ordering::SeqCst);
        // Ensure it is unlinked before retiring.
        let _ = self.search(key, g);
        self.retire_once(e.curr);
        Some(true)
    }

    // ------------------------------------------------------------------
    // Prefix transactions
    // ------------------------------------------------------------------

    /// Whole-op search inside the transaction: `(pred, curr, curr's link,
    /// curr's key)`. The key comes back so the update phase never reads it
    /// twice.
    fn tx_search<'e>(&'e self, tx: &mut Txn<'e>, key: u32) -> TxResult<(u32, u32, u64, u32)> {
        let mut pred = HEAD;
        let mut link = tx.read(self.next(pred))?;
        loop {
            if marked(link) {
                // A marked node on the path means cleanup (helping) is due.
                return Err(tx.abort(pto_core::ABORT_HELP));
            }
            let curr = idx_of(link);
            let clink = tx.read(self.next(curr))?;
            let k = tx.read(&self.nodes.get(curr).key)? as u32;
            if k >= key {
                if marked(clink) {
                    return Err(tx.abort(pto_core::ABORT_HELP));
                }
                return Ok((pred, curr, clink, k));
            }
            pred = curr;
            link = clink;
        }
    }

    fn tx_insert_whole<'e>(
        &'e self,
        tx: &mut Txn<'e>,
        key: u32,
        node: &InsertNode,
    ) -> TxResult<bool> {
        let (pred, curr, _, k) = self.tx_search(tx, key)?;
        if k == key {
            return Ok(false);
        }
        let n = self.insert_node(key, curr, node);
        tx.write(self.next(pred), mk(n, false))?;
        tx.fence();
        Ok(true)
    }

    /// Whole-op remove: mark + unlink fused; the marked-but-linked
    /// intermediate state never exists (§2.3's redundant-store
    /// elimination), yet the victim's next-word still changes so stale
    /// fallback CASes on it fail.
    fn tx_remove_whole<'e>(&'e self, tx: &mut Txn<'e>, key: u32) -> TxResult<Option<(bool, u32)>> {
        let (pred, curr, clink, k) = self.tx_search(tx, key)?;
        if k != key {
            return Ok(Some((false, NIL)));
        }
        let succ = idx_of(clink);
        tx.write(self.next(curr), mk(succ, true))?;
        tx.fence();
        tx.write(self.next(pred), mk(succ, false))?;
        tx.fence();
        Ok(Some((true, curr)))
    }

    /// Update-phase insert: validate the searched edge, then link.
    fn tx_insert_update<'e>(&'e self, tx: &mut Txn<'e>, e: &Edge, node: u32) -> TxResult<Option<bool>> {
        let plink = tx.read(self.next(e.pred))?;
        if plink != mk(e.curr, false) {
            return Ok(None); // stale: re-search
        }
        tx.write(self.next(e.pred), mk(node, false))?;
        tx.fence();
        Ok(Some(true))
    }

    fn tx_remove_update<'e>(&'e self, tx: &mut Txn<'e>, e: &Edge) -> TxResult<Option<(bool, u32)>> {
        let plink = tx.read(self.next(e.pred))?;
        let clink = tx.read(self.next(e.curr))?;
        if plink != mk(e.curr, false) || clink != e.curr_link {
            return Ok(None);
        }
        let succ = idx_of(clink);
        tx.write(self.next(e.curr), mk(succ, true))?;
        tx.fence();
        tx.write(self.next(e.pred), mk(succ, false))?;
        tx.fence();
        Ok(Some((true, e.curr)))
    }

    // ------------------------------------------------------------------
    // Drivers
    // ------------------------------------------------------------------

    fn insert_impl(&self, key: u32) -> bool {
        let node = InsertNode::new(None);
        let inserted = match self.variant {
            ListVariant::LockFree => self.lf_insert_loop(key, &node),
            ListVariant::PtoWhole => pto(
                &self.policy,
                &self.stats,
                |tx| self.tx_insert_whole(tx, key, &node),
                || self.lf_insert_loop(key, &node),
            ),
            ListVariant::PtoUpdate => {
                let g = epoch::pin();
                loop {
                    let e = self.search(key, &g);
                    if self.key(e.curr) == key {
                        break false;
                    }
                    let n = self.insert_node(key, e.curr, &node);
                    let out = pto(
                        &self.policy,
                        &self.stats,
                        |tx| self.tx_insert_update(tx, &e, n),
                        || self.lf_insert_attempt(key, &e, &node),
                    );
                    if let Some(r) = out {
                        break r;
                    }
                }
            }
        };
        // Only a successful link publishes the node.
        if let (false, Some(n)) = (inserted, node.get()) {
            self.nodes.free_now(n);
        }
        inserted
    }

    fn remove_impl(&self, key: u32) -> bool {
        match self.variant {
            ListVariant::LockFree => {
                let g = epoch::pin();
                loop {
                    let e = self.search(key, &g);
                    if let Some(r) = self.lf_remove_attempt(key, &e, &g) {
                        return r;
                    }
                }
            }
            ListVariant::PtoWhole => {
                let out = pto(
                    &self.policy,
                    &self.stats,
                    |tx| self.tx_remove_whole(tx, key),
                    || {
                        let g = epoch::pin();
                        loop {
                            let e = self.search(key, &g);
                            if let Some(r) = self.lf_remove_attempt(key, &e, &g) {
                                // Fallback retires internally; report NIL.
                                return Some((r, NIL));
                            }
                        }
                    },
                )
                .expect("whole-op paths always decide");
                let (r, victim) = out;
                if victim != NIL {
                    self.retire_once(victim);
                }
                r
            }
            ListVariant::PtoUpdate => {
                let g = epoch::pin();
                loop {
                    let e = self.search(key, &g);
                    if self.key(e.curr) != key {
                        return false;
                    }
                    let out = pto(
                        &self.policy,
                        &self.stats,
                        |tx| self.tx_remove_update(tx, &e),
                        || self.lf_remove_attempt(key, &e, &g).map(|r| (r, NIL)),
                    );
                    match out {
                        Some((r, victim)) => {
                            if victim != NIL {
                                self.retire_once(victim);
                            }
                            return r;
                        }
                        None => continue,
                    }
                }
            }
        }
    }
}

fn to_stored(key: u64) -> u32 {
    assert!(key < (KEY_TAIL - 1) as u64, "list keys must be < 2^32 - 2");
    key as u32 + 1
}

impl ConcurrentSet for HarrisList {
    fn insert(&self, key: u64) -> bool {
        self.insert_impl(to_stored(key))
    }

    fn remove(&self, key: u64) -> bool {
        self.remove_impl(to_stored(key))
    }

    fn contains(&self, key: u64) -> bool {
        let g = epoch::pin();
        self.lf_contains(to_stored(key), &g)
    }

    fn len(&self) -> usize {
        let mut n = 0;
        let mut curr = idx_of(self.next(HEAD).load(Ordering::Relaxed));
        while curr != TAIL {
            let link = self.next(curr).load(Ordering::Relaxed);
            if !marked(link) {
                n += 1;
            }
            curr = idx_of(link);
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pto_sim::rng::XorShift64;
    use std::collections::BTreeSet;

    const VARIANTS: [ListVariant; 3] = [
        ListVariant::LockFree,
        ListVariant::PtoWhole,
        ListVariant::PtoUpdate,
    ];

    #[test]
    fn set_semantics_all_variants() {
        for v in VARIANTS {
            let l = HarrisList::new(v);
            assert!(!l.contains(5), "{v:?}");
            assert!(l.insert(5), "{v:?}");
            assert!(!l.insert(5), "{v:?}");
            assert!(l.insert(3) && l.insert(9), "{v:?}");
            assert_eq!(l.len(), 3, "{v:?}");
            assert!(l.remove(5), "{v:?}");
            assert!(!l.remove(5), "{v:?}");
            assert!(l.contains(3) && l.contains(9) && !l.contains(5), "{v:?}");
        }
    }

    #[test]
    fn sorted_iteration_order_is_maintained() {
        let l = HarrisList::new(ListVariant::PtoWhole);
        for k in [5u64, 1, 9, 3, 7] {
            l.insert(k);
        }
        let mut curr = idx_of(l.next(HEAD).load(Ordering::Relaxed));
        let mut prev = 0;
        while curr != TAIL {
            let k = l.key(curr);
            assert!(k > prev, "list not sorted");
            prev = k;
            curr = idx_of(l.next(curr).load(Ordering::Relaxed));
        }
    }

    #[test]
    fn oracle_all_variants() {
        for v in VARIANTS {
            let l = HarrisList::new(v);
            let mut oracle = BTreeSet::new();
            let mut rng = XorShift64::new(13 + v as u64);
            for _ in 0..3_000 {
                let k = rng.below(100);
                match rng.below(3) {
                    0 => assert_eq!(l.insert(k), oracle.insert(k), "{v:?} insert {k}"),
                    1 => assert_eq!(l.remove(k), oracle.remove(&k), "{v:?} remove {k}"),
                    _ => assert_eq!(l.contains(k), oracle.contains(&k), "{v:?} contains {k}"),
                }
            }
            assert_eq!(l.len(), oracle.len(), "{v:?}");
        }
    }

    fn concurrent_stress(l: &HarrisList, nthreads: usize, ops: usize, range: u64) {
        std::thread::scope(|s| {
            for t in 0..nthreads {
                let l = &l;
                s.spawn(move || {
                    let mut rng = XorShift64::new((t as u64 + 1) * 48611);
                    for _ in 0..ops {
                        let k = rng.below(range);
                        match rng.below(4) {
                            0 | 1 => {
                                l.insert(k);
                            }
                            2 => {
                                l.remove(k);
                            }
                            _ => {
                                l.contains(k);
                            }
                        }
                    }
                });
            }
        });
        // Post-stress: level list sorted, no reachable marked nodes.
        let mut curr = idx_of(l.next(HEAD).load(Ordering::Relaxed));
        let mut prev = 0;
        while curr != TAIL {
            let link = l.next(curr).load(Ordering::Relaxed);
            assert!(!marked(link), "reachable marked node");
            let k = l.key(curr);
            assert!(k > prev, "unsorted after stress");
            prev = k;
            curr = idx_of(link);
        }
    }

    #[test]
    fn concurrent_stress_all_variants() {
        for v in VARIANTS {
            let l = HarrisList::new(v);
            concurrent_stress(&l, 4, 1_500, 64);
        }
    }

    #[test]
    fn concurrent_exclusive_remove() {
        use std::sync::atomic::AtomicU64;
        let l = HarrisList::new(ListVariant::PtoUpdate);
        for k in 0..300 {
            l.insert(k);
        }
        let wins = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let l = &l;
                let wins = &wins;
                s.spawn(move || {
                    for k in 0..300 {
                        if l.remove(k) {
                            wins.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(wins.load(Ordering::Relaxed), 300);
        assert_eq!(l.len(), 0);
    }

    #[test]
    fn update_granularity_beats_whole_op_under_contention_cost() {
        // §2.5's granularity trade: on a long list the whole-op prefix has
        // a giant read set (conflict-prone), the update-phase prefix a tiny
        // one. Compare abort behaviour under concurrent updates.
        let whole = HarrisList::new(ListVariant::PtoWhole);
        let update = HarrisList::new(ListVariant::PtoUpdate);
        for l in [&whole, &update] {
            for k in 0..256 {
                l.insert(k * 2);
            }
        }
        for l in [&whole, &update] {
            std::thread::scope(|s| {
                for t in 0..4u64 {
                    s.spawn(move || {
                        let mut rng = XorShift64::new(t + 1);
                        for _ in 0..800 {
                            let k = rng.below(512);
                            if rng.chance(1, 2) {
                                l.insert(k);
                            } else {
                                l.remove(k);
                            }
                        }
                    });
                }
            });
        }
        let whole_rate = whole.stats.fast_rate();
        let update_rate = update.stats.fast_rate();
        assert!(
            update_rate >= whole_rate,
            "update-phase fast rate ({update_rate:.2}) should be ≥ whole-op ({whole_rate:.2})"
        );
    }

    #[test]
    fn present_key_insert_allocates_nothing() {
        for v in VARIANTS {
            let l = HarrisList::new(v);
            assert!(l.insert(5), "{v:?}");
            let (high, live) = (l.nodes.high_water(), l.nodes.live());
            assert!(!l.insert(5), "{v:?} duplicate");
            assert_eq!(l.nodes.high_water(), high, "{v:?}: duplicate allocated");
            assert_eq!(l.nodes.live(), live, "{v:?}: duplicate changed live");
        }
    }

    #[test]
    fn fallback_inserts_keep_exactly_one_node_each() {
        // Every prefix attempt aborts, so each insert links from its
        // fallback; the node made before the prefix must be the one linked.
        for v in VARIANTS {
            let l = HarrisList::with_policy(v, PtoPolicy::with_attempts(1).with_chaos(100));
            let live = l.nodes.live();
            for k in 0..50 {
                assert!(l.insert(k), "{v:?}");
            }
            assert_eq!(l.nodes.live(), live + 50, "{v:?}");
            assert_eq!(l.len(), 50, "{v:?}");
        }
    }

    #[test]
    #[should_panic(expected = "keys must be")]
    fn rejects_reserved_keys() {
        HarrisList::new(ListVariant::LockFree).insert(u64::MAX);
    }
}

#[cfg(test)]
mod cause_observability {
    use super::*;
    use pto_core::ConcurrentSet;

    #[test]
    fn chaos_aborts_land_in_the_spurious_bucket() {
        let l = HarrisList::with_policy(ListVariant::PtoWhole, PtoPolicy::with_attempts(2).with_chaos(100));
        assert!(l.insert(3));
        assert!(l.contains(3));
        let stats = &l.stats;
        assert!(stats.causes.spurious.get() > 0);
        assert_eq!(stats.causes.total(), stats.aborted_attempts.get());
    }
}
