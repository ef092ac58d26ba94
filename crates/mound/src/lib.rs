//! # pto-mound — the Mound priority queue (§3.1, §4.2, Figures 2(b), 5(b))
//!
//! The Mound (Liu & Spear, ICPP'12) is a heap-like priority queue: a static
//! complete binary tree whose nodes each hold a *sorted list*, with the
//! mound property `val(parent) ≤ val(child)` where `val` is the head of the
//! node's list (∞ for an empty list).
//!
//! * **insert(v)** — pick a random leaf with `val ≥ v`, binary-search the
//!   leaf→root path for the highest node `n` with `val(n) ≥ v` and
//!   `val(parent(n)) < v`, and prepend `v` to `n`'s list with a **DCSS**
//!   (condition: parent unchanged; target: `n`'s packed word). One list
//!   cell serves every attempt of a push: it stays private until the CAS
//!   or DCSS that publishes it succeeds, so a lost attempt rewrites only
//!   its `next`.
//! * **removeMin()** — pop the head of the root's list with a CAS (marking
//!   the root *dirty*), then restore the mound property top-down
//!   (`moundify`): each step swaps a node's list with its smaller child's
//!   via **DCAS**, pushing the dirty bit down until it clears.
//!
//! The paper applies PTO **locally to the DCSS/DCAS sub-operations** (whole
//! operations do not benefit: inserts are already one streamlined DCSS, and
//! removals all contend at the root). Each software DCAS costs up to five
//! CASes plus descriptor traffic; the prefix transaction does two reads and
//! two writes. Four attempts before fallback — the paper's tuned value.
//! Descriptors are reused, so PTO gains nothing from allocation here
//! (§4.6) — the win is fences and redundant descriptor stores, which is why
//! the Figure 5(b) ablation (keep fences) erases most of the Mound's
//! improvement.
//!
//! Node words pack `(list-head index, dirty, counter)` into ≤ 62 bits
//! (kcas-managed words reserve the top two bits for descriptor tags). The
//! counter is bumped on every write, so each step can trust the words it
//! already holds: `insert` hands the words its search read to the root CAS
//! or the DCSS, and `moundify` carries the word its DCAS wrote into the
//! child to the next level. A carried word is only ever an expected value,
//! and no list cell is recycled while the op holds its epoch pin, so a
//! stale word costs one failed attempt, never a wrong write.

use pto_core::compose::Anchor;
use pto_core::kcas::{self, DcssResult, Heap};
use pto_core::policy::{pto, PtoPolicy, PtoStats};
use pto_core::PriorityQueue;
use pto_htm::TxWord;
use pto_mem::epoch;
use pto_mem::{Pool, NIL};
use std::sync::atomic::Ordering;

/// `val()` of an empty list: +∞.
const INF: u32 = u32::MAX;

// Node word layout: [counter:29][dirty:1][list:32]
const DIRTY_BIT: u64 = 1 << 32;
const CNT_SHIFT: u32 = 33;

#[inline]
fn pack(list: u32, dirty: bool, cnt: u64) -> u64 {
    let w = ((cnt & ((1 << 29) - 1)) << CNT_SHIFT)
        | if dirty { DIRTY_BIT } else { 0 }
        | list as u64;
    debug_assert!(w <= kcas::MAX_VALUE);
    w
}

#[inline]
fn list_of(w: u64) -> u32 {
    w as u32
}

#[inline]
fn is_dirty(w: u64) -> bool {
    w & DIRTY_BIT != 0
}

#[inline]
fn cnt_of(w: u64) -> u64 {
    w >> CNT_SHIFT
}

/// A sorted-list cell. Immutable once published; recycled through the
/// epoch-deferred pool.
#[derive(Default)]
pub struct LNode {
    value: TxWord,
    next: TxWord,
}

/// Which DCSS/DCAS implementation the Mound runs on.
// One long-lived instance per structure; `PtoStats` is cache-padded by
// design, so the size gap between variants is deliberate.
#[allow(clippy::large_enum_variant)]
enum Prims {
    /// Software descriptors + CAS sequences (the lock-free baseline).
    Software,
    /// PTO: prefix transaction, software fallback.
    Pto { policy: PtoPolicy, stats: PtoStats },
}

/// Per-lane leaf-probe stream: the call-site constant for
/// [`pto_sim::rng::lane_draw`], which reseeds from `(site, stream key,
/// gate lane)` so probes are reproducible per lane and uncorrelated
/// across 64–512 lanes (the first-use-order `WeylSeq` scheme this
/// replaces was audited broken at that scale).
const PROBE_SITE: u64 = 0xA076_1D64_78BD_642F;

thread_local! {
    static PROBE_SLOT: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
}

/// Consecutive failed random-leaf draws before the tree grows a level
/// (the ICPP'12 Mound grows on exactly this trigger).
const GROW_THRESHOLD: u32 = 8;

/// The Mound. Construct with [`Mound::new_lockfree`] or [`Mound::new_pto`].
///
/// ```
/// use pto_core::PriorityQueue;
/// use pto_mound::Mound;
///
/// let q = Mound::new_pto(16); // PTO on the DCSS/DCAS sub-operations
/// q.push(5);
/// q.push(2);
/// q.push(8);
/// assert_eq!(q.pop_min(), Some(2));
/// assert_eq!(q.peek_min(), Some(5));
/// ```
pub struct Mound {
    tree: Box<[TxWord]>,
    lnodes: Pool<LNode>,
    /// Current number of levels; leaves live at `1 << (depth-1)`. Grows
    /// (up to `max_depth`) when inserts cannot find a leaf with
    /// `val ≥ v` — new leaves are empty (val = ∞), unblocking them.
    depth: TxWord,
    max_depth: u32,
    prims: Prims,
    anchor: Anchor,
}

impl Heap for Mound {
    fn word(&self, loc: u64) -> &TxWord {
        &self.tree[loc as usize]
    }
}

impl Mound {
    fn with_prims(max_depth: u32, prims: Prims) -> Self {
        assert!((3..=22).contains(&max_depth), "depth must be in 3..=22");
        let n = 1usize << max_depth; // nodes 1..n, deepest leaves at n/2..n
        Mound {
            tree: (0..n).map(|_| TxWord::new(pack(NIL, false, 0))).collect(),
            lnodes: Pool::new(),
            depth: TxWord::new(3),
            max_depth,
            prims,
            anchor: Anchor::new(),
        }
    }

    /// The lock-free baseline (software DCSS/DCAS).
    pub fn new_lockfree(depth: u32) -> Self {
        Self::with_prims(depth, Prims::Software)
    }

    /// The PTO-accelerated Mound with the paper's tuned 4 attempts.
    pub fn new_pto(depth: u32) -> Self {
        Self::with_prims(
            depth,
            Prims::Pto {
                policy: PtoPolicy::with_attempts(4),
                stats: PtoStats::new(),
            },
        )
    }

    /// PTO with an explicit policy (retry sweeps, fence-mode ablation).
    pub fn new_pto_with(depth: u32, policy: PtoPolicy) -> Self {
        Self::with_prims(
            depth,
            Prims::Pto {
                policy,
                stats: PtoStats::new(),
            },
        )
    }

    /// PTO fast/fallback counters, if this is a PTO Mound.
    pub fn pto_stats(&self) -> Option<&PtoStats> {
        match &self.prims {
            Prims::Software => None,
            Prims::Pto { stats, .. } => Some(stats),
        }
    }

    #[inline]
    fn active_depth(&self) -> u32 {
        self.depth.load(Ordering::Acquire) as u32
    }

    /// Add a level (new empty leaves) — called when leaf draws keep
    /// finding `val < v`. Panics when `max_depth` is exhausted.
    fn grow(&self, observed: u32) {
        assert!(
            observed < self.max_depth,
            "Mound overflow: cannot grow past max depth {}",
            self.max_depth
        );
        let _ = self
            .depth
            .compare_exchange(observed as u64, observed as u64 + 1, Ordering::SeqCst);
    }

    // -- primitive dispatch ------------------------------------------------

    fn dcss_op(&self, cond_loc: u64, cond_exp: u64, t: u64, e: u64, n: u64) -> DcssResult {
        match &self.prims {
            Prims::Software => kcas::dcss(self, cond_loc, cond_exp, t, e, n),
            Prims::Pto { policy, stats } => {
                kcas::dcss_pto(self, policy, stats, cond_loc, cond_exp, t, e, n)
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn dcas_op(&self, l1: u64, o1: u64, n1: u64, l2: u64, o2: u64, n2: u64) -> bool {
        match &self.prims {
            Prims::Software => kcas::dcas(self, l1, o1, n1, l2, o2, n2),
            Prims::Pto { policy, stats } => {
                kcas::dcas_pto(self, policy, stats, l1, o1, n1, l2, o2, n2)
            }
        }
    }

    // -- val helpers ---------------------------------------------------

    /// Head value of the list in node word `w` (INF when empty). The caller
    /// must hold an epoch guard (fallback) — list cells are epoch-retired.
    fn word_val(&self, w: u64) -> u32 {
        let li = list_of(w);
        if li == NIL {
            INF
        } else {
            self.lnodes.get(li).value.load(Ordering::Acquire) as u32
        }
    }

    // -- insert ---------------------------------------------------------

    /// Binary search the root→`leaf` path for the highest node with
    /// `val ≥ v` (the path is value-sorted under the mound property).
    /// `c_leaf` is the leaf's word (`val ≥ v`). Returns that node, the word
    /// read there and, below the root, the word read at its parent.
    fn find_insert_point(&self, leaf: usize, c_leaf: u64, v: u32, depth: u32) -> (usize, u64, u64) {
        // Path positions: 0 = root, depth-1 = leaf. Node at position k:
        // leaf >> (depth-1-k).
        let d = depth - 1;
        let mut lo = 0u32; // highest known position with val >= v is >= lo
        let mut hi = d; // leaf position
        let (mut c_hi, mut c_lo_parent) = (c_leaf, 0);
        // Invariant target: smallest position p such that val(node(p)) >= v.
        while lo < hi {
            let mid = (lo + hi) / 2;
            let c = kcas::read(self, (leaf >> (d - mid)) as u64);
            if self.word_val(c) >= v {
                (hi, c_hi) = (mid, c);
            } else {
                (lo, c_lo_parent) = (mid + 1, c);
            }
        }
        (leaf >> (d - lo), c_hi, c_lo_parent)
    }

    fn insert(&self, v: u32) {
        assert!(v < INF, "Mound keys must be < 2^32 - 1");
        let _g = epoch::pin();
        let ln = self.lnodes.alloc(); // private until published; serves every attempt
        let cell = self.lnodes.get(ln);
        cell.value.init(v as u64);
        let mut failed_draws = 0;
        loop {
            let depth = self.active_depth();
            let leaves = 1usize << (depth - 1);
            let leaf = leaves
                + PROBE_SLOT.with(|s| {
                    pto_sim::rng::lane_draw_below(PROBE_SITE, s, leaves as u64)
                }) as usize;
            let c_leaf = kcas::read(self, leaf as u64);
            if self.word_val(c_leaf) < v {
                // Re-draw; after a streak of occupied leaves, grow the tree
                // so fresh (empty, val = ∞) leaves appear.
                failed_draws += 1;
                if failed_draws >= GROW_THRESHOLD {
                    self.grow(depth);
                    failed_draws = 0;
                }
                continue;
            }
            let (n, c_n, c_p) = self.find_insert_point(leaf, c_leaf, v, depth);
            cell.next.init(list_of(c_n) as u64);
            let new_word = pack(ln, is_dirty(c_n), cnt_of(c_n) + 1);
            let ok = if n == 1 {
                // Root has no parent: a plain CAS suffices.
                self.tree[1].compare_exchange(c_n, new_word, Ordering::SeqCst).is_ok()
            } else {
                self.dcss_op((n / 2) as u64, c_p, n as u64, c_n, new_word) == DcssResult::Success
            };
            if ok {
                return;
            }
        }
    }

    // -- removeMin -------------------------------------------------------

    fn remove_min(&self) -> Option<u32> {
        let _g = epoch::pin();
        loop {
            let c = kcas::read(self, 1);
            if is_dirty(c) {
                // A prior removal is mid-moundify: help finish it.
                self.moundify(1);
                continue;
            }
            let li = list_of(c);
            if li == NIL {
                // Clean empty root ⟹ empty mound (mound property).
                return None;
            }
            let head = self.lnodes.get(li);
            let v = head.value.load(Ordering::Acquire) as u32;
            let next = head.next.load(Ordering::Acquire) as u32;
            let new_word = pack(next, true, cnt_of(c) + 1);
            if self.tree[1].compare_exchange(c, new_word, Ordering::SeqCst).is_ok() {
                self.lnodes.retire(li);
                self.moundify(1);
                return Some(v);
            }
        }
    }

    /// Restore the mound property below `n` (which may be dirty), swapping
    /// lists with the smaller child via DCAS and pushing the dirty bit down.
    fn moundify(&self, n: usize) {
        let mut n = n;
        let mut carried = None; // the word our DCAS wrote into `n`, and its head value
        loop {
            let (c, vn) = carried.take().unwrap_or_else(|| (kcas::read(self, n as u64), None));
            if !is_dirty(c) {
                return;
            }
            let left = 2 * n;
            if left >= self.tree.len() {
                // Leaf: nothing below can be violated; just clear dirty.
                let clean = pack(list_of(c), false, cnt_of(c) + 1);
                let _ = self.tree[n].compare_exchange(c, clean, Ordering::SeqCst);
                continue; // re-read (either we cleaned it or someone raced)
            }
            let right = left + 1;
            // A child can itself still be dirty (a previous removal's
            // moundify pushed its bit down and hasn't finished). Its head is
            // then no bound on its subtree, so swapping with it could
            // install a non-minimal "clean" list here. Finish the child
            // first, then re-evaluate. (The transactional pop guards the
            // same case by aborting on a dirty child.)
            let cl = kcas::read(self, left as u64);
            if is_dirty(cl) {
                self.moundify(left);
                continue;
            }
            let cr = kcas::read(self, right as u64);
            if is_dirty(cr) {
                self.moundify(right);
                continue;
            }
            let vn = vn.unwrap_or_else(|| self.word_val(c));
            let vl = self.word_val(cl);
            let vr = self.word_val(cr);
            let (child, cc, vc) = if vl <= vr { (left, cl, vl) } else { (right, cr, vr) };
            if vc < vn {
                // Swap lists: node takes the child's (smaller) list and goes
                // clean; the child takes ours and inherits the dirty bit.
                let new_n = pack(list_of(cc), false, cnt_of(c) + 1);
                let new_c = pack(list_of(c), true, cnt_of(cc) + 1);
                if self.dcas_op(n as u64, c, new_n, child as u64, cc, new_c) {
                    n = child; // continue fixing below
                    carried = Some((new_c, Some(vn)));
                }
                // On failure re-read and retry at the same node.
            } else {
                let clean = pack(list_of(c), false, cnt_of(c) + 1);
                if self.tree[n].compare_exchange(c, clean, Ordering::SeqCst).is_ok() {
                    return;
                }
            }
        }
    }

    // -- whole-operation ablation (§3.1's negative result) ----------------

    /// Transactional whole-removal: pop the root head *and* run the entire
    /// moundify descent inside one transaction. No dirty bit is ever
    /// published. Returns `(value, popped list cell)` on success.
    fn tx_pop_whole<'e>(
        &'e self,
        tx: &mut pto_htm::Txn<'e>,
    ) -> pto_htm::TxResult<Option<(u32, u32)>> {
        let c = tx.read(&self.tree[1])?;
        if kcas::is_ref(c) || is_dirty(c) {
            return Err(tx.abort(pto_core::ABORT_HELP));
        }
        let li = list_of(c);
        if li == NIL {
            return Ok(None);
        }
        let head = self.lnodes.get(li);
        let v = tx.read(&head.value)? as u32;
        let next = tx.read(&head.next)? as u32;
        // Sift the shortened list down until the mound property holds.
        let mut n = 1usize;
        let falling = next; // the shortened list being sifted down
        let mut cnt = cnt_of(c) + 1;
        loop {
            let left = 2 * n;
            if left + 1 >= self.tree.len() {
                tx.write(&self.tree[n], pack(falling, false, cnt))?;
                break;
            }
            let cl = tx.read(&self.tree[left])?;
            let cr = tx.read(&self.tree[left + 1])?;
            if kcas::is_ref(cl) || kcas::is_ref(cr) || is_dirty(cl) || is_dirty(cr) {
                return Err(tx.abort(pto_core::ABORT_HELP));
            }
            let vf = if falling == NIL {
                INF
            } else {
                tx.read(&self.lnodes.get(falling).value)? as u32
            };
            let vl = if list_of(cl) == NIL {
                INF
            } else {
                tx.read(&self.lnodes.get(list_of(cl)).value)? as u32
            };
            let vr = if list_of(cr) == NIL {
                INF
            } else {
                tx.read(&self.lnodes.get(list_of(cr)).value)? as u32
            };
            let (child, cc, vc) = if vl <= vr {
                (left, cl, vl)
            } else {
                (left + 1, cr, vr)
            };
            if vc < vf {
                // Promote the smaller child's list; keep sifting ours down.
                tx.write(&self.tree[n], pack(list_of(cc), false, cnt))?;
                tx.fence();
                n = child;
                cnt = cnt_of(cc) + 1;
            } else {
                tx.write(&self.tree[n], pack(falling, false, cnt))?;
                tx.fence();
                break;
            }
        }
        Ok(Some((v, li)))
    }

    /// The §3.1 ablation: PTO applied to the *entire* removal instead of
    /// the individual DCAS steps. The paper reports this "is not effective
    /// at any level of concurrency, since all concurrent removals contend
    /// at the top of the heap" — `ablation_granularity` measures exactly
    /// that. Falls back to the normal removal.
    pub fn pop_min_whole(&self, policy: &PtoPolicy, stats: &PtoStats) -> Option<u64> {
        let out = pto(
            policy,
            stats,
            |tx| self.tx_pop_whole(tx),
            || {
                let r = self.remove_min();
                r.map(|v| (v, NIL))
            },
        );
        match out {
            Some((v, li)) => {
                if li != NIL {
                    self.lnodes.retire(li);
                }
                Some(v as u64)
            }
            None => None,
        }
    }

    // ------------------------------------------------------------------
    // Compose surface (pto_core::compose)
    // ------------------------------------------------------------------

    /// This mound's participation anchor for composed operations.
    pub fn anchor(&self) -> &Anchor {
        &self.anchor
    }

    /// Transactional pop half for a composed prefix: [`tx_pop_whole`]
    /// (value plus the popped list cell). Pass the cell to
    /// [`compose_retire_cell`] **after** the composed transaction commits.
    ///
    /// [`tx_pop_whole`]: Mound::pop_min_whole
    /// [`compose_retire_cell`]: Mound::compose_retire_cell
    #[doc(hidden)]
    pub fn tx_compose_pop<'e>(
        &'e self,
        tx: &mut pto_htm::Txn<'e>,
    ) -> pto_htm::TxResult<Option<(u32, u32)>> {
        self.anchor.tx_check(tx)?;
        self.tx_pop_whole(tx)
    }

    /// Retire the list cell popped by a committed [`Mound::tx_compose_pop`].
    #[doc(hidden)]
    pub fn compose_retire_cell(&self, li: u32) {
        self.lnodes.retire(li);
    }

    /// Allocate a private list cell for [`Mound::tx_compose_push`] outside
    /// the prefix loop (pool traffic is not transactional). Unused cells go
    /// back via [`Mound::compose_release_cell`].
    #[doc(hidden)]
    pub fn compose_alloc_cell(&self) -> u32 {
        self.lnodes.alloc()
    }

    /// Return a never-published cell from [`Mound::compose_alloc_cell`].
    #[doc(hidden)]
    pub fn compose_release_cell(&self, ln: u32) {
        self.lnodes.free_now(ln);
    }

    /// Transactional push half for a composed prefix. Unlike [`insert`],
    /// which draws a random leaf and binary-searches the path, this walks
    /// deterministically from the root to the first node with `val ≥ v`
    /// (descending by `v`'s bits), prepending `v` there — the walk
    /// invariant (every ancestor has `val < v`) preserves the mound
    /// property. Any state the prefix cannot handle — a kcas descriptor,
    /// a dirty node, or running out of tree — aborts so the composed
    /// fallback ([`PriorityQueue::push`] under the anchors) takes over.
    /// The cell's fields are written transactionally, so an aborted
    /// attempt leaves `ln` private and reusable.
    ///
    /// [`insert`]: PriorityQueue::push
    #[doc(hidden)]
    pub fn tx_compose_push<'e>(
        &'e self,
        tx: &mut pto_htm::Txn<'e>,
        v: u32,
        ln: u32,
    ) -> pto_htm::TxResult<()> {
        assert!(v < INF, "Mound keys must be < 2^32 - 1");
        self.anchor.tx_check(tx)?;
        let mut n = 1usize;
        let mut level = 0u32;
        loop {
            let c = tx.read(&self.tree[n])?;
            if kcas::is_ref(c) || is_dirty(c) {
                return Err(tx.abort(pto_core::ABORT_HELP));
            }
            let li = list_of(c);
            let val = if li == NIL {
                INF
            } else {
                tx.read(&self.lnodes.get(li).value)? as u32
            };
            if val >= v {
                let cell = self.lnodes.get(ln);
                tx.write(&cell.value, v as u64)?;
                tx.write(&cell.next, li as u64)?;
                tx.write(&self.tree[n], pack(ln, false, cnt_of(c) + 1))?;
                tx.fence();
                return Ok(());
            }
            let left = 2 * n;
            if left + 1 >= self.tree.len() {
                // Every node on the walk holds val < v: the fallback's
                // probe-and-grow logic handles a saturated path.
                return Err(tx.abort(pto_core::ABORT_HELP));
            }
            n = left + ((v >> (level & 31)) & 1) as usize;
            level += 1;
        }
    }

    /// Current minimum without removing it.
    fn peek(&self) -> Option<u32> {
        let _g = epoch::pin();
        loop {
            let c = kcas::read(self, 1);
            if is_dirty(c) {
                self.moundify(1);
                continue;
            }
            let v = self.word_val(c);
            return if v == INF { None } else { Some(v) };
        }
    }

    // -- validation helpers (tests / debug) -------------------------------

    /// Check the mound property over the whole tree. Only meaningful in
    /// quiescent states.
    pub fn check_mound_property(&self) -> Result<(), String> {
        for n in 2..self.tree.len() {
            let p = n / 2;
            let (wp, wn) = (kcas::read(self, p as u64), kcas::read(self, n as u64));
            if is_dirty(wp) || is_dirty(wn) {
                return Err(format!("dirty bit leaked at {p} or {n}"));
            }
            let (vp, vn) = (self.word_val(wp), self.word_val(wn));
            if vp > vn {
                return Err(format!("mound violation: val({p})={vp} > val({n})={vn}"));
            }
        }
        Ok(())
    }

    /// Total number of values stored (quiescent-only; walks every list).
    pub fn len(&self) -> usize {
        let mut total = 0;
        for n in 1..self.tree.len() {
            let mut li = list_of(kcas::read(self, n as u64));
            while li != NIL {
                total += 1;
                li = self.lnodes.get(li).next.load(Ordering::Relaxed) as u32;
            }
        }
        total
    }

    pub fn is_empty(&self) -> bool {
        self.peek().is_none()
    }
}

impl PriorityQueue for Mound {
    fn push(&self, key: u64) {
        self.insert(key as u32);
    }

    fn pop_min(&self) -> Option<u64> {
        self.remove_min().map(|v| v as u64)
    }

    fn peek_min(&self) -> Option<u64> {
        self.peek().map(|v| v as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pto_sim::rng::XorShift64;
    use std::collections::BinaryHeap;

    fn drain_sorted(m: &Mound) -> Vec<u32> {
        let mut out = Vec::new();
        while let Some(v) = m.remove_min() {
            out.push(v);
        }
        out
    }

    fn basic_ordering(m: &Mound) {
        for v in [5u64, 3, 9, 1, 7, 3] {
            m.push(v);
        }
        assert_eq!(m.peek_min(), Some(1));
        let got = drain_sorted(m);
        assert_eq!(got, vec![1, 3, 3, 5, 7, 9]);
        assert_eq!(m.pop_min(), None);
        m.check_mound_property().unwrap();
    }

    #[test]
    fn ordering_lockfree() {
        basic_ordering(&Mound::new_lockfree(10));
    }

    #[test]
    fn ordering_pto() {
        let m = Mound::new_pto(10);
        basic_ordering(&m);
    }

    #[test]
    fn empty_pop_returns_none() {
        let m = Mound::new_lockfree(6);
        assert_eq!(m.pop_min(), None);
        assert_eq!(m.peek_min(), None);
        assert!(m.is_empty());
    }

    #[test]
    fn duplicates_are_preserved() {
        let m = Mound::new_lockfree(8);
        for _ in 0..10 {
            m.push(4);
        }
        assert_eq!(m.len(), 10);
        assert_eq!(drain_sorted(&m), vec![4; 10]);
    }

    #[test]
    fn matches_binary_heap_oracle_single_thread() {
        let m = Mound::new_lockfree(14);
        let mut oracle: BinaryHeap<std::cmp::Reverse<u32>> = BinaryHeap::new();
        let mut rng = XorShift64::new(12345);
        for _ in 0..3_000 {
            if rng.chance(1, 2) {
                let v = rng.below(10_000) as u32;
                m.push(v as u64);
                oracle.push(std::cmp::Reverse(v));
            } else {
                let got = m.remove_min();
                let want = oracle.pop().map(|r| r.0);
                assert_eq!(got, want);
            }
        }
        m.check_mound_property().unwrap();
        assert_eq!(m.len(), oracle.len());
    }

    #[test]
    fn pto_matches_binary_heap_oracle_single_thread() {
        let m = Mound::new_pto(14);
        let mut oracle: BinaryHeap<std::cmp::Reverse<u32>> = BinaryHeap::new();
        let mut rng = XorShift64::new(999);
        for _ in 0..3_000 {
            if rng.chance(1, 2) {
                let v = rng.below(10_000) as u32;
                m.push(v as u64);
                oracle.push(std::cmp::Reverse(v));
            } else {
                assert_eq!(m.remove_min(), oracle.pop().map(|r| r.0));
            }
        }
        m.check_mound_property().unwrap();
    }

    fn concurrent_push_pop(m: &Mound, nthreads: usize, per_thread: usize) {
        use std::sync::atomic::{AtomicU64, Ordering as AO};
        let pushed_sum = AtomicU64::new(0);
        let popped_sum = AtomicU64::new(0);
        let pushed_n = AtomicU64::new(0);
        let popped_n = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..nthreads {
                let (ps, os, pn, on) = (&pushed_sum, &popped_sum, &pushed_n, &popped_n);
                s.spawn(move || {
                    let mut rng = XorShift64::new(t as u64 + 1);
                    for _ in 0..per_thread {
                        if rng.chance(1, 2) {
                            let v = rng.below(100_000);
                            m.push(v);
                            ps.fetch_add(v, AO::Relaxed);
                            pn.fetch_add(1, AO::Relaxed);
                        } else if let Some(v) = m.pop_min() {
                            os.fetch_add(v, AO::Relaxed);
                            on.fetch_add(1, AO::Relaxed);
                        }
                    }
                });
            }
        });
        // Drain and check conservation: everything pushed is popped exactly
        // once.
        let mut rest_sum = 0u64;
        let mut rest_n = 0u64;
        let mut last = 0u64;
        while let Some(v) = m.pop_min() {
            assert!(v >= last, "drain not sorted: {v} after {last}");
            last = v;
            rest_sum += v;
            rest_n += 1;
        }
        assert_eq!(
            pushed_n.load(AO::Relaxed),
            popped_n.load(AO::Relaxed) + rest_n,
            "lost or duplicated elements"
        );
        assert_eq!(
            pushed_sum.load(AO::Relaxed),
            popped_sum.load(AO::Relaxed) + rest_sum,
            "value conservation violated"
        );
        m.check_mound_property().unwrap();
    }

    #[test]
    fn concurrent_stress_lockfree() {
        let m = Mound::new_lockfree(16);
        concurrent_push_pop(&m, 4, 1_500);
    }

    #[test]
    fn concurrent_stress_pto() {
        let m = Mound::new_pto(16);
        concurrent_push_pop(&m, 4, 1_500);
        let stats = m.pto_stats().unwrap();
        assert!(stats.fast.get() > 0, "PTO never took the fast path");
    }

    /// Pool events over a `lanes`-lane run of 50/50 push/pop, and the
    /// pushes it made. `Pool::alloc` and `free_now` each emit one
    /// `PoolMagazine` event and `retire` emits none, so the count is
    /// allocations plus immediate frees.
    fn pool_events_and_pushes(m: &Mound, lanes: usize) -> (u64, u64) {
        use pto_sim::obs::{Series, Session};
        use std::sync::atomic::{AtomicU64, Ordering as AO};
        let mut rng = XorShift64::new(2_048);
        for _ in 0..2_048 {
            m.push(rng.below(4_096));
        }
        let pushes = AtomicU64::new(0);
        let session = Session::new();
        pto_sim::Sim::new(lanes).run(|lane| {
            let mut rng = XorShift64::new(lane as u64 + 1);
            for _ in 0..20_000 {
                if rng.chance(1, 2) {
                    m.push(rng.below(4_096));
                    pushes.fetch_add(1, AO::Relaxed);
                } else {
                    m.pop_min();
                }
            }
        });
        let events = session.snapshot().count(Series::PoolMagazine);
        (events, pushes.load(AO::Relaxed))
    }

    #[test]
    fn one_list_cell_serves_every_attempt_of_a_push() {
        for lanes in [2, 4] {
            for (name, m) in [
                ("lock-free", Mound::new_lockfree(16)),
                ("PTO", Mound::new_pto(16)),
            ] {
                let (events, pushes) = pool_events_and_pushes(&m, lanes);
                assert_eq!(
                    events, pushes,
                    "{name} Mound at {lanes} lanes: {events} pool events for {pushes} pushes \
                     (a lost CAS must reuse the push's cell, not free it and allocate anew)"
                );
                m.check_mound_property().unwrap();
            }
        }
    }

    #[test]
    fn concurrent_stress_pto_zero_attempts_equals_lockfree() {
        // With zero attempts every primitive runs the software fallback:
        // the PTO mound degrades exactly to the lock-free mound.
        let m = Mound::new_pto_with(16, PtoPolicy::with_attempts(0));
        concurrent_push_pop(&m, 4, 1_000);
        assert_eq!(m.pto_stats().unwrap().fast.get(), 0);
    }

    #[test]
    fn pops_are_globally_sorted_after_concurrent_pushes() {
        let m = Mound::new_lockfree(16);
        std::thread::scope(|s| {
            for t in 0..4 {
                let m = &m;
                s.spawn(move || {
                    let mut rng = XorShift64::new(100 + t);
                    for _ in 0..1_000 {
                        m.push(rng.below(1_000_000));
                    }
                });
            }
        });
        assert_eq!(m.len(), 4_000);
        let drained = drain_sorted(&m);
        assert_eq!(drained.len(), 4_000);
        assert!(drained.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn dcss_local_pto_is_cheaper_per_op() {
        // §4.2: the PTO Mound's win is latency per DCAS/DCSS. Compare the
        // modeled cost of N uncontended operations.
        let lf = Mound::new_lockfree(14);
        let pt = Mound::new_pto(14);
        for i in 0..64 {
            lf.push(i);
            pt.push(i);
        }
        pto_sim::clock::reset();
        for i in 0..200u64 {
            lf.push(i % 97);
            lf.pop_min();
        }
        let lf_cost = pto_sim::now();
        pto_sim::clock::reset();
        for i in 0..200u64 {
            pt.push(i % 97);
            pt.pop_min();
        }
        let pto_cost = pto_sim::now();
        assert!(
            pto_cost < lf_cost,
            "PTO mound ({pto_cost}) should beat lock-free ({lf_cost})"
        );
    }

    #[test]
    fn whole_op_pop_matches_oracle() {
        // The §3.1 ablation path must still be fully correct.
        let m = Mound::new_lockfree(12);
        let policy = PtoPolicy::with_attempts(4);
        let stats = PtoStats::new();
        let mut oracle: BinaryHeap<std::cmp::Reverse<u32>> = BinaryHeap::new();
        let mut rng = XorShift64::new(31337);
        for _ in 0..3_000 {
            if rng.chance(1, 2) {
                let v = rng.below(10_000) as u32;
                m.push(v as u64);
                oracle.push(std::cmp::Reverse(v));
            } else {
                let got = m.pop_min_whole(&policy, &stats);
                assert_eq!(got, oracle.pop().map(|r| r.0 as u64));
            }
        }
        m.check_mound_property().unwrap();
        assert!(stats.fast.get() > 0, "whole-op prefix never committed");
    }

    #[test]
    fn whole_op_pop_mixes_with_normal_ops_concurrently() {
        let m = Mound::new_pto(14);
        let policy = PtoPolicy::with_attempts(4);
        use std::sync::atomic::{AtomicU64, Ordering as AO};
        let pushed = AtomicU64::new(0);
        let popped = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..4 {
                let (m, pu, po, policy) = (&m, &pushed, &popped, &policy);
                s.spawn(move || {
                    let stats = PtoStats::new();
                    let mut rng = XorShift64::new(t + 500);
                    for _ in 0..1_000 {
                        if rng.chance(1, 2) {
                            let v = rng.below(50_000);
                            m.push(v);
                            pu.fetch_add(v + 1, AO::Relaxed);
                        } else {
                            let r = if t % 2 == 0 {
                                m.pop_min()
                            } else {
                                m.pop_min_whole(policy, &stats)
                            };
                            if let Some(v) = r {
                                po.fetch_add(v + 1, AO::Relaxed);
                            }
                        }
                    }
                });
            }
        });
        let mut rest = 0;
        while let Some(v) = m.pop_min() {
            rest += v + 1;
        }
        assert_eq!(pushed.load(AO::Relaxed), popped.load(AO::Relaxed) + rest);
        m.check_mound_property().unwrap();
    }

    #[test]
    #[should_panic(expected = "keys must be")]
    fn rejects_reserved_key() {
        let m = Mound::new_lockfree(6);
        m.push(u64::MAX);
    }

    #[test]
    #[should_panic(expected = "depth must be")]
    fn rejects_absurd_depth() {
        let _ = Mound::new_lockfree(40);
    }
}

#[cfg(test)]
mod cause_observability {
    use super::*;
    use pto_core::PriorityQueue;

    #[test]
    fn chaos_aborts_land_in_the_spurious_bucket() {
        let m = Mound::new_pto_with(4, PtoPolicy::with_attempts(2).with_chaos(100));
        // Root inserts are plain CASes; pushing a *larger* key second forces
        // the below-root DCSS path, which is the PTO'd primitive.
        m.push(1);
        m.push(5);
        assert_eq!(m.pop_min(), Some(1));
        let stats = m.pto_stats().unwrap();
        assert!(stats.causes.spurious.get() > 0);
        assert_eq!(stats.causes.total(), stats.aborted_attempts.get());
        assert_eq!(stats.causes.capacity.get(), 0);
    }
}
