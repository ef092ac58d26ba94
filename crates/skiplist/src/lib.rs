//! # pto-skiplist — lock-free skiplists (§3.1, §4.3, Figures 2(b), 3)
//!
//! Two client structures over one tower machinery:
//!
//! * [`SkipListSet`] — a lock-free ordered set (Fraser/Harris style:
//!   marked next-pointers for logical deletion, lazy physical unlinking
//!   during searches).
//! * [`SkipQueue`] — a Lotan–Shavit priority queue over the same list,
//!   made linearizable the way the paper describes: a `pop` never
//!   traverses *through* a marked node — it only ever operates on the
//!   current head-most node and helps unlink it when marked.
//!
//! **PTO application (§3.1).** Whole-operation transactions were found
//! unprofitable ("local application of PTO was the only promising
//! technique"), so only two superblocks are accelerated:
//! * *insert*: one prefix transaction updates every predecessor's next
//!   pointer at once (validating them against the search results);
//! * *remove/pop*: one prefix transaction marks all of the victim's next
//!   pointers at once, replacing the per-level CAS sequence.
//!
//! The search phase stays outside the transaction, and — as the paper
//! observes (§4.3) — since traversal dominates and the structure is
//! already nearly ASCY-compliant, PTO yields little to no speedup here.
//! Reproducing *that* (a method that knows when it can't win) is part of
//! reproducing the paper.
//!
//! Representation: nodes live in a segmented pool; a next-pointer word
//! packs `(node index << 1) | marked`. Keys are shifted by +1 so the head
//! sentinel sorts below every key; the tail sentinel is `u32::MAX`.

use pto_core::compose::Anchor;
use pto_core::policy::{pto, pto_adaptive, AdaptivePolicy, PtoPolicy, PtoStats};
use pto_core::{ConcurrentSet, PriorityQueue};
use pto_htm::{TxResult, TxWord};
use pto_mem::epoch::{self, Guard};
use pto_mem::{Pool, NIL};
use std::sync::atomic::Ordering;

/// Tallest tower. 2^16 expected elements per level-16 node; plenty for the
/// paper's ranges (512 and 64K keys).
pub const MAX_LEVEL: usize = 16;

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

/// A tower node. `claim` arbitrates which thread retires the node after it
/// is fully unlinked.
pub struct SkipNode {
    key: TxWord,
    height: TxWord,
    claim: TxWord,
    next: [TxWord; MAX_LEVEL],
}

impl Default for SkipNode {
    fn default() -> Self {
        SkipNode {
            key: TxWord::new(0),
            height: TxWord::new(0),
            claim: TxWord::new(0),
            next: std::array::from_fn(|_| TxWord::new(mk(NIL, false))),
        }
    }
}

/// Per-lane tower-height stream: the call-site constant for
/// [`pto_sim::rng::lane_draw`], which reseeds from `(site, stream key,
/// gate lane)` so heights are reproducible per lane and uncorrelated
/// across 64–512 lanes (the first-use-order `WeylSeq` scheme this
/// replaces was audited broken at that scale).
const HEIGHT_SITE: u64 = 0x6C62_272E_07BB_0142;

thread_local! {
    static HEIGHT_SLOT: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
}

/// Whether updates attempt a prefix transaction first.
// One long-lived instance per structure; `PtoStats` is cache-padded by
// design, so the size gap between variants is deliberate.
#[allow(clippy::large_enum_variant)]
enum Mode {
    LockFree,
    Pto { policy: PtoPolicy, stats: PtoStats },
    /// Self-tuning PTO: each accelerated superblock's call site adapts
    /// its retry budget from its own abort-cause stream, with the
    /// single-orec middle path available (both superblocks are purely
    /// transactional, so an owned-orec re-run cannot self-deadlock).
    Adaptive { policy: AdaptivePolicy, stats: PtoStats },
}

/// The shared tower machinery.
struct SkipList {
    nodes: Pool<SkipNode>,
    mode: Mode,
    anchor: Anchor,
}

struct FindResult {
    preds: [u32; MAX_LEVEL],
    succs: [u32; MAX_LEVEL],
    found: bool,
}

impl SkipList {
    fn new(mode: Mode) -> Self {
        let nodes: Pool<SkipNode> = Pool::new();
        let h = nodes.alloc();
        debug_assert_eq!(h, HEAD);
        let t = nodes.alloc();
        debug_assert_eq!(t, TAIL);
        let head = nodes.get(HEAD);
        head.key.init(0);
        head.height.init(MAX_LEVEL as u64);
        for l in 0..MAX_LEVEL {
            head.next[l].init(mk(TAIL, false));
        }
        let tail = nodes.get(TAIL);
        tail.key.init(KEY_TAIL as u64);
        tail.height.init(MAX_LEVEL as u64);
        SkipList {
            nodes,
            mode,
            anchor: Anchor::new(),
        }
    }

    #[inline]
    fn key(&self, idx: u32) -> u32 {
        self.nodes.get(idx).key.load(Ordering::Acquire) as u32
    }

    #[inline]
    fn next(&self, idx: u32, lvl: usize) -> &TxWord {
        &self.nodes.get(idx).next[lvl]
    }

    fn random_height(&self) -> usize {
        // One draw yields 64 independent coin flips; consume one bit per
        // level (geometric, p = 1/2), same distribution as the old
        // per-flip `chance(1, 2)` loop.
        let bits = HEIGHT_SLOT.with(|s| pto_sim::rng::lane_draw(HEIGHT_SITE, s));
        let mut h = 1;
        while h < MAX_LEVEL && (bits >> (h - 1)) & 1 == 1 {
            h += 1;
        }
        h
    }

    /// Fraser-style search: locate preds/succs at every level, physically
    /// unlinking marked nodes encountered on the way. `strict_less` makes
    /// the search stop *before* equal keys (used by the queue to insert
    /// duplicates in FIFO-ish position).
    fn find(&self, key: u32, _g: &Guard) -> FindResult {
        'retry: loop {
            let mut preds = [HEAD; MAX_LEVEL];
            let mut succs = [TAIL; MAX_LEVEL];
            let mut pred = HEAD;
            for lvl in (0..MAX_LEVEL).rev() {
                let mut curr = idx_of(self.next(pred, lvl).load(Ordering::Acquire));
                loop {
                    let link = self.next(curr, lvl).load(Ordering::Acquire);
                    let (mut c, mut l) = (curr, link);
                    // Unlink marked chains.
                    while marked(l) {
                        let succ = idx_of(l);
                        if self
                            .next(pred, lvl)
                            .compare_exchange(mk(c, false), mk(succ, false), Ordering::SeqCst)
                            .is_err()
                        {
                            continue 'retry;
                        }
                        c = succ;
                        l = self.next(c, lvl).load(Ordering::Acquire);
                    }
                    curr = c;
                    if self.key(curr) < key {
                        pred = curr;
                        curr = idx_of(l);
                    } else {
                        break;
                    }
                }
                preds[lvl] = pred;
                succs[lvl] = curr;
            }
            let found = self.key(succs[0]) == key && !marked(self.next(succs[0], 0).load(Ordering::Acquire));
            return FindResult {
                preds,
                succs,
                found,
            };
        }
    }

    /// Wait-free-ish membership: pure traversal, no unlinking, final answer
    /// from the level-0 candidate's key and mark.
    fn contains(&self, key: u32, _g: &Guard) -> bool {
        let mut pred = HEAD;
        let mut curr = HEAD;
        for lvl in (0..MAX_LEVEL).rev() {
            curr = idx_of(self.next(pred, lvl).load(Ordering::Acquire));
            loop {
                let link = self.next(curr, lvl).load(Ordering::Acquire);
                if marked(link) {
                    // Skip over logically deleted nodes.
                    curr = idx_of(link);
                    continue;
                }
                if self.key(curr) < key {
                    pred = curr;
                    curr = idx_of(link);
                } else {
                    break;
                }
            }
        }
        self.key(curr) == key && !marked(self.next(curr, 0).load(Ordering::Acquire))
    }

    /// Allocate and initialize a node (private until linked).
    fn make_node(&self, key: u32, height: usize, succs: &[u32; MAX_LEVEL]) -> u32 {
        let n = self.nodes.alloc();
        let node = self.nodes.get(n);
        node.key.init(key as u64);
        node.height.init(height as u64);
        node.claim.init(0);
        for (l, s) in succs.iter().enumerate().take(height) {
            node.next[l].init(mk(*s, false));
        }
        n
    }

    /// The lock-free link phase: CAS level 0 (the linearization point),
    /// then lace the upper levels, re-searching when predecessors shift.
    /// Returns false if the level-0 CAS lost (caller re-searches).
    fn link_lockfree(&self, node: u32, height: usize, key: u32, f: &FindResult, g: &Guard) -> bool {
        if self
            .next(f.preds[0], 0)
            .compare_exchange(mk(f.succs[0], false), mk(node, false), Ordering::SeqCst)
            .is_err()
        {
            return false;
        }
        let mut preds = f.preds;
        let mut succs = f.succs;
        for lvl in 1..height {
            loop {
                // Keep the node's own pointer current; stop if we got
                // deleted mid-insert.
                let own = self.next(node, lvl).load(Ordering::Acquire);
                if marked(own) {
                    self.unlink_all(node, height, key, g);
                    return true;
                }
                if idx_of(own) != succs[lvl]
                    && self
                        .next(node, lvl)
                        .compare_exchange(own, mk(succs[lvl], false), Ordering::SeqCst)
                        .is_err()
                {
                    continue;
                }
                if self
                    .next(preds[lvl], lvl)
                    .compare_exchange(mk(succs[lvl], false), mk(node, false), Ordering::SeqCst)
                    .is_ok()
                {
                    break;
                }
                // Predecessor changed: recompute the neighborhood.
                let nf = self.find(key, g);
                preds = nf.preds;
                succs = nf.succs;
            }
        }
        // If a racing remover marked us while we laced, make sure the tower
        // is taken back out.
        if marked(self.next(node, 0).load(Ordering::Acquire)) {
            self.unlink_all(node, height, key, g);
        }
        true
    }

    /// Transactional link phase: validate every predecessor still points at
    /// the found successor (unmarked), then swing them all to `node`.
    fn link_tx<'e>(
        &'e self,
        tx: &mut pto_htm::Txn<'e>,
        node: u32,
        height: usize,
        f: &FindResult,
    ) -> TxResult<bool> {
        for lvl in 0..height {
            let link = tx.read(self.next(f.preds[lvl], lvl))?;
            if link != mk(f.succs[lvl], false) {
                return Ok(false); // stale neighborhood: caller re-searches
            }
        }
        for lvl in 0..height {
            tx.write(self.next(f.preds[lvl], lvl), mk(node, false))?;
            tx.fence();
        }
        Ok(true)
    }

    /// Insert `key`; `allow_dup` distinguishes set (false) from queue
    /// (true) behaviour.
    fn insert(&self, key: u32, allow_dup: bool, g: &Guard) -> bool {
        loop {
            let f = self.find(key, g);
            if f.found && !allow_dup {
                return false;
            }
            let height = self.random_height();
            let node = self.make_node(key, height, &f.succs);
            let linked = match &self.mode {
                Mode::LockFree => self.link_lockfree(node, height, key, &f, g),
                Mode::Pto { policy, stats } => pto(
                    policy,
                    stats,
                    |tx| self.link_tx(tx, node, height, &f),
                    || self.link_lockfree(node, height, key, &f, g),
                ),
                Mode::Adaptive { policy, stats } => pto_adaptive(
                    policy,
                    stats,
                    |tx| self.link_tx(tx, node, height, &f),
                    || self.link_lockfree(node, height, key, &f, g),
                ),
            };
            if linked {
                return true;
            }
            // Level-0 CAS lost / validation failed: the node was never
            // published, reuse it immediately.
            self.nodes.free_now(node);
        }
    }

    /// The lock-free mark phase: mark top-down, level 0 last (the
    /// linearization point). Returns false if someone else won level 0.
    fn mark_lockfree(&self, node: u32, height: usize) -> bool {
        for lvl in (1..height).rev() {
            loop {
                let link = self.next(node, lvl).load(Ordering::Acquire);
                if marked(link) {
                    break;
                }
                if self
                    .next(node, lvl)
                    .compare_exchange(link, link | 1, Ordering::SeqCst)
                    .is_ok()
                {
                    break;
                }
            }
        }
        loop {
            let link = self.next(node, 0).load(Ordering::Acquire);
            if marked(link) {
                return false;
            }
            if self
                .next(node, 0)
                .compare_exchange(link, link | 1, Ordering::SeqCst)
                .is_ok()
            {
                return true;
            }
        }
    }

    /// Transactional mark phase: one transaction marks every level.
    /// Observing a partially marked tower means a concurrent remover —
    /// abort to the fallback rather than help (§2.4).
    fn mark_tx<'e>(
        &'e self,
        tx: &mut pto_htm::Txn<'e>,
        node: u32,
        height: usize,
    ) -> TxResult<bool> {
        let l0 = tx.read(self.next(node, 0))?;
        if marked(l0) {
            return Ok(false); // already logically deleted
        }
        for lvl in (1..height).rev() {
            let link = tx.read(self.next(node, lvl))?;
            if marked(link) {
                return Err(tx.abort(pto_core::ABORT_HELP));
            }
            tx.write(self.next(node, lvl), link | 1)?;
            tx.fence();
        }
        tx.write(self.next(node, 0), l0 | 1)?;
        tx.fence();
        Ok(true)
    }

    fn mark_node(&self, node: u32, height: usize) -> bool {
        match &self.mode {
            Mode::LockFree => self.mark_lockfree(node, height),
            Mode::Pto { policy, stats } => pto(
                policy,
                stats,
                |tx| self.mark_tx(tx, node, height),
                || self.mark_lockfree(node, height),
            ),
            Mode::Adaptive { policy, stats } => pto_adaptive(
                policy,
                stats,
                |tx| self.mark_tx(tx, node, height),
                || self.mark_lockfree(node, height),
            ),
        }
    }

    /// Physically unlink `node` from every level (identity-based, so
    /// duplicate keys cannot confuse it), then retire it exactly once.
    fn unlink_all(&self, node: u32, height: usize, key: u32, _g: &Guard) {
        for lvl in (0..height).rev() {
            'retry: loop {
                let mut pred = HEAD;
                let mut curr = idx_of(self.next(pred, lvl).load(Ordering::Acquire));
                loop {
                    if curr == TAIL {
                        break 'retry;
                    }
                    let link = self.next(curr, lvl).load(Ordering::Acquire);
                    if marked(link) {
                        let succ = idx_of(link);
                        if self
                            .next(pred, lvl)
                            .compare_exchange(mk(curr, false), mk(succ, false), Ordering::SeqCst)
                            .is_err()
                        {
                            continue 'retry;
                        }
                        if curr == node {
                            break 'retry;
                        }
                        curr = succ;
                        continue;
                    }
                    if curr == node {
                        // Unmarked pointer to our (marked) node cannot
                        // appear: marking precedes unlinking.
                        break 'retry;
                    }
                    if self.key(curr) > key {
                        break 'retry;
                    }
                    pred = curr;
                    curr = idx_of(link);
                }
            }
        }
        // Exactly one unlinker retires the node.
        if self.nodes.get(node).claim.cas(0, 1) {
            self.nodes.retire(node);
        }
    }

    fn remove(&self, key: u32, g: &Guard) -> bool {
        loop {
            let f = self.find(key, g);
            if !f.found {
                return false;
            }
            let node = f.succs[0];
            let height = self.nodes.get(node).height.load(Ordering::Acquire) as usize;
            if self.mark_node(node, height) {
                self.unlink_all(node, height, key, g);
                return true;
            }
            // Someone else deleted this incarnation; retry in case another
            // duplicate (queue) or reinsertion (set) exists.
        }
    }

    /// Pop the head-most element (priority-queue use). Never traverses
    /// through a marked node: it only operates on the first node, helping
    /// unlink it if already marked (the paper's linearizable Lotan–Shavit
    /// variant).
    fn pop_front(&self, g: &Guard) -> Option<u32> {
        loop {
            let first = idx_of(self.next(HEAD, 0).load(Ordering::Acquire));
            if first == TAIL {
                return None;
            }
            let key = self.key(first);
            let height = self.nodes.get(first).height.load(Ordering::Acquire) as usize;
            if self.mark_node(first, height) {
                self.unlink_all(first, height, key, g);
                return Some(key);
            }
            // Already marked: help clear the front, then retry.
            self.unlink_all(first, height, key, g);
        }
    }

    /// Validate tower structure (quiescent-only): every level's node
    /// sequence is strictly key-sorted, unmarked, and a sub-sequence of the
    /// level below (a tower present at level k must be present at k-1).
    fn check_towers(&self) -> Result<(), String> {
        let mut below: Vec<u32> = Vec::new();
        for lvl in 0..MAX_LEVEL {
            let mut level_nodes = Vec::new();
            let mut curr = idx_of(self.next(HEAD, lvl).load(Ordering::Relaxed));
            let mut prev_key = 0u32;
            while curr != TAIL {
                let link = self.next(curr, lvl).load(Ordering::Relaxed);
                if marked(link) {
                    return Err(format!("marked node {curr} reachable at level {lvl}"));
                }
                let k = self.key(curr);
                if k <= prev_key {
                    return Err(format!("level {lvl} unsorted at key {k}"));
                }
                prev_key = k;
                level_nodes.push(curr);
                curr = idx_of(link);
            }
            if lvl == 0 {
                below = level_nodes;
            } else {
                // level_nodes ⊆ below
                let set: std::collections::HashSet<u32> = below.iter().copied().collect();
                for n in &level_nodes {
                    if !set.contains(n) {
                        return Err(format!("node {n} at level {lvl} missing from level below"));
                    }
                }
                below = level_nodes;
            }
        }
        Ok(())
    }

    fn count(&self) -> usize {
        let mut n = 0;
        let mut curr = idx_of(self.next(HEAD, 0).load(Ordering::Relaxed));
        while curr != TAIL {
            let link = self.next(curr, 0).load(Ordering::Relaxed);
            if !marked(link) {
                n += 1;
            }
            curr = idx_of(link);
        }
        n
    }
}

fn to_stored(key: u64) -> u32 {
    assert!(key < (KEY_TAIL - 1) as u64, "skiplist keys must be < 2^32 - 2");
    key as u32 + 1
}

// -------------------------------------------------------------------------
// Public types
// -------------------------------------------------------------------------

/// A concurrent ordered set. `new_lockfree()` is the baseline of Figure 3;
/// `new_pto()` accelerates the insert-link and remove-mark superblocks.
pub struct SkipListSet {
    list: SkipList,
}

impl SkipListSet {
    pub fn new_lockfree() -> Self {
        SkipListSet {
            list: SkipList::new(Mode::LockFree),
        }
    }

    pub fn new_pto() -> Self {
        Self::new_pto_with(PtoPolicy::with_attempts(3))
    }

    pub fn new_pto_with(policy: PtoPolicy) -> Self {
        SkipListSet {
            list: SkipList::new(Mode::Pto {
                policy,
                stats: PtoStats::new(),
            }),
        }
    }

    /// Self-tuning PTO with the default adaptation knobs over the default
    /// PTO policy.
    pub fn new_adaptive() -> Self {
        Self::new_adaptive_with(AdaptivePolicy::new(PtoPolicy::with_attempts(3)))
    }

    /// Self-tuning PTO with full control over the adaptation surface
    /// (middle-path forcing, streak/probe tuning).
    pub fn new_adaptive_with(policy: AdaptivePolicy) -> Self {
        SkipListSet {
            list: SkipList::new(Mode::Adaptive {
                policy,
                stats: PtoStats::new(),
            }),
        }
    }

    pub fn pto_stats(&self) -> Option<&PtoStats> {
        match &self.list.mode {
            Mode::LockFree => None,
            Mode::Pto { stats, .. } | Mode::Adaptive { stats, .. } => Some(stats),
        }
    }

    /// Validate the tower structure (quiescent states only).
    pub fn check_towers(&self) -> Result<(), String> {
        self.list.check_towers()
    }

    // ------------------------------------------------------------------
    // Compose surface (pto_core::compose)
    // ------------------------------------------------------------------

    /// This set's participation anchor for composed operations.
    pub fn anchor(&self) -> &Anchor {
        &self.list.anchor
    }

    /// Search for `key` and allocate a private tower, producing a
    /// [`ComposeInsert`] handle for [`SkipListSet::tx_compose_insert`].
    /// Call *outside* the prefix loop (allocation and the search are not
    /// transactional) while holding an epoch guard that stays pinned until
    /// [`SkipListSet::compose_insert_finish`] runs — the handle's
    /// predecessor/successor snapshot must not be reclaimed under it.
    #[doc(hidden)]
    pub fn compose_insert_begin(&self, key: u64, g: &Guard) -> ComposeInsert {
        let k = to_stored(key);
        let f = self.list.find(k, g);
        let height = self.list.random_height();
        let node = self.list.make_node(k, height, &f.succs);
        ComposeInsert {
            node,
            key: k,
            height,
            preds: f.preds,
            succs: f.succs,
        }
    }

    /// Transactional set-insert half for a composed prefix: validate the
    /// handle's neighborhood in-tx, then either link the private tower
    /// (`Ok(true)`), observe the key already present (`Ok(false)` — a
    /// committed no-op half, decided transactionally), or abort because
    /// the snapshot went stale, handing the composed fallback
    /// ([`ConcurrentSet::insert`] under the anchors) the retry.
    #[doc(hidden)]
    pub fn tx_compose_insert<'e>(
        &'e self,
        tx: &mut pto_htm::Txn<'e>,
        ins: &ComposeInsert,
    ) -> TxResult<bool> {
        self.list.anchor.tx_check(tx)?;
        for lvl in 0..ins.height {
            let link = tx.read(self.list.next(ins.preds[lvl], lvl))?;
            if link != mk(ins.succs[lvl], false) {
                return Err(tx.abort(pto_core::ABORT_HELP));
            }
        }
        // The level-0 successor is still the linked neighbor (validated
        // above), so its key decides presence — read in-tx to guard
        // against recycling races.
        let sk = tx.read(&self.list.nodes.get(ins.succs[0]).key)? as u32;
        if sk == ins.key {
            if marked(tx.read(self.list.next(ins.succs[0], 0))?) {
                // Mid-removal duplicate: neither "present" nor insertable
                // here; let the fallback re-search.
                return Err(tx.abort(pto_core::ABORT_HELP));
            }
            return Ok(false);
        }
        for lvl in 0..ins.height {
            tx.write(self.list.next(ins.preds[lvl], lvl), mk(ins.node, false))?;
            tx.fence();
        }
        Ok(true)
    }

    /// Close out a [`ComposeInsert`]: `published` is whether a committed
    /// prefix linked the tower (an unpublished tower is returned to the
    /// pool for immediate reuse).
    #[doc(hidden)]
    pub fn compose_insert_finish(&self, ins: ComposeInsert, published: bool) {
        if !published {
            self.list.nodes.free_now(ins.node);
        }
    }
}

/// A pending composed skiplist insert: the private tower plus the search
/// snapshot it will be validated against. See
/// [`SkipListSet::compose_insert_begin`].
pub struct ComposeInsert {
    node: u32,
    key: u32,
    height: usize,
    preds: [u32; MAX_LEVEL],
    succs: [u32; MAX_LEVEL],
}

impl ComposeInsert {
    /// The (caller-domain) key this handle would insert, so a composed
    /// prefix can check the handle against a value it discovered in-tx.
    pub fn key(&self) -> u64 {
        self.key as u64 - 1
    }
}

impl ConcurrentSet for SkipListSet {
    fn insert(&self, key: u64) -> bool {
        let g = epoch::pin();
        self.list.insert(to_stored(key), false, &g)
    }

    fn remove(&self, key: u64) -> bool {
        let g = epoch::pin();
        self.list.remove(to_stored(key), &g)
    }

    fn contains(&self, key: u64) -> bool {
        let g = epoch::pin();
        self.list.contains(to_stored(key), &g)
    }

    fn len(&self) -> usize {
        self.list.count()
    }
}

/// A linearizable skiplist priority queue (duplicates allowed).
pub struct SkipQueue {
    list: SkipList,
}

impl SkipQueue {
    pub fn new_lockfree() -> Self {
        SkipQueue {
            list: SkipList::new(Mode::LockFree),
        }
    }

    pub fn new_pto() -> Self {
        SkipQueue {
            list: SkipList::new(Mode::Pto {
                policy: PtoPolicy::with_attempts(3),
                stats: PtoStats::new(),
            }),
        }
    }

    /// Self-tuning PTO (see [`SkipListSet::new_adaptive_with`]).
    pub fn new_adaptive_with(policy: AdaptivePolicy) -> Self {
        SkipQueue {
            list: SkipList::new(Mode::Adaptive {
                policy,
                stats: PtoStats::new(),
            }),
        }
    }

    pub fn pto_stats(&self) -> Option<&PtoStats> {
        match &self.list.mode {
            Mode::LockFree => None,
            Mode::Pto { stats, .. } | Mode::Adaptive { stats, .. } => Some(stats),
        }
    }

    pub fn len(&self) -> usize {
        self.list.count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// This queue's participation anchor for composed operations.
    pub fn anchor(&self) -> &Anchor {
        &self.list.anchor
    }
}

impl PriorityQueue for SkipQueue {
    fn push(&self, key: u64) {
        let g = epoch::pin();
        self.list.insert(to_stored(key), true, &g);
    }

    fn pop_min(&self) -> Option<u64> {
        let g = epoch::pin();
        self.list.pop_front(&g).map(|k| (k - 1) as u64)
    }

    fn peek_min(&self) -> Option<u64> {
        let _g = epoch::pin();
        let first = idx_of(self.list.next(HEAD, 0).load(Ordering::Acquire));
        if first == TAIL {
            None
        } else {
            Some((self.list.key(first) - 1) as u64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pto_sim::rng::XorShift64;
    use std::collections::BTreeSet;

    fn set_semantics(s: &SkipListSet) {
        assert!(!s.contains(5));
        assert!(s.insert(5));
        assert!(!s.insert(5), "duplicate insert must fail");
        assert!(s.contains(5));
        assert!(s.insert(3));
        assert!(s.insert(9));
        assert_eq!(s.len(), 3);
        assert!(s.remove(5));
        assert!(!s.remove(5), "double remove must fail");
        assert!(!s.contains(5));
        assert!(s.contains(3) && s.contains(9));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn set_semantics_lockfree() {
        set_semantics(&SkipListSet::new_lockfree());
    }

    #[test]
    fn set_semantics_pto() {
        let s = SkipListSet::new_pto();
        set_semantics(&s);
        assert!(s.pto_stats().unwrap().fast.get() > 0);
    }

    #[test]
    fn key_zero_and_large_keys_work() {
        let s = SkipListSet::new_lockfree();
        assert!(s.insert(0));
        assert!(s.contains(0));
        let big = (u32::MAX - 3) as u64;
        assert!(s.insert(big));
        assert!(s.contains(big));
        assert!(s.remove(0));
        assert!(!s.contains(0));
        assert!(s.contains(big));
    }

    #[test]
    #[should_panic(expected = "keys must be")]
    fn rejects_reserved_keys() {
        let s = SkipListSet::new_lockfree();
        s.insert(u64::MAX);
    }

    fn oracle_test(s: &impl ConcurrentSet, seed: u64, ops: usize) {
        let mut oracle = BTreeSet::new();
        let mut rng = XorShift64::new(seed);
        for _ in 0..ops {
            let k = rng.below(200);
            match rng.below(3) {
                0 => assert_eq!(s.insert(k), oracle.insert(k), "insert {k}"),
                1 => assert_eq!(s.remove(k), oracle.remove(&k), "remove {k}"),
                _ => assert_eq!(s.contains(k), oracle.contains(&k), "contains {k}"),
            }
        }
        assert_eq!(s.len(), oracle.len());
    }

    #[test]
    fn matches_btreeset_oracle_lockfree() {
        oracle_test(&SkipListSet::new_lockfree(), 42, 4_000);
    }

    #[test]
    fn matches_btreeset_oracle_pto() {
        oracle_test(&SkipListSet::new_pto(), 77, 4_000);
    }

    #[test]
    fn matches_btreeset_oracle_adaptive() {
        oracle_test(&SkipListSet::new_adaptive(), 78, 4_000);
    }

    #[test]
    fn set_semantics_adaptive() {
        let s = SkipListSet::new_adaptive();
        set_semantics(&s);
        assert!(s.pto_stats().unwrap().fast.get() > 0);
    }

    fn concurrent_set_stress(s: &SkipListSet, nthreads: usize, ops: usize, range: u64) {
        std::thread::scope(|sc| {
            for t in 0..nthreads {
                let s = &s;
                sc.spawn(move || {
                    let mut rng = XorShift64::new((t as u64 + 1) * 7919);
                    for _ in 0..ops {
                        let k = rng.below(range);
                        match rng.below(4) {
                            0 | 1 => {
                                s.insert(k);
                            }
                            2 => {
                                s.remove(k);
                            }
                            _ => {
                                s.contains(k);
                            }
                        }
                    }
                });
            }
        });
        // Structural sanity: level-0 is sorted, count consistent, all
        // reachable nodes unmarked after quiescence... (marked nodes may
        // linger only if unlink raced; they must not be reachable).
        let mut curr = idx_of(s.list.next(HEAD, 0).load(Ordering::Relaxed));
        let mut prev_key = 0u32;
        while curr != TAIL {
            let k = s.list.key(curr);
            assert!(k > prev_key, "level-0 keys not strictly sorted");
            prev_key = k;
            let link = s.list.next(curr, 0).load(Ordering::Relaxed);
            assert!(!marked(link), "marked node still reachable at level 0");
            curr = idx_of(link);
        }
    }

    #[test]
    fn concurrent_stress_lockfree_set() {
        let s = SkipListSet::new_lockfree();
        concurrent_set_stress(&s, 4, 2_000, 128);
    }

    #[test]
    fn concurrent_stress_pto_set() {
        let s = SkipListSet::new_pto();
        concurrent_set_stress(&s, 4, 2_000, 128);
    }

    #[test]
    fn concurrent_stress_adaptive_set() {
        let s = SkipListSet::new_adaptive();
        concurrent_set_stress(&s, 4, 2_000, 128);
    }

    #[test]
    fn concurrent_stress_adaptive_middle_forced_set() {
        // Streak of 1 + one HTM attempt on a tiny key range: conflicted
        // superblocks go straight to the single-orec middle path.
        let s = SkipListSet::new_adaptive_with(
            AdaptivePolicy::new(PtoPolicy::with_attempts(1)).with_middle_streak(1),
        );
        concurrent_set_stress(&s, 4, 2_000, 8);
        s.check_towers().unwrap();
    }

    #[test]
    fn concurrent_insert_distinct_ranges_all_present() {
        let s = SkipListSet::new_lockfree();
        std::thread::scope(|sc| {
            for t in 0..4u64 {
                let s = &s;
                sc.spawn(move || {
                    for k in (t * 500)..((t + 1) * 500) {
                        assert!(s.insert(k));
                    }
                });
            }
        });
        assert_eq!(s.len(), 2_000);
        for k in 0..2_000 {
            assert!(s.contains(k), "lost key {k}");
        }
    }

    #[test]
    fn concurrent_exclusive_remove() {
        // Every key inserted once, then all threads race to remove it:
        // exactly one remove() may return true per key.
        use std::sync::atomic::AtomicU64;
        let s = SkipListSet::new_lockfree();
        for k in 0..500 {
            s.insert(k);
        }
        let wins = AtomicU64::new(0);
        std::thread::scope(|sc| {
            for _ in 0..4 {
                let s = &s;
                let wins = &wins;
                sc.spawn(move || {
                    for k in 0..500 {
                        if s.remove(k) {
                            wins.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(wins.load(Ordering::Relaxed), 500);
        assert_eq!(s.len(), 0);
    }

    // ---------------- queue ----------------

    fn queue_basics(q: &SkipQueue) {
        assert_eq!(q.pop_min(), None);
        q.push(5);
        q.push(2);
        q.push(8);
        q.push(2); // duplicate
        assert_eq!(q.peek_min(), Some(2));
        assert_eq!(q.pop_min(), Some(2));
        assert_eq!(q.pop_min(), Some(2));
        assert_eq!(q.pop_min(), Some(5));
        assert_eq!(q.pop_min(), Some(8));
        assert_eq!(q.pop_min(), None);
    }

    #[test]
    fn queue_basics_lockfree() {
        queue_basics(&SkipQueue::new_lockfree());
    }

    #[test]
    fn queue_basics_pto() {
        queue_basics(&SkipQueue::new_pto());
    }

    fn queue_concurrent_conservation(q: &SkipQueue, nthreads: usize, ops: usize) {
        use std::sync::atomic::AtomicU64;
        let pushed = AtomicU64::new(0);
        let popped = AtomicU64::new(0);
        let pushed_n = AtomicU64::new(0);
        let popped_n = AtomicU64::new(0);
        std::thread::scope(|sc| {
            for t in 0..nthreads {
                let (q, ps, os, pn, on) = (&q, &pushed, &popped, &pushed_n, &popped_n);
                sc.spawn(move || {
                    let mut rng = XorShift64::new(31 + t as u64);
                    for _ in 0..ops {
                        if rng.chance(1, 2) {
                            let v = rng.below(10_000);
                            q.push(v);
                            ps.fetch_add(v, Ordering::Relaxed);
                            pn.fetch_add(1, Ordering::Relaxed);
                        } else if let Some(v) = q.pop_min() {
                            os.fetch_add(v, Ordering::Relaxed);
                            on.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        let mut rest = 0u64;
        let mut rest_n = 0u64;
        let mut last = 0;
        while let Some(v) = q.pop_min() {
            assert!(v >= last);
            last = v;
            rest += v;
            rest_n += 1;
        }
        assert_eq!(pushed_n.load(Ordering::Relaxed), popped_n.load(Ordering::Relaxed) + rest_n);
        assert_eq!(pushed.load(Ordering::Relaxed), popped.load(Ordering::Relaxed) + rest);
    }

    #[test]
    fn queue_concurrent_lockfree() {
        let q = SkipQueue::new_lockfree();
        queue_concurrent_conservation(&q, 4, 1_500);
    }

    #[test]
    fn queue_concurrent_pto() {
        let q = SkipQueue::new_pto();
        queue_concurrent_conservation(&q, 4, 1_500);
    }

    #[test]
    fn pop_min_is_monotone_under_concurrent_pops() {
        // With only pops running, values handed out must be globally
        // monotone (it's a linearizable priority queue drained in order).
        let q = SkipQueue::new_lockfree();
        for i in 0..2_000 {
            q.push(i);
        }
        let results: Vec<Vec<u64>> = std::thread::scope(|sc| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let q = &q;
                    sc.spawn(move || {
                        let mut got = Vec::new();
                        while let Some(v) = q.pop_min() {
                            got.push(v);
                        }
                        got
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Each thread's local sequence must be increasing, and the union
        // must be exactly 0..2000.
        let mut all: Vec<u64> = Vec::new();
        for r in &results {
            assert!(r.windows(2).all(|w| w[0] < w[1]), "thread saw out-of-order pops");
            all.extend_from_slice(r);
        }
        all.sort_unstable();
        assert_eq!(all, (0..2_000).collect::<Vec<_>>());
    }

    #[test]
    fn tower_invariants_hold_after_sequential_churn() {
        let s = SkipListSet::new_pto();
        let mut rng = XorShift64::new(808);
        for _ in 0..5_000 {
            let k = rng.below(256);
            if rng.chance(1, 2) {
                s.insert(k);
            } else {
                s.remove(k);
            }
        }
        s.check_towers().unwrap();
    }

    #[test]
    fn tower_invariants_hold_after_concurrent_churn() {
        for s in [SkipListSet::new_lockfree(), SkipListSet::new_pto()] {
            std::thread::scope(|sc| {
                for t in 0..4u64 {
                    let s = &s;
                    sc.spawn(move || {
                        let mut rng = XorShift64::new(t * 31 + 5);
                        for _ in 0..1_500 {
                            let k = rng.below(128);
                            if rng.chance(1, 2) {
                                s.insert(k);
                            } else {
                                s.remove(k);
                            }
                        }
                    });
                }
            });
            s.check_towers().unwrap();
        }
    }

    #[test]
    fn height_distribution_is_geometric_ish() {
        let l = SkipList::new(Mode::LockFree);
        let mut counts = [0usize; MAX_LEVEL + 1];
        for _ in 0..10_000 {
            counts[l.random_height()] += 1;
        }
        assert!(counts[1] > 4_000 && counts[1] < 6_000, "h=1: {}", counts[1]);
        assert!(counts[2] > 1_900 && counts[2] < 3_100, "h=2: {}", counts[2]);
    }
}

#[cfg(test)]
mod cause_observability {
    use super::*;
    use pto_core::ConcurrentSet;

    #[test]
    fn chaos_aborts_land_in_the_spurious_bucket() {
        let s = SkipListSet::new_pto_with(PtoPolicy::with_attempts(2).with_chaos(100));
        assert!(s.insert(7));
        assert!(s.contains(7));
        assert!(s.remove(7));
        let stats = s.pto_stats().unwrap();
        assert!(stats.causes.spurious.get() > 0);
        assert_eq!(stats.causes.total(), stats.aborted_attempts.get());
        assert_eq!(stats.causes.explicit.get(), 0);
    }
}
