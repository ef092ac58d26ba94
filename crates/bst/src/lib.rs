//! # pto-bst — Ellen et al. nonblocking BST with composable PTO (§3.2, §4.4)
//!
//! The baseline is the leaf-oriented (external) nonblocking binary search
//! tree of Ellen, Fatourou, Ruppert and van Breugel (PODC'10): internal
//! nodes hold routing keys and exactly two children; leaves hold the set's
//! keys. Updates coordinate through per-internal-node `update` words that
//! hold a state (`CLEAN`/`IFLAG`/`DFLAG`/`MARK`) and a pointer to an *Info
//! descriptor* allocated by the operation, enabling helping: an insert
//! flags the parent, swings the child pointer, and unflags; a delete flags
//! the grandparent, *marks* the parent (permanently), prunes parent+leaf,
//! and unflags.
//!
//! Three PTO applications, exactly the paper's (§3.2, §4.4):
//!
//! * **PTO1** — the whole operation (search + update) in one prefix
//!   transaction. The Info descriptor is never allocated: the transaction's
//!   atomicity replaces the flag/unflag protocol (the update word's version
//!   counter is still bumped so concurrent fallback snapshots invalidate).
//!   A removed parent is marked with a **statically-allocated dummy
//!   descriptor** — the one state the original algorithm never cleans up,
//!   so it cannot be elided (§3.2). Lookups run unpinned: transactional
//!   opacity subsumes epoch protection (§4.5).
//! * **PTO2** — only the update phase runs transactionally; the search
//!   phase stays outside (epoch-pinned, paying the baseline's fences), in
//!   exchange for a much smaller conflict window.
//! * **PTO1+PTO2** — the §2.5 composition: 2 attempts of PTO1, then 16 of
//!   PTO2 inside its fallback, then the untouched lock-free code.
//!
//! A child word is `[tag:31][leaf:1][node:32]`: every walk takes its leaf
//! test from the link it followed instead of loading the child's `left`
//! word. The bit is set where the link is written (a new internal node's
//! two children are leaves, an insert links an internal node, a prune
//! copies the bit of the sibling word it read) and never rewritten, which
//! is exact because a node's kind is fixed from allocation until it is
//! retired. An epoch-pinned reader's slot cannot be recycled under it,
//! and a transactional reader of a link swung since it read it fails
//! validation, so no reader acts on a bit of a recycled slot. Every swing
//! advances the 31-bit tag: a stalled helper's CAS is fooled only if the
//! same child word is swung a multiple of 2^31 times while it stalls.
//!
//! Keys are `u32` with `u32::MAX` reserved as the +∞ sentinel.

use pto_core::compose::Anchor;
use pto_core::policy::{pto, pto_adaptive, AdaptivePolicy, PtoPolicy, PtoStats};
use pto_core::ConcurrentSet;
use pto_htm::{TxResult, TxWord, Txn};
use pto_mem::epoch::{self, Guard};
use pto_mem::{Pool, NIL};
use std::cell::Cell;
use std::sync::atomic::Ordering;

/// +∞ routing sentinel.
const INF: u32 = u32::MAX;
/// "No node" in child words.
const NIL_LINK: u64 = NIL as u64;
/// The statically-allocated dummy descriptor index (§3.2): marks parents
/// removed by a committed prefix transaction.
const DUMMY_INFO: u32 = u32::MAX - 1;

// update word layout: [count:28][info:32][state:2]
const ST_CLEAN: u64 = 0;
const ST_IFLAG: u64 = 1;
const ST_DFLAG: u64 = 2;
const ST_MARK: u64 = 3;

#[inline]
fn up_pack(state: u64, info: u32, count: u64) -> u64 {
    debug_assert!(state < 4);
    (count & ((1 << 28) - 1)) << 34 | (info as u64) << 2 | state
}

#[inline]
fn up_state(w: u64) -> u64 {
    w & 3
}

#[inline]
fn up_info(w: u64) -> u32 {
    (w >> 2) as u32
}

#[inline]
fn up_count(w: u64) -> u64 {
    w >> 34
}

/// CLEAN with a bumped version: invalidates every snapshot of the old word.
#[inline]
fn clean_bump(w: u64) -> u64 {
    up_pack(ST_CLEAN, NIL, up_count(w) + 1)
}

/// CLEAN for a pool-recycled node, advancing the count past the slot's
/// previous life. Update-word counts must be **monotone per slot across
/// recycling**: the PTO2 update phase and the lock-free CASes validate
/// snapshots by word equality, and a recycled node re-initialized to
/// count 0 is bit-identical to the snapshot a stalled operation took
/// against the slot's previous occupant (`CLEAN/NIL/c0` is the common
/// state of every fresh internal node). Such an operation then commits a
/// prune/mark derived from a dead tree shape — observed as a reachable
/// `MARK/DUMMY` node that no helper can clean, livelocking every op
/// routed through it. Ellen et al. get this invariant for free from
/// GC-fresh allocations; a recycling pool has to preserve it by hand.
#[inline]
fn clean_recycle(prev: u64) -> u64 {
    up_pack(ST_CLEAN, NIL, up_count(prev) + 1)
}

/// Child-word layout: [tag:31][leaf:1][node:32] (see the crate docs).
/// Every write that swings a child bumps the tag, so a child word never
/// returns to a value a stalled helper may still CAS against. Without it
/// the insert-helping CAS is ABA prone: after `insert(k)` links internal
/// `ni` over leaf `l` and `remove(k)` prunes `ni` again, the parent's
/// child is `l` once more, and a late helper of the insert re-links the
/// pruned, marked `ni` (resurrecting `k` under a descriptor that has since
/// been recycled, so no helper can clean it and every op routed through
/// it livelocks). Ellen et al. avoid this by linking a fresh *copy* of
/// `l`; tagging costs no extra allocation. Leaf children stay exactly
/// `NIL_LINK`.
const LEAF: u64 = 1 << 32;

#[inline]
fn link_idx(w: u64) -> u32 {
    w as u32
}

#[inline]
fn link_is_leaf(w: u64) -> bool {
    w & LEAF != 0
}

/// Child word `w` swung to the node that `to` names, with `to`'s leaf bit
/// and `w`'s tag advanced. `to` is a node index (an internal node), a
/// `LEAF | index`, or a child word whose own tag is dropped.
#[inline]
fn link_bump(w: u64, to: u64) -> u64 {
    ((w >> 33) + 1) << 33 | (to & (LEAF | 0xFFFF_FFFF))
}

/// A tree node; leaves have `NIL` children. Slots are recycled through the
/// epoch-deferred pool.
pub struct BstNode {
    key: TxWord,
    left: TxWord,
    right: TxWord,
    update: TxWord,
}

impl Default for BstNode {
    fn default() -> Self {
        BstNode {
            key: TxWord::new(0),
            left: TxWord::new(NIL_LINK),
            right: TxWord::new(NIL_LINK),
            update: TxWord::new(up_pack(ST_CLEAN, NIL, 0)),
        }
    }
}

/// An operation descriptor (Ellen et al.'s IInfo/DInfo), enabling helping.
/// Descriptors are never accessed inside prefix transactions. The update
/// word's flag says which op an `Info` belongs to.
#[derive(Default)]
pub struct Info {
    gp: TxWord,
    p: TxWord,
    /// The child word the op swings away from: `p → l` for an insert,
    /// `gp → p` for a delete.
    link: TxWord,
    /// Insert only: the child word that links the new internal node.
    ni: TxWord,
    pupdate: TxWord,
    /// The DFLAG word installed at gp (lets MARK observers finish the job).
    dword: TxWord,
    gp_slot: TxWord,
    p_slot: TxWord,
}

/// The fields of an [`Info`]. The owner passes the values it wrote to the
/// code that completes its op; a helper, which found the `Info` through an
/// update word, loads the ones that word's state needs, once each
/// ([`Bst::help`]).
#[derive(Default)]
struct Fields {
    gp: u32,
    p: u32,
    link: u64,
    ni: u64,
    pupdate: u64,
    dword: u64,
    gp_slot: u64,
    p_slot: u64,
}

/// An insert's private (internal, leaf) pair: empty until an attempt has
/// proven the key absent and the parent CLEAN, then reused by every later
/// attempt of the same operation. An insert that finds its key therefore
/// allocates nothing.
type InsertPair = Cell<Option<(u32, u32)>>;

/// Result of one update attempt.
enum Attempt {
    Present,
    Absent,
    Inserted,
    Deleted { p: u32, l: u32 },
    Stale,
}

/// Search snapshot: leaf and its key, parent, grandparent, their update
/// words, the tagged child words of the `gp → p` and `p → l` edges, and
/// which child slot each edge used (0 = left, 1 = right). The PTO1 walk
/// reads no update word on the way down: its `gpu` and `pu` are 0 until
/// the update phase reads the ones it needs.
#[derive(Clone, Copy, Debug)]
struct Snap {
    gp: u32,
    p: u32,
    l: u32,
    lk: u32,
    gpu: u64,
    pu: u64,
    pw: u64,
    lw: u64,
    gp_slot: u64,
    p_slot: u64,
}

/// Which PTO configuration a [`Bst`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BstVariant {
    /// The untouched Ellen et al. algorithm.
    LockFree,
    /// Whole-operation prefix transactions.
    Pto1,
    /// Update-phase-only prefix transactions.
    Pto2,
    /// PTO1 (2 attempts) composed over PTO2 (16 attempts) — §4.4.
    Pto1Pto2,
    /// The §4.4 composition under self-tuning policies: every PTO call
    /// site adapts its retry budget to its own abort-cause stream, and
    /// pure prefixes (lookups, deletes, the PTO2 update phase) may take
    /// the single-orec middle path when conflicts concentrate on one
    /// granule. The whole-op *insert* prefix keeps the middle path
    /// disarmed: it initializes private nodes non-transactionally, and a
    /// non-transactional store that hashed to the held orec would
    /// self-deadlock.
    Adaptive,
}

/// The set. See crate docs; construct via [`Bst::new`].
pub struct Bst {
    nodes: Pool<BstNode>,
    infos: Pool<Info>,
    variant: BstVariant,
    p1: PtoPolicy,
    p2: PtoPolicy,
    /// Adaptive wrappers around `p1`/`p2` (used by [`BstVariant::Adaptive`]).
    a1: AdaptivePolicy,
    a2: AdaptivePolicy,
    /// Outer (PTO1 / whole-op) path statistics.
    pub stats1: PtoStats,
    /// Inner (PTO2 / update-phase) path statistics.
    pub stats2: PtoStats,
    grandroot: u32,
    anchor: Anchor,
}

impl Bst {
    /// A BST running `variant` with the paper's retry thresholds
    /// (PTO1: 4 standalone / 2 composed; PTO2: 4 standalone / 16 composed).
    pub fn new(variant: BstVariant) -> Self {
        let (a1, a2) = match variant {
            BstVariant::Pto1Pto2 | BstVariant::Adaptive => (2, 16),
            _ => (4, 4),
        };
        Self::with_policies(
            variant,
            PtoPolicy::with_attempts(a1),
            PtoPolicy::with_attempts(a2),
        )
    }

    /// Full control over both policies (retry sweeps, fence ablation).
    pub fn with_policies(variant: BstVariant, p1: PtoPolicy, p2: PtoPolicy) -> Self {
        let nodes: Pool<BstNode> = Pool::new();
        // grandroot(∞) -> root(∞) -> [leaf(∞), leaf(∞)]; all real keys
        // route left of both sentinels, so every real leaf has an internal
        // parent *and* grandparent.
        let grandroot = nodes.alloc();
        let root = nodes.alloc();
        let l0 = nodes.alloc();
        let l1 = nodes.alloc();
        let r2 = nodes.alloc();
        for &l in &[l0, l1, r2] {
            let n = nodes.get(l);
            n.key.init(INF as u64);
            n.left.init(NIL_LINK);
            n.right.init(NIL_LINK);
            n.update.init(up_pack(ST_CLEAN, NIL, 0));
        }
        let g = nodes.get(grandroot);
        g.key.init(INF as u64);
        g.left.init(root as u64);
        g.right.init(LEAF | r2 as u64);
        g.update.init(up_pack(ST_CLEAN, NIL, 0));
        let r = nodes.get(root);
        r.key.init(INF as u64);
        r.left.init(LEAF | l0 as u64);
        r.right.init(LEAF | l1 as u64);
        r.update.init(up_pack(ST_CLEAN, NIL, 0));
        Bst {
            nodes,
            infos: Pool::new(),
            variant,
            p1,
            p2,
            a1: AdaptivePolicy::new(p1),
            a2: AdaptivePolicy::new(p2),
            stats1: PtoStats::new(),
            stats2: PtoStats::new(),
            grandroot,
            anchor: Anchor::new(),
        }
    }

    /// An adaptive tree with full control over both adaptation surfaces
    /// (middle-path forcing, streak/probe tuning). The base policies are
    /// taken from the wrappers.
    pub fn with_adaptive(a1: AdaptivePolicy, a2: AdaptivePolicy) -> Self {
        let mut t = Self::with_policies(BstVariant::Adaptive, a1.base, a2.base);
        t.a1 = a1;
        t.a2 = a2;
        t
    }

    #[inline]
    fn node(&self, i: u32) -> &BstNode {
        self.nodes.get(i)
    }

    #[inline]
    fn child_word(&self, n: u32, slot: u64) -> &TxWord {
        if slot == 0 {
            &self.node(n).left
        } else {
            &self.node(n).right
        }
    }

    // ------------------------------------------------------------------
    // Lock-free baseline
    // ------------------------------------------------------------------

    /// The search phase: returns leaf, parent, grandparent and their update
    /// snapshots, reading per level the update word, the key and the child
    /// word, whose leaf bit ends the walk, and then the leaf's key.
    /// Requires an epoch guard (traverses shared nodes).
    fn search(&self, k: u32, _g: &Guard) -> Snap {
        let mut gp;
        let mut gpu;
        let mut pw;
        let mut gp_slot;
        let mut p = self.grandroot;
        let mut pu = self.node(p).update.load(Ordering::Acquire);
        let mut p_slot = 0u64;
        let mut lw = self.node(p).left.load(Ordering::Acquire);
        loop {
            // First iteration: l is the root internal node, so we always
            // execute at least once and gp is always initialized.
            gp = p;
            gpu = pu;
            pw = lw;
            gp_slot = p_slot;
            p = link_idx(lw);
            pu = self.node(p).update.load(Ordering::Acquire);
            let pk = self.node(p).key.load(Ordering::Acquire) as u32;
            p_slot = if k < pk { 0 } else { 1 };
            lw = self.child_word(p, p_slot).load(Ordering::Acquire);
            if link_is_leaf(lw) {
                let l = link_idx(lw);
                return Snap {
                    gp,
                    p,
                    l,
                    lk: self.node(l).key.load(Ordering::Acquire) as u32,
                    gpu,
                    pu,
                    pw,
                    lw,
                    gp_slot,
                    p_slot,
                };
            }
        }
    }

    fn lf_lookup(&self, k: u32, _g: &Guard) -> bool {
        let mut w = self.node(self.grandroot).left.load(Ordering::Acquire);
        loop {
            let n = link_idx(w);
            let nk = self.node(n).key.load(Ordering::Acquire) as u32;
            if link_is_leaf(w) {
                return nk == k;
            }
            w = self.child_word(n, (k >= nk) as u64).load(Ordering::Acquire);
        }
    }

    /// Fill the op's internal+leaf pair for an insertion of `k` next to
    /// leaf `l` whose key is `lk`, allocating it on first use (private
    /// nodes; published only by the link write). `Pool::alloc` touches no
    /// `TxWord`, so calling this inside a prefix cannot abort it. Returns
    /// the internal node.
    fn configure_insert_nodes(&self, k: u32, lk: u32, l: u32, pair: &InsertPair) -> u32 {
        debug_assert_ne!(lk, k);
        let (ni, nl) = pair.get().unwrap_or_else(|| {
            let nl = self.nodes.alloc();
            let ni = self.nodes.alloc();
            pair.set(Some((ni, nl)));
            (ni, nl)
        });
        // The pair is private, so its cells are stable and `peek_racy` is
        // exact. `peek` would wait on the words' shared orecs, which another
        // lane may hold while parked at the gate behind this lane's clock.
        let leaf = self.node(nl);
        leaf.key.init(k as u64);
        leaf.left.init(NIL_LINK);
        leaf.right.init(NIL_LINK);
        leaf.update.init(clean_recycle(leaf.update.peek_racy()));
        let internal = self.node(ni);
        internal.update.init(clean_recycle(internal.update.peek_racy()));
        let (key, left, right) = if k < lk { (lk, nl, l) } else { (k, l, nl) };
        internal.key.init(key as u64);
        // Both children of a new internal node are leaves.
        for (w, n) in [(&internal.left, left), (&internal.right, right)] {
            w.init(link_bump(w.peek_racy(), LEAF | n as u64));
        }
        ni
    }

    /// Help the op whose `Info` the update word `w` names: load the fields
    /// `w`'s state needs, once each, and finish the op from there.
    fn help(&self, w: u64) {
        let (state, i) = (up_state(w), up_info(w));
        // Dummy marks are already fully removed.
        if state == ST_CLEAN || i == DUMMY_INFO {
            return;
        }
        let info = self.infos.get(i);
        let ld = |word: &TxWord| word.load(Ordering::Acquire);
        let f = Fields {
            p: ld(&info.p) as u32,
            link: ld(&info.link),
            p_slot: ld(&info.p_slot),
            ..Fields::default()
        };
        if state == ST_IFLAG {
            let ni = ld(&info.ni);
            return self.help_insert(&Fields { ni, ..f }, w);
        }
        let f = Fields {
            gp: ld(&info.gp) as u32,
            dword: ld(&info.dword),
            gp_slot: ld(&info.gp_slot),
            ..f
        };
        if state == ST_DFLAG {
            let pupdate = ld(&info.pupdate);
            self.help_delete(&Fields { pupdate, ..f });
        } else {
            // A marked parent of an in-flight delete: finish the prune.
            self.help_marked(&f);
        }
    }

    fn help_insert(&self, f: &Fields, iword: u64) {
        // ichild then iunflag; both CASes are idempotent across helpers,
        // and the tag keeps a late ichild from re-linking a pruned `ni`.
        let _ = self
            .child_word(f.p, f.p_slot)
            .compare_exchange(f.link, f.ni, Ordering::SeqCst);
        let _ = self
            .node(f.p)
            .update
            .compare_exchange(iword, clean_bump(iword), Ordering::SeqCst);
    }

    /// Returns true if the delete went through (marked + pruned), false if
    /// it had to back off (the parent changed under the flag).
    fn help_delete(&self, f: &Fields) -> bool {
        let markword = up_pack(ST_MARK, up_info(f.dword), up_count(f.pupdate) + 1);
        // Update counts only grow, so once this CAS fails no helper can
        // still install `markword`: the returned word settles it.
        let res = self
            .node(f.p)
            .update
            .compare_exchange(f.pupdate, markword, Ordering::SeqCst);
        if res.is_ok() || res == Err(markword) {
            self.help_marked(f);
            true
        } else {
            // Backtrack: unflag the grandparent so others can proceed.
            let _ = self.node(f.gp).update.compare_exchange(
                f.dword,
                clean_bump(f.dword),
                Ordering::SeqCst,
            );
            false
        }
    }

    fn help_marked(&self, f: &Fields) {
        // The parent is marked: its children are frozen, the sibling read
        // is stable.
        let sibling = self.child_word(f.p, 1 - f.p_slot).load(Ordering::Acquire);
        let _ = self.child_word(f.gp, f.gp_slot).compare_exchange(
            f.link,
            link_bump(f.link, sibling),
            Ordering::SeqCst,
        );
        let _ =
            self.node(f.gp)
                .update
                .compare_exchange(f.dword, clean_bump(f.dword), Ordering::SeqCst);
    }

    fn lf_insert_attempt(&self, k: u32, s: &Snap, pair: &InsertPair) -> Attempt {
        if s.lk == k {
            return Attempt::Present;
        }
        if up_state(s.pu) != ST_CLEAN {
            self.help(s.pu);
            return Attempt::Stale;
        }
        let ni = self.configure_insert_nodes(k, s.lk, s.l, pair);
        let i = self.infos.alloc();
        let f = Fields {
            p: s.p,
            link: s.lw,
            ni: link_bump(s.lw, ni as u64),
            p_slot: s.p_slot,
            ..Fields::default()
        };
        let info = self.infos.get(i);
        info.p.init(f.p as u64);
        info.link.init(f.link);
        info.ni.init(f.ni);
        info.p_slot.init(f.p_slot);
        let iword = up_pack(ST_IFLAG, i, up_count(s.pu) + 1);
        if self
            .node(s.p)
            .update
            .compare_exchange(s.pu, iword, Ordering::SeqCst)
            .is_ok()
        {
            self.help_insert(&f, iword);
            self.infos.retire(i);
            Attempt::Inserted
        } else {
            self.infos.free_now(i);
            Attempt::Stale
        }
    }

    fn lf_delete_attempt(&self, k: u32, s: &Snap) -> Attempt {
        if s.lk != k {
            return Attempt::Absent;
        }
        if up_state(s.gpu) != ST_CLEAN {
            self.help(s.gpu);
            return Attempt::Stale;
        }
        if up_state(s.pu) != ST_CLEAN {
            self.help(s.pu);
            return Attempt::Stale;
        }
        let i = self.infos.alloc();
        let f = Fields {
            gp: s.gp,
            p: s.p,
            link: s.pw,
            pupdate: s.pu,
            dword: up_pack(ST_DFLAG, i, up_count(s.gpu) + 1),
            gp_slot: s.gp_slot,
            p_slot: s.p_slot,
            ..Fields::default()
        };
        let info = self.infos.get(i);
        info.gp.init(f.gp as u64);
        info.p.init(f.p as u64);
        info.link.init(f.link);
        info.pupdate.init(f.pupdate);
        info.gp_slot.init(f.gp_slot);
        info.p_slot.init(f.p_slot);
        info.dword.init(f.dword);
        if self
            .node(s.gp)
            .update
            .compare_exchange(s.gpu, f.dword, Ordering::SeqCst)
            .is_ok()
        {
            if self.help_delete(&f) {
                self.infos.retire(i);
                Attempt::Deleted { p: s.p, l: s.l }
            } else {
                self.infos.retire(i);
                Attempt::Stale
            }
        } else {
            self.infos.free_now(i);
            Attempt::Stale
        }
    }

    // ------------------------------------------------------------------
    // Prefix transactions
    // ------------------------------------------------------------------

    /// The PTO1 walk: per level, the node's routing key and the child word
    /// it follows, whose leaf bit ends the walk. Returns the path and the
    /// leaf's key, with update words 0. Every read of one transaction
    /// comes from one atomic snapshot, so Ellen's update-before-child read
    /// order, which [`Bst::search`] keeps for its CASes, buys nothing here.
    fn tx_walk<'e>(&'e self, tx: &mut Txn<'e>, k: u32) -> TxResult<Snap> {
        // The first node visited is the root, which is always internal, so
        // the grandparent fields are overwritten before any leaf is found.
        let (mut gp, mut pw, mut gp_slot) = (self.grandroot, NIL_LINK, 0u64);
        let mut p = self.grandroot;
        let mut p_slot = 0u64;
        let mut lw = tx.read(&self.node(p).left)?;
        loop {
            let l = link_idx(lw);
            let lk = tx.read(&self.node(l).key)? as u32;
            if link_is_leaf(lw) {
                return Ok(Snap {
                    gp,
                    p,
                    l,
                    lk,
                    gpu: 0,
                    pu: 0,
                    pw,
                    lw,
                    gp_slot,
                    p_slot,
                });
            }
            (gp, pw, gp_slot) = (p, lw, p_slot);
            (p, p_slot) = (l, (k >= lk) as u64);
            lw = tx.read(self.child_word(p, p_slot))?;
        }
    }

    /// PTO1 insert: whole operation in one transaction. No Info descriptor
    /// is allocated (§3.2) — the update word's counter bump replaces the
    /// flag/unflag round trip.
    fn tx_insert_whole<'e>(
        &'e self,
        tx: &mut Txn<'e>,
        k: u32,
        pair: &InsertPair,
    ) -> TxResult<Attempt> {
        let s = self.tx_walk(tx, k)?;
        if s.lk == k {
            return Ok(Attempt::Present);
        }
        let pu = tx.read(&self.node(s.p).update)?;
        if up_state(pu) != ST_CLEAN {
            return Err(tx.abort(pto_core::ABORT_HELP));
        }
        let ni = self.configure_insert_nodes(k, s.lk, s.l, pair);
        tx.write(self.child_word(s.p, s.p_slot), link_bump(s.lw, ni as u64))?;
        tx.fence();
        tx.write(&self.node(s.p).update, clean_bump(pu))?;
        tx.fence();
        Ok(Attempt::Inserted)
    }

    /// PTO1 delete: mark the parent with the dummy descriptor, prune, bump
    /// the grandparent's update version — all atomically.
    fn tx_delete_whole<'e>(&'e self, tx: &mut Txn<'e>, k: u32) -> TxResult<Attempt> {
        let s = self.tx_walk(tx, k)?;
        if s.lk != k {
            return Ok(Attempt::Absent);
        }
        let gpu = tx.read(&self.node(s.gp).update)?;
        let pu = tx.read(&self.node(s.p).update)?;
        if up_state(gpu) != ST_CLEAN || up_state(pu) != ST_CLEAN {
            return Err(tx.abort(pto_core::ABORT_HELP));
        }
        self.tx_prune(tx, &Snap { gpu, pu, ..s })
    }

    /// The prune both delete prefixes end with: swing `gp`'s child from `p`
    /// to `l`'s sibling, bump `gp`'s update word and mark `p` with the
    /// dummy descriptor. `s.gpu` and `s.pu` are the words the prefix read.
    fn tx_prune<'e>(&'e self, tx: &mut Txn<'e>, s: &Snap) -> TxResult<Attempt> {
        let sibling = tx.read(self.child_word(s.p, 1 - s.p_slot))?;
        tx.write(self.child_word(s.gp, s.gp_slot), link_bump(s.pw, sibling))?;
        tx.fence();
        tx.write(&self.node(s.gp).update, clean_bump(s.gpu))?;
        tx.fence();
        tx.write(
            &self.node(s.p).update,
            up_pack(ST_MARK, DUMMY_INFO, up_count(s.pu) + 1),
        )?;
        tx.fence();
        Ok(Attempt::Deleted { p: s.p, l: s.l })
    }

    /// PTO1 lookup: the walk alone, no epoch interaction at all.
    fn tx_lookup<'e>(&'e self, tx: &mut Txn<'e>, k: u32) -> TxResult<bool> {
        Ok(self.tx_walk(tx, k)?.lk == k)
    }

    /// PTO2 insert: validate the (non-transactional) search snapshot, then
    /// perform just the update phase transactionally.
    fn tx_insert_update<'e>(&'e self, tx: &mut Txn<'e>, s: &Snap, ni: u32) -> TxResult<Attempt> {
        let pu_now = tx.read(&self.node(s.p).update)?;
        if pu_now != s.pu {
            return Ok(Attempt::Stale);
        }
        let cw = tx.read(self.child_word(s.p, s.p_slot))?;
        if cw != s.lw {
            return Ok(Attempt::Stale);
        }
        tx.write(self.child_word(s.p, s.p_slot), link_bump(s.lw, ni as u64))?;
        tx.fence();
        tx.write(&self.node(s.p).update, clean_bump(s.pu))?;
        tx.fence();
        Ok(Attempt::Inserted)
    }

    /// PTO2 delete: validate gp/p snapshots and the gp→p edge, then prune.
    fn tx_delete_update<'e>(&'e self, tx: &mut Txn<'e>, s: &Snap) -> TxResult<Attempt> {
        let gpu_now = tx.read(&self.node(s.gp).update)?;
        let pu_now = tx.read(&self.node(s.p).update)?;
        if gpu_now != s.gpu || pu_now != s.pu {
            return Ok(Attempt::Stale);
        }
        let edge = tx.read(self.child_word(s.gp, s.gp_slot))?;
        if edge != s.pw {
            return Ok(Attempt::Stale);
        }
        self.tx_prune(tx, s)
    }

    // ------------------------------------------------------------------
    // Drivers
    // ------------------------------------------------------------------

    /// The non-transactional preamble of a PTO2 insert: search, duplicate
    /// check, helping, and private-node configuration. Returns the snapshot
    /// and the internal node to link; `Err` short-circuits the attempt with
    /// its outcome.
    fn pto2_insert_prepare(
        &self,
        k: u32,
        pair: &InsertPair,
        g: &Guard,
    ) -> Result<(Snap, u32), Attempt> {
        let s = self.search(k, g);
        if s.lk == k {
            return Err(Attempt::Present);
        }
        if up_state(s.pu) != ST_CLEAN {
            self.help(s.pu);
            return Err(Attempt::Stale);
        }
        let ni = self.configure_insert_nodes(k, s.lk, s.l, pair);
        Ok((s, ni))
    }

    /// The non-transactional preamble of a PTO2 delete.
    fn pto2_delete_prepare(&self, k: u32, g: &Guard) -> Result<Snap, Attempt> {
        let s = self.search(k, g);
        if s.lk != k {
            return Err(Attempt::Absent);
        }
        if up_state(s.gpu) != ST_CLEAN {
            self.help(s.gpu);
            return Err(Attempt::Stale);
        }
        if up_state(s.pu) != ST_CLEAN {
            self.help(s.pu);
            return Err(Attempt::Stale);
        }
        Ok(s)
    }

    /// One insert attempt through the PTO2 pipeline (search outside,
    /// update phase transactional, lock-free fallback).
    fn pto2_insert_attempt(&self, k: u32, pair: &InsertPair) -> Attempt {
        let g = epoch::pin();
        let (s, ni) = match self.pto2_insert_prepare(k, pair, &g) {
            Ok(prepared) => prepared,
            Err(done) => return done,
        };
        pto(
            &self.p2,
            &self.stats2,
            |tx| self.tx_insert_update(tx, &s, ni),
            || self.lf_insert_attempt(k, &s, pair),
        )
    }

    fn pto2_delete_attempt(&self, k: u32) -> Attempt {
        let g = epoch::pin();
        let s = match self.pto2_delete_prepare(k, &g) {
            Ok(s) => s,
            Err(done) => return done,
        };
        pto(
            &self.p2,
            &self.stats2,
            |tx| self.tx_delete_update(tx, &s),
            || self.lf_delete_attempt(k, &s),
        )
    }

    /// PTO2 insert attempt under the self-tuning policy. The update-phase
    /// prefix is purely transactional (node configuration already happened
    /// in the preamble), so the middle path is safe here.
    fn pto2_insert_attempt_adaptive(&self, k: u32, pair: &InsertPair) -> Attempt {
        let g = epoch::pin();
        let (s, ni) = match self.pto2_insert_prepare(k, pair, &g) {
            Ok(prepared) => prepared,
            Err(done) => return done,
        };
        pto_adaptive(
            &self.a2,
            &self.stats2,
            |tx| self.tx_insert_update(tx, &s, ni),
            || self.lf_insert_attempt(k, &s, pair),
        )
    }

    fn pto2_delete_attempt_adaptive(&self, k: u32) -> Attempt {
        let g = epoch::pin();
        let s = match self.pto2_delete_prepare(k, &g) {
            Ok(s) => s,
            Err(done) => return done,
        };
        pto_adaptive(
            &self.a2,
            &self.stats2,
            |tx| self.tx_delete_update(tx, &s),
            || self.lf_delete_attempt(k, &s),
        )
    }

    fn lf_insert_loop(&self, k: u32, pair: &InsertPair) -> Attempt {
        let g = epoch::pin();
        loop {
            let s = self.search(k, &g);
            match self.lf_insert_attempt(k, &s, pair) {
                Attempt::Stale => continue,
                other => return other,
            }
        }
    }

    fn lf_delete_loop(&self, k: u32) -> Attempt {
        let g = epoch::pin();
        loop {
            let s = self.search(k, &g);
            match self.lf_delete_attempt(k, &s) {
                Attempt::Stale => continue,
                other => return other,
            }
        }
    }


    fn insert_impl(&self, k: u32) -> bool {
        let pair = InsertPair::new(None);
        loop {
            let attempt = match self.variant {
                BstVariant::LockFree => self.lf_insert_loop(k, &pair),
                BstVariant::Pto1 => pto(
                    &self.p1,
                    &self.stats1,
                    |tx| self.tx_insert_whole(tx, k, &pair),
                    || self.lf_insert_loop(k, &pair),
                ),
                BstVariant::Pto2 => self.pto2_insert_attempt(k, &pair),
                BstVariant::Pto1Pto2 => pto(
                    &self.p1,
                    &self.stats1,
                    |tx| self.tx_insert_whole(tx, k, &pair),
                    || self.pto2_insert_attempt(k, &pair),
                ),
                BstVariant::Adaptive => {
                    // The whole-op insert prefix initializes private nodes
                    // non-transactionally; keep the middle path disarmed at
                    // this site (see `BstVariant::Adaptive` docs). The inner
                    // PTO2 stage still gets its middle path.
                    let a1 = self.a1.with_middle_streak(u32::MAX);
                    pto_adaptive(
                        &a1,
                        &self.stats1,
                        |tx| self.tx_insert_whole(tx, k, &pair),
                        || self.pto2_insert_attempt_adaptive(k, &pair),
                    )
                }
            };
            match attempt {
                Attempt::Inserted => {
                    return true;
                }
                Attempt::Present => {
                    if let Some((ni, nl)) = pair.get() {
                        self.nodes.free_now(nl);
                        self.nodes.free_now(ni);
                    }
                    return false;
                }
                Attempt::Stale => continue,
                _ => unreachable!("insert cannot produce delete outcomes"),
            }
        }
    }

    fn remove_impl(&self, k: u32) -> bool {
        loop {
            let attempt = match self.variant {
                BstVariant::LockFree => self.lf_delete_loop(k),
                BstVariant::Pto1 => pto(
                    &self.p1,
                    &self.stats1,
                    |tx| self.tx_delete_whole(tx, k),
                    || self.lf_delete_loop(k),
                ),
                BstVariant::Pto2 => self.pto2_delete_attempt(k),
                BstVariant::Pto1Pto2 => pto(
                    &self.p1,
                    &self.stats1,
                    |tx| self.tx_delete_whole(tx, k),
                    || self.pto2_delete_attempt(k),
                ),
                BstVariant::Adaptive => pto_adaptive(
                    &self.a1,
                    &self.stats1,
                    |tx| self.tx_delete_whole(tx, k),
                    || self.pto2_delete_attempt_adaptive(k),
                ),
            };
            match attempt {
                Attempt::Deleted { p, l } => {
                    self.nodes.retire(p);
                    self.nodes.retire(l);
                    return true;
                }
                Attempt::Absent => return false,
                Attempt::Stale => continue,
                _ => unreachable!("delete cannot produce insert outcomes"),
            }
        }
    }

    // ------------------------------------------------------------------
    // Compose surface (pto_core::compose)
    // ------------------------------------------------------------------

    /// This tree's participation anchor for composed operations.
    pub fn anchor(&self) -> &Anchor {
        &self.anchor
    }

    /// Transactional delete half for a composed prefix: `Some((parent,
    /// leaf))` when `key` was removed (pass the pair to
    /// [`Bst::compose_retire_pair`] **after** the composed transaction
    /// commits), `None` when absent. A flagged grandparent/parent needs
    /// helping, so it aborts and the composed fallback — the ordinary
    /// [`ConcurrentSet::remove`] under the anchors — takes over.
    #[doc(hidden)]
    pub fn tx_compose_remove<'e>(
        &'e self,
        tx: &mut Txn<'e>,
        key: u64,
    ) -> TxResult<Option<(u32, u32)>> {
        self.anchor.tx_check(tx)?;
        match self.tx_delete_whole(tx, check_key(key))? {
            Attempt::Deleted { p, l } => Ok(Some((p, l))),
            Attempt::Absent => Ok(None),
            _ => Err(tx.abort(pto_core::ABORT_HELP)),
        }
    }

    /// Transactional membership half for a composed prefix.
    #[doc(hidden)]
    pub fn tx_compose_contains<'e>(&'e self, tx: &mut Txn<'e>, key: u64) -> TxResult<bool> {
        self.anchor.tx_check(tx)?;
        self.tx_lookup(tx, check_key(key))
    }

    /// Retire the nodes pruned by a committed [`Bst::tx_compose_remove`].
    #[doc(hidden)]
    pub fn compose_retire_pair(&self, p: u32, l: u32) {
        self.nodes.retire(p);
        self.nodes.retire(l);
    }

    fn contains_impl(&self, k: u32) -> bool {
        match self.variant {
            BstVariant::LockFree | BstVariant::Pto2 => {
                let g = epoch::pin();
                self.lf_lookup(k, &g)
            }
            BstVariant::Pto1 | BstVariant::Pto1Pto2 => pto(
                &self.p1,
                &self.stats1,
                |tx| self.tx_lookup(tx, k),
                || {
                    let g = epoch::pin();
                    self.lf_lookup(k, &g)
                },
            ),
            BstVariant::Adaptive => pto_adaptive(
                &self.a1,
                &self.stats1,
                |tx| self.tx_lookup(tx, k),
                || {
                    let g = epoch::pin();
                    self.lf_lookup(k, &g)
                },
            ),
        }
    }

    // ------------------------------------------------------------------
    // Validation (tests / diagnostics; quiescent-only)
    // ------------------------------------------------------------------

    /// Walk the tree checking the external-BST shape: every internal node
    /// has two children; every link's leaf bit says whether the node it
    /// names is a leaf; in-order leaves are strictly sorted; every key in
    /// a left subtree is < the routing key ≤ every key in the right.
    pub fn check_structure(&self) -> Result<(), String> {
        let mut leaves = Vec::new();
        self.walk(
            self.node(self.grandroot).left.load(Ordering::Relaxed),
            0,
            INF,
            &mut leaves,
        )?;
        for w in leaves.windows(2) {
            if w[0] >= w[1] {
                return Err(format!("leaves out of order: {} then {}", w[0], w[1]));
            }
        }
        Ok(())
    }

    fn walk(&self, w: u64, lo: u32, hi: u32, leaves: &mut Vec<u32>) -> Result<(), String> {
        let n = link_idx(w);
        let key = self.node(n).key.load(Ordering::Relaxed) as u32;
        let left = self.node(n).left.load(Ordering::Relaxed);
        let right = self.node(n).right.load(Ordering::Relaxed);
        if link_is_leaf(w) != (left == NIL_LINK) {
            return Err(format!("link {w:#x} has the wrong leaf bit for node {n}"));
        }
        if left == NIL_LINK {
            if right != NIL_LINK {
                return Err(format!("half-leaf node {n}"));
            }
            if key != INF {
                if !(lo <= key && key < hi) {
                    return Err(format!("leaf {key} outside ({lo}, {hi})"));
                }
                leaves.push(key);
            }
            return Ok(());
        }
        if right == NIL_LINK {
            return Err(format!("internal {n} missing right child"));
        }
        // Routing invariant: left subtree < key ≤ right subtree.
        self.walk(left, lo, key.min(hi), leaves)?;
        self.walk(right, key.max(lo), hi, leaves)
    }
}

fn check_key(key: u64) -> u32 {
    assert!(key < INF as u64, "BST keys must be < 2^32 - 1");
    key as u32
}

impl ConcurrentSet for Bst {
    fn insert(&self, key: u64) -> bool {
        self.insert_impl(check_key(key))
    }

    fn remove(&self, key: u64) -> bool {
        self.remove_impl(check_key(key))
    }

    fn contains(&self, key: u64) -> bool {
        self.contains_impl(check_key(key))
    }

    fn len(&self) -> usize {
        let mut leaves = Vec::new();
        self.walk(
            self.node(self.grandroot).left.load(Ordering::Relaxed),
            0,
            INF,
            &mut leaves,
        )
        .expect("structure invalid");
        leaves.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pto_sim::rng::XorShift64;
    use std::collections::BTreeSet;

    const VARIANTS: [BstVariant; 5] = [
        BstVariant::LockFree,
        BstVariant::Pto1,
        BstVariant::Pto2,
        BstVariant::Pto1Pto2,
        BstVariant::Adaptive,
    ];

    #[test]
    fn set_semantics_all_variants() {
        for v in VARIANTS {
            let t = Bst::new(v);
            assert!(!t.contains(5), "{v:?}");
            assert!(t.insert(5), "{v:?}");
            assert!(!t.insert(5), "{v:?} duplicate");
            assert!(t.contains(5), "{v:?}");
            assert!(t.insert(3) && t.insert(9) && t.insert(7), "{v:?}");
            assert_eq!(t.len(), 4, "{v:?}");
            assert!(t.remove(5), "{v:?}");
            assert!(!t.remove(5), "{v:?} double remove");
            assert!(!t.contains(5), "{v:?}");
            assert!(t.contains(3) && t.contains(9) && t.contains(7), "{v:?}");
            t.check_structure().unwrap();
        }
    }

    #[test]
    fn empty_tree_operations() {
        for v in VARIANTS {
            let t = Bst::new(v);
            assert!(!t.remove(1), "{v:?}");
            assert!(!t.contains(0), "{v:?}");
            assert_eq!(t.len(), 0);
            t.check_structure().unwrap();
        }
    }

    #[test]
    fn key_zero_and_near_sentinel() {
        let t = Bst::new(BstVariant::LockFree);
        assert!(t.insert(0));
        assert!(t.insert((INF - 1) as u64));
        assert!(t.contains(0));
        assert!(t.contains((INF - 1) as u64));
        assert!(t.remove(0));
        assert!(t.contains((INF - 1) as u64));
        t.check_structure().unwrap();
    }

    #[test]
    #[should_panic(expected = "keys must be")]
    fn rejects_sentinel_key() {
        Bst::new(BstVariant::LockFree).insert(u64::MAX);
    }

    #[test]
    fn oracle_all_variants() {
        for v in VARIANTS {
            let t = Bst::new(v);
            let mut oracle = BTreeSet::new();
            let mut rng = XorShift64::new(7 + v as u64);
            for _ in 0..3_000 {
                let k = rng.below(150);
                match rng.below(3) {
                    0 => assert_eq!(t.insert(k), oracle.insert(k), "{v:?} insert {k}"),
                    1 => assert_eq!(t.remove(k), oracle.remove(&k), "{v:?} remove {k}"),
                    _ => assert_eq!(t.contains(k), oracle.contains(&k), "{v:?} contains {k}"),
                }
            }
            assert_eq!(t.len(), oracle.len(), "{v:?}");
            t.check_structure().unwrap();
        }
    }

    fn concurrent_stress(t: &Bst, nthreads: usize, ops: usize, range: u64) {
        std::thread::scope(|sc| {
            for th in 0..nthreads {
                let t = &t;
                sc.spawn(move || {
                    let mut rng = XorShift64::new((th as u64 + 1) * 6271);
                    for _ in 0..ops {
                        let k = rng.below(range);
                        match rng.below(4) {
                            0 | 1 => {
                                t.insert(k);
                            }
                            2 => {
                                t.remove(k);
                            }
                            _ => {
                                t.contains(k);
                            }
                        }
                    }
                });
            }
        });
        t.check_structure().unwrap();
    }

    #[test]
    fn concurrent_stress_lockfree() {
        let t = Bst::new(BstVariant::LockFree);
        concurrent_stress(&t, 4, 2_000, 100);
    }

    #[test]
    fn concurrent_stress_pto1() {
        let t = Bst::new(BstVariant::Pto1);
        concurrent_stress(&t, 4, 2_000, 100);
        assert!(t.stats1.fast.get() > 0);
    }

    #[test]
    fn concurrent_stress_pto2() {
        let t = Bst::new(BstVariant::Pto2);
        concurrent_stress(&t, 4, 2_000, 100);
        assert!(t.stats2.fast.get() > 0);
    }

    #[test]
    fn concurrent_stress_composed() {
        let t = Bst::new(BstVariant::Pto1Pto2);
        concurrent_stress(&t, 4, 2_000, 100);
    }

    #[test]
    fn concurrent_stress_adaptive() {
        let t = Bst::new(BstVariant::Adaptive);
        concurrent_stress(&t, 4, 2_000, 100);
        assert!(t.stats1.fast.get() > 0);
    }

    #[test]
    fn concurrent_stress_adaptive_middle_forced() {
        // Streak of 1 + a single HTM attempt: any conflicted op goes
        // straight to the single-orec middle path. The structure must stay
        // valid under heavy same-granule contention.
        let t = Bst::with_adaptive(
            AdaptivePolicy::new(PtoPolicy::with_attempts(1)).with_middle_streak(1),
            AdaptivePolicy::new(PtoPolicy::with_attempts(1)).with_middle_streak(1),
        );
        concurrent_stress(&t, 4, 2_000, 8);
        assert!(
            t.stats1.fast.get() + t.stats2.fast.get() > 0,
            "some ops still commit on the fast path"
        );
    }

    #[test]
    fn concurrent_distinct_ranges_all_present() {
        let t = Bst::new(BstVariant::Pto1Pto2);
        std::thread::scope(|sc| {
            for th in 0..4u64 {
                let t = &t;
                sc.spawn(move || {
                    for k in (th * 400)..((th + 1) * 400) {
                        assert!(t.insert(k));
                    }
                });
            }
        });
        assert_eq!(t.len(), 1_600);
        for k in 0..1_600 {
            assert!(t.contains(k), "lost {k}");
        }
        t.check_structure().unwrap();
    }

    #[test]
    fn concurrent_exclusive_remove() {
        use std::sync::atomic::AtomicU64;
        let t = Bst::new(BstVariant::Pto1);
        for k in 0..400 {
            t.insert(k);
        }
        let wins = AtomicU64::new(0);
        std::thread::scope(|sc| {
            for _ in 0..4 {
                let t = &t;
                let wins = &wins;
                sc.spawn(move || {
                    for k in 0..400 {
                        if t.remove(k) {
                            wins.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(wins.load(Ordering::Relaxed), 400);
        assert_eq!(t.len(), 0);
        t.check_structure().unwrap();
    }

    #[test]
    fn mixed_variants_share_nothing_but_semantics() {
        // Two trees with different variants given identical op sequences
        // end in identical abstract states.
        let a = Bst::new(BstVariant::LockFree);
        let b = Bst::new(BstVariant::Pto1Pto2);
        let mut rng = XorShift64::new(4242);
        for _ in 0..2_000 {
            let k = rng.below(100);
            if rng.chance(1, 2) {
                assert_eq!(a.insert(k), b.insert(k));
            } else {
                assert_eq!(a.remove(k), b.remove(k));
            }
        }
        for k in 0..100 {
            assert_eq!(a.contains(k), b.contains(k), "diverged at {k}");
        }
    }

    #[test]
    fn present_key_insert_allocates_nothing() {
        for v in VARIANTS {
            let t = Bst::new(v);
            assert!(t.insert(5), "{v:?}");
            let (high, live) = (t.nodes.high_water(), t.nodes.live());
            assert!(!t.insert(5), "{v:?} duplicate");
            assert_eq!(t.nodes.high_water(), high, "{v:?}: duplicate allocated");
            assert_eq!(t.nodes.live(), live, "{v:?}: duplicate changed live");
        }
    }

    #[test]
    fn fallback_inserts_keep_exactly_two_nodes_each() {
        // Every prefix attempt aborts, so each insert reaches its fallback
        // holding the pair its prefix allocated; the pair must be the one
        // linked, with nothing left behind.
        for v in VARIANTS {
            let chaos = PtoPolicy::with_attempts(1).with_chaos(100);
            let t = Bst::with_policies(v, chaos, chaos);
            let live = t.nodes.live();
            for k in 0..50 {
                assert!(t.insert(k), "{v:?}");
                assert!(!t.insert(k), "{v:?} duplicate");
            }
            assert_eq!(t.nodes.live(), live + 100, "{v:?}");
            t.check_structure().unwrap();
        }
    }

    #[test]
    fn late_insert_helper_cannot_relink_a_pruned_node() {
        // A helper that read an insert's IFLAG descriptor stalls while the
        // insert completes and its key is removed again, which points the
        // parent's child back at the original leaf. Its ichild CAS must
        // then fail instead of re-linking the pruned, marked internal node.
        let t = Bst::new(BstVariant::LockFree);
        assert!(t.insert(10));
        let _pin = epoch::pin(); // keeps the descriptor and nodes unrecycled
        let s = t.search(20, &_pin);
        let ni = t.configure_insert_nodes(20, s.lk, s.l, &InsertPair::new(None));
        let i = t.infos.alloc();
        let f = Fields {
            p: s.p,
            link: s.lw,
            ni: link_bump(s.lw, ni as u64),
            p_slot: s.p_slot,
            ..Fields::default()
        };
        let info = t.infos.get(i);
        info.p.init(f.p as u64);
        info.link.init(f.link);
        info.ni.init(f.ni);
        info.p_slot.init(f.p_slot);
        let iword = up_pack(ST_IFLAG, i, up_count(s.pu) + 1);
        assert!(t.node(s.p).update.cas(s.pu, iword));
        t.help_insert(&f, iword);
        assert!(t.contains(20));
        assert!(t.remove(20));
        t.help(iword); // the late helper, which loads the fields from `i`
        assert!(!t.contains(20), "a late helper resurrected a removed key");
        t.check_structure().unwrap();
        assert!(t.insert(20) && t.remove(20), "the tree stays live");
    }

    /// A lock-free delete of `k` stopped right after its DFLAG CAS, with its
    /// `Info` filled as `lf_delete_attempt` fills it. Returns the search
    /// snapshot, the `Info` and the DFLAG word now at the grandparent.
    fn flag_delete(t: &Bst, k: u32, g: &Guard) -> (Snap, u32, u64) {
        let s = t.search(k, g);
        assert_eq!(s.lk, k);
        let i = t.infos.alloc();
        let info = t.infos.get(i);
        info.gp.init(s.gp as u64);
        info.p.init(s.p as u64);
        info.link.init(s.pw);
        info.pupdate.init(s.pu);
        info.gp_slot.init(s.gp_slot);
        info.p_slot.init(s.p_slot);
        let dword = up_pack(ST_DFLAG, i, up_count(s.gpu) + 1);
        info.dword.init(dword);
        assert!(t.node(s.gp).update.cas(s.gpu, dword));
        (s, i, dword)
    }

    /// After `help` finished the delete of `k` that [`flag_delete`] began:
    /// the key is gone, the grandparent is clean, the tree is well formed
    /// and stays live.
    fn check_helped_delete(t: &Bst, k: u32, s: &Snap, i: u32) {
        assert!(!t.contains(k as u64), "the helper left {k} in the tree");
        let gpu = t.node(s.gp).update.load(Ordering::Acquire);
        assert_eq!(up_state(gpu), ST_CLEAN, "the grandparent stayed flagged");
        t.check_structure().unwrap();
        t.infos.retire(i);
        t.compose_retire_pair(s.p, s.l);
        assert!(
            t.insert(k as u64) && t.remove(k as u64),
            "the tree stays live"
        );
        t.check_structure().unwrap();
    }

    #[test]
    fn help_finishes_a_delete_stopped_after_its_flag() {
        // The owner stalls after flagging the grandparent; a helper that
        // finds the DFLAG word marks the parent and prunes it.
        for k in [10, 20, 30] {
            let t = Bst::new(BstVariant::LockFree);
            assert!(t.insert(10) && t.insert(20) && t.insert(30));
            let pin = epoch::pin(); // keeps the descriptor and nodes unrecycled
            let (s, i, dword) = flag_delete(&t, k, &pin);
            assert!(t.contains(k as u64), "the flag alone removes nothing");
            t.help(dword);
            check_helped_delete(&t, k, &s, i);
        }
    }

    #[test]
    fn help_finishes_a_delete_stopped_after_its_mark() {
        // The owner stalls after marking the parent; a helper that finds
        // the MARK word prunes the parent and unflags the grandparent.
        for k in [10, 20, 30] {
            let t = Bst::new(BstVariant::LockFree);
            assert!(t.insert(10) && t.insert(20) && t.insert(30));
            let pin = epoch::pin(); // keeps the descriptor and nodes unrecycled
            let (s, i, _) = flag_delete(&t, k, &pin);
            let mark = up_pack(ST_MARK, i, up_count(s.pu) + 1);
            assert!(t.node(s.p).update.cas(s.pu, mark));
            t.help(mark);
            check_helped_delete(&t, k, &s, i);
        }
    }

    #[test]
    fn zero_attempt_policies_degrade_to_lockfree() {
        let t = Bst::with_policies(
            BstVariant::Pto1Pto2,
            PtoPolicy::with_attempts(0),
            PtoPolicy::with_attempts(0),
        );
        let mut oracle = BTreeSet::new();
        let mut rng = XorShift64::new(99);
        for _ in 0..1_000 {
            let k = rng.below(64);
            if rng.chance(1, 2) {
                assert_eq!(t.insert(k), oracle.insert(k));
            } else {
                assert_eq!(t.remove(k), oracle.remove(&k));
            }
        }
        assert_eq!(t.stats1.fast.get(), 0);
        assert_eq!(t.stats2.fast.get(), 0);
        t.check_structure().unwrap();
    }
}

#[cfg(test)]
mod cause_observability {
    use super::*;
    use pto_core::ConcurrentSet;

    #[test]
    fn composed_variants_keep_per_stage_cause_mixes_separate() {
        // Chaos only on the outer (PTO1) policy: the outer stage records
        // spurious aborts, the clean inner (PTO2) stage records none —
        // per-variant counters must not bleed across stages.
        let t = Bst::with_policies(
            BstVariant::Pto1Pto2,
            PtoPolicy::with_attempts(2).with_chaos(100),
            PtoPolicy::with_attempts(16),
        );
        assert!(t.insert(5));
        assert!(t.contains(5));
        assert!(t.stats1.causes.spurious.get() > 0);
        assert_eq!(t.stats2.causes.spurious.get(), 0);
        assert_eq!(t.stats1.causes.total(), t.stats1.aborted_attempts.get());
        assert_eq!(t.stats2.causes.total(), t.stats2.aborted_attempts.get());
    }
}
