//! Virtual-cost comparisons of the BST's prefixes. Each test reads the
//! test thread's virtual clock around uncontended operations, so the
//! reading is exact only if no prefix aborts. A prefix reads the
//! process-global orec table, where another test's commits in the same
//! process can conflict-abort it and add retries to the reading; this
//! binary therefore holds only these tests and runs them one at a time.

use pto_bst::{Bst, BstVariant};
use pto_core::ConcurrentSet;
use pto_sim::cost::cycles;
use pto_sim::CostKind;
use std::sync::{Mutex, MutexGuard};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn pto1_lookup_elides_epoch_cost() {
    let _s = serial();
    // §4.5: the PTO'd lookup drops the epoch pin/unpin (two stores, two
    // fences), which the transaction boundaries undercut.
    let lf = Bst::new(BstVariant::LockFree);
    let p1 = Bst::new(BstVariant::Pto1);
    for k in (0..512).step_by(2) {
        lf.insert(k);
        p1.insert(k);
    }
    pto_sim::clock::reset();
    for k in 0..512 {
        lf.contains(k);
    }
    let lf_cost = pto_sim::now();
    pto_sim::clock::reset();
    for k in 0..512 {
        p1.contains(k);
    }
    let p1_cost = pto_sim::now();
    assert!(
        p1_cost < lf_cost,
        "PTO1 lookup ({p1_cost}) should beat lock-free ({lf_cost})"
    );
}

#[test]
fn pto1_updates_elide_descriptor_allocation() {
    let _s = serial();
    // §4.4/§4.6: eliminating Info allocation and the flag protocol is
    // the big win on the write path — expect a sizable modeled gap.
    let lf = Bst::new(BstVariant::LockFree);
    let p1 = Bst::new(BstVariant::Pto1);
    pto_sim::clock::reset();
    for k in 0..400 {
        lf.insert(k % 97);
        lf.remove(k % 97);
    }
    let lf_cost = pto_sim::now();
    pto_sim::clock::reset();
    for k in 0..400 {
        p1.insert(k % 97);
        p1.remove(k % 97);
    }
    let p1_cost = pto_sim::now();
    assert!(
        (p1_cost as f64) < 0.8 * lf_cost as f64,
        "PTO1 updates ({p1_cost}) should be well under lock-free ({lf_cost})"
    );
}

/// Words a walk reads at each internal node, on either turn: the routing
/// key and the child word it follows, whose leaf bit says whether the
/// walk stops at the child.
const READS_PER_LEVEL: u64 = 2;

/// The words a walk reads down a path through `levels` internal nodes:
/// the grandroot's `left` link, the levels, and the leaf's key.
fn walk_reads(levels: u64) -> u64 {
    1 + READS_PER_LEVEL * levels + 1
}

/// Cycles of one committed prefix with `loads` reads and `stores` writes
/// (fences are elided inside the transaction).
fn prefix_cycles(loads: u64, stores: u64) -> u64 {
    cycles(CostKind::TxBegin)
        + loads * cycles(CostKind::TxLoad)
        + stores * cycles(CostKind::TxStore)
        + cycles(CostKind::TxEnd)
}

/// Virtual cycles `op` charges on this thread, checking that it succeeded
/// and committed on the PTO1 prefix at its first attempt.
fn op_cycles(t: &Bst, op: impl FnOnce(&Bst) -> bool) -> u64 {
    let (fast, aborted) = (t.stats1.fast.get(), t.stats1.aborted_attempts.get());
    pto_sim::clock::reset();
    assert!(op(t), "the op failed");
    let spent = pto_sim::now();
    assert_eq!(t.stats1.fast.get(), fast + 1, "the op left the prefix");
    assert_eq!(
        t.stats1.aborted_attempts.get(),
        aborted,
        "the prefix aborted"
    );
    spent
}

/// Virtual cycles a lock-free `op` charges on this thread, checking that
/// it succeeded.
fn lf_cycles(t: &Bst, op: impl FnOnce(&Bst) -> bool) -> u64 {
    pto_sim::clock::reset();
    assert!(op(t), "the op failed");
    pto_sim::now()
}

/// A tree of `variant` holding `keys`, inserted in the given order.
fn tree(variant: BstVariant, keys: impl Iterator<Item = u64>) -> Bst {
    let t = Bst::new(variant);
    for k in keys {
        assert!(t.insert(k));
    }
    t
}

#[test]
fn pto1_walk_reads_two_words_per_internal_node_on_either_turn() {
    let _s = serial();
    // On top of the walk, an insert reads `p`'s update word, allocates its
    // (internal, leaf) pair and initializes the pair's eight words; a
    // remove reads `gp`'s and `p`'s update words and the leaf's sibling,
    // and retires the pruned parent and leaf.
    let pair = 2 * cycles(CostKind::PoolAlloc) + 8 * cycles(CostKind::SharedStore);
    let free2 = 2 * cycles(CostKind::PoolFree);
    for n in [2u64, 9, 24] {
        // Keys n..=1 inserted descending build a left spine: the walk to
        // key 1 turns left at the root and at each of the n internal
        // nodes below it. Keys 1..=n inserted ascending build a right
        // spine: the walk to key n turns left at the root and its left
        // child, then right at n - 1 nodes.
        for (spine, keys, (hit, miss), levels) in [
            ("left", (1..=n).rev().collect::<Vec<_>>(), (1, 0), n + 1),
            ("right", (1..=n).collect(), (n, n + 1), n + 1),
        ] {
            let t = || tree(BstVariant::Pto1, keys.iter().copied());
            let walk = walk_reads(levels);
            let insert = prefix_cycles(walk + 1, 2) + pair;
            let remove = prefix_cycles(walk + 3, 3) + free2;
            assert_eq!(
                op_cycles(&t(), |t| t.contains(hit)),
                prefix_cycles(walk, 0),
                "{spine} spine, n={n}"
            );
            assert_eq!(
                op_cycles(&t(), |t| t.insert(miss)),
                insert,
                "{spine} spine, n={n}"
            );
            assert_eq!(
                op_cycles(&t(), |t| t.remove(hit)),
                remove,
                "{spine} spine, n={n}"
            );
        }
    }
}

#[test]
fn lockfree_lookup_reads_two_words_per_internal_node_on_either_turn() {
    let _s = serial();
    // The lock-free lookup pins the epoch, reads the grandroot's link,
    // each internal node's key and followed child word, and the leaf's
    // key, then unpins: the same spines and word counts as the PTO1 walk.
    let pin = cycles(CostKind::EpochPin) + cycles(CostKind::EpochUnpin);
    for n in [2u64, 9, 24] {
        let left = tree(BstVariant::LockFree, (1..=n).rev());
        let right = tree(BstVariant::LockFree, 1..=n);
        let want = pin + walk_reads(n + 1) * cycles(CostKind::SharedLoad);
        assert_eq!(
            lf_cycles(&left, |t| t.contains(1)),
            want,
            "left spine, n={n}"
        );
        assert_eq!(
            lf_cycles(&right, |t| t.contains(n)),
            want,
            "right spine, n={n}"
        );
    }
}

/// Shared loads of the lock-free search down a path through `levels`
/// internal nodes: the grandroot's update word and link, then each
/// level's update word, key and followed child word, then the leaf's key.
fn search_loads(levels: u64) -> u64 {
    2 + 3 * levels + 1
}

#[test]
fn lockfree_updates_load_no_descriptor_field() {
    let _s = serial();
    // An uncontended lock-free update pins the epoch, searches, allocates
    // its `Info`, stores the fields a helper would need, then completes
    // its op with the values it holds: it loads no `Info` field. On top,
    // an insert allocates and initializes its (internal, leaf) pair, and
    // a remove reads the leaf's sibling and retires the pruned parent and
    // leaf after its `Info`.
    let c = cycles;
    let pin = c(CostKind::EpochPin) + c(CostKind::EpochUnpin);
    let pair = 2 * c(CostKind::PoolAlloc) + 8 * c(CostKind::SharedStore);
    let info = |stores: u64| {
        c(CostKind::PoolAlloc) + stores * c(CostKind::SharedStore) + c(CostKind::PoolFree)
    };
    for n in [2u64, 9, 24] {
        // The spines of the lookup tests above: both walks pass n + 1
        // internal nodes.
        for (spine, keys, (hit, miss)) in [
            ("left", (1..=n).rev().collect::<Vec<_>>(), (1, 0)),
            ("right", (1..=n).collect(), (n, n + 1)),
        ] {
            let t = || tree(BstVariant::LockFree, keys.iter().copied());
            let search = pin + search_loads(n + 1) * c(CostKind::SharedLoad);
            // Stores `p`, `link`, `ni` and `p_slot`; CASes the parent's
            // flag, its child word and its unflag.
            let insert = search + pair + info(4) + 3 * c(CostKind::Cas);
            // Stores `gp`, `p`, `link`, `pupdate`, `gp_slot`, `p_slot`
            // and `dword`; CASes the grandparent's flag, the parent's
            // mark, the grandparent's child word and its unflag.
            let remove = search
                + info(7)
                + 4 * c(CostKind::Cas)
                + c(CostKind::SharedLoad)
                + 2 * c(CostKind::PoolFree);
            assert_eq!(
                lf_cycles(&t(), |t| t.insert(miss)),
                insert,
                "{spine} spine, n={n}"
            );
            assert_eq!(
                lf_cycles(&t(), |t| t.remove(hit)),
                remove,
                "{spine} spine, n={n}"
            );
        }
    }
}
