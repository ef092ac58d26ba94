//! The anchor contract of every compose half: each structure's half makes
//! its own anchor check its first read, so while a composed fallback holds
//! the structure's anchor, a transaction that calls only that half aborts
//! with `Conflict`, and after the release the same half commits. The
//! composed executor adds no anchor reads of its own, so these checks are
//! the whole prefix side of the protocol.

use pto::bst::{Bst, BstVariant};
use pto::core::compose::{acquire_ordered, Anchor, ComposeMode, Composed};
use pto::core::policy::PtoPolicy;
use pto::core::{ConcurrentSet, PriorityQueue};
use pto::hashtable::{FSetHashTable, HashVariant};
use pto::htm::{transaction, AbortCause, TxResult, Txn};
use pto::mem::epoch;
use pto::mound::Mound;
use pto::msqueue::MsQueue;
use pto::skiplist::SkipListSet;

/// Run `half` as one transaction while a fallback holds `anchor` (it must
/// abort with `Conflict`), then release and run it through a one-anchor
/// composed site, whose prefix must commit. The site's retry budget only
/// absorbs conflicts with unrelated tests on shared orecs.
fn held_then_free<'e, T>(
    what: &str,
    anchor: &Anchor,
    mut half: impl FnMut(&mut Txn<'e>) -> TxResult<T>,
) -> T {
    let held = acquire_ordered(&[anchor]);
    assert_eq!(
        transaction(&mut half).err(),
        Some(AbortCause::Conflict),
        "{what}: a half ran past its held anchor"
    );
    drop(held);
    let site = Composed::new(
        vec![anchor],
        ComposeMode::Static(PtoPolicy::with_attempts(3)),
    );
    let out = site.run(half, || {
        panic!("{what}: the prefix never committed after the release")
    });
    assert_eq!(site.stats.fast.get(), 1, "{what}");
    out
}

#[test]
fn hash_table_halves_check_the_table_word() {
    let t = FSetHashTable::new(HashVariant::PtoInplace, 4);
    // A plain insert gives key 1's bucket an array the in-place halves
    // can update.
    assert!(t.insert(1));
    let a = t.anchor();
    let found = held_then_free("hash contains", a, |tx| t.tx_compose_contains(tx, 1));
    let removed = held_then_free("hash remove", a, |tx| t.tx_compose_update(tx, 1, false));
    let added = held_then_free("hash insert", a, |tx| t.tx_compose_update(tx, 1, true));
    assert!(found && removed && added);
    assert!(t.contains(1));
}

#[test]
fn bst_halves_check_the_tree_anchor() {
    let t = Bst::new(BstVariant::Pto1);
    for k in [10, 20, 30] {
        assert!(t.insert(k));
    }
    let found = held_then_free("bst contains", t.anchor(), |tx| {
        t.tx_compose_contains(tx, 20)
    });
    assert!(found);
    let (p, l) = held_then_free("bst remove", t.anchor(), |tx| t.tx_compose_remove(tx, 20))
        .expect("20 is present");
    t.compose_retire_pair(p, l);
    assert!(!t.contains(20));
    t.check_structure().unwrap();
}

#[test]
fn mound_halves_check_the_mound_anchor() {
    let m = Mound::new_pto(6);
    let cell = m.compose_alloc_cell();
    held_then_free("mound push", m.anchor(), |tx| {
        m.tx_compose_push(tx, 5, cell)
    });
    let (v, li) = held_then_free("mound pop", m.anchor(), |tx| m.tx_compose_pop(tx))
        .expect("the pushed value is there");
    m.compose_retire_cell(li);
    assert_eq!(v, 5);
    assert_eq!(m.pop_min(), None);
}

#[test]
fn msqueue_halves_check_the_queue_anchor() {
    let q = MsQueue::new_pto();
    let node = q.compose_alloc(7);
    held_then_free("msqueue enqueue", q.anchor(), |tx| {
        q.tx_enqueue_node(tx, node)
    });
    let (v, dummy) = held_then_free("msqueue dequeue", q.anchor(), |tx| q.tx_dequeue_raw(tx))
        .expect("the enqueued value is there");
    q.compose_retire(dummy);
    assert_eq!(v, 7);
}

#[test]
fn skiplist_half_checks_the_list_anchor() {
    let s = SkipListSet::new_pto();
    assert!(s.insert(3));
    let g = epoch::pin();
    let ins = s.compose_insert_begin(5, &g);
    let linked = held_then_free("skiplist insert", s.anchor(), |tx| {
        s.tx_compose_insert(tx, &ins)
    });
    assert!(linked);
    s.compose_insert_finish(ins, true);
    drop(g);
    assert!(s.contains(5) && s.contains(3));
}
