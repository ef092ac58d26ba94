//! Failure injection: run every PTO'd structure on an HTM that
//! spontaneously aborts a third of all transactions (the way flaky
//! best-effort hardware does), and require full correctness — the
//! methodology's whole premise is that the prefix may fail at any time
//! for any reason.

use pto::core::policy::PtoPolicy;
use pto::core::{ConcurrentSet, PriorityQueue};
use pto::sim::rng::XorShift64;
use std::collections::BTreeSet;

const CHAOS: u8 = 33;

fn chaotic(attempts: u32) -> PtoPolicy {
    PtoPolicy::with_attempts(attempts).with_chaos(CHAOS)
}

fn set_oracle_run(s: &dyn ConcurrentSet, seed: u64, ops: usize, range: u64) {
    let mut oracle = BTreeSet::new();
    let mut rng = XorShift64::new(seed);
    for _ in 0..ops {
        let k = rng.below(range);
        match rng.below(3) {
            0 => assert_eq!(s.insert(k), oracle.insert(k), "insert {k}"),
            1 => assert_eq!(s.remove(k), oracle.remove(&k), "remove {k}"),
            _ => assert_eq!(s.contains(k), oracle.contains(&k), "contains {k}"),
        }
    }
    assert_eq!(s.len(), oracle.len());
}

#[test]
fn bst_is_correct_under_spurious_aborts() {
    let scope = pto::htm::HtmScope::new();
    let t = pto::bst::Bst::with_policies(
        pto::bst::BstVariant::Pto1Pto2,
        chaotic(2),
        chaotic(16),
    );
    set_oracle_run(&t, 1, 3_000, 128);
    t.check_structure().unwrap();
    assert!(scope.snapshot().aborts_spurious > 0, "chaos never struck");
}

#[test]
fn skiplist_is_correct_under_spurious_aborts() {
    let s = pto::skiplist::SkipListSet::new_pto_with(chaotic(3));
    set_oracle_run(&s, 2, 3_000, 128);
}

#[test]
fn hashtable_is_correct_under_spurious_aborts() {
    let t = pto::hashtable::FSetHashTable::with_policy(
        pto::hashtable::HashVariant::PtoInplace,
        4,
        chaotic(3),
    );
    set_oracle_run(&t, 3, 3_000, 256);
}

#[test]
fn list_is_correct_under_spurious_aborts() {
    for v in [pto::list::ListVariant::PtoWhole, pto::list::ListVariant::PtoUpdate] {
        let l = pto::list::HarrisList::with_policy(v, chaotic(3));
        set_oracle_run(&l, 4, 2_000, 64);
    }
}

#[test]
fn mound_is_correct_under_spurious_aborts() {
    let m = pto::mound::Mound::new_pto_with(14, chaotic(4));
    let mut oracle: std::collections::BinaryHeap<std::cmp::Reverse<u64>> = Default::default();
    let mut rng = XorShift64::new(5);
    for _ in 0..3_000 {
        if rng.chance(1, 2) {
            let v = rng.below(10_000);
            m.push(v);
            oracle.push(std::cmp::Reverse(v));
        } else {
            assert_eq!(m.pop_min(), oracle.pop().map(|r| r.0));
        }
    }
    m.check_mound_property().unwrap();
}

#[test]
fn msqueue_is_correct_under_spurious_aborts() {
    use pto::core::traits::FifoQueue;
    let q = pto::msqueue::MsQueue::new_pto_with(chaotic(3));
    let mut oracle = std::collections::VecDeque::new();
    let mut rng = XorShift64::new(6);
    for _ in 0..4_000 {
        if rng.chance(3, 5) {
            let v = rng.next_u64();
            q.enqueue(v);
            oracle.push_back(v);
        } else {
            assert_eq!(q.dequeue(), oracle.pop_front());
        }
    }
}

#[test]
fn mindicator_is_correct_under_spurious_aborts() {
    use pto::core::Quiescence;
    let m = pto::mindicator::PtoMindicator::with_policy(16, chaotic(3));
    let mut rng = XorShift64::new(7);
    for _ in 0..2_000 {
        let v = rng.below(100_000);
        m.arrive(v);
        assert!(m.query() <= v);
        m.depart();
        assert_eq!(m.query(), u64::MAX);
    }
}

#[test]
fn concurrent_chaos_stress_converges() {
    // 4 threads on the composed BST with heavy chaos; the final state must
    // be consistent with a quiescent walk.
    let t = pto::bst::Bst::with_policies(
        pto::bst::BstVariant::Pto1Pto2,
        chaotic(2),
        chaotic(16),
    );
    std::thread::scope(|s| {
        for th in 0..4u64 {
            let t = &t;
            s.spawn(move || {
                let mut rng = XorShift64::new(th + 100);
                for _ in 0..2_000 {
                    let k = rng.below(96);
                    if rng.chance(1, 2) {
                        t.insert(k);
                    } else {
                        t.remove(k);
                    }
                }
            });
        }
    });
    t.check_structure().unwrap();
    let mut count = 0;
    for k in 0..96 {
        if t.contains(k) {
            count += 1;
        }
    }
    assert_eq!(t.len(), count);
}
