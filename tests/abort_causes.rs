//! Per-variant abort-cause observability (end to end): two PTO variants
//! with *different* deterministic abort modes run interleaved in one
//! process, and each variant's own `PtoStats.causes` reports only its own
//! cause mix; an `HtmScope` per sequential region separates the regions'
//! HTM counts the same way.

use pto::bst::{Bst, BstVariant};
use pto::core::policy::PtoPolicy;
use pto::core::ConcurrentSet;
use pto::core::Quiescence;
use pto::htm::HtmScope;
use pto::mindicator::PtoMindicator;

#[test]
fn interleaved_variants_report_independent_cause_mixes() {
    // Variant A: chaos injection at 100% — every prefix attempt dies
    // Spurious, deterministically.
    let mindicator = PtoMindicator::with_policy(8, PtoPolicy::with_attempts(1).with_chaos(100));
    // Variant B: write cap 1 — every multi-write prefix dies Capacity,
    // deterministically.
    let bst = Bst::with_policies(
        BstVariant::Pto1,
        PtoPolicy::with_attempts(1).with_write_cap(1),
        PtoPolicy::with_attempts(1),
    );

    for k in 0..16u64 {
        mindicator.arrive(k + 1);
        bst.insert(k);
        mindicator.depart();
    }
    for k in 0..16u64 {
        assert!(bst.contains(k));
    }

    let m = &mindicator.stats;
    let b = &bst.stats1;
    // Each variant aborted — and only in its own bucket.
    assert!(m.causes.spurious.get() > 0, "mindicator never hit chaos");
    assert_eq!(m.causes.capacity.get(), 0, "capacity bled into mindicator");
    assert_eq!(m.causes.conflict.get(), 0);
    assert!(b.causes.capacity.get() > 0, "bst never hit the write cap");
    assert_eq!(b.causes.spurious.get(), 0, "chaos bled into bst");
    // Cause totals reconcile with the per-variant attempt counters.
    assert_eq!(m.causes.total(), m.aborted_attempts.get());
    assert_eq!(b.causes.total(), b.aborted_attempts.get());

    // Second half — the bench-harness attribution pattern: sequential
    // regions, each under its own scope. Region 1 only aborts Spurious;
    // region 2 only Capacity; the scopes separate them exactly.
    let region1 = {
        let scope = HtmScope::new();
        let spurious = PtoMindicator::with_policy(8, PtoPolicy::with_attempts(1).with_chaos(100));
        spurious.arrive(3);
        spurious.depart();
        scope.snapshot()
    };
    let region2 = {
        let scope = HtmScope::new();
        let capped = Bst::with_policies(
            BstVariant::Pto1,
            PtoPolicy::with_attempts(1).with_write_cap(1),
            PtoPolicy::with_attempts(1),
        );
        capped.insert(1);
        scope.snapshot()
    };

    assert!(region1.aborts_spurious > 0);
    assert_eq!(region1.aborts_capacity, 0);
    assert!(region2.aborts_capacity > 0);
    assert_eq!(region2.aborts_spurious, 0);
}
