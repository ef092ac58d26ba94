//! Golden-makespan regression (PR 4 tentpole guard): the wallclock
//! hot-path optimizations (clock fast path, gate waiter-count, reusable
//! transaction descriptors, pool magazines) must leave **virtual-time
//! results bit-identical**. These workloads are deterministic by
//! construction, and their makespans and abort-cause counters were
//! recorded on the pre-optimization tree (commit 67d054d); any divergence
//! means an optimization leaked into the cost model.
//!
//! Determinism rules the workloads obey:
//!
//! * single lane (or multi-lane with lane-private state only) — no
//!   cross-lane conflicts, so lane clocks are pure functions of the
//!   per-lane op sequences;
//! * fixed seeds. Skiplist tower heights and Mound leaf probes draw from
//!   [`pto_sim::rng::lane_draw`], one stream per (site, cell, lane), so
//!   they repeat on a lane. A thread off the gate draws from the
//!   unattached stream, whose state persists per OS thread: the Mound
//!   workload prefills on a freshly spawned thread for that reason;
//! * no chaos injection, no transient aborts (the only aborts are
//!   explicit/capacity, which are deterministic).
//!
//! If a future PR changes the cost table or driver op sequences on
//! purpose, regenerate the goldens: run with `PTO_GOLDEN_PRINT=1` and
//! paste the printed block.

use pto_bst::{Bst, BstVariant};
use pto_core::compose::{ComposeMode, Composed};
use pto_core::policy::{pto, pto_adaptive, AdaptivePolicy, PtoPolicy, PtoStats};
use pto_core::traits::FifoQueue;
use pto_core::{ConcurrentSet, PriorityQueue, Quiescence};
use pto_hashtable::{FSetHashTable, HashVariant};
use pto_htm::TxWord;
use pto_list::{HarrisList, ListVariant};
use pto_mindicator::{LockFreeMindicator, PtoMindicator};
use pto_mound::Mound;
use pto_msqueue::MsQueue;
use pto_sim::cost::CostProfile;
use pto_sim::rng::XorShift64;
use pto_sim::{CostKind, Sim};
use pto_skiplist::SkipListSet;
use std::sync::Mutex;

/// The orec table, the version clock and the epoch are process-wide:
/// goldens running at once could conflict-abort each other's transactions
/// and change their makespans. Serialize (this file is its own test
/// binary).
static SERIAL: Mutex<()> = Mutex::new(());

/// (makespan, begins, commits, conflict, capacity, explicit, nested, spurious)
type Golden = (u64, u64, u64, u64, u64, u64, u64, u64);

fn measure(body: impl FnOnce() -> u64) -> Golden {
    let scope = pto_htm::HtmScope::new();
    let makespan = body();
    let d = scope.snapshot();
    (
        makespan,
        d.begins,
        d.commits,
        d.aborts_conflict,
        d.aborts_capacity,
        d.aborts_explicit,
        d.aborts_nested,
        d.aborts_spurious,
    )
}

fn check(name: &str, got: Golden, want: Golden) {
    if std::env::var("PTO_GOLDEN_PRINT").is_ok() {
        println!("const GOLDEN_{}: Golden = {:?};", name.to_uppercase(), got);
        return;
    }
    assert_eq!(
        got, want,
        "{name}: virtual-time results diverged from the recorded golden \
         (makespan, begins, commits, conflict, capacity, explicit, nested, spurious)"
    );
}

/// The trace_overhead workload shape: 4 lanes, lane 0 runs private-word
/// RMW transactions plus explicit-abort→fallback ops, lanes 1–3 run
/// epoch pin/unpin loops. Exercises clock, gate, txn, and epoch paths.
fn private_word_pto() -> u64 {
    pto_sim::clock::reset();
    let word = TxWord::new(0);
    let out = Sim::new(4).run(|lane| {
        if lane == 0 {
            let policy = PtoPolicy::with_attempts(3);
            let stats = PtoStats::new();
            for _ in 0..300 {
                pto(
                    &policy,
                    &stats,
                    |tx| {
                        let v = tx.read(&word)?;
                        tx.write(&word, v + 1)?;
                        Ok(())
                    },
                    || unreachable!("private word: the prefix cannot abort"),
                );
            }
            for _ in 0..100 {
                pto(&policy, &stats, |tx| Err::<(), _>(tx.abort(1)), || ());
            }
        } else {
            for _ in 0..400 {
                let _g = pto_mem::epoch::pin();
                pto_sim::charge_n(CostKind::Work, 5);
            }
        }
    });
    out.makespan
}

/// 64 lanes (server scale; tournament-tree gate width 64) with lane 0
/// running private-word transactions and every other lane charging a
/// lane-indexed mix of shared-memory costs. All state is lane-private, so
/// per-lane clocks — and the makespan, set by the heaviest lane — are pure
/// functions of the cost table. Under [`CostProfile::NumaIsh`] lanes ≥ 8
/// sit on remote sockets and pay the cross-socket surcharge, so the two
/// profiles pin different goldens from the same op sequences.
fn lane_private_64(profile: CostProfile) -> u64 {
    pto_sim::clock::reset();
    let word = TxWord::new(0);
    let out = Sim::new(64).with_profile(profile).run(|lane| {
        if lane == 0 {
            let policy = PtoPolicy::with_attempts(3);
            let stats = PtoStats::new();
            for _ in 0..150 {
                pto(
                    &policy,
                    &stats,
                    |tx| {
                        let v = tx.read(&word)?;
                        tx.write(&word, v + 1)?;
                        Ok(())
                    },
                    || unreachable!("lane-private word: the prefix cannot abort"),
                );
            }
        } else {
            for i in 0..(400 + 4 * lane as u64) {
                match (i + lane as u64) % 3 {
                    0 => pto_sim::charge(CostKind::Cas),
                    1 => pto_sim::charge(CostKind::SharedLoad),
                    _ => pto_sim::charge_n(CostKind::Work, 2),
                }
            }
        }
    });
    out.makespan
}

/// 1-lane setbench-style loop (fixed seed) over a `ConcurrentSet`:
/// exercises txn read/write sets, commit locking, pool alloc/retire, and
/// the 1-lane gate path.
fn set_workload(s: &impl ConcurrentSet, ops: u64, range: u64, seed: u64) -> u64 {
    set_prefill(s, range, seed);
    set_ops(s, ops, range, seed)
}

/// Fill `s` with `range / 2` distinct keys below `range`.
fn set_prefill(s: &impl ConcurrentSet, range: u64, seed: u64) {
    let mut prefill_rng = XorShift64::new(seed ^ 0xDEAD_BEEF);
    let mut inserted = 0;
    while inserted < range / 2 {
        if s.insert(prefill_rng.below(range)) {
            inserted += 1;
        }
    }
}

/// The measured half of [`set_workload`]: `ops` ops on one lane, 34%
/// lookups and the rest split evenly between inserts and removes.
fn set_ops(s: &impl ConcurrentSet, ops: u64, range: u64, seed: u64) -> u64 {
    pto_sim::clock::reset();
    let out = Sim::new(1).run(|_| {
        let mut rng = XorShift64::new(seed.wrapping_add(1));
        for _ in 0..ops {
            let k = rng.below(range);
            let roll = rng.below(100);
            if roll < 34 {
                std::hint::black_box(s.contains(k));
            } else if rng.chance(1, 2) {
                std::hint::black_box(s.insert(k));
            } else {
                std::hint::black_box(s.remove(k));
            }
        }
    });
    out.makespan
}

/// The setbench loop over a skiplist. Tower heights come from
/// [`pto_sim::rng::lane_draw`], so the prefill runs on a freshly spawned
/// thread for the reason [`mound_workload`] gives; the measured ops draw
/// from lane 0's stream of a fresh `Sim`, which repeats on every run.
fn skiplist_workload(s: &SkipListSet) -> u64 {
    let inherited = pto_sim::ctx::capture();
    std::thread::scope(|sc| {
        sc.spawn(|| {
            pto_sim::ctx::adopt(&inherited);
            set_prefill(s, 128, 42);
        });
    });
    set_ops(s, 400, 128, 42)
}

/// 1-lane mbench-style arrive/depart pairs on a `Quiescence` structure.
fn mindicator_workload(m: &impl Quiescence, pairs: u64, range: u64, seed: u64) -> u64 {
    pto_sim::clock::reset();
    let out = Sim::new(1).run(|_| {
        let mut rng = XorShift64::new(seed.wrapping_add(1));
        for _ in 0..pairs {
            m.arrive(rng.below(range));
            m.depart();
        }
    });
    out.makespan
}

/// 1-lane fifobench-style enqueue/dequeue on the MS-queue.
fn queue_workload(q: &MsQueue, ops: u64, seed: u64) -> u64 {
    for i in 0..64 {
        q.enqueue(i);
    }
    pto_sim::clock::reset();
    let out = Sim::new(1).run(|_| {
        let mut rng = XorShift64::new(seed.wrapping_add(1));
        for i in 0..ops {
            if rng.chance(1, 2) {
                q.enqueue(i);
            } else {
                std::hint::black_box(q.dequeue());
            }
        }
    });
    out.makespan
}

/// The `private_word_pto` shape run through the self-tuning executor:
/// 4 lanes, lane 0 runs private-word RMW prefixes plus explicit-abort→
/// fallback ops under [`pto_adaptive`]. Lane-private state, so the grant /
/// EWMA / regime bookkeeping — and its charged costs — are pinned
/// bit-exactly. On a conflict-free stream the adaptive executor must
/// behave exactly like `pto` with its base policy.
fn private_word_adaptive() -> u64 {
    pto_sim::clock::reset();
    let word = TxWord::new(0);
    let out = Sim::new(4).run(|lane| {
        if lane == 0 {
            let policy = AdaptivePolicy::new(PtoPolicy::with_attempts(3));
            let stats = PtoStats::new();
            for _ in 0..300 {
                pto_adaptive(
                    &policy,
                    &stats,
                    |tx| {
                        let v = tx.read(&word)?;
                        tx.write(&word, v + 1)?;
                        Ok(())
                    },
                    || unreachable!("private word: the prefix cannot abort"),
                );
            }
            for _ in 0..100 {
                pto_adaptive(&policy, &stats, |tx| Err::<(), _>(tx.abort(1)), || ());
            }
            assert_eq!(
                stats.fast.get(),
                300,
                "conflict-free adaptive stream must stay on the fast path"
            );
        } else {
            for _ in 0..400 {
                let _g = pto_mem::epoch::pin();
                pto_sim::charge_n(CostKind::Work, 5);
            }
        }
    });
    out.makespan
}

/// 1-lane setbench loop over a BST variant. Under [`BstVariant::Adaptive`]
/// (the §4.4 composition under self-tuning policies) it pins the adaptive
/// whole-op / update-phase composition end to end (grants, capacity
/// shrink, pool recycling) on a real structure.
fn bst_workload(v: BstVariant) -> u64 {
    let b = Bst::new(v);
    set_workload(&b, 400, 128, 42)
}

/// The same loop over the adaptive PTO1∘PTO2 tree at write cap 2 (the
/// `bst-capacity` benchmark's tree): inserts fit the cap, but the
/// 3-write delete prefix is capacity-doomed, so removes reach the
/// Capacity regime, the PTO2 preamble and the lock-free delete.
fn bst_capacity_workload() -> u64 {
    let b = Bst::with_adaptive(
        AdaptivePolicy::new(PtoPolicy::with_attempts(2).with_write_cap(2)),
        AdaptivePolicy::new(PtoPolicy::with_attempts(16).with_write_cap(2)),
    );
    set_workload(&b, 400, 128, 42)
}

/// 1-lane setbench loop over a hash table variant: 16 buckets (the table
/// grows while it is prefilled with the even keys below 512), then 400 ops
/// on keys below 512, 25% inserts, 25% removes and 50% lookups. Pins the
/// copy-on-write and in-place prefixes, their fallbacks and resizing.
fn hash_workload(v: HashVariant) -> u64 {
    let t = FSetHashTable::new(v, 16);
    for k in (0..512).step_by(2) {
        assert!(t.insert(k));
    }
    pto_sim::clock::reset();
    let out = Sim::new(1).run(|_| {
        let mut rng = XorShift64::new(43);
        for _ in 0..400 {
            let k = rng.below(512);
            match rng.below(4) {
                0 => std::hint::black_box(t.insert(k)),
                1 => std::hint::black_box(t.remove(k)),
                _ => std::hint::black_box(t.contains(k)),
            };
        }
    });
    out.makespan
}

/// 1-lane pqbench-style loop over a Mound: 256 pushes of keys below 1,024,
/// then 400 ops at 50/50 push/pop. Pins the leaf probes, the binary
/// search, the root CAS and the DCSS/DCAS steps. The prefill runs on a
/// freshly spawned thread: a thread off the gate draws leaf probes from
/// the unattached stream, whose state persists per OS thread, so a
/// prefill on the test thread would not repeat on the second run.
fn mound_workload(m: &Mound) -> u64 {
    // The prefill thread adopts this thread's context, so its
    // transactions count in the caller's `HtmScope`.
    let inherited = pto_sim::ctx::capture();
    std::thread::scope(|s| {
        s.spawn(|| {
            pto_sim::ctx::adopt(&inherited);
            let mut rng = XorShift64::new(42 ^ 0xFEED_F00D);
            for _ in 0..256 {
                m.push(rng.below(1_024));
            }
        });
    });
    pto_sim::clock::reset();
    let out = Sim::new(1).run(|_| {
        let mut rng = XorShift64::new(43);
        for _ in 0..400 {
            if rng.chance(1, 2) {
                m.push(rng.below(1_024));
            } else {
                std::hint::black_box(m.pop_min());
            }
        }
    });
    out.makespan
}

/// Deterministic single-lane middle-path workload. One op runs against
/// its own software-held orec: both HTM attempts conflict on that one
/// granule, which arms the site (streak 1, `with_middle_streak(1)`) and
/// sends the op to the fallback. Then, under `injection_scope(2, 0)`,
/// every subsequent op's single optimistic HTM attempt is doomed
/// (Spurious) while the middle-path re-run under the owned orec commits —
/// the injection counter advances exactly twice per op, so the parity is
/// stable and the middle path carries every remaining op.
fn middle_path_word() -> u64 {
    pto_sim::clock::reset();
    let word = TxWord::new(0);
    let out = Sim::new(1).run(|_| {
        let policy = AdaptivePolicy::new(PtoPolicy::with_attempts(2)).with_middle_streak(1);
        let stats = PtoStats::new();
        // The adaptive state is keyed by call site: the arming op and the
        // injected ops must flow through the same `pto_adaptive` call.
        let _inj = pto_htm::injection_scope(2, 0);
        for i in 0..41 {
            let _own = (i == 0).then(|| {
                pto_htm::try_acquire_orec(word.orec_index(), 64)
                    .expect("fresh orec must be free")
            });
            pto_adaptive(
                &policy,
                &stats,
                |tx| {
                    let v = tx.read(&word)?;
                    tx.write(&word, v + 1)?;
                    Ok(())
                },
                || {
                    assert_eq!(i, 0, "the middle path must carry every injected op");
                    pto_sim::charge_n(CostKind::Work, 3);
                },
            );
        }
        assert_eq!(stats.middle.get(), 40, "middle path must commit every injected op");
        assert_eq!(stats.fallback.get(), 1, "only the arming op may fall back");
        assert_eq!(word.peek(), 40, "each middle commit publishes one increment");
    });
    out.makespan
}

/// Deterministic single-lane **composed** workload, transfer-heavy: two
/// in-place hash tables with 64 tokens, 70% conditional transfers / 30%
/// conservation audits through one two-participant [`Composed`] site.
/// One lane means the prefix never conflicts; the only aborts are the
/// deterministic help-aborts on first-touch NIL buckets, so the makespan
/// pins the composed-prefix cost (anchor checks included) and the
/// prefix/fallback split bit-exactly.
fn composed_transfer_heavy() -> u64 {
    let a = FSetHashTable::new(HashVariant::PtoInplace, 64);
    let b = FSetHashTable::new(HashVariant::PtoInplace, 64);
    for t in 0..64 {
        a.insert(t);
    }
    pto_sim::clock::reset();
    let out = Sim::new(1).run(|_| {
        let site = Composed::new(
            vec![a.anchor(), b.anchor()],
            ComposeMode::Static(PtoPolicy::with_attempts(3)),
        );
        let mut rng = XorShift64::new(43);
        for _ in 0..300 {
            let token = rng.below(64);
            if rng.chance(7, 10) {
                let (src, dst) = if rng.chance(1, 2) { (&b, &a) } else { (&a, &b) };
                let moved = site.run(
                    |tx| {
                        let moved = src.tx_compose_update(tx, token, false)?;
                        if moved {
                            dst.tx_compose_update(tx, token, true)?;
                        }
                        Ok(moved)
                    },
                    || {
                        let moved = src.remove(token);
                        if moved {
                            dst.insert(token);
                        }
                        moved
                    },
                );
                std::hint::black_box(moved);
            } else {
                let (in_a, in_b) = site.run(
                    |tx| Ok((a.tx_compose_contains(tx, token)?, b.tx_compose_contains(tx, token)?)),
                    || (a.contains(token), b.contains(token)),
                );
                assert!(in_a != in_b, "audit saw a token in both banks or neither");
            }
        }
        // First-touch inserts into NIL buckets help-abort to the ordered-lock
        // fallback (deterministic explicit aborts); the bulk of the stream
        // must still ride the prefix. The golden's `explicit` column pins the
        // exact split.
        assert!(
            site.stats.fast.get() > site.stats.fallback.get(),
            "composed transfer stream mostly left the prefix ({} fast vs {} fallback)",
            site.stats.fast.get(),
            site.stats.fallback.get()
        );
    });
    for t in 0..64 {
        assert!(a.contains(t) != b.contains(t), "token {t} not conserved");
    }
    out.makespan
}

/// Deterministic single-lane **composed** workload, mixed pop+insert: an
/// MS-queue feeding an in-place hash table. Enqueues go through the
/// composed site as single-structure prefixes; dequeues atomically move
/// the head value into the table. (Neither structure draws from a
/// per-thread RNG stream.)
fn composed_pop_insert() -> u64 {
    let q = MsQueue::new_pto();
    let set = FSetHashTable::new(HashVariant::PtoInplace, 256);
    for i in 0..64 {
        q.enqueue(i);
    }
    pto_sim::clock::reset();
    let out = Sim::new(1).run(|_| {
        let site = Composed::new(
            vec![q.anchor(), set.anchor()],
            ComposeMode::Static(PtoPolicy::with_attempts(3)),
        );
        let mut rng = XorShift64::new(9);
        let mut next = 64u64;
        let mut popped = 0usize;
        for _ in 0..300 {
            if rng.chance(1, 2) {
                let node = q.compose_alloc(next);
                let via_prefix = site.run(
                    |tx| {
                        q.tx_enqueue_node(tx, node)?;
                        Ok(true)
                    },
                    || {
                        q.fallback_enqueue(node);
                        false
                    },
                );
                assert!(via_prefix, "single-lane enqueue must use the prefix");
                next += 1;
            } else {
                let got = site.run(
                    |tx| match q.tx_dequeue_raw(tx)? {
                        None => Ok(None),
                        Some((v, dummy)) => {
                            let fresh = set.tx_compose_update(tx, v, true)?;
                            Ok(Some((v, dummy, fresh)))
                        }
                    },
                    || q.fallback_dequeue().map(|v| (v, u32::MAX, set.insert(v))),
                );
                if let Some((v, dummy, fresh)) = got {
                    if dummy != u32::MAX {
                        q.compose_retire(dummy);
                    }
                    assert!(fresh, "value {v} moved into the set twice");
                    popped += 1;
                }
            }
        }
        assert!(
            site.stats.fast.get() > site.stats.fallback.get(),
            "composed pop+insert stream mostly left the prefix ({} fast vs {} fallback)",
            site.stats.fast.get(),
            site.stats.fallback.get()
        );
        assert_eq!(set.len(), popped, "pop+insert halves disagree");
    });
    out.makespan
}

const GOLDEN_PRIVATE_WORD_PTO: Golden = (24800, 400, 300, 0, 0, 100, 0, 0);
// Re-pinned (255681 → 246724, HTM columns unchanged) when inserts began
// allocating their node only once the search finds the key absent: a
// present-key insert no longer pays a `PoolAlloc` + `PoolFree` pair.
// Re-pinned (246724 → 244692, HTM columns unchanged) when the whole-op
// prefixes took `curr`'s key from the search instead of re-reading it: one
// `TxLoad` fewer per update.
const GOLDEN_LIST_PTO_WHOLE: Golden = (244692, 353, 353, 0, 0, 0, 0, 0);
const GOLDEN_LIST_PTO_UPDATE: Golden = (257578, 201, 201, 0, 0, 0, 0, 0);
const GOLDEN_LIST_LOCKFREE: Golden = (289788, 0, 0, 0, 0, 0, 0, 0);
const GOLDEN_MINDICATOR_PTO: Golden = (132800, 800, 800, 0, 0, 0, 0, 0);
const GOLDEN_MINDICATOR_LOCKFREE: Golden = (371200, 0, 0, 0, 0, 0, 0, 0);
const GOLDEN_MSQUEUE_PTO: Golden = (67750, 564, 564, 0, 0, 0, 0, 0);
const GOLDEN_LANE_PRIVATE_64_HASWELL: Golden = (7836, 150, 150, 0, 0, 0, 0, 0);
const GOLDEN_LANE_PRIVATE_64_NUMAISH: Golden = (19156, 150, 150, 0, 0, 0, 0, 0);
// Note: `private_word_adaptive` equals `private_word_pto` exactly — on a
// conflict-free stream the self-tuning executor must add zero virtual cost.
const GOLDEN_PRIVATE_WORD_ADAPTIVE: Golden = (24800, 400, 300, 0, 0, 100, 0, 0);
// Re-pinned (165066 → 149136, HTM columns unchanged) when inserts began
// allocating their (internal, leaf) pair only once the search finds the key
// absent: a present-key insert no longer pays 2×`PoolAlloc` + 2×`PoolFree`.
// Re-pinned (149136 → 118400, HTM columns unchanged) when the whole-op
// prefix stopped reading every node's update word and the followed child
// word on top of the leaf test: its walk reads a level's `left`, key and,
// turning right, `right` — 3,842 fewer `TxLoad`s over the workload.
// Re-pinned (118400 → 104840, HTM columns unchanged) when each child word
// began carrying its node's leaf bit: the walk reads a level's key and the
// child word it follows, and no node's `left` word for its leaf test.
const GOLDEN_BST_ADAPTIVE: Golden = (104840, 499, 499, 0, 0, 0, 0, 0);
// The static BST variants on the same workload. On one lane nothing
// aborts, so `Pto1`, `Pto1Pto2` and `Adaptive` all commit every op on the
// whole-op prefix and pin the same makespan; `LockFree` and `Pto2` never
// run that prefix. `Pto1`/`Pto1Pto2` re-pinned with `Adaptive` above
// (149136 → 118400 → 104840, HTM columns unchanged). `LockFree` and `Pto2`
// re-pinned (196531 → 172107, 163714 → 139290; HTM columns unchanged) when
// the lock-free search took its leaf test from the child word: 3 shared
// loads per level instead of 4. `LockFree` re-pinned (172107 → 171579,
// HTM columns unchanged) when `help_delete` began testing the word its
// MARK CAS returned instead of loading the parent's update word again.
// Re-pinned (171579 → 163479, HTM columns unchanged) when the owner of an
// `Info` began passing its fields to the code that completes its op
// instead of loading them back, and the never-read `kind` field went: the
// workload's 71 inserts each drop 4 loads and 1 store (36 cycles), its
// 66 removes 10 loads and 1 store (84): 71 × 36 + 66 × 84 = 8,100.
const GOLDEN_BST_LOCKFREE: Golden = (163479, 0, 0, 0, 0, 0, 0, 0);
const GOLDEN_BST_PTO1: Golden = (104840, 499, 499, 0, 0, 0, 0, 0);
const GOLDEN_BST_PTO2: Golden = (139290, 201, 201, 0, 0, 0, 0, 0);
const GOLDEN_BST_PTO1PTO2: Golden = (104840, 499, 499, 0, 0, 0, 0, 0);
// Both delete prefixes write 3 words against a cap of 2: the 17 capacity
// aborts are delete attempts until each site enters its Capacity regime,
// plus that regime's periodic probes. Re-pinned (161024 → 141736 →
// 141208, HTM columns unchanged) with the leaf bit and `help_delete` above.
// Re-pinned (141208 → 135136, HTM columns unchanged) with the owner's
// fields above: each of the 66 removes ends in the lock-free delete, which
// drops its 10 `Info` loads, the `kind` store and the leaf-key load the
// PTO2 preamble already made (11 × 8 + 4 = 92 cycles): 66 × 92 = 6,072.
const GOLDEN_BST_CAPACITY: Golden = (135136, 398, 381, 0, 17, 0, 0, 0);
// The hash table variants. The explicit aborts are help-aborts on buckets
// that the prefill's resizes left unmigrated or frozen, plus, in place, on
// first inserts into NIL buckets. `Pto` is repeatable since its
// copy-on-write prefix stopped stamping its fresh array's orecs before
// commit. Re-pinned (79320 → 74416, 73176 → 68896, 57354 → 53074; HTM
// columns unchanged) when the bucket word began carrying its array's
// length: no scan loads a separate length word, and no update writes one.
const GOLDEN_HASH_LOCKFREE: Golden = (74416, 0, 0, 0, 0, 0, 0, 0);
const GOLDEN_HASH_PTO: Golden = (68896, 658, 562, 0, 0, 96, 0, 0);
const GOLDEN_HASH_PTO_INPLACE: Golden = (53074, 658, 546, 0, 0, 112, 0, 0);
const GOLDEN_MIDDLE_PATH_WORD: Golden = (4418, 82, 40, 2, 0, 0, 0, 40);
// Re-pinned (442061 → 426773, 174165 → 158877; HTM columns unchanged)
// when inserts began handing the words their binary search read to the
// root CAS or the DCSS, and moundify began carrying the word its DCAS
// wrote into the child: the same 15,288 cycles fewer on both variants.
// `LockFree` re-pinned (426773 → 363493, HTM columns unchanged) when the
// owner of an RDCSS began completing it with its own arguments instead of
// loading its descriptor's fields back: 1,582 owner completions × 5
// `SharedLoad`s × 8 cycles = 63,280. The PTO Mound takes no fallback on
// one lane, so it runs no software RDCSS.
const GOLDEN_MOUND_LOCKFREE: Golden = (363493, 0, 0, 0, 0, 0, 0, 0);
const GOLDEN_MOUND_PTO: Golden = (158877, 1112, 1112, 0, 0, 0, 0, 0);
// The skiplist variants on the setbench loop (128 keys, 400 ops, seed 42).
// The PTO variant's 201 prefixes are its updates' link and mark
// superblocks; lookups run no transaction.
const GOLDEN_SKIPLIST_LOCKFREE: Golden = (279936, 0, 0, 0, 0, 0, 0, 0);
const GOLDEN_SKIPLIST_PTO: Golden = (279434, 201, 201, 0, 0, 0, 0, 0);
// Composed goldens (PR 10): recorded on the tree that introduced
// `pto_core::compose`; regenerate with PTO_GOLDEN_PRINT=1 if the compose
// wrapper's charged costs change on purpose. Re-pinned (47108 → 42900,
// 96859 → 95119; HTM columns unchanged) with the hash goldens above: an
// in-place prefix reads and writes its bucket's length in the bucket word.
// Re-pinned again (HTM columns unchanged) when each compose half began
// checking its own anchor and the hash table's generation word became its
// anchor: each workload runs 300 composed prefix attempts (one per op),
// and a `TxLoad` charges 8 cycles. Transfer-heavy's prefixes no longer
// read the two tables' separate anchor words: 300 × 2 × 8 = 4,800 fewer
// (42900 → 38100). Pop-insert's keep the queue's anchor read and drop the
// table's: 300 × 1 × 8 = 2,400 fewer (95119 → 92719).
const GOLDEN_COMPOSED_TRANSFER_HEAVY: Golden = (38100, 584, 431, 0, 0, 153, 0, 0);
const GOLDEN_COMPOSED_POP_INSERT: Golden = (92719, 472, 256, 0, 0, 216, 0, 0);

#[test]
fn golden_composed_transfer_heavy_1lane() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let got = measure(composed_transfer_heavy);
    check("composed_transfer_heavy", got, GOLDEN_COMPOSED_TRANSFER_HEAVY);
    let again = measure(composed_transfer_heavy);
    assert_eq!(got, again, "composed transfer workload is not deterministic");
}

#[test]
fn golden_composed_pop_insert_1lane() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let got = measure(composed_pop_insert);
    check("composed_pop_insert", got, GOLDEN_COMPOSED_POP_INSERT);
    let again = measure(composed_pop_insert);
    assert_eq!(got, again, "composed pop+insert workload is not deterministic");
}

#[test]
fn golden_private_word_adaptive_4lane() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let got = measure(private_word_adaptive);
    check("private_word_adaptive", got, GOLDEN_PRIVATE_WORD_ADAPTIVE);
    let again = measure(private_word_adaptive);
    assert_eq!(got, again, "adaptive private-word workload is not deterministic");
}

#[test]
fn golden_bst_adaptive_1lane() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let got = measure(|| bst_workload(BstVariant::Adaptive));
    check("bst_adaptive", got, GOLDEN_BST_ADAPTIVE);
    let again = measure(|| bst_workload(BstVariant::Adaptive));
    assert_eq!(got, again, "adaptive BST workload is not deterministic");
}

#[test]
fn golden_bst_capacity_1lane() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let got = measure(bst_capacity_workload);
    check("bst_capacity", got, GOLDEN_BST_CAPACITY);
    let again = measure(bst_capacity_workload);
    assert_eq!(got, again, "capacity BST workload is not deterministic");
}

#[test]
fn golden_bst_variants_1lane() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for (v, name, want) in [
        (BstVariant::LockFree, "bst_lockfree", GOLDEN_BST_LOCKFREE),
        (BstVariant::Pto1, "bst_pto1", GOLDEN_BST_PTO1),
        (BstVariant::Pto2, "bst_pto2", GOLDEN_BST_PTO2),
        (BstVariant::Pto1Pto2, "bst_pto1pto2", GOLDEN_BST_PTO1PTO2),
    ] {
        let got = measure(|| bst_workload(v));
        check(name, got, want);
        let again = measure(|| bst_workload(v));
        assert_eq!(got, again, "{v:?} BST workload is not deterministic");
    }
}

#[test]
fn golden_hashtable_variants_1lane() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for (v, name, want) in [
        (HashVariant::LockFree, "hash_lockfree", GOLDEN_HASH_LOCKFREE),
        (HashVariant::Pto, "hash_pto", GOLDEN_HASH_PTO),
        (
            HashVariant::PtoInplace,
            "hash_pto_inplace",
            GOLDEN_HASH_PTO_INPLACE,
        ),
    ] {
        let got = measure(|| hash_workload(v));
        check(name, got, want);
        let again = measure(|| hash_workload(v));
        assert_eq!(got, again, "{v:?} hash table workload is not deterministic");
    }
}

#[test]
fn golden_middle_path_word_1lane() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let got = measure(middle_path_word);
    check("middle_path_word", got, GOLDEN_MIDDLE_PATH_WORD);
    let again = measure(middle_path_word);
    assert_eq!(got, again, "middle-path workload is not deterministic");
}

#[test]
fn golden_private_word_pto_4lane() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let got = measure(private_word_pto);
    check("private_word_pto", got, GOLDEN_PRIVATE_WORD_PTO);
    // Also: re-running must reproduce itself exactly (determinism check
    // independent of the recorded constants).
    let again = measure(private_word_pto);
    assert_eq!(got, again, "private-word workload is not deterministic");
}

#[test]
fn golden_list_variants_1lane() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let got = measure(|| {
        let l = HarrisList::new(ListVariant::PtoWhole);
        set_workload(&l, 400, 128, 42)
    });
    check("list_pto_whole", got, GOLDEN_LIST_PTO_WHOLE);

    let got = measure(|| {
        let l = HarrisList::new(ListVariant::PtoUpdate);
        set_workload(&l, 400, 128, 42)
    });
    check("list_pto_update", got, GOLDEN_LIST_PTO_UPDATE);

    let got = measure(|| {
        let l = HarrisList::new(ListVariant::LockFree);
        set_workload(&l, 400, 128, 42)
    });
    check("list_lockfree", got, GOLDEN_LIST_LOCKFREE);
}

#[test]
fn golden_mindicator_1lane() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let got = measure(|| {
        let m = PtoMindicator::new(64);
        mindicator_workload(&m, 400, 4096, 3)
    });
    check("mindicator_pto", got, GOLDEN_MINDICATOR_PTO);

    let got = measure(|| {
        let m = LockFreeMindicator::new(64);
        mindicator_workload(&m, 400, 4096, 3)
    });
    check("mindicator_lockfree", got, GOLDEN_MINDICATOR_LOCKFREE);
}

#[test]
fn golden_lane_private_64lane_both_profiles() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let haswell = measure(|| lane_private_64(CostProfile::Haswell));
    check("lane_private_64_haswell", haswell, GOLDEN_LANE_PRIVATE_64_HASWELL);
    let numa = measure(|| lane_private_64(CostProfile::NumaIsh));
    check("lane_private_64_numaish", numa, GOLDEN_LANE_PRIVATE_64_NUMAISH);
    // The remote-socket surcharge must be visible in the makespan (lanes
    // ≥ 8 pay it), while the HTM counters — all on socket-0 lane 0 — stay
    // identical across profiles.
    assert!(
        numa.0 > haswell.0,
        "NUMA-ish profile did not charge remote lanes more ({} vs {})",
        numa.0,
        haswell.0
    );
    assert_eq!(
        (numa.1, numa.2, numa.3, numa.4, numa.5, numa.6, numa.7),
        (haswell.1, haswell.2, haswell.3, haswell.4, haswell.5, haswell.6, haswell.7),
        "HTM counters must not depend on the cost profile"
    );
    // And re-running must reproduce itself exactly.
    let again = measure(|| lane_private_64(CostProfile::NumaIsh));
    assert_eq!(numa, again, "64-lane workload is not deterministic");
}

#[test]
fn golden_mound_variants_1lane() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for (new, name, want) in [
        (Mound::new_lockfree as fn(u32) -> Mound, "mound_lockfree", GOLDEN_MOUND_LOCKFREE),
        (Mound::new_pto, "mound_pto", GOLDEN_MOUND_PTO),
    ] {
        let got = measure(|| mound_workload(&new(10)));
        check(name, got, want);
        let again = measure(|| mound_workload(&new(10)));
        assert_eq!(got, again, "{name} workload is not deterministic");
    }
}

#[test]
fn golden_skiplist_variants_1lane() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for (new, name, want) in [
        (
            SkipListSet::new_lockfree as fn() -> SkipListSet,
            "skiplist_lockfree",
            GOLDEN_SKIPLIST_LOCKFREE,
        ),
        (SkipListSet::new_pto, "skiplist_pto", GOLDEN_SKIPLIST_PTO),
    ] {
        let got = measure(|| skiplist_workload(&new()));
        check(name, got, want);
        let again = measure(|| skiplist_workload(&new()));
        assert_eq!(got, again, "{name} workload is not deterministic");
    }
}

#[test]
fn golden_msqueue_1lane() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let got = measure(|| {
        let q = MsQueue::new_pto();
        queue_workload(&q, 500, 7)
    });
    check("msqueue_pto", got, GOLDEN_MSQUEUE_PTO);
}
