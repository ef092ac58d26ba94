//! Virtual-cost comparisons and determinism checks of the hash table's
//! prefixes. Each test reads a virtual clock around uncontended
//! operations, so the reading is exact only if no prefix aborts. A prefix
//! reads the process-global orec table, where another test's commits in
//! the same process can conflict-abort it and add retries to the reading;
//! this binary therefore holds only these tests and runs them one at a
//! time.

use pto_core::ConcurrentSet;
use pto_hashtable::{FSetHashTable, HashVariant};
use pto_sim::rng::XorShift64;
use pto_sim::Sim;
use std::sync::{Mutex, MutexGuard};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn inplace_beats_lockfree_on_write_heavy_cost() {
    let _s = serial();
    // Figure 4(a): >2x on write-only at the modeled level — the whole
    // point of the in-place modification is killing alloc+copy.
    let lf = FSetHashTable::new(HashVariant::LockFree, 1024);
    let ip = FSetHashTable::new(HashVariant::PtoInplace, 1024);
    // Warm both with the same working set.
    for k in 0..2_000 {
        lf.insert(k);
        ip.insert(k);
    }
    pto_sim::clock::reset();
    for k in 0..2_000 {
        lf.remove(k);
        lf.insert(k);
    }
    let lf_cost = pto_sim::now();
    pto_sim::clock::reset();
    for k in 0..2_000 {
        ip.remove(k);
        ip.insert(k);
    }
    let ip_cost = pto_sim::now();
    assert!(
        (ip_cost as f64) < 0.6 * lf_cost as f64,
        "in-place ({ip_cost}) should be far under CoW ({lf_cost})"
    );
}

#[test]
fn pto_lookup_beats_lockfree_lookup_cost() {
    let _s = serial();
    // Figure 4(c): lookup-only — PTO wins by epoch elision.
    let lf = FSetHashTable::new(HashVariant::LockFree, 1024);
    let pt = FSetHashTable::new(HashVariant::Pto, 1024);
    for k in 0..2_000 {
        lf.insert(k);
        pt.insert(k);
    }
    pto_sim::clock::reset();
    for k in 0..4_000 {
        lf.contains(k % 3_000);
    }
    let lf_cost = pto_sim::now();
    pto_sim::clock::reset();
    for k in 0..4_000 {
        pt.contains(k % 3_000);
    }
    let pt_cost = pto_sim::now();
    assert!(
        pt_cost < lf_cost,
        "PTO lookup ({pt_cost}) should beat lock-free ({lf_cost})"
    );
}

/// One lane runs `ops` ops (80% lookups, 10% inserts, 10% removes) on a
/// 1,024-bucket [`HashVariant::Pto`] table prefilled with 32,768 of the
/// 65,536 keys. Returns the makespan and the table's Conflict aborts.
fn pto_cow_run(ops: u64, seed: u64) -> (u64, u64) {
    let t = FSetHashTable::new(HashVariant::Pto, 1024);
    let mut rng = XorShift64::new(seed);
    let mut filled = 0;
    while filled < 32_768 {
        if t.insert(rng.below(65_536)) {
            filled += 1;
        }
    }
    pto_sim::clock::reset();
    let out = Sim::new(1).run(|_| {
        let mut rng = XorShift64::new(seed.wrapping_add(1));
        for _ in 0..ops {
            let k = rng.below(65_536);
            match rng.below(10) {
                0 => std::hint::black_box(t.insert(k)),
                1 => std::hint::black_box(t.remove(k)),
                _ => std::hint::black_box(t.contains(k)),
            };
        }
    });
    (out.makespan, t.stats.causes.conflict.get())
}

#[test]
fn pto_cow_prefix_never_conflicts_with_itself() {
    let _s = serial();
    // One lane has nothing to conflict with. The copy-on-write prefix
    // fills its fresh array inside the transaction; were it to stamp the
    // array's orecs before commit (as `TxWord::init` does), every slot
    // whose orec aliases the prefix's own read set would doom the prefix,
    // and which slots alias depends on heap addresses, so two same-seed
    // runs would differ.
    let first = pto_cow_run(100_000, 42);
    let second = pto_cow_run(100_000, 42);
    assert_eq!(first.1, 0, "the 1-lane CoW prefix conflict-aborted");
    assert_eq!(second.1, 0, "the 1-lane CoW prefix conflict-aborted");
    assert_eq!(first.0, second.0, "two same-seed runs differ in makespan");
}
