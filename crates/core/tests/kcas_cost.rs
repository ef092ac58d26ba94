//! Virtual cost of the software DCSS and DCAS as their owner runs them,
//! uncontended. The owner completes each RDCSS (restricted double-compare
//! single-swap) with the arguments it already holds; only a helper loads
//! a descriptor's fields. The readings are exact only if nothing else
//! charges this thread's clock, so this binary holds only these tests and
//! runs them one at a time.

use pto_core::kcas::{self, DcssResult, Heap};
use pto_htm::TxWord;
use pto_sim::cost::cycles;
use pto_sim::CostKind;
use std::sync::{Mutex, MutexGuard};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

struct Words(Vec<TxWord>);

impl Heap for Words {
    fn word(&self, loc: u64) -> &TxWord {
        &self.0[loc as usize]
    }
}

/// A heap of words holding `values`, stored uncharged.
fn heap(values: &[u64]) -> Words {
    Words(values.iter().map(|&v| TxWord::new(v)).collect())
}

/// Virtual cycles `op` charges on this thread.
fn spent<T>(op: impl FnOnce() -> T) -> (T, u64) {
    pto_sim::clock::reset();
    let out = op();
    (out, pto_sim::now())
}

/// An RDCSS its owner installs and completes: 7 descriptor stores, the
/// install CAS, the condition read, the outcome CAS and the CAS that
/// swings the target to its final value.
fn owner_rdcss(cond_read: u64) -> u64 {
    7 * cycles(CostKind::SharedStore) + cond_read + 3 * cycles(CostKind::Cas)
}

#[test]
fn owner_dcss_loads_no_descriptor_field() {
    let _s = serial();
    // The condition is a heap word: one shared load. A failed condition
    // takes the same steps and swings the target back to its old value.
    let want = owner_rdcss(cycles(CostKind::SharedLoad));
    let h = heap(&[10, 20]);
    let (r, c) = spent(|| kcas::dcss(&h, 0, 10, 1, 20, 21));
    assert_eq!((r, c), (DcssResult::Success, want));
    let (r, c) = spent(|| kcas::dcss(&h, 0, 99, 1, 21, 22));
    assert_eq!((r, c), (DcssResult::CondFailed, want));
    assert_eq!(kcas::read(&h, 1), 21);
}

#[test]
fn owner_dcas_loads_no_descriptor_field() {
    let _s = serial();
    // 7 descriptor stores; per word, a status load and an RDCSS whose
    // condition is the status word (one shared load); the status CAS;
    // and the two CASes that unravel the words to their new values.
    let per_word = cycles(CostKind::SharedLoad) + owner_rdcss(cycles(CostKind::SharedLoad));
    let want = 7 * cycles(CostKind::SharedStore) + 2 * per_word + 3 * cycles(CostKind::Cas);
    let h = heap(&[1, 2]);
    let (ok, c) = spent(|| kcas::dcas(&h, 0, 1, 11, 1, 2, 12));
    assert!(ok);
    assert_eq!(c, want);
    assert_eq!((kcas::read(&h, 0), kcas::read(&h, 1)), (11, 12));
}
