//! # pto-htm — a software stand-in for Intel TSX
//!
//! The paper runs on Intel Restricted Transactional Memory (RTM). TSX is
//! fused off on every modern part and absent from this machine, so this
//! crate provides a **software best-effort HTM** with the four properties
//! PTO's correctness and performance arguments rely on:
//!
//! 1. **Best effort** — a transaction may always fail (capacity, conflict,
//!    explicit abort), so callers must provide a fallback. [`transaction`]
//!    runs exactly one attempt, mirroring `TxBegin`'s "control returns with
//!    a cause" contract; retry policy lives in `pto-core`.
//! 2. **Strong atomicity** — shared memory is accessed through [`TxWord`].
//!    Non-transactional writes bump the word's ownership-record version, so
//!    every in-flight transaction that read the word aborts (requester-wins,
//!    like TSX's coherence-based conflict detection). Non-transactional
//!    loads are seqlock-style and wait out in-flight commit write-backs, so
//!    uncommitted or partially committed state is never observable.
//! 3. **Opacity** — reads validate against a begin-time snapshot of the
//!    global version clock (TL2), so a running transaction only ever sees a
//!    consistent memory snapshot; "zombie" executions are impossible. This
//!    is what lets PTO fast paths skip epoch/hazard protection (§5 of the
//!    paper).
//! 4. **RTM-style abort codes** — [`AbortCause`] mirrors the EAX status
//!    word: conflict, capacity, explicit-with-code, nested.
//!
//! Every operation charges the virtual-cycle cost model in `pto-sim`, so
//! benchmarks measure the latency structure the paper measures (boundary
//! costs at begin/commit, free in-transaction tracking, fence elision).

mod exec;
mod orec;
mod stats;
mod txn;
mod word;

pub mod hw;

pub use exec::{
    injection_scope, transaction, transaction_owned, transaction_with, InjectionScope, TxOpts,
};
pub use orec::{locked_orecs, try_acquire_orec, OrecGuard};
pub use stats::{CauseCounters, HtmScope, HtmSnapshot};
pub use txn::{last_conflict_orec, Abort, AbortCause, FenceMode, TxResult, Txn};
pub use word::TxWord;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_word_transaction_commits() {
        let w = TxWord::new(1);
        let r = transaction(|tx| {
            let v = tx.read(&w)?;
            tx.write(&w, v + 41)?;
            Ok(())
        });
        assert!(r.is_ok());
        assert_eq!(w.peek(), 42);
    }

    #[test]
    fn aborted_transaction_has_no_effect() {
        let w = TxWord::new(7);
        let r: Result<(), AbortCause> = transaction(|tx| {
            tx.write(&w, 99)?;
            Err(tx.abort(3))
        });
        assert_eq!(r.unwrap_err(), AbortCause::Explicit(3));
        assert_eq!(w.peek(), 7);
    }

    #[test]
    fn multi_word_commit_is_atomic_under_concurrency() {
        // Two words must always sum to 5000 from any observer's view.
        // (b starts large enough that 2000 decrements cannot underflow.)
        let a = TxWord::new(2500);
        let b = TxWord::new(2500);
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..2000 {
                    let _ = transaction(|tx| {
                        let x = tx.read(&a)?;
                        let y = tx.read(&b)?;
                        tx.write(&a, x + 1)?;
                        tx.write(&b, y - 1)?;
                        Ok(())
                    });
                }
            });
            s.spawn(|| {
                for _ in 0..2000 {
                    // A transactional observer sees a consistent snapshot.
                    if let Ok(sum) = transaction(|tx| Ok(tx.read(&a)? + tx.read(&b)?)) {
                        assert_eq!(sum, 5000);
                    }
                }
            });
        });
    }

    #[test]
    fn nontransactional_store_aborts_readers() {
        // Strong atomicity: a plain store to a word in a transaction's read
        // set dooms the transaction; opacity means the two reads can never
        // disagree inside a surviving transaction.
        use std::sync::atomic::Ordering;
        let w = TxWord::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..5000u64 {
                    w.store(i, Ordering::Release);
                }
            });
            s.spawn(|| {
                for _ in 0..5000 {
                    let _ = transaction(|tx| {
                        let v1 = tx.read(&w)?;
                        std::hint::spin_loop();
                        let v2 = tx.read(&w)?;
                        assert_eq!(v1, v2, "opacity violated");
                        Ok(())
                    });
                }
            });
        });
    }
}
