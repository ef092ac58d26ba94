//! Transaction descriptors: read/write sets, validation, and commit.
//!
//! The protocol is TL2 with lazy versioning, restricted to word
//! granularity:
//!
//! * **begin** — snapshot the global version clock into `rv`;
//! * **read** — consistency-check the word's orec (`unlocked ∧ version ≤
//!   rv ∧ stable across the value load`), else abort with `Conflict`;
//! * **write** — buffer into the write set; reads see their own writes;
//! * **commit** — try-lock the write orecs in sorted order (sorted order
//!   makes committer-vs-committer collisions decide a winner instead of
//!   mutually aborting), draw a write version, validate the read set,
//!   publish the buffered values, release the orecs at the new version.
//!
//! Exceeding the configured read/write capacities aborts with `Capacity`,
//! modeling the L1-bounded write set of a real best-effort HTM.
//!
//! Wallclock design (PR 4; *virtual* time — the `charge` sequence — is
//! untouched): each thread keeps one reusable [`Scratch`] descriptor
//! holding the read/write sets and the commit-time lock-order/acquired
//! buffers. A transaction borrows it at begin and returns it cleared (not
//! freed) on drop, so steady-state attempts allocate nothing. Two 256-bit
//! membership filters sit in front of the `reads.contains` and
//! write-set-self-read scans; a filter miss proves absence (no false
//! negatives), so the linear scans run only on probable hits and the
//! outcome of every check — and with it the abort/commit decision and the
//! virtual-time charge sequence — is exactly what the plain scans produce.

use crate::orec;
use crate::word::TxWord;
use pto_sim::{charge, CostKind};
use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::Ordering;

/// Why a transaction attempt failed — the RTM EAX status word, reified.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AbortCause {
    /// A conflicting access by a concurrent transaction or by
    /// non-transactional code (strong atomicity).
    Conflict,
    /// The read or write set exceeded the best-effort capacity.
    Capacity,
    /// The program executed `TxAbort` with this 8-bit code (the paper uses
    /// explicit aborts to bail out of helping paths, §2.4).
    Explicit(u8),
    /// `TxBegin` inside a running transaction (this HTM does not nest).
    Nested,
    /// A spontaneous best-effort failure (interrupts, ring transitions,
    /// microcode whims — anything real TSX aborts on without setting
    /// flags). Only produced under failure injection
    /// ([`crate::TxOpts::chaos_abort_pct`]).
    Spurious,
}

impl AbortCause {
    /// RTM sets the "may succeed on retry" hint for conflicts (and clears
    /// every flag on spontaneous aborts, which are also worth retrying);
    /// capacity and explicit aborts are permanent.
    pub fn retry_hint(self) -> bool {
        matches!(self, AbortCause::Conflict | AbortCause::Spurious)
    }

    /// Compact cause code carried in [`pto_sim::obs::Event::TxAbort`]
    /// payloads; indexes [`pto_sim::obs::CAUSE_NAMES`]. The explicit
    /// abort's 8-bit program code is not preserved in the trace.
    pub fn trace_code(self) -> u8 {
        match self {
            AbortCause::Conflict => 0,
            AbortCause::Capacity => 1,
            AbortCause::Explicit(_) => 2,
            AbortCause::Nested => 3,
            AbortCause::Spurious => 4,
        }
    }
}

/// Error token carried out of a failed transactional step via `?`.
/// Constructed by [`Txn::read`]/[`Txn::write`] on conflict/capacity and by
/// [`Txn::abort`] for explicit aborts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Abort {
    pub cause: AbortCause,
}

/// Result of a transactional step.
pub type TxResult<T> = Result<T, Abort>;

/// Whether the prefix transaction elides the memory fences the original
/// algorithm contained. `Elide` is the PTO default (§2.3); `Keep` is the
/// ablation in Figures 5(b) and 5(c), where fence costs are still charged
/// inside the transaction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FenceMode {
    #[default]
    Elide,
    Keep,
}

/// A buffered write. The word is held as a raw pointer so the [`Scratch`]
/// buffers carry no lifetime and can be recycled across transactions; the
/// `PhantomData<&'e TxWord>` on [`Txn`] pins the words' borrow for as long
/// as the entries are live.
struct WriteEntry {
    word: *const TxWord,
    val: u64,
    oidx: usize,
}

/// 256-bit membership filter: a one-word-hash Bloom filter with no false
/// negatives, used purely to skip linear set scans that would miss.
#[derive(Default)]
struct Filter256([u64; 4]);

impl Filter256 {
    #[inline]
    fn insert(&mut self, h: u8) {
        self.0[(h >> 6) as usize] |= 1 << (h & 63);
    }

    #[inline]
    fn maybe_contains(&self, h: u8) -> bool {
        self.0[(h >> 6) as usize] & (1 << (h & 63)) != 0
    }

    #[inline]
    fn clear(&mut self) {
        self.0 = [0; 4];
    }
}

/// Filter hash of an orec index (0..2^16, already Fibonacci-mixed by
/// [`orec::orec_index`]): fold both bytes.
#[inline]
fn oidx_hash(oidx: usize) -> u8 {
    (oidx ^ (oidx >> 8)) as u8
}

/// Filter hash of a word address (8-byte aligned, so the low 3 bits carry
/// nothing).
#[inline]
fn word_hash(addr: usize) -> u8 {
    ((addr >> 3) ^ (addr >> 11)) as u8
}

/// Per-thread reusable transaction buffers: cleared between attempts, never
/// shrunk, so steady-state transactions are allocation-free. One per thread
/// suffices because this HTM does not nest (`IN_TXN` in `exec.rs`).
#[derive(Default)]
struct Scratch {
    reads: Vec<usize>,
    writes: Vec<WriteEntry>,
    lock_order: Vec<usize>,
    acquired: Vec<(usize, u64)>,
    read_filter: Filter256,
    write_filter: Filter256,
}

thread_local! {
    static SCRATCH: Cell<Option<Box<Scratch>>> = const { Cell::new(None) };
    /// Orec index of this thread's most recent `Conflict` abort. Feeds the
    /// adaptive policy's middle-path trigger: a streak of conflicts on one
    /// granule means a single software orec acquisition can serialize the
    /// whole prefix ([`crate::try_acquire_orec`]).
    static LAST_CONFLICT_OREC: Cell<Option<usize>> = const { Cell::new(None) };
}

#[inline]
fn note_conflict(oidx: usize) {
    LAST_CONFLICT_OREC.with(|c| c.set(Some(oidx)));
}

/// The orec index implicated in this thread's most recent `Conflict`
/// abort, if any. Purely thread-local diagnostics: the value is only
/// meaningful immediately after an attempt returned
/// [`AbortCause::Conflict`] on the same thread.
pub fn last_conflict_orec() -> Option<usize> {
    LAST_CONFLICT_OREC.with(|c| c.get())
}

/// A running transaction. Created by [`crate::transaction`]; data-structure
/// code interacts with it through `read`/`write`/`cas`/`fence`/`abort`.
pub struct Txn<'e> {
    rv: u64,
    fence_mode: FenceMode,
    read_cap: usize,
    write_cap: usize,
    /// Middle path: `(oidx, pre-lock orec value)` of an orec the caller
    /// already holds in software ([`crate::OrecGuard`]). Reads of that
    /// granule validate against the pre-lock version instead of failing on
    /// the lock bit, and commit treats it as pre-acquired.
    owned: Option<(usize, u64)>,
    /// Set by a successful writing commit that released the owned orec at
    /// its write version (so the guard must not restore the pre value).
    owned_published: bool,
    /// `Some` from `new` until `drop` (an `Option` only so `Drop` can move
    /// the box back to the thread-local slot).
    scratch: Option<Box<Scratch>>,
    /// Keeps every word stored in `scratch.writes` borrowed for the
    /// transaction's lifetime; see [`WriteEntry`].
    _words: PhantomData<&'e TxWord>,
}

impl Drop for Txn<'_> {
    fn drop(&mut self) {
        if let Some(mut s) = self.scratch.take() {
            s.reads.clear();
            s.writes.clear();
            s.lock_order.clear();
            s.acquired.clear();
            s.read_filter.clear();
            s.write_filter.clear();
            SCRATCH.with(|c| c.set(Some(s)));
        }
    }
}

impl<'e> Txn<'e> {
    pub(crate) fn new(
        rv: u64,
        fence_mode: FenceMode,
        read_cap: usize,
        write_cap: usize,
        owned: Option<(usize, u64)>,
    ) -> Self {
        let scratch = SCRATCH.with(|c| c.take()).unwrap_or_default();
        Txn {
            rv,
            fence_mode,
            read_cap,
            write_cap,
            owned,
            owned_published: false,
            scratch: Some(scratch),
            _words: PhantomData,
        }
    }

    /// Whether a successful commit released the owned orec at its write
    /// version (only ever true for owned-orec transactions that wrote the
    /// owned granule).
    pub(crate) fn owned_published(&self) -> bool {
        self.owned_published
    }

    #[inline]
    fn s(&mut self) -> &mut Scratch {
        self.scratch.as_mut().expect("scratch present until drop")
    }

    /// The fence mode this transaction runs under.
    pub fn fence_mode(&self) -> FenceMode {
        self.fence_mode
    }

    /// Transactional read. Returns the word's value in this transaction's
    /// consistent snapshot, or aborts with `Conflict`/`Capacity`.
    pub fn read(&mut self, word: &'e TxWord) -> TxResult<u64> {
        charge(CostKind::TxLoad);
        let rv = self.rv;
        let read_cap = self.read_cap;
        let owned = self.owned;
        let s = self.s();
        // Read-own-write; the filter miss proves this word was never
        // written, skipping the scan entirely on the common path.
        let wh = word_hash(word.addr());
        if s.write_filter.maybe_contains(wh) {
            if let Some(e) = s
                .writes
                .iter()
                .rev()
                .find(|e| std::ptr::eq(e.word, word))
            {
                return Ok(e.val);
            }
        }
        let oidx = orec::orec_index(word.addr());
        let o = orec::orec_at(oidx);
        let v1 = o.load(Ordering::Acquire);
        let inconsistent = match owned {
            // Middle path: we hold this orec's lock ourselves, so the lock
            // bit is expected; the granule's last committed version (the
            // pre-lock value) must still be within our snapshot.
            Some((own, pre)) if own == oidx => orec::version_of(pre) > rv,
            _ => orec::is_locked(v1) || orec::version_of(v1) > rv,
        };
        if inconsistent {
            note_conflict(oidx);
            return Err(Abort {
                cause: AbortCause::Conflict,
            });
        }
        let val = word.cell.load(Ordering::Acquire);
        let v2 = o.load(Ordering::Acquire);
        if v1 != v2 {
            note_conflict(oidx);
            return Err(Abort {
                cause: AbortCause::Conflict,
            });
        }
        let rh = oidx_hash(oidx);
        if !s.read_filter.maybe_contains(rh) || !s.reads.contains(&oidx) {
            if s.reads.len() >= read_cap {
                return Err(Abort {
                    cause: AbortCause::Capacity,
                });
            }
            s.reads.push(oidx);
            s.read_filter.insert(rh);
        }
        Ok(val)
    }

    /// Transactional write: buffered until commit, invisible to all other
    /// threads until then.
    pub fn write(&mut self, word: &'e TxWord, val: u64) -> TxResult<()> {
        charge(CostKind::TxStore);
        let write_cap = self.write_cap;
        let s = self.s();
        let wh = word_hash(word.addr());
        if s.write_filter.maybe_contains(wh) {
            if let Some(e) = s.writes.iter_mut().find(|e| std::ptr::eq(e.word, word)) {
                e.val = val;
                return Ok(());
            }
        }
        if s.writes.len() >= write_cap {
            return Err(Abort {
                cause: AbortCause::Capacity,
            });
        }
        let oidx = orec::orec_index(word.addr());
        s.writes.push(WriteEntry { word, val, oidx });
        s.write_filter.insert(wh);
        Ok(())
    }

    /// The transactional replacement for a CAS: a read, a branch, and a
    /// conditional buffered write (§2.3 "atomic synchronization primitives
    /// ... can be replaced with their corresponding loads, stores, and
    /// branches"). Returns whether the "CAS" succeeded.
    pub fn cas(&mut self, word: &'e TxWord, expected: u64, new: u64) -> TxResult<bool> {
        let cur = self.read(word)?;
        if cur != expected {
            return Ok(false);
        }
        self.write(word, new)?;
        Ok(true)
    }

    /// A memory fence of the original algorithm. Free when fences are
    /// elided (subsumed by the transaction, §2.3); charged in the
    /// `FenceMode::Keep` ablation of Figures 5(b)/(c).
    #[inline]
    pub fn fence(&self) {
        if self.fence_mode == FenceMode::Keep {
            charge(CostKind::Fence);
        }
    }

    /// Explicitly abort with an 8-bit code (`TxAbort`). Use as
    /// `return Err(tx.abort(code))`.
    pub fn abort(&self, code: u8) -> Abort {
        Abort {
            cause: AbortCause::Explicit(code),
        }
    }

    /// Number of distinct orecs read so far (diagnostics).
    pub fn read_set_len(&self) -> usize {
        self.scratch.as_ref().map_or(0, |s| s.reads.len())
    }

    /// Number of buffered writes so far (diagnostics).
    pub fn write_set_len(&self) -> usize {
        self.scratch.as_ref().map_or(0, |s| s.writes.len())
    }

    /// Attempt to commit. On success the buffered writes become visible
    /// atomically and the serialization version is returned: the write
    /// version `wv` for update transactions, `rv` for read-only ones
    /// (which serialize at their begin time). On failure nothing is
    /// visible and the cause is returned.
    pub(crate) fn commit(&mut self) -> Result<u64, AbortCause> {
        let rv = self.rv;
        let owned = self.owned;
        let owned_idx = owned.map(|(i, _)| i);
        // Split-borrow the scratch so the loops below can read one buffer
        // while filling another.
        let Scratch {
            reads,
            writes,
            lock_order,
            acquired,
            ..
        } = &mut **self.scratch.as_mut().expect("scratch present until drop");
        if writes.is_empty() {
            // Read-only fast path: every read already validated against rv,
            // so the transaction serializes at its begin time.
            charge(CostKind::TxEnd);
            return Ok(rv);
        }

        // Lock the write orecs in sorted order. Sorted order means two
        // overlapping committers resolve to a winner at their first shared
        // orec instead of deadlocking or mutually aborting. The buffers are
        // recycled scratch: cleared here, not reallocated.
        lock_order.clear();
        lock_order.extend(writes.iter().map(|e| e.oidx));
        lock_order.sort_unstable();
        lock_order.dedup();

        acquired.clear();
        for &oidx in lock_order.iter() {
            if let Some((own, pre)) = owned {
                if oidx == own {
                    // Middle path: this orec is already held in software by
                    // the caller's guard; record it at its pre-lock value
                    // without CASing. `lock_order` is sorted, so `acquired`
                    // stays sorted for the validation binary search.
                    acquired.push((oidx, pre));
                    continue;
                }
            }
            let o = orec::orec_at(oidx);
            let cur = o.load(Ordering::Acquire);
            if orec::is_locked(cur)
                || o.compare_exchange(
                    cur,
                    orec::make_locked(cur),
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                )
                .is_err()
            {
                note_conflict(oidx);
                Self::release(acquired, owned_idx);
                return Err(AbortCause::Conflict);
            }
            acquired.push((oidx, cur));
        }

        let wv = orec::gvc_bump();

        // Validate the read set unless no other version was drawn since
        // begin (TL2's rv+1 == wv shortcut).
        if wv != rv + 1 {
            for &oidx in reads.iter() {
                match acquired.binary_search_by_key(&oidx, |&(i, _)| i) {
                    Ok(pos) => {
                        // Read-write overlap: the pre-lock version must
                        // still be within our snapshot.
                        if orec::version_of(acquired[pos].1) > rv {
                            note_conflict(oidx);
                            Self::release(acquired, owned_idx);
                            return Err(AbortCause::Conflict);
                        }
                    }
                    Err(_) => {
                        let v = orec::orec_at(oidx).load(Ordering::Acquire);
                        let bad = match owned {
                            // Read-only use of the owned granule: we hold
                            // its lock, so validate the pre-lock version.
                            Some((own, pre)) if own == oidx => orec::version_of(pre) > rv,
                            _ => orec::is_locked(v) || orec::version_of(v) > rv,
                        };
                        if bad {
                            note_conflict(oidx);
                            Self::release(acquired, owned_idx);
                            return Err(AbortCause::Conflict);
                        }
                    }
                }
            }
        }

        // Publish: all values first, then all orec releases, so a seqlock
        // reader that sees any released orec sees every published value.
        for e in writes.iter() {
            // SAFETY: `e.word` was stored from a `&'e TxWord` in `write`,
            // and `_words: PhantomData<&'e TxWord>` keeps that borrow alive
            // for the whole transaction, so the pointer is valid here.
            unsafe { (*e.word).cell.store(e.val, Ordering::Release) };
        }
        let newv = orec::make_version(wv);
        let mut owned_published = false;
        for &(oidx, _) in acquired.iter() {
            orec::orec_at(oidx).store(newv, Ordering::Release);
            if Some(oidx) == owned_idx {
                owned_published = true;
            }
        }
        charge(CostKind::TxEnd);
        self.owned_published = owned_published;
        Ok(wv)
    }

    /// Restore the pre-lock values of every orec locked so far, except the
    /// caller-owned one (its guard keeps holding it across a failed
    /// attempt, so the middle path can retry without re-acquiring).
    fn release(acquired: &[(usize, u64)], owned_idx: Option<usize>) {
        for &(oidx, pre) in acquired {
            if Some(oidx) == owned_idx {
                continue;
            }
            orec::orec_at(oidx).store(pre, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction;

    #[test]
    fn read_own_write() {
        let w = TxWord::new(1);
        let got = transaction(|tx| {
            tx.write(&w, 5)?;
            tx.read(&w)
        })
        .unwrap();
        assert_eq!(got, 5);
        assert_eq!(w.peek(), 5);
    }

    #[test]
    fn cas_inside_transaction_behaves_like_cas() {
        let w = TxWord::new(3);
        let (a, b) = transaction(|tx| {
            let a = tx.cas(&w, 3, 4)?; // succeeds
            let b = tx.cas(&w, 3, 5)?; // fails: sees own write 4
            Ok((a, b))
        })
        .unwrap();
        assert!(a);
        assert!(!b);
        assert_eq!(w.peek(), 4);
    }

    #[test]
    fn write_capacity_aborts() {
        let words: Vec<TxWord> = (0..64).map(TxWord::new).collect();
        let r = crate::transaction_with(
            crate::TxOpts {
                write_cap: 8,
                ..Default::default()
            },
            |tx| {
                for w in &words {
                    tx.write(w, 0)?;
                }
                Ok(())
            },
        );
        assert_eq!(r.unwrap_err(), AbortCause::Capacity);
        // Nothing was published.
        for (i, w) in words.iter().enumerate() {
            assert_eq!(w.peek(), i as u64);
        }
    }

    #[test]
    fn read_capacity_aborts() {
        let words: Vec<TxWord> = (0..64).map(TxWord::new).collect();
        let r = crate::transaction_with(
            crate::TxOpts {
                read_cap: 8,
                ..Default::default()
            },
            |tx| {
                let mut sum = 0;
                for w in &words {
                    sum += tx.read(w)?;
                }
                Ok(sum)
            },
        );
        assert_eq!(r.unwrap_err(), AbortCause::Capacity);
    }

    #[test]
    fn repeated_reads_of_one_word_do_not_consume_capacity() {
        let w = TxWord::new(9);
        let r = crate::transaction_with(
            crate::TxOpts {
                read_cap: 2,
                ..Default::default()
            },
            |tx| {
                for _ in 0..100 {
                    tx.read(&w)?;
                }
                Ok(tx.read_set_len())
            },
        );
        assert_eq!(r.unwrap(), 1);
    }

    #[test]
    fn repeated_writes_coalesce() {
        let w = TxWord::new(0);
        transaction(|tx| {
            for i in 1..=50u64 {
                tx.write(&w, i)?;
            }
            assert_eq!(tx.write_set_len(), 1);
            Ok(())
        })
        .unwrap();
        assert_eq!(w.peek(), 50);
    }

    #[test]
    fn explicit_abort_code_is_reported() {
        let r: Result<(), _> = transaction(|tx| Err(tx.abort(0x42)));
        assert_eq!(r.unwrap_err(), AbortCause::Explicit(0x42));
    }

    #[test]
    fn retry_hint_only_for_transient_causes() {
        assert!(AbortCause::Conflict.retry_hint());
        // Spurious (injected best-effort) failures clear every RTM flag yet
        // are worth retrying — the PTO executor relies on this hint to keep
        // burning attempts under failure injection.
        assert!(AbortCause::Spurious.retry_hint());
        assert!(!AbortCause::Capacity.retry_hint());
        assert!(!AbortCause::Explicit(0).retry_hint());
        assert!(!AbortCause::Nested.retry_hint());
    }

    #[test]
    fn fence_mode_keep_charges_elide_does_not() {
        use pto_sim::cost;
        let w = TxWord::new(0);
        pto_sim::clock::reset();
        let _ = crate::transaction_with(
            crate::TxOpts {
                fence_mode: FenceMode::Elide,
                ..Default::default()
            },
            |tx| {
                tx.read(&w)?;
                tx.fence();
                Ok(())
            },
        );
        let elided = pto_sim::now();
        pto_sim::clock::reset();
        let _ = crate::transaction_with(
            crate::TxOpts {
                fence_mode: FenceMode::Keep,
                ..Default::default()
            },
            |tx| {
                tx.read(&w)?;
                tx.fence();
                Ok(())
            },
        );
        let kept = pto_sim::now();
        assert_eq!(kept - elided, cost::cycles(pto_sim::CostKind::Fence));
    }

    #[test]
    fn conflicting_committers_one_wins() {
        // Heavy write-write contention on one word: total must equal the
        // number of successful commits.
        let w = TxWord::new(0);
        let commits = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let w = &w;
                let commits = &commits;
                s.spawn(move || {
                    for _ in 0..2_000 {
                        let r = transaction(|tx| {
                            let v = tx.read(w)?;
                            tx.write(w, v + 1)?;
                            Ok(())
                        });
                        if r.is_ok() {
                            commits.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(w.peek(), commits.load(Ordering::Relaxed));
        assert!(commits.load(Ordering::Relaxed) > 0);
    }
}
