//! Software DCSS and DCAS (double-compare-single-swap / double-word CAS)
//! with helping, plus PTO-accelerated fronts.
//!
//! The Mound (§3.1) is built on exactly these primitives: insertion ends in
//! one DCSS, removal restores the heap invariant with a chain of DCAS
//! operations, and each is "implemented in software through a sequence of
//! CAS instructions". PTO is applied *locally* to the primitive: a prefix
//! transaction performs the two/three accesses directly and falls back to
//! the descriptor-based software implementation on abort. Per §4.2, this
//! replaces up to five CASes with one transaction.
//!
//! ## Software algorithm
//!
//! DCSS is Harris-style RDCSS with an outcome field arbitrated by the first
//! completer (so the owner learns the exact result); DCAS is Harris's MCAS
//! restricted to two words, installing its descriptor with RDCSS
//! conditioned on the operation status, deciding the status with a CAS, and
//! unraveling. Encountering someone else's descriptor means *helping* it —
//! the contention signal that PTO prefixes answer with an explicit abort
//! (§2.4, [`crate::ABORT_HELP`]).
//!
//! The owner of an RDCSS completes it with its own arguments. Only a
//! helper, which found the descriptor in a word, loads the fields, once
//! each, between two checks of the sequence number. Every field is still
//! stored, because helpers need it.
//!
//! ## Representation
//!
//! Data-structure words live behind the [`Heap`] trait (`location id →
//! &TxWord`), so descriptors store plain `u64` location ids and helping
//! needs no raw pointers. Descriptor references are tagged values:
//! bit 63 marks a DCAS descriptor, bit 62 a DCSS descriptor; application
//! values must stay below 2^62 ([`MAX_VALUE`]). Descriptors come from a
//! fixed arena and are reused generation-by-generation (sequence-validated,
//! like the Mound's reused descriptors — so PTO gains nothing from
//! allocation elimination here, matching §4.6).

use crate::policy::{pto, PtoPolicy, PtoStats};
use crate::ABORT_HELP;
use pto_htm::{TxResult, TxWord, Txn};
use pto_sim::{charge, charge_n, CostKind};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Tag bit identifying a DCAS descriptor reference.
pub const TAG_DCAS: u64 = 1 << 63;
/// Tag bit identifying a DCSS descriptor reference.
pub const TAG_DCSS: u64 = 1 << 62;
const TAG_MASK: u64 = TAG_DCAS | TAG_DCSS;
/// Largest application value storable in a kcas-managed word.
pub const MAX_VALUE: u64 = TAG_DCSS - 1;

const SEQ_MASK: u64 = (1 << 48) - 1;
const ARENA_SIZE: usize = 4096;

/// Is `v` a descriptor reference (of either kind)?
#[inline]
pub fn is_ref(v: u64) -> bool {
    v & TAG_MASK != 0
}

#[inline]
fn make_ref(tag: u64, idx: u32, seq: u64) -> u64 {
    tag | ((idx as u64) << 48) & !TAG_MASK | (seq & SEQ_MASK)
}

#[inline]
fn ref_idx(r: u64) -> u32 {
    (((r & !TAG_MASK) >> 48) & 0x3FFF) as u32
}

#[inline]
fn ref_seq(r: u64) -> u64 {
    r & SEQ_MASK
}

/// Resolves location ids to shared words. Implemented by each structure
/// that uses DCSS/DCAS (the Mound maps `loc = node index`).
pub trait Heap: Sync {
    fn word(&self, loc: u64) -> &TxWord;
}

// ---------------------------------------------------------------------
// Descriptor arenas
// ---------------------------------------------------------------------

const UNDECIDED: u64 = 0;
const SUCCESS: u64 = 1;
const FAILED: u64 = 2;

/// DCSS condition kinds.
const COND_HEAP: u64 = 0;
const COND_DCAS_STATUS: u64 = 1;

/// The fields of an RDCSS, as its owner passes them to
/// [`dcss_complete`]; only [`help_dcss`] loads them from a descriptor.
struct Rdcss {
    kind: u64,
    cond_loc: u64,
    cond_exp: u64,
    target_loc: u64,
    exp: u64,
    new: u64,
}

#[derive(Default)]
struct DcssDesc {
    seq: AtomicU64, // odd while active
    cond_kind: AtomicU64,
    cond_loc: AtomicU64,
    cond_exp: AtomicU64,
    target_loc: AtomicU64,
    exp: AtomicU64,
    new: AtomicU64,
    outcome: AtomicU64, // (seq << 2) | {UNDECIDED, SUCCESS, FAILED}
}

#[derive(Default)]
struct DcasDesc {
    seq: AtomicU64, // odd while active
    status: AtomicU64, // (seq << 2) | {UNDECIDED, SUCCESS, FAILED}
    loc: [AtomicU64; 2],
    exp: [AtomicU64; 2],
    new: [AtomicU64; 2],
}

struct Arena<T> {
    slots: Box<[T]>,
    bump: AtomicU64,
    free: Mutex<Vec<u32>>,
}

impl<T: Default> Arena<T> {
    fn new() -> Self {
        Arena {
            slots: (0..ARENA_SIZE).map(|_| T::default()).collect(),
            bump: AtomicU64::new(0),
            free: Mutex::new(Vec::new()),
        }
    }

    fn acquire(&self, cache: &RefCell<Vec<u32>>) -> u32 {
        if let Some(idx) = cache.borrow_mut().pop() {
            return idx;
        }
        if let Some(idx) = self.free.lock().unwrap().pop() {
            return idx;
        }
        let idx = self.bump.fetch_add(1, Ordering::AcqRel);
        assert!(
            (idx as usize) < ARENA_SIZE,
            "kcas descriptor arena exhausted"
        );
        idx as u32
    }

    fn release(&self, cache: &RefCell<Vec<u32>>, idx: u32) {
        let mut c = cache.borrow_mut();
        if c.len() < 8 {
            c.push(idx);
        } else {
            self.free.lock().unwrap().push(idx);
        }
    }
}

fn dcss_arena() -> &'static Arena<DcssDesc> {
    static A: OnceLock<Arena<DcssDesc>> = OnceLock::new();
    A.get_or_init(Arena::new)
}

fn dcas_arena() -> &'static Arena<DcasDesc> {
    static A: OnceLock<Arena<DcasDesc>> = OnceLock::new();
    A.get_or_init(Arena::new)
}

/// Thread-local descriptor caches, returned to the global free lists when
/// the thread exits so long test runs cannot exhaust the arena.
struct Caches {
    dcss: RefCell<Vec<u32>>,
    dcas: RefCell<Vec<u32>>,
}

impl Drop for Caches {
    fn drop(&mut self) {
        let mut f = dcss_arena().free.lock().unwrap();
        f.append(&mut self.dcss.borrow_mut());
        drop(f);
        let mut f = dcas_arena().free.lock().unwrap();
        f.append(&mut self.dcas.borrow_mut());
    }
}

thread_local! {
    static CACHES: Caches = const {
        Caches {
            dcss: RefCell::new(Vec::new()),
            dcas: RefCell::new(Vec::new()),
        }
    };
}

// ---------------------------------------------------------------------
// DCSS
// ---------------------------------------------------------------------

/// Result of a DCSS attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DcssResult {
    /// Condition held and the target was swapped.
    Success,
    /// The condition word no longer held the expected value; target
    /// untouched.
    CondFailed,
    /// The target word did not hold the expected value; carries the value
    /// observed (never a descriptor reference).
    TargetFailed(u64),
}

/// Double-compare-single-swap: if `*cond == cond_exp` and `*target == exp`,
/// atomically set `*target = new`. Software path (descriptor + CAS
/// sequence, with helping).
pub fn dcss<H: Heap>(
    h: &H,
    cond_loc: u64,
    cond_exp: u64,
    target_loc: u64,
    exp: u64,
    new: u64,
) -> DcssResult {
    debug_assert!(exp <= MAX_VALUE && new <= MAX_VALUE && cond_exp & TAG_MASK == 0);
    rdcss(
        h,
        &Rdcss {
            kind: COND_HEAP,
            cond_loc,
            cond_exp,
            target_loc,
            exp,
            new,
        },
    )
}

/// Run the RDCSS `f` as its owner: fill a descriptor, install it in the
/// target and complete it with `f` itself. A DCAS reference in the target
/// is helped under a heap condition; under a DCAS-status condition
/// ([`dcas_execute`]'s install) it is handed back to the caller.
fn rdcss<H: Heap>(h: &H, f: &Rdcss) -> DcssResult {
    CACHES.with(|c| {
        let arena = dcss_arena();
        let idx = arena.acquire(&c.dcss);
        let d = &arena.slots[idx as usize];
        let s = dcss_begin(d, f);
        let r = make_ref(TAG_DCSS, idx, s);
        let result = loop {
            match h
                .word(f.target_loc)
                .compare_exchange(f.exp, r, Ordering::SeqCst)
            {
                Ok(_) => {
                    dcss_complete(h, d, s, r, f);
                    let out = d.outcome.load(Ordering::Acquire);
                    debug_assert_eq!(out >> 2, s);
                    break if out & 3 == SUCCESS {
                        DcssResult::Success
                    } else {
                        DcssResult::CondFailed
                    };
                }
                Err(cur) if cur & TAG_DCSS != 0 => help_dcss(h, cur),
                Err(cur) if cur & TAG_DCAS != 0 && f.kind == COND_HEAP => help_dcas(h, cur),
                Err(cur) => break DcssResult::TargetFailed(cur),
            }
        };
        dcss_end(d, s);
        arena.release(&c.dcss, idx);
        result
    })
}

fn dcss_begin(d: &DcssDesc, f: &Rdcss) -> u64 {
    // Descriptor setup: real shared stores in the modeled algorithm.
    charge_n(CostKind::SharedStore, 7);
    let s = d.seq.fetch_add(1, Ordering::AcqRel) + 1;
    debug_assert_eq!(s % 2, 1, "descriptor was already active");
    assert!(s < SEQ_MASK, "descriptor sequence space exhausted");
    d.cond_kind.store(f.kind, Ordering::Release);
    d.cond_loc.store(f.cond_loc, Ordering::Release);
    d.cond_exp.store(f.cond_exp, Ordering::Release);
    d.target_loc.store(f.target_loc, Ordering::Release);
    d.exp.store(f.exp, Ordering::Release);
    d.new.store(f.new, Ordering::Release);
    d.outcome.store((s << 2) | UNDECIDED, Ordering::Release);
    s
}

fn dcss_end(d: &DcssDesc, s: u64) {
    let prev = d.seq.fetch_add(1, Ordering::AcqRel);
    debug_assert_eq!(prev, s);
}

/// Decide the outcome (first completer wins) and swing the target out of
/// descriptor state. Safe to run concurrently by owner and helpers: `f`
/// is the owner's own arguments or the fields a helper loaded from `d`.
fn dcss_complete<H: Heap>(h: &H, d: &DcssDesc, s: u64, r: u64, f: &Rdcss) {
    if d.seq.load(Ordering::Acquire) != s {
        return; // stale helper: the owner already finished
    }
    let cond_now = match f.kind {
        COND_HEAP => h.word(f.cond_loc).load(Ordering::Acquire),
        _ => {
            charge(CostKind::SharedLoad);
            dcas_arena().slots[f.cond_loc as usize]
                .status
                .load(Ordering::Acquire)
        }
    };
    let proposed = if cond_now == f.cond_exp {
        SUCCESS
    } else {
        FAILED
    };
    charge(CostKind::Cas);
    let _ = d.outcome.compare_exchange(
        (s << 2) | UNDECIDED,
        (s << 2) | proposed,
        Ordering::AcqRel,
        Ordering::Relaxed,
    );
    let out = d.outcome.load(Ordering::Acquire);
    if out >> 2 != s {
        return;
    }
    let desired = if out & 3 == SUCCESS { f.new } else { f.exp };
    let _ = h
        .word(f.target_loc)
        .compare_exchange(r, desired, Ordering::SeqCst);
}

/// Help the DCSS whose reference `r` was observed in a word.
///
/// Sequence numbers never approach 2^48 (asserted at begin), so the 48-bit
/// sequence embedded in `r` *is* the full sequence.
fn help_dcss<H: Heap>(h: &H, r: u64) {
    debug_assert!(r & TAG_DCSS != 0);
    let idx = ref_idx(r);
    let s = ref_seq(r);
    let d = &dcss_arena().slots[idx as usize];
    charge(CostKind::SharedLoad);
    if d.seq.load(Ordering::Acquire) != s {
        return; // stale: owner finished; its final CAS removed the ref
    }
    // The fields may already belong to the descriptor's next RDCSS;
    // `dcss_complete` checks the sequence again before using them.
    charge_n(CostKind::SharedLoad, 5);
    let f = Rdcss {
        kind: d.cond_kind.load(Ordering::Acquire),
        cond_loc: d.cond_loc.load(Ordering::Acquire),
        cond_exp: d.cond_exp.load(Ordering::Acquire),
        target_loc: d.target_loc.load(Ordering::Acquire),
        exp: d.exp.load(Ordering::Acquire),
        new: d.new.load(Ordering::Acquire),
    };
    dcss_complete(h, d, s, r, &f);
}

// ---------------------------------------------------------------------
// DCAS
// ---------------------------------------------------------------------

/// Double-word compare-and-swap: if `*l1 == o1 && *l2 == o2`, atomically
/// set both to `n1`/`n2`. Software path (MCAS-of-two with helping).
/// `l1` and `l2` must be distinct locations.
pub fn dcas<H: Heap>(h: &H, l1: u64, o1: u64, n1: u64, l2: u64, o2: u64, n2: u64) -> bool {
    assert_ne!(l1, l2, "DCAS locations must differ");
    debug_assert!(o1 <= MAX_VALUE && n1 <= MAX_VALUE && o2 <= MAX_VALUE && n2 <= MAX_VALUE);
    // Address order (Harris MCAS requirement for lock-freedom).
    let ((l1, o1, n1), (l2, o2, n2)) = if l1 < l2 {
        ((l1, o1, n1), (l2, o2, n2))
    } else {
        ((l2, o2, n2), (l1, o1, n1))
    };
    CACHES.with(|c| {
        let arena = dcas_arena();
        let idx = arena.acquire(&c.dcas);
        let d = &arena.slots[idx as usize];
        charge_n(CostKind::SharedStore, 7);
        let s = d.seq.fetch_add(1, Ordering::AcqRel) + 1;
        debug_assert_eq!(s % 2, 1);
        d.loc[0].store(l1, Ordering::Release);
        d.exp[0].store(o1, Ordering::Release);
        d.new[0].store(n1, Ordering::Release);
        d.loc[1].store(l2, Ordering::Release);
        d.exp[1].store(o2, Ordering::Release);
        d.new[1].store(n2, Ordering::Release);
        d.status.store((s << 2) | UNDECIDED, Ordering::Release);
        let ok = dcas_execute(h, d, idx, s);
        let prev = d.seq.fetch_add(1, Ordering::AcqRel);
        debug_assert_eq!(prev, s);
        arena.release(&c.dcas, idx);
        ok
    })
}

/// Phase 1 (install via status-conditioned DCSS), status decision, phase 2
/// (unravel). Idempotent: runs identically for the owner and helpers.
fn dcas_execute<H: Heap>(h: &H, d: &DcasDesc, idx: u32, s: u64) -> bool {
    let r = make_ref(TAG_DCAS, idx, s);
    let mut desired = SUCCESS;
    'install: for i in 0..2 {
        loop {
            charge(CostKind::SharedLoad);
            let st = d.status.load(Ordering::Acquire);
            if st >> 2 != s {
                return false; // stale helper; result is meaningless
            }
            if st & 3 != UNDECIDED {
                break 'install;
            }
            // Install through an RDCSS conditioned on the status word.
            let f = Rdcss {
                kind: COND_DCAS_STATUS,
                cond_loc: idx as u64,
                cond_exp: (s << 2) | UNDECIDED,
                target_loc: d.loc[i].load(Ordering::Relaxed),
                exp: d.exp[i].load(Ordering::Relaxed),
                new: r,
            };
            match rdcss(h, &f) {
                DcssResult::Success => break,
                DcssResult::CondFailed => break 'install, // status got decided
                DcssResult::TargetFailed(cur) => {
                    if cur == r {
                        break; // a helper installed for us
                    }
                    if cur & TAG_DCAS != 0 {
                        help_dcas(h, cur);
                        continue;
                    }
                    if cur & TAG_DCSS != 0 {
                        help_dcss(h, cur);
                        continue;
                    }
                    desired = FAILED;
                    break 'install;
                }
            }
        }
    }
    charge(CostKind::Cas);
    let _ = d.status.compare_exchange(
        (s << 2) | UNDECIDED,
        (s << 2) | desired,
        Ordering::AcqRel,
        Ordering::Relaxed,
    );
    let st = d.status.load(Ordering::Acquire);
    if st >> 2 != s {
        return false; // stale helper
    }
    let success = st & 3 == SUCCESS;
    for i in 0..2 {
        let v = if success {
            d.new[i].load(Ordering::Relaxed)
        } else {
            d.exp[i].load(Ordering::Relaxed)
        };
        let _ = h.word(d.loc[i].load(Ordering::Relaxed)).compare_exchange(
            r,
            v,
            Ordering::SeqCst,
        );
    }
    success
}

/// Help the DCAS whose reference `r` was observed in a word.
fn help_dcas<H: Heap>(h: &H, r: u64) {
    debug_assert!(r & TAG_DCAS != 0);
    let idx = ref_idx(r);
    let s = ref_seq(r);
    let d = &dcas_arena().slots[idx as usize];
    charge_n(CostKind::SharedLoad, 4);
    if d.seq.load(Ordering::Acquire) & SEQ_MASK != s {
        return; // stale
    }
    let full_seq = d.seq.load(Ordering::Acquire);
    let _ = dcas_execute(h, d, idx, full_seq);
}

// ---------------------------------------------------------------------
// Reads
// ---------------------------------------------------------------------

/// Read a kcas-managed word, helping (and thereby clearing) any descriptor
/// encountered; always returns an application value.
pub fn read<H: Heap>(h: &H, loc: u64) -> u64 {
    loop {
        let v = h.word(loc).load(Ordering::Acquire);
        if v & TAG_DCSS != 0 {
            help_dcss(h, v);
            continue;
        }
        if v & TAG_DCAS != 0 {
            help_dcas(h, v);
            continue;
        }
        return v;
    }
}

/// Transactional read of a kcas-managed word. Observing a descriptor means
/// a concurrent operation needs helping — the prefix aborts instead (§2.4).
pub fn read_tx<'e>(tx: &mut Txn<'e>, word: &'e TxWord) -> TxResult<u64> {
    let v = tx.read(word)?;
    if is_ref(v) {
        return Err(tx.abort(ABORT_HELP));
    }
    Ok(v)
}

// ---------------------------------------------------------------------
// PTO fronts
// ---------------------------------------------------------------------

/// PTO-accelerated DCSS: one transaction performing two reads, a branch,
/// and one write, falling back to [`dcss`]. The paper tunes 4 attempts for
/// the Mound (§4.2).
#[allow(clippy::too_many_arguments)]
pub fn dcss_pto<H: Heap>(
    h: &H,
    policy: &PtoPolicy,
    stats: &PtoStats,
    cond_loc: u64,
    cond_exp: u64,
    target_loc: u64,
    exp: u64,
    new: u64,
) -> DcssResult {
    pto(
        policy,
        stats,
        |tx| {
            let c = read_tx(tx, h.word(cond_loc))?;
            if c != cond_exp {
                return Ok(DcssResult::CondFailed);
            }
            let t = read_tx(tx, h.word(target_loc))?;
            if t != exp {
                return Ok(DcssResult::TargetFailed(t));
            }
            tx.write(h.word(target_loc), new)?;
            tx.fence();
            Ok(DcssResult::Success)
        },
        || dcss(h, cond_loc, cond_exp, target_loc, exp, new),
    )
}

/// PTO-accelerated DCAS, falling back to [`dcas`].
#[allow(clippy::too_many_arguments)]
pub fn dcas_pto<H: Heap>(
    h: &H,
    policy: &PtoPolicy,
    stats: &PtoStats,
    l1: u64,
    o1: u64,
    n1: u64,
    l2: u64,
    o2: u64,
    n2: u64,
) -> bool {
    pto(
        policy,
        stats,
        |tx| {
            let v1 = read_tx(tx, h.word(l1))?;
            if v1 != o1 {
                return Ok(false);
            }
            let v2 = read_tx(tx, h.word(l2))?;
            if v2 != o2 {
                return Ok(false);
            }
            tx.write(h.word(l1), n1)?;
            tx.fence();
            tx.write(h.word(l2), n2)?;
            tx.fence();
            Ok(true)
        },
        || dcas(h, l1, o1, n1, l2, o2, n2),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TestHeap {
        words: Vec<TxWord>,
    }

    impl TestHeap {
        fn new(n: usize) -> Self {
            TestHeap {
                words: (0..n as u64).map(|_| TxWord::new(0)).collect(),
            }
        }
    }

    impl Heap for TestHeap {
        fn word(&self, loc: u64) -> &TxWord {
            &self.words[loc as usize]
        }
    }

    #[test]
    fn dcss_succeeds_when_both_match() {
        let h = TestHeap::new(2);
        h.words[0].store(10, Ordering::Release);
        h.words[1].store(20, Ordering::Release);
        assert_eq!(dcss(&h, 0, 10, 1, 20, 21), DcssResult::Success);
        assert_eq!(read(&h, 1), 21);
        assert_eq!(read(&h, 0), 10);
    }

    #[test]
    fn dcss_cond_failure_leaves_target() {
        let h = TestHeap::new(2);
        h.words[0].store(10, Ordering::Release);
        h.words[1].store(20, Ordering::Release);
        assert_eq!(dcss(&h, 0, 99, 1, 20, 21), DcssResult::CondFailed);
        assert_eq!(read(&h, 1), 20);
    }

    #[test]
    fn dcss_target_mismatch_reports_current() {
        let h = TestHeap::new(2);
        h.words[0].store(10, Ordering::Release);
        h.words[1].store(20, Ordering::Release);
        assert_eq!(dcss(&h, 0, 10, 1, 7, 21), DcssResult::TargetFailed(20));
        assert_eq!(read(&h, 1), 20);
    }

    #[test]
    fn dcas_swaps_both_or_neither() {
        let h = TestHeap::new(2);
        h.words[0].store(1, Ordering::Release);
        h.words[1].store(2, Ordering::Release);
        assert!(dcas(&h, 0, 1, 11, 1, 2, 12));
        assert_eq!(read(&h, 0), 11);
        assert_eq!(read(&h, 1), 12);
        // First word mismatch.
        assert!(!dcas(&h, 0, 1, 99, 1, 12, 99));
        assert_eq!((read(&h, 0), read(&h, 1)), (11, 12));
        // Second word mismatch.
        assert!(!dcas(&h, 0, 11, 99, 1, 2, 99));
        assert_eq!((read(&h, 0), read(&h, 1)), (11, 12));
    }

    #[test]
    fn dcas_order_of_arguments_is_irrelevant() {
        let h = TestHeap::new(2);
        h.words[0].store(1, Ordering::Release);
        h.words[1].store(2, Ordering::Release);
        // Pass locations in descending order.
        assert!(dcas(&h, 1, 2, 22, 0, 1, 11));
        assert_eq!((read(&h, 0), read(&h, 1)), (11, 22));
    }

    #[test]
    #[should_panic(expected = "DCAS locations must differ")]
    fn dcas_rejects_identical_locations() {
        let h = TestHeap::new(1);
        dcas(&h, 0, 0, 1, 0, 0, 2);
    }

    #[test]
    fn concurrent_dcas_counter_pair_stays_equal() {
        // Threads increment (a, b) together via DCAS; the final values must
        // equal the number of successful operations, and each other.
        let h = TestHeap::new(2);
        let succ = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = &h;
                let succ = &succ;
                s.spawn(move || {
                    for _ in 0..1_500 {
                        loop {
                            let a = read(h, 0);
                            let b = read(h, 1);
                            if a != b {
                                continue; // raced between the two reads
                            }
                            if dcas(h, 0, a, a + 1, 1, b, b + 1) {
                                succ.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                        }
                    }
                });
            }
        });
        let (a, b) = (read(&h, 0), read(&h, 1));
        assert_eq!(a, b);
        assert_eq!(a, succ.load(Ordering::Relaxed));
        assert_eq!(a, 6_000);
    }

    #[test]
    fn concurrent_dcss_respects_condition_flips() {
        // One thread toggles the condition word; others DCSS against
        // cond == 0. Every success must have happened while cond was 0 —
        // we can't observe that directly, but the target's final value must
        // equal the number of successes.
        let h = TestHeap::new(2);
        let succ = AtomicU64::new(0);
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let h2 = &h;
            let stopr = &stop;
            s.spawn(move || {
                let mut i = 0u64;
                while !stopr.load(Ordering::Relaxed) {
                    h2.word(0).store(i % 2, Ordering::Release);
                    i += 1;
                }
            });
            for _ in 0..3 {
                let h = &h;
                let succ = &succ;
                s.spawn(move || {
                    for _ in 0..2_000 {
                        let t = read(h, 1);
                        if dcss(h, 0, 0, 1, t, t + 1) == DcssResult::Success {
                            succ.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(read(&h, 1), succ.load(Ordering::Relaxed));
    }

    #[test]
    fn dcas_pto_matches_software_semantics() {
        let h = TestHeap::new(2);
        let policy = PtoPolicy::with_attempts(4);
        let stats = PtoStats::new();
        h.words[0].store(1, Ordering::Release);
        h.words[1].store(2, Ordering::Release);
        assert!(dcas_pto(&h, &policy, &stats, 0, 1, 11, 1, 2, 12));
        assert!(!dcas_pto(&h, &policy, &stats, 0, 1, 99, 1, 12, 99));
        assert_eq!((read(&h, 0), read(&h, 1)), (11, 12));
        assert!(stats.fast.get() >= 1, "uncontended PTO should go fast");
    }

    #[test]
    fn dcss_pto_matches_software_semantics() {
        let h = TestHeap::new(2);
        let policy = PtoPolicy::with_attempts(4);
        let stats = PtoStats::new();
        h.words[0].store(10, Ordering::Release);
        h.words[1].store(20, Ordering::Release);
        assert_eq!(
            dcss_pto(&h, &policy, &stats, 0, 10, 1, 20, 21),
            DcssResult::Success
        );
        assert_eq!(
            dcss_pto(&h, &policy, &stats, 0, 99, 1, 21, 22),
            DcssResult::CondFailed
        );
        assert_eq!(
            dcss_pto(&h, &policy, &stats, 0, 10, 1, 7, 22),
            DcssResult::TargetFailed(21)
        );
        assert_eq!(read(&h, 1), 21);
    }

    #[test]
    fn concurrent_mixed_pto_and_software_dcas_agree() {
        // Half the threads use the software path, half the PTO path; the
        // pair invariant must still hold.
        let h = TestHeap::new(2);
        let succ = AtomicU64::new(0);
        let policy = PtoPolicy::with_attempts(4);
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = &h;
                let succ = &succ;
                let policy = &policy;
                s.spawn(move || {
                    let stats = PtoStats::new();
                    for _ in 0..1_000 {
                        loop {
                            let a = read(h, 0);
                            let b = read(h, 1);
                            if a != b {
                                continue;
                            }
                            let ok = if t % 2 == 0 {
                                dcas(h, 0, a, a + 1, 1, b, b + 1)
                            } else {
                                dcas_pto(h, policy, &stats, 0, a, a + 1, 1, b, b + 1)
                            };
                            if ok {
                                succ.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                        }
                    }
                });
            }
        });
        let (a, b) = (read(&h, 0), read(&h, 1));
        assert_eq!(a, b);
        assert_eq!(a, succ.load(Ordering::Relaxed));
        assert_eq!(a, 4_000);
    }

    #[test]
    fn read_completes_an_installed_rdcss_from_its_descriptor() {
        // The owner stalls right after installing its descriptor in the
        // target; `read` on the target helps it with the fields it loads
        // from the descriptor alone. The target ends at `new` when the
        // condition holds and at `exp` when it does not.
        for (cond, want, outcome) in [(10, 21, SUCCESS), (11, 20, FAILED)] {
            let h = TestHeap::new(2);
            h.words[0].store(cond, Ordering::Release);
            h.words[1].store(20, Ordering::Release);
            let f = Rdcss {
                kind: COND_HEAP,
                cond_loc: 0,
                cond_exp: 10,
                target_loc: 1,
                exp: 20,
                new: 21,
            };
            CACHES.with(|c| {
                let arena = dcss_arena();
                let idx = arena.acquire(&c.dcss);
                let d = &arena.slots[idx as usize];
                let s = dcss_begin(d, &f);
                assert!(h.words[1].cas(20, make_ref(TAG_DCSS, idx, s)));
                assert_eq!(read(&h, 1), want, "condition word {cond}");
                assert_eq!(d.outcome.load(Ordering::Acquire), (s << 2) | outcome);
                dcss_end(d, s);
                arena.release(&c.dcss, idx);
            });
        }
    }

    #[test]
    fn ref_encoding_roundtrips() {
        let r = make_ref(TAG_DCSS, 137, 0x1234_5678_9ABC);
        assert!(is_ref(r));
        assert_eq!(ref_idx(r), 137);
        assert_eq!(ref_seq(r), 0x1234_5678_9ABC);
        let r2 = make_ref(TAG_DCAS, 4095, 7);
        assert_eq!(ref_idx(r2), 4095);
        assert_eq!(ref_seq(r2), 7);
        assert!(r2 & TAG_DCAS != 0 && r2 & TAG_DCSS == 0);
    }
}
