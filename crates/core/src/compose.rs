//! Atomic cross-structure transactions with an ordered-lock fallback.
//!
//! The paper proves PTO composes *recursively* (§2.5: `T_B(T_A(G))`), and
//! PR 6 exercised that within one BST. This module composes *across*
//! structures: one prefix transaction spans operations on two (or more)
//! different objects — pop-from-queue + insert-into-skiplist, a
//! conditional transfer between two hash tables — because every
//! [`TxWord`] in the process hashes into the same global orec table, so a
//! single TL2 commit already validates and locks a read/write set that
//! straddles structures.
//!
//! The hard part is the *fallback*. A single structure's fallback is its
//! original lock-free code, but running two structures' fallbacks in
//! sequence is not atomic. Following NBTC (Cai/Wen/Scott), the composed
//! fallback is a deterministic two-phase lock: each participating
//! structure embeds an [`Anchor`] (one `TxWord` whose bit 63 means "held
//! by a composed fallback"; the low bits belong to the structure); the
//! fallback acquires every participant's anchor in **address order**
//! (sorted, deduped — so two composed ops naming the same structures in
//! opposite argument order acquire in the same global order and cannot
//! deadlock), runs the halves via the structures' ordinary operations,
//! then releases in reverse.
//!
//! Prefix/fallback atomicity hangs on one rule: **each structure's
//! compose half makes its anchor check its first read**
//! ([`Anchor::tx_check`]). Then, for every structure a prefix touches:
//!
//! * a prefix that reads the anchor *after* a fallback acquired it sees
//!   the held bit and aborts (transient — [`AbortCause::Conflict`],
//!   retried);
//! * a prefix that read the anchor *before* the acquisition cannot commit
//!   *after* it: the fallback's CAS bumped the anchor's orec version, so
//!   TL2 read-set validation fails at commit. A prefix therefore never
//!   observes a fallback's intermediate state;
//! * two fallbacks over intersecting anchor sets mutually exclude on the
//!   shared anchor, and the global address order makes the acquisition
//!   graph acyclic.
//!
//! A participant the prefix never touches (a transfer whose source lacks
//! the key) needs no check: none of its state reaches the result. So the
//! executor adds no reads, and the hash table keeps its generation in its
//! anchor word, taking the check from a read it does anyway. Acquisition
//! is a peek, then one CAS setting the held bit; release is one store of
//! the holder's last value without it — exact, because only the holder
//! rewrites a held word ([`Anchor::cas_value`]).
//!
//! The cost, stated plainly: the composed fallback **blocks** (anchors
//! are locks), which is NBTC's trade too — the lock-free guarantee holds
//! per-structure, while cross-structure atomicity is obstruction-free on
//! the prefix path and blocking on the fallback path. Plain non-composed
//! operations on a participating structure do *not* check anchors; they
//! may observe a fallback mid-flight. The contract is that workloads
//! wanting cross-structure atomicity route *all* operations on the
//! participating structures through [`Composed::run`] — single-structure
//! ops included (their "prefix" is the structure's own transactional
//! half; their fallback acquires just their own anchor).
//!
//! Adaptive integration: [`Composed::run`] is `#[track_caller]`, so under
//! [`ComposeMode::Adaptive`] each composed call site gets its own
//! `SiteState` in the PR 9 adaptive policy — retry budgets, the
//! middle path, and regime flips all work unchanged, because the middle
//! path re-runs the prefix (its halves' anchor checks included) under a
//! software-held orec and still commits through TL2 validation.

use crate::policy::{self, AdaptivePolicy, PtoPolicy, PtoStats};
use pto_htm::{Abort, AbortCause, TxResult, TxWord, Txn};
use pto_sim::obs::{self, Event, Site};
use std::cell::RefCell;
use std::sync::atomic::Ordering;

/// Bit 63 of an anchor word: set while a composed fallback holds it.
const HELD: u64 = 1 << 63;

thread_local! {
    /// Anchors this thread holds: uncharged bookkeeping, standing in for
    /// a guard passed down to the holder's own operations.
    static HELD_HERE: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// A structure's participation word for composed operations: bit 63 set
/// = held by a composed fallback, the low bits belong to the structure
/// ([`Anchor::value`]). Embed one per structure and expose it via an
/// `anchor()` accessor.
#[derive(Debug)]
pub struct Anchor {
    word: TxWord,
}

impl Anchor {
    pub const fn new() -> Anchor {
        Anchor {
            word: TxWord::new(0),
        }
    }

    /// The owner's bits of anchor word `w` (the held bit cleared).
    pub const fn value(w: u64) -> u64 {
        w & !HELD
    }

    /// The anchor word; owners rewrite it only via [`Anchor::cas_value`].
    pub fn word(&self) -> &TxWord {
        &self.word
    }

    /// Transactionally assert the anchor is free and return the owner's
    /// bits; every compose half's **first read**. A held anchor aborts with
    /// [`AbortCause::Conflict`] (transient — the fallback holding it will
    /// finish), and a free read enrolls the anchor in the read set so a
    /// later acquisition dooms this transaction at commit.
    pub fn tx_check<'e>(&'e self, tx: &mut Txn<'e>) -> TxResult<u64> {
        let w = tx.read(&self.word)?;
        if w & HELD != 0 {
            return Err(Abort {
                cause: AbortCause::Conflict,
            });
        }
        Ok(w)
    }

    /// Is a composed fallback currently holding this structure?
    pub fn is_held(&self) -> bool {
        self.word.peek() & HELD != 0
    }

    /// Non-transactional CAS of the owner's bits from `old` to `new`.
    /// The holder's own fallback keeps its held bit; on a word another
    /// thread holds, the CAS fails and leaves the word unchanged.
    pub fn cas_value(&self, old: u64, new: u64) -> bool {
        let mine = HELD_HERE.with(|h| h.borrow().contains(&self.addr()));
        let held = if mine { HELD } else { 0 };
        self.word.cas(held | old, held | new)
    }

    /// Peek (the bare cell, not the orec), then one CAS setting the bit.
    fn try_lock(&self) -> bool {
        let w = self.word.peek_racy();
        w & HELD == 0 && self.word.cas(w, w | HELD)
    }

    fn unlock(&self) {
        // Only the holder writes a held word, so the cell holds its last
        // value. The store bumps the anchor's orec version (strong
        // atomicity), so live prefixes that read "held" revalidate.
        let w = self.word.peek_racy();
        self.word.store(w & !HELD, Ordering::Release);
        let addr = self.addr();
        HELD_HERE.with(|h| h.borrow_mut().retain(|&a| a != addr));
    }

    fn addr(&self) -> usize {
        &self.word as *const TxWord as usize
    }
}

impl Default for Anchor {
    fn default() -> Self {
        Anchor::new()
    }
}

/// Holds a set of anchors; releases them in reverse acquisition order on
/// drop (including on unwind, so a panicking fallback does not wedge the
/// structures for every other composed op).
pub struct AnchorGuard<'a> {
    held: Vec<&'a Anchor>,
}

impl Drop for AnchorGuard<'_> {
    fn drop(&mut self) {
        for a in self.held.iter().rev() {
            a.unlock();
        }
    }
}

/// Acquire every anchor in global address order (sorted, duplicates
/// collapsed), waiting on held ones with the gate-aware tick
/// ([`pto_sim::spin_wait_tick`]): the wait is charged for its virtual
/// duration, not per physical poll. This is the two-phase fallback's
/// phase one.
pub fn acquire_ordered<'a>(anchors: &[&'a Anchor]) -> AnchorGuard<'a> {
    let mut sorted: Vec<&'a Anchor> = anchors.to_vec();
    sorted.sort_by_key(|a| a.addr());
    sorted.dedup_by_key(|a| a.addr());
    let mut held = Vec::with_capacity(sorted.len());
    for a in sorted {
        // Test-then-CAS: the CAS probe goes through the word layer, which
        // locks the anchor's *orec* on every attempt — a waiter that CASed
        // in a tight loop would hold that orec at a high duty cycle and
        // starve the very release (a `store`, which must lock the same
        // orec) it is waiting for. `try_lock` probes the bare cell and
        // CASes only on an observed-free word; while held, wait with the
        // gate-aware tick so the wait costs its virtual duration rather
        // than one charge per physical poll.
        while !a.try_lock() {
            pto_sim::spin_wait_tick();
            std::hint::spin_loop();
        }
        HELD_HERE.with(|h| h.borrow_mut().push(a.addr()));
        held.push(a);
    }
    AnchorGuard { held }
}

/// How a [`Composed`] runs its prefix attempts.
#[derive(Clone, Copy, Debug)]
pub enum ComposeMode {
    /// Fixed retry budget (the paper's retry-N-then-fallback).
    Static(PtoPolicy),
    /// PR 9 self-tuning policy; the composed call site gets its own
    /// `SiteState` (budget grants, middle path, regime flips).
    Adaptive(AdaptivePolicy),
}

/// A composed multi-structure operation site: the participants' anchors
/// plus an execution mode and its own [`PtoStats`].
///
/// Build one per composed call site (or use the [`compose!`] macro for
/// one-shot use) and call [`Composed::run`] with a prefix closure that
/// performs *both* halves transactionally and a fallback closure that
/// performs both halves via the structures' ordinary operations. The
/// executor runs the prefix as given and precedes the fallback with
/// [`acquire_ordered`] over every participant.
///
/// The prefix contract is the usual PTO one plus two composition rules:
/// it touches a participant only through its compose halves (each makes
/// [`Anchor::tx_check`] its first read), and a half that observes
/// a state it cannot handle transactionally (helping required, stale
/// snapshot, unsupported variant) must **abort** (e.g.
/// [`crate::ABORT_HELP`]) rather than return having applied nothing —
/// otherwise the transaction could commit with only the other half
/// applied.
pub struct Composed<'a> {
    anchors: Vec<&'a Anchor>,
    mode: ComposeMode,
    /// Outcome counters for this composed site (fast/middle/fallback and
    /// abort causes), independent of the participants' own stats.
    pub stats: PtoStats,
}

impl<'a> Composed<'a> {
    pub fn new(anchors: Vec<&'a Anchor>, mode: ComposeMode) -> Composed<'a> {
        Composed {
            anchors,
            mode,
            stats: PtoStats::new(),
        }
    }

    /// Run one composed operation. Emits `policy.compose_entries` on
    /// entry and `policy.compose_fallbacks` when the ordered-lock path
    /// runs. `#[track_caller]`: profile attribution and adaptive site
    /// state key on the *caller's* location, one site per composed
    /// call site.
    #[track_caller]
    pub fn run<'e, T>(
        &self,
        prefix: impl FnMut(&mut Txn<'e>) -> TxResult<T>,
        fallback: impl FnOnce() -> T,
    ) -> T {
        let site = Site::caller();
        obs::emit(Event::ComposeEnter);
        let wrapped_fallback = || {
            obs::emit(Event::ComposeFallback);
            let _held = acquire_ordered(&self.anchors);
            fallback()
        };
        match self.mode {
            ComposeMode::Static(ref p) => {
                policy::pto_at(site, p, &self.stats, prefix, wrapped_fallback)
            }
            ComposeMode::Adaptive(ref ap) => {
                policy::pto_adaptive_at(site, 0, ap, &self.stats, prefix, wrapped_fallback)
            }
        }
    }
}

/// A [`Composed`] over `anchors` with a static retry budget.
pub fn compose<'a>(policy: PtoPolicy, anchors: Vec<&'a Anchor>) -> Composed<'a> {
    Composed::new(anchors, ComposeMode::Static(policy))
}

/// A [`Composed`] over `anchors` under the self-tuning adaptive policy.
pub fn compose_adaptive<'a>(ap: AdaptivePolicy, anchors: Vec<&'a Anchor>) -> Composed<'a> {
    Composed::new(anchors, ComposeMode::Adaptive(ap))
}

/// One-shot composed operation: builds a throwaway [`Composed`] over the
/// given structures (anything exposing `anchor() -> &Anchor`) and runs it.
///
/// ```ignore
/// let moved = compose!(
///     on: [&src, &dst],
///     policy: PtoPolicy::with_attempts(4),
///     prefix: |tx| {
///         if src.tx_compose_update(tx, k, false)? {
///             src_to_dst(tx)?;
///             Ok(true)
///         } else {
///             Ok(false)
///         }
///     },
///     fallback: || src.remove(&(k as u64)) && { dst.insert(k as u64); true },
/// );
/// ```
///
/// Per-site stats are discarded; keep a named [`Composed`] when you want
/// them.
#[macro_export]
macro_rules! compose {
    (on: [$($s:expr),+ $(,)?], policy: $p:expr, prefix: $prefix:expr, fallback: $fallback:expr $(,)?) => {{
        $crate::compose::Composed::new(
            vec![$($s.anchor()),+],
            $crate::compose::ComposeMode::Static($p),
        )
        .run($prefix, $fallback)
    }};
    (on: [$($s:expr),+ $(,)?], adaptive: $p:expr, prefix: $prefix:expr, fallback: $fallback:expr $(,)?) => {{
        $crate::compose::Composed::new(
            vec![$($s.anchor()),+],
            $crate::compose::ComposeMode::Adaptive($p),
        )
        .run($prefix, $fallback)
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchor_starts_free() {
        let a = Anchor::new();
        assert!(!a.is_held());
    }

    #[test]
    fn ordered_acquire_dedups_and_releases() {
        let a = Anchor::new();
        let b = Anchor::new();
        {
            let _g = acquire_ordered(&[&b, &a, &b]);
            assert!(a.is_held());
            assert!(b.is_held());
        }
        assert!(!a.is_held());
        assert!(!b.is_held());
    }

    #[test]
    fn composed_prefix_sees_held_anchor_as_conflict() {
        let a = Anchor::new();
        let b = Anchor::new();
        // The executor adds no anchor reads: the prefix's own check of b
        // is what aborts while a fallback holds b.
        let held = acquire_ordered(&[&b]);
        let got = pto_htm::transaction(|tx| {
            a.tx_check(tx)?;
            b.tx_check(tx)
        });
        assert_eq!(got, Err(AbortCause::Conflict));
        drop(held);
        let c = compose(PtoPolicy::with_attempts(2), vec![&a, &b]);
        let via = c.run(
            |tx| {
                a.tx_check(tx)?;
                b.tx_check(tx)?;
                Ok(1u64)
            },
            || 2u64,
        );
        assert_eq!(via, 1);
        assert_eq!(c.stats.fast.get(), 1);
    }

    #[test]
    fn only_the_holder_rewrites_a_held_word() {
        let a = Anchor::new();
        let held = acquire_ordered(&[&a]);
        // Another thread's CAS expects no held bit: it fails and leaves
        // the word as it is.
        std::thread::scope(|s| {
            s.spawn(|| assert!(!a.cas_value(0, 1)));
        });
        assert!(a.is_held());
        assert_eq!(Anchor::value(a.word().peek()), 0);
        // The holder's CAS keeps the bit; the release keeps the value.
        assert!(a.cas_value(0, 1));
        assert!(a.is_held());
        drop(held);
        assert_eq!(a.word().peek(), 1);
        assert_eq!(pto_htm::transaction(|tx| a.tx_check(tx)), Ok(1));
        assert!(a.cas_value(1, 2), "a free word takes any thread's CAS");
    }

    #[test]
    fn fallback_runs_under_all_anchors() {
        let a = Anchor::new();
        let b = Anchor::new();
        let c = compose(PtoPolicy::with_attempts(1), vec![&a, &b]);
        let got = c.run(
            |tx| Err(tx.abort(crate::ABORT_HELP)),
            || {
                assert!(a.is_held());
                assert!(b.is_held());
                7u64
            },
        );
        assert_eq!(got, 7);
        assert_eq!(c.stats.fallback.get(), 1);
        assert!(!a.is_held());
        assert!(!b.is_held());
    }
}
