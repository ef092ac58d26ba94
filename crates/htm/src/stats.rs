//! HTM event statistics (begins, commits, aborts by cause).
//!
//! Two layers:
//!
//! * [`HtmScope`] is a **cell-scoped** counter block (context slot
//!   [`ctx::SLOT_HTM_STATS`]): while installed, every attempt on the
//!   installing thread — and on `Sim` lanes / `par` workers it spawns —
//!   records into the scope, so concurrent sweep cells measure
//!   independently. It is the only such counter: an attempt made with no
//!   scope installed is not counted anywhere;
//! * [`CauseCounters`] is an embeddable per-*variant* cause block — each
//!   PTO'd structure (and the TLE baseline) owns one, so several variants
//!   running in one process report independent abort-cause mixes. This is
//!   the diagnostic loop the paper used to tune its retry thresholds
//!   (§3.1, §4.2).
//!
//! Commits and aborts additionally bucket by **locality**: an event on a
//! lane charged a remote-socket cost table (see
//! [`pto_sim::clock::on_remote_socket`]) also counts as `remote_*`, so
//! NUMA-profile sweeps can attribute throughput to sockets.

use crate::txn::AbortCause;
use pto_sim::ctx;
use pto_sim::stats::Counter;
use std::sync::Arc;

/// Per-cause abort counters, embeddable in any per-variant stats block
/// (`PtoStats`, `TleStats`). All increments are relaxed; read with `get()`.
#[derive(Default, Debug)]
pub struct CauseCounters {
    /// Conflicting concurrent (or non-transactional) access.
    pub conflict: Counter,
    /// Read/write set exceeded the best-effort capacity.
    pub capacity: Counter,
    /// `TxAbort` executed by the program (helping avoidance, §2.4).
    pub explicit: Counter,
    /// `TxBegin` inside a running transaction.
    pub nested: Counter,
    /// Spontaneous best-effort failure (failure injection).
    pub spurious: Counter,
}

impl CauseCounters {
    pub const fn new() -> Self {
        CauseCounters {
            conflict: Counter::new(),
            capacity: Counter::new(),
            explicit: Counter::new(),
            nested: Counter::new(),
            spurious: Counter::new(),
        }
    }

    /// Record one abort under its cause bucket.
    #[inline]
    pub fn record(&self, cause: AbortCause) {
        match cause {
            AbortCause::Conflict => self.conflict.inc(),
            AbortCause::Capacity => self.capacity.inc(),
            AbortCause::Explicit(_) => self.explicit.inc(),
            AbortCause::Nested => self.nested.inc(),
            AbortCause::Spurious => self.spurious.inc(),
        }
    }

    /// Total aborts across every cause.
    pub fn total(&self) -> u64 {
        self.conflict.get()
            + self.capacity.get()
            + self.explicit.get()
            + self.nested.get()
            + self.spurious.get()
    }

    /// One-line cause mix, e.g. `conflict 12 / capacity 0 / explicit 3 /
    /// nested 0 / spurious 1`.
    pub fn mix(&self) -> String {
        format!(
            "conflict {} / capacity {} / explicit {} / nested {} / spurious {}",
            self.conflict.get(),
            self.capacity.get(),
            self.explicit.get(),
            self.nested.get(),
            self.spurious.get()
        )
    }

    pub fn reset(&self) {
        self.conflict.reset();
        self.capacity.reset();
        self.explicit.reset();
        self.nested.reset();
        self.spurious.reset();
    }
}

/// One full counter block; every [`HtmScope`] owns one.
#[derive(Default)]
struct Block {
    begins: Counter,
    commits: Counter,
    conflict: Counter,
    capacity: Counter,
    explicit: Counter,
    nested: Counter,
    spurious: Counter,
    remote_commits: Counter,
    remote_aborts: Counter,
}

impl Block {
    fn read(&self) -> HtmSnapshot {
        HtmSnapshot {
            begins: self.begins.get(),
            commits: self.commits.get(),
            aborts_conflict: self.conflict.get(),
            aborts_capacity: self.capacity.get(),
            aborts_explicit: self.explicit.get(),
            aborts_nested: self.nested.get(),
            aborts_spurious: self.spurious.get(),
            remote_commits: self.remote_commits.get(),
            remote_aborts: self.remote_aborts.get(),
        }
    }
}

/// Run `f` against the scoped block if one is installed on this thread
/// (directly or inherited from a spawning cell); otherwise do nothing.
#[inline]
fn record(f: impl FnOnce(&Block)) {
    if ctx::is_set(ctx::SLOT_HTM_STATS) {
        ctx::with::<Block, _>(ctx::SLOT_HTM_STATS, |b| {
            if let Some(b) = b {
                f(b);
            }
        });
    }
}

#[inline]
pub(crate) fn record_begin() {
    record(|b| b.begins.inc());
}

#[inline]
pub(crate) fn record_commit() {
    record(|b| {
        b.commits.inc();
        if pto_sim::clock::on_remote_socket() {
            b.remote_commits.inc();
        }
    });
}

#[inline]
pub(crate) fn record_abort(cause: AbortCause) {
    record(|b| {
        match cause {
            AbortCause::Conflict => b.conflict.inc(),
            AbortCause::Capacity => b.capacity.inc(),
            AbortCause::Explicit(_) => b.explicit.inc(),
            AbortCause::Nested => b.nested.inc(),
            AbortCause::Spurious => b.spurious.inc(),
        }
        if pto_sim::clock::on_remote_socket() {
            b.remote_aborts.inc();
        }
    });
}

/// RAII scope isolating HTM statistics for one sweep cell.
///
/// While alive (on the installing thread and every `Sim` lane or
/// [`pto_sim::par`] job that inherits its context), transaction events
/// record into this scope. Read the cell's own totals with
/// [`HtmScope::snapshot`]. Scopes nest: an inner scope takes the events
/// until it drops, and the outer one does not see them.
pub struct HtmScope {
    block: Arc<Block>,
    _guard: ctx::ScopeGuard,
}

impl HtmScope {
    /// Install a fresh scope on the current thread.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        let block: Arc<Block> = Arc::new(Block::default());
        let guard = ctx::ScopeGuard::install(
            ctx::SLOT_HTM_STATS,
            Arc::clone(&block) as Arc<dyn std::any::Any + Send + Sync>,
        );
        HtmScope {
            block,
            _guard: guard,
        }
    }

    /// This scope's totals so far.
    pub fn snapshot(&self) -> HtmSnapshot {
        self.block.read()
    }
}

/// A point-in-time copy of the HTM counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HtmSnapshot {
    pub begins: u64,
    pub commits: u64,
    pub aborts_conflict: u64,
    pub aborts_capacity: u64,
    pub aborts_explicit: u64,
    pub aborts_nested: u64,
    pub aborts_spurious: u64,
    /// Commits on lanes modeling a remote (non-socket-0) NUMA socket.
    pub remote_commits: u64,
    /// Aborts (any cause) on remote-socket lanes.
    pub remote_aborts: u64,
}

impl HtmSnapshot {
    pub fn total_aborts(&self) -> u64 {
        self.aborts_conflict
            + self.aborts_capacity
            + self.aborts_explicit
            + self.aborts_nested
            + self.aborts_spurious
    }

    /// Fraction of begun transactions that committed, in [0, 1].
    pub fn commit_rate(&self) -> f64 {
        if self.begins == 0 {
            0.0
        } else {
            self.commits as f64 / self.begins as f64
        }
    }

    /// Field-wise sum (for aggregating several scopes' snapshots).
    pub fn merge(&self, other: &HtmSnapshot) -> HtmSnapshot {
        HtmSnapshot {
            begins: self.begins + other.begins,
            commits: self.commits + other.commits,
            aborts_conflict: self.aborts_conflict + other.aborts_conflict,
            aborts_capacity: self.aborts_capacity + other.aborts_capacity,
            aborts_explicit: self.aborts_explicit + other.aborts_explicit,
            aborts_nested: self.aborts_nested + other.aborts_nested,
            aborts_spurious: self.aborts_spurious + other.aborts_spurious,
            remote_commits: self.remote_commits + other.remote_commits,
            remote_aborts: self.remote_aborts + other.remote_aborts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_rate_handles_zero_begins() {
        let s = HtmSnapshot::default();
        assert_eq!(s.commit_rate(), 0.0);
    }

    #[test]
    fn total_aborts_sums_causes() {
        let s = HtmSnapshot {
            begins: 10,
            commits: 4,
            aborts_conflict: 1,
            aborts_capacity: 2,
            aborts_explicit: 3,
            ..Default::default()
        };
        assert_eq!(s.total_aborts(), 6);
        assert!((s.commit_rate() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_fields() {
        let a = HtmSnapshot {
            begins: 3,
            aborts_capacity: 1,
            ..Default::default()
        };
        let b = HtmSnapshot {
            begins: 4,
            aborts_capacity: 2,
            ..Default::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.begins, 7);
        assert_eq!(m.aborts_capacity, 3);
    }

    #[test]
    fn scope_counts_only_while_installed() {
        let w = crate::TxWord::new(0);
        // Before the scope: not counted in it.
        let _ = crate::transaction(|tx| tx.read(&w));
        let scope = HtmScope::new();
        let _ = crate::transaction(|tx| tx.read(&w));
        let _: Result<(), _> = crate::transaction(|tx| Err(tx.abort(1)));
        {
            // An inner scope takes the events while it lives.
            let inner = HtmScope::new();
            let _ = crate::transaction(|tx| tx.read(&w));
            assert_eq!(inner.snapshot().commits, 1);
        }
        let s = scope.snapshot();
        assert_eq!(s.begins, 2);
        assert_eq!(s.commits, 1);
        assert_eq!(s.aborts_explicit, 1);
    }

    #[test]
    fn concurrent_scopes_do_not_bleed() {
        // Two threads, each with its own scope and its own abort mix,
        // must observe exactly their own counts.
        std::thread::scope(|s| {
            for code in 1..=4u64 {
                s.spawn(move || {
                    let scope = HtmScope::new();
                    let w = crate::TxWord::new(0);
                    for _ in 0..code {
                        let _: Result<(), _> =
                            crate::transaction(|tx| Err(tx.abort(code as u8)));
                    }
                    let _ = crate::transaction(|tx| tx.read(&w));
                    let snap = scope.snapshot();
                    assert_eq!(snap.aborts_explicit, code, "foreign aborts leaked in");
                    assert_eq!(snap.commits, 1);
                });
            }
        });
    }

    #[test]
    fn sim_lanes_record_into_the_spawners_scope() {
        let scope = HtmScope::new();
        let w = crate::TxWord::new(0);
        pto_sim::Sim::new(4).run(|_| {
            let _ = crate::transaction(|tx| tx.read(&w));
        });
        let s = scope.snapshot();
        assert_eq!(s.begins, s.commits + s.total_aborts());
        assert_eq!(s.commits + s.total_aborts(), 4);
    }

    #[test]
    fn remote_lanes_bucket_commits_by_socket() {
        use pto_sim::{CostProfile, Sim};
        let scope = HtmScope::new();
        let w = crate::TxWord::new(0);
        // 16 NumaIsh lanes: lanes 0-7 are socket 0 (local), 8-15 remote.
        Sim::new(16)
            .with_profile(CostProfile::NumaIsh)
            .run(|_| {
                let _ = crate::transaction(|tx| tx.read(&w));
            });
        let s = scope.snapshot();
        assert_eq!(s.commits + s.total_aborts(), 16);
        assert_eq!(
            s.remote_commits + s.remote_aborts,
            8,
            "exactly the 8 off-socket lanes must tag remote: {s:?}"
        );
    }

    #[test]
    fn cause_counters_bucket_by_cause() {
        let c = CauseCounters::new();
        c.record(AbortCause::Conflict);
        c.record(AbortCause::Conflict);
        c.record(AbortCause::Capacity);
        c.record(AbortCause::Explicit(7));
        c.record(AbortCause::Nested);
        c.record(AbortCause::Spurious);
        assert_eq!(c.conflict.get(), 2);
        assert_eq!(c.capacity.get(), 1);
        assert_eq!(c.explicit.get(), 1);
        assert_eq!(c.nested.get(), 1);
        assert_eq!(c.spurious.get(), 1);
        assert_eq!(c.total(), 6);
        assert!(c.mix().contains("conflict 2"));
        c.reset();
        assert_eq!(c.total(), 0);
    }
}
