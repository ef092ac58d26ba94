//! Per-operation latency collection for the bench drivers.
//!
//! Each driver wraps its measured-loop operations in a virtual-time stamp
//! pair and records the elapsed cycles into a log2-bucketed [`Histogram`]
//! per operation kind — into the [`LatScope`] installed for the cell
//! (context slot [`ctx::SLOT_LAT`]), on the installing thread and every
//! `Sim` lane it spawns, so concurrent cells record into their own blocks.
//! With no scope installed nothing is recorded.
//!
//! Recording is two atomic RMWs plus two `fetch_min`/`fetch_max` per
//! operation and never touches the virtual clock, so latency capture does
//! not perturb the throughput it accompanies.

use pto_sim::ctx;
use pto_sim::hist::{HistSnapshot, Histogram};
use std::sync::Arc;

/// The operation vocabulary across all drivers: set ops (setbench),
/// priority-queue ops (pqbench), FIFO ops (fifobench), the Mindicator's
/// arrive/depart pairs (mbench), and the composed scenario ops (a
/// `transfer` moves a key between two structures atomically, an `audit`
/// reads both sides of a composed pair in one transaction).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    Insert,
    Remove,
    Contains,
    Push,
    Pop,
    Enqueue,
    Dequeue,
    Arrive,
    Depart,
    Transfer,
    Audit,
}

/// Number of operation kinds (histogram array width).
pub const N_KINDS: usize = 11;

/// Every kind, in display order.
pub const ALL: [OpKind; N_KINDS] = [
    OpKind::Insert,
    OpKind::Remove,
    OpKind::Contains,
    OpKind::Push,
    OpKind::Pop,
    OpKind::Enqueue,
    OpKind::Dequeue,
    OpKind::Arrive,
    OpKind::Depart,
    OpKind::Transfer,
    OpKind::Audit,
];

impl OpKind {
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Insert => "insert",
            OpKind::Remove => "remove",
            OpKind::Contains => "contains",
            OpKind::Push => "push",
            OpKind::Pop => "pop",
            OpKind::Enqueue => "enqueue",
            OpKind::Dequeue => "dequeue",
            OpKind::Arrive => "arrive",
            OpKind::Depart => "depart",
            OpKind::Transfer => "transfer",
            OpKind::Audit => "audit",
        }
    }
}

/// One full accumulator block, owned by a [`LatScope`].
#[derive(Default)]
struct Block {
    hists: [Histogram; N_KINDS],
}

/// Record one operation's latency in virtual cycles into the [`LatScope`]
/// installed on this thread (directly or inherited from a spawning cell);
/// a no-op without one.
#[inline]
pub fn record(kind: OpKind, cycles: u64) {
    ctx::with::<Block, _>(ctx::SLOT_LAT, |b| {
        if let Some(b) = b {
            b.hists[kind as usize].record(cycles);
        }
    });
}

/// RAII scope isolating latency histograms for one sweep cell. Read the
/// cell's own distributions with [`LatScope::snapshot`].
pub struct LatScope {
    block: Arc<Block>,
    _guard: ctx::ScopeGuard,
}

impl LatScope {
    /// Install a fresh scope on the current thread.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        let block: Arc<Block> = Arc::new(Block::default());
        let guard = ctx::ScopeGuard::install(
            ctx::SLOT_LAT,
            Arc::clone(&block) as Arc<dyn std::any::Any + Send + Sync>,
        );
        LatScope {
            block,
            _guard: guard,
        }
    }

    /// This scope's distributions so far.
    pub fn snapshot(&self) -> LatSnapshot {
        let mut s = LatSnapshot::default();
        for (i, h) in self.block.hists.iter().enumerate() {
            s.hists[i] = h.snapshot();
        }
        s
    }
}

/// The latency distributions of one measurement window: one histogram
/// snapshot per [`OpKind`], indexed like [`ALL`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LatSnapshot {
    pub hists: [HistSnapshot; N_KINDS],
}

impl LatSnapshot {
    /// Merge (histogram addition) with another window.
    pub fn merge(&self, other: &LatSnapshot) -> LatSnapshot {
        let mut out = LatSnapshot::default();
        for i in 0..N_KINDS {
            out.hists[i] = self.hists[i].merge(&other.hists[i]);
        }
        out
    }

    /// True when no operation was recorded at all.
    pub fn is_empty(&self) -> bool {
        self.hists.iter().all(|h| h.count == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_isolates_its_records() {
        // Without a scope nothing is recorded anywhere.
        record(OpKind::Push, 1);
        let scope = LatScope::new();
        record(OpKind::Push, 64);
        record(OpKind::Push, 128);
        record(OpKind::Pop, 7);
        let s = scope.snapshot();
        assert_eq!(s.hists[OpKind::Push as usize].count, 2);
        assert_eq!(s.hists[OpKind::Push as usize].max, 128);
        assert_eq!(s.hists[OpKind::Pop as usize].count, 1);
        assert!(!s.is_empty());
        drop(scope);
        assert!(LatScope::new().snapshot().is_empty());
    }

    #[test]
    fn merge_adds_counts_per_kind() {
        let a = {
            let scope = LatScope::new();
            record(OpKind::Arrive, 50);
            scope.snapshot()
        };
        let b = {
            let scope = LatScope::new();
            record(OpKind::Arrive, 70);
            record(OpKind::Depart, 30);
            scope.snapshot()
        };
        let m = a.merge(&b);
        assert_eq!(m.hists[OpKind::Arrive as usize].count, 2);
        assert_eq!(m.hists[OpKind::Arrive as usize].max, 70);
        assert_eq!(m.hists[OpKind::Depart as usize].count, 1);
    }

    #[test]
    fn concurrent_scopes_do_not_bleed() {
        std::thread::scope(|s| {
            for n in 1..=4u64 {
                s.spawn(move || {
                    let scope = LatScope::new();
                    for _ in 0..n {
                        record(OpKind::Dequeue, n * 10);
                    }
                    let snap = scope.snapshot();
                    assert_eq!(snap.hists[OpKind::Dequeue as usize].count, n);
                    assert_eq!(snap.hists[OpKind::Dequeue as usize].max, n * 10);
                });
            }
        });
    }

    #[test]
    fn names_are_unique_and_ordered_like_all() {
        let names: Vec<_> = ALL.iter().map(|k| k.name()).collect();
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(names.len(), N_KINDS);
        assert_eq!(names, dedup);
        for (i, k) in ALL.iter().enumerate() {
            assert_eq!(*k as usize, i, "ALL order must match discriminants");
        }
    }
}
