//! Reclamation counters: epoch advances, hazard scans, slots reclaimed,
//! orphans parked/drained.
//!
//! The PTO benches attribute these to a cell the same way they attribute
//! HTM events: install a [`MemScope`] (context slot [`ctx::SLOT_MEM`]) and
//! every event on the installing thread, its `Sim` lanes and its `par`
//! workers records into the scope's own block. An event with no scope
//! installed is not counted. The counters are deliberately cheap
//! (relaxed, cache-padded) and are *not* part of the cost model — they
//! observe the reclamation machinery, they do not charge for it.

use pto_sim::ctx;
use pto_sim::stats::Counter;
use std::sync::Arc;

/// One full counter block; every [`MemScope`] owns one.
#[derive(Default)]
struct Block {
    epoch_advances: Counter,
    hazard_scans: Counter,
    hazard_reclaimed: Counter,
    orphans_parked: Counter,
    orphans_drained: Counter,
    lanes_released: Counter,
    limbo_reclaimed: Counter,
}

impl Block {
    fn read(&self) -> MemSnapshot {
        MemSnapshot {
            epoch_advances: self.epoch_advances.get(),
            hazard_scans: self.hazard_scans.get(),
            hazard_reclaimed: self.hazard_reclaimed.get(),
            orphans_parked: self.orphans_parked.get(),
            orphans_drained: self.orphans_drained.get(),
            lanes_released: self.lanes_released.get(),
            limbo_reclaimed: self.limbo_reclaimed.get(),
        }
    }
}

/// Run `f` against the scoped block if one is installed on this thread
/// (directly or inherited from a spawning cell); otherwise do nothing.
#[inline]
fn record(f: impl FnOnce(&Block)) {
    if ctx::is_set(ctx::SLOT_MEM) {
        ctx::with::<Block, _>(ctx::SLOT_MEM, |b| {
            if let Some(b) = b {
                f(b);
            }
        });
    }
}

#[inline]
pub(crate) fn record_epoch_advance() {
    record(|b| b.epoch_advances.inc());
}

#[inline]
pub(crate) fn record_hazard_scan() {
    record(|b| b.hazard_scans.inc());
}

#[inline]
pub(crate) fn record_hazard_reclaimed(n: u64) {
    record(|b| b.hazard_reclaimed.add(n));
}

#[inline]
pub(crate) fn record_orphans_parked(n: u64) {
    record(|b| b.orphans_parked.add(n));
}

#[inline]
pub(crate) fn record_orphans_drained(n: u64) {
    record(|b| b.orphans_drained.add(n));
}

#[inline]
pub(crate) fn record_lane_released() {
    record(|b| b.lanes_released.inc());
}

#[inline]
pub(crate) fn record_limbo_reclaimed(n: u64) {
    record(|b| b.limbo_reclaimed.add(n));
}

/// RAII scope isolating reclamation statistics for one sweep cell.
///
/// While alive (on the installing thread and every `Sim` lane or
/// [`pto_sim::par`] job that inherits its context), reclamation events
/// record into this scope. Read the cell's own totals with
/// [`MemScope::snapshot`]. Scopes nest: an inner scope takes the events
/// until it drops, and the outer one does not see them.
pub struct MemScope {
    block: Arc<Block>,
    _guard: ctx::ScopeGuard,
}

impl MemScope {
    /// Install a fresh scope on the current thread.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        let block: Arc<Block> = Arc::new(Block::default());
        let guard = ctx::ScopeGuard::install(
            ctx::SLOT_MEM,
            Arc::clone(&block) as Arc<dyn std::any::Any + Send + Sync>,
        );
        MemScope {
            block,
            _guard: guard,
        }
    }

    /// This scope's totals so far.
    pub fn snapshot(&self) -> MemSnapshot {
        self.block.read()
    }
}

/// A point-in-time copy of the reclamation counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemSnapshot {
    /// Successful global-epoch advances.
    pub epoch_advances: u64,
    /// Hazard-pointer reclamation scans run.
    pub hazard_scans: u64,
    /// Retired slots returned to their pool by a hazard scan.
    pub hazard_reclaimed: u64,
    /// Retired slots handed to a domain's orphan list by exiting threads.
    pub orphans_parked: u64,
    /// Orphaned slots returned to their pool by a later scan.
    pub orphans_drained: u64,
    /// Hazard lanes released by exiting threads.
    pub lanes_released: u64,
    /// Epoch-limbo slots whose grace period expired and were recycled.
    pub limbo_reclaimed: u64,
}

impl MemSnapshot {
    /// Field-wise sum (for aggregating several scopes' snapshots).
    pub fn merge(&self, other: &MemSnapshot) -> MemSnapshot {
        MemSnapshot {
            epoch_advances: self.epoch_advances + other.epoch_advances,
            hazard_scans: self.hazard_scans + other.hazard_scans,
            hazard_reclaimed: self.hazard_reclaimed + other.hazard_reclaimed,
            orphans_parked: self.orphans_parked + other.orphans_parked,
            orphans_drained: self.orphans_drained + other.orphans_drained,
            lanes_released: self.lanes_released + other.lanes_released,
            limbo_reclaimed: self.limbo_reclaimed + other.limbo_reclaimed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_fieldwise() {
        let a = MemSnapshot {
            epoch_advances: 5,
            hazard_scans: 2,
            ..Default::default()
        };
        let b = MemSnapshot {
            epoch_advances: 9,
            hazard_scans: 2,
            hazard_reclaimed: 7,
            ..Default::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.epoch_advances, 14);
        assert_eq!(m.hazard_scans, 4);
        assert_eq!(m.hazard_reclaimed, 7);
    }

    #[test]
    fn scope_counts_only_while_installed() {
        // Before the scope: not counted in it.
        record_hazard_scan();
        let scope = MemScope::new();
        record_hazard_scan();
        record_hazard_reclaimed(5);
        {
            // An inner scope takes the events while it lives.
            let inner = MemScope::new();
            record_hazard_scan();
            assert_eq!(inner.snapshot().hazard_scans, 1);
        }
        let s = scope.snapshot();
        assert_eq!(s.hazard_scans, 1);
        assert_eq!(s.hazard_reclaimed, 5);
    }

    #[test]
    fn concurrent_scopes_do_not_bleed() {
        std::thread::scope(|s| {
            for n in 1..=4u64 {
                s.spawn(move || {
                    let scope = MemScope::new();
                    record_orphans_parked(n);
                    record_epoch_advance();
                    let snap = scope.snapshot();
                    assert_eq!(snap.orphans_parked, n, "foreign events leaked in");
                    assert_eq!(snap.epoch_advances, 1);
                });
            }
        });
    }

    #[test]
    fn epoch_advances_are_counted() {
        // Drive the epoch forward a few steps. Other tests' threads may pin
        // or advance it too; only this thread's successful advances land
        // in its scope.
        let scope = MemScope::new();
        let start = crate::epoch::current();
        let (mut tries, mut ours) = (0u64, 0u64);
        while crate::epoch::current() < start + 4 {
            ours += crate::epoch::try_advance() as u64;
            tries += 1;
            if tries.is_multiple_of(1024) {
                std::thread::yield_now();
            }
            assert!(tries < 100_000_000, "epoch stalled");
        }
        assert_eq!(scope.snapshot().epoch_advances, ours);
    }
}
