//! Scoped sweep cells: the glue between the figure harnesses and the
//! [`pto_sim::par`] cell runner.
//!
//! A *cell* is one independent measurement — an (axis, series) point of a
//! figure, a lincheck variant, a whole table. Running cells concurrently
//! on OS threads is only sound if each cell's observability is isolated;
//! [`run_scoped`] installs every scope the workspace offers (HTM stats,
//! reclamation counters, latency histograms, a fold-only observation
//! session) plus a deterministic RNG stream key derived from the cell's
//! stable identity, runs the cell body, and returns the body's value
//! together with the cell's own counter snapshots. The HTM and
//! reclamation scopes also flush into their process globals on drop, so
//! whole-run HTM summaries still add up.
//!
//! Determinism: the stream key depends only on the cell's identity (not
//! on which worker thread or in what order it runs), so a sharded sweep
//! produces byte-identical per-cell results to `PTO_PAR=1` sequential
//! runs — asserted by `perf_smoke --check` and the tests below.

use crate::lat::{LatScope, LatSnapshot};
use pto_htm::{HtmScope, HtmSnapshot};
use pto_mem::{MemScope, MemSnapshot};
use pto_sim::obs::{MetricsSnapshot, Session};
use pto_sim::rng::mix64;
use pto_sim::{ctx, par};

/// A cell body's value plus the events it (and only it) caused.
#[derive(Debug)]
pub struct CellOut<R> {
    pub value: R,
    pub htm: HtmSnapshot,
    pub mem: MemSnapshot,
    pub lat: LatSnapshot,
    /// The cell's observation-series aggregates (counts, sums, maxes per
    /// series). Series fed by gate parks/backstops are wallclock
    /// scheduling detail: deterministic comparisons must not include them.
    pub met: MetricsSnapshot,
}

/// A stable cell identity: mix an axis value into a cheap FNV-1a hash of
/// the series/variant name. Only used as an RNG stream key, so collisions
/// are harmless (two cells sharing a stream are still deterministic).
pub fn cell_key(name: &str, axis: u64) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    mix64(h ^ axis.rotate_left(17))
}

/// Run one cell body under a full set of scopes and a deterministic
/// stream key. Works identically on the calling thread and on a
/// [`pto_sim::par`] worker.
pub fn run_scoped<R>(key: u64, body: impl FnOnce() -> R) -> CellOut<R> {
    let _stream = ctx::stream_scope(key);
    let htm = HtmScope::new();
    let mem = MemScope::new();
    let lat = LatScope::new();
    let met = Session::new();
    let value = body();
    CellOut {
        value,
        htm: htm.snapshot(),
        mem: mem.snapshot(),
        lat: lat.snapshot(),
        met: met.snapshot(),
    }
}

/// Shard `items` across the cell runner, wrapping each in [`run_scoped`]
/// with a key from `key_of`. Results return in submission order.
pub fn sweep<I, R, F, K>(items: Vec<I>, key_of: K, body: F) -> Vec<CellOut<R>>
where
    I: Send,
    R: Send,
    F: Fn(&I) -> R + Send + Sync,
    K: Fn(&I) -> u64 + Send + Sync,
{
    par::map_cells(items, |item| run_scoped(key_of(&item), || body(&item)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_keys_are_stable_and_distinct() {
        assert_eq!(cell_key("pto", 4), cell_key("pto", 4));
        assert_ne!(cell_key("pto", 4), cell_key("pto", 8));
        assert_ne!(cell_key("pto", 4), cell_key("lockfree", 4));
    }

    #[test]
    fn run_scoped_attributes_events_to_the_cell() {
        let out = run_scoped(cell_key("attrib", 1), || {
            let w = pto_htm::TxWord::new(0);
            let _ = pto_htm::transaction(|tx| tx.read(&w));
            crate::lat::record(crate::lat::OpKind::Insert, 42);
            7u64
        });
        assert_eq!(out.value, 7);
        assert_eq!(out.htm.commits, 1);
        assert_eq!(out.lat.hists[crate::lat::OpKind::Insert as usize].count, 1);
        // The cell's observation session sees the same commit.
        assert_eq!(out.met.total(pto_sim::obs::Series::Commits), 1);
    }

    #[test]
    fn sharded_cells_match_sequential_byte_for_byte() {
        // The tentpole determinism claim at the bench layer: a sweep of
        // deterministic Sim cells produces identical per-cell results
        // whether sharded or run inline, including the scoped counters.
        use pto_sim::{CostKind, Sim};
        let body = |i: &u64| {
            let reps = 20 + *i % 7;
            let out = Sim::new(4).run(|lane| {
                for _ in 0..(reps + lane as u64) {
                    pto_sim::charge(CostKind::Cas);
                }
                let w = pto_htm::TxWord::new(0);
                let _ = pto_htm::transaction(|tx| tx.read(&w));
            });
            (out.makespan, out.per_thread)
        };
        let items: Vec<u64> = (0..10).collect();
        let sharded = sweep(items.clone(), |i| cell_key("det", *i), body);
        let inline: Vec<_> = items
            .iter()
            .map(|i| run_scoped(cell_key("det", *i), || body(i)))
            .collect();
        for (a, b) in sharded.iter().zip(&inline) {
            assert_eq!(a.value, b.value, "virtual-time results diverged");
            assert_eq!(a.htm, b.htm, "scoped HTM counters diverged");
            // Commit/abort metric totals are virtual-time outcomes and must
            // shard deterministically too (gate-park series are not).
            assert_eq!(
                a.met.total(pto_sim::obs::Series::Commits),
                b.met.total(pto_sim::obs::Series::Commits),
                "scoped metrics commits diverged"
            );
        }
    }
}
