//! # pto-sim — virtual-time execution substrate
//!
//! The SPAA'15 PTO paper measures wall-clock throughput of 1–8 hardware
//! threads on an Intel i7-4770. This reproduction runs on a single vCPU with
//! no TSX, so wall-clock curves would be meaningless: threads never overlap
//! physically and OS time-slicing destroys the contention structure the
//! paper's scalability results depend on.
//!
//! This crate therefore provides the *execution simulator* substrate:
//!
//! * [`cost`] — calibrated tables of cycle costs for the events the paper
//!   reasons about (loads, stores, CAS, fences, transaction boundaries,
//!   allocation, epoch maintenance): the paper's Haswell testbed plus a
//!   multi-socket NUMA-ish profile for 64–512 lane machines.
//! * [`clock`] — a per-thread **virtual cycle clock**. Every modeled event
//!   charges cycles to the current thread's clock.
//! * [`sched`] — a **gate scheduler** that runs N logical threads (backed by
//!   OS threads) such that no thread's virtual clock races more than one
//!   quantum ahead of the slowest active thread. Threads therefore overlap
//!   *in virtual time* the way N hardware threads would, and conflicts,
//!   aborts, and helping arise from genuine interleavings.
//! * [`stats`] — cache-padded atomic counters used across the workspace.
//! * [`rng`] — a tiny, dependency-free xorshift PRNG for in-library
//!   randomness (e.g. skiplist tower heights) and workload generation.
//! * [`pad`] — `CachePadded`, the in-tree `crossbeam_utils` replacement.
//! * [`sync`] — `parking_lot`-style `Mutex`/`Condvar` shims over `std::sync`.
//! * [`proptest`] — proptest-lite, the in-tree property-test harness used by
//!   every crate's differential-oracle suites.
//! * [`obs`] — observation: every instrumented site emits one `Event`;
//!   a scoped, nestable `Session` (inherited by [`Sim`] lanes and [`par`]
//!   workers) folds the stream into counter series and per-call-site
//!   attribution and keeps a bounded event ring, exported as Chrome
//!   trace-event JSON (spans plus counter tracks) or a span summary.
//!   [`metrics`] keeps the per-cell names (`MetricsScope`, `Series`) as a
//!   view over it.
//! * [`hist`] — log2-bucketed latency histograms (p50/p90/p99/max in
//!   virtual cycles) recorded by the bench drivers.
//! * [`history`] — operation-history recording (invocation/response with
//!   virtual timestamps) consumed by the `pto-check` linearizability
//!   checker.
//! * [`json`] — a minimal JSON reader backing the Chrome-export validator.
//! * [`ctx`] — scoped per-thread context slots (stats scopes, injection
//!   schedules, RNG stream keys) inherited by [`Sim`] lane threads, the
//!   isolation layer for sharded harness runs.
//! * [`par`] — the hermetic work-stealing cell runner: run independent
//!   deterministic cells across real OS threads, results in submission
//!   order, byte-identical to a sequential run.
//!
//! The whole workspace builds hermetically: these modules exist precisely so
//! the default dependency graph contains no crates-io packages.
//!
//! Throughput is reported as `ops / makespan` where `makespan` is the
//! maximum final virtual clock, converted to ops/ms at the paper's 3.4 GHz.

pub mod clock;
pub mod cost;
pub mod ctx;
pub mod hist;
pub mod history;
pub mod json;
pub mod obs;
pub mod pad;
pub mod par;
pub mod proptest;
pub mod rng;
pub mod sched;
pub mod stats;
pub mod sync;

/// The per-cell metrics names over [`obs`], kept for the benchmark: a
/// `MetricsScope` is a fold-only observation session read through
/// `snapshot()`.
pub mod metrics {
    pub use crate::obs::Series;
    pub type MetricsScope = crate::obs::Session;
}

pub use clock::{charge, charge_cycles, charge_n, now, spin_wait_tick};
pub use cost::{CostKind, CostProfile};
pub use sched::{Sim, SimOutcome};

/// Clock frequency of the paper's testbed (i7-4770 @ 3.40 GHz), used to
/// convert virtual cycles into the paper's ops/ms axis.
pub const CYCLES_PER_MS: u64 = 3_400_000;

/// Convert an operation count and a virtual-cycle makespan into the ops/ms
/// throughput metric used on the y-axis of every figure in the paper.
///
/// Returns 0.0 for an empty run.
pub fn ops_per_ms(ops: u64, makespan_cycles: u64) -> f64 {
    if makespan_cycles == 0 {
        return 0.0;
    }
    ops as f64 * CYCLES_PER_MS as f64 / makespan_cycles as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_per_ms_zero_makespan_is_zero() {
        assert_eq!(ops_per_ms(100, 0), 0.0);
    }

    #[test]
    fn ops_per_ms_matches_hand_computation() {
        // 1000 ops in 3.4M cycles = 1 ms -> 1000 ops/ms.
        let t = ops_per_ms(1000, CYCLES_PER_MS);
        assert!((t - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn ops_per_ms_scales_linearly_in_ops() {
        let a = ops_per_ms(10, 1_000_000);
        let b = ops_per_ms(20, 1_000_000);
        assert!((b - 2.0 * a).abs() < 1e-9);
    }
}
