//! Host-cost backstop for the gate's min-tracking: the per-charge
//! wallclock of balanced lanes must not grow grossly with lane count.
//!
//! The tournament-tree gate (DESIGN.md §2.2) keeps the charge fast path at
//! one leaf store plus one root load however many lanes run. This test
//! asserts that the host cost per charge at 256 lanes stays under 8× the
//! cost at 8 lanes.
//!
//! The check catches only gross per-charge growth. With more lanes than
//! host cores, the OS time-slicing the lanes dominates the cost at both
//! widths, so an O(lanes) scan hides in it. On a 2-vCPU host, over 20
//! runs each, the ratio read 0.45–1.98× in release and 0.82–1.96× in
//! debug, and up to 3.95× beside one busy loop. A gate that ran its exact
//! O(lanes) scan at every quantum crossing read a median of 1.25×. One
//! that ran it on every charge made each charge 3–4× dearer at both widths
//! and read about 1.3×. Both passed. For finer changes compare
//! `benchmark/`'s `sim.charge_ns` and `sim.gate_charge_ns_2lane` across
//! commits.

use pto_sim::Sim;
use std::time::Instant;

/// 3-cycle granules charged by each lane.
const ITERS: u64 = 2_000;

/// Run `lanes` balanced lanes, each charging [`ITERS`] 3-cycle granules
/// (a quantum crossing every ~67 charges, so the machine advances in
/// lockstep rotations), and return the host nanoseconds per charge.
fn ns_per_charge(lanes: usize) -> f64 {
    let t0 = Instant::now();
    let out = Sim::new(lanes).run(|_| {
        for _ in 0..ITERS {
            pto_sim::charge_cycles(3);
        }
    });
    let secs = t0.elapsed().as_secs_f64();
    // Lane-private work: the makespan is one lane's charges at any width.
    assert_eq!(out.makespan, 3 * ITERS, "{lanes} lanes: makespan drifted");
    secs * 1e9 / (ITERS * lanes as u64) as f64
}

#[test]
fn gate_charge_cost_stays_sublinear_in_lanes() {
    let at8 = ns_per_charge(8);
    let at256 = ns_per_charge(256);
    let ratio = at256 / at8;
    assert!(
        ratio < 8.0,
        "gate per-charge cost at 256 lanes is {ratio:.1}x the 8-lane cost \
         ({at256:.1} vs {at8:.1} ns; sublinear min-tracking regressed?)"
    );
}
