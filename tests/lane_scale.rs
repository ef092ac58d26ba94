//! Server-scale lane smoke tests (PR 7): the whole substrate — gate
//! scheduler, cost profiles, epoch registry, pools, hazard domains — must
//! hold together at 512 simultaneous lanes, far past the paper's 8-thread
//! testbed and past the old 128-entry thread-slot tables.
//!
//! These are liveness/invariant tests, not golden pins: 512 contending
//! lanes interleave nondeterministically, so we assert structural facts
//! (no panic, balances zero out, skew stays bounded) rather than exact
//! makespans. The deterministic 64-lane golden pins live in
//! `golden_makespan.rs`.

use pto_mem::{HazardDomain, Pool};
use pto_sim::{CostKind, CostProfile, Sim};
use std::sync::atomic::{AtomicU64, Ordering};

#[derive(Default)]
struct Node {
    v: pto_htm::TxWord,
}

#[test]
fn five_hundred_twelve_lanes_pin_alloc_and_protect() {
    const LANES: usize = 512;
    let pool: Pool<Node> = Pool::new();
    let dom = HazardDomain::new();
    // Per lane, the cycles of its fixed-cost substrate calls (pin/unpin,
    // protect/clear, free/retire). A lane's whole clock also holds
    // `alloc`'s `AllocContend` term, which counts the lanes the host
    // happens to run inside `alloc` at that moment.
    let tariffs: Vec<AtomicU64> = (0..LANES).map(|_| AtomicU64::new(0)).collect();
    let out = Sim {
        threads: LANES,
        quantum: 400,
        profile: CostProfile::NumaIsh,
    }
    .run(|lane| {
        // Each lane exercises every thread-slot-indexed subsystem: the
        // epoch registry (pin), the pool magazines (alloc/retire/free) and
        // a hazard lane (protect/clear) — all beyond slot 128 for most
        // lanes, which the flat tables this PR replaced could not seat.
        let mut tariff = 0;
        for round in 0..3u64 {
            let (g, pin) = timed(pto_mem::epoch::pin);
            let idx = pool.alloc();
            pool.get(idx).v.init(lane as u64 * 8 + round);
            let ((), protect) = timed(|| dom.protect(0, idx));
            assert_eq!(pool.get(idx).v.peek(), lane as u64 * 8 + round);
            let ((), release) = timed(|| {
                dom.clear(0);
                drop(g);
                if round % 2 == 0 {
                    pool.free_now(idx);
                } else {
                    pool.retire(idx);
                }
            });
            tariff += pin + protect + release;
            pto_sim::charge(CostKind::Work);
        }
        tariffs[lane].store(tariff, Ordering::Relaxed);
    });
    assert_eq!(out.per_thread.len(), LANES);
    assert!(out.makespan > 0);
    // Every lane allocated and released 3 slots; nothing may leak.
    assert_eq!(pool.live(), 0, "leaked pool slots at 512 lanes");
    assert_eq!(dom.active_hazards(), 0, "stale hazards at 512 lanes");
    // NUMA profile sanity at scale: socket-0 lanes pay the Haswell local
    // tariff, all other sockets the remote one, so a remote lane's
    // fixed-cost calls must cost strictly more than its socket-0 twin's.
    let tariffs: Vec<u64> = tariffs.iter().map(|t| t.load(Ordering::Relaxed)).collect();
    let (local, remote) = (tariffs[0], tariffs[8]);
    assert!(
        remote > local,
        "remote lane {remote} not slower than local lane {local}"
    );
    for (lane, &t) in tariffs.iter().enumerate() {
        let want = if lane < 8 { local } else { remote };
        assert_eq!(t, want, "lane {lane} paid another socket's tariff");
    }
}

/// `f`'s result and the virtual cycles it charged this lane.
fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t = pto_sim::now();
    let r = f();
    (r, pto_sim::now() - t)
}

#[test]
fn conflict_free_512_lane_runs_are_deterministic_under_both_profiles() {
    const LANES: usize = 512;
    // Lane-private clock charges only: the gate paces the lanes but their
    // final clocks are pure per-lane sums, so any two runs must agree
    // bit-for-bit regardless of OS scheduling — at 512 lanes, under both
    // cost profiles.
    let run = |profile: CostProfile| {
        let out = Sim {
            threads: LANES,
            quantum: 300,
            profile,
        }
        .run(|lane| {
            for _ in 0..(10 + lane as u64 % 13) {
                pto_sim::charge(CostKind::Cas);
                pto_sim::charge(CostKind::SharedLoad);
            }
        });
        (out.makespan, out.per_thread)
    };
    for profile in [CostProfile::Haswell, CostProfile::NumaIsh] {
        let a = run(profile);
        let b = run(profile);
        assert_eq!(a, b, "512-lane rerun diverged under {profile:?}");
    }
    // And the profiles must genuinely differ once lanes leave socket 0.
    let h = run(CostProfile::Haswell);
    let n = run(CostProfile::NumaIsh);
    assert_eq!(h.1[..8], n.1[..8], "socket-0 lanes must match Haswell");
    assert!(n.1[8] > h.1[8], "remote lane not charged the NUMA tariff");
    assert!(n.0 > h.0, "NUMA makespan should exceed Haswell at 512 lanes");
}
