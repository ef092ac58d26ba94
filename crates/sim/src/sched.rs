//! The gate scheduler: fair virtual-time execution of N logical threads.
//!
//! Each logical thread runs on its own OS thread but is only allowed to get
//! `quantum` virtual cycles ahead of the slowest still-active thread. On a
//! single physical core this produces interleavings that are faithful to an
//! N-way parallel machine *in virtual time*: transactions conflict, CASes
//! fail, and helping triggers at the rates an 8-thread Haswell would see,
//! even though only one OS thread executes at any instant.
//!
//! The protocol is decentralized: a thread that crosses a quantum boundary
//! publishes its clock and, if it is too far ahead, parks in a yield-poll
//! loop until the stragglers catch up. Finished lanes publish `u64::MAX`
//! so they never hold others back.
//!
//! # Min tracking: tournament tree
//!
//! The gate's job is to answer "what is (a conservative bound on) the
//! minimum lane clock?" on every quantum crossing. The original design kept
//! a flat `cached_min` refreshed by an O(lanes) rescan; at the paper's 8
//! lanes that scan was noise, but at the server scales the ROADMAP targets
//! (64–512 lanes) it made every crossing linear in machine size. The gate
//! now keeps a **tournament tree** (a complete binary min-tree laid out as
//! a heap array) over the per-lane padded clocks:
//!
//! * leaf `j` *is* lane `j`'s published clock (lanes beyond the
//!   power-of-two width are phantom leaves pinned at `u64::MAX`);
//! * each internal node holds a monotone **lower bound** on the min of its
//!   subtree, maintained by `fetch_max(min(children))`;
//! * the root is a monotone lower bound on the true minimum clock.
//!
//! Invariants (the same three the flat design documented, now per node):
//!
//! 1. **Conservative**: every node value ≤ the true min of its subtree's
//!    current leaf clocks. Proof sketch: a climb writes
//!    `m = min(children)` read at some instant; child values are
//!    conservative by induction and leaves only rise (clocks are monotone,
//!    `finish` publishes `MAX`), so `m` ≤ the subtree min *now and
//!    forever*; `fetch_max` keeps the node the max of conservative values,
//!    which is conservative.
//! 2. **Monotone**: nodes change only via `fetch_max`, so a stale read is
//!    always an *underestimate* — it can only make a lane wait longer,
//!    never let it overrun the skew bound.
//! 3. **Liveness / min-lane-never-parks**: before parking, a lane runs an
//!    *exact* O(lanes) scan and publishes the true min to the root. The
//!    minimum lane sees `m == its own clock` and passes, so some lane
//!    always runs; and any lane that *becomes* the minimum while parked
//!    was already released by the last publisher's exact scan (the scan
//!    wrote the true min — that lane's clock — to the root it polls).
//!    A periodic exact scan inside the park loop backstops this.
//!
//! Cost: the fast path (the overwhelmingly common case) is one leaf store
//! plus one root load regardless of lane count; a quantum crossing that
//! misses the fast path climbs O(log lanes); only a lane about to park
//! pays the O(lanes) exact scan, and it pays it once per park episode.
//!
//! Wallclock design (virtual time is untouched — the gate never charges
//! cycles):
//!
//! * A 1-lane simulation never leaves the fast path (its own clock *is*
//!   the root bound), so it never scans, parks, or takes any lock — there
//!   is no lock to take.
//! * Parking **polls** (root load + `yield_now`) instead of blocking on a
//!   futex. The previous mutex+condvar gate paid a futex wait, a futex
//!   wake, and a wake-preemption context-switch bounce per lane-quantum;
//!   on the oversubscribed one-core hosts this simulator targets, that
//!   syscall traffic dominated every multi-lane run. With yield-polling
//!   the running lane pays *nothing* to publish (no notify), and a parked
//!   lane costs one `sched_yield` per scheduler rotation. With cores to
//!   spare, parked lanes poll on their own cores and resume with lower
//!   latency than a futex wake would give them. Pollers read only the
//!   root — at 256 lanes, 255 parked pollers no longer generate an
//!   O(lanes²) storm of full-array scans per rotation.

use crate::cost::CostProfile;
use crate::pad::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default quantum: how far ahead (in virtual cycles) a thread may run
/// before waiting for stragglers. Small enough that operations (hundreds to
/// thousands of cycles) genuinely overlap; large enough to amortize the
/// synchronization cost.
pub const DEFAULT_QUANTUM: u64 = 200;

/// How many park-loop polls between exact-scan backstops.
const PARK_EXACT_SCAN_PERIOD: u32 = 1024;

/// Shared state of one simulated machine run.
pub struct Gate {
    quantum: u64,
    profile: CostProfile,
    /// Leaf clocks, padded: lane `j` publishes here on every crossing.
    clocks: Box<[CachePadded<AtomicU64>]>,
    finals: Box<[AtomicU64]>,
    /// Internal nodes of the tournament min-tree in heap order
    /// (`width - 1` of them; empty when `width == 1`). `tree[0]` is the
    /// root: a monotone conservative lower bound on `min_clock()`.
    tree: Box<[CachePadded<AtomicU64>]>,
    /// Tree width: `lanes.next_power_of_two()`.
    width: usize,
    /// Park episodes (diagnostics; the 1-lane test asserts this stays
    /// zero — a single lane must never wait on the gate).
    parks: AtomicU64,
    /// Exact-scan backstops fired inside park loops (diagnostics: nonzero
    /// means every path to the root went stale — all climbers parked —
    /// and a poller had to rescan; a chronically high count points at
    /// tournament-root staleness under the current quantum).
    backstops: AtomicU64,
}

impl Gate {
    pub(crate) fn new(lanes: usize, quantum: u64, profile: CostProfile) -> Self {
        assert!(lanes > 0, "a simulation needs at least one lane");
        let width = lanes.next_power_of_two();
        Gate {
            quantum: quantum.max(1),
            profile,
            clocks: (0..lanes).map(|_| CachePadded::new(AtomicU64::new(0))).collect(),
            finals: (0..lanes).map(|_| AtomicU64::new(0)).collect(),
            tree: (0..width - 1).map(|_| CachePadded::new(AtomicU64::new(0))).collect(),
            width,
            parks: AtomicU64::new(0),
            backstops: AtomicU64::new(0),
        }
    }

    #[inline]
    pub(crate) fn quantum(&self) -> u64 {
        self.quantum
    }

    #[inline]
    pub(crate) fn profile(&self) -> CostProfile {
        self.profile
    }

    /// How many times any lane parked to wait for stragglers (diagnostics).
    pub fn park_count(&self) -> u64 {
        self.parks.load(Ordering::Relaxed)
    }

    /// How many exact-scan backstops fired inside park loops — i.e. how
    /// often the tournament root went stale with every climber parked
    /// (diagnostics).
    pub fn backstop_count(&self) -> u64 {
        self.backstops.load(Ordering::Relaxed)
    }

    /// Leaf `j` of the conceptual heap: a real lane clock, or `MAX` for
    /// phantom leaves padding the tree to a power of two.
    #[inline]
    fn leaf(&self, j: usize) -> u64 {
        match self.clocks.get(j) {
            Some(c) => c.load(Ordering::SeqCst),
            None => u64::MAX,
        }
    }

    /// Value of heap node `i` (internal node or leaf).
    #[inline]
    fn node_value(&self, i: usize) -> u64 {
        let internal = self.width - 1;
        if i < internal {
            self.tree[i].load(Ordering::SeqCst)
        } else {
            self.leaf(i - internal)
        }
    }

    /// Current root bound: conservative, monotone `≤ min_clock()`.
    #[inline]
    pub(crate) fn root_bound(&self) -> u64 {
        if self.width == 1 {
            self.leaf(0)
        } else {
            self.tree[0].load(Ordering::SeqCst)
        }
    }

    /// Refresh the path from `lane`'s leaf to the root: O(log lanes).
    #[cold]
    fn climb(&self, lane: usize) {
        let internal = self.width - 1;
        let mut i = internal + lane;
        while i > 0 {
            let p = (i - 1) / 2;
            let m = self.node_value(2 * p + 1).min(self.node_value(2 * p + 2));
            self.tree[p].fetch_max(m, Ordering::SeqCst);
            i = p;
        }
    }

    /// Exact O(lanes) minimum over the real leaf clocks.
    fn min_clock(&self) -> u64 {
        self.clocks
            .iter()
            .map(|c| c.load(Ordering::SeqCst))
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Exact scan, published to the root. Returns the scanned min.
    ///
    /// The conservativeness debug assertion reads the root *before* the
    /// scan: root-at-read ≤ true-min-at-read ≤ scanned min (the true min
    /// only rises). Reading it after would race with concurrent climbs.
    pub(crate) fn exact_min_and_publish(&self) -> u64 {
        let bound_before = self.root_bound();
        let m = self.min_clock();
        debug_assert!(
            bound_before <= m,
            "gate root bound {bound_before} overtook the true min {m}"
        );
        if self.width > 1 {
            self.tree[0].fetch_max(m, Ordering::SeqCst);
        }
        m
    }

    /// Publish `now` for `lane`; park while this lane is more than one
    /// quantum ahead of the minimum.
    pub(crate) fn sync(&self, lane: usize, now: u64) {
        debug_assert!(
            self.clocks[lane].load(Ordering::Relaxed) <= now,
            "lane {lane} clock ran backwards"
        );
        self.clocks[lane].store(now, Ordering::SeqCst);
        let bound = self.root_bound();
        if now <= bound.saturating_add(self.quantum) {
            // Within the root bound; the root never exceeds the true
            // minimum, so the real skew bound holds too.
            return;
        }
        self.sync_slow(lane, now);
    }

    #[cold]
    fn sync_slow(&self, lane: usize, now: u64) {
        // The root may be stale only along paths nobody climbed lately;
        // refresh our own path first — usually the whole story, since we
        // just published the largest clock on it.
        self.climb(lane);
        if now <= self.root_bound().saturating_add(self.quantum) {
            return;
        }
        // Still over: consult (and publish) the exact minimum. The minimum
        // lane always passes here — the scan returns its own clock — so
        // the minimum lane never parks and some lane always runs.
        let m = self.exact_min_and_publish();
        if now <= m.saturating_add(self.quantum) {
            return;
        }
        // Too far ahead: wait for stragglers. The wait spans zero virtual
        // time (waiting charges nothing); the trace events mark where this
        // lane stalled — long waits point at load imbalance. The skew is
        // how far this lane's clock ran ahead of the exact minimum.
        crate::obs::emit(crate::obs::Event::GateWaitBegin { skew: now - m });
        self.parks.fetch_add(1, Ordering::Relaxed);
        let mut polls: u32 = 0;
        loop {
            std::thread::yield_now();
            if now <= self.root_bound().saturating_add(self.quantum) {
                break;
            }
            polls = polls.wrapping_add(1);
            if polls.is_multiple_of(PARK_EXACT_SCAN_PERIOD) {
                // Backstop: if every path to the root is stale (all its
                // climbers parked), refresh it exactly rather than spin
                // on a bound nobody is raising.
                self.backstops.fetch_add(1, Ordering::Relaxed);
                crate::obs::emit(crate::obs::Event::GateBackstop);
                let m = self.exact_min_and_publish();
                if now <= m.saturating_add(self.quantum) {
                    break;
                }
            }
        }
        crate::obs::emit(crate::obs::Event::GateWaitEnd);
    }

    /// Mark `lane` finished: it no longer constrains the minimum. The
    /// climb propagates the `MAX` leaf so pollers see the release without
    /// waiting for the exact-scan backstop.
    pub(crate) fn finish(&self, lane: usize, final_clock: u64) {
        self.finals[lane].store(final_clock, Ordering::SeqCst);
        self.clocks[lane].store(u64::MAX, Ordering::SeqCst);
        if self.width > 1 {
            self.climb(lane);
        }
    }
}

/// Configuration for one simulated multi-threaded run.
#[derive(Clone, Copy, Debug)]
pub struct Sim {
    /// Number of logical threads (the paper sweeps 1–8; the gate scales
    /// to the ROADMAP's 64–512).
    pub threads: usize,
    /// Gate quantum in virtual cycles; see [`DEFAULT_QUANTUM`].
    pub quantum: u64,
    /// Which calibrated machine to model; see [`CostProfile`].
    pub profile: CostProfile,
}

/// Result of a simulated run.
#[derive(Clone, Debug)]
pub struct SimOutcome {
    /// Final virtual clock of every lane.
    pub per_thread: Vec<u64>,
    /// The makespan: max final clock, i.e. the virtual duration of the run.
    pub makespan: u64,
    /// Gate park episodes during the run ([`Gate::park_count`]). Wallclock
    /// scheduling detail — deterministic comparisons must ignore it.
    pub gate_parks: u64,
    /// Exact-scan backstops fired during the run ([`Gate::backstop_count`]).
    /// Wallclock scheduling detail, like `gate_parks`.
    pub gate_backstops: u64,
}

impl Sim {
    /// A simulation with `threads` lanes, the default quantum, and the
    /// Haswell cost profile.
    pub fn new(threads: usize) -> Self {
        Sim {
            threads,
            quantum: DEFAULT_QUANTUM,
            profile: CostProfile::Haswell,
        }
    }

    /// Builder: the same simulation under a different cost profile.
    pub fn with_profile(mut self, profile: CostProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Run `body(lane)` on every lane under the gate and return the virtual
    /// timing outcome. `body` typically loops over a per-thread slice of the
    /// workload, calling into data-structure operations whose shared-memory
    /// accesses charge the lane's virtual clock.
    ///
    /// ```
    /// use pto_sim::{CostKind, Sim};
    ///
    /// // Four logical threads, each charging 100 CAS-equivalents: the
    /// // virtual makespan is one thread's worth of work, because the
    /// // lanes overlap in virtual time.
    /// let out = Sim::new(4).run(|_lane| {
    ///     pto_sim::charge_n(CostKind::Cas, 100);
    /// });
    /// assert_eq!(out.per_thread.len(), 4);
    /// assert_eq!(out.makespan, 100 * pto_sim::cost::cycles(CostKind::Cas));
    /// ```
    pub fn run<F>(&self, body: F) -> SimOutcome
    where
        F: Fn(usize) + Sync,
    {
        let gate = Arc::new(Gate::new(self.threads, self.quantum, self.profile));
        self.run_on(gate, body)
    }

    /// `run` against a caller-constructed gate (tests inspect the gate's
    /// diagnostics afterwards).
    pub(crate) fn run_on<F>(&self, gate: Arc<Gate>, body: F) -> SimOutcome
    where
        F: Fn(usize) + Sync,
    {
        // Lane threads inherit the spawning thread's scoped-context slots
        // (scoped stats, injection schedules, RNG stream key) so cell
        // runners can isolate whole simulations per OS thread.
        let inherited = crate::ctx::capture();
        std::thread::scope(|s| {
            for lane in 0..self.threads {
                let gate = Arc::clone(&gate);
                let body = &body;
                let inherited = &inherited;
                s.spawn(move || {
                    crate::ctx::adopt(inherited);
                    crate::clock::attach(gate, lane);
                    // Detach via RAII: a lane that panics while attached
                    // would otherwise never call `Gate::finish`, freezing
                    // its clock as the permanent minimum and parking every
                    // other lane forever. Unwinding through the guard
                    // releases the gate so the scope can join the
                    // remaining lanes and propagate the panic.
                    struct DetachOnExit;
                    impl Drop for DetachOnExit {
                        fn drop(&mut self) {
                            crate::clock::detach();
                        }
                    }
                    let _detach = DetachOnExit;
                    body(lane);
                });
            }
        });
        let per_thread: Vec<u64> = gate
            .finals
            .iter()
            .map(|f| f.load(Ordering::Acquire))
            .collect();
        let makespan = per_thread.iter().copied().max().unwrap_or(0);
        SimOutcome {
            per_thread,
            makespan,
            gate_parks: gate.park_count(),
            gate_backstops: gate.backstop_count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock;
    use crate::cost::CostKind;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn single_lane_runs_to_completion() {
        let out = Sim::new(1).run(|_| {
            clock::charge_n(CostKind::Cas, 100);
        });
        assert_eq!(out.per_thread.len(), 1);
        assert_eq!(out.makespan, 100 * crate::cost::cycles(CostKind::Cas));
    }

    #[test]
    fn single_lane_never_waits_on_the_gate() {
        // Regression (PR 4): `sync` recomputed the min and took the gate
        // lock + notify_all on every quantum crossing, and `finish` always
        // locked — even with nobody to coordinate with. The gate now has no
        // lock at all, and a 1-lane sim must never even park: its own
        // clock is the root bound.
        let sim = Sim {
            threads: 1,
            quantum: 50,
            profile: CostProfile::Haswell,
        };
        let gate = Arc::new(Gate::new(sim.threads, sim.quantum, sim.profile));
        let out = sim.run_on(Arc::clone(&gate), |_| {
            for _ in 0..10_000 {
                clock::charge(CostKind::Cas);
            }
        });
        assert!(out.makespan > 0);
        assert_eq!(
            gate.park_count(),
            0,
            "a 1-lane simulation waited on the gate"
        );
    }

    #[test]
    fn lanes_progress_together() {
        // With the gate, no lane can finish wildly ahead: all lanes charge
        // the same work, so final clocks must be equal.
        let out = Sim::new(4).run(|_| {
            for _ in 0..1000 {
                clock::charge(CostKind::SharedLoad);
            }
        });
        let min = *out.per_thread.iter().min().unwrap();
        let max = *out.per_thread.iter().max().unwrap();
        assert_eq!(min, max);
        assert_eq!(out.makespan, max);
    }

    #[test]
    fn unbalanced_lanes_do_not_deadlock() {
        // A lane that finishes early must not gate the others.
        let out = Sim::new(3).run(|lane| {
            let reps = if lane == 0 { 10 } else { 5000 };
            for _ in 0..reps {
                clock::charge(CostKind::Fence);
            }
        });
        assert!(out.per_thread[0] < out.per_thread[1]);
        assert_eq!(out.per_thread[1], out.per_thread[2]);
    }

    #[test]
    fn virtual_overlap_is_bounded_by_quantum() {
        // Record the max observed skew between two lanes at sync points; it
        // can exceed the quantum only by one charge granule.
        let skew = AtomicUsize::new(0);
        let a = AtomicU64::new(0);
        let b = AtomicU64::new(0);
        let sim = Sim {
            threads: 2,
            quantum: 100,
            profile: CostProfile::Haswell,
        };
        sim.run(|lane| {
            for _ in 0..2000 {
                clock::charge(CostKind::SharedStore);
                let me = clock::now();
                let (mine, other) = if lane == 0 { (&a, &b) } else { (&b, &a) };
                mine.store(me, Ordering::Relaxed);
                let them = other.load(Ordering::Relaxed);
                // Only count cases where I'm ahead (them lags behind me).
                if me > them {
                    let s = (me - them) as usize;
                    skew.fetch_max(s, Ordering::Relaxed);
                }
            }
        });
        // A lane may be at most quantum + one charge ahead of a *running*
        // peer; the peer's published clock may additionally lag by up to a
        // quantum of unpublished charges. Allow 3 quanta of slack.
        assert!(
            skew.load(Ordering::Relaxed) <= 300 + 8,
            "skew {} exceeds bound",
            skew.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn makespan_is_max_of_lane_clocks() {
        let out = Sim::new(5).run(|lane| {
            clock::charge_cycles((lane as u64 + 1) * 1000);
        });
        assert_eq!(out.makespan, 5000);
    }

    #[test]
    fn many_lanes_on_one_core_terminate() {
        // 8 lanes (the paper's max) with mixed charge patterns.
        let out = Sim::new(8).run(|lane| {
            for i in 0..500 {
                if (i + lane) % 3 == 0 {
                    clock::charge(CostKind::Cas);
                } else {
                    clock::charge(CostKind::SharedLoad);
                }
            }
        });
        assert_eq!(out.per_thread.len(), 8);
        assert!(out.makespan > 0);
    }

    #[test]
    fn imbalanced_lanes_still_converge() {
        // Heavy imbalance with a small quantum: fast lanes must park and
        // poll while the laggard's published clocks release them. If the
        // root-bound fast path ever let a lane skip a required wait, the
        // skew assertions elsewhere would catch it; here we pin the exact
        // final clocks.
        let sim = Sim {
            threads: 4,
            quantum: 10,
            profile: CostProfile::Haswell,
        };
        let out = sim.run(|lane| {
            let reps = if lane == 0 { 20_000 } else { 500 };
            for _ in 0..reps {
                clock::charge_cycles(3);
            }
        });
        assert_eq!(out.per_thread[0], 60_000);
        assert_eq!(out.per_thread[1], 1_500);
    }

    #[test]
    fn sixty_four_lanes_progress_together() {
        // Tree width 64: identical work ⇒ identical final clocks, same as
        // the 4-lane invariant (the tree must not let any lane run free).
        let out = Sim::new(64).run(|_| {
            for _ in 0..300 {
                clock::charge(CostKind::SharedLoad);
            }
        });
        assert_eq!(out.per_thread.len(), 64);
        let min = *out.per_thread.iter().min().unwrap();
        let max = *out.per_thread.iter().max().unwrap();
        assert_eq!(min, max);
    }

    #[test]
    fn sixty_four_lanes_skew_is_bounded() {
        // Every lane records the max lead it observes over the slowest
        // published peer clock at its own sync points.
        const LANES: usize = 64;
        let published: Vec<CachePadded<AtomicU64>> =
            (0..LANES).map(|_| CachePadded::new(AtomicU64::new(0))).collect();
        let skew = AtomicU64::new(0);
        let sim = Sim {
            threads: LANES,
            quantum: 100,
            profile: CostProfile::Haswell,
        };
        sim.run(|lane| {
            for _ in 0..400 {
                clock::charge(CostKind::SharedStore);
                let me = clock::now();
                published[lane].store(me, Ordering::Relaxed);
                let lag = published
                    .iter()
                    .map(|p| p.load(Ordering::Relaxed))
                    .filter(|&p| p > 0)
                    .min()
                    .unwrap_or(me);
                if me > lag {
                    skew.fetch_max(me - lag, Ordering::Relaxed);
                }
            }
        });
        // Same tolerance argument as the 2-lane test: quantum of true
        // skew + quantum of unpublished lag + a charge granule per side.
        assert!(
            skew.load(Ordering::Relaxed) <= 300 + 8,
            "64-lane skew {} exceeds bound",
            skew.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn two_hundred_fifty_six_imbalanced_lanes_converge() {
        // The stale-bound starvation shape: one slow laggard, 255 fast
        // lanes that all park. Every parked lane's release depends on the
        // laggard's climbs (or the exact-scan backstop) refreshing the
        // root — a stale flat cache would strand the fast lanes. Exact
        // final clocks are pinned: the work is lane-private.
        let sim = Sim {
            threads: 256,
            quantum: 50,
            profile: CostProfile::Haswell,
        };
        let out = sim.run(|lane| {
            let reps = if lane == 0 { 4_000 } else { 200 };
            for _ in 0..reps {
                clock::charge_cycles(3);
            }
        });
        assert_eq!(out.per_thread[0], 12_000);
        for lane in 1..256 {
            assert_eq!(out.per_thread[lane], 600, "lane {lane}");
        }
    }

    #[test]
    fn parks_are_counted_at_scale() {
        // The diagnostic must still fire when the tree (not the flat
        // scan) is doing the bounding.
        let sim = Sim {
            threads: 64,
            quantum: 10,
            profile: CostProfile::Haswell,
        };
        let gate = Arc::new(Gate::new(sim.threads, sim.quantum, sim.profile));
        sim.run_on(Arc::clone(&gate), |lane| {
            let reps = if lane == 0 { 2_000 } else { 50 };
            for _ in 0..reps {
                clock::charge_cycles(3);
            }
        });
        assert!(
            gate.park_count() > 0,
            "63 fast lanes against a laggard never parked"
        );
    }

    #[test]
    fn numa_profile_charges_remote_lanes_more() {
        // Same per-lane op sequence; lanes ≥ 8 sit on remote sockets and
        // pay the surcharge, so the makespan is set by a remote lane.
        let haswell = Sim::new(16).run(|_| {
            for _ in 0..100 {
                clock::charge(CostKind::Cas);
            }
        });
        let numa = Sim::new(16)
            .with_profile(CostProfile::NumaIsh)
            .run(|_| {
                for _ in 0..100 {
                    clock::charge(CostKind::Cas);
                }
            });
        let local = 100 * crate::cost::cycles(CostKind::Cas);
        let remote = 100 * crate::cost::numa_remote_cycles(CostKind::Cas);
        assert_eq!(haswell.makespan, local);
        assert_eq!(numa.makespan, remote);
        assert_eq!(numa.per_thread[0], local, "socket 0 stays Haswell");
        assert_eq!(numa.per_thread[8], remote, "socket 1 pays the hop");
    }

    #[test]
    fn numa_on_one_socket_is_bit_identical_to_haswell() {
        let body = |_lane: usize| {
            for i in 0..200u64 {
                if i % 3 == 0 {
                    clock::charge(CostKind::Cas);
                } else {
                    clock::charge(CostKind::TxLoad);
                }
            }
        };
        let h = Sim::new(8).run(body);
        let n = Sim::new(8).with_profile(CostProfile::NumaIsh).run(body);
        assert_eq!(h.per_thread, n.per_thread);
        assert_eq!(h.makespan, n.makespan);
    }
}
