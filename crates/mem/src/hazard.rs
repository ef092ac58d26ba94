//! Hazard-pointer reclamation (Michael, TPDS'04).
//!
//! The paper's §2.3 singles out hazard-pointer maintenance as a class of
//! *redundant stores* a prefix transaction eliminates: publishing a hazard
//! costs a store and a fence, clearing it another store, and the
//! intermediate insertion-followed-by-removal on the hazard list is dead
//! work inside a transaction (opacity already guarantees the transaction
//! never acts on recycled memory). Structures built on this module (the
//! Michael–Scott queue in `pto-msqueue`) pay these costs only on their
//! lock-free fallback paths.
//!
//! The domain protects **pool slot indices** rather than raw pointers: a
//! protected index cannot be handed back to its pool's free list while any
//! thread's hazard slot holds it.
//!
//! Lanes are **leased**: a thread claims a lane on first use and a
//! thread-local `Drop` guard releases it on thread exit (mirroring
//! `epoch::SlotLease`), clearing the thread's hazard slots and parking its
//! not-yet-reclaimed retired list on the domain's orphan list, which any
//! later [`HazardDomain::scan`] drains. Without the guard, >`MAX_THREADS`
//! short-lived threads would exhaust the lane table and every exiting
//! thread's retired slots would leak.

use crate::counters;
use crate::lazyslots::{self, LazySlots};
use crate::pool::Pool;
use pto_sim::obs::{self, Event};
use pto_sim::pad::CachePadded;
use pto_sim::sync::Mutex;
use pto_sim::{charge, CostKind};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Max threads concurrently registered in one domain. Lanes live in a
/// lazily-segmented table, so a domain touched by ≤128 threads allocates
/// (and scans) only the first 128-lane segment.
pub const MAX_THREADS: usize = lazyslots::CAPACITY;
/// Hazard slots per thread (the MS queue needs 3: head, tail, next).
pub const SLOTS_PER_THREAD: usize = 3;
/// Retired-list length that triggers a reclamation scan.
const SCAN_THRESHOLD: usize = 64;

const EMPTY: u64 = u64::MAX;

/// One thread's lane: its hazard slots plus the lease flag, padded
/// together so neighbouring lanes never share a line.
struct Lane {
    hazards: [AtomicU64; SLOTS_PER_THREAD],
    claimed: AtomicBool,
}

impl Default for Lane {
    fn default() -> Self {
        Lane {
            hazards: [const { AtomicU64::new(EMPTY) }; SLOTS_PER_THREAD],
            claimed: AtomicBool::new(false),
        }
    }
}

/// The shared state of a domain. Kept behind an `Arc` so the thread-local
/// lease guards can still release lanes and park orphans when a thread
/// exits after the `HazardDomain` owner moved on (or vice versa).
struct DomainCore {
    lanes: LazySlots<CachePadded<Lane>>,
    /// Retired slots from exited threads, awaiting a scan by anyone.
    orphans: Mutex<Vec<u32>>,
    id: u64,
}

/// One hazard-pointer domain; typically one per data structure.
pub struct HazardDomain {
    core: Arc<DomainCore>,
}

static NEXT_DOMAIN_ID: AtomicU64 = AtomicU64::new(0);

/// A thread's lease on one domain: the claimed lane plus the thread-local
/// retired list for that domain.
struct Lease {
    core: Arc<DomainCore>,
    lane: usize,
    retired: Vec<u32>,
}

/// Thread-local lease table. Its `Drop` (thread exit) returns every lane
/// and parks every retired list — the hazard analogue of `epoch::SlotLease`.
struct LeaseSet {
    leases: RefCell<Vec<Lease>>,
}

impl Drop for LeaseSet {
    fn drop(&mut self) {
        for lease in self.leases.borrow_mut().drain(..) {
            let lane = lease.core.lanes.slot(lease.lane);
            // Clear our hazard slots first so a concurrent scan never sees
            // a stale protection from a dead thread.
            for h in &lane.hazards {
                h.store(EMPTY, Ordering::Release);
            }
            if !lease.retired.is_empty() {
                counters::record_orphans_parked(lease.retired.len() as u64);
                lease.core.orphans.lock().extend(lease.retired);
            }
            lane.claimed.store(false, Ordering::Release);
            counters::record_lane_released();
        }
    }
}

thread_local! {
    static LEASES: LeaseSet = const {
        LeaseSet {
            leases: RefCell::new(Vec::new()),
        }
    };
    static SCAN_SCRATCH: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

impl Default for HazardDomain {
    fn default() -> Self {
        Self::new()
    }
}

impl HazardDomain {
    pub fn new() -> Self {
        HazardDomain {
            core: Arc::new(DomainCore {
                lanes: LazySlots::new(),
                orphans: Mutex::new(Vec::new()),
                id: NEXT_DOMAIN_ID.fetch_add(1, Ordering::Relaxed),
            }),
        }
    }

    /// Run `f` with this thread's lease for this domain, claiming a lane on
    /// first use.
    fn with_lease<R>(&self, f: impl FnOnce(&mut Lease) -> R) -> R {
        LEASES.with(|set| {
            let mut leases = set.leases.borrow_mut();
            if let Some(lease) = leases.iter_mut().find(|l| l.core.id == self.core.id) {
                return f(lease);
            }
            let lane = self.claim_lane();
            leases.push(Lease {
                core: Arc::clone(&self.core),
                lane,
                retired: Vec::new(),
            });
            f(leases.last_mut().unwrap())
        })
    }

    fn claim_lane(&self) -> usize {
        // Segment-by-segment: a segment is only materialized once every
        // earlier one scanned full, so small runs stay within 128 lanes.
        for seg in 0..lazyslots::NUM_SEGS {
            let (base, lanes) = self.core.lanes.segment(seg);
            for (off, lane) in lanes.iter().enumerate() {
                if !lane.claimed.load(Ordering::Acquire)
                    && lane
                        .claimed
                        .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                        .is_ok()
                {
                    return base + off;
                }
            }
        }
        panic!("hazard domain lanes exhausted");
    }

    fn my_lane(&self) -> usize {
        self.with_lease(|l| l.lane)
    }

    #[inline]
    fn slot(&self, lane: usize, k: usize) -> &AtomicU64 {
        debug_assert!(k < SLOTS_PER_THREAD);
        &self.core.lanes.slot(lane).hazards[k]
    }

    /// Every hazard slot of every **allocated** lane segment. A lane in an
    /// unallocated segment was never claimed, so its slots are all `EMPTY`
    /// by construction — skipping them is exact and keeps scans O(lanes
    /// ever claimed), not O(`MAX_THREADS`).
    fn all_hazards(&self) -> impl Iterator<Item = &AtomicU64> {
        self.core.lanes.iter().flat_map(|l| l.hazards.iter())
    }

    /// Publish hazard slot `k` = `idx`. Charges the store **and the fence**
    /// Michael's algorithm requires between publishing and re-validating —
    /// the exact cost §2.3 elides inside prefix transactions.
    pub fn protect(&self, k: usize, idx: u32) {
        charge(CostKind::SharedStore);
        charge(CostKind::Fence);
        let lane = self.my_lane();
        self.slot(lane, k).store(idx as u64, Ordering::SeqCst);
    }

    /// Clear hazard slot `k`. Charges one store.
    pub fn clear(&self, k: usize) {
        charge(CostKind::SharedStore);
        let lane = self.my_lane();
        self.slot(lane, k).store(EMPTY, Ordering::Release);
    }

    /// Clear every slot owned by this thread (end of an operation).
    pub fn clear_all(&self) {
        let lane = self.my_lane();
        for k in 0..SLOTS_PER_THREAD {
            charge(CostKind::SharedStore);
            self.slot(lane, k).store(EMPTY, Ordering::Release);
        }
    }

    /// Is `idx` currently protected by any thread? (Diagnostics; the scan
    /// batches this check over a snapshot instead.)
    pub fn is_protected(&self, idx: u32) -> bool {
        self.all_hazards()
            .any(|h| h.load(Ordering::Acquire) == idx as u64)
    }

    /// Retire a slot: it returns to `pool`'s free list once no hazard
    /// protects it. Charges `PoolFree` (the logical deallocation).
    pub fn retire<T: Default>(&self, pool: &Pool<T>, idx: u32) {
        charge(CostKind::PoolFree);
        let should_scan = self.with_lease(|l| {
            l.retired.push(idx);
            l.retired.len() >= SCAN_THRESHOLD
        });
        if should_scan {
            self.scan(pool);
        }
    }

    /// Retired slots parked by exited threads, not yet reclaimed
    /// (diagnostics).
    pub fn orphan_count(&self) -> usize {
        self.core.orphans.lock().len()
    }

    /// Reclamation scan: move every retired slot not currently protected
    /// back to the pool. Uncharged machinery (amortized away in Michael's
    /// accounting; the per-op costs are the protect/clear stores).
    pub fn scan<T: Default>(&self, pool: &Pool<T>) {
        counters::record_hazard_scan();
        obs::emit(Event::HazardScanBegin);
        let mut reclaimed = 0u64;
        // Snapshot the hazard table once.
        SCAN_SCRATCH.with(|s| {
            let mut snap = s.borrow_mut();
            snap.clear();
            snap.extend(
                self.all_hazards()
                    .map(|h| h.load(Ordering::Acquire))
                    .filter(|&v| v != EMPTY),
            );
            snap.sort_unstable();
            self.with_lease(|l| {
                let mut freed = 0u64;
                l.retired.retain(|&idx| {
                    if snap.binary_search(&(idx as u64)).is_ok() {
                        true // still protected
                    } else {
                        pool.free_quiet(idx);
                        freed += 1;
                        false
                    }
                });
                counters::record_hazard_reclaimed(freed);
                reclaimed += freed;
            });
            // Also drain orphans left by exited threads.
            let mut orphans = self.core.orphans.lock();
            let mut drained = 0u64;
            orphans.retain(|&idx| {
                if snap.binary_search(&(idx as u64)).is_ok() {
                    true
                } else {
                    pool.free_quiet(idx);
                    drained += 1;
                    false
                }
            });
            counters::record_orphans_drained(drained);
            reclaimed += drained;
        });
        obs::emit(Event::HazardScanEnd { reclaimed });
    }

    /// Number of currently published hazards (diagnostics).
    pub fn active_hazards(&self) -> usize {
        self.all_hazards()
            .filter(|h| h.load(Ordering::Relaxed) != EMPTY)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pto_htm::TxWord;

    #[derive(Default)]
    struct Node {
        v: TxWord,
    }

    #[test]
    fn protect_blocks_reclamation_clear_allows_it() {
        let pool: Pool<Node> = Pool::new();
        let d = HazardDomain::new();
        let idx = pool.alloc();
        d.protect(0, idx);
        // Retire enough dummies to force scans.
        let mut dummies = Vec::new();
        for _ in 0..SCAN_THRESHOLD + 4 {
            dummies.push(pool.alloc());
        }
        d.retire(&pool, idx);
        for dummy in dummies {
            d.retire(&pool, dummy);
        }
        d.scan(&pool);
        // idx must not be recycled: allocate a bunch, none may equal idx.
        let mut got = Vec::new();
        for _ in 0..SCAN_THRESHOLD + 8 {
            let a = pool.alloc();
            assert_ne!(a, idx, "protected slot was recycled");
            got.push(a);
        }
        for g in got {
            pool.free_now(g);
        }
        d.clear(0);
        d.scan(&pool);
        let mut seen = false;
        for _ in 0..SCAN_THRESHOLD + 8 {
            let a = pool.alloc();
            if a == idx {
                seen = true;
                pool.free_now(a);
                break;
            }
            pool.free_now(a);
        }
        assert!(seen, "cleared slot never recycled");
    }

    #[test]
    fn clear_all_clears_every_slot() {
        let d = HazardDomain::new();
        d.protect(0, 1);
        d.protect(1, 2);
        d.protect(2, 3);
        assert_eq!(d.active_hazards(), 3);
        d.clear_all();
        assert_eq!(d.active_hazards(), 0);
    }

    #[test]
    fn protect_charges_store_plus_fence() {
        let d = HazardDomain::new();
        d.protect(0, 1); // warm the lane lease
        pto_sim::clock::reset();
        d.protect(0, 7);
        assert_eq!(
            pto_sim::now(),
            pto_sim::cost::cycles(CostKind::SharedStore) + pto_sim::cost::cycles(CostKind::Fence)
        );
        d.clear_all();
    }

    #[test]
    fn exiting_threads_release_lanes_and_park_orphans() {
        // Regression: lanes claimed in `my_lane` were never released and
        // exiting threads dropped their retired lists on the floor, so
        // > MAX_THREADS short-lived threads panicked "hazard domain lanes
        // exhausted" and retired slots leaked forever. Several waves of
        // threads, each retiring nodes, must all get lanes, and a final
        // scan must reclaim every parked orphan.
        let pool: Pool<Node> = Pool::new();
        let d = HazardDomain::new();
        const WAVES: usize = 6;
        const PER_WAVE: usize = 32; // 6 × 32 = 192 > MAX_THREADS
        const RETIRES: usize = 5; // < SCAN_THRESHOLD: stays on the TLS list
        for _ in 0..WAVES {
            std::thread::scope(|s| {
                for _ in 0..PER_WAVE {
                    let (pool, d) = (&pool, &d);
                    s.spawn(move || {
                        for i in 0..RETIRES {
                            let idx = pool.alloc();
                            pool.get(idx).v.init(i as u64);
                            d.protect(0, idx);
                            d.clear(0);
                            d.retire(pool, idx);
                        }
                    });
                }
            });
        }
        // Every exited thread parks its retired list as orphans — but
        // `thread::scope` unblocks when the spawned closure finishes, which
        // is *before* the thread's TLS destructors (the `LeaseSet` guard
        // doing the parking) run, so give stragglers a bounded grace.
        let expect = WAVES * PER_WAVE * RETIRES;
        let mut tries = 0u64;
        while d.orphan_count() < expect && tries < 10_000_000 {
            std::thread::yield_now();
            tries += 1;
        }
        assert_eq!(d.orphan_count(), expect);
        assert_eq!(d.active_hazards(), 0, "dead threads left hazards set");
        // Any thread's scan drains them back to the pool.
        d.scan(&pool);
        assert_eq!(d.orphan_count(), 0, "orphans not drained by scan");
        assert_eq!(pool.live(), 0, "retired slots leaked");
    }

    #[test]
    fn more_than_128_threads_protect_simultaneously() {
        // Regression for the server-scale lane cap: the lane table used to
        // be flat 128 entries and the 129th simultaneous claimer panicked.
        // 160 threads each publish a distinct hazard and hold it; the
        // domain must see all of them at once.
        use std::sync::Barrier;
        const N: usize = 160;
        let d = HazardDomain::new();
        let published = Barrier::new(N + 1);
        let release = Barrier::new(N + 1);
        std::thread::scope(|s| {
            for i in 0..N {
                let (d, published, release) = (&d, &published, &release);
                s.spawn(move || {
                    d.protect(0, i as u32);
                    published.wait();
                    release.wait();
                    d.clear_all();
                });
            }
            published.wait();
            assert_eq!(d.active_hazards(), N);
            for i in 0..N {
                assert!(d.is_protected(i as u32), "hazard {i} lost");
            }
            release.wait();
        });
    }

    #[test]
    fn lane_reuse_is_observed_by_counters() {
        // Each lane's lease is released by a thread-exit destructor;
        // `Sim::run` joins its lanes whole, so all four releases are in
        // the scope when it returns.
        let d = HazardDomain::new();
        let scope = crate::MemScope::new();
        pto_sim::Sim::new(4).run(|_| {
            d.protect(0, 9);
            d.clear(0);
        });
        assert_eq!(
            scope.snapshot().lanes_released,
            4,
            "lease drops not counted"
        );
    }

    #[test]
    fn concurrent_protect_retire_never_recycles_live_nodes() {
        let pool: Pool<Node> = Pool::new();
        let d = HazardDomain::new();
        // Writer threads allocate, publish a value, retire; reader threads
        // protect-then-validate and must never observe a recycled value
        // (each node writes its own slot id, so a recycled node would show
        // a foreign value).
        let shared = TxWord::new(u32::MAX as u64);
        use std::sync::atomic::Ordering::*;
        std::thread::scope(|s| {
            for _ in 0..2 {
                let (pool, d, shared) = (&pool, &d, &shared);
                s.spawn(move || {
                    for _ in 0..3_000 {
                        let idx = pool.alloc();
                        pool.get(idx).v.init(idx as u64);
                        let old = shared.swap(idx as u64, AcqRel);
                        if old != u32::MAX as u64 {
                            d.retire(pool, old as u32);
                        }
                    }
                });
            }
            for _ in 0..2 {
                let (pool, d, shared) = (&pool, &d, &shared);
                s.spawn(move || {
                    for _ in 0..3_000 {
                        // protect-validate loop
                        let idx = loop {
                            let i = shared.load(Acquire);
                            if i == u32::MAX as u64 {
                                break None;
                            }
                            d.protect(0, i as u32);
                            if shared.load(Acquire) == i {
                                break Some(i as u32);
                            }
                        };
                        if let Some(idx) = idx {
                            let v = pool.get(idx).v.load(Acquire);
                            assert_eq!(v, idx as u64, "read a recycled node");
                            d.clear(0);
                        }
                    }
                });
            }
        });
    }
}
