//! Flat combining (Hendler/Incze/Shavit/Tzafrir, SPAA'10) — the related
//! technique §6 of the paper compares against: "combining techniques ...
//! do not perform well on search data structures, and they sacrifice
//! nonblocking progress. In contrast, our technique can perform well on
//! search structures, and it preserves the original progress guarantees."
//!
//! This module provides the baseline that lets the benchmark suite measure
//! that sentence: threads *publish* requests into per-thread slots; one
//! thread (the combiner) takes a lock and services every pending request
//! against a **sequential** structure; the rest spin on their slots.
//! Combining batches lock handoffs away, but throughput stays bounded by
//! one thread's sequential application rate — which is why it cannot keep
//! up with lock-free search structures under concurrency.
//!
//! Cost model: publication is a store + fence; waiting charges spin
//! iterations; the combiner charges a load/store per serviced slot plus
//! whatever the caller's `apply` charges for the sequential operation.

use pto_sim::obs::{self, Event, Site};
use pto_sim::pad::CachePadded;
use pto_sim::stats::Counter;
use pto_sim::sync::Mutex;
use pto_sim::{charge, CostKind};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Publication slots (max simultaneously registered threads).
const MAX_THREADS: usize = 128;

/// Request tag: set while the request awaits service.
const PENDING: u64 = 1 << 63;

struct Slot {
    req: CachePadded<AtomicU64>,
    resp: AtomicU64,
}

static NEXT_FC_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static FC_LANES: RefCell<Vec<(u64, usize)>> = const { RefCell::new(Vec::new()) };
}

/// Outcome counters for a flat-combined structure: how often requests were
/// published, how many combining passes ran, and how many requests each
/// pass serviced (the batching the technique lives or dies by).
#[derive(Default, Debug)]
pub struct FcStats {
    /// Requests published into a slot.
    pub published: Counter,
    /// Combining passes (lock acquisitions that scanned the slots).
    pub combines: Counter,
    /// Requests serviced across all combining passes (≥ `combines`;
    /// `serviced / combines` is the mean batch size).
    pub serviced: Counter,
}

impl FcStats {
    pub const fn new() -> Self {
        FcStats {
            published: Counter::new(),
            combines: Counter::new(),
            serviced: Counter::new(),
        }
    }

    pub fn reset(&self) {
        self.published.reset();
        self.combines.reset();
        self.serviced.reset();
    }
}

/// A flat-combined wrapper around a sequential structure `S`.
///
/// All callers of [`FlatCombining::execute`] must pass behaviorally
/// identical `apply` functions (the combiner services *other* threads'
/// requests with *its* closure) — the usual flat-combining contract.
pub struct FlatCombining<S> {
    seq: Mutex<S>,
    slots: Box<[Slot]>,
    claimed: Box<[AtomicBool]>,
    id: u64,
    pub stats: FcStats,
}

impl<S> FlatCombining<S> {
    pub fn new(initial: S) -> Self {
        FlatCombining {
            seq: Mutex::new(initial),
            slots: (0..MAX_THREADS)
                .map(|_| Slot {
                    req: CachePadded::new(AtomicU64::new(0)),
                    resp: AtomicU64::new(0),
                })
                .collect(),
            claimed: (0..MAX_THREADS).map(|_| AtomicBool::new(false)).collect(),
            id: NEXT_FC_ID.fetch_add(1, Ordering::Relaxed),
            stats: FcStats::new(),
        }
    }

    fn my_lane(&self) -> usize {
        FC_LANES.with(|l| {
            let mut l = l.borrow_mut();
            if let Some(&(_, lane)) = l.iter().find(|&&(id, _)| id == self.id) {
                return lane;
            }
            for i in 0..MAX_THREADS {
                if !self.claimed[i].load(Ordering::Acquire)
                    && self.claimed[i]
                        .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                        .is_ok()
                {
                    l.push((self.id, i));
                    return i;
                }
            }
            panic!("flat-combining lanes exhausted");
        })
    }

    /// Execute `request` (any value with bit 63 clear) atomically against
    /// the sequential structure, either by combining for everyone or by
    /// having the current combiner do it for us. Blocking by design —
    /// that is the progress guarantee flat combining gives up.
    #[track_caller]
    pub fn execute(&self, request: u64, apply: impl Fn(&mut S, u64) -> u64) -> u64 {
        assert_eq!(request & PENDING, 0, "bit 63 is the pending tag");
        let _op = obs::op(Site::caller());
        let lane = self.my_lane();
        let slot = &self.slots[lane];
        // Publish.
        charge(CostKind::SharedStore);
        charge(CostKind::Fence);
        self.stats.published.inc();
        slot.req.store(request | PENDING, Ordering::SeqCst);
        loop {
            if let Some(mut s) = self.seq.try_lock() {
                // We are the combiner: one lock acquisition (charged as a
                // CAS) services every pending request.
                obs::emit(Event::CombineBegin);
                charge(CostKind::Cas);
                self.stats.combines.inc();
                let mut round = 0u64;
                for other in self.slots.iter() {
                    charge(CostKind::SharedLoad);
                    let r = other.req.load(Ordering::Acquire);
                    if r & PENDING != 0 {
                        let resp = apply(&mut s, r & !PENDING);
                        self.stats.serviced.inc();
                        round += 1;
                        charge(CostKind::SharedStore);
                        other.resp.store(resp, Ordering::Release);
                        charge(CostKind::SharedStore);
                        other.req.store(r & !PENDING, Ordering::Release);
                    }
                }
                charge(CostKind::SharedStore); // lock release
                obs::emit(Event::CombineEnd { serviced: round });
            }
            charge(CostKind::SharedLoad);
            if slot.req.load(Ordering::Acquire) & PENDING == 0 {
                return slot.resp.load(Ordering::Acquire);
            }
            // Waiting for the combiner lane to service the slot:
            // gate-aware wait (charged for its virtual duration, not per
            // physical poll).
            pto_sim::spin_wait_tick();
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_applies_in_order() {
        let fc = FlatCombining::new(Vec::<u64>::new());
        for i in 0..10 {
            let len = fc.execute(i, |v, req| {
                v.push(req);
                v.len() as u64
            });
            assert_eq!(len, i + 1);
        }
    }

    #[test]
    fn concurrent_counter_is_exact() {
        let fc = FlatCombining::new(0u64);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let fc = &fc;
                s.spawn(move || {
                    for _ in 0..5_000 {
                        fc.execute(1, |c, d| {
                            *c += d;
                            *c
                        });
                    }
                });
            }
        });
        let total = fc.execute(0, |c, _| *c);
        assert_eq!(total, 20_000);
    }

    #[test]
    fn combined_set_matches_oracle() {
        use std::collections::BTreeSet;
        let fc = FlatCombining::new(BTreeSet::<u64>::new());
        let apply = |s: &mut BTreeSet<u64>, req: u64| -> u64 {
            let (op, k) = (req >> 60, req & ((1 << 60) - 1));
            match op {
                0 => s.insert(k) as u64,
                1 => s.remove(&k) as u64,
                _ => s.contains(&k) as u64,
            }
        };
        let mut oracle = BTreeSet::new();
        let mut rng = pto_sim::rng::XorShift64::new(321);
        for _ in 0..3_000 {
            let k = rng.below(100);
            match rng.below(3) {
                0 => assert_eq!(fc.execute(k, apply) == 1, oracle.insert(k)),
                1 => assert_eq!(fc.execute((1 << 60) | k, apply) == 1, oracle.remove(&k)),
                _ => assert_eq!(fc.execute((2 << 60) | k, apply) == 1, oracle.contains(&k)),
            }
        }
    }

    #[test]
    fn stats_count_publishes_combines_and_batches() {
        let fc = FlatCombining::new(0u64);
        for _ in 0..5 {
            fc.execute(1, |c, d| {
                *c += d;
                *c
            });
        }
        // Single-threaded: every publish combines for itself and services
        // exactly its own request.
        assert_eq!(fc.stats.published.get(), 5);
        assert_eq!(fc.stats.combines.get(), 5);
        assert_eq!(fc.stats.serviced.get(), 5);
    }

    #[test]
    fn combining_batches_under_concurrency() {
        // With contention, some combiner services other threads' requests:
        // serviced == published, but combines ≤ published (batching).
        let fc = FlatCombining::new(0u64);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let fc = &fc;
                s.spawn(move || {
                    for _ in 0..2_000 {
                        fc.execute(1, |c, d| {
                            *c += d;
                            *c
                        });
                    }
                });
            }
        });
        assert_eq!(fc.stats.serviced.get(), fc.stats.published.get());
        assert!(fc.stats.combines.get() <= fc.stats.published.get());
    }

    #[test]
    fn publication_is_charged() {
        let fc = FlatCombining::new(0u64);
        fc.execute(0, |c, _| *c); // warm lane lease
        pto_sim::clock::reset();
        fc.execute(1, |c, d| {
            *c += d;
            *c
        });
        // At least publish (store+fence) + lock CAS + scan work.
        assert!(
            pto_sim::now()
                >= pto_sim::cost::cycles(CostKind::SharedStore)
                    + pto_sim::cost::cycles(CostKind::Fence)
                    + pto_sim::cost::cycles(CostKind::Cas)
        );
    }

    #[test]
    #[should_panic(expected = "pending tag")]
    fn rejects_tagged_requests() {
        let fc = FlatCombining::new(0u64);
        fc.execute(1 << 63, |c, _| *c);
    }
}
