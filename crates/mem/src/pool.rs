//! Segmented, index-addressed node pools with epoch-deferred recycling.
//!
//! Nodes are identified by `u32` slot indices, the workspace's "pointers":
//! data structures store them (with mark/tag bits) inside
//! [`TxWord`](pto_htm::TxWord)s. Segments are append-only and never move,
//! so `get()` hands out `&T` with no synchronization and a stale index is
//! never UB — at worst it reads a recycled node, which the HTM's version
//! validation (transactional readers) or the epoch grace period
//! (fallback readers) turns into an abort/retry.
//!
//! Cost model: `alloc` charges `PoolAlloc` plus `AllocContend` per *other*
//! thread currently inside an allocation, modeling the shared-allocator
//! bottleneck of §4.5; `retire`/`free_now` charge `PoolFree`. The pool's
//! internal free list and limbo queue are simulation machinery and use
//! plain atomics/locks that charge nothing.
//!
//! Wallclock design (PR 4; all *charges* above are unchanged): each pool
//! keeps a per-thread [`PerThread`] record — a free-slot **magazine** and a
//! **limbo stage** — keyed by the thread's epoch-registry slot. The common
//! alloc/free pair moves a slot index in and out of the calling thread's
//! magazine without touching the shared Treiber list; magazines refill
//! from and flush to it in batches. `retire` stages `(epoch, slot)` pairs
//! locally and flushes them to the shared limbo queue in batches (and
//! always before draining), so the limbo mutex is taken once per batch
//! instead of once per retirement. Reclamation counters still count each
//! drained slot exactly once, and grace periods are judged by the epoch
//! recorded at `retire` time, so staging only ever *delays* recycling —
//! it never lets a slot recycle early.

use crate::epoch;
use pto_sim::obs::{self, Event};
use pto_sim::pad::CachePadded;
use pto_sim::sync::Mutex;
use pto_sim::{charge, charge_n, CostKind};
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;

/// The null slot index.
pub const NIL: u32 = u32::MAX;

/// Number of doubling segments; with `SEG0 = 1024` this admits ~2^32 slots,
/// far beyond any benchmark.
const SEGMENTS: usize = 22;
const SEG0_BITS: u32 = 10;
const SEG0: usize = 1 << SEG0_BITS;

/// `(segment, offset)` for a slot index under the doubling layout:
/// segment k holds `SEG0 << k` slots starting at `SEG0 * (2^k - 1)`.
#[inline]
fn locate(idx: u32) -> (usize, usize) {
    let n = (idx as usize / SEG0) + 1;
    let seg = (usize::BITS - 1 - n.leading_zeros()) as usize;
    let base = SEG0 * ((1 << seg) - 1);
    (seg, idx as usize - base)
}

#[inline]
fn segment_capacity_through(seg: usize) -> usize {
    SEG0 * ((1 << (seg + 1)) - 1)
}

/// Per-thread magazine capacity; half is kept through a refill/flush so
/// alternating alloc/free streaks do not ping-pong on the shared list.
const MAG_CAP: usize = 32;
const MAG_KEEP: usize = MAG_CAP / 2;
/// Per-thread limbo stage capacity (retirements buffered between flushes).
const STAGE_CAP: usize = 16;

/// Per-thread pool state: a magazine of immediately reusable slots and a
/// stage of retired `(epoch, slot)` pairs awaiting a batched limbo flush.
struct PerThread {
    mag: [u32; MAG_CAP],
    mag_len: usize,
    stage: [(u64, u32); STAGE_CAP],
    stage_len: usize,
}

impl PerThread {
    const fn new() -> Self {
        PerThread {
            mag: [NIL; MAG_CAP],
            mag_len: 0,
            stage: [(0, NIL); STAGE_CAP],
            stage_len: 0,
        }
    }
}

/// One thread-slot's record, padded so neighbouring slots never share a
/// cache line.
struct PerThreadCell(CachePadded<UnsafeCell<PerThread>>);

impl Default for PerThreadCell {
    fn default() -> Self {
        PerThreadCell(CachePadded::new(UnsafeCell::new(PerThread::new())))
    }
}

// SAFETY: `PerThreadCell` lives in an array indexed by
// `epoch::thread_slot()`. A slot is leased to exactly one live thread at a
// time, and lease recycling hands the slot over with a release store /
// acquire CAS on the registry's `claimed` flag, so accesses to one cell
// from successive owners are ordered and never concurrent.
unsafe impl Sync for PerThreadCell {}

/// A typed slot pool. `T: Default + Sync` — nodes are built from `TxWord`s
/// and re-initialized in place on reuse.
///
/// ```
/// use pto_htm::TxWord;
/// use pto_mem::Pool;
///
/// #[derive(Default)]
/// struct Node { key: TxWord, next: TxWord }
///
/// let pool: Pool<Node> = Pool::new();
/// let a = pool.alloc();
/// pool.get(a).key.init(7);
/// assert_eq!(pool.get(a).key.peek(), 7);
/// // Never-published slots recycle immediately; shared ones use
/// // `retire()` and wait out the epoch grace period.
/// pool.free_now(a);
/// ```
pub struct Pool<T> {
    segments: [OnceLock<Box<[T]>>; SEGMENTS],
    /// Guards segment creation only.
    grow: Mutex<()>,
    /// Bump pointer over the virtual slot space.
    bump: AtomicU32,
    /// Treiber free list: head packs (stamp << 32 | idx) to defeat ABA.
    free_head: AtomicU64,
    /// Per-slot free-list links, grown alongside segments.
    links: [OnceLock<Box<[AtomicU32]>>; SEGMENTS],
    /// Retired slots awaiting their grace period, FIFO by flush order.
    limbo: Mutex<VecDeque<(u64, u32)>>,
    /// Per-thread magazines and limbo stages, indexed by epoch thread
    /// slot. Lazily segmented: each pool allocates magazine space only for
    /// the slot-index segments its callers actually occupy, so per-trial
    /// pools stay cheap even though the slot space is 1024 wide.
    per_thread: crate::lazyslots::LazySlots<PerThreadCell>,
    /// Gauge of threads currently inside `alloc` (contention model).
    in_alloc: AtomicU64,
    /// Slots handed out minus slots in free list/limbo (diagnostics).
    live: AtomicU64,
}

impl<T: Default> Pool<T> {
    /// An empty pool. No slots are allocated until first use.
    pub fn new() -> Self {
        Pool {
            segments: std::array::from_fn(|_| OnceLock::new()),
            grow: Mutex::new(()),
            bump: AtomicU32::new(0),
            free_head: AtomicU64::new(NIL as u64),
            links: std::array::from_fn(|_| OnceLock::new()),
            limbo: Mutex::new(VecDeque::new()),
            per_thread: crate::lazyslots::LazySlots::new(),
            in_alloc: AtomicU64::new(0),
            live: AtomicU64::new(0),
        }
    }

    /// The calling thread's magazine/stage record.
    ///
    /// SAFETY (of the returned `&mut`): the epoch registry leases each
    /// slot index to exactly one live thread (see [`PerThreadCell`]), this
    /// method is only called from that thread, and nothing in the pool
    /// re-enters `my_per_thread` while the borrow is held.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    fn my_per_thread(&self) -> &mut PerThread {
        unsafe { &mut *self.per_thread.slot(epoch::thread_slot()).0.get() }
    }

    fn ensure_segment(&self, seg: usize) {
        assert!(seg < SEGMENTS, "pool exhausted");
        if self.segments[seg].get().is_some() {
            return;
        }
        let _g = self.grow.lock();
        if self.segments[seg].get().is_some() {
            return;
        }
        let cap = SEG0 << seg;
        let nodes: Box<[T]> = (0..cap).map(|_| T::default()).collect();
        let links: Box<[AtomicU32]> = (0..cap).map(|_| AtomicU32::new(NIL)).collect();
        // Initialize links first: a reader never sees a segment without its
        // link array.
        let _ = self.links[seg].set(links);
        let _ = self.segments[seg].set(nodes);
    }

    fn link_at(&self, idx: u32) -> &AtomicU32 {
        let (seg, off) = locate(idx);
        &self.links[seg].get().expect("segment missing")[off]
    }

    /// Borrow the node at `idx`. Panics on `NIL` or an index that was never
    /// allocated. No cost is charged: the modeled accesses are the node's
    /// own `TxWord` operations.
    #[inline]
    pub fn get(&self, idx: u32) -> &T {
        debug_assert_ne!(idx, NIL, "dereferencing NIL");
        let (seg, off) = locate(idx);
        &self.segments[seg].get().expect("segment missing")[off]
    }

    fn pop_free(&self) -> Option<u32> {
        loop {
            let head = self.free_head.load(Ordering::Acquire);
            let idx = (head & 0xFFFF_FFFF) as u32;
            if idx == NIL {
                return None;
            }
            let next = self.link_at(idx).load(Ordering::Acquire);
            let stamp = (head >> 32).wrapping_add(1);
            let new = (stamp << 32) | next as u64;
            if self
                .free_head
                .compare_exchange_weak(head, new, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Some(idx);
            }
        }
    }

    fn push_free(&self, idx: u32) {
        loop {
            let head = self.free_head.load(Ordering::Acquire);
            self.link_at(idx)
                .store((head & 0xFFFF_FFFF) as u32, Ordering::Release);
            let stamp = (head >> 32).wrapping_add(1);
            let new = (stamp << 32) | idx as u64;
            if self
                .free_head
                .compare_exchange_weak(head, new, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return;
            }
        }
    }

    /// Flush this thread's staged retirements into the shared limbo queue
    /// (one lock acquisition per batch).
    fn flush_stage(&self, pt: &mut PerThread) {
        if pt.stage_len == 0 {
            return;
        }
        let depth = {
            let mut limbo = self.limbo.lock();
            for &(e, idx) in &pt.stage[..pt.stage_len] {
                limbo.push_back((e, idx));
            }
            limbo.len() as u64
        };
        obs::emit(Event::LimboDepth { depth });
        pt.stage_len = 0;
    }

    /// Move limbo entries whose grace period has passed onto the free list.
    /// The caller's own stage is flushed first so its retirements are
    /// visible to the drain (and to this thread's subsequent allocations).
    fn drain_limbo(&self, pt: &mut PerThread) {
        epoch::try_advance();
        self.flush_stage(pt);
        let mut ready: Vec<u32> = Vec::new();
        let depth = {
            let mut limbo = self.limbo.lock();
            while let Some(&(e, idx)) = limbo.front() {
                if epoch::is_safe(e) {
                    limbo.pop_front();
                    ready.push(idx);
                } else {
                    break;
                }
            }
            limbo.len() as u64
        };
        obs::emit(Event::LimboDepth { depth });
        crate::counters::record_limbo_reclaimed(ready.len() as u64);
        for idx in ready {
            self.push_free(idx);
        }
    }

    /// Allocate a slot. The returned node holds recycled or default
    /// contents; callers must re-initialize every field (via
    /// `TxWord::init`, which also version-bumps so stale transactional
    /// readers abort).
    ///
    /// Charges `PoolAlloc` + `AllocContend × (concurrent allocators)`.
    pub fn alloc(&self) -> u32 {
        let others = self.in_alloc.fetch_add(1, Ordering::AcqRel);
        charge(CostKind::PoolAlloc);
        charge_n(CostKind::AllocContend, others);
        let pt = self.my_per_thread();
        let idx = if pt.mag_len > 0 {
            // Magazine hit: no shared-memory traffic beyond the gauges.
            pt.mag_len -= 1;
            pt.mag[pt.mag_len]
        } else {
            self.alloc_slow(pt)
        };
        obs::emit(Event::PoolMagazine {
            len: pt.mag_len as u64,
        });
        self.in_alloc.fetch_sub(1, Ordering::AcqRel);
        self.live.fetch_add(1, Ordering::Relaxed);
        idx
    }

    #[cold]
    fn alloc_slow(&self, pt: &mut PerThread) -> u32 {
        if let Some(idx) = self.refill(pt) {
            return idx;
        }
        self.drain_limbo(pt);
        if let Some(idx) = self.refill(pt) {
            return idx;
        }
        let idx = self.bump.fetch_add(1, Ordering::AcqRel);
        assert_ne!(idx, NIL, "pool index space exhausted");
        let (seg, _) = locate(idx);
        debug_assert!((idx as usize) < segment_capacity_through(seg));
        self.ensure_segment(seg);
        idx
    }

    /// Pop one slot for the caller and refill the magazine to half from
    /// the shared free list (batching the Treiber-list CAS traffic).
    fn refill(&self, pt: &mut PerThread) -> Option<u32> {
        let first = self.pop_free()?;
        while pt.mag_len < MAG_KEEP {
            match self.pop_free() {
                Some(idx) => {
                    pt.mag[pt.mag_len] = idx;
                    pt.mag_len += 1;
                }
                None => break,
            }
        }
        Some(first)
    }

    /// Put a slot into the calling thread's magazine, flushing half to the
    /// shared free list when full.
    fn stash(&self, idx: u32) {
        let pt = self.my_per_thread();
        if pt.mag_len == MAG_CAP {
            while pt.mag_len > MAG_KEEP {
                pt.mag_len -= 1;
                self.push_free(pt.mag[pt.mag_len]);
            }
        }
        pt.mag[pt.mag_len] = idx;
        pt.mag_len += 1;
        obs::emit(Event::PoolMagazine {
            len: pt.mag_len as u64,
        });
    }

    /// Retire a slot that may still be reachable by concurrent readers: it
    /// recycles only after the epoch grace period. Charges `PoolFree`.
    ///
    /// The `(epoch, slot)` pair is staged thread-locally and flushed to
    /// the shared limbo queue in batches; the recorded epoch is read
    /// *here*, so staging delays but never shortens the grace period.
    pub fn retire(&self, idx: u32) {
        debug_assert_ne!(idx, NIL);
        charge(CostKind::PoolFree);
        self.live.fetch_sub(1, Ordering::Relaxed);
        let pt = self.my_per_thread();
        if pt.stage_len == STAGE_CAP {
            self.flush_stage(pt);
        }
        pt.stage[pt.stage_len] = (epoch::current(), idx);
        pt.stage_len += 1;
    }

    /// Return a slot that was never published to shared memory (e.g. a
    /// speculatively allocated node on a failed path): immediately
    /// reusable. Charges `PoolFree`.
    pub fn free_now(&self, idx: u32) {
        debug_assert_ne!(idx, NIL);
        charge(CostKind::PoolFree);
        self.live.fetch_sub(1, Ordering::Relaxed);
        self.stash(idx);
    }

    /// Uncharged immediate free: for reclamation *machinery* (e.g. the
    /// hazard-pointer scan) whose logical cost was already charged when the
    /// slot was retired.
    pub fn free_quiet(&self, idx: u32) {
        debug_assert_ne!(idx, NIL);
        self.live.fetch_sub(1, Ordering::Relaxed);
        self.stash(idx);
    }

    /// Live-slot gauge (allocated minus retired/freed); diagnostics only.
    pub fn live(&self) -> u64 {
        self.live.load(Ordering::Relaxed)
    }

    /// Total slots ever bump-allocated (high-water mark; diagnostics).
    pub fn high_water(&self) -> u32 {
        self.bump.load(Ordering::Relaxed)
    }
}

impl<T: Default> Default for Pool<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pto_htm::TxWord;

    #[derive(Default)]
    struct Node {
        key: TxWord,
    }

    #[test]
    fn locate_layout_is_consistent() {
        // First slot of each segment and the doubling sizes.
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate((SEG0 - 1) as u32), (0, SEG0 - 1));
        assert_eq!(locate(SEG0 as u32), (1, 0));
        assert_eq!(locate((3 * SEG0) as u32), (2, 0));
        assert_eq!(locate((7 * SEG0) as u32), (3, 0));
    }

    #[test]
    fn locate_is_injective_over_a_large_prefix() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for i in 0..(SEG0 as u32 * 20) {
            assert!(seen.insert(locate(i)), "collision at {i}");
        }
    }

    #[test]
    fn alloc_returns_distinct_slots() {
        let p: Pool<Node> = Pool::new();
        let a = p.alloc();
        let b = p.alloc();
        assert_ne!(a, b);
        p.get(a).key.init(1);
        p.get(b).key.init(2);
        assert_eq!(p.get(a).key.peek(), 1);
        assert_eq!(p.get(b).key.peek(), 2);
    }

    #[test]
    fn free_now_recycles_immediately() {
        let p: Pool<Node> = Pool::new();
        let a = p.alloc();
        p.free_now(a);
        let b = p.alloc();
        assert_eq!(a, b, "immediately freed slot should be reused first");
    }

    #[test]
    fn retired_slot_is_not_recycled_before_grace() {
        // Hold a pin so concurrent tests cannot rush the epoch past the
        // grace period under us.
        let _g = epoch::pin();
        let p: Pool<Node> = Pool::new();
        let a = p.alloc();
        p.retire(a);
        // Allocate immediately: must NOT return `a` (grace period not over,
        // epoch has not advanced).
        let b = p.alloc();
        assert_ne!(a, b);
        p.free_now(b);
    }

    #[test]
    fn retired_slot_recycles_after_grace() {
        let p: Pool<Node> = Pool::new();
        let a = p.alloc();
        p.retire(a);
        // Push the epoch well past the grace period.
        let target = epoch::current() + 8;
        let mut tries = 0u64;
        while epoch::current() < target {
            epoch::try_advance();
            tries += 1;
            if tries.is_multiple_of(1024) {
                std::thread::yield_now();
            }
            assert!(tries < 100_000_000, "epoch stalled");
        }
        // Drain happens inside alloc; eventually `a` comes back.
        let mut found = false;
        let mut got = Vec::new();
        for _ in 0..3 {
            let b = p.alloc();
            got.push(b);
            if b == a {
                found = true;
                break;
            }
        }
        assert!(found, "slot never recycled after grace period");
        for g in got {
            p.free_now(g);
        }
    }

    #[test]
    fn alloc_crosses_segment_boundaries() {
        let p: Pool<Node> = Pool::new();
        let n = SEG0 as u32 * 3 + 7;
        let mut idxs = Vec::with_capacity(n as usize);
        for i in 0..n {
            let idx = p.alloc();
            p.get(idx).key.init(i as u64);
            idxs.push(idx);
        }
        for (i, &idx) in idxs.iter().enumerate() {
            assert_eq!(p.get(idx).key.peek(), i as u64);
        }
    }

    #[test]
    fn live_gauge_tracks_alloc_and_free() {
        let p: Pool<Node> = Pool::new();
        assert_eq!(p.live(), 0);
        let a = p.alloc();
        let b = p.alloc();
        assert_eq!(p.live(), 2);
        p.free_now(a);
        p.retire(b);
        assert_eq!(p.live(), 0);
    }

    #[test]
    fn concurrent_alloc_free_yields_unique_live_slots() {
        let p: Pool<Node> = Pool::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let mut held = Vec::new();
                    for i in 0..2_000u64 {
                        let idx = p.alloc();
                        p.get(idx).key.init(i);
                        held.push(idx);
                        if held.len() > 16 {
                            p.free_now(held.remove(0));
                        }
                    }
                    for idx in held {
                        p.free_now(idx);
                    }
                });
            }
        });
        assert_eq!(p.live(), 0);
    }

    #[test]
    fn alloc_contention_is_charged() {
        use pto_sim::cost;
        let p: Pool<Node> = Pool::new();
        pto_sim::clock::reset();
        let a = p.alloc();
        let solo = pto_sim::now();
        assert!(solo >= cost::cycles(CostKind::PoolAlloc));
        p.free_now(a);
    }
}
