//! # pto-hashtable — dynamic-sized nonblocking hash table (§3.3, §4.5, Fig 4)
//!
//! The baseline is the Liu/Zhang/Spear (PODC'14) resizable hash table:
//! every bucket is a *freezable set* — a pointer to an immutable array —
//! and every update is **copy-on-write**: allocate a new array, copy, apply
//! the change, CAS the bucket pointer. Resizing freezes old buckets (a
//! frozen bit in the bucket word makes them immutable forever) and lazily
//! migrates them, splitting or merging, into a new bucket generation.
//!
//! Three variants, the three curves of Figure 4:
//!
//! * [`HashVariant::LockFree`] — the baseline. Lookups are wait-free
//!   (arrays are immutable); updates pay allocation + copy + CAS.
//! * [`HashVariant::Pto`] — the straightforward PTO application. It
//!   "does little to benefit updates" (the allocation and copy remain) but
//!   accelerates lookups by eliding all epoch-reclamation interaction —
//!   two stores and two fences per lookup (§4.5).
//! * [`HashVariant::PtoInplace`] — the paper's algorithm-*modification*
//!   (§3.3, §5): a counter is attached to the bucket word, and a prefix
//!   transaction may update the array **in place**, bumping the counter,
//!   with no allocation or copy at all. The price: fallback lookups must
//!   double-check the bucket counter after scanning, degrading them from
//!   wait-free to lock-free. The payoff is Figure 4(a): >2x on write-only
//!   workloads, growing with thread count as allocator contention rises.
//!
//! Bucket word layout: `[count:26][len:5][array idx:32][frozen:1]`.
//! The word carries its array's length, so a reader that holds the word
//! scans the array without loading anything else, and every update
//! (copy-on-write publish, in-place counter bump, freeze, migration)
//! rewrites length and array in the one word it already writes. The
//! count makes a rewritten word differ from the one it replaced. Only
//! non-transactional code compares words by value: a fallback's CAS and
//! the in-place variant's double-checking lookup. Either is fooled only
//! if, between the thread's two reads, a multiple of 2^26 (about 67M)
//! updates land on the bucket and leave it with the same array and
//! length. An update costs at least 50 cycles, so that takes over a
//! second of back-to-back updates to one bucket at 3.4 GHz while one
//! operation stalls; the simulator's gate keeps every lane within one
//! quantum of the slowest, so no lane stalls that long. Bucket
//! generations live in an append-only registry so readers never lock.
//! The table word naming the current generation is also the table's
//! compose anchor ([`pto_core::compose::Anchor`]; bit 63 = held).

use pto_sim::sync::Mutex;
use pto_core::compose::Anchor;
use pto_core::policy::{pto, PtoPolicy, PtoStats};
use pto_core::ConcurrentSet;
use pto_htm::{TxResult, TxWord, Txn};
use pto_mem::epoch::{self, Guard};
use pto_mem::{Pool, NIL};
use std::sync::atomic::Ordering;
use std::sync::OnceLock;

/// Nominal bucket capacity: an insert into a bucket at (or beyond) this
/// occupancy triggers a grow (doubling) resize.
pub const BUCKET_CAP: usize = 8;

/// Physical array capacity. A shrink merges two ≤`BUCKET_CAP` buckets, so
/// arrays carry 2x headroom; [`FSetHashTable::try_shrink`] refuses while
/// any bucket still exceeds `BUCKET_CAP`, which bounds merges to this.
pub const MERGE_CAP: usize = 2 * BUCKET_CAP;

/// Maximum resize generations (table sizes are `init << g`, so 40 is
/// unreachable in practice).
const MAX_GENS: usize = 40;

const FROZEN: u64 = 1;
const LEN_SHIFT: u32 = 33;
const CNT_SHIFT: u32 = 38;

/// A bucket that the new generation has not yet migrated. Its length
/// field reads 31, above [`MERGE_CAP`], so no real bucket word equals it.
const UNMIGRATED_WORD: u64 = u64::MAX >> 2;

#[inline]
fn bw_pack(cnt: u64, len: usize, arr: u32, frozen: bool) -> u64 {
    debug_assert!(len <= MERGE_CAP);
    (cnt & ((1 << 26) - 1)) << CNT_SHIFT
        | (len as u64) << LEN_SHIFT
        | (arr as u64) << 1
        | frozen as u64
}

#[inline]
fn bw_len(w: u64) -> usize {
    (w >> LEN_SHIFT) as usize & 31
}

#[inline]
fn bw_arr(w: u64) -> u32 {
    (w >> 1) as u32
}

#[inline]
fn bw_frozen(w: u64) -> bool {
    w & FROZEN != 0
}

#[inline]
fn bw_cnt(w: u64) -> u64 {
    w >> CNT_SHIFT
}

/// An immutable-unless-in-place bucket array; its length lives in the
/// bucket word.
#[derive(Default)]
pub struct ArrayNode {
    claim: TxWord,
    elems: [TxWord; MERGE_CAP],
}

/// Which curve of Figure 4 this table produces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HashVariant {
    LockFree,
    Pto,
    PtoInplace,
}

enum Attempt {
    Done(bool),
    /// Bucket full: grow, then retry.
    Full,
    /// Bucket frozen/unmigrated or CAS lost: re-read and retry.
    Retry,
}

/// Outcome of the simple-PTO CoW prefix; carries array ownership facts the
/// driver needs (the transaction either published the caller's fresh array
/// or left it private, and may have displaced an old array to retire).
enum CowPrefix {
    Done {
        changed: bool,
        /// The caller-supplied array is now reachable from the bucket.
        published: bool,
        /// Displaced array to retire (NIL if none).
        old: u32,
    },
    Full,
}

/// The hash table. See crate docs.
///
/// ```
/// use pto_core::ConcurrentSet;
/// use pto_hashtable::{FSetHashTable, HashVariant};
///
/// // The paper's §3.3 modified algorithm: speculative in-place updates.
/// let t = FSetHashTable::new(HashVariant::PtoInplace, 16);
/// assert!(t.insert(10));
/// assert!(t.contains(10));
/// assert!(t.remove(10));
/// assert!(t.is_empty());
/// ```
pub struct FSetHashTable {
    arrays: Pool<ArrayNode>,
    /// Bucket generations; `gens[g]` has `init_buckets << g'` words... each
    /// generation's size is carried by its slice length.
    gens: [OnceLock<Box<[TxWord]>>; MAX_GENS],
    grow_lock: Mutex<()>,
    /// Current generation index, in the low bits of this table's compose
    /// anchor: bit 63 set means a composed fallback holds the table.
    table: Anchor,
    variant: HashVariant,
    policy: PtoPolicy,
    pub stats: PtoStats,
}

impl FSetHashTable {
    /// A table with `init_buckets` (power of two) buckets.
    pub fn new(variant: HashVariant, init_buckets: usize) -> Self {
        Self::with_policy(variant, init_buckets, PtoPolicy::with_attempts(3))
    }

    pub fn with_policy(variant: HashVariant, init_buckets: usize, policy: PtoPolicy) -> Self {
        assert!(
            init_buckets.is_power_of_two() && init_buckets >= 2,
            "bucket count must be a power of two ≥ 2"
        );
        let t = FSetHashTable {
            arrays: Pool::new(),
            gens: std::array::from_fn(|_| OnceLock::new()),
            grow_lock: Mutex::new(()),
            table: Anchor::new(),
            variant,
            policy,
            stats: PtoStats::new(),
        };
        // Generation 0: all buckets empty (NIL array, count 0).
        let g0: Box<[TxWord]> = (0..init_buckets)
            .map(|_| TxWord::new(bw_pack(0, 0, NIL, false)))
            .collect();
        let _ = t.gens[0].set(g0);
        t
    }

    #[inline]
    fn gen_buckets(&self, g: usize) -> &[TxWord] {
        self.gens[g].get().expect("generation missing")
    }

    #[inline]
    fn current(&self) -> (usize, &[TxWord]) {
        let g = Anchor::value(self.table.word().load(Ordering::Acquire)) as usize;
        (g, self.gen_buckets(g))
    }

    #[inline]
    fn hash(k: u32, nbuckets: usize) -> usize {
        ((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & (nbuckets - 1)
    }

    /// Scan the array of bucket word `w` (NIL = empty) for `k`; plain
    /// loads.
    fn scan(&self, w: u64, k: u32) -> bool {
        let arr = bw_arr(w);
        if arr == NIL {
            return false;
        }
        let a = self.arrays.get(arr);
        (0..bw_len(w)).any(|i| a.elems[i].load(Ordering::Acquire) as u32 == k)
    }

    /// Install the next generation (doubling when `grow`, halving
    /// otherwise) and advance the table word. Idempotent under races. A
    /// held table word advances only by its holder's resize.
    fn resize(&self, from_gen: usize, grow: bool) {
        assert!(from_gen + 1 < MAX_GENS, "hash table generations exhausted");
        if self.gens[from_gen + 1].get().is_none() {
            let _l = self.grow_lock.lock();
            if self.gens[from_gen + 1].get().is_none() {
                let old = self.gen_buckets(from_gen).len();
                let size = if grow { old * 2 } else { (old / 2).max(2) };
                let fresh: Box<[TxWord]> = (0..size)
                    .map(|_| TxWord::new(UNMIGRATED_WORD))
                    .collect();
                let _ = self.gens[from_gen + 1].set(fresh);
            }
        }
        self.table.cas_value(from_gen as u64, from_gen as u64 + 1);
    }

    /// Freeze bucket `b` of generation `g` and return its (frozen) word.
    fn freeze(&self, g: usize, b: usize) -> u64 {
        let w = &self.gen_buckets(g)[b];
        loop {
            let cur = w.load(Ordering::Acquire);
            if cur == UNMIGRATED_WORD {
                // Freeze of an unmigrated bucket: migrate it first.
                self.migrate(g, b);
                continue;
            }
            if bw_frozen(cur) {
                return cur;
            }
            let frozen = bw_pack(bw_cnt(cur) + 1, bw_len(cur), bw_arr(cur), true);
            if w.compare_exchange(cur, frozen, Ordering::SeqCst).is_ok() {
                return frozen;
            }
        }
    }

    /// Migrate bucket `b` of generation `g` from generation `g-1`
    /// (splitting on grow, merging on shrink). Idempotent.
    fn migrate(&self, g: usize, b: usize) {
        debug_assert!(g >= 1);
        let dst = &self.gen_buckets(g)[b];
        if dst.load(Ordering::Acquire) != UNMIGRATED_WORD {
            return;
        }
        let new_size = self.gen_buckets(g).len();
        let old_size = self.gen_buckets(g - 1).len();
        let mut vals: Vec<u32> = Vec::with_capacity(MERGE_CAP);
        let mut sources: Vec<u32> = Vec::new();
        if new_size > old_size {
            // Grow: one source bucket splits into two.
            let src = b & (old_size - 1);
            let w = self.freeze(g - 1, src);
            sources.push(bw_arr(w));
            self.collect(w, &mut vals);
            vals.retain(|&k| Self::hash(k, new_size) == b);
        } else {
            // Shrink: two source buckets merge.
            for src in [b, b + new_size] {
                if src < old_size {
                    let w = self.freeze(g - 1, src);
                    sources.push(bw_arr(w));
                    self.collect(w, &mut vals);
                }
            }
            vals.retain(|&k| Self::hash(k, new_size) == b);
        }
        assert!(
            vals.len() <= MERGE_CAP,
            "migration overflow: {} keys into one bucket",
            vals.len()
        );
        let new_arr = if vals.is_empty() {
            NIL
        } else {
            let na = self.arrays.alloc();
            let an = self.arrays.get(na);
            an.claim.init(0);
            for (i, &v) in vals.iter().enumerate() {
                an.elems[i].init(v as u64);
            }
            na
        };
        let word = bw_pack(0, vals.len(), new_arr, false);
        if dst
            .compare_exchange(UNMIGRATED_WORD, word, Ordering::SeqCst)
            .is_err()
        {
            // Someone else migrated first.
            if new_arr != NIL {
                self.arrays.free_now(new_arr);
            }
            return;
        }
        // Retire frozen sources — but on a grow, the source array feeds
        // BOTH split targets, so it may only go once its sibling target has
        // also migrated (whichever migration finishes second retires it;
        // the claim word arbitrates the race).
        if new_size > old_size {
            let sibling = b ^ old_size;
            if self.gen_buckets(g)[sibling].load(Ordering::Acquire) != UNMIGRATED_WORD {
                for arr in sources {
                    if arr != NIL && self.arrays.get(arr).claim.cas(0, 1) {
                        self.arrays.retire(arr);
                    }
                }
            }
        } else {
            // Shrink: this migration is the sole consumer of both sources.
            for arr in sources {
                if arr != NIL && self.arrays.get(arr).claim.cas(0, 1) {
                    self.arrays.retire(arr);
                }
            }
        }
    }

    /// Append the keys of bucket word `w`'s array to `out`.
    fn collect(&self, w: u64, out: &mut Vec<u32>) {
        let arr = bw_arr(w);
        if arr == NIL {
            return;
        }
        let a = self.arrays.get(arr);
        out.extend((0..bw_len(w)).map(|i| a.elems[i].load(Ordering::Acquire) as u32));
    }

    /// Load the current bucket for `k`, migrating/advancing as needed.
    /// Returns (generation, bucket index, bucket word).
    fn locate(&self, k: u32) -> (usize, usize, u64) {
        loop {
            let (g, buckets) = self.current();
            let b = Self::hash(k, buckets.len());
            let w = buckets[b].load(Ordering::Acquire);
            if w == UNMIGRATED_WORD {
                self.migrate(g, b);
                continue;
            }
            if bw_frozen(w) {
                // A newer generation exists; help advance and retry.
                if self.current().0 == g {
                    self.resize(g, true);
                }
                continue;
            }
            return (g, b, w);
        }
    }

    // ------------------------------------------------------------------
    // Lock-free (copy-on-write) operations
    // ------------------------------------------------------------------

    /// One CoW update attempt. `add` selects insert vs remove.
    fn cow_attempt(&self, k: u32, add: bool) -> Attempt {
        let (g, b, w) = self.locate(k);
        let (arr, len) = (bw_arr(w), bw_len(w));
        if self.scan(w, k) == add {
            return Attempt::Done(false);
        }
        if add && len >= BUCKET_CAP {
            self.resize(g, true);
            return Attempt::Retry;
        }
        // Copy-on-write: the §4.5 cost center (allocation + copy).
        let na = self.arrays.alloc();
        let an = self.arrays.get(na);
        an.claim.init(0);
        let mut n = 0;
        if arr != NIL {
            let a = self.arrays.get(arr);
            for i in 0..len {
                let v = a.elems[i].load(Ordering::Acquire) as u32;
                if !add && v == k {
                    continue;
                }
                an.elems[n].init(v as u64);
                n += 1;
            }
        }
        if add {
            an.elems[n].init(k as u64);
            n += 1;
        }
        let new_word = bw_pack(bw_cnt(w) + 1, n, if n == 0 { NIL } else { na }, false);
        if self.gen_buckets(g)[b]
            .compare_exchange(w, new_word, Ordering::SeqCst)
            .is_ok()
        {
            if n == 0 {
                self.arrays.free_now(na);
            }
            if arr != NIL && self.arrays.get(arr).claim.cas(0, 1) {
                self.arrays.retire(arr);
            }
            Attempt::Done(true)
        } else {
            self.arrays.free_now(na);
            Attempt::Retry
        }
    }

    fn lf_update(&self, k: u32, add: bool, _g: &Guard) -> bool {
        loop {
            match self.cow_attempt(k, add) {
                Attempt::Done(r) => return r,
                _ => continue,
            }
        }
    }

    /// Wait-free lookup of the unmodified algorithm (arrays immutable).
    fn lf_lookup_waitfree(&self, k: u32, _g: &Guard) -> bool {
        let (_, _, w) = self.locate(k);
        self.scan(w, k)
    }

    /// Lock-free lookup of the in-place variant: double-check the bucket
    /// counter after the scan (§3.3 — the wait-free→lock-free trade).
    fn lf_lookup_doublecheck(&self, k: u32, _g: &Guard) -> bool {
        loop {
            let (g, b, w) = self.locate(k);
            let found = self.scan(w, k);
            let w2 = self.gen_buckets(g)[b].load(Ordering::Acquire);
            if w2 == w {
                return found;
            }
        }
    }

    // ------------------------------------------------------------------
    // Prefix transactions
    // ------------------------------------------------------------------

    /// Transactional bucket read: table word, bucket word; aborts to the
    /// fallback on any resize-related state. Only `composed` halves abort
    /// on a held table word: the holder's own plain prefixes must not.
    fn tx_bucket<'e>(
        &'e self,
        tx: &mut Txn<'e>,
        k: u32,
        composed: bool,
    ) -> TxResult<(usize, usize, u64)> {
        let g = if composed {
            self.table.tx_check(tx)?
        } else {
            Anchor::value(tx.read(self.table.word())?)
        } as usize;
        let buckets = self.gen_buckets(g);
        let b = Self::hash(k, buckets.len());
        let w = tx.read(&buckets[b])?;
        if w == UNMIGRATED_WORD || bw_frozen(w) {
            return Err(tx.abort(pto_core::ABORT_HELP));
        }
        Ok((g, b, w))
    }

    /// Transactional scan of bucket word `w`'s array: `k`'s position.
    fn tx_scan<'e>(&'e self, tx: &mut Txn<'e>, w: u64, k: u32) -> TxResult<Option<usize>> {
        let arr = bw_arr(w);
        if arr == NIL {
            return Ok(None);
        }
        let a = self.arrays.get(arr);
        for i in 0..bw_len(w) {
            if tx.read(&a.elems[i])? as u32 == k {
                return Ok(Some(i));
            }
        }
        Ok(None)
    }

    /// PTO lookup prefix: no epoch pin, no double-check — the transaction
    /// subsumes both (§2.3, §4.5).
    fn tx_lookup<'e>(&'e self, tx: &mut Txn<'e>, k: u32, composed: bool) -> TxResult<bool> {
        let (_, _, w) = self.tx_bucket(tx, k, composed)?;
        Ok(self.tx_scan(tx, w, k)?.is_some())
    }

    /// Simple-PTO update prefix: still copy-on-write into a lazily
    /// allocated fresh array (allocation cost stays — §4.5 "does little to
    /// benefit updates"), but the CAS becomes a plain buffered write.
    /// `na_cache` persists the allocation across retry attempts.
    fn tx_update_cow<'e>(
        &'e self,
        tx: &mut Txn<'e>,
        k: u32,
        add: bool,
        na_cache: &mut Option<u32>,
    ) -> TxResult<CowPrefix> {
        let (g, b, w) = self.tx_bucket(tx, k, false)?;
        let (arr, len) = (bw_arr(w), bw_len(w));
        if self.tx_scan(tx, w, k)?.is_some() == add {
            return Ok(CowPrefix::Done {
                changed: false,
                published: false,
                old: NIL,
            });
        }
        if add && len >= BUCKET_CAP {
            return Ok(CowPrefix::Full);
        }
        // Build the replacement array (private until the bucket write)
        // through the write set: `TxWord::init` would stamp its orecs now,
        // dooming this prefix wherever one aliases its own read set.
        let na = *na_cache.get_or_insert_with(|| self.arrays.alloc());
        let an = self.arrays.get(na);
        tx.write(&an.claim, 0)?;
        let mut n = 0;
        if arr != NIL {
            let a = self.arrays.get(arr);
            for i in 0..len {
                let v = tx.read(&a.elems[i])? as u32;
                if !add && v == k {
                    continue;
                }
                tx.write(&an.elems[n], v as u64)?;
                n += 1;
            }
        }
        if add {
            tx.write(&an.elems[n], k as u64)?;
            n += 1;
        }
        let published = n != 0;
        let new_word = bw_pack(bw_cnt(w) + 1, n, if published { na } else { NIL }, false);
        tx.write(&self.gen_buckets(g)[b], new_word)?;
        tx.fence();
        Ok(CowPrefix::Done {
            changed: true,
            published,
            old: arr,
        })
    }

    /// In-place update prefix (§3.3/§5): mutate the array directly inside
    /// the transaction and rewrite the bucket word with the new length and
    /// a bumped counter. No allocation, no copy.
    fn tx_update_inplace<'e>(
        &'e self,
        tx: &mut Txn<'e>,
        k: u32,
        add: bool,
        composed: bool,
    ) -> TxResult<Attempt> {
        let (g, b, w) = self.tx_bucket(tx, k, composed)?;
        let (arr, len) = (bw_arr(w), bw_len(w));
        let at = self.tx_scan(tx, w, k)?;
        if at.is_some() == add {
            return Ok(Attempt::Done(false));
        }
        let new_len = if add {
            if len >= BUCKET_CAP {
                return Ok(Attempt::Full);
            }
            if arr == NIL {
                // Empty bucket: nothing to write in place; let the CoW
                // fallback install a first array.
                return Err(tx.abort(pto_core::ABORT_HELP));
            }
            tx.write(&self.arrays.get(arr).elems[len], k as u64)?;
            len + 1
        } else {
            let a = self.arrays.get(arr);
            let i = at.expect("remove of present key");
            // Swap-remove.
            let last = tx.read(&a.elems[len - 1])?;
            tx.write(&a.elems[i], last)?;
            len - 1
        };
        tx.fence();
        // The counter bump makes double-checking lookups notice us.
        let bumped = bw_pack(bw_cnt(w) + 1, new_len, arr, false);
        tx.write(&self.gen_buckets(g)[b], bumped)?;
        tx.fence();
        Ok(Attempt::Done(true))
    }

    // ------------------------------------------------------------------
    // Drivers
    // ------------------------------------------------------------------

    fn update_impl(&self, k: u32, add: bool) -> bool {
        match self.variant {
            HashVariant::LockFree => {
                let g = epoch::pin();
                self.lf_update(k, add, &g)
            }
            HashVariant::Pto => loop {
                // Distinguish prefix outcomes (which own the cached array
                // and may displace an old one) from fallback outcomes
                // (self-contained CoW attempts).
                enum Out {
                    Pfx(bool, bool, u32),
                    FbDone(bool),
                    Full,
                    Retry,
                }
                let mut na_cache: Option<u32> = None;
                let out = pto(
                    &self.policy,
                    &self.stats,
                    |tx| {
                        Ok(match self.tx_update_cow(tx, k, add, &mut na_cache)? {
                            CowPrefix::Done {
                                changed,
                                published,
                                old,
                            } => Out::Pfx(changed, published, old),
                            CowPrefix::Full => Out::Full,
                        })
                    },
                    || {
                        let _g = epoch::pin();
                        match self.cow_attempt(k, add) {
                            Attempt::Done(r) => Out::FbDone(r),
                            Attempt::Full => Out::Full,
                            Attempt::Retry => Out::Retry,
                        }
                    },
                );
                // Only a *committed* prefix can have published the cached
                // array; every other outcome leaves it private.
                let published = matches!(out, Out::Pfx(_, true, _));
                if let Some(na) = na_cache {
                    if !published {
                        self.arrays.free_now(na);
                    }
                }
                match out {
                    Out::Pfx(changed, _, old) => {
                        if old != NIL && self.arrays.get(old).claim.cas(0, 1) {
                            self.arrays.retire(old);
                        }
                        return changed;
                    }
                    Out::FbDone(r) => return r,
                    Out::Full => {
                        let (g, _) = self.current();
                        self.resize(g, true);
                    }
                    Out::Retry => {}
                }
            },
            HashVariant::PtoInplace => loop {
                let out = pto(
                    &self.policy,
                    &self.stats,
                    |tx| self.tx_update_inplace(tx, k, add, false),
                    || {
                        let g = epoch::pin();
                        match self.cow_attempt(k, add) {
                            Attempt::Done(r) => {
                                let _ = &g;
                                Attempt::Done(r)
                            }
                            other => other,
                        }
                    },
                );
                match out {
                    Attempt::Done(r) => return r,
                    Attempt::Full => {
                        let (g, _) = self.current();
                        self.resize(g, true);
                    }
                    Attempt::Retry => {}
                }
            },
        }
    }

    // ------------------------------------------------------------------
    // Compose surface (pto_core::compose)
    // ------------------------------------------------------------------

    /// This table's participation anchor for composed operations (the
    /// table word).
    pub fn anchor(&self) -> &Anchor {
        &self.table
    }

    /// Transactional membership half for a composed prefix.
    #[doc(hidden)]
    pub fn tx_compose_contains<'e>(&'e self, tx: &mut Txn<'e>, key: u64) -> TxResult<bool> {
        self.tx_lookup(tx, check_key(key), true)
    }

    /// Transactional update half for a composed prefix: insert (`add`) or
    /// remove `key`, returning whether the set changed. Only the
    /// [`HashVariant::PtoInplace`] layout can mutate in-tx; every state the
    /// prefix cannot handle (other variants, empty bucket, bucket at
    /// capacity) aborts so the composed fallback — the ordinary
    /// [`ConcurrentSet`] ops under the anchors — takes over.
    #[doc(hidden)]
    pub fn tx_compose_update<'e>(&'e self, tx: &mut Txn<'e>, key: u64, add: bool) -> TxResult<bool> {
        if self.variant != HashVariant::PtoInplace {
            return Err(tx.abort(pto_core::ABORT_HELP));
        }
        match self.tx_update_inplace(tx, check_key(key), add, true)? {
            Attempt::Done(r) => Ok(r),
            Attempt::Full | Attempt::Retry => Err(tx.abort(pto_core::ABORT_HELP)),
        }
    }

    fn contains_impl(&self, k: u32) -> bool {
        match self.variant {
            HashVariant::LockFree => {
                let g = epoch::pin();
                self.lf_lookup_waitfree(k, &g)
            }
            HashVariant::Pto => pto(
                &self.policy,
                &self.stats,
                |tx| self.tx_lookup(tx, k, false),
                || {
                    let g = epoch::pin();
                    self.lf_lookup_waitfree(k, &g)
                },
            ),
            HashVariant::PtoInplace => pto(
                &self.policy,
                &self.stats,
                |tx| self.tx_lookup(tx, k, false),
                || {
                    let g = epoch::pin();
                    self.lf_lookup_doublecheck(k, &g)
                },
            ),
        }
    }

    /// Force a shrink step (halving); exposed for tests and ablations.
    pub fn try_shrink(&self) {
        let (g, buckets) = self.current();
        if buckets.len() <= 2 {
            return;
        }
        // A merge of two buckets must fit MERGE_CAP, so refuse while any
        // bucket (including previously merged ones) still exceeds the
        // nominal capacity. Best-effort: a concurrent insert can race past
        // this scan, but inserts at ≥ BUCKET_CAP trigger grows instead of
        // filling further, so pairs stay within the merge headroom.
        for b in buckets {
            let w = b.load(Ordering::Acquire);
            if w == UNMIGRATED_WORD || bw_frozen(w) || bw_len(w) > BUCKET_CAP {
                return; // previous resize still settling, or too full
            }
        }
        self.resize(g, false);
    }

    /// Current bucket count (diagnostics).
    pub fn bucket_count(&self) -> usize {
        self.current().1.len()
    }
}

fn check_key(key: u64) -> u32 {
    assert!(key < u32::MAX as u64, "hash table keys must be < 2^32 - 1");
    key as u32
}

impl ConcurrentSet for FSetHashTable {
    fn insert(&self, key: u64) -> bool {
        self.update_impl(check_key(key), true)
    }

    fn remove(&self, key: u64) -> bool {
        self.update_impl(check_key(key), false)
    }

    fn contains(&self, key: u64) -> bool {
        self.contains_impl(check_key(key))
    }

    fn len(&self) -> usize {
        // Quiescent walk: migrate every bucket of the current generation,
        // then sum.
        let (g, buckets) = self.current();
        let mut total = 0;
        for (b, bucket) in buckets.iter().enumerate() {
            let w = bucket.load(Ordering::Acquire);
            let w = if w == UNMIGRATED_WORD {
                self.migrate(g, b);
                bucket.load(Ordering::Acquire)
            } else {
                w
            };
            total += bw_len(w);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pto_sim::rng::XorShift64;
    use std::collections::BTreeSet;

    const VARIANTS: [HashVariant; 3] = [
        HashVariant::LockFree,
        HashVariant::Pto,
        HashVariant::PtoInplace,
    ];

    #[test]
    fn set_semantics_all_variants() {
        for v in VARIANTS {
            let t = FSetHashTable::new(v, 4);
            assert!(!t.contains(5), "{v:?}");
            assert!(t.insert(5), "{v:?}");
            assert!(!t.insert(5), "{v:?}");
            assert!(t.contains(5), "{v:?}");
            assert!(t.insert(3) && t.insert(9), "{v:?}");
            assert_eq!(t.len(), 3, "{v:?}");
            assert!(t.remove(5), "{v:?}");
            assert!(!t.remove(5), "{v:?}");
            assert!(!t.contains(5), "{v:?}");
            assert_eq!(t.len(), 2, "{v:?}");
        }
    }

    #[test]
    fn growth_preserves_contents() {
        for v in VARIANTS {
            let t = FSetHashTable::new(v, 2);
            let before = t.bucket_count();
            for k in 0..200 {
                assert!(t.insert(k), "{v:?} insert {k}");
            }
            assert!(t.bucket_count() > before, "{v:?} never grew");
            for k in 0..200 {
                assert!(t.contains(k), "{v:?} lost {k} across resize");
            }
            assert_eq!(t.len(), 200, "{v:?}");
        }
    }

    #[test]
    fn shrink_preserves_contents() {
        let t = FSetHashTable::new(HashVariant::LockFree, 4);
        for k in 0..100 {
            t.insert(k);
        }
        let grown = t.bucket_count();
        for k in 0..90 {
            t.remove(k);
        }
        t.try_shrink();
        assert!(t.bucket_count() < grown);
        for k in 90..100 {
            assert!(t.contains(k), "lost {k} across shrink");
        }
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn oracle_all_variants() {
        for v in VARIANTS {
            let t = FSetHashTable::new(v, 4);
            let mut oracle = BTreeSet::new();
            let mut rng = XorShift64::new(11 + v as u64);
            for _ in 0..4_000 {
                let k = rng.below(300);
                match rng.below(3) {
                    0 => assert_eq!(t.insert(k), oracle.insert(k), "{v:?} insert {k}"),
                    1 => assert_eq!(t.remove(k), oracle.remove(&k), "{v:?} remove {k}"),
                    _ => assert_eq!(t.contains(k), oracle.contains(&k), "{v:?} contains {k}"),
                }
            }
            assert_eq!(t.len(), oracle.len(), "{v:?}");
        }
    }

    fn concurrent_stress(t: &FSetHashTable, nthreads: usize, ops: usize, range: u64) {
        std::thread::scope(|sc| {
            for th in 0..nthreads {
                let t = &t;
                sc.spawn(move || {
                    let mut rng = XorShift64::new((th as u64 + 1) * 104729);
                    for _ in 0..ops {
                        let k = rng.below(range);
                        match rng.below(4) {
                            0 | 1 => {
                                t.insert(k);
                            }
                            2 => {
                                t.remove(k);
                            }
                            _ => {
                                t.contains(k);
                            }
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn concurrent_stress_all_variants() {
        for v in VARIANTS {
            let t = FSetHashTable::new(v, 4);
            concurrent_stress(&t, 4, 1_500, 256);
            // Post-stress sanity: len() agrees with a fresh membership scan.
            let mut count = 0;
            for k in 0..256 {
                if t.contains(k) {
                    count += 1;
                }
            }
            assert_eq!(t.len(), count, "{v:?} len/contains disagree");
        }
    }

    #[test]
    fn concurrent_distinct_ranges_with_growth() {
        let t = FSetHashTable::new(HashVariant::PtoInplace, 2);
        std::thread::scope(|sc| {
            for th in 0..4u64 {
                let t = &t;
                sc.spawn(move || {
                    for k in (th * 300)..((th + 1) * 300) {
                        assert!(t.insert(k));
                    }
                });
            }
        });
        assert_eq!(t.len(), 1_200);
        for k in 0..1_200 {
            assert!(t.contains(k), "lost {k}");
        }
    }

    #[test]
    fn concurrent_exclusive_remove() {
        use std::sync::atomic::AtomicU64;
        let t = FSetHashTable::new(HashVariant::PtoInplace, 8);
        for k in 0..400 {
            t.insert(k);
        }
        let wins = AtomicU64::new(0);
        std::thread::scope(|sc| {
            for _ in 0..4 {
                let t = &t;
                let wins = &wins;
                sc.spawn(move || {
                    for k in 0..400 {
                        if t.remove(k) {
                            wins.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(wins.load(Ordering::Relaxed), 400);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn semantics_survive_interleaved_grow_and_shrink() {
        // Resize-stress: random ops with periodic forced shrinks; the
        // freeze/migrate machinery must never lose or duplicate keys.
        for v in VARIANTS {
            let t = FSetHashTable::new(v, 4);
            let mut oracle = BTreeSet::new();
            let mut rng = XorShift64::new(4242 + v as u64);
            for i in 0..4_000 {
                let k = rng.below(400);
                match rng.below(3) {
                    0 => assert_eq!(t.insert(k), oracle.insert(k), "{v:?} insert {k}"),
                    1 => assert_eq!(t.remove(k), oracle.remove(&k), "{v:?} remove {k}"),
                    _ => assert_eq!(t.contains(k), oracle.contains(&k), "{v:?} contains {k}"),
                }
                if i % 500 == 499 {
                    t.try_shrink();
                }
            }
            assert_eq!(t.len(), oracle.len(), "{v:?}");
        }
    }

    #[test]
    fn concurrent_ops_race_with_forced_shrinks() {
        let t = FSetHashTable::new(HashVariant::PtoInplace, 16);
        std::thread::scope(|sc| {
            for th in 0..3u64 {
                let t = &t;
                sc.spawn(move || {
                    let mut rng = XorShift64::new(th + 900);
                    for _ in 0..1_500 {
                        let k = rng.below(512);
                        if rng.chance(1, 2) {
                            t.insert(k);
                        } else {
                            t.remove(k);
                        }
                    }
                });
            }
            let t2 = &t;
            sc.spawn(move || {
                for _ in 0..20 {
                    t2.try_shrink();
                    std::thread::yield_now();
                }
            });
        });
        let mut count = 0;
        for k in 0..512 {
            if t.contains(k) {
                count += 1;
            }
        }
        assert_eq!(t.len(), count, "len/contains disagree after resize races");
    }

    /// A composed fallback's `insert` that grows the table while the
    /// fallback holds the table word advances the generation under the
    /// held bit; the release frees the word at g+1 and the next composed
    /// prefix commits.
    #[test]
    fn a_held_resize_advances_the_generation_and_the_release_frees_it() {
        use pto_core::compose::compose;
        let t = FSetHashTable::new(HashVariant::PtoInplace, 2);
        let g0 = t.current().0;
        // attempts(0): every op takes the ordered-lock fallback.
        let locked = compose(PtoPolicy::with_attempts(0), vec![t.anchor()]);
        let mut k = 0;
        while !locked.run(
            |_tx| Ok(false),
            || {
                t.insert(k);
                assert!(t.anchor().is_held());
                t.current().0 > g0
            },
        ) {
            k += 1;
        }
        assert_eq!(t.table.word().peek(), g0 as u64 + 1, "not free at g+1");
        let site = compose(PtoPolicy::with_attempts(3), vec![t.anchor()]);
        let found = site.run(
            |tx| t.tx_compose_contains(tx, k),
            || panic!("the prefix never committed after the release"),
        );
        assert!(found);
        assert_eq!(site.stats.fast.get(), 1);
    }

    #[test]
    fn a_resize_by_a_non_holder_leaves_a_held_word_unchanged() {
        let t = FSetHashTable::new(HashVariant::PtoInplace, 2);
        let held = pto_core::compose::acquire_ordered(&[t.anchor()]);
        let word = t.table.word().peek();
        std::thread::scope(|s| {
            s.spawn(|| {
                t.resize(0, true);
                // Plain prefixes ignore the held bit: this lookup commits.
                let fast = t.stats.fast.get();
                assert!(!t.contains(5));
                assert_eq!(t.stats.fast.get(), fast + 1);
            });
        });
        assert_eq!(t.table.word().peek(), word);
        assert_eq!(t.bucket_count(), 2);
        // The holder's own resize advances the word and keeps it held.
        t.resize(0, true);
        assert!(t.anchor().is_held());
        assert_eq!(t.bucket_count(), 4);
        drop(held);
        assert_eq!(t.table.word().peek(), 1);
    }

    #[test]
    #[should_panic(expected = "keys must be")]
    fn rejects_reserved_key() {
        FSetHashTable::new(HashVariant::LockFree, 4).insert(u64::MAX);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_buckets() {
        let _ = FSetHashTable::new(HashVariant::LockFree, 3);
    }
}

#[cfg(test)]
mod cause_observability {
    use super::*;
    use pto_core::ConcurrentSet;

    #[test]
    fn chaos_aborts_land_in_the_spurious_bucket() {
        let h = FSetHashTable::with_policy(
            HashVariant::Pto,
            4,
            PtoPolicy::with_attempts(2).with_chaos(100),
        );
        assert!(h.insert(9));
        assert!(h.contains(9));
        assert!(h.stats.causes.spurious.get() > 0);
        assert_eq!(h.stats.causes.total(), h.stats.aborted_attempts.get());
    }
}
