//! Log2-bucketed latency histograms over virtual cycles.
//!
//! The bench drivers record one sample per completed operation (its
//! virtual-cycle latency); `report.rs` renders p50/p90/p99/max columns from
//! the resulting [`HistSnapshot`]s. Buckets are powers of two — bucket `i`
//! covers `[2^i, 2^(i+1))` (bucket 0 also holds 0) — so recording is two
//! relaxed atomic RMWs and no allocation, and a percentile is exact to
//! within a 2× bucket width while `max` is exact.
//!
//! Recording never calls [`charge`](crate::charge): histograms observe the
//! simulation, they are not part of the cost model.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one per possible `ilog2` of a `u64` sample.
pub const BUCKETS: usize = 64;

/// The bucket index a sample lands in (`0` and `1` share bucket 0).
#[inline]
pub fn bucket_of(v: u64) -> usize {
    v.checked_ilog2().unwrap_or(0) as usize
}

/// Inclusive `[lo, hi]` sample bounds of bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < BUCKETS);
    let lo = if i == 0 { 0 } else { 1u64 << i };
    let hi = if i >= 63 { u64::MAX } else { (1u64 << (i + 1)) - 1 };
    (lo, hi)
}

/// A concurrently-recordable histogram (static-friendly: `new` is const).
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    pub const fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample. Relaxed atomics: per-sample totals are exact,
    /// cross-thread ordering is irrelevant for a histogram.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturate rather than wrap: 512 lanes × long runs × cycle-scale
        // samples genuinely reach u64 range, and a wrapped sum silently
        // corrupts `mean`. Saturating add of non-negatives is
        // order-independent (min(Σ, MAX)), so concurrent recording and
        // `merge` agree on the saturated value.
        let mut cur = self.sum.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(v);
            match self
                .sum
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Copy out the current contents.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    pub buckets: [u64; BUCKETS],
    pub count: u64,
    /// Saturating sum of all samples: `min(Σ samples, u64::MAX)`. The
    /// accumulator and `merge` both saturate, so the value is independent
    /// of recording/merge order even past overflow.
    pub sum: u64,
    /// Largest recorded sample (0 when empty); exact, unlike percentiles.
    pub max: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistSnapshot {
    /// Bucket-wise sum: `a.merge(&b)` equals the histogram of the
    /// concatenated sample streams.
    pub fn merge(&self, other: &HistSnapshot) -> HistSnapshot {
        HistSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_add(other.buckets[i])),
            count: self.count.saturating_add(other.count),
            sum: self.sum.saturating_add(other.sum),
            max: self.max.max(other.max),
        }
    }

    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `p`-th percentile (0 < p ≤ 100), as the upper bound of the
    /// bucket containing the rank-`⌈p·n/100⌉` sample, clamped to `max` so
    /// every percentile is a value the stream could actually contain and
    /// `p ≤ 100` implies `percentile(p) ≤ max`. Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_bounds(i).1.min(self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    pub fn p90(&self) -> u64 {
        self.percentile(90.0)
    }

    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// The p99.9 tail: resolves 1-in-1000 outliers that p99 averages away.
    pub fn p999(&self) -> u64 {
        self.percentile(99.9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proptest::{check, range_u64, range_usize, vec_of, Config};

    fn hist_of(samples: &[u64]) -> HistSnapshot {
        let h = Histogram::new();
        for &s in samples {
            h.record(s);
        }
        h.snapshot()
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.max, 0);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn single_sample_dominates_every_percentile() {
        let s = hist_of(&[37]);
        assert_eq!(s.p50(), 37);
        assert_eq!(s.p99(), 37);
        assert_eq!(s.max, 37);
        assert_eq!(s.mean(), 37.0);
    }

    #[test]
    fn percentiles_track_a_known_distribution() {
        // 99 samples of 10 and one of 100_000: p50/p90 sit in 10's bucket,
        // max catches the outlier.
        let mut samples = vec![10u64; 99];
        samples.push(100_000);
        let s = hist_of(&samples);
        assert_eq!(s.count, 100);
        assert!(s.p50() < 16, "p50 {} not in 10's bucket", s.p50());
        assert!(s.p90() < 16);
        assert_eq!(s.max, 100_000);
        assert!(s.p99() <= s.max);
    }

    #[test]
    fn p999_resolves_the_tail_bucket() {
        // 999 samples of 10 and one outlier: p99 stays in 10's bucket
        // (rank 990 of 1000) while p99.9 (rank 1000) lands on the outlier.
        let mut samples = vec![10u64; 999];
        samples.push(100_000);
        let s = hist_of(&samples);
        assert_eq!(s.count, 1000);
        assert!(s.p99() < 16, "p99 {} should still sit in 10's bucket", s.p99());
        assert_eq!(s.p999(), 100_000, "p99.9 must catch the 1-in-1000 tail");
        assert!(s.p999() <= s.max);
        // Monotone through the new percentile.
        assert!(s.p99() <= s.p999());
        // A 1-in-10000 outlier is invisible to p99.9 (rank 9990 of 10000
        // stays in the bulk) but not to max.
        let mut wide = vec![10u64; 9_999];
        wide.push(100_000);
        let t = hist_of(&wide);
        assert!(t.p999() < 16, "p99.9 {} must stay in the bulk", t.p999());
        assert_eq!(t.max, 100_000);
    }

    #[test]
    fn bucket_bounds_partition_u64() {
        // Buckets tile the whole domain with no gaps or overlaps.
        assert_eq!(bucket_bounds(0), (0, 1));
        for i in 1..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, bucket_bounds(i - 1).1 + 1);
            assert!(hi >= lo);
        }
        assert_eq!(bucket_bounds(BUCKETS - 1).1, u64::MAX);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let empty = HistSnapshot::default();
        assert_eq!(empty.merge(&empty), empty);
        let s = hist_of(&[3, 17, 1 << 50]);
        assert_eq!(s.merge(&empty), s);
        assert_eq!(empty.merge(&s), s);
    }

    #[test]
    fn single_bucket_stream_pins_every_percentile_to_that_bucket() {
        // All samples share bucket 5 ([32, 63]): every percentile must be
        // clamped to the stream max, and only bucket 5 is populated.
        let s = hist_of(&[32, 40, 63, 33, 60]);
        assert_eq!(s.buckets[5], 5);
        assert_eq!(s.buckets.iter().sum::<u64>(), 5);
        for p in [0.001, 1.0, 50.0, 99.0, 100.0] {
            let v = s.percentile(p);
            assert!((32..=63).contains(&v), "p{p} = {v} outside bucket");
            assert!(v <= s.max);
        }
        assert_eq!(s.percentile(100.0), 63.min(s.max));
    }

    #[test]
    fn tiny_percentile_clamps_rank_to_first_sample() {
        // rank = ceil(p·n/100) clamps to 1, never 0.
        let s = hist_of(&[8, 1 << 30]);
        assert_eq!(s.percentile(0.000001), 15.min(s.max));
    }

    #[test]
    fn sum_saturates_while_max_and_count_stay_exact() {
        // Regression (lane-scaling overflow audit): the sum accumulator
        // used a wrapping fetch_add, so 512-lane × long-run totals wrapped
        // and `mean` went nonsense. It now saturates, merge saturates
        // identically, and merge-vs-concat equality survives overflow.
        let a = hist_of(&[u64::MAX, u64::MAX]);
        assert_eq!(a.count, 2);
        assert_eq!(a.max, u64::MAX);
        assert_eq!(a.sum, u64::MAX, "sum must clamp, not wrap");
        let b = hist_of(&[2]);
        let merged = a.merge(&b);
        assert_eq!(merged.sum, u64::MAX);
        assert_eq!(merged, hist_of(&[u64::MAX, u64::MAX, 2]));
        // A saturated mean stays a huge (not tiny wrapped) value.
        assert!(merged.mean() > (u64::MAX / 4) as f64);
        // Percentiles remain bounded by max even at the saturated end.
        assert_eq!(merged.percentile(100.0), u64::MAX);
    }

    // -- satellite: proptest-lite properties over arbitrary u64 samples --

    #[test]
    fn prop_percentiles_are_monotone_and_bounded_by_max() {
        check(
            &Config::with_cases(128),
            "hist_percentile_monotone",
            &vec_of(range_u64(0..u64::MAX), 0..128),
            |samples| {
                let s = hist_of(samples);
                assert!(s.p50() <= s.p90(), "p50 > p90 for {samples:?}");
                assert!(s.p90() <= s.p99(), "p90 > p99 for {samples:?}");
                assert!(s.p99() <= s.max, "p99 {} > max {}", s.p99(), s.max);
            },
        );
    }

    #[test]
    fn prop_merge_equals_concatenation() {
        // Generate one stream plus a split point: hist(a) ⊎ hist(b) must
        // equal hist(a ++ b) field-for-field.
        check(
            &Config::with_cases(128),
            "hist_merge_is_concat",
            &(vec_of(range_u64(0..u64::MAX), 0..96), range_usize(0..96)),
            |(samples, cut)| {
                let cut = (*cut).min(samples.len());
                let (a, b) = samples.split_at(cut);
                let merged = hist_of(a).merge(&hist_of(b));
                assert_eq!(merged, hist_of(samples));
            },
        );
    }

    #[test]
    fn prop_samples_land_in_their_bucket_bounds() {
        check(
            &Config::with_cases(256),
            "hist_bucket_containment",
            &range_u64(0..u64::MAX),
            |&v| {
                let (lo, hi) = bucket_bounds(bucket_of(v));
                assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}]");
                // Recording exactly one sample puts it in exactly that
                // bucket and nowhere else.
                let s = hist_of(&[v]);
                assert_eq!(s.buckets[bucket_of(v)], 1);
                assert_eq!(s.buckets.iter().sum::<u64>(), 1);
                assert_eq!(s.percentile(100.0), v);
            },
        );
    }
}
