//! Exact latency percentiles.
//!
//! Virtual latencies are whole cycles and almost all of them are small, so
//! a recorder keeps one counter per cycle value below [`DIRECT`] and the
//! raw values of the rare larger samples in an overflow vector.
//! Percentiles come from these exact counts, unlike a log2 histogram whose
//! answer can only move in ×2 steps.
//!
//! A percentile reads a latency of `c` whole cycles as spread evenly over
//! `[c, c + 1)`: it is the nearest-rank value `c` plus the share of the
//! samples equal to `c` that the rank needs. Samples moving between two
//! adjacent cycle counts therefore move it before its whole part changes.

/// Values below this are counted in one-cycle buckets.
pub const DIRECT: u64 = 1 << 16;

/// An exact recorder of `u64` samples.
#[derive(Clone, Default)]
pub struct Recorder {
    /// `buckets[v]` counts samples equal to `v`; allocated on first use.
    buckets: Vec<u64>,
    /// Every sample `>= DIRECT`, unsorted.
    overflow: Vec<u64>,
    n: u64,
}

impl Recorder {
    /// A recorder with its buckets already allocated.
    pub fn allocated() -> Recorder {
        Recorder {
            buckets: vec![0; DIRECT as usize],
            ..Recorder::default()
        }
    }

    pub fn record(&mut self, v: u64) {
        self.n += 1;
        if v < DIRECT {
            if self.buckets.is_empty() {
                self.buckets = vec![0; DIRECT as usize];
            }
            self.buckets[v as usize] += 1;
        } else {
            self.overflow.push(v);
        }
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn merge(&mut self, other: &Recorder) {
        if !other.buckets.is_empty() {
            if self.buckets.is_empty() {
                self.buckets = vec![0; DIRECT as usize];
            }
            for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
                *a += b;
            }
        }
        self.overflow.extend_from_slice(&other.overflow);
        self.n += other.n;
    }

    /// The quantile `num/den`. With `v` the nearest-rank value (the
    /// smallest recorded value with at least `ceil(n·num/den)` samples
    /// `<= v`), it is `v + (n·num/den - below) / equal`, where `below`
    /// samples are smaller than `v` and `equal` samples equal it. Returns 0
    /// for an empty recorder.
    pub fn quantile(&self, num: u64, den: u64) -> f64 {
        assert!(num <= den && den > 0, "quantile {num}/{den} out of range");
        if self.n == 0 {
            return 0.0;
        }
        let target = self.n as f64 * num as f64 / den as f64;
        let rank = ((self.n as u128 * num as u128).div_ceil(den as u128) as u64).max(1);
        let mut below = 0u64;
        for (v, &c) in self.buckets.iter().enumerate() {
            if below + c >= rank {
                return interpolate(v as u64, below, c, target);
            }
            below += c;
        }
        let mut big = self.overflow.clone();
        big.sort_unstable();
        let v = big[(rank - below - 1) as usize];
        let lo = big.partition_point(|&x| x < v);
        let hi = big.partition_point(|&x| x <= v);
        interpolate(v, below + lo as u64, (hi - lo) as u64, target)
    }

    pub fn p50(&self) -> f64 {
        self.quantile(1, 2)
    }

    pub fn p99(&self) -> f64 {
        self.quantile(99, 100)
    }

    pub fn p999(&self) -> f64 {
        self.quantile(999, 1000)
    }
}

/// `v` plus the share of the `equal` samples of value `v` that lie below
/// `target`, given `below` samples smaller than `v`.
fn interpolate(v: u64, below: u64, equal: u64, target: f64) -> f64 {
    v as f64 + (target - below as f64) / equal as f64
}

/// The p50, p99 and p99.9 of a run, each the mean over the run's rounds of
/// that round's percentile. Every round is an independent trial on a
/// fresh structure, so the mean settles as rounds are added, where the
/// percentile of all rounds merged can jump between clusters of latency
/// values from one seed to the next.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RoundMean {
    sum: [f64; 3],
    rounds: u64,
}

impl RoundMean {
    /// Add one round; an empty recorder (a kind the round did not run)
    /// adds nothing.
    pub fn add(&mut self, r: &Recorder) {
        if r.count() == 0 {
            return;
        }
        for (s, q) in self.sum.iter_mut().zip([r.p50(), r.p99(), r.p999()]) {
            *s += q;
        }
        self.rounds += 1;
    }

    fn mean(&self, i: usize) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.sum[i] / self.rounds as f64
        }
    }

    pub fn p50(&self) -> f64 {
        self.mean(0)
    }

    pub fn p99(&self) -> f64 {
        self.mean(1)
    }

    pub fn p999(&self) -> f64 {
        self.mean(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pto_sim::rng::XorShift64;

    /// The quantile of a sorted vector, by the definition on
    /// [`Recorder::quantile`]: the reference.
    fn reference(sorted: &[u64], num: u64, den: u64) -> f64 {
        let n = sorted.len() as u64;
        let rank = (n * num).div_ceil(den).max(1);
        let v = sorted[(rank - 1) as usize];
        let below = sorted.partition_point(|&x| x < v);
        let equal = sorted.partition_point(|&x| x <= v) - below;
        let target = n as f64 * num as f64 / den as f64;
        v as f64 + (target - below as f64) / equal as f64
    }

    fn check(samples: &[u64]) {
        let mut r = Recorder::default();
        for &v in samples {
            r.record(v);
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        for (num, den) in [
            (0, 1),
            (1, 2),
            (9, 10),
            (99, 100),
            (999, 1000),
            (1, 1),
            (1, 3),
        ] {
            assert_eq!(
                r.quantile(num, den),
                reference(&sorted, num, den),
                "quantile {num}/{den} of {} samples",
                samples.len()
            );
        }
        assert_eq!(r.count(), samples.len() as u64);
    }

    #[test]
    fn matches_sorted_reference_below_direct_range() {
        let mut rng = XorShift64::new(7);
        let samples: Vec<u64> = (0..10_000).map(|_| 60 + rng.below(40)).collect();
        check(&samples);
    }

    #[test]
    fn matches_sorted_reference_across_overflow() {
        // Mostly small values with a heavy tail above the direct range, so
        // the upper quantiles land in the overflow vector.
        let mut rng = XorShift64::new(11);
        let samples: Vec<u64> = (0..20_000)
            .map(|_| {
                if rng.chance(1, 50) {
                    DIRECT + rng.below(1 << 30)
                } else {
                    rng.below(5_000)
                }
            })
            .collect();
        check(&samples);
        // All samples in the overflow range.
        let big: Vec<u64> = (0..999).map(|i| DIRECT * 3 + (i * 7919) % 1000).collect();
        check(&big);
    }

    #[test]
    fn tiny_samples_and_boundaries() {
        check(&[5]);
        check(&[DIRECT - 1, DIRECT, 0]);
        check(&[3, 1, 2, 2]);
        assert_eq!(Recorder::default().p99(), 0.0);
    }

    #[test]
    fn a_percentile_reads_its_place_within_the_bucket() {
        let mut r = Recorder::default();
        for v in [10, 20, 20, 20, 20, 30] {
            r.record(v);
        }
        // The median needs 2 of the four 20s beyond the one 10.
        assert_eq!(r.p50(), 20.5);
        assert_eq!(r.quantile(0, 1), 10.0);
        assert_eq!(r.quantile(1, 1), 31.0);
        // Moving a 20 up to 21 moves the median within its bucket.
        let mut s = Recorder::default();
        for v in [10, 20, 20, 20, 21, 30] {
            s.record(v);
        }
        assert!(s.p50() > r.p50() && s.p50() < 21.0);
    }

    #[test]
    fn round_mean_averages_rounds_and_skips_empty_ones() {
        let mut a = Recorder::default();
        let mut b = Recorder::default();
        for _ in 0..1000 {
            a.record(100);
            b.record(200);
        }
        let mut m = RoundMean::default();
        m.add(&a);
        m.add(&Recorder::default());
        m.add(&b);
        assert_eq!(m.p50(), (a.p50() + b.p50()) / 2.0);
        assert_eq!(m.p999(), (a.p999() + b.p999()) / 2.0);
        assert_eq!(RoundMean::default().p99(), 0.0);
    }

    #[test]
    fn merge_equals_recording_everything_once() {
        let mut rng = XorShift64::new(3);
        let samples: Vec<u64> = (0..5_000)
            .map(|_| {
                if rng.chance(1, 10) {
                    DIRECT + rng.below(99)
                } else {
                    rng.below(300)
                }
            })
            .collect();
        let (mut a, mut b, mut all) = (
            Recorder::default(),
            Recorder::default(),
            Recorder::default(),
        );
        for (i, &v) in samples.iter().enumerate() {
            if i % 3 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
            all.record(v);
        }
        a.merge(&b);
        for (num, den) in [(1, 2), (99, 100), (999, 1000)] {
            assert_eq!(a.quantile(num, den), all.quantile(num, den));
        }
        assert_eq!(a.count(), all.count());
    }
}
