//! Median and quartiles of repeated measurements, and safe ratios.

/// Median and quartiles of a sample, with the quartiles computed like
/// Python's `statistics.quantiles(values, n=4)` (the "exclusive" method).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Spread {
    pub fn of(values: &[f64]) -> Spread {
        assert!(!values.is_empty(), "spread of no values");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        if n == 1 {
            return Spread {
                median,
                q1: median,
                q3: median,
            };
        }
        let quartile = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Spread {
            median,
            q1: quartile(1),
            q3: quartile(3),
        }
    }

    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// The IQR as a share of the median (0 when the median is 0).
    pub fn rel_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            self.iqr() / self.median.abs()
        }
    }
}

/// `count / base`, or 0 when `base` is 0 (a rate of something that never
/// happened).
pub fn per(count: u64, base: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        count as f64 / base as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(
            Spread::of(&v),
            Spread {
                median: 5.5,
                q1: 2.75,
                q3: 8.25
            }
        );
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Spread::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Spread::of(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert_eq!(Spread::of(&[4.0]).iqr(), 0.0);
    }
}
