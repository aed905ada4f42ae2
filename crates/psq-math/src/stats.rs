//! Descriptive statistics for Monte-Carlo experiments.
//!
//! The classical-baseline reproduction (Section 1.1 / Appendix A) estimates
//! expected query counts by averaging over random target locations, and the
//! benchmark harness reports means with confidence intervals.  This module
//! provides the summary statistics those experiments need, accumulated in a
//! single streaming pass (Welford's algorithm) so arbitrarily long runs do
//! not require storing samples.

/// Streaming accumulator for mean / variance / extrema of a sample.
#[derive(Clone, Debug, Default)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Adds every observation from an iterator.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// A two-sided normal-approximation confidence interval
    /// `(mean − z·se, mean + z·se)`.
    ///
    /// `z = 1.96` gives the conventional 95% interval; the Monte-Carlo
    /// experiments use it to assert that the measured expectation brackets
    /// the closed-form prediction.
    pub fn confidence_interval(&self, z: f64) -> (f64, f64) {
        let half = z * self.std_error();
        (self.mean - half, self.mean + half)
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let new_mean = self.mean + delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64) * (other.count as f64) / total as f64;
        self.mean = new_mean;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Mean of a slice (`NaN` for an empty slice is avoided by returning 0).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population variance of a slice.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64
}

/// Maximum absolute deviation of a slice from a reference value.
pub fn max_abs_deviation(xs: &[f64], reference: f64) -> f64 {
    xs.iter().map(|x| (x - reference).abs()).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_basic_moments() {
        let mut s = RunningStats::new();
        s.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Unbiased variance of this classic sample is 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        let (lo, hi) = s.confidence_interval(1.96);
        assert!(lo < 5.0 && 5.0 < hi);
    }

    #[test]
    fn running_stats_empty_and_single() {
        let s = RunningStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        let mut s1 = RunningStats::new();
        s1.push(3.5);
        assert_eq!(s1.mean(), 3.5);
        assert_eq!(s1.variance(), 0.0);
        assert_eq!(s1.std_error(), 0.0);
    }

    #[test]
    fn merging_matches_single_pass() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = RunningStats::new();
        whole.extend(data.iter().copied());

        let mut left = RunningStats::new();
        left.extend(data[..37].iter().copied());
        let mut right = RunningStats::new();
        right.extend(data[37..].iter().copied());
        left.merge(&right);

        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-10);
        assert!((left.variance() - whole.variance()).abs() < 1e-10);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn merging_with_empty_is_identity() {
        let mut a = RunningStats::new();
        a.extend([1.0, 2.0, 3.0]);
        let before = a.clone();
        a.merge(&RunningStats::new());
        assert!((a.mean() - before.mean()).abs() < 1e-15);

        let mut empty = RunningStats::new();
        empty.merge(&before);
        assert!((empty.mean() - before.mean()).abs() < 1e-15);
    }

    #[test]
    fn slice_helpers() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((mean(&xs) - 2.5).abs() < 1e-12);
        assert!((variance(&xs) - 1.25).abs() < 1e-12);
        assert!((max_abs_deviation(&xs, 2.5) - 1.5).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[42.0]), 0.0);
    }
}
