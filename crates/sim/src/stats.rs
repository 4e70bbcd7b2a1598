//! Streaming statistics used by the metrics layer: counters, rate
//! meters, and a Welford mean/variance accumulator.

use crate::time::{SimDuration, SimTime};

/// A monotonically increasing event counter with a rate helper.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter {
    count: u64,
}

impl Counter {
    /// A fresh zero counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one occurrence.
    pub fn incr(&mut self) {
        self.count += 1;
    }

    /// Record `n` occurrences.
    pub fn add(&mut self, n: u64) {
        self.count += n;
    }

    /// Total occurrences so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Occurrences per second over the window `[start, end]`.
    /// Returns 0 for an empty window.
    pub fn rate(&self, start: SimTime, end: SimTime) -> f64 {
        let span = end.since(start).as_secs_f64();
        if span <= 0.0 {
            0.0
        } else {
            self.count as f64 / span
        }
    }
}

/// Welford's online mean/variance accumulator for duration samples
/// (e.g. wait times, transaction latencies).
#[derive(Debug, Clone, Copy, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    max: f64,
}

impl Welford {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        if x > self.max {
            self.max = x;
        }
    }

    /// Record a duration sample in seconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_secs_f64());
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Largest sample seen (0 if empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_and_rates() {
        let mut c = Counter::new();
        c.incr();
        c.add(9);
        assert_eq!(c.count(), 10);
        let r = c.rate(SimTime::ZERO, SimTime::from_secs(5));
        assert!((r - 2.0).abs() < 1e-12);
    }

    #[test]
    fn counter_rate_empty_window_is_zero() {
        let mut c = Counter::new();
        c.incr();
        assert_eq!(c.rate(SimTime::from_secs(1), SimTime::from_secs(1)), 0.0);
    }

    #[test]
    fn welford_mean_and_variance() {
        let mut w = Welford::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            w.record(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // Population variance is 4.0; unbiased sample variance = 32/7.
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert!((w.max() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn welford_empty_is_zero() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.std_dev(), 0.0);
    }

    #[test]
    fn welford_single_sample() {
        let mut w = Welford::new();
        w.record(3.5);
        assert_eq!(w.mean(), 3.5);
        assert_eq!(w.variance(), 0.0);
    }

    #[test]
    fn welford_duration_samples() {
        let mut w = Welford::new();
        w.record_duration(SimDuration::from_millis(100));
        w.record_duration(SimDuration::from_millis(300));
        assert!((w.mean() - 0.2).abs() < 1e-12);
    }
}
