//! Order statistics over a handful of pass timings.

/// Median, quartiles and minimum of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest value.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median
        }
    }
}

/// Quantile `k/4` exactly as Python's `statistics.quantiles(values,
/// n=4)` computes it (the default exclusive method, which the
/// benchmark contract's spread rule uses): position `k·(len+1)/4` on
/// the 1-based sorted sample, linearly interpolated between
/// neighbours. `sorted` must be ascending and non-empty.
fn quartile(sorted: &[f64], k: usize) -> f64 {
    let len = sorted.len();
    if len == 1 {
        return sorted[0];
    }
    let pos = k * (len + 1);
    let j = (pos / 4).clamp(1, len - 1);
    let delta = pos as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

/// Summarise `values`; `None` when empty.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    Some(Summary {
        n,
        min: v[0],
        q1: quartile(&v, 1),
        median,
        q3: quartile(&v, 3),
    })
}

/// How much worse `after` is than `before`, as a share of `before`;
/// negative when it improved.
pub fn worse_by(before: f64, after: f64, lower_is_better: bool) -> f64 {
    if before == 0.0 {
        return if after == before { 0.0 } else { f64::INFINITY };
    }
    let change = (after - before) / before.abs();
    if lower_is_better {
        change
    } else {
        -change
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        let median = |v: &[f64]| summarize(v).map(|s| s.median);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 12), n=4) == [3.0, 6.0, 9.0]
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        let s = summarize(&v).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3), (3.0, 6.0, 9.0));
        assert_eq!((s.n, s.min), (11, 1.0));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7], n=4) == [2, 4, 6]
        let v: Vec<f64> = (1..=7).map(f64::from).collect();
        let s = summarize(&v).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3), (2.0, 4.0, 6.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = summarize(&[10.0, 20.0]).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
        let s = summarize(&[4.0]).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3), (4.0, 4.0, 4.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(summarize(&v).expect("non-empty").spread(), 1.0);
        assert_eq!(summarize(&[0.0, 0.0]).expect("non-empty").spread(), 0.0);
    }

    #[test]
    fn worse_by_follows_direction() {
        assert!((worse_by(10.0, 11.0, true) - 0.1).abs() < 1e-12);
        assert!((worse_by(10.0, 11.0, false) + 0.1).abs() < 1e-12);
        assert!((worse_by(10.0, 9.0, false) - 0.1).abs() < 1e-12);
        assert_eq!(worse_by(0.0, 0.0, true), 0.0);
        assert_eq!(worse_by(0.0, 1.0, true), f64::INFINITY);
    }
}
