//! Access-pattern distributions for workload generation.
//!
//! The paper's model assumes "access to objects is equi-probable (there
//! are no hotspots)". The harness reproduces that with
//! [`AccessPattern::Uniform`] and *violates* it deliberately with
//! [`AccessPattern::Zipf`] to show how hotspots worsen every rate — an
//! ablation of the model's key simplification.

use crate::rng::SimRng;

/// How a transaction picks the objects it updates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessPattern {
    /// Equi-probable access — the model's assumption.
    Uniform,
    /// Zipf-distributed access with skew `theta ∈ (0, 1)`: object 0 is
    /// the hottest. `theta → 0` approaches uniform; `theta ≈ 0.99` is
    /// the classic highly-skewed benchmark setting.
    Zipf {
        /// Skew parameter, must be in `(0, 1)`.
        theta: f64,
    },
}

/// A prepared sampler over `[0, n)` for one access pattern.
///
/// The Zipf variant uses the Gray et al. approximation ("Quickly
/// Generating Billion-Record Synthetic Databases", SIGMOD 1994 — the
/// same Jim Gray), which needs only `O(1)` work per sample after an
/// `O(n)` zeta precomputation.
#[derive(Debug, Clone)]
pub enum Sampler {
    /// Uniform over `[0, n)`.
    Uniform {
        /// Population size.
        n: u64,
    },
    /// Zipf over `[0, n)`.
    Zipf {
        /// Population size.
        n: u64,
        /// Skew.
        theta: f64,
        /// `1 / (1 − θ)`.
        alpha: f64,
        /// ζ(n, θ).
        zetan: f64,
        /// Gray's η constant.
        eta: f64,
    },
}

fn zeta(n: u64, theta: f64) -> f64 {
    (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
}

impl Sampler {
    /// Prepare a sampler for `pattern` over `n` objects.
    ///
    /// # Panics
    /// If `n == 0`, or a Zipf `theta` is outside `(0, 1)`.
    pub fn new(pattern: AccessPattern, n: u64) -> Self {
        assert!(n > 0, "cannot sample from an empty population");
        match pattern {
            AccessPattern::Uniform => Sampler::Uniform { n },
            AccessPattern::Zipf { theta } => {
                assert!(
                    theta > 0.0 && theta < 1.0,
                    "Zipf theta must be in (0,1), got {theta}"
                );
                let zetan = zeta(n, theta);
                let zeta2 = zeta(2.min(n), theta);
                let alpha = 1.0 / (1.0 - theta);
                let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
                Sampler::Zipf {
                    n,
                    theta,
                    alpha,
                    zetan,
                    eta,
                }
            }
        }
    }

    /// Population size.
    pub fn population(&self) -> u64 {
        match *self {
            Sampler::Uniform { n } | Sampler::Zipf { n, .. } => n,
        }
    }

    /// Draw one object id.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        match *self {
            Sampler::Uniform { n } => rng.gen_range(n),
            Sampler::Zipf {
                n,
                theta,
                alpha,
                zetan,
                eta,
            } => {
                let u = rng.next_f64();
                let uz = u * zetan;
                if uz < 1.0 {
                    return 0;
                }
                if uz < 1.0 + 0.5f64.powf(theta) {
                    return 1.min(n - 1);
                }
                let rank = (n as f64 * (eta * u - eta + 1.0).powf(alpha)) as u64;
                rank.min(n - 1)
            }
        }
    }

    /// Draw `k` *distinct* object ids (rejection on duplicates — `k` is
    /// the model's small `Actions`, so collisions are cheap even under
    /// heavy skew).
    ///
    /// # Panics
    /// If `k` exceeds the population size.
    pub fn sample_distinct(&self, rng: &mut SimRng, k: usize) -> Vec<u64> {
        let mut out = Vec::with_capacity(k);
        self.sample_distinct_into(rng, k, &mut out);
        out
    }

    /// [`Sampler::sample_distinct`] into a caller-supplied buffer
    /// (cleared first): the same draw sequence, and no allocation once
    /// the buffer has grown to `k`.
    ///
    /// # Panics
    /// If `k` exceeds the population size.
    pub fn sample_distinct_into(&self, rng: &mut SimRng, k: usize, out: &mut Vec<u64>) {
        let n = self.population();
        assert!(k as u64 <= n, "cannot draw {k} distinct from {n}");
        if let Sampler::Uniform { n } = *self {
            return rng.sample_distinct_into(n, k, out);
        }
        out.clear();
        out.reserve(k);
        while out.len() < k {
            let v = self.sample(rng);
            if !out.contains(&v) {
                out.push(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_covers_range() {
        let s = Sampler::new(AccessPattern::Uniform, 10);
        let mut rng = SimRng::new(1);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[s.sample(&mut rng) as usize] = true;
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let s = Sampler::new(AccessPattern::Zipf { theta: 0.9 }, 1000);
        let mut rng = SimRng::new(2);
        let mut head = 0u64;
        let total = 100_000;
        for _ in 0..total {
            if s.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // Under θ=0.9, the top-10 of 1000 objects draw a large share
        // (uniform would give 1%).
        let share = head as f64 / total as f64;
        assert!(share > 0.30, "top-10 share {share} too small for Zipf 0.9");
    }

    #[test]
    fn zipf_frequency_ratio_roughly_power_law() {
        let s = Sampler::new(AccessPattern::Zipf { theta: 0.5 }, 100);
        let mut rng = SimRng::new(3);
        let mut counts = [0u64; 100];
        for _ in 0..500_000 {
            counts[s.sample(&mut rng) as usize] += 1;
        }
        // count(0)/count(3) ≈ 4^0.5 = 2 within tolerance.
        let ratio = counts[0] as f64 / counts[3] as f64;
        assert!((ratio - 2.0).abs() < 0.5, "ratio {ratio}");
    }

    #[test]
    fn zipf_stays_in_range() {
        let s = Sampler::new(AccessPattern::Zipf { theta: 0.99 }, 50);
        let mut rng = SimRng::new(4);
        for _ in 0..10_000 {
            assert!(s.sample(&mut rng) < 50);
        }
    }

    #[test]
    fn distinct_sampling_has_no_duplicates() {
        let s = Sampler::new(AccessPattern::Zipf { theta: 0.8 }, 30);
        let mut rng = SimRng::new(5);
        for _ in 0..100 {
            let v = s.sample_distinct(&mut rng, 8);
            let mut sorted = v.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 8);
        }
    }

    #[test]
    fn uniform_distinct_delegates() {
        let s = Sampler::new(AccessPattern::Uniform, 5);
        let mut rng = SimRng::new(6);
        let mut v = s.sample_distinct(&mut rng, 5);
        v.sort_unstable();
        assert_eq!(v, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn distinct_into_reuses_the_buffer_and_draws_the_same_sequence() {
        for pattern in [AccessPattern::Uniform, AccessPattern::Zipf { theta: 0.8 }] {
            let s = Sampler::new(pattern, 40);
            let (mut a, mut b) = (SimRng::new(7), SimRng::new(7));
            let mut buf = vec![99; 3]; // stale contents must be cleared
            for _ in 0..50 {
                let fresh = s.sample_distinct(&mut a, 6);
                s.sample_distinct_into(&mut b, 6, &mut buf);
                assert_eq!(fresh, buf);
            }
            assert_eq!(a.next_u64(), b.next_u64(), "rng streams stayed in step");
        }
    }

    #[test]
    #[should_panic(expected = "theta must be in")]
    fn invalid_theta_panics() {
        Sampler::new(AccessPattern::Zipf { theta: 1.0 }, 10);
    }

    #[test]
    #[should_panic(expected = "empty population")]
    fn empty_population_panics() {
        Sampler::new(AccessPattern::Uniform, 0);
    }
}
