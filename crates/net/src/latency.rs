//! Message-delay models. The paper's closed forms set
//! `Message_Delay = 0` ("these delays and extra processing are
//! ignored"); the simulator makes the delay a pluggable policy so the
//! harness can both reproduce the paper's assumption and measure how
//! delays worsen the rates (the paper predicts they do).

use repl_sim::{SimDuration, SimRng};

/// A model for one-way message latency between two nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyModel {
    /// Every message takes exactly this long. `Fixed(ZERO)` reproduces
    /// the paper's analytic assumption.
    Fixed(SimDuration),
    /// Uniformly distributed latency in `[min, max]`.
    Uniform {
        /// Smallest possible delay.
        min: SimDuration,
        /// Largest possible delay.
        max: SimDuration,
    },
    /// Exponentially distributed latency with the given mean — heavy
    /// tail, models congested WAN links.
    Exponential {
        /// Mean delay.
        mean: SimDuration,
    },
}

impl LatencyModel {
    /// The paper's assumption: zero delay.
    pub const ZERO: LatencyModel = LatencyModel::Fixed(SimDuration(0));

    /// Sample one message delay.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        match *self {
            LatencyModel::Fixed(d) => d,
            LatencyModel::Uniform { min, max } => {
                debug_assert!(min <= max, "uniform latency with min > max");
                let span = max.0.saturating_sub(min.0);
                if span == 0 {
                    min
                } else {
                    SimDuration(min.0 + rng.gen_range(span + 1))
                }
            }
            LatencyModel::Exponential { mean } => {
                SimDuration::from_secs_f64(rng.exp(mean.as_secs_f64()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_is_constant() {
        let m = LatencyModel::Fixed(SimDuration::from_millis(5));
        let mut rng = SimRng::new(1);
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), SimDuration::from_millis(5));
        }
    }

    #[test]
    fn zero_model_is_zero() {
        let mut rng = SimRng::new(1);
        assert_eq!(LatencyModel::ZERO.sample(&mut rng), SimDuration::ZERO);
    }

    #[test]
    fn uniform_stays_in_bounds() {
        let m = LatencyModel::Uniform {
            min: SimDuration(100),
            max: SimDuration(200),
        };
        let mut rng = SimRng::new(2);
        for _ in 0..1000 {
            let d = m.sample(&mut rng);
            assert!(d.0 >= 100 && d.0 <= 200, "out of range: {d}");
        }
    }

    #[test]
    fn uniform_degenerate_range() {
        let m = LatencyModel::Uniform {
            min: SimDuration(7),
            max: SimDuration(7),
        };
        let mut rng = SimRng::new(3);
        assert_eq!(m.sample(&mut rng), SimDuration(7));
    }

    #[test]
    fn exponential_mean_close() {
        let m = LatencyModel::Exponential {
            mean: SimDuration::from_millis(10),
        };
        let mut rng = SimRng::new(4);
        let n = 50_000;
        let total: f64 = (0..n).map(|_| m.sample(&mut rng).as_secs_f64()).sum();
        let mean = total / n as f64;
        assert!((mean - 0.010).abs() < 0.0005, "mean {mean}");
    }
}
