//! Host-speed calibration.
//!
//! The sandbox is a shared 2-core VM whose speed drifts by 5–30 % over
//! seconds to minutes (measured: the same pass took 2.2 s to 3.2 s in
//! back-to-back processes, and a pure arithmetic loop drifted with it).
//! No number of passes inside a 20-second run averages that out, so
//! the runner measures it: a fixed piece of work, the *reference
//! slice*, runs before every operation group and after the last, and
//! each pass's times are divided by how much slower than nominal the
//! slices of that pass ran. Raw times are reported beside the
//! normalised ones.
//!
//! The slice is this file's own code (an xorshift walk doing
//! read-modify-writes over a 2 MB table), so a change to the simulator
//! cannot move it.

use std::hint::black_box;
use std::time::Instant;

/// Time one slice takes on the sandbox when it is quiet. Normalised
/// seconds are seconds on a host where a slice takes exactly this.
pub const NOMINAL_SLICE_NS: f64 = 2.0e6;
/// Slices per sampling point.
const SLICES_PER_POINT: usize = 4;
const TABLE_WORDS: usize = 1 << 18;
const STEPS: u32 = 750_000;

/// The reference work and the timings taken so far.
pub struct HostSpeed {
    table: Vec<u64>,
    slices: Vec<u64>,
}

impl HostSpeed {
    /// Allocate the table (touching every page).
    pub fn new() -> Self {
        HostSpeed {
            table: (0..TABLE_WORDS as u64).collect(),
            slices: Vec::new(),
        }
    }

    fn slice(&mut self) -> u64 {
        let t0 = Instant::now();
        let mask = (TABLE_WORDS - 1) as u64;
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.table[(x & mask) as usize];
            *slot = slot.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(x);
        }
        black_box(&self.table);
        t0.elapsed().as_nanos() as u64
    }

    /// Run the reference slices of one sampling point.
    pub fn sample(&mut self) {
        for _ in 0..SLICES_PER_POINT {
            let ns = self.slice();
            self.slices.push(ns);
        }
    }

    /// How much slower than nominal the host ran since the last call
    /// (the median slice over the nominal one), and forget the
    /// samples. 1 when nothing was sampled.
    pub fn take_factor(&mut self) -> f64 {
        let factor = factor_of(&self.slices);
        self.slices.clear();
        factor
    }
}

fn factor_of(slices: &[u64]) -> f64 {
    let values: Vec<f64> = slices.iter().map(|&ns| ns as f64).collect();
    crate::stats::summarize(&values).map_or(1.0, |s| s.median / NOMINAL_SLICE_NS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_median_slice_over_nominal() {
        let n = NOMINAL_SLICE_NS as u64;
        assert_eq!(factor_of(&[]), 1.0);
        assert_eq!(factor_of(&[n, n, n]), 1.0);
        // One preempted slice does not move the median.
        assert_eq!(factor_of(&[n, 2 * n, 40 * n, 2 * n, n]), 2.0);
    }

    #[test]
    fn sampling_accumulates_until_taken() {
        let mut h = HostSpeed::new();
        h.sample();
        h.sample();
        assert_eq!(h.slices.len(), 2 * SLICES_PER_POINT);
        assert!(h.take_factor() > 0.0);
        assert!(h.slices.is_empty());
        assert_eq!(h.take_factor(), 1.0);
    }
}
