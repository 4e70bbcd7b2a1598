//! Criterion benchmarks (see benches/) and the telemetry overhead
//! guard.
//!
//! The guard holds the telemetry layer to its design contract: an
//! engine run with no sink attached (the default every experiment and
//! benchmark exercises) must cost the same as the pre-telemetry hot
//! path, and even a [`repl_telemetry::NullTracer`] sink — which forces
//! every event to be constructed and dispatched, then discarded — must
//! stay within a few percent. The same contract covers the mergeable
//! metrics distributions: full histogram recording (the default) must
//! stay within a few percent of a `lean_metrics` run that skips every
//! distribution.

use repl_core::{LazyGroupSim, Mobility, SimConfig};
use repl_model::Params;
use repl_telemetry::TraceHandle;
use std::time::{Duration, Instant};

/// The workload both sides of the overhead comparison run: a 4-node
/// lazy-group simulation with the paper's 0.1%-conflict operating
/// point — the engine with the busiest event stream (commits, replica
/// sends/applies, lock waits, reconciliations) but without the
/// reconciliation meltdown a small database triggers, which would
/// measure conflict handling rather than tracing.
pub fn overhead_workload(seed: u64) -> SimConfig {
    let p = Params::new(100_000.0, 4.0, 25.0, 16.0, 0.01);
    SimConfig::from_params(&p, 30, seed)
}

/// Wall-clock of one run with `tracer` attached.
pub fn timed_run(cfg: SimConfig, tracer: TraceHandle) -> Duration {
    let sim = LazyGroupSim::new(cfg, Mobility::Connected).with_tracer(tracer);
    let start = Instant::now();
    std::hint::black_box(sim.run());
    start.elapsed()
}

/// Minimum wall-clock over `rounds` interleaved runs of each
/// configuration in `make`, as `(min_a, min_b)`.
///
/// Two deliberate choices keep this robust on noisy shared hardware:
/// the minimum (not mean/median) estimates the noise-free floor, and
/// strict A/B interleaving ensures both sides sample the same drift in
/// CPU frequency, allocator state, and scheduler pressure. The round
/// count can be overridden with `BENCH_OVERHEAD_ROUNDS` (see
/// [`overhead_rounds`]).
pub fn interleaved_minima(
    rounds: u32,
    mut run_a: impl FnMut() -> Duration,
    mut run_b: impl FnMut() -> Duration,
) -> (Duration, Duration) {
    let rounds = overhead_rounds(rounds);
    let mut min_a = Duration::MAX;
    let mut min_b = Duration::MAX;
    for _ in 0..rounds {
        min_a = min_a.min(run_a());
        min_b = min_b.min(run_b());
    }
    (min_a, min_b)
}

/// The overhead the guards allow.
pub const OVERHEAD_LIMIT: f64 = 0.05;

/// The overhead of configuration B over A, as `min_b / min_a - 1`,
/// for the guard's 5 % limit: the smallest ratio of up to three
/// independent [`interleaved_minima`] attempts, stopping at the first
/// one under the limit. A real regression is over the limit every
/// time; a burst of host noise that lands on one side of one attempt
/// (6.8 % was measured on a 2-core sandbox with nothing changed) is
/// not, so only the former fails the guard.
pub fn guarded_overhead(
    rounds: u32,
    mut run_a: impl FnMut() -> Duration,
    mut run_b: impl FnMut() -> Duration,
) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let (a, b) = interleaved_minima(rounds, &mut run_a, &mut run_b);
        best = best.min(b.as_secs_f64() / a.as_secs_f64() - 1.0);
        if best < OVERHEAD_LIMIT {
            break;
        }
    }
    best
}

/// Round count for the overhead guard, overridable for slow or noisy
/// machines: `BENCH_OVERHEAD_ROUNDS=4` trades confidence for wall
/// clock in CI smoke runs; values below 1 are clamped to 1.
pub fn overhead_rounds(default: u32) -> u32 {
    std::env::var("BENCH_OVERHEAD_ROUNDS")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
        .map_or(default, |v| v.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use repl_telemetry::NullTracer;

    /// The bench guard: attaching a NullTracer — every event built and
    /// dispatched, then thrown away — must cost <5% over the untraced
    /// run. Regressions here mean an emission site started doing work
    /// outside the `emit` closure, or the off-path lost its early
    /// return.
    #[test]
    fn null_tracer_overhead_under_five_percent() {
        // Warm both paths once so lazy init and cache effects land
        // outside the measurement.
        timed_run(overhead_workload(1), TraceHandle::off());
        timed_run(overhead_workload(1), TraceHandle::new(NullTracer));

        let overhead = guarded_overhead(
            12,
            || timed_run(overhead_workload(2), TraceHandle::off()),
            || timed_run(overhead_workload(2), TraceHandle::new(NullTracer)),
        );
        assert!(
            overhead < OVERHEAD_LIMIT,
            "NullTracer overhead {:.1}% over the untraced run exceeds 5% in all three attempts",
            overhead * 100.0
        );
    }

    /// The metrics guard: full distribution recording (latency,
    /// lock-wait, and propagation-lag histograms plus staleness
    /// gauges — the `--metrics` default) must cost <5% over a
    /// `lean_metrics` run that skips every distribution. Regressions
    /// mean a record site started allocating or left the
    /// `measuring()` gate.
    #[test]
    fn metrics_recording_overhead_under_five_percent() {
        timed_run(overhead_workload(1).with_lean_metrics(), TraceHandle::off());
        timed_run(overhead_workload(1), TraceHandle::off());

        let overhead = guarded_overhead(
            12,
            || timed_run(overhead_workload(2).with_lean_metrics(), TraceHandle::off()),
            || timed_run(overhead_workload(2), TraceHandle::off()),
        );
        assert!(
            overhead < OVERHEAD_LIMIT,
            "metrics overhead {:.1}% over the lean run exceeds 5% in all three attempts",
            overhead * 100.0
        );
    }
}
