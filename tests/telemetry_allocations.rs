//! Telemetry costs no allocation per event. A run with a `NullTracer`
//! attached builds and dispatches every event, and a run with full
//! metrics records every distribution sample; each must allocate the
//! same *number* of extra times whatever the run length, or an emission
//! site or record site has started allocating per event. Measured on a
//! 4-node lazy-group run at the paper's 0.1 %-conflict point (the
//! busiest event stream without a reconciliation meltdown): the
//! `NullTracer` run makes exactly one allocation more than the untraced
//! run (the `RunStart` label), and full metrics make exactly 19 more
//! than `with_lean_metrics()` (the named distributions and gauges), at
//! 30, 120 and 480 simulated seconds alike (2,980 to 47,968 commits).
//! The wall-clock side of the same comparison is the benchmark's
//! `telemetry.null_tracer_overhead_ratio` and
//! `telemetry.metrics_overhead_ratio`.
//!
//! A counting `#[global_allocator]` is process-wide, so this file holds
//! exactly one test.

use dangers_of_replication::core::{LazyGroupSim, Mobility, SimConfig};
use dangers_of_replication::model::Params;
use dangers_of_replication::telemetry::{NullTracer, TraceHandle};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a statistic that publishes
// no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations made by `run()` (drain included) of the lazy-group
/// workload over `horizon` simulated seconds, seed 2.
fn run_allocations(horizon: u64, lean: bool, tracer: TraceHandle) -> i64 {
    let p = Params::new(100_000.0, 4.0, 25.0, 16.0, 0.01);
    let mut cfg = SimConfig::from_params(&p, horizon, 2);
    if lean {
        cfg = cfg.with_lean_metrics();
    }
    let sim = LazyGroupSim::new(cfg, Mobility::Connected).with_tracer(tracer);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = sim.run();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(report.committed > 2_500, "run too short: {report:?}");
    allocations as i64
}

/// Extra allocations of (`NullTracer` over untraced, full metrics over
/// lean) at `horizon`.
fn telemetry_extra(horizon: u64) -> (i64, i64) {
    let plain = run_allocations(horizon, false, TraceHandle::off());
    let traced = run_allocations(horizon, false, TraceHandle::new(NullTracer));
    let lean = run_allocations(horizon, true, TraceHandle::off());
    (traced - plain, plain - lean)
}

#[test]
fn tracer_and_metrics_allocations_do_not_grow_with_the_run() {
    let (tracer_short, metrics_short) = telemetry_extra(30);
    let (tracer_long, metrics_long) = telemetry_extra(480);
    assert_eq!(
        tracer_short, tracer_long,
        "NullTracer allocations over untraced grow with the run: \
         {tracer_short} at 30 s, {tracer_long} at 480 s"
    );
    assert_eq!(
        metrics_short, metrics_long,
        "full-metrics allocations over lean grow with the run: \
         {metrics_short} at 30 s, {metrics_long} at 480 s"
    );
    assert!(
        (0..=4).contains(&tracer_short),
        "NullTracer run makes {tracer_short} extra allocations"
    );
    assert!(
        (0..=32).contains(&metrics_short),
        "full metrics make {metrics_short} extra allocations"
    );
}
