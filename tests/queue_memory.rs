//! A mobile run's memory follows its live state, not its horizon. A
//! reconnecting node's parked backlog lands in the event queue in one
//! burst; the queue used to leave a burst-sized buffer behind in every
//! wheel slot a reconnect ever hit, so four times the simulated time
//! cost 2.4 times the heap (48.7 MB at 600 s for the run below). The
//! live quantities — parked payloads, stores, commit logs — do not grow
//! with the horizon, and now neither does the peak.
//!
//! A byte-tracking `#[global_allocator]` is process-wide, so this file
//! holds exactly one test.

use dangers_of_replication::core::{LazyGroupSim, Mobility, SimConfig};
use dangers_of_replication::model::Params;
use dangers_of_replication::sim::SimDuration;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Tracking;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are statistics that publish
// no other data.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through `alloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            grew(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` with `layout`; the caller's
        // remaining obligations are `System::realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Tracking = Tracking;

/// Peak live heap bytes, above what was live before construction, of a
/// cycling lazy-group run (8 nodes, 8 s connected / 8 s disconnected)
/// to `horizon` simulated seconds.
fn peak_live_bytes(horizon: u64) -> usize {
    let p = Params::new(2_000.0, 8.0, 20.0, 4.0, 0.01);
    let mobility = Mobility::Cycling {
        connected: SimDuration::from_secs(8),
        disconnected: SimDuration::from_secs(8),
    };
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let report = LazyGroupSim::new(SimConfig::from_params(&p, horizon, 42), mobility).run();
    assert!(
        report.committed > 100 * horizon,
        "run too short: {report:?}"
    );
    PEAK.load(Ordering::Relaxed) - before
}

#[test]
fn mobile_run_memory_does_not_follow_the_horizon() {
    let (short, long) = (peak_live_bytes(150), peak_live_bytes(600));
    let mb = |bytes: usize| bytes as f64 / (1 << 20) as f64;
    assert!(
        long as f64 <= short as f64 * 1.5,
        "peak live heap {:.1} MB at 600 s against {:.1} MB at 150 s",
        mb(long),
        mb(short)
    );
    assert!(
        long <= 16 << 20,
        "peak live heap {:.1} MB at 600 s",
        mb(long)
    );
}
