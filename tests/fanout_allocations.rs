//! The sharded two-tier commit path allocates in proportion to `rf`,
//! not `Nodes`: the base fans a commit out by walking each update's
//! replica set and ships one shared payload, so four times the nodes at
//! the same total load and replication factor must not cost more heap
//! allocations per commit: 5.54 at 64 nodes against 5.26 at 16, the
//! difference being per-node bookkeeping warming up (parked lists and
//! tentative stores, four times as many of them). Two designs this
//! rules out. Filtering the refresh once per destination signature
//! makes one payload per distinct hosted set, which with round-robin
//! placement is one per node: 88 against 30. And an event queue that
//! rebuilds its overflow list in a fresh vector on every migration
//! costs 0.79 allocations per commit at 64 nodes against 0.04 at 16,
//! because lower per-node rates send more arrivals past the wheel
//! horizon: 6.4 against 5.3.
//!
//! A counting `#[global_allocator]` is process-wide, so this file holds
//! exactly one test.

use dangers_of_replication::core::{SimConfig, TwoTierConfig, TwoTierSim, TwoTierWorkload};
use dangers_of_replication::model::Params;
use dangers_of_replication::sim::SimDuration;
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

/// Heap allocations per committed transaction over a whole run (drain
/// included) of `nodes` nodes, `nodes` shards, rf 3, 160 TPS in total.
fn allocations_per_commit(nodes: u32) -> f64 {
    let p = Params::new(
        20_000.0,
        f64::from(nodes),
        160.0 / f64::from(nodes),
        4.0,
        0.01,
    );
    let cfg = TwoTierConfig {
        sim: SimConfig::from_params(&p, 60, 42)
            .with_shards(nodes, 3)
            .with_cross_shard(0.10),
        base_nodes: 2,
        mobile_owned: 0,
        connected: SimDuration::from_secs(8),
        disconnected: SimDuration::from_secs(12),
        workload: TwoTierWorkload::Commutative { max_amount: 10 },
        initial_value: 10_000,
    };
    let sim = TwoTierSim::new(cfg);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = sim.run();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(report.committed > 5_000, "run too short: {report:?}");
    allocations as f64 / report.committed as f64
}

#[test]
fn two_tier_allocations_per_commit_follow_rf_not_nodes() {
    let (small, large) = (allocations_per_commit(16), allocations_per_commit(64));
    assert!(
        large <= small * 1.10,
        "{large:.1} allocations per commit at 64 nodes against {small:.1} at 16"
    );
}
