//! Steady-state heap allocations per commit, engine by engine. A run's
//! set-up allocates in proportion to its configuration, not its length,
//! so the marginal cost of a commit is the difference between a run to
//! `4H` and a run to `H`, divided by the difference in commits. The
//! bounds may only be tightened. Measured when this gate was added:
//! single-node and lazy-master 0.03, eager-group-serial 0.26, two-tier
//! 4.48 and lazy-group 8.22 allocations per commit.
//!
//! A counting `#[global_allocator]` is process-wide, so this file holds
//! exactly one test.

use dangers_of_replication::core::{
    ContentionProfile, ContentionSim, EagerSim, LazyGroupSim, LazyMasterSim, Mobility, Ownership,
    ReplicaDiscipline, Report, SimConfig, TwoTierConfig, TwoTierSim, TwoTierWorkload,
};
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

/// The short horizon `H`, in simulated seconds.
const H: u64 = 60;

/// DB 2000, 8 nodes, 20 TPS per node, 4 actions: the benchmark's
/// `dense-full` regime.
fn cfg(horizon: u64) -> SimConfig {
    SimConfig::from_params(&Params::new(2_000.0, 8.0, 20.0, 4.0, 0.01), horizon, 42)
}

/// Allocations made by `run` and the commits it reports.
fn counted(run: impl FnOnce() -> Report) -> (u64, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = run();
    (
        ALLOCATIONS.load(Ordering::Relaxed) - before,
        report.committed,
    )
}

/// Marginal allocations per commit of the engine `run` builds, between
/// the horizons `H` and `4H`.
fn marginal(run: impl Fn(SimConfig) -> Report) -> f64 {
    let (short_allocs, short_commits) = counted(|| run(cfg(H)));
    let (long_allocs, long_commits) = counted(|| run(cfg(4 * H)));
    assert!(
        long_commits > 3 * short_commits && short_commits > 1_000,
        "runs too short: {short_commits} and {long_commits} commits"
    );
    long_allocs.saturating_sub(short_allocs) as f64 / (long_commits - short_commits) as f64
}

#[test]
fn allocations_per_commit_stay_within_their_bounds() {
    type Engine = fn(SimConfig) -> Report;
    let engines: [(&str, Engine, f64); 5] = [
        (
            "single-node",
            |c| ContentionSim::new(c, ContentionProfile::single_node(&c)).run(),
            0.3,
        ),
        (
            "eager-group-serial",
            |c| EagerSim::new(c, ReplicaDiscipline::Serial, Ownership::Group).run(),
            0.3,
        ),
        ("lazy-master", |c| LazyMasterSim::new(c).run(), 0.3),
        (
            "lazy-group-connected",
            |c| LazyGroupSim::new(c, Mobility::Connected).run(),
            8.5,
        ),
        (
            "two-tier-commutative",
            |c| {
                TwoTierSim::new(TwoTierConfig {
                    sim: c,
                    base_nodes: 2,
                    mobile_owned: 0,
                    connected: SimDuration::from_secs(8),
                    disconnected: SimDuration::from_secs(12),
                    workload: TwoTierWorkload::Commutative { max_amount: 10 },
                    initial_value: 10_000,
                })
                .run()
            },
            4.5,
        ),
    ];
    let measured: Vec<(&str, f64, f64)> = engines
        .into_iter()
        .map(|(name, run, bound)| (name, marginal(run), bound))
        .collect();
    for &(name, per_commit, bound) in &measured {
        assert!(
            per_commit <= bound,
            "{name}: {per_commit:.2} allocations per commit, bound {bound}; all: {measured:?}"
        );
    }
}
