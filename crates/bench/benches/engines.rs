//! Engine throughput benchmarks: how fast each protocol simulator
//! chews through simulated time. One fixed small configuration per
//! scheme so regressions in the hot loops are visible.

use criterion::{criterion_group, criterion_main, Criterion};
use repl_core::{
    ContentionProfile, ContentionSim, EagerSim, LazyGroupSim, LazyMasterSim, Mobility, Ownership,
    ReplicaDiscipline, SimConfig, TwoTierConfig, TwoTierSim, TwoTierWorkload,
};
use repl_model::Params;
use repl_sim::SimDuration;
use std::hint::black_box;

fn cfg(seed: u64) -> SimConfig {
    let p = Params::new(500.0, 4.0, 10.0, 4.0, 0.01);
    SimConfig::from_params(&p, 30, seed)
}

/// The two-tier setting every bench here uses: 2 base nodes, mobiles
/// cycling 8 s connected / 12 s disconnected, commutative workload.
fn two_tier(sim: SimConfig) -> TwoTierConfig {
    TwoTierConfig {
        sim,
        base_nodes: 2,
        mobile_owned: 0,
        connected: SimDuration::from_secs(8),
        disconnected: SimDuration::from_secs(12),
        workload: TwoTierWorkload::Commutative { max_amount: 10 },
        initial_value: 10_000,
    }
}

fn bench_engines(c: &mut Criterion) {
    let mut g = c.benchmark_group("engines_30s_sim");
    g.sample_size(10);

    g.bench_function("single_node", |b| {
        b.iter(|| {
            let c = cfg(1);
            black_box(ContentionSim::new(c, ContentionProfile::single_node(&c)).run())
        });
    });
    g.bench_function("eager_serial", |b| {
        b.iter(|| {
            black_box(EagerSim::new(cfg(2), ReplicaDiscipline::Serial, Ownership::Group).run())
        });
    });
    g.bench_function("eager_parallel", |b| {
        b.iter(|| {
            black_box(EagerSim::new(cfg(3), ReplicaDiscipline::Parallel, Ownership::Group).run())
        });
    });
    g.bench_function("lazy_master", |b| {
        b.iter(|| black_box(LazyMasterSim::new(cfg(4)).run()));
    });
    g.bench_function("lazy_group_connected", |b| {
        b.iter(|| black_box(LazyGroupSim::new(cfg(5), Mobility::Connected).run()));
    });
    g.bench_function("lazy_group_batch8", |b| {
        // Same run as lazy_group_connected but with fan-out coalesced
        // into 8-message delivery batches — the heap-traffic savings of
        // batched propagation, on an otherwise identical schedule.
        b.iter(|| {
            let c = cfg(5).with_propagation_batch(8);
            black_box(LazyGroupSim::new(c, Mobility::Connected).run())
        });
    });
    g.bench_function("lazy_group_sharded", |b| {
        // The scaleout configuration at bench scale: 8 nodes, shards =
        // nodes, rf = 3, 10% cross-shard — partial stores, filtered
        // fan-out, and the forward-root path all on the hot loop. This
        // is the median the bench.sh regression gate tracks for the
        // sharded substrate.
        b.iter(|| {
            let p = Params::new(500.0, 8.0, 10.0, 4.0, 0.01);
            let c = SimConfig::from_params(&p, 30, 8)
                .with_shards(8, 3)
                .with_cross_shard(0.10);
            black_box(LazyGroupSim::new(c, Mobility::Connected).run())
        });
    });
    g.bench_function("eager_sharded", |b| {
        // Eager replication over the same partial layout as
        // lazy_group_sharded: serial replica writes against sharded
        // stores, so the replica-set destination selection is on the
        // synchronous commit path instead of the refresh path.
        b.iter(|| {
            let p = Params::new(500.0, 8.0, 10.0, 4.0, 0.01);
            let c = SimConfig::from_params(&p, 30, 18)
                .with_shards(8, 3)
                .with_cross_shard(0.10);
            black_box(EagerSim::new(c, ReplicaDiscipline::Serial, Ownership::Group).run())
        });
    });
    g.bench_function("lazy_group_mobile", |b| {
        b.iter(|| {
            let mobility = Mobility::Cycling {
                connected: SimDuration::from_secs(8),
                disconnected: SimDuration::from_secs(8),
            };
            black_box(LazyGroupSim::new(cfg(6), mobility).run())
        });
    });
    g.bench_function("two_tier", |b| {
        b.iter(|| {
            let tt = two_tier(cfg(7));
            black_box(TwoTierSim::new(tt).run())
        });
    });
    g.bench_function("two_tier_sharded", |b| {
        // Two-tier over a partial layout: the base walks each update's
        // replica set, so a commit reaches only the nodes hosting what
        // it wrote. At 8 nodes / rf 3 that is most of them; the
        // `two_tier_sharded_64n_160s` bench below is where fan-out cost
        // following `rf` instead of `Nodes` shows.
        b.iter(|| {
            let p = Params::new(500.0, 8.0, 10.0, 4.0, 0.01);
            let sim = SimConfig::from_params(&p, 30, 19)
                .with_shards(8, 3)
                .with_cross_shard(0.10);
            let tt = two_tier(sim);
            black_box(TwoTierSim::new(tt).run())
        });
    });
    g.finish();
}

/// Operations of the repo benchmark at its sizes. A 30 s run is ~1 200
/// transactions and mostly construction; these are 100 k to 384 k
/// transactions each, so per-transaction state that grows with the
/// transactions ever started — or a hash and a `malloc` per
/// transaction — shows here and nowhere in `engines_30s_sim`. The
/// sharded ones run 64 nodes at rf 3, where per-commit work that
/// follows `Nodes` instead of `rf` shows; at the 8 nodes / 8 shards of
/// `engines_30s_sim`, `Nodes` ≈ `rf` and it cannot.
fn bench_steady_state(c: &mut Criterion) {
    let mut g = c.benchmark_group("engines_steady_state");
    g.sample_size(10);

    g.bench_function("single_node_2400s", |b| {
        // `dense-full`'s first operation.
        b.iter(|| {
            let p = Params::new(2000.0, 8.0, 20.0, 4.0, 0.01);
            let c = SimConfig::from_params(&p, 2400, 42);
            black_box(ContentionSim::new(c, ContentionProfile::single_node(&c)).run())
        });
    });
    // `sharded-scaleout`'s layout: 64 nodes, rf 3, a tenth of the
    // transactions cross-shard.
    let sharded_64n = |horizon| {
        let p = Params::new(20_000.0, 64.0, 10.0, 4.0, 0.01);
        SimConfig::from_params(&p, horizon, 42)
            .with_shards(64, 3)
            .with_cross_shard(0.10)
    };
    g.bench_function("eager_sharded_600s", |b| {
        // `sharded-scaleout`'s first operation: owner-order commits.
        b.iter(|| {
            let c = sharded_64n(600);
            black_box(EagerSim::new(c, ReplicaDiscipline::Serial, Ownership::Group).run())
        });
    });
    g.bench_function("lazy_group_sharded_64n_300s", |b| {
        // `sharded-scaleout`'s fourth operation: 64 partial stores and
        // packed lock tables, per-peer propagation.
        b.iter(|| black_box(LazyGroupSim::new(sharded_64n(300), Mobility::Connected).run()));
    });
    g.bench_function("two_tier_sharded_64n_160s", |b| {
        // `sharded-scaleout`'s last operation: the base fans each
        // commit out to the replica sets of what it wrote.
        b.iter(|| {
            let tt = two_tier(sharded_64n(160));
            black_box(TwoTierSim::new(tt).run())
        });
    });
    g.finish();
}

criterion_group!(benches, bench_engines, bench_steady_state);
criterion_main!(benches);
