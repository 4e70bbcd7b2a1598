//! Fan-out behavior is pinned: the sharded propagation paths must be
//! provably an optimization, not a behavior change.
//!
//! Two legs:
//!
//! 1. **Goldens.** `goldens/fanout_sharded.txt` pins a digest of the
//!    full `Report` plus every final store digest for a grid of
//!    *partial* shard layouts across all engines. The file was
//!    generated from the plain per-destination filter
//!    (`REGEN_FANOUT_GOLDENS=1 cargo test -q --test
//!    fanout_determinism`), before any fan-out optimisation, so any
//!    run that diverges from it changed observable behavior, not just
//!    speed. The `eager` and `lazy_master` rows were regenerated once,
//!    when owner-order's cross-shard commits moved onto the kernel's
//!    fabric: their message count changed (one real `Apply` per remote
//!    owner instead of two abstract messages per remote owner), and
//!    every other `Report` field stayed the same. `messages` before →
//!    after:
//!
//!    | row | eager | lazy_master |
//!    |---|---|---|
//!    | seed=7/shards=8/rf=3 | 9,178 → 9,018 | 9,166 → 9,010 |
//!    | seed=42/shards=8/rf=3 | 9,844 → 9,678 | 9,852 → 9,686 |
//!    | seed=42/shards=5/rf=2 | 5,113 → 4,960 | 5,112 → 4,959 |
//!
//!    The lazy-group and two-tier rows were not regenerated then.
//!
//!    The file was regenerated a second time when `Kernel::send` became
//!    the one message counter. The eager and lazy-master rows lost the
//!    `rf − 1` replica updates per action they counted but never sent
//!    (replica updates are modelled as work), leaving exactly the
//!    owner-order `Apply`s. The two-tier rows count one sync message
//!    per reconnect instead of one message per re-executed tentative
//!    transaction. Every other `Report` field stayed the same, and the
//!    lazy-group rows did not move. `messages` before → after:
//!
//!    | row | eager | lazy_master | two_tier |
//!    |---|---|---|---|
//!    | seed=7/shards=8/rf=3 | 9,018 → 226 | 9,010 → 222 | 4,228 → 4,020 |
//!    | seed=42/shards=8/rf=3 | 9,678 → 254 | 9,686 → 254 | 4,048 → 3,877 |
//!    | seed=42/shards=5/rf=2 | 4,960 → 243 | 4,959 → 243 | 2,929 → 2,758 |
//! 2. **Property test** (below, `replica_set_walk_matches_reference`):
//!    for random `ShardMap`s, the shard→replica-set fan-out walk must
//!    equal the per-destination reference filter.

use dangers_of_replication::core::{
    EagerSim, LazyGroupSim, LazyMasterSim, Mobility, Ownership, ReplicaDiscipline, Report,
    SimConfig, TwoTierConfig, TwoTierSim, TwoTierWorkload,
};
use dangers_of_replication::model::Params;
use dangers_of_replication::sim::SimDuration;

/// FNV-1a over the `Debug` rendering: cheap, dependency-free, and
/// sensitive to every counter and rate in the `Report`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn digest_line(name: &str, report: &Report, stores: &[u64]) -> String {
    let mut s = format!(
        "{name} report={:016x} stores=",
        fnv1a(format!("{report:?}").as_bytes())
    );
    for (i, d) in stores.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("{d:016x}"));
    }
    s
}

fn cfg(seed: u64) -> SimConfig {
    let p = Params::new(400.0, 4.0, 10.0, 4.0, 0.01);
    SimConfig::from_params(&p, 30, seed).with_warmup(2)
}

fn two_tier_cfg(sim: SimConfig) -> TwoTierConfig {
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

/// Every scenario runs a *partial* layout — full replication skips the
/// sharded fan-out entirely, so it would pin nothing interesting here
/// (and is already covered by `shard_determinism.rs`).
fn golden_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for (seed, shards, rf) in [(7u64, 8u32, 3u32), (42, 8, 3), (42, 5, 2)] {
        let name = |engine: &str| format!("{engine}/seed={seed}/shards={shards}/rf={rf}");

        let (report, stores) = LazyGroupSim::new(
            cfg(seed).with_shards(shards, rf).with_cross_shard(0.10),
            Mobility::Connected,
        )
        .run_with_state();
        let digests: Vec<u64> = stores.iter().map(|s| s.digest()).collect();
        lines.push(digest_line(
            &name("lazy_group/connected"),
            &report,
            &digests,
        ));

        let (report, stores) = LazyGroupSim::new(
            cfg(seed).with_shards(shards, rf),
            Mobility::Cycling {
                connected: SimDuration::from_secs(8),
                disconnected: SimDuration::from_secs(4),
            },
        )
        .run_with_state();
        let digests: Vec<u64> = stores.iter().map(|s| s.digest()).collect();
        lines.push(digest_line(&name("lazy_group/cycling"), &report, &digests));

        let (report, base, mobiles) =
            TwoTierSim::new(two_tier_cfg(cfg(seed).with_shards(shards, rf))).run_with_state();
        let mut digests = vec![base.digest()];
        digests.extend(mobiles.iter().map(|s| s.digest()));
        lines.push(digest_line(&name("two_tier"), &report, &digests));

        let report = EagerSim::new(
            cfg(seed).with_shards(shards, rf).with_cross_shard(0.10),
            ReplicaDiscipline::Serial,
            Ownership::Group,
        )
        .run();
        lines.push(digest_line(&name("eager/serial_group"), &report, &[]));

        let report =
            LazyMasterSim::new(cfg(seed).with_shards(shards, rf).with_cross_shard(0.10)).run();
        lines.push(digest_line(&name("lazy_master"), &report, &[]));
    }
    lines
}

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/goldens/fanout_sharded.txt"
);

/// Sharded runs for every engine must match the goldens captured
/// before any fan-out optimisation landed.
#[test]
fn sharded_runs_match_pre_signature_goldens() {
    let lines = golden_lines();
    if std::env::var_os("REGEN_FANOUT_GOLDENS").is_some() {
        std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/goldens")).unwrap();
        std::fs::write(GOLDEN_PATH, lines.join("\n") + "\n").unwrap();
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("goldens missing — run with REGEN_FANOUT_GOLDENS=1 to create them");
    let golden: Vec<&str> = golden.lines().collect();
    assert_eq!(
        golden.len(),
        lines.len(),
        "golden file covers a different scenario grid"
    );
    for (got, want) in lines.iter().zip(&golden) {
        assert_eq!(got, *want, "sharded run diverged from pre-signature golden");
    }
}

mod fanout_properties {
    use dangers_of_replication::storage::{NodeId, ObjectId, ShardMap};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Leg 2: the shard→replica-set walk the two-tier base fans a
        /// commit out with must select, for every destination, exactly
        /// the updates the per-destination reference filter
        /// (`hosts_object`, which lazy-group's per-peer mask evaluates
        /// directly) selects, and visit the destinations in ascending
        /// order — on random layouts (`shards` below, at and above
        /// `nodes`; rf 1 through rf = nodes; nodes hosting nothing) and
        /// random update lists, each extended by four updates to one
        /// shard.
        #[test]
        fn replica_set_walk_matches_reference(
            shards in 1u32..24,
            nodes in 2u32..24,
            rf_raw in 1u32..24,
            random in proptest::collection::vec(0u64..5000, 0..9),
            same_shard in 0u64..5000,
        ) {
            let map = ShardMap::new(shards, nodes, rf_raw.min(nodes));
            let shard = same_shard % u64::from(shards);
            let mut objects = random;
            objects.extend((0..4).map(|row| shard + row * u64::from(shards)));
            let mut walked = vec![(NodeId(u32::MAX), 0)]; // stale: must be cleared
            map.fanout_masks(objects.iter().copied().map(ObjectId), &mut walked);
            let reference: Vec<(NodeId, u64)> = (0..nodes)
                .map(NodeId)
                .map(|dest| {
                    let hosted = |(i, &obj)| u64::from(map.hosts_object(dest, ObjectId(obj))) << i;
                    (dest, objects.iter().enumerate().map(hosted).sum())
                })
                .filter(|&(_, mask)| mask != 0)
                .collect();
            prop_assert_eq!(
                walked, reference,
                "objects {:?} (shards={} nodes={} rf={})", &objects, shards, nodes, map.rf()
            );
        }
    }
}
