//! Sharding must be byte-identical at full replication and
//! deterministic at every partial layout.
//!
//! Two engine-level invariants:
//!
//! 1. `rf >= Nodes` (or `rf = 0`) reproduces the unsharded run exactly
//!    — report and final store digests alike — for every engine. The
//!    sharded code paths are gated on the layout actually being
//!    partial, so full replication never pays for them and never
//!    diverges from the pre-sharding behavior.
//! 2. The committed `check_seeds.txt` corpus stays green through the
//!    oracles under partial layouts: per-shard convergence and the
//!    union-consensus divergence check judge partial stores over the
//!    objects each node actually hosts. A two-tier case that crashes a
//!    base node has no partial replay: a partial base replica cannot
//!    take over the master, so `parse_check_case` refuses that case.

use dangers_of_replication::check::FuzzCase;
use dangers_of_replication::core::{
    EagerSim, LazyGroupSim, LazyMasterSim, Mobility, Ownership, ReplicaDiscipline, Report,
    SimConfig, TwoTierConfig, TwoTierSim, TwoTierWorkload,
};
use dangers_of_replication::harness::experiments::check::{parse_check_case, run_case};
use dangers_of_replication::model::Params;
use dangers_of_replication::sim::SimDuration;

fn cfg(seed: u64) -> SimConfig {
    let p = Params::new(400.0, 4.0, 10.0, 4.0, 0.01);
    SimConfig::from_params(&p, 60, seed).with_warmup(2)
}

fn lazy_run(cfg: SimConfig, mobility: Mobility) -> (Report, Vec<u64>) {
    let (report, stores) = LazyGroupSim::new(cfg, mobility).run_with_state();
    (report, stores.iter().map(|s| s.digest()).collect())
}

fn two_tier_run(cfg: SimConfig) -> (Report, Vec<u64>) {
    let tt = TwoTierConfig {
        sim: cfg,
        base_nodes: 2,
        mobile_owned: 0,
        connected: SimDuration::from_secs(8),
        disconnected: SimDuration::from_secs(12),
        workload: TwoTierWorkload::Commutative { max_amount: 10 },
        initial_value: 10_000,
    };
    let (report, base, mobiles) = TwoTierSim::new(tt).run_with_state();
    let mut digests = vec![base.digest()];
    digests.extend(mobiles.iter().map(|s| s.digest()));
    (report, digests)
}

/// `with_shards(K, Nodes)` (and `rf = 0`) must be byte-identical to an
/// unsharded run for every engine: same report, same final digests.
#[test]
fn full_rf_matches_unsharded_for_every_engine() {
    for seed in [5, 41] {
        for (shards, rf) in [(8u32, 4u32), (16, 0), (3, 64)] {
            let sharded = || cfg(seed).with_shards(shards, rf);
            assert_eq!(
                lazy_run(cfg(seed), Mobility::Connected),
                lazy_run(sharded(), Mobility::Connected),
                "lazy-group seed {seed} shards {shards} rf {rf}"
            );
            assert_eq!(
                two_tier_run(cfg(seed)),
                two_tier_run(sharded()),
                "two-tier seed {seed} shards {shards} rf {rf}"
            );
            assert_eq!(
                EagerSim::new(cfg(seed), ReplicaDiscipline::Serial, Ownership::Group).run(),
                EagerSim::new(sharded(), ReplicaDiscipline::Serial, Ownership::Group).run(),
                "eager seed {seed} shards {shards} rf {rf}"
            );
            assert_eq!(
                LazyMasterSim::new(cfg(seed)).run(),
                LazyMasterSim::new(sharded()).run(),
                "lazy-master seed {seed} shards {shards} rf {rf}"
            );
        }
    }
}

/// Replay the committed corpus through the oracles under shard
/// layouts: on every case without a layout of its own, a full-rf
/// layout must reproduce the unsharded verdicts exactly, and a partial
/// layout must stay clean.
#[test]
fn corpus_oracle_verdicts_stay_green_under_sharding() {
    let corpus = include_str!("check_seeds.txt");
    let mut cases = 0;
    for line in corpus.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let case = FuzzCase::parse(line).unwrap_or_else(|e| panic!("corpus line `{line}`: {e}"));
        if case.shards > 0 {
            continue;
        }
        let layout = |shards, rf| {
            run_case(&FuzzCase {
                shards,
                rf,
                ..case.clone()
            })
        };
        let serial = run_case(&case);
        // rf >= any corpus node count: byte-identical verdicts.
        let full = layout(64, 64);
        assert_eq!(serial.commits, full.commits, "corpus case `{line}`");
        assert_eq!(
            serial.violations, full.violations,
            "corpus case `{line}` full-rf replay"
        );
        // Partial layout: different physics, same cleanliness.
        let refused = parse_check_case(
            &FuzzCase {
                shards: 5,
                rf: 2,
                ..case.clone()
            }
            .encode(),
        );
        if let Err(e) = refused {
            assert!(
                e.contains("on a partial layout"),
                "corpus case `{line}`: {e}"
            );
            cases += 1;
            continue;
        }
        let partial = layout(5, 2);
        assert!(
            partial.is_clean(),
            "corpus case `{line}` must stay clean under shards=5 rf=2: {:?}",
            partial.violations
        );
        cases += 1;
    }
    assert!(cases >= 10, "corpus unexpectedly small: {cases} cases");
}
