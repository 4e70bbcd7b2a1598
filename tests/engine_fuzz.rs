//! Randomized engine stress tests: across arbitrary (small, stable)
//! configurations, every engine must terminate, keep its accounting
//! consistent, and uphold its scheme's core invariant.

use dangers_of_replication::check::{FuzzCase, Recorder, Scheme};
use dangers_of_replication::core::{
    ContentionProfile, ContentionSim, EagerSim, LazyGroupSim, LazyMasterSim, Mobility, Ownership,
    ReplicaDiscipline, SimConfig, TwoTierConfig, TwoTierSim, TwoTierWorkload,
};
use dangers_of_replication::harness::experiments::check::run_case;
use dangers_of_replication::model::Params;
use dangers_of_replication::sim::SimDuration;
use proptest::prelude::*;

/// Small configurations kept under lock saturation (the DB floor scales
/// with the offered load).
fn arb_params() -> impl Strategy<Value = Params> {
    (2u32..8, 200u64..800, 2u32..12, 2usize..6, 1u64..20).prop_map(
        |(nodes, db, tps, actions, at_ms)| {
            let mut p = Params::new(
                db as f64,
                f64::from(nodes),
                f64::from(tps),
                actions as f64,
                at_ms as f64 / 1000.0,
            );
            // Cap utilization: arrival × actions × hold/2 / db < 0.4
            // for the worst case (eager serial).
            let duration = p.actions * p.nodes * p.action_time;
            let util = p.tps * p.nodes * p.actions * duration / (2.0 * p.db_size);
            if util > 0.4 {
                p.db_size = (p.tps * p.nodes * p.actions * duration / 0.8).ceil();
            }
            p
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn contention_engine_accounting(p in arb_params(), seed in 0u64..500) {
        let cfg = SimConfig::from_params(&p, 20, seed);
        let r = ContentionSim::new(cfg, ContentionProfile::single_node(&cfg)).run();
        // A committed transaction performed `actions` updates; aborted
        // ones performed fewer. Actions counted ≥ committed × actions.
        prop_assert!(r.actions >= r.committed * cfg.actions as u64);
        prop_assert!(r.duration_secs > 0.0);
    }

    #[test]
    fn eager_engine_terminates_and_counts(p in arb_params(), seed in 0u64..500) {
        let cfg = SimConfig::from_params(&p, 15, seed);
        let r = EagerSim::new(cfg, ReplicaDiscipline::Serial, Ownership::Group).run();
        prop_assert_eq!(r.reconciliations, 0, "eager never reconciles");
        // Eager counts nodes updates per action.
        prop_assert!(r.actions >= r.committed * (cfg.actions as u64) * u64::from(cfg.nodes));
    }

    #[test]
    fn lazy_master_never_reconciles(p in arb_params(), seed in 0u64..500) {
        let cfg = SimConfig::from_params(&p, 15, seed);
        let r = LazyMasterSim::new(cfg).run();
        prop_assert_eq!(r.reconciliations, 0);
    }

    #[test]
    fn lazy_master_is_serializable_per_oracle(p in arb_params(), seed in 0u64..500) {
        // The paper's §3 claim for lazy-master: master-ownership plus
        // 2PL keeps executions one-copy serializable. Instead of
        // re-asserting derived accounting, hand the whole execution to
        // the repl-check oracles and take their verdict.
        let cfg = SimConfig::from_params(&p, 15, seed);
        let rec = Recorder::new(Scheme::LazyMaster);
        LazyMasterSim::new(cfg).with_recorder(rec.clone()).run();
        let report = rec.check();
        prop_assert!(
            report.is_clean(),
            "oracle violations under {p:?} seed {seed}: {:?}",
            report.violations
        );
    }

    #[test]
    fn eager_is_serializable_per_oracle(p in arb_params(), seed in 0u64..500) {
        let cfg = SimConfig::from_params(&p, 15, seed);
        let rec = Recorder::new(Scheme::Eager);
        EagerSim::new(cfg, ReplicaDiscipline::Serial, Ownership::Group)
            .with_recorder(rec.clone())
            .run();
        let report = rec.check();
        prop_assert!(
            report.is_clean(),
            "oracle violations under {p:?} seed {seed}: {:?}",
            report.violations
        );
    }

    #[test]
    fn lazy_group_always_converges(p in arb_params(), seed in 0u64..500) {
        let cfg = SimConfig::from_params(&p, 15, seed);
        let (r, stores) = LazyGroupSim::new(cfg, Mobility::Connected).run_with_state();
        let d0 = stores[0].digest();
        prop_assert!(stores.iter().all(|s| s.digest() == d0), "diverged: {r:?}");
    }

    #[test]
    fn lazy_group_mobile_always_converges(p in arb_params(), seed in 0u64..500) {
        let cfg = SimConfig::from_params(&p, 25, seed);
        let mobility = Mobility::Cycling {
            connected: SimDuration::from_secs(4),
            disconnected: SimDuration::from_secs(6),
        };
        let (_, stores) = LazyGroupSim::new(cfg, mobility).run_with_state();
        let d0 = stores[0].digest();
        prop_assert!(stores.iter().all(|s| s.digest() == d0));
    }

    #[test]
    fn two_tier_invariants_under_any_config(
        p in arb_params(),
        seed in 0u64..500,
        base_frac in 1u32..3,
        funds in prop_oneof![Just(100i64), Just(10_000i64)],
    ) {
        let base_nodes = (p.nodes as u32 / base_frac).max(1);
        let cfg = TwoTierConfig {
            sim: SimConfig::from_params(&p, 25, seed),
            base_nodes,
            mobile_owned: 0,
            connected: SimDuration::from_secs(5),
            disconnected: SimDuration::from_secs(7),
            workload: TwoTierWorkload::Commutative { max_amount: 50 },
            initial_value: funds,
        };
        let (r, master, replicas) = TwoTierSim::new(cfg).run_with_state();
        // Accounting.
        prop_assert!(r.tentative_accepted + r.tentative_rejected <= r.tentative_commits);
        prop_assert!(r.reconciliations >= r.tentative_rejected);
        // The bank invariant.
        for (id, v) in master.iter() {
            prop_assert!(v.value.as_int() >= 0, "{id} negative");
        }
        // Convergence.
        let want = master.digest();
        prop_assert!(replicas.iter().all(|s| s.digest() == want));
    }
}

/// The committed seed corpus replays clean before any fresh fuzzing:
/// every non-comment line must parse as a [`FuzzCase`] and produce a
/// violation-free oracle report. A line that stops parsing or starts
/// failing is a regression in an execution we already froze.
#[test]
fn seed_corpus_replays_clean() {
    let corpus = include_str!("check_seeds.txt");
    let mut replayed = 0;
    for line in corpus.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let case = FuzzCase::parse(line)
            .unwrap_or_else(|e| panic!("corpus line `{line}` must parse: {e}"));
        let report = run_case(&case);
        assert!(
            report.is_clean(),
            "corpus case `{line}` violated its oracles: {:?}",
            report.violations
        );
        assert!(report.commits > 0, "corpus case `{line}` committed nothing");
        replayed += 1;
    }
    assert!(replayed >= 5, "corpus shrank to {replayed} case(s)");
}
