//! End-to-end semantics of the two-tier scheme (§7): the five key
//! properties the paper lists, exercised through the public API.

use dangers_of_replication::core::{SimConfig, TwoTierConfig, TwoTierSim, TwoTierWorkload};
use dangers_of_replication::model::Params;
use dangers_of_replication::sim::SimDuration;

fn config(
    nodes: f64,
    base_nodes: u32,
    db: f64,
    workload: TwoTierWorkload,
    initial_value: i64,
    seed: u64,
) -> TwoTierConfig {
    let p = Params::new(db, nodes, 8.0, 3.0, 0.01);
    TwoTierConfig {
        sim: SimConfig::from_params(&p, 150, seed).with_warmup(5),
        base_nodes,
        mobile_owned: 0,
        connected: SimDuration::from_secs(10),
        disconnected: SimDuration::from_secs(20),
        workload,
        initial_value,
    }
}

/// Property 1: mobile nodes may make tentative database updates
/// (they work while disconnected).
#[test]
fn mobile_nodes_update_while_disconnected() {
    let cfg = config(
        4.0,
        1,
        200.0,
        TwoTierWorkload::Commutative { max_amount: 5 },
        10_000,
        1,
    );
    let r = TwoTierSim::new(cfg).run();
    assert!(
        r.tentative_commits > 0,
        "mobile nodes produced no tentative transactions"
    );
    assert!(r.tentative_accepted > 0, "nothing was re-executed");
}

/// Property 4: replicas at all connected nodes converge to the base
/// system state.
#[test]
fn replicas_converge_to_base_state() {
    for seed in [2, 3, 4] {
        let cfg = config(
            5.0,
            2,
            150.0,
            TwoTierWorkload::Commutative { max_amount: 20 },
            500,
            seed,
        );
        let (_, master, replicas) = TwoTierSim::new(cfg).run_with_state();
        let want = master.digest();
        for (i, r) in replicas.iter().enumerate() {
            assert_eq!(r.digest(), want, "seed {seed}: node {i} diverged");
        }
    }
}

/// Property 5: if all transactions commute (and funds suffice), there
/// are no reconciliations.
#[test]
fn commutative_design_eliminates_reconciliation() {
    let cfg = config(
        6.0,
        2,
        300.0,
        TwoTierWorkload::Commutative { max_amount: 3 },
        1_000_000,
        5,
    );
    let r = TwoTierSim::new(cfg).run();
    assert!(r.tentative_commits > 0);
    assert_eq!(r.tentative_rejected, 0, "{r:?}");
}

/// The contrast case: strict exact-match acceptance rejects whenever a
/// concurrent update intervened.
#[test]
fn exact_match_acceptance_rejects_under_contention() {
    let cfg = config(
        6.0,
        2,
        60.0,
        TwoTierWorkload::ExactMatch { max_amount: 10 },
        10_000,
        6,
    );
    let r = TwoTierSim::new(cfg).run();
    assert!(
        r.tentative_rejected > 0,
        "exact-match under contention must reject some: {r:?}"
    );
    // …and acceptance is all-or-nothing per transaction.
    assert!(
        r.tentative_accepted + r.tentative_rejected <= r.tentative_commits,
        "cannot decide more than was submitted"
    );
}

/// The master state never violates the configured invariant even when
/// rejections occur — the bank's books stay right (no system delusion).
#[test]
fn master_invariant_holds_under_scarcity() {
    let cfg = config(
        6.0,
        2,
        80.0,
        TwoTierWorkload::Commutative { max_amount: 400 },
        100,
        7,
    );
    let (r, master, _) = TwoTierSim::new(cfg).run_with_state();
    assert!(r.committed > 0);
    for (id, v) in master.iter() {
        assert!(
            v.value.as_int() >= 0,
            "{id} negative — acceptance criterion failed"
        );
    }
}

/// Scope rule: mobile-mastered slices work and still converge.
#[test]
fn mobile_mastered_objects_converge() {
    let mut cfg = config(
        4.0,
        2,
        120.0,
        TwoTierWorkload::Commutative { max_amount: 10 },
        1_000,
        8,
    );
    cfg.mobile_owned = 15;
    let (r, master, replicas) = TwoTierSim::new(cfg).run_with_state();
    assert!(r.committed > 0);
    let want = master.digest();
    assert!(replicas.iter().all(|s| s.digest() == want));
}

/// Durability boundary: a transaction only counts when its base
/// execution commits; tentative counts never exceed what mobiles
/// produced.
#[test]
fn accounting_is_consistent() {
    let cfg = config(
        5.0,
        2,
        200.0,
        TwoTierWorkload::Commutative { max_amount: 10 },
        5_000,
        9,
    );
    let r = TwoTierSim::new(cfg).run();
    assert!(r.tentative_accepted + r.tentative_rejected <= r.tentative_commits);
    assert!(r.tentative_accepted <= r.committed);
    assert!(r.reconciliations >= r.tentative_rejected);
}
