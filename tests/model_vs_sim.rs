//! Model-vs-simulator agreement at spot-check points. These are the
//! fast versions of harness experiments E1/E5/E7/E10: the closed forms
//! and the discrete-event engines must agree on *shape* (ordering, and
//! growth exponents held to committed bands), with loose tolerances on
//! absolute constants.

use dangers_of_replication::core::{
    ContentionProfile, ContentionSim, EagerSim, LazyMasterSim, Ownership, ReplicaDiscipline,
    SimConfig,
};
use dangers_of_replication::model::{eager, fit_exponent, lazy, single, Params, Point};

/// Least-squares log-log slope of measured rate against `Nodes`: the
/// growth exponent the paper's equations predict.
fn nodes_exponent(rates: &[(f64, f64)]) -> f64 {
    let points: Vec<Point> = rates.iter().map(|&(x, y)| Point { x, y }).collect();
    fit_exponent(&points).unwrap_or_else(|| panic!("no exponent fits {rates:?}"))
}

#[test]
fn single_node_wait_rate_matches_model_within_factor_two() {
    let p = Params::new(2_000.0, 1.0, 50.0, 4.0, 0.01);
    let predicted = single::node_wait_rate(&p);
    let cfg = SimConfig::from_params(&p, 400, 42).with_warmup(5);
    let r = ContentionSim::new(cfg, ContentionProfile::single_node(&cfg)).run();
    assert!(r.waits > 20, "need a statistically meaningful sample");
    let ratio = r.wait_rate / predicted;
    assert!(
        (0.5..2.0).contains(&ratio),
        "wait rate {} vs model {predicted}: ratio {ratio}",
        r.wait_rate
    );
}

#[test]
fn eager_wait_rate_exponent_is_cubic_in_nodes() {
    // Equation (10): cubic (3.016 measured).
    let base = Params::new(2_000.0, 1.0, 20.0, 4.0, 0.01);
    let mut rates = Vec::new();
    for n in [2.0, 4.0, 8.0] {
        let p = base.with_nodes(n);
        let cfg = SimConfig::from_params(&p, 200, 7).with_warmup(5);
        let r = EagerSim::new(cfg, ReplicaDiscipline::Serial, Ownership::Group).run();
        rates.push((n, r.wait_rate));
    }
    let k = nodes_exponent(&rates);
    assert!(
        (2.7..=3.3).contains(&k),
        "eager wait exponent {k:.3} outside [2.7, 3.3]: {rates:?}"
    );
}

#[test]
fn lazy_master_wait_rate_exponent_is_quadratic_in_nodes() {
    // Shorter transactions take one power off eager's cubic (1.966
    // measured).
    let base = Params::new(2_000.0, 1.0, 20.0, 4.0, 0.01);
    let mut rates = Vec::new();
    for n in [2.0, 4.0, 8.0] {
        let p = base.with_nodes(n);
        let cfg = SimConfig::from_params(&p, 300, 7).with_warmup(5);
        let r = LazyMasterSim::new(cfg).run();
        rates.push((n, r.wait_rate));
    }
    let k = nodes_exponent(&rates);
    assert!(
        (1.7..=2.3).contains(&k),
        "lazy-master wait exponent {k:.3} outside [1.7, 2.3]: {rates:?}"
    );
}

#[test]
fn eager_beats_nothing_lazy_master_beats_eager() {
    // The paper's §5 ordering at moderate scale: lazy-master conflicts
    // less than eager because transactions are shorter.
    let p = Params::new(500.0, 6.0, 10.0, 4.0, 0.01);
    let cfg = SimConfig::from_params(&p, 300, 11).with_warmup(5);
    let eager_run = EagerSim::new(cfg, ReplicaDiscipline::Serial, Ownership::Group).run();
    let lm_run = LazyMasterSim::new(cfg).run();
    assert!(
        lm_run.wait_rate < eager_run.wait_rate,
        "lazy-master waits {} should be below eager {}",
        lm_run.wait_rate,
        eager_run.wait_rate
    );
}

#[test]
fn scaled_database_takes_one_power_off_the_eager_wait_exponent() {
    // Equation (10) with DB ∝ Nodes: N³/N = N², one power below the
    // fixed-DB cubic (1.982 against 2.998 measured).
    let base = Params::new(300.0, 1.0, 12.0, 4.0, 0.01);
    let rate_at = |n: f64, scale_db: bool, seed: u64| {
        let db = if scale_db { 300.0 * n } else { 300.0 };
        let p = Params {
            db_size: db,
            ..base.with_nodes(n)
        };
        let cfg = SimConfig::from_params(&p, 300, seed).with_warmup(5);
        EagerSim::new(cfg, ReplicaDiscipline::Serial, Ownership::Group)
            .run()
            .wait_rate
    };
    let exponent = |scale_db: bool| {
        let rates: Vec<(f64, f64)> = [2.0, 8.0]
            .into_iter()
            .map(|n| (n, rate_at(n, scale_db, 3)))
            .collect();
        nodes_exponent(&rates)
    };
    let (fixed, scaled) = (exponent(false), exponent(true));
    assert!(
        (1.7..=2.3).contains(&scaled),
        "scaled-DB eager wait exponent {scaled:.3} outside [1.7, 2.3]"
    );
    assert!(
        scaled <= fixed - 0.7,
        "scaling the DB took only {:.3} off the exponent: fixed {fixed:.3}, scaled {scaled:.3}",
        fixed - scaled
    );
}

#[test]
fn model_predictions_are_internally_consistent() {
    // Equation (14) == equation (10); equation (19) at N=1 == eq (5).
    let p = Params::new(1_000.0, 5.0, 10.0, 4.0, 0.01);
    assert_eq!(
        lazy::group_reconciliation_rate(&p),
        eager::total_wait_rate(&p)
    );
    let p1 = p.with_nodes(1.0);
    let a = lazy::master_deadlock_rate(&p1);
    let b = single::node_deadlock_rate(&p1);
    assert!((a - b).abs() / b < 1e-12);
}
