//! Mergeable-metrics invariants: bucket math, merge algebra, JSON
//! round-trips, and jobs-count invariance of the `--metrics` registry.

use dangers_of_replication::core::{
    ContentionProfile, ContentionSim, LazyGroupSim, Mobility, SimConfig, M_COMMIT_LATENCY,
    M_LOCK_WAIT, M_PROPAGATION_LAG,
};
use dangers_of_replication::harness::{experiments, MetricsSession, RunOpts};
use dangers_of_replication::model::Params;
use dangers_of_replication::sim::SimDuration;
use dangers_of_replication::telemetry::{Histogram, MetricsRegistry, RunMetrics};
use proptest::prelude::*;

fn cfg(seed: u64) -> SimConfig {
    let p = Params::new(400.0, 4.0, 10.0, 4.0, 0.01);
    SimConfig::from_params(&p, 60, seed).with_warmup(2)
}

/// One real lazy-group run's distributions.
fn lazy_dists(seed: u64) -> RunMetrics {
    LazyGroupSim::new(cfg(seed), Mobility::Connected)
        .run()
        .dists
}

#[test]
fn engine_runs_populate_all_advertised_distributions() {
    let d = lazy_dists(9);
    for name in [M_COMMIT_LATENCY, M_LOCK_WAIT, M_PROPAGATION_LAG] {
        let h = d
            .histogram(name)
            .unwrap_or_else(|| panic!("missing {name}"));
        assert!(h.count() > 0, "{name} must have samples");
    }
    assert!(
        d.gauges.keys().any(|k| k.starts_with("staleness_n")),
        "per-replica staleness gauges missing: {:?}",
        d.gauges.keys().collect::<Vec<_>>()
    );
}

#[test]
fn registry_json_roundtrip_from_real_run() {
    let mut reg = MetricsRegistry::new();
    reg.absorb("lazy/seed=9", &lazy_dists(9));
    let mut single = ContentionSim::new(cfg(9), {
        let c = cfg(9);
        ContentionProfile::single_node(&c)
    })
    .run();
    single.dists.incr("marker", 3);
    reg.absorb("single/seed=9", &single.dists);
    let json = reg.to_json();
    let back = MetricsRegistry::from_json(&json).expect("parse back");
    assert_eq!(reg, back);
    assert_eq!(back.to_json(), json, "serialization must be stable");
}

#[test]
fn lean_metrics_config_suppresses_distributions() {
    let report = LazyGroupSim::new(cfg(5).with_lean_metrics(), Mobility::Connected).run();
    assert!(report.dists.is_empty(), "lean run must collect nothing");
    // Percentiles come from the commit-latency distribution alone, so a
    // lean run reports none; the mean is not a distribution and stays.
    assert!(report.committed > 0 && report.mean_latency_secs > 0.0);
    for p in [
        report.p50_latency_secs,
        report.p95_latency_secs,
        report.p99_latency_secs,
        report.max_latency_secs,
    ] {
        assert_eq!(p, 0.0, "lean run reported a percentile: {report:?}");
    }
}

/// The registry a `--metrics` run of the given experiment would export.
fn registry_json(name: &str, jobs: usize) -> String {
    let opts = RunOpts {
        quick: true,
        seed: 41,
        jobs,
        metrics: MetricsSession::enabled(),
        ..RunOpts::default()
    };
    let e = experiments::by_name(name).expect("experiment exists");
    (e.run)(&opts);
    opts.metrics.to_json().expect("session on")
}

#[test]
fn metrics_export_is_jobs_invariant() {
    // Workers run the points in parallel; absorption happens on the
    // main thread in point order, so the JSON must be byte-identical.
    let serial = registry_json("e11", 1);
    let parallel = registry_json("e11", 4);
    assert_eq!(serial, parallel, "--metrics must compose with --jobs");
    assert!(serial.contains("e11/lazy-group"));
}

#[test]
fn tails_experiment_exports_wait_and_lag_histograms() {
    let json = registry_json("tails", 2);
    let reg = MetricsRegistry::from_json(&json).expect("valid registry json");
    let lazy = reg
        .runs
        .iter()
        .find(|(k, _)| k.starts_with("tails/lazy-group"))
        .map(|(_, v)| v)
        .expect("lazy-group tails run");
    assert!(lazy.histogram(M_LOCK_WAIT).is_some());
    assert!(lazy.histogram(M_PROPAGATION_LAG).is_some());
}

proptest! {
    /// value -> bucket -> bounds round-trip: every u64 lands in a
    /// bucket whose [low, high] range contains it.
    #[test]
    fn bucket_bounds_contain_value(v in 0u64..u64::MAX) {
        let b = Histogram::bucket_index(v);
        let (low, high) = Histogram::bucket_bounds(b);
        prop_assert!(low <= v && v <= high, "v={v} bucket={b} range=[{low},{high}]");
    }

    /// Bucket bounds tile the axis: bucket i+1 starts exactly one past
    /// bucket i's high end.
    #[test]
    fn buckets_tile_without_gaps(b in 0usize..Histogram::BUCKET_COUNT - 1) {
        let (_, high) = Histogram::bucket_bounds(b);
        let (next_low, _) = Histogram::bucket_bounds(b + 1);
        prop_assert_eq!(next_low, high + 1);
    }

    /// Merging histograms is commutative and associative, and matches
    /// recording the union of samples directly.
    #[test]
    fn merge_is_order_independent(
        xs in prop::collection::vec(0u64..u64::MAX, 0..50),
        ys in prop::collection::vec(0u64..u64::MAX, 0..50),
        zs in prop::collection::vec(0u64..u64::MAX, 0..50),
    ) {
        let h = |vals: &[u64]| {
            let mut h = Histogram::new();
            for &v in vals {
                h.record_value(v);
            }
            h
        };
        let (hx, hy, hz) = (h(&xs), h(&ys), h(&zs));
        // Commutativity.
        let mut xy = hx.clone();
        xy.merge(&hy);
        let mut yx = hy.clone();
        yx.merge(&hx);
        prop_assert_eq!(&xy, &yx);
        // Associativity.
        let mut xy_z = xy.clone();
        xy_z.merge(&hz);
        let mut yz = hy.clone();
        yz.merge(&hz);
        let mut x_yz = hx.clone();
        x_yz.merge(&yz);
        prop_assert_eq!(&xy_z, &x_yz);
        // Equivalence to recording everything into one histogram.
        let all: Vec<u64> = xs.iter().chain(&ys).chain(&zs).copied().collect();
        prop_assert_eq!(&xy_z, &h(&all));
    }

    /// Quantiles are monotone in q and bracketed by min/max.
    #[test]
    fn quantiles_are_monotone(
        vals in prop::collection::vec(0u64..2_000_000, 1..60),
        qa_pct in 0u64..=100u64,
        qb_pct in 0u64..=100u64,
    ) {
        let mut h = Histogram::new();
        for &v in &vals {
            h.record_value(v);
        }
        let (qa, qb) = (qa_pct as f64 / 100.0, qb_pct as f64 / 100.0);
        let (lo, hi) = (qa.min(qb), qa.max(qb));
        prop_assert!(h.value_at_quantile(lo) <= h.value_at_quantile(hi));
        prop_assert!(h.value_at_quantile(0.0) >= h.min());
        prop_assert!(h.value_at_quantile(1.0) <= h.max());
    }

    /// RunMetrics::merge equals recording the union, across all three
    /// kinds of leaves.
    #[test]
    fn run_metrics_merge_matches_union(
        xs in prop::collection::vec(0u64..1_000_000, 0..30),
        ys in prop::collection::vec(0u64..1_000_000, 0..30),
    ) {
        let fill = |vals: &[u64]| {
            let mut m = RunMetrics::new();
            for &v in vals {
                m.incr("count", 1);
                m.record("dur", SimDuration(v));
                m.observe("gauge", v);
            }
            m
        };
        let mut merged = fill(&xs);
        merged.merge(&fill(&ys));
        let all: Vec<u64> = xs.iter().chain(&ys).copied().collect();
        prop_assert_eq!(&merged, &fill(&all));
    }
}
