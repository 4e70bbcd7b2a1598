//! Telemetry guarantees: tracing is strictly observational (attaching
//! any sink leaves a same-seed run's `Report` bit-identical), and the
//! JSONL export round-trips losslessly through serde.

use dangers_of_replication::core::{
    ContentionProfile, ContentionSim, EagerSim, LazyGroupSim, LazyMasterSim, Mobility, Ownership,
    ReplicaDiscipline, SimConfig, TwoTierConfig, TwoTierSim, TwoTierWorkload,
};
use dangers_of_replication::model::Params;
use dangers_of_replication::sim::{SimDuration, SimTime};
use dangers_of_replication::telemetry::{
    parse_jsonl, EventKind, JsonlSink, Profiler, RingBuffer, SeriesAggregator, TraceHandle,
};
use std::cell::RefCell;
use std::rc::Rc;

fn cfg(seed: u64) -> SimConfig {
    let p = Params::new(400.0, 4.0, 10.0, 4.0, 0.01);
    SimConfig::from_params(&p, 60, seed).with_warmup(2)
}

/// A handle fanning out to every sink type at once — the worst case
/// for observational purity.
fn loaded_handle() -> (TraceHandle, Rc<RefCell<RingBuffer>>) {
    let ring = Rc::new(RefCell::new(RingBuffer::new(1 << 16)));
    let mut h = TraceHandle::shared(&ring);
    let series = Rc::new(RefCell::new(SeriesAggregator::new(SimDuration::from_secs(
        10,
    ))));
    h.attach(&series);
    let jsonl = Rc::new(RefCell::new(JsonlSink::from_writer(Vec::<u8>::new())));
    h.attach(&jsonl);
    (h, ring)
}

#[test]
fn traced_contention_run_is_bit_identical() {
    let c = cfg(41);
    let plain = ContentionSim::new(c, ContentionProfile::single_node(&c)).run();
    let (h, ring) = loaded_handle();
    let traced = ContentionSim::new(c, ContentionProfile::single_node(&c))
        .with_tracer(h)
        .with_profiler(Profiler::enabled())
        .run();
    assert_eq!(plain, traced, "tracing must not perturb the simulation");
    assert!(ring.borrow().total_recorded() > 0, "sinks saw the run");
}

#[test]
fn traced_eager_run_is_bit_identical() {
    let plain = EagerSim::new(cfg(42), ReplicaDiscipline::Serial, Ownership::Group).run();
    let (h, _ring) = loaded_handle();
    let traced = EagerSim::new(cfg(42), ReplicaDiscipline::Serial, Ownership::Group)
        .with_tracer(h)
        .run();
    assert_eq!(plain, traced);
}

#[test]
fn traced_lazy_group_run_is_bit_identical_including_state() {
    let plain = LazyGroupSim::new(cfg(43), Mobility::Connected).run_with_state();
    let (h, _ring) = loaded_handle();
    let traced = LazyGroupSim::new(cfg(43), Mobility::Connected)
        .with_tracer(h)
        .run_with_state();
    assert_eq!(plain.0, traced.0);
    let da: Vec<u64> = plain.1.iter().map(|s| s.digest()).collect();
    let db: Vec<u64> = traced.1.iter().map(|s| s.digest()).collect();
    assert_eq!(da, db, "replica stores must match bit for bit");
}

#[test]
fn traced_lazy_master_run_is_bit_identical() {
    let plain = LazyMasterSim::new(cfg(44)).run();
    let (h, _ring) = loaded_handle();
    let traced = LazyMasterSim::new(cfg(44)).with_tracer(h).run();
    assert_eq!(plain, traced);
}

#[test]
fn traced_two_tier_run_is_bit_identical() {
    let tt = || TwoTierConfig {
        sim: cfg(45),
        base_nodes: 2,
        mobile_owned: 5,
        connected: SimDuration::from_secs(8),
        disconnected: SimDuration::from_secs(12),
        workload: TwoTierWorkload::Commutative { max_amount: 10 },
        initial_value: 1_000,
    };
    let plain = TwoTierSim::new(tt()).run_with_state();
    let (h, _ring) = loaded_handle();
    let traced = TwoTierSim::new(tt()).with_tracer(h).run_with_state();
    assert_eq!(plain.0, traced.0);
    assert_eq!(plain.1.digest(), traced.1.digest());
}

#[test]
fn jsonl_export_round_trips_and_matches_report() {
    let sink = Rc::new(RefCell::new(JsonlSink::from_writer(Vec::<u8>::new())));
    let report = LazyGroupSim::new(cfg(46), Mobility::Connected)
        .with_tracer(TraceHandle::shared(&sink))
        .run();
    let Ok(sink) = Rc::try_unwrap(sink) else {
        panic!("engine kept a handle past run end");
    };
    let bytes = sink.into_inner().into_inner();
    let text = String::from_utf8(bytes).expect("JSONL is UTF-8");
    let events = parse_jsonl(&text).expect("every line parses back into an Event");
    assert!(!events.is_empty());

    // The stream must agree with the end-of-run Report: the commit
    // events inside the measurement window [warmup, horizon] are
    // exactly the committed count (events also flow during warmup and
    // the post-horizon drain, which the report excludes).
    let measure_from = SimTime::from_secs(2);
    let horizon = SimTime::from_secs(60);
    let in_window = |at: SimTime| at.0 >= measure_from.0 && at.0 <= horizon.0;
    let commits = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::TxnCommit) && in_window(e.at))
        .count() as u64;
    assert_eq!(commits, report.committed);

    let recons = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Reconcile) && in_window(e.at))
        .count() as u64;
    assert_eq!(recons, report.reconciliations);

    // Every run opens with its label.
    assert!(matches!(&events[0].kind, EventKind::RunStart { label } if label == "lazy-group"));
}

#[test]
fn deadlock_events_carry_a_real_cycle() {
    // High contention so deadlocks actually occur.
    let p = Params::new(40.0, 1.0, 60.0, 6.0, 0.01);
    let c = SimConfig::from_params(&p, 120, 7).with_warmup(0);
    let ring = Rc::new(RefCell::new(RingBuffer::new(1 << 16)));
    let r = ContentionSim::new(c, ContentionProfile::single_node(&c))
        .with_tracer(TraceHandle::shared(&ring))
        .run();
    assert!(r.deadlocks > 0, "workload must deadlock for this test");
    let ring = ring.borrow();
    let cycles: Vec<&Vec<_>> = ring
        .events()
        .filter_map(|e| match &e.kind {
            EventKind::DeadlockDetected { cycle } => Some(cycle),
            _ => None,
        })
        .collect();
    assert_eq!(cycles.len() as u64, r.deadlocks);
    for cycle in cycles {
        assert!(
            cycle.len() >= 2,
            "a waits-for cycle involves at least two transactions"
        );
        let mut uniq = cycle.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), cycle.len(), "cycle lists each txn once");
    }
}
