//! Telemetry guarantees: tracing is strictly observational (attaching
//! any sink leaves a same-seed run's `Report` bit-identical), and the
//! JSONL export round-trips losslessly through serde.

use dangers_of_replication::core::Report;
use dangers_of_replication::core::{
    ContentionProfile, ContentionSim, EagerSim, LazyGroupSim, LazyMasterSim, Mobility, Ownership,
    ReplicaDiscipline, SimConfig, TwoTierConfig, TwoTierSim, TwoTierWorkload,
};
use dangers_of_replication::model::Params;
use dangers_of_replication::sim::{SimDuration, SimTime};
use dangers_of_replication::storage::TxnId;
use dangers_of_replication::telemetry::{
    parse_jsonl, Event, EventKind, JsonlSink, Profiler, RingBuffer, SeriesAggregator, TraceHandle,
    Tracer,
};
use std::cell::RefCell;
use std::collections::BTreeSet;
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

/// The sends a run traces (`MsgSent` and `ReplicaSend`) while the kernel
/// measures: from the warm-up to the horizon, before the drain (whose
/// first sends happen at the horizon itself).
struct Sends {
    from: SimTime,
    until: SimTime,
    n: u64,
}

impl Tracer for Sends {
    fn record(&mut self, e: &Event) {
        let send = matches!(
            e.kind,
            EventKind::MsgSent { .. } | EventKind::ReplicaSend { .. }
        );
        if send && e.at >= self.from && e.at < self.until {
            self.n += 1;
        }
    }
}

/// One engine, run on a configuration with a tracer attached.
type Run = Box<dyn Fn(SimConfig, TraceHandle) -> Report>;

/// A full layout and a partial one with cross-shard transactions (so
/// lazy-group forwards and the commit protocols run).
fn layouts() -> [(&'static str, SimConfig); 2] {
    let p = Params::new(600.0, 6.0, 10.0, 4.0, 0.01);
    let full = SimConfig::from_params(&p, 30, 17).with_warmup(2);
    let partial = full.with_shards(6, 2).with_cross_shard(0.3);
    [("full", full), ("partial", partial)]
}

/// The five engines.
fn engines() -> [(&'static str, Run); 5] {
    [
        (
            "single-node",
            Box::new(|c, h| {
                ContentionSim::new(c, ContentionProfile::single_node(&c))
                    .with_tracer(h)
                    .run()
            }),
        ),
        (
            "eager",
            Box::new(|c, h| {
                EagerSim::new(c, ReplicaDiscipline::Serial, Ownership::Group)
                    .with_tracer(h)
                    .run()
            }),
        ),
        (
            "lazy-master",
            Box::new(|c, h| LazyMasterSim::new(c).with_tracer(h).run()),
        ),
        (
            "lazy-group",
            Box::new(|c, h| {
                LazyGroupSim::new(c, Mobility::Connected)
                    .with_tracer(h)
                    .run()
            }),
        ),
        (
            "two-tier",
            Box::new(|c, h| {
                let tt = TwoTierConfig {
                    sim: c,
                    base_nodes: 2,
                    mobile_owned: 0,
                    connected: SimDuration::from_secs(4),
                    disconnected: SimDuration::from_secs(4),
                    workload: TwoTierWorkload::Commutative { max_amount: 10 },
                    initial_value: 1_000,
                };
                TwoTierSim::new(tt).with_tracer(h).run()
            }),
        ),
    ]
}

/// `Report::messages` counts exactly the sends the trace records, for
/// every engine on a full and on a partial layout: a message is counted
/// where it is sent, and nowhere else.
#[test]
fn every_counted_message_is_a_traced_send() {
    for (name, run) in &engines() {
        for (layout, c) in layouts() {
            let sends = Rc::new(RefCell::new(Sends {
                from: c.warmup,
                until: c.horizon,
                n: 0,
            }));
            let report = run(c, TraceHandle::shared(&sends));
            assert!(report.committed > 0, "{name} {layout}: nothing committed");
            if layout == "partial" {
                assert!(report.messages > 0, "{name} {layout}: nothing sent");
            }
            assert_eq!(
                report.messages,
                sends.borrow().n,
                "{name} {layout}: counted vs sent"
            );
        }
    }
}

/// The ids a trace begins transactions with, and the ids its `MsgSent`
/// events name, in trace order.
#[derive(Default)]
struct Ids {
    begun: Vec<TxnId>,
    sent: Vec<TxnId>,
}

impl Tracer for Ids {
    fn record(&mut self, e: &Event) {
        match e.kind {
            EventKind::TxnBegin => self.begun.push(e.txn),
            EventKind::MsgSent { .. } => self.sent.push(e.txn),
            _ => {}
        }
    }
}

/// Every engine takes its ids from the kernel's one counter, so on a
/// full and on a partial layout the ids the trace begins transactions
/// with are nonzero (0 is what system events stamp) and strictly
/// increase: id order is begin order. Lazy-group's forwards draw from
/// the same counter, so no forward shares an id with a transaction.
#[test]
fn transaction_ids_are_nonzero_and_in_begin_order() {
    for (name, run) in &engines() {
        for (layout, c) in layouts() {
            let ids = Rc::new(RefCell::new(Ids::default()));
            run(c, TraceHandle::shared(&ids));
            let ids = ids.borrow();
            let first = ids.begun.first().copied();
            assert!(first.is_some(), "{name} {layout}: nothing began");
            assert_ne!(first, Some(TxnId::default()), "{name} {layout}");
            for w in ids.begun.windows(2) {
                assert!(
                    w[0] < w[1],
                    "{name} {layout}: {} began after {}",
                    w[1],
                    w[0]
                );
            }
            if *name == "lazy-group" {
                // Lazy-group's only `MsgSent`s are its forwards.
                if layout == "partial" {
                    assert!(!ids.sent.is_empty(), "{name} {layout}: no forwards");
                }
                let begun: BTreeSet<TxnId> = ids.begun.iter().copied().collect();
                for forward in &ids.sent {
                    assert!(
                        !begun.contains(forward),
                        "{name} {layout}: {forward} names a forward and a transaction"
                    );
                }
            }
        }
    }
}
