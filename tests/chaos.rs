//! Fault-injection invariants across the stack: the simulated fabric
//! (lazy-group under a full chaos plan, crash recovery by replay) and
//! the two-tier base tier's state machine (base crashes under a mobile).
//!
//! The paper's convergence property (§6) must hold no matter what the
//! network did during the run: once traffic stops and everything heals,
//! all replicas agree. These tests drive the worst plan the fault
//! subsystem can express and check exactly that.

use dangers_of_replication::check::{check_store_convergence, Recorder, Scheme};
use dangers_of_replication::core::base_tier::{BaseGroup, MobileNode};
use dangers_of_replication::core::engine::lazy_group::LazyGroupSim;
use dangers_of_replication::core::{
    Criterion, DeadlockPolicy, Mobility, Op, Operation, SimConfig, TxnSpec,
};
use dangers_of_replication::model::Params;
use dangers_of_replication::net::{CrashWindow, FaultPlan, PartitionWindow};
use dangers_of_replication::sim::{SimDuration, SimTime};
use dangers_of_replication::storage::{NodeId, ObjectId, TxnId, Value};
use dangers_of_replication::telemetry::{Event, EventKind, TraceHandle, Tracer};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Message chaos, one partition, one crash — everything at once.
fn full_plan(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::quiet(seed);
    plan.drop_p = 0.05;
    plan.dup_p = 0.03;
    plan.delay_p = 0.10;
    plan.partitions.push(PartitionWindow {
        start: SimTime::from_secs(20),
        heal: SimTime::from_secs(35),
        side_a: vec![NodeId(0), NodeId(1)],
    });
    plan.crashes.push(CrashWindow {
        node: NodeId(2),
        at: SimTime::from_secs(40),
        restart: SimTime::from_secs(50),
    });
    plan
}

fn chaos_cfg(seed: u64) -> SimConfig {
    let p = Params::new(300.0, 4.0, 10.0, 4.0, 0.01);
    SimConfig::from_params(&p, 60, seed)
}

#[test]
fn lazy_group_converges_after_heal_under_full_chaos() {
    let (report, stores) = LazyGroupSim::new(chaos_cfg(7), Mobility::Connected)
        .with_faults(full_plan(7))
        .run_with_state();
    // The plan actually bit: losses, duplicates, and a crash happened.
    assert!(report.committed > 0);
    assert!(report.messages_dropped > 0, "no drops injected");
    assert!(report.messages_duplicated > 0, "no duplicates injected");
    assert_eq!(report.node_crashes, 1);
    // And none of it broke convergence.
    let d0 = stores[0].digest();
    for (i, s) in stores.iter().enumerate() {
        assert_eq!(s.digest(), d0, "node {i} diverged after the drain");
    }
}

/// Every message lost for the whole run: each origin keeps one
/// retransmit timer, not one per dropped peer per firing (which grew by
/// a factor of `peers` every `retransmit` and exhausted memory within
/// two simulated seconds), and the drain still converges.
#[test]
fn total_message_loss_costs_linear_retransmits_and_still_converges() {
    let (nodes, peers, horizon) = (4u32, 3u32, 20);
    let p = Params::new(2000.0, f64::from(nodes), 10.0, 4.0, 0.01);
    let mut plan = FaultPlan::quiet(5);
    plan.drop_p = 1.0;
    let timers = SimDuration::from_secs(horizon).0 / plan.retransmit.0;
    let (report, stores) =
        LazyGroupSim::new(SimConfig::from_params(&p, horizon, 5), Mobility::Connected)
            .with_faults(plan)
            .run_with_state();
    assert!(report.committed > 0);
    // A commit or a timer re-runs propagation once: one drop per peer.
    let bound = u64::from(nodes * peers) * (timers + report.committed);
    assert!(
        (1..=bound).contains(&report.messages_dropped),
        "{} drops, bound {bound}",
        report.messages_dropped
    );
    let d0 = stores[0].digest();
    for (i, s) in stores.iter().enumerate() {
        assert_eq!(s.digest(), d0, "node {i} diverged after the drain");
    }
}

#[test]
fn same_seed_fault_plans_are_bit_identical() {
    let run = || {
        LazyGroupSim::new(chaos_cfg(11), Mobility::Connected)
            .with_faults(full_plan(11))
            .run_with_state()
    };
    let (ra, sa) = run();
    let (rb, sb) = run();
    assert_eq!(ra, rb, "reports differ between identical chaos runs");
    let da: Vec<u64> = sa.iter().map(|s| s.digest()).collect();
    let db: Vec<u64> = sb.iter().map(|s| s.digest()).collect();
    assert_eq!(da, db, "final states differ between identical chaos runs");
}

#[test]
fn deadlock_policies_use_disjoint_mechanisms_under_chaos() {
    let timeout_cfg = chaos_cfg(13).with_deadlock(DeadlockPolicy::Timeout {
        wait: SimDuration::from_millis(300),
    });
    let (timeout, t_stores) = LazyGroupSim::new(timeout_cfg, Mobility::Connected)
        .with_faults(full_plan(13))
        .run_with_state();
    assert!(timeout.lock_timeouts > 0, "timeout mode resolved nothing");
    assert_eq!(timeout.cycle_checks, 0, "timeout mode searched the graph");

    let (detection, _) = LazyGroupSim::new(chaos_cfg(13), Mobility::Connected)
        .with_faults(full_plan(13))
        .run_with_state();
    assert!(detection.cycle_checks > 0, "detection mode never searched");
    assert_eq!(
        detection.lock_timeouts, 0,
        "detection mode timed out a lock"
    );

    // Timeout resolution still converges.
    let d0 = t_stores[0].digest();
    assert!(t_stores.iter().all(|s| s.digest() == d0));
}

/// Every `RecoveryReplay` a run traces, as `(node, messages)`.
#[derive(Default)]
struct Replays(Vec<(NodeId, u64)>);

impl Tracer for Replays {
    fn record(&mut self, e: &Event) {
        if let EventKind::RecoveryReplay { messages } = e.kind {
            self.0.push((e.node, messages));
        }
    }
}

/// A crashed lazy-group node misses the propagation its peers keep
/// committing; the fabric parks that backlog, and the restart replays
/// it. No update may be lost: after the drain every store agrees. The
/// database is large and the window ends late, so later writes cannot
/// paper over a backlog the restart failed to replay.
#[test]
fn lazy_group_recovery_replay_is_lossless() {
    let mut plan = FaultPlan::quiet(3);
    plan.crashes.push(CrashWindow {
        node: NodeId(1),
        at: SimTime::from_secs(20),
        restart: SimTime::from_secs(50),
    });
    let p = Params::new(2000.0, 4.0, 10.0, 4.0, 0.01);
    let cfg = SimConfig::from_params(&p, 60, 3);
    let replays = Rc::new(RefCell::new(Replays::default()));
    let (report, stores) = LazyGroupSim::new(cfg, Mobility::Connected)
        .with_faults(plan)
        .with_tracer(TraceHandle::shared(&replays))
        .run_with_state();
    assert_eq!(report.node_crashes, 1);
    let replays = &replays.borrow().0;
    assert!(
        replays.iter().any(|&(n, m)| n == NodeId(1) && m > 0),
        "node 1 replayed no parked propagation: {replays:?}"
    );
    let d0 = stores[0].digest();
    for (i, s) in stores.iter().enumerate() {
        assert_eq!(s.digest(), d0, "node {i} diverged after recovery");
    }
}

#[test]
fn two_tier_master_survives_base_crashes_without_divergence() {
    fn debit(obj: u64, amount: i64) -> TxnSpec {
        TxnSpec::new(vec![Operation::new(ObjectId(obj), Op::Debit(amount))])
            .with_criterion(Criterion::NonNegative)
    }

    // One replica: the group behaves as a single base server.
    let group = BaseGroup::new(1, 4, 100);
    let mut mobile = MobileNode::new(NodeId(1), 4, 100);

    // The base commits the sync durably and crashes before replying.
    // The retry finds no quorum, so the mobile keeps its queue.
    mobile.execute_tentative(debit(0, 10));
    assert!(group.inject_commit_crash());
    assert!(
        mobile.sync_with_retry(&group, 2).is_none(),
        "sync succeeded against a crashed base"
    );
    assert_eq!(mobile.pending_count(), 1, "the tentative queue is kept");

    // After the restart the retry is answered from the dedup map: the
    // debit lands exactly once.
    group.restart(0);
    let outcome = mobile
        .sync_with_retry(&group, 2)
        .expect("sync failed after base recovery");
    assert_eq!(outcome.accepted, 1);
    let balance = || {
        group
            .snapshot()
            .expect("quorum")
            .get(ObjectId(0))
            .value
            .clone()
    };
    assert_eq!(balance(), Value::Int(90));

    // A full crash loses the master; restart replays it from the log
    // and the next sync proceeds as if nothing happened.
    group.crash(0);
    mobile.execute_tentative(debit(0, 15));
    assert!(mobile.sync_with_retry(&group, 2).is_none());
    let replayed = group.restart(0);
    assert!(replayed > 0, "restart replayed no committed transactions");
    assert_eq!(balance(), Value::Int(90), "the log replays exactly");
    let outcome = mobile
        .sync_with_retry(&group, 2)
        .expect("sync failed after base recovery");
    assert_eq!(outcome.accepted, 1);
    assert_eq!(balance(), Value::Int(75));
    assert_eq!(mobile.read(ObjectId(0)), &Value::Int(75));
    assert_eq!(group.verify(), vec![], "failover oracles");
    group.shutdown();
}

/// The parts of a sharded lazy-group trace that show what became of
/// each forward, in trace order. Forwards are the only lazy-group
/// messages traced as `MsgSent`, and they carry their id as the
/// transaction.
#[derive(Default)]
struct Forwards(Vec<Event>);

impl Tracer for Forwards {
    fn record(&mut self, e: &Event) {
        let keep = matches!(
            e.kind,
            EventKind::MsgSent { .. }
                | EventKind::MsgDropped { .. }
                | EventKind::MsgDuplicated { .. }
                | EventKind::PartitionStart { .. }
                | EventKind::PartitionHeal
                | EventKind::TxnBegin
        ) || matches!(e.kind, EventKind::MsgDelivered { .. })
            && e.txn != TxnId::default();
        if keep {
            self.0.push(e.clone());
        }
    }
}

/// One forward's history: `(time, from, to)` per send, arrival times
/// of every copy, sub-roots begun, drops, duplications.
#[derive(Default, Debug)]
struct Fate {
    sends: Vec<(SimTime, NodeId, NodeId)>,
    arrivals: Vec<SimTime>,
    begun: u32,
    drops: Vec<SimTime>,
    dups: u32,
}

/// A partition window: `(start, heal, side A)`.
type Window = (SimTime, SimTime, Vec<NodeId>);

/// Replay a [`Forwards`] trace into per-forward fates, plus the
/// partition windows.
fn fates(trace: &[Event]) -> (BTreeMap<TxnId, Fate>, Vec<Window>) {
    let mut fates: BTreeMap<TxnId, Fate> = BTreeMap::new();
    let mut windows = Vec::new();
    for (i, e) in trace.iter().enumerate() {
        match &e.kind {
            EventKind::MsgSent { to } => {
                let f = fates.entry(e.txn).or_default();
                f.sends.push((e.at, e.node, *to));
            }
            EventKind::MsgDelivered { .. } => {
                let f = fates.get_mut(&e.txn).expect("a forward arrived unsent");
                f.arrivals.push(e.at);
                // The sub-root's begin is traced right after the copy
                // that starts it, at the same node and instant.
                let next = trace.get(i + 1);
                if next.is_some_and(|n| {
                    matches!(n.kind, EventKind::TxnBegin) && n.node == e.node && n.at == e.at
                }) {
                    f.begun += 1;
                }
            }
            // Replica messages drop and duplicate too, with no id.
            EventKind::MsgDropped { .. } => {
                if let Some(f) = fates.get_mut(&e.txn) {
                    f.drops.push(e.at);
                }
            }
            EventKind::MsgDuplicated { .. } => {
                if let Some(f) = fates.get_mut(&e.txn) {
                    f.dups += 1;
                }
            }
            EventKind::PartitionStart { side_a } => {
                windows.push((e.at, SimTime(u64::MAX), side_a.clone()));
            }
            EventKind::PartitionHeal => windows.last_mut().unwrap().1 = e.at,
            _ => {}
        }
    }
    (fates, windows)
}

/// A sharded lazy-group run under `plan`: every forward begins at most
/// one sub-root, never crosses an active partition, and is sent again
/// after a drop; every one arrives in the end; and the oracles stay
/// clean. Returns the fates, for the caller to check the plan bit.
fn forwards_under(plan: &str, seed: u64) -> BTreeMap<TxnId, Fate> {
    let p = Params::new(2_000.0, 6.0, 10.0, 4.0, 0.01);
    let cfg = SimConfig::from_params(&p, 36, seed)
        .with_shards(6, 2)
        .with_cross_shard(0.3);
    let trace = Rc::new(RefCell::new(Forwards::default()));
    let rec = Recorder::new(Scheme::LazyGroup);
    let (report, stores) = LazyGroupSim::new(cfg, Mobility::Connected)
        .with_faults(FaultPlan::parse(plan, seed).unwrap())
        .with_tracer(TraceHandle::shared(&trace))
        .with_recorder(rec.clone())
        .run_with_state();
    assert!(report.committed > 0);
    let check = rec.check();
    assert!(
        check.is_clean(),
        "{plan} seed {seed}: {:?}",
        check.violations
    );
    let stores: Vec<(NodeId, _)> = stores
        .into_iter()
        .enumerate()
        .map(|(i, s)| (NodeId(i as u32), s))
        .collect();
    assert_eq!(check_store_convergence(&stores), None, "{plan} seed {seed}");

    let (fates, windows) = fates(&trace.borrow().0);
    assert!(!fates.is_empty(), "nothing was forwarded");
    for (id, f) in &fates {
        let at = format!("{plan} seed {seed}, forward {id:?}: {f:?}");
        assert!(f.begun <= 1, "two sub-roots: {at}");
        assert!(!f.arrivals.is_empty(), "never arrived: {at}");
        for drop in &f.drops {
            assert!(f.sends.iter().any(|s| s.0 > *drop), "not resent: {at}");
        }
        // The copy that arrived left with the latest send before it; if
        // a partition separated its ends then, it waited for the heal.
        for arrival in &f.arrivals {
            let &(sent, from, to) = f.sends.iter().rev().find(|s| s.0 <= *arrival).unwrap();
            for (start, heal, side_a) in &windows {
                let cut = side_a.contains(&from) != side_a.contains(&to);
                if cut && *start <= sent && sent < *heal {
                    assert!(arrival >= heal, "crossed a partition: {at}");
                }
            }
        }
    }
    fates
}

#[test]
fn sharded_forwards_survive_message_chaos_exactly_once() {
    for seed in [5, 42, 7] {
        let fates = forwards_under("drop=0.1; dup=0.05; retransmit=0.25", seed);
        assert!(
            fates.values().any(|f| !f.drops.is_empty()),
            "no forward dropped"
        );
        assert!(fates.values().any(|f| f.dups > 0), "no forward duplicated");
    }
}

#[test]
fn sharded_forwards_wait_for_the_heal() {
    for seed in [5, 42, 7] {
        let fates = forwards_under("part=10..20:0,1,2", seed);
        let held = fates.values().filter(|f| {
            f.sends
                .iter()
                .any(|s| s.0 >= SimTime::from_secs(10) && s.0 < SimTime::from_secs(20))
                && f.arrivals.iter().any(|a| *a == SimTime::from_secs(20))
        });
        assert!(held.count() > 0, "no forward waited for the heal");
    }
}
