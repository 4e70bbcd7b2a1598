//! Fault-injection invariants across the stack: the simulated fabric
//! (lazy-group under a full chaos plan, crash recovery by replay) and
//! the two-tier base tier's state machine (base crashes under a mobile).
//!
//! The paper's convergence property (§6) must hold no matter what the
//! network did during the run: once traffic stops and everything heals,
//! all replicas agree. These tests drive the worst plan the fault
//! subsystem can express and check exactly that.

use dangers_of_replication::core::base_tier::{BaseGroup, MobileNode};
use dangers_of_replication::core::engine::lazy_group::LazyGroupSim;
use dangers_of_replication::core::{
    Criterion, DeadlockPolicy, Mobility, Op, Operation, SimConfig, TxnSpec,
};
use dangers_of_replication::model::Params;
use dangers_of_replication::net::{CrashWindow, FaultPlan, PartitionWindow};
use dangers_of_replication::sim::{SimDuration, SimTime};
use dangers_of_replication::storage::{NodeId, ObjectId, Value};
use dangers_of_replication::telemetry::{Event, EventKind, TraceHandle, Tracer};
use std::cell::RefCell;
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
