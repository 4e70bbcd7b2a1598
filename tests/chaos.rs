//! Fault-injection invariants across the stack: the simulated fabric
//! (lazy-group under a full chaos plan) and the threaded runtime
//! (cluster crash/recovery, two-tier base crashes).
//!
//! The paper's convergence property (§6) must hold no matter what the
//! network did during the run: once traffic stops and everything heals,
//! all replicas agree. These tests drive the worst plan the fault
//! subsystem can express and check exactly that.

use dangers_of_replication::cluster::two_tier::{BaseServer, MobileNode};
use dangers_of_replication::cluster::Cluster;
use dangers_of_replication::core::engine::lazy_group::LazyGroupSim;
use dangers_of_replication::core::{
    Criterion, DeadlockPolicy, Mobility, Op, Operation, SimConfig, TxnSpec,
};
use dangers_of_replication::model::Params;
use dangers_of_replication::net::{CrashWindow, FaultPlan, PartitionWindow};
use dangers_of_replication::sim::{SimDuration, SimTime};
use dangers_of_replication::storage::{NodeId, ObjectId, Value};

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

#[test]
fn cluster_recovery_replay_is_lossless() {
    let cluster = {
        let mut c = Cluster::new(3, 8);
        for round in 0..5i64 {
            for node in 0..3u32 {
                c.execute_one(
                    NodeId(node),
                    ObjectId((round as u64 + u64::from(node)) % 8),
                    Op::Add(10 * round + i64::from(node)),
                );
            }
        }
        c.quiesce();
        c.crash(NodeId(1));
        // Peers keep writing while node 1 is down; their propagation to
        // it queues as undelivered backlog.
        c.execute_one(NodeId(0), ObjectId(3), Op::Set(Value::Int(777)));
        c.execute_one(NodeId(2), ObjectId(5), Op::Set(Value::Int(888)));
        let replayed = c.restart(NodeId(1));
        assert!(replayed > 0, "recovery replayed nothing from the WAL");
        c.quiesce();
        c
    };
    let digests = cluster.digests();
    assert!(
        digests.iter().all(|d| *d == digests[0]),
        "replicas diverged after crash recovery: {digests:?}"
    );
    cluster.shutdown();
}

#[test]
fn two_tier_master_survives_base_crashes_without_divergence() {
    fn debit(obj: u64, amount: i64) -> TxnSpec {
        TxnSpec::new(vec![Operation::new(ObjectId(obj), Op::Debit(amount))])
            .with_criterion(Criterion::NonNegative)
    }

    let mut base = BaseServer::spawn(4, 100);
    let mut mobile = MobileNode::new(NodeId(1), 4, 100);

    // A sync whose reply is lost: the retry must not double-debit.
    base.inject_reply_crashes(1);
    mobile.execute_tentative(debit(0, 10));
    let outcome = mobile
        .sync_with_retry(&base, 8)
        .expect("retry never reached the base");
    assert_eq!(outcome.accepted, 1);
    assert_eq!(base.snapshot().get(ObjectId(0)).value, Value::Int(90));

    // A full base crash: restart recovers the master from its log and
    // the next sync proceeds as if nothing happened.
    base.crash();
    assert!(base.is_crashed());
    mobile.execute_tentative(debit(0, 15));
    assert!(
        mobile.sync_with_retry(&base, 2).is_none(),
        "sync succeeded against a crashed base"
    );
    let replayed = base.restart();
    assert!(replayed > 0, "restart replayed no committed transactions");
    // The two timed-out attempts left stale Sync requests queued at the
    // base; the recovered thread executes them exactly once (their
    // shared dedup id caches the first outcome), so the master already
    // shows 90 - 15 = 75 — not 60, and not the pre-crash 90.
    assert_eq!(
        base.snapshot().get(ObjectId(0)).value,
        Value::Int(75),
        "stale queued syncs must apply exactly once after recovery"
    );
    let outcome = mobile
        .sync_with_retry(&base, 8)
        .expect("sync failed after base recovery");
    assert_eq!(outcome.accepted, 1);
    assert_eq!(base.snapshot().get(ObjectId(0)).value, Value::Int(75));
    assert_eq!(mobile.read(ObjectId(0)), &Value::Int(75));
    base.shutdown();
}
