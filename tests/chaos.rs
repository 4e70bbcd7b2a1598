//! Fault-injection invariants across the stack: lazy-group under a full
//! chaos plan and crash recovery by replay, and two-tier under message
//! chaos, partitions, and mobile and base crashes.
//!
//! The paper's convergence property (§6) must hold no matter what the
//! network did during the run: once traffic stops and everything heals,
//! all replicas agree. These tests drive the worst plan the fault
//! subsystem can express and check exactly that.

use dangers_of_replication::check::{check_store_convergence, Recorder, Scheme};
use dangers_of_replication::core::engine::lazy_group::LazyGroupSim;
use dangers_of_replication::core::{
    DeadlockPolicy, Mobility, SimConfig, TwoTierConfig, TwoTierSim, TwoTierWorkload,
};
use dangers_of_replication::model::Params;
use dangers_of_replication::net::{CrashWindow, FaultPlan, PartitionWindow};
use dangers_of_replication::sim::{SimDuration, SimTime};
use dangers_of_replication::storage::{NodeId, TxnId};
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

/// A two-tier run's tentative transactions, per mobile: when each
/// was committed, when each verdict came, and when the mobile crashed.
#[derive(Default)]
struct Tentative {
    commits: BTreeMap<NodeId, Vec<SimTime>>,
    verdicts: BTreeMap<NodeId, Vec<SimTime>>,
    crashes: Vec<(NodeId, SimTime)>,
    elections: u32,
}

impl Tracer for Tentative {
    fn record(&mut self, e: &Event) {
        match e.kind {
            EventKind::TentativeCommit => self.commits.entry(e.node).or_default().push(e.at),
            EventKind::TentativeAccepted | EventKind::TentativeRejected => {
                self.verdicts.entry(e.node).or_default().push(e.at);
            }
            EventKind::NodeCrash => self.crashes.push((e.node, e.at)),
            EventKind::LeaderElected { .. } => self.elections += 1,
            _ => {}
        }
    }
}

impl Tentative {
    /// Every tentative transaction got exactly one verdict.
    fn assert_one_verdict_each(&self) {
        for (node, commits) in &self.commits {
            let verdicts = self.verdicts.get(node).map_or(0, Vec::len);
            assert_eq!(
                commits.len(),
                verdicts,
                "mobile {node}: commits vs verdicts"
            );
        }
    }

    /// Tentative transactions `node` held unjudged when it crashed at
    /// `at`.
    fn pending_at(&self, node: NodeId, at: SimTime) -> usize {
        let before = |times: Option<&Vec<SimTime>>| {
            times.map_or(0, |t| t.iter().filter(|&&t| t < at).count())
        };
        before(self.commits.get(&node)) - before(self.verdicts.get(&node))
    }
}

/// A two-tier run of `base_nodes` base nodes and mobiles under `plan`,
/// recorded and traced: the report, the tentative log, and whether
/// every replica converged to the master with the oracles clean.
fn two_tier_under(
    plan: &str,
    seed: u64,
    base_nodes: u32,
) -> (dangers_of_replication::core::Report, Tentative) {
    let p = Params::new(300.0, 6.0, 5.0, 4.0, 0.01);
    let cfg = TwoTierConfig {
        sim: SimConfig::from_params(&p, 60, seed),
        base_nodes,
        mobile_owned: 0,
        connected: SimDuration::from_secs(4),
        disconnected: SimDuration::from_secs(8),
        workload: TwoTierWorkload::Commutative { max_amount: 10 },
        initial_value: 10_000,
    };
    let log = Rc::new(RefCell::new(Tentative::default()));
    let rec = Recorder::new(Scheme::TwoTier);
    let (report, master, replicas) = TwoTierSim::new(cfg)
        .with_faults(FaultPlan::parse(plan, seed).unwrap())
        .with_tracer(TraceHandle::shared(&log))
        .with_recorder(rec.clone())
        .run_with_state();
    let check = rec.check();
    assert!(check.is_clean(), "seed {seed}: {:?}", check.violations);
    for (i, replica) in replicas.iter().enumerate() {
        assert_eq!(
            replica.digest(),
            master.digest(),
            "seed {seed}: node {i} diverged"
        );
    }
    let log = Rc::try_unwrap(log).ok().expect("run over").into_inner();
    log.assert_one_verdict_each();
    (report, log)
}

/// Message chaos, a partition between the base and the mobiles, and a
/// mobile crash: faults reach two-tier, every tentative transaction is
/// judged once, the crashed mobile's queue survives its crash, and the
/// replicas converge to the master.
#[test]
fn two_tier_converges_under_message_chaos_a_partition_and_a_mobile_crash() {
    let plan = "drop=0.1; dup=0.05; part=15..30:0,1; crash=4:35..45";
    for seed in [5, 42, 7] {
        let (report, log) = two_tier_under(plan, seed, 2);
        assert!(report.messages_dropped > 0, "seed {seed}: no drops");
        assert!(report.messages_duplicated > 0, "seed {seed}: no duplicates");
        assert_eq!(report.node_crashes, 1);
        assert_eq!(log.crashes, [(NodeId(4), SimTime::from_secs(35))]);
        assert!(
            log.pending_at(NodeId(4), SimTime::from_secs(35)) > 0,
            "seed {seed}: the mobile crashed with nothing queued"
        );
    }
}

/// A lone base node is its own quorum. While it is down nothing can
/// elect: base arrivals abort, mobiles keep their queues and retry
/// their syncs. Each restart re-elects it, and the master, rebuilt from
/// its log, neither loses a commit nor diverges from a replica.
#[test]
fn two_tier_master_survives_base_crashes_without_divergence() {
    let plan = "dup=0.05; crash=0:10..20; crash=0:30..38";
    let (report, log) = two_tier_under(plan, 3, 1);
    assert_eq!(report.node_crashes, 2);
    assert_eq!(log.elections, 2, "each restart re-elects the lone base");
    assert!(report.committed > 0);
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
