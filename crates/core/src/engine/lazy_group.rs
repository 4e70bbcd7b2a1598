//! Lazy-group replication ("update anywhere, anytime, anyhow") — §4 and
//! Figure 4 of the paper.
//!
//! Every node accepts root transactions against its local replica. When
//! a root transaction commits, one *lazy transaction* per remote node
//! carries its updates, each tagged `(OID, old timestamp, new value)`.
//! The receiving node runs the paper's timestamp test:
//!
//! * local timestamp == update's old timestamp → safe, apply;
//! * local timestamp newer than the update → stale, ignore;
//! * otherwise → **dangerous**: count a reconciliation and resolve.
//!
//! Conflicts are resolved by time-priority (newest timestamp wins, one
//! of §6's reconciliation rules), so replicas still converge — the
//! *reconciliation rate* is the quantity equation (14) predicts grows
//! with `(Actions × Nodes)³`, and the mobile variant with disconnection
//! windows is the regime of equations (15)–(18).

use crate::config::{DeadlockPolicy, SimConfig};
use crate::engine::kernel::{self, applies, full_mask, Kernel, Protocol, Sent, Sim};
use crate::metrics::{Report, M_ABORTS, M_RETRIES};
use repl_check::{Scheme, TxnRecord};
use repl_net::FaultPlan;
use repl_sim::{SimDuration, SimRng, SimTime};
use repl_storage::{
    Acquire, ApplyOutcome, CommitLog, DeadlockMode, LamportClock, LockManager, Lsn, NodeId,
    ObjectId, ObjectStore, ShardMap, Timestamp, TxnId, TxnTable, UpdateRecord, Value,
};
use repl_telemetry::{AbortReason, Event, EventKind};

/// How dangerous updates are disposed of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResolutionMode {
    /// Resolve automatically by time priority (newest timestamp wins) —
    /// replicas converge, updates may be lost (§6).
    #[default]
    TimePriority,
    /// No automatic rule: the conflicting update is dropped on the
    /// floor and left for "a program or person" (§1). Replicas drift
    /// apart — this mode exists to demonstrate **system delusion**.
    Manual,
}

/// Mobility settings for the lazy-group run.
#[derive(Debug, Clone, Copy)]
pub enum Mobility {
    /// All nodes stay connected — equation (14)'s regime.
    Connected,
    /// Every node alternates connected/disconnected periods — the
    /// "really bad case" of equations (15)–(18). Periods are drawn
    /// exponentially around the configured means so the nodes' cycles
    /// stagger (deterministic identical cycles would disconnect every
    /// node simultaneously, which models nothing).
    Cycling {
        /// Mean connected stretch (`Time_Between_Disconnects`).
        connected: SimDuration,
        /// Mean disconnected stretch (`Disconnected_Time`).
        disconnected: SimDuration,
    },
}

/// One committed root transaction's replica-update message.
///
/// `updates` is shared: propagation fans one commit record out to every
/// destination (plus per-delivery copies for duplicated messages), so
/// the payload is reference-counted instead of deep-cloned per message.
/// The engine is single-threaded — `Rc` is deliberate.
#[doc(hidden)]
#[derive(Debug, Clone, Default)]
pub struct ReplicaMsg {
    /// Originating node (stamps `MsgDelivered` trace events).
    from: NodeId,
    /// A local resubmission after a deadlock or timeout abort, not an
    /// arrival off the wire: delivered like any other copy, but no
    /// `MsgDelivered` is traced for it. Cleared on delivery, and when
    /// the copy goes back into the mail instead.
    retry: bool,
    /// Send time at the origin — the replica commit measures
    /// propagation lag (send → apply) against it. Parked, retried, and
    /// duplicated copies keep the original stamp, so the lag includes
    /// disconnection and retry time, which is the point.
    sent_at: SimTime,
    updates: std::rc::Rc<[UpdateRecord]>,
    /// Which entries of `updates` this destination applies (bit `i` ⇒
    /// `updates[i]`). Sharded fan-out ships the *full* record to every
    /// group and selects the hosted subset here, so no filtered copy is
    /// ever materialised; unsharded runs set every bit. Records wider
    /// than 64 updates are pre-filtered by the sender and carry
    /// `u64::MAX` — [`applies`] treats overflow indices as selected.
    mask: u64,
}

/// What lazy-group puts on the wire.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub enum Msg {
    /// A committed root's updates for one replica.
    Replica(ReplicaMsg),
    /// A cross-shard transaction's sub-transaction for one remote
    /// shard group, forwarded to that shard's owner — the per-shard
    /// root/replica split: the owner runs it as an ordinary root and
    /// propagates it to the shard's replica set. Sharded runs only.
    /// The objects stay in the protocol's `Forward` entry `id`.
    Forward { from: NodeId, id: TxnId },
}

/// A forwarded sub-transaction in flight: sent, or waiting in its
/// origin's outbox, and not yet begun at `to`. The first copy to arrive
/// removes the entry, so a duplicate finds nothing and begins nothing.
#[derive(Debug, Default)]
struct Forward {
    to: NodeId,
    objects: Vec<ObjectId>,
}

/// The lazy-group protocol's private events. (Replica updates and
/// forwards — first deliveries and resubmissions alike — travel as the
/// kernel's `Deliver`.)
#[doc(hidden)]
#[derive(Debug)]
pub enum Ev {
    /// A root transaction finished one action's service time.
    RootStep(TxnId),
    /// A replica transaction finished one action's service time.
    ReplicaStep(TxnId),
    /// Retry propagation from a node after a dropped message.
    Resend(NodeId),
    /// A blocked transaction's lock-wait timer expired
    /// ([`DeadlockPolicy::Timeout`]).
    LockTimeout {
        txn: TxnId,
        node: NodeId,
        obj: ObjectId,
    },
}

#[derive(Debug, Default)]
struct RootTxn {
    node: NodeId,
    objects: Vec<ObjectId>,
    next: usize,
    started: SimTime,
    /// When the transaction last blocked on a lock (cleared on grant,
    /// recorded into the wait-time distribution).
    wait_started: Option<SimTime>,
    /// Updates produced so far (old ts captured at write time).
    updates: Vec<UpdateRecord>,
    /// Pre-images of every store write, for abort rollback. Root
    /// actions write the store as they go; an abort must restore the
    /// old versions or the dirty writes survive as orphans no replica
    /// ever receives — a convergence violation the oracle fuzzer
    /// caught (newest-timestamp-wins only absorbs an orphan if a
    /// *newer committed* write happens to follow).
    undo: Vec<(ObjectId, Value, Timestamp)>,
}

#[derive(Debug, Default)]
struct ReplicaTxn {
    node: NodeId,
    msg: ReplicaMsg,
    next: usize,
    /// When the transaction last blocked on a lock (cleared on grant).
    wait_started: Option<SimTime>,
    /// Whether any update in this lazy transaction hit the dangerous
    /// case (counted once per transaction).
    conflicted: bool,
}

#[derive(Debug)]
struct NodeState {
    store: ObjectStore,
    locks: LockManager,
    clock: LamportClock,
    /// This node's commit log. Lazy propagation replays it "in
    /// sequential commit order" (§5): each peer has a watermark of the
    /// last commit already shipped to it.
    log: CommitLog,
    /// The nodes this one ever has replica traffic for, ascending —
    /// every other node, or under a partial layout the ones co-hosting
    /// a shard with it, so propagation and log GC cost follows `rf`,
    /// not `Nodes` — each with its replication watermark into `log`.
    peers: Vec<(NodeId, Lsn)>,
    /// Replica updates waiting for an apply slot (see
    /// [`MAX_CONCURRENT_REPLICA_TXNS`]).
    backlog: std::collections::VecDeque<ReplicaMsg>,
    /// Replica transactions currently executing at this node.
    active_replicas: usize,
    /// An [`Ev::Resend`] for this origin is already in the queue. One
    /// is enough however many peers dropped: it re-runs propagation to
    /// all of them, and one timer per dropped peer, each re-arming one
    /// per peer when it fires, multiplies without bound.
    resend_armed: bool,
    /// Forwards from this node that were dropped, or made while it was
    /// offline: propagation sends them again. Durable, like the log.
    outbox: Vec<TxnId>,
}

/// A node applies its replica-update stream with a bounded pool of
/// apply workers. Without the bound, a reconnecting node would start
/// its entire deferred backlog as one burst of concurrent transactions
/// — thousands of simultaneously blocked transactions that no real
/// system would run (and whose waits-for graph is quadratic to search).
const MAX_CONCURRENT_REPLICA_TXNS: usize = 8;

/// The lazy-group simulator.
pub type LazyGroupSim = Sim<LazyGroup>;

type K = Kernel<LazyGroup>;

/// The lazy-group protocol's state.
pub struct LazyGroup {
    resolution: ResolutionMode,
    nodes: Vec<NodeState>,
    /// Roots, replicas and forwards in flight, each keyed by the id the
    /// kernel minted when it began, so a granted lock's [`TxnId`] is in
    /// exactly one of them.
    roots: TxnTable<RootTxn>,
    replicas: TxnTable<ReplicaTxn>,
    /// Forwards in flight, and only those: the duplicate check's state
    /// follows the traffic, not the run length.
    forwards: TxnTable<Forward>,
    object_rng: SimRng,
    value_rng: SimRng,
    retry_rng: SimRng,
    /// Recycled buffer for lock-release promotions (commit/abort path).
    granted_scratch: Vec<(TxnId, ObjectId)>,
    /// Recycled `RootTxn` buffers: object lists, update lists (refilled
    /// by commit-log truncation), and undo logs. Root transactions churn
    /// at the arrival rate, so reusing their allocations keeps the
    /// per-commit path allocation-free at steady state.
    objects_pool: Vec<Vec<ObjectId>>,
    update_pool: Vec<Vec<UpdateRecord>>,
    undo_pool: Vec<Vec<(ObjectId, Value, Timestamp)>>,
    /// Scratch for the workload sampler's distinct-object draw.
    sample_scratch: Vec<u64>,
    /// `Some` when the run uses a partial shard layout: stores hold
    /// only hosted objects, propagation filters per destination, and
    /// cross-shard transactions split into per-owner forwarded roots.
    /// `None` keeps every code path bit-identical to the unsharded run.
    shard: Option<ShardMap>,
    /// Per-node hosted-object counts (empty unless sharded).
    hosted_counts: Vec<u64>,
}

impl LazyGroupSim {
    /// Build the simulator. With `Mobility::Cycling`, every node gets a
    /// staggered connect/disconnect schedule.
    pub fn new(cfg: SimConfig, mobility: Mobility) -> Self {
        let mut k = Kernel::new(cfg, cfg.action_time, "lg-arrivals-", "lazy-group");
        if let Mobility::Cycling {
            connected,
            disconnected,
        } = mobility
        {
            k.schedule_connectivity(0..cfg.nodes, connected, disconnected);
        }
        let shard = cfg.shard_map();
        let hosted_counts: Vec<u64> = match &shard {
            Some(map) => (0..cfg.nodes)
                .map(|i| map.hosted_objects(NodeId(i), cfg.db_size))
                .collect(),
            None => Vec::new(),
        };
        let nodes = (0..cfg.nodes)
            .map(|i| NodeState {
                store: match &shard {
                    Some(map) => ObjectStore::sharded(cfg.db_size, map, NodeId(i)),
                    None => ObjectStore::new(cfg.db_size),
                },
                locks: LazyGroup::lock_manager(&cfg, shard.as_ref(), NodeId(i)),
                clock: LamportClock::new(NodeId(i)),
                log: CommitLog::new(),
                peers: match &shard {
                    Some(map) => map.cohosts(NodeId(i)),
                    None => (0..cfg.nodes)
                        .map(NodeId)
                        .filter(|&p| p != NodeId(i))
                        .collect(),
                }
                .into_iter()
                .map(|peer| (peer, Lsn(0)))
                .collect(),
                backlog: std::collections::VecDeque::new(),
                active_replicas: 0,
                resend_armed: false,
                outbox: Vec::new(),
            })
            .collect();
        let p = LazyGroup {
            resolution: ResolutionMode::TimePriority,
            nodes,
            roots: TxnTable::new(),
            replicas: TxnTable::new(),
            forwards: TxnTable::new(),
            object_rng: SimRng::stream(cfg.seed, "lg-objects"),
            value_rng: SimRng::stream(cfg.seed, "lg-values"),
            retry_rng: SimRng::stream(cfg.seed, "lg-retry"),
            granted_scratch: Vec::new(),
            objects_pool: Vec::new(),
            update_pool: Vec::new(),
            undo_pool: Vec::new(),
            sample_scratch: Vec::new(),
            shard,
            hosted_counts,
        };
        Sim { k, p }
    }

    /// Select how dangerous updates are resolved (builder-style; call
    /// before [`Sim::run`]).
    #[must_use]
    pub fn with_resolution(mut self, resolution: ResolutionMode) -> Self {
        self.p.resolution = resolution;
        self
    }

    /// Like [`Sim::run`], returning the final per-node stores (after
    /// the convergence drain) alongside the report.
    pub fn run_with_state(self) -> (Report, Vec<ObjectStore>) {
        self.run_to_state()
    }
}

impl Protocol for LazyGroup {
    type Ev = Ev;
    type Msg = Msg;
    /// The final per-node stores, after the convergence drain.
    type State = Vec<ObjectStore>;
    const SCHEME: Scheme = Scheme::LazyGroup;

    fn phase(ev: &kernel::Event<Self>, _live: bool) -> Option<&'static str> {
        use kernel::Event as W;
        Some(match ev {
            W::Arrive(_) => "lazy-group/arrive",
            W::Deliver { .. } => "lazy-group/deliver",
            W::Connectivity { .. } => "lazy-group/connectivity",
            W::PartitionStart(_) | W::PartitionHeal => "lazy-group/partition",
            W::Crash(_) | W::Restart(_) => "lazy-group/crash",
            W::Proto(Ev::RootStep(_)) => "lazy-group/root-step",
            W::Proto(Ev::ReplicaStep(_)) => "lazy-group/replica-step",
            W::Proto(Ev::Resend(_)) => "lazy-group/resend",
            W::Proto(Ev::LockTimeout { .. }) => "lazy-group/lock-timeout",
        })
    }

    fn lock_timeout(txn: TxnId, node: NodeId, obj: ObjectId) -> Option<Ev> {
        Some(Ev::LockTimeout { txn, node, obj })
    }

    /// Message chaos perturbs every live link; partition and crash
    /// windows become scheduled events.
    fn attach_faults(&mut self, k: &mut K, plan: FaultPlan) {
        k.install_injector(&plan);
        k.schedule_partition_windows(&plan);
        k.schedule_crash_windows(&plan);
    }

    fn arrive(&mut self, k: &mut K, node: NodeId) {
        if self.shard.is_some() {
            self.on_arrive_sharded(k, node);
            return;
        }
        let mut scratch = std::mem::take(&mut self.sample_scratch);
        self.object_rng
            .sample_distinct_into(k.cfg.db_size, k.cfg.actions, &mut scratch);
        let mut objects = self.objects_pool.pop().unwrap_or_default();
        objects.clear();
        objects.extend(scratch.iter().copied().map(ObjectId));
        self.sample_scratch = scratch;
        self.begin_root(k, node, objects);
    }

    fn on_event(&mut self, k: &mut K, ev: Ev) {
        match ev {
            Ev::RootStep(txn) => self.on_root_step(k, txn),
            Ev::ReplicaStep(txn) => self.on_replica_step(k, txn),
            Ev::Resend(node) => {
                self.nodes[node.0 as usize].resend_armed = false;
                if !k.is_down(node) {
                    self.propagate(k, node);
                }
            }
            Ev::LockTimeout { txn, node, obj } => self.on_lock_timeout(k, txn, node, obj),
        }
    }

    /// Mail released later is an arrival off the wire again, whatever
    /// this copy was when it was parked.
    fn parked(msg: &mut Msg) -> NodeId {
        match msg {
            Msg::Replica(msg) => {
                msg.retry = false;
                msg.from
            }
            Msg::Forward { from, .. } => *from,
        }
    }

    fn deliver(&mut self, k: &mut K, to: NodeId, msg: Msg) {
        match msg {
            Msg::Replica(mut msg) => {
                if !std::mem::take(&mut msg.retry) {
                    let from = msg.from;
                    k.tracer
                        .emit(|| Event::system(k.now(), to, EventKind::MsgDelivered { from }));
                }
                self.start_replica_txn(k, to, msg);
            }
            Msg::Forward { from, id } => {
                k.tracer
                    .emit(|| Event::new(k.now(), to, id, EventKind::MsgDelivered { from }));
                // A duplicate finds the entry gone. No new roots start
                // during the convergence drain.
                let Some(Forward { mut objects, .. }) = self.forwards.remove(id) else {
                    return;
                };
                if k.is_live() {
                    self.begin_root(k, to, objects);
                } else {
                    objects.clear();
                    self.objects_pool.push(objects);
                }
            }
        }
    }

    fn link_change(&mut self, k: &mut K, node: NodeId, connected: bool) {
        if connected {
            self.reconnect(k, node);
        }
    }

    /// Crash `node`: volatile state (lock table, in-flight transactions,
    /// the replica-apply backlog) is lost; durable state (store, commit
    /// log, replication watermarks) survives. In-flight replica updates
    /// go back into the mail — lazy propagation is at-least-once and the
    /// timestamp test makes re-application idempotent.
    fn node_down(&mut self, k: &mut K, node: NodeId) {
        k.crash(node);
        // The lock table dies with the node; bank its search count
        // before it goes.
        let locks = std::mem::replace(
            &mut self.nodes[node.0 as usize].locks,
            Self::lock_manager(&k.cfg, self.shard.as_ref(), node),
        );
        k.metrics.cycle_checks.add(locks.cycle_checks());
        // In-flight root transactions at the node die, and recovery
        // undoes their uncommitted store writes (the WAL-style undo
        // pass). Skipping the undo leaves dirty versions with fresh
        // timestamps orphaned in the durable store — never logged for
        // propagation, so no replica ever hears of them, and
        // newest-timestamp-wins only absorbs them if a *newer
        // committed* write happens to follow. The oracle fuzzer caught
        // exactly that divergence. Victims go in id order, which is
        // begin order: table order depends on the table's capacity.
        let mut dead_roots: Vec<TxnId> = self
            .roots
            .iter()
            .filter(|(_, t)| t.node == node)
            .map(|(id, _)| id)
            .collect();
        dead_roots.sort_unstable();
        for id in dead_roots {
            k.tracer.emit(|| {
                Event::new(
                    k.now(),
                    node,
                    id,
                    EventKind::TxnAbort {
                        reason: AbortReason::Crash,
                    },
                )
            });
            self.abort_root(id);
        }
        // In-flight and backlogged replica updates return to the mail.
        let mut dead_replicas: Vec<TxnId> = self
            .replicas
            .iter()
            .filter(|(_, t)| t.node == node)
            .map(|(id, _)| id)
            .collect();
        dead_replicas.sort_unstable();
        for id in dead_replicas {
            let txn = self.replicas.remove(id).expect("crashing replica txn");
            k.park(node, Msg::Replica(txn.msg));
        }
        let backlog = std::mem::take(&mut self.nodes[node.0 as usize].backlog);
        for msg in backlog {
            k.park(node, Msg::Replica(msg));
        }
        self.nodes[node.0 as usize].active_replicas = 0;
    }

    /// Restart `node`: redeliver everything parked for it (the recovery
    /// replay) and resume propagation from its durable watermarks.
    fn node_up(&mut self, k: &mut K, node: NodeId) {
        let inbound = k.reconnect_delivering(node);
        k.restart(node, inbound);
        self.propagate(k, node);
    }

    fn window_closed(&mut self, k: &mut K) {
        if self.resolution == ResolutionMode::Manual {
            // Manual mode deliberately drops dangerous updates (§1.2's
            // system delusion, by design) — the convergence and
            // delusion oracles would fire on every run, so tell the
            // recorder this divergence is the experiment.
            k.recorder.expect_divergence();
        }
        for node in &self.nodes {
            k.metrics.cycle_checks.add(node.locks.cycle_checks());
        }
    }

    /// With the injector and the partition gone and every crashed node
    /// recovered, everyone reconnects, and every queued replica update
    /// is delivered and applied — the replicas converge whatever the
    /// fault plan still had scheduled.
    fn begin_drain(&mut self, k: &mut K) -> Option<SimTime> {
        for node in 0..k.cfg.nodes {
            self.reconnect(k, NodeId(node));
        }
        Some(SimTime(u64::MAX))
    }

    fn finish(self, k: &mut K) -> Vec<ObjectStore> {
        if k.recorder.is_on() {
            for (i, node) in self.nodes.iter().enumerate() {
                k.recorder.final_store(NodeId(i as u32), &node.store);
            }
        }
        self.nodes.into_iter().map(|n| n.store).collect()
    }
}

impl LazyGroup {
    /// `node`'s lock manager: honoring the configured deadlock policy,
    /// packed like the node's store, sized for the configured database.
    fn lock_manager(cfg: &SimConfig, shard: Option<&ShardMap>, node: NodeId) -> LockManager {
        let mode = match cfg.deadlock {
            DeadlockPolicy::Detection => DeadlockMode::Detect,
            DeadlockPolicy::Timeout { .. } => DeadlockMode::TimeoutOnly,
        };
        let mut lm = LockManager::with_mode(mode).with_layout(shard.and_then(|m| m.layout(node)));
        lm.reserve_objects(cfg.db_size as usize);
        lm
    }

    /// A lock-wait timeout fired. It may be stale — the transaction may
    /// have been granted, committed, died in a crash, or aborted since
    /// the timer was armed — so it only acts if the transaction is still
    /// blocked on the same object.
    fn on_lock_timeout(&mut self, k: &mut K, id: TxnId, node: NodeId, obj: ObjectId) {
        if k.is_down(node) || self.nodes[node.0 as usize].locks.waiting_on(id) != Some(obj) {
            return;
        }
        if k.measuring() {
            k.metrics.deadlocks.incr();
            k.metrics.lock_timeouts.incr();
            // Timeout resolution aborts a root for good but merely
            // resubmits a replica update — count the right one.
            if self.roots.contains(id) {
                k.metrics.incr_dist(M_ABORTS);
            } else {
                k.metrics.incr_dist(M_RETRIES);
            }
        }
        k.tracer
            .emit(|| Event::new(k.now(), node, id, EventKind::LockTimeout { object: obj }));
        k.tracer.emit(|| {
            Event::new(
                k.now(),
                node,
                id,
                EventKind::TxnAbort {
                    reason: AbortReason::Timeout,
                },
            )
        });
        // Leave the wait queue first: `release_all_into` only frees *held*
        // locks, and a queued ghost would be granted the contested
        // object later and hold it forever.
        self.nodes[node.0 as usize].locks.cancel_wait(id);
        if self.roots.contains(id) {
            self.abort_root(id);
            self.release_and_resume(k, node, id);
        } else if let Some(txn) = self.replicas.remove(id) {
            // Replica updates are resubmitted after a timeout abort,
            // exactly as after a detected deadlock (§5).
            self.resubmit_replica(k, id, txn);
        }
    }

    /// An aborted replica transaction frees its apply slot and locks,
    /// and its update is redelivered after a randomized backoff — a
    /// deterministic delay would let two retrying transactions
    /// re-collide in lockstep forever.
    fn resubmit_replica(&mut self, k: &mut K, id: TxnId, txn: ReplicaTxn) {
        let node = txn.node;
        self.release_replica_slot(node);
        self.release_and_resume(k, node, id);
        let backoff = k
            .cfg
            .action_time
            .saturating_mul(1 + self.retry_rng.gen_range(8));
        let msg = ReplicaMsg {
            retry: true,
            ..txn.msg
        };
        k.deliver_after(backoff, node, Msg::Replica(msg));
        self.drain_backlog(k, node);
    }

    /// Sharded arrival: most transactions draw their objects from the
    /// originating node's hosted subset and run entirely locally. With
    /// probability `cross_shard` a transaction draws from the whole
    /// keyspace instead and splits per shard owner — the locally hosted
    /// objects become a root here, and each remote group is forwarded to
    /// its shard's owner ([`Msg::Forward`]), which runs it as an
    /// ordinary root and propagates it to that shard's replica set. The
    /// split sub-transactions commit independently (no distributed
    /// atomic commit) — exactly the paper's lazy "anytime, anyhow"
    /// regime, where the serializability oracle judges the outcome.
    fn on_arrive_sharded(&mut self, k: &mut K, node: NodeId) {
        let map = self.shard.as_ref().expect("sharded arrival without map");
        let cross = self.object_rng.chance(k.cfg.cross_shard);
        let hosted = self.hosted_counts[node.0 as usize];
        let mut scratch = std::mem::take(&mut self.sample_scratch);
        let mut objects = self.objects_pool.pop().unwrap_or_default();
        objects.clear();
        // Forwarded groups, keyed by shard owner. Cross-shard txns are
        // rare and small (`actions` objects total), so a linear-scan
        // Vec beats a hash map here.
        let mut groups: Vec<(NodeId, Vec<ObjectId>)> = Vec::new();
        if !cross && hosted >= k.cfg.actions as u64 {
            // Single-shard-group txn: sample distinct positions in the
            // hosted index space and map them to object ids.
            self.object_rng
                .sample_distinct_into(hosted, k.cfg.actions, &mut scratch);
            objects.extend(scratch.iter().map(|&i| map.nth_hosted(node, i)));
        } else {
            // Whole-keyspace draw (also the fallback when the node
            // hosts fewer objects than one transaction touches).
            self.object_rng
                .sample_distinct_into(k.cfg.db_size, k.cfg.actions, &mut scratch);
            for &raw in scratch.iter() {
                let obj = ObjectId(raw);
                if map.hosts_object(node, obj) {
                    objects.push(obj);
                } else {
                    let owner = map.owner(map.shard_of(obj));
                    match groups.iter_mut().find(|(o, _)| *o == owner) {
                        Some((_, group)) => group.push(obj),
                        None => {
                            let mut group = self.objects_pool.pop().unwrap_or_default();
                            group.clear();
                            group.push(obj);
                            groups.push((owner, group));
                        }
                    }
                }
            }
        }
        self.sample_scratch = scratch;
        if objects.is_empty() {
            objects.clear();
            self.objects_pool.push(objects);
        } else {
            self.begin_root(k, node, objects);
        }
        for (to, objects) in groups {
            // Forwarding is one message to the shard owner; the root it
            // spawns there does the usual replica fan-out on commit.
            let id = k.mint_txn();
            self.forwards.insert(id, Forward { to, objects });
            self.send_forward(k, node, id);
        }
    }

    /// Send forward `id` from `from`. Dropped, or made while `from` is
    /// offline, it waits in `from`'s outbox for the next resend or
    /// reconnect; held, the kernel parks it like any other mail.
    fn send_forward(&mut self, k: &mut K, from: NodeId, id: TxnId) {
        if !k.is_connected(from) {
            self.nodes[from.0 as usize].outbox.push(id);
            return;
        }
        let to = self.forwards.get(id).expect("forward in flight").to;
        k.tracer
            .emit(|| Event::new(k.now(), from, id, EventKind::MsgSent { to }));
        match k.send(from, to, id, Msg::Forward { from, id }) {
            Sent::Scheduled | Sent::Held => {}
            Sent::Dropped | Sent::SenderOffline => {
                self.nodes[from.0 as usize].outbox.push(id);
                self.arm_resend(k, from);
            }
        }
    }

    /// Arm `origin`'s one retransmit timer, unless it is armed already.
    fn arm_resend(&mut self, k: &mut K, origin: NodeId) {
        let armed = &mut self.nodes[origin.0 as usize].resend_armed;
        if !std::mem::replace(armed, true) {
            k.schedule_retransmit(Ev::Resend(origin));
        }
    }

    /// Insert and start a root transaction over `objects` at `node`.
    fn begin_root(&mut self, k: &mut K, node: NodeId, objects: Vec<ObjectId>) {
        let id = k.mint_txn();
        let root = RootTxn {
            node,
            objects,
            next: 0,
            started: k.now(),
            wait_started: None,
            updates: self
                .update_pool
                .pop()
                .unwrap_or_else(|| Vec::with_capacity(k.cfg.actions)),
            undo: self
                .undo_pool
                .pop()
                .unwrap_or_else(|| Vec::with_capacity(k.cfg.actions)),
        };
        self.roots.insert(id, root);
        k.tracer
            .emit(|| Event::new(k.now(), node, id, EventKind::TxnBegin));
        self.try_root_step(k, id);
    }

    fn try_root_step(&mut self, k: &mut K, id: TxnId) {
        let txn = self.roots.get(id).expect("stepping unknown root");
        if txn.next >= txn.objects.len() {
            self.commit_root(k, id);
            return;
        }
        let (node, obj) = (txn.node, txn.objects[txn.next]);
        match self.nodes[node.0 as usize].locks.acquire(id, obj) {
            Acquire::Granted => {
                k.schedule_after(k.cfg.action_time, Ev::RootStep(id));
            }
            Acquire::Waiting => {
                let since = k.lock_wait(&self.nodes[node.0 as usize].locks, node, id, obj);
                self.roots
                    .get_mut(id)
                    .expect("waiting root must be active")
                    .wait_started = Some(since);
            }
            Acquire::Deadlock => {
                k.deadlock(&self.nodes[node.0 as usize].locks, node, id, M_ABORTS, true);
                self.abort_root(id);
                self.release_and_resume(k, node, id);
            }
        }
    }

    /// Abort root transaction `id`: undo its store writes by restoring
    /// the pre-images, newest first, and return its buffers to the
    /// recycling pools. Sound because the transaction still holds
    /// exclusive locks on everything it wrote: no other transaction can
    /// have read or overwritten the dirty versions. Must run *before*
    /// the locks are released. (Commits recycle `objects`/`undo`
    /// directly; their `updates` move into the commit log and come back
    /// through [`CommitLog::truncate_until_recycling`].)
    fn abort_root(&mut self, id: TxnId) {
        let RootTxn {
            node,
            mut objects,
            mut updates,
            mut undo,
            ..
        } = self.roots.remove(id).expect("aborting unknown root");
        let store = &mut self.nodes[node.0 as usize].store;
        for (obj, value, ts) in undo.drain(..).rev() {
            store.set(obj, value, ts);
        }
        objects.clear();
        updates.clear();
        self.objects_pool.push(objects);
        self.update_pool.push(updates);
        self.undo_pool.push(undo);
    }

    /// One root action's service time elapsed: perform the write.
    fn on_root_step(&mut self, k: &mut K, id: TxnId) {
        let value = Value::Int(self.value_rng.next_u64() as i64);
        // A crash or timeout abort may have killed the transaction
        // while this step event was in flight.
        let Some(txn) = self.roots.get_mut(id) else {
            return;
        };
        let node = txn.node;
        let obj = txn.objects[txn.next];
        let state = &mut self.nodes[node.0 as usize];
        let new_ts = state.clock.tick();
        let old = state.store.replace(obj, value.clone(), new_ts);
        let old_ts = old.ts;
        txn.undo.push((obj, old.value, old_ts));
        txn.updates.push(UpdateRecord {
            txn: id,
            object: obj,
            old_ts,
            new_ts,
            value,
        });
        txn.next += 1;
        if k.measuring() {
            k.metrics.actions.incr();
        }
        self.try_root_step(k, id);
    }

    fn commit_root(&mut self, k: &mut K, id: TxnId) {
        let txn = self.roots.remove(id).expect("committing unknown root");
        let node = txn.node;
        if k.measuring() {
            k.metrics.committed.incr();
            k.metrics.record_latency(k.now().since(txn.started));
        }
        k.tracer
            .emit(|| Event::new(k.now(), node, id, EventKind::TxnCommit));
        self.release_and_resume(k, node, id);
        if k.recorder.is_on() {
            // A root transaction reads the version it overwrites.
            k.recorder.commit(
                node,
                TxnRecord {
                    txn: id,
                    reads: txn.updates.iter().map(|u| (u.object, u.old_ts)).collect(),
                    writes: txn
                        .updates
                        .iter()
                        .map(|u| (u.object, u.old_ts, u.new_ts))
                        .collect(),
                },
            );
        }
        // Commit goes to the node's log; propagation replays the log in
        // commit order (one lazy transaction per remote node — Figure
        // 1's "three node lazy transaction is actually 3 transactions").
        let RootTxn {
            mut objects,
            mut undo,
            updates,
            ..
        } = txn;
        objects.clear();
        undo.clear();
        self.objects_pool.push(objects);
        self.undo_pool.push(undo);
        self.nodes[node.0 as usize].log.append(id, updates);
        self.propagate(k, node);
    }

    /// Resend the outbox's forwards, then ship every commit past each
    /// destination's watermark. A disconnected origin ships nothing —
    /// its log keeps accumulating and the watermarks catch up at
    /// reconnect ("when first connected, a mobile node sends … deferred
    /// replica updates").
    fn propagate(&mut self, k: &mut K, origin: NodeId) {
        if !k.is_connected(origin) {
            return;
        }
        for id in std::mem::take(&mut self.nodes[origin.0 as usize].outbox) {
            self.send_forward(k, origin, id);
        }
        // Destinations usually share a watermark (they all drift only
        // under disconnects), so each record's payload is re-shipped to
        // every destination back to back — memoize the last one and
        // bump its refcount instead of re-allocating per destination.
        let mut last_payload: Option<(Lsn, std::rc::Rc<[UpdateRecord]>)> = None;
        for peer in 0..self.nodes[origin.0 as usize].peers.len() {
            let dest = self.nodes[origin.0 as usize].peers[peer].0;
            loop {
                let state = &self.nodes[origin.0 as usize];
                let from = state.peers[peer].1;
                let Some(record) = state.log.get(from) else {
                    break;
                };
                // Sharded runs ship the same full payload to every peer
                // with a mask selecting the updates that peer hosts,
                // and a record with nothing for it just advances the
                // watermark.
                let wide = record.updates.len() > 64;
                let mask = match &self.shard {
                    None => full_mask(record.updates.len()),
                    Some(map) => {
                        let hosted = |u: &UpdateRecord| map.hosts_object(dest, u.object);
                        let mut updates = record.updates.iter();
                        if wide {
                            // Pre-filtered below: all of it or nothing.
                            if updates.any(hosted) {
                                u64::MAX
                            } else {
                                0
                            }
                        } else {
                            updates
                                .enumerate()
                                .fold(0, |m, (i, u)| m | u64::from(hosted(u)) << i)
                        }
                    }
                };
                if mask == 0 && self.shard.is_some() {
                    self.nodes[origin.0 as usize].peers[peer].1 = Lsn(from.0 + 1);
                    continue;
                }
                // One allocation per record (shared across destinations
                // via the memo); every delivery copy below just bumps
                // the refcount. Only records wider than the mask are
                // ever filtered into a fresh copy (`applies` selects
                // the whole pre-filtered payload via `u64::MAX`).
                let updates: std::rc::Rc<[UpdateRecord]> = match (&self.shard, &last_payload) {
                    (Some(map), _) if wide => {
                        let hosted = record.updates.iter();
                        let hosted = hosted.filter(|u| map.hosts_object(dest, u.object));
                        hosted.cloned().collect()
                    }
                    (_, Some((lsn, rc))) if *lsn == from => rc.clone(),
                    _ => {
                        let rc: std::rc::Rc<[UpdateRecord]> = record.updates.as_slice().into();
                        last_payload = Some((from, rc.clone()));
                        rc
                    }
                };
                k.tracer.emit(|| {
                    Event::system(
                        k.now(),
                        origin,
                        EventKind::ReplicaSend {
                            to: dest,
                            lsn: from,
                        },
                    )
                });
                let msg = Msg::Replica(ReplicaMsg {
                    from: origin,
                    retry: false,
                    sent_at: k.now(),
                    updates,
                    mask,
                });
                match k.send(origin, dest, TxnId::default(), msg) {
                    // Shipped, or parked for an unreachable destination
                    // (which still counts as shipped).
                    Sent::Scheduled | Sent::Held => {}
                    Sent::Dropped => {
                        // Lost in flight. The watermark does not
                        // advance; a retransmit timer re-runs
                        // propagation from the same record, so delivery
                        // is at-least-once and the timestamp test makes
                        // re-application idempotent.
                        self.arm_resend(k, origin);
                        break;
                    }
                    // Raced a disconnect: retry from the same watermark
                    // at the next reconnect.
                    Sent::SenderOffline => return,
                }
                self.nodes[origin.0 as usize].peers[peer].1 = Lsn(from.0 + 1);
            }
        }
        // Garbage-collect the fully shipped prefix: records below every
        // peer's watermark will never be requested again.
        let state = &mut self.nodes[origin.0 as usize];
        let shipped = state.peers.iter().map(|&(_, upto)| upto).min();
        state
            .log
            .truncate_until_recycling(shipped.unwrap_or(state.log.head()), &mut self.update_pool);
    }

    fn reconnect(&mut self, k: &mut K, node: NodeId) {
        k.reconnect_delivering(node);
        self.propagate(k, node);
    }

    fn start_replica_txn(&mut self, k: &mut K, to: NodeId, msg: ReplicaMsg) {
        {
            let state = &mut self.nodes[to.0 as usize];
            if state.active_replicas >= MAX_CONCURRENT_REPLICA_TXNS {
                state.backlog.push_back(msg);
                return;
            }
            state.active_replicas += 1;
        }
        let id = k.mint_txn();
        let replica = ReplicaTxn {
            node: to,
            msg,
            next: 0,
            wait_started: None,
            conflicted: false,
        };
        self.replicas.insert(id, replica);
        k.tracer
            .emit(|| Event::new(k.now(), to, id, EventKind::TxnBegin));
        self.try_replica_step(k, id);
    }

    fn try_replica_step(&mut self, k: &mut K, id: TxnId) {
        let txn = self.replicas.get_mut(id).expect("stepping unknown replica");
        // Skip entries the fan-out mask excludes: this destination's
        // signature group does not host them.
        while txn.next < txn.msg.updates.len() && !applies(txn.msg.mask, txn.next) {
            txn.next += 1;
        }
        if txn.next >= txn.msg.updates.len() {
            self.commit_replica(k, id);
            return;
        }
        let (node, obj) = (txn.node, txn.msg.updates[txn.next].object);
        match self.nodes[node.0 as usize].locks.acquire(id, obj) {
            Acquire::Granted => {
                k.schedule_after(k.cfg.action_time, Ev::ReplicaStep(id));
            }
            Acquire::Waiting => {
                let since = k.lock_wait(&self.nodes[node.0 as usize].locks, node, id, obj);
                self.replicas
                    .get_mut(id)
                    .expect("waiting replica must be active")
                    .wait_started = Some(since);
            }
            Acquire::Deadlock => {
                // Replica updates are resubmitted on deadlock (§5) —
                // back off and retry from scratch.
                k.deadlock(
                    &self.nodes[node.0 as usize].locks,
                    node,
                    id,
                    M_RETRIES,
                    true,
                );
                let txn = self.replicas.remove(id).expect("replica vanished");
                self.resubmit_replica(k, id, txn);
            }
        }
    }

    fn on_replica_step(&mut self, k: &mut K, id: TxnId) {
        // A crash or timeout abort may have killed the transaction
        // while this step event was in flight.
        let Some(txn) = self.replicas.get_mut(id) else {
            return;
        };
        let node = txn.node;
        // Copy the cheap fields; only the value payload needs a clone
        // (the record itself stays in the shared message).
        let u = &txn.msg.updates[txn.next];
        let (object, old_ts, new_ts) = (u.object, u.old_ts, u.new_ts);
        let value = u.value.clone();
        txn.next += 1;
        let state = &mut self.nodes[node.0 as usize];
        state.clock.observe(new_ts);
        let outcome = match self.resolution {
            ResolutionMode::TimePriority => {
                state.store.apply_versioned(object, old_ts, new_ts, value)
            }
            ResolutionMode::Manual => {
                // Detect with the Figure 4 test but do not resolve: a
                // dangerous update is simply rejected, and this replica
                // silently keeps its own lineage (system delusion).
                let current = state.store.get(object).ts;
                if current == old_ts {
                    state.store.set(object, value, new_ts);
                    ApplyOutcome::Applied
                } else if current == new_ts {
                    ApplyOutcome::Duplicate
                } else {
                    ApplyOutcome::ConflictIgnored
                }
            }
        };
        k.recorder.replica_apply(node, object, new_ts, outcome);
        match outcome {
            ApplyOutcome::Applied => {}
            ApplyOutcome::Duplicate => {
                if k.measuring() {
                    k.metrics.stale_updates.incr();
                }
                k.tracer
                    .emit(|| Event::new(k.now(), node, id, EventKind::StaleSkip));
            }
            ApplyOutcome::ConflictApplied | ApplyOutcome::ConflictIgnored => {
                // Dangerous update (the paper's Figure 4 test failed);
                // count the reconciliation.
                k.tracer.emit(|| {
                    Event::new(
                        k.now(),
                        node,
                        id,
                        EventKind::DangerousUpdate { object: u.object },
                    )
                });
                self.replicas.get_mut(id).expect("replica txn").conflicted = true;
            }
        }
        self.try_replica_step(k, id);
    }

    fn commit_replica(&mut self, k: &mut K, id: TxnId) {
        let txn = self.replicas.remove(id).expect("unknown replica commit");
        if k.measuring() {
            k.metrics.replica_commits.incr();
            if txn.conflicted {
                k.metrics.reconciliations.incr();
            }
            // Send → apply delta: how stale this replica's view was
            // when the update finally landed.
            k.record_propagation_lag(txn.node, k.now().since(txn.msg.sent_at));
        }
        k.tracer
            .emit(|| Event::new(k.now(), txn.node, id, EventKind::ReplicaApply));
        if txn.conflicted {
            k.tracer
                .emit(|| Event::new(k.now(), txn.node, id, EventKind::Reconcile));
        }
        self.release_replica_slot(txn.node);
        self.release_and_resume(k, txn.node, id);
        self.drain_backlog(k, txn.node);
    }

    /// Free an apply slot at `node`.
    fn release_replica_slot(&mut self, node: NodeId) {
        let state = &mut self.nodes[node.0 as usize];
        debug_assert!(state.active_replicas > 0, "slot underflow at {node}");
        state.active_replicas = state.active_replicas.saturating_sub(1);
    }

    /// Start the next backlogged replica transaction at `node`, if any
    /// slot is free.
    fn drain_backlog(&mut self, k: &mut K, node: NodeId) {
        while self.nodes[node.0 as usize].active_replicas < MAX_CONCURRENT_REPLICA_TXNS {
            let Some(msg) = self.nodes[node.0 as usize].backlog.pop_front() else {
                return;
            };
            self.start_replica_txn(k, node, msg);
        }
    }

    /// Release `id`'s locks at `node` into the recycled scratch buffer
    /// and resume the promoted waiters — no allocation on this path.
    fn release_and_resume(&mut self, k: &mut K, node: NodeId, id: TxnId) {
        let mut granted = std::mem::take(&mut self.granted_scratch);
        self.nodes[node.0 as usize]
            .locks
            .release_all_into(id, &mut granted);
        self.resume_waiters(k, &granted);
        self.granted_scratch = granted;
    }

    /// Resume transactions whose lock was just granted. Roots and
    /// replicas share the kernel's one id space, so each waiter is in
    /// exactly one table.
    fn resume_waiters(&mut self, k: &mut K, granted: &[(TxnId, ObjectId)]) {
        for &(waiter, _obj) in granted {
            if let Some(txn) = self.roots.get_mut(waiter) {
                k.lock_granted(&mut txn.wait_started);
                k.schedule_after(k.cfg.action_time, Ev::RootStep(waiter));
            } else if let Some(txn) = self.replicas.get_mut(waiter) {
                k.lock_granted(&mut txn.wait_started);
                k.schedule_after(k.cfg.action_time, Ev::ReplicaStep(waiter));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repl_model::Params;

    fn cfg(nodes: f64, db: f64, tps: f64, horizon: u64, seed: u64) -> SimConfig {
        let p = Params::new(db, nodes, tps, 4.0, 0.01);
        SimConfig::from_params(&p, horizon, seed)
    }

    #[test]
    fn connected_replicas_converge() {
        let c = cfg(4.0, 500.0, 10.0, 60, 1);
        let (report, stores) = LazyGroupSim::new(c, Mobility::Connected).run_with_state();
        assert!(report.committed > 0);
        let d0 = stores[0].digest();
        for s in &stores[1..] {
            assert_eq!(s.digest(), d0, "replicas diverged");
        }
    }

    #[test]
    fn contention_generates_reconciliations() {
        // Small database, several nodes: racing updates must appear.
        // (DB kept large enough that the per-node replica-transaction
        // load stays below lock saturation.)
        let c = cfg(8.0, 500.0, 20.0, 60, 2);
        let (report, stores) = LazyGroupSim::new(c, Mobility::Connected).run_with_state();
        assert!(
            report.reconciliations > 0,
            "expected dangerous updates under contention"
        );
        // Reconciliation resolution still converges.
        let d0 = stores[0].digest();
        assert!(stores.iter().all(|s| s.digest() == d0));
    }

    #[test]
    fn replica_commit_fanout() {
        // Every committed root produces N-1 replica transactions.
        let c = cfg(3.0, 10_000.0, 5.0, 30, 3);
        let (report, _) = LazyGroupSim::new(c, Mobility::Connected).run_with_state();
        // Allow slack for in-flight work at the horizon.
        let expected = report.committed * 2;
        let got = report.replica_commits;
        assert!(
            got as f64 > expected as f64 * 0.8 && got as f64 <= expected as f64 * 1.2 + 20.0,
            "committed={} replica_commits={got}",
            report.committed
        );
    }

    #[test]
    fn mobile_cycling_converges_after_drain() {
        let c = cfg(4.0, 300.0, 5.0, 120, 4);
        let mobility = Mobility::Cycling {
            connected: SimDuration::from_secs(20),
            disconnected: SimDuration::from_secs(10),
        };
        let (report, stores) = LazyGroupSim::new(c, mobility).run_with_state();
        assert!(report.committed > 0);
        let d0 = stores[0].digest();
        for (i, s) in stores.iter().enumerate() {
            assert_eq!(s.digest(), d0, "node {i} diverged after drain");
        }
    }

    #[test]
    fn disconnection_increases_reconciliation() {
        let base = cfg(6.0, 200.0, 10.0, 120, 5);
        let (connected, _) = LazyGroupSim::new(base, Mobility::Connected).run_with_state();
        let mobility = Mobility::Cycling {
            connected: SimDuration::from_secs(10),
            disconnected: SimDuration::from_secs(30),
        };
        let (mobile, _) = LazyGroupSim::new(base, mobility).run_with_state();
        assert!(
            mobile.reconciliations > connected.reconciliations,
            "disconnection should raise reconciliations: {} vs {}",
            mobile.reconciliations,
            connected.reconciliations
        );
    }

    #[test]
    fn deterministic_runs() {
        let c = cfg(4.0, 200.0, 10.0, 30, 9);
        let a = LazyGroupSim::new(c, Mobility::Connected).run();
        let b = LazyGroupSim::new(c, Mobility::Connected).run();
        assert_eq!(a, b);
    }

    #[test]
    fn full_rf_sharded_identical_to_unsharded() {
        // `with_shards(K, Nodes)` must be byte-identical to no sharding
        // at all: the map is `None`, so every code path is the original.
        let c = cfg(4.0, 500.0, 10.0, 60, 7);
        let (plain_report, plain_stores) =
            LazyGroupSim::new(c, Mobility::Connected).run_with_state();
        let (sharded_report, sharded_stores) =
            LazyGroupSim::new(c.with_shards(8, 4), Mobility::Connected).run_with_state();
        assert_eq!(plain_report, sharded_report);
        for (a, b) in plain_stores.iter().zip(&sharded_stores) {
            assert_eq!(a.digest(), b.digest());
        }
    }

    /// Partial replication: nodes host different subsets, so whole-store
    /// digests differ by construction — convergence means every pair of
    /// replicas agrees on every object they both host.
    fn assert_cohosts_agree(stores: &[ObjectStore]) {
        #[allow(
            clippy::disallowed_types,
            reason = "test-only cross-store comparison, not an engine path"
        )]
        let mut seen: std::collections::HashMap<ObjectId, (usize, Timestamp, Value)> =
            std::collections::HashMap::new();
        for (i, store) in stores.iter().enumerate() {
            for (obj, v) in store.iter() {
                match seen.entry(obj) {
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert((i, v.ts, v.value.clone()));
                    }
                    std::collections::hash_map::Entry::Occupied(e) => {
                        let (j, ts, val) = e.get();
                        assert_eq!(
                            (*ts, val),
                            (v.ts, &v.value),
                            "object {obj} differs between node {j} and node {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sharded_replicas_converge_per_shard() {
        let c = cfg(6.0, 480.0, 10.0, 60, 11)
            .with_shards(6, 2)
            .with_cross_shard(0.3);
        let (report, stores) = LazyGroupSim::new(c, Mobility::Connected).run_with_state();
        assert!(report.committed > 0);
        assert!(
            report.replica_commits > 0,
            "partial replication still fans out"
        );
        assert_cohosts_agree(&stores);
        // rf = 2 means every object lives at exactly two stores.
        let total: usize = stores.iter().map(|s| s.iter().count()).sum();
        assert_eq!(total as u64, c.db_size * 2);
    }

    #[test]
    fn sharded_runs_deterministic() {
        let c = cfg(6.0, 480.0, 10.0, 30, 13)
            .with_shards(6, 3)
            .with_cross_shard(0.5);
        let a = LazyGroupSim::new(c, Mobility::Connected).run();
        let b = LazyGroupSim::new(c, Mobility::Connected).run();
        assert_eq!(a, b);
    }

    #[test]
    fn records_wider_than_the_mask_converge_per_shard() {
        // 70 updates per commit overflow the 64-bit fan-out mask: the
        // sender falls back to a pre-filtered copy per destination.
        let p = Params::new(4000.0, 6.0, 0.5, 70.0, 0.01);
        let c = SimConfig::from_params(&p, 60, 19)
            .with_shards(6, 2)
            .with_cross_shard(0.3);
        let (report, stores) = LazyGroupSim::new(c, Mobility::Connected).run_with_state();
        assert!(report.replica_commits > 0, "nothing propagated");
        assert_cohosts_agree(&stores);
    }

    #[test]
    fn lock_tables_are_packed_to_the_hosted_subset() {
        // 64 nodes, rf 3: each node hosts 3/64 of the database, and its
        // holder table is that wide — indexed by global object id, the
        // 64 tables together were 64 × DB entries.
        const DB: u64 = 20_000;
        let c = cfg(64.0, DB as f64, 10.0, 20, 23)
            .with_shards(64, 3)
            .with_cross_shard(0.10);
        let mut sim = LazyGroupSim::new(c, Mobility::Connected);
        let report = sim.run_phases();
        assert!(report.committed > 5_000, "too short to touch the tables");
        let holders: usize = (sim.p.nodes.iter())
            .map(|n| n.locks.holder_table_len())
            .sum();
        assert!(holders > DB as usize, "tables barely used: {holders}");
        assert!(holders <= 3 * DB as usize, "{holders} holder entries");
    }

    #[test]
    fn peers_are_the_nodes_sharing_a_shard() {
        for (nodes, shards, rf) in [
            (4, 4, 2),
            (8, 8, 3),
            (7, 5, 2),
            (9, 3, 1),
            (12, 30, 4),
            (6, 6, 6),
        ] {
            let c = cfg(f64::from(nodes), 600.0, 1.0, 1, 29).with_shards(shards, rf);
            let sim = LazyGroupSim::new(c, Mobility::Connected);
            for i in (0..nodes).map(NodeId) {
                let peers: Vec<NodeId> = sim.p.nodes[i.0 as usize]
                    .peers
                    .iter()
                    .map(|p| p.0)
                    .collect();
                // Every other node with which `i` shares a shard (all of
                // them under full replication).
                let expect: Vec<NodeId> = (0..nodes)
                    .map(NodeId)
                    .filter(|&peer| peer != i)
                    .filter(|&peer| {
                        c.shard_map()
                            .is_none_or(|m| m.hosted_shards(i).iter().any(|&s| m.hosts(peer, s)))
                    })
                    .collect();
                assert_eq!(peers, expect, "{nodes}/{shards}/{rf} node {i:?}");
            }
        }
    }

    #[test]
    fn forwarded_groups_recycle_through_the_pool() {
        // Half the transactions cross shards, and each forwards its
        // remote groups to their owners. Those groups come from the
        // objects pool and return to it, so the pool is as deep as the
        // most object lists ever alive at once, not one list per
        // forward ever sent.
        let pool = |horizon: u64| {
            let c = cfg(16.0, 4000.0, 10.0, horizon, 31)
                .with_shards(16, 3)
                .with_cross_shard(0.5);
            let mut sim = LazyGroupSim::new(c, Mobility::Connected);
            let report = sim.run_phases();
            (report.committed, sim.p.objects_pool.len())
        };
        let (short_commits, short_pool) = pool(60);
        let (long_commits, long_pool) = pool(240);
        assert!(long_commits > 3 * short_commits);
        // The widest live window creeps up a little with the run length
        // (an extreme value); a pool of forwards would grow fourfold.
        assert!(long_pool <= 2 * short_pool, "{short_pool} → {long_pool}");
    }

    #[test]
    fn footprint_follows_the_live_window_not_the_horizon() {
        // Roots, replicas and forwards are keyed by the kernel's
        // monotone ids, so each table is a ring as wide as its live
        // window. A leaked entry (a forward nobody removes) would widen
        // it with every id minted after it. Eight times the horizon,
        // the same tables: the widest live window creeps up a little
        // with the run length (an extreme value), which is worth at
        // most one doubling. A node's lock tables hold only its own
        // transactions: at most 21 entries in any of these runs.
        let connected: fn(u64) -> SimConfig = |h| cfg(4.0, 1000.0, 10.0, h, 7);
        let sharded: fn(u64) -> SimConfig = |h| {
            cfg(8.0, 2000.0, 10.0, h, 11)
                .with_shards(8, 3)
                .with_cross_shard(0.2)
        };
        let cycling = Mobility::Cycling {
            connected: SimDuration::from_secs(20),
            disconnected: SimDuration::from_secs(10),
        };
        let runs = [
            ("connected", connected, Mobility::Connected),
            ("cycling", connected, cycling),
            ("sharded", sharded, Mobility::Connected),
        ];
        for (name, at, mobility) in runs {
            let footprint = |horizon: u64| {
                let mut sim = LazyGroupSim::new(at(horizon), mobility);
                let report = sim.run_phases();
                let locks = sim.p.nodes.iter().map(|n| n.locks.txn_table_capacity());
                let tables = [
                    sim.p.roots.capacity(),
                    sim.p.replicas.capacity(),
                    sim.p.forwards.capacity(),
                    locks.max().unwrap_or(0),
                ];
                (report.committed, tables)
            };
            let (short_commits, short) = footprint(60);
            let (long_commits, long) = footprint(480);
            assert!(long_commits > 7 * short_commits, "{name}");
            assert_eq!(
                short[2] > 0,
                name == "sharded",
                "{name}: forwards {short:?}"
            );
            for (s, l) in short.into_iter().zip(long) {
                assert!(l <= 2 * s, "{name}: {short:?} → {long:?}");
            }
            assert!(short[3].max(long[3]) <= 48, "{name}: {short:?} → {long:?}");
        }
    }

    #[test]
    fn the_drain_settles_every_forward() {
        // Drops fill outboxes and a partition parks forwards; once the
        // drain is over, no forward is in flight or waiting, so the
        // duplicate check's state is empty again.
        let c = cfg(6.0, 2000.0, 10.0, 36, 5)
            .with_shards(6, 2)
            .with_cross_shard(0.3);
        let plan = FaultPlan::parse("drop=0.1; dup=0.05; part=10..20:0,1,2", 5).unwrap();
        let mut sim = LazyGroupSim::new(c, Mobility::Connected).with_faults(plan);
        let report = sim.run_phases();
        assert!(report.messages_dropped > 0);
        assert!(sim.p.forwards.is_empty());
        assert!(sim.p.nodes.iter().all(|n| n.outbox.is_empty()));
    }

    #[test]
    fn partial_rf_ships_fewer_messages() {
        // The point of the exercise: fan-out to a shard's replica set
        // instead of every node shrinks replication traffic.
        let c = cfg(8.0, 800.0, 10.0, 60, 17);
        let (full, _) = LazyGroupSim::new(c, Mobility::Connected).run_with_state();
        let (partial, _) =
            LazyGroupSim::new(c.with_shards(8, 2), Mobility::Connected).run_with_state();
        assert!(
            partial.messages * 2 < full.messages,
            "partial rf=2 of 8 should cut messages sharply: {} vs {}",
            partial.messages,
            full.messages
        );
    }

    #[test]
    fn timeout_mode_terminates_under_heavy_contention() {
        // Regression: a timed-out waiter left in the FIFO wait queue
        // gets granted the lock after it is gone and holds it forever;
        // every later touch of that object then times out and replica
        // retries spin without end. The run must terminate, converge,
        // and resolve deadlocks without ever searching the graph.
        let c = cfg(4.0, 200.0, 10.0, 60, 41).with_deadlock(DeadlockPolicy::Timeout {
            wait: SimDuration::from_millis(500),
        });
        let (report, stores) = LazyGroupSim::new(c, Mobility::Connected).run_with_state();
        assert!(report.committed > 0);
        assert!(report.lock_timeouts > 0, "contention produced no timeouts");
        assert_eq!(report.cycle_checks, 0, "timeout mode walked the graph");
        let d0 = stores[0].digest();
        assert!(stores.iter().all(|s| s.digest() == d0));
    }
}
