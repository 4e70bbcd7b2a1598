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
use crate::metrics::{Metrics, Report, M_ABORTS, M_PROPAGATION_LAG, M_RETRIES};
use repl_check::{Recorder, TxnRecord};
use repl_net::{
    DisconnectSchedule, FaultInjector, FaultPlan, LatencyModel, Network, PeriodModel, SendFate,
};
use repl_sim::{EventQueue, SimDuration, SimRng, SimTime};
use repl_storage::{
    Acquire, ApplyOutcome, CommitLog, DeadlockMode, LamportClock, LockManager, Lsn, NodeId,
    ObjectId, ObjectStore, ShardMap, Timestamp, TxnId, TxnSlab, UpdateRecord, Value,
};
use repl_telemetry::{AbortReason, Event, EventKind, Gauge, Profiler, TraceHandle};

/// Arena tags: root and replica transactions live in separate slabs
/// sharing one id space, so a granted lock's [`TxnId`] routes straight
/// to the arena that minted it.
const ROOT_ARENA: u8 = 0;
const REPLICA_ARENA: u8 = 1;

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
#[derive(Debug, Clone)]
struct ReplicaMsg {
    /// Originating node (stamps `MsgDelivered` trace events).
    from: NodeId,
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

/// Does `mask` select update `i`? Indices past the mask width are
/// always selected: senders pre-filter any record wider than 64
/// updates, so the overflow tail is hosted by construction.
#[inline]
fn applies(mask: u64, i: usize) -> bool {
    i >= 64 || mask & (1u64 << i) != 0
}

/// The mask selecting every entry of a `len`-wide record.
#[inline]
fn full_mask(len: usize) -> u64 {
    if len >= 64 {
        u64::MAX
    } else {
        (1u64 << len) - 1
    }
}

#[derive(Debug)]
enum Ev {
    /// New root transaction at a node.
    Arrive(NodeId),
    /// A root transaction finished one action's service time.
    RootStep(TxnId),
    /// A replica transaction finished one action's service time.
    ReplicaStep(TxnId),
    /// Message arrival.
    Deliver { to: NodeId, msg: ReplicaMsg },
    /// A coalesced burst of message arrivals on one channel
    /// (`propagation_batch` > 1): the messages were sent at the same
    /// instant with the same latency draw, so delivering them as one
    /// event preserves both timing and per-channel order while paying
    /// one event-queue entry instead of one per message.
    DeliverBatch { to: NodeId, msgs: Vec<ReplicaMsg> },
    /// Connectivity change for a node.
    Connectivity { node: NodeId, connected: bool },
    /// Retry a deadlocked replica transaction.
    ReplicaRetry { to: NodeId, msg: ReplicaMsg },
    /// A scheduled bipartition begins.
    PartitionStart { side_a: Vec<NodeId> },
    /// The active bipartition heals.
    PartitionHeal,
    /// A node crashes, losing volatile state.
    Crash(NodeId),
    /// A crashed node restarts and recovers from durable state.
    Restart(NodeId),
    /// Retry propagation from a node after a dropped message.
    Resend(NodeId),
    /// A cross-shard transaction's sub-transaction for one remote
    /// shard group, forwarded to that shard's owner — the per-shard
    /// root/replica split: the owner runs it as an ordinary root and
    /// propagates it to the shard's replica set. Sharded runs only.
    ForwardRoot { to: NodeId, objects: Vec<ObjectId> },
    /// A blocked transaction's lock-wait timer expired
    /// ([`DeadlockPolicy::Timeout`]).
    LockTimeout {
        txn: TxnId,
        node: NodeId,
        obj: ObjectId,
    },
}

#[derive(Debug)]
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

#[derive(Debug)]
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
    /// sequential commit order" (§5): each destination has a watermark
    /// of the last commit already shipped to it.
    log: CommitLog,
    /// Per-destination replication watermark into `log`.
    sent_upto: Vec<Lsn>,
    /// Replica updates waiting for an apply slot (see
    /// [`MAX_CONCURRENT_REPLICA_TXNS`]).
    backlog: std::collections::VecDeque<ReplicaMsg>,
    /// Replica transactions currently executing at this node.
    active_replicas: usize,
}

/// A node applies its replica-update stream with a bounded pool of
/// apply workers. Without the bound, a reconnecting node would start
/// its entire deferred backlog as one burst of concurrent transactions
/// — thousands of simultaneously blocked transactions that no real
/// system would run (and whose waits-for graph is quadratic to search).
const MAX_CONCURRENT_REPLICA_TXNS: usize = 8;

/// The lazy-group simulator.
pub struct LazyGroupSim {
    cfg: SimConfig,
    mobility: Mobility,
    resolution: ResolutionMode,
    faults: Option<FaultPlan>,
    /// Per-node crash flags: a crashed node accepts no work until its
    /// scheduled restart.
    crashed: Vec<bool>,
    queue: EventQueue<Ev>,
    nodes: Vec<NodeState>,
    network: Network<ReplicaMsg>,
    roots: TxnSlab<RootTxn>,
    replicas: TxnSlab<ReplicaTxn>,
    arrival_rngs: Vec<SimRng>,
    object_rng: SimRng,
    value_rng: SimRng,
    retry_rng: SimRng,
    metrics: Metrics,
    measure_from: SimTime,
    tracer: TraceHandle,
    profiler: Profiler,
    run_label: String,
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
    /// Recycled buffer for the propagation flush: consecutive same-delay
    /// deliveries accumulate here before being scheduled.
    deliver_scratch: Vec<ReplicaMsg>,
    /// Sharded propagation memo, one slot per fan-out signature group
    /// of the origin currently propagating: the last record's hosted-
    /// update mask for that group, reused by every group member at the
    /// same watermark. Reset per [`LazyGroupSim::propagate`] call.
    group_memo: Vec<Option<(Lsn, u64)>>,
    /// Optional correctness recorder (off ⇒ every hook is a no-op).
    recorder: Recorder,
    /// Per-replica staleness: the propagation lag of every update each
    /// node applied, folded into the report's distributions (as
    /// `staleness_n<i>` gauges) right after the measured window closes
    /// — drain-phase applies never pollute it.
    staleness: Vec<Gauge>,
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
    /// staggered fixed-period connect/disconnect schedule.
    pub fn new(cfg: SimConfig, mobility: Mobility) -> Self {
        let n = cfg.nodes as usize;
        let mut queue = EventQueue::new();
        // Step events — one fixed service time apart — dominate the
        // event traffic; give them the queue's O(1) FIFO lane.
        queue.set_fifo_lane(cfg.action_time);
        let mut arrival_rngs = Vec::with_capacity(n);
        for node in 0..cfg.nodes {
            let mut rng = SimRng::stream_node(cfg.seed, "lg-arrivals-", u64::from(node));
            let first = SimDuration::from_secs_f64(rng.exp(1.0 / cfg.tps));
            queue.schedule_at(SimTime::ZERO + first, Ev::Arrive(NodeId(node)));
            arrival_rngs.push(rng);
        }
        if let Mobility::Cycling {
            connected,
            disconnected,
        } = mobility
        {
            for node in 0..cfg.nodes {
                let mut sched = DisconnectSchedule::new(
                    NodeId(node),
                    connected,
                    disconnected,
                    PeriodModel::Exponential,
                    cfg.seed,
                );
                for ev in sched.events_until(cfg.horizon) {
                    queue.schedule_at(
                        ev.at,
                        Ev::Connectivity {
                            node: ev.node,
                            connected: ev.connected,
                        },
                    );
                }
            }
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
                locks: Self::lock_manager(&cfg),
                clock: LamportClock::new(NodeId(i)),
                log: CommitLog::new(),
                sent_upto: vec![Lsn(0); cfg.nodes as usize],
                backlog: std::collections::VecDeque::new(),
                active_replicas: 0,
            })
            .collect();
        LazyGroupSim {
            mobility,
            resolution: ResolutionMode::TimePriority,
            faults: None,
            crashed: vec![false; n],
            queue,
            nodes,
            network: Network::new(n, cfg.latency, cfg.seed),
            roots: TxnSlab::new(ROOT_ARENA),
            replicas: TxnSlab::new(REPLICA_ARENA),
            arrival_rngs,
            object_rng: SimRng::stream(cfg.seed, "lg-objects"),
            value_rng: SimRng::stream(cfg.seed, "lg-values"),
            retry_rng: SimRng::stream(cfg.seed, "lg-retry"),
            metrics: Metrics {
                lean: cfg.lean_metrics,
                ..Metrics::new()
            },
            measure_from: cfg.warmup,
            tracer: TraceHandle::off(),
            profiler: Profiler::off(),
            run_label: "lazy-group".to_owned(),
            granted_scratch: Vec::new(),
            deliver_scratch: Vec::new(),
            group_memo: Vec::new(),
            objects_pool: Vec::new(),
            update_pool: Vec::new(),
            undo_pool: Vec::new(),
            sample_scratch: Vec::new(),
            recorder: Recorder::off(),
            staleness: vec![Gauge::default(); n],
            shard,
            hosted_counts,
            cfg,
        }
    }

    /// Attach a correctness recorder: root commits, replica applies,
    /// and final stores all flow to the convergence/delusion oracles.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// A lock manager honoring the configured deadlock policy, sized
    /// for the configured database.
    fn lock_manager(cfg: &SimConfig) -> LockManager {
        let mut lm = match cfg.deadlock {
            DeadlockPolicy::Detection => LockManager::new(),
            DeadlockPolicy::Timeout { .. } => LockManager::with_mode(DeadlockMode::TimeoutOnly),
        };
        lm.reserve_objects(cfg.db_size as usize);
        lm
    }

    /// Attach a fault plan (builder-style; call before
    /// [`LazyGroupSim::run`]). Message chaos perturbs every live link;
    /// partition and crash windows become scheduled events. Faults
    /// never fire during the post-horizon convergence drain, so the
    /// convergence guarantee survives arbitrary plans.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        if plan.has_message_chaos() {
            self.network = Network::new(self.cfg.nodes as usize, self.cfg.latency, self.cfg.seed)
                .with_faults(FaultInjector::new(&plan));
        }
        // Windows naming nodes this run doesn't have are vacuous —
        // filter them out rather than index out of bounds later, so a
        // plan written for a larger cluster (a fuzzer shrinking the
        // node count, a hand-edited CHECK_CASE) still runs.
        for w in &plan.partitions {
            let side_a: Vec<NodeId> = w
                .side_a
                .iter()
                .copied()
                .filter(|n| n.0 < self.cfg.nodes)
                .collect();
            if side_a.is_empty() {
                continue;
            }
            self.queue
                .schedule_at(w.start, Ev::PartitionStart { side_a });
            self.queue.schedule_at(w.heal, Ev::PartitionHeal);
        }
        for c in &plan.crashes {
            if c.node.0 >= self.cfg.nodes {
                continue;
            }
            self.queue.schedule_at(c.at, Ev::Crash(c.node));
            self.queue.schedule_at(c.restart, Ev::Restart(c.node));
        }
        self.faults = Some(plan);
        self
    }

    /// Attach a tracer; events flow from simulated time zero.
    #[must_use]
    pub fn with_tracer(mut self, tracer: TraceHandle) -> Self {
        self.tracer = tracer;
        self
    }

    /// Attach a wall-clock profiler around the event-loop phases.
    #[must_use]
    pub fn with_profiler(mut self, profiler: Profiler) -> Self {
        self.profiler = profiler;
        self
    }

    /// Label this run's trace (`RunStart` marker, series table header).
    #[must_use]
    pub fn with_run_label(mut self, label: impl Into<String>) -> Self {
        self.run_label = label.into();
        self
    }

    fn measuring(&self) -> bool {
        self.queue.now() >= self.measure_from
    }

    /// Select how dangerous updates are resolved (builder-style; call
    /// before [`LazyGroupSim::run`]).
    #[must_use]
    pub fn with_resolution(mut self, resolution: ResolutionMode) -> Self {
        self.resolution = resolution;
        self
    }

    /// Run to the horizon, then reconnect everyone and drain all
    /// pending replication so the replicas converge. Returns the
    /// measured report; use [`LazyGroupSim::run_with_state`] to also
    /// inspect the final stores.
    pub fn run(self) -> Report {
        self.run_with_state().0
    }

    /// Like [`LazyGroupSim::run`], returning the final per-node stores
    /// (after the convergence drain) alongside the report.
    pub fn run_with_state(mut self) -> (Report, Vec<ObjectStore>) {
        let horizon = self.cfg.horizon;
        if self.resolution == ResolutionMode::Manual {
            // Manual mode deliberately drops dangerous updates (§1.2's
            // system delusion, by design) — the convergence and
            // delusion oracles would fire on every run, so tell the
            // recorder this divergence is the experiment.
            self.recorder.expect_divergence();
        }
        self.tracer.emit(|| {
            Event::system(
                SimTime::ZERO,
                NodeId(0),
                EventKind::RunStart {
                    label: self.run_label.clone(),
                },
            )
        });
        while let Some((_, ev)) = self.queue.pop_until(horizon) {
            self.dispatch(ev, true);
        }
        for node in &self.nodes {
            self.metrics.cycle_checks.add(node.locks.cycle_checks());
        }
        let mut report = self.metrics.report(self.measure_from, horizon);
        // Per-replica staleness gauges join the distributions here —
        // after the measured window, before the convergence drain.
        if !self.cfg.lean_metrics {
            for (i, g) in self.staleness.iter().enumerate() {
                if g.count > 0 {
                    report.dists.gauges.insert(format!("staleness_n{i}"), *g);
                }
            }
        }
        let report = report;
        // Drain phase: no new arrivals and no new faults — the injector
        // is removed, the partition heals, crashed nodes restart and
        // recover, everyone reconnects, and every queued replica update
        // is delivered and applied. Pending fault events left in the
        // queue are ignored by `dispatch` in this phase.
        self.network.clear_faults();
        self.heal_partition();
        for node in 0..self.cfg.nodes {
            if self.crashed[node as usize] {
                self.restart_node(NodeId(node));
            }
        }
        for node in 0..self.cfg.nodes {
            self.reconnect(NodeId(node));
        }
        while let Some((_, ev)) = self.queue.pop() {
            self.dispatch(ev, false);
        }
        self.tracer.run_end(horizon);
        self.tracer.flush();
        if self.recorder.is_on() {
            for (i, node) in self.nodes.iter().enumerate() {
                self.recorder.final_store(NodeId(i as u32), &node.store);
            }
        }
        let stores = self.nodes.into_iter().map(|n| n.store).collect();
        (report, stores)
    }

    /// Dispatch one event. `live` is false during the post-horizon
    /// convergence drain, where new arrivals and new fault events are
    /// ignored (the drain must terminate with converged replicas no
    /// matter what the fault plan still has scheduled).
    fn dispatch(&mut self, ev: Ev, live: bool) {
        let profiler = self.profiler.clone();
        let t = profiler.start();
        match ev {
            Ev::Arrive(node) => {
                if live {
                    self.on_arrive(node);
                }
                profiler.stop("lazy-group/arrive", t);
            }
            Ev::RootStep(txn) => {
                self.on_root_step(txn);
                profiler.stop("lazy-group/root-step", t);
            }
            Ev::ReplicaStep(txn) => {
                self.on_replica_step(txn);
                profiler.stop("lazy-group/replica-step", t);
            }
            Ev::Deliver { to, msg } => {
                if self.crashed[to.0 as usize] {
                    // Arrived at a dead node: back into the mail, to be
                    // redelivered by recovery at restart.
                    self.network.park(msg.from, to, msg);
                    profiler.stop("lazy-group/deliver", t);
                    return;
                }
                self.tracer.emit(|| {
                    Event::system(
                        self.queue.now(),
                        to,
                        EventKind::MsgDelivered { from: msg.from },
                    )
                });
                self.start_replica_txn(to, msg);
                profiler.stop("lazy-group/deliver", t);
            }
            Ev::DeliverBatch { to, msgs } => {
                for msg in msgs {
                    if self.crashed[to.0 as usize] {
                        self.network.park(msg.from, to, msg);
                        continue;
                    }
                    self.tracer.emit(|| {
                        Event::system(
                            self.queue.now(),
                            to,
                            EventKind::MsgDelivered { from: msg.from },
                        )
                    });
                    self.start_replica_txn(to, msg);
                }
                profiler.stop("lazy-group/deliver", t);
            }
            Ev::ReplicaRetry { to, msg } => {
                if self.crashed[to.0 as usize] {
                    self.network.park(msg.from, to, msg);
                } else {
                    self.start_replica_txn(to, msg);
                }
                profiler.stop("lazy-group/deliver", t);
            }
            Ev::Connectivity { node, connected } => {
                self.tracer.emit(|| {
                    let kind = if connected {
                        EventKind::Reconnect
                    } else {
                        EventKind::Disconnect
                    };
                    Event::system(self.queue.now(), node, kind)
                });
                if connected {
                    self.reconnect(node);
                } else {
                    self.network.disconnect(node);
                }
                profiler.stop("lazy-group/connectivity", t);
            }
            Ev::PartitionStart { side_a } => {
                if live {
                    self.tracer.emit(|| {
                        Event::system(
                            self.queue.now(),
                            side_a.first().copied().unwrap_or_default(),
                            EventKind::PartitionStart {
                                side_a: side_a.clone(),
                            },
                        )
                    });
                    self.network.partition(&side_a);
                }
                profiler.stop("lazy-group/partition", t);
            }
            Ev::PartitionHeal => {
                self.heal_partition();
                profiler.stop("lazy-group/partition", t);
            }
            Ev::Crash(node) => {
                if live {
                    self.crash_node(node);
                }
                profiler.stop("lazy-group/crash", t);
            }
            Ev::Restart(node) => {
                if self.crashed[node.0 as usize] {
                    self.restart_node(node);
                }
                profiler.stop("lazy-group/crash", t);
            }
            Ev::Resend(node) => {
                if !self.crashed[node.0 as usize] {
                    self.propagate(node);
                }
                profiler.stop("lazy-group/resend", t);
            }
            Ev::ForwardRoot { to, objects } => {
                // A forwarded sub-transaction dies if its shard owner is
                // down (nothing committed yet, so nothing to undo), and
                // no new roots start during the convergence drain.
                if live && !self.crashed[to.0 as usize] {
                    self.begin_root(to, objects);
                }
                profiler.stop("lazy-group/forward-root", t);
            }
            Ev::LockTimeout { txn, node, obj } => {
                self.on_lock_timeout(txn, node, obj);
                profiler.stop("lazy-group/lock-timeout", t);
            }
        }
    }

    /// Heal the active bipartition (if any) and deliver everything that
    /// was parked at the boundary.
    fn heal_partition(&mut self) {
        if !self.network.has_partition() {
            return;
        }
        self.tracer.emit(|| {
            Event::system(
                self.queue.now(),
                NodeId::default(),
                EventKind::PartitionHeal,
            )
        });
        let drained = self.network.heal_partition();
        self.queue.schedule_batch_after(
            SimDuration::ZERO,
            drained.into_iter().map(|(to, msg)| Ev::Deliver { to, msg }),
        );
    }

    /// Crash `node`: volatile state (lock table, in-flight transactions,
    /// the replica-apply backlog) is lost; durable state (store, commit
    /// log, replication watermarks) survives. In-flight replica updates
    /// go back into the mail — lazy propagation is at-least-once and the
    /// timestamp test makes re-application idempotent.
    fn crash_node(&mut self, node: NodeId) {
        self.crashed[node.0 as usize] = true;
        self.network.disconnect(node);
        if self.measuring() {
            self.metrics.node_crashes.incr();
        }
        self.tracer
            .emit(|| Event::system(self.queue.now(), node, EventKind::NodeCrash));
        // The lock table dies with the node; bank its search count
        // before it goes.
        let locks = std::mem::replace(
            &mut self.nodes[node.0 as usize].locks,
            Self::lock_manager(&self.cfg),
        );
        self.metrics.cycle_checks.add(locks.cycle_checks());
        // In-flight root transactions at the node die, and recovery
        // undoes their uncommitted store writes (the WAL-style undo
        // pass). Skipping the undo leaves dirty versions with fresh
        // timestamps orphaned in the durable store — never logged for
        // propagation, so no replica ever hears of them, and
        // newest-timestamp-wins only absorbs them if a *newer
        // committed* write happens to follow. The oracle fuzzer caught
        // exactly that divergence.
        let dead_roots: Vec<TxnId> = self
            .roots
            .iter()
            .filter(|(_, t)| t.node == node)
            .map(|(id, _)| id)
            .collect();
        for id in dead_roots {
            self.tracer.emit(|| {
                Event::new(
                    self.queue.now(),
                    node,
                    id,
                    EventKind::TxnAbort {
                        reason: AbortReason::Crash,
                    },
                )
            });
            let txn = self.roots.remove(id).expect("crashing root txn");
            self.rollback_root(&txn);
            self.recycle_root(txn);
        }
        // In-flight and backlogged replica updates return to the mail.
        let dead_replicas: Vec<TxnId> = self
            .replicas
            .iter()
            .filter(|(_, t)| t.node == node)
            .map(|(id, _)| id)
            .collect();
        for id in dead_replicas {
            let txn = self.replicas.remove(id).expect("crashing replica txn");
            self.network.park(txn.msg.from, node, txn.msg);
        }
        let backlog = std::mem::take(&mut self.nodes[node.0 as usize].backlog);
        for msg in backlog {
            self.network.park(msg.from, node, msg);
        }
        self.nodes[node.0 as usize].active_replicas = 0;
    }

    /// Restart `node`: redeliver everything parked for it (the recovery
    /// replay) and resume propagation from its durable watermarks.
    fn restart_node(&mut self, node: NodeId) {
        self.crashed[node.0 as usize] = false;
        self.tracer
            .emit(|| Event::system(self.queue.now(), node, EventKind::NodeRestart));
        let inbound = self.network.reconnect(node);
        self.tracer.emit(|| {
            Event::system(
                self.queue.now(),
                node,
                EventKind::RecoveryReplay {
                    messages: inbound.len() as u64,
                },
            )
        });
        self.queue.schedule_batch_after(
            SimDuration::ZERO,
            inbound.into_iter().map(|msg| Ev::Deliver { to: node, msg }),
        );
        self.propagate(node);
    }

    /// A lock-wait timeout fired. It may be stale — the transaction may
    /// have been granted, committed, died in a crash, or aborted since
    /// the timer was armed — so it only acts if the transaction is still
    /// blocked on the same object.
    fn on_lock_timeout(&mut self, id: TxnId, node: NodeId, obj: ObjectId) {
        if self.crashed[node.0 as usize]
            || self.nodes[node.0 as usize].locks.waiting_on(id) != Some(obj)
        {
            return;
        }
        if self.measuring() {
            self.metrics.deadlocks.incr();
            self.metrics.lock_timeouts.incr();
            // Timeout resolution aborts a root for good but merely
            // resubmits a replica update — count the right one.
            if self.roots.contains(id) {
                self.metrics.incr_dist(M_ABORTS);
            } else {
                self.metrics.incr_dist(M_RETRIES);
            }
        }
        self.tracer.emit(|| {
            Event::new(
                self.queue.now(),
                node,
                id,
                EventKind::LockTimeout { object: obj },
            )
        });
        self.tracer.emit(|| {
            Event::new(
                self.queue.now(),
                node,
                id,
                EventKind::TxnAbort {
                    reason: AbortReason::Timeout,
                },
            )
        });
        // Leave the wait queue first: `release_all` only frees *held*
        // locks, and a queued ghost would be granted the contested
        // object later and hold it forever.
        self.nodes[node.0 as usize].locks.cancel_wait(id);
        if let Some(txn) = self.roots.remove(id) {
            self.rollback_root(&txn);
            self.recycle_root(txn);
            self.release_and_resume(node, id);
        } else if let Some(txn) = self.replicas.remove(id) {
            // Replica updates are resubmitted after a timeout abort,
            // exactly as after a detected deadlock (§5).
            self.release_replica_slot(node);
            self.release_and_resume(node, id);
            let backoff = self
                .cfg
                .action_time
                .saturating_mul(1 + self.retry_rng.gen_range(8));
            self.queue.schedule_after(
                backoff,
                Ev::ReplicaRetry {
                    to: txn.node,
                    msg: txn.msg,
                },
            );
            self.drain_backlog(node);
        }
    }

    /// Arm the lock-wait timer for a transaction that just blocked, if
    /// the run resolves deadlocks by timeout.
    fn arm_lock_timeout(&mut self, id: TxnId, node: NodeId, obj: ObjectId) {
        if let DeadlockPolicy::Timeout { wait } = self.cfg.deadlock {
            self.queue
                .schedule_after(wait, Ev::LockTimeout { txn: id, node, obj });
        }
    }

    fn on_arrive(&mut self, node: NodeId) {
        let gap =
            SimDuration::from_secs_f64(self.arrival_rngs[node.0 as usize].exp(1.0 / self.cfg.tps));
        self.queue.schedule_after(gap, Ev::Arrive(node));
        if self.crashed[node.0 as usize] {
            // No terminals at a dead node; the arrival process itself
            // keeps ticking so the stream stays deterministic.
            return;
        }
        if self.shard.is_some() {
            self.on_arrive_sharded(node);
            return;
        }
        let mut scratch = std::mem::take(&mut self.sample_scratch);
        self.object_rng
            .sample_distinct_into(self.cfg.db_size, self.cfg.actions, &mut scratch);
        let mut objects = self.objects_pool.pop().unwrap_or_default();
        objects.clear();
        objects.extend(scratch.iter().copied().map(ObjectId));
        self.sample_scratch = scratch;
        self.begin_root(node, objects);
    }

    /// Sharded arrival: most transactions draw their objects from the
    /// originating node's hosted subset and run entirely locally. With
    /// probability `cross_shard` a transaction draws from the whole
    /// keyspace instead and splits per shard owner — the locally hosted
    /// objects become a root here, and each remote group is forwarded to
    /// its shard's owner ([`Ev::ForwardRoot`]), which runs it as an
    /// ordinary root and propagates it to that shard's replica set. The
    /// split sub-transactions commit independently (no distributed
    /// atomic commit) — exactly the paper's lazy "anytime, anyhow"
    /// regime, where the serializability oracle judges the outcome.
    fn on_arrive_sharded(&mut self, node: NodeId) {
        let map = self.shard.as_ref().expect("sharded arrival without map");
        let cross = self.object_rng.chance(self.cfg.cross_shard);
        let hosted = self.hosted_counts[node.0 as usize];
        let mut scratch = std::mem::take(&mut self.sample_scratch);
        let mut objects = self.objects_pool.pop().unwrap_or_default();
        objects.clear();
        // Forwarded groups, keyed by shard owner. Cross-shard txns are
        // rare and small (`actions` objects total), so a linear-scan
        // Vec beats a hash map here.
        let mut forwards: Vec<(NodeId, Vec<ObjectId>)> = Vec::new();
        if !cross && hosted >= self.cfg.actions as u64 {
            // Single-shard-group txn: sample distinct positions in the
            // hosted index space and map them to object ids.
            self.object_rng
                .sample_distinct_into(hosted, self.cfg.actions, &mut scratch);
            objects.extend(scratch.iter().map(|&i| map.nth_hosted(node, i)));
        } else {
            // Whole-keyspace draw (also the fallback when the node
            // hosts fewer objects than one transaction touches).
            self.object_rng
                .sample_distinct_into(self.cfg.db_size, self.cfg.actions, &mut scratch);
            for &raw in scratch.iter() {
                let obj = ObjectId(raw);
                if map.hosts_object(node, obj) {
                    objects.push(obj);
                } else {
                    let owner = map.owner(map.shard_of(obj));
                    match forwards.iter_mut().find(|(o, _)| *o == owner) {
                        Some((_, group)) => group.push(obj),
                        None => forwards.push((owner, vec![obj])),
                    }
                }
            }
        }
        self.sample_scratch = scratch;
        if objects.is_empty() {
            objects.clear();
            self.objects_pool.push(objects);
        } else {
            self.begin_root(node, objects);
        }
        for (owner, group) in forwards {
            // Forwarding is one message to the shard owner; the root it
            // spawns there does the usual replica fan-out on commit.
            if self.measuring() {
                self.metrics.messages.incr();
            }
            let delay = self.network.sample_delay();
            self.queue.schedule_after(
                delay,
                Ev::ForwardRoot {
                    to: owner,
                    objects: group,
                },
            );
        }
    }

    /// Insert and start a root transaction over `objects` at `node`.
    fn begin_root(&mut self, node: NodeId, objects: Vec<ObjectId>) {
        let id = self.roots.insert(RootTxn {
            node,
            objects,
            next: 0,
            started: self.queue.now(),
            wait_started: None,
            updates: self
                .update_pool
                .pop()
                .unwrap_or_else(|| Vec::with_capacity(self.cfg.actions)),
            undo: self
                .undo_pool
                .pop()
                .unwrap_or_else(|| Vec::with_capacity(self.cfg.actions)),
        });
        self.tracer
            .emit(|| Event::new(self.queue.now(), node, id, EventKind::TxnBegin));
        self.try_root_step(id);
    }

    fn try_root_step(&mut self, id: TxnId) {
        let txn = self.roots.get(id).expect("stepping unknown root");
        if txn.next >= txn.objects.len() {
            self.commit_root(id);
            return;
        }
        let (node, obj) = (txn.node, txn.objects[txn.next]);
        match self.nodes[node.0 as usize].locks.acquire(id, obj) {
            Acquire::Granted => {
                self.queue
                    .schedule_after(self.cfg.action_time, Ev::RootStep(id));
            }
            Acquire::Waiting => {
                if self.measuring() {
                    self.metrics.waits.incr();
                }
                self.roots
                    .get_mut(id)
                    .expect("waiting root must be active")
                    .wait_started = Some(self.queue.now());
                self.emit_lock_wait(node, id, obj);
                self.arm_lock_timeout(id, node, obj);
            }
            Acquire::Deadlock => {
                if self.measuring() {
                    self.metrics.deadlocks.incr();
                    self.metrics.incr_dist(M_ABORTS);
                }
                self.emit_deadlock(node, id, AbortReason::Deadlock);
                let txn = self.roots.remove(id).expect("aborting unknown root");
                self.rollback_root(&txn);
                self.recycle_root(txn);
                self.release_and_resume(node, id);
            }
        }
    }

    /// Undo an aborted root transaction's store writes by restoring the
    /// pre-images, newest first. Sound because the transaction still
    /// holds exclusive locks on everything it wrote: no other
    /// transaction can have read or overwritten the dirty versions.
    /// Must run *before* the locks are released.
    fn rollback_root(&mut self, txn: &RootTxn) {
        let store = &mut self.nodes[txn.node.0 as usize].store;
        for (obj, value, ts) in txn.undo.iter().rev() {
            store.set(*obj, value.clone(), *ts);
        }
    }

    /// Return an aborted root transaction's buffers to the recycling
    /// pools. (Commits recycle `objects`/`undo` directly; their
    /// `updates` move into the commit log and come back through
    /// [`CommitLog::truncate_until_recycling`].)
    fn recycle_root(&mut self, txn: RootTxn) {
        let RootTxn {
            mut objects,
            mut updates,
            mut undo,
            ..
        } = txn;
        objects.clear();
        updates.clear();
        undo.clear();
        self.objects_pool.push(objects);
        self.update_pool.push(updates);
        self.undo_pool.push(undo);
    }

    /// Trace a lock wait at `node` (no-op when tracing is off).
    fn emit_lock_wait(&self, node: NodeId, id: TxnId, obj: ObjectId) {
        self.tracer.emit(|| {
            Event::new(
                self.queue.now(),
                node,
                id,
                EventKind::LockWait {
                    object: obj,
                    holder: self.nodes[node.0 as usize]
                        .locks
                        .holder_of(obj)
                        .unwrap_or_default(),
                    waiter: id,
                },
            )
        });
    }

    /// Trace a detected deadlock cycle plus the consequent abort.
    fn emit_deadlock(&self, node: NodeId, id: TxnId, reason: AbortReason) {
        self.tracer.emit(|| {
            Event::new(
                self.queue.now(),
                node,
                id,
                EventKind::DeadlockDetected {
                    cycle: self.nodes[node.0 as usize]
                        .locks
                        .last_deadlock_cycle()
                        .to_vec(),
                },
            )
        });
        self.tracer
            .emit(|| Event::new(self.queue.now(), node, id, EventKind::TxnAbort { reason }));
    }

    /// One root action's service time elapsed: perform the write.
    fn on_root_step(&mut self, id: TxnId) {
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
        if self.measuring() {
            self.metrics.actions.incr();
        }
        self.try_root_step(id);
    }

    fn commit_root(&mut self, id: TxnId) {
        let txn = self.roots.remove(id).expect("committing unknown root");
        let node = txn.node;
        if self.measuring() {
            self.metrics.committed.incr();
            self.metrics
                .record_latency(self.queue.now().since(txn.started));
        }
        self.tracer
            .emit(|| Event::new(self.queue.now(), node, id, EventKind::TxnCommit));
        self.release_and_resume(node, id);
        if self.recorder.is_on() {
            // A root transaction reads the version it overwrites.
            self.recorder.commit(
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
        self.propagate(node);
    }

    /// Ship every commit past each destination's watermark. A
    /// disconnected origin ships nothing — its log keeps accumulating
    /// and the watermarks catch up at reconnect ("when first connected,
    /// a mobile node sends … deferred replica updates").
    fn propagate(&mut self, origin: NodeId) {
        if !self.network.is_connected(origin) {
            return;
        }
        let batch = self.cfg.propagation_batch.max(1);
        // Consecutive same-delay deliveries on one channel accumulate
        // here and flush as one scheduled event (up to `batch` records).
        // Coalescing happens strictly at flush time — the network still
        // sees one send per record (same fault fates, same latency
        // draws, same message counters as batch=1), and a delay change
        // or non-delivery outcome flushes first, so per-channel arrival
        // order is exactly the per-txn order.
        let mut pending = std::mem::take(&mut self.deliver_scratch);
        let mut pending_delay = SimDuration::ZERO;
        // Destinations usually share a watermark (they all drift only
        // under disconnects), so each record's payload is re-shipped to
        // every destination back to back — memoize the last one and
        // bump its refcount instead of re-allocating per destination.
        let mut last_payload: Option<(Lsn, std::rc::Rc<[UpdateRecord]>)> = None;
        // Sharded runs filter once per distinct shard-set signature,
        // not once per destination: arm one memo slot per fan-out
        // group of this origin.
        if let Some(map) = &self.shard {
            self.group_memo.clear();
            self.group_memo.resize(map.fanout_groups(origin), None);
        }
        for dest in 0..self.cfg.nodes {
            let dest = NodeId(dest);
            if dest == origin {
                continue;
            }
            let group = match &self.shard {
                None => 0,
                // Nodes sharing no shard never exchange replica
                // updates: point the watermark at the head so this dead
                // channel never holds back log GC.
                Some(map) => match map.fanout_group(origin, dest) {
                    Some(g) => g,
                    None => {
                        let head = self.nodes[origin.0 as usize].log.head();
                        self.nodes[origin.0 as usize].sent_upto[dest.0 as usize] = head;
                        continue;
                    }
                },
            };
            debug_assert!(pending.is_empty());
            loop {
                let state = &self.nodes[origin.0 as usize];
                let from = state.sent_upto[dest.0 as usize];
                let Some(record) = state.log.get(from) else {
                    break;
                };
                // One allocation per record (shared across destinations
                // via the memo); every delivery copy below just bumps
                // the refcount. Sharded runs ship the same full payload
                // with a per-signature-group mask selecting the hosted
                // subset — computed once per group and reused by every
                // member at the same watermark — and a record with
                // nothing for this destination's group just advances
                // the watermark. Only records wider than the mask are
                // ever filtered into a fresh copy.
                let wide = record.updates.len() > 64;
                let mask = match (&self.shard, wide) {
                    (None, _) | (Some(_), true) => full_mask(record.updates.len()),
                    (Some(map), false) => {
                        let mask = match &self.group_memo[group as usize] {
                            Some((lsn, m)) if *lsn == from => *m,
                            _ => {
                                let mut m = 0u64;
                                for (i, u) in record.updates.iter().enumerate() {
                                    if map.fanout_group_hosts(origin, group, u.object) {
                                        m |= 1u64 << i;
                                    }
                                }
                                self.group_memo[group as usize] = Some((from, m));
                                m
                            }
                        };
                        if mask == 0 {
                            self.nodes[origin.0 as usize].sent_upto[dest.0 as usize] =
                                Lsn(from.0 + 1);
                            continue;
                        }
                        mask
                    }
                };
                let updates: std::rc::Rc<[UpdateRecord]> = match (&self.shard, wide) {
                    (Some(map), true) => {
                        // Overflow-wide record: the mask cannot address
                        // every entry, so fall back to a per-group
                        // filtered copy (`applies` selects the whole
                        // pre-filtered payload via `u64::MAX`).
                        let rc: std::rc::Rc<[UpdateRecord]> = record
                            .updates
                            .iter()
                            .filter(|u| map.fanout_group_hosts(origin, group, u.object))
                            .cloned()
                            .collect();
                        if rc.is_empty() {
                            self.nodes[origin.0 as usize].sent_upto[dest.0 as usize] =
                                Lsn(from.0 + 1);
                            continue;
                        }
                        rc
                    }
                    _ => match &last_payload {
                        Some((lsn, rc)) if *lsn == from => rc.clone(),
                        _ => {
                            let rc: std::rc::Rc<[UpdateRecord]> = record.updates.as_slice().into();
                            last_payload = Some((from, rc.clone()));
                            rc
                        }
                    },
                };
                if self.measuring() {
                    self.metrics.messages.incr();
                }
                self.tracer.emit(|| {
                    Event::system(
                        self.queue.now(),
                        origin,
                        EventKind::ReplicaSend {
                            to: dest,
                            lsn: from,
                        },
                    )
                });
                // Fate first, message after: only the fates that keep a
                // message pay its construction (and the payload's
                // refcount bump).
                match self.network.send_fate(origin, dest) {
                    SendFate::Deliver { delay } => {
                        if !pending.is_empty() && pending_delay != delay {
                            self.flush_deliveries(dest, pending_delay, &mut pending);
                        }
                        pending_delay = delay;
                        pending.push(ReplicaMsg {
                            from: origin,
                            sent_at: self.queue.now(),
                            updates,
                            mask,
                        });
                        if pending.len() >= batch {
                            self.flush_deliveries(dest, delay, &mut pending);
                        }
                    }
                    SendFate::Duplicated { delays } => {
                        // Flush first: the duplicate's copies must land
                        // behind everything already pending on this
                        // channel, as they would with per-txn events.
                        self.flush_deliveries(dest, pending_delay, &mut pending);
                        if self.measuring() {
                            self.metrics.messages_duplicated.incr();
                        }
                        self.tracer.emit(|| {
                            Event::system(
                                self.queue.now(),
                                origin,
                                EventKind::MsgDuplicated { to: dest },
                            )
                        });
                        for delay in delays {
                            self.queue.schedule_after(
                                delay,
                                Ev::Deliver {
                                    to: dest,
                                    msg: ReplicaMsg {
                                        from: origin,
                                        sent_at: self.queue.now(),
                                        updates: updates.clone(),
                                        mask,
                                    },
                                },
                            );
                        }
                    }
                    SendFate::Dropped => {
                        // Lost in flight. The watermark does not
                        // advance; a retransmit timer re-runs
                        // propagation from the same record, so delivery
                        // is at-least-once and the timestamp test makes
                        // re-application idempotent.
                        self.flush_deliveries(dest, pending_delay, &mut pending);
                        if self.measuring() {
                            self.metrics.messages_dropped.incr();
                        }
                        self.tracer.emit(|| {
                            Event::system(
                                self.queue.now(),
                                origin,
                                EventKind::MsgDropped { to: dest },
                            )
                        });
                        let retransmit = self
                            .faults
                            .as_ref()
                            .map_or(SimDuration::from_millis(100), |p| p.retransmit);
                        self.queue.schedule_after(retransmit, Ev::Resend(origin));
                        break;
                    }
                    SendFate::Held => {
                        // Park it for the unreachable destination; it
                        // still counts as shipped.
                        self.network.park(
                            origin,
                            dest,
                            ReplicaMsg {
                                from: origin,
                                sent_at: self.queue.now(),
                                updates,
                                mask,
                            },
                        );
                    }
                    SendFate::SenderOffline => {
                        // Raced a disconnect: retry from the same
                        // watermark at the next reconnect.
                        self.flush_deliveries(dest, pending_delay, &mut pending);
                        self.deliver_scratch = pending;
                        return;
                    }
                }
                self.nodes[origin.0 as usize].sent_upto[dest.0 as usize] = Lsn(from.0 + 1);
            }
            self.flush_deliveries(dest, pending_delay, &mut pending);
        }
        self.deliver_scratch = pending;
        // Garbage-collect the fully shipped prefix: records below every
        // destination's watermark will never be requested again.
        let state = &mut self.nodes[origin.0 as usize];
        state.sent_upto[origin.0 as usize] = state.log.head();
        if let Some(min) = state.sent_upto.iter().min().copied() {
            state
                .log
                .truncate_until_recycling(min, &mut self.update_pool);
        }
    }

    /// Schedule the accumulated same-delay deliveries for `to`: a lone
    /// record ships as a plain [`Ev::Deliver`] (the batch=1 path stays
    /// allocation-free), a chunk as one [`Ev::DeliverBatch`].
    fn flush_deliveries(&mut self, to: NodeId, delay: SimDuration, pending: &mut Vec<ReplicaMsg>) {
        match pending.len() {
            0 => {}
            1 => {
                let msg = pending.pop().expect("non-empty pending");
                self.queue.schedule_after(delay, Ev::Deliver { to, msg });
            }
            _ => {
                let msgs = std::mem::take(pending);
                self.queue
                    .schedule_after(delay, Ev::DeliverBatch { to, msgs });
            }
        }
    }

    fn reconnect(&mut self, node: NodeId) {
        let inbound = self.network.reconnect(node);
        self.queue.schedule_batch_after(
            SimDuration::ZERO,
            inbound.into_iter().map(|msg| Ev::Deliver { to: node, msg }),
        );
        self.propagate(node);
    }

    fn start_replica_txn(&mut self, to: NodeId, msg: ReplicaMsg) {
        {
            let state = &mut self.nodes[to.0 as usize];
            if state.active_replicas >= MAX_CONCURRENT_REPLICA_TXNS {
                state.backlog.push_back(msg);
                return;
            }
            state.active_replicas += 1;
        }
        let id = self.replicas.insert(ReplicaTxn {
            node: to,
            msg,
            next: 0,
            wait_started: None,
            conflicted: false,
        });
        self.tracer
            .emit(|| Event::new(self.queue.now(), to, id, EventKind::TxnBegin));
        self.try_replica_step(id);
    }

    fn try_replica_step(&mut self, id: TxnId) {
        let txn = self.replicas.get_mut(id).expect("stepping unknown replica");
        // Skip entries the fan-out mask excludes: this destination's
        // signature group does not host them.
        while txn.next < txn.msg.updates.len() && !applies(txn.msg.mask, txn.next) {
            txn.next += 1;
        }
        if txn.next >= txn.msg.updates.len() {
            self.commit_replica(id);
            return;
        }
        let (node, obj) = (txn.node, txn.msg.updates[txn.next].object);
        match self.nodes[node.0 as usize].locks.acquire(id, obj) {
            Acquire::Granted => {
                self.queue
                    .schedule_after(self.cfg.action_time, Ev::ReplicaStep(id));
            }
            Acquire::Waiting => {
                if self.measuring() {
                    self.metrics.waits.incr();
                }
                self.replicas
                    .get_mut(id)
                    .expect("waiting replica must be active")
                    .wait_started = Some(self.queue.now());
                self.emit_lock_wait(node, id, obj);
                self.arm_lock_timeout(id, node, obj);
            }
            Acquire::Deadlock => {
                // Replica updates are resubmitted on deadlock (§5) —
                // back off one action time and retry from scratch.
                if self.measuring() {
                    self.metrics.deadlocks.incr();
                    self.metrics.incr_dist(M_RETRIES);
                }
                self.emit_deadlock(node, id, AbortReason::Deadlock);
                let txn = self.replicas.remove(id).expect("replica vanished");
                self.release_replica_slot(node);
                self.release_and_resume(node, id);
                // Randomized backoff: a deterministic delay would let
                // two retrying transactions re-collide in lockstep
                // forever.
                let backoff = self
                    .cfg
                    .action_time
                    .saturating_mul(1 + self.retry_rng.gen_range(8));
                self.queue.schedule_after(
                    backoff,
                    Ev::ReplicaRetry {
                        to: txn.node,
                        msg: txn.msg,
                    },
                );
                self.drain_backlog(node);
            }
        }
    }

    fn on_replica_step(&mut self, id: TxnId) {
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
        self.recorder.replica_apply(node, object, new_ts, outcome);
        match outcome {
            ApplyOutcome::Applied => {}
            ApplyOutcome::Duplicate => {
                if self.queue.now() >= self.measure_from {
                    self.metrics.stale_updates.incr();
                }
                self.tracer
                    .emit(|| Event::new(self.queue.now(), node, id, EventKind::StaleSkip));
            }
            ApplyOutcome::ConflictApplied | ApplyOutcome::ConflictIgnored => {
                // Dangerous update (the paper's Figure 4 test failed);
                // count the reconciliation.
                self.tracer.emit(|| {
                    Event::new(
                        self.queue.now(),
                        node,
                        id,
                        EventKind::DangerousUpdate { object: u.object },
                    )
                });
                self.replicas.get_mut(id).expect("replica txn").conflicted = true;
            }
        }
        self.try_replica_step(id);
    }

    fn commit_replica(&mut self, id: TxnId) {
        let txn = self.replicas.remove(id).expect("unknown replica commit");
        if self.queue.now() >= self.measure_from {
            self.metrics.replica_commits.incr();
            if txn.conflicted {
                self.metrics.reconciliations.incr();
            }
            // Send → apply delta: how stale this replica's view was
            // when the update finally landed.
            let lag = self.queue.now().since(txn.msg.sent_at);
            self.metrics.record_dist(M_PROPAGATION_LAG, lag);
            if !self.cfg.lean_metrics {
                self.staleness[txn.node.0 as usize].observe(lag.0);
            }
        }
        self.tracer
            .emit(|| Event::new(self.queue.now(), txn.node, id, EventKind::ReplicaApply));
        if txn.conflicted {
            self.tracer
                .emit(|| Event::new(self.queue.now(), txn.node, id, EventKind::Reconcile));
        }
        self.release_replica_slot(txn.node);
        self.release_and_resume(txn.node, id);
        self.drain_backlog(txn.node);
    }

    /// Free an apply slot at `node`.
    fn release_replica_slot(&mut self, node: NodeId) {
        let state = &mut self.nodes[node.0 as usize];
        debug_assert!(state.active_replicas > 0, "slot underflow at {node}");
        state.active_replicas = state.active_replicas.saturating_sub(1);
    }

    /// Start the next backlogged replica transaction at `node`, if any
    /// slot is free.
    fn drain_backlog(&mut self, node: NodeId) {
        while self.nodes[node.0 as usize].active_replicas < MAX_CONCURRENT_REPLICA_TXNS {
            let Some(msg) = self.nodes[node.0 as usize].backlog.pop_front() else {
                return;
            };
            self.start_replica_txn(node, msg);
        }
    }

    /// Release `id`'s locks at `node` into the recycled scratch buffer
    /// and resume the promoted waiters — no allocation on this path.
    fn release_and_resume(&mut self, node: NodeId, id: TxnId) {
        let mut granted = std::mem::take(&mut self.granted_scratch);
        self.nodes[node.0 as usize]
            .locks
            .release_all_into(id, &mut granted);
        self.resume_waiters(node, &granted);
        self.granted_scratch = granted;
    }

    /// Resume transactions whose lock was just granted at `node`. The
    /// arena tag in each id routes it without probing both slabs.
    fn resume_waiters(&mut self, _node: NodeId, granted: &[(TxnId, ObjectId)]) {
        let now = self.queue.now();
        for &(waiter, _obj) in granted {
            if self.roots.owns(waiter) {
                if let Some(txn) = self.roots.get_mut(waiter) {
                    if let Some(since) = txn.wait_started.take() {
                        if now >= self.measure_from {
                            self.metrics.record_wait(now.since(since));
                        }
                    }
                    self.queue
                        .schedule_after(self.cfg.action_time, Ev::RootStep(waiter));
                }
            } else if let Some(txn) = self.replicas.get_mut(waiter) {
                if let Some(since) = txn.wait_started.take() {
                    if now >= self.measure_from {
                        self.metrics.record_wait(now.since(since));
                    }
                }
                self.queue
                    .schedule_after(self.cfg.action_time, Ev::ReplicaStep(waiter));
            }
        }
    }

    /// The configuration of this run.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The mobility mode of this run.
    pub fn mobility(&self) -> &Mobility {
        &self.mobility
    }

    /// Override the network latency model after construction (ablation
    /// studies; must be called before [`LazyGroupSim::run`]).
    pub fn set_latency(&mut self, latency: LatencyModel) {
        self.network = Network::new(self.cfg.nodes as usize, latency, self.cfg.seed);
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
        // `--shards K --rf Nodes` must be byte-identical to no sharding
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

    #[test]
    fn sharded_replicas_converge_per_shard() {
        // Partial replication: nodes host different subsets, so whole-
        // store digests differ by construction — convergence means every
        // pair of replicas agrees on every object they both host.
        let c = cfg(6.0, 480.0, 10.0, 60, 11)
            .with_shards(6, 2)
            .with_cross_shard(0.3);
        let (report, stores) = LazyGroupSim::new(c, Mobility::Connected).run_with_state();
        assert!(report.committed > 0);
        assert!(
            report.replica_commits > 0,
            "partial replication still fans out"
        );
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
