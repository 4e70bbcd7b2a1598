//! The contention engine: a discrete-event simulation of transactions
//! competing for exclusive locks in one logical lock space.
//!
//! The paper's wait/deadlock equations all reduce to this picture: a
//! population of transactions, each sequentially locking `Actions`
//! uniformly-chosen objects out of `DB_Size`, holding each lock until
//! commit, with some per-action service time. The replication schemes
//! differ only in *how many* transactions there are and *how long* each
//! action takes:
//!
//! | Scheme | per-action work | arrival streams | matches |
//! |--------|-----------------|-----------------|---------|
//! | single node | `Action_Time` | 1 × TPS | eqs (2)–(5) |
//! | eager (serial replicas) | `Action_Time × Nodes` | Nodes × TPS | eqs (9)–(12) |
//! | eager (parallel replicas, footnote 2) | `Action_Time` | Nodes × TPS | ablation |
//! | lazy master (master copies) | `Action_Time` | Nodes × TPS | eq (19) |
//!
//! Lock requests that block count as *waits*; requests that would close
//! a waits-for cycle abort the requester and count as *deadlocks* —
//! "deadlocks convert waits into application faults". Aborted
//! transactions are not retried (they are the model's "failed
//! transactions").

use crate::config::SimConfig;
use crate::engine::commit::{CommitProto, CoordState, Coordinator, CrashKind, Decision};
use crate::engine::kernel::{self, Kernel, Protocol, Sim};
use crate::metrics::{M_ABORTS, M_INDOUBT_WAIT};
use repl_check::{Scheme, TxnRecord};
use repl_net::FaultPlan;
use repl_sim::{Sampler, SimDuration, SimRng, SimTime};
use repl_storage::hash::FastMap;
use repl_storage::{
    Acquire, DecisionLog, DecisionState, LockManager, NodeId, ObjectId, ShardMap, Timestamp, TxnId,
    TxnTable,
};
use repl_telemetry::{AbortReason, Event, EventKind};
use std::marker::PhantomData;

/// Per-scheme knobs on top of the shared [`SimConfig`].
#[derive(Debug, Clone, Copy)]
pub struct ContentionProfile {
    /// Service time for one action (lock already held).
    pub work_per_action: SimDuration,
    /// How many physical object updates one action represents (eager
    /// serial: one per replica ⇒ `nodes`); feeds the measured
    /// action rate compared against equation (8).
    pub updates_per_action: u64,
}

impl ContentionProfile {
    /// Single-node profile: plain `Action_Time`, no replication.
    pub fn single_node(cfg: &SimConfig) -> Self {
        ContentionProfile {
            work_per_action: cfg.action_time,
            updates_per_action: 1,
        }
    }

    /// Eager replication with serial replica updates (the paper's main
    /// model): each action is applied at every replica of its shard in
    /// turn. With full replication `effective_rf() == nodes` and this
    /// is exactly the paper's `Action_Time × Nodes`; a partial shard
    /// map shrinks the fan-out to the replication factor. The replica
    /// updates are this work, not messages: none is sent, so none is
    /// counted.
    pub fn eager_serial(cfg: &SimConfig) -> Self {
        let rf = u64::from(cfg.effective_rf());
        ContentionProfile {
            work_per_action: cfg.action_time.saturating_mul(rf),
            updates_per_action: rf,
        }
    }

    /// Eager replication with parallel replica broadcast (footnote 2):
    /// same work volume, but the transaction's elapsed time per action
    /// stays `Action_Time`.
    pub fn eager_parallel(cfg: &SimConfig) -> Self {
        let rf = u64::from(cfg.effective_rf());
        ContentionProfile {
            work_per_action: cfg.action_time,
            updates_per_action: rf,
        }
    }

    /// Lazy-master master-copy execution: master transactions take
    /// `Action_Time` per action. The refresh of every slave of the
    /// shard counts as an update (background, does not contend), but
    /// the engine has no slaves yet, so no refresh is sent or counted
    /// as a message.
    pub fn lazy_master(cfg: &SimConfig) -> Self {
        let rf = u64::from(cfg.effective_rf());
        ContentionProfile {
            work_per_action: cfg.action_time,
            updates_per_action: rf,
        }
    }
}

/// The contention protocol's private events. (Commit-protocol messages
/// travel as the kernel's `Deliver`.)
#[doc(hidden)]
#[derive(Debug)]
pub enum Ev {
    /// The current action's service time finished for a transaction.
    StepDone(TxnId),
    /// Coordinator retransmit tick: resend whatever round is missing.
    ProtoTimer(TxnId),
    /// In-doubt participant tick: re-ask the coordinator for the
    /// decision.
    InDoubtTimer(TxnId, NodeId),
}

/// The cross-shard commit protocol's wire vocabulary. Every variant
/// carries its sender, so a parked message can be re-parked and a
/// handler never needs out-of-band context.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoMsg {
    /// Coordinator → participant: vote on `txn`.
    Prepare { txn: TxnId, coord: NodeId },
    /// Participant → coordinator: this shard's vote.
    Vote { txn: TxnId, node: NodeId, yes: bool },
    /// Coordinator → participant: the durable decision.
    Decision {
        txn: TxnId,
        coord: NodeId,
        commit: bool,
    },
    /// Participant → coordinator: decision received and applied.
    Ack { txn: TxnId, node: NodeId },
    /// In-doubt participant → coordinator: what happened to `txn`?
    /// (Presumed abort: no durable decision ⇒ the answer is abort.)
    DecisionReq { txn: TxnId, node: NodeId },
    /// Owner-order only: fire-and-forget "apply this commit" — no
    /// votes, no acks, no durable redo. Its losses are the anomaly the
    /// atomicity oracle exists to catch.
    Apply { txn: TxnId, from: NodeId },
}

impl ProtoMsg {
    fn sender(self) -> NodeId {
        match self {
            ProtoMsg::Prepare { coord, .. } | ProtoMsg::Decision { coord, .. } => coord,
            ProtoMsg::Vote { node, .. }
            | ProtoMsg::Ack { node, .. }
            | ProtoMsg::DecisionReq { node, .. } => node,
            ProtoMsg::Apply { from, .. } => from,
        }
    }

    fn txn(self) -> TxnId {
        match self {
            ProtoMsg::Prepare { txn, .. }
            | ProtoMsg::Vote { txn, .. }
            | ProtoMsg::Decision { txn, .. }
            | ProtoMsg::Ack { txn, .. }
            | ProtoMsg::DecisionReq { txn, .. }
            | ProtoMsg::Apply { txn, .. } => txn,
        }
    }
}

#[derive(Debug, Default)]
struct ActiveTxn {
    /// The objects to lock, in order. Drawn from and returned to
    /// [`Contention::objects_pool`].
    objects: Vec<ObjectId>,
    /// Index of the action to perform next.
    next: usize,
    /// Arrival node (stamps trace events).
    node: NodeId,
    started: SimTime,
    wait_started: Option<SimTime>,
    /// `(object, version seen)` per granted lock — captured at grant
    /// time (the oracle's read set). Empty unless a recorder is on.
    reads: Vec<(ObjectId, Timestamp)>,
    /// Distinct shard owners a cross-shard transaction writes at, in
    /// owner order (empty for a local one). The commit protocol engages
    /// iff there are ≥ 2 owners.
    owners: Vec<NodeId>,
    /// O2PL: owners whose prepare was piggybacked on their last lock
    /// grant (their yes-vote is already in hand at commit).
    piggy: Vec<NodeId>,
}

/// Sharded-workload state: the layout, one sampler per node, and the
/// cross-shard commit protocol's state.
///
/// Each node's sampler draws over that node's hosted-object index
/// space, so access skew applies within the hosted subset. It is `None`
/// for a node that hosts fewer objects than `Actions`: its transactions
/// always sample the whole keyspace (i.e. run as cross-shard
/// transactions).
///
/// The protocol state is what [`SimConfig::commit_proto`] runs on, over
/// real messages on the kernel's fabric: per-node durable decision
/// logs, the volatile coordinator/in-doubt state, and the crash-point
/// counters.
#[derive(Debug)]
struct ShardCtx {
    map: ShardMap,
    samplers: Vec<Option<Sampler>>,
    /// Per-node durable decision log (survives crashes).
    logs: Vec<DecisionLog>,
    /// Volatile coordinator state by transaction.
    pending: FastMap<TxnId, PendingCoord>,
    /// Volatile in-doubt participants: `(node, since)` per transaction.
    indoubt: FastMap<TxnId, Vec<(NodeId, SimTime)>>,
    /// Times each crash-point transition has been reached, by
    /// [`CrashKind`] index in `CrashKind::ALL` order.
    crash_counts: [u32; 6],
}

/// One in-flight coordinator (volatile — lost on crash; a durably
/// logged commit decision is re-hydrated on restart).
#[derive(Debug)]
struct PendingCoord {
    coord: Coordinator,
    /// Coordinator node.
    node: NodeId,
}

fn kind_index(k: CrashKind) -> usize {
    CrashKind::ALL
        .iter()
        .position(|x| *x == k)
        .expect("CrashKind::ALL is exhaustive")
}

/// What tells the public parameterisations of [`Contention`] apart.
pub trait Flavor {
    /// The default run label.
    const LABEL: &'static str;
    /// The oracle family that judges a recorded run.
    const SCHEME: Scheme;
}

/// The plain flavor of [`Contention`]: the caller supplies the
/// [`ContentionProfile`].
#[derive(Debug)]
pub struct Plain;

impl Flavor for Plain {
    const LABEL: &'static str = "contention";
    const SCHEME: Scheme = Scheme::Contention;
}

/// The contention simulator.
pub type ContentionSim = Sim<Contention<Plain>>;

type K<S> = Kernel<Contention<S>>;

/// The contention protocol's state. [`ContentionSim`], `EagerSim` and
/// `LazyMasterSim` are this protocol under different profiles; the
/// [`Flavor`] `S` tells them apart, so each has its own constructor.
#[derive(Debug)]
pub struct Contention<S = Plain> {
    profile: ContentionProfile,
    locks: LockManager,
    /// In-flight transactions, keyed by the kernel's monotone ids:
    /// `TxnId` order is observable here (crash aborts, recovery replay
    /// and the durability audit sort by it, traces print it), and the
    /// live ids form a sliding window, so the table is a ring as wide
    /// as that window.
    active: TxnTable<ActiveTxn>,
    object_rng: SimRng,
    sampler: Sampler,
    /// `Some` when the run uses a partial shard layout (`None` keeps
    /// every draw on the original full-replication path, with no
    /// cross-shard commits to protect).
    shard: Option<ShardCtx>,
    /// Recycled buffer for lock-release promotions (commit/abort path).
    granted_scratch: Vec<(TxnId, ObjectId)>,
    /// Recycled `ActiveTxn::objects` vectors: transactions start and
    /// finish at the arrival rate, so reusing them keeps arrival
    /// allocation-free at steady state.
    objects_pool: Vec<Vec<ObjectId>>,
    /// Scratch for the sampler's distinct-object draw.
    sample_scratch: Vec<u64>,
    /// Current committed version per object (indexed by object id), for
    /// the recorder; empty until the first recorded read. The contention
    /// engine has no object store, so versions are minted here: reads
    /// capture the version at lock *grant* (under strict 2PL it cannot
    /// change before commit), commits mint successors.
    versions: Vec<Timestamp>,
    /// Version-minting counter (unique, monotone across the run).
    version_counter: u64,
    scheme: PhantomData<S>,
}

impl ContentionSim {
    /// Build a simulator; arrivals for each node are pre-seeded.
    pub fn new(cfg: SimConfig, profile: ContentionProfile) -> Self {
        Self::with_profile(cfg, profile)
    }
}

impl<S: Flavor> Sim<Contention<S>> {
    /// Build the contention protocol under `profile`.
    pub(super) fn with_profile(cfg: SimConfig, profile: ContentionProfile) -> Self {
        let shard = cfg.shard_map().map(|map| {
            let samplers = (0..cfg.nodes)
                .map(|n| {
                    let count = map.hosted_objects(NodeId(n), cfg.db_size);
                    (count >= cfg.actions as u64 && count > 0)
                        .then(|| Sampler::new(cfg.access, count))
                })
                .collect();
            ShardCtx {
                map,
                samplers,
                logs: (0..cfg.nodes).map(|_| DecisionLog::new()).collect(),
                pending: FastMap::default(),
                indoubt: FastMap::default(),
                crash_counts: [0; 6],
            }
        });
        let p = Contention {
            profile,
            locks: {
                let mut lm = LockManager::new();
                lm.reserve_objects(cfg.db_size as usize);
                lm
            },
            active: TxnTable::new(),
            object_rng: SimRng::stream(cfg.seed, "objects"),
            sampler: Sampler::new(cfg.access, cfg.db_size),
            shard,
            granted_scratch: Vec::new(),
            objects_pool: Vec::new(),
            sample_scratch: Vec::new(),
            versions: Vec::new(),
            version_counter: 0,
            scheme: PhantomData,
        };
        Sim {
            k: Kernel::new(cfg, profile.work_per_action, "arrivals-", S::LABEL),
            p,
        }
    }
}

impl<S: Flavor> Protocol for Contention<S> {
    type Ev = Ev;
    type Msg = ProtoMsg;
    type State = ();
    const SCHEME: Scheme = S::SCHEME;

    /// Arrivals and steps are timed in the live phase; the commit
    /// protocol's traffic, the crash machinery and the drain are not.
    fn phase(ev: &kernel::Event<Self>, live: bool) -> Option<&'static str> {
        match ev {
            kernel::Event::Arrive(_) if live => Some("contention/arrive"),
            kernel::Event::Proto(Ev::StepDone(_)) if live => Some("contention/step"),
            _ => None,
        }
    }

    /// Message chaos perturbs the commit protocol's fabric; crash
    /// windows become scheduled events. On an unsharded run there is no
    /// cross-shard traffic to perturb and the plan is a no-op. Partition
    /// windows are not modeled by this engine (the lazy-group engine
    /// owns that scenario).
    fn attach_faults(&mut self, k: &mut K<S>, plan: FaultPlan) {
        if self.shard.is_some() {
            k.install_injector(&plan);
            k.schedule_crash_windows(&plan);
        }
    }

    fn arrive(&mut self, k: &mut K<S>, node: NodeId) {
        let id = k.mint_txn();
        let (objects, owners) = self.sample_objects(&k.cfg, node);
        let first = objects.first().copied();
        self.active.insert(
            id,
            ActiveTxn {
                objects,
                next: 0,
                node,
                started: k.now(),
                wait_started: None,
                reads: Vec::new(),
                owners,
                piggy: Vec::new(),
            },
        );
        k.tracer
            .emit(|| Event::new(k.now(), node, id, EventKind::TxnBegin));
        self.try_step(k, id, node, first);
    }

    fn on_event(&mut self, k: &mut K<S>, ev: Ev) {
        match ev {
            Ev::StepDone(txn) => self.on_step_done(k, txn),
            Ev::ProtoTimer(txn) => self.on_proto_timer(k, txn),
            Ev::InDoubtTimer(txn, node) => self.on_indoubt_timer(k, txn, node),
        }
    }

    fn parked(msg: &mut ProtoMsg) -> NodeId {
        msg.sender()
    }

    /// Deliver one protocol message.
    fn deliver(&mut self, k: &mut K<S>, to: NodeId, msg: ProtoMsg) {
        k.tracer.emit(|| {
            Event::new(
                k.now(),
                to,
                msg.txn(),
                EventKind::MsgDelivered { from: msg.sender() },
            )
        });
        match msg {
            ProtoMsg::Prepare { txn, coord } => self.on_prepare(k, to, txn, coord),
            ProtoMsg::Vote { txn, node, yes } => self.on_vote(k, to, txn, node, yes),
            ProtoMsg::Decision { txn, coord, commit } => {
                self.on_decision_msg(k, to, txn, coord, commit)
            }
            ProtoMsg::Ack { txn, node } => self.on_ack(to, txn, node),
            ProtoMsg::DecisionReq { txn, node } => self.on_decision_req(k, to, txn, node),
            ProtoMsg::Apply { txn, .. } => self.on_apply(k, to, txn),
        }
    }

    /// Fail-stop: volatile coordinator and in-doubt state is lost, the
    /// node leaves the network (in-flight traffic to it parks), and
    /// every transaction it was running aborts. Durable decision logs
    /// survive.
    fn node_down(&mut self, k: &mut K<S>, node: NodeId) {
        {
            let Some(ctx) = &mut self.shard else { return };
            if k.is_down(node) {
                return;
            }
            // Volatile protocol state at the node evaporates.
            let mut lost: Vec<TxnId> = ctx
                .pending
                .iter()
                .filter(|(_, p)| p.node == node)
                .map(|(t, _)| *t)
                .collect();
            lost.sort_unstable();
            for t in lost {
                ctx.pending.remove(&t);
            }
            for list in ctx.indoubt.values_mut() {
                list.retain(|(n, _)| *n != node);
            }
        }
        k.crash(node);
        // Abort the node's in-flight transactions (sorted: the table's
        // entry order must never reach the event queue).
        let mut victims: Vec<TxnId> = self
            .active
            .iter()
            .filter(|(_, t)| t.node == node)
            .map(|(t, _)| t)
            .collect();
        victims.sort_unstable();
        for id in victims {
            k.tracer.emit(|| {
                Event::new(
                    k.now(),
                    node,
                    id,
                    EventKind::TxnAbort {
                        reason: AbortReason::Disconnect,
                    },
                )
            });
            self.abort(k, id);
        }
    }

    /// Restart after a crash: replay the durable decision log. A
    /// coordinator-side commit record re-hydrates a [`Coordinator`] and
    /// re-distributes the decision; a prepared record re-enters the
    /// in-doubt state and asks its coordinator. Parked messages then
    /// replay — except owner-order `Apply`s, which have no durable redo
    /// (precisely the anomaly the atomicity oracle catches).
    fn node_up(&mut self, k: &mut K<S>, node: NodeId) {
        let (parked, records) = {
            let Some(ctx) = &self.shard else { return };
            // Crash recovery is rare: collecting the drain here keeps
            // the borrow on `k` short (the replay below re-enters
            // `self` methods per message).
            let parked: Vec<ProtoMsg> = k.reconnect(node).collect();
            let mut records: Vec<(TxnId, DecisionState)> = ctx.logs[node.0 as usize]
                .entries()
                .map(|(t, st)| (t, st.clone()))
                .collect();
            records.sort_unstable_by_key(|(t, _)| *t);
            (parked, records)
        };
        k.restart(node, parked.len() as u64);
        for (txn, st) in records {
            match st {
                DecisionState::Decided {
                    commit: true,
                    participants,
                } if !participants.is_empty() => {
                    // Durable coordinator commit record: finish the
                    // decision distribution the crash interrupted.
                    let coord = Coordinator::recovered(participants.clone(), Decision::Commit);
                    let ctx = self.shard.as_mut().expect("checked above");
                    ctx.pending.insert(txn, PendingCoord { coord, node });
                    for p in participants {
                        Self::proto_send(
                            k,
                            p,
                            ProtoMsg::Decision {
                                txn,
                                coord: node,
                                commit: true,
                            },
                        );
                    }
                    k.schedule_retransmit(Ev::ProtoTimer(txn));
                }
                DecisionState::Prepared { coord } => {
                    // Still in doubt: blocked until the coordinator
                    // answers (presumed abort if it knows nothing).
                    let now = k.now();
                    let ctx = self.shard.as_mut().expect("checked above");
                    ctx.indoubt.entry(txn).or_default().push((node, now));
                    Self::proto_send(k, coord, ProtoMsg::DecisionReq { txn, node });
                    k.schedule_retransmit(Ev::InDoubtTimer(txn, node));
                }
                _ => {}
            }
        }
        for msg in parked {
            if matches!(msg, ProtoMsg::Apply { .. }) {
                // Fire-and-forget: an Apply parked at a crashed node is
                // lost for good under owner-order.
                continue;
            }
            // A crash point can take the node down again mid-replay.
            if let Some(msg) = k.admit(node, msg) {
                self.deliver(k, node, msg);
            }
        }
    }

    /// Post-horizon protocol drain (nothing to settle on an unsharded
    /// run): let the remaining protocol traffic resolve.
    fn begin_drain(&mut self, k: &mut K<S>) -> Option<SimTime> {
        self.shard.as_ref()?;
        Some(k.cfg.horizon + SimDuration::from_secs(300))
    }

    /// Durability audit: report every durable commit decision to the
    /// lost-decision oracle (sorted — `FastMap` iteration order must
    /// never drive observable behavior).
    fn finish(self, k: &mut K<S>) {
        let Some(ctx) = self.shard.as_ref().filter(|_| k.recorder.is_on()) else {
            return;
        };
        for (n, log) in ctx.logs.iter().enumerate() {
            let mut durable: Vec<TxnId> = log
                .entries()
                .filter(|(_, st)| {
                    matches!(
                        st,
                        DecisionState::Decided { commit: true, .. } | DecisionState::Done
                    )
                })
                .map(|(t, _)| t)
                .collect();
            durable.sort_unstable();
            for t in durable {
                k.recorder.decision_durable(t, NodeId(n as u32));
            }
        }
    }
}

impl<S: Flavor> Contention<S> {
    /// Draw a transaction's object set at `node`, returning the objects
    /// plus, for a cross-shard transaction, its distinct shard owners.
    ///
    /// Unsharded runs sample the whole keyspace exactly as before. A
    /// sharded run samples the node's *hosted* subset (through the
    /// per-node sampler, so skew still applies), except that with
    /// probability `cross_shard` — or always, at a node hosting too few
    /// objects — the transaction is a genuine multi-shard one: it
    /// samples the whole keyspace and acquires its locks in **owner
    /// order** (sorted by each shard's owner node, then object id), the
    /// minimal distributed-coordinator discipline that keeps two
    /// cross-shard transactions from deadlocking on lock-order
    /// inversion alone.
    fn sample_objects(&mut self, cfg: &SimConfig, node: NodeId) -> (Vec<ObjectId>, Vec<NodeId>) {
        let mut scratch = std::mem::take(&mut self.sample_scratch);
        let mut objects = self.objects_pool.pop().unwrap_or_default();
        debug_assert!(objects.is_empty(), "pooled vectors are returned empty");
        let (k, rng) = (cfg.actions, &mut self.object_rng);
        let mut owners = Vec::new();
        match &self.shard {
            None => {
                self.sampler.sample_distinct_into(rng, k, &mut scratch);
                objects.extend(scratch.iter().copied().map(ObjectId));
            }
            Some(ctx) => {
                let cross = rng.chance(cfg.cross_shard);
                match &ctx.samplers[node.0 as usize] {
                    Some(local) if !cross => {
                        local.sample_distinct_into(rng, k, &mut scratch);
                        objects.extend(scratch.iter().map(|&i| ctx.map.nth_hosted(node, i)));
                    }
                    _ => {
                        self.sampler.sample_distinct_into(rng, k, &mut scratch);
                        objects.extend(scratch.iter().copied().map(ObjectId));
                        objects
                            .sort_unstable_by_key(|o| (ctx.map.owner(ctx.map.shard_of(*o)).0, o.0));
                        for o in &objects {
                            let owner = ctx.map.owner(ctx.map.shard_of(*o));
                            if owners.last() != Some(&owner) {
                                owners.push(owner);
                            }
                        }
                    }
                }
            }
        }
        self.sample_scratch = scratch;
        (objects, owners)
    }

    /// Hand a finished transaction's object vector back to the pool.
    fn recycle_objects(&mut self, mut objects: Vec<ObjectId>) {
        objects.clear();
        self.objects_pool.push(objects);
    }

    /// Attempt the next action of transaction `id` (running at `node`):
    /// acquire the lock on `next`, then either work, wait, or die.
    /// `None` means every action is done and the transaction commits.
    /// The caller has the transaction's entry in hand and reads both
    /// off it, so the step itself needs no lookup.
    fn try_step(&mut self, k: &mut K<S>, id: TxnId, node: NodeId, next: Option<ObjectId>) {
        let Some(obj) = next else {
            self.commit(k, id);
            return;
        };
        match self.locks.acquire(id, obj) {
            Acquire::Granted => self.start_action(k, id, obj),
            Acquire::Waiting => {
                let since = k.lock_wait(&self.locks, node, id, obj);
                self.active
                    .get_mut(id)
                    .expect("waiting txn must be active")
                    .wait_started = Some(since);
            }
            Acquire::Deadlock => {
                k.deadlock(&self.locks, node, id, M_ABORTS, true);
                self.abort(k, id);
            }
        }
    }

    /// `id` holds the lock on `obj`: the action's service time starts
    /// now. The profile's replica fan-out is modelled as work (the
    /// service time, and `updates_per_action` object updates), not as
    /// messages: only the commit protocol sends, through the kernel.
    fn start_action(&mut self, k: &mut K<S>, id: TxnId, obj: ObjectId) {
        if k.measuring() {
            k.metrics.actions.add(self.profile.updates_per_action);
        }
        self.record_read(k, id, obj);
        k.schedule_after(self.profile.work_per_action, Ev::StepDone(id));
        self.o2pl_piggy(k, id);
    }

    fn on_step_done(&mut self, k: &mut K<S>, id: TxnId) {
        // A crash can abort the transaction while its StepDone is in
        // flight; the orphan event is simply dropped.
        let Some(txn) = self.active.get_mut(id) else {
            return;
        };
        txn.next += 1;
        let (node, next) = (txn.node, txn.objects.get(txn.next).copied());
        self.try_step(k, id, node, next);
    }

    fn commit(&mut self, k: &mut K<S>, id: TxnId) {
        if self.active.get(id).is_some_and(|t| t.owners.len() < 2) {
            // Local and single-owner transactions skip the commit
            // protocol entirely: no coordinator, no messages.
            self.finish_commit_local(k, id, false);
            return;
        }
        match k.cfg.commit_proto {
            CommitProto::OwnerOrder => self.commit_owner_order(k, id),
            CommitProto::TwoPc | CommitProto::O2pl => self.begin_commit_protocol(k, id),
        }
    }

    /// The client-visible local commit: metrics, trace, oracle records
    /// (for a protocol-engaged transaction, the cross-shard commit
    /// obligation too), lock release. Messages are counted at send
    /// time, not here.
    fn finish_commit_local(&mut self, k: &mut K<S>, id: TxnId, fenced: bool) {
        let txn = self
            .active
            .remove(id)
            .expect("locally committing unknown txn");
        if k.measuring() {
            k.metrics.committed.incr();
            k.metrics.record_latency(k.now().since(txn.started));
        }
        k.tracer
            .emit(|| Event::new(k.now(), txn.node, id, EventKind::TxnCommit));
        if k.recorder.is_on() {
            self.record_commit(k, id, txn.node, txn.reads);
            if txn.owners.len() >= 2 {
                k.recorder
                    .cross_commit(id, txn.node, txn.owners.clone(), fenced);
                if txn.owners.contains(&txn.node) {
                    k.recorder.shard_apply(id, txn.node);
                }
            }
        }
        self.recycle_objects(txn.objects);
        self.release_and_resume(k, id);
    }

    /// Mint successor versions and hand the commit to the oracle.
    fn record_commit(
        &mut self,
        k: &mut K<S>,
        id: TxnId,
        node: NodeId,
        reads: Vec<(ObjectId, Timestamp)>,
    ) {
        // Every locked object is read and updated (the model's
        // actions are updates): mint the successor versions now,
        // in commit order.
        let mut writes = Vec::with_capacity(reads.len());
        for &(obj, seen) in &reads {
            self.version_counter += 1;
            let new = Timestamp::new(self.version_counter, NodeId(0));
            self.versions[obj.0 as usize] = new;
            writes.push((obj, seen, new));
        }
        k.recorder.commit(
            node,
            TxnRecord {
                txn: id,
                reads,
                writes,
            },
        );
    }

    fn abort(&mut self, k: &mut K<S>, id: TxnId) {
        if let Some(txn) = self.active.remove(id) {
            self.recycle_objects(txn.objects);
        }
        self.release_and_resume(k, id);
    }

    /// Release `id`'s locks into the recycled scratch buffer and resume
    /// the promoted waiters — no allocation on the commit/abort path.
    fn release_and_resume(&mut self, k: &mut K<S>, id: TxnId) {
        let mut granted = std::mem::take(&mut self.granted_scratch);
        self.locks.release_all_into(id, &mut granted);
        self.resume_granted(k, &granted);
        self.granted_scratch = granted;
    }

    /// The version a transaction observes when a lock is granted. Under
    /// strict two-phase locking nothing can change the object before
    /// the holder commits, so grant-time capture equals read-time.
    fn record_read(&mut self, k: &mut K<S>, id: TxnId, obj: ObjectId) {
        if !k.recorder.is_on() {
            return;
        }
        if self.versions.is_empty() {
            self.versions = vec![Timestamp::ZERO; k.cfg.db_size as usize];
        }
        let seen = self.versions[obj.0 as usize];
        self.active
            .get_mut(id)
            .expect("stepping txn must be active")
            .reads
            .push((obj, seen));
    }

    /// Waiters promoted by a release start their service time now.
    fn resume_granted(&mut self, k: &mut K<S>, granted: &[(TxnId, ObjectId)]) {
        for &(waiter, obj) in granted {
            // A crash point firing earlier in this loop (via the o2pl
            // piggyback path) may have aborted a later waiter; its
            // grant died with it.
            let Some(t) = self.active.get_mut(waiter) else {
                continue;
            };
            k.lock_granted(&mut t.wait_started);
            self.start_action(k, waiter, obj);
        }
    }

    // ---- cross-shard commit protocol ---------------------------------

    /// True iff the configured crash point targets `kind` and this is
    /// the `nth` time the run reaches that transition. Counts every
    /// reach (the fuzz campaign aims `nth` at any occurrence); never
    /// fires during the post-horizon drain.
    fn crash_fires(&mut self, k: &mut K<S>, kind: CrashKind) -> bool {
        let Some(ctx) = &mut self.shard else {
            return false;
        };
        if !k.is_live() {
            return false;
        }
        let Some(cp) = k.cfg.crash_point else {
            return false;
        };
        if cp.kind != kind {
            return false;
        }
        let i = kind_index(kind);
        let count = ctx.crash_counts[i];
        ctx.crash_counts[i] += 1;
        count == cp.nth
    }

    /// Crash `node` at an injected crash point and schedule its restart.
    fn crash_at_point(&mut self, k: &mut K<S>, node: NodeId) {
        let down = k.cfg.crash_point.map_or(5, |cp| cp.down_secs);
        self.node_down(k, node);
        k.schedule_restart(SimDuration::from_secs(down), node);
    }

    /// Put one protocol message on the wire. Whatever its fate, nothing
    /// is retransmitted here — the round timers own recovery (and
    /// owner-order `Apply` loss is the anomaly).
    fn proto_send(k: &mut K<S>, to: NodeId, msg: ProtoMsg) {
        let from = msg.sender();
        k.tracer
            .emit(|| Event::new(k.now(), from, msg.txn(), EventKind::MsgSent { to }));
        k.send(from, to, msg.txn(), msg);
    }

    /// Owner-order commit: commit locally, then fire-and-forget one
    /// `Apply` per remote owner. No votes, no durable decision, no
    /// acks — a drop or a crash in the window partial-commits.
    fn commit_owner_order(&mut self, k: &mut K<S>, id: TxnId) {
        let node = self.active.get(id).expect("committing unknown txn").node;
        if self.crash_fires(k, CrashKind::CoordPrePrepare) {
            self.crash_at_point(k, node);
            return;
        }
        if self.crash_fires(k, CrashKind::CoordPreDecisionLog) {
            self.crash_at_point(k, node);
            return;
        }
        let owners = self
            .active
            .get(id)
            .expect("committing unknown txn")
            .owners
            .clone();
        self.finish_commit_local(k, id, false);
        if self.crash_fires(k, CrashKind::CoordPostDecisionLog) {
            // Committed locally, Applies never sent: guaranteed
            // partial commit.
            self.crash_at_point(k, node);
            return;
        }
        for o in owners {
            if o != node {
                Self::proto_send(
                    k,
                    o,
                    ProtoMsg::Apply {
                        txn: id,
                        from: node,
                    },
                );
            }
        }
        if self.crash_fires(k, CrashKind::CoordPostPrepare) {
            self.crash_at_point(k, node);
        }
    }

    /// 2PC / O2PL commit: build the coordinator, seed any piggybacked
    /// votes, send `Prepare` to whoever still owes one.
    fn begin_commit_protocol(&mut self, k: &mut K<S>, id: TxnId) {
        let (node, owners, piggy) = {
            let t = self.active.get(id).expect("committing unknown txn");
            (t.node, t.owners.clone(), t.piggy.clone())
        };
        if self.crash_fires(k, CrashKind::CoordPrePrepare) {
            self.crash_at_point(k, node);
            return;
        }
        let participants: Vec<NodeId> = owners.iter().copied().filter(|o| *o != node).collect();
        let mut coord = Coordinator::new(participants);
        coord.begin();
        let mut decision = None;
        for v in &piggy {
            if let Some(d) = coord.vote(*v, true) {
                decision = Some(d);
            }
        }
        let unvoted = coord.unvoted();
        let ctx = self.shard.as_mut().expect("engaged implies sharded");
        ctx.pending.insert(id, PendingCoord { coord, node });
        // Exactly one timer chain per coordinator, armed here.
        k.schedule_retransmit(Ev::ProtoTimer(id));
        if let Some(d) = decision {
            // O2PL with every vote piggybacked: no Prepare round at all.
            self.on_decision(k, id, d);
            return;
        }
        for p in unvoted {
            Self::proto_send(
                k,
                p,
                ProtoMsg::Prepare {
                    txn: id,
                    coord: node,
                },
            );
        }
        if self.crash_fires(k, CrashKind::CoordPostPrepare) {
            self.crash_at_point(k, node);
        }
    }

    /// The coordinator's decision became final: log it durably (commit
    /// only — presumed abort logs nothing), commit or abort locally,
    /// distribute it.
    fn on_decision(&mut self, k: &mut K<S>, id: TxnId, d: Decision) {
        let (node, participants) = {
            let ctx = self.shard.as_mut().expect("decision without context");
            let Some(p) = ctx.pending.get(&id) else {
                return;
            };
            (p.node, p.coord.participants().to_vec())
        };
        match d {
            Decision::Commit => {
                if self.crash_fires(k, CrashKind::CoordPreDecisionLog) {
                    // Decided but not logged: the crash sweep aborts the
                    // transaction and recovery presumes abort —
                    // consistent on every shard.
                    self.crash_at_point(k, node);
                    return;
                }
                {
                    let ctx = self.shard.as_mut().expect("decision without context");
                    ctx.logs[node.0 as usize].log_decision(id, true, participants.clone());
                }
                self.finish_commit_local(k, id, true);
                if self.crash_fires(k, CrashKind::CoordPostDecisionLog) {
                    // Logged but not distributed: recovery resends.
                    self.crash_at_point(k, node);
                    return;
                }
                for p in participants {
                    Self::proto_send(
                        k,
                        p,
                        ProtoMsg::Decision {
                            txn: id,
                            coord: node,
                            commit: true,
                        },
                    );
                }
            }
            Decision::Abort => {
                if self.active.contains(id) {
                    let measuring = k.measuring();
                    if measuring {
                        k.metrics.incr_dist(crate::metrics::M_ABORTS);
                    }
                    k.tracer.emit(|| {
                        Event::new(
                            k.now(),
                            node,
                            id,
                            EventKind::TxnAbort {
                                reason: AbortReason::Conflict,
                            },
                        )
                    });
                    self.abort(k, id);
                }
                for p in participants {
                    Self::proto_send(
                        k,
                        p,
                        ProtoMsg::Decision {
                            txn: id,
                            coord: node,
                            commit: false,
                        },
                    );
                }
            }
        }
    }

    /// Participant receives `Prepare`: force-log the prepared record,
    /// vote yes, enter the in-doubt state until the decision arrives.
    fn on_prepare(&mut self, k: &mut K<S>, n: NodeId, txn: TxnId, coord: NodeId) {
        if self.crash_fires(k, CrashKind::PartPreVote) {
            self.crash_at_point(k, n);
            return;
        }
        let now = k.now();
        let fresh = {
            let ctx = self.shard.as_mut().expect("prepare without context");
            if matches!(
                ctx.logs[n.0 as usize].state(txn),
                Some(DecisionState::Decided { .. } | DecisionState::Done)
            ) {
                // Stale retransmit: the decision already landed here.
                return;
            }
            ctx.logs[n.0 as usize].log_prepared(txn, coord);
            let list = ctx.indoubt.entry(txn).or_default();
            let fresh = !list.iter().any(|(x, _)| *x == n);
            if fresh {
                list.push((n, now));
            }
            fresh
        };
        Self::proto_send(
            k,
            coord,
            ProtoMsg::Vote {
                txn,
                node: n,
                yes: true,
            },
        );
        if fresh {
            k.schedule_retransmit(Ev::InDoubtTimer(txn, n));
        }
        if self.crash_fires(k, CrashKind::PartPostVote) {
            self.crash_at_point(k, n);
        }
    }

    /// Coordinator receives a vote.
    fn on_vote(&mut self, k: &mut K<S>, n: NodeId, txn: TxnId, from: NodeId, yes: bool) {
        let decision = {
            let Some(ctx) = &mut self.shard else { return };
            let Some(p) = ctx.pending.get_mut(&txn) else {
                return;
            };
            if p.node != n {
                return;
            }
            p.coord.vote(from, yes)
        };
        if let Some(d) = decision {
            self.on_decision(k, txn, d);
        }
    }

    /// Participant receives the decision: log it durably (first time
    /// only), resolve the in-doubt wait, apply, ack. Duplicates re-ack
    /// without re-logging or re-applying.
    fn on_decision_msg(
        &mut self,
        k: &mut K<S>,
        n: NodeId,
        txn: TxnId,
        coord: NodeId,
        commit: bool,
    ) {
        let now = k.now();
        let (dup, wait) = {
            let ctx = self.shard.as_mut().expect("decision without context");
            let dup = matches!(
                ctx.logs[n.0 as usize].state(txn),
                Some(DecisionState::Decided { .. } | DecisionState::Done)
            );
            let mut wait = None;
            if !dup {
                ctx.logs[n.0 as usize].log_decision(txn, commit, Vec::new());
                if let Some(list) = ctx.indoubt.get_mut(&txn) {
                    if let Some(i) = list.iter().position(|(x, _)| *x == n) {
                        let (_, since) = list.remove(i);
                        wait = Some(now.since(since));
                    }
                    if list.is_empty() {
                        ctx.indoubt.remove(&txn);
                    }
                }
            }
            (dup, wait)
        };
        if let Some(w) = wait {
            if k.measuring() {
                k.metrics.record_dist(M_INDOUBT_WAIT, w);
            }
        }
        if !dup && commit {
            k.recorder.shard_apply(txn, n);
        }
        Self::proto_send(k, coord, ProtoMsg::Ack { txn, node: n });
    }

    /// Coordinator receives an ack; on the last one the entry is marked
    /// done and forgotten.
    fn on_ack(&mut self, n: NodeId, txn: TxnId, from: NodeId) {
        let Some(ctx) = &mut self.shard else { return };
        let Some(p) = ctx.pending.get_mut(&txn) else {
            return;
        };
        if p.node != n {
            return;
        }
        if p.coord.ack(from) {
            if p.coord.decision() == Some(Decision::Commit) {
                ctx.logs[n.0 as usize].mark_done(txn);
            }
            ctx.pending.remove(&txn);
        }
    }

    /// Coordinator answers an in-doubt participant. Presumed abort:
    /// with no durable decision and no live coordinator state, the
    /// answer is abort. A still-deciding transaction stays silent (the
    /// participant re-asks).
    fn on_decision_req(&mut self, k: &mut K<S>, n: NodeId, txn: TxnId, from: NodeId) {
        let durable = {
            let Some(ctx) = &self.shard else { return };
            match ctx.logs[n.0 as usize].state(txn) {
                Some(DecisionState::Decided { commit, .. }) => Some(*commit),
                Some(DecisionState::Done) => Some(true),
                _ => None,
            }
        };
        if let Some(commit) = durable {
            Self::proto_send(
                k,
                from,
                ProtoMsg::Decision {
                    txn,
                    coord: n,
                    commit,
                },
            );
            return;
        }
        let deciding = self.active.contains(txn)
            || self
                .shard
                .as_ref()
                .is_some_and(|c| c.pending.contains_key(&txn));
        if deciding {
            return;
        }
        Self::proto_send(
            k,
            from,
            ProtoMsg::Decision {
                txn,
                coord: n,
                commit: false,
            },
        );
    }

    /// Owner-order participant receives an `Apply`: record the shard
    /// apply for the atomicity oracle. (Reuses the participant crash
    /// points so the fuzz campaign exercises this edge too.)
    fn on_apply(&mut self, k: &mut K<S>, n: NodeId, txn: TxnId) {
        if self.crash_fires(k, CrashKind::PartPreVote) {
            self.crash_at_point(k, n);
            return;
        }
        k.recorder.shard_apply(txn, n);
        if self.crash_fires(k, CrashKind::PartPostVote) {
            self.crash_at_point(k, n);
        }
    }

    /// Coordinator retransmit tick: resend whatever round is stalled.
    fn on_proto_timer(&mut self, k: &mut K<S>, id: TxnId) {
        let (node, targets, round) = {
            let Some(ctx) = &self.shard else { return };
            let Some(p) = ctx.pending.get(&id) else {
                return;
            };
            if k.is_down(p.node) {
                return;
            }
            let (targets, round) = match p.coord.state() {
                CoordState::Preparing => (p.coord.unvoted(), None),
                CoordState::Decided(d) => (p.coord.unacked(), Some(d == Decision::Commit)),
                _ => return,
            };
            (p.node, targets, round)
        };
        for t in targets {
            match round {
                None => Self::proto_send(
                    k,
                    t,
                    ProtoMsg::Prepare {
                        txn: id,
                        coord: node,
                    },
                ),
                Some(commit) => Self::proto_send(
                    k,
                    t,
                    ProtoMsg::Decision {
                        txn: id,
                        coord: node,
                        commit,
                    },
                ),
            }
        }
        k.schedule_retransmit(Ev::ProtoTimer(id));
    }

    /// In-doubt participant tick: still no decision — ask again.
    fn on_indoubt_timer(&mut self, k: &mut K<S>, txn: TxnId, n: NodeId) {
        let coord = {
            let Some(ctx) = &self.shard else { return };
            if k.is_down(n) {
                // Recovery re-arms its own timer.
                return;
            }
            let still = ctx
                .indoubt
                .get(&txn)
                .is_some_and(|l| l.iter().any(|(x, _)| *x == n));
            if !still {
                return;
            }
            let Some(DecisionState::Prepared { coord }) = ctx.logs[n.0 as usize].state(txn) else {
                return;
            };
            *coord
        };
        Self::proto_send(k, coord, ProtoMsg::DecisionReq { txn, node: n });
        k.schedule_retransmit(Ev::InDoubtTimer(txn, n));
    }

    /// O2PL: when a lock grant is the transaction's *last* action at a
    /// remote owner, piggyback the prepare on it — the owner force-logs
    /// and its yes-vote is in hand before commit, shrinking the
    /// prepare round to the owners that still owe one (usually none).
    fn o2pl_piggy(&mut self, k: &mut K<S>, id: TxnId) {
        if k.cfg.commit_proto != CommitProto::O2pl {
            return;
        }
        let Some(shard) = &self.shard else { return };
        let Some(t) = self.active.get(id) else {
            return;
        };
        if t.owners.len() < 2 {
            return;
        }
        let i = t.next;
        let obj = t.objects[i];
        let owner = shard.map.owner(shard.map.shard_of(obj));
        if owner == t.node {
            return;
        }
        let last_of_run = i + 1 == t.objects.len()
            || shard.map.owner(shard.map.shard_of(t.objects[i + 1])) != owner;
        if !last_of_run || t.piggy.contains(&owner) {
            return;
        }
        let node = t.node;
        if self.crash_fires(k, CrashKind::PartPreVote) {
            self.crash_at_point(k, owner);
            return;
        }
        let now = k.now();
        let ctx = self.shard.as_mut().expect("checked above");
        ctx.logs[owner.0 as usize].log_prepared(id, node);
        ctx.indoubt.entry(id).or_default().push((owner, now));
        self.active
            .get_mut(id)
            .expect("checked above")
            .piggy
            .push(owner);
        k.schedule_retransmit(Ev::InDoubtTimer(id, owner));
        if self.crash_fires(k, CrashKind::PartPostVote) {
            self.crash_at_point(k, owner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Report;
    use repl_check::Recorder;
    use repl_model::Params;

    fn run_single(db: f64, tps: f64, actions: f64, horizon: u64, seed: u64) -> Report {
        let p = Params::new(db, 1.0, tps, actions, 0.01);
        let cfg = SimConfig::from_params(&p, horizon, seed);
        let profile = ContentionProfile::single_node(&cfg);
        ContentionSim::new(cfg, profile).run()
    }

    #[test]
    fn commit_rate_tracks_offered_load() {
        // Low contention: nearly everything commits; commit rate ≈ TPS.
        let r = run_single(100_000.0, 20.0, 4.0, 200, 1);
        assert!(
            (r.commit_rate - 20.0).abs() < 1.5,
            "commit rate {} should be ≈ 20",
            r.commit_rate
        );
        assert_eq!(r.reconciliations, 0);
    }

    #[test]
    fn latency_close_to_service_time() {
        // 4 actions × 10 ms = 40 ms with negligible queueing.
        let r = run_single(1_000_000.0, 5.0, 4.0, 200, 2);
        assert!(
            (r.mean_latency_secs - 0.04).abs() < 0.005,
            "latency {}",
            r.mean_latency_secs
        );
    }

    #[test]
    fn contention_produces_waits() {
        // Small database, heavy load: waits must appear.
        let r = run_single(50.0, 50.0, 4.0, 100, 3);
        assert!(r.waits > 0, "expected waits under contention");
    }

    #[test]
    fn severe_contention_produces_deadlocks() {
        // Kept below lock-capacity saturation (util ~0.5) so the open
        // system stays stable while still deadlocking regularly.
        let r = run_single(300.0, 60.0, 5.0, 100, 4);
        assert!(
            r.deadlocks > 0,
            "expected deadlocks under severe contention"
        );
    }

    #[test]
    fn deterministic_runs() {
        let a = run_single(100.0, 30.0, 4.0, 50, 7);
        let b = run_single(100.0, 30.0, 4.0, 50, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_single(100.0, 30.0, 4.0, 50, 1);
        let b = run_single(100.0, 30.0, 4.0, 50, 2);
        assert_ne!(a.committed, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn eager_profile_scales_action_count() {
        let p = Params::new(100_000.0, 4.0, 5.0, 4.0, 0.01);
        let cfg = SimConfig::from_params(&p, 100, 5);
        let r = ContentionSim::new(cfg, ContentionProfile::eager_serial(&cfg)).run();
        // Each committed action counts `nodes` updates: action rate ≈
        // TPS × Actions × Nodes² / Nodes-streams… total arrivals are
        // 4 nodes × 5 tps = 20 txn/s × 4 actions × 4 replicas = 320/s.
        assert!(
            (r.action_rate - 320.0).abs() < 30.0,
            "action rate {}",
            r.action_rate
        );
    }

    #[test]
    fn full_rf_sharded_run_identical_to_unsharded() {
        // rf = Nodes is full replication: the shard map is absent, the
        // profile numbers match, and the whole run is bit-identical.
        let p = Params::new(500.0, 4.0, 10.0, 4.0, 0.01);
        let cfg = SimConfig::from_params(&p, 60, 9);
        let sharded = cfg.with_shards(8, 0).with_cross_shard(0.3);
        let a = ContentionSim::new(cfg, ContentionProfile::eager_serial(&cfg)).run();
        let b = ContentionSim::new(sharded, ContentionProfile::eager_serial(&sharded)).run();
        assert_eq!(a, b);
    }

    #[test]
    fn partial_rf_shrinks_eager_fanout() {
        let p = Params::new(800.0, 8.0, 10.0, 4.0, 0.01);
        let cfg = SimConfig::from_params(&p, 60, 10)
            .with_shards(8, 2)
            .with_cross_shard(0.1);
        let profile = ContentionProfile::eager_serial(&cfg);
        assert_eq!(profile.updates_per_action, 2);
        assert_eq!(profile.work_per_action, cfg.action_time.saturating_mul(2));
        let r = ContentionSim::new(cfg, profile).run();
        assert!(r.committed > 0);
        // The fan-out is work; the messages are the cross-shard
        // commits' `Apply`s.
        assert!(r.messages > 0);
    }

    #[test]
    fn sharded_runs_are_deterministic() {
        let p = Params::new(400.0, 6.0, 15.0, 4.0, 0.01);
        let cfg = SimConfig::from_params(&p, 50, 11)
            .with_shards(6, 2)
            .with_cross_shard(0.25);
        let a = ContentionSim::new(cfg, ContentionProfile::lazy_master(&cfg)).run();
        let b = ContentionSim::new(cfg, ContentionProfile::lazy_master(&cfg)).run();
        assert_eq!(a, b);
        assert!(a.committed > 0);
    }

    #[test]
    fn warmup_excluded_from_window() {
        let p = Params::new(10_000.0, 1.0, 10.0, 4.0, 0.01);
        let cfg = SimConfig::from_params(&p, 100, 6).with_warmup(50);
        let r = ContentionSim::new(cfg, ContentionProfile::single_node(&cfg)).run();
        assert!((r.duration_secs - 50.0).abs() < 1e-9);
        // Rate still ≈ TPS even though only half the run is measured.
        assert!((r.commit_rate - 10.0).abs() < 2.0);
    }

    #[test]
    fn footprint_follows_the_live_population_not_the_horizon() {
        // The benchmark's `dense-full` single-node case: 8 × 20 TPS on
        // 2000 objects, ~48 k transactions at 300 s and ~384 k at
        // 2400 s, a handful of them alive at any moment.
        let footprint = |horizon: u64| {
            let p = Params::new(2000.0, 8.0, 20.0, 4.0, 0.01);
            let cfg = SimConfig::from_params(&p, horizon, 42);
            let mut sim = ContentionSim::new(cfg, ContentionProfile::single_node(&cfg));
            let report = sim.run_phases();
            (
                report.committed,
                sim.p.active.capacity(),
                sim.p.locks.txn_table_capacity(),
                sim.p.objects_pool.len(),
            )
        };
        let (short_commits, short_active, short_locks, short_pool) = footprint(300);
        let (long_commits, long_active, long_locks, long_pool) = footprint(2400);
        assert!(long_commits > 7 * short_commits);
        // Eight times the transactions, the same tables. The widest
        // live window of a longer run can be a little wider (an extreme
        // value creeps up with the sample size), which is worth at most
        // one doubling — never the 8× of a table that tracks ids.
        assert!(
            long_active <= 2 * short_active,
            "{short_active} → {long_active}"
        );
        assert!(
            long_locks <= 2 * short_locks,
            "{short_locks} → {long_locks}"
        );
        assert!(long_pool <= 2 * short_pool, "{short_pool} → {long_pool}");
        // The lock tables hold 31 and 35 entries at the two horizons.
        assert!(long_active <= 128 && long_locks <= 96 && long_pool <= 64);
    }

    // ---- cross-shard commit protocol -----------------------------

    use crate::engine::commit::CrashPoint;
    use repl_check::{Scheme, Violation};

    fn sharded_cfg(seed: u64) -> SimConfig {
        let p = Params::new(400.0, 6.0, 15.0, 4.0, 0.01);
        SimConfig::from_params(&p, 50, seed)
            .with_shards(6, 2)
            .with_cross_shard(0.4)
    }

    fn run_checked(cfg: SimConfig) -> (Report, repl_check::CheckReport) {
        let rec = Recorder::new(Scheme::Contention);
        let r = ContentionSim::new(cfg, ContentionProfile::lazy_master(&cfg))
            .with_recorder(rec.clone())
            .run();
        (r, rec.check())
    }

    #[test]
    fn two_pc_run_is_deterministic_and_atomic() {
        let cfg = sharded_cfg(21).with_commit_proto(CommitProto::TwoPc);
        let (a, ca) = run_checked(cfg);
        let (b, _) = run_checked(cfg);
        assert_eq!(a, b);
        assert!(a.committed > 0);
        assert!(ca.commits > 0);
        assert!(ca.violations.is_empty(), "{:?}", ca.violations);
    }

    #[test]
    fn single_shard_txns_skip_the_protocol() {
        // With no cross-shard transactions the protocol never engages:
        // a 2PC run is byte-identical to the owner-order one — same
        // commits, same message count, same everything.
        let p = Params::new(400.0, 6.0, 15.0, 4.0, 0.01);
        let base = SimConfig::from_params(&p, 50, 25)
            .with_shards(6, 2)
            .with_cross_shard(0.0);
        let a = ContentionSim::new(base, ContentionProfile::lazy_master(&base)).run();
        let two_pc = base.with_commit_proto(CommitProto::TwoPc);
        let b = ContentionSim::new(two_pc, ContentionProfile::lazy_master(&two_pc)).run();
        assert_eq!(a, b);
        assert!(a.committed > 0);
    }

    #[test]
    fn two_pc_costs_more_messages_than_owner_order() {
        // Owner-order sends one Apply per remote owner; 2PC sends
        // Prepare/Vote/Decision/Ack — four per participant.
        let base = sharded_cfg(22);
        let oo = ContentionSim::new(base, ContentionProfile::lazy_master(&base)).run();
        let two_pc = base.with_commit_proto(CommitProto::TwoPc);
        let tp = ContentionSim::new(two_pc, ContentionProfile::lazy_master(&two_pc)).run();
        assert!(
            tp.messages > oo.messages,
            "2pc {} vs owner-order {}",
            tp.messages,
            oo.messages
        );
    }

    #[test]
    fn o2pl_piggybacking_cuts_the_prepare_round() {
        // Every remote owner's prepare rides its last lock grant, so
        // O2PL usually skips the Prepare/Vote round entirely.
        let base = sharded_cfg(26);
        let two_pc = base.with_commit_proto(CommitProto::TwoPc);
        let o2pl = base.with_commit_proto(CommitProto::O2pl);
        let tp = ContentionSim::new(two_pc, ContentionProfile::lazy_master(&two_pc)).run();
        let o2 = ContentionSim::new(o2pl, ContentionProfile::lazy_master(&o2pl)).run();
        assert!(o2.committed > 0);
        assert!(
            o2.messages < tp.messages,
            "o2pl {} vs 2pc {}",
            o2.messages,
            tp.messages
        );
    }

    #[test]
    fn owner_order_under_message_drops_partial_commits() {
        // The unfenced baseline's Apply messages are fire-and-forget;
        // drops strand remote shards — the anomaly the atomicity
        // oracle exists to catch.
        let cfg = sharded_cfg(24);
        let plan = FaultPlan {
            drop_p: 0.4,
            ..FaultPlan::quiet(9)
        };
        let rec = Recorder::new(Scheme::Contention);
        let r = ContentionSim::new(cfg, ContentionProfile::lazy_master(&cfg))
            .with_faults(plan)
            .with_recorder(rec.clone())
            .run();
        assert!(r.committed > 0);
        let report = rec.check();
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::PartialCommit { .. })),
            "expected a partial commit, got {:?}",
            report.violations
        );
    }

    #[test]
    fn two_pc_survives_message_drops_atomically() {
        // Same chaos, fenced protocol: retransmit timers and the
        // durable decision log keep every hosting shard consistent.
        let cfg = sharded_cfg(24).with_commit_proto(CommitProto::TwoPc);
        let plan = FaultPlan {
            drop_p: 0.4,
            ..FaultPlan::quiet(9)
        };
        let rec = Recorder::new(Scheme::Contention);
        let r = ContentionSim::new(cfg, ContentionProfile::lazy_master(&cfg))
            .with_faults(plan)
            .with_recorder(rec.clone())
            .run();
        assert!(r.committed > 0);
        assert!(r.messages_dropped > 0, "the plan must actually drop");
        let report = rec.check();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn coordinator_crash_mid_prepare_presumes_abort() {
        // Crash the first coordinator right after its Prepare round:
        // the decision was never logged, so recovery answers the
        // in-doubt participants with presumed abort — atomic on every
        // shard (no partial commit, no lost decision).
        let cfg = sharded_cfg(23)
            .with_commit_proto(CommitProto::TwoPc)
            .with_crash_point(CrashPoint {
                kind: CrashKind::CoordPostPrepare,
                nth: 0,
                down_secs: 3,
            });
        let (r, report) = run_checked(cfg);
        assert!(r.node_crashes >= 1, "crash point must fire");
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn two_pc_crash_points_are_deterministic() {
        let cfg = sharded_cfg(27)
            .with_commit_proto(CommitProto::TwoPc)
            .with_crash_point(CrashPoint {
                kind: CrashKind::CoordPostDecisionLog,
                nth: 1,
                down_secs: 2,
            });
        let (a, ra) = run_checked(cfg);
        let (b, rb) = run_checked(cfg);
        assert_eq!(a, b);
        assert_eq!(ra.violations.len(), rb.violations.len());
        assert!(ra.violations.is_empty(), "{:?}", ra.violations);
    }
}
