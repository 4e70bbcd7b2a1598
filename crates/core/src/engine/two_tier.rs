//! Two-tier replication — §7 of the paper, the proposed solution.
//!
//! * **Base nodes** are always connected and master (most) objects. All
//!   real updates happen in *base transactions* executed with locking
//!   against the master copies — a lazy-master discipline, so the base
//!   deadlock rate follows equation (19) and the master state is always
//!   the result of a serializable execution (no system delusion).
//! * **Mobile nodes** are disconnected much of the time. While
//!   disconnected they run *tentative transactions* against local
//!   tentative versions and log `(input parameters, tentative results)`.
//!   On reconnect they (1) discard tentative versions, (2) receive the
//!   deferred replica refreshes, (3) re-submit their tentative
//!   transactions in commit order, one sync message to the primary
//!   carrying the whole queue; the base re-executes each as a base
//!   transaction and judges it with its **acceptance criterion** —
//!   failures are the two-tier analogue of reconciliation, and they are
//!   *zero when transactions commute*.
//!
//! # The replicated base tier
//!
//! The base nodes are one primary and its backups. Base node 0 is the
//! primary of epoch 1. Every commit at the primary takes the next log
//! sequence number (LSN) and its refresh carries `(epoch, lsn)`; on a
//! full layout every backup applies every refresh, so that stream is
//! the replication log. A backup fences a refresh from an older epoch
//! and tracks its head: the highest LSN below which every refresh has
//! been applied. Mobiles never fence.
//!
//! When the primary crashes, the base transactions in flight abort (a
//! tentative re-execution goes back to the front of its mobile's queue)
//! and the next base-bound request — an arrival at a base node or a
//! connected mobile, or a sync — elects a successor among the live base
//! nodes ([`crate::election`]: a quorum of the base, longest head
//! wins). The winner's replica becomes the master, the other live base
//! nodes copy it, and the sessions the crash cut short resume. Below a
//! quorum, or cut off from the primary by a partition, a base node
//! aborts what arrives and a mobile runs it tentatively. A restarted
//! base node rejoins as a backup: it adopts the current epoch, replays
//! its parked mail (fencing what a deposed primary sent) and catches
//! up.
//!
//! A commit is acknowledged once it is sent, not once a majority holds
//! it, so a primary that is cut off or loses refreshes and then crashes
//! takes acknowledged commits with it; the recorder's durability oracle
//! reports them.

use crate::config::SimConfig;
use crate::election::{self, Candidate};
use crate::engine::kernel::{self, applies, full_mask, Kernel, Protocol, Sent, Sim};
use crate::metrics::{
    Report, M_ABORTS, M_EPOCH_FENCED, M_FAILOVER_UNAVAILABILITY, M_RECONCILIATION_DELAY, M_RETRIES,
};
use crate::op::{Op, Operation};
use crate::txn::{Criterion, TxnSpec};
use repl_check::{CriterionKind, Scheme, TxnRecord};
use repl_net::FaultPlan;
use repl_sim::{SimDuration, SimRng, SimTime};
use repl_storage::{
    Acquire, ApplyOutcome, LamportClock, LockManager, NodeId, ObjectId, ObjectStore, ShardMap,
    TentativeStore, Timestamp, TxnId, TxnTable, Value,
};
use repl_telemetry::{AbortReason, Event, EventKind};
use std::collections::{BTreeSet, VecDeque};
use std::rc::Rc;

/// Transaction-design regimes for the two-tier workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TwoTierWorkload {
    /// `Add`/`Debit` transformations judged with
    /// [`Criterion::ExactMatch`]: the base re-execution must reproduce
    /// the tentative outputs exactly, so *any* concurrent update to a
    /// touched object rejects the transaction — the test the paper
    /// calls "probably too pessimistic".
    ExactMatch {
        /// Largest single credit/debit amount.
        max_amount: i64,
    },
    /// Commutative `Add`/`Debit` transformations judged with
    /// [`Criterion::NonNegative`] — the paper's design guidance
    /// ("tentative transactions are designed to commute"): the base
    /// result may differ from the tentative one, it only has to keep
    /// the balance non-negative.
    Commutative {
        /// Largest single credit/debit amount.
        max_amount: i64,
    },
}

/// Configuration of a two-tier run.
#[derive(Debug, Clone, Copy)]
pub struct TwoTierConfig {
    /// Shared simulation parameters. `cfg.nodes` is the **total** node
    /// count; the first `base_nodes` are base, the rest mobile.
    pub sim: SimConfig,
    /// How many of the nodes are always-connected base nodes (≥ 1).
    pub base_nodes: u32,
    /// Objects mastered at each mobile node (the scope rule's
    /// mobile-mastered items). The remaining objects are base-mastered.
    pub mobile_owned: u64,
    /// Mean connected stretch for mobile nodes.
    pub connected: SimDuration,
    /// Mean disconnected stretch for mobile nodes.
    pub disconnected: SimDuration,
    /// Transaction design regime.
    pub workload: TwoTierWorkload,
    /// Initial integer value of every object (account opening balance).
    pub initial_value: i64,
}

impl TwoTierConfig {
    /// Number of mobile nodes.
    pub fn mobile_nodes(&self) -> u32 {
        self.sim.nodes - self.base_nodes
    }

    /// Number of base-mastered objects.
    pub fn base_owned(&self) -> u64 {
        self.sim
            .db_size
            .saturating_sub(self.mobile_owned * u64::from(self.mobile_nodes()))
    }
}

/// What one base commit fans out: its committed update list, shared
/// (reference-counted) by every recipient's message. The engine is
/// single-threaded — `Rc` is deliberate.
#[derive(Debug)]
struct Refresh {
    /// The primary that committed it.
    from: NodeId,
    /// The epoch it was committed in, and its place in that primary's
    /// log.
    epoch: u64,
    lsn: u64,
    /// When the base broadcast this refresh. Held and duplicated copies
    /// share the original stamp, so apply-time lag includes the time a
    /// mobile spent disconnected — the staleness the paper's two-tier
    /// replicas actually see.
    sent_at: SimTime,
    updates: Vec<(ObjectId, Value, Timestamp)>,
}

/// Replica refresh message: committed master updates streamed to
/// replicas (standard lazy-master propagation). Two words, so a queued
/// delivery stays as small as a step event.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct RefreshMsg {
    refresh: Rc<Refresh>,
    /// Which of the refresh's updates this destination applies (see
    /// [`applies`]): the ones it hosts under a partial layout, every
    /// one otherwise.
    mask: u64,
}

/// What two-tier puts on the wire.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub enum Msg {
    /// Primary → every replica: a base commit's refresh.
    Refresh(RefreshMsg),
    /// Mobile → primary, once per reconnect: the mobile ships its
    /// queued tentative transactions for re-execution (§7 step 3).
    Sync(NodeId),
}

/// A tentative transaction awaiting base re-execution.
#[derive(Debug, Clone)]
struct Pending {
    spec: TxnSpec,
    tentative_results: Vec<(ObjectId, Value)>,
    /// When the mobile committed this tentatively — the start of the
    /// reconciliation-delay window closed by the base verdict.
    committed_at: SimTime,
}

/// A base transaction in flight.
#[derive(Debug, Default)]
struct BaseTxn {
    /// The node the work originated at (stamps trace events): the
    /// arrival node for direct executions, the mobile for tentative
    /// re-executions.
    origin: NodeId,
    spec: TxnSpec,
    /// `Some` when this is the re-execution of a tentative transaction.
    tentative_results: Option<Vec<(ObjectId, Value)>>,
    /// When the tentative original committed at the mobile (`Some` iff
    /// `tentative_results` is).
    tentative_at: Option<SimTime>,
    next: usize,
    buffered: Vec<(ObjectId, Value)>,
    /// `(object, master version observed)` per first access — feeds
    /// the serializability oracle. Empty unless a recorder is on.
    reads: Vec<(ObjectId, Timestamp)>,
    started: SimTime,
    /// When this transaction last blocked on a master lock (cleared on
    /// grant; feeds the lock-wait distribution).
    wait_started: Option<SimTime>,
    /// When part of a reconnect sync session, the mobile whose queue
    /// should supply the next transaction after this one finishes.
    session: Option<NodeId>,
}

/// A base node's place in the replication log. Its replica (in
/// `TwoTier::replicas`) is what the refresh stream built.
#[derive(Debug, Clone, Default)]
struct BaseNode {
    /// The highest LSN such that every LSN up to it has been applied.
    head: u64,
    /// LSNs applied out of order, above `head` (a dropped refresh is
    /// resent after those sent behind it).
    above: BTreeSet<u64>,
}

impl BaseNode {
    /// The refresh at `lsn` was applied.
    fn applied(&mut self, lsn: u64) {
        if lsn == self.head + 1 {
            self.head = lsn;
            while self.above.remove(&(self.head + 1)) {
                self.head += 1;
            }
        } else if lsn > self.head {
            self.above.insert(lsn);
        }
    }

    /// The node now holds exactly the log up to `head`.
    fn reset(&mut self, head: u64) {
        self.head = head;
        self.above.clear();
    }
}

/// What a node has yet to get onto the wire. Durable, like the log.
#[derive(Debug, Default)]
struct Outbox {
    /// Refreshes the injector dropped, with their destinations.
    refreshes: Vec<(NodeId, RefreshMsg)>,
    /// A mobile's sync that was dropped, or found no primary.
    sync: bool,
    /// An [`Ev::Resend`] for this node is in the queue. One is enough
    /// however many messages wait: it resends them all.
    armed: bool,
}

impl Outbox {
    /// Arm `node`'s one retransmit timer, unless it is armed already.
    fn arm(&mut self, k: &mut K, node: NodeId) {
        if !std::mem::replace(&mut self.armed, true) {
            k.schedule_retransmit(Ev::Resend(node));
        }
    }
}

/// The two-tier protocol's private events.
#[doc(hidden)]
#[derive(Debug)]
pub enum Ev {
    /// A base transaction finished one action's service time.
    BaseStep(TxnId),
    /// A deadlocked base transaction re-runs from scratch.
    BaseRetry(TxnId),
    /// A node's retransmit timer: resend its outbox.
    Resend(NodeId),
}

/// The two-tier simulator.
pub type TwoTierSim = Sim<TwoTier>;

type K = Kernel<TwoTier>;

/// The two-tier protocol's state.
pub struct TwoTier {
    cfg: TwoTierConfig,
    /// The base system state: union of all master copies, as the
    /// primary holds it.
    master: ObjectStore,
    master_locks: LockManager,
    master_clock: LamportClock,
    /// The primary, `None` from its crash until the next election.
    primary: Option<NodeId>,
    /// The current epoch, and the primary's log head in it.
    epoch: u64,
    lsn: u64,
    /// Per base node: its log head.
    base: Vec<BaseNode>,
    /// When the primary crashed, while no successor is elected.
    down_since: Option<SimTime>,
    /// Mobiles whose sync session a primary crash cut short; the next
    /// election resumes them.
    cut: Vec<NodeId>,
    /// Per-node replicas; mobile nodes use the tentative overlay.
    replicas: Vec<TentativeStore>,
    /// Per-mobile queue of tentative transactions not yet re-executed:
    /// the durable tentative log.
    pending: Vec<VecDeque<Pending>>,
    /// Active reconnect sync sessions (mobile → remaining queue drains
    /// through one base transaction at a time).
    in_session: Vec<bool>,
    /// Per node: whether its link is up by the mobility schedule, which
    /// a crash does not change.
    linked: Vec<bool>,
    /// Per node: what waits to be resent.
    outbox: Vec<Outbox>,
    /// In-flight base transactions, keyed by the kernel's ids: every
    /// event dispatch indexes a live-bounded ring instead of hashing a
    /// `TxnId`. A retry keeps its id.
    base_txns: TxnTable<BaseTxn>,
    object_rng: SimRng,
    value_rng: SimRng,
    retry_rng: SimRng,
    clocks: Vec<LamportClock>,
    /// Recycled buffer for lock-release promotions (commit/abort path).
    granted_scratch: Vec<(TxnId, ObjectId)>,
    /// Recycled staging buffer for the mail a reconnect releases.
    refresh_scratch: Vec<Msg>,
    /// Recycled `(destination, update mask)` list of the sharded
    /// refresh fan-out.
    dest_scratch: Vec<(NodeId, u64)>,
    /// Scratch for the workload sampler's distinct-object draw, and the
    /// recycled object list it is mapped into.
    sample_scratch: Vec<u64>,
    objects_scratch: Vec<ObjectId>,
    /// `Some` when the run uses a partial shard layout: replica stores
    /// hold only hosted objects, refresh fan-out filters per
    /// destination, and nodes sample their hosted subset. The master
    /// tier stays full — the base masters every object. `None` keeps
    /// every code path bit-identical to the unsharded run.
    shard: Option<ShardMap>,
    /// Per-node hosted-object counts (empty unless sharded).
    hosted_counts: Vec<u64>,
}

/// Map the engine's acceptance criterion onto the oracle layer's
/// independent re-implementation of the same rule.
fn criterion_kind(c: &Criterion) -> CriterionKind {
    match c {
        Criterion::AlwaysAccept => CriterionKind::AlwaysAccept,
        Criterion::NonNegative => CriterionKind::NonNegative,
        Criterion::AtMost(b) => CriterionKind::AtMost(*b),
        Criterion::ExactMatch => CriterionKind::ExactMatch,
    }
}

/// The master lock manager, sized for `db_size` objects.
fn master_locks(db_size: u64) -> LockManager {
    let mut lm = LockManager::new();
    lm.reserve_objects(db_size as usize);
    lm
}

impl TwoTierSim {
    /// Build a two-tier run.
    ///
    /// # Panics
    /// If `base_nodes` is zero or exceeds the total node count, or the
    /// mobile-owned slices do not fit in the database.
    pub fn new(cfg: TwoTierConfig) -> Self {
        assert!(cfg.base_nodes >= 1, "two-tier needs at least one base node");
        assert!(
            cfg.base_nodes <= cfg.sim.nodes,
            "base_nodes exceeds total nodes"
        );
        assert!(
            cfg.mobile_owned * u64::from(cfg.mobile_nodes()) < cfg.sim.db_size,
            "mobile-owned slices must leave base-mastered objects"
        );
        let sim = cfg.sim;
        sim.refuse_timeout("two-tier");
        let n = sim.nodes as usize;
        let mut k = Kernel::new(sim, sim.action_time, "tt-arrivals-", "two-tier");
        // Mobile disconnect schedules (staggered exponential periods).
        k.schedule_connectivity(cfg.base_nodes..sim.nodes, cfg.connected, cfg.disconnected);
        let initial = Value::Int(cfg.initial_value);
        let master = ObjectStore::filled(sim.db_size, None, initial);
        let shard = sim.shard_map();
        let hosted_counts: Vec<u64> = match &shard {
            Some(map) => (0..sim.nodes)
                .map(|i| map.hosted_objects(NodeId(i), sim.db_size))
                .collect(),
            None => Vec::new(),
        };
        let replicas = (0..n)
            .map(|node| {
                let layout = shard.as_ref().and_then(|m| m.layout(NodeId(node as u32)));
                TentativeStore::from_master(ObjectStore::filled(sim.db_size, layout, initial))
            })
            .collect();
        let p = TwoTier {
            master,
            master_locks: master_locks(sim.db_size),
            master_clock: LamportClock::new(NodeId(u32::MAX)),
            primary: Some(NodeId(0)),
            epoch: 1,
            lsn: 0,
            base: vec![BaseNode::default(); cfg.base_nodes as usize],
            down_since: None,
            cut: Vec::new(),
            replicas,
            pending: (0..n).map(|_| VecDeque::new()).collect(),
            in_session: vec![false; n],
            linked: vec![true; n],
            outbox: (0..n).map(|_| Outbox::default()).collect(),
            base_txns: TxnTable::new(),
            object_rng: SimRng::stream(sim.seed, "tt-objects"),
            value_rng: SimRng::stream(sim.seed, "tt-values"),
            retry_rng: SimRng::stream(sim.seed, "tt-retry"),
            clocks: (0..n)
                .map(|i| LamportClock::new(NodeId(i as u32)))
                .collect(),
            granted_scratch: Vec::new(),
            refresh_scratch: Vec::new(),
            dest_scratch: Vec::new(),
            sample_scratch: Vec::new(),
            objects_scratch: Vec::new(),
            shard,
            hosted_counts,
            cfg,
        };
        Sim { k, p }
    }

    /// Run, then reconnect every mobile node, finish every sync
    /// session, and deliver all refreshes so the whole system converges
    /// to the base state. Returns `(report, master, replicas)`.
    pub fn run_with_state(self) -> (Report, ObjectStore, Vec<ObjectStore>) {
        let (report, (master, replicas)) = self.run_to_state();
        (report, master, replicas)
    }
}

impl Protocol for TwoTier {
    type Ev = Ev;
    type Msg = Msg;
    /// `(master, replicas)`: the base state and every node's replica,
    /// converged to it.
    type State = (ObjectStore, Vec<ObjectStore>);
    const SCHEME: Scheme = Scheme::TwoTier;

    fn phase(ev: &kernel::Event<Self>, _live: bool) -> Option<&'static str> {
        use kernel::Event as W;
        Some(match ev {
            W::Arrive(_) => "two-tier/arrive",
            W::Proto(Ev::Resend(_)) => "two-tier/resend",
            W::Proto(_) => "two-tier/base-step",
            W::Deliver { .. } => "two-tier/deliver",
            W::Connectivity { .. } => "two-tier/connectivity",
            W::PartitionStart(_) | W::PartitionHeal => "two-tier/partition",
            W::Crash(_) | W::Restart(_) => "two-tier/crash",
        })
    }

    /// Message chaos on every link, partition windows, and crash
    /// windows for mobiles and — on a full layout — base nodes.
    ///
    /// # Panics
    /// If a crash window names a base node on a partial layout: a base
    /// replica there holds only its shards, so it cannot take over the
    /// master.
    fn attach_faults(&mut self, k: &mut K, plan: FaultPlan) {
        if self.shard.is_some() {
            if let Some(c) = plan.crashes.iter().find(|c| c.node.0 < self.cfg.base_nodes) {
                panic!(
                    "two-tier cannot crash base node {} on a partial layout: its replica \
                     holds only its shards, so it cannot take over the master",
                    c.node.0
                );
            }
        }
        k.install_injector(&plan);
        k.schedule_partition_windows(&plan);
        k.schedule_crash_windows(&plan);
    }

    fn arrive(&mut self, k: &mut K, node: NodeId) {
        let spec = self.gen_spec(node);
        let mobile = self.is_mobile(node);
        if mobile && !k.is_connected(node) {
            self.commit_tentative(k, node, spec);
        } else if self.reaches_primary(k, node) {
            // Connected node (base or mobile): run directly as a base
            // transaction — connected two-tier "operates much like a
            // lazy-master system".
            self.start_base_txn(k, node, spec, None, None, None);
        } else if mobile {
            // Connected, but no primary to run it: tentatively, as
            // when disconnected.
            self.commit_tentative(k, node, spec);
        } else {
            if k.measuring() {
                k.metrics.incr_dist(M_ABORTS);
            }
            let reason = AbortReason::Disconnect;
            k.tracer
                .emit(|| Event::system(k.now(), node, EventKind::TxnAbort { reason }));
        }
    }

    fn on_event(&mut self, k: &mut K, ev: Ev) {
        match ev {
            Ev::BaseStep(id) => self.on_base_step(k, id),
            Ev::BaseRetry(id) => self.try_base_step(k, id),
            // An offline node's outbox waits for its restart or
            // reconnect.
            Ev::Resend(node) => {
                self.outbox[node.0 as usize].armed = false;
                if k.is_connected(node) {
                    self.flush(k, node);
                }
            }
        }
    }

    /// Refreshes come from the primary that committed them, syncs from
    /// their mobile.
    fn parked(msg: &mut Msg) -> NodeId {
        match msg {
            Msg::Refresh(msg) => msg.refresh.from,
            Msg::Sync(mobile) => *mobile,
        }
    }

    fn deliver(&mut self, k: &mut K, to: NodeId, mut msg: Msg) {
        let from = Self::parked(&mut msg);
        k.tracer
            .emit(|| Event::system(k.now(), to, EventKind::MsgDelivered { from }));
        match msg {
            Msg::Refresh(msg) => {
                if self.is_mobile(to) || self.admit_refresh(k, to, &msg.refresh) {
                    self.apply_refresh(k, to, msg);
                }
            }
            // Step 3/5 at the base: re-execute the mobile's tentative
            // transactions in commit order, one at a time, unless a
            // session is already draining its queue.
            Msg::Sync(mobile) => {
                let m = mobile.0 as usize;
                if self.ensure_primary(k).is_none() {
                    // Below quorum: the sync waits for its retransmit.
                    self.outbox[m].sync = true;
                    self.outbox[m].arm(k, mobile);
                } else if !self.in_session[m] {
                    self.advance_session(k, mobile);
                }
            }
        }
    }

    fn link_change(&mut self, k: &mut K, node: NodeId, connected: bool) {
        self.linked[node.0 as usize] = connected;
        if connected && !k.is_down(node) {
            self.on_reconnect(k, node, false);
        }
    }

    /// A mobile loses its tentative overlay; its `pending` queue is the
    /// durable tentative log and survives. A primary is deposed.
    fn node_down(&mut self, k: &mut K, node: NodeId) {
        if k.is_down(node) {
            return;
        }
        k.crash(node);
        if self.is_mobile(node) {
            self.replicas[node.0 as usize].discard_tentative();
        } else if self.primary == Some(node) {
            self.depose(k, node);
        }
    }

    /// A mobile restarts and, if its link is up, reconnects. A base
    /// node rejoins as a backup: it adopts the current epoch, replays
    /// its parked mail (stale epochs are fenced), catches up with the
    /// primary and resends its outbox.
    fn node_up(&mut self, k: &mut K, node: NodeId) {
        let idx = node.0 as usize;
        if self.is_mobile(node) {
            if self.linked[idx] {
                self.on_reconnect(k, node, true);
            } else {
                k.restart(node, 0);
            }
            return;
        }
        self.deliver_parked(k, node, true);
        if self.primary.is_some() {
            self.catch_up(k, node);
        }
        self.flush(k, node);
    }

    /// Reconnect every mobile node, finish every sync session, and
    /// deliver all refreshes so the whole system converges to the base
    /// state. Every base node is up again, so a primary is elected
    /// first if there is none.
    fn begin_drain(&mut self, k: &mut K) -> Option<SimTime> {
        self.ensure_primary(k);
        for node in self.cfg.base_nodes..self.cfg.sim.nodes {
            self.on_reconnect(k, NodeId(node), false);
        }
        Some(SimTime(u64::MAX))
    }

    fn finish(self, k: &mut K) -> (ObjectStore, Vec<ObjectStore>) {
        let replicas: Vec<ObjectStore> = self
            .replicas
            .into_iter()
            .map(|mut t| {
                t.discard_tentative();
                t.master().clone()
            })
            .collect();
        if k.recorder.is_on() {
            k.recorder.final_head(self.lsn);
            k.recorder.final_master(&self.master);
            for (i, store) in replicas.iter().enumerate() {
                k.recorder.final_store(NodeId(i as u32), store);
            }
        }
        (self.master, replicas)
    }
}

impl TwoTier {
    fn is_mobile(&self, node: NodeId) -> bool {
        node.0 >= self.cfg.base_nodes
    }

    // ------------------------------------------------------------------
    // Workload generation
    // ------------------------------------------------------------------

    /// Fill `objects` with what a transaction at `node` touches,
    /// respecting the scope rule: base nodes use base-mastered objects;
    /// mobile nodes use base-mastered plus their own mobile-mastered
    /// slice.
    fn pick_objects(&mut self, node: NodeId, objects: &mut Vec<ObjectId>) {
        objects.clear();
        let base_owned = self.cfg.base_owned();
        let actions = self.cfg.sim.actions;
        let mobile = self.is_mobile(node);
        let mut scratch = std::mem::take(&mut self.sample_scratch);
        if let Some(map) = &self.shard {
            // Sharded workload: a node works against its hosted subset.
            // Base nodes additionally run cross-shard transactions at
            // the configured rate, straight against the full master
            // (the base tier masters everything, so any object is in
            // scope there). Mobile nodes never draw outside their
            // hosted shards — a tentative write needs a local replica
            // slot to land in.
            let cross = !mobile && self.object_rng.chance(self.cfg.sim.cross_shard);
            let hosted = self.hosted_counts[node.0 as usize];
            if cross || (!mobile && hosted < actions as u64) {
                self.object_rng
                    .sample_distinct_into(self.cfg.sim.db_size, actions, &mut scratch);
                objects.extend(scratch.iter().copied().map(ObjectId));
            } else if hosted > 0 {
                // A mobile hosting fewer objects than one transaction
                // touches just runs a shorter transaction (and under a
                // degenerate placement, fewer shards than nodes, one
                // hosting nothing issues no work).
                let k = actions.min(hosted as usize);
                self.object_rng
                    .sample_distinct_into(hosted, k, &mut scratch);
                objects.extend(scratch.iter().map(|&i| map.nth_hosted(node, i)));
            }
        } else if mobile && self.cfg.mobile_owned > 0 {
            let mobile_index = u64::from(node.0 - self.cfg.base_nodes);
            let own_start = base_owned + mobile_index * self.cfg.mobile_owned;
            let virtual_size = base_owned + self.cfg.mobile_owned;
            self.object_rng
                .sample_distinct_into(virtual_size, actions, &mut scratch);
            objects.extend(scratch.iter().map(|&v| {
                if v < base_owned {
                    ObjectId(v)
                } else {
                    ObjectId(own_start + (v - base_owned))
                }
            }));
        } else {
            self.object_rng
                .sample_distinct_into(base_owned.max(1), actions, &mut scratch);
            objects.extend(scratch.iter().copied().map(ObjectId));
        }
        self.sample_scratch = scratch;
    }

    /// Build a transaction spec for `node`. For the commutative
    /// workload, debit amounts are bounded by the balance the issuing
    /// node currently *believes* in (`local view`) — you do not write a
    /// check your own checkbook says you cannot afford.
    fn gen_spec(&mut self, node: NodeId) -> TxnSpec {
        let mut objects = std::mem::take(&mut self.objects_scratch);
        self.pick_objects(node, &mut objects);
        let mut ops = Vec::with_capacity(objects.len());
        let criterion = match self.cfg.workload {
            TwoTierWorkload::ExactMatch { max_amount } => {
                for &o in &objects {
                    let amt = 1 + self.value_rng.gen_range(max_amount.max(1) as u64) as i64;
                    let credit = self.value_rng.chance(0.5);
                    ops.push(Operation::new(
                        o,
                        if credit { Op::Add(amt) } else { Op::Debit(amt) },
                    ));
                }
                Criterion::ExactMatch
            }
            TwoTierWorkload::Commutative { max_amount } => {
                for &o in &objects {
                    // A base node's cross-shard draw may touch objects
                    // its partial replica does not host; its view is
                    // then the master copy (base nodes sit next to it).
                    let replica = &self.replicas[node.0 as usize];
                    let view = if replica.master().hosts(o) {
                        replica.read(o)
                    } else {
                        self.master.get(o)
                    }
                    .value
                    .as_int();
                    let credit = self.value_rng.chance(0.5);
                    if credit || view <= 0 {
                        let amt = 1 + self.value_rng.gen_range(max_amount.max(1) as u64) as i64;
                        ops.push(Operation::new(o, Op::Add(amt)));
                    } else {
                        // Never debit more than the issuing node's own
                        // view of the balance — you do not knowingly
                        // overdraw your own checkbook.
                        let cap = view.min(max_amount) as u64;
                        let amt = 1 + self.value_rng.gen_range(cap) as i64;
                        ops.push(Operation::new(o, Op::Debit(amt.min(view))));
                    }
                }
                Criterion::NonNegative
            }
        };
        self.objects_scratch = objects;
        TxnSpec::new(ops).with_criterion(criterion)
    }

    /// Execute a tentative transaction locally and log it for later
    /// base re-execution.
    fn commit_tentative(&mut self, k: &mut K, node: NodeId, spec: TxnSpec) {
        let idx = node.0 as usize;
        let mut results = Vec::with_capacity(spec.ops.len());
        for op in &spec.ops {
            let current = self.replicas[idx].read(op.object).value;
            let new = op.op.apply(&current);
            let ts = self.clocks[idx].tick();
            self.replicas[idx].write_tentative(op.object, new, ts);
            results.push((op.object, new));
        }
        if k.measuring() {
            k.metrics.tentative_commits.incr();
            k.metrics.actions.add(spec.ops.len() as u64);
        }
        k.tracer
            .emit(|| Event::system(k.now(), node, EventKind::TentativeCommit));
        self.pending[idx].push_back(Pending {
            spec,
            tentative_results: results,
            committed_at: k.now(),
        });
    }

    // ------------------------------------------------------------------
    // Base transactions
    // ------------------------------------------------------------------

    fn start_base_txn(
        &mut self,
        k: &mut K,
        origin: NodeId,
        spec: TxnSpec,
        tentative_results: Option<Vec<(ObjectId, Value)>>,
        tentative_at: Option<SimTime>,
        session: Option<NodeId>,
    ) {
        let id = k.mint_txn();
        let txn = BaseTxn {
            origin,
            buffered: Vec::with_capacity(spec.ops.len()),
            spec,
            tentative_results,
            tentative_at,
            next: 0,
            reads: Vec::new(),
            started: k.now(),
            wait_started: None,
            session,
        };
        self.base_txns.insert(id, txn);
        k.tracer
            .emit(|| Event::new(k.now(), origin, id, EventKind::TxnBegin));
        self.try_base_step(k, id);
    }

    fn try_base_step(&mut self, k: &mut K, id: TxnId) {
        // A primary crash aborts its base transactions and leaves their
        // steps and retries in the queue.
        let Some(txn) = self.base_txns.get(id) else {
            return;
        };
        if txn.next >= txn.spec.ops.len() {
            self.finish_base(k, id);
            return;
        }
        let obj = txn.spec.ops[txn.next].object;
        let origin = txn.origin;
        match self.master_locks.acquire(id, obj) {
            Acquire::Granted => {
                k.schedule_after(self.cfg.sim.action_time, Ev::BaseStep(id));
            }
            Acquire::Waiting => {
                let since = k.lock_wait(&self.master_locks, origin, id, obj);
                self.base_txns
                    .get_mut(id)
                    .expect("waiting base txn must be active")
                    .wait_started = Some(since);
            }
            Acquire::Deadlock => {
                // Base transactions are "resubmitted and reprocessed
                // until they succeed" (§7) — a deadlock is detected but
                // the transaction retries: each one counts as a
                // scheduled re-execution, and no TxnAbort follows.
                k.deadlock(&self.master_locks, origin, id, M_RETRIES, false);
                let txn = self.base_txns.get_mut(id).expect("base txn");
                txn.next = 0;
                txn.buffered.clear();
                txn.reads.clear();
                txn.wait_started = None;
                self.release_and_resume(k, id);
                // Randomized backoff — see the lazy-group engine: a
                // fixed delay can livelock two retrying transactions.
                let backoff = self
                    .cfg
                    .sim
                    .action_time
                    .saturating_mul(1 + self.retry_rng.gen_range(8));
                k.schedule_after(backoff, Ev::BaseRetry(id));
            }
        }
    }

    fn on_base_step(&mut self, k: &mut K, id: TxnId) {
        let Some(txn) = self.base_txns.get_mut(id) else {
            return;
        };
        let op = &txn.spec.ops[txn.next];
        // Read own buffered write if present, else the master copy.
        let current = match txn.buffered.iter().rev().find(|(o, _)| *o == op.object) {
            Some((_, v)) => *v,
            None => {
                let versioned = self.master.get(op.object);
                if k.recorder.is_on() {
                    txn.reads.push((op.object, versioned.ts));
                }
                versioned.value
            }
        };
        let new = op.op.apply(&current);
        txn.buffered.push((op.object, new));
        txn.next += 1;
        if k.measuring() {
            k.metrics.actions.incr();
        }
        self.try_base_step(k, id);
    }

    fn finish_base(&mut self, k: &mut K, id: TxnId) {
        let mut txn = self
            .base_txns
            .remove(id)
            .expect("finishing unknown base txn");
        let accepted = match &txn.tentative_results {
            Some(tentative) => txn.spec.criterion.accepts(&txn.buffered, tentative),
            None => txn.spec.criterion.accepts(&txn.buffered, &txn.buffered),
        };
        // Reconciliation delay: tentative commit at the mobile → base
        // verdict, whichever way the verdict goes.
        if k.measuring() {
            if let Some(t0) = txn.tentative_at {
                k.metrics
                    .record_dist(M_RECONCILIATION_DELAY, k.now().since(t0));
            }
        }
        if k.recorder.is_on() {
            let tentative = txn
                .tentative_results
                .as_deref()
                .unwrap_or(&txn.buffered)
                .to_vec();
            k.recorder.acceptance(
                id,
                criterion_kind(&txn.spec.criterion),
                txn.buffered.clone(),
                tentative,
                accepted,
            );
        }
        if accepted {
            // Install the buffered writes as the new master state and
            // propagate lazy-master refreshes. With a recorder on, hand
            // it the footprint (reads + version transitions) for the
            // serializability oracle.
            let recording = k.recorder.is_on();
            let mut updates = Vec::with_capacity(txn.buffered.len());
            let mut writes = Vec::with_capacity(if recording { txn.buffered.len() } else { 0 });
            for (obj, value) in &txn.buffered {
                let ts = self.master_clock.tick();
                let old = self.master.replace(*obj, *value, ts);
                updates.push((*obj, *value, ts));
                if recording {
                    writes.push((*obj, old.ts, ts));
                }
            }
            if recording {
                k.recorder.commit(
                    txn.origin,
                    TxnRecord {
                        txn: id,
                        reads: std::mem::take(&mut txn.reads),
                        writes,
                    },
                );
            }
            // The commit takes the primary's next LSN and is
            // acknowledged as it is sent.
            self.lsn += 1;
            k.recorder.acked(self.lsn, self.epoch);
            if k.measuring() {
                k.metrics.committed.incr();
                k.metrics.record_latency(k.now().since(txn.started));
                if txn.tentative_results.is_some() {
                    k.metrics.tentative_accepted.incr();
                }
            }
            k.tracer
                .emit(|| Event::new(k.now(), txn.origin, id, EventKind::TxnCommit));
            if txn.tentative_results.is_some() {
                k.tracer
                    .emit(|| Event::new(k.now(), txn.origin, id, EventKind::TentativeAccepted));
            }
            self.broadcast_refresh(k, updates);
        } else {
            if k.measuring() {
                k.metrics.reconciliations.incr();
                if txn.tentative_results.is_some() {
                    k.metrics.tentative_rejected.incr();
                }
            }
            k.tracer
                .emit(|| Event::new(k.now(), txn.origin, id, EventKind::Reconcile));
            if txn.tentative_results.is_some() {
                k.tracer
                    .emit(|| Event::new(k.now(), txn.origin, id, EventKind::TentativeRejected));
            }
        }
        self.release_and_resume(k, id);
        if let Some(mobile) = txn.session {
            self.advance_session(k, mobile);
        }
    }

    /// Release `id`'s master locks into the recycled scratch buffer and
    /// resume the promoted waiters — no allocation on this path.
    fn release_and_resume(&mut self, k: &mut K, id: TxnId) {
        let mut granted = std::mem::take(&mut self.granted_scratch);
        self.master_locks.release_all_into(id, &mut granted);
        self.resume_waiters(k, &granted);
        self.granted_scratch = granted;
    }

    fn resume_waiters(&mut self, k: &mut K, granted: &[(TxnId, ObjectId)]) {
        for &(waiter, _obj) in granted {
            if let Some(txn) = self.base_txns.get_mut(waiter) {
                k.lock_granted(&mut txn.wait_started);
                k.schedule_after(self.cfg.sim.action_time, Ev::BaseStep(waiter));
            }
        }
    }

    // ------------------------------------------------------------------
    // Replica refresh propagation (standard lazy-master)
    // ------------------------------------------------------------------

    fn broadcast_refresh(&mut self, k: &mut K, updates: Vec<(ObjectId, Value, Timestamp)>) {
        let from = self.primary.expect("a base commit has a primary");
        let (epoch, lsn, sent_at) = (self.epoch, self.lsn, k.now());
        let refresh = |updates| {
            Rc::new(Refresh {
                from,
                epoch,
                lsn,
                sent_at,
                updates,
            })
        };
        let full = refresh(updates);
        let Some(map) = &self.shard else {
            let mask = full_mask(full.updates.len());
            for dest in 0..self.cfg.sim.nodes {
                let refresh = full.clone();
                let msg = RefreshMsg { refresh, mask };
                Self::send(k, &mut self.outbox, from, NodeId(dest), Msg::Refresh(msg));
            }
            return;
        };
        // Partial replication: each destination receives only the
        // updates it hosts, and a commit touching none of its shards
        // sends it nothing at all. Destinations ascend: the latency
        // stream is drawn per send.
        let mut dests = std::mem::take(&mut self.dest_scratch);
        map.fanout_masks(full.updates.iter().map(|&(obj, _, _)| obj), &mut dests);
        for (dest, mask) in dests.drain(..) {
            let msg = if full.updates.len() > 64 {
                // Wider than the mask: send a pre-filtered copy.
                let hosted = full.updates.iter();
                let hosted = hosted.filter(|(obj, _, _)| map.hosts_object(dest, *obj));
                RefreshMsg {
                    refresh: refresh(hosted.cloned().collect()),
                    mask: u64::MAX,
                }
            } else {
                let refresh = full.clone();
                RefreshMsg { refresh, mask }
            };
            Self::send(k, &mut self.outbox, from, dest, Msg::Refresh(msg));
        }
        self.dest_scratch = dests;
    }

    /// Send `msg` from `from` to `to`: a refresh from the primary, or a
    /// sync from a mobile that has just reconnected. Refreshes are
    /// last-writer-wins and carry absolute values, so a duplicate is
    /// absorbed by the timestamp comparison. A dropped message waits in
    /// its sender's outbox for the sender's one retransmit timer, and a
    /// held one is parked by the kernel. Nothing is sent from a node
    /// that is offline: a primary is up, a restarted node and a
    /// reconnected mobile are back on the network first, and a resend
    /// waits for its sender to be.
    fn send(k: &mut K, outbox: &mut [Outbox], from: NodeId, to: NodeId, msg: Msg) {
        k.tracer
            .emit(|| Event::system(k.now(), from, EventKind::MsgSent { to }));
        let kept = msg.clone();
        let sent = k.send(from, to, TxnId::default(), msg);
        debug_assert_ne!(sent, Sent::SenderOffline, "senders send only online");
        if sent == Sent::Dropped {
            let out = &mut outbox[from.0 as usize];
            match kept {
                Msg::Refresh(msg) => out.refreshes.push((to, msg)),
                Msg::Sync(_) => out.sync = true,
            }
            out.arm(k, from);
        }
    }

    /// Resend what `node`'s outbox holds: its dropped refreshes and a
    /// mobile's sync.
    fn flush(&mut self, k: &mut K, node: NodeId) {
        let out = &mut self.outbox[node.0 as usize];
        let refreshes = std::mem::take(&mut out.refreshes);
        let sync = std::mem::take(&mut out.sync);
        for (to, msg) in refreshes {
            Self::send(k, &mut self.outbox, node, to, Msg::Refresh(msg));
        }
        if sync {
            self.send_sync(k, node);
        }
    }

    /// A base node takes a refresh only from the current epoch, fencing
    /// a deposed primary's. (Every base node that can take mail is in
    /// the current epoch: the live ones joined it at the election, the
    /// crashed ones join it at their restart.) Returns whether to apply
    /// the refresh, having advanced the node's head.
    fn admit_refresh(&mut self, k: &mut K, node: NodeId, refresh: &Refresh) -> bool {
        if refresh.epoch < self.epoch {
            if k.measuring() {
                k.metrics.incr_dist(M_EPOCH_FENCED);
            }
            let (stale, current) = (refresh.epoch, self.epoch);
            k.tracer
                .emit(|| Event::system(k.now(), node, EventKind::EpochFenced { stale, current }));
            return false;
        }
        // A partial replica sees only the commits it hosts: it has no
        // contiguous log, and never takes over.
        if self.shard.is_none() {
            self.base[node.0 as usize].applied(refresh.lsn);
        }
        true
    }

    fn apply_refresh(&mut self, k: &mut K, to: NodeId, msg: RefreshMsg) {
        let store = self.replicas[to.0 as usize].master_mut();
        let mut applied = false;
        for (i, &(obj, ref value, ts)) in msg.refresh.updates.iter().enumerate() {
            if !applies(msg.mask, i) {
                continue;
            }
            let fresh = store.apply_lww(obj, ts, *value);
            applied |= fresh;
            let outcome = if fresh {
                ApplyOutcome::Applied
            } else {
                ApplyOutcome::Duplicate
            };
            k.recorder.replica_apply(to, obj, ts, outcome);
        }
        if applied && k.measuring() {
            k.metrics.replica_commits.incr();
            // Propagation lag of fresh data: broadcast → apply. Held
            // refreshes carry the original send stamp, so disconnection
            // time is included — the replica's true staleness.
            k.record_propagation_lag(to, k.now().since(msg.refresh.sent_at));
        } else if !applied && k.measuring() {
            k.metrics.stale_updates.incr();
        }
        k.tracer.emit(|| {
            let kind = if applied {
                EventKind::ReplicaApply
            } else {
                EventKind::StaleSkip
            };
            Event::system(k.now(), to, kind)
        });
    }

    // ------------------------------------------------------------------
    // Mobile reconnect synchronization (§7's five steps)
    // ------------------------------------------------------------------

    /// `node` reconnects; `restart` when it is recovering from a crash.
    fn on_reconnect(&mut self, k: &mut K, node: NodeId, restart: bool) {
        // Step 1: discard tentative versions.
        self.replicas[node.0 as usize].discard_tentative();
        // Step 2/4: receive deferred replica refreshes, on the spot.
        self.deliver_parked(k, node, restart);
        // Step 3: ship the queued tentative transactions to the base,
        // one message for the whole queue.
        self.outbox[node.0 as usize].sync = false;
        self.send_sync(k, node);
    }

    /// Put `node` back on the network and deliver the mail parked for
    /// it on the spot; `restart` when it is recovering from a crash.
    /// The drain borrows the kernel, and delivering needs it too — stage
    /// through the recycled buffer.
    fn deliver_parked(&mut self, k: &mut K, node: NodeId, restart: bool) {
        let mut held = std::mem::take(&mut self.refresh_scratch);
        held.extend(k.reconnect(node));
        if restart {
            k.restart(node, held.len() as u64);
        }
        for msg in held.drain(..) {
            self.deliver(k, node, msg);
        }
        self.refresh_scratch = held;
    }

    /// Send `mobile`'s sync to the primary, electing one if the last
    /// died. Below quorum it waits for the mobile's retransmit.
    fn send_sync(&mut self, k: &mut K, mobile: NodeId) {
        match self.ensure_primary(k) {
            Some(primary) => Self::send(k, &mut self.outbox, mobile, primary, Msg::Sync(mobile)),
            None => {
                let out = &mut self.outbox[mobile.0 as usize];
                out.sync = true;
                out.arm(k, mobile);
            }
        }
    }

    /// Start the next queued tentative re-execution for `node`, or mark
    /// the session finished if the queue is empty. The queue reached
    /// the base with the session's sync message, so this sends nothing.
    fn advance_session(&mut self, k: &mut K, node: NodeId) {
        let idx = node.0 as usize;
        let Some(pending) = self.pending[idx].pop_front() else {
            self.in_session[idx] = false;
            return;
        };
        self.in_session[idx] = true;
        self.start_base_txn(
            k,
            node,
            pending.spec,
            Some(pending.tentative_results),
            Some(pending.committed_at),
            Some(node),
        );
    }

    // ------------------------------------------------------------------
    // Failover
    // ------------------------------------------------------------------

    /// Whether work arriving at `node` reaches a primary, electing one
    /// if the last died.
    fn reaches_primary(&mut self, k: &mut K, node: NodeId) -> bool {
        self.ensure_primary(k)
            .is_some_and(|primary| !k.is_partitioned(node, primary))
    }

    /// The primary, electing one first if the last died; `None` below
    /// quorum.
    fn ensure_primary(&mut self, k: &mut K) -> Option<NodeId> {
        if self.primary.is_none() {
            self.elect(k);
        }
        self.primary
    }

    /// The primary crashed. Its log is the master, so that is what its
    /// replica keeps. Every base transaction in flight aborts, and a
    /// tentative re-execution goes back to the front of its mobile's
    /// queue, its session cut short until the next election. Victims go
    /// in id order, which is begin order: table order depends on the
    /// table's capacity.
    fn depose(&mut self, k: &mut K, node: NodeId) {
        let idx = node.0 as usize;
        self.primary = None;
        self.down_since = Some(k.now());
        self.base[idx].reset(self.lsn);
        self.replicas[idx].master_mut().clone_from(&self.master);
        let mut in_flight: Vec<TxnId> = self.base_txns.iter().map(|(id, _)| id).collect();
        in_flight.sort_unstable();
        for id in in_flight {
            let txn = self.base_txns.remove(id).expect("listed base txn");
            let reason = AbortReason::Crash;
            k.tracer
                .emit(|| Event::new(k.now(), txn.origin, id, EventKind::TxnAbort { reason }));
            if let (Some(mobile), Some(tentative_results), Some(committed_at)) =
                (txn.session, txn.tentative_results, txn.tentative_at)
            {
                let m = mobile.0 as usize;
                self.pending[m].push_front(Pending {
                    spec: txn.spec,
                    tentative_results,
                    committed_at,
                });
                self.in_session[m] = false;
                self.cut.push(mobile);
            }
        }
        self.master_locks = master_locks(self.cfg.sim.db_size);
    }

    /// Elect a primary among the live base nodes: a quorum of the base
    /// must be up, and the longest head wins (lowest id on a tie). The
    /// winner's replica becomes the master, every other live base node
    /// copies it, and the sessions the crash cut short resume.
    fn elect(&mut self, k: &mut K) {
        let base_nodes = self.cfg.base_nodes;
        let live: Vec<Candidate> = (0..base_nodes)
            .map(NodeId)
            .filter(|&node| !k.is_down(node))
            .map(|node| Candidate {
                node,
                head: self.base[node.0 as usize].head,
            })
            .collect();
        if live.len() < election::quorum(base_nodes as usize) {
            return;
        }
        let winner = election::pick_candidate(&live).expect("a quorum is never empty");
        let leader = winner.node;
        self.epoch += 1;
        let epoch = self.epoch;
        self.primary = Some(leader);
        self.lsn = winner.head;
        self.master
            .clone_from(self.replicas[leader.0 as usize].master());
        if let Some(newest) = self.master.iter().map(|(_, v)| v.ts).max() {
            self.master_clock.observe(newest);
        }
        k.tracer
            .emit(|| Event::system(k.now(), leader, EventKind::LeaderElected { epoch, leader }));
        k.recorder.leader_elected(epoch, leader, winner.head);
        self.base[leader.0 as usize].reset(winner.head);
        for c in live.iter().filter(|c| c.node != leader) {
            self.catch_up(k, c.node);
        }
        let down = self.down_since.take().unwrap_or(k.now());
        if k.measuring() {
            k.metrics
                .record_dist(M_FAILOVER_UNAVAILABILITY, k.now().since(down));
        }
        for mobile in std::mem::take(&mut self.cut) {
            if !self.in_session[mobile.0 as usize] {
                self.advance_session(k, mobile);
            }
        }
    }

    /// Bring base node `node` up to the primary: copy the master and
    /// its log head, as an anti-entropy log transfer would.
    fn catch_up(&mut self, k: &mut K, node: NodeId) {
        let idx = node.0 as usize;
        let records = self.lsn.saturating_sub(self.base[idx].head);
        self.base[idx].reset(self.lsn);
        self.replicas[idx].master_mut().clone_from(&self.master);
        let epoch = self.epoch;
        k.tracer
            .emit(|| Event::system(k.now(), node, EventKind::CatchUpComplete { epoch, records }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeadlockPolicy;
    use repl_model::Params;

    fn base_cfg(
        nodes: f64,
        base: u32,
        db: f64,
        tps: f64,
        horizon: u64,
        seed: u64,
        workload: TwoTierWorkload,
    ) -> TwoTierConfig {
        let p = Params::new(db, nodes, tps, 4.0, 0.01);
        TwoTierConfig {
            sim: SimConfig::from_params(&p, horizon, seed),
            base_nodes: base,
            mobile_owned: 0,
            connected: SimDuration::from_secs(15),
            disconnected: SimDuration::from_secs(15),
            workload,
            initial_value: 1_000,
        }
    }

    #[test]
    fn commutative_workload_has_no_rejections_with_ample_balances() {
        // Large opening balances: debits never overdraw, everything
        // commutes → zero reconciliations (§7's key property 5).
        let mut cfg = base_cfg(
            4.0,
            2,
            500.0,
            5.0,
            120,
            1,
            TwoTierWorkload::Commutative { max_amount: 3 },
        );
        cfg.initial_value = 1_000_000;
        let (report, _, _) = TwoTierSim::new(cfg).run_with_state();
        assert!(report.tentative_commits > 0, "mobiles should work offline");
        assert!(report.tentative_accepted > 0);
        assert_eq!(
            report.tentative_rejected, 0,
            "commutative transactions must not be rejected"
        );
    }

    #[test]
    fn exact_match_workload_gets_rejections() {
        // Exact-match acceptance + contention: some base re-executions
        // must differ from the tentative run.
        let cfg = base_cfg(
            6.0,
            2,
            300.0,
            10.0,
            200,
            2,
            TwoTierWorkload::ExactMatch { max_amount: 20 },
        );
        let (report, _, _) = TwoTierSim::new(cfg).run_with_state();
        assert!(report.tentative_commits > 0);
        assert!(
            report.tentative_rejected > 0,
            "expected rejections: {report:?}"
        );
    }

    #[test]
    fn replicas_converge_to_base_state() {
        let cfg = base_cfg(
            5.0,
            2,
            200.0,
            8.0,
            120,
            3,
            TwoTierWorkload::Commutative { max_amount: 10 },
        );
        let (_, master, replicas) = TwoTierSim::new(cfg).run_with_state();
        let want = master.digest();
        for (i, r) in replicas.iter().enumerate() {
            assert_eq!(r.digest(), want, "node {i} did not converge to base state");
        }
    }

    #[test]
    fn nonnegative_criterion_keeps_base_balances_nonnegative() {
        // Small opening balances and aggressive debits: rejections will
        // occur, and the invariant must hold on the master state.
        let mut cfg = base_cfg(
            6.0,
            2,
            60.0,
            10.0,
            200,
            4,
            TwoTierWorkload::Commutative { max_amount: 500 },
        );
        cfg.initial_value = 100;
        let (report, master, _) = TwoTierSim::new(cfg).run_with_state();
        assert!(report.committed > 0);
        for (id, v) in master.iter() {
            let balance = v.value.as_int();
            assert!(balance >= 0, "{id} went negative: {balance}");
        }
    }

    #[test]
    fn mobile_owned_objects_respect_scope() {
        let mut cfg = base_cfg(
            4.0,
            2,
            100.0,
            5.0,
            60,
            5,
            TwoTierWorkload::Commutative { max_amount: 5 },
        );
        cfg.mobile_owned = 10;
        let (report, master, replicas) = TwoTierSim::new(cfg).run_with_state();
        assert!(report.committed > 0);
        let want = master.digest();
        assert!(replicas.iter().all(|r| r.digest() == want));
    }

    #[test]
    fn deterministic_runs() {
        let cfg = base_cfg(
            4.0,
            2,
            200.0,
            5.0,
            60,
            7,
            TwoTierWorkload::Commutative { max_amount: 5 },
        );
        let a = TwoTierSim::new(cfg).run();
        let b = TwoTierSim::new(cfg).run();
        assert_eq!(a, b);
    }

    #[test]
    fn base_execution_is_single_copy_serializable() {
        use repl_check::{Recorder, Scheme};
        // High contention to make the check non-trivial; short enough
        // that the recorder's history ring keeps every commit.
        let cfg = base_cfg(
            6.0,
            2,
            80.0,
            12.0,
            100,
            8,
            TwoTierWorkload::Commutative { max_amount: 20 },
        );
        let rec = Recorder::new(Scheme::TwoTier);
        let report = TwoTierSim::new(cfg).with_recorder(rec.clone()).run();
        assert!(report.committed > 100, "need a meaningful history");
        assert!(rec.commits() as u64 >= report.committed);
        let check = rec.check();
        assert!(check.is_clean(), "{:?}", check.violations);
        assert!(!check.truncated(), "{}", check.summary());
    }

    #[test]
    fn full_rf_sharded_identical_to_unsharded() {
        let cfg = base_cfg(
            4.0,
            2,
            200.0,
            5.0,
            60,
            7,
            TwoTierWorkload::Commutative { max_amount: 5 },
        );
        let mut sharded = cfg;
        sharded.sim = sharded.sim.with_shards(8, 4);
        let (a, am, ar) = TwoTierSim::new(cfg).run_with_state();
        let (b, bm, br) = TwoTierSim::new(sharded).run_with_state();
        assert_eq!(a, b);
        assert_eq!(am.digest(), bm.digest());
        for (x, y) in ar.iter().zip(&br) {
            assert_eq!(x.digest(), y.digest());
        }
    }

    #[test]
    fn sharded_replicas_match_master_on_hosted_objects() {
        let mut cfg = base_cfg(
            6.0,
            2,
            240.0,
            8.0,
            120,
            9,
            TwoTierWorkload::Commutative { max_amount: 10 },
        );
        cfg.sim = cfg.sim.with_shards(6, 2).with_cross_shard(0.2);
        assert_replicas_match_master(cfg);
    }

    #[test]
    fn refreshes_wider_than_the_mask_reach_every_hosting_replica() {
        // 70 updates per commit overflow the 64-bit fan-out mask: the
        // base falls back to a pre-filtered copy per destination. (A
        // database this large keeps 0.7 s transactions from colliding:
        // base transactions retry deadlocks until they succeed, and
        // long ones that keep re-colliding never do.)
        let mut cfg = base_cfg(
            6.0,
            2,
            200_000.0,
            0.3,
            120,
            9,
            TwoTierWorkload::Commutative { max_amount: 10 },
        );
        cfg.sim.actions = 70;
        cfg.sim = cfg.sim.with_shards(6, 2).with_cross_shard(0.2);
        assert_replicas_match_master(cfg);
    }

    fn assert_replicas_match_master(cfg: TwoTierConfig) {
        let (report, master, replicas) = TwoTierSim::new(cfg).run_with_state();
        assert!(report.committed > 0);
        let mut hosted_total = 0usize;
        for (i, r) in replicas.iter().enumerate() {
            for (obj, v) in r.iter() {
                hosted_total += 1;
                let want = master.get(obj);
                assert_eq!(
                    (v.ts, &v.value),
                    (want.ts, &want.value),
                    "node {i} diverged from master on {obj}"
                );
            }
        }
        // rf = 2: each object is replicated at exactly two nodes.
        assert_eq!(hosted_total as u64, cfg.sim.db_size * 2);
    }

    #[test]
    fn partial_rf_ships_fewer_refreshes() {
        let cfg = base_cfg(
            8.0,
            2,
            400.0,
            8.0,
            60,
            13,
            TwoTierWorkload::Commutative { max_amount: 5 },
        );
        let mut sharded = cfg;
        sharded.sim = sharded.sim.with_shards(8, 2);
        let (full, _, _) = TwoTierSim::new(cfg).run_with_state();
        let (partial, _, _) = TwoTierSim::new(sharded).run_with_state();
        assert!(
            partial.messages < full.messages,
            "partial rf should cut refresh traffic: {} vs {}",
            partial.messages,
            full.messages
        );
    }

    #[test]
    fn footprint_follows_the_live_window_not_the_horizon() {
        // Base transactions are keyed by the kernel's monotone ids, and
        // a retry keeps its id, so the table is a ring as wide as the
        // live window. A leaked entry (a retry that never ends, a
        // victim the crash forgot) would widen it with every id minted
        // after it. Mobiles sync, and the primary crashes at half the
        // horizon: eight times the horizon, the same tables (the widest
        // live window creeps up a little with the run length, which is
        // worth at most one doubling).
        let footprint = |horizon: u64| {
            let cfg = base_cfg(
                6.0,
                3,
                300.0,
                5.0,
                horizon,
                21,
                TwoTierWorkload::ExactMatch { max_amount: 20 },
            );
            let down = horizon / 2;
            let plan = format!("crash=0:{down}..{}", down + 10);
            let mut sim = TwoTierSim::new(cfg).with_faults(FaultPlan::parse(&plan, 21).unwrap());
            let report = sim.run_phases();
            assert!(report.tentative_commits > 0 && report.node_crashes == 1);
            let tables = [
                sim.p.base_txns.capacity(),
                sim.p.master_locks.txn_table_capacity(),
            ];
            (report.committed, tables)
        };
        let (short_commits, short) = footprint(60);
        let (long_commits, long) = footprint(480);
        assert!(long_commits > 7 * short_commits);
        for (s, l) in short.into_iter().zip(long) {
            assert!(l <= 2 * s, "{short:?} → {long:?}");
        }
        // The master's lock tables hold 17 and 10 entries.
        assert!(short[1].max(long[1]) <= 48, "{short:?} → {long:?}");
    }

    #[test]
    #[should_panic(expected = "at least one base node")]
    fn zero_base_nodes_rejected() {
        let mut cfg = base_cfg(
            3.0,
            1,
            100.0,
            5.0,
            10,
            1,
            TwoTierWorkload::ExactMatch { max_amount: 5 },
        );
        cfg.base_nodes = 0;
        let _ = TwoTierSim::new(cfg);
    }

    #[test]
    #[should_panic(expected = "two-tier refuses DeadlockPolicy::Timeout")]
    fn timeout_policy_is_refused() {
        let mut cfg = base_cfg(
            3.0,
            1,
            100.0,
            5.0,
            10,
            1,
            TwoTierWorkload::Commutative { max_amount: 5 },
        );
        let wait = SimDuration::from_millis(500);
        cfg.sim = cfg.sim.with_deadlock(DeadlockPolicy::Timeout { wait });
        let _ = TwoTierSim::new(cfg);
    }
}
