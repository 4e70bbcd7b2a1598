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
//!   transactions in commit order; the host base node re-executes each
//!   as a base transaction and judges it with its **acceptance
//!   criterion** — failures are the two-tier analogue of
//!   reconciliation, and they are *zero when transactions commute*.

use crate::config::SimConfig;
use crate::engine::kernel::{self, applies, full_mask, Kernel, Protocol, Sent, Sim};
use crate::metrics::{Report, M_RECONCILIATION_DELAY, M_RETRIES};
use crate::op::{Op, Operation};
use crate::txn::{Criterion, TxnSpec};
use repl_check::{CriterionKind, Scheme, TxnRecord};
use repl_sim::{SimDuration, SimRng, SimTime};
use repl_storage::{
    Acquire, ApplyOutcome, LamportClock, LockManager, NodeId, ObjectId, ObjectStore, ShardMap,
    TentativeStore, Timestamp, TxnId, TxnSlab, Value,
};
use repl_telemetry::{Event, EventKind};
use std::collections::VecDeque;

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
    refresh: std::rc::Rc<Refresh>,
    /// Which of the refresh's updates this destination applies (see
    /// [`applies`]): the ones it hosts under a partial layout, every
    /// one otherwise.
    mask: u64,
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
#[derive(Debug)]
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

/// The two-tier protocol's private events.
#[doc(hidden)]
#[derive(Debug)]
pub enum Ev {
    /// A base transaction finished one action's service time.
    BaseStep(TxnId),
    /// A deadlocked base transaction re-runs from scratch.
    BaseRetry(TxnId),
}

/// The two-tier simulator.
pub type TwoTierSim = Sim<TwoTier>;

type K = Kernel<TwoTier>;

/// The two-tier protocol's state.
pub struct TwoTier {
    cfg: TwoTierConfig,
    /// The base system state: union of all master copies.
    master: ObjectStore,
    master_locks: LockManager,
    master_clock: LamportClock,
    /// Per-node replicas; mobile nodes use the tentative overlay.
    replicas: Vec<TentativeStore>,
    /// Per-mobile queue of tentative transactions not yet re-executed.
    pending: Vec<VecDeque<Pending>>,
    /// Active reconnect sync sessions (mobile → remaining queue drains
    /// through one base transaction at a time).
    in_session: Vec<bool>,
    /// In-flight base transactions in a generational slab: every event
    /// dispatch indexes a dense slot instead of hashing a `TxnId`.
    base_txns: TxnSlab<BaseTxn>,
    object_rng: SimRng,
    value_rng: SimRng,
    retry_rng: SimRng,
    clocks: Vec<LamportClock>,
    /// Recycled buffer for lock-release promotions (commit/abort path).
    granted_scratch: Vec<(TxnId, ObjectId)>,
    /// Recycled staging buffer for the refreshes a reconnect releases.
    refresh_scratch: Vec<RefreshMsg>,
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
        let n = sim.nodes as usize;
        let mut k = Kernel::new(sim, sim.action_time, "tt-arrivals-", "two-tier");
        // Mobile disconnect schedules (staggered exponential periods).
        k.schedule_connectivity(cfg.base_nodes..sim.nodes, cfg.connected, cfg.disconnected);
        let initial = Value::Int(cfg.initial_value);
        let master = ObjectStore::filled(sim.db_size, None, initial.clone());
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
                TentativeStore::from_master(ObjectStore::filled(
                    sim.db_size,
                    layout,
                    initial.clone(),
                ))
            })
            .collect();
        let p = TwoTier {
            master,
            master_locks: {
                let mut lm = LockManager::new();
                lm.reserve_objects(sim.db_size as usize);
                lm
            },
            master_clock: LamportClock::new(NodeId(u32::MAX)),
            replicas,
            pending: (0..n).map(|_| VecDeque::new()).collect(),
            in_session: vec![false; n],
            base_txns: TxnSlab::new(0),
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
    type Msg = RefreshMsg;
    /// `(master, replicas)`: the base state and every node's replica,
    /// converged to it.
    type State = (ObjectStore, Vec<ObjectStore>);
    const SCHEME: Scheme = Scheme::TwoTier;

    fn phase(ev: &kernel::Event<Self>, _live: bool) -> Option<&'static str> {
        use kernel::Event as W;
        match ev {
            W::Arrive(_) => Some("two-tier/arrive"),
            W::Proto(_) => Some("two-tier/base-step"),
            W::Deliver { .. } => Some("two-tier/deliver"),
            W::Connectivity { .. } => Some("two-tier/connectivity"),
            // No fault plan reaches this protocol.
            W::PartitionStart(_) | W::PartitionHeal | W::Crash(_) | W::Restart(_) => None,
        }
    }

    fn arrive(&mut self, k: &mut K, node: NodeId) {
        let spec = self.gen_spec(node);
        if self.is_mobile(node) && !k.is_connected(node) {
            self.commit_tentative(k, node, spec);
        } else {
            // Connected node (base or mobile): run directly as a base
            // transaction — connected two-tier "operates much like a
            // lazy-master system".
            self.start_base_txn(k, node, spec, None, None, None);
        }
    }

    fn on_event(&mut self, k: &mut K, ev: Ev) {
        match ev {
            Ev::BaseStep(id) => self.on_base_step(k, id),
            Ev::BaseRetry(id) => self.try_base_step(k, id),
        }
    }

    /// Every refresh comes from the virtual base sender.
    fn parked(_: &mut RefreshMsg) -> NodeId {
        NodeId(0)
    }

    fn deliver(&mut self, k: &mut K, to: NodeId, msg: RefreshMsg) {
        let from = NodeId(0);
        k.tracer
            .emit(|| Event::system(k.now(), to, EventKind::MsgDelivered { from }));
        self.apply_refresh(k, to, msg);
    }

    fn link_change(&mut self, k: &mut K, node: NodeId, connected: bool) {
        if connected {
            self.on_reconnect(k, node);
        }
    }

    /// Reconnect every mobile node, finish every sync session, and
    /// deliver all refreshes so the whole system converges to the base
    /// state.
    fn begin_drain(&mut self, k: &mut K) -> Option<SimTime> {
        for node in self.cfg.base_nodes..self.cfg.sim.nodes {
            self.on_reconnect(k, NodeId(node));
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
                    .as_int()
                    .unwrap_or(0);
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
            let current = self.replicas[idx].read(op.object).value.clone();
            let new = op.op.apply(&current);
            let ts = self.clocks[idx].tick();
            self.replicas[idx].write_tentative(op.object, new.clone(), ts);
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
        let id = self.base_txns.insert(BaseTxn {
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
        });
        k.tracer
            .emit(|| Event::new(k.now(), origin, id, EventKind::TxnBegin));
        self.try_base_step(k, id);
    }

    fn try_base_step(&mut self, k: &mut K, id: TxnId) {
        let txn = self.base_txns.get(id).expect("stepping unknown base txn");
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
        let txn = self.base_txns.get_mut(id).expect("base step for dead txn");
        let op = &txn.spec.ops[txn.next];
        // Read own buffered write if present, else the master copy.
        let current = match txn.buffered.iter().rev().find(|(o, _)| *o == op.object) {
            Some((_, v)) => v.clone(),
            None => {
                let versioned = self.master.get(op.object);
                if k.recorder.is_on() {
                    txn.reads.push((op.object, versioned.ts));
                }
                versioned.value.clone()
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
                let old = self.master.replace(*obj, value.clone(), ts);
                updates.push((*obj, value.clone(), ts));
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
        // Master commits originate "at the base"; model the fan-out
        // from a virtual base sender that is always connected.
        let sent_at = k.now();
        let refresh = std::rc::Rc::new(Refresh { sent_at, updates });
        let Some(map) = &self.shard else {
            let mask = full_mask(refresh.updates.len());
            for dest in 0..self.cfg.sim.nodes {
                let refresh = refresh.clone();
                let msg = RefreshMsg { refresh, mask };
                Self::send_refresh(k, NodeId(dest), msg);
            }
            return;
        };
        // Partial replication: each destination receives only the
        // updates it hosts, and a commit touching none of its shards
        // sends it nothing at all. Destinations ascend: the latency
        // stream is drawn per send.
        let mut dests = std::mem::take(&mut self.dest_scratch);
        map.fanout_masks(refresh.updates.iter().map(|&(obj, _, _)| obj), &mut dests);
        for (dest, mask) in dests.drain(..) {
            let msg = if refresh.updates.len() > 64 {
                // Wider than the mask: send a pre-filtered copy.
                let hosted = refresh.updates.iter();
                let hosted = hosted.filter(|(obj, _, _)| map.hosts_object(dest, *obj));
                let updates = hosted.cloned().collect();
                RefreshMsg {
                    refresh: std::rc::Rc::new(Refresh { sent_at, updates }),
                    mask: u64::MAX,
                }
            } else {
                let refresh = refresh.clone();
                RefreshMsg { refresh, mask }
            };
            Self::send_refresh(k, dest, msg);
        }
        self.dest_scratch = dests;
    }

    /// Send one refresh from the virtual base sender (base node 0,
    /// always connected) to `dest`. Refreshes are last-writer-wins and
    /// carry absolute values: a duplicate is absorbed by the timestamp
    /// comparison and a drop would be covered by the next refresh, so
    /// no fate needs an answer here.
    fn send_refresh(k: &mut K, dest: NodeId, msg: RefreshMsg) {
        k.tracer
            .emit(|| Event::system(k.now(), NodeId(0), EventKind::MsgSent { to: dest }));
        let sent = k.send(NodeId(0), dest, TxnId::default(), msg);
        assert_ne!(sent, Sent::SenderOffline, "base node 0 never disconnects");
    }

    fn apply_refresh(&mut self, k: &mut K, to: NodeId, msg: RefreshMsg) {
        let store = self.replicas[to.0 as usize].master_mut();
        let mut applied = false;
        for (i, &(obj, ref value, ts)) in msg.refresh.updates.iter().enumerate() {
            if !applies(msg.mask, i) {
                continue;
            }
            let fresh = store.apply_lww(obj, ts, value.clone());
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

    fn on_reconnect(&mut self, k: &mut K, node: NodeId) {
        // Step 1: discard tentative versions.
        self.replicas[node.0 as usize].discard_tentative();
        // Step 2/4: receive deferred replica refreshes. The drain
        // borrows the kernel, and applying a refresh needs it too —
        // stage through the recycled chunk buffer (idle between
        // broadcasts).
        let mut held = std::mem::take(&mut self.refresh_scratch);
        held.extend(k.reconnect(node));
        for msg in held.drain(..) {
            self.apply_refresh(k, node, msg);
        }
        self.refresh_scratch = held;
        // Step 3/5: re-execute tentative transactions in commit order.
        self.maybe_start_session(k, node);
    }

    /// Begin a sync session for `node` unless one is already draining
    /// its queue — tentative transactions must be re-executed strictly
    /// in commit order, one at a time.
    fn maybe_start_session(&mut self, k: &mut K, node: NodeId) {
        if !self.in_session[node.0 as usize] {
            self.advance_session(k, node);
        }
    }

    /// Start the next queued tentative re-execution for `node`, or mark
    /// the session finished if the queue is empty.
    fn advance_session(&mut self, k: &mut K, node: NodeId) {
        let idx = node.0 as usize;
        let Some(pending) = self.pending[idx].pop_front() else {
            self.in_session[idx] = false;
            return;
        };
        self.in_session[idx] = true;
        if k.measuring() {
            // The tentative transaction and its inputs travel to the
            // host base node.
            k.metrics.messages.incr();
        }
        k.tracer
            .emit(|| Event::system(k.now(), node, EventKind::MsgSent { to: NodeId(0) }));
        self.start_base_txn(
            k,
            node,
            pending.spec,
            Some(pending.tentative_results),
            Some(pending.committed_at),
            Some(node),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            let balance = v.value.as_int().unwrap();
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
}
