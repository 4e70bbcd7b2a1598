//! # repl-cluster — a threaded lazy-group replica cluster
//!
//! The discrete-event engines in `repl-core` measure the paper's rates;
//! this crate shows the same protocol logic running on a *real*
//! message-passing runtime: one OS thread per node, crossbeam channels
//! as the network, and the identical timestamp test from the paper's
//! Figure 4 applied to incoming replica updates.
//!
//! The cluster exposes the update-anywhere API of a lazy-group system:
//! execute a transaction at any node, updates propagate asynchronously,
//! dangerous updates are counted as reconciliations and resolved by
//! time priority so the replicas converge.
//!
//! ```
//! use repl_cluster::Cluster;
//! use repl_core::Op;
//! use repl_storage::{NodeId, ObjectId, Value};
//!
//! let cluster = Cluster::new(3, 16);
//! cluster.execute_one(NodeId(0), ObjectId(1), Op::Set(Value::Int(7)));
//! cluster.quiesce();
//! // All replicas converge to the same state.
//! let digests = cluster.digests();
//! assert!(digests.iter().all(|&d| d == digests[0]));
//! assert_eq!(
//!     cluster.snapshot(NodeId(2)).get(ObjectId(1)).value,
//!     Value::Int(7)
//! );
//! cluster.shutdown();
//! ```

#![warn(missing_docs)]

pub mod two_tier;

use crossbeam::channel::{unbounded, Receiver, Sender};
use repl_core::{Op, TxnSpec};
use repl_sim::SimTime;
use repl_storage::{
    ApplyOutcome, LamportClock, NodeId, ObjectId, ObjectStore, Timestamp, TxnId, UpdateRecord,
    Value,
};
use repl_telemetry::{Event, EventKind, MetricsRegistry, RunMetrics, SyncTraceHandle};
use std::thread::JoinHandle;

/// Messages a node thread processes.
enum NodeMsg {
    /// Execute a transaction locally and broadcast its updates.
    Execute {
        spec: TxnSpec,
        reply: Sender<Vec<(ObjectId, Value)>>,
    },
    /// Apply a remote node's committed updates (one lazy transaction).
    Replica { updates: Vec<UpdateRecord> },
    /// Reply when every earlier message has been processed.
    Flush { reply: Sender<NodeStats> },
    /// Reply with a snapshot of the node's mergeable metrics.
    Metrics { reply: Sender<RunMetrics> },
    /// Snapshot the node's full store.
    Snapshot { reply: Sender<ObjectStore> },
    /// Reply with the store's rolling digest — O(1) at the node, and
    /// eight bytes over the channel instead of a full store clone.
    Digest { reply: Sender<u64> },
    /// Crash the node: the thread exits, volatile state is lost, and
    /// the durable remnant is handed back for a later restart.
    Crash,
    /// Terminate the node thread.
    Shutdown,
}

/// Per-node statistics returned by a flush.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Transactions executed at this node.
    pub executed: u64,
    /// Replica transactions applied.
    pub replica_applied: u64,
    /// Stale replica updates ignored.
    pub stale: u64,
    /// Dangerous updates detected (reconciliations).
    pub reconciliations: u64,
}

/// What survives a node crash: the write-ahead log (every durable
/// write), the inbox (peers keep mailing a dead node — that queue *is*
/// the undelivered propagation backlog recovery replays), and the
/// node's identity. The store, clock, and thread are volatile.
struct NodeRemnant {
    id: NodeId,
    inbox: Receiver<NodeMsg>,
    peers: Vec<Sender<NodeMsg>>,
    wal: Vec<(ObjectId, Value, Timestamp)>,
    stats: NodeStats,
    metrics: RunMetrics,
    tracer: SyncTraceHandle,
    tick: u64,
}

struct NodeThread {
    id: NodeId,
    store: ObjectStore,
    clock: LamportClock,
    inbox: Receiver<NodeMsg>,
    peers: Vec<Sender<NodeMsg>>,
    /// Write-ahead log: one record per durable write, local or replica.
    /// Replaying it in order through last-writer-wins reconstructs the
    /// store exactly (every conflict in this protocol is resolved by
    /// time priority, so the final value of each object is its
    /// newest-timestamped record).
    wal: Vec<(ObjectId, Value, Timestamp)>,
    stats: NodeStats,
    /// Mergeable counters/histograms mirroring `stats` plus the
    /// replica-batch size distribution. Durable across a crash (they
    /// ride the remnant) so restart-and-catch-up runs report totals.
    metrics: RunMetrics,
    tracer: SyncTraceHandle,
    // Threads have no simulated clock; events carry a per-node logical
    // tick, one per processed message.
    tick: u64,
}

impl NodeThread {
    fn run(mut self) -> Option<NodeRemnant> {
        while let Ok(msg) = self.inbox.recv() {
            match msg {
                NodeMsg::Execute { spec, reply } => {
                    let results = self.execute(&spec);
                    let _ = reply.send(results);
                }
                NodeMsg::Replica { updates } => self.apply_replica(updates),
                NodeMsg::Flush { reply } => {
                    let _ = reply.send(self.stats);
                }
                NodeMsg::Metrics { reply } => {
                    let _ = reply.send(self.metrics.clone());
                }
                NodeMsg::Snapshot { reply } => {
                    let _ = reply.send(self.store.clone());
                }
                NodeMsg::Digest { reply } => {
                    let _ = reply.send(self.store.digest());
                }
                NodeMsg::Crash => {
                    let now = SimTime(self.tick + 1);
                    let id = self.id;
                    self.tracer
                        .emit(|| Event::system(now, id, EventKind::NodeCrash));
                    self.tracer.flush();
                    return Some(NodeRemnant {
                        id: self.id,
                        inbox: self.inbox,
                        peers: self.peers,
                        wal: self.wal,
                        stats: self.stats,
                        metrics: self.metrics,
                        tracer: self.tracer,
                        tick: self.tick,
                    });
                }
                NodeMsg::Shutdown => break,
            }
        }
        self.tracer.flush();
        None
    }

    fn execute(&mut self, spec: &TxnSpec) -> Vec<(ObjectId, Value)> {
        self.stats.executed += 1;
        self.metrics.incr("executed", 1);
        self.metrics.record_value("txn_ops", spec.ops.len() as u64);
        self.tick += 1;
        let now = SimTime(self.tick);
        // Stamp events with a node-local transaction id; the threaded
        // runtime has no global id allocator.
        let txn = TxnId(self.stats.executed);
        let id = self.id;
        self.tracer
            .emit(|| Event::new(now, id, txn, EventKind::TxnBegin));
        let mut updates = Vec::with_capacity(spec.ops.len());
        let mut results = Vec::with_capacity(spec.ops.len());
        for op in &spec.ops {
            let current = self.store.get(op.object).clone();
            let new_value = op.op.apply(&current.value);
            let new_ts = self.clock.tick();
            self.store.set(op.object, new_value.clone(), new_ts);
            self.wal.push((op.object, new_value.clone(), new_ts));
            updates.push(UpdateRecord {
                txn: repl_storage::TxnId(0),
                object: op.object,
                old_ts: current.ts,
                new_ts,
                value: new_value.clone(),
            });
            results.push((op.object, new_value));
        }
        self.tracer
            .emit(|| Event::new(now, id, txn, EventKind::TxnCommit));
        for (i, peer) in self.peers.iter().enumerate() {
            if i == self.id.0 as usize {
                continue;
            }
            let _ = peer.send(NodeMsg::Replica {
                updates: updates.clone(),
            });
            self.tracer.emit(|| {
                Event::new(
                    now,
                    id,
                    txn,
                    EventKind::MsgSent {
                        to: NodeId(i as u32),
                    },
                )
            });
        }
        results
    }

    fn apply_replica(&mut self, updates: Vec<UpdateRecord>) {
        self.tick += 1;
        self.metrics
            .record_value("replica_batch_ops", updates.len() as u64);
        let now = SimTime(self.tick);
        let id = self.id;
        let mut conflicted = false;
        for u in updates {
            self.clock.observe(u.new_ts);
            let object = u.object;
            self.wal.push((u.object, u.value.clone(), u.new_ts));
            match self
                .store
                .apply_versioned(u.object, u.old_ts, u.new_ts, u.value)
            {
                ApplyOutcome::Applied => {}
                ApplyOutcome::Duplicate => {
                    self.stats.stale += 1;
                    self.metrics.incr("stale_updates", 1);
                    self.tracer
                        .emit(|| Event::system(now, id, EventKind::StaleSkip));
                }
                // Dangerous updates are resolved by time priority
                // inside the store; both directions count as
                // reconciliations.
                ApplyOutcome::ConflictApplied | ApplyOutcome::ConflictIgnored => {
                    conflicted = true;
                    self.tracer
                        .emit(|| Event::system(now, id, EventKind::DangerousUpdate { object }));
                }
            }
        }
        self.stats.replica_applied += 1;
        self.metrics.incr("replica_applied", 1);
        self.tracer
            .emit(|| Event::system(now, id, EventKind::ReplicaApply));
        if conflicted {
            self.stats.reconciliations += 1;
            self.metrics.incr("reconciliations", 1);
            self.tracer
                .emit(|| Event::system(now, id, EventKind::Reconcile));
        }
    }
}

/// A running cluster of lazy-group replica nodes.
pub struct Cluster {
    senders: Vec<Sender<NodeMsg>>,
    handles: Vec<Option<JoinHandle<Option<NodeRemnant>>>>,
    /// Durable remnants of currently crashed nodes, indexed by node.
    remnants: Vec<Option<NodeRemnant>>,
    db_size: u64,
}

impl Cluster {
    /// Spawn `nodes` replica threads, each holding a full copy of a
    /// `db_size`-object database.
    ///
    /// # Panics
    /// If `nodes` is zero or a thread cannot be spawned.
    pub fn new(nodes: u32, db_size: u64) -> Self {
        Cluster::new_traced(nodes, db_size, SyncTraceHandle::off())
    }

    /// Like [`Cluster::new`], but every node thread shares `tracer` and
    /// emits telemetry events as it executes and applies updates.
    ///
    /// # Panics
    /// If `nodes` is zero or a thread cannot be spawned.
    pub fn new_traced(nodes: u32, db_size: u64, tracer: SyncTraceHandle) -> Self {
        assert!(nodes > 0, "cluster needs at least one node");
        let channels: Vec<(Sender<NodeMsg>, Receiver<NodeMsg>)> =
            (0..nodes).map(|_| unbounded()).collect();
        let senders: Vec<Sender<NodeMsg>> = channels.iter().map(|(s, _)| s.clone()).collect();
        let mut handles = Vec::with_capacity(nodes as usize);
        for (i, (_, rx)) in channels.into_iter().enumerate() {
            let node = NodeThread {
                id: NodeId(i as u32),
                store: ObjectStore::new(db_size),
                clock: LamportClock::new(NodeId(i as u32)),
                inbox: rx,
                peers: senders.clone(),
                wal: Vec::new(),
                stats: NodeStats::default(),
                metrics: RunMetrics::new(),
                tracer: tracer.clone(),
                tick: 0,
            };
            handles.push(Some(
                std::thread::Builder::new()
                    .name(format!("repl-node-{i}"))
                    .spawn(move || node.run())
                    .expect("failed to spawn node thread"),
            ));
        }
        Cluster {
            senders,
            handles,
            remnants: (0..nodes).map(|_| None).collect(),
            db_size,
        }
    }

    /// Crash `node`: its thread exits, dropping the volatile store and
    /// clock; the durable write-ahead log survives. Peers keep mailing
    /// the dead node — their replica updates queue up as the
    /// undelivered propagation backlog that [`Cluster::restart`]
    /// replays. Blocking calls ([`Cluster::execute`],
    /// [`Cluster::quiesce`], [`Cluster::snapshot`]) aimed at a crashed
    /// node stall until it restarts.
    ///
    /// # Panics
    /// If `node` is already crashed.
    pub fn crash(&mut self, node: NodeId) {
        assert!(self.try_crash(node), "node {node} already crashed");
    }

    /// Non-panicking [`Cluster::crash`]: returns `false` (a no-op)
    /// when the node is already down, so overlapping fault-plan crash
    /// windows degrade to nothing instead of aborting the run.
    pub fn try_crash(&mut self, node: NodeId) -> bool {
        let i = node.0 as usize;
        if self.remnants[i].is_some() || self.handles[i].is_none() {
            return false;
        }
        self.senders[i]
            .send(NodeMsg::Crash)
            .expect("node thread gone");
        let handle = self.handles[i].take().expect("crashed node has no thread");
        let remnant = handle.join().expect("node thread panicked");
        self.remnants[i] = Some(remnant.expect("crash must yield a remnant"));
        true
    }

    /// Restart a crashed node: rebuild the store by replaying the
    /// write-ahead log in order (last-writer-wins, which is exactly the
    /// protocol's conflict rule), restore the clock from the replayed
    /// timestamps, and resume on the original inbox — everything peers
    /// sent while the node was down gets applied first. Returns the
    /// number of log records replayed.
    ///
    /// # Panics
    /// If `node` is not crashed.
    pub fn restart(&mut self, node: NodeId) -> u64 {
        self.try_restart(node).expect("restarting a live node")
    }

    /// Non-panicking [`Cluster::restart`]: `None` (a no-op) when the
    /// node is not crashed.
    pub fn try_restart(&mut self, node: NodeId) -> Option<u64> {
        let i = node.0 as usize;
        let remnant = self.remnants[i].take()?;
        let mut store = ObjectStore::new(self.db_size);
        let mut clock = LamportClock::new(remnant.id);
        for (obj, value, ts) in &remnant.wal {
            clock.observe(*ts);
            store.apply_lww(*obj, *ts, value.clone());
        }
        let replayed = remnant.wal.len() as u64;
        let now = SimTime(remnant.tick + 1);
        remnant
            .tracer
            .emit(|| Event::system(now, node, EventKind::RecoveryReplay { messages: replayed }));
        remnant
            .tracer
            .emit(|| Event::system(now, node, EventKind::NodeRestart));
        let thread = NodeThread {
            id: remnant.id,
            store,
            clock,
            inbox: remnant.inbox,
            peers: remnant.peers,
            wal: remnant.wal,
            stats: remnant.stats,
            metrics: remnant.metrics,
            tracer: remnant.tracer,
            tick: remnant.tick,
        };
        self.handles[i] = Some(
            std::thread::Builder::new()
                .name(format!("repl-node-{i}"))
                .spawn(move || thread.run())
                .expect("failed to respawn node thread"),
        );
        Some(replayed)
    }

    /// Whether `node` is currently crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.remnants[node.0 as usize].is_some()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.senders.len()
    }

    /// Whether the cluster has no nodes (never true after `new`).
    pub fn is_empty(&self) -> bool {
        self.senders.is_empty()
    }

    /// Execute `spec` at `node`, blocking until the local commit
    /// returns its written values. Replica propagation continues in the
    /// background.
    pub fn execute(&self, node: NodeId, spec: TxnSpec) -> Vec<(ObjectId, Value)> {
        let (tx, rx) = unbounded();
        self.senders[node.0 as usize]
            .send(NodeMsg::Execute { spec, reply: tx })
            .expect("node thread gone");
        rx.recv().expect("node thread dropped reply")
    }

    /// Fire-and-forget execution: enqueue `spec` at `node` without
    /// waiting for the local commit. Used to generate genuinely
    /// concurrent update races across nodes (a blocking
    /// [`Cluster::execute`] from one client serializes everything).
    pub fn execute_async(&self, node: NodeId, spec: TxnSpec) {
        let (tx, _rx) = unbounded();
        self.senders[node.0 as usize]
            .send(NodeMsg::Execute { spec, reply: tx })
            .expect("node thread gone");
    }

    /// Convenience: execute a single-operation transaction.
    pub fn execute_one(&self, node: NodeId, object: ObjectId, op: Op) -> Value {
        let spec = TxnSpec::new(vec![repl_core::Operation::new(object, op)]);
        self.execute(node, spec)
            .pop()
            .expect("single-op transaction returns one value")
            .1
    }

    /// Wait until every node has processed everything enqueued before
    /// this call, twice over — after the second round all replica
    /// updates triggered by earlier executes have been applied. Returns
    /// per-node statistics from the final round.
    pub fn quiesce(&self) -> Vec<NodeStats> {
        let mut stats = Vec::new();
        for round in 0..2 {
            stats.clear();
            for sender in &self.senders {
                let (tx, rx) = unbounded();
                sender
                    .send(NodeMsg::Flush { reply: tx })
                    .expect("node thread gone");
                let s = rx.recv().expect("node thread dropped flush");
                if round == 1 {
                    stats.push(s);
                }
            }
        }
        stats
    }

    /// Collect every live node's mergeable metrics into one registry,
    /// keyed `node{i}` in node order (deterministic regardless of how
    /// the threads interleaved). Crashed nodes are skipped — their
    /// metrics ride the durable remnant and reappear after restart.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut registry = MetricsRegistry::new();
        for (i, sender) in self.senders.iter().enumerate() {
            if self.is_crashed(NodeId(i as u32)) {
                continue;
            }
            let (tx, rx) = unbounded();
            sender
                .send(NodeMsg::Metrics { reply: tx })
                .expect("node thread gone");
            let m = rx.recv().expect("node thread dropped metrics");
            registry.absorb(&format!("node{i}"), &m);
        }
        registry
    }

    /// Snapshot one node's store.
    pub fn snapshot(&self, node: NodeId) -> ObjectStore {
        let (tx, rx) = unbounded();
        self.senders[node.0 as usize]
            .send(NodeMsg::Snapshot { reply: tx })
            .expect("node thread gone");
        rx.recv().expect("node thread dropped snapshot")
    }

    /// Digests of all replicas — equal values mean convergence.
    ///
    /// Each node answers from its incrementally-maintained rolling
    /// digest, so this costs one small message round-trip per node
    /// rather than a store clone plus a full scan.
    pub fn digests(&self) -> Vec<u64> {
        self.senders
            .iter()
            .map(|sender| {
                let (tx, rx) = unbounded();
                sender
                    .send(NodeMsg::Digest { reply: tx })
                    .expect("node thread gone");
                rx.recv().expect("node thread dropped digest")
            })
            .collect()
    }

    /// Run the convergence oracle over every live node's store.
    /// `None` means the replicas converged; otherwise the violation
    /// names the lowest diverging object and each node's version of it
    /// — a digest mismatch with a counterexample attached. Crashed
    /// nodes are skipped (a snapshot aimed at one would stall until
    /// restart).
    pub fn divergence(&self) -> Option<repl_check::Violation> {
        let stores: Vec<(NodeId, ObjectStore)> = (0..self.senders.len() as u32)
            .map(NodeId)
            .filter(|&n| !self.is_crashed(n))
            .map(|n| (n, self.snapshot(n)))
            .collect();
        repl_check::check_store_convergence(&stores)
    }

    /// Shut the cluster down, joining every node thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        for s in &self.senders {
            let _ = s.send(NodeMsg::Shutdown);
        }
        for h in self.handles.drain(..).flatten() {
            let _ = h.join();
        }
        // Crashed nodes have no thread; dropping their remnants closes
        // their inboxes.
        self.remnants.clear();
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repl_core::Operation;

    #[test]
    fn single_node_execute_returns_values() {
        let c = Cluster::new(1, 10);
        let v = c.execute_one(NodeId(0), ObjectId(3), Op::Add(7));
        assert_eq!(v, Value::Int(7));
        let v = c.execute_one(NodeId(0), ObjectId(3), Op::Add(5));
        assert_eq!(v, Value::Int(12));
        c.shutdown();
    }

    #[test]
    fn updates_propagate_to_all_replicas() {
        let c = Cluster::new(3, 10);
        c.execute_one(NodeId(0), ObjectId(1), Op::Set(Value::Int(42)));
        c.quiesce();
        for i in 0..3 {
            let snap = c.snapshot(NodeId(i));
            assert_eq!(snap.get(ObjectId(1)).value, Value::Int(42), "node {i}");
        }
        c.shutdown();
    }

    #[test]
    fn replicas_converge_under_concurrent_writes() {
        let c = Cluster::new(4, 50);
        for round in 0..25 {
            for node in 0..4u32 {
                let spec = TxnSpec::new(vec![
                    Operation::new(ObjectId(round % 50), Op::Set(Value::Int(i64::from(node)))),
                    Operation::new(ObjectId((round + 1) % 50), Op::Add(1)),
                ]);
                c.execute(NodeId(node), spec);
            }
        }
        c.quiesce();
        let digests = c.digests();
        assert!(
            digests.iter().all(|&d| d == digests[0]),
            "replicas diverged: {digests:?}"
        );
        // The oracle agrees, and would have named the diverging object.
        assert_eq!(c.divergence(), None);
        c.shutdown();
    }

    #[test]
    fn conflicting_updates_are_counted() {
        let c = Cluster::new(2, 1);
        // Fire-and-forget from both sides so the writes genuinely race
        // (a blocking client would serialize node 0's replica update
        // ahead of node 1's own write).
        for i in 0..100 {
            let s0 = TxnSpec::new(vec![Operation::new(ObjectId(0), Op::Set(Value::Int(i)))]);
            let s1 = TxnSpec::new(vec![Operation::new(ObjectId(0), Op::Set(Value::Int(-i)))]);
            c.execute_async(NodeId(0), s0);
            c.execute_async(NodeId(1), s1);
        }
        let stats = c.quiesce();
        let reconciliations: u64 = stats.iter().map(|s| s.reconciliations).sum();
        let stale: u64 = stats.iter().map(|s| s.stale).sum();
        assert!(
            reconciliations + stale > 0,
            "concurrent blind writes must race: {stats:?}"
        );
        let digests = c.digests();
        assert_eq!(digests[0], digests[1]);
        c.shutdown();
    }

    #[test]
    fn stats_track_executions() {
        let c = Cluster::new(2, 10);
        for _ in 0..5 {
            c.execute_one(NodeId(0), ObjectId(0), Op::Add(1));
        }
        let stats = c.quiesce();
        assert_eq!(stats[0].executed, 5);
        assert_eq!(stats[1].executed, 0);
        assert_eq!(stats[1].replica_applied, 5);
        c.shutdown();
    }

    #[test]
    fn metrics_mirror_stats_and_survive_crash() {
        let mut c = Cluster::new(2, 10);
        for _ in 0..5 {
            c.execute_one(NodeId(0), ObjectId(0), Op::Add(1));
        }
        c.quiesce();
        let reg = c.metrics();
        let n0 = reg.runs.get("node0").expect("node0 metrics");
        let n1 = reg.runs.get("node1").expect("node1 metrics");
        assert_eq!(n0.counter("executed"), 5);
        assert_eq!(n1.counter("replica_applied"), 5);
        let batches = n1.histogram("replica_batch_ops").expect("batch histogram");
        assert_eq!(batches.count(), 5);
        assert_eq!(batches.max(), 1);
        // Metrics ride the durable remnant across a crash/restart.
        c.crash(NodeId(0));
        assert!(!c.metrics().runs.contains_key("node0"));
        c.restart(NodeId(0));
        c.quiesce();
        let reg = c.metrics();
        assert_eq!(
            reg.runs
                .get("node0")
                .expect("restarted")
                .counter("executed"),
            5
        );
        c.shutdown();
    }

    #[test]
    fn drop_joins_threads() {
        let c = Cluster::new(2, 4);
        c.execute_one(NodeId(0), ObjectId(0), Op::Add(1));
        drop(c); // must not hang or panic
    }

    #[test]
    fn traced_cluster_records_commit_and_replica_events() {
        use repl_telemetry::RingBuffer;
        use std::sync::{Arc, Mutex};

        let ring = Arc::new(Mutex::new(RingBuffer::new(256)));
        let c = Cluster::new_traced(3, 8, SyncTraceHandle::shared(&ring));
        for _ in 0..4 {
            c.execute_one(NodeId(0), ObjectId(0), Op::Add(1));
        }
        c.quiesce();
        c.shutdown();
        let ring = ring.lock().unwrap();
        let commits = ring
            .events()
            .filter(|e| matches!(e.kind, EventKind::TxnCommit))
            .count();
        let sends = ring
            .events()
            .filter(|e| matches!(e.kind, EventKind::MsgSent { .. }))
            .count();
        let applies = ring
            .events()
            .filter(|e| matches!(e.kind, EventKind::ReplicaApply))
            .count();
        assert_eq!(commits, 4);
        assert_eq!(sends, 8, "each commit fans out to both peers");
        assert_eq!(applies, 8, "both peers apply every commit");
    }

    #[test]
    fn crash_and_restart_recovers_own_writes() {
        let mut c = Cluster::new(2, 8);
        c.execute_one(NodeId(0), ObjectId(3), Op::Set(Value::Int(9)));
        c.quiesce();
        c.crash(NodeId(0));
        assert!(c.is_crashed(NodeId(0)));
        let replayed = c.restart(NodeId(0));
        assert!(replayed >= 1, "the write must be in the WAL");
        assert_eq!(c.snapshot(NodeId(0)).get(ObjectId(3)).value, Value::Int(9));
        c.shutdown();
    }

    #[test]
    fn crashed_node_catches_up_from_queued_backlog() {
        let mut c = Cluster::new(3, 16);
        c.crash(NodeId(2));
        // Peers keep committing while node 2 is down; their replica
        // updates queue at its inbox.
        for i in 0..10 {
            c.execute_one(NodeId(0), ObjectId(i % 16), Op::Add(1));
            c.execute_one(NodeId(1), ObjectId((i + 1) % 16), Op::Add(2));
        }
        c.restart(NodeId(2));
        c.quiesce();
        let digests = c.digests();
        assert!(
            digests.iter().all(|&d| d == digests[0]),
            "recovered node diverged: {digests:?}"
        );
        if let Some(v) = c.divergence() {
            panic!("convergence oracle disagrees with digests: {v}");
        }
        c.shutdown();
    }

    #[test]
    fn repeated_crashes_stay_lossless() {
        let mut c = Cluster::new(2, 4);
        for round in 0..5 {
            c.execute_one(NodeId(0), ObjectId(0), Op::Add(1));
            c.quiesce();
            c.crash(NodeId(1));
            c.execute_one(NodeId(0), ObjectId(1), Op::Add(round));
            c.restart(NodeId(1));
            c.quiesce();
        }
        let digests = c.digests();
        assert_eq!(digests[0], digests[1]);
        assert_eq!(c.snapshot(NodeId(1)).get(ObjectId(0)).value, Value::Int(5));
        c.shutdown();
    }

    #[test]
    fn lazy_group_increments_can_lose_updates() {
        let c = Cluster::new(3, 1);
        for node in 0..3u32 {
            for _ in 0..10 {
                c.execute_one(NodeId(node), ObjectId(0), Op::Add(1));
            }
        }
        c.quiesce();
        // Lazy-group replication ships *values*, not deltas — racing
        // increments overwrite each other (the paper's lost-update
        // problem). The replicas converge, but the total may be below
        // the true 30.
        let digests = c.digests();
        assert!(digests.iter().all(|&d| d == digests[0]));
        let total = c
            .snapshot(NodeId(0))
            .get(ObjectId(0))
            .value
            .as_int()
            .unwrap();
        assert!(total <= 30, "cannot exceed the true total");
        assert!(total >= 10, "own increments are locally sequential");
    }
}
