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
//! time priority so the replicas converge. Crash recovery lives where
//! the oracles are: `LazyGroupSim` under a `crash=N:S..E` fault plan.
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
    ApplyOutcome, LamportClock, NodeId, ObjectId, ObjectStore, TxnId, UpdateRecord, Value,
};
use repl_telemetry::{Event, EventKind, SyncTraceHandle};
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
    /// Snapshot the node's full store.
    Snapshot { reply: Sender<ObjectStore> },
    /// Reply with the store's rolling digest — O(1) at the node, and
    /// eight bytes over the channel instead of a full store clone.
    Digest { reply: Sender<u64> },
    /// Terminate the node thread.
    Shutdown,
}

/// Send `node` the request `msg` wraps around a reply channel and wait
/// for the answer.
fn ask<T>(node: &Sender<NodeMsg>, msg: impl FnOnce(Sender<T>) -> NodeMsg) -> T {
    let (tx, rx) = unbounded();
    node.send(msg(tx)).expect("node thread gone");
    rx.recv().expect("node thread dropped its reply")
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

struct NodeThread {
    id: NodeId,
    store: ObjectStore,
    clock: LamportClock,
    inbox: Receiver<NodeMsg>,
    peers: Vec<Sender<NodeMsg>>,
    stats: NodeStats,
    tracer: SyncTraceHandle,
    // Threads have no simulated clock; events carry a per-node logical
    // tick, one per processed message.
    tick: u64,
}

impl NodeThread {
    fn run(mut self) {
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
                NodeMsg::Snapshot { reply } => {
                    let _ = reply.send(self.store.clone());
                }
                NodeMsg::Digest { reply } => {
                    let _ = reply.send(self.store.digest());
                }
                NodeMsg::Shutdown => break,
            }
        }
        self.tracer.flush();
    }

    fn execute(&mut self, spec: &TxnSpec) -> Vec<(ObjectId, Value)> {
        self.stats.executed += 1;
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
            self.store.set(op.object, new_value, new_ts);
            updates.push(UpdateRecord {
                txn: repl_storage::TxnId(0),
                object: op.object,
                old_ts: current.ts,
                new_ts,
                value: new_value,
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
        let now = SimTime(self.tick);
        let id = self.id;
        let mut conflicted = false;
        for u in updates {
            self.clock.observe(u.new_ts);
            let object = u.object;
            match self
                .store
                .apply_versioned(u.object, u.old_ts, u.new_ts, u.value)
            {
                ApplyOutcome::Applied => {}
                ApplyOutcome::Duplicate => {
                    self.stats.stale += 1;
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
        self.tracer
            .emit(|| Event::system(now, id, EventKind::ReplicaApply));
        if conflicted {
            self.stats.reconciliations += 1;
            self.tracer
                .emit(|| Event::system(now, id, EventKind::Reconcile));
        }
    }
}

/// A running cluster of lazy-group replica nodes.
pub struct Cluster {
    senders: Vec<Sender<NodeMsg>>,
    handles: Vec<JoinHandle<()>>,
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
                stats: NodeStats::default(),
                tracer: tracer.clone(),
                tick: 0,
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("repl-node-{i}"))
                    .spawn(move || node.run())
                    .expect("failed to spawn node thread"),
            );
        }
        Cluster { senders, handles }
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
        ask(&self.senders[node.0 as usize], |reply| NodeMsg::Execute {
            spec,
            reply,
        })
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
        let flush = || -> Vec<NodeStats> {
            self.senders
                .iter()
                .map(|s| ask(s, |reply| NodeMsg::Flush { reply }))
                .collect()
        };
        flush();
        flush()
    }

    /// Snapshot one node's store.
    pub fn snapshot(&self, node: NodeId) -> ObjectStore {
        ask(&self.senders[node.0 as usize], |reply| NodeMsg::Snapshot {
            reply,
        })
    }

    /// Digests of all replicas — equal values mean convergence.
    ///
    /// Each node answers from its incrementally-maintained rolling
    /// digest, so this costs one small message round-trip per node
    /// rather than a store clone plus a full scan.
    pub fn digests(&self) -> Vec<u64> {
        self.senders
            .iter()
            .map(|s| ask(s, |reply| NodeMsg::Digest { reply }))
            .collect()
    }

    /// Run the convergence oracle over every node's store. `None`
    /// means the replicas converged; otherwise the violation names the
    /// lowest diverging object and each node's version of it — a
    /// digest mismatch with a counterexample attached.
    pub fn divergence(&self) -> Option<repl_check::Violation> {
        let stores: Vec<(NodeId, ObjectStore)> = (0..self.senders.len() as u32)
            .map(NodeId)
            .map(|n| (n, self.snapshot(n)))
            .collect();
        repl_check::check_store_convergence(&stores)
    }

    /// Shut the cluster down, joining every node thread.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for s in &self.senders {
            let _ = s.send(NodeMsg::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
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
        let total = c.snapshot(NodeId(0)).get(ObjectId(0)).value.as_int();
        assert!(total <= 30, "cannot exceed the true total");
        assert!(total >= 10, "own increments are locally sequential");
    }
}
