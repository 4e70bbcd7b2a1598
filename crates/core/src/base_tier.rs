//! The two-tier protocol (§7) as transport-free state machines: one
//! base node and the mobile node that syncs against it.
//!
//! A [`Replica`] is one base node: a durable commit log and dedup
//! outcomes, the master database and its clock. It executes base
//! transactions under the acceptance criterion and answers each
//! [`DedupId`] exactly once.
//!
//! A [`MobileNode`] is a disconnected client holding (master,
//! tentative) dual versions. It executes tentative transactions
//! locally, logs their input parameters, and on [`MobileNode::sync`]
//! re-submits them in commit order to any [`SyncTarget`].
//!
//! Every step is an ordinary method call, so the same calls produce the
//! same outcomes and the same trace, event for event. The transport
//! lives with the driver: `repl_cluster::two_tier` puts one [`Replica`]
//! behind a channel. The replicated base tier — a primary, its backups,
//! failover under the fault plan — is the simulator's
//! ([`crate::engine::two_tier`]).

use crate::TxnSpec;
use repl_sim::SimTime;
use repl_storage::hash::FastMap;
use repl_storage::{
    CommitLog, CommitRecord, LamportClock, Lsn, NodeId, ObjectId, ObjectStore, TentativeStore,
    TxnId, UpdateRecord, Value,
};
use repl_telemetry::{AbortReason, Event, EventKind, SyncTraceHandle};

/// Globally unique identity of one tentative transaction, assigned at
/// its originating mobile node. The base remembers the outcome of every
/// id it has executed, so a re-submitted transaction (the mobile
/// retried because a crash ate the reply) returns its recorded fate
/// instead of executing twice — sync is exactly-once even over an
/// at-least-once retry loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DedupId {
    /// The originating mobile node.
    pub node: NodeId,
    /// That node's tentative-transaction sequence number.
    pub seq: u64,
}

/// A tentative transaction awaiting base re-execution: the §7
/// "input parameters" capture plus the tentative outputs the acceptance
/// criterion compares against.
#[derive(Debug, Clone)]
pub struct Pending {
    /// Unique identity for at-most-once base execution.
    pub dedup: DedupId,
    /// The transaction's specification (ops + criterion).
    pub spec: TxnSpec,
    /// The outputs the tentative execution produced.
    pub tentative_results: Vec<(ObjectId, Value)>,
}

/// Outcome of one re-executed tentative transaction.
#[derive(Debug, Clone, PartialEq)]
pub enum TxnOutcome {
    /// The base execution passed the acceptance criterion; these are
    /// the (durable) base outputs.
    Accepted(Vec<(ObjectId, Value)>),
    /// The acceptance criterion failed; the diagnostic explains why
    /// ("the originating node and person … are informed it failed and
    /// why it failed").
    Rejected {
        /// Human-readable failure diagnostic.
        reason: String,
    },
}

/// The wire-level answer a [`SyncTarget`] returns for one sync
/// round-trip.
#[derive(Debug)]
pub struct SyncReply {
    /// One outcome per submitted [`Pending`], in submission order.
    pub outcomes: Vec<TxnOutcome>,
    /// Commit records newer than the mobile's watermark (the deferred
    /// replica refresh).
    pub refresh: Vec<CommitRecord>,
    /// The base commit-log head after this sync; the mobile's next
    /// watermark.
    pub head: Lsn,
}

/// Anything a mobile node can sync against: a base server.
pub trait SyncTarget {
    /// One sync round-trip. `None` when the base did not answer (a
    /// server's thread is gone); [`DedupId`]s make a retry
    /// exactly-once.
    fn try_sync(&self, pendings: Vec<Pending>, from: Lsn) -> Option<SyncReply>;
}

/// One base node: a durable commit log and dedup outcomes, the master
/// database and its clock.
pub struct Replica {
    node: NodeId,
    tracer: SyncTraceHandle,
    log: CommitLog,
    /// Outcome of every dedup id ever decided here. Consulted before
    /// re-executing a resubmitted tentative transaction.
    seen: FastMap<DedupId, TxnOutcome>,
    next_txn: u64,
    /// The replica has no simulated clock; events carry a logical
    /// tick, one per executed base transaction.
    tick: u64,
    master: ObjectStore,
    clock: LamportClock,
}

impl Replica {
    /// A replica over a `db_size`-object master database with every
    /// object initialized to `initial_value`.
    pub fn new(node: NodeId, db_size: u64, initial_value: i64, tracer: SyncTraceHandle) -> Self {
        Replica {
            node,
            tracer,
            log: CommitLog::new(),
            seen: FastMap::default(),
            next_txn: 0,
            tick: 0,
            master: ObjectStore::filled(db_size, None, Value::Int(initial_value)),
            clock: LamportClock::new(node),
        }
    }

    /// The durable commit log.
    pub fn log(&self) -> &CommitLog {
        &self.log
    }

    /// The master database.
    pub fn master(&self) -> &ObjectStore {
        &self.master
    }

    /// Execute one base transaction: buffer the writes, judge them with
    /// the acceptance criterion (against `tentative` when the
    /// transaction first ran at a mobile node), install and log them on
    /// success. The one place a threaded base runs base transactions,
    /// so the choice of runtime cannot change the acceptance semantics.
    pub fn execute(
        &mut self,
        spec: &TxnSpec,
        tentative: Option<&[(ObjectId, Value)]>,
    ) -> TxnOutcome {
        self.tick += 1;
        let now = SimTime(self.tick);
        let node = self.node;
        let mut buffered: Vec<(ObjectId, Value)> = Vec::with_capacity(spec.ops.len());
        for op in &spec.ops {
            let current = buffered
                .iter()
                .rev()
                .find(|(o, _)| *o == op.object)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| self.master.get(op.object).value.clone());
            buffered.push((op.object, op.op.apply(&current)));
        }
        if !spec
            .criterion
            .accepts(&buffered, tentative.unwrap_or(&buffered))
        {
            // The tentative fate (TentativeRejected) is emitted at the
            // originating mobile node, which knows its own identity;
            // the base records only that this incarnation died.
            let reason = AbortReason::Conflict;
            self.tracer
                .emit(|| Event::system(now, node, EventKind::TxnAbort { reason }));
            return TxnOutcome::Rejected {
                reason: format!(
                    "acceptance criterion {:?} failed for outputs {:?}",
                    spec.criterion, buffered
                ),
            };
        }
        self.next_txn += 1;
        let txn = TxnId(self.next_txn);
        self.tracer
            .emit(|| Event::new(now, node, txn, EventKind::TxnCommit));
        let mut updates = Vec::with_capacity(buffered.len());
        for (obj, value) in &buffered {
            let old_ts = self.master.get(*obj).ts;
            let new_ts = self.clock.tick();
            self.master.set(*obj, value.clone(), new_ts);
            updates.push(UpdateRecord {
                txn,
                object: *obj,
                old_ts,
                new_ts,
                value: value.clone(),
            });
        }
        self.log.append(txn, updates);
        TxnOutcome::Accepted(buffered)
    }

    /// Answer one sync's tentative transactions in submission order: a
    /// dedup id decided before (in a sync whose reply was lost) gets
    /// its recorded fate, anything else executes now and is recorded.
    /// Returns one outcome per pending, and the ids this call decided.
    pub fn sync(&mut self, pendings: &[Pending]) -> (Vec<TxnOutcome>, Vec<DedupId>) {
        let mut decided = Vec::new();
        let outcomes = pendings
            .iter()
            .map(|p| match self.seen.get(&p.dedup) {
                Some(outcome) => outcome.clone(),
                None => {
                    let outcome = self.execute(&p.spec, Some(&p.tentative_results));
                    self.seen.insert(p.dedup, outcome.clone());
                    decided.push(p.dedup);
                    outcome
                }
            })
            .collect();
        (outcomes, decided)
    }
}

/// Result summary of one [`MobileNode::sync`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SyncOutcome {
    /// Tentative transactions the base accepted.
    pub accepted: u64,
    /// Tentative transactions the base rejected (with diagnostics in
    /// [`MobileNode::last_rejections`]).
    pub rejected: u64,
    /// Replica commits applied to the local master versions.
    pub refreshed: u64,
}

/// A mobile (usually disconnected) client node.
///
/// ```
/// use repl_core::base_tier::{MobileNode, Pending, Replica, SyncReply, SyncTarget};
/// use repl_core::{Criterion, Op, Operation, TxnSpec};
/// use repl_storage::{Lsn, NodeId, ObjectId, Value};
/// use repl_telemetry::SyncTraceHandle;
/// use std::cell::RefCell;
///
/// /// A base node the mobile syncs against in-process.
/// struct Base(RefCell<Replica>);
/// impl SyncTarget for Base {
///     fn try_sync(&self, pendings: Vec<Pending>, from: Lsn) -> Option<SyncReply> {
///         let mut base = self.0.borrow_mut();
///         let (outcomes, _) = base.sync(&pendings);
///         let refresh = base.log().since(from).to_vec();
///         Some(SyncReply { outcomes, refresh, head: base.log().head() })
///     }
/// }
///
/// let base = Base(RefCell::new(Replica::new(NodeId(0), 4, 100, SyncTraceHandle::off())));
/// let mut mobile = MobileNode::new(NodeId(1), 4, 100);
/// mobile.execute_tentative(
///     TxnSpec::new(vec![Operation::new(ObjectId(0), Op::Debit(30))])
///         .with_criterion(Criterion::NonNegative),
/// );
/// assert_eq!(mobile.sync(&base).accepted, 1);
/// assert_eq!(base.0.borrow().master().get(ObjectId(0)).value, Value::Int(70));
/// ```
pub struct MobileNode {
    id: NodeId,
    store: TentativeStore,
    clock: LamportClock,
    pending: Vec<Pending>,
    watermark: Lsn,
    /// Sequence counter feeding each tentative transaction's
    /// [`DedupId`].
    next_seq: u64,
    last_rejections: Vec<String>,
    tracer: SyncTraceHandle,
    // Logical tick for event timestamps: one per tentative execution
    // or sync, mirroring the replica's convention.
    tick: u64,
}

impl MobileNode {
    /// A fresh mobile node over a `db_size`-object replica (sync before
    /// first use to pull the real master versions).
    pub fn new(id: NodeId, db_size: u64, initial_value: i64) -> Self {
        let master = ObjectStore::filled(db_size, None, Value::Int(initial_value));
        MobileNode {
            id,
            store: TentativeStore::from_master(master),
            clock: LamportClock::new(id),
            pending: Vec::new(),
            watermark: Lsn(0),
            next_seq: 0,
            last_rejections: Vec::new(),
            tracer: SyncTraceHandle::off(),
            tick: 0,
        }
    }

    /// Attach a tracer; the node emits tentative-commit, sync, and
    /// refresh events through it.
    #[must_use]
    pub fn with_tracer(mut self, tracer: SyncTraceHandle) -> Self {
        self.tracer = tracer;
        self
    }

    /// The node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Read through the tentative overlay ("if it updated documents …
    /// those tentative updates are all visible at the mobile node").
    pub fn read(&self, obj: ObjectId) -> &Value {
        &self.store.read(obj).value
    }

    /// Number of tentative transactions awaiting re-execution.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Diagnostics from the most recent sync's rejections.
    pub fn last_rejections(&self) -> &[String] {
        &self.last_rejections
    }

    /// Execute a tentative transaction against local tentative
    /// versions and log it for base re-execution.
    pub fn execute_tentative(&mut self, spec: TxnSpec) -> Vec<(ObjectId, Value)> {
        self.tick += 1;
        let now = SimTime(self.tick);
        let mut results = Vec::with_capacity(spec.ops.len());
        for op in &spec.ops {
            let current = self.store.read(op.object).value.clone();
            let new = op.op.apply(&current);
            let ts = self.clock.tick();
            self.store.write_tentative(op.object, new.clone(), ts);
            results.push((op.object, new));
        }
        self.next_seq += 1;
        self.pending.push(Pending {
            dedup: DedupId {
                node: self.id,
                seq: self.next_seq,
            },
            spec,
            tentative_results: results.clone(),
        });
        let id = self.id;
        self.tracer
            .emit(|| Event::system(now, id, EventKind::TentativeCommit));
        results
    }

    /// Reconnect: §7's five steps — discard tentative versions, ship
    /// the tentative transactions in commit order, apply the deferred
    /// replica refresh, learn each transaction's fate.
    ///
    /// # Panics
    /// If the base does not answer.
    pub fn sync(&mut self, base: &impl SyncTarget) -> SyncOutcome {
        self.try_sync(base).expect("the base tier did not answer")
    }

    /// One sync attempt. On failure (`None`) the node keeps its
    /// tentative versions and pending queue untouched, so the attempt
    /// can be repeated verbatim.
    fn try_sync(&mut self, base: &impl SyncTarget) -> Option<SyncOutcome> {
        self.tick += 1;
        let now = SimTime(self.tick);
        let id = self.id;
        self.tracer
            .emit(|| Event::system(now, id, EventKind::Reconnect));
        self.tracer
            .emit(|| Event::system(now, id, EventKind::MsgSent { to: NodeId(0) }));
        let reply = base.try_sync(self.pending.clone(), self.watermark)?;
        self.store.discard_tentative();
        self.pending.clear();
        let mut outcome = SyncOutcome::default();
        self.last_rejections.clear();
        for o in reply.outcomes {
            match o {
                TxnOutcome::Accepted(_) => {
                    outcome.accepted += 1;
                    self.tracer
                        .emit(|| Event::system(now, id, EventKind::TentativeAccepted));
                }
                TxnOutcome::Rejected { reason } => {
                    outcome.rejected += 1;
                    self.last_rejections.push(reason);
                    self.tracer
                        .emit(|| Event::system(now, id, EventKind::TentativeRejected));
                    // A rejection is the two-tier scheme's analogue of
                    // a reconciliation: the user must be re-involved.
                    self.tracer
                        .emit(|| Event::system(now, id, EventKind::Reconcile));
                }
            }
        }
        for record in reply.refresh {
            outcome.refreshed += 1;
            for u in record.updates {
                self.store
                    .master_mut()
                    .apply_lww(u.object, u.new_ts, u.value);
            }
        }
        if outcome.refreshed > 0 {
            self.tracer
                .emit(|| Event::system(now, id, EventKind::ReplicaApply));
        }
        self.watermark = reply.head;
        Some(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Criterion, Op, Operation};
    use std::cell::RefCell;

    fn debit(obj: u64, amount: i64) -> TxnSpec {
        TxnSpec::new(vec![Operation::new(ObjectId(obj), Op::Debit(amount))])
            .with_criterion(Criterion::NonNegative)
    }

    /// A replica answering syncs in-process; `lose_reply` drops the
    /// next reply after the replica has decided it.
    struct Base {
        replica: RefCell<Replica>,
        lose_reply: RefCell<bool>,
    }

    impl SyncTarget for Base {
        fn try_sync(&self, pendings: Vec<Pending>, from: Lsn) -> Option<SyncReply> {
            let mut replica = self.replica.borrow_mut();
            let (outcomes, _) = replica.sync(&pendings);
            if self.lose_reply.replace(false) {
                return None;
            }
            let log = replica.log();
            Some(SyncReply {
                outcomes,
                refresh: log.since(from).to_vec(),
                head: log.head(),
            })
        }
    }

    fn base(db_size: u64, initial_value: i64) -> Base {
        Base {
            replica: RefCell::new(Replica::new(
                NodeId(0),
                db_size,
                initial_value,
                SyncTraceHandle::off(),
            )),
            lose_reply: RefCell::new(false),
        }
    }

    #[test]
    fn a_resubmitted_sync_is_answered_from_the_dedup_map() {
        let base = base(1, 100);
        let mut mobile = MobileNode::new(NodeId(1), 1, 100);
        mobile.execute_tentative(debit(0, 40));
        // The base decides the debit, and the reply is lost: the mobile
        // keeps its queue and resubmits it.
        *base.lose_reply.borrow_mut() = true;
        assert!(mobile.try_sync(&base).is_none());
        assert_eq!(mobile.pending_count(), 1, "the tentative queue is kept");
        assert_eq!(mobile.sync(&base).accepted, 1);
        let replica = base.replica.borrow();
        assert_eq!(
            replica.master().get(ObjectId(0)).value,
            Value::Int(60),
            "exactly one debit"
        );
        assert_eq!(replica.log().head(), Lsn(1));
    }

    #[test]
    fn a_rejection_refreshes_the_mobile_with_the_base_state() {
        let base = base(1, 100);
        let mut you = MobileNode::new(NodeId(1), 1, 100);
        let mut spouse = MobileNode::new(NodeId(2), 1, 100);
        you.execute_tentative(debit(0, 80));
        spouse.execute_tentative(debit(0, 70));
        assert_eq!(you.sync(&base).accepted, 1);
        let outcome = spouse.sync(&base);
        assert_eq!((outcome.accepted, outcome.rejected), (0, 1));
        assert!(spouse.last_rejections()[0].contains("NonNegative"));
        assert_eq!(spouse.read(ObjectId(0)), &Value::Int(20));
    }
}
