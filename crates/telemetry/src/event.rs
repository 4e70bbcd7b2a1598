//! The typed event vocabulary: everything an engine can observe,
//! stamped with simulated time, the observing node, and the acting
//! transaction.

use repl_sim::SimTime;
use repl_storage::{Lsn, NodeId, ObjectId, TxnId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why a transaction was rolled back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AbortReason {
    /// The request would have closed a waits-for cycle; the requester
    /// is the deadlock victim (the model's equation (3)).
    Deadlock,
    /// A replica update lost the timestamp safety test and the local
    /// state had to be reconciled.
    Conflict,
    /// The node disconnected mid-transaction.
    Disconnect,
    /// The lock wait exceeded the configured timeout (§2's "most
    /// systems use timeout" deadlock resolution): the waiter is
    /// presumed deadlocked and aborted.
    Timeout,
    /// The node crashed with the transaction in flight.
    Crash,
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortReason::Deadlock => write!(f, "deadlock"),
            AbortReason::Conflict => write!(f, "conflict"),
            AbortReason::Disconnect => write!(f, "disconnect"),
            AbortReason::Timeout => write!(f, "timeout"),
            AbortReason::Crash => write!(f, "crash"),
        }
    }
}

/// What happened. One variant per point where the engines bump a
/// `Metrics` counter, plus run markers that let a single sink separate
/// the several engine runs inside one experiment sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// A new engine run begins; subsequent events belong to it.
    RunStart {
        /// Human-readable run label (engine + parameter point).
        label: String,
    },
    /// A user transaction entered the system.
    TxnBegin,
    /// A user transaction committed.
    TxnCommit,
    /// A user transaction aborted.
    TxnAbort {
        /// Why it rolled back.
        reason: AbortReason,
    },
    /// A lock request blocked behind a holder (equation (10)'s waits).
    LockWait {
        /// The contended object.
        object: ObjectId,
        /// The transaction holding the lock.
        holder: TxnId,
        /// The transaction that must wait.
        waiter: TxnId,
    },
    /// A lock request would have closed a waits-for cycle (equation
    /// (12)'s deadlocks); `cycle` is the actual cycle, victim first.
    DeadlockDetected {
        /// The waits-for cycle `victim → … → victim`, in edge order.
        cycle: Vec<TxnId>,
    },
    /// A committed transaction's updates were sent to a replica.
    ReplicaSend {
        /// Destination node.
        to: NodeId,
        /// Log position of the shipped commit record.
        lsn: Lsn,
    },
    /// A replica-update transaction committed at this node.
    ReplicaApply,
    /// A replica update was skipped as a stale duplicate.
    StaleSkip,
    /// A replica update failed the timestamp safety test — the paper's
    /// "dangerous" update that lazy-group must reconcile.
    DangerousUpdate {
        /// The conflicting object.
        object: ObjectId,
    },
    /// A reconciliation was performed (equations (14)/(18)).
    Reconcile,
    /// A mobile node tentatively committed (two-tier, §7).
    TentativeCommit,
    /// A tentative transaction's base re-execution passed its
    /// acceptance criterion.
    TentativeAccepted,
    /// A tentative transaction's base re-execution failed its
    /// acceptance criterion.
    TentativeRejected,
    /// The node went offline.
    Disconnect,
    /// The node came back online.
    Reconnect,
    /// A network message was sent.
    MsgSent {
        /// Destination node.
        to: NodeId,
    },
    /// A network message was delivered.
    MsgDelivered {
        /// Originating node.
        from: NodeId,
    },
    /// A network message was dropped by fault injection (or lost on a
    /// dead link). The sender's watermark does not advance; the driver
    /// retransmits.
    MsgDropped {
        /// Destination node of the lost message.
        to: NodeId,
    },
    /// Fault injection duplicated a message; both copies will be
    /// delivered (the receiver's timestamp test deduplicates).
    MsgDuplicated {
        /// Destination node.
        to: NodeId,
    },
    /// A scheduled network partition split the cluster into two sides.
    PartitionStart {
        /// Nodes on the minority ("A") side; everyone else is on "B".
        side_a: Vec<NodeId>,
    },
    /// The partition healed; parked cross-partition traffic drains.
    PartitionHeal,
    /// The node crashed, losing all volatile state (lock table,
    /// in-flight transactions, unapplied replica backlog).
    NodeCrash,
    /// The node restarted and recovered from its durable state.
    NodeRestart,
    /// Messages parked or re-parked while the node was down were
    /// redelivered on restart (the undelivered propagation queue).
    RecoveryReplay {
        /// How many messages were replayed.
        messages: u64,
    },
    /// A lock wait exceeded the timeout-resolution bound; the waiter
    /// is aborted as a presumed deadlock victim.
    LockTimeout {
        /// The object the victim was waiting for.
        object: ObjectId,
    },
    /// A base-tier election concluded: `leader` is the primary for
    /// `epoch` (at most one per epoch — the leader-safety invariant).
    LeaderElected {
        /// The new epoch (term) number.
        epoch: u64,
        /// The elected primary replica.
        leader: NodeId,
    },
    /// A base replica rejected a message stamped with a stale epoch —
    /// the fence that keeps a deposed primary from splitting the brain.
    EpochFenced {
        /// The stale epoch the message carried.
        stale: u64,
        /// The replica's current epoch.
        current: u64,
    },
    /// A newly elected primary (or a rejoining replica) finished
    /// anti-entropy log transfer and is ready to serve.
    CatchUpComplete {
        /// The epoch under which catch-up ran.
        epoch: u64,
        /// Replicated log records transferred.
        records: u64,
    },
}

/// One observed occurrence: an [`EventKind`] stamped with simulated
/// time, the observing node, and the acting transaction.
///
/// Events with no natural transaction (connectivity changes, run
/// markers) use [`TxnId`]'s default `t0`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Simulated time of the observation.
    pub at: SimTime,
    /// The node at which it was observed.
    pub node: NodeId,
    /// The acting transaction (`TxnId(0)` when not applicable).
    pub txn: TxnId,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// Construct an event.
    pub fn new(at: SimTime, node: NodeId, txn: TxnId, kind: EventKind) -> Self {
        Event {
            at,
            node,
            txn,
            kind,
        }
    }

    /// An event with no acting transaction.
    pub fn system(at: SimTime, node: NodeId, kind: EventKind) -> Self {
        Event::new(at, node, TxnId::default(), kind)
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} {} {}] {:?}",
            self.at, self.node, self.txn, self.kind
        )
    }
}
