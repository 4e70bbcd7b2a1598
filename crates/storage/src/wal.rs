//! Per-node commit log. Lazy replication replays committed updates "in
//! sequential commit order" (§5); the log records exactly that order and
//! hands out contiguous ranges for propagation.

use crate::hash::FastMap;
use crate::lock::{Mutation, TxnId};
use crate::object::{NodeId, ObjectId, Timestamp, Value};
use serde::{Deserialize, Serialize};

/// Log sequence number: position in a node's commit log.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Lsn(pub u64);

/// One committed object update, as shipped to replicas (the paper's
/// Figure 4 message: `TRID, OID, old time, new value`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UpdateRecord {
    /// The committing (root) transaction.
    pub txn: TxnId,
    /// The updated object.
    pub object: ObjectId,
    /// Timestamp the root transaction observed before its write — the
    /// lazy-group safety test compares replicas against this.
    pub old_ts: Timestamp,
    /// Timestamp of the new version.
    pub new_ts: Timestamp,
    /// The new value.
    pub value: Value,
}

/// A committed transaction's updates, in execution order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommitRecord {
    /// Log position of this commit.
    pub lsn: Lsn,
    /// The committed transaction.
    pub txn: TxnId,
    /// Its updates, in the order the transaction performed them.
    pub updates: Vec<UpdateRecord>,
}

/// An append-only, in-memory commit log for one node.
///
/// Supports truncation of fully replicated prefixes: once every
/// destination's watermark has passed an LSN, the records below it can
/// be discarded (`truncate_until_recycling`) while LSNs remain stable.
#[derive(Debug, Default)]
pub struct CommitLog {
    /// Backing storage. Live records are `records[start..]`; the
    /// prefix below `start` is truncated husks awaiting compaction.
    /// Truncation happens once per *commit* (the propagation path
    /// garbage-collects the fully shipped prefix), so eagerly
    /// `drain`ing the front would memmove the whole surviving tail
    /// every time — quadratic while a disconnected destination holds
    /// the watermark back. Advancing `start` and compacting only when
    /// the dead prefix dominates keeps truncation amortized O(1).
    records: Vec<CommitRecord>,
    /// Index of the oldest live record in `records`.
    start: usize,
    /// LSN of `records[start]` (number of records ever truncated).
    base: u64,
}

impl CommitLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of commits recorded.
    pub fn len(&self) -> usize {
        self.records.len() - self.start
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.records.len()
    }

    /// The LSN the *next* commit will receive.
    pub fn head(&self) -> Lsn {
        Lsn(self.base + self.len() as u64)
    }

    /// The oldest LSN still present (everything below was truncated).
    pub fn tail(&self) -> Lsn {
        Lsn(self.base)
    }

    /// Append a committed transaction, assigning its LSN.
    pub fn append(&mut self, txn: TxnId, updates: Vec<UpdateRecord>) -> Lsn {
        let lsn = self.head();
        self.records.push(CommitRecord { lsn, txn, updates });
        lsn
    }

    /// The commits in `[from, head)`, in commit order — what a
    /// reconnecting replica that has replayed up to `from` must apply.
    ///
    /// # Panics
    /// In debug builds if `from` lies below the truncation point (the
    /// requested history no longer exists).
    pub fn since(&self, from: Lsn) -> &[CommitRecord] {
        debug_assert!(
            from.0 >= self.base || self.is_empty(),
            "requested LSN {from:?} below truncation point {}",
            self.base
        );
        let skip = (from.0.saturating_sub(self.base) as usize).min(self.len());
        &self.records[self.start + skip..]
    }

    /// Read one commit by LSN. Returns `None` for truncated or
    /// not-yet-written positions.
    pub fn get(&self, lsn: Lsn) -> Option<&CommitRecord> {
        let idx = lsn.0.checked_sub(self.base)? as usize;
        if idx >= self.len() {
            return None;
        }
        self.records.get(self.start + idx)
    }

    /// Discard every record below `upto` (exclusive). Call with the
    /// minimum of all destination watermarks so no replica loses
    /// history it still needs. The discarded records' update buffers
    /// are cleared and pushed onto `spare` instead of freed, so the
    /// engine can hand the allocations to future commits. At steady
    /// state commits consume recycled buffers as fast as truncation
    /// produces them, so `spare` stays bounded by the log's own churn.
    pub fn truncate_until_recycling(&mut self, upto: Lsn, spare: &mut Vec<Vec<UpdateRecord>>) {
        let cut = (upto.0.saturating_sub(self.base) as usize).min(self.len());
        if cut == 0 {
            return;
        }
        for rec in &mut self.records[self.start..self.start + cut] {
            let mut updates = std::mem::take(&mut rec.updates);
            updates.clear();
            spare.push(updates);
        }
        self.start += cut;
        self.base += cut as u64;
        // Compact the backing vector once the dead prefix outweighs the
        // live tail (amortized O(1) per truncated record).
        if self.start >= 32 && self.start >= self.records.len() - self.start {
            self.records.drain(..self.start);
            self.start = 0;
        }
    }
}

/// One node's durable 2PC state for a transaction, as replayed on
/// restart. Presumed abort: a transaction with no entry (or a
/// [`DecisionState::Prepared`] entry on the *coordinator*) is aborted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecisionState {
    /// Participant force-logged its yes-vote; it is in doubt until the
    /// decision from `coord` arrives (recovery asks `coord`).
    Prepared {
        /// The coordinating node to query on recovery.
        coord: NodeId,
    },
    /// The decision is durable. On the coordinator the record carries
    /// the participant set so recovery can re-distribute it.
    Decided {
        /// True for commit, false for abort.
        commit: bool,
        /// Remote participants still owed the decision (coordinator
        /// records only; empty on participants).
        participants: Vec<NodeId>,
    },
    /// Every participant acknowledged — the entry is garbage.
    Done,
}

/// The durable per-node decision log of the two-phase commit layer —
/// the WAL-replay path a crashed owner recovers in-doubt transactions
/// from. Appends survive crashes; everything volatile (coordinator
/// timers, vote tallies) does not.
///
/// The `REPL_MUTATE=drop-decision[:P]` mutation (read once at
/// construction) silently loses every `P`-th [`DecisionLog::log_decision`]
/// append, modelling a coordinator that acks before the log is durable —
/// the decision-durability oracle must catch it.
#[derive(Debug, Default)]
pub struct DecisionLog {
    entries: FastMap<TxnId, DecisionState>,
    mutation: Mutation,
    decision_appends: u64,
}

impl DecisionLog {
    /// An empty log, with the `REPL_MUTATE` hook armed.
    pub fn new() -> Self {
        DecisionLog {
            entries: FastMap::default(),
            mutation: Mutation::from_env(),
            decision_appends: 0,
        }
    }

    /// Participant: force-log the yes-vote before sending it.
    pub fn log_prepared(&mut self, txn: TxnId, coord: NodeId) {
        self.entries
            .entry(txn)
            .or_insert(DecisionState::Prepared { coord });
    }

    /// Force-log a decision (coordinator passes the remote participant
    /// set; participants pass an empty one). Overwrites a `Prepared`
    /// entry; never downgrades a `Done` one.
    pub fn log_decision(&mut self, txn: TxnId, commit: bool, participants: Vec<NodeId>) {
        self.decision_appends += 1;
        if let Mutation::DropDecision { period } = self.mutation {
            if self.decision_appends.is_multiple_of(period) {
                return; // the injected bug: ack without durability
            }
        }
        match self.entries.entry(txn) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                if !matches!(e.get(), DecisionState::Done) {
                    e.insert(DecisionState::Decided {
                        commit,
                        participants,
                    });
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(DecisionState::Decided {
                    commit,
                    participants,
                });
            }
        }
    }

    /// Coordinator: every participant acked, the entry can be forgotten.
    pub fn mark_done(&mut self, txn: TxnId) {
        // Only an existing record transitions to Done: if the decision
        // append never made it to the log (crash, injected drop), acks
        // completing must not fabricate durability.
        if let Some(e) = self.entries.get_mut(&txn) {
            if matches!(e, DecisionState::Decided { .. }) {
                *e = DecisionState::Done;
            }
        }
    }

    /// The durable decision for `txn`, if any (`true` = commit).
    /// Presumed abort: callers treat `None` as abort.
    pub fn decision(&self, txn: TxnId) -> Option<bool> {
        match self.entries.get(&txn)? {
            DecisionState::Decided { commit, .. } => Some(*commit),
            _ => None,
        }
    }

    /// The durable state for `txn`, if any.
    pub fn state(&self, txn: TxnId) -> Option<&DecisionState> {
        self.entries.get(&txn)
    }

    /// Replay iterator: every surviving entry, for restart recovery and
    /// end-of-run durability audits. Order is unspecified — recovery
    /// treats each transaction independently.
    pub fn entries(&self) -> impl Iterator<Item = (TxnId, &DecisionState)> {
        self.entries.iter().map(|(t, s)| (*t, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upd(txn: u64, obj: u64, c: u64) -> UpdateRecord {
        UpdateRecord {
            txn: TxnId(txn),
            object: ObjectId(obj),
            old_ts: Timestamp::ZERO,
            new_ts: Timestamp::new(c, NodeId(1)),
            value: Value::Int(c as i64),
        }
    }

    /// Transaction id, object id, two timestamps and an 8-byte value.
    #[test]
    fn update_record_is_56_bytes() {
        assert_eq!(std::mem::size_of::<UpdateRecord>(), 56);
    }

    #[test]
    fn append_assigns_sequential_lsns() {
        let mut log = CommitLog::new();
        assert_eq!(log.append(TxnId(1), vec![upd(1, 0, 1)]), Lsn(0));
        assert_eq!(log.append(TxnId(2), vec![upd(2, 1, 2)]), Lsn(1));
        assert_eq!(log.head(), Lsn(2));
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn since_returns_suffix_in_order() {
        let mut log = CommitLog::new();
        for i in 0..5 {
            log.append(TxnId(i), vec![upd(i, i, i + 1)]);
        }
        let tail = log.since(Lsn(3));
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].txn, TxnId(3));
        assert_eq!(tail[1].txn, TxnId(4));
    }

    #[test]
    fn since_head_is_empty() {
        let mut log = CommitLog::new();
        log.append(TxnId(1), vec![]);
        assert!(log.since(log.head()).is_empty());
    }

    #[test]
    fn since_past_head_is_empty_not_panic() {
        let log = CommitLog::new();
        assert!(log.since(Lsn(42)).is_empty());
    }

    #[test]
    fn get_by_lsn() {
        let mut log = CommitLog::new();
        let lsn = log.append(TxnId(7), vec![upd(7, 3, 9)]);
        let rec = log.get(lsn).unwrap();
        assert_eq!(rec.txn, TxnId(7));
        assert_eq!(rec.updates[0].object, ObjectId(3));
        assert!(log.get(Lsn(99)).is_none());
    }

    #[test]
    fn empty_log_state() {
        let log = CommitLog::new();
        assert!(log.is_empty());
        assert_eq!(log.head(), Lsn(0));
        assert_eq!(log.tail(), Lsn(0));
    }

    #[test]
    fn truncate_preserves_lsns() {
        let mut log = CommitLog::new();
        for i in 0..10 {
            log.append(TxnId(i), vec![upd(i, i, i + 1)]);
        }
        log.truncate_until_recycling(Lsn(4), &mut Vec::new());
        assert_eq!(log.tail(), Lsn(4));
        assert_eq!(log.head(), Lsn(10));
        assert_eq!(log.len(), 6);
        // LSNs are stable across truncation.
        assert_eq!(log.get(Lsn(4)).unwrap().txn, TxnId(4));
        assert!(log.get(Lsn(3)).is_none(), "truncated record must be gone");
        let tail = log.since(Lsn(8));
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].txn, TxnId(8));
    }

    #[test]
    fn truncate_everything_then_append() {
        let mut log = CommitLog::new();
        log.append(TxnId(1), vec![]);
        log.append(TxnId(2), vec![]);
        log.truncate_until_recycling(log.head(), &mut Vec::new());
        assert!(log.is_empty());
        assert_eq!(log.head(), Lsn(2));
        let lsn = log.append(TxnId(3), vec![]);
        assert_eq!(lsn, Lsn(2));
        assert_eq!(log.get(Lsn(2)).unwrap().txn, TxnId(3));
    }

    #[test]
    fn truncate_beyond_head_clamps() {
        let mut log = CommitLog::new();
        log.append(TxnId(1), vec![]);
        log.truncate_until_recycling(Lsn(99), &mut Vec::new());
        assert!(log.is_empty());
        assert_eq!(log.tail(), Lsn(1));
    }

    #[test]
    fn truncate_hands_back_the_emptied_buffers() {
        let mut log = CommitLog::new();
        for i in 0..6 {
            log.append(TxnId(i), vec![upd(i, i, i + 1)]);
        }
        let mut spare = Vec::new();
        log.truncate_until_recycling(Lsn(4), &mut spare);
        assert_eq!((log.tail(), log.head()), (Lsn(4), Lsn(6)));
        assert_eq!(log.since(Lsn(4))[0].updates, [upd(4, 4, 5)]);
        // Four buffers came back, emptied but with capacity intact.
        assert_eq!(spare.len(), 4);
        assert!(spare.iter().all(|v| v.is_empty() && v.capacity() >= 1));
    }

    #[test]
    fn decision_log_presumes_abort() {
        let log = DecisionLog::new();
        assert_eq!(log.decision(TxnId(1)), None);
        assert!(log.state(TxnId(1)).is_none());
    }

    #[test]
    fn decision_log_lifecycle() {
        let mut log = DecisionLog::new();
        log.log_prepared(TxnId(1), NodeId(3));
        assert_eq!(
            log.state(TxnId(1)),
            Some(&DecisionState::Prepared { coord: NodeId(3) })
        );
        assert_eq!(log.decision(TxnId(1)), None, "prepared is not decided");
        log.log_decision(TxnId(1), true, vec![NodeId(2)]);
        assert_eq!(log.decision(TxnId(1)), Some(true));
        log.mark_done(TxnId(1));
        assert_eq!(log.state(TxnId(1)), Some(&DecisionState::Done));
        // A replayed decision never resurrects a Done entry.
        log.log_decision(TxnId(1), false, vec![]);
        assert_eq!(log.state(TxnId(1)), Some(&DecisionState::Done));
    }

    #[test]
    fn decision_log_drop_decision_mutation() {
        // Construct directly (not via env) so the test cannot race other
        // tests over the process-global REPL_MUTATE variable.
        let mut log = DecisionLog {
            mutation: Mutation::DropDecision { period: 2 },
            ..DecisionLog::default()
        };
        log.log_decision(TxnId(1), true, vec![]);
        log.log_decision(TxnId(2), true, vec![]);
        log.log_decision(TxnId(3), false, vec![]);
        assert_eq!(log.decision(TxnId(1)), Some(true));
        assert_eq!(log.decision(TxnId(2)), None, "2nd append must be lost");
        assert_eq!(log.decision(TxnId(3)), Some(false));
        // Ack completion must not mask the dropped append: mark_done on
        // a missing entry leaves it missing (this is what the
        // lost-decision oracle detects).
        log.mark_done(TxnId(2));
        assert!(log.state(TxnId(2)).is_none());
    }

    #[test]
    fn truncate_noop_below_base() {
        let mut log = CommitLog::new();
        for i in 0..5 {
            log.append(TxnId(i), vec![]);
        }
        log.truncate_until_recycling(Lsn(3), &mut Vec::new());
        log.truncate_until_recycling(Lsn(2), &mut Vec::new()); // already gone — must not panic
        assert_eq!(log.tail(), Lsn(3));
    }
}
