//! Exclusive lock manager with waits-for deadlock detection.
//!
//! The paper's model regulates concurrent execution with locking
//! (§3: "Locking detects potential anomalies and converts them to waits
//! or deadlocks"). Reads are ignored and every action is an update, so
//! only exclusive locks exist. A transaction performs its actions
//! *sequentially*, so it waits on at most one object at a time — the
//! waits-for graph is functional and a cycle check is a simple chain
//! walk from the blocking holder.

use crate::hash::FastMap;
use crate::object::ObjectId;
use crate::shard::ShardLayout;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

/// Globally unique transaction identifier.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct TxnId(pub u64);

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Result of a lock request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acquire {
    /// The lock was granted immediately (or was already held).
    Granted,
    /// Another transaction holds the lock; the requester was queued and
    /// must suspend until [`LockManager::release_all_into`] grants it.
    Waiting,
    /// Queueing the requester would close a waits-for cycle. The
    /// request was **not** queued; the caller must abort the requester
    /// (the model's equation (3): the requesting transaction is the one
    /// that deadlocks).
    Deadlock,
}

/// How deadlocks are resolved (the paper's §2: "in practice, most
/// systems use timeout" rather than exact cycle detection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeadlockMode {
    /// Walk the waits-for graph on every contended request and refuse
    /// cycle-closing waits ([`Acquire::Deadlock`]).
    #[default]
    Detect,
    /// Never inspect the waits-for graph: every contended request
    /// queues ([`Acquire::Waiting`]), and the *caller* aborts waiters
    /// whose wait exceeds its timeout bound. Cycles then dissolve when
    /// any member times out; innocent long waits are collateral aborts
    /// — exactly the trade real systems make.
    TimeoutOnly,
}

/// Deliberate, environment-gated lock-discipline bugs for oracle
/// mutation testing. Set `REPL_MUTATE=grant-held[:P]` to make every
/// `P`-th contended acquire succeed spuriously; the correctness oracles
/// (`repl-check`) must then observe non-serializable histories.
/// Production runs never set the variable, so the default is
/// [`Mutation::None`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mutation {
    /// Correct locking.
    #[default]
    None,
    /// Every `period`-th contended acquire is granted even though
    /// another transaction holds the lock — a ghost grant that breaks
    /// strict two-phase locking, producing lost updates the DSG oracle
    /// sees as rw/ww cycles.
    GrantHeld {
        /// Ghost-grant every this-many-th contended request (≥ 1).
        period: u64,
    },
    /// Every `period`-th 2PC decision append to a
    /// [`DecisionLog`](crate::wal::DecisionLog) is silently lost — a
    /// coordinator that acks a commit it never made durable. The
    /// decision-durability oracle must flag the run
    /// (`REPL_MUTATE=drop-decision[:P]`).
    DropDecision {
        /// Drop every this-many-th decision append (≥ 1).
        period: u64,
    },
}

impl Mutation {
    /// Parse a `REPL_MUTATE` value. Unknown or empty specs mean no
    /// mutation; a missing or unparsable period defaults to 4.
    pub fn parse(spec: &str) -> Mutation {
        let spec = spec.trim();
        if let Some(rest) = spec.strip_prefix("grant-held") {
            let period = rest
                .strip_prefix(':')
                .and_then(|p| p.parse::<u64>().ok())
                .unwrap_or(4)
                .max(1);
            return Mutation::GrantHeld { period };
        }
        if let Some(rest) = spec.strip_prefix("drop-decision") {
            let period = rest
                .strip_prefix(':')
                .and_then(|p| p.parse::<u64>().ok())
                .unwrap_or(4)
                .max(1);
            return Mutation::DropDecision { period };
        }
        Mutation::None
    }

    /// Read the mutation from the `REPL_MUTATE` environment variable
    /// (the oracle mutation-testing hook; unset means no mutation).
    pub fn from_env() -> Mutation {
        std::env::var("REPL_MUTATE")
            .map(|v| Mutation::parse(&v))
            .unwrap_or_default()
    }
}

/// Sentinel for "no holder" in the dense holder table. No counter ever
/// mints it: that would take 2⁶⁴ − 1 transactions. A debug assertion
/// in [`LockManager::acquire`] guards the invariant anyway.
const FREE: TxnId = TxnId(u64::MAX);

/// Reusable buffers for the waits-for walk. The walk runs on every
/// contended request in [`DeadlockMode::Detect`] — recycling its three
/// vectors keeps the hot path allocation-free after warm-up.
#[derive(Debug, Default)]
struct WalkScratch {
    stack: Vec<TxnId>,
    visited: Vec<TxnId>,
    /// (node, the transaction that waits for it) — first edge wins,
    /// so the recorded chain is always a real waits-for path.
    parent: Vec<(TxnId, TxnId)>,
}

/// Strict exclusive locking with FIFO wait queues and pluggable
/// deadlock resolution: immediate waits-for cycle detection
/// ([`DeadlockMode::Detect`], the default) or caller-driven timeouts
/// ([`DeadlockMode::TimeoutOnly`]).
#[derive(Debug, Default)]
pub struct LockManager {
    /// Dense holder table indexed by the object's slot: [`FREE`] or
    /// the holding transaction. Object ids are minted densely from
    /// `0..db_size` everywhere in this codebase, so a flat array turns
    /// the per-action acquire/release — the hottest storage operation
    /// in a run — into one indexed load and store, no hashing. Grown
    /// on demand to the largest slot ever locked.
    holders: Vec<TxnId>,
    /// One bit per holder slot: set iff the object has a wait queue in
    /// `queues`. Lets the uncontended release path skip the queue map
    /// entirely.
    waitbits: Vec<u64>,
    /// `Some` for the lock table of a node that hosts part of a sharded
    /// keyspace: the table is packed to the hosted subset exactly as
    /// [`ObjectStore::sharded`](crate::ObjectStore::sharded) packs its
    /// slots, and locking an unhosted id panics. `None` is the
    /// identity: id is slot. Only `holders` and `waitbits` are indexed
    /// by slot; every queue, held list, wait record and public method
    /// speaks real [`ObjectId`]s.
    layout: Option<ShardLayout>,
    /// FIFO wait queues, present only for objects with waiters
    /// (contention is the rare case; the map stays tiny).
    queues: FastMap<ObjectId, VecDeque<TxnId>>,
    /// Number of currently held locks (telemetry).
    locked: usize,
    /// The locks each live lock-holding transaction holds. Like
    /// `waiting`, a hash map keyed by the full [`TxnId`]: it holds
    /// exactly the transactions that touch this node, however many ids
    /// the run mints elsewhere meanwhile, and an id that is no longer
    /// live reads as absent, which the timeout drivers rely on when
    /// validating that a scheduled lock timeout still refers to the
    /// same wait. Neither map is iterated.
    held: FastMap<TxnId, Vec<ObjectId>>,
    /// The single object each blocked transaction is blocked on.
    waiting: FastMap<TxnId, ObjectId>,
    /// Emptied held lists. A transaction's first grant takes one and
    /// its release returns it, so the acquire/release cycle allocates
    /// nothing after warm-up.
    held_pool: Vec<Vec<ObjectId>>,
    /// Number of currently blocked transactions.
    blocked: usize,
    /// The waits-for cycle behind the most recent [`Acquire::Deadlock`]
    /// result, victim first (telemetry forensics).
    last_cycle: Vec<TxnId>,
    /// Deadlock resolution mode.
    mode: DeadlockMode,
    /// How many times the waits-for graph was searched (always zero in
    /// [`DeadlockMode::TimeoutOnly`]).
    cycle_checks: u64,
    /// Recycled waits-for walk buffers.
    scratch: WalkScratch,
    /// Deliberate bug injection (`REPL_MUTATE`), [`Mutation::None`]
    /// unless the environment opts in.
    mutation: Mutation,
    /// Contended-acquire counter driving the mutation period.
    mutation_ticks: u64,
}

impl LockManager {
    /// An empty lock manager with cycle detection. Reads `REPL_MUTATE`
    /// (see [`Mutation`]) so oracle mutation tests can inject bugs
    /// without touching engine call sites.
    pub fn new() -> Self {
        LockManager {
            mutation: Mutation::from_env(),
            ..Self::default()
        }
    }

    /// An empty lock manager with the given deadlock resolution mode
    /// (also honours `REPL_MUTATE`, see [`LockManager::new`]).
    pub fn with_mode(mode: DeadlockMode) -> Self {
        LockManager {
            mode,
            mutation: Mutation::from_env(),
            ..Self::default()
        }
    }

    /// Pack the holder table to the objects `layout` hosts (`None`
    /// keeps the identity). Call before the first
    /// [`LockManager::acquire`].
    #[must_use]
    pub fn with_layout(mut self, layout: Option<&ShardLayout>) -> Self {
        debug_assert!(self.holders.is_empty(), "layout set on a table in use");
        self.layout = layout.cloned();
        self
    }

    /// The configured deadlock resolution mode.
    pub fn mode(&self) -> DeadlockMode {
        self.mode
    }

    /// How many waits-for graph searches have run. Stays zero in
    /// [`DeadlockMode::TimeoutOnly`] — the whole point of the timeout
    /// policy is never paying for the search.
    pub fn cycle_checks(&self) -> u64 {
        self.cycle_checks
    }

    /// Number of currently locked objects.
    pub fn locked_objects(&self) -> usize {
        self.locked
    }

    /// Number of currently blocked transactions.
    pub fn blocked_transactions(&self) -> usize {
        self.blocked
    }

    /// Record that `txn` is blocked on `obj`.
    fn set_waiting(&mut self, txn: TxnId, obj: ObjectId) {
        self.waiting.insert(txn, obj);
        self.blocked += 1;
    }

    /// Clear `txn`'s blocked-on record, returning the object it was
    /// waiting on (no-op `None` if it was not blocked).
    fn clear_waiting(&mut self, txn: TxnId) -> Option<ObjectId> {
        let obj = self.waiting.remove(&txn)?;
        self.blocked -= 1;
        Some(obj)
    }

    /// The index of `obj` in the slot-indexed tables. Panics on an id
    /// the layout does not host (protocol paths only lock hosted
    /// objects at a node).
    #[inline]
    fn slot(&self, obj: ObjectId) -> usize {
        match &self.layout {
            None => obj.0 as usize,
            Some(l) => l
                .slot(obj)
                .unwrap_or_else(|| panic!("object {} is not hosted at this lock table", obj.0)),
        }
    }

    /// The holder of `obj`, or [`FREE`] if never locked.
    #[inline]
    fn holder(&self, obj: ObjectId) -> TxnId {
        self.holders.get(self.slot(obj)).copied().unwrap_or(FREE)
    }

    /// Grow the dense tables to cover slot `o`.
    #[cold]
    fn grow(&mut self, o: usize) {
        self.holders.resize(o + 1, FREE);
        self.waitbits.resize(o / 64 + 1, 0);
    }

    /// Pre-size the dense holder tables for object ids `0..n` (the
    /// hosted ones among them, under a layout), so a run over a known
    /// database size never reallocates them mid-stream. Only capacity
    /// is reserved; [`Self::acquire`] fills entries in as ids are first
    /// locked. A constructor therefore does not write (and page in) a
    /// table per node up front, which made set-up time depend on
    /// whether the allocator still had that memory resident from the
    /// previous engine.
    pub fn reserve_objects(&mut self, n: usize) {
        let n = match &self.layout {
            None => n,
            Some(l) => l.slots(n as u64) as usize,
        };
        self.holders.reserve(n.saturating_sub(self.holders.len()));
        self.waitbits
            .reserve((n / 64 + 1).saturating_sub(self.waitbits.len()));
    }

    /// Whether `txn` currently holds the lock on `obj`.
    pub fn holds(&self, txn: TxnId, obj: ObjectId) -> bool {
        txn != FREE && self.holder(obj) == txn
    }

    /// Whether `txn` is blocked.
    pub fn is_waiting(&self, txn: TxnId) -> bool {
        self.waiting.contains_key(&txn)
    }

    /// The object `txn` is currently blocked on, if any. Lets a
    /// timeout-mode driver check that a scheduled timeout still refers
    /// to the same wait before aborting the victim.
    pub fn waiting_on(&self, txn: TxnId) -> Option<ObjectId> {
        self.waiting.get(&txn).copied()
    }

    /// Request an exclusive lock on `obj` for `txn`.
    ///
    /// Walks the waits-for chain before queueing: if suspending `txn`
    /// behind `obj`'s holder would close a cycle, returns
    /// [`Acquire::Deadlock`] without queueing.
    pub fn acquire(&mut self, txn: TxnId, obj: ObjectId) -> Acquire {
        debug_assert!(txn != FREE, "the sentinel id cannot take locks");
        debug_assert!(
            !self.is_waiting(txn),
            "{txn} requested a lock while already blocked"
        );
        let o = self.slot(obj);
        if o >= self.holders.len() {
            self.grow(o);
        }
        let holder = self.holders[o];
        if holder == FREE {
            self.holders[o] = txn;
            self.locked += 1;
            self.record_held(txn, obj);
            return Acquire::Granted;
        }
        if holder == txn {
            return Acquire::Granted;
        }
        if let Mutation::GrantHeld { period } = self.mutation {
            self.mutation_ticks += 1;
            if self.mutation_ticks.is_multiple_of(period) {
                // Ghost grant: the recorded holder stays the
                // original transaction, so its release works
                // normally and the ghost's own release skips
                // the object it never really held.
                self.record_held(txn, obj);
                return Acquire::Granted;
            }
        }
        if self.mode == DeadlockMode::Detect {
            self.cycle_checks += 1;
            if self.would_deadlock(txn, obj) {
                return Acquire::Deadlock;
            }
        }
        self.queues.entry(obj).or_default().push_back(txn);
        self.waitbits[o / 64] |= 1u64 << (o % 64);
        self.set_waiting(txn, obj);
        Acquire::Waiting
    }

    /// Append `obj` to `txn`'s held list, taking a pooled list on its
    /// first grant.
    fn record_held(&mut self, txn: TxnId, obj: ObjectId) {
        let pool = &mut self.held_pool;
        self.held
            .entry(txn)
            .or_insert_with(|| pool.pop().unwrap_or_default())
            .push(obj);
    }

    /// Would suspending `txn` behind `obj` close a waits-for cycle?
    ///
    /// With FIFO promotion a new waiter effectively waits for the
    /// current holder *and* every transaction already queued (each will
    /// hold the lock before the newcomer), so the search must traverse
    /// all of them, not just the holder chain. Depth-first search from
    /// the transactions `txn` would wait for; a path back to `txn` is a
    /// cycle. On detection the cycle is reconstructed from parent
    /// edges and stored for [`LockManager::last_deadlock_cycle`].
    fn would_deadlock(&mut self, txn: TxnId, obj: ObjectId) -> bool {
        let mut s = std::mem::take(&mut self.scratch);
        let found = self.walk_cycle(txn, obj, &mut s);
        self.scratch = s;
        found
    }

    /// The depth-first search behind [`Self::would_deadlock`],
    /// split out so the borrowed scratch buffers can be restored on
    /// every exit path.
    fn walk_cycle(&mut self, txn: TxnId, obj: ObjectId, s: &mut WalkScratch) -> bool {
        s.stack.clear();
        s.visited.clear();
        s.parent.clear();
        let push =
            |stack: &mut Vec<TxnId>, parent: &mut Vec<(TxnId, TxnId)>, node: TxnId, from: TxnId| {
                if !parent.iter().any(|(n, _)| *n == node) {
                    parent.push((node, from));
                }
                stack.push(node);
            };
        push(&mut s.stack, &mut s.parent, self.holder(obj), txn);
        if let Some(q) = self.queues.get(&obj) {
            for w in q.iter().copied() {
                push(&mut s.stack, &mut s.parent, w, txn);
            }
        }
        while let Some(current) = s.stack.pop() {
            if current == txn {
                // Walk parent edges back to the requester: each hop is
                // "X waits for Y", so reversing the tail yields the
                // cycle in waits-for order, victim first.
                self.last_cycle.clear();
                self.last_cycle.push(txn);
                let mut cur = txn;
                while let Some(&(_, from)) = s.parent.iter().find(|(n, _)| *n == cur) {
                    if from == txn {
                        break;
                    }
                    self.last_cycle.push(from);
                    cur = from;
                }
                self.last_cycle[1..].reverse();
                return true;
            }
            if s.visited.contains(&current) {
                continue;
            }
            s.visited.push(current);
            if let Some(next_obj) = self.waiting_on(current) {
                // `current` waits for the holder and only the waiters
                // *ahead of it* in the FIFO queue — including later
                // waiters would manufacture false cycles.
                push(&mut s.stack, &mut s.parent, self.holder(next_obj), current);
                if let Some(q) = self.queues.get(&next_obj) {
                    for w in q.iter().copied().take_while(|w| *w != current) {
                        push(&mut s.stack, &mut s.parent, w, current);
                    }
                }
            }
        }
        false
    }

    /// The waits-for cycle behind the most recent
    /// [`Acquire::Deadlock`] result, victim first: element `i` waits
    /// for element `i + 1`, and the last element waits for the victim.
    /// Empty until the first deadlock is detected.
    pub fn last_deadlock_cycle(&self) -> &[TxnId] {
        &self.last_cycle
    }

    /// The transaction currently holding the lock on `obj`, if locked.
    pub fn holder_of(&self, obj: ObjectId) -> Option<TxnId> {
        let h = self.holder(obj);
        (h != FREE).then_some(h)
    }

    /// Release every lock `txn` holds (commit or abort), promoting the
    /// next FIFO waiter on each object. Clears `granted` and fills it
    /// with the `(transaction, object)` pairs that just acquired their
    /// lock so the driver can resume them. Engines pass a recycled
    /// buffer and the held list goes back to the pool, so the
    /// commit/abort path allocates nothing.
    pub fn release_all_into(&mut self, txn: TxnId, granted: &mut Vec<(TxnId, ObjectId)>) {
        granted.clear();
        let Some(mut objs) = self.held.remove(&txn) else {
            return;
        };
        for obj in objs.drain(..) {
            let o = self.slot(obj);
            // A ghost grant (mutation) records a held lock the ghost
            // never really took — skip anything `txn` does not hold.
            if self.holders[o] != txn {
                continue;
            }
            let (w, b) = (o / 64, 1u64 << (o % 64));
            if self.waitbits[w] & b == 0 {
                self.holders[o] = FREE;
                self.locked -= 1;
                continue;
            }
            let q = self.queues.get_mut(&obj).expect("waiter bit set");
            let next = q.pop_front().expect("waiter bit set");
            if q.is_empty() {
                self.queues.remove(&obj);
                self.waitbits[w] &= !b;
            }
            self.holders[o] = next;
            self.clear_waiting(next);
            self.record_held(next, obj);
            granted.push((next, obj));
        }
        self.held_pool.push(objs);
    }

    /// Remove `txn` from the wait queue it sits in (used when an
    /// externally chosen victim aborts while blocked).
    pub fn cancel_wait(&mut self, txn: TxnId) {
        if let Some(obj) = self.clear_waiting(txn) {
            if let Some(q) = self.queues.get_mut(&obj) {
                q.retain(|&w| w != txn);
                if q.is_empty() {
                    self.queues.remove(&obj);
                    let o = self.slot(obj);
                    self.waitbits[o / 64] &= !(1u64 << (o % 64));
                }
            }
        }
    }

    /// The locks `txn` currently holds (empty slice if none).
    pub fn held_by(&self, txn: TxnId) -> &[ObjectId] {
        self.held.get(&txn).map_or(&[], Vec::as_slice)
    }

    /// Length of the holder table: the footprint that must follow the
    /// objects the node hosts, not the database (regression tests
    /// only).
    #[doc(hidden)]
    pub fn holder_table_len(&self) -> usize {
        self.holders.len()
    }

    /// Capacity of both per-transaction maps: the footprint that must
    /// follow this node's own live population, not the ids the run
    /// mints (regression tests only). A map's capacity is the entries
    /// it holds without growing; the slots removals leave behind count
    /// against it until the map next rehashes, so it can dip below the
    /// allocation, never below the live population.
    #[doc(hidden)]
    pub fn txn_table_capacity(&self) -> usize {
        self.held.capacity() + self.waiting.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: TxnId = TxnId(1);
    const B: TxnId = TxnId(2);
    const C: TxnId = TxnId(3);
    const O1: ObjectId = ObjectId(1);
    const O2: ObjectId = ObjectId(2);
    const O3: ObjectId = ObjectId(3);

    /// Release `txn`'s locks and return the promoted waiters.
    fn release(lm: &mut LockManager, txn: TxnId) -> Vec<(TxnId, ObjectId)> {
        let mut granted = Vec::new();
        lm.release_all_into(txn, &mut granted);
        granted
    }

    #[test]
    fn grant_free_lock() {
        let mut lm = LockManager::new();
        assert_eq!(lm.acquire(A, O1), Acquire::Granted);
        assert!(lm.holds(A, O1));
        assert_eq!(lm.held_by(A), &[O1]);
    }

    #[test]
    fn reentrant_acquire_is_granted() {
        let mut lm = LockManager::new();
        lm.acquire(A, O1);
        assert_eq!(lm.acquire(A, O1), Acquire::Granted);
        // Not double-recorded.
        assert_eq!(lm.held_by(A).len(), 1);
    }

    #[test]
    fn second_requester_waits() {
        let mut lm = LockManager::new();
        lm.acquire(A, O1);
        assert_eq!(lm.acquire(B, O1), Acquire::Waiting);
        assert!(lm.is_waiting(B));
        assert_eq!(lm.blocked_transactions(), 1);
    }

    #[test]
    fn release_promotes_fifo() {
        let mut lm = LockManager::new();
        lm.acquire(A, O1);
        lm.acquire(B, O1);
        lm.acquire(C, O1);
        let granted = release(&mut lm, A);
        assert_eq!(granted, vec![(B, O1)]);
        assert!(lm.holds(B, O1));
        assert!(!lm.is_waiting(B));
        assert!(lm.is_waiting(C));
        let granted = release(&mut lm, B);
        assert_eq!(granted, vec![(C, O1)]);
    }

    #[test]
    fn release_frees_uncontended_lock() {
        let mut lm = LockManager::new();
        lm.acquire(A, O1);
        assert!(release(&mut lm, A).is_empty());
        assert_eq!(lm.locked_objects(), 0);
        assert_eq!(lm.acquire(B, O1), Acquire::Granted);
    }

    #[test]
    fn two_cycle_deadlock_detected() {
        let mut lm = LockManager::new();
        lm.acquire(A, O1);
        lm.acquire(B, O2);
        assert_eq!(lm.acquire(A, O2), Acquire::Waiting);
        // B requesting O1 would close A→O2(B) / B→O1(A).
        assert_eq!(lm.acquire(B, O1), Acquire::Deadlock);
        // B was not queued.
        assert!(!lm.is_waiting(B));
    }

    #[test]
    fn three_cycle_deadlock_detected() {
        let mut lm = LockManager::new();
        lm.acquire(A, O1);
        lm.acquire(B, O2);
        lm.acquire(C, O3);
        assert_eq!(lm.acquire(A, O2), Acquire::Waiting);
        assert_eq!(lm.acquire(B, O3), Acquire::Waiting);
        assert_eq!(lm.acquire(C, O1), Acquire::Deadlock);
    }

    #[test]
    fn chain_without_cycle_waits() {
        let mut lm = LockManager::new();
        lm.acquire(A, O1);
        lm.acquire(B, O2);
        assert_eq!(lm.acquire(C, O1), Acquire::Waiting); // C→A, A free: fine
        assert_eq!(lm.acquire(A, O2), Acquire::Waiting); // A→B, B free: fine
    }

    #[test]
    fn victim_abort_releases_and_unblocks() {
        let mut lm = LockManager::new();
        lm.acquire(A, O1);
        lm.acquire(B, O2);
        lm.acquire(A, O2);
        assert_eq!(lm.acquire(B, O1), Acquire::Deadlock);
        // B aborts: releases O2, which unblocks A.
        let granted = release(&mut lm, B);
        assert_eq!(granted, vec![(A, O2)]);
        assert!(lm.holds(A, O2));
        assert!(!lm.is_waiting(A));
    }

    #[test]
    fn cancel_wait_removes_from_queue() {
        let mut lm = LockManager::new();
        lm.acquire(A, O1);
        lm.acquire(B, O1);
        lm.acquire(C, O1);
        lm.cancel_wait(B);
        assert!(!lm.is_waiting(B));
        let granted = release(&mut lm, A);
        assert_eq!(granted, vec![(C, O1)]);
    }

    #[test]
    fn release_all_unknown_txn_is_noop() {
        let mut lm = LockManager::new();
        assert!(release(&mut lm, TxnId(99)).is_empty());
    }

    #[test]
    fn deadlock_through_queued_waiter_detected() {
        // A holds O1. B waits on O1. C requests O1 (queued behind B) —
        // then B can only run after A releases, and if B ultimately
        // needs something C holds we have a cycle through the queue.
        let mut lm = LockManager::new();
        lm.acquire(A, O1);
        lm.acquire(C, O2);
        assert_eq!(lm.acquire(B, O1), Acquire::Waiting);
        // C queues behind B on O1: C waits for A and B.
        assert_eq!(lm.acquire(C, O1), Acquire::Waiting);
        // A commits; B now holds O1, C still queued behind B.
        release(&mut lm, A);
        assert!(lm.holds(B, O1));
        // B requests O2 (held by C, who waits for B) → cycle.
        assert_eq!(lm.acquire(B, O2), Acquire::Deadlock);
    }

    #[test]
    fn later_waiter_does_not_create_false_cycle() {
        // A holds O1; B waits on O1; C queues after B on O1 and also
        // holds O2. B requesting O2 must NOT be a deadlock: B is ahead
        // of C, so C does not block B.
        let mut lm = LockManager::new();
        lm.acquire(A, O1);
        lm.acquire(C, O2);
        assert_eq!(lm.acquire(B, O1), Acquire::Waiting);
        assert_eq!(lm.acquire(C, O1), Acquire::Waiting);
        // B is blocked, so in the simulator it could not issue another
        // request — but verify the graph logic directly: a fresh txn D
        // queued ahead-of-nobody asking for O2 just waits.
        let d = TxnId(4);
        assert_eq!(lm.acquire(d, O2), Acquire::Waiting);
    }

    #[test]
    fn holder_of_reports_current_holder() {
        let mut lm = LockManager::new();
        assert_eq!(lm.holder_of(O1), None);
        lm.acquire(A, O1);
        lm.acquire(B, O1);
        assert_eq!(lm.holder_of(O1), Some(A));
        release(&mut lm, A);
        assert_eq!(lm.holder_of(O1), Some(B));
        release(&mut lm, B);
        assert_eq!(lm.holder_of(O1), None);
    }

    #[test]
    fn two_cycle_reconstructed_victim_first() {
        let mut lm = LockManager::new();
        lm.acquire(A, O1);
        lm.acquire(B, O2);
        lm.acquire(A, O2);
        assert!(lm.last_deadlock_cycle().is_empty());
        assert_eq!(lm.acquire(B, O1), Acquire::Deadlock);
        assert_eq!(lm.last_deadlock_cycle(), &[B, A]);
    }

    #[test]
    fn three_cycle_reconstructed_in_waits_for_order() {
        let mut lm = LockManager::new();
        lm.acquire(A, O1);
        lm.acquire(B, O2);
        lm.acquire(C, O3);
        lm.acquire(A, O2);
        lm.acquire(B, O3);
        assert_eq!(lm.acquire(C, O1), Acquire::Deadlock);
        // C waits for A (O1), A waits for B (O2), B waits for C (O3).
        assert_eq!(lm.last_deadlock_cycle(), &[C, A, B]);
    }

    #[test]
    fn cycle_through_queued_waiter_includes_waiter() {
        // Same setup as deadlock_through_queued_waiter_detected: after
        // A commits, B holds O1 with C queued behind it, and C holds
        // O2. B requesting O2 closes B→C→B.
        let mut lm = LockManager::new();
        lm.acquire(A, O1);
        lm.acquire(C, O2);
        lm.acquire(B, O1);
        lm.acquire(C, O1);
        release(&mut lm, A);
        assert_eq!(lm.acquire(B, O2), Acquire::Deadlock);
        assert_eq!(lm.last_deadlock_cycle(), &[B, C]);
    }

    #[test]
    fn timeout_mode_queues_cycle_closing_waits() {
        let mut lm = LockManager::with_mode(DeadlockMode::TimeoutOnly);
        lm.acquire(A, O1);
        lm.acquire(B, O2);
        assert_eq!(lm.acquire(A, O2), Acquire::Waiting);
        // Under detection this request is refused; under timeout it
        // queues and the cycle sits until a caller-side timeout fires.
        assert_eq!(lm.acquire(B, O1), Acquire::Waiting);
        assert!(lm.is_waiting(A));
        assert!(lm.is_waiting(B));
        assert_eq!(lm.cycle_checks(), 0, "timeout mode never walks the graph");
        // The caller picks B as the timeout victim: cancel its wait and
        // release its locks; A unblocks and the cycle dissolves.
        lm.cancel_wait(B);
        let granted = release(&mut lm, B);
        assert_eq!(granted, vec![(A, O2)]);
        assert!(!lm.is_waiting(A));
    }

    #[test]
    fn detect_mode_counts_cycle_checks() {
        let mut lm = LockManager::new();
        assert_eq!(lm.mode(), DeadlockMode::Detect);
        lm.acquire(A, O1);
        assert_eq!(lm.cycle_checks(), 0, "uncontended grants skip the walk");
        lm.acquire(B, O1);
        assert_eq!(lm.cycle_checks(), 1);
        lm.acquire(C, O1);
        assert_eq!(lm.cycle_checks(), 2);
    }

    #[test]
    fn waiting_on_reports_blocking_object() {
        let mut lm = LockManager::new();
        lm.acquire(A, O1);
        assert_eq!(lm.waiting_on(A), None);
        lm.acquire(B, O1);
        assert_eq!(lm.waiting_on(B), Some(O1));
        release(&mut lm, A);
        assert_eq!(lm.waiting_on(B), None);
    }

    #[test]
    fn release_all_into_clears_stale_contents() {
        let mut lm = LockManager::new();
        lm.acquire(A, O1);
        lm.acquire(B, O1);
        let mut out = vec![(C, O3)]; // stale garbage must be cleared
        lm.release_all_into(A, &mut out);
        assert_eq!(out, vec![(B, O1)]);
        lm.release_all_into(B, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn held_entry_serves_only_its_owner() {
        // Ids equal in their low 32 bits are still distinct keys: each
        // must find only its own locks, never a dead one's.
        let mut lm = LockManager::new();
        let low = 7u64;
        for high in 0..10u64 {
            let t = TxnId((high << 32) | low);
            lm.acquire(t, O1);
            lm.acquire(t, O2);
            assert_eq!(lm.held_by(t), &[O1, O2]);
            assert!(release(&mut lm, t).is_empty());
            assert_eq!(lm.locked_objects(), 0);
            assert!(lm.held_by(t).is_empty());
        }
        // A dead id reads as holding nothing even while an id with the
        // same low bits holds locks.
        let current = TxnId((10 << 32) | low);
        let stale = TxnId(low);
        lm.acquire(current, O1);
        assert!(lm.held_by(stale).is_empty());
        assert!(!lm.holds(stale, O1));
    }

    #[test]
    fn dead_id_wait_queries_read_absent() {
        // A wait entry must not answer for the dead id that owned it
        // before — the timeout drivers validate a scheduled timeout
        // against `waiting_on` before aborting the victim.
        let mut lm = LockManager::new();
        let old = TxnId(5);
        let new = TxnId((1 << 32) | 5);
        lm.acquire(A, O1);
        assert_eq!(lm.acquire(old, O1), Acquire::Waiting);
        lm.cancel_wait(old);
        assert_eq!(lm.acquire(new, O1), Acquire::Waiting);
        assert_eq!(lm.waiting_on(old), None);
        assert_eq!(lm.waiting_on(new), Some(O1));
        assert!(!lm.is_waiting(old));
        assert_eq!(lm.blocked_transactions(), 1);
    }

    #[test]
    fn grant_held_mutation_ghost_grants_contended_requests() {
        let mut lm = LockManager {
            mutation: Mutation::GrantHeld { period: 1 },
            ..Default::default()
        };
        lm.acquire(A, O1);
        // Every contended request is ghost-granted under period 1.
        assert_eq!(lm.acquire(B, O1), Acquire::Granted);
        // The real holder is unchanged and releases normally…
        assert_eq!(lm.holder_of(O1), Some(A));
        assert!(release(&mut lm, A).is_empty());
        // …and the ghost's release skips the lock it never truly held.
        assert!(release(&mut lm, B).is_empty());
        assert_eq!(lm.locked_objects(), 0);
    }

    #[test]
    fn mutation_spec_parsing() {
        assert_eq!(Mutation::parse(""), Mutation::None);
        assert_eq!(Mutation::parse("nonsense"), Mutation::None);
        assert_eq!(
            Mutation::parse("grant-held"),
            Mutation::GrantHeld { period: 4 }
        );
        assert_eq!(
            Mutation::parse("grant-held:3"),
            Mutation::GrantHeld { period: 3 }
        );
        // Zero and garbage periods clamp/default rather than panic.
        assert_eq!(
            Mutation::parse("grant-held:0"),
            Mutation::GrantHeld { period: 1 }
        );
        assert_eq!(
            Mutation::parse("grant-held:x"),
            Mutation::GrantHeld { period: 4 }
        );
        assert_eq!(
            Mutation::parse("drop-decision"),
            Mutation::DropDecision { period: 4 }
        );
        assert_eq!(
            Mutation::parse("drop-decision:7"),
            Mutation::DropDecision { period: 7 }
        );
        assert_eq!(
            Mutation::parse("drop-decision:0"),
            Mutation::DropDecision { period: 1 }
        );
    }

    #[test]
    fn deadlock_after_queue_respects_waiters() {
        // A holds O1; B waits on O1; B holds O2; A requests O2 → cycle
        // through the *queued* B must still be found.
        let mut lm = LockManager::new();
        lm.acquire(B, O2);
        lm.acquire(A, O1);
        assert_eq!(lm.acquire(B, O1), Acquire::Waiting);
        assert_eq!(lm.acquire(A, O2), Acquire::Deadlock);
    }
}
