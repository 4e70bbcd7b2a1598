//! Property tests for the lock manager: under arbitrary interleavings
//! of requests, commits and deadlock aborts, the manager's bookkeeping
//! stays consistent and everything is released at the end.

use proptest::prelude::*;
use repl_storage::{Acquire, DeadlockMode, LockManager, NodeId, ObjectId, ShardMap, TxnId};
use std::collections::{BTreeMap, HashSet};

/// Release `txn`'s locks and return the promoted waiters.
fn release(lm: &mut LockManager, txn: TxnId) -> Vec<(TxnId, ObjectId)> {
    let mut granted = Vec::new();
    lm.release_all_into(txn, &mut granted);
    granted
}

/// How the walk's sixteen logical transactions get their `TxnId`s.
#[derive(Debug, Clone, Copy, PartialEq)]
enum IdFamily {
    /// The logical index itself, reused by every incarnation.
    Reused,
    /// A counter: every incarnation gets a fresh, larger id (the
    /// contention engine's scheme).
    Monotone,
    /// Monotone, and logical transaction 0 never commits: its id stays
    /// live while the others churn, so the live window keeps widening.
    Straggler,
}

/// Logical transaction → the `TxnId` of its current incarnation.
struct Ids {
    family: IdFamily,
    next: u64,
    current: [Option<TxnId>; 16],
}

impl Ids {
    fn new(family: IdFamily) -> Self {
        Ids {
            family,
            next: 0,
            current: [None; 16],
        }
    }

    fn of(&mut self, t: u64) -> TxnId {
        let (family, next) = (self.family, &mut self.next);
        *self.current[t as usize].get_or_insert_with(|| {
            if family == IdFamily::Reused {
                return TxnId(t);
            }
            *next += 1;
            TxnId(*next - 1)
        })
    }

    /// The incarnation released its locks; the next use is a new one.
    fn retire(&mut self, t: u64) {
        self.current[t as usize] = None;
    }

    fn logical(&self, id: TxnId) -> u64 {
        self.current
            .iter()
            .position(|c| *c == Some(id))
            .expect("grant for a transaction that is not live") as u64
    }

    fn never_commits(&self, t: u64) -> bool {
        self.family == IdFamily::Straggler && t == 0
    }
}

fn arb_family() -> impl Strategy<Value = IdFamily> {
    prop_oneof![
        Just(IdFamily::Reused),
        Just(IdFamily::Monotone),
        Just(IdFamily::Straggler),
    ]
}

/// One step of the random walk.
#[derive(Debug, Clone)]
enum Step {
    /// Transaction `t` requests object `o` (ignored while blocked).
    Request(u64, u64),
    /// Transaction `t` commits (ignored while blocked).
    Commit(u64),
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u64..16, 0u64..8).prop_map(|(t, o)| Step::Request(t, o)),
        (0u64..16).prop_map(Step::Commit),
    ]
}

/// Mirror of what the walk believes each transaction is doing.
#[derive(Default)]
struct Mirror {
    /// Objects we believe each live transaction holds.
    held: BTreeMap<u64, HashSet<u64>>,
    /// Transactions currently blocked (and on which object).
    blocked: BTreeMap<u64, u64>,
}

impl Mirror {
    fn process_grants(&mut self, grants: Vec<(TxnId, ObjectId)>) {
        for (t, o) in grants {
            let was = self.blocked.remove(&t.0);
            assert_eq!(
                was,
                Some(o.0),
                "grant for {t} on {o} but mirror thought it waited on {was:?}"
            );
            self.held.entry(t.0).or_default().insert(o.0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn random_walk_keeps_invariants(steps in prop::collection::vec(arb_step(), 1..300)) {
        let mut lm = LockManager::new();
        let mut m = Mirror::default();

        for step in steps {
            match step {
                Step::Request(t, o) => {
                    if m.blocked.contains_key(&t) {
                        continue; // a blocked transaction cannot issue requests
                    }
                    match lm.acquire(TxnId(t), ObjectId(o)) {
                        Acquire::Granted => {
                            m.held.entry(t).or_default().insert(o);
                            prop_assert!(lm.holds(TxnId(t), ObjectId(o)));
                        }
                        Acquire::Waiting => {
                            m.blocked.insert(t, o);
                            prop_assert!(lm.is_waiting(TxnId(t)));
                        }
                        Acquire::Deadlock => {
                            // Victim aborts immediately.
                            let grants = release(&mut lm, TxnId(t));
                            m.held.remove(&t);
                            m.process_grants(grants);
                        }
                    }
                }
                Step::Commit(t) => {
                    if m.blocked.contains_key(&t) {
                        continue;
                    }
                    let grants = release(&mut lm, TxnId(t));
                    m.held.remove(&t);
                    m.process_grants(grants);
                }
            }
            // Continuous invariants.
            prop_assert_eq!(lm.blocked_transactions(), m.blocked.len());
            for (&t, objs) in &m.held {
                for &o in objs {
                    prop_assert!(
                        lm.holds(TxnId(t), ObjectId(o)),
                        "mirror thinks {t} holds {o} but the manager disagrees"
                    );
                }
            }
        }

        // Shut everything down: commit all unblocked transactions until
        // the system drains; blocked ones become unblocked by grants.
        let mut remaining: Vec<u64> = m.held.keys().copied()
            .chain(m.blocked.keys().copied())
            .collect();
        remaining.sort_unstable();
        remaining.dedup();
        let mut fuel = remaining.len() * remaining.len() + 16;
        while !(m.held.is_empty() && m.blocked.is_empty()) {
            prop_assert!(fuel > 0, "drain did not terminate");
            fuel -= 1;
            let Some(&t) = m.held.keys().next() else {
                // Only blocked transactions remain but nobody holds a
                // lock — impossible.
                prop_assert!(
                    m.blocked.is_empty(),
                    "blocked transactions with no holders: {:?}",
                    m.blocked
                );
                break;
            };
            let grants = release(&mut lm, TxnId(t));
            m.held.remove(&t);
            m.process_grants(grants);
        }
        prop_assert_eq!(lm.locked_objects(), 0);
        prop_assert_eq!(lm.blocked_transactions(), 0);
    }

    /// A manager packed to one node's hosted subset is the identity
    /// manager on hosted ids: same walk, same checks, plus a holder
    /// table no longer than the node's hosted-object count — on random
    /// partial layouts (`shards` below, at and above `nodes`).
    #[test]
    fn packed_table_is_equivalent_to_identity(
        steps in prop::collection::vec(arb_step(), 1..300),
        timeout_mode in (0u8..2).prop_map(|v| v == 1),
        family in arb_family(),
        layout in (1u32..12, 2u32..12, 0u32..12, 0u32..12),
    ) {
        let (shards, nodes, rf_raw, shard_raw) = layout;
        let map = ShardMap::new(shards, nodes, 1 + rf_raw % (nodes - 1));
        let node = map.replicas(shard_raw % shards)[0];
        equivalence_walk(steps, timeout_mode, family, &map, node)?;
    }
}

/// Drive two managers through the same walk — `a` the identity table,
/// `b` built with `node`'s layout, the walk's eight objects being
/// spread over the ids the node hosts — and check they are
/// indistinguishable through every public method.
fn equivalence_walk(
    steps: Vec<Step>,
    timeout_mode: bool,
    family: IdFamily,
    map: &ShardMap,
    node: NodeId,
) -> Result<(), TestCaseError> {
    const DB: u64 = 1000;
    let mode = if timeout_mode {
        DeadlockMode::TimeoutOnly
    } else {
        DeadlockMode::Detect
    };
    let hosted = map.hosted_objects(node, DB);
    let object = |o: u64| map.nth_hosted(node, o * 131 % hosted);
    let mut a = LockManager::with_mode(mode);
    let mut b = LockManager::with_mode(mode).with_layout(map.layout(node));
    b.reserve_objects(DB as usize);
    let (mut buf_a, mut buf_b) = (Vec::new(), Vec::new());
    let mut ids = Ids::new(family);
    // Blocked *logical* transactions.
    let mut blocked: HashSet<u64> = HashSet::new();

    let mut drive =
        |a: &mut LockManager, b: &mut LockManager, t: TxnId| -> Vec<(TxnId, ObjectId)> {
            a.release_all_into(t, &mut buf_a);
            b.release_all_into(t, &mut buf_b);
            assert_eq!(buf_a, buf_b, "grant order diverged releasing {t}");
            assert!(a.held_by(t).is_empty() && b.held_by(t).is_empty());
            buf_a.clone()
        };

    for step in steps {
        match step {
            Step::Request(t, o) => {
                if blocked.contains(&t) {
                    continue;
                }
                let id = ids.of(t);
                let ra = a.acquire(id, object(o));
                let rb = b.acquire(id, object(o));
                prop_assert_eq!(ra, rb, "acquire({}, {}) diverged", id, o);
                match ra {
                    Acquire::Granted => {}
                    Acquire::Waiting => {
                        blocked.insert(t);
                    }
                    Acquire::Deadlock => {
                        prop_assert_eq!(a.last_deadlock_cycle(), b.last_deadlock_cycle());
                        ids.retire(t);
                        for (w, _) in drive(&mut a, &mut b, id) {
                            blocked.remove(&ids.logical(w));
                        }
                    }
                }
            }
            Step::Commit(t) => {
                if ids.never_commits(t) {
                    continue;
                }
                let id = ids.of(t);
                if blocked.contains(&t) {
                    // Timeout mode resolves a stuck waiter the way
                    // the engines do: cancel the wait, then release
                    // — the PR 2 ghost-lock sequence.
                    if mode != DeadlockMode::TimeoutOnly {
                        continue;
                    }
                    a.cancel_wait(id);
                    b.cancel_wait(id);
                    blocked.remove(&t);
                }
                ids.retire(t);
                for (w, _) in drive(&mut a, &mut b, id) {
                    blocked.remove(&ids.logical(w));
                }
            }
        }
        prop_assert_eq!(a.cycle_checks(), b.cycle_checks());
        prop_assert_eq!(a.locked_objects(), b.locked_objects());
        prop_assert_eq!(a.blocked_transactions(), b.blocked_transactions());
        prop_assert_eq!(a.txn_table_capacity(), b.txn_table_capacity());
        for t in 0..16 {
            if let Some(id) = ids.current[t] {
                prop_assert_eq!(a.held_by(id), b.held_by(id));
                prop_assert_eq!(a.waiting_on(id), b.waiting_on(id));
            }
        }
        for o in (0..8).map(object) {
            prop_assert_eq!(a.holder_of(o), b.holder_of(o));
        }
        prop_assert!(
            b.holder_table_len() <= hosted as usize,
            "{} holder entries for {hosted} hosted objects",
            b.holder_table_len()
        );
    }
    Ok(())
}

/// A packed table covers the node's hosted ids only.
#[test]
#[should_panic(expected = "not hosted")]
fn packed_table_panics_on_an_unhosted_id() {
    let map = ShardMap::new(4, 4, 1);
    // Node 0 hosts only shard 0; object 1 is shard 1.
    let mut lm = LockManager::new().with_layout(map.layout(NodeId(0)));
    lm.acquire(TxnId(1), ObjectId(1));
}

/// A promotion inside `release_all_into` records the waiter's new lock
/// while the releasing transaction's list is detached: one waiter is
/// promoted on each released object, in release order, and each ends up
/// holding exactly its lock. Ids 10 and 9 equal holder 2 and the
/// releasing transaction 1 modulo 8, and a later incarnation takes a
/// lock the releaser held.
#[test]
fn promotion_during_a_release_grants_each_waiter_its_lock() {
    let (releasing, bystander, clashing, reusing) = (TxnId(1), TxnId(2), TxnId(10), TxnId(9));
    let (o1, o2, o3) = (ObjectId(1), ObjectId(2), ObjectId(3));
    let mut lm = LockManager::new();
    assert_eq!(lm.acquire(releasing, o1), Acquire::Granted);
    assert_eq!(lm.acquire(releasing, o2), Acquire::Granted);
    assert_eq!(lm.acquire(bystander, o3), Acquire::Granted);
    assert_eq!(lm.acquire(clashing, o1), Acquire::Waiting);
    assert_eq!(lm.acquire(reusing, o2), Acquire::Waiting);
    let mut granted = vec![(TxnId(77), ObjectId(77))];
    lm.release_all_into(releasing, &mut granted);
    assert_eq!(granted, vec![(clashing, o1), (reusing, o2)]);
    assert!(lm.held_by(releasing).is_empty());
    assert_eq!(lm.held_by(clashing), &[o1]);
    assert_eq!(lm.held_by(reusing), &[o2]);
    assert_eq!(lm.held_by(bystander), &[o3]);
    assert_eq!(lm.blocked_transactions(), 0);
    // A further incarnation takes and frees a lock the releaser held.
    let again = TxnId(17);
    assert_eq!(lm.acquire(again, o2), Acquire::Waiting);
    assert_eq!(release(&mut lm, reusing), vec![(again, o2)]);
    for t in [clashing, bystander, again] {
        assert!(release(&mut lm, t).is_empty());
    }
    assert_eq!(lm.locked_objects(), 0);
}

/// The per-transaction tables follow the live population, not the ids
/// ever seen: a million monotone ids, four locks each, at most 64 alive
/// at once, must fit in a few hundred entries — whether the node sees
/// every id the run mints or, like one node of a 256-node run, every
/// 256th. (Indexed by the id, as the tables once were, this is two
/// million-entry arrays; direct-mapped by its low bits, a ring as wide
/// as the 64 × 256 ids the run mints while the oldest lives.)
#[test]
fn monotone_ids_leave_a_footprint_bounded_by_the_live_population() {
    const LIVE: u64 = 64;
    const TXNS: u64 = 1_000_000;
    for stride in [1, 256] {
        let mut lm = LockManager::new();
        let objects = |t: u64| (0..4).map(move |k| ObjectId((t % LIVE) * 4 + k));
        let id = |t: u64| TxnId(t * stride);
        let mut granted = Vec::new();
        for t in 0..TXNS {
            if t >= LIVE {
                let old = id(t - LIVE);
                assert_eq!(lm.held_by(old).len(), 4);
                lm.release_all_into(old, &mut granted);
                assert!(granted.is_empty() && lm.held_by(old).is_empty());
            }
            for o in objects(t) {
                assert_eq!(lm.acquire(id(t), o), Acquire::Granted);
            }
        }
        assert_eq!(lm.locked_objects(), (LIVE * 4) as usize);
        // One held table and (never touched here) one waiting table.
        assert!(
            lm.txn_table_capacity() <= 4 * LIVE as usize,
            "stride {stride}: {} table entries for {LIVE} live transactions",
            lm.txn_table_capacity()
        );
    }
}

/// The ghost-lock regression as a fixed fixture: in timeout mode a
/// victim whose wait is cancelled must not be granted the contested
/// lock posthumously; the survivor queued behind it inherits it.
#[test]
fn ghost_lock_fixture_hands_the_contested_lock_to_the_survivor() {
    let (a, b, c) = (TxnId(1), TxnId(2), TxnId(3));
    let (o1, o2) = (ObjectId(1), ObjectId(2));
    let mut lm = LockManager::with_mode(DeadlockMode::TimeoutOnly);
    // A<->B cycle on O1/O2, with C queued behind the contested O1.
    assert_eq!(lm.acquire(a, o1), Acquire::Granted);
    assert_eq!(lm.acquire(b, o2), Acquire::Granted);
    assert_eq!(lm.acquire(b, o1), Acquire::Waiting);
    assert_eq!(lm.acquire(a, o2), Acquire::Waiting);
    assert_eq!(lm.acquire(c, o1), Acquire::Waiting);
    // B times out: cancel its wait, then release its held locks.
    lm.cancel_wait(b);
    assert_eq!(release(&mut lm, b), vec![(a, o2)]);
    // A commits; C must inherit O1 (no ghost grant to B).
    assert_eq!(release(&mut lm, a), vec![(c, o1)]);
    assert!(lm.holds(c, o1), "survivor never got the lock");
    assert!(release(&mut lm, c).is_empty());
    assert_eq!(lm.locked_objects(), 0);
    assert_eq!(lm.cycle_checks(), 0);
}
