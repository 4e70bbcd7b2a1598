//! The per-scheme correctness oracles and the engine-facing recorder.
//!
//! Each replication scheme in the paper comes with a promise:
//!
//! * eager and lazy-master (§2, §7): one-copy serializable execution —
//!   checked as DSG acyclicity over the recorded commit history;
//! * lazy-group (§1.2, §6): all replicas converge to a single state,
//!   and no committed update is silently lost at a replica ("system
//!   delusion");
//! * two-tier (§7): base commits form a linear version chain per
//!   object, replicas converge to the master, and the acceptance
//!   criterion is applied soundly.
//!
//! A [`Recorder`] is threaded through an engine's commit and
//! replica-apply paths (`Recorder::off()` costs one `Option` check per
//! call); [`Recorder::check`] then runs every oracle the scheme
//! promises and returns a [`CheckReport`] whose violations are
//! *minimal counterexamples* — the shortest dependency cycle, the
//! lowest diverging object, the first delusive write — not booleans.

use crate::history::{DepEdge, Detailed, History, TxnRecord};
use repl_storage::hash::FastMap;
use repl_storage::{
    ApplyOutcome, NodeId, ObjectId, ObjectStore, Timestamp, TxnId, Value, Versioned,
};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::rc::Rc;

/// Which replication scheme an execution ran under — selects the
/// oracles its recorder will apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// The shared lock-space contention engine (single- or multi-node).
    Contention,
    /// Eager replication (group or master ownership).
    Eager,
    /// Lazy-master: asynchronous propagation, master-serialized writes.
    LazyMaster,
    /// Lazy-group: update-anywhere with timestamp reconciliation.
    LazyGroup,
    /// Two-tier: mobile tentative transactions re-run at the base.
    TwoTier,
}

impl Scheme {
    /// Every scheme, in a fixed order (used by the `check` fuzzer).
    pub const ALL: [Scheme; 5] = [
        Scheme::Contention,
        Scheme::Eager,
        Scheme::LazyMaster,
        Scheme::LazyGroup,
        Scheme::TwoTier,
    ];

    /// Stable lowercase name (also the [`Scheme::parse`] spelling).
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Contention => "contention",
            Scheme::Eager => "eager",
            Scheme::LazyMaster => "lazy-master",
            Scheme::LazyGroup => "lazy-group",
            Scheme::TwoTier => "two-tier",
        }
    }

    /// Inverse of [`Scheme::name`].
    pub fn parse(s: &str) -> Option<Scheme> {
        Scheme::ALL.into_iter().find(|sch| sch.name() == s)
    }

    /// Whether the scheme promises a serializable (acyclic-DSG)
    /// execution of origin commits.
    fn promises_serializability(self) -> bool {
        // Lazy-group commits roots independently per node; the paper's
        // point (§1.2) is precisely that this is NOT serializable, so
        // the DSG oracle does not apply — convergence + no-delusion do.
        !matches!(self, Scheme::LazyGroup)
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Mirror of the engine's acceptance criteria (§7). Re-implemented
/// here — independently of `repl-core` — so the oracle re-derives the
/// accept/reject decision rather than trusting the engine's own code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CriterionKind {
    /// Accept any base outcome.
    AlwaysAccept,
    /// Every written value must be a non-negative integer.
    NonNegative,
    /// Every written integer value must be at most this bound (the
    /// "price quote cannot exceed the tentative quote" rule).
    AtMost(i64),
    /// Base outcome must equal the tentative outcome exactly.
    ExactMatch,
}

impl CriterionKind {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            CriterionKind::AlwaysAccept => "always-accept",
            CriterionKind::NonNegative => "non-negative",
            CriterionKind::AtMost(_) => "at-most",
            CriterionKind::ExactMatch => "exact-match",
        }
    }

    /// Independent re-derivation of the accept decision for a base
    /// re-execution against the mobile node's tentative results.
    pub fn accepts(self, base: &[(ObjectId, Value)], tentative: &[(ObjectId, Value)]) -> bool {
        match self {
            CriterionKind::AlwaysAccept => true,
            CriterionKind::NonNegative => {
                base.iter().all(|(_, v)| v.as_int().is_none_or(|i| i >= 0))
            }
            CriterionKind::AtMost(bound) => base
                .iter()
                .all(|(_, v)| v.as_int().is_none_or(|i| i <= bound)),
            CriterionKind::ExactMatch => base == tentative,
        }
    }
}

/// One recorded acceptance decision from the two-tier base.
#[derive(Debug, Clone)]
struct AcceptanceRecord {
    txn: TxnId,
    criterion: CriterionKind,
    base: Vec<(ObjectId, Value)>,
    tentative: Vec<(ObjectId, Value)>,
    accepted: bool,
}

/// One replica-apply event at a node.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ApplyEvent {
    pub(crate) object: ObjectId,
    pub(crate) new_ts: Timestamp,
    pub(crate) outcome: ApplyOutcome,
}

/// Per-node trace: counters plus a capped ring of *conflict-ignored*
/// apply events, kept so delusion counterexamples can say *how* a
/// write was lost at that node. Applied/duplicate outcomes are only
/// counted — no oracle consumes them, and ringing every apply would
/// dominate `--check` wall-clock on large sweeps.
#[derive(Debug, Default)]
pub(crate) struct NodeTrace {
    commits: u64,
    applies: u64,
    dropped: u64,
    pub(crate) events: VecDeque<ApplyEvent>,
}

/// Cap on the origin commit history the recorder retains.
pub const DEFAULT_HISTORY_CAP: usize = 8_192;
/// Cap on the per-node apply-event ring.
const NODE_EVENT_CAP: usize = 8_192;
/// Cap on retained two-tier acceptance records.
const ACCEPTANCE_CAP: usize = 16_384;
/// Cap on retained cross-shard commit records.
const CROSS_COMMIT_CAP: usize = 16_384;

/// A store's `(object, version)` pairs in ascending object order — the
/// order [`ObjectStore::iter`] yields, and what lets the convergence
/// and delusion oracles look an object up by binary search.
pub(crate) type Snapshot = Vec<(ObjectId, Versioned)>;

/// One client-visible cross-shard commit: which node coordinated it,
/// which shard-owner nodes must eventually apply it, and whether a
/// fenced commit protocol (2PC / O2PL) governed it — fenced commits
/// additionally owe a durable decision record at the coordinator.
#[derive(Debug, Clone)]
struct CrossCommitRecord {
    txn: TxnId,
    coord: NodeId,
    hosts: Vec<NodeId>,
    fenced: bool,
}

#[derive(Debug)]
struct OracleState {
    scheme: Scheme,
    origin: History,
    nodes: Vec<NodeTrace>,
    acceptances: VecDeque<AcceptanceRecord>,
    acceptances_dropped: u64,
    cross_commits: VecDeque<CrossCommitRecord>,
    cross_commits_dropped: u64,
    // Probed per transaction, never iterated.
    shard_applies: FastMap<TxnId, Vec<NodeId>>,
    durable_decisions: FastMap<TxnId, Vec<NodeId>>,
    finals: Vec<(NodeId, Snapshot)>,
    master_final: Option<Snapshot>,
    expect_divergence: bool,
    /// Replicated base tier: every `(epoch, leader, head)` installation,
    /// `head` being the log the winner took over with.
    leaders: Vec<(u64, NodeId, u64)>,
    /// The highest acknowledged `(lsn, epoch)` of each epoch, in epoch
    /// order.
    acked: Vec<(u64, u64)>,
    /// The final primary's log head.
    final_head: Option<u64>,
}

/// A cheap, optional execution recorder. `Recorder::off()` (the
/// default) makes every recording call a single `Option` check;
/// [`Recorder::new`] turns capture on. Clones share state, so the
/// harness can hand a clone to an engine and keep one to check later.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Rc<RefCell<OracleState>>>,
}

impl Recorder {
    /// An active recorder for one execution of `scheme`.
    pub fn new(scheme: Scheme) -> Self {
        Recorder {
            inner: Some(Rc::new(RefCell::new(OracleState {
                scheme,
                origin: History::with_cap(DEFAULT_HISTORY_CAP),
                nodes: Vec::new(),
                acceptances: VecDeque::new(),
                acceptances_dropped: 0,
                cross_commits: VecDeque::new(),
                cross_commits_dropped: 0,
                shard_applies: FastMap::default(),
                durable_decisions: FastMap::default(),
                finals: Vec::new(),
                master_final: None,
                expect_divergence: false,
                leaders: Vec::new(),
                acked: Vec::new(),
                final_head: None,
            }))),
        }
    }

    /// The disabled recorder: every recording call is a no-op.
    pub fn off() -> Self {
        Recorder::default()
    }

    /// Whether capture is on. Engines gate any record-building work
    /// (clones, version minting) behind this.
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    fn node_mut(state: &mut OracleState, node: NodeId) -> &mut NodeTrace {
        let idx = node.0 as usize;
        if state.nodes.len() <= idx {
            state.nodes.resize_with(idx + 1, NodeTrace::default);
        }
        &mut state.nodes[idx]
    }

    /// Record a committed origin transaction at `node`.
    pub fn commit(&self, node: NodeId, record: TxnRecord) {
        let Some(inner) = &self.inner else { return };
        let mut state = inner.borrow_mut();
        state.origin.record(record);
        Self::node_mut(&mut state, node).commits += 1;
    }

    /// Record one replicated update being applied at `node`.
    pub fn replica_apply(
        &self,
        node: NodeId,
        object: ObjectId,
        new_ts: Timestamp,
        outcome: ApplyOutcome,
    ) {
        let Some(inner) = &self.inner else { return };
        let mut state = inner.borrow_mut();
        let trace = Self::node_mut(&mut state, node);
        trace.applies += 1;
        // Only conflict-ignored events are evidence (see `NodeTrace`);
        // the common applied/duplicate outcomes stay out of the ring.
        if outcome != ApplyOutcome::ConflictIgnored {
            return;
        }
        let ev = ApplyEvent {
            object,
            new_ts,
            outcome,
        };
        if trace.events.len() == NODE_EVENT_CAP {
            trace.events.pop_front();
            trace.dropped += 1;
        }
        trace.events.push_back(ev);
    }

    /// Record a two-tier acceptance decision, with the values the
    /// engine compared, so the oracle can re-derive it.
    pub fn acceptance(
        &self,
        txn: TxnId,
        criterion: CriterionKind,
        base: Vec<(ObjectId, Value)>,
        tentative: Vec<(ObjectId, Value)>,
        accepted: bool,
    ) {
        let Some(inner) = &self.inner else { return };
        let mut state = inner.borrow_mut();
        if state.acceptances.len() == ACCEPTANCE_CAP {
            state.acceptances.pop_front();
            state.acceptances_dropped += 1;
        }
        state.acceptances.push_back(AcceptanceRecord {
            txn,
            criterion,
            base,
            tentative,
            accepted,
        });
    }

    /// Record a client-visible cross-shard commit. `hosts` is every
    /// distinct shard-owner node the transaction wrote at (including
    /// the coordinator's own shard, when it hosts one); each must
    /// eventually report a matching [`Recorder::shard_apply`] or the
    /// atomicity oracle flags a partial commit. When `fenced` (2PC /
    /// O2PL), the coordinator additionally owes a
    /// [`Recorder::decision_durable`] record.
    pub fn cross_commit(&self, txn: TxnId, coord: NodeId, hosts: Vec<NodeId>, fenced: bool) {
        let Some(inner) = &self.inner else { return };
        let mut state = inner.borrow_mut();
        if state.cross_commits.len() == CROSS_COMMIT_CAP {
            if let Some(old) = state.cross_commits.pop_front() {
                // Keep the side maps bounded by the same cap: an
                // evicted commit can no longer be checked, so its
                // apply/durability evidence is dead weight.
                state.shard_applies.remove(&old.txn);
                state.durable_decisions.remove(&old.txn);
            }
            state.cross_commits_dropped += 1;
        }
        state.cross_commits.push_back(CrossCommitRecord {
            txn,
            coord,
            hosts,
            fenced,
        });
    }

    /// Record that `node` made `txn`'s writes visible on its shard
    /// (local application at commit, or remote application on receipt
    /// of the commit decision / owner-order apply message).
    pub fn shard_apply(&self, txn: TxnId, node: NodeId) {
        let Some(inner) = &self.inner else { return };
        let mut state = inner.borrow_mut();
        let nodes = state.shard_applies.entry(txn).or_default();
        if !nodes.contains(&node) {
            nodes.push(node);
        }
    }

    /// Record that `node` holds a durable commit-decision record for
    /// `txn` at end of run (after crash recovery and drain).
    pub fn decision_durable(&self, txn: TxnId, node: NodeId) {
        let Some(inner) = &self.inner else { return };
        let mut state = inner.borrow_mut();
        let nodes = state.durable_decisions.entry(txn).or_default();
        if !nodes.contains(&node) {
            nodes.push(node);
        }
    }

    /// Snapshot `node`'s final store (call once per node, at run end).
    pub fn final_store(&self, node: NodeId, store: &ObjectStore) {
        let Some(inner) = &self.inner else { return };
        inner.borrow_mut().finals.push((node, snapshot(store)));
    }

    /// Snapshot the final master store (two-tier: replicas must
    /// converge to *this*, not merely to each other).
    pub fn final_master(&self, store: &ObjectStore) {
        let Some(inner) = &self.inner else { return };
        inner.borrow_mut().master_final = Some(snapshot(store));
    }

    /// Record a leader installation in a replicated base tier: `leader`
    /// won `epoch` holding the log up to `head`.
    pub fn leader_elected(&self, epoch: u64, leader: NodeId, head: u64) {
        let Some(inner) = &self.inner else { return };
        inner.borrow_mut().leaders.push((epoch, leader, head));
    }

    /// Record a commit acknowledged at log position `lsn` of `epoch`.
    /// Epochs never decrease, so only the highest position per epoch is
    /// kept: the state grows with the elections, not the commits.
    pub fn acked(&self, lsn: u64, epoch: u64) {
        let Some(inner) = &self.inner else { return };
        let mut state = inner.borrow_mut();
        match state.acked.last_mut() {
            Some(last) if last.1 == epoch => last.0 = last.0.max(lsn),
            _ => state.acked.push((lsn, epoch)),
        }
    }

    /// The final primary's log head (call once, at run end).
    pub fn final_head(&self, head: u64) {
        let Some(inner) = &self.inner else { return };
        inner.borrow_mut().final_head = Some(head);
    }

    /// Declare that this execution is *expected* to diverge (e.g.
    /// lazy-group with reconciliation disabled — the paper's §1.2
    /// ablation). Convergence and delusion oracles are suppressed and
    /// the report says so.
    pub fn expect_divergence(&self) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().expect_divergence = true;
        }
    }

    /// Origin commits retained so far (testing / reporting aid).
    pub fn commits(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.borrow().origin.len())
    }

    /// Run every oracle the scheme promises and produce the report.
    /// An inactive recorder reports a trivially clean, zero-commit
    /// execution.
    pub fn check(&self) -> CheckReport {
        let Some(inner) = &self.inner else {
            return CheckReport {
                scheme: Scheme::Contention,
                violations: Vec::new(),
                commits: 0,
                history_dropped: 0,
                node_events_dropped: 0,
                cross_commits_dropped: 0,
                expected_divergence: false,
            };
        };
        let state = inner.borrow();
        let mut violations = Vec::new();

        if state.scheme.promises_serializability() {
            let (verdict, chain_break) = state.origin.audit();
            if let Detailed::NotSerializable { cycle } = verdict {
                violations.push(Violation::NotSerializable { cycle });
            }
            // Origin commits must form a linear version chain per
            // object: each write's `old` version is exactly the
            // previous committed `new` version (anchored at
            // `Timestamp::ZERO`, the initial state, when the history is
            // complete). First break only — the minimal counterexample.
            if let Some(b) = chain_break {
                violations.push(Violation::VersionChainBreak {
                    object: b.object,
                    txn: b.txn,
                    expected_old: b.expected_old,
                    found_old: b.found_old,
                });
            }
        }

        if state.scheme == Scheme::TwoTier {
            check_acceptances(&state.acceptances, &mut violations);
        }

        let convergence_applies = matches!(state.scheme, Scheme::LazyGroup | Scheme::TwoTier);
        if convergence_applies && !state.expect_divergence {
            // Two-tier replicas must converge to the *master* state;
            // lazy-group nodes must converge to each other.
            let reference = state.master_final.as_ref().map(|m| (None, m));
            let reference =
                reference.or_else(|| state.finals.first().map(|(node, snap)| (Some(*node), snap)));
            if let Some((ref_node, ref_snap)) = reference {
                if let Some(v) = find_divergence(ref_node, ref_snap, &state.finals) {
                    violations.push(v);
                }
            }
            if state.scheme == Scheme::LazyGroup {
                violations.extend(find_delusion(&state.origin, &state.finals, &state.nodes));
            }
        }

        // Failover oracles: at most one leader per epoch, and every
        // acknowledged commit in the log each later leader took over
        // with, and in the final primary's.
        let history: Vec<(u64, NodeId)> = state.leaders.iter().map(|&(e, l, _)| (e, l)).collect();
        violations.extend(check_leader_safety(&history));
        let lost = state.leaders.iter().find_map(|&(epoch, _, head)| {
            let before = state.acked.partition_point(|&(_, e)| e < epoch);
            check_acked_durability(&state.acked[..before], head)
        });
        let lost = lost.or_else(|| check_acked_durability(&state.acked, state.final_head?));
        violations.extend(lost);

        // Cross-shard commit oracles are scheme-agnostic: they apply
        // whenever the engine recorded cross-shard commits (no records
        // → no-ops, so unsharded runs are unaffected).
        for rec in &state.cross_commits {
            let applied = state
                .shard_applies
                .get(&rec.txn)
                .map_or(&[][..], Vec::as_slice);
            if let Some(v) = check_atomicity(rec.txn, &rec.hosts, applied) {
                violations.push(v);
            }
            if rec.fenced {
                let durable = state
                    .durable_decisions
                    .get(&rec.txn)
                    .map_or(&[][..], Vec::as_slice);
                if let Some(v) = check_decision_durability(rec.txn, rec.coord, durable) {
                    violations.push(v);
                }
            }
        }

        CheckReport {
            scheme: state.scheme,
            violations,
            commits: state.origin.len() + state.origin.dropped() as usize,
            history_dropped: state.origin.dropped(),
            node_events_dropped: state.nodes.iter().map(|t| t.dropped).sum(),
            cross_commits_dropped: state.cross_commits_dropped,
            expected_divergence: state.expect_divergence,
        }
    }
}

/// Snapshot a store as `(object, version)` pairs, in object order.
pub fn snapshot(store: &ObjectStore) -> Vec<(ObjectId, Versioned)> {
    let snap: Snapshot = store.iter().map(|(id, v)| (id, v.clone())).collect();
    assert!(
        snap.windows(2).all(|w| w[0].0 < w[1].0),
        "ObjectStore::iter must ascend by object id"
    );
    snap
}

/// `snap`'s version of `obj`, if the node holds it.
fn lookup(snap: &[(ObjectId, Versioned)], obj: ObjectId) -> Option<&Versioned> {
    let at = snap.binary_search_by_key(&obj, |(o, _)| *o).ok()?;
    Some(&snap[at].1)
}

/// Re-derive every two-tier acceptance decision; the engine's answer
/// must match. Reports the first mismatch only.
fn check_acceptances(acceptances: &VecDeque<AcceptanceRecord>, violations: &mut Vec<Violation>) {
    for a in acceptances {
        let should = a.criterion.accepts(&a.base, &a.tentative);
        if should != a.accepted {
            violations.push(Violation::AcceptanceUnsound {
                txn: a.txn,
                criterion: a.criterion.name(),
                accepted: a.accepted,
                should_accept: should,
            });
            return;
        }
    }
}

/// Compare the final snapshots; return the lowest-numbered diverging
/// object with each node's state of it. Snapshots need not cover the
/// same objects (partial replication ships each node only its hosted
/// shards): every object is judged across the nodes that actually hold
/// it, seeded from the reference snapshot, so two replicas of a shard
/// the reference does not host are still compared against each other.
pub(crate) fn find_divergence(
    ref_node: Option<NodeId>,
    ref_snap: &[(ObjectId, Versioned)],
    finals: &[(NodeId, Snapshot)],
) -> Option<Violation> {
    // First holder's version of each object, in reference-then-node
    // order; only probed, so its order never reaches the output.
    let mut consensus: FastMap<ObjectId, &Versioned> =
        ref_snap.iter().map(|(obj, v)| (*obj, v)).collect();
    let mut worst: Option<ObjectId> = None;
    for (node, snap) in finals {
        if Some(*node) == ref_node {
            continue;
        }
        for (obj, sv) in snap {
            let agreed = *consensus.entry(*obj).or_insert(sv);
            if agreed != sv && worst.is_none_or(|w| *obj < w) {
                worst = Some(*obj);
            }
        }
    }
    let obj = worst?;
    let states = finals
        .iter()
        .filter_map(|(node, snap)| lookup(snap, obj).map(|v| (*node, v.ts, v.value.clone())))
        .collect();
    Some(Violation::Divergence {
        object: obj,
        reference: ref_node,
        states,
    })
}

/// System delusion (§1.2): a committed update that some replica never
/// reflects. We flag only *missing newest* committed writes — a node
/// whose final version of an object is older than the newest committed
/// version of that object in the history. (A node being *ahead* of the
/// retained history is not delusion: crash-orphaned or evicted writes
/// can legitimately appear that way.)
pub(crate) fn find_delusion(
    origin: &History,
    finals: &[(NodeId, Snapshot)],
    nodes: &[NodeTrace],
) -> Option<Violation> {
    let mut newest: FastMap<ObjectId, Timestamp> = FastMap::default();
    for r in origin.records() {
        for &(obj, _old, new) in r.writes {
            let e = newest.entry(obj).or_insert(new);
            if new > *e {
                *e = new;
            }
        }
    }
    // Deterministic minimal counterexample: lowest object id first.
    let mut objects: Vec<(ObjectId, Timestamp)> = newest.into_iter().collect();
    objects.sort_unstable();
    for (obj, committed_ts) in objects {
        for (node, snap) in finals {
            let Some(v) = lookup(snap, obj) else {
                continue;
            };
            if v.ts < committed_ts {
                return Some(Violation::DelusiveWrite {
                    object: obj,
                    node: *node,
                    committed_ts,
                    node_ts: v.ts,
                    dropped_at_apply: dropped_at_apply(nodes, *node, obj, committed_ts),
                });
            }
        }
    }
    None
}

/// Whether `node`'s trace shows the write `object@ts` arriving and
/// being discarded by reconciliation.
pub(crate) fn dropped_at_apply(
    nodes: &[NodeTrace],
    node: NodeId,
    object: ObjectId,
    ts: Timestamp,
) -> bool {
    nodes.get(node.0 as usize).is_some_and(|t| {
        t.events.iter().rev().any(|ev| {
            ev.object == object && ev.new_ts == ts && ev.outcome == ApplyOutcome::ConflictIgnored
        })
    })
}

/// One oracle violation, carrying its minimal counterexample.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// The DSG has a cycle — the execution is not one-copy
    /// serializable (§2).
    NotSerializable {
        /// The shortest cycle found, labeled edges in order.
        cycle: Vec<DepEdge>,
    },
    /// Final replica states disagree (§1.2 / §7).
    Divergence {
        /// Lowest-numbered diverging object.
        object: ObjectId,
        /// Reference node (None = the two-tier master).
        reference: Option<NodeId>,
        /// Each node's final `(ts, value)` for the object.
        states: Vec<(NodeId, Timestamp, Value)>,
    },
    /// System delusion (§1.2): a committed write a replica never saw.
    DelusiveWrite {
        /// The object whose newest committed write is missing.
        object: ObjectId,
        /// The node that is missing it.
        node: NodeId,
        /// The newest committed version of the object.
        committed_ts: Timestamp,
        /// What the node actually holds.
        node_ts: Timestamp,
        /// Whether the node's trace shows the write arriving and being
        /// silently discarded by reconciliation.
        dropped_at_apply: bool,
    },
    /// Committed writes do not form a linear version chain per object.
    VersionChainBreak {
        /// The object with the broken chain.
        object: ObjectId,
        /// The transaction whose write broke it.
        txn: TxnId,
        /// The version the chain says it should have replaced.
        expected_old: Timestamp,
        /// The version it claims to have replaced.
        found_old: Timestamp,
    },
    /// Two different base replicas both acted as primary for the same
    /// epoch — the leader-safety invariant of the replicated base tier
    /// is broken (split brain).
    SplitBrain {
        /// The epoch with more than one leader.
        epoch: u64,
        /// Every leader recorded for that epoch, in election order.
        leaders: Vec<NodeId>,
    },
    /// A base commit that was acknowledged to a client is missing from
    /// the surviving replicated log after failover — an acked write
    /// was lost.
    LostCommit {
        /// Replication sequence number of the lost commit.
        seq: u64,
        /// The epoch under which it was acknowledged.
        epoch: u64,
    },
    /// A cross-shard transaction committed on some hosting shards but
    /// aborted or vanished on others — atomic commitment is broken.
    PartialCommit {
        /// The transaction that is only partially applied.
        txn: TxnId,
        /// Hosting nodes that did apply it, in apply order.
        applied: Vec<NodeId>,
        /// Hosting nodes that never applied it.
        missing: Vec<NodeId>,
    },
    /// A fenced (2PC/O2PL) commit was acknowledged to the client but
    /// no durable decision record survives at its coordinator — a
    /// coordinator crash would silently forget the commit.
    LostDecision {
        /// The committed transaction.
        txn: TxnId,
        /// Its coordinator node.
        coord: NodeId,
    },
    /// A two-tier acceptance decision disagrees with the oracle's
    /// independent re-derivation (§7).
    AcceptanceUnsound {
        /// The base transaction.
        txn: TxnId,
        /// Criterion name.
        criterion: &'static str,
        /// What the engine decided.
        accepted: bool,
        /// What the oracle derives.
        should_accept: bool,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::NotSerializable { cycle } => {
                write!(f, "not serializable: cycle")?;
                for e in cycle {
                    write!(f, " {e}")?;
                }
                Ok(())
            }
            Violation::Divergence {
                object,
                reference,
                states,
            } => {
                write!(f, "replicas diverged on {object}")?;
                match reference {
                    Some(n) => write!(f, " (reference {n})")?,
                    None => write!(f, " (reference: master)")?,
                }
                write!(f, ":")?;
                for (n, ts, v) in states {
                    write!(f, " {n}={v}@{ts}")?;
                }
                Ok(())
            }
            Violation::DelusiveWrite {
                object,
                node,
                committed_ts,
                node_ts,
                dropped_at_apply,
            } => write!(
                f,
                "system delusion: committed write {object}@{committed_ts} never reached {node} \
                 (node holds {object}@{node_ts}; silently dropped at apply: {})",
                if *dropped_at_apply { "yes" } else { "unknown" }
            ),
            Violation::VersionChainBreak {
                object,
                txn,
                expected_old,
                found_old,
            } => write!(
                f,
                "version chain broken on {object} at {txn}: overwrote {found_old} \
                 but the latest committed version was {expected_old}"
            ),
            Violation::SplitBrain { epoch, leaders } => {
                write!(
                    f,
                    "split brain: epoch {epoch} has {} leaders:",
                    leaders.len()
                )?;
                for l in leaders {
                    write!(f, " {l}")?;
                }
                Ok(())
            }
            Violation::LostCommit { seq, epoch } => write!(
                f,
                "lost commit: acked replication seq {seq} (epoch {epoch}) \
                 missing from the surviving log"
            ),
            Violation::PartialCommit {
                txn,
                applied,
                missing,
            } => {
                write!(f, "partial commit: {txn} applied at")?;
                for n in applied {
                    write!(f, " {n}")?;
                }
                if applied.is_empty() {
                    write!(f, " no node")?;
                }
                write!(f, " but missing at")?;
                for n in missing {
                    write!(f, " {n}")?;
                }
                Ok(())
            }
            Violation::LostDecision { txn, coord } => write!(
                f,
                "lost decision: committed {txn} has no durable decision \
                 record at coordinator {coord}"
            ),
            Violation::AcceptanceUnsound {
                txn,
                criterion,
                accepted,
                should_accept,
            } => write!(
                f,
                "acceptance unsound for {txn} ({criterion}): engine said {accepted}, \
                 oracle derives {should_accept}"
            ),
        }
    }
}

/// The outcome of running every applicable oracle over one execution.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// The scheme the execution ran under.
    pub scheme: Scheme,
    /// Violations found, each with its minimal counterexample.
    pub violations: Vec<Violation>,
    /// Total origin commits observed (including any evicted).
    pub commits: usize,
    /// Origin history records evicted by the ring cap. Nonzero makes a
    /// *clean* serializability verdict inconclusive (a cycle is still
    /// sound).
    pub history_dropped: u64,
    /// Per-node apply events evicted across all nodes.
    pub node_events_dropped: u64,
    /// Cross-shard commit records evicted by the ring cap. Nonzero
    /// makes a clean atomicity verdict inconclusive.
    pub cross_commits_dropped: u64,
    /// Whether the engine declared divergence expected (oracle
    /// suppressed).
    pub expected_divergence: bool,
}

impl CheckReport {
    /// No violations found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Whether history eviction makes a clean verdict inconclusive.
    pub fn truncated(&self) -> bool {
        self.history_dropped > 0 || self.cross_commits_dropped > 0
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        if !self.is_clean() {
            format!(
                "{}: {} violation(s) over {} commits",
                self.scheme,
                self.violations.len(),
                self.commits
            )
        } else if self.truncated() {
            // Name each ring that overflowed: they bound different
            // oracles (serializability vs atomicity).
            let mut rings = Vec::new();
            if self.history_dropped > 0 {
                rings.push(format!(
                    "{} of {} commits evicted from the history ring",
                    self.history_dropped, self.commits
                ));
            }
            if self.cross_commits_dropped > 0 {
                rings.push(format!(
                    "{} cross-shard commits evicted from the atomicity ring",
                    self.cross_commits_dropped
                ));
            }
            format!(
                "{}: clean but TRUNCATED ({}) — inconclusive",
                self.scheme,
                rings.join("; ")
            )
        } else {
            format!("{}: clean ({} commits checked)", self.scheme, self.commits)
        }
    }
}

/// Standalone convergence oracle over store snapshots (used by the
/// threaded cluster, which has no recorder threading). Returns the
/// minimal diverging object, if any.
pub fn check_store_convergence(stores: &[(NodeId, ObjectStore)]) -> Option<Violation> {
    let finals: Vec<(NodeId, Snapshot)> = stores.iter().map(|(n, s)| (*n, snapshot(s))).collect();
    let (ref_node, ref_snap) = finals.first().map(|(n, s)| (*n, s))?;
    find_divergence(Some(ref_node), ref_snap, &finals)
}

/// Leader-safety oracle for a replicated base tier: every epoch must
/// have **at most one** primary. `history` is the `(epoch, leader)`
/// sequence in election order (the same leader re-recorded for the same
/// epoch is fine; a *different* leader is a split brain).
pub fn check_leader_safety(history: &[(u64, NodeId)]) -> Option<Violation> {
    let mut by_epoch: BTreeMap<u64, Vec<NodeId>> = BTreeMap::new();
    for &(epoch, leader) in history {
        let leaders = by_epoch.entry(epoch).or_default();
        if !leaders.contains(&leader) {
            leaders.push(leader);
        }
    }
    by_epoch
        .into_iter()
        .find(|(_, leaders)| leaders.len() > 1)
        .map(|(epoch, leaders)| Violation::SplitBrain { epoch, leaders })
}

/// Durability oracle for a replicated base tier: every commit that was
/// acknowledged to a client must still be present in the surviving
/// replicated log after any number of failovers. `acked` is the
/// `(seq, epoch)` pairs acknowledged; `surviving_head` is the highest
/// contiguous replication sequence number the current primary holds
/// (the log is a prefix, so presence is `seq <= head`).
pub fn check_acked_durability(acked: &[(u64, u64)], surviving_head: u64) -> Option<Violation> {
    acked
        .iter()
        .find(|&&(seq, _)| seq > surviving_head)
        .map(|&(seq, epoch)| Violation::LostCommit { seq, epoch })
}

/// Atomicity oracle for one cross-shard commit: every hosting node in
/// `hosts` must appear in `applied` (the nodes that made the writes
/// visible), otherwise the transaction committed on some shards and
/// vanished on others.
pub fn check_atomicity(txn: TxnId, hosts: &[NodeId], applied: &[NodeId]) -> Option<Violation> {
    let missing: Vec<NodeId> = hosts
        .iter()
        .copied()
        .filter(|h| !applied.contains(h))
        .collect();
    if missing.is_empty() {
        return None;
    }
    Some(Violation::PartialCommit {
        txn,
        applied: applied.to_vec(),
        missing,
    })
}

/// Decision-durability oracle for one fenced (2PC/O2PL) commit: the
/// coordinator `coord` must be among the nodes holding a durable
/// commit-decision record for `txn` at end of run.
pub fn check_decision_durability(
    txn: TxnId,
    coord: NodeId,
    durable_at: &[NodeId],
) -> Option<Violation> {
    if durable_at.contains(&coord) {
        return None;
    }
    Some(Violation::LostDecision { txn, coord })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(c: u64, n: u32) -> Timestamp {
        Timestamp::new(c, NodeId(n))
    }

    fn rec(
        id: u64,
        reads: &[(u64, Timestamp)],
        writes: &[(u64, Timestamp, Timestamp)],
    ) -> TxnRecord {
        TxnRecord {
            txn: TxnId(id),
            reads: reads.iter().map(|&(o, v)| (ObjectId(o), v)).collect(),
            writes: writes
                .iter()
                .map(|&(o, old, new)| (ObjectId(o), old, new))
                .collect(),
        }
    }

    #[test]
    fn atomicity_flags_partial_commit() {
        let r = Recorder::new(Scheme::Eager);
        let hosts = vec![NodeId(0), NodeId(1), NodeId(2)];
        r.cross_commit(TxnId(7), NodeId(0), hosts, false);
        r.shard_apply(TxnId(7), NodeId(0));
        r.shard_apply(TxnId(7), NodeId(2));
        let report = r.check();
        assert_eq!(report.violations.len(), 1);
        match &report.violations[0] {
            Violation::PartialCommit {
                txn,
                applied,
                missing,
            } => {
                assert_eq!(*txn, TxnId(7));
                assert_eq!(applied, &[NodeId(0), NodeId(2)]);
                assert_eq!(missing, &[NodeId(1)]);
            }
            v => panic!("unexpected violation {v}"),
        }
    }

    #[test]
    fn atomicity_clean_when_all_hosts_apply() {
        let r = Recorder::new(Scheme::Eager);
        r.cross_commit(TxnId(3), NodeId(1), vec![NodeId(1), NodeId(2)], false);
        r.shard_apply(TxnId(3), NodeId(2));
        r.shard_apply(TxnId(3), NodeId(1));
        // Duplicate applies (message duplication) are absorbed.
        r.shard_apply(TxnId(3), NodeId(2));
        assert!(r.check().is_clean());
    }

    #[test]
    fn fenced_commit_without_durable_decision_is_lost() {
        let r = Recorder::new(Scheme::Eager);
        r.cross_commit(TxnId(9), NodeId(0), vec![NodeId(0), NodeId(1)], true);
        r.shard_apply(TxnId(9), NodeId(0));
        r.shard_apply(TxnId(9), NodeId(1));
        let report = r.check();
        assert_eq!(
            report.violations,
            vec![Violation::LostDecision {
                txn: TxnId(9),
                coord: NodeId(0),
            }]
        );
        // Recording durability at the coordinator clears it; at some
        // other node it does not.
        r.decision_durable(TxnId(9), NodeId(1));
        assert!(!r.check().is_clean());
        r.decision_durable(TxnId(9), NodeId(0));
        assert!(r.check().is_clean());
    }

    #[test]
    fn unfenced_commit_owes_no_decision_record() {
        let r = Recorder::new(Scheme::Eager);
        r.cross_commit(TxnId(4), NodeId(2), vec![NodeId(2), NodeId(3)], false);
        r.shard_apply(TxnId(4), NodeId(2));
        r.shard_apply(TxnId(4), NodeId(3));
        assert!(r.check().is_clean());
    }

    #[test]
    fn standalone_cross_commit_oracles() {
        assert!(check_atomicity(TxnId(1), &[NodeId(0)], &[NodeId(0)]).is_none());
        let v = check_atomicity(TxnId(1), &[NodeId(0), NodeId(1)], &[]).unwrap();
        assert!(matches!(v, Violation::PartialCommit { ref missing, .. } if missing.len() == 2));
        assert!(check_decision_durability(TxnId(1), NodeId(0), &[NodeId(0)]).is_none());
        assert!(check_decision_durability(TxnId(1), NodeId(0), &[NodeId(1)]).is_some());
    }

    #[test]
    fn off_recorder_is_inert_and_clean() {
        let r = Recorder::off();
        assert!(!r.is_on());
        r.commit(NodeId(0), rec(1, &[], &[]));
        r.final_store(NodeId(0), &ObjectStore::new(4));
        let report = r.check();
        assert!(report.is_clean());
        assert_eq!(report.commits, 0);
    }

    #[test]
    fn serializability_violation_carries_shortest_cycle() {
        let r = Recorder::new(Scheme::Eager);
        // Write skew between t1 and t2.
        r.commit(
            NodeId(0),
            rec(1, &[(0, ts(0, 0))], &[(1, ts(0, 0), ts(5, 0))]),
        );
        r.commit(
            NodeId(0),
            rec(2, &[(1, ts(0, 0))], &[(0, ts(0, 0), ts(6, 0))]),
        );
        let report = r.check();
        assert!(matches!(
            report.violations.first(),
            Some(Violation::NotSerializable { cycle }) if cycle.len() == 2
        ));
    }

    #[test]
    fn version_chain_break_is_flagged_with_first_offender() {
        let r = Recorder::new(Scheme::Contention);
        r.commit(NodeId(0), rec(1, &[], &[(0, ts(0, 0), ts(1, 0))]));
        // t2 claims to replace version 0 again — a lost update.
        r.commit(NodeId(0), rec(2, &[], &[(0, ts(0, 0), ts(2, 0))]));
        let report = r.check();
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::VersionChainBreak { txn: TxnId(2), .. })));
    }

    #[test]
    fn lazy_group_divergence_yields_lowest_object() {
        let r = Recorder::new(Scheme::LazyGroup);
        let mut a = ObjectStore::new(4);
        let mut b = ObjectStore::new(4);
        b.set(ObjectId(1), Value::Int(7), ts(3, 1));
        b.set(ObjectId(3), Value::Int(9), ts(4, 1));
        a.set(ObjectId(3), Value::Int(2), ts(2, 0));
        r.final_store(NodeId(0), &a);
        r.final_store(NodeId(1), &b);
        let report = r.check();
        match report.violations.first() {
            Some(Violation::Divergence { object, states, .. }) => {
                assert_eq!(*object, ObjectId(1));
                assert_eq!(states.len(), 2);
            }
            v => panic!("unexpected {v:?}"),
        }
    }

    #[test]
    fn expected_divergence_suppresses_convergence_oracles() {
        let r = Recorder::new(Scheme::LazyGroup);
        r.expect_divergence();
        let mut a = ObjectStore::new(2);
        a.set(ObjectId(0), Value::Int(1), ts(1, 0));
        r.final_store(NodeId(0), &a);
        r.final_store(NodeId(1), &ObjectStore::new(2));
        let report = r.check();
        assert!(report.is_clean());
        assert!(report.expected_divergence);
    }

    #[test]
    fn delusion_flags_missing_committed_write_with_apply_evidence() {
        let r = Recorder::new(Scheme::LazyGroup);
        let committed = ts(9, 0);
        r.commit(NodeId(0), rec(1, &[], &[(2, ts(0, 0), committed)]));
        // Node 1 received the update but reconciliation dropped it.
        r.replica_apply(
            NodeId(1),
            ObjectId(2),
            committed,
            ApplyOutcome::ConflictIgnored,
        );
        let mut origin = ObjectStore::new(4);
        origin.set(ObjectId(2), Value::Int(5), committed);
        let stale = ObjectStore::new(4); // still at the initial version
        r.final_store(NodeId(0), &origin);
        r.final_store(NodeId(1), &stale);
        let report = r.check();
        assert!(
            report.violations.iter().any(|v| matches!(
                v,
                Violation::DelusiveWrite {
                    object: ObjectId(2),
                    node: NodeId(1),
                    dropped_at_apply: true,
                    ..
                }
            )),
            "violations: {:?}",
            report.violations
        );
    }

    #[test]
    fn node_ahead_of_history_is_not_delusion() {
        // A crash-orphaned write can leave a node *newer* than the
        // committed history; convergence (not delusion) owns that case.
        let r = Recorder::new(Scheme::LazyGroup);
        r.commit(NodeId(0), rec(1, &[], &[(0, ts(0, 0), ts(1, 0))]));
        let mut ahead = ObjectStore::new(2);
        ahead.set(ObjectId(0), Value::Int(9), ts(8, 1));
        r.final_store(NodeId(0), &ahead);
        r.final_store(NodeId(1), &ahead);
        let report = r.check();
        assert!(report.is_clean(), "violations: {:?}", report.violations);
    }

    #[test]
    fn unsound_acceptance_is_rederived_and_flagged() {
        let r = Recorder::new(Scheme::TwoTier);
        let base = vec![(ObjectId(0), Value::Int(-4))];
        let tent = vec![(ObjectId(0), Value::Int(3))];
        // Engine claims a negative balance passed the non-negative
        // criterion — the oracle must disagree.
        r.acceptance(TxnId(7), CriterionKind::NonNegative, base, tent, true);
        let report = r.check();
        assert!(matches!(
            report.violations.first(),
            Some(Violation::AcceptanceUnsound {
                txn: TxnId(7),
                accepted: true,
                should_accept: false,
                ..
            })
        ));
    }

    #[test]
    fn criterion_kinds_match_engine_semantics() {
        let o = ObjectId(0);
        let base = vec![(o, Value::Int(5))];
        let far = vec![(o, Value::Int(50))];
        assert!(CriterionKind::AlwaysAccept.accepts(&base, &far));
        assert!(CriterionKind::NonNegative.accepts(&base, &far));
        assert!(!CriterionKind::NonNegative.accepts(&[(o, Value::Int(-1))], &far));
        assert!(CriterionKind::AtMost(100).accepts(&far, &base));
        assert!(!CriterionKind::AtMost(10).accepts(&far, &base));
        assert!(CriterionKind::ExactMatch.accepts(&base, &base.clone()));
        assert!(!CriterionKind::ExactMatch.accepts(&base, &far));
        // Text payloads are outside numeric criteria: accepted.
        let text = vec![(o, Value::from("doc"))];
        assert!(CriterionKind::NonNegative.accepts(&text, &text.clone()));
    }

    #[test]
    fn truncated_history_reports_inconclusive_not_violation() {
        let r = Recorder::new(Scheme::Eager);
        {
            // Overflow the cap with a clean linear chain.
            for i in 0..(DEFAULT_HISTORY_CAP as u64 + 10) {
                r.commit(NodeId(0), rec(i + 1, &[], &[(0, ts(i, 0), ts(i + 1, 0))]));
            }
        }
        let report = r.check();
        assert!(report.is_clean());
        assert!(report.truncated());
        assert_eq!(report.commits, DEFAULT_HISTORY_CAP + 10);
        assert!(report.summary().contains("TRUNCATED"));
    }

    #[test]
    fn atomicity_only_truncation_names_the_ring_that_overflowed() {
        let r = Recorder::new(Scheme::Eager);
        let extra = 5;
        for i in 0..(CROSS_COMMIT_CAP as u64 + extra) {
            r.cross_commit(TxnId(i), NodeId(0), vec![NodeId(0)], false);
            r.shard_apply(TxnId(i), NodeId(0));
        }
        let report = r.check();
        assert!(report.is_clean(), "{:?}", report.violations);
        assert!(report.truncated());
        assert_eq!(report.history_dropped, 0);
        assert_eq!(report.cross_commits_dropped, extra);
        let summary = report.summary();
        assert!(
            summary.contains("TRUNCATED (5 cross-shard commits evicted from the atomicity ring)"),
            "{summary}"
        );
        assert!(!summary.contains("history ring"), "{summary}");
    }

    #[test]
    fn store_convergence_helper_finds_divergence() {
        let mut a = ObjectStore::new(3);
        let b = ObjectStore::new(3);
        assert!(
            check_store_convergence(&[(NodeId(0), a.clone()), (NodeId(1), b.clone())]).is_none()
        );
        a.set(ObjectId(2), Value::Int(1), ts(1, 0));
        let v = check_store_convergence(&[(NodeId(0), a), (NodeId(1), b)]);
        assert!(matches!(
            v,
            Some(Violation::Divergence {
                object: ObjectId(2),
                ..
            })
        ));
    }

    #[test]
    fn partial_snapshots_converge_on_common_objects_only() {
        use repl_storage::ShardMap;
        // 4 objects, 4 shards, rf=2 over 4 nodes: every node hosts a
        // different pair of shards, so whole-store digests differ by
        // construction — the oracle must only judge shared objects.
        let map = ShardMap::new(4, 4, 2);
        let stores: Vec<(NodeId, ObjectStore)> = (0..4)
            .map(|n| (NodeId(n), ObjectStore::sharded(4, &map, NodeId(n))))
            .collect();
        assert!(check_store_convergence(&stores).is_none());
        // Diverge one object at one of its two replicas; the reference
        // node (0) does not host every object, so the mismatch must be
        // caught between the two non-reference holders too.
        let mut stores = stores;
        let victim = ObjectId(1);
        let holder = stores
            .iter_mut()
            .rev()
            .find(|(n, _)| map.hosts_object(*n, victim))
            .expect("rf=2 gives two holders");
        holder.1.set(victim, Value::Int(99), ts(9, holder.0 .0));
        let v = check_store_convergence(&stores);
        assert!(
            matches!(
                v,
                Some(Violation::Divergence {
                    object: ObjectId(1),
                    ..
                })
            ),
            "{v:?}"
        );
    }

    #[test]
    fn scheme_names_round_trip() {
        for s in Scheme::ALL {
            assert_eq!(Scheme::parse(s.name()), Some(s));
        }
        assert_eq!(Scheme::parse("nope"), None);
    }

    #[test]
    fn leader_safety_accepts_one_leader_per_epoch() {
        let history = [
            (1, NodeId(0)),
            (2, NodeId(1)),
            (2, NodeId(1)), // re-recorded, same leader: fine
            (3, NodeId(0)),
        ];
        assert_eq!(check_leader_safety(&history), None);
        assert_eq!(check_leader_safety(&[]), None);
    }

    #[test]
    fn leader_safety_flags_split_brain() {
        let history = [(1, NodeId(0)), (2, NodeId(1)), (2, NodeId(2))];
        match check_leader_safety(&history) {
            Some(Violation::SplitBrain { epoch, leaders }) => {
                assert_eq!(epoch, 2);
                assert_eq!(leaders, vec![NodeId(1), NodeId(2)]);
            }
            v => panic!("expected split brain, got {v:?}"),
        }
    }

    #[test]
    fn acked_durability_requires_log_prefix() {
        assert_eq!(check_acked_durability(&[(1, 1), (2, 1), (3, 2)], 3), None);
        assert_eq!(check_acked_durability(&[], 0), None);
        match check_acked_durability(&[(1, 1), (5, 2)], 3) {
            Some(Violation::LostCommit { seq: 5, epoch: 2 }) => {}
            v => panic!("expected lost commit 5, got {v:?}"),
        }
    }
}
