//! The two-tier base tier (§7) as a transport-free state machine.
//!
//! A [`Replica`] is one base node: durable state (commit log, dedup
//! outcomes, epoch, appends queued while it was down) that survives a
//! crash, plus the volatile master database and clock that a restart
//! rebuilds by replaying the log. It executes base transactions under
//! the acceptance criterion, answers each [`DedupId`] exactly once, and
//! absorbs (or fences) replication batches.
//!
//! A [`BaseGroup`] is `n` replicas with one primary at a time: the
//! primary ships what it commits to the backups under its epoch, and
//! when it dies the group runs a deterministic election
//! ([`crate::election`]) among the survivors and catches the laggards
//! up before it accepts writes again.
//!
//! Every step is an ordinary method call and no outcome waits on a
//! clock, so the same crash schedule produces the same leaders, the
//! same metrics and the same trace, event for event. The transport
//! lives with the driver: `repl_cluster::two_tier` puts one [`Replica`]
//! behind a real channel with reply deadlines; a simulation can drive a
//! [`BaseGroup`] from its own events.

use crate::election::{self, Candidate, ElectionOutcome, Epoch, Tally, VoteReply, VoteRequest};
use crate::TxnSpec;
use repl_sim::SimTime;
use repl_storage::hash::FastMap;
use repl_storage::{
    CommitLog, CommitRecord, LamportClock, Lsn, NodeId, ObjectId, ObjectStore, Timestamp, TxnId,
    UpdateRecord, Value,
};
use repl_telemetry::{AbortReason, Event, EventKind, RunMetrics, SyncTraceHandle};
use std::cell::RefCell;
use std::time::Duration;

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
    /// Replication sequence number covering this sync's base commits
    /// (0 when the target is an unreplicated base or the log is
    /// empty). [`BaseGroup`] records it as an acknowledged write for
    /// the lost-commit oracle.
    pub repl_seq: u64,
}

/// Anything a mobile node can sync against: a single base server or
/// the replicated [`BaseGroup`].
pub trait SyncTarget {
    /// One sync round-trip. `None` when the base tier did not answer
    /// (crashed, down, or degraded below quorum) — the caller should
    /// retry; [`DedupId`]s make the retry exactly-once.
    fn try_sync(&self, pendings: Vec<Pending>, from: Lsn, timeout: Duration) -> Option<SyncReply>;
}

/// One replication shipment, primary → backups: the commit records one
/// sync (or direct execute) produced, plus the [`DedupId`] outcomes it
/// decided, stamped with the shipping primary's epoch. Backups fence
/// stale epochs and skip records at or below their log head, so
/// redelivery — queued appends replayed after a restart — is harmless.
#[derive(Debug, Clone)]
struct ReplBatch {
    epoch: Epoch,
    records: Vec<CommitRecord>,
    outcomes: Vec<(DedupId, TxnOutcome)>,
}

/// What a crash loses: the master database and the clock.
struct Volatile {
    master: ObjectStore,
    clock: LamportClock,
}

/// One base node. Everything but `up` is durable.
pub struct Replica {
    node: NodeId,
    db_size: u64,
    initial_value: i64,
    tracer: SyncTraceHandle,
    log: CommitLog,
    /// Outcome of every dedup id ever decided, here or at a primary
    /// that replicated it. Consulted before re-executing a resubmitted
    /// tentative transaction.
    seen: FastMap<DedupId, TxnOutcome>,
    epoch: Epoch,
    next_txn: u64,
    fenced: u64,
    /// The replica has no simulated clock; events carry a logical
    /// tick, one per executed base transaction, fence or catch-up.
    tick: u64,
    /// Batches shipped here while down, replayed on restart.
    queued: Vec<ReplBatch>,
    up: Option<Volatile>,
}

impl Replica {
    /// A live replica of epoch 1 over a `db_size`-object master
    /// database with every object initialized to `initial_value`.
    pub fn new(node: NodeId, db_size: u64, initial_value: i64, tracer: SyncTraceHandle) -> Self {
        let mut replica = Replica {
            node,
            db_size,
            initial_value,
            tracer,
            log: CommitLog::new(),
            seen: FastMap::default(),
            epoch: Epoch(1),
            next_txn: 0,
            fenced: 0,
            tick: 0,
            queued: Vec::new(),
            up: None,
        };
        replica.rebuild();
        replica
    }

    /// Whether the replica is up.
    pub fn is_live(&self) -> bool {
        self.up.is_some()
    }

    /// The durable commit log.
    pub fn log(&self) -> &CommitLog {
        &self.log
    }

    /// The master database, `None` while crashed.
    pub fn master(&self) -> Option<&ObjectStore> {
        self.up.as_ref().map(|v| &v.master)
    }

    /// Emit a system event from this replica at its current tick.
    pub fn emit(&self, kind: EventKind) {
        self.tracer
            .emit(|| Event::system(SimTime(self.tick), self.node, kind));
    }

    /// Replay the durable log over the initial state into a fresh
    /// master database and clock. Returns the records replayed.
    fn rebuild(&mut self) -> u64 {
        let mut master = ObjectStore::new(self.db_size);
        for o in 0..self.db_size {
            master.set(ObjectId(o), Value::Int(self.initial_value), Timestamp::ZERO);
        }
        let mut clock = LamportClock::new(self.node);
        let records = self.log.since(Lsn(0));
        for u in records.iter().flat_map(|r| &r.updates) {
            clock.observe(u.new_ts);
            master.set(u.object, u.value.clone(), u.new_ts);
        }
        self.up = Some(Volatile { master, clock });
        records.len() as u64
    }

    /// Execute one base transaction: buffer the writes, judge them with
    /// the acceptance criterion (against `tentative` when the
    /// transaction first ran at a mobile node), install and log them on
    /// success. The one place base transactions run, so neither a
    /// failover nor the choice of runtime can change the acceptance
    /// semantics.
    ///
    /// # Panics
    /// If the replica is crashed.
    pub fn execute(
        &mut self,
        spec: &TxnSpec,
        tentative: Option<&[(ObjectId, Value)]>,
    ) -> TxnOutcome {
        self.tick += 1;
        let now = SimTime(self.tick);
        let node = self.node;
        let up = self
            .up
            .as_mut()
            .expect("a crashed replica executes nothing");
        let mut buffered: Vec<(ObjectId, Value)> = Vec::with_capacity(spec.ops.len());
        for op in &spec.ops {
            let current = buffered
                .iter()
                .rev()
                .find(|(o, _)| *o == op.object)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| up.master.get(op.object).value.clone());
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
            let old_ts = up.master.get(*obj).ts;
            let new_ts = up.clock.tick();
            up.master.set(*obj, value.clone(), new_ts);
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
    /// dedup id decided before (in a reply-crashed sync or a previous
    /// primary's reign) gets its recorded fate, anything else executes
    /// now and is recorded. Returns one outcome per pending, and the
    /// ids this call decided.
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

    /// Crash: the master database and clock are lost, everything else
    /// survives. Returns `false` (a no-op) when already down.
    pub fn crash(&mut self) -> bool {
        if !self.is_live() {
            return false;
        }
        self.emit(EventKind::NodeCrash);
        self.tracer.flush();
        self.up = None;
        true
    }

    /// Restart a crashed replica: rebuild the master database and the
    /// clock from the durable log, then replay (or fence) every batch
    /// shipped while it was down. Returns the number of log records
    /// replayed, or `None` (a no-op) when the replica is not crashed.
    pub fn restart(&mut self) -> Option<u64> {
        if self.is_live() {
            return None;
        }
        let replayed = self.rebuild();
        self.emit(EventKind::RecoveryReplay { messages: replayed });
        self.emit(EventKind::NodeRestart);
        for batch in std::mem::take(&mut self.queued) {
            self.deliver(&batch);
        }
        Some(replayed)
    }

    /// Take a shipment: absorb it when up, queue it durably when down.
    fn deliver(&mut self, batch: &ReplBatch) {
        if self.is_live() {
            let outcomes = batch.outcomes.iter().map(|(d, o)| (d, o));
            self.absorb(batch.epoch, &batch.records, outcomes);
        } else {
            self.queued.push(batch.clone());
        }
    }

    /// Absorb replicated state sent under `epoch`: fence it if the
    /// epoch is stale, otherwise adopt the epoch and copy the records
    /// and dedup outcomes this replica does not yet hold (log append +
    /// master install + clock advance). A batch that starts past the
    /// log head is dropped whole: the batch before it was fenced, and
    /// appending over the gap would renumber its records; catch-up
    /// brings both.
    fn absorb<'a>(
        &mut self,
        epoch: Epoch,
        records: &[CommitRecord],
        outcomes: impl Iterator<Item = (&'a DedupId, &'a TxnOutcome)>,
    ) {
        if epoch < self.epoch {
            self.fenced += 1;
            self.tick += 1;
            self.emit(EventKind::EpochFenced {
                stale: epoch.0,
                current: self.epoch.0,
            });
            return;
        }
        if records.first().is_some_and(|r| r.lsn > self.log.head()) {
            return;
        }
        self.epoch = epoch;
        let up = self.up.as_mut().expect("a crashed replica queues instead");
        for record in records {
            if record.lsn < self.log.head() {
                continue; // already replicated
            }
            for u in &record.updates {
                up.clock.observe(u.new_ts);
                up.master.apply_lww(u.object, u.new_ts, u.value.clone());
            }
            self.next_txn = self.next_txn.max(record.txn.0);
            self.log.append(record.txn, record.updates.clone());
        }
        for (dedup, outcome) in outcomes {
            if !self.seen.contains_key(dedup) {
                self.seen.insert(*dedup, outcome.clone());
            }
        }
    }

    /// Anti-entropy log transfer: copy from `leader` the log suffix and
    /// the dedup outcomes this replica lacks, under `epoch`.
    fn catch_up(&mut self, leader: &Replica, epoch: Epoch) {
        let before = self.log.head();
        self.absorb(epoch, leader.log.since(before), leader.seen.iter());
        self.tick += 1;
        self.emit(EventKind::CatchUpComplete {
            epoch: self.epoch.0,
            records: self.log.head().0 - before.0,
        });
    }

    /// This replica's electable state.
    fn candidate(&self) -> Candidate {
        Candidate {
            node: self.node,
            epoch: self.epoch,
            head: self.log.head().0,
        }
    }

    /// Judge a vote request against this replica's own epoch and log,
    /// adopting the proposed epoch when granting.
    fn grant_vote(&mut self, req: &VoteRequest) -> VoteReply {
        let granted = election::grant_vote(self.epoch, self.log.head().0, req);
        if granted {
            self.epoch = req.epoch;
        }
        VoteReply {
            from: self.node,
            granted,
            epoch: self.epoch,
        }
    }
}

struct Group {
    replicas: Vec<Replica>,
    /// Index of the current primary, `None` while leaderless.
    primary: Option<usize>,
    /// The primary's next sync commits, replicates and then dies
    /// unanswered ([`BaseGroup::inject_commit_crash`]). Volatile at the
    /// primary: any crash of it disarms.
    commit_crash: bool,
    /// The group's epoch as the last election installed it.
    epoch: Epoch,
    /// Driver-advanced logical clock ([`BaseGroup::advance_to`]);
    /// unavailability windows are measured in these ticks, so the
    /// metrics are a function of the schedule, not of wall time.
    now: u64,
    /// Tick at which the current leaderless interval began.
    down_since: Option<u64>,
    /// Every `(epoch, leader)` installation, for the leader-safety
    /// oracle.
    leadership: Vec<(u64, NodeId)>,
    /// Every `(repl_seq, epoch)` acknowledged to a client, for the
    /// lost-commit oracle.
    acked: Vec<(u64, u64)>,
    elections: u64,
    metrics: RunMetrics,
    tracer: SyncTraceHandle,
}

impl Group {
    /// Return the current primary, electing one first if the old one is
    /// dead. `None` when no quorum is electable.
    fn ensure_primary(&mut self) -> Option<usize> {
        self.primary.or_else(|| match self.elect() {
            ElectionOutcome::Elected { leader, .. } => Some(leader.0 as usize),
            ElectionOutcome::NoQuorum { .. } => None,
        })
    }

    /// Run a deterministic election among the live replicas: nominate
    /// with [`election::pick_candidate`] (longest-log-then-lowest-id)
    /// and hold a vote round for an epoch above every survivor's. On
    /// success the winner is installed, lagging survivors are caught up
    /// by anti-entropy log transfer, and the failover metrics are
    /// recorded.
    fn elect(&mut self) -> ElectionOutcome {
        let n = self.replicas.len();
        let need = election::quorum(n);
        let survivors: Vec<Candidate> = self
            .replicas
            .iter()
            .filter(|r| r.is_live())
            .map(Replica::candidate)
            .collect();
        if survivors.len() < need {
            return ElectionOutcome::NoQuorum {
                live: survivors.len(),
                need,
            };
        }
        let cand = election::pick_candidate(&survivors).expect("a quorum is never empty");
        let floor = survivors
            .iter()
            .map(|c| c.epoch)
            .fold(self.epoch, Epoch::max);
        let req = VoteRequest {
            epoch: Epoch(floor.0 + 1),
            candidate: cand.node,
            head: cand.head,
        };
        let mut tally = Tally::new(n);
        for c in &survivors {
            tally.record(self.replicas[c.node.0 as usize].grant_vote(&req));
        }
        assert!(
            tally.elected(),
            "a quorum of survivors must grant: the proposal is above every epoch \
             and the nominee holds the longest log"
        );
        let (leader, epoch) = (cand.node.0 as usize, req.epoch);
        self.epoch = epoch;
        self.primary = Some(leader);
        self.leadership.push((epoch.0, cand.node));
        self.elections += 1;
        let now = SimTime(self.now);
        self.tracer.emit(|| {
            let (epoch, leader) = (epoch.0, cand.node);
            Event::system(now, leader, EventKind::LeaderElected { epoch, leader })
        });
        // Anti-entropy: bring lagging survivors up to the new leader's
        // log, so a follow-up failover can promote any of them without
        // losing acknowledged commits.
        for c in survivors.iter().filter(|c| c.head < cand.head) {
            self.catch_up(c.node.0 as usize, leader);
        }
        let down = self.down_since.take().map_or(0, |since| self.now - since);
        self.metrics.record_value("failover_unavailability", down);
        self.metrics.record_value("election_rounds", 1);
        ElectionOutcome::Elected {
            leader: cand.node,
            epoch,
            rounds: 1,
        }
    }

    /// Bring replica `laggard` up to replica `leader`'s log.
    fn catch_up(&mut self, laggard: usize, leader: usize) {
        let epoch = self.epoch;
        let (low, high) = self.replicas.split_at_mut(laggard.max(leader));
        let (laggard, leader) = if laggard < leader {
            (&mut low[laggard], &high[0])
        } else {
            (&mut high[0], &low[leader])
        };
        laggard.catch_up(leader, epoch);
    }

    /// Ship what the primary committed since `start`, plus the dedup
    /// outcomes `decided` alongside, to every other replica (a crashed
    /// one queues it durably and replays it on restart).
    fn ship(&mut self, primary: usize, start: Lsn, decided: &[DedupId]) {
        let p = &self.replicas[primary];
        let records = p.log.since(start).to_vec();
        if records.is_empty() && decided.is_empty() {
            return;
        }
        let batch = ReplBatch {
            epoch: p.epoch,
            records,
            outcomes: decided.iter().map(|d| (*d, p.seen[d].clone())).collect(),
        };
        let lsn = p.log.head();
        for i in (0..self.replicas.len()).filter(|i| *i != primary) {
            let to = NodeId(i as u32);
            self.replicas[primary].emit(EventKind::ReplicaSend { to, lsn });
            self.replicas[i].deliver(&batch);
        }
    }

    /// Record the primary's log head as acknowledged to a client.
    fn ack(&mut self, primary: usize) {
        let seq = self.replicas[primary].log.head().0;
        if seq > 0 {
            self.acked.push((seq, self.epoch.0));
        }
    }

    /// Take replica `idx` down, starting the unavailability clock if it
    /// was the primary.
    fn crash(&mut self, idx: usize) -> bool {
        let crashed = self.replicas.get_mut(idx).is_some_and(Replica::crash);
        if crashed && self.primary == Some(idx) {
            self.primary = None;
            self.commit_crash = false;
            self.down_since.get_or_insert(self.now);
        }
        crashed
    }
}

/// The replicated base tier: `n` replicas, one primary at a time. The
/// primary executes base transactions and ships its commit log to the
/// backups with its epoch attached; backups fence stale-epoch batches.
/// When the primary dies the next request runs a deterministic
/// election ([`crate::election`]) among the survivors — longest
/// replicated log wins, node id breaks ties — and the winner completes
/// anti-entropy catch-up of the laggards before the group accepts
/// writes again. Below an electable quorum the group degrades to
/// [`BaseGroup::stale_read`] and unanswered (queued-for-retry) syncs
/// instead of panicking.
///
/// Mobiles are oblivious to all of this: [`BaseGroup`] implements
/// [`SyncTarget`], and the [`DedupId`] outcomes replicate alongside
/// the commit records, so a sync retried across a failover gets its
/// recorded fate from the *new* primary instead of executing twice.
///
/// ```
/// use repl_core::base_tier::{BaseGroup, TxnOutcome};
/// use repl_core::{Criterion, Op, Operation, TxnSpec};
/// use repl_storage::{NodeId, ObjectId, Value};
///
/// let group = BaseGroup::spawn(3, 4, 100);
/// let debit = TxnSpec::new(vec![Operation::new(ObjectId(0), Op::Debit(30))])
///     .with_criterion(Criterion::NonNegative);
/// group.try_crash(0); // kill the primary
/// let outcome = group.execute(debit).expect("two of three still elect");
/// assert_eq!(outcome, TxnOutcome::Accepted(vec![(ObjectId(0), Value::Int(70))]));
/// assert_eq!(group.epoch(), 2); // a new leader took over
/// assert_eq!(group.primary(), Some(NodeId(1)));
/// ```
pub struct BaseGroup {
    inner: RefCell<Group>,
}

impl BaseGroup {
    /// A group of `replicas` base replicas over a `db_size`-object
    /// master database initialized to `initial_value`. Replica 0 starts
    /// as the primary of epoch 1.
    ///
    /// # Panics
    /// If `replicas` is zero.
    pub fn spawn(replicas: usize, db_size: u64, initial_value: i64) -> Self {
        BaseGroup::spawn_traced(replicas, db_size, initial_value, SyncTraceHandle::off())
    }

    /// Like [`BaseGroup::spawn`], with telemetry: replicas and the
    /// group control plane emit commit, replication, election, fence,
    /// and catch-up events through `tracer`. Replica `i` reports as
    /// `NodeId(i)`; give mobiles ids outside `0..replicas`.
    pub fn spawn_traced(
        replicas: usize,
        db_size: u64,
        initial_value: i64,
        tracer: SyncTraceHandle,
    ) -> Self {
        assert!(replicas > 0, "base group needs at least one replica");
        let leader = NodeId(0);
        tracer.emit(|| {
            Event::system(
                SimTime(0),
                leader,
                EventKind::LeaderElected { epoch: 1, leader },
            )
        });
        let replicas = (0..replicas)
            .map(|i| Replica::new(NodeId(i as u32), db_size, initial_value, tracer.clone()))
            .collect();
        BaseGroup {
            inner: RefCell::new(Group {
                replicas,
                primary: Some(0),
                commit_crash: false,
                epoch: Epoch(1),
                now: 0,
                down_since: None,
                leadership: vec![(1, leader)],
                acked: Vec::new(),
                elections: 0,
                metrics: RunMetrics::new(),
                tracer,
            }),
        }
    }

    /// Advance the group's logical clock to `tick` (monotonic; earlier
    /// values are ignored). Unavailability windows are measured on
    /// this clock, so the driver that schedules crashes also defines
    /// the timescale — metrics come out identical run over run.
    pub fn advance_to(&self, tick: u64) {
        let mut inner = self.inner.borrow_mut();
        inner.now = inner.now.max(tick);
    }

    /// Number of replicas in the group (live or crashed).
    pub fn replicas(&self) -> usize {
        self.inner.borrow().replicas.len()
    }

    /// Crash replica `idx` (see [`BaseGroup::try_crash`]).
    ///
    /// # Panics
    /// If the replica is already crashed or does not exist.
    pub fn crash(&self, idx: usize) {
        assert!(self.try_crash(idx), "replica {idx} already crashed");
    }

    /// Crash replica `idx`: it loses the master store and clock; the
    /// replicated log, dedup map, epoch, and queued appends survive.
    /// Returns `false` (a no-op) when the replica is already down or
    /// the group has no such replica, so overlapping or misaddressed
    /// fault-plan crash windows degrade to nothing instead of aborting
    /// the run. If the primary died, the next sync or execute triggers
    /// an election.
    pub fn try_crash(&self, idx: usize) -> bool {
        self.inner.borrow_mut().crash(idx)
    }

    /// Restart a crashed replica (see [`BaseGroup::try_restart`]).
    ///
    /// # Panics
    /// If the replica is not crashed.
    pub fn restart(&self, idx: usize) -> u64 {
        self.try_restart(idx).expect("restarting a live replica")
    }

    /// Restart a crashed replica: rebuild the master database by
    /// replaying the durable replicated log, rejoin as a *backup* at
    /// the group's current epoch — queued appends from a deposed
    /// primary replay beneath that epoch and get fenced rather than
    /// resurrecting a stale reign — and complete anti-entropy catch-up
    /// from the current primary, if one exists. Returns the number of
    /// replayed log records, or `None` (a no-op) if the replica is not
    /// crashed or does not exist. A restarted replica never resumes
    /// primaryship by itself; it must win an election.
    pub fn try_restart(&self, idx: usize) -> Option<u64> {
        let mut inner = self.inner.borrow_mut();
        let epoch = inner.epoch;
        let replica = inner.replicas.get_mut(idx).filter(|r| !r.is_live())?;
        replica.epoch = replica.epoch.max(epoch);
        let replayed = replica.restart();
        if let Some(p) = inner.primary {
            if inner.replicas[idx].log.head() < inner.replicas[p].log.head() {
                inner.catch_up(idx, p);
            }
        }
        replayed
    }

    /// Whether replica `idx` is currently crashed (`false` for a
    /// replica the group does not have).
    pub fn is_crashed(&self, idx: usize) -> bool {
        let inner = self.inner.borrow();
        inner.replicas.get(idx).is_some_and(|r| !r.is_live())
    }

    /// Whether enough replicas are live to elect (or keep) a primary.
    pub fn has_quorum(&self) -> bool {
        let inner = self.inner.borrow();
        let live = inner.replicas.iter().filter(|r| r.is_live()).count();
        live >= election::quorum(inner.replicas.len())
    }

    /// Execute a transaction at the primary (a connected client),
    /// electing one first if necessary. `None` when the group is below
    /// quorum (retry after a restart).
    pub fn execute(&self, spec: TxnSpec) -> Option<TxnOutcome> {
        let mut inner = self.inner.borrow_mut();
        let p = inner.ensure_primary()?;
        let start = inner.replicas[p].log.head();
        let outcome = inner.replicas[p].execute(&spec, None);
        inner.ship(p, start, &[]);
        inner.ack(p);
        Some(outcome)
    }

    /// Snapshot the primary's master database. `None` when no primary
    /// is electable.
    pub fn snapshot(&self) -> Option<ObjectStore> {
        let mut inner = self.inner.borrow_mut();
        let p = inner.ensure_primary()?;
        inner.replicas[p].master().cloned()
    }

    /// Read `obj` from any live replica — primary first, else the
    /// lowest-numbered live backup. This is the degraded-mode path: it
    /// works below quorum (possibly stale) and returns `None` only
    /// when every replica is down.
    pub fn stale_read(&self, obj: ObjectId) -> Option<Value> {
        let inner = self.inner.borrow();
        let order = inner.primary.into_iter().chain(0..inner.replicas.len());
        order
            .filter_map(|i| inner.replicas[i].master())
            .map(|master| master.get(obj).value.clone())
            .next()
    }

    /// Make the primary's next sync commit and replicate, then crash
    /// before replying — the mid-`try_sync` failover scenario. Returns
    /// `false` below quorum.
    pub fn inject_commit_crash(&self) -> bool {
        let mut inner = self.inner.borrow_mut();
        inner.commit_crash = inner.ensure_primary().is_some();
        inner.commit_crash
    }

    /// The group's current epoch.
    pub fn epoch(&self) -> u64 {
        self.inner.borrow().epoch.0
    }

    /// The current primary, `None` from the moment it crashes until
    /// the next request elects a successor.
    pub fn primary(&self) -> Option<NodeId> {
        self.inner.borrow().primary.map(|i| NodeId(i as u32))
    }

    /// Completed elections (leadership changes after the initial
    /// primary).
    pub fn elections(&self) -> u64 {
        self.inner.borrow().elections
    }

    /// Every `(epoch, leader)` installation so far, in order.
    pub fn leadership(&self) -> Vec<(u64, NodeId)> {
        self.inner.borrow().leadership.clone()
    }

    /// Acknowledged writes so far, as `(repl_seq, epoch)` pairs.
    pub fn acked(&self) -> Vec<(u64, u64)> {
        self.inner.borrow().acked.clone()
    }

    /// Total stale-epoch messages fenced across all replicas (live and
    /// crashed).
    pub fn fenced(&self) -> u64 {
        self.inner.borrow().replicas.iter().map(|r| r.fenced).sum()
    }

    /// The failover metrics collected so far: the
    /// `failover_unavailability` and `election_rounds` histograms (in
    /// driver ticks and vote rounds respectively).
    pub fn metrics(&self) -> RunMetrics {
        self.inner.borrow().metrics.clone()
    }

    /// Run the failover oracles: at-most-one-primary-per-epoch over
    /// the whole leadership history, and no-acknowledged-commit-lost
    /// against the current primary's log. Empty means the run was
    /// clean. Durability is vacuously clean while the group is below
    /// quorum (nothing new was elected, so nothing can have been
    /// lost yet).
    pub fn verify(&self) -> Vec<repl_check::Violation> {
        let mut inner = self.inner.borrow_mut();
        let safety = repl_check::check_leader_safety(&inner.leadership);
        let durability = inner.ensure_primary().and_then(|p| {
            repl_check::check_acked_durability(&inner.acked, inner.replicas[p].log.head().0)
        });
        safety.into_iter().chain(durability).collect()
    }

    /// Flush the tracer and drop the group.
    pub fn shutdown(self) {
        self.inner.borrow().tracer.flush();
    }
}

impl SyncTarget for BaseGroup {
    /// One sync round-trip against the group's primary, electing one
    /// first if the old primary is dead. `None` when the group is
    /// below quorum (degraded: the mobile keeps its tentative queue)
    /// or the primary died mid-sync — the retry is exactly-once by
    /// [`DedupId`], even when a different replica answers it. There is
    /// nothing to wait for, so `_timeout` is ignored.
    fn try_sync(&self, pendings: Vec<Pending>, from: Lsn, _timeout: Duration) -> Option<SyncReply> {
        let mut inner = self.inner.borrow_mut();
        let p = inner.ensure_primary()?;
        let start = inner.replicas[p].log.head();
        let (outcomes, decided) = inner.replicas[p].sync(&pendings);
        inner.ship(p, start, &decided);
        if inner.commit_crash {
            // Commit and replication are durable; die before the reply
            // leaves, so the next attempt elects a successor.
            inner.crash(p);
            return None;
        }
        inner.ack(p);
        let log = &inner.replicas[p].log;
        Some(SyncReply {
            outcomes,
            refresh: log.since(from).to_vec(),
            head: log.head(),
            repl_seq: log.head().0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Criterion, Op, Operation};

    fn debit(node: u32, obj: u64, amount: i64) -> Vec<Pending> {
        vec![Pending {
            dedup: DedupId {
                node: NodeId(node),
                seq: 1,
            },
            spec: TxnSpec::new(vec![Operation::new(ObjectId(obj), Op::Debit(amount))])
                .with_criterion(Criterion::NonNegative),
            tentative_results: vec![(ObjectId(obj), Value::Int(100 - amount))],
        }]
    }

    fn sync(group: &BaseGroup, pendings: Vec<Pending>) -> Option<SyncReply> {
        group.try_sync(pendings, Lsn(0), Duration::ZERO)
    }

    #[test]
    fn a_replica_the_group_does_not_have_is_vacuous() {
        let group = BaseGroup::spawn(3, 1, 100);
        assert!(!group.try_crash(3), "nothing to crash");
        assert!(!group.is_crashed(3), "an absent replica is not down");
        assert_eq!(group.try_restart(3), None, "nothing to restart");
        assert!(group.has_quorum());
        assert_eq!(group.primary(), Some(NodeId(0)));
        assert_eq!(group.epoch(), 1);
    }

    #[test]
    fn fenced_batch_leaves_no_gap_in_the_rejoining_log() {
        let group = BaseGroup::spawn(3, 2, 100);
        group.crash(0);
        // Replica 1 wins epoch 2, commits a debit, ships it (replica 0
        // queues it) and dies before replying.
        assert!(group.inject_commit_crash());
        assert!(sync(&group, debit(100, 1, 8)).is_none());
        // Back up, it wins epoch 3 and commits a second debit, which
        // replica 0 queues behind the first.
        group.restart(1);
        assert!(sync(&group, debit(101, 0, 3)).is_some());
        assert_eq!(group.epoch(), 3);
        // Replica 0 rejoins at epoch 3: the epoch-2 batch is fenced, so
        // the epoch-3 batch starts one record past its log head and
        // must not be appended in the fenced record's place.
        group.restart(0);
        assert_eq!(group.fenced(), 1);
        // Both debits must have reached replica 0 through catch-up: it
        // ties the election on log length and wins it on id.
        group.crash(1);
        let master = group.snapshot().expect("two of three elect");
        assert_eq!(group.primary(), Some(NodeId(0)));
        assert_eq!(master.get(ObjectId(1)).value, Value::Int(92));
        assert_eq!(master.get(ObjectId(0)).value, Value::Int(97));
        assert_eq!(group.verify(), vec![]);
    }
}
