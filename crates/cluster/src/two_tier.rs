//! A threaded two-tier deployment (§7) — the paper's solution running
//! on real OS threads and channels rather than the discrete-event
//! simulator.
//!
//! * [`BaseServer`] — one thread owning the master database. It
//!   executes base transactions under the lazy-master discipline,
//!   applies acceptance criteria, and streams its commit log to
//!   reconnecting clients. The protocol is [`repl_core::base_tier`]'s
//!   `Replica`; this module adds the thread, the channel and the
//!   timeouts.
//! * [`MobileNode`] — a disconnected client holding (master, tentative)
//!   dual versions. It executes tentative transactions locally, logs
//!   their input parameters, and re-submits them in commit order on
//!   [`MobileNode::sync`].
//!
//! ```
//! use repl_cluster::two_tier::{BaseServer, MobileNode};
//! use repl_core::{Criterion, Op, Operation, TxnSpec};
//! use repl_storage::{NodeId, ObjectId, Value};
//!
//! // A bank with 4 accounts of $100 each, and one offline customer.
//! let base = BaseServer::spawn(4, 100);
//! let mut mobile = MobileNode::new(NodeId(1), 4, 100);
//! let check = TxnSpec::new(vec![Operation::new(ObjectId(0), Op::Debit(30))])
//!     .with_criterion(Criterion::NonNegative);
//! mobile.execute_tentative(check);
//! assert_eq!(mobile.read(ObjectId(0)), &Value::Int(70)); // tentative view
//! let outcome = mobile.sync(&base);
//! assert_eq!(outcome.accepted, 1);
//! assert_eq!(base.snapshot().get(ObjectId(0)).value, Value::Int(70));
//! base.shutdown();
//! ```
//!
//! A mobile syncs against the replicated [`BaseGroup`] the same way,
//! and its retry loop rides out a failover:
//!
//! ```
//! use repl_cluster::two_tier::{BaseGroup, MobileNode};
//! use repl_core::{Criterion, Op, Operation, TxnSpec};
//! use repl_storage::{NodeId, ObjectId, Value};
//!
//! let group = BaseGroup::spawn(3, 4, 100);
//! let mut mobile = MobileNode::new(NodeId(100), 4, 100);
//! mobile.execute_tentative(
//!     TxnSpec::new(vec![Operation::new(ObjectId(0), Op::Debit(30))])
//!         .with_criterion(Criterion::NonNegative),
//! );
//! group.try_crash(0); // kill the primary
//! let outcome = mobile.sync_with_retry(&group, 8).expect("failover");
//! assert_eq!(outcome.accepted, 1);
//! assert_eq!(group.epoch(), 2); // a new leader took over
//! group.shutdown();
//! ```

use crossbeam::channel::{unbounded, Receiver, Sender};
use repl_core::base_tier::Replica;
pub use repl_core::base_tier::{BaseGroup, DedupId, Pending, SyncReply, SyncTarget, TxnOutcome};
use repl_core::TxnSpec;
use repl_sim::{SimRng, SimTime};
use repl_storage::{
    LamportClock, Lsn, NodeId, ObjectId, ObjectStore, TentativeStore, Timestamp, Value,
};
use repl_telemetry::{Event, EventKind, SyncTraceHandle};
use std::thread::JoinHandle;
use std::time::Duration;

enum BaseMsg {
    Execute {
        spec: TxnSpec,
        reply: Sender<TxnOutcome>,
    },
    Sync {
        pendings: Vec<Pending>,
        from: Lsn,
        reply: Sender<SyncReply>,
    },
    Snapshot {
        reply: Sender<ObjectStore>,
    },
    /// Make the next `count` syncs commit durably but crash before the
    /// reply leaves — the classic at-most-once hazard the dedup map
    /// exists for.
    InjectReplyCrashes {
        count: u32,
    },
    /// Crash the base: the thread exits, volatile state (master, clock)
    /// is lost, durable state (commit log, dedup map) survives.
    Crash,
    Shutdown,
}

/// The base thread's state. A crash hands it back to the handle with
/// the replica down; the inbox doubles as the durable request queue, so
/// requests sent while crashed are served after the restart.
struct BaseThread {
    replica: Replica,
    /// Pending injected reply-crashes (see
    /// [`BaseMsg::InjectReplyCrashes`]).
    drop_replies: u32,
    inbox: Receiver<BaseMsg>,
    tracer: SyncTraceHandle,
}

impl BaseThread {
    fn spawn(self) -> JoinHandle<Option<BaseThread>> {
        std::thread::Builder::new()
            .name("two-tier-base".to_owned())
            .spawn(move || self.run())
            .expect("failed to spawn base thread")
    }

    fn run(mut self) -> Option<BaseThread> {
        while let Ok(msg) = self.inbox.recv() {
            match msg {
                BaseMsg::Execute { spec, reply } => {
                    let _ = reply.send(self.replica.execute(&spec, None));
                }
                BaseMsg::Sync {
                    pendings,
                    from,
                    reply,
                } => {
                    let (outcomes, _) = self.replica.sync(&pendings);
                    if self.drop_replies > 0 {
                        // Crash after commit, before reply: the work is
                        // durable but the client never hears back.
                        self.drop_replies -= 1;
                        self.replica.emit(EventKind::NodeCrash);
                        continue;
                    }
                    let log = self.replica.log();
                    let _ = reply.send(SyncReply {
                        outcomes,
                        refresh: log.since(from).to_vec(),
                        head: log.head(),
                        repl_seq: 0,
                    });
                }
                BaseMsg::Snapshot { reply } => {
                    let master = self.replica.master().expect("a running base is live");
                    let _ = reply.send(master.clone());
                }
                BaseMsg::InjectReplyCrashes { count } => {
                    self.drop_replies += count;
                }
                BaseMsg::Crash => {
                    self.replica.crash();
                    return Some(self);
                }
                BaseMsg::Shutdown => break,
            }
        }
        self.tracer.flush();
        None
    }
}

/// Handle to the base-node thread.
pub struct BaseServer {
    sender: Sender<BaseMsg>,
    handle: Option<JoinHandle<Option<BaseThread>>>,
    /// The crashed base's state, consumed by a restart.
    remnant: Option<BaseThread>,
}

impl BaseServer {
    /// Spawn the base server owning a `db_size`-object master database
    /// with every object initialized to `initial_value`.
    pub fn spawn(db_size: u64, initial_value: i64) -> Self {
        BaseServer::spawn_traced(db_size, initial_value, SyncTraceHandle::off())
    }

    /// Like [`BaseServer::spawn`], but the base thread emits telemetry
    /// events through `tracer` as it commits and rejects transactions.
    pub fn spawn_traced(db_size: u64, initial_value: i64, tracer: SyncTraceHandle) -> Self {
        let (tx, rx) = unbounded();
        let thread = BaseThread {
            replica: Replica::new(NodeId(0), db_size, initial_value, tracer.clone()),
            drop_replies: 0,
            inbox: rx,
            tracer,
        };
        BaseServer {
            sender: tx,
            handle: Some(thread.spawn()),
            remnant: None,
        }
    }

    /// Arrange for the next `count` syncs to commit durably but crash
    /// before replying. Clients observe a dead connection and must
    /// retry; the dedup map guarantees the retry does not re-execute.
    pub fn inject_reply_crashes(&self, count: u32) {
        self.sender
            .send(BaseMsg::InjectReplyCrashes { count })
            .expect("base thread gone");
    }

    /// Crash the base server: the thread exits, losing the master
    /// store and clock; the commit log and dedup map survive. Requests
    /// sent while crashed queue up and are served after
    /// [`BaseServer::restart`].
    ///
    /// # Panics
    /// If the base is already crashed.
    pub fn crash(&mut self) {
        assert!(self.try_crash(), "base already crashed");
    }

    /// Non-panicking [`BaseServer::crash`]: returns `false` (a no-op)
    /// when the base is already down, so overlapping fault-plan crash
    /// windows degrade to nothing instead of aborting the run.
    pub fn try_crash(&mut self) -> bool {
        let Some(handle) = self.handle.take() else {
            return false;
        };
        self.sender.send(BaseMsg::Crash).expect("base thread gone");
        let remnant = handle.join().expect("base thread panicked");
        self.remnant = Some(remnant.expect("crash must yield a remnant"));
        true
    }

    /// Restart a crashed base: rebuild the master database by replaying
    /// the durable commit log over the initial state, restore the clock
    /// from the replayed timestamps, and resume on the original inbox.
    /// Returns the number of committed transactions replayed.
    ///
    /// # Panics
    /// If the base is not crashed.
    pub fn restart(&mut self) -> u64 {
        self.try_restart().expect("restarting a live base")
    }

    /// Non-panicking [`BaseServer::restart`]: `None` (a no-op) when the
    /// base is not crashed.
    pub fn try_restart(&mut self) -> Option<u64> {
        let mut thread = self.remnant.take()?;
        let replayed = thread.replica.restart();
        thread.drop_replies = 0;
        self.handle = Some(thread.spawn());
        replayed
    }

    /// Whether the base is currently crashed.
    pub fn is_crashed(&self) -> bool {
        self.remnant.is_some()
    }

    /// Execute a transaction directly at the base (a connected client).
    pub fn execute(&self, spec: TxnSpec) -> TxnOutcome {
        let (tx, rx) = unbounded();
        self.sender
            .send(BaseMsg::Execute { spec, reply: tx })
            .expect("base thread gone");
        rx.recv().expect("base thread dropped reply")
    }

    /// Snapshot the master database.
    pub fn snapshot(&self) -> ObjectStore {
        let (tx, rx) = unbounded();
        self.sender
            .send(BaseMsg::Snapshot { reply: tx })
            .expect("base thread gone");
        rx.recv().expect("base thread dropped snapshot")
    }

    /// Shut the base thread down.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let _ = self.sender.send(BaseMsg::Shutdown);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        self.remnant = None;
    }
}

impl SyncTarget for BaseServer {
    /// One sync round-trip. `None` when the base crashed before the
    /// reply arrived (or is down and did not answer within `timeout`) —
    /// the caller should retry; the dedup ids make the retry safe.
    fn try_sync(&self, pendings: Vec<Pending>, from: Lsn, timeout: Duration) -> Option<SyncReply> {
        let (tx, rx) = unbounded();
        self.sender
            .send(BaseMsg::Sync {
                pendings,
                from,
                reply: tx,
            })
            .expect("base thread gone");
        rx.recv_timeout(timeout).ok()
    }
}

impl Drop for BaseServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Backoff schedule for [`MobileNode::sync_with_retry`]: exponential
/// doubling from `base` capped at `cap`, with an optional seeded jitter
/// fraction so colliding retries decorrelate while tests stay
/// deterministic (same seed ⇒ same delays).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// First-retry delay (doubles every attempt).
    pub base: Duration,
    /// Upper bound on any single delay.
    pub cap: Duration,
    /// Jitter fraction in `[0, 1]`: each delay is scaled by a factor
    /// drawn uniformly from `[1 - jitter/2, 1 + jitter/2]`. Zero (the
    /// default) draws nothing and reproduces the fixed schedule.
    pub jitter: f64,
    /// Seed for the jitter stream.
    pub seed: u64,
    /// Per-attempt reply timeout.
    pub attempt_timeout: Duration,
}

impl Default for RetryPolicy {
    /// The historical schedule: 1 ms → 64 ms doubling, no jitter,
    /// 100 ms per-attempt timeout.
    fn default() -> Self {
        RetryPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(64),
            jitter: 0.0,
            seed: 0,
            attempt_timeout: Duration::from_millis(100),
        }
    }
}

impl RetryPolicy {
    /// The delay before retry `attempt` (1-based). Draws from `rng`
    /// only when `jitter > 0`, so a zero-jitter policy is RNG-free.
    pub fn backoff(&self, attempt: u32, rng: &mut SimRng) -> Duration {
        let doubled = self
            .base
            .saturating_mul(
                1u32.checked_shl(attempt.saturating_sub(1))
                    .unwrap_or(u32::MAX),
            )
            .min(self.cap);
        if self.jitter <= 0.0 {
            return doubled;
        }
        let scale = 1.0 - self.jitter / 2.0 + self.jitter * rng.next_f64();
        doubled.mul_f64(scale.max(0.0))
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
    retry: RetryPolicy,
    retry_rng: SimRng,
    // Logical tick for event timestamps: one per tentative execution
    // or sync, mirroring the base thread's convention.
    tick: u64,
}

impl MobileNode {
    /// A fresh mobile node over a `db_size`-object replica (sync before
    /// first use to pull the real master versions).
    pub fn new(id: NodeId, db_size: u64, initial_value: i64) -> Self {
        let mut store = TentativeStore::new(db_size);
        for i in 0..db_size {
            store
                .master_mut()
                .set(ObjectId(i), Value::Int(initial_value), Timestamp::ZERO);
        }
        MobileNode {
            id,
            store,
            clock: LamportClock::new(id),
            pending: Vec::new(),
            watermark: Lsn(0),
            next_seq: 0,
            last_rejections: Vec::new(),
            tracer: SyncTraceHandle::off(),
            retry: RetryPolicy::default(),
            retry_rng: SimRng::stream(0, "mobile-retry"),
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

    /// Replace the retry backoff schedule (and reseed its jitter
    /// stream; the node id decorrelates nodes sharing one policy).
    #[must_use]
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry_rng = SimRng::stream(policy.seed ^ u64::from(self.id.0), "mobile-retry");
        self.retry = policy;
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
    /// If the base crashes before replying; use
    /// [`MobileNode::sync_with_retry`] against an unreliable base.
    pub fn sync(&mut self, base: &impl SyncTarget) -> SyncOutcome {
        self.try_sync(base, Duration::from_secs(10))
            .expect("base crashed mid-sync")
    }

    /// Like [`MobileNode::sync`], retrying on the node's
    /// [`RetryPolicy`] backoff schedule when the base crashes before
    /// replying or does not answer. Re-submission is safe: each
    /// tentative transaction carries a [`DedupId`], so a retry of a
    /// sync the base already committed returns the recorded outcomes
    /// instead of executing twice — including when a failover put a
    /// *different* replica behind the same [`SyncTarget`] between
    /// attempts. Returns `None` if every attempt failed (pending
    /// transactions are retained for a later sync). Each re-attempt
    /// emits a [`EventKind::SyncRetried`] event.
    pub fn sync_with_retry(
        &mut self,
        base: &impl SyncTarget,
        max_attempts: u32,
    ) -> Option<SyncOutcome> {
        for attempt in 0..max_attempts {
            if attempt > 0 {
                let delay = self.retry.backoff(attempt, &mut self.retry_rng);
                let (id, now) = (self.id, SimTime(self.tick));
                self.tracer
                    .emit(|| Event::system(now, id, EventKind::SyncRetried { attempt }));
                std::thread::sleep(delay);
            }
            if let Some(outcome) = self.try_sync(base, self.retry.attempt_timeout) {
                return Some(outcome);
            }
        }
        None
    }

    /// One sync attempt. On failure (`None`) the node keeps its
    /// tentative versions and pending queue untouched, so the attempt
    /// can be repeated verbatim.
    fn try_sync(&mut self, base: &impl SyncTarget, timeout: Duration) -> Option<SyncOutcome> {
        self.tick += 1;
        let now = SimTime(self.tick);
        let id = self.id;
        self.tracer
            .emit(|| Event::system(now, id, EventKind::Reconnect));
        self.tracer
            .emit(|| Event::system(now, id, EventKind::MsgSent { to: NodeId(0) }));
        let reply = base.try_sync(self.pending.clone(), self.watermark, timeout)?;
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
    use repl_core::{Criterion, Op, Operation};

    fn debit(obj: u64, amount: i64) -> TxnSpec {
        TxnSpec::new(vec![Operation::new(ObjectId(obj), Op::Debit(amount))])
            .with_criterion(Criterion::NonNegative)
    }

    fn credit(obj: u64, amount: i64) -> TxnSpec {
        TxnSpec::new(vec![Operation::new(ObjectId(obj), Op::Add(amount))])
            .with_criterion(Criterion::NonNegative)
    }

    #[test]
    fn direct_base_execution_works() {
        let base = BaseServer::spawn(4, 100);
        match base.execute(debit(0, 30)) {
            TxnOutcome::Accepted(outputs) => {
                assert_eq!(outputs, vec![(ObjectId(0), Value::Int(70))]);
            }
            o => panic!("unexpected {o:?}"),
        }
        assert_eq!(base.snapshot().get(ObjectId(0)).value, Value::Int(70));
        base.shutdown();
    }

    #[test]
    fn base_rejects_overdraft() {
        let base = BaseServer::spawn(2, 50);
        match base.execute(debit(0, 80)) {
            TxnOutcome::Rejected { reason } => {
                assert!(reason.contains("NonNegative"), "{reason}");
            }
            o => panic!("overdraft accepted: {o:?}"),
        }
        // Master unchanged.
        assert_eq!(base.snapshot().get(ObjectId(0)).value, Value::Int(50));
        base.shutdown();
    }

    #[test]
    fn tentative_updates_visible_locally_then_durable_after_sync() {
        let base = BaseServer::spawn(4, 100);
        let mut mobile = MobileNode::new(NodeId(1), 4, 100);
        mobile.execute_tentative(debit(2, 40));
        // Visible locally through the tentative overlay…
        assert_eq!(mobile.read(ObjectId(2)), &Value::Int(60));
        // …but not at the base yet.
        assert_eq!(base.snapshot().get(ObjectId(2)).value, Value::Int(100));
        let outcome = mobile.sync(&base);
        assert_eq!(outcome.accepted, 1);
        assert_eq!(outcome.rejected, 0);
        assert_eq!(base.snapshot().get(ObjectId(2)).value, Value::Int(60));
        // The refresh brought the committed value back to the mobile.
        assert_eq!(mobile.read(ObjectId(2)), &Value::Int(60));
        base.shutdown();
    }

    #[test]
    fn checkbook_race_second_spouse_bounces() {
        // The paper's joint account: $1000; you debit $800, your spouse
        // debits $700 — both fine on local state, but the bank only
        // honors the first.
        let base = BaseServer::spawn(1, 1000);
        let mut you = MobileNode::new(NodeId(1), 1, 1000);
        let mut spouse = MobileNode::new(NodeId(2), 1, 1000);
        you.execute_tentative(debit(0, 800));
        spouse.execute_tentative(debit(0, 700));
        assert_eq!(you.sync(&base).accepted, 1);
        let s = spouse.sync(&base);
        assert_eq!(s.accepted, 0);
        assert_eq!(s.rejected, 1);
        assert!(spouse.last_rejections()[0].contains("NonNegative"));
        // The bank's books stayed consistent and non-negative.
        assert_eq!(base.snapshot().get(ObjectId(0)).value, Value::Int(200));
        // The spouse's replica converged to the bank's state.
        assert_eq!(spouse.read(ObjectId(0)), &Value::Int(200));
        base.shutdown();
    }

    #[test]
    fn commutative_transactions_all_accepted() {
        let base = BaseServer::spawn(8, 1_000_000);
        let mut nodes: Vec<MobileNode> = (1..=3)
            .map(|i| MobileNode::new(NodeId(i), 8, 1_000_000))
            .collect();
        for (k, m) in nodes.iter_mut().enumerate() {
            for i in 0..20u64 {
                let spec = if i % 2 == 0 {
                    credit(i % 8, (k as i64 + 1) * 10)
                } else {
                    debit(i % 8, 5)
                };
                m.execute_tentative(spec);
            }
        }
        let mut total_rejected = 0;
        for m in &mut nodes {
            total_rejected += m.sync(&base).rejected;
        }
        assert_eq!(total_rejected, 0, "commutative ops must all clear");
        // Everyone syncs again to pull the others' refreshes; all
        // replicas converge to the master state.
        let want = base.snapshot().digest();
        for m in &mut nodes {
            m.sync(&base);
            assert_eq!(m.store.master().digest(), want);
        }
        base.shutdown();
    }

    #[test]
    fn exact_match_rejected_after_intervening_update() {
        let base = BaseServer::spawn(2, 100);
        let mut mobile = MobileNode::new(NodeId(1), 2, 100);
        let spec = TxnSpec::new(vec![Operation::new(ObjectId(0), Op::Add(10))])
            .with_criterion(Criterion::ExactMatch);
        mobile.execute_tentative(spec);
        // Meanwhile a connected user moves the object at the base.
        base.execute(credit(0, 50));
        let s = mobile.sync(&base);
        assert_eq!(s.rejected, 1, "base result 160 != tentative 110");
        base.shutdown();
    }

    #[test]
    fn watermark_only_replays_new_commits() {
        let base = BaseServer::spawn(2, 0);
        let mut mobile = MobileNode::new(NodeId(1), 2, 0);
        base.execute(credit(0, 1));
        let s1 = mobile.sync(&base);
        assert_eq!(s1.refreshed, 1);
        base.execute(credit(0, 1));
        base.execute(credit(1, 1));
        let s2 = mobile.sync(&base);
        assert_eq!(s2.refreshed, 2, "only the two new commits replay");
        base.shutdown();
    }

    #[test]
    fn traced_two_tier_records_tentative_fates() {
        use repl_telemetry::{EventKind, RingBuffer};
        use std::sync::{Arc, Mutex};

        let ring = Arc::new(Mutex::new(RingBuffer::new(256)));
        let handle = SyncTraceHandle::shared(&ring);
        let base = BaseServer::spawn_traced(1, 1000, handle.clone());
        let mut you = MobileNode::new(NodeId(1), 1, 1000).with_tracer(handle.clone());
        let mut spouse = MobileNode::new(NodeId(2), 1, 1000).with_tracer(handle);
        you.execute_tentative(debit(0, 800));
        spouse.execute_tentative(debit(0, 700));
        you.sync(&base);
        spouse.sync(&base);
        base.shutdown();
        let ring = ring.lock().unwrap();
        let count = |pred: fn(&EventKind) -> bool| ring.events().filter(|e| pred(&e.kind)).count();
        assert_eq!(count(|k| matches!(k, EventKind::TentativeCommit)), 2);
        assert_eq!(count(|k| matches!(k, EventKind::TentativeAccepted)), 1);
        assert_eq!(count(|k| matches!(k, EventKind::TentativeRejected)), 1);
        assert_eq!(count(|k| matches!(k, EventKind::Reconcile)), 1);
        // The base committed one durable transaction and aborted the
        // spouse's incarnation.
        assert_eq!(count(|k| matches!(k, EventKind::TxnCommit)), 1);
        assert_eq!(count(|k| matches!(k, EventKind::TxnAbort { .. })), 1);
    }

    #[test]
    fn reply_crash_retry_does_not_double_execute() {
        let base = BaseServer::spawn(1, 100);
        let mut mobile = MobileNode::new(NodeId(1), 1, 100);
        mobile.execute_tentative(debit(0, 30));
        // The next two syncs commit durably but the reply is eaten by a
        // crash; the third attempt gets through.
        base.inject_reply_crashes(2);
        let outcome = mobile
            .sync_with_retry(&base, 5)
            .expect("retry must eventually reach the base");
        assert_eq!(outcome.accepted, 1);
        // Deduplication: the debit ran exactly once despite three
        // submissions of the same pending transaction.
        assert_eq!(base.snapshot().get(ObjectId(0)).value, Value::Int(70));
        assert_eq!(mobile.read(ObjectId(0)), &Value::Int(70));
        base.shutdown();
    }

    #[test]
    fn base_crash_restart_recovers_master_from_log() {
        let mut base = BaseServer::spawn(2, 100);
        base.execute(debit(0, 25));
        base.execute(credit(1, 40));
        let before = base.snapshot().digest();
        base.crash();
        assert!(base.is_crashed());
        let replayed = base.restart();
        assert_eq!(replayed, 2, "both commits replay from the log");
        assert_eq!(base.snapshot().digest(), before, "master diverged");
        base.shutdown();
    }

    #[test]
    fn sync_against_crashed_base_fails_then_recovers() {
        let mut base = BaseServer::spawn(1, 100);
        let mut mobile = MobileNode::new(NodeId(1), 1, 100);
        mobile.execute_tentative(debit(0, 10));
        base.crash();
        // Every attempt times out against the dead base; the pending
        // queue survives for later.
        assert!(mobile.sync_with_retry(&base, 2).is_none());
        assert_eq!(mobile.pending_count(), 1);
        base.restart();
        let outcome = mobile
            .sync_with_retry(&base, 5)
            .expect("restarted base must answer");
        assert_eq!(outcome.accepted, 1);
        // The stale syncs queued while the base was down re-submitted
        // the same dedup id; the debit still ran exactly once.
        assert_eq!(base.snapshot().get(ObjectId(0)).value, Value::Int(90));
        base.shutdown();
    }

    #[test]
    fn duplicate_sync_delivery_is_idempotent() {
        // Satellite: a duplicated sync (same pendings delivered twice —
        // e.g. the message layer duplicated the request) must not apply
        // tentative transactions twice.
        let base = BaseServer::spawn(1, 100);
        let mut mobile = MobileNode::new(NodeId(1), 1, 100);
        mobile.execute_tentative(debit(0, 30));
        let pendings = mobile.pending.clone();
        // Deliver the same sync payload twice, as a duplicating network
        // would.
        let r1 = base.try_sync(pendings.clone(), Lsn(0), Duration::from_secs(10));
        let r2 = base.try_sync(pendings, Lsn(0), Duration::from_secs(10));
        assert!(r1.is_some() && r2.is_some());
        assert_eq!(
            base.snapshot().get(ObjectId(0)).value,
            Value::Int(70),
            "duplicate delivery must not debit twice"
        );
        // Both deliveries report the same recorded outcome.
        let (o1, o2) = (r1.unwrap().outcomes, r2.unwrap().outcomes);
        assert_eq!(o1, o2);
        base.shutdown();
    }

    #[test]
    fn pending_queue_drains_in_commit_order() {
        let base = BaseServer::spawn(1, 10);
        let mut mobile = MobileNode::new(NodeId(1), 1, 10);
        // Sequence matters: debit 10 then credit 5 works in order
        // (10→0→5); reversed it would still work, but a second debit
        // of 6 only clears because the credit ran first.
        mobile.execute_tentative(debit(0, 10));
        mobile.execute_tentative(credit(0, 5));
        mobile.execute_tentative(debit(0, 4));
        assert_eq!(mobile.pending_count(), 3);
        let s = mobile.sync(&base);
        assert_eq!(s.accepted, 3);
        assert_eq!(mobile.pending_count(), 0);
        assert_eq!(base.snapshot().get(ObjectId(0)).value, Value::Int(1));
        base.shutdown();
    }

    #[test]
    fn retry_policy_backoff_doubles_and_caps() {
        let policy = RetryPolicy::default();
        let mut rng = SimRng::stream(0, "test");
        assert_eq!(policy.backoff(1, &mut rng), Duration::from_millis(1));
        assert_eq!(policy.backoff(2, &mut rng), Duration::from_millis(2));
        assert_eq!(policy.backoff(4, &mut rng), Duration::from_millis(8));
        assert_eq!(policy.backoff(7, &mut rng), Duration::from_millis(64));
        assert_eq!(policy.backoff(30, &mut rng), Duration::from_millis(64));
    }

    #[test]
    fn retry_policy_jitter_is_seeded_and_bounded() {
        let policy = RetryPolicy {
            jitter: 0.5,
            ..RetryPolicy::default()
        };
        let draw = |seed: u64| {
            let mut rng = SimRng::stream(seed, "test");
            (0..6)
                .map(|a| policy.backoff(a + 1, &mut rng))
                .collect::<Vec<_>>()
        };
        // Deterministic: same seed, same delays.
        assert_eq!(draw(7), draw(7));
        // Bounded: within ±jitter/2 of the fixed schedule.
        for (i, d) in draw(7).iter().enumerate() {
            let fixed = Duration::from_millis(1 << i).min(Duration::from_millis(64));
            assert!(
                *d >= fixed.mul_f64(0.75) && *d <= fixed.mul_f64(1.25),
                "{d:?}"
            );
        }
    }

    #[test]
    fn group_serves_syncs_like_a_single_base() {
        let group = BaseGroup::spawn(3, 4, 100);
        let mut mobile = MobileNode::new(NodeId(100), 4, 100);
        mobile.execute_tentative(debit(0, 30));
        let outcome = mobile.sync(&group);
        assert_eq!(outcome.accepted, 1);
        assert_eq!(
            group.snapshot().unwrap().get(ObjectId(0)).value,
            Value::Int(70)
        );
        assert_eq!(group.epoch(), 1);
        assert_eq!(group.primary(), Some(NodeId(0)));
        assert!(group.verify().is_empty());
        group.shutdown();
    }

    #[test]
    fn primary_crash_elects_most_caught_up_backup() {
        let group = BaseGroup::spawn(3, 4, 100);
        let mut mobile = MobileNode::new(NodeId(100), 4, 100);
        mobile.execute_tentative(debit(0, 30));
        mobile.sync(&group);
        group.advance_to(5);
        group.crash(0);
        group.advance_to(9);
        // Next sync triggers the election; backups hold the full log,
        // so the lowest-id backup (1) wins epoch 2.
        mobile.execute_tentative(debit(0, 20));
        let outcome = mobile.sync_with_retry(&group, 4).expect("failover sync");
        assert_eq!(outcome.accepted, 1);
        assert_eq!(group.primary(), Some(NodeId(1)));
        assert_eq!(group.epoch(), 2);
        assert_eq!(group.elections(), 1);
        // The unavailability window is the 4 ticks between crash and
        // the election-triggering sync.
        let m = group.metrics();
        let h = m.histogram("failover_unavailability").expect("recorded");
        assert_eq!(h.count(), 1);
        // No acknowledged commit lost: the new primary serves the full
        // state.
        assert_eq!(
            group.snapshot().unwrap().get(ObjectId(0)).value,
            Value::Int(50)
        );
        assert!(group.verify().is_empty());
        group.shutdown();
    }

    #[test]
    fn commit_crash_failover_replays_cached_outcome_not_double_debit() {
        let group = BaseGroup::spawn(3, 1, 100);
        let mut mobile = MobileNode::new(NodeId(100), 1, 100);
        mobile.execute_tentative(debit(0, 40));
        // The primary commits and replicates, then dies before the
        // reply leaves. The retry lands on the *new* primary, whose
        // replicated dedup map answers from cache — no double debit.
        assert!(group.inject_commit_crash());
        let outcome = mobile.sync_with_retry(&group, 6).expect("failover");
        assert_eq!(outcome.accepted, 1);
        assert!(group.elections() >= 1);
        assert_eq!(
            group.snapshot().unwrap().get(ObjectId(0)).value,
            Value::Int(60),
            "exactly one debit across the failover"
        );
        assert!(group.verify().is_empty());
        group.shutdown();
    }

    #[test]
    fn below_quorum_degrades_to_stale_reads_and_recovers() {
        let group = BaseGroup::spawn(3, 2, 100);
        let mut mobile = MobileNode::new(NodeId(100), 2, 100);
        mobile.execute_tentative(debit(0, 10));
        mobile.sync(&group);
        group.crash(0);
        group.crash(1);
        // One survivor of three: no electable quorum. Syncs go
        // unanswered (the mobile queues), but stale reads still serve.
        mobile.execute_tentative(debit(0, 5));
        assert!(mobile.sync_with_retry(&group, 2).is_none());
        assert_eq!(mobile.pending_count(), 1, "tentative sync queued");
        assert!(!group.has_quorum());
        assert_eq!(group.stale_read(ObjectId(0)), Some(Value::Int(90)));
        // A replica rejoins: quorum is back, the queued sync drains.
        group.restart(1);
        assert!(group.has_quorum());
        let outcome = mobile.sync_with_retry(&group, 4).expect("recovered");
        assert_eq!(outcome.accepted, 1);
        assert_eq!(
            group.snapshot().unwrap().get(ObjectId(0)).value,
            Value::Int(85)
        );
        assert!(group.verify().is_empty());
        group.shutdown();
    }

    #[test]
    fn overlapping_crash_windows_are_noops() {
        let group = BaseGroup::spawn(3, 1, 10);
        assert!(group.try_crash(2));
        assert!(!group.try_crash(2), "second crash of a dead replica");
        assert!(group.try_restart(2).is_some());
        assert!(group.try_restart(2).is_none(), "second restart is a no-op");
        group.shutdown();
    }

    #[test]
    fn deposed_primary_rejoins_fenced_and_catches_up() {
        let group = BaseGroup::spawn(3, 2, 100);
        let mut mobile = MobileNode::new(NodeId(100), 2, 100);
        mobile.execute_tentative(debit(0, 10));
        mobile.sync(&group);
        group.crash(0);
        // Epoch 2 under a new primary, with commits the old one missed.
        mobile.execute_tentative(debit(0, 20));
        mobile.sync_with_retry(&group, 4).expect("failover");
        assert_eq!(group.epoch(), 2);
        // The deposed primary rejoins as a backup and catches up.
        group.restart(0);
        assert_eq!(group.primary(), Some(NodeId(1)), "restart does not reclaim");
        // Kill the current primary: replica 0 is electable again and
        // must hold the epoch-2 commits it caught up on.
        group.crash(1);
        mobile.execute_tentative(debit(0, 30));
        let outcome = mobile.sync_with_retry(&group, 4).expect("second failover");
        assert_eq!(outcome.accepted, 1);
        assert_eq!(group.primary(), Some(NodeId(0)));
        assert_eq!(
            group.snapshot().unwrap().get(ObjectId(0)).value,
            Value::Int(40),
            "all three debits survive two failovers"
        );
        assert!(group.verify().is_empty());
        group.shutdown();
    }

    #[test]
    fn traced_failover_emits_election_events() {
        use repl_telemetry::RingBuffer;
        use std::sync::{Arc, Mutex};
        let ring = Arc::new(Mutex::new(RingBuffer::new(1024)));
        let tracer = SyncTraceHandle::shared(&ring);
        let group = BaseGroup::spawn_traced(3, 1, 100, tracer.clone());
        let mut mobile = MobileNode::new(NodeId(100), 1, 100).with_tracer(tracer);
        mobile.execute_tentative(debit(0, 10));
        mobile.sync(&group);
        // A commit-crash kills the primary mid-sync: the first attempt
        // dies unanswered (forcing a SyncRetried), the retry elects.
        group.inject_commit_crash();
        mobile.execute_tentative(debit(0, 5));
        mobile.sync_with_retry(&group, 4).expect("failover");
        group.shutdown();
        let ring = ring.lock().unwrap();
        let count = |pred: fn(&EventKind) -> bool| ring.events().filter(|e| pred(&e.kind)).count();
        assert_eq!(
            count(|k| matches!(k, EventKind::LeaderElected { .. })),
            2,
            "initial leader + failover"
        );
        assert!(
            count(|k| matches!(k, EventKind::SyncRetried { .. })) >= 1,
            "the failed attempt against the dead primary must be retried"
        );
    }
}
