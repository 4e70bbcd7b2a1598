//! A threaded two-tier base (§7) — the paper's solution running on a
//! real OS thread and channel rather than the discrete-event simulator.
//!
//! [`BaseServer`] is one thread owning the master database. It executes
//! base transactions under the lazy-master discipline, applies
//! acceptance criteria, and streams its commit log to reconnecting
//! clients. The protocol is [`repl_core::base_tier`]'s `Replica`, and
//! the client is its `MobileNode`; this module adds the thread and the
//! channel.
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

use crossbeam::channel::{unbounded, Sender};
use repl_core::base_tier::{Pending, Replica, SyncReply, SyncTarget, TxnOutcome};
use repl_core::TxnSpec;
use repl_storage::{Lsn, NodeId, ObjectStore};
use repl_telemetry::SyncTraceHandle;
use std::thread::JoinHandle;

// The frozen `benchmark/` still imports the mobile from here. ROADMAP
// item 5 points it at `repl_core::base_tier` and deletes this crate.
pub use repl_core::base_tier::MobileNode;

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
    Shutdown,
}

/// Handle to the base-node thread.
pub struct BaseServer {
    sender: Sender<BaseMsg>,
    handle: Option<JoinHandle<()>>,
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
        let (tx, inbox) = unbounded();
        let mut replica = Replica::new(NodeId(0), db_size, initial_value, tracer.clone());
        let run = move || {
            while let Ok(msg) = inbox.recv() {
                match msg {
                    BaseMsg::Execute { spec, reply } => {
                        let _ = reply.send(replica.execute(&spec, None));
                    }
                    BaseMsg::Sync {
                        pendings,
                        from,
                        reply,
                    } => {
                        let (outcomes, _) = replica.sync(&pendings);
                        let log = replica.log();
                        let _ = reply.send(SyncReply {
                            outcomes,
                            refresh: log.since(from).to_vec(),
                            head: log.head(),
                        });
                    }
                    BaseMsg::Snapshot { reply } => {
                        let master = replica.master().expect("a running base is live");
                        let _ = reply.send(master.clone());
                    }
                    BaseMsg::Shutdown => break,
                }
            }
            tracer.flush();
        };
        let handle = std::thread::Builder::new()
            .name("two-tier-base".to_owned())
            .spawn(run)
            .expect("failed to spawn base thread");
        BaseServer {
            sender: tx,
            handle: Some(handle),
        }
    }

    /// Send the request `msg` wraps around a reply channel and wait for
    /// the answer. `None` when the base thread is gone.
    fn ask<T>(&self, msg: impl FnOnce(Sender<T>) -> BaseMsg) -> Option<T> {
        let (tx, rx) = unbounded();
        self.sender.send(msg(tx)).ok()?;
        rx.recv().ok()
    }

    /// Execute a transaction directly at the base (a connected client).
    pub fn execute(&self, spec: TxnSpec) -> TxnOutcome {
        self.ask(|reply| BaseMsg::Execute { spec, reply })
            .expect("base thread gone")
    }

    /// Snapshot the master database.
    pub fn snapshot(&self) -> ObjectStore {
        self.ask(|reply| BaseMsg::Snapshot { reply })
            .expect("base thread gone")
    }

    /// Shut the base thread down, joining it.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl SyncTarget for BaseServer {
    /// One sync round-trip. The base answers every request, so `None`
    /// means only that its thread is gone.
    fn try_sync(&self, pendings: Vec<Pending>, from: Lsn) -> Option<SyncReply> {
        self.ask(|reply| BaseMsg::Sync {
            pendings,
            from,
            reply,
        })
    }
}

impl Drop for BaseServer {
    fn drop(&mut self) {
        let _ = self.sender.send(BaseMsg::Shutdown);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repl_core::base_tier::DedupId;
    use repl_core::{Criterion, Op, Operation};
    use repl_storage::{ObjectId, Value};

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
        let want = base.snapshot();
        for m in &mut nodes {
            m.sync(&base);
            for i in 0..8 {
                assert_eq!(m.read(ObjectId(i)), &want.get(ObjectId(i)).value);
            }
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
    fn duplicate_sync_delivery_is_idempotent() {
        // A duplicated sync (same pendings delivered twice — e.g. the
        // message layer duplicated the request) must not apply
        // tentative transactions twice.
        let base = BaseServer::spawn(1, 100);
        let pendings = vec![Pending {
            dedup: DedupId {
                node: NodeId(1),
                seq: 1,
            },
            spec: debit(0, 30),
            tentative_results: vec![(ObjectId(0), Value::Int(70))],
        }];
        // Deliver the same sync payload twice, as a duplicating network
        // would.
        let r1 = base.try_sync(pendings.clone(), Lsn(0));
        let r2 = base.try_sync(pendings, Lsn(0));
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
}
