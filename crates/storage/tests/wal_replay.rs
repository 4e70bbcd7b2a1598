//! Commit-log replay property: replaying a node's log in commit order
//! onto a fresh replica reproduces the exact final state — the
//! correctness basis of §5's "sends replica updates to slaves in
//! sequential commit order".

use proptest::prelude::*;
use repl_storage::{
    CommitLog, LamportClock, NodeId, ObjectId, ObjectStore, TxnId, UpdateRecord, Value,
};

proptest! {
    #[test]
    fn full_replay_reproduces_state(
        writes in prop::collection::vec((0u64..32, -500i64..500), 1..200),
    ) {
        let db = 32;
        let mut primary = ObjectStore::new(db);
        let mut clock = LamportClock::new(NodeId(1));
        let mut log = CommitLog::new();

        // The primary executes single-write transactions and logs them.
        for (i, (obj, val)) in writes.iter().enumerate() {
            let id = ObjectId(*obj);
            let old_ts = primary.get(id).ts;
            let new_ts = clock.tick();
            let value = Value::Int(*val);
            primary.set(id, value, new_ts);
            log.append(
                TxnId(i as u64),
                vec![UpdateRecord {
                    txn: TxnId(i as u64),
                    object: id,
                    old_ts,
                    new_ts,
                    value,
                }],
            );
        }

        // A replica replays the whole log in order: every update is
        // "safe" (old timestamp matches) and the states converge.
        let mut replica = ObjectStore::new(db);
        for record in log.since(repl_storage::Lsn(0)) {
            for u in &record.updates {
                let outcome = replica.apply_versioned(u.object, u.old_ts, u.new_ts, u.value);
                prop_assert_eq!(
                    outcome,
                    repl_storage::ApplyOutcome::Applied,
                    "in-order replay must always be the safe case"
                );
            }
        }
        prop_assert_eq!(replica.digest(), primary.digest());
    }

    #[test]
    fn partial_then_resume_replay_also_converges(
        writes in prop::collection::vec((0u64..16, -100i64..100), 2..100),
        cut in 1usize..99,
    ) {
        let db = 16;
        let mut primary = ObjectStore::new(db);
        let mut clock = LamportClock::new(NodeId(1));
        let mut log = CommitLog::new();
        for (i, (obj, val)) in writes.iter().enumerate() {
            let id = ObjectId(*obj);
            let old_ts = primary.get(id).ts;
            let new_ts = clock.tick();
            let value = Value::Int(*val);
            primary.set(id, value, new_ts);
            log.append(TxnId(i as u64), vec![UpdateRecord {
                txn: TxnId(i as u64), object: id, old_ts, new_ts, value,
            }]);
        }

        // Replay a prefix, remember the watermark, then resume — the
        // reconnecting-node pattern.
        let cut = cut.min(writes.len() - 1);
        let mut replica = ObjectStore::new(db);
        let watermark = repl_storage::Lsn(cut as u64);
        for record in &log.since(repl_storage::Lsn(0))[..cut] {
            for u in &record.updates {
                replica.apply_versioned(u.object, u.old_ts, u.new_ts, u.value);
            }
        }
        for record in log.since(watermark) {
            for u in &record.updates {
                replica.apply_versioned(u.object, u.old_ts, u.new_ts, u.value);
            }
        }
        prop_assert_eq!(replica.digest(), primary.digest());
    }
}
