//! The shipped oracles against the reference ones (`reference.rs`):
//! generated histories and snapshot sets must get the same verdict,
//! the same witness, the same cycle edges and labels, the same chain
//! break, the same diverging object and the same delusive write.
//!
//! Also the worst-case input shapes, at the recorder's real caps.

use crate::history::{Detailed, History, TxnRecord};
use crate::oracle::{
    find_delusion, find_divergence, ApplyEvent, NodeTrace, Recorder, Scheme, Snapshot, Violation,
    DEFAULT_HISTORY_CAP,
};
use crate::reference;
use proptest::prelude::*;
use repl_storage::{
    ApplyOutcome, NodeId, ObjectId, ObjectStore, ShardMap, Timestamp, TxnId, Value, Versioned,
};

const OBJECTS: u64 = 10;
const CASES: u32 = 512;

fn ts(counter: u64) -> Timestamp {
    Timestamp::new(counter, NodeId(0))
}

/// One access of a generated transaction: `(object, mode)` with mode
/// 0 = read, 1 = read then write, 2 = blind write.
type Access = (u64, u8);

/// What strict 2PL with commit-order recording produces: every access
/// sees the object's current version, every write mints the next one.
/// A transaction may touch an object twice (the two-tier base does);
/// once it has written it, it reads its own buffered value, which is
/// no recorded read.
fn two_phase_locked(txns: &[Vec<Access>]) -> Vec<TxnRecord> {
    let mut current = [0u64; OBJECTS as usize];
    txns.iter()
        .enumerate()
        .map(|(i, accesses)| {
            let mut reads = Vec::new();
            let mut writes: Vec<(ObjectId, Timestamp, Timestamp)> = Vec::new();
            for &(obj, mode) in accesses {
                let id = ObjectId(obj);
                let version = &mut current[obj as usize];
                let wrote = writes.iter().any(|w| w.0 == id);
                if mode != 2 && !wrote && !reads.contains(&(id, ts(*version))) {
                    reads.push((id, ts(*version)));
                }
                if mode != 0 {
                    writes.push((id, ts(*version), ts(*version + 1)));
                    *version += 1;
                }
            }
            TxnRecord {
                txn: TxnId(i as u64 + 1),
                reads,
                writes,
            }
        })
        .collect()
}

/// Break a 2PL-shaped history the ways a buggy engine could:
/// `(kind, a, b)` picks the damage and the records it lands on.
fn damage(records: &mut Vec<TxnRecord>, mutations: &[(u8, usize, usize)]) {
    for &(kind, a, b) in mutations {
        if records.is_empty() {
            return;
        }
        let (a, b) = (a % records.len(), b % records.len());
        let back = |t: Timestamp| ts(t.counter.saturating_sub(1 + b as u64 % 3));
        match kind {
            // Out-of-order recording: backward edges, often no cycle.
            0 => records.swap(a, b),
            // The same transaction id recorded twice.
            1 => records[a].txn = records[b].txn,
            // A stale read (write skew when someone overwrote it).
            2 => {
                if let Some(r) = records[a].reads.first_mut() {
                    r.1 = back(r.1);
                }
            }
            // A lost update: overwriting a version already replaced.
            3 => {
                if let Some(w) = records[a].writes.first_mut() {
                    w.1 = back(w.1);
                }
            }
            // A version produced twice.
            4 => {
                if let Some(w) = records[a].writes.first_mut() {
                    w.2 = back(w.2);
                }
            }
            // A commit that never reached the recorder.
            5 => {
                records.remove(a);
            }
            // A read of a version not produced yet.
            _ => {
                if let Some(r) = records[a].reads.first_mut() {
                    r.1 = ts(r.1.counter + 1 + b as u64 % 2);
                }
            }
        }
    }
}

/// `quarter` 0 keeps everything; 1..=3 caps the ring at that many
/// quarters of the records, so a prefix is evicted.
fn history_of(records: Vec<TxnRecord>, quarter: usize) -> History {
    let mut h = match quarter {
        0 => History::new(),
        q => History::with_cap((records.len() * q / 4).max(1)),
    };
    for r in records {
        h.record(r);
    }
    h
}

fn accesses() -> impl Strategy<Value = Vec<Vec<Access>>> {
    prop::collection::vec(prop::collection::vec((0..OBJECTS, 0u8..3), 0..5), 0..24)
}

fn mutations() -> impl Strategy<Value = Vec<(u8, usize, usize)>> {
    prop::collection::vec((0u8..7, 0usize..64, 0usize..64), 0..4)
}

/// Arbitrary records over tiny id, object and version spaces, so that
/// collisions of every kind are the norm.
fn soup() -> impl Strategy<Value = Vec<TxnRecord>> {
    let reads = prop::collection::vec((0u64..3, 0u64..4), 0..3);
    let writes = prop::collection::vec((0u64..3, 0u64..4, 0u64..4), 0..3);
    prop::collection::vec((0u64..6, reads, writes), 0..9).prop_map(|txns| {
        txns.into_iter()
            .map(|(id, reads, writes)| TxnRecord {
                txn: TxnId(id),
                reads: reads
                    .into_iter()
                    .map(|(o, v)| (ObjectId(o), ts(v)))
                    .collect(),
                writes: writes
                    .into_iter()
                    .map(|(o, old, new)| (ObjectId(o), ts(old), ts(new)))
                    .collect(),
            })
            .collect()
    })
}

/// The shipped audit must equal the reference's; returns whether the
/// commit-order walk answered on its own.
fn audit_matches_reference(h: &History) -> Result<bool, TestCaseError> {
    let (verdict, chain_break) = h.audit();
    prop_assert_eq!(&verdict, &reference::check_detailed(h));
    prop_assert_eq!(chain_break, reference::first_chain_break(h));
    prop_assert_eq!(h.check_detailed(), verdict);
    Ok(h.walk_commit_order().0)
}

#[test]
fn two_phase_locked_histories_are_verified_by_the_walk_alone() {
    let mut fast = 0;
    TestRunner::new(ProptestConfig::with_cases(CASES)).run(
        "two_phase_locked_histories",
        &(accesses(), 0usize..4),
        |(txns, quarter)| {
            let h = history_of(two_phase_locked(&txns), quarter);
            let walked = audit_matches_reference(&h)?;
            prop_assert!(walked, "a 2PL-shaped history fell through to the graph");
            prop_assert_eq!(
                h.check_detailed(),
                Detailed::Serializable {
                    witness: h.records().map(|r| r.txn).collect()
                }
            );
            fast += 1;
            Ok(())
        },
    );
    assert_eq!(fast, CASES);
}

#[test]
fn damaged_histories_match_the_reference_on_both_paths() {
    let (mut fast, mut graph, mut cyclic, mut reordered) = (0, 0, 0, 0);
    TestRunner::new(ProptestConfig::with_cases(CASES)).run(
        "damaged_histories",
        &(accesses(), mutations(), 0usize..4),
        |(txns, mutations, quarter)| {
            let mut records = two_phase_locked(&txns);
            damage(&mut records, &mutations);
            let h = history_of(records, quarter);
            if audit_matches_reference(&h)? {
                fast += 1;
            } else {
                graph += 1;
                match h.check_detailed() {
                    Detailed::NotSerializable { .. } => cyclic += 1,
                    Detailed::Serializable { witness } => {
                        reordered +=
                            usize::from(!witness.into_iter().eq(h.records().map(|r| r.txn)));
                    }
                }
            }
            Ok(())
        },
    );
    assert!(fast > 0, "no damaged history stayed provably forward");
    assert!(graph > 0, "no damaged history fell through to the graph");
    assert!(cyclic > 0, "the graph path never had to report a cycle");
    assert!(
        reordered > 0,
        "the graph path never had to find a witness other than record order"
    );
}

#[test]
fn arbitrary_histories_match_the_reference() {
    let mut graph = 0;
    TestRunner::new(ProptestConfig::with_cases(CASES)).run(
        "arbitrary_histories",
        &(soup(), 0usize..4),
        |(records, quarter)| {
            graph += usize::from(!audit_matches_reference(&history_of(records, quarter))?);
            Ok(())
        },
    );
    assert!(graph > 0, "no arbitrary history fell through to the graph");
}

/// Per node: which objects it holds (bit per object) and which of them
/// it disagrees on, by how much.
type NodeShape = (u32, Vec<(u64, u64)>);

fn node_shapes() -> impl Strategy<Value = Vec<NodeShape>> {
    let deviations = prop::collection::vec((0..OBJECTS, 1u64..3), 0..3);
    prop::collection::vec((0u32..(1 << OBJECTS), deviations), 0..6)
}

/// Snapshots in object order. `full` makes every node hold every
/// object; otherwise the hold masks make the set partial (sharded).
fn snapshots(base: &[u64], shapes: &[NodeShape], full: bool) -> Vec<(NodeId, Snapshot)> {
    shapes
        .iter()
        .enumerate()
        .map(|(n, (mask, deviations))| {
            let snap = (0..OBJECTS)
                .filter(|obj| full || mask & (1 << obj) != 0)
                .map(|obj| {
                    let bump: u64 = deviations.iter().filter(|d| d.0 == obj).map(|d| d.1).sum();
                    let version = base[obj as usize] + bump;
                    let state = Versioned {
                        value: Value::Int(version as i64),
                        ts: ts(version),
                    };
                    (ObjectId(obj), state)
                })
                .collect();
            (NodeId(n as u32), snap)
        })
        .collect()
}

#[test]
fn divergence_matches_the_reference_on_full_and_partial_snapshots() {
    let (mut diverged, mut converged, mut with_master, mut partial) = (0, 0, 0, 0);
    TestRunner::new(ProptestConfig::with_cases(CASES)).run(
        "divergence_snapshots",
        &(
            prop::collection::vec(0u64..3, OBJECTS as usize),
            node_shapes(),
            0u8..2,
            // 0: nodes judged against the first node; 1: against a full
            // master; 2: against a master holding only some objects.
            (0u8..3, 0u32..(1 << OBJECTS)),
        ),
        |(base, shapes, full, (master_kind, master_mask))| {
            let full = full == 1;
            let finals = snapshots(&base, &shapes, full);
            let master = (master_kind > 0).then(|| {
                let shape = [(master_mask, Vec::new())];
                snapshots(&base, &shape, master_kind == 1).remove(0).1
            });
            let (ref_node, ref_snap) = match (&master, finals.first()) {
                (Some(m), _) => (None, m),
                (None, Some((node, snap))) => (Some(*node), snap),
                (None, None) => return Ok(()),
            };
            let found = find_divergence(ref_node, ref_snap, &finals);
            prop_assert_eq!(
                &found,
                &reference::find_divergence(ref_node, ref_snap, &finals)
            );
            match found {
                Some(_) => diverged += 1,
                None => converged += 1,
            }
            with_master += usize::from(master.is_some());
            partial += usize::from(!full);
            Ok(())
        },
    );
    assert!(diverged > 0 && converged > 0, "{diverged} / {converged}");
    assert!(with_master > 0 && partial > 0, "{with_master} / {partial}");
}

#[test]
fn delusion_matches_the_reference_on_full_and_partial_snapshots() {
    let (mut delusive, mut evidenced, mut clean) = (0, 0, 0);
    TestRunner::new(ProptestConfig::with_cases(CASES)).run(
        "delusion_snapshots",
        &(
            accesses(),
            mutations(),
            prop::collection::vec(0u64..4, OBJECTS as usize),
            node_shapes(),
            0u8..2,
            // Conflict-ignored applies per node: (object, version).
            prop::collection::vec(prop::collection::vec((0..OBJECTS, 0u64..6), 0..4), 0..6),
        ),
        |(txns, mutations, base, shapes, full, ignored)| {
            let mut records = two_phase_locked(&txns);
            damage(&mut records, &mutations);
            let origin = history_of(records, 0);
            let finals = snapshots(&base, &shapes, full == 1);
            let nodes: Vec<NodeTrace> = ignored
                .iter()
                .map(|events| {
                    let mut trace = NodeTrace::default();
                    trace
                        .events
                        .extend(events.iter().map(|&(obj, version)| ApplyEvent {
                            object: ObjectId(obj),
                            new_ts: ts(version),
                            outcome: ApplyOutcome::ConflictIgnored,
                        }));
                    trace
                })
                .collect();
            let found = find_delusion(&origin, &finals, &nodes);
            prop_assert_eq!(&found, &reference::find_delusion(&origin, &finals, &nodes));
            match found {
                Some(Violation::DelusiveWrite {
                    dropped_at_apply, ..
                }) => {
                    delusive += 1;
                    evidenced += usize::from(dropped_at_apply);
                }
                Some(v) => prop_assert!(false, "not a delusion: {v}"),
                None => clean += 1,
            }
            Ok(())
        },
    );
    assert!(delusive > 0 && evidenced > 0 && clean > 0);
}

/// Every commit reads and overwrites the same object: the longest
/// possible version chain, 8192 versions of one object. A checker that
/// files versions per object and searches that file (a per-object list
/// scanned linearly, as the first dense-table cut of the walk did) pays
/// O(writes per object) per access — quadratic exactly here. The walk
/// keeps only the current version.
#[test]
fn cap_full_history_on_one_hot_object() {
    let hot = ObjectId(7);
    let rec = Recorder::new(Scheme::Eager);
    for i in 0..DEFAULT_HISTORY_CAP as u64 {
        rec.commit(
            NodeId(0),
            TxnRecord {
                txn: TxnId(i),
                reads: vec![(hot, ts(i))],
                writes: vec![(hot, ts(i), ts(i + 1))],
            },
        );
    }
    let report = rec.check();
    assert!(report.is_clean(), "{:?}", report.violations);
    assert!(!report.truncated());
    assert_eq!(report.commits, DEFAULT_HISTORY_CAP);

    // One stale read anywhere in the chain is still found, and still
    // reported as the two-edge cycle it is.
    let rec = Recorder::new(Scheme::Eager);
    let stale_at = DEFAULT_HISTORY_CAP as u64 / 2;
    for i in 0..DEFAULT_HISTORY_CAP as u64 {
        let seen = if i == stale_at { ts(i - 1) } else { ts(i) };
        rec.commit(
            NodeId(0),
            TxnRecord {
                txn: TxnId(i),
                reads: vec![(hot, seen)],
                writes: vec![(hot, ts(i), ts(i + 1))],
            },
        );
    }
    match rec.check().violations.as_slice() {
        [Violation::NotSerializable { cycle }] => {
            assert_eq!(cycle.len(), 2, "{cycle:?}");
            assert!(cycle.iter().any(|e| e.from == TxnId(stale_at)));
            assert!(cycle.iter().all(|e| e.object == hot));
        }
        v => panic!("expected exactly one cycle, got {v:?}"),
    }
}

/// 8192 commits on 8192 distinct objects: 4096 writers, each followed
/// by the one reader of what it wrote. Half the graph is ready at once
/// and every pop readies one more node; Kahn's algorithm with a ready
/// queue re-sorted after every push pays O(ready) per push, 4096 × 4096
/// here. The walk never builds the graph; when one out-of-order pair
/// forces it, the ready set is a heap.
#[test]
fn cap_full_history_on_distinct_objects() {
    let records: Vec<TxnRecord> = (0..DEFAULT_HISTORY_CAP as u64)
        .map(|i| {
            let obj = ObjectId(i / 2);
            if i % 2 == 0 {
                TxnRecord {
                    txn: TxnId(i),
                    reads: Vec::new(),
                    writes: vec![(obj, Timestamp::ZERO, ts(1))],
                }
            } else {
                TxnRecord {
                    txn: TxnId(i),
                    reads: vec![(obj, ts(1))],
                    writes: Vec::new(),
                }
            }
        })
        .collect();
    let in_order: Vec<TxnId> = records.iter().map(|r| r.txn).collect();

    let rec = Recorder::new(Scheme::Eager);
    for r in &records {
        rec.commit(NodeId(0), r.clone());
    }
    let report = rec.check();
    assert!(report.is_clean(), "{:?}", report.violations);
    assert!(!report.truncated());

    let h = history_of(records.clone(), 0);
    assert!(h.walk_commit_order().0);
    assert_eq!(
        h.check_detailed(),
        Detailed::Serializable {
            witness: in_order.clone()
        }
    );

    // Record the first reader before its writer: one backward edge, so
    // the graph is built, and the witness puts the pair back in order.
    let mut swapped = records;
    swapped.swap(0, 1);
    let h = history_of(swapped, 0);
    assert!(!h.walk_commit_order().0);
    assert_eq!(
        h.check_detailed(),
        Detailed::Serializable { witness: in_order }
    );
}

/// 64 nodes each holding 3/64 of 20 000 objects. Looking an object up
/// in a node's snapshot by linear search costs O(objects per node), and
/// the delusion oracle does it for every written object at every node:
/// objects × nodes × objects-per-node, quadratic in database size.
/// Snapshots are in object order, so the lookup is a binary search.
#[test]
fn large_partial_snapshot_set() {
    const DB: u64 = 20_000;
    const NODES: u32 = 64;
    let map = ShardMap::new(NODES, NODES, 3);
    let mut stores: Vec<ObjectStore> = (0..NODES)
        .map(|n| ObjectStore::sharded(DB, &map, NodeId(n)))
        .collect();
    let holders = |obj: ObjectId| -> Vec<NodeId> {
        (0..NODES)
            .map(NodeId)
            .filter(|&n| map.hosts_object(n, obj))
            .collect()
    };

    // Every node commits one write per object it holds a share of; all
    // three replicas of each object apply it.
    let commit_all = |stores: &mut Vec<ObjectStore>| {
        let rec = Recorder::new(Scheme::LazyGroup);
        for i in 0..DEFAULT_HISTORY_CAP as u64 {
            let obj = ObjectId(i * DB / DEFAULT_HISTORY_CAP as u64);
            let new = ts(i + 1);
            for n in holders(obj) {
                stores[n.0 as usize].set(obj, Value::Int(i as i64), new);
            }
            rec.commit(
                NodeId(0),
                TxnRecord {
                    txn: TxnId(i),
                    reads: vec![(obj, Timestamp::ZERO)],
                    writes: vec![(obj, Timestamp::ZERO, new)],
                },
            );
        }
        rec
    };
    let finish = |rec: &Recorder, stores: &[ObjectStore]| {
        for (n, store) in stores.iter().enumerate() {
            rec.final_store(NodeId(n as u32), store);
        }
        rec.check()
    };

    let rec = commit_all(&mut stores);
    let report = finish(&rec, &stores);
    assert!(report.is_clean(), "{:?}", report.violations);

    // The last replica of one written object never saw the write.
    let victim = ObjectId(DB / 2);
    let behind = *holders(victim).last().expect("rf 3");
    let rec = commit_all(&mut stores);
    stores[behind.0 as usize].set(victim, Value::Int(0), Timestamp::ZERO);
    let report = finish(&rec, &stores);
    match report.violations.as_slice() {
        [Violation::Divergence { object, states, .. }, Violation::DelusiveWrite {
            object: lost,
            node,
            node_ts,
            ..
        }] => {
            assert_eq!((*object, *lost), (victim, victim));
            assert_eq!(states.len(), 3, "one state per holder: {states:?}");
            assert_eq!((*node, *node_ts), (behind, Timestamp::ZERO));
        }
        v => panic!("expected divergence + delusion on {victim}, got {v:?}"),
    }
}
