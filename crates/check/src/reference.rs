//! Reference oracles: the direct, map-per-question formulations the
//! shipped oracles must agree with, verdict for verdict and
//! counterexample for counterexample. Compiled only for tests; the
//! equivalence property tests in `equivalence.rs` drive both sides
//! over generated histories and snapshot sets.
//!
//! Nothing here is tuned: the graph is adjacency lists with a hash map
//! of labels, Kahn re-sorts its ready queue, snapshots are searched
//! linearly. That is the point — each function is short enough to be
//! checked against the definitions in `history.rs` and `oracle.rs` by
//! reading it.

use crate::history::{
    ChainBreak, DepEdge, DepKind, Detailed, History, RecordRef, CYCLE_SEARCH_STARTS,
};
use crate::oracle::{dropped_at_apply, NodeTrace, Snapshot, Violation};
use repl_storage::{NodeId, ObjectId, Timestamp, TxnId, Value, Versioned};
use std::collections::{HashMap, VecDeque};

type Labels = HashMap<(usize, usize), (DepKind, ObjectId)>;

/// DSG verdict with witness or shortest labeled cycle.
pub(crate) fn check_detailed(history: &History) -> Detailed {
    let records: Vec<RecordRef> = history.records().collect();
    let (edges, labels) = build_graph(&records);
    match kahn(&records, &edges) {
        Ok(witness) => Detailed::Serializable { witness },
        Err(indegree) => Detailed::NotSerializable {
            cycle: shortest_cycle(&records, &edges, &labels, &indegree),
        },
    }
}

fn build_graph(records: &[RecordRef]) -> (Vec<Vec<usize>>, Labels) {
    let mut writer_of: HashMap<(ObjectId, Timestamp), TxnId> = HashMap::new();
    let mut overwriters_of: HashMap<(ObjectId, Timestamp), Vec<TxnId>> = HashMap::new();
    for r in records {
        for &(obj, _old, new) in r.writes {
            writer_of.insert((obj, new), r.txn);
        }
        for &(obj, old, _new) in r.writes {
            overwriters_of.entry((obj, old)).or_default().push(r.txn);
        }
    }

    let index: HashMap<TxnId, usize> = records
        .iter()
        .enumerate()
        .map(|(i, r)| (r.txn, i))
        .collect();
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); records.len()];
    let mut labels: Labels = HashMap::new();
    let mut add_edge =
        |edges: &mut Vec<Vec<usize>>, from: TxnId, to: TxnId, kind: DepKind, obj: ObjectId| {
            if from == to {
                return;
            }
            let (f, t) = (index[&from], index[&to]);
            if !edges[f].contains(&t) {
                edges[f].push(t);
                labels.insert((f, t), (kind, obj));
            }
        };

    for r in records {
        for &(obj, seen) in r.reads {
            if let Some(&w) = writer_of.get(&(obj, seen)) {
                add_edge(&mut edges, w, r.txn, DepKind::WriteRead, obj);
            }
            if let Some(os) = overwriters_of.get(&(obj, seen)) {
                for &o in os {
                    add_edge(&mut edges, r.txn, o, DepKind::ReadWrite, obj);
                }
            }
        }
        for &(obj, old, _new) in r.writes {
            if let Some(&w) = writer_of.get(&(obj, old)) {
                add_edge(&mut edges, w, r.txn, DepKind::WriteWrite, obj);
            }
        }
    }
    (edges, labels)
}

fn kahn(records: &[RecordRef], edges: &[Vec<usize>]) -> Result<Vec<TxnId>, Vec<usize>> {
    let n = records.len();
    let mut indegree = vec![0usize; n];
    for targets in edges {
        for &t in targets {
            indegree[t] += 1;
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    // Smallest index first.
    queue.sort_unstable_by(|a, b| b.cmp(a));
    let mut witness = Vec::with_capacity(n);
    while let Some(i) = queue.pop() {
        witness.push(records[i].txn);
        for &t in &edges[i] {
            indegree[t] -= 1;
            if indegree[t] == 0 {
                queue.push(t);
                queue.sort_unstable_by(|a, b| b.cmp(a));
            }
        }
    }
    if witness.len() == n {
        Ok(witness)
    } else {
        Err(indegree)
    }
}

fn shortest_cycle(
    records: &[RecordRef],
    edges: &[Vec<usize>],
    labels: &Labels,
    indegree: &[usize],
) -> Vec<DepEdge> {
    let n = records.len();
    let residual: Vec<usize> = (0..n).filter(|&i| indegree[i] > 0).collect();
    let mut best: Option<Vec<usize>> = None;
    for &start in residual.iter().take(CYCLE_SEARCH_STARTS) {
        let mut parent: Vec<Option<usize>> = vec![None; n];
        let mut dist: Vec<usize> = vec![usize::MAX; n];
        dist[start] = 0;
        let mut queue: VecDeque<usize> = VecDeque::from([start]);
        let mut closer: Option<usize> = None;
        'bfs: while let Some(u) = queue.pop_front() {
            for &v in &edges[u] {
                if indegree[v] == 0 {
                    continue;
                }
                if v == start {
                    closer = Some(u);
                    break 'bfs;
                }
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    parent[v] = Some(u);
                    queue.push_back(v);
                }
            }
        }
        if let Some(last) = closer {
            let mut path = vec![last];
            let mut cur = last;
            while let Some(p) = parent[cur] {
                path.push(p);
                cur = p;
            }
            path.reverse();
            if best.as_ref().is_none_or(|b| path.len() < b.len()) {
                let done = path.len() == 2;
                best = Some(path);
                if done {
                    break;
                }
            }
        }
    }
    let path = best.unwrap_or_default();
    (0..path.len())
        .map(|k| {
            let (f, t) = (path[k], path[(k + 1) % path.len()]);
            let (kind, object) = labels[&(f, t)];
            DepEdge {
                from: records[f].txn,
                to: records[t].txn,
                kind,
                object,
            }
        })
        .collect()
}

/// First write whose `old` is not the object's latest committed
/// version (anchored at [`Timestamp::ZERO`] unless a prefix was
/// evicted).
pub(crate) fn first_chain_break(history: &History) -> Option<ChainBreak> {
    let truncated = history.dropped() > 0;
    let mut last_new: HashMap<ObjectId, Timestamp> = HashMap::new();
    for r in history.records() {
        for &(obj, old, new) in r.writes {
            let expected = match last_new.get(&obj) {
                Some(&prev) => Some(prev),
                None if truncated => None,
                None => Some(Timestamp::ZERO),
            };
            if let Some(expected) = expected {
                if old != expected {
                    return Some(ChainBreak {
                        object: obj,
                        txn: r.txn,
                        expected_old: expected,
                        found_old: old,
                    });
                }
            }
            last_new.insert(obj, new);
        }
    }
    None
}

/// Lowest-numbered object on which two holders disagree, with every
/// holder's state of it.
pub(crate) fn find_divergence(
    ref_node: Option<NodeId>,
    ref_snap: &[(ObjectId, Versioned)],
    finals: &[(NodeId, Snapshot)],
) -> Option<Violation> {
    let mut consensus: HashMap<ObjectId, &Versioned> =
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
    let mut states: Vec<(NodeId, Timestamp, Value)> = Vec::new();
    for (node, snap) in finals {
        if let Some((_, v)) = snap.iter().find(|(o, _)| *o == obj) {
            states.push((*node, v.ts, v.value));
        }
    }
    Some(Violation::Divergence {
        object: obj,
        reference: ref_node,
        states,
    })
}

/// First (lowest object, then node order) replica holding a version
/// older than the newest committed one.
pub(crate) fn find_delusion(
    origin: &History,
    finals: &[(NodeId, Snapshot)],
    nodes: &[NodeTrace],
) -> Option<Violation> {
    let mut newest: HashMap<ObjectId, Timestamp> = HashMap::new();
    for r in origin.records() {
        for &(obj, _old, new) in r.writes {
            let e = newest.entry(obj).or_insert(new);
            if new > *e {
                *e = new;
            }
        }
    }
    let mut objects: Vec<(&ObjectId, &Timestamp)> = newest.iter().collect();
    objects.sort_unstable();
    for (&obj, &committed_ts) in objects {
        for (node, snap) in finals {
            let Some((_, v)) = snap.iter().find(|(o, _)| *o == obj) else {
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
