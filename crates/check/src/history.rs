//! Execution histories and the runtime serializability checker.
//!
//! §2, and §7 key property 2: eager, lazy-master, and two-tier base
//! executions must be one-copy serializable. Rather than take that on
//! faith, every engine can record each committed transaction's reads
//! and writes (as the object versions it observed and produced) and
//! this module verifies the execution *after the fact*: the direct
//! serialization graph over version dependencies must be acyclic.
//!
//! The check covers the dependency kinds expressible in this model:
//!
//! * **wr** — T2 read the version T1 wrote ⇒ `T1 → T2`;
//! * **ww** — T2 overwrote the version T1 wrote ⇒ `T1 → T2`;
//! * **rw** — T1 read a version that T2 overwrote ⇒ `T1 → T2`
//!   (anti-dependency).
//!
//! A topological order of the graph is a witness serial schedule. When
//! the graph is cyclic, [`History::check_detailed`] extracts one
//! *shortest* cycle with its labeled edges — a minimal counterexample
//! rather than a boolean.
//!
//! # Cost: the commit order is the witness
//!
//! Engines record commits in commit order, and under strict two-phase
//! locking that order is already a serial schedule (the observation
//! *Serializability, not Serial* makes about a replicated log). So the
//! check first walks the records once, keeping each object's current
//! version, and asks whether every record reads and overwrites exactly
//! the current version of each object it touches and produces a
//! strictly newer one, with no transaction id repeated. If so:
//!
//! * each `(object, version)` has a single producer, recorded before
//!   every reader and before its overwriter — wr and ww edges run from
//!   an earlier record to a later one;
//! * a version stops being current the moment it is overwritten, so
//!   every reader of it was recorded before the overwriter — rw edges
//!   run forward too.
//!
//! With every edge `i → j` having `i < j`, Kahn's algorithm popping the
//! smallest ready index pops `0, 1, 2, …`: by induction, when
//! `0..k` have been emitted all of `k`'s predecessors are among them,
//! so `k` is ready, and it is the smallest index left. The witness *is*
//! the record order, and no graph is built: O(records), one hash probe
//! per read and per write, no allocation per version. The same walk
//! holds each object's last committed version, so it also finds the
//! first version-chain break.
//!
//! The walk can only ever answer "serializable, witness = record
//! order". The moment something is not provably forward — a stale or
//! future read, an overwrite of a version that is not current, a
//! version produced twice or out of order, a repeated transaction id —
//! the check builds the full graph (flat, index-addressed: two sorted
//! version indexes probed by binary search and a CSR edge array,
//! O(E log E)) and decides there. A violation is never decided on the
//! fast path.
//!
//! # Truncation
//!
//! Histories are bounded: [`History::with_cap`] keeps only the most
//! recent records (a ring buffer) and counts what it dropped. A
//! truncated history can only *miss* dependency edges, never invent
//! them, so a cycle found in a truncated history is still real while an
//! acyclic verdict becomes inconclusive — callers must consult
//! [`History::dropped`] before trusting a clean result.

use repl_storage::hash::{FastMap, FastState};
use repl_storage::{ObjectId, Timestamp, TxnId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet, VecDeque};
use std::fmt;

/// One committed transaction's footprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnRecord {
    /// The transaction.
    pub txn: TxnId,
    /// `(object, version observed)` for every read.
    pub reads: Vec<(ObjectId, Timestamp)>,
    /// `(object, version overwritten, version produced)` for every
    /// write.
    pub writes: Vec<(ObjectId, Timestamp, Timestamp)>,
}

/// One retained transaction's footprint, borrowed from a [`History`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordRef<'a> {
    /// The transaction.
    pub txn: TxnId,
    /// `(object, version observed)` for every read.
    pub reads: &'a [(ObjectId, Timestamp)],
    /// `(object, version overwritten, version produced)` for every
    /// write.
    pub writes: &'a [(ObjectId, Timestamp, Timestamp)],
}

/// An execution history: the committed transactions, in commit order,
/// optionally capped to the most recent `cap` records.
///
/// Footprints are stored flat — every read of every record in one
/// buffer, every write in another, a `(txn, counts)` head per record —
/// so a history of thousands of commits is three allocations, not two
/// per commit, and dropping it leaves the allocator nothing to sweep.
#[derive(Debug, Default, Clone)]
pub struct History {
    heads: VecDeque<Head>,
    reads: Spool<(ObjectId, Timestamp)>,
    writes: Spool<(ObjectId, Timestamp, Timestamp)>,
    cap: Option<usize>,
    dropped: u64,
}

/// One record's id and how many entries of each spool it owns.
#[derive(Debug, Clone, Copy)]
struct Head {
    txn: TxnId,
    reads: usize,
    writes: usize,
}

/// An append-at-the-back, evict-from-the-front buffer whose live part
/// is one contiguous slice. Eviction advances an offset; the dead
/// prefix is compacted away once it outweighs the live part, so each
/// element moves O(1) times.
#[derive(Debug, Default, Clone)]
struct Spool<T> {
    items: Vec<T>,
    start: usize,
}

impl<T: Copy> Spool<T> {
    fn live(&self) -> &[T] {
        &self.items[self.start..]
    }

    fn evict(&mut self, n: usize) {
        self.start += n;
        if self.start > self.items.len() / 2 {
            self.items.drain(..self.start);
            self.start = 0;
        }
    }
}

/// The kind of a direct-serialization-graph dependency edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepKind {
    /// wr: the target read a version the source wrote.
    WriteRead,
    /// ww: the target overwrote a version the source wrote.
    WriteWrite,
    /// rw (anti-dependency): the target overwrote a version the source
    /// read.
    ReadWrite,
}

impl fmt::Display for DepKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DepKind::WriteRead => write!(f, "wr"),
            DepKind::WriteWrite => write!(f, "ww"),
            DepKind::ReadWrite => write!(f, "rw"),
        }
    }
}

/// One labeled dependency edge of a counterexample cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepEdge {
    /// Source transaction.
    pub from: TxnId,
    /// Target transaction.
    pub to: TxnId,
    /// Dependency kind (wr/ww/rw).
    pub kind: DepKind,
    /// The object the dependency is on.
    pub object: ObjectId,
}

impl fmt::Display for DepEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -{}({})-> {}",
            self.from, self.kind, self.object, self.to
        )
    }
}

/// The verdict of a serializability check: a witness serial order, or
/// one shortest dependency cycle with its edges labeled by kind and
/// object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Detailed {
    /// Acyclic; witness serial order included.
    Serializable {
        /// One topological order (a valid serial schedule).
        witness: Vec<TxnId>,
    },
    /// Cyclic; a minimal counterexample cycle. `cycle[i].to ==
    /// cycle[i+1].from` and the last edge closes back to the first.
    NotSerializable {
        /// The shortest cycle found, in edge order.
        cycle: Vec<DepEdge>,
    },
}

/// The first write that did not replace its object's latest committed
/// version (the version-chain oracle's minimal counterexample).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ChainBreak {
    pub(crate) object: ObjectId,
    pub(crate) txn: TxnId,
    pub(crate) expected_old: Timestamp,
    pub(crate) found_old: Timestamp,
}

/// How many cycle start-points the shortest-cycle search tries before
/// settling for the best found so far (keeps `check_detailed` linear-ish
/// on pathological histories).
pub(crate) const CYCLE_SEARCH_STARTS: usize = 64;

/// What the commit-order walk knows about one object.
struct ObjectState {
    /// The object's current version: the last one written, or, before
    /// any retained write, the first one a record mentioned.
    current: Timestamp,
    /// Whether a retained record has written the object.
    written: bool,
}

impl History {
    /// An empty, unbounded history.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty history that keeps only the most recent `cap` records,
    /// counting the rest in [`History::dropped`].
    pub fn with_cap(cap: usize) -> Self {
        History {
            cap: Some(cap.max(1)),
            ..Self::default()
        }
    }

    /// Record a committed transaction.
    pub fn record(&mut self, record: TxnRecord) {
        match self.cap {
            Some(cap) if cap == self.heads.len() => {
                if let Some(oldest) = self.heads.pop_front() {
                    self.reads.evict(oldest.reads);
                    self.writes.evict(oldest.writes);
                    self.dropped += 1;
                }
            }
            // First record of a capped history: size the buffers for a
            // full ring of records like this one, so filling the ring
            // never re-copies them (growth by doubling was 4 % of the
            // recorded benchmark workload's wall-clock). Capacity that
            // is never written is never paged in; a cap too large to
            // reserve for just grows on demand.
            Some(cap) if self.heads.capacity() == 0 => {
                let ring = |footprint: usize| cap.saturating_mul(footprint);
                let _ = self.heads.try_reserve(cap);
                let _ = self.reads.items.try_reserve(ring(record.reads.len()));
                let _ = self.writes.items.try_reserve(ring(record.writes.len()));
            }
            _ => {}
        }
        self.heads.push_back(Head {
            txn: record.txn,
            reads: record.reads.len(),
            writes: record.writes.len(),
        });
        self.reads.items.extend_from_slice(&record.reads);
        self.writes.items.extend_from_slice(&record.writes);
    }

    /// Number of retained transactions.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// Whether the history retains no transactions.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Records evicted by the ring-buffer cap. Nonzero means an
    /// acyclic verdict is inconclusive (edges into the evicted prefix
    /// are invisible); a cycle verdict is still sound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = RecordRef<'_>> {
        let (mut reads, mut writes) = (self.reads.live(), self.writes.live());
        self.heads.iter().map(move |head| {
            let (r, later_reads) = reads.split_at(head.reads);
            let (w, later_writes) = writes.split_at(head.writes);
            (reads, writes) = (later_reads, later_writes);
            RecordRef {
                txn: head.txn,
                reads: r,
                writes: w,
            }
        })
    }

    /// Check the dependency graph for cycles: a witness serial order,
    /// or one *shortest* cycle with labeled edges — the minimal
    /// counterexample the oracles report.
    pub fn check_detailed(&self) -> Detailed {
        self.audit().0
    }

    /// The serializability verdict and the first version-chain break,
    /// from one walk over the records when the commit order is itself
    /// the witness (see the module docs), otherwise from the full
    /// graph.
    pub(crate) fn audit(&self) -> (Detailed, Option<ChainBreak>) {
        let (forward, chain_break) = self.walk_commit_order();
        let verdict = if forward {
            Detailed::Serializable {
                witness: self.heads.iter().map(|h| h.txn).collect(),
            }
        } else {
            self.check_graph()
        };
        (verdict, chain_break)
    }

    /// One pass in commit order. Returns whether every dependency edge
    /// provably points from an earlier record to a later one (the
    /// conditions and the argument are in the module docs; anything
    /// else answers `false`, never a violation), and the first
    /// version-chain break.
    pub(crate) fn walk_commit_order(&self) -> (bool, Option<ChainBreak>) {
        let truncated = self.dropped > 0;
        let mut forward = true;
        let mut chain_break = None;
        let mut seen_txns = HashSet::with_capacity_and_hasher(self.len(), FastState::default());
        let mut objects: FastMap<ObjectId, ObjectState> = FastMap::default();
        for r in self.records() {
            forward &= seen_txns.insert(r.txn);
            for &(obj, seen) in r.reads {
                let state = objects.entry(obj).or_insert(ObjectState {
                    current: seen,
                    written: false,
                });
                forward &= state.current == seen;
            }
            for &(obj, old, new) in r.writes {
                let state = objects.entry(obj).or_insert(ObjectState {
                    current: old,
                    written: false,
                });
                if chain_break.is_none() {
                    // With an evicted prefix the first retained write
                    // may legitimately chain off an unseen version.
                    let expected = match (state.written, truncated) {
                        (true, _) => Some(state.current),
                        (false, true) => None,
                        (false, false) => Some(Timestamp::ZERO),
                    };
                    chain_break = expected
                        .filter(|&e| e != old)
                        .map(|expected_old| ChainBreak {
                            object: obj,
                            txn: r.txn,
                            expected_old,
                            found_old: old,
                        });
                }
                forward &= state.current == old && new > old;
                state.current = new;
                state.written = true;
            }
            if !forward && chain_break.is_some() {
                break;
            }
        }
        (forward, chain_break)
    }

    /// Build the dependency graph, then topologically sort it or
    /// extract a shortest cycle.
    fn check_graph(&self) -> Detailed {
        let graph = Graph::build(self);
        let txn = |i: usize| self.heads[i].txn;
        match graph.kahn() {
            Ok(order) => Detailed::Serializable {
                witness: order.into_iter().map(txn).collect(),
            },
            Err(indegree) => Detailed::NotSerializable {
                cycle: graph
                    .shortest_cycle(&indegree)
                    .into_iter()
                    .map(|e| DepEdge {
                        from: txn(e.from),
                        to: txn(e.to),
                        kind: e.kind,
                        object: e.object,
                    })
                    .collect(),
            },
        }
    }
}

/// One dependency between two records, by record index.
#[derive(Debug, Clone, Copy)]
struct Edge {
    from: usize,
    to: usize,
    kind: DepKind,
    object: ObjectId,
}

/// The dependency graph in compressed-sparse-row form: node `i`'s
/// out-edges are `edges[starts[i]..starts[i + 1]]`, in the order the
/// dependencies were discovered, one edge per `(from, to)` pair
/// labeled by the first dependency that created it. The order fixes
/// which of several equally short cycles is reported.
struct Graph {
    starts: Vec<usize>,
    edges: Vec<Edge>,
}

/// `(object, version, record)` triples sorted by `(object, version)`,
/// ties in insertion order: a flat multimap probed by binary search.
struct VersionIndex(Vec<(ObjectId, Timestamp, usize)>);

impl VersionIndex {
    fn new(mut entries: Vec<(ObjectId, Timestamp, usize)>) -> Self {
        entries.sort_by_key(|&(obj, version, _)| (obj, version));
        VersionIndex(entries)
    }

    /// The records filed under `(obj, version)`, in insertion order.
    fn get(&self, obj: ObjectId, version: Timestamp) -> impl Iterator<Item = usize> + '_ {
        let key = (obj, version);
        let lo = self.0.partition_point(|&(o, v, _)| (o, v) < key);
        self.0[lo..]
            .iter()
            .take_while(move |&&(o, v, _)| (o, v) == key)
            .map(|&(_, _, record)| record)
    }
}

impl Graph {
    fn build(history: &History) -> Graph {
        let n = history.len();
        // A transaction id recorded twice is one graph node: the last
        // record carrying it.
        let mut last: FastMap<TxnId, usize> = FastMap::default();
        last.reserve(n);
        for (i, head) in history.heads.iter().enumerate() {
            last.insert(head.txn, i);
        }
        let node: Vec<usize> = history.heads.iter().map(|h| last[&h.txn]).collect();

        // `produced` answers "who wrote this version" (a version
        // claimed twice belongs to the last claimant); `replaced`
        // answers "who overwrote it". In a truly one-copy execution
        // each version has at most one overwriter; keeping them all
        // lets the rw edges expose the lost-update anomaly when two
        // transactions both claim to have replaced the same version.
        let mut produced = Vec::new();
        let mut replaced = Vec::new();
        for (r, &me) in history.records().zip(&node) {
            for &(obj, old, new) in r.writes {
                produced.push((obj, new, me));
                replaced.push((obj, old, me));
            }
        }
        let produced = VersionIndex::new(produced);
        let replaced = VersionIndex::new(replaced);

        let mut found: Vec<Edge> = Vec::new();
        let mut add = |from: usize, to: usize, kind: DepKind, object: ObjectId| {
            if from != to {
                found.push(Edge {
                    from,
                    to,
                    kind,
                    object,
                });
            }
        };
        for (r, &me) in history.records().zip(&node) {
            // wr: whoever wrote the version we read precedes us.
            // rw: whoever overwrote the version we read follows us.
            for &(obj, seen) in r.reads {
                if let Some(w) = produced.get(obj, seen).last() {
                    add(w, me, DepKind::WriteRead, obj);
                }
                for o in replaced.get(obj, seen) {
                    add(me, o, DepKind::ReadWrite, obj);
                }
            }
            // ww: whoever wrote the version we overwrote precedes us.
            for &(obj, old, _new) in r.writes {
                if let Some(w) = produced.get(obj, old).last() {
                    add(w, me, DepKind::WriteWrite, obj);
                }
            }
        }

        // Group by source, keeping discovery order within a group
        // (stable), then keep the first edge per target.
        found.sort_by_key(|e| e.from);
        let mut starts = Vec::with_capacity(n + 1);
        let mut edges: Vec<Edge> = Vec::with_capacity(found.len());
        // `claimed[t] == f + 1` once an edge `f -> t` is kept.
        let mut claimed = vec![0usize; n];
        let mut pending = found.into_iter().peekable();
        for f in 0..n {
            starts.push(edges.len());
            while let Some(e) = pending.next_if(|e| e.from == f) {
                if claimed[e.to] != f + 1 {
                    claimed[e.to] = f + 1;
                    edges.push(e);
                }
            }
        }
        starts.push(edges.len());
        Graph { starts, edges }
    }

    fn nodes(&self) -> usize {
        self.starts.len() - 1
    }

    fn out(&self, i: usize) -> &[Edge] {
        &self.edges[self.starts[i]..self.starts[i + 1]]
    }

    /// Kahn's algorithm, smallest ready index first: `Ok(topological
    /// order)` or `Err(residual indegrees)` — nodes with residual
    /// indegree lie on or downstream of a cycle.
    fn kahn(&self) -> Result<Vec<usize>, Vec<usize>> {
        let n = self.nodes();
        let mut indegree = vec![0usize; n];
        for e in &self.edges {
            indegree[e.to] += 1;
        }
        let mut ready: BinaryHeap<Reverse<usize>> =
            (0..n).filter(|&i| indegree[i] == 0).map(Reverse).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(Reverse(i)) = ready.pop() {
            order.push(i);
            for e in self.out(i) {
                indegree[e.to] -= 1;
                if indegree[e.to] == 0 {
                    ready.push(Reverse(e.to));
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(indegree)
        }
    }

    /// BFS over the residual (cyclic-core) subgraph from up to
    /// [`CYCLE_SEARCH_STARTS`] start nodes; returns the shortest cycle
    /// found, in edge order.
    fn shortest_cycle(&self, indegree: &[usize]) -> Vec<Edge> {
        let n = self.nodes();
        let residual = |i: usize| indegree[i] > 0;
        let mut best: Option<Vec<Edge>> = None;
        // The edge each node was first reached through.
        let mut via: Vec<Option<Edge>> = vec![None; n];
        let mut queue: VecDeque<usize> = VecDeque::new();
        for start in (0..n).filter(|&i| residual(i)).take(CYCLE_SEARCH_STARTS) {
            // Shortest path start → … → start over residual nodes.
            via.fill(None);
            queue.clear();
            queue.push_back(start);
            let mut closing: Option<Edge> = None;
            'bfs: while let Some(u) = queue.pop_front() {
                for &e in self.out(u) {
                    if !residual(e.to) {
                        continue;
                    }
                    if e.to == start {
                        closing = Some(e);
                        break 'bfs;
                    }
                    if via[e.to].is_none() {
                        via[e.to] = Some(e);
                        queue.push_back(e.to);
                    }
                }
            }
            if let Some(closing) = closing {
                let mut cycle = vec![closing];
                let mut cur = closing.from;
                while let Some(e) = via[cur] {
                    cycle.push(e);
                    cur = e.from;
                }
                cycle.reverse();
                if best.as_ref().is_none_or(|b| cycle.len() < b.len()) {
                    let done = cycle.len() == 2; // a 2-cycle cannot be beaten
                    best = Some(cycle);
                    if done {
                        break;
                    }
                }
            }
        }
        // A residual subgraph always contains a cycle; were that ever
        // false the verdict still stands, with no edges to show.
        best.unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repl_storage::NodeId;

    fn ts(c: u64) -> Timestamp {
        Timestamp::new(c, NodeId(0))
    }

    fn txn(id: u64, reads: &[(u64, u64)], writes: &[(u64, u64, u64)]) -> TxnRecord {
        TxnRecord {
            txn: TxnId(id),
            reads: reads.iter().map(|&(o, v)| (ObjectId(o), ts(v))).collect(),
            writes: writes
                .iter()
                .map(|&(o, old, new)| (ObjectId(o), ts(old), ts(new)))
                .collect(),
        }
    }

    #[test]
    fn empty_history_is_serializable() {
        match History::new().check_detailed() {
            Detailed::Serializable { witness } => assert!(witness.is_empty()),
            v => panic!("unexpected {v:?}"),
        }
    }

    #[test]
    fn sequential_writes_serialize_in_version_order() {
        let mut h = History::new();
        h.record(txn(1, &[(0, 0)], &[(0, 0, 1)]));
        h.record(txn(2, &[(0, 1)], &[(0, 1, 2)]));
        h.record(txn(3, &[(0, 2)], &[(0, 2, 3)]));
        match h.check_detailed() {
            Detailed::Serializable { witness } => {
                assert_eq!(witness, vec![TxnId(1), TxnId(2), TxnId(3)]);
            }
            v => panic!("unexpected {v:?}"),
        }
    }

    #[test]
    fn independent_transactions_serializable_any_order() {
        let mut h = History::new();
        h.record(txn(1, &[], &[(0, 0, 1)]));
        h.record(txn(2, &[], &[(1, 0, 1)]));
        assert!(matches!(h.check_detailed(), Detailed::Serializable { .. }));
    }

    #[test]
    fn write_skew_cycle_detected() {
        // Classic non-serializable pattern: T1 reads x@0 writes y;
        // T2 reads y@0 writes x. Each read a version the other
        // overwrote: rw edges both ways → cycle.
        let mut h = History::new();
        h.record(txn(1, &[(0, 0)], &[(1, 0, 5)]));
        h.record(txn(2, &[(1, 0)], &[(0, 0, 6)]));
        match h.check_detailed() {
            Detailed::NotSerializable { cycle } => {
                assert_eq!(cycle.len(), 2);
            }
            v => panic!("write skew not detected: {v:?}"),
        }
    }

    #[test]
    fn lost_update_cycle_detected() {
        // T1 and T2 both read x@0; T1 installs x@1, T2 installs x@2
        // "from" version 0: ww T1→T2 (T2 overwrote v0? both claim to
        // overwrite v0) plus rw edges.
        let mut h = History::new();
        h.record(txn(1, &[(0, 0)], &[(0, 0, 1)]));
        h.record(txn(2, &[(0, 0)], &[(0, 0, 2)]));
        // T2 read x@0 which T1 overwrote → T2→T1; T1 read x@0 which T2
        // overwrote → T1→T2. Overwriter bookkeeping keeps the last
        // claimant, but the rw edge pair still closes the cycle.
        assert!(matches!(
            h.check_detailed(),
            Detailed::NotSerializable { .. }
        ));
    }

    #[test]
    fn read_only_transactions_order_between_writers() {
        let mut h = History::new();
        h.record(txn(1, &[], &[(0, 0, 1)]));
        h.record(txn(2, &[(0, 1)], &[])); // reads T1's version
        h.record(txn(3, &[(0, 1)], &[(0, 1, 2)])); // overwrites it
        match h.check_detailed() {
            Detailed::Serializable { witness } => {
                let pos = |id: u64| witness.iter().position(|&t| t == TxnId(id)).unwrap();
                assert!(pos(1) < pos(2), "reader after writer");
                assert!(pos(2) < pos(3), "reader before overwriter");
            }
            v => panic!("unexpected {v:?}"),
        }
    }

    #[test]
    fn witness_is_a_permutation() {
        let mut h = History::new();
        for i in 0..10u64 {
            h.record(txn(i, &[(i % 3, 0)], &[(i + 10, 0, 1)]));
        }
        // All read version 0 of shared objects that no one overwrites —
        // no conflicts beyond wr on never-written versions.
        match h.check_detailed() {
            Detailed::Serializable { witness } => {
                let mut ids: Vec<u64> = witness.iter().map(|t| t.0).collect();
                ids.sort_unstable();
                assert_eq!(ids, (0..10).collect::<Vec<_>>());
            }
            v => panic!("unexpected {v:?}"),
        }
    }

    #[test]
    fn detailed_cycle_is_minimal_and_labeled() {
        let mut h = History::new();
        // A serializable tail plus a 2-cycle (write skew) — the
        // extracted cycle must be exactly the 2-cycle, edges labeled rw
        // on the right objects, and must close on itself.
        h.record(txn(1, &[(0, 0)], &[(1, 0, 5)]));
        h.record(txn(2, &[(1, 0)], &[(0, 0, 6)]));
        h.record(txn(3, &[(0, 6)], &[(2, 0, 7)])); // downstream of the cycle
        match h.check_detailed() {
            Detailed::NotSerializable { cycle } => {
                assert_eq!(cycle.len(), 2, "expected a 2-cycle, got {cycle:?}");
                for e in &cycle {
                    assert_eq!(e.kind, DepKind::ReadWrite);
                }
                assert_eq!(cycle[0].to, cycle[1].from);
                assert_eq!(cycle[1].to, cycle[0].from);
                // t3 is downstream of the cycle, not on it.
                assert!(cycle.iter().all(|e| e.from != TxnId(3)));
            }
            v => panic!("unexpected {v:?}"),
        }
    }

    #[test]
    fn cap_evicts_oldest_and_counts_drops() {
        let mut h = History::with_cap(3);
        // Footprints of different sizes, so eviction has to give back
        // exactly each record's own share of the flat buffers.
        let footprint = |i: u64| {
            let reads: Vec<(u64, u64)> = (0..i % 3).map(|k| (i, k)).collect();
            txn(i, &reads, &[(i, 0, 1)])
        };
        for i in 0..10u64 {
            h.record(footprint(i));
        }
        assert_eq!(h.len(), 3);
        assert_eq!(h.dropped(), 7);
        for (kept, i) in h.records().zip(7..10u64) {
            let expected = footprint(i);
            assert_eq!(kept.txn, expected.txn);
            assert_eq!(kept.reads, expected.reads);
            assert_eq!(kept.writes, expected.writes);
        }
        // Still checkable; a clean verdict on a truncated history is
        // the caller's signal to report "inconclusive".
        assert!(matches!(h.check_detailed(), Detailed::Serializable { .. }));
    }

    #[test]
    fn a_cap_too_large_to_presize_still_records() {
        let mut h = History::with_cap(usize::MAX);
        h.record(txn(1, &[(0, 0)], &[(0, 0, 1)]));
        h.record(txn(2, &[(0, 1)], &[(0, 1, 2)]));
        assert_eq!((h.len(), h.dropped()), (2, 0));
    }

    #[test]
    fn truncation_cannot_fabricate_a_cycle() {
        // The cycle lives in the evicted prefix: once both members are
        // gone the verdict degrades to (inconclusively) serializable,
        // never to a bogus cycle over the survivors.
        let mut h = History::with_cap(2);
        h.record(txn(1, &[(0, 0)], &[(1, 0, 5)]));
        h.record(txn(2, &[(1, 0)], &[(0, 0, 6)]));
        h.record(txn(3, &[], &[(2, 0, 1)]));
        h.record(txn(4, &[], &[(3, 0, 1)]));
        assert_eq!(h.dropped(), 2);
        assert!(matches!(h.check_detailed(), Detailed::Serializable { .. }));
    }
}
