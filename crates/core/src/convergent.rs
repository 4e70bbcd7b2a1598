//! The non-transactional convergent replication schemes of §6.
//!
//! "One strategy is to abandon serializability for the convergence
//! property: if no new transactions arrive, and if all the nodes are
//! connected together, they will all converge to the same replicated
//! state after exchanging replica updates."
//!
//! * [`NotesStore`] — Lotus Notes' two update forms: **timestamped
//!   append** (notes accumulate in timestamp order) and **timestamped
//!   replace** (last writer wins, losing updates);
//! * [`AccessStore`] — Microsoft Access "Wingman": a version vector per
//!   record, pairwise exchanges where the most recent update wins and
//!   rejected updates are reported.
//!
//! Both stores are *state-based convergent replicas*: merging is
//! commutative, associative and idempotent, so any gossip pattern that
//! eventually connects all nodes yields identical states everywhere.

use repl_storage::{Causality, NodeId, Timestamp, Value, VersionVector};
use std::collections::BTreeMap;

/// Identifies a Notes document / Access record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DocId(pub u64);

// ---------------------------------------------------------------------
// Lotus Notes
// ---------------------------------------------------------------------

/// One appended note.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Note {
    /// Timestamp of the append — also its sort key, which is what makes
    /// appends commute.
    pub ts: Timestamp,
    /// The appended text.
    pub text: String,
}

/// A Notes document: an append-only set of notes, one last-writer-wins
/// replace field, and a set of commutative deltas.
///
/// The three components never interact, which is what makes every
/// update order converge: appends are a grow-only set keyed by
/// timestamp, the replace field is a last-writer-wins register, and the
/// increments are a grow-only set of `(timestamp, delta)` pairs whose
/// sum is added on read. (Fusing increments into the register would
/// make `Replace`/`Increment` order-sensitive — a real CRDT design
/// error our property tests caught.)
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Document {
    /// Notes in timestamp order (deduplicated by timestamp — a
    /// timestamp identifies one append, so re-delivery is idempotent).
    notes: BTreeMap<Timestamp, String>,
    /// The timestamped-replace field, if ever written.
    replace: Option<(Timestamp, Value)>,
    /// Commutative increments, keyed by their (unique) timestamps.
    deltas: BTreeMap<Timestamp, i64>,
}

impl Document {
    /// The notes in their converged (timestamp) order.
    pub fn notes(&self) -> impl Iterator<Item = Note> + '_ {
        self.notes.iter().map(|(&ts, text)| Note {
            ts,
            text: text.clone(),
        })
    }

    /// Number of notes.
    pub fn note_count(&self) -> usize {
        self.notes.len()
    }

    /// The document's current value: the last-writer-wins replace
    /// field (0 if never written) plus the sum of all commutative
    /// deltas; `None` while neither has been written.
    pub fn value(&self) -> Option<Value> {
        if self.replace.is_none() && self.deltas.is_empty() {
            return None;
        }
        let base = self.replace.map_or(0, |(_, Value::Int(v))| v);
        Some(Value::Int(base + self.deltas.values().sum::<i64>()))
    }
}

/// An update to a Notes replica — the two §6 forms plus commutative
/// increment (the "third form" the paper suggests Notes could support).
#[derive(Debug, Clone, PartialEq)]
pub enum NotesUpdate {
    /// Append a note at a timestamp.
    Append {
        /// Target document.
        doc: DocId,
        /// Timestamp (identifies the append; duplicates are ignored).
        ts: Timestamp,
        /// The text.
        text: String,
    },
    /// Replace the document's value; older timestamps are discarded —
    /// "the timestamp scheme may lose the effects of some transactions".
    Replace {
        /// Target document.
        doc: DocId,
        /// Timestamp of the replacement.
        ts: Timestamp,
        /// The new value.
        value: Value,
    },
    /// Commutative increment of the document's integer value — applied
    /// in any order, never lost.
    Increment {
        /// Target document.
        doc: DocId,
        /// Timestamp (advances the field's timestamp but never blocks
        /// the merge).
        ts: Timestamp,
        /// Signed delta.
        delta: i64,
    },
}

/// Outcome of applying one [`NotesUpdate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NotesOutcome {
    /// The update took effect.
    Applied,
    /// A replace lost to a newer timestamp, or an append was a
    /// duplicate — the update was discarded (the *lost update* when it
    /// was a replace carrying real information).
    Discarded,
}

/// A Lotus-Notes-style convergent replica.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NotesStore {
    docs: BTreeMap<DocId, Document>,
    /// Replaces discarded by the timestamp rule — the lost updates.
    lost_updates: u64,
}

impl NotesStore {
    /// An empty replica.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read a document.
    pub fn get(&self, doc: DocId) -> Option<&Document> {
        self.docs.get(&doc)
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the store has no documents.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// How many timestamped replaces this replica has discarded — §6's
    /// lost-update count.
    pub fn lost_updates(&self) -> u64 {
        self.lost_updates
    }

    /// Apply one update.
    pub fn apply(&mut self, update: &NotesUpdate) -> NotesOutcome {
        match update {
            NotesUpdate::Append { doc, ts, text } => {
                let d = self.docs.entry(*doc).or_default();
                if d.notes.contains_key(ts) {
                    NotesOutcome::Discarded
                } else {
                    d.notes.insert(*ts, text.clone());
                    NotesOutcome::Applied
                }
            }
            NotesUpdate::Replace { doc, ts, value } => {
                let d = self.docs.entry(*doc).or_default();
                match &d.replace {
                    Some((cur, _)) if *cur >= *ts => {
                        self.lost_updates += 1;
                        NotesOutcome::Discarded
                    }
                    _ => {
                        d.replace = Some((*ts, *value));
                        NotesOutcome::Applied
                    }
                }
            }
            NotesUpdate::Increment { doc, ts, delta } => {
                let d = self.docs.entry(*doc).or_default();
                if d.deltas.contains_key(ts) {
                    NotesOutcome::Discarded
                } else {
                    d.deltas.insert(*ts, *delta);
                    NotesOutcome::Applied
                }
            }
        }
    }

    /// Merge another replica's full state into this one (state-based
    /// exchange): union of notes, newest replace wins. Does not count
    /// lost updates (the merge is symmetric bookkeeping, not a fresh
    /// update).
    pub fn merge_from(&mut self, other: &NotesStore) {
        for (doc, d) in &other.docs {
            let mine = self.docs.entry(*doc).or_default();
            for (ts, text) in &d.notes {
                mine.notes.entry(*ts).or_insert_with(|| text.clone());
            }
            if let Some((ts, v)) = &d.replace {
                match &mine.replace {
                    Some((cur, _)) if cur >= ts => {}
                    _ => mine.replace = Some((*ts, *v)),
                }
            }
            for (ts, delta) in &d.deltas {
                mine.deltas.entry(*ts).or_insert(*delta);
            }
        }
    }

    /// A deterministic digest of the converged state (ignores the
    /// lost-update counter, which is replica-local bookkeeping).
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x1_0000_0000_01b3);
        };
        for (doc, d) in &self.docs {
            mix(doc.0);
            for (ts, text) in &d.notes {
                mix(ts.counter);
                mix(u64::from(ts.node.0));
                for &b in text.as_bytes() {
                    mix(u64::from(b));
                }
            }
            if let Some((ts, v)) = &d.replace {
                mix(ts.counter);
                mix(u64::from(ts.node.0));
                let Value::Int(i) = *v;
                mix(i as u64);
            }
            for (ts, delta) in &d.deltas {
                mix(ts.counter);
                mix(u64::from(ts.node.0));
                mix(*delta as u64);
            }
        }
        h
    }
}

// ---------------------------------------------------------------------
// Microsoft Access ("Wingman")
// ---------------------------------------------------------------------

/// One replicated Access record: a value, its update timestamp, and the
/// version vector of the history that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Current value.
    pub value: Value,
    /// Timestamp of the most recent update (the exchange tiebreaker).
    pub ts: Timestamp,
    /// Version vector of this record's lineage.
    pub vv: VersionVector,
}

impl Default for Record {
    fn default() -> Self {
        Record {
            value: Value::default(),
            ts: Timestamp::ZERO,
            vv: VersionVector::new(),
        }
    }
}

/// A rejected update reported by a pairwise exchange — "rejected
/// updates are reported [Hammond]".
#[derive(Debug, Clone, PartialEq)]
pub struct RejectedUpdate {
    /// The record whose concurrent lineage lost.
    pub doc: DocId,
    /// The losing value.
    pub value: Value,
    /// The losing timestamp.
    pub ts: Timestamp,
}

/// A Microsoft-Access-style replica: update-anywhere record instances,
/// per-record version vectors, periodic pairwise exchange.
#[derive(Debug, Clone, Default)]
pub struct AccessStore {
    node: u32,
    records: BTreeMap<DocId, Record>,
    rejected: Vec<RejectedUpdate>,
}

impl AccessStore {
    /// A replica held by `node`.
    pub fn new(node: NodeId) -> Self {
        AccessStore {
            node: node.0,
            records: BTreeMap::new(),
            rejected: Vec::new(),
        }
    }

    /// Read a record.
    pub fn get(&self, doc: DocId) -> Option<&Record> {
        self.records.get(&doc)
    }

    /// Local update: bump the version vector at this node and stamp
    /// the record.
    pub fn update(&mut self, doc: DocId, value: Value, ts: Timestamp) {
        let r = self.records.entry(doc).or_default();
        r.value = value;
        r.ts = ts;
        r.vv.bump(NodeId(self.node));
    }

    /// Rejected updates this replica has reported so far.
    pub fn rejected(&self) -> &[RejectedUpdate] {
        &self.rejected
    }

    /// One direction of a pairwise exchange: pull `other`'s records.
    ///
    /// * other's lineage dominates → take it;
    /// * our lineage dominates or vectors equal → keep ours;
    /// * concurrent → "the most recent update wins each pairwise
    ///   exchange"; the losing update is reported as rejected.
    pub fn pull_from(&mut self, other: &AccessStore) {
        for (doc, theirs) in &other.records {
            match self.records.get_mut(doc) {
                None => {
                    self.records.insert(*doc, theirs.clone());
                }
                Some(mine) => match mine.vv.compare(&theirs.vv) {
                    Causality::Equal | Causality::Dominates => {}
                    Causality::DominatedBy => {
                        *mine = theirs.clone();
                    }
                    Causality::Concurrent => {
                        let (winner_is_theirs, loser_value, loser_ts) = if theirs.ts > mine.ts {
                            (true, mine.value, mine.ts)
                        } else {
                            (false, theirs.value, theirs.ts)
                        };
                        self.rejected.push(RejectedUpdate {
                            doc: *doc,
                            value: loser_value,
                            ts: loser_ts,
                        });
                        let mut merged = mine.vv.clone();
                        merged.merge(&theirs.vv);
                        if winner_is_theirs {
                            mine.value = theirs.value;
                            mine.ts = theirs.ts;
                        }
                        mine.vv = merged;
                    }
                },
            }
        }
    }

    /// Full pairwise exchange (both directions).
    pub fn exchange(&mut self, other: &mut AccessStore) {
        self.pull_from(other);
        other.pull_from(self);
    }

    /// Digest of the record values and timestamps (convergence check).
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x1_0000_0000_01b3);
        };
        for (doc, r) in &self.records {
            mix(doc.0);
            let Value::Int(i) = r.value;
            mix(i as u64);
            mix(r.ts.counter);
            mix(u64::from(r.ts.node.0));
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(c: u64, n: u32) -> Timestamp {
        Timestamp::new(c, NodeId(n))
    }

    // ---- Notes ----

    #[test]
    fn appends_converge_regardless_of_order() {
        let updates = vec![
            NotesUpdate::Append {
                doc: DocId(1),
                ts: ts(3, 2),
                text: "c".into(),
            },
            NotesUpdate::Append {
                doc: DocId(1),
                ts: ts(1, 1),
                text: "a".into(),
            },
            NotesUpdate::Append {
                doc: DocId(1),
                ts: ts(2, 3),
                text: "b".into(),
            },
        ];
        let mut fwd = NotesStore::new();
        let mut rev = NotesStore::new();
        for u in &updates {
            fwd.apply(u);
        }
        for u in updates.iter().rev() {
            rev.apply(u);
        }
        assert_eq!(fwd.digest(), rev.digest());
        let texts: Vec<String> = fwd.get(DocId(1)).unwrap().notes().map(|n| n.text).collect();
        assert_eq!(texts, vec!["a", "b", "c"]);
    }

    #[test]
    fn duplicate_append_is_idempotent() {
        let mut s = NotesStore::new();
        let u = NotesUpdate::Append {
            doc: DocId(1),
            ts: ts(1, 1),
            text: "x".into(),
        };
        assert_eq!(s.apply(&u), NotesOutcome::Applied);
        assert_eq!(s.apply(&u), NotesOutcome::Discarded);
        assert_eq!(s.get(DocId(1)).unwrap().note_count(), 1);
    }

    #[test]
    fn timestamped_replace_loses_updates() {
        // The checkbook example: two concurrent balance replacements —
        // the older one is silently lost.
        let mut s = NotesStore::new();
        s.apply(&NotesUpdate::Replace {
            doc: DocId(1),
            ts: ts(5, 2),
            value: Value::Int(500),
        });
        let out = s.apply(&NotesUpdate::Replace {
            doc: DocId(1),
            ts: ts(4, 1),
            value: Value::Int(700),
        });
        assert_eq!(out, NotesOutcome::Discarded);
        assert_eq!(s.lost_updates(), 1);
        assert_eq!(s.get(DocId(1)).unwrap().value(), Some(Value::Int(500)));
    }

    #[test]
    fn increments_never_lost() {
        // The "third form": both debits survive in any order.
        let a = NotesUpdate::Increment {
            doc: DocId(1),
            ts: ts(4, 1),
            delta: -300,
        };
        let b = NotesUpdate::Increment {
            doc: DocId(1),
            ts: ts(5, 2),
            delta: -700,
        };
        let mut fwd = NotesStore::new();
        fwd.apply(&NotesUpdate::Replace {
            doc: DocId(1),
            ts: ts(1, 1),
            value: Value::Int(1000),
        });
        let mut rev = fwd.clone();
        fwd.apply(&a);
        fwd.apply(&b);
        rev.apply(&b);
        rev.apply(&a);
        assert_eq!(fwd.get(DocId(1)).unwrap().value(), Some(Value::Int(0)));
        assert_eq!(fwd.digest(), rev.digest());
    }

    #[test]
    fn notes_state_merge_converges() {
        let mut a = NotesStore::new();
        let mut b = NotesStore::new();
        a.apply(&NotesUpdate::Append {
            doc: DocId(1),
            ts: ts(1, 1),
            text: "from a".into(),
        });
        b.apply(&NotesUpdate::Append {
            doc: DocId(1),
            ts: ts(2, 2),
            text: "from b".into(),
        });
        b.apply(&NotesUpdate::Replace {
            doc: DocId(2),
            ts: ts(3, 2),
            value: Value::Int(7),
        });
        let mut a2 = a.clone();
        a2.merge_from(&b);
        let mut b2 = b.clone();
        b2.merge_from(&a);
        assert_eq!(a2.digest(), b2.digest());
        assert_eq!(a2.get(DocId(1)).unwrap().note_count(), 2);
    }

    #[test]
    fn merge_is_idempotent() {
        let mut a = NotesStore::new();
        a.apply(&NotesUpdate::Append {
            doc: DocId(1),
            ts: ts(1, 1),
            text: "x".into(),
        });
        let b = a.clone();
        a.merge_from(&b);
        a.merge_from(&b);
        assert_eq!(a.digest(), b.digest());
    }

    // ---- Access ----

    #[test]
    fn access_sequential_update_propagates() {
        let mut a = AccessStore::new(NodeId(1));
        let mut b = AccessStore::new(NodeId(2));
        a.update(DocId(1), Value::Int(10), ts(1, 1));
        b.pull_from(&a);
        assert_eq!(b.get(DocId(1)).unwrap().value, Value::Int(10));
        assert!(b.rejected().is_empty());
        // b updates on top: a pulls back, no conflict.
        b.update(DocId(1), Value::Int(20), ts(2, 2));
        a.pull_from(&b);
        assert_eq!(a.get(DocId(1)).unwrap().value, Value::Int(20));
        assert!(a.rejected().is_empty());
    }

    #[test]
    fn access_concurrent_update_reports_rejection() {
        let mut a = AccessStore::new(NodeId(1));
        let mut b = AccessStore::new(NodeId(2));
        a.update(DocId(1), Value::Int(10), ts(1, 1));
        b.pull_from(&a);
        // Divergent updates on both replicas.
        a.update(DocId(1), Value::Int(111), ts(5, 1));
        b.update(DocId(1), Value::Int(222), ts(6, 2));
        a.exchange(&mut b);
        // Most recent (ts 6) wins everywhere; the loser was reported.
        assert_eq!(a.get(DocId(1)).unwrap().value, Value::Int(222));
        assert_eq!(b.get(DocId(1)).unwrap().value, Value::Int(222));
        assert_eq!(a.rejected().len(), 1);
        assert_eq!(a.rejected()[0].value, Value::Int(111));
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn access_exchange_converges_three_replicas() {
        let mut stores = [
            AccessStore::new(NodeId(1)),
            AccessStore::new(NodeId(2)),
            AccessStore::new(NodeId(3)),
        ];
        stores[0].update(DocId(1), Value::Int(1), ts(1, 1));
        stores[1].update(DocId(1), Value::Int(2), ts(2, 2));
        stores[2].update(DocId(2), Value::Int(3), ts(3, 3));
        // Gossip ring until quiescent.
        for _ in 0..3 {
            let (left, right) = stores.split_at_mut(1);
            left[0].exchange(&mut right[0]);
            let (mid, last) = right.split_at_mut(1);
            mid[0].exchange(&mut last[0]);
        }
        stores[0].pull_from(&stores[2].clone());
        let d = stores[0].digest();
        // After full gossip all replicas agree.
        let mut a = stores[0].clone();
        let mut b = stores[1].clone();
        a.exchange(&mut b);
        assert_eq!(a.digest(), d);
        assert_eq!(b.digest(), d);
    }

    #[test]
    fn access_merged_vector_dominates_both() {
        let mut a = AccessStore::new(NodeId(1));
        let mut b = AccessStore::new(NodeId(2));
        a.update(DocId(1), Value::Int(1), ts(1, 1));
        b.update(DocId(1), Value::Int(2), ts(2, 2));
        a.exchange(&mut b);
        // After resolving the concurrent pair, a further exchange is
        // quiet: the merged vector dominates both lineages.
        let before = a.rejected().len();
        a.exchange(&mut b);
        assert_eq!(a.rejected().len(), before);
        assert_eq!(a.digest(), b.digest());
    }
}
