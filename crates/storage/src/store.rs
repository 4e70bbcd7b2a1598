//! The per-node object store: each object carries the timestamp of its
//! most recent committed update. A *full* store replicates all
//! `DB_Size` objects (the model's baseline assumption); a *sharded*
//! store ([`ObjectStore::sharded`]) allocates slots only for the
//! objects whose shards the node hosts, so per-node memory and digest
//! work scale with the replication factor instead of the database.

use crate::object::{ObjectId, Timestamp, Value, Versioned};
use crate::shard::{ShardLayout, ShardMap};

/// Outcome of applying a timestamped replica update (Figure 4 of the
/// paper): safe, duplicate, or dangerous.
///
/// The paper's test: "the node tests if the local replica's timestamp
/// and the update's old timestamp are equal. If so, the update is
/// safe." Anything else is *dangerous* and needs reconciliation; this
/// enum additionally reports which side the time-priority resolution
/// favoured, and recognizes exact re-deliveries as harmless duplicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyOutcome {
    /// The update's `old` timestamp matched the replica's current
    /// timestamp — the update was applied (the safe case).
    Applied,
    /// The replica already carries exactly this update (idempotent
    /// re-delivery, e.g. a replica transaction retried after a
    /// deadlock) — skipped, no reconciliation.
    Duplicate,
    /// Dangerous: the timestamps diverged and the incoming update is
    /// *newer*, so time-priority resolution installed it over the
    /// local version. A reconciliation.
    ConflictApplied,
    /// Dangerous: the timestamps diverged and the incoming update is
    /// *older*, so the local version stands and the incoming update is
    /// discarded (the update "lost"). Also a reconciliation.
    ConflictIgnored,
}

impl ApplyOutcome {
    /// Whether the paper's timestamp test flagged this update as
    /// dangerous (needing reconciliation).
    pub fn is_conflict(self) -> bool {
        matches!(
            self,
            ApplyOutcome::ConflictApplied | ApplyOutcome::ConflictIgnored
        )
    }
}

/// A dense, per-node replica of the database. Object ids are the
/// integers `0..db_size`; a full store maps id `i` to slot `i`, while a
/// sharded store packs only the hosted objects into slots via a closed-
/// form `(row, rank)` mapping — the hot path of every protocol is still
/// an index, not a hash.
#[derive(Debug, Clone)]
pub struct ObjectStore {
    objects: Vec<Versioned>,
    /// Cached convergence digest: the wrapping sum of every slot's
    /// [`slot_hash`]. Writes are the hot path of every engine and
    /// digests are only compared between runs or at convergence
    /// checkpoints, so a write merely marks the cache dirty and
    /// [`ObjectStore::digest`] recomputes (then re-caches) on demand —
    /// the per-write hash mix this replaces was ~10% of a full
    /// simulation run.
    digest: std::cell::Cell<u64>,
    /// Whether `digest` needs recomputing before its next read.
    digest_dirty: std::cell::Cell<bool>,
    /// `Some` for a sharded (partial) store; `None` keeps the original
    /// dense id-is-slot layout and behavior bit-for-bit.
    layout: Option<ShardLayout>,
}

/// A well-mixed 64-bit hash of one slot's `(index, value, timestamp)`.
/// Folding the index in means two stores that hold the same versions in
/// *different slots* digest differently; combining slot hashes with a
/// wrapping sum makes the combined digest order-free and incrementally
/// updatable (subtract the old slot hash, add the new one).
fn slot_hash(idx: usize, v: &Versioned) -> u64 {
    const MUL: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        h = (h.rotate_left(5) ^ x).wrapping_mul(MUL);
    };
    mix(idx as u64);
    match &v.value {
        Value::Int(i) => {
            mix(1);
            mix(*i as u64);
        }
        Value::Text(s) => {
            mix(2);
            mix(s.len() as u64);
            for &b in s.as_bytes() {
                mix(u64::from(b));
            }
        }
    }
    mix(v.ts.counter);
    mix(u64::from(v.ts.node.0));
    h
}

impl ObjectStore {
    /// A full store of `db_size` objects, all at [`Versioned::initial`].
    pub fn new(db_size: u64) -> Self {
        ObjectStore {
            objects: vec![Versioned::initial(); db_size as usize],
            digest: std::cell::Cell::new(0),
            digest_dirty: std::cell::Cell::new(true),
            layout: None,
        }
    }

    /// A partial store holding only the objects of the shards `map`
    /// places at `node`, all at [`Versioned::initial`]. Slot hashes stay
    /// keyed by **object id**, so two co-hosting nodes hash a shared
    /// object identically and a full-replication sharded store digests
    /// exactly like [`ObjectStore::new`].
    pub fn sharded(db_size: u64, map: &ShardMap, node: crate::object::NodeId) -> Self {
        let Some(layout) = map.layout(node) else {
            return ObjectStore::new(db_size);
        };
        ObjectStore {
            objects: vec![Versioned::initial(); layout.slots(db_size) as usize],
            digest: std::cell::Cell::new(0),
            digest_dirty: std::cell::Cell::new(true),
            layout: Some(layout.clone()),
        }
    }

    /// The hash key for `slot`: the object id it holds (which *is* the
    /// slot index in a full store).
    #[inline]
    fn hash_key(&self, slot: usize) -> usize {
        match &self.layout {
            None => slot,
            Some(l) => l.object_of(slot as u64).0 as usize,
        }
    }

    /// The slot holding `id`. Panics on an id this store does not host
    /// (protocol paths only route hosted objects here).
    #[inline]
    fn slot_of(&self, id: ObjectId) -> usize {
        match &self.layout {
            None => id.0 as usize,
            Some(l) => l
                .slot(id)
                .unwrap_or_else(|| panic!("object {} is not hosted at this store", id.0)),
        }
    }

    /// Replace slot `idx` with `next`, invalidating the digest cache.
    #[inline]
    fn write_slot(&mut self, idx: usize, next: Versioned) {
        self.digest_dirty.set(true);
        self.objects[idx] = next;
    }

    /// Number of objects this store holds (the hosted subset for a
    /// sharded store).
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the store holds no objects.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Whether this store hosts `id` (always true for a full store's
    /// valid ids).
    pub fn hosts(&self, id: ObjectId) -> bool {
        match &self.layout {
            None => (id.0 as usize) < self.objects.len(),
            Some(l) => l.slot(id).is_some(),
        }
    }

    /// Read an object's current version. Panics on an out-of-range or
    /// unhosted id (the workload generator only produces valid ids).
    pub fn get(&self, id: ObjectId) -> &Versioned {
        &self.objects[self.slot_of(id)]
    }

    /// Overwrite an object's value and timestamp unconditionally — used
    /// by the local write path after the lock manager has granted access.
    pub fn set(&mut self, id: ObjectId, value: Value, ts: Timestamp) {
        let idx = self.slot_of(id);
        self.write_slot(idx, Versioned { value, ts });
    }

    /// Overwrite an object and return the version it replaces — the
    /// root write path's read-modify-write in one slot lookup, handing
    /// the pre-image to the caller's undo record without a clone.
    pub fn replace(&mut self, id: ObjectId, value: Value, ts: Timestamp) -> Versioned {
        let idx = self.slot_of(id);
        self.digest_dirty.set(true);
        std::mem::replace(&mut self.objects[idx], Versioned { value, ts })
    }

    /// Apply a replica update using the paper's timestamp test
    /// (lazy-group, Figure 4), resolving dangerous updates by time
    /// priority so replicas always converge:
    ///
    /// * replica.ts == `old` → safe, apply → [`ApplyOutcome::Applied`];
    /// * replica.ts == `new_ts` → idempotent re-delivery →
    ///   [`ApplyOutcome::Duplicate`];
    /// * otherwise the update is dangerous: the newer timestamp wins —
    ///   [`ApplyOutcome::ConflictApplied`] if the incoming update won,
    ///   [`ApplyOutcome::ConflictIgnored`] if the local version stood.
    pub fn apply_versioned(
        &mut self,
        id: ObjectId,
        old: Timestamp,
        new_ts: Timestamp,
        value: Value,
    ) -> ApplyOutcome {
        let idx = self.slot_of(id);
        let slot = &self.objects[idx];
        if slot.ts == old {
            self.write_slot(idx, Versioned { value, ts: new_ts });
            ApplyOutcome::Applied
        } else if slot.ts == new_ts {
            ApplyOutcome::Duplicate
        } else if new_ts > slot.ts {
            self.write_slot(idx, Versioned { value, ts: new_ts });
            ApplyOutcome::ConflictApplied
        } else {
            ApplyOutcome::ConflictIgnored
        }
    }

    /// Apply a replica update with *last-writer-wins* semantics
    /// (lazy-master slave refresh in §5: "if the record timestamp is
    /// newer than a replica update timestamp, the update is stale and
    /// can be ignored"). Returns whether the update was applied.
    pub fn apply_lww(&mut self, id: ObjectId, new_ts: Timestamp, value: Value) -> bool {
        let idx = self.slot_of(id);
        if new_ts > self.objects[idx].ts {
            self.write_slot(idx, Versioned { value, ts: new_ts });
            true
        } else {
            false
        }
    }

    /// Iterate over `(id, version)` pairs, ascending by object id (only
    /// the hosted subset for a sharded store).
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, &Versioned)> {
        self.objects
            .iter()
            .enumerate()
            .map(|(i, v)| (ObjectId(self.hash_key(i) as u64), v))
    }

    /// A deterministic digest of the full database state. Two replicas
    /// have converged iff their digests are equal — the §6 convergence
    /// tests rely on this. Computed on first read and cached until the
    /// next write: convergence checks happen at run boundaries, so the
    /// write path pays one dirty-flag store instead of a hash mix.
    pub fn digest(&self) -> u64 {
        if self.digest_dirty.get() {
            self.digest.set(self.recompute_digest());
            self.digest_dirty.set(false);
        }
        self.digest.get()
    }

    /// Recompute the digest from scratch (O(`DB_Size`)), bypassing the
    /// cache. Returns the same value [`ObjectStore::digest`] reports —
    /// tests use the pair to validate the cache invalidation.
    pub fn recompute_digest(&self) -> u64 {
        self.objects.iter().enumerate().fold(0u64, |d, (i, v)| {
            d.wrapping_add(slot_hash(self.hash_key(i), v))
        })
    }

    /// Sum of all integer values — workload invariants (e.g. "transfers
    /// preserve total money") check this. Text objects count as zero.
    pub fn total_int(&self) -> i64 {
        self.objects
            .iter()
            .map(|v| v.value.as_int().unwrap_or(0))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::NodeId;

    fn ts(c: u64, n: u32) -> Timestamp {
        Timestamp::new(c, NodeId(n))
    }

    #[test]
    fn new_store_all_initial() {
        let s = ObjectStore::new(10);
        assert_eq!(s.len(), 10);
        assert!(!s.is_empty());
        assert_eq!(s.get(ObjectId(3)), &Versioned::initial());
        assert_eq!(s.total_int(), 0);
    }

    #[test]
    fn set_then_get() {
        let mut s = ObjectStore::new(4);
        s.set(ObjectId(2), Value::Int(42), ts(1, 1));
        assert_eq!(s.get(ObjectId(2)).value, Value::Int(42));
        assert_eq!(s.get(ObjectId(2)).ts, ts(1, 1));
    }

    #[test]
    fn apply_versioned_safe_path() {
        let mut s = ObjectStore::new(1);
        let o = ObjectId(0);
        let out = s.apply_versioned(o, Timestamp::ZERO, ts(1, 1), Value::Int(5));
        assert_eq!(out, ApplyOutcome::Applied);
        assert_eq!(s.get(o).value, Value::Int(5));
    }

    #[test]
    fn apply_versioned_detects_conflict_and_resolves_by_time() {
        let mut s = ObjectStore::new(1);
        let o = ObjectId(0);
        // Node 1's update lands first.
        s.apply_versioned(o, Timestamp::ZERO, ts(1, 1), Value::Int(5));
        // Node 2 raced: it read the ZERO version but its new timestamp
        // is higher — the classic dangerous update. Time priority
        // installs it.
        let out = s.apply_versioned(o, Timestamp::ZERO, ts(2, 2), Value::Int(9));
        assert_eq!(out, ApplyOutcome::ConflictApplied);
        assert!(out.is_conflict());
        assert_eq!(s.get(o).value, Value::Int(9));
    }

    #[test]
    fn apply_versioned_older_loser_is_ignored() {
        let mut s = ObjectStore::new(1);
        let o = ObjectId(0);
        s.apply_versioned(o, Timestamp::ZERO, ts(5, 1), Value::Int(5));
        // A racing update that read ZERO but carries an *older*
        // timestamp: dangerous, and it loses — local version stands.
        let out = s.apply_versioned(o, Timestamp::ZERO, ts(3, 2), Value::Int(1));
        assert_eq!(out, ApplyOutcome::ConflictIgnored);
        assert!(out.is_conflict());
        assert_eq!(s.get(o).value, Value::Int(5));
    }

    #[test]
    fn apply_versioned_duplicate_is_idempotent() {
        let mut s = ObjectStore::new(1);
        let o = ObjectId(0);
        s.apply_versioned(o, Timestamp::ZERO, ts(5, 1), Value::Int(5));
        // Exact re-delivery of the same update (e.g. a deadlock retry).
        let out = s.apply_versioned(o, Timestamp::ZERO, ts(5, 1), Value::Int(5));
        assert_eq!(out, ApplyOutcome::Duplicate);
        assert!(!out.is_conflict());
        assert_eq!(s.get(o).value, Value::Int(5));
    }

    #[test]
    fn apply_lww_keeps_newest() {
        let mut s = ObjectStore::new(1);
        let o = ObjectId(0);
        assert!(s.apply_lww(o, ts(2, 1), Value::Int(2)));
        assert!(!s.apply_lww(o, ts(1, 2), Value::Int(1))); // older loses
        assert_eq!(s.get(o).value, Value::Int(2));
        assert!(s.apply_lww(o, ts(3, 2), Value::Int(3)));
        assert_eq!(s.get(o).value, Value::Int(3));
    }

    #[test]
    fn lww_equal_timestamp_not_applied() {
        let mut s = ObjectStore::new(1);
        let o = ObjectId(0);
        s.apply_lww(o, ts(2, 1), Value::Int(2));
        assert!(!s.apply_lww(o, ts(2, 1), Value::Int(99)));
    }

    #[test]
    fn digest_equal_iff_state_equal() {
        let mut a = ObjectStore::new(8);
        let mut b = ObjectStore::new(8);
        assert_eq!(a.digest(), b.digest());
        a.set(ObjectId(1), Value::Int(1), ts(1, 1));
        assert_ne!(a.digest(), b.digest());
        b.set(ObjectId(1), Value::Int(1), ts(1, 1));
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn digest_sensitive_to_timestamp() {
        let mut a = ObjectStore::new(1);
        let mut b = ObjectStore::new(1);
        a.set(ObjectId(0), Value::Int(1), ts(1, 1));
        b.set(ObjectId(0), Value::Int(1), ts(1, 2));
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn rolling_digest_matches_full_recompute() {
        let mut s = ObjectStore::new(16);
        assert_eq!(s.digest(), s.recompute_digest());
        // Exercise every write path: set, safe apply, conflict apply,
        // ignored conflict, duplicate, lww win, lww loss.
        s.set(ObjectId(0), Value::Int(7), ts(1, 1));
        s.set(ObjectId(0), Value::from("text"), ts(2, 1));
        s.apply_versioned(ObjectId(1), Timestamp::ZERO, ts(1, 2), Value::Int(9));
        s.apply_versioned(ObjectId(1), Timestamp::ZERO, ts(3, 1), Value::Int(4));
        s.apply_versioned(ObjectId(1), Timestamp::ZERO, ts(2, 2), Value::Int(5));
        s.apply_versioned(ObjectId(1), Timestamp::ZERO, ts(3, 1), Value::Int(4));
        s.apply_lww(ObjectId(2), ts(5, 3), Value::Int(11));
        s.apply_lww(ObjectId(2), ts(4, 3), Value::Int(12));
        assert_eq!(s.digest(), s.recompute_digest());
    }

    #[test]
    fn digest_distinguishes_slot_placement() {
        // Same version in different slots must digest differently —
        // the order-free sum still folds the slot index into each term.
        let mut a = ObjectStore::new(2);
        let mut b = ObjectStore::new(2);
        a.set(ObjectId(0), Value::Int(1), ts(1, 1));
        b.set(ObjectId(1), Value::Int(1), ts(1, 1));
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn total_int_sums_values() {
        let mut s = ObjectStore::new(3);
        s.set(ObjectId(0), Value::Int(10), ts(1, 1));
        s.set(ObjectId(1), Value::Int(-4), ts(2, 1));
        s.set(ObjectId(2), Value::from("text"), ts(3, 1));
        assert_eq!(s.total_int(), 6);
    }

    #[test]
    fn iter_yields_all() {
        let s = ObjectStore::new(5);
        assert_eq!(s.iter().count(), 5);
        let ids: Vec<u64> = s.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn sharded_store_holds_only_hosted_objects() {
        let map = ShardMap::new(4, 4, 2);
        let node = NodeId(1);
        let s = ObjectStore::sharded(22, &map, node);
        let expect: Vec<u64> = (0..22)
            .filter(|&o| map.hosts_object(node, ObjectId(o)))
            .collect();
        assert_eq!(s.len(), expect.len());
        let got: Vec<u64> = s.iter().map(|(id, _)| id.0).collect();
        assert_eq!(got, expect);
        for &o in &expect {
            assert!(s.hosts(ObjectId(o)));
        }
        assert!(!s.hosts(ObjectId(0)) || map.hosts_object(node, ObjectId(0)));
    }

    #[test]
    fn sharded_store_rolling_digest_matches_recompute() {
        let map = ShardMap::new(5, 5, 2);
        let node = NodeId(2);
        let mut s = ObjectStore::sharded(23, &map, node);
        assert_eq!(s.digest(), s.recompute_digest());
        let hosted: Vec<u64> = s.iter().map(|(id, _)| id.0).collect();
        for (i, &o) in hosted.iter().enumerate() {
            s.set(ObjectId(o), Value::Int(i as i64), ts(i as u64 + 1, 2));
        }
        assert_eq!(s.digest(), s.recompute_digest());
    }

    #[test]
    fn cohosting_nodes_agree_on_shared_state() {
        // Two replicas of the same shard applying the same updates must
        // agree per object (hashes are keyed by object id, not slot),
        // even though the object sits in different slots on each.
        let map = ShardMap::new(4, 4, 2);
        // Shard 1 lives at nodes {1, 2}.
        let (a, b) = (NodeId(1), NodeId(2));
        let mut sa = ObjectStore::sharded(16, &map, a);
        let mut sb = ObjectStore::sharded(16, &map, b);
        let obj = ObjectId(5); // shard 1
        sa.set(obj, Value::Int(9), ts(3, 1));
        sb.set(obj, Value::Int(9), ts(3, 1));
        assert_eq!(sa.get(obj), sb.get(obj));
        let ha = sa.iter().find(|(id, _)| *id == obj).unwrap().1;
        let hb = sb.iter().find(|(id, _)| *id == obj).unwrap().1;
        assert_eq!(ha, hb);
    }

    #[test]
    fn sharded_with_full_rf_is_a_plain_full_store() {
        let map = ShardMap::new(6, 3, 0);
        let full = ObjectStore::new(20);
        let sharded = ObjectStore::sharded(20, &map, NodeId(1));
        assert_eq!(sharded.len(), full.len());
        assert_eq!(sharded.digest(), full.digest());
    }

    #[test]
    #[should_panic(expected = "not hosted")]
    fn sharded_store_panics_on_unhosted_get() {
        let map = ShardMap::new(4, 4, 1);
        // Node 0 hosts only shard 0; object 1 is shard 1.
        let s = ObjectStore::sharded(8, &map, NodeId(0));
        let _ = s.get(ObjectId(1));
    }
}
