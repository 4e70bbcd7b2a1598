//! The mobile node's dual-version store (§7): every replicated object
//! has a **master version** (best known value from the object master)
//! and possibly a **tentative version** produced by local tentative
//! transactions.
//!
//! On reconnect the mobile node "discards its tentative object versions
//! since they will soon be refreshed from the masters" — that is
//! [`TentativeStore::discard_tentative`].

use crate::hash::FastMap;
use crate::object::{ObjectId, Timestamp, Value, Versioned};
use crate::store::ObjectStore;

/// Dual-version object storage for a mobile node.
#[derive(Debug)]
pub struct TentativeStore {
    /// Best known master versions (refreshed by lazy-master replication
    /// while connected).
    master: ObjectStore,
    /// Tentative overlays: objects updated by local tentative
    /// transactions since the last synchronization. Sparse — most of
    /// the database is untouched during a disconnect window. Probed on
    /// every mobile read and never iterated, so the fast hasher is
    /// safe here.
    tentative: FastMap<ObjectId, Versioned>,
}

impl TentativeStore {
    /// A store over `db_size` objects with no tentative state.
    pub fn new(db_size: u64) -> Self {
        Self::from_master(ObjectStore::new(db_size))
    }

    /// Wrap an existing master-version store (e.g. a partial
    /// [`ObjectStore::sharded`] replica) with no tentative state.
    pub fn from_master(master: ObjectStore) -> Self {
        TentativeStore {
            master,
            tentative: FastMap::default(),
        }
    }

    /// The underlying master-version store.
    pub fn master(&self) -> &ObjectStore {
        &self.master
    }

    /// Mutable access to the master-version store (replica refresh).
    pub fn master_mut(&mut self) -> &mut ObjectStore {
        &mut self.master
    }

    /// Read through the tentative overlay: local queries "see the
    /// tentative values" (§7) — the tentative version if one exists,
    /// else the best known master version.
    pub fn read(&self, id: ObjectId) -> &Versioned {
        self.tentative
            .get(&id)
            .unwrap_or_else(|| self.master.get(id))
    }

    /// Read only the master version, ignoring tentative state.
    pub fn read_master(&self, id: ObjectId) -> &Versioned {
        self.master.get(id)
    }

    /// Record a tentative write.
    pub fn write_tentative(&mut self, id: ObjectId, value: Value, ts: Timestamp) {
        self.tentative.insert(id, Versioned { value, ts });
    }

    /// Whether `id` has a tentative version.
    pub fn is_tentative(&self, id: ObjectId) -> bool {
        self.tentative.contains_key(&id)
    }

    /// Number of objects with tentative versions.
    pub fn tentative_count(&self) -> usize {
        self.tentative.len()
    }

    /// Reconnect step 1: drop all tentative versions (they are about to
    /// be re-derived by re-executing the tentative transactions at the
    /// base).
    pub fn discard_tentative(&mut self) {
        self.tentative.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::NodeId;

    fn ts(c: u64) -> Timestamp {
        Timestamp::new(c, NodeId(9))
    }

    #[test]
    fn read_prefers_tentative_overlay() {
        let mut s = TentativeStore::new(4);
        s.master_mut().set(ObjectId(1), Value::Int(100), ts(1));
        assert_eq!(s.read(ObjectId(1)).value, Value::Int(100));
        s.write_tentative(ObjectId(1), Value::Int(75), ts(2));
        assert_eq!(s.read(ObjectId(1)).value, Value::Int(75));
        // The master version is untouched.
        assert_eq!(s.read_master(ObjectId(1)).value, Value::Int(100));
    }

    #[test]
    fn read_falls_through_for_untouched_objects() {
        let s = TentativeStore::new(4);
        assert_eq!(s.read(ObjectId(2)), &Versioned::initial());
    }

    #[test]
    fn discard_restores_master_view() {
        let mut s = TentativeStore::new(4);
        s.master_mut().set(ObjectId(0), Value::Int(10), ts(1));
        s.write_tentative(ObjectId(0), Value::Int(99), ts(2));
        s.write_tentative(ObjectId(3), Value::Int(1), ts(3));
        assert_eq!(s.tentative_count(), 2);
        s.discard_tentative();
        assert_eq!(s.tentative_count(), 0);
        assert_eq!(s.read(ObjectId(0)).value, Value::Int(10));
        assert!(!s.is_tentative(ObjectId(3)));
    }

    #[test]
    fn discarding_a_large_overlay_falls_through_to_the_master() {
        const N: u64 = 10_000;
        let mut s = TentativeStore::new(N);
        for i in 0..N {
            s.master_mut().set(ObjectId(i), Value::Int(i as i64), ts(1));
            s.write_tentative(ObjectId(i), Value::Int(-1), ts(2));
        }
        assert_eq!(s.tentative_count(), N as usize);
        assert!((0..N).all(|i| s.read(ObjectId(i)).value == Value::Int(-1)));
        s.discard_tentative();
        assert_eq!(s.tentative_count(), 0);
        for i in 0..N {
            assert!(!s.is_tentative(ObjectId(i)));
            assert_eq!(s.read(ObjectId(i)), s.read_master(ObjectId(i)));
            assert_eq!(s.read(ObjectId(i)).value, Value::Int(i as i64));
        }
        // The emptied overlay takes new tentative versions as before.
        s.write_tentative(ObjectId(7), Value::Int(70), ts(3));
        assert_eq!(s.read(ObjectId(7)).value, Value::Int(70));
        assert_eq!(s.tentative_count(), 1);
    }

    #[test]
    fn tentative_writes_layer_on_each_other() {
        let mut s = TentativeStore::new(2);
        s.write_tentative(ObjectId(0), Value::Int(1), ts(1));
        s.write_tentative(ObjectId(0), Value::Int(2), ts(2));
        assert_eq!(s.read(ObjectId(0)).value, Value::Int(2));
        assert_eq!(s.tentative_count(), 1);
    }
}
