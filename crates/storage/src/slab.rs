//! Generational slab arenas for in-flight transactions.
//!
//! The simulation engines keep every live transaction in a table and
//! touch it on every event dispatch (a `RootStep`, a replica apply, a
//! lock grant). A `HashMap<TxnId, _>` pays a hash per touch; this slab
//! instead *derives* the [`TxnId`] from the slot it occupies, so a
//! lookup is two array indexes and a generation compare. Freed slots go
//! on a free list and are recycled, so a long run's arena stays as
//! small as its peak concurrency, not its total transaction count.
//! (Engines whose ids must stay monotone keep their in-flight set in a
//! [`TxnTable`](crate::TxnTable) instead.)
//!
//! Id layout (64 bits):
//!
//! ```text
//! | tag (8) | generation (24) | slot (32) |
//! ```
//!
//! * **slot** — dense index into the arena.
//! * **generation** — bumped every time a slot is freed, so a stale id
//!   from a completed transaction misses instead of aliasing the slot's
//!   next occupant. Wraps after 2^24 reuses of one slot (a run would
//!   need ~16M transactions through a single slot to alias — far past
//!   any horizon the harness sweeps).
//! * **tag** — distinguishes arenas that share an id space. The
//!   lazy-group engine keeps root and replica transactions in separate
//!   slabs; the tag routes a granted lock's `TxnId` back to the right
//!   arena without a membership probe in both.
//!
//! Iteration ([`TxnSlab::iter`]) is in slot order — deterministic, and
//! independent of hasher state, unlike `HashMap` iteration.

use crate::lock::TxnId;

const SLOT_BITS: u32 = 32;
const GEN_BITS: u32 = 24;
const GEN_MASK: u64 = (1 << GEN_BITS) - 1;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;

/// One arena slot: the occupant (if any) plus the generation stamp ids
/// are checked against.
#[derive(Debug, Clone)]
struct Slot<T> {
    gen: u32,
    val: Option<T>,
}

/// A generational slab keyed by the [`TxnId`]s it mints.
#[derive(Debug, Clone)]
pub struct TxnSlab<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    len: usize,
    /// Tag OR'd into every id this slab mints (pre-shifted).
    tag: u64,
}

impl<T> TxnSlab<T> {
    /// An empty slab. `tag` (0..=255) namespaces this slab's ids so
    /// multiple arenas can share one id space; ids minted here never
    /// match a slab with a different tag.
    pub fn new(tag: u8) -> Self {
        TxnSlab {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
            tag: u64::from(tag) << (SLOT_BITS + GEN_BITS),
        }
    }

    /// Number of live transactions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no transactions are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `id` carries this slab's tag (regardless of liveness).
    /// Engines with several arenas use this to route an id to the
    /// arena that minted it.
    #[inline]
    pub fn owns(&self, id: TxnId) -> bool {
        id.0 >> (SLOT_BITS + GEN_BITS) == self.tag >> (SLOT_BITS + GEN_BITS)
    }

    #[inline]
    fn unpack(&self, id: TxnId) -> Option<(usize, u32)> {
        if id.0 & !(SLOT_MASK | (GEN_MASK << SLOT_BITS)) != self.tag {
            return None;
        }
        let slot = (id.0 & SLOT_MASK) as usize;
        let gen = ((id.0 >> SLOT_BITS) & GEN_MASK) as u32;
        Some((slot, gen))
    }

    /// Insert a transaction, minting its id from the slot it lands in.
    pub fn insert(&mut self, val: T) -> TxnId {
        self.len += 1;
        if let Some(slot) = self.free.pop() {
            let s = &mut self.slots[slot as usize];
            debug_assert!(s.val.is_none());
            s.val = Some(val);
            TxnId(self.tag | (u64::from(s.gen) << SLOT_BITS) | u64::from(slot))
        } else {
            let slot = self.slots.len() as u32;
            assert!(u64::from(slot) <= SLOT_MASK, "transaction arena overflow");
            self.slots.push(Slot {
                gen: 0,
                val: Some(val),
            });
            TxnId(self.tag | u64::from(slot))
        }
    }

    /// The live transaction with this id, if it is still in the arena.
    #[inline]
    pub fn get(&self, id: TxnId) -> Option<&T> {
        let (slot, gen) = self.unpack(id)?;
        let s = self.slots.get(slot)?;
        if s.gen != gen {
            return None;
        }
        s.val.as_ref()
    }

    /// Mutable access to the live transaction with this id.
    #[inline]
    pub fn get_mut(&mut self, id: TxnId) -> Option<&mut T> {
        let (slot, gen) = self.unpack(id)?;
        let s = self.slots.get_mut(slot)?;
        if s.gen != gen {
            return None;
        }
        s.val.as_mut()
    }

    /// Whether `id` names a live transaction here.
    #[inline]
    pub fn contains(&self, id: TxnId) -> bool {
        self.get(id).is_some()
    }

    /// Remove and return the transaction, recycling its slot. A stale
    /// or foreign id returns `None` and changes nothing.
    pub fn remove(&mut self, id: TxnId) -> Option<T> {
        let (slot, gen) = self.unpack(id)?;
        let s = self.slots.get_mut(slot)?;
        if s.gen != gen || s.val.is_none() {
            return None;
        }
        let val = s.val.take();
        // Bump the generation at free time so every outstanding copy of
        // this id goes stale immediately.
        s.gen = (s.gen + 1) & GEN_MASK as u32;
        self.free.push(slot as u32);
        self.len -= 1;
        val
    }

    /// Iterate `(id, txn)` pairs in slot order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = (TxnId, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| {
            s.val.as_ref().map(|v| {
                (
                    TxnId(self.tag | (u64::from(s.gen) << SLOT_BITS) | i as u64),
                    v,
                )
            })
        })
    }

    /// Ids of all live transactions, in slot order.
    pub fn ids(&self) -> impl Iterator<Item = TxnId> + '_ {
        self.iter().map(|(id, _)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut slab = TxnSlab::new(0);
        let a = slab.insert("a");
        let b = slab.insert("b");
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.get(a), Some(&"a"));
        assert_eq!(slab.get(b), Some(&"b"));
        assert_eq!(slab.remove(a), Some("a"));
        assert_eq!(slab.get(a), None);
        assert_eq!(slab.len(), 1);
        assert!(!slab.is_empty());
    }

    #[test]
    fn recycled_slot_gets_new_generation() {
        let mut slab = TxnSlab::new(0);
        let a = slab.insert(1);
        slab.remove(a);
        let b = slab.insert(2);
        // Same slot, different generation: the stale id must miss.
        assert_ne!(a, b);
        assert_eq!(a.0 & SLOT_MASK, b.0 & SLOT_MASK);
        assert_eq!(slab.get(a), None);
        assert!(!slab.contains(a));
        assert_eq!(slab.remove(a), None);
        assert_eq!(slab.get(b), Some(&2));
    }

    #[test]
    fn tags_partition_the_id_space() {
        let mut roots: TxnSlab<&str> = TxnSlab::new(0);
        let mut reps: TxnSlab<&str> = TxnSlab::new(1);
        let r = roots.insert("root");
        let p = reps.insert("replica");
        assert!(roots.owns(r) && !roots.owns(p));
        assert!(reps.owns(p) && !reps.owns(r));
        // A foreign id never resolves, even with a matching slot/gen.
        assert_eq!(roots.get(p), None);
        assert_eq!(reps.get(r), None);
        assert_eq!(reps.remove(r), None);
        assert_eq!(reps.len(), 1);
    }

    #[test]
    fn iteration_is_slot_ordered_and_skips_holes() {
        let mut slab = TxnSlab::new(3);
        let ids: Vec<_> = (0..5).map(|i| slab.insert(i)).collect();
        slab.remove(ids[1]);
        slab.remove(ids[3]);
        let seen: Vec<i32> = slab.iter().map(|(_, v)| *v).collect();
        assert_eq!(seen, vec![0, 2, 4]);
        let listed: Vec<TxnId> = slab.ids().collect();
        assert_eq!(listed, vec![ids[0], ids[2], ids[4]]);
    }

    #[test]
    fn get_mut_mutates_in_place() {
        let mut slab = TxnSlab::new(0);
        let id = slab.insert(vec![1, 2]);
        slab.get_mut(id).unwrap().push(3);
        assert_eq!(slab.get(id), Some(&vec![1, 2, 3]));
    }

    #[test]
    fn free_list_keeps_arena_dense() {
        let mut slab = TxnSlab::new(0);
        for round in 0..100 {
            let id = slab.insert(round);
            assert_eq!(id.0 & SLOT_MASK, 0, "slot should be recycled");
            slab.remove(id);
        }
        assert!(slab.is_empty());
        assert_eq!(slab.slots.len(), 1);
    }
}
