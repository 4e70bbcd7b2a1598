//! A direct-mapped per-transaction table keyed by the full [`TxnId`]:
//! the engine-wide tables of in-flight transactions (contention's
//! `active`, lazy-group's `roots`, `replicas` and `forwards`, two-tier's
//! `base_txns`).
//!
//! A run mints `TxnId`s from one counter and never reuses one, because
//! `TxnId` order is observable (crash aborts, recovery replay and the
//! durability audit all sort by id, and traces print it). An array
//! indexed by such an id would grow with every transaction ever
//! started. This table keeps the indexing and drops the growth:
//!
//! * **Direct-mapped.** An id lives at entry `low 32 bits & (capacity −
//!   1)`; capacity is a power of two. A lookup is one mask, one load and
//!   one compare — no hashing.
//! * **Owner-checked.** Every entry records the full id of its owner, so
//!   an id that is no longer live, or one that lands on another's
//!   entry, compares unequal and reads as absent, exactly like a map
//!   miss.
//! * **Live-bounded.** Only when two *live* ids land on one entry does
//!   the table double (until they separate) and re-home its live
//!   entries. Monotone ids therefore see a ring as wide as the span
//!   between the oldest and the newest live id. Memory follows the live
//!   window, never the number of ids ever seen.
//!
//! The window is run-wide: a table that sees only some of a run's ids,
//! such as one node's, still spans every id minted while its oldest
//! entry lives. Such tables are hash maps instead (the lock manager's).
//!
//! Two live ids equal in all 32 low bits cannot be separated by
//! doubling; inserting the second one panics. One counter per run never
//! keeps two such ids alive at once: they are 2³² transactions apart.

use crate::lock::TxnId;

/// Owner of an entry no live id holds. Never a real id: a counter
/// would need 2⁶⁴ − 1 transactions.
const VACANT: TxnId = TxnId(u64::MAX);

#[derive(Debug)]
struct Entry<T> {
    owner: TxnId,
    val: T,
}

/// Direct-mapped, owner-checked, live-bounded map from [`TxnId`] to `T`
/// (see the module docs).
#[derive(Debug)]
pub struct TxnTable<T> {
    /// Empty or a power of two long.
    entries: Vec<Entry<T>>,
    live: usize,
}

impl<T> Default for TxnTable<T> {
    fn default() -> Self {
        TxnTable {
            entries: Vec::new(),
            live: 0,
        }
    }
}

impl<T: Default> TxnTable<T> {
    /// An empty table; allocates nothing until the first insert.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live ids.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no id is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of entries allocated — the table's footprint. Tracks the
    /// widest live window seen, not the ids ever inserted.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// The entry `id` maps to. Index 0 of an empty table is out of
    /// range, so lookups there miss without a separate emptiness test.
    #[inline]
    fn index(&self, id: TxnId) -> usize {
        id.0 as u32 as usize & self.entries.len().wrapping_sub(1)
    }

    /// Whether `id` is live here.
    #[inline]
    pub fn contains(&self, id: TxnId) -> bool {
        self.get(id).is_some()
    }

    /// The value of the live id `id`.
    #[inline]
    pub fn get(&self, id: TxnId) -> Option<&T> {
        let e = self.entries.get(self.index(id))?;
        (e.owner == id).then_some(&e.val)
    }

    /// Mutable access to the value of the live id `id`.
    #[inline]
    pub fn get_mut(&mut self, id: TxnId) -> Option<&mut T> {
        let i = self.index(id);
        let e = self.entries.get_mut(i)?;
        (e.owner == id).then_some(&mut e.val)
    }

    /// Make `id` live with value `val`, returning the value it replaces
    /// if `id` was live already.
    ///
    /// # Panics
    /// If another live id agrees with `id` in all 32 low bits.
    pub fn insert(&mut self, id: TxnId, val: T) -> Option<T> {
        debug_assert!(id != VACANT, "the vacant sentinel cannot own an entry");
        let mut i = self.index(id);
        match self.entries.get(i) {
            Some(e) if e.owner == id => {
                return Some(std::mem::replace(&mut self.entries[i].val, val));
            }
            Some(e) if e.owner == VACANT => {}
            resident => {
                self.grow(id, resident.map(|e| e.owner));
                i = self.index(id);
            }
        }
        self.entries[i] = Entry { owner: id, val };
        self.live += 1;
        None
    }

    /// End `id`'s life and move its value out.
    #[inline]
    pub fn remove(&mut self, id: TxnId) -> Option<T> {
        let i = self.index(id);
        let e = self.entries.get_mut(i)?;
        if e.owner != id {
            return None;
        }
        e.owner = VACANT;
        self.live -= 1;
        Some(std::mem::take(&mut e.val))
    }

    /// The live `(id, value)` pairs in entry order. That order depends
    /// on the capacity the table happened to reach: sort before letting
    /// it influence anything observable.
    pub fn iter(&self) -> impl Iterator<Item = (TxnId, &T)> {
        self.entries
            .iter()
            .filter(|e| e.owner != VACANT)
            .map(|e| (e.owner, &e.val))
    }

    /// Make room for `id`, whose entry is held by the live id
    /// `resident` (`None`: the table is still empty): widen until the
    /// two separate and re-home every live entry. Live ids were
    /// pairwise distinct under the narrower mask, so they stay distinct
    /// under the wider one, and only `resident` shared `id`'s old
    /// entry, so one resize always suffices.
    #[cold]
    fn grow(&mut self, id: TxnId, resident: Option<TxnId>) {
        const INITIAL: usize = 8;
        let capacity = match resident {
            None => INITIAL,
            Some(other) => {
                let differ = (id.0 ^ other.0) as u32;
                assert!(
                    differ != 0,
                    "TxnTable: live ids {other} and {id} agree in all 32 low bits; \
                     no capacity separates them"
                );
                // Bit `k` is the lowest that differs: any mask covering
                // bits `0..=k` separates the two.
                1usize << (differ.trailing_zeros() + 1)
            }
        };
        let old = std::mem::take(&mut self.entries);
        self.entries.resize_with(capacity, || Entry {
            owner: VACANT,
            val: T::default(),
        });
        for e in old {
            if e.owner != VACANT {
                let i = self.index(e.owner);
                debug_assert!(self.entries[i].owner == VACANT);
                self.entries[i] = e;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t = TxnTable::new();
        assert_eq!(t.capacity(), 0);
        assert_eq!(t.get(TxnId(3)), None);
        assert_eq!(t.insert(TxnId(3), "a"), None);
        assert_eq!(t.insert(TxnId(4), "b"), None);
        assert_eq!(t.insert(TxnId(3), "c"), Some("a"));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(TxnId(3)), Some(&"c"));
        *t.get_mut(TxnId(4)).unwrap() = "d";
        assert_eq!(t.remove(TxnId(4)), Some("d"));
        assert_eq!(t.remove(TxnId(4)), None);
        assert!(!t.contains(TxnId(4)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn monotone_ids_form_a_ring_as_wide_as_the_live_window() {
        let mut t = TxnTable::new();
        const LIVE: u64 = 48;
        for id in 0..1_000_000u64 {
            t.insert(TxnId(id), id);
            if id >= LIVE {
                assert_eq!(t.remove(TxnId(id - LIVE)), Some(id - LIVE));
            }
        }
        assert_eq!(t.len(), LIVE as usize);
        assert_eq!(t.capacity(), 64, "width follows the window, not the ids");
    }

    #[test]
    fn stale_generation_on_the_same_entry_reads_absent() {
        let mut t = TxnTable::new();
        let (old, new) = (TxnId(5), TxnId((1 << 32) | 5));
        t.insert(old, 1);
        assert_eq!(t.remove(old), Some(1));
        t.insert(new, 2);
        assert_eq!(t.get(old), None);
        assert_eq!(t.remove(old), None);
        assert_eq!(t.get(new), Some(&2));
        assert_eq!(t.capacity(), 8, "a recycled slot needs no growth");
    }

    #[test]
    fn live_clash_doubles_until_the_ids_separate() {
        let mut t = TxnTable::new();
        t.insert(TxnId(1), "straggler");
        // 1 and 1 + 64 first differ in bit 6: capacity 128 separates.
        t.insert(TxnId(65), "newcomer");
        assert_eq!(t.capacity(), 128);
        assert_eq!(t.get(TxnId(1)), Some(&"straggler"));
        assert_eq!(t.get(TxnId(65)), Some(&"newcomer"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn iteration_yields_exactly_the_live_pairs() {
        let mut t = TxnTable::new();
        for id in [9u64, 2, 17, 4] {
            t.insert(TxnId(id), id * 10);
        }
        t.remove(TxnId(2));
        let mut seen: Vec<(TxnId, u64)> = t.iter().map(|(id, v)| (id, *v)).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![(TxnId(4), 40), (TxnId(9), 90), (TxnId(17), 170)]);
    }

    #[test]
    #[should_panic(expected = "agree in all 32 low bits")]
    fn inseparable_live_ids_panic_instead_of_looping() {
        let mut t = TxnTable::new();
        t.insert(TxnId(7), ());
        t.insert(TxnId((1 << 56) | 7), ());
    }
}
