//! Property tests for [`TxnTable`]: under random insert / get / get_mut
//! / remove / contains / iterate it must behave like a
//! `BTreeMap<TxnId, _>`, for the ids a run mints and for the id
//! families that stress its owner check and its growth:
//!
//! * **monotone** — a counter that never reuses an id (every engine's
//!   ids); the live ids form a sliding window,
//! * **reused low bits** — `tag | generation | slot` with slot reuse;
//!   a dead id that shares its low 32 bits with a live one must read
//!   absent,
//! * **straggler + bursts** — monotone, but one id outlives bursts of
//!   short-lived ones: the table must grow while the straggler lives
//!   and keep answering correctly once the window narrows again,
//! * **congruent** — ids that agree modulo a small power of two, the
//!   worst case for a direct-mapped index.

use proptest::prelude::*;
use repl_storage::{TxnId, TxnTable};
use std::collections::BTreeMap;

/// The table under test beside its model, plus the ids that used to be
/// live (probing those is how the owner check gets exercised).
#[derive(Default)]
struct Checker {
    table: TxnTable<u64>,
    model: BTreeMap<TxnId, u64>,
    dead: Vec<TxnId>,
    /// Widest `newest − oldest + 1` over the live ids at any point.
    max_span: u64,
    /// Offset of the made-up ids [`Checker::some_id`] hands out, so
    /// they stay in the family's own range.
    base: u64,
}

impl Checker {
    fn insert(&mut self, id: TxnId, val: u64) {
        assert_eq!(self.table.insert(id, val), self.model.insert(id, val));
        self.after_birth(id);
    }

    fn after_birth(&mut self, id: TxnId) {
        self.dead.retain(|d| *d != id);
        let (lo, hi) = (
            self.model.keys().next().expect("just inserted").0,
            self.model.keys().next_back().expect("just inserted").0,
        );
        self.max_span = self.max_span.max(hi - lo + 1);
        assert_eq!(self.table.get(id), self.model.get(&id));
    }

    fn remove(&mut self, id: TxnId) {
        let want = self.model.remove(&id);
        assert_eq!(self.table.remove(id), want, "remove({id})");
        self.after_death(id, want.is_some());
    }

    fn after_death(&mut self, id: TxnId, was_live: bool) {
        if was_live {
            self.dead.push(id);
            if self.dead.len() > 64 {
                self.dead.remove(0);
            }
        }
        assert!(!self.table.contains(id));
    }

    /// Read `id` every way there is and compare with the model.
    fn probe(&mut self, id: TxnId, bump: u64) {
        assert_eq!(self.table.contains(id), self.model.contains_key(&id));
        assert_eq!(self.table.get(id), self.model.get(&id), "get({id})");
        match (self.table.get_mut(id), self.model.get_mut(&id)) {
            (Some(a), Some(b)) => {
                *a += bump;
                *b += bump;
            }
            (None, None) => {}
            (a, b) => panic!("get_mut({id}): table {a:?}, model {b:?}"),
        }
    }

    /// A live id, a once-live id, or a made-up one.
    fn some_id(&self, pick: u64) -> TxnId {
        let live = self.model.len() as u64;
        let dead = self.dead.len() as u64;
        match pick % 4 {
            0 | 1 if live > 0 => *self.model.keys().nth(((pick / 4) % live) as usize).unwrap(),
            2 if dead > 0 => self.dead[((pick / 4) % dead) as usize],
            _ => TxnId(self.base + pick / 4),
        }
    }

    fn oldest(&self, skip: Option<TxnId>) -> Option<TxnId> {
        self.model.keys().copied().find(|id| Some(*id) != skip)
    }

    /// Full agreement: length, iteration (as a set — entry order is
    /// unspecified), and absence of everything that died.
    fn check_all(&self) {
        assert_eq!(self.table.len(), self.model.len());
        assert_eq!(self.table.is_empty(), self.model.is_empty());
        let mut seen: Vec<(TxnId, u64)> = self.table.iter().map(|(id, v)| (id, *v)).collect();
        seen.sort_unstable();
        let want: Vec<(TxnId, u64)> = self.model.iter().map(|(id, v)| (*id, *v)).collect();
        assert_eq!(seen, want, "iteration disagrees with the model");
        for d in &self.dead {
            assert_eq!(self.table.get(*d), None, "dead id {d} still answers");
        }
    }

    /// Live ids `a` and `b` clash when they agree in their low `k`
    /// bits, which makes `|a − b| ≥ 2^k`, and the table then widens to
    /// `2^(k+1)`: the footprint never exceeds twice the widest live
    /// span (8 is the initial allocation).
    fn check_footprint(&self) {
        let bound = (2 * self.max_span).max(8) as usize;
        assert!(
            self.table.capacity() <= bound,
            "capacity {} exceeds twice the widest live span {}",
            self.table.capacity(),
            self.max_span
        );
    }
}

fn arb_ops() -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
    prop::collection::vec((0u8..12, 0u64..1_000_000, 0u64..1000), 1..400)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn monotone_ids_match_the_model(ops in arb_ops(), start in 0u64..5_000_000_000) {
        // `start` can sit beyond 2³²: only the low bits index.
        let mut c = Checker { base: start, ..Checker::default() };
        let mut next = start;
        for (kind, pick, val) in ops {
            match kind {
                0..=4 => { c.insert(TxnId(next), val); next += 1; }
                // Mostly retire the oldest, as a sliding window does.
                5..=7 => if let Some(id) = c.oldest(None) { c.remove(id) },
                8 => { let id = c.some_id(pick); c.remove(id); }
                9 => { let id = c.some_id(pick); c.insert(id, val); }
                _ => { let id = c.some_id(pick); c.probe(id, val); }
            }
            prop_assert_eq!(c.table.len(), c.model.len());
        }
        c.check_all();
        c.check_footprint();
    }

    #[test]
    fn reused_low_bit_ids_match_the_model(ops in arb_ops(), tag in 0u64..256) {
        let mut c = Checker::default();
        // Per-slot generation and a LIFO free list of slots.
        let mut gens: Vec<u64> = Vec::new();
        let mut free: Vec<u64> = Vec::new();
        let id_of = |slot: u64, gen: u64| TxnId((tag << 56) | ((gen & 0xff_ffff) << 32) | slot);
        for (kind, pick, val) in ops {
            match kind {
                0..=4 => {
                    let slot = free.pop().unwrap_or_else(|| {
                        gens.push(0);
                        gens.len() as u64 - 1
                    });
                    let gen = gens[slot as usize];
                    c.insert(id_of(slot, gen), val);
                    // Every earlier generation of the slot is stale.
                    if gen > 0 {
                        let stale = id_of(slot, gen - 1);
                        prop_assert_eq!(c.table.get(stale), None);
                        prop_assert!(c.table.remove(stale).is_none());
                        prop_assert!(c.table.contains(id_of(slot, gen)));
                    }
                }
                5..=8 => {
                    let live = c.model.len() as u64;
                    if live > 0 {
                        let id = *c.model.keys().nth((pick % live) as usize).unwrap();
                        c.remove(id);
                        let slot = id.0 & 0xffff_ffff;
                        gens[slot as usize] += 1;
                        free.push(slot);
                    }
                }
                _ => { let id = c.some_id(pick); c.probe(id, val); }
            }
            prop_assert_eq!(c.table.len(), c.model.len());
        }
        c.check_all();
        // Dense recycled slots: a flat slot array, never wider than
        // twice the slots ever opened.
        prop_assert!(c.table.capacity() <= (2 * gens.len()).max(8));
    }

    #[test]
    fn straggler_and_bursts_match_the_model(ops in arb_ops()) {
        let mut c = Checker::default();
        let mut next = 0u64;
        // The first id outlives everything until an op retires it.
        let mut straggler = Some(TxnId(next));
        c.insert(TxnId(next), 0);
        next += 1;
        for (kind, pick, val) in ops {
            match kind {
                // A burst of arrivals…
                0..=2 => for _ in 0..=pick % 40 { c.insert(TxnId(next), val); next += 1; },
                // …and of departures, oldest first, sparing the straggler.
                3..=5 => for _ in 0..=pick % 40 {
                    if let Some(id) = c.oldest(straggler) { c.remove(id) }
                },
                6 if pick % 8 == 0 => if let Some(id) = straggler.take() { c.remove(id) },
                6 | 7 => { let id = c.some_id(pick); c.remove(id); straggler = straggler.filter(|s| *s != id); }
                _ => { let id = c.some_id(pick); c.probe(id, val); }
            }
            prop_assert_eq!(c.table.len(), c.model.len());
            if let Some(s) = straggler {
                prop_assert!(c.table.contains(s), "the straggler was lost in a re-home");
            }
        }
        c.check_all();
        c.check_footprint();
    }

    #[test]
    fn congruent_ids_match_the_model(
        ops in arb_ops(),
        shift in 1u32..8,
        residue in 0u64..128,
    ) {
        // Every id is `residue mod 2^shift`: all of them land on one
        // entry until the table is wider than the modulus.
        let mut c = Checker::default();
        let id_of = |pick: u64| TxnId((residue % (1 << shift)) + ((pick % 96) << shift));
        for (kind, pick, val) in ops {
            match kind {
                0..=4 => c.insert(id_of(pick), val),
                5..=7 => c.remove(id_of(pick)),
                8 => { let id = c.some_id(pick); c.remove(id); }
                _ => { let id = c.some_id(pick); c.probe(id, val); c.probe(id_of(pick), val); }
            }
            prop_assert_eq!(c.table.len(), c.model.len());
        }
        c.check_all();
        c.check_footprint();
    }
}
