//! The event queue at the heart of the discrete-event engine.
//!
//! Events are ordered by `(time, sequence)`: ties at the same instant are
//! delivered in scheduling order, which keeps runs deterministic.
//!
//! Internally this is a *calendar queue* (a bucketed timing wheel with
//! an overflow list), not a binary heap. The engines schedule tens of
//! thousands of near-future events per simulated run, and a heap pays
//! `O(log n)` sift work on every operation; the calendar pays an index
//! computation plus (usually) a back-of-deque append on insert and a
//! `pop_front` on pop:
//!
//! - The wheel is [`NUM_BUCKETS`] ring slots of [`BUCKET_WIDTH_SHIFT`]
//!   microseconds each (~1s of horizon). An event at absolute time `t`
//!   lives in virtual bucket `t >> BUCKET_WIDTH_SHIFT`; the ring slot
//!   is that index masked, and a slot only ever holds entries of the
//!   single virtual bucket the cursor has not passed yet.
//! - Each bucket is a deque kept sorted ascending by `(time, seq)`, so
//!   the front is the bucket minimum. Inserts binary-search, with a
//!   push-back fast path for the common in-order case.
//! - Events beyond the wheel horizon (disconnect cycles, retry
//!   backoffs) wait in an unsorted `overflow` list whose minimum is
//!   tracked incrementally; whenever the cursor advances far enough
//!   that an overflow event fits the wheel, the fitting events are
//!   migrated into their buckets. The invariant — everything within
//!   `cursor + NUM_BUCKETS` virtual buckets is *in* the wheel — makes
//!   the first non-empty bucket at/after the cursor the global
//!   minimum, found by scanning a 4-word occupancy bitmap.
//!
//! The same-timestamp tiebreak (monotone `seq`) is part of the sort
//! key everywhere, so pop order is bit-for-bit identical to the old
//! binary heap: `(time, seq)` ascending.
//!
//! Memory follows the live events, not the history of bursts. A deque
//! never gives capacity back, and a reconnecting node's parked backlog
//! is delivered at one instant, into whichever slot `now` maps to; left
//! alone, every slot ends up holding a buffer as large as the largest
//! burst that ever hit it. So a slot that drains empty keeps its buffer
//! only up to `SLOT_KEEP` entries (steady traffic, reused every
//! rotation). A larger one is a burst's: it becomes the queue's single
//! *spare*, and the next slot about to grow adopts the spare instead of
//! allocating. The heap is then the live entries (times the deques'
//! doubling slack), a small buffer per slot, and at most one burst's
//! worth of spare. Overflow migration partitions its list in place, so
//! it allocates nothing either.
//!
//! One extra fast path: an engine can register its dominant constant
//! delay as a *FIFO lane* ([`EventQueue::set_fifo_lane`]). The clock is
//! monotone and the delay constant, so events scheduled `delay` after
//! `now` are already in `(time, seq)` order — they go into a plain
//! deque with O(1) push and pop, skipping the wheel entirely. Step
//! events (one fixed service time after each other) are the bulk of
//! simulation traffic, so most events never touch a bucket.

use crate::time::{SimDuration, SimTime};
use std::cell::Cell;
use std::collections::VecDeque;

/// Ring slots in the wheel. Power of two so the slot mask is an AND.
const NUM_BUCKETS: usize = 256;
/// log2 of one bucket's width in microseconds (4.096ms). The engines'
/// step and network delays are millisecond-scale, so a ~1s horizon
/// (`NUM_BUCKETS << BUCKET_WIDTH_SHIFT`) keeps virtually all traffic
/// on the wheel; only second-scale timers touch the overflow list.
const BUCKET_WIDTH_SHIFT: u32 = 12;
const SLOT_MASK: u64 = (NUM_BUCKETS as u64) - 1;
const OCC_WORDS: usize = NUM_BUCKETS / 64;
/// Bytes of buffer a drained slot may keep. Steady traffic stays under
/// it, so a slot's buffer is reused every rotation; only a burst's
/// buffer exceeds it.
const SLOT_KEEP_BYTES: usize = 4096;

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// Virtual bucket index of an absolute timestamp.
#[inline]
fn bucket_index(t: SimTime) -> u64 {
    t.0 >> BUCKET_WIDTH_SHIFT
}

/// A deterministic future-event list with a monotone clock.
///
/// `EventQueue` is *pulled*: the simulation driver pops events and
/// dispatches them itself, which keeps protocol code free of callback
/// lifetimes. Popping advances the clock to the event's timestamp.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Ring of sorted buckets (front = minimum).
    buckets: Vec<VecDeque<Entry<E>>>,
    /// One bit per slot: set iff the slot is non-empty.
    occupied: [u64; OCC_WORDS],
    /// Virtual bucket index the cursor is draining. Monotone; stays
    /// `<= bucket_index(now)`, and events cannot be scheduled in the
    /// past, so nothing ever lands behind it.
    cursor: u64,
    /// Events at or beyond the wheel horizon, unsorted.
    overflow: Vec<Entry<E>>,
    /// `(bucket_index, time, seq)` of the overflow minimum, or
    /// `(u64::MAX, ..)` when the overflow list is empty.
    overflow_min: (u64, SimTime, u64),
    /// The one oversized buffer a drained slot left behind (always
    /// empty; its capacity is the point). The next slot about to grow
    /// adopts it, so a burst's memory moves to wherever the next burst
    /// lands instead of staying with every slot a burst ever hit.
    spare: VecDeque<Entry<E>>,
    /// Number of events waiting (wheel + overflow).
    len: usize,
    /// Largest `len` ever reached.
    peak_len: usize,
    now: SimTime,
    /// Tie-break sequence for same-instant events. Monotone, never
    /// recycled. Overflow note: a `u64` at 10⁹ events per wall-clock
    /// second would take ~584 years to wrap, so no release-mode
    /// branch is spent on it; debug builds assert (see
    /// [`EventQueue::schedule_at`]) so a hypothetical wrap cannot
    /// silently corrupt event ordering.
    seq: u64,
    /// The registered FIFO-lane delay, if any.
    lane_delay: Option<SimDuration>,
    /// Lane entries, ascending by `(time, seq)` by construction:
    /// `now` is monotone and every entry was scheduled `lane_delay`
    /// after it.
    lane: VecDeque<Entry<E>>,
    /// Memoized `(time, seq)` of the wheel/overflow minimum, so the
    /// lane-vs-wheel comparison on every pop costs one load instead of
    /// an occupancy-bitmap scan. Kept exact by `place` (a smaller key
    /// lowers it) and invalidated to [`WheelMin::DIRTY`] by wheel pops
    /// and migrations; `wheel_peek_key` recomputes on demand, through
    /// `&self` — hence the `Cell`.
    wheel_min: Cell<WheelMin>,
}

/// Cached wheel/overflow minimum: a key, [`WheelMin::EMPTY`], or
/// [`WheelMin::DIRTY`] (unknown, recompute by scanning).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WheelMin(SimTime, u64);

impl WheelMin {
    /// No events outside the lane.
    const EMPTY: WheelMin = WheelMin(SimTime(u64::MAX), u64::MAX);
    /// Cache invalid; scan to recompute.
    const DIRTY: WheelMin = WheelMin(SimTime(u64::MAX), u64::MAX - 1);
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// [`SLOT_KEEP_BYTES`] in entries.
    const SLOT_KEEP: usize = SLOT_KEEP_BYTES / std::mem::size_of::<Entry<E>>();

    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            buckets: (0..NUM_BUCKETS).map(|_| VecDeque::new()).collect(),
            occupied: [0; OCC_WORDS],
            cursor: 0,
            overflow: Vec::new(),
            overflow_min: (u64::MAX, SimTime::ZERO, 0),
            spare: VecDeque::new(),
            len: 0,
            peak_len: 0,
            now: SimTime::ZERO,
            seq: 0,
            lane_delay: None,
            lane: VecDeque::new(),
            wheel_min: Cell::new(WheelMin::EMPTY),
        }
    }

    /// Register `delay` as the FIFO lane: every subsequent
    /// [`EventQueue::schedule_after`] call with exactly this delay is
    /// appended to a dedicated deque instead of the wheel. Because the
    /// clock never goes backwards and the delay is constant, the lane
    /// is sorted by construction — O(1) push and pop, no bucket
    /// search. Engines register their per-action service time, which
    /// dominates event traffic. Safe to call at any point; pop order
    /// is unaffected.
    pub fn set_fifo_lane(&mut self, delay: SimDuration) {
        self.lane_delay = Some(delay);
    }

    /// The current simulated time — the timestamp of the last event
    /// popped (or zero before any pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are waiting.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The most events that ever waited at once.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Heap bytes the queue holds right now, live entries and spare
    /// capacity alike. Walks every slot: for tests and end-of-run
    /// gauges, not for the event loop.
    #[doc(hidden)]
    pub fn retained_bytes(&self) -> usize {
        let entries = self.buckets.iter().map(VecDeque::capacity).sum::<usize>()
            + self.spare.capacity()
            + self.lane.capacity()
            + self.overflow.capacity();
        entries * std::mem::size_of::<Entry<E>>()
            + self.buckets.capacity() * std::mem::size_of::<VecDeque<Entry<E>>>()
    }

    /// Count a newly scheduled event.
    #[inline]
    fn count_one(&mut self) {
        self.len += 1;
        self.peak_len = self.peak_len.max(self.len);
    }

    /// First occupied slot in ring order starting at the cursor's
    /// slot, or `None` if the wheel is empty. Ring order from the
    /// cursor is exactly ascending virtual-bucket order thanks to the
    /// wheel invariant.
    fn next_occupied_slot(&self) -> Option<usize> {
        let start = (self.cursor & SLOT_MASK) as usize;
        let (sw, sb) = (start / 64, start % 64);
        let first = self.occupied[sw] & (!0u64 << sb);
        if first != 0 {
            return Some(sw * 64 + first.trailing_zeros() as usize);
        }
        for i in 1..=OCC_WORDS {
            let w = (sw + i) % OCC_WORDS;
            let word = if w == sw {
                // Wrapped all the way around: the bits below the start.
                self.occupied[w] & !(!0u64 << sb)
            } else {
                self.occupied[w]
            };
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Virtual bucket index of an occupied `slot`, relative to the
    /// cursor.
    #[inline]
    fn virtual_of(&self, slot: usize) -> u64 {
        let delta = (slot as u64).wrapping_sub(self.cursor) & SLOT_MASK;
        self.cursor + delta
    }

    fn place(&mut self, entry: Entry<E>) {
        let key = entry.key();
        let idx = bucket_index(entry.time);
        debug_assert!(idx >= self.cursor, "event scheduled behind the cursor");
        if idx - self.cursor < NUM_BUCKETS as u64 {
            let slot = (idx & SLOT_MASK) as usize;
            let bucket = &mut self.buckets[slot];
            if bucket.len() == bucket.capacity() && self.spare.capacity() > bucket.capacity() {
                // About to grow: move into the buffer the last burst
                // left behind instead of allocating another.
                let mut roomy = std::mem::take(&mut self.spare);
                roomy.extend(bucket.drain(..));
                *bucket = roomy;
            }
            // Sorted insert with a push-back fast path: bursts and
            // monotone schedules (the overwhelmingly common case) never
            // search.
            match bucket.back() {
                Some(last) if last.key() > entry.key() => {
                    // Keys are unique (`seq` never repeats), so the
                    // search always misses and `Err` is the insert
                    // position.
                    let at = bucket
                        .binary_search_by(|e| e.key().cmp(&entry.key()))
                        .unwrap_err();
                    bucket.insert(at, entry);
                }
                _ => bucket.push_back(entry),
            }
            self.occupied[slot / 64] |= 1u64 << (slot % 64);
        } else {
            if (idx, entry.time, entry.seq) < self.overflow_min {
                self.overflow_min = (idx, entry.time, entry.seq);
            }
            self.overflow.push(entry);
        }
        self.count_one();
        // A smaller key lowers the cached minimum; a dirty cache stays
        // dirty (the next peek rescans anyway). Migration re-places
        // overflow entries, whose keys are already accounted for, so
        // re-running this is a harmless no-op.
        let cached = self.wheel_min.get();
        if cached != WheelMin::DIRTY && key < (cached.0, cached.1) {
            self.wheel_min.set(WheelMin(key.0, key.1));
        }
    }

    /// Pull every overflow event that now fits the wheel horizon into
    /// its bucket, restoring the invariant after a cursor advance.
    /// Rare (second-scale timers only), so the linear re-scan of the
    /// remainder is cheap.
    #[cold]
    fn migrate_overflow(&mut self) {
        let horizon = self.cursor + NUM_BUCKETS as u64;
        self.overflow_min = (u64::MAX, SimTime::ZERO, 0);
        // Partitioned in place: the events that stay never move to a
        // second list, so migration allocates nothing. `swap_remove`
        // reorders the remainder, which is unsorted anyway.
        let mut i = 0;
        while i < self.overflow.len() {
            let entry = &self.overflow[i];
            let idx = bucket_index(entry.time);
            if idx < horizon {
                let entry = self.overflow.swap_remove(i);
                self.len -= 1; // `place` re-counts it
                self.place(entry);
            } else {
                let key = (idx, entry.time, entry.seq);
                if key < self.overflow_min {
                    self.overflow_min = key;
                }
                i += 1;
            }
        }
    }

    #[inline]
    fn advance_cursor(&mut self, to: u64) {
        self.cursor = to;
        if self.overflow_min.0 < self.cursor + NUM_BUCKETS as u64 {
            self.migrate_overflow();
        }
    }

    /// Schedule `event` at the absolute time `at`. Scheduling in the past
    /// is a logic error; the event is clamped to `now` in release builds
    /// and panics in debug builds.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        debug_assert!(self.seq != u64::MAX, "event sequence counter overflow");
        let time = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.place(Entry { time, seq, event });
    }

    /// Schedule `event` after `delay` from the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        if self.lane_delay == Some(delay) {
            debug_assert!(self.seq != u64::MAX, "event sequence counter overflow");
            let entry = Entry {
                time: self.now + delay,
                seq: self.seq,
                event,
            };
            debug_assert!(
                self.lane.back().is_none_or(|b| b.key() < entry.key()),
                "lane order violated"
            );
            self.seq += 1;
            self.count_one();
            self.lane.push_back(entry);
            return;
        }
        self.schedule_at(self.now + delay, event);
    }

    /// Schedule a burst of events `delay` after the current time.
    /// Events keep their iterator order at the shared instant (each
    /// gets the next tie-break sequence number), exactly as if
    /// [`EventQueue::schedule_after`] had been called per event — and
    /// after the first insert the rest of the burst hits the sorted
    /// bucket's push-back fast path.
    pub fn schedule_batch_after(
        &mut self,
        delay: SimDuration,
        events: impl IntoIterator<Item = E>,
    ) {
        let time = self.now + delay;
        for event in events {
            debug_assert!(self.seq != u64::MAX, "event sequence counter overflow");
            let seq = self.seq;
            self.seq += 1;
            self.place(Entry { time, seq, event });
        }
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        if let Some(front) = self.lane.front() {
            let wheel_beats = matches!(self.wheel_peek_key(), Some(w) if w < front.key());
            if !wheel_beats {
                return Some(self.pop_lane());
            }
        }
        self.pop_wheel()
    }

    /// Pop the lane front. Caller guarantees the lane is non-empty and
    /// its front is the global minimum.
    #[inline]
    fn pop_lane(&mut self) -> (SimTime, E) {
        let entry = self.lane.pop_front().expect("lane entry");
        self.now = entry.time;
        self.len -= 1;
        let idx = bucket_index(entry.time);
        if idx > self.cursor {
            // Safe: every wheel and overflow key exceeds the popped
            // lane key, so no bucket before `idx` holds anything — and
            // keeping the cursor near `now` keeps future schedules on
            // the wheel.
            self.advance_cursor(idx);
        }
        (entry.time, entry.event)
    }

    /// Pop the wheel/overflow minimum. Caller guarantees at least one
    /// event lives outside the lane.
    fn pop_wheel(&mut self) -> Option<(SimTime, E)> {
        debug_assert!(self.len > self.lane.len());
        loop {
            let Some(slot) = self.next_occupied_slot() else {
                // Wheel empty but events remain: they are all in
                // overflow. Jump the cursor to the overflow minimum's
                // bucket; `advance_cursor` migrates it in.
                debug_assert!(!self.overflow.is_empty());
                self.advance_cursor(self.overflow_min.0);
                continue;
            };
            let v = self.virtual_of(slot);
            if v > self.cursor {
                // Advancing may migrate overflow events in, but only
                // from beyond the old horizon — all later than `v` —
                // so the found slot stays the minimum; loop anyway for
                // robustness.
                self.advance_cursor(v);
                continue;
            }
            let bucket = &mut self.buckets[slot];
            let entry = bucket.pop_front().expect("occupied slot");
            debug_assert!(
                self.wheel_min.get() == WheelMin::DIRTY
                    || (self.wheel_min.get().0, self.wheel_min.get().1) == entry.key(),
                "stale wheel-min cache"
            );
            // The drained bucket is the minimal one, so its new front —
            // if any — is the exact new wheel/overflow minimum.
            match bucket.front() {
                Some(next) => self.wheel_min.set(WheelMin(next.time, next.seq)),
                None => {
                    self.occupied[slot / 64] &= !(1u64 << (slot % 64));
                    self.wheel_min.set(WheelMin::DIRTY);
                    if bucket.capacity() > Self::SLOT_KEEP {
                        // A burst's buffer: the slot gives it up, and
                        // the queue keeps the largest one for the next
                        // slot that has to grow.
                        let buffer = std::mem::take(bucket);
                        if buffer.capacity() > self.spare.capacity() {
                            self.spare = buffer;
                        }
                    } else {
                        // Empty, so this only moves the ring's start
                        // back to offset 0: the next fill is contiguous.
                        bucket.clear();
                    }
                }
            }
            self.now = entry.time;
            self.len -= 1;
            return Some((entry.time, entry.event));
        }
    }

    /// Pop the next event only if it occurs at or before `limit`.
    /// If the next event is later, the clock advances to `limit` and
    /// `None` is returned — used to cut a run off at a horizon. The
    /// lane-vs-wheel choice is made once and shared by the horizon
    /// test and the pop (this is the main loop's per-event call, so it
    /// does not pay a peek *and* a pop).
    pub fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        let lane_key = self.lane.front().map(Entry::key);
        let wheel_key = self.wheel_peek_key();
        let (key, from_lane) = match (lane_key, wheel_key) {
            (Some(l), Some(w)) => {
                if w < l {
                    (w, false)
                } else {
                    (l, true)
                }
            }
            (Some(l), None) => (l, true),
            (None, Some(w)) => (w, false),
            (None, None) => ((SimTime(u64::MAX), u64::MAX), true),
        };
        if self.len == 0 || key.0 > limit {
            if self.now < limit {
                self.now = limit;
                // Every bucket strictly before `limit`'s could only
                // hold events `<= limit`, so they are all empty and
                // the cursor may skip ahead, re-arming the horizon
                // for future near-`now` schedules.
                let idx = bucket_index(limit);
                if idx > self.cursor {
                    self.advance_cursor(idx);
                }
            }
            return None;
        }
        if from_lane {
            Some(self.pop_lane())
        } else {
            self.pop_wheel()
        }
    }

    /// `(time, seq)` of the wheel/overflow minimum, ignoring the lane.
    /// Served from the memoized minimum when clean; a dirty cache pays
    /// one occupancy-bitmap scan and is refreshed for the next caller.
    fn wheel_peek_key(&self) -> Option<(SimTime, u64)> {
        let cached = self.wheel_min.get();
        if cached != WheelMin::DIRTY {
            return (cached != WheelMin::EMPTY).then_some((cached.0, cached.1));
        }
        let key = match self.next_occupied_slot() {
            // The wheel minimum beats any overflow event by the wheel
            // invariant (overflow buckets lie beyond the horizon).
            Some(slot) => self.buckets[slot].front().map(Entry::key),
            None if self.len > self.lane.len() => Some((self.overflow_min.1, self.overflow_min.2)),
            None => None,
        };
        self.wheel_min
            .set(key.map_or(WheelMin::EMPTY, |k| WheelMin(k.0, k.1)));
        key
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(30), "c");
        q.schedule_at(SimTime(10), "a");
        q.schedule_at(SimTime(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(SimTime(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(42), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime(42));
    }

    #[test]
    fn schedule_after_uses_current_time() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(100), 1);
        q.pop();
        q.schedule_after(SimDuration(50), 2);
        let (t, e) = q.pop().unwrap();
        assert_eq!((t, e), (SimTime(150), 2));
    }

    #[test]
    fn pop_until_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(10), "early");
        q.schedule_at(SimTime(99), "late");
        assert_eq!(q.pop_until(SimTime(50)).map(|(_, e)| e), Some("early"));
        assert_eq!(q.pop_until(SimTime(50)), None);
        // Clock was advanced to the horizon.
        assert_eq!(q.now(), SimTime(50));
        // The late event is still there.
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn batch_schedule_preserves_order_and_counters() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(5), 100);
        q.schedule_batch_after(SimDuration(5), [101, 102, 103]);
        q.schedule_batch_after(SimDuration(5), [104]);
        assert_eq!(q.len(), 5);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        // Batched events interleave with singles by schedule order.
        assert_eq!(order, vec![100, 101, 102, 103, 104]);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule_batch_after(SimDuration(1), std::iter::empty());
        assert!(q.is_empty());
    }

    #[test]
    fn counters_track_activity() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_at(SimTime(1), ());
        q.schedule_at(SimTime(2), ());
        assert_eq!(q.len(), 2);
    }

    // -- calendar-specific coverage: the wheel must behave exactly
    // like the old heap at every horizon boundary.

    /// Events far beyond the wheel horizon (the overflow path) still
    /// pop in global `(time, seq)` order, interleaved with wheel
    /// events scheduled later.
    #[test]
    fn overflow_events_interleave_correctly() {
        let mut q = EventQueue::new();
        let far = SimTime(10_000_000); // ~10s: well past the horizon
        q.schedule_at(far, "overflow-a");
        q.schedule_at(SimTime(100), "near");
        q.schedule_at(far, "overflow-b");
        q.schedule_at(far + SimDuration(1), "overflow-c");
        assert_eq!(q.pop().map(|(_, e)| e), Some("near"));
        // After draining the wheel the cursor jumps to the overflow
        // minimum and migrates; ties at `far` keep schedule order.
        assert_eq!(q.pop(), Some((far, "overflow-a")));
        assert_eq!(q.pop(), Some((far, "overflow-b")));
        assert_eq!(q.pop(), Some((far + SimDuration(1), "overflow-c")));
        assert!(q.pop().is_none());
    }

    /// Scheduling near `now` after a large `pop_until` clock jump must
    /// land on the wheel (the cursor re-arms), and ordering holds
    /// across the jump.
    #[test]
    fn horizon_jump_then_near_schedule() {
        let mut q = EventQueue::new();
        let far = SimTime(50_000_000);
        q.schedule_at(far, "sentinel");
        assert_eq!(q.pop_until(SimTime(40_000_000)), None);
        assert_eq!(q.now(), SimTime(40_000_000));
        q.schedule_after(SimDuration(10), "soon");
        assert_eq!(q.pop().map(|(_, e)| e), Some("soon"));
        assert_eq!(q.pop(), Some((far, "sentinel")));
    }

    /// Lane events interleave with wheel and overflow events in exact
    /// `(time, seq)` order, including ties at one instant.
    #[test]
    fn fifo_lane_interleaves_with_wheel() {
        let mut q = EventQueue::new();
        q.set_fifo_lane(SimDuration(100));
        q.schedule_after(SimDuration(100), "lane-a"); // t=100 seq=0
        q.schedule_at(SimTime(100), "wheel-tie"); // t=100 seq=1
        q.schedule_at(SimTime(50), "wheel-early"); // t=50
        q.schedule_after(SimDuration(100), "lane-b"); // t=100 seq=3
        q.schedule_at(SimTime(10_000_000), "overflow"); // far future
        assert_eq!(q.pop().map(|(_, e)| e), Some("wheel-early"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("lane-a"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("wheel-tie"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("lane-b"));
        // After the pop at t=100, lane entries land at 200.
        q.schedule_after(SimDuration(100), "lane-c");
        assert_eq!(q.pop(), Some((SimTime(200), "lane-c")));
        assert_eq!(q.pop().map(|(_, e)| e), Some("overflow"));
        assert!(q.pop().is_none());
    }

    /// A lane-only queue still honours `pop_until` horizons and
    /// re-arms the wheel cursor for near-`now` schedules afterwards.
    #[test]
    fn fifo_lane_with_horizon_cuts() {
        let mut q = EventQueue::new();
        q.set_fifo_lane(SimDuration(7));
        q.schedule_after(SimDuration(7), 1u32);
        assert_eq!(q.pop_until(SimTime(3)), None);
        assert_eq!(q.now(), SimTime(3));
        assert_eq!(q.pop_until(SimTime(10)), Some((SimTime(7), 1)));
        q.schedule_after(SimDuration(7), 2);
        q.schedule_at(SimTime(13), 3);
        assert_eq!(q.pop(), Some((SimTime(13), 3)));
        assert_eq!(q.pop(), Some((SimTime(14), 2)));
    }

    /// The reference model: a binary heap of `(time, seq, id)`, which is
    /// the order the queue promises.
    struct Model {
        heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
        seq: u64,
        next_id: u32,
    }

    impl Model {
        /// Record one scheduled event; returns the id to schedule.
        fn push(&mut self, at: SimTime) -> u32 {
            let id = self.next_id;
            self.heap.push(Reverse((at, self.seq, id)));
            self.seq += 1;
            self.next_id += 1;
            id
        }

        /// Pop the queue once and require the model's next event.
        fn check_pop(&mut self, q: &mut EventQueue<u32>, step: u32) {
            let want = self.heap.pop().map(|Reverse((t, _, id))| (t, id));
            assert_eq!(q.pop(), want, "step {step}");
        }
    }

    /// Randomized differential test against the reference model: a long
    /// interleaving of schedules (near, far, lane), bursts of up to
    /// 4,096 events at one instant, descending-time runs that take the
    /// sorted-insert path inside a burst-sized slot, pops, partial
    /// drains and horizon cuts must replay the model exactly.
    #[test]
    fn matches_reference_model_on_random_workload() {
        let mut rng = SimRng::new(0xCA1E_0D1E);
        let mut q: EventQueue<u32> = EventQueue::new();
        q.set_fifo_lane(SimDuration(1_000));
        let mut m = Model {
            heap: BinaryHeap::new(),
            seq: 0,
            next_id: 0,
        };
        // The instant of the latest burst, for the descending runs.
        let mut burst_at = SimTime::ZERO;
        for step in 0..20_000u32 {
            match rng.next_u64() % 40 {
                // Mostly schedules with a mix of spans: same-instant,
                // sub-bucket, cross-bucket, cross-horizon.
                0..=19 => {
                    let span = match rng.next_u64() % 5 {
                        0 => 0,
                        1 => rng.next_u64() % 1_000,
                        2 => rng.next_u64() % 500_000,
                        3 => rng.next_u64() % 30_000_000,
                        _ => {
                            // Through the registered FIFO lane.
                            let id = m.push(q.now() + SimDuration(1_000));
                            q.schedule_after(SimDuration(1_000), id);
                            continue;
                        }
                    };
                    let at = q.now() + SimDuration(span);
                    let id = m.push(at);
                    q.schedule_at(at, id);
                }
                20..=23 => {
                    let n = rng.next_u64() % 5;
                    let delay = SimDuration(rng.next_u64() % 2_000_000);
                    let at = q.now() + delay;
                    let ids: Vec<u32> = (0..n).map(|_| m.push(at)).collect();
                    q.schedule_batch_after(delay, ids);
                }
                // A reconnect-sized burst at one instant: now, inside
                // the current slot, a few slots ahead, past the wheel.
                24 => {
                    let n = 1 + rng.next_u64() % (1 << (rng.next_u64() % 13));
                    let delay = SimDuration(match rng.next_u64() % 4 {
                        0 => 0,
                        1 => rng.next_u64() % 4_000,
                        2 => rng.next_u64() % 100_000,
                        _ => rng.next_u64() % 3_000_000,
                    });
                    burst_at = q.now() + delay;
                    let ids: Vec<u32> = (0..n).map(|_| m.push(burst_at)).collect();
                    q.schedule_batch_after(delay, ids);
                }
                // A descending-time run beside the latest burst: every
                // insert lands ahead of the one before, and the early
                // ones ahead of the burst itself.
                25 => {
                    let n = 1 + rng.next_u64() % 200;
                    for back in 0..n {
                        let at = SimTime((burst_at.0 + n / 2).saturating_sub(back));
                        let at = at.max(q.now());
                        let id = m.push(at);
                        q.schedule_at(at, id);
                    }
                }
                // Drain part of whatever has piled up.
                26..=27 => {
                    for _ in 0..rng.next_u64() % 6_000 {
                        m.check_pop(&mut q, step);
                    }
                }
                28..=35 => m.check_pop(&mut q, step),
                _ => {
                    let limit = q.now() + SimDuration(rng.next_u64() % 1_000_000);
                    let got = q.pop_until(limit);
                    match m.heap.peek().copied() {
                        Some(Reverse((t, _, id))) if t <= limit => {
                            m.heap.pop();
                            assert_eq!(got, Some((t, id)), "step {step}");
                        }
                        _ => {
                            assert_eq!(got, None, "step {step}");
                            assert_eq!(q.now(), limit, "step {step}");
                        }
                    }
                }
            }
            assert_eq!(q.len(), m.heap.len(), "step {step}");
        }
        assert!(q.peak_len() > 4_096, "no burst piled up");
        // Drain everything left and verify the tail order.
        while !m.heap.is_empty() {
            m.check_pop(&mut q, u32::MAX);
        }
        assert!(q.pop().is_none());
    }

    /// A burst's memory moves with the bursts: once one has drained, an
    /// equal burst into a different slot reuses what the first left
    /// behind instead of growing the queue. (A buffer of at most
    /// `SLOT_KEEP` entries is steady traffic's and stays with its slot.)
    #[test]
    fn second_burst_reuses_the_first_bursts_memory() {
        let mut rng = SimRng::new(0xB0B5);
        for case in 0..200 {
            let mut q: EventQueue<u32> = EventQueue::new();
            q.set_fifo_lane(SimDuration(1_000));
            let n = 1 + rng.next_u64() % (1 << (rng.next_u64() % 13));
            let n = usize::try_from(n).unwrap();
            q.schedule_batch_after(SimDuration(rng.next_u64() % 4_000), 0..n as u32);
            q.schedule_after(SimDuration(1_000), 0);
            let first = q.retained_bytes();
            assert!(first >= n * std::mem::size_of::<Entry<u32>>());
            while q.pop().is_some() {}
            // At least one slot further on, still on the wheel.
            let delay = SimDuration(8_192 + rng.next_u64() % 900_000);
            q.schedule_batch_after(delay, 0..n as u32);
            let kept = if n > EventQueue::<u32>::SLOT_KEEP {
                0
            } else {
                SLOT_KEEP_BYTES
            };
            assert!(
                q.retained_bytes() <= first + kept,
                "case {case}: {n} events retained {first} bytes, then {}",
                q.retained_bytes()
            );
            assert_eq!(q.peak_len(), n + 1);
        }
    }
}
