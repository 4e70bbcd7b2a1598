//! The event queue at the heart of the discrete-event engine.
//!
//! Events are ordered by `(time, sequence)`: ties at the same instant are
//! delivered in scheduling order, which keeps runs deterministic.
//!
//! Internally the queue is a binary heap beside two *FIFO lanes*. An
//! event scheduled a constant delay after `now` is already in
//! `(time, seq)` order, because the clock is monotone: such events go
//! into a plain deque with O(1) push and pop. The *zero lane* takes
//! every event scheduled at `now` itself (zero-latency deliveries, the
//! mail a reconnect or a heal releases, crash replays). The *step lane*
//! takes the engine's dominant constant delay, registered with
//! [`EventQueue::set_fifo_lane`]: step events, one fixed service time
//! after each other. Together they are the bulk of simulation traffic,
//! so most events never touch the heap. Everything else (timed network
//! deliveries, timers, arrivals) goes into the heap, and a pop takes
//! whichever of the three fronts has the smallest key.
//!
//! Memory follows the live events. The heap and each lane is one
//! buffer, sized by the most events ever pending in it at once; a
//! drained burst leaves its buffer for the next one to reuse.

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

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

// Reversed on `(time, seq)`, so the max-heap pops the minimum. `seq`
// never repeats, so no two queued entries compare equal.
impl<E> Ord for Entry<E> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

impl<E> PartialOrd for Entry<E> {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Entry<E> {}

/// Which of the queue's three fronts holds the next event.
#[derive(Clone, Copy)]
enum Front {
    Heap,
    Zero,
    Step,
}

/// A deterministic future-event list with a monotone clock.
///
/// `EventQueue` is *pulled*: the simulation driver pops events and
/// dispatches them itself, which keeps protocol code free of callback
/// lifetimes. Popping advances the clock to the event's timestamp.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Events outside the lanes; the top is their minimum.
    heap: BinaryHeap<Entry<E>>,
    /// Zero-lane entries, scheduled at `now`: ascending by
    /// `(time, seq)` by construction, because `now` is monotone.
    zero: VecDeque<Entry<E>>,
    /// The registered step-lane delay, if any.
    step_delay: Option<SimDuration>,
    /// Step-lane entries, ascending by `(time, seq)` by construction:
    /// `now` is monotone and every entry was scheduled `step_delay`
    /// after it.
    step: VecDeque<Entry<E>>,
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
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            zero: VecDeque::new(),
            step_delay: None,
            step: VecDeque::new(),
            peak_len: 0,
            now: SimTime::ZERO,
            seq: 0,
        }
    }

    /// Register `delay` as the step lane: every subsequent
    /// [`EventQueue::schedule_after`] call with exactly this delay is
    /// appended to a dedicated deque instead of the heap. Because the
    /// clock never goes backwards and the delay is constant, the lane
    /// is sorted by construction: O(1) push and pop, no sift. Engines
    /// register their per-action service time, which dominates event
    /// traffic. A zero delay needs no registering: it always takes the
    /// zero lane. Safe to call at any point; pop order is unaffected.
    pub fn set_fifo_lane(&mut self, delay: SimDuration) {
        self.step_delay = Some(delay);
    }

    /// The current simulated time — the timestamp of the last event
    /// popped (or zero before any pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting.
    pub fn len(&self) -> usize {
        self.heap.len() + self.zero.len() + self.step.len()
    }

    /// Whether no events are waiting.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.zero.is_empty() && self.step.is_empty()
    }

    /// The most events that ever waited at once.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Allocated bytes the queue holds right now, live entries and
    /// spare capacity alike.
    #[doc(hidden)]
    pub fn retained_bytes(&self) -> usize {
        (self.heap.capacity() + self.zero.capacity() + self.step.capacity())
            * std::mem::size_of::<Entry<E>>()
    }

    /// The next tie-break sequence number; also counts the event.
    #[inline]
    fn next_seq(&mut self) -> u64 {
        debug_assert!(self.seq != u64::MAX, "event sequence counter overflow");
        let seq = self.seq;
        self.seq += 1;
        self.peak_len = self.peak_len.max(self.len() + 1);
        seq
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
        let time = at.max(self.now);
        let seq = self.next_seq();
        self.heap.push(Entry { time, seq, event });
    }

    /// Schedule `event` after `delay` from the current time: into the
    /// zero lane if `delay` is zero, the step lane if it is the
    /// registered delay, and the heap otherwise.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        let time = self.now + delay;
        let zero = delay == SimDuration::ZERO;
        if !zero && self.step_delay != Some(delay) {
            return self.schedule_at(time, event);
        }
        let seq = self.next_seq();
        let lane = if zero { &mut self.zero } else { &mut self.step };
        debug_assert!(
            lane.back().is_none_or(|b| b.key() < (time, seq)),
            "lane order violated"
        );
        lane.push_back(Entry { time, seq, event });
    }

    /// Timestamp of the next event, and which front holds it.
    #[inline]
    fn peek(&self) -> Option<(SimTime, Front)> {
        let mut next = self.heap.peek().map(|h| (h.key(), Front::Heap));
        for (lane, front) in [(&self.zero, Front::Zero), (&self.step, Front::Step)] {
            if let Some(l) = lane.front() {
                if next.is_none_or(|(key, _)| l.key() < key) {
                    next = Some((l.key(), front));
                }
            }
        }
        next.map(|((time, _), front)| (time, front))
    }

    /// Pop the front `peek` chose, advancing the clock to it.
    #[inline]
    fn take(&mut self, front: Front) -> (SimTime, E) {
        let entry = match front {
            Front::Heap => self.heap.pop(),
            Front::Zero => self.zero.pop_front(),
            Front::Step => self.step.pop_front(),
        }
        .expect("peeked front");
        self.now = entry.time;
        (entry.time, entry.event)
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (_, front) = self.peek()?;
        Some(self.take(front))
    }

    /// Pop the next event only if it occurs at or before `limit`.
    /// If the next event is later, the clock advances to `limit` and
    /// `None` is returned — used to cut a run off at a horizon.
    pub fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        match self.peek() {
            Some((time, front)) if time <= limit => Some(self.take(front)),
            _ => {
                self.now = self.now.max(limit);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use std::cmp::Reverse;

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
    fn counters_track_activity() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_at(SimTime(1), ());
        q.schedule_at(SimTime(2), ());
        q.schedule_after(SimDuration::ZERO, ());
        assert_eq!(q.len(), 3);
        q.pop();
        assert_eq!((q.len(), q.peak_len()), (2, 3));
    }

    /// Far-future events still pop in global `(time, seq)` order,
    /// interleaved with near events scheduled later.
    #[test]
    fn overflow_events_interleave_correctly() {
        let mut q = EventQueue::new();
        let far = SimTime(10_000_000); // ~10s
        q.schedule_at(far, "overflow-a");
        q.schedule_at(SimTime(100), "near");
        q.schedule_at(far, "overflow-b");
        q.schedule_at(far + SimDuration(1), "overflow-c");
        assert_eq!(q.pop().map(|(_, e)| e), Some("near"));
        // Ties at `far` keep schedule order.
        assert_eq!(q.pop(), Some((far, "overflow-a")));
        assert_eq!(q.pop(), Some((far, "overflow-b")));
        assert_eq!(q.pop(), Some((far + SimDuration(1), "overflow-c")));
        assert!(q.pop().is_none());
    }

    /// Scheduling near `now` after a large `pop_until` clock jump
    /// schedules from the new clock, and ordering holds across the jump.
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

    /// Lane events interleave with heap events in exact `(time, seq)`
    /// order, including ties at one instant.
    #[test]
    fn fifo_lane_interleaves_with_heap() {
        let mut q = EventQueue::new();
        q.set_fifo_lane(SimDuration(100));
        q.schedule_after(SimDuration(100), "lane-a"); // t=100 seq=0
        q.schedule_at(SimTime(100), "heap-tie"); // t=100 seq=1
        q.schedule_at(SimTime(50), "heap-early"); // t=50
        q.schedule_after(SimDuration(100), "lane-b"); // t=100 seq=3
        q.schedule_at(SimTime(10_000_000), "overflow"); // far future
        assert_eq!(q.pop().map(|(_, e)| e), Some("heap-early"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("lane-a"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("heap-tie"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("lane-b"));
        // After the pop at t=100, lane entries land at 200.
        q.schedule_after(SimDuration(100), "lane-c");
        assert_eq!(q.pop(), Some((SimTime(200), "lane-c")));
        assert_eq!(q.pop().map(|(_, e)| e), Some("overflow"));
        assert!(q.pop().is_none());
    }

    /// A zero-lane event, a `schedule_at(now)` heap tie and a step-lane
    /// event at one instant pop in scheduling order, also across
    /// `pop_until` horizon cuts at that instant and past it.
    #[test]
    fn three_fronts_at_one_instant_pop_in_schedule_order() {
        let mut q = EventQueue::new();
        q.set_fifo_lane(SimDuration(10));
        q.schedule_at(SimTime(10), "heap-0");
        q.schedule_after(SimDuration(10), "step-1");
        assert_eq!(q.pop(), Some((SimTime(10), "heap-0")));
        q.schedule_after(SimDuration::ZERO, "zero-2");
        q.schedule_at(SimTime(10), "heap-3");
        q.schedule_after(SimDuration::ZERO, "zero-4");
        q.schedule_after(SimDuration(10), "step-5"); // t=20
        let cut = |q: &mut EventQueue<_>, limit| {
            std::iter::from_fn(|| q.pop_until(SimTime(limit)))
                .map(|(_, e)| e)
                .collect::<Vec<_>>()
        };
        assert_eq!(cut(&mut q, 10), ["step-1", "zero-2", "heap-3", "zero-4"]);
        assert_eq!(q.now(), SimTime(10));
        q.schedule_after(SimDuration::ZERO, "zero-6");
        q.schedule_at(SimTime(10), "heap-7");
        q.schedule_after(SimDuration::ZERO, "zero-8");
        assert_eq!(cut(&mut q, 10), ["zero-6", "heap-7", "zero-8"]);
        assert!(cut(&mut q, 15).is_empty());
        assert_eq!(q.now(), SimTime(15));
        q.schedule_at(SimTime(15), "heap-9");
        q.schedule_after(SimDuration::ZERO, "zero-10");
        q.schedule_after(SimDuration(5), "heap-11"); // t=20, after step-5
        assert_eq!(cut(&mut q, 20), ["heap-9", "zero-10", "step-5", "heap-11"]);
        assert!(q.is_empty());
    }

    /// A lane-only queue still honours `pop_until` horizons, and
    /// near-`now` schedules afterwards start from the cut.
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
    /// interleaving of schedules (same-instant, near, far, both lanes),
    /// bursts of up to
    /// 4,096 events at one instant, descending-time runs beside a
    /// burst, pops, partial drains and horizon cuts must replay the
    /// model exactly.
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
                // sub-millisecond, sub-second, tens of seconds.
                0..=19 => {
                    let span = match rng.next_u64() % 6 {
                        0 => 0,
                        1 => rng.next_u64() % 1_000,
                        2 => rng.next_u64() % 500_000,
                        3 => rng.next_u64() % 30_000_000,
                        lane => {
                            // Through the zero lane or the step lane.
                            let delay = SimDuration(if lane == 4 { 0 } else { 1_000 });
                            let id = m.push(q.now() + delay);
                            q.schedule_after(delay, id);
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
                    for _ in 0..n {
                        q.schedule_after(delay, m.push(at));
                    }
                }
                // A reconnect-sized burst at one instant: now, within
                // milliseconds, within a second, seconds ahead.
                24 => {
                    let n = 1 + rng.next_u64() % (1 << (rng.next_u64() % 13));
                    let delay = SimDuration(match rng.next_u64() % 4 {
                        0 => 0,
                        1 => rng.next_u64() % 4_000,
                        2 => rng.next_u64() % 100_000,
                        _ => rng.next_u64() % 3_000_000,
                    });
                    burst_at = q.now() + delay;
                    for _ in 0..n {
                        q.schedule_after(delay, m.push(burst_at));
                    }
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

    /// A burst's memory is reused by the next: once one has drained, an
    /// equal burst leaves `retained_bytes` where the first one left it.
    /// Each burst lands in all three fronts: `n` events at a random
    /// delay, `n` at zero delay and one in the step lane.
    #[test]
    fn second_burst_reuses_the_first_bursts_memory() {
        let mut rng = SimRng::new(0xB0B5);
        for case in 0..200 {
            let mut q: EventQueue<u32> = EventQueue::new();
            q.set_fifo_lane(SimDuration(1_000));
            let n = 1 + rng.next_u64() % (1 << (rng.next_u64() % 13));
            let n = usize::try_from(n).unwrap();
            let delay = SimDuration(rng.next_u64() % 4_000);
            let burst = |q: &mut EventQueue<u32>| {
                for i in 0..n as u32 {
                    q.schedule_after(delay, i);
                    q.schedule_after(SimDuration::ZERO, i);
                }
                q.schedule_after(SimDuration(1_000), 0);
            };
            burst(&mut q);
            let first = q.retained_bytes();
            assert!(first >= (2 * n + 1) * std::mem::size_of::<Entry<u32>>());
            while q.pop().is_some() {}
            burst(&mut q);
            assert_eq!(
                q.retained_bytes(),
                first,
                "case {case}: {n} events retained {first} bytes, then {}",
                q.retained_bytes()
            );
            assert_eq!(q.peak_len(), 2 * n + 1);
        }
    }
}
