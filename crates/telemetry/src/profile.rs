//! Wall-clock profiling of event-loop phases (`--profile`).
//!
//! Unlike the event stream — which lives in simulated time — the
//! profiler measures *real* time spent in each engine phase, so it
//! answers "where does a run's wall-clock go", not "what did the
//! simulated system do". It also carries the one host-side gauge a run
//! reports at its end: how deep its event queue got and how much heap
//! the queue held.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Accumulated wall-clock cost of one named phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct PhaseStat {
    /// Number of timed entries.
    pub calls: u64,
    /// Total wall-clock time.
    pub total: Duration,
}

/// What an enabled profiler accumulates over the runs it is attached
/// to.
#[derive(Default, Debug)]
struct Collected {
    phases: HashMap<&'static str, PhaseStat>,
    /// Largest event-queue depth any run reached.
    queue_peak_len: usize,
    /// Largest event-queue heap footprint any run ended with, in bytes.
    queue_retained_bytes: usize,
}

/// A cheap, cloneable wall-clock profiler. Disabled (`off`) it holds
/// no state and [`Profiler::start`] returns `None` without reading the
/// clock.
#[derive(Clone, Default, Debug)]
pub struct Profiler {
    collected: Option<Rc<RefCell<Collected>>>,
}

impl Profiler {
    /// The zero-cost default.
    pub fn off() -> Self {
        Profiler::default()
    }

    /// An enabled profiler.
    pub fn enabled() -> Self {
        Profiler {
            collected: Some(Rc::default()),
        }
    }

    /// True if timing is collected.
    pub fn is_enabled(&self) -> bool {
        self.collected.is_some()
    }

    /// Start timing a phase; pass the token to [`Profiler::stop`].
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        self.collected.as_ref().map(|_| Instant::now())
    }

    /// Stop timing `phase` (no-op when disabled).
    #[inline]
    pub fn stop(&self, phase: &'static str, started: Option<Instant>) {
        if let (Some(collected), Some(started)) = (&self.collected, started) {
            let mut collected = collected.borrow_mut();
            let stat = collected.phases.entry(phase).or_default();
            stat.calls += 1;
            stat.total += started.elapsed();
        }
    }

    /// Time a closure as one phase entry.
    #[inline]
    pub fn scope<T>(&self, phase: &'static str, f: impl FnOnce() -> T) -> T {
        let token = self.start();
        let out = f();
        self.stop(phase, token);
        out
    }

    /// A run ended having had at most `peak_len` events queued at once,
    /// its event queue holding `retained_bytes` of heap (no-op when
    /// disabled). The report keeps the largest of each.
    pub fn note_queue(&self, peak_len: usize, retained_bytes: usize) {
        if let Some(collected) = &self.collected {
            let mut c = collected.borrow_mut();
            c.queue_peak_len = c.queue_peak_len.max(peak_len);
            c.queue_retained_bytes = c.queue_retained_bytes.max(retained_bytes);
        }
    }

    /// Snapshot of all phases, sorted by descending total time.
    pub fn stats(&self) -> Vec<(&'static str, PhaseStat)> {
        let Some(collected) = &self.collected else {
            return Vec::new();
        };
        let mut stats: Vec<_> = collected
            .borrow()
            .phases
            .iter()
            .map(|(k, v)| (*k, *v))
            .collect();
        stats.sort_by(|a, b| b.1.total.cmp(&a.1.total).then(a.0.cmp(b.0)));
        stats
    }

    /// Human-readable per-phase lines, sorted by descending total, then
    /// the event-queue gauge if any run reported one.
    pub fn report_lines(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .stats()
            .into_iter()
            .map(|(phase, s)| {
                let mean = if s.calls > 0 {
                    s.total / u32::try_from(s.calls.min(u64::from(u32::MAX))).unwrap_or(1)
                } else {
                    Duration::ZERO
                };
                format!(
                    "{phase:<24} {:>12?} total {:>10} calls {:>12?} mean",
                    s.total, s.calls, mean
                )
            })
            .collect();
        if let Some(collected) = &self.collected {
            let c = collected.borrow();
            if c.queue_peak_len > 0 {
                lines.push(format!(
                    "queue: peak {} events, {} KB retained",
                    c.queue_peak_len,
                    c.queue_retained_bytes.div_ceil(1024)
                ));
            }
        }
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_profiler_reads_no_clock() {
        let p = Profiler::off();
        assert!(p.start().is_none());
        p.stop("x", None);
        assert!(p.stats().is_empty());
    }

    #[test]
    fn enabled_profiler_accumulates() {
        let p = Profiler::enabled();
        for _ in 0..3 {
            p.scope("phase-a", || std::hint::black_box(1 + 1));
        }
        let t = p.start();
        p.stop("phase-b", t);
        let stats = p.stats();
        assert_eq!(stats.len(), 2);
        let a = stats.iter().find(|(n, _)| *n == "phase-a").unwrap();
        assert_eq!(a.1.calls, 3);
        assert_eq!(p.report_lines().len(), 2);
    }

    #[test]
    fn queue_gauge_keeps_the_largest_run_and_adds_no_phase() {
        let p = Profiler::enabled();
        p.note_queue(120, 9_000);
        p.note_queue(4_500, 700_000);
        p.note_queue(80, 8_192);
        assert!(p.stats().is_empty());
        assert_eq!(
            p.report_lines(),
            ["queue: peak 4500 events, 684 KB retained"]
        );
        Profiler::off().note_queue(1, 1);
    }
}
