//! Tracer sinks: the no-op default, a bounded post-mortem ring and a
//! streaming JSONL exporter. `TraceHandle::attach` fans one stream out
//! to several sinks.

use crate::event::Event;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Observes the event stream of one simulation run.
///
/// Implementations must be passive: recording an event may never feed
/// back into the simulation (the determinism guard test in the root
/// crate asserts a traced run's `Report` is bit-identical to an
/// untraced one).
pub trait Tracer {
    /// Record one event.
    fn record(&mut self, event: &Event);

    /// The current run finished at simulated time `at` (engines call
    /// this with their horizon). Sinks that bucket by time use it to
    /// bound the final window; others ignore it.
    fn run_end(&mut self, _at: repl_sim::SimTime) {}

    /// Flush buffered output (end of run).
    fn flush(&mut self) {}
}

/// The zero-cost default: records nothing.
///
/// An unattached [`TraceHandle`](crate::TraceHandle) never even
/// constructs the [`Event`], so the usual "null tracer" is simply no
/// handle at all; this type exists for code that wants an explicit
/// `dyn Tracer` that drops everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullTracer;

impl Tracer for NullTracer {
    fn record(&mut self, _event: &Event) {}
}

/// Keeps the last `capacity` events for post-mortem dumps (attach one
/// in a test; print [`RingBuffer::dump`] on assertion failure).
#[derive(Debug)]
pub struct RingBuffer {
    capacity: usize,
    events: VecDeque<Event>,
    /// Total events ever recorded (≥ `events.len()`).
    seen: u64,
}

impl RingBuffer {
    /// A ring keeping the last `capacity` events.
    pub fn new(capacity: usize) -> Self {
        RingBuffer {
            capacity: capacity.max(1),
            events: VecDeque::with_capacity(capacity.max(1)),
            seen: 0,
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// The retained events as an owned vector.
    pub fn to_vec(&self) -> Vec<Event> {
        self.events.iter().cloned().collect()
    }

    /// Total number of events recorded over the run (including ones
    /// that have since been evicted).
    pub fn total_recorded(&self) -> u64 {
        self.seen
    }

    /// Multi-line human-readable dump of the retained tail.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        let evicted = self.seen - self.events.len() as u64;
        if evicted > 0 {
            let _ = writeln!(out, "… {evicted} earlier events evicted …");
        }
        for e in &self.events {
            let _ = writeln!(out, "{e}");
        }
        out
    }
}

impl Tracer for RingBuffer {
    fn record(&mut self, event: &Event) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(event.clone());
        self.seen += 1;
    }
}

/// Streams every event as one JSON object per line.
pub struct JsonlSink<W: Write = BufWriter<File>> {
    out: W,
    lines: u64,
}

impl JsonlSink<BufWriter<File>> {
    /// Create (truncate) `path` and stream events into it.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlSink::from_writer(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Stream events into an arbitrary writer.
    pub fn from_writer(out: W) -> Self {
        JsonlSink { out, lines: 0 }
    }

    /// Number of lines written so far.
    pub fn lines_written(&self) -> u64 {
        self.lines
    }

    /// Recover the writer (flushing first).
    pub fn into_inner(mut self) -> W {
        let _ = self.out.flush();
        self.out
    }
}

impl<W: Write> Tracer for JsonlSink<W> {
    fn record(&mut self, event: &Event) {
        let line = serde_json::to_string(event).expect("events always serialize");
        // I/O errors must not perturb the simulation; drop the line.
        if writeln!(self.out, "{line}").is_ok() {
            self.lines += 1;
        }
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

/// Parse a JSONL export (the `--trace FILE` output) back into events.
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, serde_json::Error> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(serde_json::from_str)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use repl_sim::SimTime;
    use repl_storage::{NodeId, TxnId};

    fn ev(i: u64) -> Event {
        Event::new(SimTime(i), NodeId(0), TxnId(i), EventKind::TxnCommit)
    }

    #[test]
    fn ring_keeps_only_tail() {
        let mut ring = RingBuffer::new(3);
        for i in 0..10 {
            ring.record(&ev(i));
        }
        assert_eq!(ring.total_recorded(), 10);
        let kept: Vec<u64> = ring.events().map(|e| e.txn.0).collect();
        assert_eq!(kept, vec![7, 8, 9]);
        assert!(ring.dump().contains("7 earlier events evicted"));
    }

    #[test]
    fn jsonl_roundtrips() {
        let mut sink = JsonlSink::from_writer(Vec::new());
        for i in 0..5 {
            sink.record(&ev(i));
        }
        assert_eq!(sink.lines_written(), 5);
        let bytes = sink.into_inner();
        let text = String::from_utf8(bytes).unwrap();
        let back = parse_jsonl(&text).unwrap();
        assert_eq!(back.len(), 5);
        assert_eq!(back[4], ev(4));
    }
}
