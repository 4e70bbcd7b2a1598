//! Tracer handles threaded through the engines.
//!
//! A handle is the engine-facing switch: engines call
//! [`TraceHandle::emit`] with a closure, and when no sink is attached
//! the closure never runs — the off-path costs one branch on an empty
//! `Vec`, so an untraced simulation keeps its pre-telemetry hot path
//! (`tests/telemetry_allocations.rs` holds a dispatching `NullTracer`
//! to no allocation per event; the benchmark reports
//! `telemetry.null_tracer_overhead_ratio`).

use crate::event::Event;
use crate::sinks::Tracer;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

/// A cheap, cloneable handle to zero or more [`Tracer`] sinks, for the
/// single-threaded simulation engines.
#[derive(Clone, Default)]
pub struct TraceHandle {
    sinks: Vec<Rc<RefCell<dyn Tracer>>>,
}

impl TraceHandle {
    /// The default: no sinks, events are never constructed.
    pub fn off() -> Self {
        TraceHandle::default()
    }

    /// A handle owning a single sink.
    pub fn new(tracer: impl Tracer + 'static) -> Self {
        TraceHandle {
            sinks: vec![Rc::new(RefCell::new(tracer))],
        }
    }

    /// A handle to a sink the caller keeps shared access to (read the
    /// sink back after the run).
    pub fn shared<T: Tracer + 'static>(tracer: &Rc<RefCell<T>>) -> Self {
        TraceHandle {
            sinks: vec![Rc::clone(tracer) as Rc<RefCell<dyn Tracer>>],
        }
    }

    /// Add another sink to this handle.
    pub fn attach<T: Tracer + 'static>(&mut self, tracer: &Rc<RefCell<T>>) {
        self.sinks
            .push(Rc::clone(tracer) as Rc<RefCell<dyn Tracer>>);
    }

    /// True if at least one sink is attached.
    pub fn is_active(&self) -> bool {
        !self.sinks.is_empty()
    }

    /// Record the event `build` produces. `build` runs only when a
    /// sink is attached; emission sites pay nothing to format or
    /// allocate when tracing is off.
    #[inline]
    pub fn emit(&self, build: impl FnOnce() -> Event) {
        if self.sinks.is_empty() {
            return;
        }
        let event = build();
        for sink in &self.sinks {
            sink.borrow_mut().record(&event);
        }
    }

    /// Tell every sink the current run ended at simulated time `at`.
    pub fn run_end(&self, at: repl_sim::SimTime) {
        for sink in &self.sinks {
            sink.borrow_mut().run_end(at);
        }
    }

    /// Flush every attached sink.
    pub fn flush(&self) {
        for sink in &self.sinks {
            sink.borrow_mut().flush();
        }
    }
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceHandle")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

/// The thread-safe sibling of [`TraceHandle`] for the threaded cluster
/// runtime, where several node threads share one sink.
#[derive(Clone, Default)]
pub struct SyncTraceHandle {
    sinks: Vec<Arc<Mutex<dyn Tracer + Send>>>,
}

impl SyncTraceHandle {
    /// The default: no sinks.
    pub fn off() -> Self {
        SyncTraceHandle::default()
    }

    /// A handle owning a single sink.
    pub fn new(tracer: impl Tracer + Send + 'static) -> Self {
        SyncTraceHandle {
            sinks: vec![Arc::new(Mutex::new(tracer))],
        }
    }

    /// A handle to a sink the caller keeps shared access to.
    pub fn shared<T: Tracer + Send + 'static>(tracer: &Arc<Mutex<T>>) -> Self {
        SyncTraceHandle {
            sinks: vec![Arc::clone(tracer) as Arc<Mutex<dyn Tracer + Send>>],
        }
    }

    /// True if at least one sink is attached.
    pub fn is_active(&self) -> bool {
        !self.sinks.is_empty()
    }

    /// Record the event `build` produces (only if a sink is attached).
    #[inline]
    pub fn emit(&self, build: impl FnOnce() -> Event) {
        if self.sinks.is_empty() {
            return;
        }
        let event = build();
        for sink in &self.sinks {
            if let Ok(mut guard) = sink.lock() {
                guard.record(&event);
            }
        }
    }

    /// Tell every sink the current run ended at simulated time `at`.
    pub fn run_end(&self, at: repl_sim::SimTime) {
        for sink in &self.sinks {
            if let Ok(mut guard) = sink.lock() {
                guard.run_end(at);
            }
        }
    }

    /// Flush every attached sink.
    pub fn flush(&self) {
        for sink in &self.sinks {
            if let Ok(mut guard) = sink.lock() {
                guard.flush();
            }
        }
    }
}

impl std::fmt::Debug for SyncTraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyncTraceHandle")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::sinks::RingBuffer;
    use repl_sim::SimTime;
    use repl_storage::NodeId;

    #[test]
    fn off_handle_never_builds() {
        let h = TraceHandle::off();
        h.emit(|| unreachable!("must not construct events when off"));
        assert!(!h.is_active());
    }

    #[test]
    fn shared_sink_observed_after_run() {
        let ring = Rc::new(RefCell::new(RingBuffer::new(8)));
        let mut h = TraceHandle::shared(&ring);
        let ring2 = Rc::new(RefCell::new(RingBuffer::new(8)));
        h.attach(&ring2);
        h.emit(|| Event::system(SimTime::ZERO, NodeId(1), EventKind::Reconnect));
        assert_eq!(ring.borrow().total_recorded(), 1);
        assert_eq!(ring2.borrow().total_recorded(), 1);
    }

    #[test]
    fn sync_handle_shares_across_threads() {
        let ring = Arc::new(Mutex::new(RingBuffer::new(64)));
        let h = SyncTraceHandle::shared(&ring);
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let h = h.clone();
                std::thread::spawn(move || {
                    h.emit(|| Event::system(SimTime(i), NodeId(i as u32), EventKind::Reconnect));
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(ring.lock().unwrap().total_recorded(), 4);
    }
}
