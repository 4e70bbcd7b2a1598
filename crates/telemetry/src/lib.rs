//! # repl-telemetry — structured tracing for every engine
//!
//! The paper's argument is entirely about *rates* — waits, deadlocks,
//! reconciliations (equations (10)–(19)) — but an end-of-run `Report`
//! is one mean per run. This crate gives every engine a structured
//! event stream so runs can be inspected in time:
//!
//! * [`Event`]/[`EventKind`] — one typed variant per point the engines
//!   bump a `Metrics` counter, stamped with `SimTime`, `NodeId`,
//!   `TxnId`; deadlocks carry the actual waits-for cycle,
//! * [`Tracer`] — the sink trait, with four implementations:
//!   [`NullTracer`] (zero-cost default), [`RingBuffer`] (last-N events
//!   for post-mortems), [`JsonlSink`] (streaming file export, the
//!   harness's `--trace FILE`), and [`SeriesAggregator`] (fixed-width
//!   time buckets yielding per-bucket rates, the harness's
//!   `--series SECS`),
//! * [`TraceHandle`]/[`SyncTraceHandle`] — the switch engines carry;
//!   with no sink attached the event-builder closure never runs,
//! * [`Profiler`] — wall-clock timers around event-loop phases (the
//!   harness's `--profile`),
//! * [`metrics`] — mergeable distributions ([`Histogram`], [`Gauge`],
//!   [`RunMetrics`], [`MetricsRegistry`]): plain values engines carry
//!   in their reports, so — unlike the `Rc`-based tracer handles —
//!   they compose with the parallel sweep executor and the harness's
//!   `--metrics FILE` export is byte-identical at any `--jobs` count.
//!
//! Tracing is strictly observational: attaching any sink must leave a
//! same-seed run's `Report` bit-identical (the root crate's
//! determinism guard test enforces this).

#![warn(missing_docs)]

pub mod event;
pub mod handle;
pub mod metrics;
pub mod profile;
pub mod series;
pub mod sinks;

pub use event::{AbortReason, Event, EventKind};
pub use handle::{SyncTraceHandle, TraceHandle};
pub use metrics::{Gauge, Histogram, MetricsRegistry, RunMetrics};
pub use profile::{PhaseStat, Profiler};
pub use series::{Bucket, BucketRates, RunSeries, SeriesAggregator};
pub use sinks::{parse_jsonl, JsonlSink, NullTracer, RingBuffer, Tracer};
