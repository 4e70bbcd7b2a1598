//! # repl-sim — deterministic discrete-event simulation substrate
//!
//! The paper's analysis is about *rates*: waits per second, deadlocks per
//! second, reconciliations per second, as functions of the node count and
//! transaction mix. To measure those quantities reproducibly, all the
//! replication protocols in this workspace execute on a discrete-event
//! simulator rather than wall-clock threads:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-microsecond simulated time,
//! * [`EventQueue`] — the future-event list; ties break in scheduling
//!   order so runs are bit-for-bit reproducible,
//! * [`SimRng`] — a self-contained xoshiro256++ generator with labelled
//!   independent streams,
//! * [`stats`] — streaming counters and Welford mean accumulators for the
//!   measured rates.
//!
//! The queue is *pulled*: the protocol driver pops `(time, event)` pairs
//! and dispatches them itself. This keeps the protocol state machines
//! plain structs, with no callback lifetimes and no `Rc<RefCell<…>>`
//! webs.

#![warn(missing_docs)]

pub mod dist;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use dist::{AccessPattern, Sampler};
pub use queue::EventQueue;
pub use rng::SimRng;
pub use stats::{Counter, Welford};
pub use time::{SimDuration, SimTime};
