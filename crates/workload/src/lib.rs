//! # repl-workload — workload generators and scenario presets
//!
//! * [`presets`] — the shared parameter presets every experiment,
//!   bench and example draws from (one source of truth);
//! * [`generator`] — deterministic [`TxnSpec`](repl_core::TxnSpec)
//!   streams with configurable access patterns (uniform / Zipf) and
//!   operation mixes (blind writes / commutative / appends);
//! * [`checkbook`] — the paper's joint-checking-account running
//!   example, packaged as a two-tier configuration and as the §6
//!   lost-update demonstration.

#![warn(missing_docs)]

pub mod checkbook;
pub mod generator;
pub mod presets;

pub use generator::{OpMix, SpecGenerator};
