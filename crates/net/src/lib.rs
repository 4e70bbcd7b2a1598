//! # repl-net — simulated network fabric
//!
//! * [`latency`] — pluggable one-way delay models ([`LatencyModel`]);
//!   the paper's closed forms assume zero delay ([`LatencyModel::ZERO`]),
//!   and the harness uses non-zero models to show delays make the rates
//!   worse, as §3 predicts.
//! * [`network`] — the point-to-point fabric: computes delivery delays
//!   and parks messages addressed to disconnected nodes until reconnect
//!   ("deferred replica updates").
//! * [`schedule`] — mobile connect/disconnect timelines built from the
//!   Table 2 parameters `Time_Between_Disconnects` and
//!   `Disconnected_Time`.
//! * [`faults`] — deterministic fault injection: seeded message chaos
//!   (drop / duplicate / delay-spike), scheduled partitions, and node
//!   crash/restart windows ([`FaultPlan`], [`FaultInjector`]).

#![warn(missing_docs)]

pub mod faults;
pub mod latency;
pub mod network;
pub mod schedule;

pub use faults::{CrashWindow, FaultInjector, FaultPlan, MessageFate, PartitionWindow};
pub use latency::LatencyModel;
pub use network::{Network, SendOutcome};
pub use schedule::{ConnectivityEvent, DisconnectSchedule, PeriodModel};
