//! # repl-core — the replication protocols
//!
//! This crate implements every replication scheme analyzed in Gray,
//! Helland, O'Neil and Shasha, *"The Dangers of Replication and a
//! Solution"* (SIGMOD 1996), as executable discrete-event simulations:
//!
//! * the four Table 1 quadrants — eager/lazy × group/master — in
//!   [`engine`],
//! * the paper's proposed **two-tier replication** scheme
//!   ([`engine::two_tier`]), with tentative transactions, acceptance
//!   criteria, reconnect synchronization and a replicated base tier
//!   that fails over under the kernel's fault plan ([`election`]), and
//!   one base node and the mobile node as transport-free state
//!   machines ([`base_tier`]),
//! * the §6 convergence machinery: commutative operation design
//!   ([`op`]) and the Notes/Access-style convergent stores
//!   ([`convergent`]); the reconciliation rules that actually run are
//!   lazy-group's [`ResolutionMode`] and the convergent stores' own,
//! * the §3 availability substrate: Gifford weighted-voting quorums
//!   ([`quorum`]).
//!
//! Each engine reports a [`metrics::Report`] of measured rates that the
//! harness compares against the `repl-model` closed forms.
//!
//! # Example: simulate eager replication at 4 nodes
//!
//! ```
//! use repl_core::{EagerSim, Ownership, ReplicaDiscipline, SimConfig};
//! use repl_model::Params;
//!
//! let params = Params::new(5_000.0, 4.0, 10.0, 4.0, 0.01);
//! let cfg = SimConfig::from_params(&params, 30, 42);
//! let report = EagerSim::new(cfg, ReplicaDiscipline::Serial, Ownership::Group).run();
//! assert!(report.committed > 0);
//! // Runs are deterministic: same seed, same report.
//! let again = EagerSim::new(cfg, ReplicaDiscipline::Serial, Ownership::Group).run();
//! assert_eq!(report, again);
//! ```

#![warn(missing_docs)]

pub mod base_tier;
pub mod config;
pub mod convergent;
pub mod election;
pub mod engine;
pub mod metrics;
pub mod op;
pub mod quorum;
pub mod txn;

pub use config::{DeadlockPolicy, SimConfig};
pub use engine::{
    CommitProto, ContentionProfile, ContentionSim, CoordState, Coordinator, CrashKind, CrashPoint,
    Decision, EagerSim, LazyGroupSim, LazyMasterSim, Mobility, Ownership, ReplicaDiscipline,
    ResolutionMode, TwoTierConfig, TwoTierSim, TwoTierWorkload,
};
pub use metrics::{
    Metrics, Report, M_ABORTS, M_COMMIT_LATENCY, M_EPOCH_FENCED, M_FAILOVER_UNAVAILABILITY,
    M_INDOUBT_WAIT, M_LOCK_WAIT, M_PROPAGATION_LAG, M_RECONCILIATION_DELAY, M_RETRIES,
};
pub use op::{Op, Operation};
pub use txn::{Criterion, TxnSpec};
