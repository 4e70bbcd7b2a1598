//! # repl-storage — per-node database substrate
//!
//! Everything a replica site needs, built from scratch:
//!
//! * [`object`] — object/node identity, [`Value`]s, Lamport
//!   [`Timestamp`]s and clocks (the tags on every replica update in the
//!   paper's Figure 4),
//! * [`store`] — the dense replicated [`ObjectStore`] with the paper's
//!   timestamp safety test (`apply_versioned`) and last-writer-wins
//!   refresh (`apply_lww`),
//! * [`lock`] — strict exclusive two-phase locking with FIFO queues and
//!   immediate waits-for deadlock detection (§3's "locking detects
//!   potential anomalies and converts them to waits or deadlocks"),
//! * [`shard`] — the sharded-keyspace layout ([`ShardMap`]): object→
//!   shard assignment and shard→replica-set placement for partial
//!   replication,
//! * [`table`] — the direct-mapped, live-bounded [`TxnTable`] keyed by
//!   a run's monotone [`TxnId`]s: every engine's run-wide table of
//!   in-flight transactions, indexed instead of hashed (a node's lock
//!   tables, which see only its own transactions, are hash maps),
//! * [`wal`] — the per-node commit log replayed "in sequential commit
//!   order" by lazy replication (§5),
//! * [`tentative`] — the mobile node's dual master/tentative versions
//!   (§7),
//! * [`version_vector`] — Access-style per-record version vectors (§6).

#![warn(missing_docs)]

pub mod div;
pub mod hash;
pub mod lock;
pub mod object;
pub mod shard;
pub mod store;
pub mod table;
pub mod tentative;
pub mod version_vector;
pub mod wal;

pub use div::FastDivMod;
pub use lock::{Acquire, DeadlockMode, LockManager, Mutation, TxnId};
pub use object::{LamportClock, NodeId, ObjectId, Timestamp, Value, Versioned};
pub use shard::{ShardLayout, ShardMap};
pub use store::{ApplyOutcome, ObjectStore};
pub use table::TxnTable;
pub use tentative::TentativeStore;
pub use version_vector::{Causality, VersionVector};
pub use wal::{CommitLog, CommitRecord, DecisionLog, DecisionState, Lsn, UpdateRecord};
