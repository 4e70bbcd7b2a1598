//! The protocol engines: one simulation [`kernel`], and one
//! [`kernel::Protocol`] per replication scheme in the paper's Table 1,
//! plus the two-tier solution of §7.
//!
//! The kernel owns the world — clock and event queue, arrivals,
//! connectivity and fault schedules, the run phases, instrumentation.
//! Each engine below is [`kernel::Sim`] over a protocol that holds only
//! the scheme's own logic.
//!
//! | Engine | Protocol | Scheme | Paper section | Key measured quantity |
//! |--------|----------|--------|---------------|----------------------|
//! | [`contention::ContentionSim`] | [`contention::Contention`] | single-node baseline | eqs (2)–(5) | waits/s, deadlocks/s |
//! | [`eager::EagerSim`] | `Contention<`[`eager::Eager`]`>` | eager group / eager master | §3 | deadlocks/s (∝ N³) |
//! | [`lazy_group::LazyGroupSim`] | [`lazy_group::LazyGroup`] | lazy group (± mobile) | §4 | reconciliations/s |
//! | [`lazy_master::LazyMasterSim`] | `Contention<`[`lazy_master::LazyMaster`]`>` | lazy master | §5 | deadlocks/s (∝ N²) |
//! | [`two_tier::TwoTierSim`] | [`two_tier::TwoTier`] | two-tier | §7 | acceptance failures/s |

pub mod commit;
pub mod contention;
pub mod eager;
pub mod kernel;
pub mod lazy_group;
pub mod lazy_master;
pub mod two_tier;

pub use commit::{CommitProto, CoordState, Coordinator, CrashKind, CrashPoint, Decision};
pub use contention::{ContentionProfile, ContentionSim};
pub use eager::{EagerSim, Ownership, ReplicaDiscipline};
pub use lazy_group::{LazyGroupSim, Mobility, ResolutionMode};
pub use lazy_master::LazyMasterSim;
pub use two_tier::{TwoTierConfig, TwoTierSim, TwoTierWorkload};
