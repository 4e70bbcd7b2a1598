//! Eager replication engines — §3 of the paper.
//!
//! Eager replication "updates all replicas when a transaction updates
//! any instance of the object", inside the original transaction. In the
//! model, locking one object is one logical lock no matter how many
//! replicas exist, but the *work* of an action is multiplied by the
//! replica count (serial replica updates, the paper's primary model).
//! These engines are thin parameterizations of the shared
//! [`Contention`] protocol. Replica updates are modelled as that work,
//! not sent as messages, so ownership (group vs. master) changes
//! nothing — exactly the simplification equation (12) makes ("it does
//! not distinguish between Master and Group").

use crate::config::SimConfig;
use crate::engine::contention::{Contention, ContentionProfile, Flavor};
use crate::engine::kernel::Sim;

/// Replica-update execution discipline (the paper's footnote 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplicaDiscipline {
    /// Replica updates applied one after another inside the
    /// transaction: duration grows by `Nodes` — the paper's main model
    /// and the source of the cubic deadlock growth.
    #[default]
    Serial,
    /// Replica updates broadcast and applied in parallel: duration
    /// stays flat, deadlock growth drops to quadratic (ablation).
    Parallel,
}

/// Ownership regime. It has no effect: eager replica updates are
/// modelled as work, not sent, so the master's extra hop has nothing to
/// travel on, and equation (12) does not distinguish the two either.
/// It is kept only because the repo benchmark's frozen workload list
/// builds `Ownership::Master`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Ownership {
    /// Update anywhere: the originating node updates every replica.
    #[default]
    Group,
    /// Each object has a master that updates the remaining replicas.
    Master,
}

/// The eager flavor of [`Contention`].
#[derive(Debug)]
pub struct Eager;

impl Flavor for Eager {
    const LABEL: &'static str = "eager";
    const SCHEME: repl_check::Scheme = repl_check::Scheme::Eager;
}

/// Eager replication simulator.
pub type EagerSim = Sim<Contention<Eager>>;

impl EagerSim {
    /// Build an eager run. `_ownership` has no effect (see
    /// [`Ownership`]).
    pub fn new(cfg: SimConfig, discipline: ReplicaDiscipline, _ownership: Ownership) -> Self {
        let profile = match discipline {
            ReplicaDiscipline::Serial => ContentionProfile::eager_serial(&cfg),
            ReplicaDiscipline::Parallel => ContentionProfile::eager_parallel(&cfg),
        };
        Self::with_profile(cfg, profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repl_model::Params;

    fn cfg(nodes: f64, db: f64, tps: f64, horizon: u64, seed: u64) -> SimConfig {
        let p = Params::new(db, nodes, tps, 4.0, 0.01);
        SimConfig::from_params(&p, horizon, seed)
    }

    #[test]
    fn serial_latency_scales_with_nodes() {
        let r1 = EagerSim::new(
            cfg(1.0, 1_000_000.0, 2.0, 100, 1),
            ReplicaDiscipline::Serial,
            Ownership::Group,
        )
        .run();
        let r4 = EagerSim::new(
            cfg(4.0, 1_000_000.0, 2.0, 100, 1),
            ReplicaDiscipline::Serial,
            Ownership::Group,
        )
        .run();
        // Uncontended latency: Actions × Action_Time × Nodes.
        assert!(
            (r1.mean_latency_secs - 0.04).abs() < 0.01,
            "{}",
            r1.mean_latency_secs
        );
        assert!(
            (r4.mean_latency_secs - 0.16).abs() < 0.02,
            "{}",
            r4.mean_latency_secs
        );
    }

    #[test]
    fn parallel_latency_flat_in_nodes() {
        let r4 = EagerSim::new(
            cfg(4.0, 1_000_000.0, 2.0, 100, 2),
            ReplicaDiscipline::Parallel,
            Ownership::Group,
        )
        .run();
        assert!(
            (r4.mean_latency_secs - 0.04).abs() < 0.01,
            "{}",
            r4.mean_latency_secs
        );
    }

    #[test]
    fn serial_deadlocks_exceed_parallel() {
        let c = cfg(6.0, 400.0, 10.0, 120, 3);
        let serial = EagerSim::new(c, ReplicaDiscipline::Serial, Ownership::Group).run();
        let parallel = EagerSim::new(c, ReplicaDiscipline::Parallel, Ownership::Group).run();
        assert!(
            serial.deadlocks > parallel.deadlocks,
            "serial {} vs parallel {}",
            serial.deadlocks,
            parallel.deadlocks
        );
    }

    #[test]
    fn master_equals_group() {
        // Replica updates are work, not messages: the master's extra
        // hop sends nothing, so the two regimes are one run.
        let c = cfg(4.0, 100_000.0, 5.0, 60, 4);
        let group = EagerSim::new(c, ReplicaDiscipline::Serial, Ownership::Group).run();
        let master = EagerSim::new(c, ReplicaDiscipline::Serial, Ownership::Master).run();
        assert!(group.committed > 0);
        assert_eq!(group, master);
    }
}
