//! Lazy-master replication — §5 of the paper.
//!
//! Each object has an owner; updates are RPCed to the owner, run there
//! under normal locking, and propagate to read-only replicas
//! asynchronously after commit. The master copies together form one
//! logical lock space receiving the *aggregate* load `TPS × Nodes`, so
//! the deadlock behaviour is a single-node system at N-fold rate —
//! equation (19). The replica-refresh transactions are "background
//! housekeeping" (the paper's words): they time-stamp-filter stale
//! values and never contend with user transactions. The engine has no
//! slaves yet: a refresh is counted as an object update, but nothing
//! is sent, so a run on a full layout reports no messages. A partial
//! layout reports exactly its cross-shard commit protocol's sends.

use crate::config::SimConfig;
use crate::engine::contention::{Contention, ContentionProfile, Flavor};
use crate::engine::kernel::Sim;

/// The lazy-master flavor of [`Contention`].
#[derive(Debug)]
pub struct LazyMaster;

impl Flavor for LazyMaster {
    const LABEL: &'static str = "lazy-master";
    const SCHEME: repl_check::Scheme = repl_check::Scheme::LazyMaster;
}

/// Lazy-master simulator.
pub type LazyMasterSim = Sim<Contention<LazyMaster>>;

impl LazyMasterSim {
    /// Build a lazy-master run: master transactions take `Action_Time`
    /// per action (shorter than eager — the reason §5 finds it less
    /// deadlock-prone).
    pub fn new(cfg: SimConfig) -> Self {
        let profile = ContentionProfile::lazy_master(&cfg);
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
    fn latency_flat_in_nodes() {
        // Master transactions do not grow with the replica count.
        let r1 = LazyMasterSim::new(cfg(1.0, 1_000_000.0, 2.0, 100, 1)).run();
        let r6 = LazyMasterSim::new(cfg(6.0, 1_000_000.0, 2.0, 100, 1)).run();
        assert!((r1.mean_latency_secs - 0.04).abs() < 0.01);
        assert!((r6.mean_latency_secs - 0.04).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "lazy-master refuses DeadlockPolicy::Timeout")]
    fn timeout_policy_is_refused() {
        use crate::config::DeadlockPolicy;
        use repl_sim::SimDuration;
        let c = cfg(4.0, 1_000.0, 2.0, 10, 1).with_deadlock(DeadlockPolicy::Timeout {
            wait: SimDuration::from_millis(500),
        });
        let _ = LazyMasterSim::new(c);
    }

    #[test]
    fn no_reconciliations_ever() {
        let r = LazyMasterSim::new(cfg(8.0, 100.0, 10.0, 60, 2)).run();
        assert_eq!(r.reconciliations, 0);
    }

    #[test]
    fn deadlocks_grow_with_aggregate_load() {
        let small = LazyMasterSim::new(cfg(2.0, 100.0, 15.0, 120, 3)).run();
        let large = LazyMasterSim::new(cfg(8.0, 100.0, 15.0, 120, 3)).run();
        assert!(
            large.deadlocks > small.deadlocks,
            "deadlocks should grow with nodes: {} vs {}",
            large.deadlocks,
            small.deadlocks
        );
    }

    #[test]
    fn fewer_deadlocks_than_eager_serial() {
        use crate::engine::eager::{EagerSim, Ownership, ReplicaDiscipline};
        let c = cfg(6.0, 400.0, 10.0, 120, 4);
        let lazy = LazyMasterSim::new(c).run();
        let eager = EagerSim::new(c, ReplicaDiscipline::Serial, Ownership::Group).run();
        assert!(
            lazy.deadlocks < eager.deadlocks,
            "lazy-master {} should beat eager {}",
            lazy.deadlocks,
            eager.deadlocks
        );
    }

    #[test]
    fn replica_refresh_messages_accounted() {
        // No refresh is sent (there are no slaves yet), so none is
        // counted: every counted message is a sent message.
        let r = LazyMasterSim::new(cfg(5.0, 100_000.0, 5.0, 60, 5)).run();
        assert!(r.committed > 0);
        assert_eq!(r.messages, 0);
    }
}
