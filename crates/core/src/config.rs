//! Simulation configuration shared by every protocol engine.

use crate::engine::commit::{CommitProto, CrashPoint};
use repl_model::Params;
use repl_net::LatencyModel;
use repl_sim::{AccessPattern, SimDuration, SimTime};
use repl_storage::ShardMap;

/// How the engines resolve deadlocks (paper §2: "locking detects
/// potential anomalies and converts them to waits or deadlocks", and in
/// practice "most systems use timeout" rather than cycle detection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeadlockPolicy {
    /// Exact waits-for cycle detection on every contended request —
    /// the model's idealization, equation (12)'s deadlock rate.
    #[default]
    Detection,
    /// No graph search: blocked transactions abort after waiting
    /// `wait` of simulated time. Resolves real cycles and also kills
    /// innocent long waiters — the real-system trade-off.
    Timeout {
        /// How long a transaction may block before it is presumed
        /// deadlocked and aborted.
        wait: SimDuration,
    },
}

/// Integer-typed run configuration derived from the model's [`Params`].
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Number of distinct objects (`DB_Size`).
    pub db_size: u64,
    /// Number of nodes.
    pub nodes: u32,
    /// Per-node transaction arrival rate (Poisson), transactions/second.
    pub tps: f64,
    /// Updates per transaction (`Actions`).
    pub actions: usize,
    /// Time per action.
    pub action_time: SimDuration,
    /// One-way network latency model (the paper's closed forms assume
    /// [`LatencyModel::ZERO`]).
    pub latency: LatencyModel,
    /// Simulated time to run.
    pub horizon: SimTime,
    /// Warm-up period excluded from the measured window (lets the
    /// transaction population reach steady state first).
    pub warmup: SimTime,
    /// Root RNG seed; all streams derive from it.
    pub seed: u64,
    /// Object access pattern. The model assumes [`AccessPattern::Uniform`]
    /// ("there are no hotspots"); the Zipf variant is the hotspot
    /// ablation.
    pub access: AccessPattern,
    /// Deadlock resolution policy (honored by the lazy-group engine;
    /// the analytic engines assume [`DeadlockPolicy::Detection`]).
    pub deadlock: DeadlockPolicy,
    /// Skip all mergeable-distribution recording (`Report::dists` stays
    /// empty and the latency percentiles report 0). Only the
    /// metrics-overhead comparisons turn this on, as their baseline.
    pub lean_metrics: bool,
    /// Number of keyspace shards (0 = unsharded, the default). With
    /// sharding on, object `o` belongs to shard `o mod shards` and each
    /// shard is replicated at `rf` nodes ([`ShardMap`]).
    pub shards: u32,
    /// Replication factor per shard. 0 means `nodes` (full
    /// replication); `rf >= nodes` also reproduces today's full
    /// replication byte-identically — engines keep their unsharded
    /// paths whenever [`SimConfig::shard_map`] returns `None`.
    pub rf: u32,
    /// Probability (per root transaction) that a sharded workload draws
    /// its objects from the *whole* keyspace instead of the
    /// originating node's hosted subset — a genuine multi-shard
    /// transaction routed through the cross-shard coordinator path.
    pub cross_shard: f64,
    /// Cross-shard atomic-commit protocol for the contention family.
    /// Only partial shard layouts consult it, and every one of them
    /// sends its protocol's real messages through the kernel's fabric,
    /// with or without a fault plan. [`CommitProto::OwnerOrder`] (the
    /// default) sends one unfenced `Apply` per remote owner.
    pub commit_proto: CommitProto,
    /// Optional targeted crash at a 2PC state transition (the fuzz
    /// campaign's crash-point injection). `None` outside fuzz runs.
    pub crash_point: Option<CrashPoint>,
}

impl SimConfig {
    /// Build a config from model parameters, a run horizon, and a seed.
    /// Fractional `nodes`/`actions` in `params` are rounded.
    pub fn from_params(params: &Params, horizon_secs: u64, seed: u64) -> Self {
        SimConfig {
            db_size: params.db_size.round() as u64,
            nodes: params.nodes.round() as u32,
            tps: params.tps,
            actions: params.actions.round() as usize,
            action_time: SimDuration::from_secs_f64(params.action_time),
            latency: LatencyModel::ZERO,
            horizon: SimTime::from_secs(horizon_secs),
            warmup: SimTime::ZERO,
            seed,
            access: AccessPattern::Uniform,
            deadlock: DeadlockPolicy::Detection,
            lean_metrics: false,
            shards: 0,
            rf: 0,
            cross_shard: 0.0,
            commit_proto: CommitProto::OwnerOrder,
            crash_point: None,
        }
    }

    /// The equivalent analytic parameter set (for model-vs-measured
    /// tables).
    pub fn to_params(&self) -> Params {
        Params::new(
            self.db_size as f64,
            f64::from(self.nodes),
            self.tps,
            self.actions as f64,
            self.action_time.as_secs_f64(),
        )
    }

    /// Builder-style latency override.
    #[must_use]
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Builder-style warm-up override.
    #[must_use]
    pub fn with_warmup(mut self, warmup_secs: u64) -> Self {
        self.warmup = SimTime::from_secs(warmup_secs);
        self
    }

    /// Builder-style access-pattern override (hotspot ablation).
    #[must_use]
    pub fn with_access(mut self, access: AccessPattern) -> Self {
        self.access = access;
        self
    }

    /// Builder-style deadlock-policy override (§2's timeout
    /// resolution vs. exact cycle detection).
    #[must_use]
    pub fn with_deadlock(mut self, deadlock: DeadlockPolicy) -> Self {
        self.deadlock = deadlock;
        self
    }

    /// Builder-style lean-metrics override (metrics-overhead baseline).
    #[must_use]
    pub fn with_lean_metrics(mut self) -> Self {
        self.lean_metrics = true;
        self
    }

    /// Builder-style sharding override: split the keyspace into
    /// `shards` shards replicated at `rf` nodes each. `shards == 0`
    /// turns sharding off; `rf == 0` (or `rf >= nodes`) means full
    /// replication, which runs the engines' unsharded code paths and is
    /// byte-identical to not sharding at all.
    #[must_use]
    pub fn with_shards(mut self, shards: u32, rf: u32) -> Self {
        self.shards = shards;
        self.rf = if shards == 0 { 0 } else { rf };
        self
    }

    /// Builder-style cross-shard transaction rate (clamped to [0, 1]).
    /// Only meaningful when a partial [`SimConfig::shard_map`] is
    /// active.
    #[must_use]
    pub fn with_cross_shard(mut self, rate: f64) -> Self {
        self.cross_shard = rate.clamp(0.0, 1.0);
        self
    }

    /// Builder-style cross-shard commit protocol override.
    #[must_use]
    pub fn with_commit_proto(mut self, proto: CommitProto) -> Self {
        self.commit_proto = proto;
        self
    }

    /// Builder-style 2PC crash-point injection (fuzz campaign).
    #[must_use]
    pub fn with_crash_point(mut self, point: CrashPoint) -> Self {
        self.crash_point = Some(point);
        self
    }

    /// The effective replication factor (`rf == 0` means `nodes`,
    /// anything larger is clamped to `nodes`).
    pub fn effective_rf(&self) -> u32 {
        if self.rf == 0 {
            self.nodes
        } else {
            self.rf.min(self.nodes)
        }
    }

    /// The shard layout for this run, or `None` when the configuration
    /// amounts to full replication (unsharded, or `rf >= nodes`) — the
    /// engines then keep their original code paths, which is what makes
    /// `with_shards(K, Nodes)` byte-identical to an unsharded run.
    pub fn shard_map(&self) -> Option<ShardMap> {
        if self.shards == 0 || self.effective_rf() >= self.nodes {
            return None;
        }
        Some(ShardMap::new(self.shards, self.nodes, self.effective_rf()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_params() {
        let p = Params::new(5000.0, 3.0, 7.5, 6.0, 0.02);
        let c = SimConfig::from_params(&p, 100, 1);
        assert_eq!(c.db_size, 5000);
        assert_eq!(c.nodes, 3);
        assert_eq!(c.actions, 6);
        let back = c.to_params();
        assert!((back.tps - 7.5).abs() < 1e-12);
        assert!((back.action_time - 0.02).abs() < 1e-9);
    }

    #[test]
    fn builders() {
        let p = Params::default();
        let c = SimConfig::from_params(&p, 10, 1)
            .with_warmup(2)
            .with_latency(LatencyModel::Fixed(SimDuration::from_millis(5)));
        assert_eq!(c.warmup, SimTime::from_secs(2));
        assert_eq!(c.latency, LatencyModel::Fixed(SimDuration::from_millis(5)));
    }

    #[test]
    fn deadlock_policy_defaults_to_detection() {
        let c = SimConfig::from_params(&Params::default(), 10, 1);
        assert_eq!(c.deadlock, DeadlockPolicy::Detection);
        let c = c.with_deadlock(DeadlockPolicy::Timeout {
            wait: SimDuration::from_secs(1),
        });
        assert!(matches!(c.deadlock, DeadlockPolicy::Timeout { .. }));
    }

    #[test]
    fn shard_map_none_unless_partial() {
        let p = Params::default().with_nodes(4.0);
        let c = SimConfig::from_params(&p, 10, 1);
        assert!(c.shard_map().is_none(), "unsharded");
        // rf = 0 means full replication: still no map.
        assert!(c.with_shards(8, 0).shard_map().is_none());
        // rf >= nodes is full replication too.
        assert!(c.with_shards(8, 4).shard_map().is_none());
        assert!(c.with_shards(8, 9).shard_map().is_none());
        // A genuinely partial layout yields a map.
        let m = c.with_shards(8, 2).shard_map().expect("partial map");
        assert_eq!(m.shards(), 8);
        assert_eq!(m.rf(), 2);
        assert!(!m.is_full());
    }

    #[test]
    fn cross_shard_rate_clamps() {
        let c = SimConfig::from_params(&Params::default(), 10, 1);
        assert_eq!(c.cross_shard, 0.0);
        assert_eq!(c.with_cross_shard(0.25).cross_shard, 0.25);
        assert_eq!(c.with_cross_shard(7.0).cross_shard, 1.0);
        assert_eq!(c.with_cross_shard(-1.0).cross_shard, 0.0);
    }

    #[test]
    fn commit_proto_defaults_to_owner_order() {
        let c = SimConfig::from_params(&Params::default(), 10, 1);
        assert_eq!(c.commit_proto, CommitProto::OwnerOrder);
        assert!(c.crash_point.is_none());
        let c = c.with_commit_proto(CommitProto::TwoPc);
        assert_eq!(c.commit_proto, CommitProto::TwoPc);
        let cp = CrashPoint {
            kind: crate::engine::commit::CrashKind::CoordPostPrepare,
            nth: 0,
            down_secs: 5,
        };
        assert_eq!(c.with_crash_point(cp).crash_point, Some(cp));
    }
}
