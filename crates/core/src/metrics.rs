//! Measured quantities — the simulator-side counterparts of the model's
//! predicted rates.

use repl_sim::{Counter, SimDuration, SimTime, Welford};
use repl_telemetry::RunMetrics;
use serde::{Deserialize, Serialize};

/// Histogram of user-transaction start→commit latency.
pub const M_COMMIT_LATENCY: &str = "commit_latency";
/// Histogram of individual lock-wait durations.
pub const M_LOCK_WAIT: &str = "lock_wait";
/// Histogram of replica propagation lag (send → apply, lazy schemes).
pub const M_PROPAGATION_LAG: &str = "propagation_lag";
/// Histogram of two-tier reconciliation delay (tentative commit → base
/// verdict).
pub const M_RECONCILIATION_DELAY: &str = "reconciliation_delay";
/// Counter of user-transaction aborts (deadlock or timeout).
pub const M_ABORTS: &str = "aborts";
/// Counter of scheduled retries (replica redo, base re-execution).
pub const M_RETRIES: &str = "retries";
/// Histogram of two-tier failover unavailability: simulated time from
/// a primary's crash to the election of its successor.
pub const M_FAILOVER_UNAVAILABILITY: &str = "failover_unavailability";
/// Counter of refreshes two-tier backups fenced: sent by a primary an
/// election has since deposed.
pub const M_EPOCH_FENCED: &str = "epoch_fenced";
/// Histogram of in-doubt blocking time: how long a 2PC participant
/// holds locks between voting yes and learning the decision (the
/// blocking cost of the coordinated commit path).
pub const M_INDOUBT_WAIT: &str = "indoubt_wait";

/// Raw counters collected during a protocol run.
#[derive(Debug, Default)]
pub struct Metrics {
    /// User (root) transactions that committed.
    pub committed: Counter,
    /// User transactions aborted by deadlock.
    pub deadlocks: Counter,
    /// Times any transaction blocked on a lock.
    pub waits: Counter,
    /// Replica updates rejected by the timestamp test and submitted for
    /// reconciliation (lazy-group), or tentative transactions rejected
    /// by their acceptance criteria (two-tier).
    pub reconciliations: Counter,
    /// Replica-update (slave/secondary) transactions committed.
    pub replica_commits: Counter,
    /// Replica-update transactions skipped as stale.
    pub stale_updates: Counter,
    /// Network messages sent. Only the kernel's send path counts them,
    /// so what is modelled as work (eager replica updates) is not here.
    pub messages: Counter,
    /// Tentative transactions committed locally at mobile nodes.
    pub tentative_commits: Counter,
    /// Tentative transactions accepted on base re-execution.
    pub tentative_accepted: Counter,
    /// Tentative transactions rejected on base re-execution.
    pub tentative_rejected: Counter,
    /// Total actions (object updates) performed anywhere.
    pub actions: Counter,
    /// Messages lost in flight by fault injection (each triggers a
    /// retransmission).
    pub messages_dropped: Counter,
    /// Messages duplicated by fault injection (the receiver's
    /// timestamp test absorbs the copies).
    pub messages_duplicated: Counter,
    /// Blocked transactions aborted by the lock-wait timeout
    /// ([`crate::DeadlockPolicy::Timeout`]'s resolution events).
    pub lock_timeouts: Counter,
    /// Node crashes injected during the run.
    pub node_crashes: Counter,
    /// Waits-for graph searches performed by the lock managers (zero
    /// under the timeout policy).
    pub cycle_checks: Counter,
    /// User-transaction latency (start → commit), seconds.
    pub latency: Welford,
    /// Lock wait durations, seconds.
    pub wait_time: Welford,
    /// Mergeable named distributions (log-linear histograms, gauges,
    /// counters) carried out through [`Report::dists`] — the parallel
    /// sweep merges them after the fact, in point order.
    pub dists: RunMetrics,
    /// When true, skip all `dists` recording (so the latency
    /// percentiles report 0). The baseline side of the metrics-overhead
    /// comparisons (`tests/telemetry_allocations.rs`, the benchmark's
    /// `telemetry.metrics_overhead_ratio`), never a reporting mode.
    pub lean: bool,
}

impl Metrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one user-transaction latency sample (mean + percentile
    /// tracking).
    pub fn record_latency(&mut self, d: SimDuration) {
        self.latency.record(d.as_secs_f64());
        if !self.lean {
            self.dists.record(M_COMMIT_LATENCY, d);
        }
    }

    /// Record one lock-wait duration sample (mean + distribution).
    pub fn record_wait(&mut self, d: SimDuration) {
        self.wait_time.record(d.as_secs_f64());
        if !self.lean {
            self.dists.record(M_LOCK_WAIT, d);
        }
    }

    /// Record a duration sample into the named distribution
    /// (propagation lag, reconciliation delay, …).
    #[inline]
    pub fn record_dist(&mut self, name: &str, d: SimDuration) {
        if !self.lean {
            self.dists.record(name, d);
        }
    }

    /// Bump a named distribution counter (aborts, retries, …).
    #[inline]
    pub fn incr_dist(&mut self, name: &str) {
        if !self.lean {
            self.dists.incr(name, 1);
        }
    }

    /// Freeze into a [`Report`] over the observation window
    /// `[start, end]`.
    pub fn report(&self, start: SimTime, end: SimTime) -> Report {
        let span = end.since(start).as_secs_f64();
        let rate = |c: &Counter| {
            if span > 0.0 {
                c.count() as f64 / span
            } else {
                0.0
            }
        };
        let latency = self.dists.histogram(M_COMMIT_LATENCY);
        Report {
            duration_secs: span,
            committed: self.committed.count(),
            deadlocks: self.deadlocks.count(),
            waits: self.waits.count(),
            reconciliations: self.reconciliations.count(),
            replica_commits: self.replica_commits.count(),
            stale_updates: self.stale_updates.count(),
            messages: self.messages.count(),
            tentative_commits: self.tentative_commits.count(),
            tentative_accepted: self.tentative_accepted.count(),
            tentative_rejected: self.tentative_rejected.count(),
            actions: self.actions.count(),
            messages_dropped: self.messages_dropped.count(),
            messages_duplicated: self.messages_duplicated.count(),
            lock_timeouts: self.lock_timeouts.count(),
            node_crashes: self.node_crashes.count(),
            cycle_checks: self.cycle_checks.count(),
            commit_rate: rate(&self.committed),
            deadlock_rate: rate(&self.deadlocks),
            wait_rate: rate(&self.waits),
            reconciliation_rate: rate(&self.reconciliations),
            action_rate: rate(&self.actions),
            mean_latency_secs: self.latency.mean(),
            p50_latency_secs: latency.map_or(0.0, |h| h.quantile_secs(0.50)),
            p95_latency_secs: latency.map_or(0.0, |h| h.quantile_secs(0.95)),
            p99_latency_secs: latency.map_or(0.0, |h| h.quantile_secs(0.99)),
            max_latency_secs: latency.map_or(0.0, |h| h.max_secs()),
            mean_wait_secs: self.wait_time.mean(),
            dists: self.dists.clone(),
        }
    }
}

/// A finished run's measured rates — what the harness prints next to
/// the model's predictions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Report {
    /// Observation window length, seconds of simulated time.
    pub duration_secs: f64,
    /// Committed user transactions.
    pub committed: u64,
    /// Deadlock aborts.
    pub deadlocks: u64,
    /// Lock waits.
    pub waits: u64,
    /// Reconciliations (timestamp rejections or acceptance failures).
    pub reconciliations: u64,
    /// Committed replica-update transactions.
    pub replica_commits: u64,
    /// Stale replica updates skipped.
    pub stale_updates: u64,
    /// Network messages sent (see [`Metrics::messages`]).
    pub messages: u64,
    /// Tentative commits at mobile nodes.
    pub tentative_commits: u64,
    /// Tentative transactions accepted at the base.
    pub tentative_accepted: u64,
    /// Tentative transactions rejected at the base.
    pub tentative_rejected: u64,
    /// Total object updates performed.
    pub actions: u64,
    /// Messages dropped by fault injection.
    pub messages_dropped: u64,
    /// Messages duplicated by fault injection.
    pub messages_duplicated: u64,
    /// Lock-wait timeout aborts (also counted in `deadlocks`).
    pub lock_timeouts: u64,
    /// Node crashes injected.
    pub node_crashes: u64,
    /// Waits-for graph searches performed.
    pub cycle_checks: u64,
    /// Commits per second.
    pub commit_rate: f64,
    /// Deadlocks per second — compare with equations (5), (12), (13), (19).
    pub deadlock_rate: f64,
    /// Waits per second — compare with equation (10).
    pub wait_rate: f64,
    /// Reconciliations per second — compare with equations (14), (18).
    pub reconciliation_rate: f64,
    /// Object updates per second — compare with equation (8).
    pub action_rate: f64,
    /// Mean user-transaction latency, seconds.
    pub mean_latency_secs: f64,
    /// Median user-transaction latency, seconds (log-bucket resolution).
    pub p50_latency_secs: f64,
    /// 95th-percentile latency, seconds.
    pub p95_latency_secs: f64,
    /// 99th-percentile latency, seconds.
    pub p99_latency_secs: f64,
    /// Largest observed latency, seconds (exact).
    pub max_latency_secs: f64,
    /// Mean lock-wait duration, seconds.
    pub mean_wait_secs: f64,
    /// Every named distribution the run collected: latency/wait/lag
    /// histograms, abort/retry counters, staleness gauges. Plain
    /// mergeable values — the harness folds them into the `--metrics`
    /// registry after the (possibly parallel) sweep returns.
    pub dists: RunMetrics,
}

#[cfg(test)]
mod tests {
    use super::*;
    use repl_sim::SimDuration;

    #[test]
    fn report_computes_rates() {
        let mut m = Metrics::new();
        for _ in 0..20 {
            m.committed.incr();
        }
        m.deadlocks.add(5);
        m.record_latency(SimDuration::from_secs_f64(0.25));
        let r = m.report(SimTime::ZERO, SimTime::from_secs(10));
        assert_eq!(r.committed, 20);
        assert!((r.commit_rate - 2.0).abs() < 1e-12);
        assert!((r.deadlock_rate - 0.5).abs() < 1e-12);
        assert!((r.mean_latency_secs - 0.25).abs() < 1e-12);
        // One sample: quantiles clamp to the observed range, so every
        // percentile is that sample.
        assert_eq!(r.p50_latency_secs, 0.25);
        assert_eq!(r.p99_latency_secs, 0.25);
        assert!((r.duration_secs - 10.0).abs() < 1e-12);
    }

    #[test]
    fn empty_window_rates_are_zero() {
        let mut m = Metrics::new();
        m.committed.incr();
        let r = m.report(SimTime::from_secs(5), SimTime::from_secs(5));
        assert_eq!(r.commit_rate, 0.0);
        assert_eq!(r.committed, 1);
    }

    #[test]
    fn wait_time_accumulates() {
        let mut m = Metrics::new();
        m.wait_time.record_duration(SimDuration::from_millis(100));
        m.wait_time.record_duration(SimDuration::from_millis(200));
        let r = m.report(SimTime::ZERO, SimTime::from_secs(1));
        assert!((r.mean_wait_secs - 0.15).abs() < 1e-12);
    }
}
