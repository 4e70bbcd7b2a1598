//! Failover experiment — the replicated base tier under seeded crash
//! schedules.
//!
//! The paper's two-tier scheme (§7) hangs everything on the base
//! node's availability: while the base is down, mobiles can only queue
//! tentative work. This experiment runs the two-tier simulator with
//! three base nodes (a primary and two backups) and four mobiles under
//! a sweep of crash probabilities, and measures what replication buys:
//! every primary crash deposes it, and the next base-bound request
//! elects a successor among the survivors. The table reports the
//! unavailability percentiles (simulated ms from the primary's crash
//! to the election), election counts, fence activity, and — via the
//! recorder's oracles — that no epoch ever had two leaders, no
//! acknowledged commit was lost, and everything else the two-tier
//! oracles promise.
//!
//! The crash schedule is a function of the seed and the crash
//! probability alone, so every number in the table is byte-identical
//! across runs and `--jobs` counts.

use crate::par::run_points;
use crate::table::Table;
use crate::{Instrument, RunOpts};
use repl_check::{Recorder, Scheme};
use repl_core::{
    SimConfig, TwoTierConfig, TwoTierSim, TwoTierWorkload, M_EPOCH_FENCED,
    M_FAILOVER_UNAVAILABILITY,
};
use repl_model::Params;
use repl_net::{CrashWindow, FaultPlan};
use repl_sim::{SimDuration, SimRng, SimTime};
use repl_storage::NodeId;
use repl_telemetry::RunMetrics;

/// Base nodes: a primary and two backups tolerate one failure.
const BASE_NODES: u32 = 3;
/// Mobiles syncing against the base.
const MOBILES: u32 = 4;
/// Every node of a failover run: `--faults` windows are validated
/// against this before any engine runs.
pub const NODES: u32 = BASE_NODES + MOBILES;
/// Accounts in the master database.
const DB_SIZE: u64 = 8;
/// Initial balance per account (large enough that NonNegative rarely
/// rejects; rejections are not what this experiment measures).
const BALANCE: i64 = 1_000_000;
/// Seconds a probabilistically crashed base node stays down.
const DOWNTIME: u64 = 12;

/// Everything one sweep point measures.
struct PointResult {
    label: String,
    crashes: u64,
    elections: u64,
    unavail: (u64, u64, u64),
    fenced: u64,
    acked: u64,
    synced: u64,
    violations: Vec<String>,
    metrics: RunMetrics,
}

/// The seeded crash schedule over `horizon` seconds: each second, base
/// node 0 (the first primary) crashes with probability `crash_p` and
/// each backup with a third of that, for [`DOWNTIME`] seconds. Node 0
/// also crashes at a third of the horizon, so even a quick run
/// measures a failover.
fn crash_plan(seed: u64, crash_p: f64, horizon: u64) -> FaultPlan {
    let mut plan = FaultPlan::quiet(seed);
    let mut rng = SimRng::stream(seed, "failover-schedule");
    let mut up_at = [0u64; BASE_NODES as usize];
    for t in 0..horizon {
        for (node, up_at) in up_at.iter_mut().enumerate() {
            let p = if node == 0 { crash_p } else { crash_p / 3.0 };
            let forced = node == 0 && t == horizon / 3;
            if (forced || rng.chance(p)) && t >= *up_at {
                *up_at = t + DOWNTIME;
                plan.crashes.push(CrashWindow {
                    node: NodeId(node as u32),
                    at: SimTime::from_secs(t),
                    restart: SimTime::from_secs(t + DOWNTIME),
                });
            }
        }
    }
    plan
}

/// Run the base tier for `horizon` seconds under `plan`. Every node
/// works at one transaction per second, and mobiles reconnect every
/// few seconds; below quorum they keep their queues, which is the
/// measured behavior, not an error.
fn drive(opts: &RunOpts, label: &str, seed: u64, horizon: u64, plan: FaultPlan) -> PointResult {
    let p = Params::new(DB_SIZE as f64, f64::from(NODES), 1.0, 2.0, 0.01);
    let cfg = TwoTierConfig {
        sim: SimConfig::from_params(&p, horizon, seed).with_warmup(0),
        base_nodes: BASE_NODES,
        mobile_owned: 0,
        connected: SimDuration::from_secs(5),
        disconnected: SimDuration::from_secs(5),
        workload: TwoTierWorkload::Commutative { max_amount: 9 },
        initial_value: BALANCE,
    };
    // The oracles judge every run, not only under `--check`: this
    // recorder replaces the one a `--check` session attaches.
    let recorder = Recorder::new(Scheme::TwoTier);
    let report = TwoTierSim::new(cfg)
        .with_faults(plan)
        .instrument(opts, format!("failover {label}"))
        .with_recorder(recorder.clone())
        .run();
    // The export keeps what this experiment is about.
    let mut dists = report.dists.clone();
    dists.gauges.clear();
    dists.counters.retain(|name, _| name == M_EPOCH_FENCED);
    dists
        .histograms
        .retain(|name, _| name == M_FAILOVER_UNAVAILABILITY);
    // One unavailability sample per election.
    let unavail = dists.histogram(M_FAILOVER_UNAVAILABILITY);
    let ms = |q: f64| unavail.map_or(0, |h| h.value_at_quantile(q) / 1_000);
    PointResult {
        label: label.to_owned(),
        crashes: report.node_crashes,
        elections: unavail.map_or(0, |h| h.count()),
        unavail: (ms(0.50), ms(0.95), ms(0.99)),
        fenced: dists.counter(M_EPOCH_FENCED),
        acked: report.committed,
        synced: report.tentative_accepted + report.tentative_rejected,
        violations: recorder
            .check()
            .violations
            .iter()
            .map(|v| v.to_string())
            .collect(),
        metrics: dists,
    }
}

/// FAILOVER: crash rate vs availability of the replicated base tier.
pub fn failover(opts: &RunOpts) -> Table {
    let mut t = Table::new(
        "FAILOVER",
        "replicated base tier: epoch-fenced elections under seeded crash schedules",
        &[
            "crash_p",
            "crashes",
            "elections",
            "unavail p50",
            "p95",
            "p99",
            "fenced",
            "acked",
            "syncs",
            "safe",
        ],
    );
    let horizon = opts.horizon(400);
    // With an explicit --faults plan the sweep collapses to one point:
    // the schedule, not the probability, is the subject.
    let points: Vec<f64> = if opts.faults.is_none() {
        vec![0.002, 0.005, 0.01, 0.02]
    } else {
        vec![0.0]
    };
    let results = run_points(opts, points, |opts, &crash_p| match &opts.faults {
        Some(plan) => drive(opts, "faults", opts.seed, horizon, plan.clone()),
        None => {
            let seed = opts.seed ^ (crash_p * 1e6) as u64;
            let plan = crash_plan(seed, crash_p, horizon);
            drive(opts, &format!("crash={crash_p}"), seed, horizon, plan)
        }
    });
    for r in results {
        opts.metrics
            .absorb(&format!("failover/{}", r.label), &r.metrics);
        let safe = if r.violations.is_empty() { "yes" } else { "NO" };
        t.row(vec![
            r.label.clone(),
            format!("{}", r.crashes),
            format!("{}", r.elections),
            format!("{}", r.unavail.0),
            format!("{}", r.unavail.1),
            format!("{}", r.unavail.2),
            format!("{}", r.fenced),
            format!("{}", r.acked),
            format!("{}", r.synced),
            safe.to_string(),
        ]);
        for v in r.violations {
            t.violation(format!("failover {}: {v}", r.label));
        }
    }
    t.note("unavailability percentiles are in simulated ms from the primary's crash to the next election");
    t.note("acked = base commits; syncs = tentative transactions the base re-executed");
    t.note("safe = every two-tier oracle clean, among them at-most-one-primary-per-epoch and no acknowledged commit lost");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> RunOpts {
        RunOpts {
            quick: true,
            seed: 41,
            ..RunOpts::default()
        }
    }

    #[test]
    fn failover_sweep_is_safe_and_elects() {
        for seed in [41, 42, 7] {
            let t = failover(&RunOpts { seed, ..quick() });
            assert_eq!(t.rows.len(), 4);
            assert!(t.violations.is_empty(), "seed {seed}: {:?}", t.violations);
            for row in &t.rows {
                assert_eq!(row.last().unwrap(), "yes", "unsafe row: {row:?}");
            }
            // The hottest crash rate must actually exercise failover.
            let hottest = t.rows.last().unwrap();
            assert_ne!(hottest[2], "0", "no elections at crash_p=0.02: {hottest:?}");
        }
    }

    #[test]
    fn the_crash_schedule_depends_on_seed_and_rate_only() {
        let plan = crash_plan(41, 0.02, 40);
        assert_eq!(plan, crash_plan(41, 0.02, 40));
        // The forced crash of node 0 at a third of the horizon.
        assert!(plan
            .crashes
            .iter()
            .any(|c| c.node == NodeId(0) && c.at == SimTime::from_secs(13)));
        for c in &plan.crashes {
            assert!(c.node.0 < BASE_NODES, "{c:?}");
            assert_eq!(c.restart.since(c.at), SimDuration::from_secs(DOWNTIME));
        }
    }

    #[test]
    fn failover_is_deterministic_across_jobs() {
        let serial = failover(&quick());
        let parallel = failover(&RunOpts { jobs: 4, ..quick() });
        assert_eq!(serial.rows, parallel.rows);
    }

    #[test]
    fn failover_forwards_events_to_the_cli_tracer() {
        use repl_telemetry::{EventKind, RingBuffer};
        use std::cell::RefCell;
        use std::rc::Rc;
        let sink = Rc::new(RefCell::new(RingBuffer::new(1 << 14)));
        let mut opts = quick();
        opts.tracer.attach(&sink);
        let traced = failover(&opts);
        let untraced = failover(&quick());
        assert_eq!(traced.rows, untraced.rows, "tracing must be observational");
        let ring = sink.borrow();
        assert!(
            ring.events()
                .any(|e| matches!(e.kind, EventKind::LeaderElected { .. })),
            "no LeaderElected reached the CLI tracer ({} events)",
            ring.total_recorded()
        );
    }

    #[test]
    fn failover_honors_base_crash_faults() {
        let plan = FaultPlan::parse("crash=0:3..9", 41).unwrap();
        let t = failover(&RunOpts {
            faults: Some(plan),
            ..quick()
        });
        assert_eq!(t.rows.len(), 1, "explicit windows collapse the sweep");
        let row = &t.rows[0];
        assert_eq!(row[0], "faults");
        assert_eq!(row[1], "1", "exactly the scheduled crash: {row:?}");
        assert_ne!(row[2], "0", "the scheduled primary crash must elect");
        assert!(t.violations.is_empty(), "{:?}", t.violations);
    }

    #[test]
    fn failover_ignores_a_window_for_a_node_the_run_lacks() {
        let plan = FaultPlan::parse("crash=9:3..9", 41).unwrap();
        let t = failover(&RunOpts {
            faults: Some(plan),
            ..quick()
        });
        let row = &t.rows[0];
        assert_eq!(
            (&*row[1], &*row[2]),
            ("0", "0"),
            "nothing to crash: {row:?}"
        );
        assert_eq!(row.last().unwrap(), "yes");
    }
}
