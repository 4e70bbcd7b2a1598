//! Failover experiment — the replicated base tier under seeded crash
//! schedules.
//!
//! The paper's two-tier scheme (§7) hangs everything on the base
//! node's availability: while the base is down, mobiles can only queue
//! tentative work. This experiment runs the *replicated* base tier
//! ([`BaseGroup`]) under a sweep of per-tick crash probabilities and
//! measures what replication buys: every primary crash triggers an
//! epoch-fenced election among the survivors, and the table reports
//! the unavailability-window percentiles (ticks from primary death to
//! the next elected leader), election counts, fence activity, and —
//! via the failover oracles — that no epoch ever had two leaders and
//! no acknowledged commit was lost.
//!
//! The whole run is driven on a logical tick clock with seeded
//! schedules, so every number in the table is byte-identical across
//! runs and `--jobs` counts.

use crate::par::run_points;
use crate::table::Table;
use crate::RunOpts;
use repl_cluster::two_tier::{BaseGroup, MobileNode, RetryPolicy};
use repl_core::{Criterion, Op, Operation, TxnSpec};
use repl_net::CrashWindow;
use repl_sim::SimRng;
use repl_storage::{NodeId, ObjectId};
use repl_telemetry::{Event, RingBuffer, RunMetrics, SyncTraceHandle};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Replicas in the base group. Three tolerates one failure. Public so
/// the CLI can validate `crash=baseN` fault clauses against the group
/// size before a misaddressed window silently never fires.
pub const BASE_REPLICAS: usize = 3;
const REPLICAS: usize = BASE_REPLICAS;
/// Mobiles syncing against the group.
const MOBILES: u32 = 4;
/// Accounts in the master database.
const DB_SIZE: u64 = 8;
/// Initial balance per account (large enough that NonNegative rarely
/// rejects; rejections are not what this experiment measures).
const BALANCE: i64 = 1_000_000;
/// Ticks a probabilistically crashed replica stays down.
const DOWNTIME: u64 = 12;

/// Everything one sweep point measures.
struct PointResult {
    label: String,
    crashes: u64,
    elections: u64,
    unavail: (u64, u64, u64),
    rounds_max: u64,
    fenced: u64,
    acked: u64,
    synced: u64,
    violations: Vec<String>,
    metrics: RunMetrics,
    events: Vec<Event>,
}

/// Drive one base group for `ticks` logical ticks under a crash
/// schedule: either the seeded probabilistic one (`crash_p` per tick
/// against the primary, a third of that against a backup) or, when
/// `windows` is non-empty, exactly those `--faults` windows (tick =
/// second). Mobiles execute tentative debits continuously and sync
/// every few ticks; a degraded group (below quorum) leaves their
/// queues intact, which is the measured behavior, not an error.
fn drive(
    seed: u64,
    ticks: u64,
    crash_p: f64,
    windows: &[CrashWindow],
    capture: bool,
) -> PointResult {
    // The CLI tracer is `Rc`-based and sweep points may run on worker
    // threads, so the base tier traces through the `Sync` sibling.
    // Capture into a ring here and forward on the main thread after
    // the sweep — purely observational, so captured and uncaptured
    // runs produce identical tables.
    let ring = capture.then(|| Arc::new(Mutex::new(RingBuffer::new(1 << 14))));
    let tracer = ring
        .as_ref()
        .map(SyncTraceHandle::shared)
        .unwrap_or_else(SyncTraceHandle::off);
    let group = BaseGroup::spawn_traced(REPLICAS, DB_SIZE, BALANCE, tracer.clone());
    let mut mobiles: Vec<MobileNode> = (0..MOBILES)
        .map(|i| {
            // Mobile ids live outside the replica id space. Spinning
            // retries burn real time, so keep backoff tiny; the
            // measured windows are logical ticks, not wall clock.
            MobileNode::new(NodeId(100 + i), DB_SIZE, BALANCE)
                .with_tracer(tracer.clone())
                .with_retry_policy(RetryPolicy {
                    base: Duration::from_micros(50),
                    cap: Duration::from_micros(400),
                    jitter: 0.5,
                    seed,
                    attempt_timeout: Duration::from_secs(2),
                })
        })
        .collect();
    let mut rng = SimRng::stream(seed, "failover-schedule");
    let mut crashes = 0u64;
    let mut synced = 0u64;
    // Restart schedule for probabilistic crashes: restarts[i] = tick at
    // which replica i rejoins.
    let mut restarts: Vec<Option<u64>> = vec![None; REPLICAS];
    for t in 0..ticks {
        group.advance_to(t);
        // Scheduled rejoins first, then new crashes.
        for (i, due) in restarts.iter_mut().enumerate() {
            if due.is_some_and(|r| r <= t) {
                group.try_restart(i);
                *due = None;
            }
        }
        if windows.is_empty() {
            // Probabilistic schedule: the primary is the interesting
            // target; backups crash at a third of the rate to exercise
            // catch-up and degraded (below-quorum) intervals. One
            // primary crash at a third of the horizon is scheduled
            // unconditionally so even short (quick-mode) runs measure
            // at least one failover.
            let primary = group.primary().map(|n| n.0 as usize);
            for (i, due) in restarts.iter_mut().enumerate() {
                let p = if Some(i) == primary {
                    crash_p
                } else {
                    crash_p / 3.0
                };
                let scheduled = t == ticks / 3 && Some(i) == primary;
                if (scheduled || rng.chance(p)) && group.try_crash(i) {
                    crashes += 1;
                    *due = Some(t + DOWNTIME);
                }
            }
        } else {
            for w in windows {
                let i = w.node.0 as usize;
                if w.at.0 / 1_000_000 == t && group.try_crash(i) {
                    crashes += 1;
                }
                if w.restart.0 / 1_000_000 == t {
                    group.try_restart(i);
                }
            }
        }
        // One tentative transaction per tick, round-robin; a sync
        // every 5th tick per mobile, offset so they interleave.
        let m = (t % u64::from(MOBILES)) as usize;
        let obj = ObjectId(rng.gen_range(DB_SIZE));
        let amount = 1 + rng.gen_range(9) as i64;
        mobiles[m].execute_tentative(
            TxnSpec::new(vec![Operation::new(obj, Op::Debit(amount))])
                .with_criterion(Criterion::NonNegative),
        );
        if (t + m as u64).is_multiple_of(5) && mobiles[m].sync_with_retry(&group, 3).is_some() {
            synced += 1;
        }
    }
    // Drain: restore every replica, then give each mobile a final
    // sync so queued tentative work lands before the oracles run.
    group.advance_to(ticks);
    for i in 0..REPLICAS {
        group.try_restart(i);
    }
    for mobile in &mut mobiles {
        if mobile.sync_with_retry(&group, 5).is_some() {
            synced += 1;
        }
    }
    let metrics = group.metrics();
    let (p50, p95, p99) = metrics
        .histogram("failover_unavailability")
        .map(|h| {
            (
                h.value_at_quantile(0.50),
                h.value_at_quantile(0.95),
                h.value_at_quantile(0.99),
            )
        })
        .unwrap_or((0, 0, 0));
    let rounds_max = metrics
        .histogram("election_rounds")
        .map(|h| h.max())
        .unwrap_or(0);
    let violations = group.verify().iter().map(|v| v.to_string()).collect();
    let result = PointResult {
        label: String::new(),
        crashes,
        elections: group.elections(),
        unavail: (p50, p95, p99),
        rounds_max,
        fenced: group.fenced(),
        acked: group.acked().len() as u64,
        synced,
        violations,
        metrics,
        events: ring
            .map(|r| r.lock().expect("ring poisoned").to_vec())
            .unwrap_or_default(),
    };
    group.shutdown();
    result
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
            "max rounds",
            "fenced",
            "acked",
            "syncs",
            "safe",
        ],
    );
    let ticks = opts.horizon(400);
    let fault_windows: Vec<CrashWindow> = opts
        .faults
        .as_ref()
        .map(|f| f.base_crashes.clone())
        .unwrap_or_default();
    // With explicit --faults windows the sweep collapses to one point:
    // the schedule, not the probability, is the subject.
    let points: Vec<f64> = if fault_windows.is_empty() {
        vec![0.002, 0.005, 0.01, 0.02]
    } else {
        vec![0.0]
    };
    let capture = opts.tracer.is_active();
    let results = run_points(opts, points, |opts, &crash_p| {
        let label = if fault_windows.is_empty() {
            format!("crash={crash_p}")
        } else {
            "faults".to_owned()
        };
        let seed = opts.seed ^ (crash_p * 1e6) as u64;
        let mut r = drive(seed, ticks, crash_p, &fault_windows, capture);
        r.label = label;
        r
    });
    for r in results {
        opts.metrics
            .absorb(&format!("failover/{}", r.label), &r.metrics);
        for e in &r.events {
            opts.tracer.emit(|| e.clone());
        }
        let safe = if r.violations.is_empty() { "yes" } else { "NO" };
        t.row(vec![
            r.label.clone(),
            format!("{}", r.crashes),
            format!("{}", r.elections),
            format!("{}", r.unavail.0),
            format!("{}", r.unavail.1),
            format!("{}", r.unavail.2),
            format!("{}", r.rounds_max),
            format!("{}", r.fenced),
            format!("{}", r.acked),
            format!("{}", r.synced),
            safe.to_string(),
        ]);
        for v in r.violations {
            t.violation(format!("failover {}: {v}", r.label));
        }
    }
    t.note("unavailability percentiles are in driver ticks from primary death to the next elected leader");
    t.note("safe = at-most-one-primary-per-epoch and no acknowledged commit lost");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use repl_net::FaultPlan;

    fn quick() -> RunOpts {
        RunOpts {
            quick: true,
            seed: 41,
            ..RunOpts::default()
        }
    }

    #[test]
    fn failover_sweep_is_safe_and_elects() {
        let t = failover(&quick());
        assert_eq!(t.rows.len(), 4);
        assert!(t.violations.is_empty(), "{:?}", t.violations);
        for row in &t.rows {
            assert_eq!(row.last().unwrap(), "yes", "unsafe row: {row:?}");
        }
        // The hottest crash rate must actually exercise failover.
        let hottest = t.rows.last().unwrap();
        assert_ne!(hottest[2], "0", "no elections at crash_p=0.02: {hottest:?}");
    }

    #[test]
    fn failover_is_deterministic_across_jobs() {
        let serial = failover(&quick());
        let parallel = failover(&RunOpts { jobs: 4, ..quick() });
        assert_eq!(serial.rows, parallel.rows);
    }

    #[test]
    fn failover_forwards_events_to_the_cli_tracer() {
        use repl_telemetry::EventKind;
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
        let plan = FaultPlan::parse("crash=base0:3..9", 41).unwrap();
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
    fn failover_ignores_a_window_for_a_replica_the_group_lacks() {
        let plan = FaultPlan::parse("crash=base7:3..9", 41).unwrap();
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
