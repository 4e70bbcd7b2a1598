//! Failover invariants of the replicated two-tier base, end to end
//! through the public facade: a primary killed *mid-session* must not
//! re-execute any tentative transaction twice, and arbitrary seeded
//! crash/elect/catch-up schedules must keep the oracles green (at most
//! one primary per epoch, no acknowledged commit lost, sound
//! acceptance, replicas converged to the master).
//!
//! `goldens/failover.txt` pins the `failover` experiment. It was
//! regenerated once, when the experiment moved from a hand-driven tick
//! loop over a separate base-group state machine onto the two-tier
//! simulator under the kernel's fault plan. Every row moved; by class,
//! with before → after samples (seed 41, quick):
//!
//! * *Unavailability* (`unavail p50/p95/p99`): driver ticks between
//!   the crash and the next sync → simulated ms between the crash and
//!   the next base-bound request, which at one transaction per second
//!   per node comes within a second. `crash=0.002`: 5 ticks → 218 ms;
//!   `crash=0.02` p95: 5 ticks → 7,055 ms (a backup was down too, so
//!   no quorum could elect until a restart).
//! * *Crashes and elections*: the schedule is a function of the seed
//!   and the rate alone, no longer of which node is primary, so a
//!   backup's crash elects nothing. `crash=0.02`: 1 crash, 1 election
//!   → 3 crashes, 3 elections.
//! * *`acked` and `syncs`*: one acknowledged sync per call → base
//!   commits, and tentative transactions the base re-executed.
//!   `crash=0.002`: acked 12 → 284, syncs 12 → 71.
//! * *`fenced`* stays 0 on every default row: with zero network delay a
//!   deposed primary's refreshes all land before the election.
//! * *The `--faults` sections*: `crash=base0:3..9;crash=base1:20..30`
//!   → `crash=0:3..9;crash=1:20..30`, the same base nodes under the
//!   plan's plain node ids.
//!
//! The metrics export keeps its two histograms, `failover_unavailability`
//! now in µs of simulated time instead of ticks, and gains the
//! `epoch_fenced` counter on a run that fences.
//!
//! It was regenerated once more when the constant `election_rounds`
//! histogram (every election takes one round) was deleted: the `max
//! rounds` column and the exported `election_rounds` histograms are
//! gone, `elections` now counts `failover_unavailability` samples (one
//! per election), and no other number moved.

use dangers_of_replication::check::{Recorder, Scheme, Violation};
use dangers_of_replication::core::{SimConfig, TwoTierConfig, TwoTierSim, TwoTierWorkload};
use dangers_of_replication::model::Params;
use dangers_of_replication::net::{CrashWindow, FaultPlan};
use dangers_of_replication::sim::{SimDuration, SimRng, SimTime};
use dangers_of_replication::storage::NodeId;
use dangers_of_replication::telemetry::{AbortReason, Event, EventKind, TraceHandle, Tracer};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

const BASE_NODES: u32 = 3;

/// The failover events these tests judge by, in trace order.
#[derive(Default)]
struct Log(Vec<Event>);

impl Tracer for Log {
    fn record(&mut self, e: &Event) {
        let keep = matches!(
            e.kind,
            EventKind::TentativeCommit
                | EventKind::TentativeAccepted
                | EventKind::TentativeRejected
                | EventKind::LeaderElected { .. }
                | EventKind::TxnAbort {
                    reason: AbortReason::Crash
                }
        );
        if keep {
            self.0.push(e.clone());
        }
    }
}

impl Log {
    fn count(&self, pred: impl Fn(&Event) -> bool) -> usize {
        self.0.iter().filter(|e| pred(e)).count()
    }

    /// Every tentative transaction got exactly one verdict, mobile by
    /// mobile.
    fn assert_one_verdict_each(&self, nodes: u32) {
        for node in (BASE_NODES..nodes).map(NodeId) {
            let commits = self.count(|e| e.node == node && e.kind == EventKind::TentativeCommit);
            let verdicts = self.count(|e| {
                e.node == node
                    && matches!(
                        e.kind,
                        EventKind::TentativeAccepted | EventKind::TentativeRejected
                    )
            });
            assert_eq!(commits, verdicts, "mobile {node}: commits vs verdicts");
        }
    }

    /// The epochs the elections installed, in order.
    fn epochs(&self) -> Vec<u64> {
        let epochs = self.0.iter().filter_map(|e| match e.kind {
            EventKind::LeaderElected { epoch, .. } => Some(epoch),
            _ => None,
        });
        epochs.collect()
    }
}

/// Three base nodes and four mobiles over eight accounts.
fn config(seed: u64, horizon: u64) -> TwoTierConfig {
    let p = Params::new(8.0, 7.0, 2.0, 3.0, 0.01);
    TwoTierConfig {
        sim: SimConfig::from_params(&p, horizon, seed).with_warmup(0),
        base_nodes: BASE_NODES,
        mobile_owned: 0,
        connected: SimDuration::from_secs(3),
        disconnected: SimDuration::from_secs(6),
        workload: TwoTierWorkload::Commutative { max_amount: 9 },
        initial_value: 1_000_000,
    }
}

/// Run `cfg` under `plan`, recorded and traced; check that the
/// replicas converged to the master and return the oracles' verdict
/// and the log.
fn run(cfg: TwoTierConfig, plan: FaultPlan) -> (Vec<Violation>, Log) {
    let log = Rc::new(RefCell::new(Log::default()));
    let recorder = Recorder::new(Scheme::TwoTier);
    let (_, master, replicas) = TwoTierSim::new(cfg)
        .with_faults(plan)
        .with_tracer(TraceHandle::shared(&log))
        .with_recorder(recorder.clone())
        .run_with_state();
    for (i, replica) in replicas.iter().enumerate() {
        assert_eq!(replica.digest(), master.digest(), "node {i} diverged");
    }
    let log = Rc::try_unwrap(log).ok().expect("run over").into_inner();
    (recorder.check().violations, log)
}

/// The paper's exactly-once guarantee must survive a change of
/// primary: a crash aborts the base re-executions in flight, puts each
/// back at the front of its mobile's queue, and the next primary
/// resumes the session. Every primary in turn is killed; some crash
/// must cut a session short, and still every tentative transaction
/// gets exactly one verdict. (Mobiles reconnect for an instant, so all
/// their work is tentative and every base transaction they originate
/// is a session's.)
#[test]
fn primary_killed_mid_sync_does_not_double_debit() {
    let plan = "crash=0:10..14; crash=1:20..24; crash=0:30..34; crash=1:40..44; crash=0:50..54";
    let cfg = TwoTierConfig {
        connected: SimDuration::ZERO,
        ..config(3, 60)
    };
    let (violations, log) = run(cfg, FaultPlan::parse(plan, 3).unwrap());
    assert_eq!(violations, vec![], "oracles");
    assert_eq!(
        log.epochs(),
        [2, 3, 4, 5, 6],
        "one election per primary crash"
    );
    let cut = log.count(|e| {
        e.node.0 >= BASE_NODES
            && matches!(
                e.kind,
                EventKind::TxnAbort {
                    reason: AbortReason::Crash
                }
            )
    });
    assert!(cut > 0, "no crash cut a session short");
    log.assert_one_verdict_each(cfg.sim.nodes);
}

/// An acknowledged commit is one the primary has *sent*, not one a
/// majority holds. A primary cut off by a partition keeps committing
/// its own node's work while its refreshes wait at the cut; when it
/// then crashes, the survivors elect a successor that never saw them.
/// The durability oracle must say so. (Making the ack wait for a
/// majority is the fix this pins.)
#[test]
fn an_isolated_primary_that_crashes_loses_acknowledged_commits() {
    let plan = FaultPlan::parse("part=10..30:0; crash=0:20..40", 9).unwrap();
    let log = Rc::new(RefCell::new(Log::default()));
    let recorder = Recorder::new(Scheme::TwoTier);
    TwoTierSim::new(config(9, 60))
        .with_faults(plan)
        .with_tracer(TraceHandle::shared(&log))
        .with_recorder(recorder.clone())
        .run();
    let violations = recorder.check().violations;
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, Violation::LostCommit { epoch: 1, .. })),
        "{violations:?}"
    );
    assert_eq!(log.borrow().epochs()[0], 2, "the survivors elected");
}

/// A crash schedule over the base nodes: each second, each base node
/// crashes with probability 5 % for one to eight seconds.
fn random_crashes(seed: u64, horizon: u64) -> FaultPlan {
    let mut plan = FaultPlan::quiet(seed);
    let mut rng = SimRng::stream(seed, "failover-fuzz");
    let mut up_at = [0u64; BASE_NODES as usize];
    for t in 0..horizon {
        for (node, up_at) in up_at.iter_mut().enumerate() {
            if rng.chance(0.05) && t >= *up_at {
                *up_at = t + 1 + rng.gen_range(8);
                plan.crashes.push(CrashWindow {
                    node: NodeId(node as u32),
                    at: SimTime::from_secs(t),
                    restart: SimTime::from_secs(*up_at),
                });
            }
        }
    }
    plan
}

/// 100 seeds of randomized crash / election / catch-up schedules, with
/// duplicated messages on top. Every seed must end with the oracles
/// green, replicas converged to the master, every tentative
/// transaction judged once, and one epoch per election.
#[test]
fn fuzz_crash_elect_catch_up_keeps_oracles_green() {
    for seed in 0..100u64 {
        let mut plan = random_crashes(seed, 40);
        plan.dup_p = 0.05;
        let cfg = config(seed, 40);
        let (violations, log) = run(cfg, plan);
        assert_eq!(violations, vec![], "seed {seed}: oracle violation");
        log.assert_one_verdict_each(cfg.sim.nodes);
        let epochs = log.epochs();
        let want: Vec<u64> = (2..2 + epochs.len() as u64).collect();
        assert_eq!(epochs, want, "seed {seed}: one epoch per election");
    }
}

/// The text `harness --json [--quick] --seed S [--faults F] --metrics M
/// failover` prints and exports: the pretty table, then the registry.
fn failover_golden_section(seed: u64, quick: bool, faults: Option<&str>) -> String {
    use dangers_of_replication::harness::{
        experiments::failover::failover, MetricsSession, RunOpts,
    };
    let opts = RunOpts {
        quick,
        seed,
        faults: faults.map(|f| FaultPlan::parse(f, seed).expect("valid fault spec")),
        metrics: MetricsSession::enabled(),
        ..RunOpts::default()
    };
    let table = serde_json::to_string_pretty(&failover(&opts)).expect("tables serialize");
    let metrics = opts.metrics.to_json().expect("session enabled");
    let horizon = if quick { "quick" } else { "full" };
    let faults = faults.unwrap_or("-");
    format!("## seed={seed} horizon={horizon} faults={faults}\n{table}\n{metrics}\n")
}

/// Byte-identity golden for the failover experiment: table and metrics
/// export for three seeds at both horizons, plus an explicit `--faults`
/// schedule (`REGEN_FAILOVER_GOLDENS=1 cargo test -q --test failover`
/// regenerates it).
#[test]
fn failover_experiment_matches_goldens() {
    const FAULTS: &str = "crash=0:3..9;crash=1:20..30";
    let mut got = String::new();
    for seed in [41, 42, 7] {
        for quick in [true, false] {
            got.push_str(&failover_golden_section(seed, quick, None));
        }
    }
    for quick in [true, false] {
        got.push_str(&failover_golden_section(41, quick, Some(FAULTS)));
    }
    let path = format!("{}/tests/goldens/failover.txt", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("REGEN_FAILOVER_GOLDENS").is_some() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .expect("goldens missing — run with REGEN_FAILOVER_GOLDENS=1 to create them");
    for (got, want) in got.split("## ").zip(want.split("## ")) {
        assert_eq!(got, want, "failover run diverged from its golden");
    }
    assert_eq!(
        got.len(),
        want.len(),
        "failover.txt covers a different grid"
    );
}

/// One crash window: a node (one past the base: a mobile), a start
/// second and a length.
fn arb_window() -> impl Strategy<Value = (u32, u64, u64)> {
    (0..BASE_NODES + 1, 0u64..40, 1u64..10)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random crash plans over the base nodes (and a mobile), without
    /// drops: leader safety, acked durability, acceptance and
    /// convergence stay clean, every tentative transaction is judged
    /// once, and the epochs count the elections.
    #[test]
    fn random_base_crash_plans_keep_the_oracles_clean(
        windows in prop::collection::vec(arb_window(), 0..8),
        seed in 0u64..1_000,
    ) {
        let spec: Vec<String> = windows
            .iter()
            .map(|(node, at, len)| format!("crash={node}:{at}..{}", at + len))
            .collect();
        let plan = FaultPlan::parse(&spec.join(";"), seed).unwrap();
        let cfg = config(seed, 40);
        let (violations, log) = run(cfg, plan);
        prop_assert_eq!(violations, vec![]);
        log.assert_one_verdict_each(cfg.sim.nodes);
        let epochs = log.epochs();
        let want: Vec<u64> = (2..2 + epochs.len() as u64).collect();
        prop_assert_eq!(epochs, want);
    }
}
