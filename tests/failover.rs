//! Failover invariants of the replicated base tier, end to end through
//! the public facade: a primary killed *mid-sync* must not double-apply
//! the mobile's tentative transactions, and arbitrary seeded
//! crash/elect/catch-up schedules must keep the failover oracles green
//! (at most one primary per epoch, no acknowledged commit lost).

use dangers_of_replication::cluster::two_tier::{BaseGroup, MobileNode, RetryPolicy};
use dangers_of_replication::core::{Criterion, Op, Operation, TxnSpec};
use dangers_of_replication::sim::SimRng;
use dangers_of_replication::storage::{NodeId, ObjectId, Value};
use proptest::prelude::*;
use std::time::Duration;

fn debit(obj: u64, amount: i64) -> TxnSpec {
    TxnSpec::new(vec![Operation::new(ObjectId(obj), Op::Debit(amount))])
        .with_criterion(Criterion::NonNegative)
}

/// Retries in these tests are logical, not load tests: keep the
/// backoff tiny so a failover costs microseconds of wall clock.
fn fast_retry(seed: u64) -> RetryPolicy {
    RetryPolicy {
        base: Duration::from_micros(50),
        cap: Duration::from_micros(400),
        jitter: 0.5,
        seed,
        attempt_timeout: Duration::from_secs(2),
    }
}

/// The paper's exactly-once guarantee must survive a change of
/// primary: the primary commits a sync batch, replicates it, and dies
/// before acknowledging. The mobile's retry re-submits the same
/// [`DedupId`]s to whichever replica wins the election, and the
/// replicated dedup map answers from cache — one debit, not two.
#[test]
fn primary_killed_mid_sync_does_not_double_debit() {
    let group = BaseGroup::spawn(3, 2, 100);
    let mut mobile = MobileNode::new(NodeId(100), 2, 100).with_retry_policy(fast_retry(7));
    // A clean sync first, so the crash interrupts a warm session.
    mobile.execute_tentative(debit(0, 10));
    assert_eq!(
        mobile.sync_with_retry(&group, 4).expect("warmup").accepted,
        1
    );

    mobile.execute_tentative(debit(0, 40));
    assert!(group.inject_commit_crash(), "no live primary to arm");
    let outcome = mobile.sync_with_retry(&group, 8).expect("failover sync");
    assert_eq!(outcome.accepted, 1, "replay answered from the dedup cache");
    assert!(group.elections() >= 1, "the crash must have elected");
    assert_eq!(group.epoch(), 2, "one failover, one epoch bump");
    assert_eq!(
        group.snapshot().expect("quorum").get(ObjectId(0)).value,
        Value::Int(50),
        "exactly one 10-debit and one 40-debit across the failover"
    );
    assert_eq!(group.verify(), vec![], "failover oracles");
    group.shutdown();
}

/// 100 seeds of randomized crash / election / catch-up schedules. Every
/// seed must end with the leader-safety and acked-durability oracles
/// green, every queued tentative transaction eventually applied, and
/// the group's epoch equal to one plus the election count.
#[test]
fn fuzz_crash_elect_catch_up_keeps_oracles_green() {
    const REPLICAS: usize = 3;
    const TICKS: u64 = 40;
    const DB: u64 = 4;
    for seed in 0..100u64 {
        let group = BaseGroup::spawn(REPLICAS, DB, 1_000_000);
        let mut mobiles: Vec<MobileNode> = (0..2)
            .map(|i| {
                MobileNode::new(NodeId(200 + i), DB, 1_000_000).with_retry_policy(fast_retry(seed))
            })
            .collect();
        let mut rng = SimRng::stream(seed, "failover-fuzz");
        let mut down_until = [0u64; REPLICAS];
        for t in 0..TICKS {
            group.advance_to(t);
            for (i, due) in down_until.iter_mut().enumerate() {
                if *due != 0 && *due <= t {
                    group.try_restart(i);
                    *due = 0;
                }
                // ~5% per replica per tick: hot enough that most seeds
                // see several elections and a few below-quorum windows.
                if rng.chance(0.05) && group.try_crash(i) {
                    *due = t + 1 + rng.gen_range(8);
                }
            }
            let m = (t % 2) as usize;
            mobiles[m].execute_tentative(debit(rng.gen_range(DB), 1 + rng.gen_range(5) as i64));
            if t % 3 == 0 {
                // May fail below quorum; the queue survives for later.
                let _ = mobiles[m].sync_with_retry(&group, 2);
            }
        }
        // Heal everything and drain the queues.
        group.advance_to(TICKS);
        for i in 0..REPLICAS {
            group.try_restart(i);
        }
        for mobile in &mut mobiles {
            assert!(
                mobile.sync_with_retry(&group, 6).is_some(),
                "seed {seed}: drain sync failed against a healed group"
            );
            assert_eq!(mobile.pending_count(), 0, "seed {seed}: queue not drained");
        }
        assert_eq!(group.verify(), vec![], "seed {seed}: oracle violation");
        assert_eq!(
            group.epoch(),
            1 + group.elections(),
            "seed {seed}: epoch must advance exactly once per election"
        );
        group.shutdown();
    }
}

/// The text `harness --json [--quick] --seed S [--faults F] --metrics M
/// failover` prints and exports: the pretty table, then the registry.
fn failover_golden_section(seed: u64, quick: bool, faults: Option<&str>) -> String {
    use dangers_of_replication::harness::{
        experiments::failover::failover, MetricsSession, RunOpts,
    };
    use dangers_of_replication::net::FaultPlan;
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
/// schedule. Generated while `BaseGroup` still ran one thread per
/// replica (`REGEN_FAILOVER_GOLDENS=1 cargo test -q --test failover`),
/// so it pins every observable of the threaded base tier.
#[test]
fn failover_experiment_matches_goldens() {
    const FAULTS: &str = "crash=base0:3..9;crash=base1:20..30";
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

/// One step of the model-based property below.
#[derive(Debug, Clone)]
enum Step {
    Tentative {
        mobile: usize,
        obj: u64,
        amount: i64,
    },
    Sync {
        mobile: usize,
        attempts: u32,
    },
    /// Replica ids run one past the group: the last is a replica the
    /// group does not have.
    Crash(usize),
    Restart(usize),
    CommitCrash,
    Advance(u64),
}

const MODEL_REPLICAS: usize = 3;
const MODEL_MOBILES: usize = 2;
const MODEL_DB: u64 = 2;
const MODEL_BALANCE: i64 = 1_000_000;

fn arb_step() -> impl Strategy<Value = Step> {
    let mobile = 0..MODEL_MOBILES;
    let replica = 0..MODEL_REPLICAS + 1;
    prop_oneof![
        (mobile.clone(), 0..MODEL_DB, 1i64..10).prop_map(|(mobile, obj, amount)| {
            Step::Tentative {
                mobile,
                obj,
                amount,
            }
        }),
        (mobile.clone(), 1u32..4).prop_map(|(mobile, attempts)| Step::Sync { mobile, attempts }),
        // Arms are equally likely; a second sync arm keeps queues short.
        (mobile, 1u32..4).prop_map(|(mobile, attempts)| Step::Sync { mobile, attempts }),
        replica.clone().prop_map(Step::Crash),
        replica.prop_map(Step::Restart),
        Just(Step::CommitCrash),
        (1u64..6).prop_map(Step::Advance),
    ]
}

/// What the test predicts from the group's public observables alone:
/// the master balances, and how many queued batches each restart must
/// fence.
struct Model {
    balance: [i64; MODEL_DB as usize],
    /// Per mobile: the debits of its pending queue, and how many of
    /// them a primary has already decided.
    pending: [Vec<(u64, i64)>; MODEL_MOBILES],
    decided: [usize; MODEL_MOBILES],
    /// Per replica: the epoch of every batch shipped while it was down.
    queued: [Vec<u64>; MODEL_REPLICAS],
    fenced: u64,
}

impl Model {
    /// Whether the next request finds a primary: one is installed, or
    /// a quorum is live to elect one.
    fn reachable(group: &BaseGroup) -> bool {
        group.primary().is_some() || group.has_quorum()
    }

    /// A sync is about to run. If its first attempt reaches a primary,
    /// that primary executes what no primary decided before — exactly
    /// once — and ships it under its epoch, which every replica that is
    /// down queues. Further attempts (after a commit-crash) find
    /// everything decided and ship nothing.
    fn before_sync(&mut self, group: &BaseGroup, m: usize) {
        if !Model::reachable(group) || self.decided[m] == self.pending[m].len() {
            return;
        }
        for &(obj, amount) in &self.pending[m][self.decided[m]..] {
            self.balance[obj as usize] -= amount;
        }
        self.decided[m] = self.pending[m].len();
        let epoch = group.epoch() + u64::from(group.primary().is_none());
        for (i, queue) in self.queued.iter_mut().enumerate() {
            if group.is_crashed(i) {
                queue.push(epoch);
            }
        }
    }

    /// Replica `i` is about to restart at the group's epoch: every
    /// batch a deposed primary queued beneath it must be fenced.
    fn before_restart(&mut self, group: &BaseGroup, i: usize) {
        if group.is_crashed(i) {
            let epoch = group.epoch();
            self.fenced += self.queued[i].drain(..).filter(|e| *e < epoch).count() as u64;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Random interleavings of tentative work, retried syncs, crashes,
    /// restarts, commit-crashes and clock advances, then heal and
    /// drain: the oracles stay green, the epoch counts the elections,
    /// every queue drains, stale batches are fenced exactly where the
    /// model says, and each debit reaches the master exactly once.
    #[test]
    fn base_tier_matches_model_under_random_schedules(
        steps in prop::collection::vec(arb_step(), 1..60),
    ) {
        let group = BaseGroup::spawn(MODEL_REPLICAS, MODEL_DB, MODEL_BALANCE);
        let mut mobiles: Vec<MobileNode> = (0..MODEL_MOBILES)
            .map(|i| {
                MobileNode::new(NodeId(100 + i as u32), MODEL_DB, MODEL_BALANCE)
                    .with_retry_policy(fast_retry(i as u64))
            })
            .collect();
        let mut model = Model {
            balance: [MODEL_BALANCE; MODEL_DB as usize],
            pending: Default::default(),
            decided: [0; MODEL_MOBILES],
            queued: Default::default(),
            fenced: 0,
        };
        let mut now = 0;
        for step in steps {
            match step {
                Step::Tentative { mobile, obj, amount } => {
                    mobiles[mobile].execute_tentative(debit(obj, amount));
                    model.pending[mobile].push((obj, amount));
                }
                Step::Sync { mobile, attempts } => {
                    model.before_sync(&group, mobile);
                    if let Some(outcome) = mobiles[mobile].sync_with_retry(&group, attempts) {
                        prop_assert_eq!(outcome.accepted, model.pending[mobile].len() as u64);
                        model.pending[mobile].clear();
                        model.decided[mobile] = 0;
                    }
                }
                Step::Crash(i) => {
                    let was_up = i < MODEL_REPLICAS && !group.is_crashed(i);
                    prop_assert_eq!(group.try_crash(i), was_up);
                }
                Step::Restart(i) => {
                    let was_down = group.is_crashed(i);
                    if i < MODEL_REPLICAS {
                        model.before_restart(&group, i);
                    }
                    prop_assert_eq!(group.try_restart(i).is_some(), was_down);
                }
                Step::CommitCrash => {
                    let reachable = Model::reachable(&group);
                    prop_assert_eq!(group.inject_commit_crash(), reachable);
                }
                Step::Advance(ticks) => {
                    now += ticks;
                    group.advance_to(now);
                }
            }
        }
        for i in 0..MODEL_REPLICAS {
            model.before_restart(&group, i);
            group.try_restart(i);
        }
        for (m, mobile) in mobiles.iter_mut().enumerate() {
            model.before_sync(&group, m);
            prop_assert!(mobile.sync_with_retry(&group, 4).is_some(), "drain sync failed");
            prop_assert_eq!(mobile.pending_count(), 0);
        }
        prop_assert_eq!(group.verify(), vec![]);
        prop_assert_eq!(group.epoch(), 1 + group.elections());
        prop_assert_eq!(group.fenced(), model.fenced);
        let master = group.snapshot().expect("healed group has a quorum");
        for (obj, want) in model.balance.iter().enumerate() {
            prop_assert_eq!(&master.get(ObjectId(obj as u64)).value, &Value::Int(*want));
        }
    }
}
