//! The four workloads: what one pass runs, generated from the seed.
//!
//! A workload is a list of [`Op`]s — plain configuration values
//! (`SimConfig`, fault-spec strings, crash points) derived from the
//! workload seed. The program under test never sees the seed itself,
//! only these generated inputs. [`execute`] constructs the engine
//! through the public API, runs it, verifies its output, and reports
//! how long each of the three steps took.

use crate::trace::Tracer;
use repl_check::{check_store_convergence, Recorder, Scheme};
use repl_core::{
    CommitProto, ContentionProfile, ContentionSim, CrashKind, CrashPoint, EagerSim, LazyGroupSim,
    LazyMasterSim, Mobility, Ownership, ReplicaDiscipline, Report, SimConfig, TwoTierConfig,
    TwoTierSim, TwoTierWorkload,
};
use repl_harness::experiments::{self, Experiment};
use repl_harness::{MetricsSession, RunOpts, Table};
use repl_model::Params;
use repl_net::{FaultPlan, LatencyModel};
use repl_sim::SimDuration;
use repl_storage::NodeId;
use repl_telemetry::{NullTracer, Profiler, TraceHandle};
use std::time::Instant;

/// Workload names, in the order `run.sh` runs them.
pub const NAMES: [&str; 4] = [
    "dense-full",
    "sharded-scaleout",
    "chaos-oracle",
    "sweep-quick-all",
];

/// Which event loop an operation spends its time in (the `core.*`
/// per-loop metrics group by this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Loop {
    /// `engine/contention.rs` (single-node, eager, lazy-master).
    Contention,
    /// `engine/lazy_group.rs`.
    LazyGroup,
    /// `engine/two_tier.rs`.
    TwoTier,
    /// A whole `repl_harness` experiment.
    Harness,
}

/// The engine an operation constructs, with its generated inputs.
#[derive(Clone)]
pub enum Spec {
    /// `ContentionSim` with the single-node profile.
    SingleNode(SimConfig),
    /// `EagerSim`.
    Eager(SimConfig, ReplicaDiscipline, Ownership),
    /// `LazyMasterSim`.
    LazyMaster(SimConfig),
    /// `LazyGroupSim`.
    LazyGroup(SimConfig, Mobility),
    /// `TwoTierSim`.
    TwoTier(TwoTierConfig),
    /// One entry of `repl_harness::experiments::ALL`, run with
    /// `RunOpts { quick: true, seed, jobs: 1 }`.
    Experiment(&'static Experiment, u64),
}

/// One operation: an engine run or an experiment, with its
/// verification.
#[derive(Clone)]
pub struct Op {
    /// Unique name within the workload (span `op`, results key).
    pub name: String,
    /// What to construct.
    pub spec: Spec,
    /// Fault-plan spec, parsed during set-up (`None` ⇒ quiet network).
    pub faults: Option<String>,
    /// Attach a `Recorder` and run the oracles afterwards.
    pub oracle: bool,
}

impl Op {
    /// The event loop this operation exercises.
    pub fn event_loop(&self) -> Loop {
        match self.spec {
            Spec::SingleNode(_) | Spec::Eager(..) | Spec::LazyMaster(_) => Loop::Contention,
            Spec::LazyGroup(..) => Loop::LazyGroup,
            Spec::TwoTier(_) => Loop::TwoTier,
            Spec::Experiment(..) => Loop::Harness,
        }
    }

    /// The simulation config, for engine operations.
    pub fn sim_config(&self) -> Option<&SimConfig> {
        match &self.spec {
            Spec::SingleNode(c)
            | Spec::Eager(c, ..)
            | Spec::LazyMaster(c)
            | Spec::LazyGroup(c, _) => Some(c),
            Spec::TwoTier(t) => Some(&t.sim),
            Spec::Experiment(..) => None,
        }
    }

    /// A line that pins every generated input (determinism test, and
    /// the `ops` list in `results.json`).
    pub fn describe(&self) -> String {
        let cfg = |c: &SimConfig| {
            format!(
                "nodes={} db={} tps={} actions={} horizon={}s seed={} shards={}/{} xshard={} proto={} xpoint={}",
                c.nodes,
                c.db_size,
                c.tps,
                c.actions,
                c.horizon.as_secs_f64(),
                c.seed,
                c.shards,
                c.rf,
                c.cross_shard,
                c.commit_proto.name(),
                c.crash_point.map_or_else(|| "-".to_owned(), |p| p.encode()),
            )
        };
        let body = match &self.spec {
            Spec::SingleNode(c) => format!("single-node {}", cfg(c)),
            Spec::Eager(c, d, o) => format!("eager {d:?}/{o:?} {}", cfg(c)),
            Spec::LazyMaster(c) => format!("lazy-master {}", cfg(c)),
            Spec::LazyGroup(c, m) => format!("lazy-group {m:?} {}", cfg(c)),
            Spec::TwoTier(t) => format!(
                "two-tier {:?} base={} {}",
                t.workload,
                t.base_nodes,
                cfg(&t.sim)
            ),
            Spec::Experiment(e, seed) => format!("experiment {} quick seed={seed}", e.name),
        };
        format!(
            "{}: {body} faults={} oracle={}",
            self.name,
            self.faults.as_deref().unwrap_or("-"),
            self.oracle
        )
    }
}

/// Per-operation seed: distinct per slot, a pure function of the
/// workload seed.
fn op_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add(7919u64.wrapping_mul(i as u64 + 1))
}

fn two_tier(sim: SimConfig, workload: TwoTierWorkload) -> TwoTierConfig {
    TwoTierConfig {
        sim,
        base_nodes: 2,
        mobile_owned: 0,
        connected: SimDuration::from_secs(8),
        disconnected: SimDuration::from_secs(12),
        workload,
        initial_value: 10_000,
    }
}

/// Horizon scaling for `--smoke`: same code path, a fraction of the
/// simulated time.
fn horizon(secs: u64, smoke: bool) -> u64 {
    if smoke {
        (secs / 25).max(6)
    } else {
        secs
    }
}

/// Message chaos, a partition and a crash, all inside the 36 s horizon.
pub const LAZY_CHAOS: &str = "drop=0.02; dup=0.01; delay=0.05:0.5; retransmit=0.25; \
                              part=12..18:0,1/2,3,4,5,6,7; crash=2:21..25";
/// Lossy fabric under the commit protocols.
pub const COMMIT_CHAOS: &str = "drop=0.10; dup=0.05; retransmit=0.25";
/// Cases per chaos leg (lazy-group, eager commit protocols).
pub const CHAOS_CASES: usize = 40;

/// The operations of one pass of `workload`, or `None` for an unknown
/// name.
pub fn ops(workload: &str, seed: u64, smoke: bool) -> Option<Vec<Op>> {
    let quiet = |name: &str, spec: Spec| Op {
        name: name.to_owned(),
        spec,
        faults: None,
        oracle: false,
    };
    let ops = match workload {
        "dense-full" => {
            let p = Params::new(2_000.0, 8.0, 20.0, 4.0, 0.01);
            let cfg = |i: usize, secs: u64| {
                SimConfig::from_params(&p, horizon(secs, smoke), op_seed(seed, i))
            };
            use Ownership::{Group, Master};
            use ReplicaDiscipline::{Parallel, Serial};
            vec![
                quiet("single-node", Spec::SingleNode(cfg(0, 2400))),
                quiet(
                    "eager-group-serial",
                    Spec::Eager(cfg(1, 2400), Serial, Group),
                ),
                quiet(
                    "eager-group-parallel",
                    Spec::Eager(cfg(2, 2400), Parallel, Group),
                ),
                quiet(
                    "eager-master-serial",
                    Spec::Eager(cfg(3, 2400), Serial, Master),
                ),
                quiet("lazy-master", Spec::LazyMaster(cfg(4, 2400))),
                quiet(
                    "lazy-group-connected",
                    Spec::LazyGroup(
                        cfg(5, 600).with_latency(LatencyModel::Fixed(SimDuration::from_millis(5))),
                        Mobility::Connected,
                    ),
                ),
                quiet(
                    "lazy-group-cycling",
                    Spec::LazyGroup(
                        cfg(6, 600),
                        Mobility::Cycling {
                            connected: SimDuration::from_secs(8),
                            disconnected: SimDuration::from_secs(8),
                        },
                    ),
                ),
                quiet(
                    "two-tier-commutative",
                    Spec::TwoTier(two_tier(
                        cfg(7, 750),
                        TwoTierWorkload::Commutative { max_amount: 10 },
                    )),
                ),
                quiet(
                    "two-tier-exact-match",
                    Spec::TwoTier(two_tier(
                        cfg(8, 750),
                        TwoTierWorkload::ExactMatch { max_amount: 10 },
                    )),
                ),
            ]
        }
        "sharded-scaleout" => {
            let p = Params::new(20_000.0, 64.0, 10.0, 4.0, 0.01);
            let cfg = |i: usize, secs: u64| {
                SimConfig::from_params(&p, horizon(secs, smoke), op_seed(seed, i))
                    .with_shards(64, 3)
                    .with_cross_shard(0.10)
            };
            let eager = |c| Spec::Eager(c, ReplicaDiscipline::Serial, Ownership::Group);
            vec![
                quiet("eager-owner-order", eager(cfg(0, 600))),
                quiet(
                    "eager-2pc",
                    eager(cfg(1, 600).with_commit_proto(CommitProto::TwoPc)),
                ),
                quiet(
                    "lazy-master-o2pl",
                    Spec::LazyMaster(cfg(2, 600).with_commit_proto(CommitProto::O2pl)),
                ),
                quiet(
                    "lazy-group-connected",
                    Spec::LazyGroup(cfg(3, 300), Mobility::Connected),
                ),
                quiet(
                    "two-tier-commutative",
                    Spec::TwoTier(two_tier(
                        cfg(4, 160),
                        TwoTierWorkload::Commutative { max_amount: 10 },
                    )),
                ),
            ]
        }
        "chaos-oracle" => {
            let cases = if smoke { 4 } else { CHAOS_CASES };
            let mut v = Vec::with_capacity(2 * cases);
            let p = Params::new(2_000.0, 8.0, 20.0, 4.0, 0.01);
            for i in 0..cases {
                v.push(Op {
                    name: format!("lazy-group-chaos-{i:02}"),
                    spec: Spec::LazyGroup(
                        SimConfig::from_params(&p, 36, op_seed(seed, i)),
                        Mobility::Connected,
                    ),
                    faults: Some(LAZY_CHAOS.to_owned()),
                    oracle: true,
                });
            }
            let p = Params::new(2_000.0, 6.0, 20.0, 4.0, 0.01);
            for i in 0..cases {
                let proto = [CommitProto::TwoPc, CommitProto::O2pl][i % 2];
                let point = CrashPoint {
                    kind: CrashKind::ALL[i % CrashKind::ALL.len()],
                    nth: (i % 3) as u32,
                    down_secs: 2 + (i % 3) as u64,
                };
                v.push(Op {
                    name: format!("eager-{}-crash-{i:02}", proto.name()),
                    spec: Spec::Eager(
                        SimConfig::from_params(&p, 60, op_seed(seed, cases + i))
                            .with_shards(6, 2)
                            .with_cross_shard(0.4)
                            .with_commit_proto(proto)
                            .with_crash_point(point),
                        ReplicaDiscipline::Serial,
                        Ownership::Group,
                    ),
                    faults: Some(COMMIT_CHAOS.to_owned()),
                    oracle: true,
                });
            }
            v
        }
        "sweep-quick-all" => experiments::ALL
            .iter()
            // The smoke sweep keeps the table-only and sub-100 ms
            // experiments: every harness code path, none of the long
            // sweeps.
            .filter(|e| !smoke || SMOKE_EXPERIMENTS.contains(&e.name))
            .map(|e| quiet(e.name, Spec::Experiment(e, seed)))
            .collect(),
        _ => return None,
    };
    Some(ops)
}

/// Experiments the `--smoke` sweep keeps.
const SMOKE_EXPERIMENTS: [&str; 6] = ["e1", "e3", "e4", "e14", "ablate-quorum", "check-selftest"];

/// What an operation produced: compared against the first pass, and
/// hashed into the `sim_fingerprint`.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// An engine run's report.
    Report(Box<Report>),
    /// An experiment's table.
    Table(Table),
}

impl Output {
    /// Canonical JSON, the fingerprint's input.
    pub fn to_json(&self) -> String {
        match self {
            Output::Report(r) => serde_json::to_string(r),
            Output::Table(t) => serde_json::to_string(t),
        }
        .expect("reports and tables serialize")
    }

    /// The engine report, if this is one.
    pub fn report(&self) -> Option<&Report> {
        match self {
            Output::Report(r) => Some(r),
            Output::Table(_) => None,
        }
    }
}

/// Oracle verdict of a recorded run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Origin commits the recorder saw.
    pub records: u64,
    /// Violations found.
    pub violations: u64,
    /// History evicted ⇒ a clean verdict would be inconclusive.
    pub truncated: bool,
}

/// One executed operation.
pub struct Outcome {
    /// The output to compare and fingerprint.
    pub output: Output,
    /// Host time constructing the engine (`::new`, `with_*`,
    /// `FaultPlan::parse`, `RunOpts` build).
    pub setup_ns: u64,
    /// Host time inside `run()` / the experiment call.
    pub run_ns: u64,
    /// Host time verifying (oracles, convergence check).
    pub check_ns: u64,
    /// Committed root transactions (0 for experiments; the sweep
    /// counts through the metrics registry).
    pub committed: u64,
    /// Oracle verdict, for `oracle` operations.
    pub verdict: Option<Verdict>,
    /// Why verification failed, if it did.
    pub failure: Option<String>,
}

/// How to perturb an operation for the overhead ratios. The default
/// runs it exactly as the workload defines it.
#[derive(Clone, Default)]
pub struct Mods {
    /// Profiler handed to the engine (`Profiler::off()` by default).
    pub profiler: Profiler,
    /// Override whether a `Recorder` is attached (`None`: as the
    /// operation says).
    pub recorder: Option<bool>,
    /// `SimConfig::with_lean_metrics()`.
    pub lean_metrics: bool,
    /// Attach a `NullTracer`: every event built, dispatched, dropped.
    pub null_tracer: bool,
    /// Metrics session for experiments (off by default).
    pub metrics: MetricsSession,
    /// Sweep fan-out for experiments (1 unless measuring `par`).
    pub jobs: usize,
}

fn scheme(spec: &Spec) -> Scheme {
    match spec {
        Spec::SingleNode(_) => Scheme::Contention,
        Spec::Eager(..) => Scheme::Eager,
        Spec::LazyMaster(_) => Scheme::LazyMaster,
        Spec::LazyGroup(..) => Scheme::LazyGroup,
        Spec::TwoTier(_) | Spec::Experiment(..) => Scheme::TwoTier,
    }
}

/// Attach the optional instrumentation every engine accepts, and a
/// fault plan where the engine takes one.
macro_rules! instrument {
    ($sim:expr, $mods:expr, $rec:expr) => {{
        let mut sim = $sim.with_profiler($mods.profiler.clone());
        if $mods.null_tracer {
            sim = sim.with_tracer(TraceHandle::new(NullTracer));
        }
        if let Some(rec) = $rec {
            sim = sim.with_recorder(rec.clone());
        }
        sim
    }};
    ($sim:expr, $mods:expr, $rec:expr, $plan:expr) => {{
        let mut sim = instrument!($sim, $mods, $rec);
        if let Some(plan) = $plan {
            sim = sim.with_faults(plan);
        }
        sim
    }};
}

/// A constructed engine, ready to run.
// One short-lived value on the stack; boxing the engines would put an
// allocation inside the timed set-up.
#[allow(clippy::large_enum_variant)]
enum Built {
    Contention(ContentionSim),
    Eager(EagerSim),
    LazyMaster(LazyMasterSim),
    LazyGroup(LazyGroupSim),
    TwoTier(TwoTierSim),
    Experiment(&'static Experiment, RunOpts),
}

/// Set-up: everything up to, not including, `run()`.
fn build(op: &Op, mods: &Mods, rec: Option<&Recorder>) -> Built {
    let lean = |c: SimConfig| {
        if mods.lean_metrics {
            c.with_lean_metrics()
        } else {
            c
        }
    };
    let plan = op.faults.as_deref().map(|spec| {
        let seed = op.sim_config().map_or(0, |c| c.seed);
        FaultPlan::parse(spec, seed).expect("generated fault spec parses")
    });
    match op.spec.clone() {
        Spec::SingleNode(c) => {
            let c = lean(c);
            let sim = ContentionSim::new(c, ContentionProfile::single_node(&c));
            Built::Contention(instrument!(sim, mods, rec, plan))
        }
        Spec::Eager(c, d, o) => {
            Built::Eager(instrument!(EagerSim::new(lean(c), d, o), mods, rec, plan))
        }
        Spec::LazyMaster(c) => {
            Built::LazyMaster(instrument!(LazyMasterSim::new(lean(c)), mods, rec, plan))
        }
        Spec::LazyGroup(c, m) => {
            Built::LazyGroup(instrument!(LazyGroupSim::new(lean(c), m), mods, rec, plan))
        }
        Spec::TwoTier(mut t) => {
            t.sim = lean(t.sim);
            // The two-tier DES takes no fault plan (ROADMAP item 4).
            Built::TwoTier(instrument!(TwoTierSim::new(t), mods, rec))
        }
        Spec::Experiment(e, seed) => Built::Experiment(
            e,
            RunOpts {
                quick: true,
                seed,
                jobs: mods.jobs.max(1),
                profiler: mods.profiler.clone(),
                metrics: mods.metrics.clone(),
                ..RunOpts::default()
            },
        ),
    }
}

/// Host nanoseconds to construct `op`'s engine, which is then dropped
/// unrun (the drop is not timed).
pub fn construct_ns(op: &Op) -> u64 {
    let t0 = Instant::now();
    let built = build(op, &Mods::default(), None);
    let ns = t0.elapsed().as_nanos() as u64;
    drop(built);
    ns
}

/// The sweep builds its engines inside the experiment calls, where the
/// runner cannot time them apart. As a stand-in, its `setup_s` also
/// times constructing the engines of the two engine workloads: the
/// same constructors, at the benchmark's standard sizes.
pub fn setup_probe(workload: &str, seed: u64, smoke: bool) -> Vec<Op> {
    if workload != "sweep-quick-all" {
        return Vec::new();
    }
    ["dense-full", "sharded-scaleout"]
        .into_iter()
        .flat_map(|w| ops(w, seed, smoke).expect("known workload"))
        .collect()
}

/// Construct, run and verify one operation, recording a span around
/// each step. Panics propagate; the caller counts them as failures.
pub fn execute(op: &Op, mods: &Mods, tr: &mut Tracer) -> Outcome {
    let rec = mods
        .recorder
        .unwrap_or(op.oracle)
        .then(|| Recorder::new(scheme(&op.spec)));
    let rec = rec.as_ref();

    let span = tr.enter("setup");
    let t0 = Instant::now();
    let built = build(op, mods, rec);
    let setup_ns = t0.elapsed().as_nanos() as u64;
    tr.exit(span);

    let span = tr.enter("run");
    let t0 = Instant::now();
    let mut stores = None;
    let output = match built {
        Built::Contention(sim) => Output::Report(Box::new(sim.run())),
        Built::Eager(sim) => Output::Report(Box::new(sim.run())),
        Built::LazyMaster(sim) => Output::Report(Box::new(sim.run())),
        Built::LazyGroup(sim) => {
            let (report, final_stores) = sim.run_with_state();
            stores = Some(final_stores);
            Output::Report(Box::new(report))
        }
        Built::TwoTier(sim) => Output::Report(Box::new(sim.run())),
        Built::Experiment(e, opts) => Output::Table((e.run)(&opts)),
    };
    let run_ns = t0.elapsed().as_nanos() as u64;
    tr.exit(span);

    let span = tr.enter("check");
    let t0 = Instant::now();
    let mut failure = None;
    let mut verdict = None;
    if let Some(rec) = rec {
        let report = rec.check();
        let v = Verdict {
            records: report.commits as u64,
            violations: report.violations.len() as u64,
            truncated: report.truncated(),
        };
        // Only operations that ask for the oracle are held to it: a
        // recorder forced on for the overhead ratio overflows the
        // history cap on a long run, by design.
        if op.oracle && (v.violations > 0 || v.truncated) {
            failure = Some(report.summary());
        }
        verdict = Some(v);
    }
    if let (Some(stores), None) = (stores, &op.faults) {
        // A quiet lazy-group run must converge after its drain.
        let stores: Vec<_> = stores
            .into_iter()
            .enumerate()
            .map(|(i, s)| (NodeId(i as u32), s))
            .collect();
        if let Some(v) = check_store_convergence(&stores) {
            failure = Some(format!("stores diverge: {v}"));
        }
    }
    if let Output::Table(t) = &output {
        if let Some(v) = t.violations.first() {
            failure = Some(format!("{} violation(s), first: {v}", t.violations.len()));
        }
    }
    let check_ns = t0.elapsed().as_nanos() as u64;
    tr.exit(span);

    Outcome {
        committed: output.report().map_or(0, |r| r.committed),
        output,
        setup_ns,
        run_ns,
        check_ns,
        verdict,
        failure,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(workload: &str, seed: u64) -> Vec<String> {
        ops(workload, seed, false)
            .expect("known workload")
            .iter()
            .map(Op::describe)
            .collect()
    }

    #[test]
    fn same_seed_same_case_list() {
        for w in NAMES {
            assert_eq!(lines(w, 42), lines(w, 42), "{w}");
            assert_ne!(lines(w, 42), lines(w, 7), "{w} ignores its seed");
        }
    }

    #[test]
    fn operation_counts_match_the_workload_table() {
        let n = |w| ops(w, 42, false).expect("known workload").len();
        assert_eq!(n("dense-full"), 9);
        assert_eq!(n("sharded-scaleout"), 5);
        assert_eq!(n("chaos-oracle"), 2 * CHAOS_CASES);
        assert_eq!(n("sweep-quick-all"), experiments::ALL.len());
        assert!(ops("nope", 42, false).is_none());
    }

    #[test]
    fn op_names_are_unique_and_seeds_distinct() {
        for w in NAMES {
            let ops = ops(w, 42, false).expect("known workload");
            let mut names: Vec<_> = ops.iter().map(|o| o.name.clone()).collect();
            names.sort();
            names.dedup();
            assert_eq!(names.len(), ops.len(), "{w}");
            let mut seeds: Vec<_> = ops
                .iter()
                .filter_map(|o| o.sim_config().map(|c| c.seed))
                .collect();
            let before = seeds.len();
            seeds.sort_unstable();
            seeds.dedup();
            assert_eq!(seeds.len(), before, "{w} reuses a seed");
        }
    }

    #[test]
    fn chaos_cases_stay_under_the_history_cap() {
        // Expected commits = nodes × tps × horizon; every verdict must
        // be conclusive, so the history may never be evicted.
        for op in ops("chaos-oracle", 42, false).expect("known workload") {
            let c = op.sim_config().expect("engine op");
            let expected = f64::from(c.nodes) * c.tps * c.horizon.as_secs_f64();
            assert!(
                expected < repl_check::DEFAULT_HISTORY_CAP as f64 * 0.95,
                "{}",
                op.name
            );
        }
    }

    #[test]
    fn smoke_experiments_exist() {
        for name in SMOKE_EXPERIMENTS {
            assert!(experiments::by_name(name).is_some(), "{name}");
        }
    }
}
