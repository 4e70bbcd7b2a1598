//! The correctness-oracle experiments (`check`, `check-selftest`).
//!
//! `check` replays the committed seed corpus (`tests/check_seeds.txt`)
//! and then runs the seeded schedule fuzzer over all five engines,
//! routing every execution through the `repl-check` oracles. A failing
//! case is greedily shrunk and printed as a re-runnable repro line:
//! set `CHECK_CASE='<line>'` to replay exactly that execution.
//!
//! `check-selftest` feeds each oracle a deliberately broken artifact —
//! a cyclic history, diverging finals, a silently dropped committed
//! write, a broken version chain, an unsound acceptance — and fails
//! unless every one is flagged. It guards against the worst failure
//! mode a checker can have: silently passing everything.

use crate::table::Table;
use crate::RunOpts;
use repl_check::{
    fuzz, CheckReport, CriterionKind, Detailed, FuzzCase, History, Recorder, Scheme, TxnRecord,
    Violation, DEFAULT_HISTORY_CAP,
};
use repl_core::engine::kernel::{Protocol, Sim};
use repl_core::{
    ContentionProfile, ContentionSim, EagerSim, LazyGroupSim, LazyMasterSim, Mobility, Ownership,
    ReplicaDiscipline, SimConfig, TwoTierConfig, TwoTierSim, TwoTierWorkload,
};
use repl_model::Params;
use repl_net::FaultPlan;
use repl_sim::SimDuration;
use repl_storage::{ApplyOutcome, NodeId, ObjectId, ObjectStore, Timestamp, TxnId, Value};

/// The committed seed corpus, replayed before any fresh fuzzing.
const CORPUS: &str = include_str!("../../../../tests/check_seeds.txt");

/// Execute one fuzz case on its scheme with a fresh recorder and
/// return the oracle report. This is the single driver behind corpus
/// replay, fuzzing, `CHECK_CASE` repro, and the integration tests.
/// The case's own `shards`/`rf` fields set its layout, so an encoded
/// repro line is self-contained.
pub fn run_case(case: &FuzzCase) -> CheckReport {
    let rec = Recorder::new(case.scheme);
    let p = Params::new(
        case.db_size as f64,
        f64::from(case.nodes),
        f64::from(case.tps),
        f64::from(case.actions),
        0.01,
    );
    let mut cfg =
        SimConfig::from_params(&p, case.horizon_secs, case.seed).with_shards(case.shards, case.rf);
    if case.proto.is_some() || case.xpoint.is_some() {
        // Commit-protocol cases are cross-shard by construction:
        // without multi-owner transactions the protocol under test
        // never engages and the case is vacuous.
        cfg = cfg.with_cross_shard(0.4);
    }
    if let Some(name) = &case.proto {
        let proto = repl_core::CommitProto::parse(name)
            .unwrap_or_else(|| panic!("fuzz case proto `{name}` must name a commit protocol"));
        cfg = cfg.with_commit_proto(proto);
    }
    if let Some(spec) = &case.xpoint {
        let point = repl_core::CrashPoint::parse(spec)
            .unwrap_or_else(|| panic!("fuzz case xpoint `{spec}` must parse as kind:nth:down"));
        cfg = cfg.with_crash_point(point);
    }
    let plan = case.faults.as_ref().map(|spec| {
        FaultPlan::parse(spec, case.seed)
            .unwrap_or_else(|e| panic!("fuzz case fault spec `{spec}` must parse: {e}"))
    });
    match case.scheme {
        Scheme::Contention => {
            let profile = ContentionProfile::single_node(&cfg);
            run_recorded(ContentionSim::new(cfg, profile), &rec, plan);
        }
        Scheme::Eager => {
            let sim = EagerSim::new(cfg, ReplicaDiscipline::Serial, Ownership::Group);
            run_recorded(sim, &rec, plan);
        }
        Scheme::LazyMaster => run_recorded(LazyMasterSim::new(cfg), &rec, plan),
        Scheme::LazyGroup => run_recorded(LazyGroupSim::new(cfg, Mobility::Connected), &rec, plan),
        Scheme::TwoTier => run_recorded(TwoTierSim::new(two_tier_config(case, cfg)), &rec, plan),
    }
    rec.check()
}

/// Run `sim` with `rec` attached, under `plan` if there is one.
fn run_recorded<P: Protocol>(sim: Sim<P>, rec: &Recorder, plan: Option<FaultPlan>) {
    let sim = sim.with_recorder(rec.clone());
    match plan {
        Some(plan) => sim.with_faults(plan).run(),
        None => sim.run(),
    };
}

/// A two-tier case's base nodes: the first half of its nodes, at
/// least one.
fn base_nodes(case: &FuzzCase) -> u32 {
    (case.nodes / 2).max(1)
}

/// A two-tier case's configuration.
fn two_tier_config(case: &FuzzCase, sim: SimConfig) -> TwoTierConfig {
    TwoTierConfig {
        sim,
        base_nodes: base_nodes(case),
        mobile_owned: 0,
        connected: SimDuration::from_secs(15),
        disconnected: SimDuration::from_secs(15),
        workload: TwoTierWorkload::Commutative { max_amount: 5 },
        initial_value: 1_000,
    }
}

/// Parse a `CHECK_CASE` or corpus line, refusing what [`run_case`]
/// would panic on or silently ignore. `repl-check` cannot see the
/// engine's `proto` and `xpoint` parsers, so they are applied here,
/// with the fault plan's.
pub fn parse_check_case(line: &str) -> Result<FuzzCase, String> {
    let case = FuzzCase::parse(line)?;
    if let Some(name) = &case.proto {
        repl_core::CommitProto::parse(name)
            .ok_or_else(|| format!("proto `{name}` is not owner-order, 2pc or o2pl"))?;
    }
    if let Some(spec) = &case.xpoint {
        repl_core::CrashPoint::parse(spec).ok_or_else(|| {
            format!("xpoint `{spec}` is not KIND:NTH:DOWN_SECS (down at most 1e9 s)")
        })?;
    }
    if let Some(spec) = &case.faults {
        let plan = FaultPlan::parse(spec, case.seed)?;
        // A base replica of a partial layout (`SimConfig::shard_map`'s
        // rule) holds only its shards: two-tier refuses to fail over
        // to it.
        let partial = case.shards > 0 && case.rf > 0 && case.rf < case.nodes;
        let base_crash = plan.crashes.iter().find(|c| c.node.0 < base_nodes(&case));
        if let (Scheme::TwoTier, true, Some(c)) = (case.scheme, partial, base_crash) {
            return Err(format!(
                "two-tier cannot crash base node {} on a partial layout",
                c.node.0
            ));
        }
    }
    Ok(case)
}

/// The per-scheme fuzz base case. Fresh cases are perturbations of
/// this, so the whole campaign is determined by `opts.seed`.
fn base_case(scheme: Scheme, opts: &RunOpts) -> FuzzCase {
    FuzzCase {
        scheme,
        seed: opts.seed,
        nodes: 4,
        db_size: 300,
        tps: 10,
        actions: 4,
        horizon_secs: if opts.quick { 10 } else { 20 },
        faults: None,
        shards: 0,
        rf: 0,
        proto: None,
        xpoint: None,
    }
    .stabilized()
}

/// The `i`-th case of the commit-protocol crash campaign: a sharded,
/// cross-shard run of the eager family under `proto`, crashing at a
/// rotating protocol edge, sometimes with message chaos layered on
/// top. Fully determined by `(opts.seed, proto, i)`.
fn campaign_case(proto: &str, i: usize, opts: &RunOpts) -> FuzzCase {
    let kinds = repl_core::CrashKind::ALL;
    let kind = kinds[i % kinds.len()];
    let nth = i % 3;
    let down = 2 + (i % 3) as u64;
    FuzzCase {
        scheme: if i.is_multiple_of(2) {
            Scheme::Eager
        } else {
            Scheme::LazyMaster
        },
        seed: opts.seed.wrapping_add(7919 * (i as u64 + 1)),
        nodes: 4 + (i % 3) as u32,
        db_size: 400,
        tps: 6,
        actions: 4,
        horizon_secs: if opts.quick { 20 } else { 30 },
        faults: if i.is_multiple_of(4) {
            Some("drop=0.10; dup=0.05; retransmit=0.25".to_owned())
        } else {
            None
        },
        shards: 6,
        rf: 2,
        proto: Some(proto.to_owned()),
        xpoint: Some(format!("{}:{nth}:{down}", kind.name())),
    }
    .stabilized()
}

fn result_cell(report: &CheckReport) -> String {
    if !report.is_clean() {
        format!("{} VIOLATION(S)", report.violations.len())
    } else if report.truncated() {
        "clean (truncated)".to_owned()
    } else {
        "clean".to_owned()
    }
}

/// `check`: corpus replay + schedule fuzz over all five engines.
pub fn check(opts: &RunOpts) -> Table {
    let mut table = Table::new(
        "CHECK",
        "correctness oracles: corpus replay + schedule fuzz, all five engines",
        &["scheme", "phase", "cases", "commits", "result"],
    );
    // Single-case repro mode: replay exactly one encoded execution.
    if let Ok(spec) = std::env::var("CHECK_CASE") {
        match parse_check_case(spec.trim()) {
            Ok(case) => {
                let report = run_case(&case);
                table.row(vec![
                    case.scheme.name().to_owned(),
                    "replay".into(),
                    "1".into(),
                    report.commits.to_string(),
                    result_cell(&report),
                ]);
                for v in &report.violations {
                    table.violation(format!("{}: {v}", case.scheme));
                }
                table.note(format!("replayed CHECK_CASE `{}`", case.encode()));
            }
            Err(e) => table.violation(format!("CHECK_CASE does not parse: {e}")),
        }
        return table;
    }

    // Phase 1: replay the committed seed corpus.
    for line in CORPUS.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match parse_check_case(line) {
            Ok(case) => {
                let report = run_case(&case);
                table.row(vec![
                    case.scheme.name().to_owned(),
                    "corpus".into(),
                    "1".into(),
                    report.commits.to_string(),
                    result_cell(&report),
                ]);
                for v in &report.violations {
                    table.violation(format!("corpus `{line}`: {v}"));
                }
            }
            Err(e) => table.violation(format!("corpus line `{line}` does not parse: {e}")),
        }
    }

    // Phase 2: fuzz fresh perturbations per scheme.
    let cases = if opts.quick { 3 } else { 6 };
    for scheme in Scheme::ALL {
        let base = base_case(scheme, opts);
        let outcome = fuzz(&base, cases, &|c| run_case(c).violations);
        match &outcome.failure {
            None => {
                table.row(vec![
                    scheme.name().to_owned(),
                    "fuzz".into(),
                    outcome.cases_run.to_string(),
                    "—".into(),
                    "clean".into(),
                ]);
            }
            Some(f) => {
                table.row(vec![
                    scheme.name().to_owned(),
                    "fuzz".into(),
                    outcome.cases_run.to_string(),
                    "—".into(),
                    format!("FAILED (shrunk in {} step(s))", f.shrink_steps),
                ]);
                for v in &f.violations {
                    table.violation(format!("{scheme}: {v}"));
                }
                table.violation(format!(
                    "{scheme}: repro: CHECK_CASE='{}' harness check",
                    f.shrunk.encode()
                ));
            }
        }
    }
    // Phase 3: the commit-protocol crash campaign. Crash points rotate
    // through every 2PC state transition (pre/post prepare, vote, and
    // decision-log write), every fourth case layers message chaos on
    // top. The fenced protocols must come through atomic and durable;
    // the unfenced owner-order baseline must demonstrably tear at
    // least once, or the atomicity oracle has lost its teeth.
    let seeds = if opts.quick { 18 } else { 100 };
    for proto in ["2pc", "o2pl"] {
        let mut commits = 0usize;
        let mut bad = 0usize;
        for i in 0..seeds {
            let case = campaign_case(proto, i, opts);
            let report = run_case(&case);
            commits += report.commits;
            if !report.is_clean() {
                bad += 1;
                for v in &report.violations {
                    table.violation(format!("{proto} campaign: {v}"));
                }
                table.violation(format!(
                    "{proto} campaign: repro: CHECK_CASE='{}' harness check",
                    case.encode()
                ));
            }
        }
        table.row(vec![
            proto.to_owned(),
            "campaign".into(),
            seeds.to_string(),
            commits.to_string(),
            if bad == 0 {
                "clean".to_owned()
            } else {
                format!("{bad} FAILING CASE(S)")
            },
        ]);
    }
    // The teeth check: under the same crash windows the unfenced
    // baseline loses fire-and-forget applies, and the oracle must see
    // that as a partial commit. (Its other violations — divergence
    // downstream of the torn write — are the expected wreckage, not
    // campaign failures.)
    let teeth_cases = if opts.quick { 6 } else { 12 };
    let mut torn = 0usize;
    for i in 0..teeth_cases {
        let report = run_case(&campaign_case("owner-order", i, opts));
        torn += report
            .violations
            .iter()
            .filter(|v| matches!(v, Violation::PartialCommit { .. }))
            .count();
    }
    table.row(vec![
        "owner-order".to_owned(),
        "campaign".into(),
        teeth_cases.to_string(),
        "—".into(),
        format!("{torn} partial commit(s), expected > 0"),
    ]);
    if torn == 0 {
        table.violation(
            "owner-order campaign: the unfenced baseline produced no partial commit — \
             the atomicity oracle's teeth are unproven"
                .to_owned(),
        );
    }
    table.note("a FAILED row's repro line replays the shrunk case exactly");
    table
}

/// `check-selftest`: every oracle must flag a hand-broken artifact.
pub fn check_selftest(_opts: &RunOpts) -> Table {
    let mut table = Table::new(
        "CHECK-SELF",
        "oracle self-test: deliberately broken artifacts must be flagged",
        &["oracle", "artifact", "flagged"],
    );
    let o1 = ObjectId(1);
    let o2 = ObjectId(2);
    let ts = |c: u64, n: u32| Timestamp::new(c, NodeId(n));
    let expect = |table: &mut Table, oracle: &str, artifact: &str, flagged: bool| {
        table.row(vec![
            oracle.to_owned(),
            artifact.to_owned(),
            if flagged { "yes" } else { "NO" }.to_owned(),
        ]);
        if !flagged {
            table.violation(format!(
                "self-test: the {oracle} oracle failed to flag {artifact}"
            ));
        }
    };

    // 1. Serializability: a classic write-skew rw-cycle.
    let mut h = History::new();
    h.record(TxnRecord {
        txn: TxnId(1),
        reads: vec![(o1, Timestamp::ZERO)],
        writes: vec![(o2, Timestamp::ZERO, ts(1, 0))],
    });
    h.record(TxnRecord {
        txn: TxnId(2),
        reads: vec![(o2, Timestamp::ZERO)],
        writes: vec![(o1, Timestamp::ZERO, ts(1, 1))],
    });
    let cyclic = matches!(h.check_detailed(), Detailed::NotSerializable { .. });
    expect(
        &mut table,
        "serializability",
        "a two-transaction rw cycle",
        cyclic,
    );

    // 2 + 3. Convergence and delusion: a committed write one replica
    // silently dropped, leaving final states diverged.
    let rec = Recorder::new(Scheme::LazyGroup);
    rec.commit(
        NodeId(0),
        TxnRecord {
            txn: TxnId(1),
            reads: vec![(o1, Timestamp::ZERO)],
            writes: vec![(o1, Timestamp::ZERO, ts(5, 0))],
        },
    );
    rec.replica_apply(NodeId(1), o1, ts(5, 0), ApplyOutcome::ConflictIgnored);
    let mut ahead = ObjectStore::new(3);
    ahead.set(o1, Value::Int(7), ts(5, 0));
    let behind = ObjectStore::new(3);
    rec.final_store(NodeId(0), &ahead);
    rec.final_store(NodeId(1), &behind);
    let report = rec.check();
    let diverged = report
        .violations
        .iter()
        .any(|v| matches!(v, Violation::Divergence { .. }));
    let delusion = report.violations.iter().any(|v| {
        matches!(
            v,
            Violation::DelusiveWrite {
                dropped_at_apply: true,
                ..
            }
        )
    });
    expect(&mut table, "convergence", "diverged final stores", diverged);
    expect(
        &mut table,
        "delusion",
        "a silently dropped committed write",
        delusion,
    );

    // 4. Version chains: a write that overwrote a version nobody
    // committed.
    let rec = Recorder::new(Scheme::Eager);
    rec.commit(
        NodeId(0),
        TxnRecord {
            txn: TxnId(1),
            reads: vec![],
            writes: vec![(o1, Timestamp::ZERO, ts(1, 0))],
        },
    );
    rec.commit(
        NodeId(0),
        TxnRecord {
            txn: TxnId(2),
            reads: vec![],
            writes: vec![(o1, ts(7, 0), ts(8, 0))],
        },
    );
    let broke = rec
        .check()
        .violations
        .iter()
        .any(|v| matches!(v, Violation::VersionChainBreak { .. }));
    expect(
        &mut table,
        "version-chain",
        "a write chained off a phantom version",
        broke,
    );

    // 5. Acceptance soundness: the engine "accepts" a negative balance
    // under the non-negative criterion.
    let rec = Recorder::new(Scheme::TwoTier);
    rec.acceptance(
        TxnId(1),
        CriterionKind::NonNegative,
        vec![(o1, Value::Int(-5))],
        vec![(o1, Value::Int(3))],
        true,
    );
    let unsound = rec
        .check()
        .violations
        .iter()
        .any(|v| matches!(v, Violation::AcceptanceUnsound { .. }));
    expect(
        &mut table,
        "acceptance",
        "an accepted negative balance",
        unsound,
    );

    // 6. Cross-shard atomicity: an unfenced cross-shard commit that
    // reached only one of its two owners.
    let rec = Recorder::new(Scheme::Eager);
    rec.cross_commit(TxnId(1), NodeId(0), vec![NodeId(0), NodeId(1)], false);
    rec.shard_apply(TxnId(1), NodeId(0));
    let torn = rec
        .check()
        .violations
        .iter()
        .any(|v| matches!(v, Violation::PartialCommit { .. }));
    expect(
        &mut table,
        "atomicity",
        "a cross-shard commit applied at one owner",
        torn,
    );

    // 7. Decision durability: a fenced (2PC) commit fully applied but
    // whose coordinator never persisted its decision record.
    let rec = Recorder::new(Scheme::Eager);
    rec.cross_commit(TxnId(2), NodeId(0), vec![NodeId(0), NodeId(1)], true);
    rec.shard_apply(TxnId(2), NodeId(0));
    rec.shard_apply(TxnId(2), NodeId(1));
    let lost = rec
        .check()
        .violations
        .iter()
        .any(|v| matches!(v, Violation::LostDecision { .. }));
    expect(
        &mut table,
        "decision-durability",
        "a fenced commit with no durable decision",
        lost,
    );

    // 8. Truncation honesty: overflowing the history cap must be
    // reported as inconclusive, never hidden.
    let rec = Recorder::new(Scheme::Eager);
    for i in 0..(DEFAULT_HISTORY_CAP as u64 + 10) {
        rec.commit(
            NodeId(0),
            TxnRecord {
                txn: TxnId(i),
                reads: vec![],
                writes: vec![(o1, ts(i, 0), ts(i + 1, 0))],
            },
        );
    }
    let report = rec.check();
    expect(
        &mut table,
        "truncation",
        "a history past the ring cap",
        report.truncated() && report.is_clean(),
    );

    if table.violations.is_empty() {
        table.note("every oracle flagged its broken artifact");
    }
    table
}
