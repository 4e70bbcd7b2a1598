//! Byte-identity goldens for every engine.
//!
//! Each golden file pins, per scenario, a digest of the `Report` JSON
//! (headline counts in clear beside it), a digest of the full
//! `JsonlSink` trace stream, every final store digest (for the engines
//! that have stores) and, for recorded runs, the oracle's
//! `CheckReport::summary()`. The trace prints every `TxnId` and every
//! event in queue order, so the files pin what no other golden does:
//! the id *values*, the `(time, seq)` tie-breaks of the event queue,
//! the order a crash aborts its victims in and the order recovery
//! replays in. A run that diverges from them changed observable
//! behaviour, not just speed.
//!
//! * `goldens/contention_family.txt` — single-node, eager
//!   serial/parallel, lazy-master (every profile of `ContentionSim`);
//!   generated before the engine's per-transaction state moved off
//!   `HashMap` (`REGEN_CONTENTION_GOLDENS=1 cargo test -q --test
//!   engine_goldens`), and regenerated once when owner-order's
//!   abstract commit path was deleted and the retransmit period moved
//!   into the kernel. Only partial-layout rows without a fault plan
//!   moved: owner-order now sends one real `Apply` per remote owner
//!   and drains like 2PC and O2PL, and the fenced protocols' timers
//!   wait the kernel's 100 ms instead of the engine's private 250 ms.
//!   Commits, deadlocks and crashes stayed put in every row.
//! * `goldens/lazy_group_two_tier.txt` — lazy-group and two-tier;
//!   generated while each engine still had its own event loop, before
//!   the simulation kernel (`REGEN_KERNEL_GOLDENS=1 cargo test -q
//!   --test engine_goldens`).
//!
//! Both files were regenerated once more when `Kernel::send` became the
//! one place a message is counted. Each class of moved row, with
//! before → after samples:
//!
//! * *Eager serial, eager parallel and lazy-master, unsharded* (9 rows,
//!   quiet and chaos): `messages` only, to 0. The `rf − 1` replica
//!   updates per action were counted but never sent; they stay
//!   modelled as work. `eager_serial` seed 43: 22,690 → 0;
//!   `eager_parallel` seed 44: 67,190 → 0; `lazy_master` seed 45:
//!   68,945 → 0.
//! * *The same three on the partial layout* (81 rows): `messages` only,
//!   down to exactly the commit protocol's sends. `eager_serial`
//!   owner-order quiet seed 43: 17,235 → 3,448; `eager_serial` 2pc
//!   chaos seed 43: 12,730 → 7,678; `lazy_master` owner-order quiet
//!   seed 45: 17,369 → 3,580.
//!
//!   In both classes the trace, commits, deadlocks, waits, crashes
//!   and oracle verdicts are unchanged, and no `single_node` row moved.
//! * *Lazy-group, partial layout, connected, quiet* (8 rows): the trace
//!   only. A forward is now a message, traced `MsgSent` and
//!   `MsgDelivered`; the report and every store are unchanged. Seed
//!   103: 49,299 → 50,049 trace lines.
//! * *Lazy-group, partial layout, connected, chaos* (8 rows): the whole
//!   run. Forwards now meet the plan's drops, duplicates, delay spikes,
//!   partition and crashes, and each draws a fate from the injector's
//!   stream. Seed 104: committed 2,754 → 2,766, messages
//!   10,353 → 10,402. The oracles stay clean.
//! * *Lazy-group, partial layout, cycling, quiet and chaos* (16 rows):
//!   the whole run. A forward made while its sender is disconnected
//!   now waits in the sender's outbox, and one to a disconnected node
//!   is parked until it reconnects. Seed 119 (quiet): committed
//!   2,798 → 2,801, messages 9,581 → 9,584; seed 120 (chaos):
//!   committed 2,791 → 2,718. The oracles stay clean.
//! * *Two-tier* (16 rows, every one): `messages` and the trace. A
//!   reconnect sends one sync message to the base instead of counting
//!   one message per re-executed tentative transaction, and the
//!   refreshes it releases are traced `MsgDelivered` like any other
//!   delivery. Commits and stores are unchanged. Commutative seed 201: 15,136 → 14,601;
//!   exact-match seed 205: 10,690 → 10,092.
//!
//! No unsharded lazy-group row moved.
//!
//! When two-tier took fault plans, `lazy_group_two_tier.txt` gained its
//! two-tier chaos rows at the end; no existing row moved.
//!
//! Both files were regenerated once more when the kernel began minting
//! every `TxnId` from one counter per run, starting at 1. Each class
//! of moved row:
//!
//! * *Every row* (216): `trace` moved. Ids now start at 1, so
//!   `TxnId(0)` is only the "no transaction" of system events, and
//!   lazy-group's replicas and forwards and two-tier's base
//!   transactions take counter ids instead of packed `(tag,
//!   generation, slot)` slab ids (lazy-group's first replica was
//!   `t72057594037927936`). With ids from 0, every contention row and
//!   every row without a fault plan was byte-identical to the parent
//!   after renaming each id to its rank of first appearance (contention
//!   rows were identical outright), and mapping each id k ≥ 1 to k − 1
//!   gives that trace back for all 216 rows.
//! * *Lazy-group under the chaos plan* (32 rows): the victims of a
//!   crash now go in id order, which is begin order, instead of slab
//!   slot order: roots abort and in-flight replica updates return to
//!   the mail in that order. Connected rows moved in `trace` only
//!   (seed 104 also in `trace_lines`, 58,280 → 58,278); the cycling,
//!   unsharded rows moved by a wait or a few (seed 118: waits
//!   2,978 → 2,979; seed 130: waits 3,244 → 3,250 and its converged
//!   store digest), and seed 128 (cycling, timeout, partial) moved
//!   most: deadlocks 62 → 49, waits 2,768 → 2,675, messages
//!   9,815 → 9,816, 2,911 → 2,912 commits checked. Commits stayed put
//!   and every oracle stayed clean.
//! * *Two-tier under the chaos plan, full layout* (8 rows): `report`,
//!   because the constant `election_rounds` histogram is gone (the
//!   report without it is unchanged), and `trace` for seeds 209, 211
//!   and 215, because a deposed primary aborts its base transactions
//!   in id order.

use dangers_of_replication::check::{Recorder, Scheme};
use dangers_of_replication::core::{
    CommitProto, ContentionProfile, ContentionSim, CrashKind, CrashPoint, DeadlockPolicy,
    LazyGroupSim, Mobility, Report, SimConfig, TwoTierConfig, TwoTierSim, TwoTierWorkload,
};
use dangers_of_replication::model::Params;
use dangers_of_replication::net::FaultPlan;
use dangers_of_replication::sim::SimDuration;
use dangers_of_replication::telemetry::{JsonlSink, TraceHandle};
use std::cell::RefCell;
use std::rc::Rc;

/// FNV-1a: cheap, dependency-free, sensitive to every byte.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const ENGINES: [(&str, Scheme); 4] = [
    ("single_node", Scheme::Contention),
    ("eager_serial", Scheme::Eager),
    ("eager_parallel", Scheme::Eager),
    ("lazy_master", Scheme::LazyMaster),
];

fn profile(engine: &str, cfg: &SimConfig) -> ContentionProfile {
    match engine {
        "single_node" => ContentionProfile::single_node(cfg),
        "eager_serial" => ContentionProfile::eager_serial(cfg),
        "eager_parallel" => ContentionProfile::eager_parallel(cfg),
        "lazy_master" => ContentionProfile::lazy_master(cfg),
        other => panic!("unknown engine {other}"),
    }
}

/// Contended enough that waits, deadlocks and (sharded) multi-owner
/// commits all occur within the horizon.
fn base_cfg(seed: u64) -> SimConfig {
    let p = Params::new(400.0, 6.0, 15.0, 4.0, 0.01);
    SimConfig::from_params(&p, 40, seed).with_warmup(2)
}

/// An in-memory JSONL trace sink an engine run can share.
type TraceSink = Rc<RefCell<JsonlSink<Vec<u8>>>>;

fn trace_sink() -> TraceSink {
    Rc::new(RefCell::new(JsonlSink::from_writer(Vec::<u8>::new())))
}

fn recorder(scheme: Scheme, recorded: bool) -> Recorder {
    if recorded {
        Recorder::new(scheme)
    } else {
        Recorder::off()
    }
}

/// Render one finished scenario's golden line. `stores` is empty for
/// the engines that have none.
fn golden_line(
    name: &str,
    report: &Report,
    sink: TraceSink,
    stores: &[u64],
    recorder: &Recorder,
) -> String {
    let Ok(sink) = Rc::try_unwrap(sink) else {
        panic!("engine kept a trace handle past run end");
    };
    let sink = sink.into_inner();
    let lines = sink.lines_written();
    let trace = sink.into_inner();
    let check = if recorder.is_on() {
        recorder.check().summary()
    } else {
        "-".to_owned()
    };
    let stores = if stores.is_empty() {
        String::new()
    } else {
        let digests: Vec<String> = stores.iter().map(|d| format!("{d:016x}")).collect();
        format!(" stores={}", digests.join(","))
    };
    let json = serde_json::to_string(report).expect("reports always serialize");
    format!(
        "{name} committed={} deadlocks={} waits={} messages={} crashes={} report={:016x} \
         trace_lines={lines} trace={:016x}{stores} check=[{check}]",
        report.committed,
        report.deadlocks,
        report.waits,
        report.messages,
        report.node_crashes,
        fnv1a(json.as_bytes()),
        fnv1a(&trace),
    )
}

/// Run one contention-family scenario with a JSONL tracer (and
/// optionally a recorder) attached and render its golden line.
fn scenario(
    name: &str,
    engine: (&str, Scheme),
    cfg: SimConfig,
    faults: Option<&str>,
    recorded: bool,
) -> String {
    let sink = trace_sink();
    let recorder = recorder(engine.1, recorded);
    let mut sim = ContentionSim::new(cfg, profile(engine.0, &cfg))
        .with_run_label(engine.0)
        .with_tracer(TraceHandle::shared(&sink))
        .with_recorder(recorder.clone());
    if let Some(spec) = faults {
        sim = sim.with_faults(FaultPlan::parse(spec, cfg.seed).expect("fault spec parses"));
    }
    let report = sim.run();
    golden_line(name, &report, sink, &[], &recorder)
}

const CHAOS: &str = "drop=0.10; dup=0.05; retransmit=0.25; crash=2:12..17; crash=4:20..23";

fn golden_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for (i, engine) in ENGINES.iter().enumerate() {
        let seed = 42 + i as u64;
        // Unsharded: no commit protocol, with and without the
        // recorder's read capture.
        for recorded in [false, true] {
            lines.push(scenario(
                &format!("{}/unsharded/quiet/rec={recorded}/seed={seed}", engine.0),
                *engine,
                base_cfg(seed),
                None,
                recorded,
            ));
        }
        // A fault plan on an unsharded run must stay a no-op.
        lines.push(scenario(
            &format!("{}/unsharded/chaos/rec=true/seed={seed}", engine.0),
            *engine,
            base_cfg(seed),
            Some(CHAOS),
            true,
        ));
        for proto in CommitProto::ALL {
            let sharded = base_cfg(seed)
                .with_shards(6, 2)
                .with_cross_shard(0.4)
                .with_commit_proto(proto);
            let tag = |what: &str, recorded: bool| {
                format!(
                    "{}/shards=6,rf=2,cross=0.4/{}/{what}/rec={recorded}/seed={seed}",
                    engine.0,
                    proto.name()
                )
            };
            lines.push(scenario(
                &tag("quiet", false),
                *engine,
                sharded,
                None,
                false,
            ));
            lines.push(scenario(&tag("quiet", true), *engine, sharded, None, true));
            lines.push(scenario(
                &tag("chaos", true),
                *engine,
                sharded,
                Some(CHAOS),
                true,
            ));
            for (k, kind) in CrashKind::ALL.into_iter().enumerate() {
                let crashing = sharded.with_crash_point(CrashPoint {
                    kind,
                    nth: (k % 3) as u32,
                    down_secs: 2 + (k % 3) as u64,
                });
                // Half the crash-point runs also carry message chaos,
                // so recovery replays over a lossy fabric too.
                let faults = (k % 2 == 1).then_some("drop=0.10; dup=0.05; retransmit=0.25");
                lines.push(scenario(
                    &tag(&format!("crashpoint={}", kind.name()), true),
                    *engine,
                    crashing,
                    faults,
                    true,
                ));
            }
        }
    }
    lines
}

/// Compare `lines` with the golden file `file`, or rewrite it when
/// the environment variable `regen` is set.
fn check_goldens(file: &str, regen: &str, lines: &[String]) {
    let path = format!("{}/tests/goldens/{file}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os(regen).is_some() {
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("goldens missing — run with {regen}=1 to create them"));
    let golden: Vec<&str> = golden.lines().collect();
    assert_eq!(
        golden.len(),
        lines.len(),
        "{file} covers a different scenario grid"
    );
    for (got, want) in lines.iter().zip(&golden) {
        assert_eq!(got, *want, "run diverged from its golden in {file}");
    }
}

#[test]
fn contention_family_matches_goldens() {
    check_goldens(
        "contention_family.txt",
        "REGEN_CONTENTION_GOLDENS",
        &golden_lines(),
    );
}

// ---- lazy-group and two-tier ---------------------------------------

/// Message chaos on every link, one partition window and two crash
/// windows, all inside the horizon.
const LAZY_CHAOS: &str = "drop=0.10; dup=0.05; delay=0.05:0.5; retransmit=0.25; \
                          part=6..10:0,1; crash=2:12..17; crash=4:20..23";

fn lazy_group_lines() -> Vec<String> {
    let mobilities = [
        ("connected", Mobility::Connected),
        (
            "cycling",
            Mobility::Cycling {
                connected: SimDuration::from_secs(8),
                disconnected: SimDuration::from_secs(4),
            },
        ),
    ];
    let policies = [
        ("detection", DeadlockPolicy::Detection),
        (
            "timeout",
            DeadlockPolicy::Timeout {
                wait: SimDuration::from_millis(500),
            },
        ),
    ];
    let mut lines = Vec::new();
    let mut seed = 100;
    for (mobility_name, mobility) in mobilities {
        for (policy_name, policy) in policies {
            // Every cell runs under two seeds, one per round.
            for _round in 0..2 {
                for sharded in [false, true] {
                    for faults in [None, Some(LAZY_CHAOS)] {
                        seed += 1;
                        for recorded in [false, true] {
                            let p = Params::new(250.0, 6.0, 15.0, 4.0, 0.01);
                            let mut cfg = SimConfig::from_params(&p, 30, seed)
                                .with_warmup(2)
                                .with_deadlock(policy);
                            if sharded {
                                cfg = cfg.with_shards(8, 3).with_cross_shard(0.1);
                            }
                            let layout = if sharded {
                                "shards=8,rf=3,cross=0.1"
                            } else {
                                "unsharded"
                            };
                            let chaos = if faults.is_some() { "chaos" } else { "quiet" };
                            let name = format!(
                                "lazy_group/{mobility_name}/{policy_name}/\
                                 {layout}/{chaos}/rec={recorded}/seed={seed}"
                            );
                            let sink = trace_sink();
                            let recorder = recorder(Scheme::LazyGroup, recorded);
                            let mut sim = LazyGroupSim::new(cfg, mobility)
                                .with_run_label("lazy_group")
                                .with_tracer(TraceHandle::shared(&sink))
                                .with_recorder(recorder.clone());
                            if let Some(spec) = faults {
                                sim = sim.with_faults(
                                    FaultPlan::parse(spec, seed).expect("fault spec parses"),
                                );
                            }
                            let (report, stores) = sim.run_with_state();
                            let digests: Vec<u64> = stores.iter().map(|s| s.digest()).collect();
                            lines.push(golden_line(&name, &report, sink, &digests, &recorder));
                        }
                    }
                }
            }
        }
    }
    lines
}

/// [`LAZY_CHAOS`] with nodes 0 and 1 as the base: the partition cuts
/// the mobiles off from it, and both crashes are mobiles'. On the full
/// layout the primary crashes too, and comes back to be re-elected.
const TWO_TIER_CHAOS: [&str; 2] = [
    "drop=0.10; dup=0.05; delay=0.05:0.5; retransmit=0.25; \
     part=6..10:0,1; crash=2:12..17; crash=4:20..23; crash=0:26..31",
    LAZY_CHAOS,
];

/// The two-tier scenarios: quiet, or under [`TWO_TIER_CHAOS`] (whose
/// rows follow every quiet one, seeds continuing after theirs).
fn two_tier_lines(chaos: bool) -> Vec<String> {
    let workloads = [
        (
            "commutative",
            TwoTierWorkload::Commutative { max_amount: 10 },
        ),
        (
            "exact_match",
            TwoTierWorkload::ExactMatch { max_amount: 20 },
        ),
    ];
    let mut lines = Vec::new();
    let mut seed = if chaos { 208 } else { 200 };
    for (workload_name, workload) in workloads {
        // Every cell runs under two seeds, one per round.
        for _round in 0..2 {
            for sharded in [false, true] {
                seed += 1;
                for recorded in [false, true] {
                    let p = Params::new(120.0, 6.0, 12.0, 4.0, 0.01);
                    let mut sim = SimConfig::from_params(&p, 40, seed).with_warmup(2);
                    if sharded {
                        sim = sim.with_shards(8, 3).with_cross_shard(0.1);
                    }
                    let cfg = TwoTierConfig {
                        sim,
                        base_nodes: 2,
                        mobile_owned: 0,
                        connected: SimDuration::from_secs(8),
                        disconnected: SimDuration::from_secs(12),
                        workload,
                        initial_value: 10_000,
                    };
                    let layout = if sharded {
                        "shards=8,rf=3,cross=0.1"
                    } else {
                        "unsharded"
                    };
                    let plan = if chaos { "/chaos" } else { "" };
                    let name = format!(
                        "two_tier/{workload_name}/{layout}{plan}/rec={recorded}/seed={seed}"
                    );
                    let sink = trace_sink();
                    let recorder = recorder(Scheme::TwoTier, recorded);
                    let mut sim = TwoTierSim::new(cfg)
                        .with_run_label("two_tier")
                        .with_tracer(TraceHandle::shared(&sink))
                        .with_recorder(recorder.clone());
                    if chaos {
                        let spec = TWO_TIER_CHAOS[usize::from(sharded)];
                        sim = sim
                            .with_faults(FaultPlan::parse(spec, seed).expect("fault spec parses"));
                    }
                    let (report, master, replicas) = sim.run_with_state();
                    let mut digests = vec![master.digest()];
                    digests.extend(replicas.iter().map(|s| s.digest()));
                    lines.push(golden_line(&name, &report, sink, &digests, &recorder));
                }
            }
        }
    }
    lines
}

#[test]
fn lazy_group_and_two_tier_match_goldens() {
    let mut lines = lazy_group_lines();
    lines.extend(two_tier_lines(false));
    lines.extend(two_tier_lines(true));
    check_goldens("lazy_group_two_tier.txt", "REGEN_KERNEL_GOLDENS", &lines);
}
