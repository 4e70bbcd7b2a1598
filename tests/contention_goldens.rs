//! Byte-identity goldens for the contention family (single-node,
//! eager serial/parallel, lazy-master — every profile of
//! `ContentionSim`).
//!
//! `goldens/contention_family.txt` pins, per scenario, a digest of the
//! `Report` JSON (headline counts in clear beside it), a digest of the
//! full `JsonlSink` trace stream and, for recorded runs, the oracle's
//! `CheckReport::summary()`. The trace
//! prints every `TxnId`, so the file pins what no other golden does for
//! this engine: the id *values*, the order a crash aborts its victims
//! in and the order recovery replays a decision log in — all of which
//! follow `TxnId` order. It was generated before the engine's
//! per-transaction state moved off `HashMap` and the lock manager's
//! grow-to-largest-id tables (`REGEN_CONTENTION_GOLDENS=1 cargo test -q
//! --test contention_goldens`), so a run that diverges from it changed
//! observable behaviour, not just speed.

use dangers_of_replication::check::{Recorder, Scheme};
use dangers_of_replication::core::{
    CommitProto, ContentionProfile, ContentionSim, CrashKind, CrashPoint, SimConfig,
};
use dangers_of_replication::model::Params;
use dangers_of_replication::net::FaultPlan;
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

/// Run one scenario with a JSONL tracer (and optionally a recorder)
/// attached and render its golden line.
fn scenario(
    name: &str,
    engine: (&str, Scheme),
    cfg: SimConfig,
    faults: Option<&str>,
    recorded: bool,
) -> String {
    let sink = Rc::new(RefCell::new(JsonlSink::from_writer(Vec::<u8>::new())));
    let recorder = if recorded {
        Recorder::new(engine.1)
    } else {
        Recorder::off()
    };
    let mut sim = ContentionSim::new(cfg, profile(engine.0, &cfg))
        .with_run_label(engine.0)
        .with_tracer(TraceHandle::shared(&sink))
        .with_recorder(recorder.clone());
    if let Some(spec) = faults {
        sim = sim.with_faults(FaultPlan::parse(spec, cfg.seed).expect("fault spec parses"));
    }
    let report = sim.run();
    let Ok(sink) = Rc::try_unwrap(sink) else {
        panic!("engine kept a trace handle past run end");
    };
    let sink = sink.into_inner();
    let lines = sink.lines_written();
    let trace = sink.into_inner();
    let check = if recorded {
        recorder.check().summary()
    } else {
        "-".to_owned()
    };
    let json = serde_json::to_string(&report).expect("reports always serialize");
    format!(
        "{name} committed={} deadlocks={} waits={} messages={} crashes={} report={:016x} \
         trace_lines={lines} trace={:016x} check=[{check}]",
        report.committed,
        report.deadlocks,
        report.waits,
        report.messages,
        report.node_crashes,
        fnv1a(json.as_bytes()),
        fnv1a(&trace),
    )
}

const CHAOS: &str = "drop=0.10; dup=0.05; retransmit=0.25; crash=2:12..17; crash=4:20..23";

fn golden_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for (i, engine) in ENGINES.iter().enumerate() {
        let seed = 42 + i as u64;
        // Unsharded: the pre-protocol fast path, with and without the
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

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/goldens/contention_family.txt"
);

#[test]
fn contention_family_matches_goldens() {
    let lines = golden_lines();
    if std::env::var_os("REGEN_CONTENTION_GOLDENS").is_some() {
        std::fs::write(GOLDEN_PATH, lines.join("\n") + "\n").unwrap();
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("goldens missing — run with REGEN_CONTENTION_GOLDENS=1 to create them");
    let golden: Vec<&str> = golden.lines().collect();
    assert_eq!(
        golden.len(),
        lines.len(),
        "golden file covers a different scenario grid"
    );
    for (got, want) in lines.iter().zip(&golden) {
        assert_eq!(got, *want, "contention-family run diverged from its golden");
    }
}
