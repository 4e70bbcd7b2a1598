//! Chaos experiment — the fault-injection subsystem end to end.
//!
//! Runs the lazy-group engine under message chaos (drops, duplicates,
//! delay spikes), a scheduled network partition, and a node
//! crash/restart window, once per deadlock-resolution policy. The paper
//! observes that real systems resolve deadlocks by timeout rather than
//! cycle detection; the two rows let the reader compare the rates those
//! policies produce under identical faults, and the `converged` column
//! certifies the robustness claim: after the post-horizon drain every
//! replica is bit-identical no matter what the fabric did. Three more
//! rows run the sharded eager family under the same plan, one per
//! cross-shard commit protocol, and a last one runs two-tier with nodes
//! 0 and 1 as its base: the default plan's partition then cuts the
//! mobiles off from the base, and its crash is a mobile's.

use crate::par::run_points;
use crate::table::{fmt_val, Table};
use crate::{Instrument, RunOpts};
use repl_core::{
    CommitProto, DeadlockPolicy, EagerSim, LazyGroupSim, Mobility, Ownership, ReplicaDiscipline,
    Report, SimConfig, TwoTierConfig, TwoTierSim, TwoTierWorkload,
};
use repl_net::{CrashWindow, FaultPlan, PartitionWindow};
use repl_sim::{SimDuration, SimTime};
use repl_storage::NodeId;
use repl_workload::presets;

/// The node count every chaos run uses. `--faults` plans are validated
/// against this before any engine runs, so a clause addressing a node
/// id outside `0..CHAOS_NODES` fails fast with a useful error instead
/// of silently never firing.
pub const CHAOS_NODES: u32 = 4;

/// The built-in plan used when `--faults` is absent: mild message
/// chaos, one bipartition across the middle of the run, and one crash
/// window in the back half, all scaled to `horizon` seconds.
fn default_plan(seed: u64, horizon: u64) -> FaultPlan {
    let mut plan = FaultPlan::quiet(seed);
    plan.drop_p = 0.02;
    plan.dup_p = 0.01;
    plan.delay_p = 0.05;
    plan.partitions.push(PartitionWindow {
        start: SimTime::from_secs(horizon / 3),
        heal: SimTime::from_secs(horizon / 2),
        side_a: vec![NodeId(0), NodeId(1)],
    });
    plan.crashes.push(CrashWindow {
        node: NodeId(2),
        at: SimTime::from_secs(horizon * 3 / 5),
        restart: SimTime::from_secs(horizon * 7 / 10),
    });
    plan
}

/// One CHAOS row: `label`, `r`'s rates and fault counts, `converged`.
fn row(label: String, r: &Report, converged: &str) -> Vec<String> {
    vec![
        label,
        fmt_val(r.commit_rate),
        fmt_val(r.deadlock_rate),
        fmt_val(r.reconciliation_rate),
        format!("{}", r.lock_timeouts),
        format!("{}", r.cycle_checks),
        format!("{}", r.messages_dropped),
        format!("{}", r.messages_duplicated),
        format!("{}", r.node_crashes),
        converged.to_owned(),
    ]
}

/// CHAOS: lazy-group under the full fault plan, detection vs timeout.
pub fn chaos(opts: &RunOpts) -> Table {
    let mut t = Table::new(
        "CHAOS",
        "lazy-group under partitions, crashes, and message chaos",
        &[
            "policy",
            "commit/s",
            "deadlock/s",
            "recon/s",
            "timeouts",
            "cycle checks",
            "dropped",
            "duped",
            "crashes",
            "converged",
        ],
    );
    let horizon = opts.horizon(600);
    let plan = opts
        .faults
        .clone()
        .unwrap_or_else(|| default_plan(opts.seed, horizon));
    // Small database + several nodes: enough contention that both
    // policies have deadlocks to resolve within the horizon.
    let p = presets::scaleup_base()
        .with_db_size(200.0)
        .with_nodes(f64::from(CHAOS_NODES))
        .with_tps(10.0);
    let policies = vec![
        ("detection", DeadlockPolicy::Detection),
        (
            "timeout",
            DeadlockPolicy::Timeout {
                wait: SimDuration::from_millis(500),
            },
        ),
    ];
    let results = run_points(opts, policies, |opts, &(label, policy)| {
        let cfg = SimConfig::from_params(&p, horizon, opts.seed).with_deadlock(policy);
        let (r, stores) = LazyGroupSim::new(cfg, Mobility::Connected)
            .with_faults(plan.clone())
            .instrument(opts, format!("chaos policy={label}"))
            .run_with_state();
        let digest = stores[0].digest();
        let converged = stores.iter().all(|s| s.digest() == digest);
        (label, r, converged)
    });
    for (label, r, converged) in results {
        t.row(row(
            label.to_string(),
            &r,
            if converged { "yes" } else { "NO" },
        ));
    }
    // One row per cross-shard commit protocol: the eager family under
    // the same plan on a sharded layout. Partition windows don't exist
    // in this engine's fabric model and are ignored; drops, duplicates,
    // and crash windows all apply. Under `--check` the atomicity and
    // decision-durability oracles judge every cross-shard commit these
    // rows make.
    let results = run_points(opts, CommitProto::ALL.to_vec(), |opts, &proto| {
        let cfg = SimConfig::from_params(&p, horizon, opts.seed)
            .with_shards(CHAOS_NODES, 2)
            .with_cross_shard(0.2)
            .with_commit_proto(proto);
        let r = EagerSim::new(cfg, ReplicaDiscipline::Serial, Ownership::Group)
            .with_faults(plan.clone())
            .instrument(opts, format!("chaos proto={}", proto.name()))
            .run();
        (proto, r)
    });
    for (proto, r) in results {
        t.row(row(format!("eager/{}", proto.name()), &r, "—"));
    }
    // Two-tier under the same plan: two base nodes, two mobiles.
    // Converged means every replica equals the master.
    let cfg = TwoTierConfig {
        sim: SimConfig::from_params(&p, horizon, opts.seed),
        base_nodes: 2,
        mobile_owned: 0,
        connected: SimDuration::from_secs(10),
        disconnected: SimDuration::from_secs(10),
        workload: TwoTierWorkload::Commutative { max_amount: 10 },
        initial_value: 10_000,
    };
    let (r, master, replicas) = TwoTierSim::new(cfg)
        .with_faults(plan)
        .instrument(opts, "chaos two-tier")
        .run_with_state();
    let converged = replicas.iter().all(|s| s.digest() == master.digest());
    t.row(row(
        "two-tier".to_owned(),
        &r,
        if converged { "yes" } else { "NO" },
    ));
    t.note("timeout row resolves every deadlock with zero cycle-detection work");
    t.note("converged = all replicas bit-identical after the post-horizon drain (two-tier: to the master)");
    t.note(
        "eager/PROTO rows: sharded eager family under the same plan, one per commit \
         protocol (partition clauses don't apply); oracles judge them under --check",
    );
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
    fn chaos_converges_under_both_policies() {
        let t = chaos(&quick());
        assert_eq!(t.rows.len(), 3 + CommitProto::ALL.len());
        for row in t.rows[..2].iter().chain(t.rows.last()) {
            assert_eq!(row.last().unwrap(), "yes", "row diverged: {row:?}");
        }
        assert_eq!(t.rows.last().unwrap()[0], "two-tier");
    }

    #[test]
    fn chaos_prints_one_row_per_commit_protocol() {
        let t = chaos(&quick());
        for (row, proto) in t.rows[2..].iter().zip(CommitProto::ALL) {
            // No store-digest convergence column for these rows.
            assert_eq!(row[0], format!("eager/{}", proto.name()));
            assert_eq!(row.last().unwrap(), "—");
            assert_ne!(row[1], "0.000", "{row:?} committed nothing");
        }
    }

    #[test]
    fn timeout_row_skips_cycle_detection() {
        let t = chaos(&quick());
        let detection = &t.rows[0];
        let timeout = &t.rows[1];
        assert_ne!(detection[5], "0", "detection mode ran no cycle checks");
        assert_eq!(timeout[5], "0", "timeout mode must never walk the graph");
        assert_eq!(detection[4], "0", "detection mode must not time out locks");
    }

    #[test]
    fn chaos_actually_injected_faults() {
        let t = chaos(&quick());
        for row in &t.rows {
            assert_ne!(row[6], "0", "no drops injected: {row:?}");
            assert_ne!(row[8], "0", "no crashes injected: {row:?}");
        }
    }

    #[test]
    fn every_run_but_owner_order_survives_the_oracles() {
        // Every fixed-seed chaos run — both lazy-group policies, the
        // 2PC and O2PL rows and two-tier — must come through the
        // oracles clean, the same gate CI runs via `--check chaos`; the
        // fenced rows must also make cross-shard commits. The
        // owner-order row is the oracles' teeth: its fire-and-forget
        // applies tear under the plan's drops and crashes.
        let opts = RunOpts {
            check: crate::CheckSession::enabled(),
            ..quick()
        };
        chaos(&opts);
        let reports = opts.check.drain();
        for label in [
            "chaos policy=detection",
            "chaos policy=timeout",
            "chaos proto=2pc",
            "chaos proto=o2pl",
            "chaos proto=owner-order",
            "chaos two-tier",
        ] {
            assert!(
                reports.iter().any(|(l, _)| l == label),
                "no {label} run was recorded"
            );
        }
        for (label, report) in &reports {
            if label == "chaos proto=owner-order" {
                assert!(
                    !report.violations.is_empty(),
                    "owner-order tore nothing under the chaos plan"
                );
                continue;
            }
            if label.starts_with("chaos proto=") {
                assert!(report.commits > 0, "{label} recorded no commits");
            }
            assert!(
                report.violations.is_empty(),
                "{label}: {:?}",
                report.violations
            );
        }
    }

    #[test]
    fn faults_override_is_honored() {
        let opts = RunOpts {
            faults: Some(FaultPlan::quiet(41)),
            ..quick()
        };
        let t = chaos(&opts);
        for row in &t.rows {
            assert_eq!(row[6], "0", "quiet plan dropped messages: {row:?}");
            assert_eq!(row[8], "0", "quiet plan crashed nodes: {row:?}");
        }
    }
}
