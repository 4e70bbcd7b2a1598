//! Integration surface of the cross-shard atomic-commit layer.
//!
//! Four invariants, all load-bearing for `SimConfig::commit_proto`:
//!
//! 1. A fault plan that injects nothing changes nothing. Every partial
//!    layout runs its commit protocol on the kernel's fabric, owner-order
//!    included (one `Apply` per remote owner, sent through
//!    `Kernel::send`), and every protocol timer waits the kernel's one
//!    retransmit period. So a run with `FaultPlan::quiet` attached is
//!    byte-identical to the same run without a plan, for each protocol,
//!    for lazy-group and for two-tier. Owner-order is the default
//!    protocol.
//! 2. With no cross-shard transactions the fenced protocols change
//!    nothing: single-shard commits never enter the protocol, so
//!    reports (message counts included) are byte-identical.
//! 3. The protocol layer is deterministic: harness tables with 2PC
//!    rows come out byte-identical at any `--jobs` fan-out.
//! 4. A coordinator crash mid-prepare presumes abort: participants
//!    recover via the decision-request path and the atomicity /
//!    decision-durability oracles stay clean through the crash.

use dangers_of_replication::check::{Recorder, Scheme};
use dangers_of_replication::core::{
    CommitProto, CrashKind, CrashPoint, EagerSim, LazyGroupSim, LazyMasterSim, Mobility, Ownership,
    ReplicaDiscipline, SimConfig, TwoTierConfig, TwoTierSim, TwoTierWorkload,
};
use dangers_of_replication::harness::experiments::scaleout::scaleout;
use dangers_of_replication::harness::RunOpts;
use dangers_of_replication::model::Params;
use dangers_of_replication::net::FaultPlan;
use dangers_of_replication::sim::SimDuration;
use dangers_of_replication::storage::ObjectStore;

/// A sharded, cross-shard-heavy base config for the eager family.
fn sharded_cfg(seed: u64) -> SimConfig {
    let p = Params::new(400.0, 6.0, 15.0, 4.0, 0.01);
    SimConfig::from_params(&p, 50, seed)
        .with_shards(6, 2)
        .with_cross_shard(0.4)
}

#[test]
fn a_quiet_fault_plan_changes_nothing() {
    for seed in [5, 42] {
        for proto in CommitProto::ALL {
            let cfg = sharded_cfg(seed).with_commit_proto(proto);
            let eager = || EagerSim::new(cfg, ReplicaDiscipline::Serial, Ownership::Group);
            assert_eq!(
                eager().run(),
                eager().with_faults(FaultPlan::quiet(seed)).run(),
                "eager {}, seed {seed}",
                proto.name()
            );
            assert_eq!(
                LazyMasterSim::new(cfg).run(),
                LazyMasterSim::new(cfg)
                    .with_faults(FaultPlan::quiet(seed))
                    .run(),
                "lazy-master {}, seed {seed}",
                proto.name()
            );
        }
        let cfg = sharded_cfg(seed);
        let (plain, plain_stores) = LazyGroupSim::new(cfg, Mobility::Connected).run_with_state();
        let (quiet, quiet_stores) = LazyGroupSim::new(cfg, Mobility::Connected)
            .with_faults(FaultPlan::quiet(seed))
            .run_with_state();
        assert_eq!(plain, quiet, "lazy-group, seed {seed}");
        let digests =
            |stores: &[ObjectStore]| stores.iter().map(ObjectStore::digest).collect::<Vec<_>>();
        assert_eq!(digests(&plain_stores), digests(&quiet_stores));
        let full = SimConfig::from_params(&Params::new(400.0, 6.0, 15.0, 4.0, 0.01), 50, seed);
        for sim in [sharded_cfg(seed), full] {
            let cfg = TwoTierConfig {
                sim,
                base_nodes: 2,
                mobile_owned: 0,
                connected: SimDuration::from_secs(5),
                disconnected: SimDuration::from_secs(5),
                workload: TwoTierWorkload::Commutative { max_amount: 10 },
                initial_value: 1_000,
            };
            let (plain, plain_master, plain_stores) = TwoTierSim::new(cfg).run_with_state();
            let (quiet, quiet_master, quiet_stores) = TwoTierSim::new(cfg)
                .with_faults(FaultPlan::quiet(seed))
                .run_with_state();
            assert_eq!(plain, quiet, "two-tier, seed {seed}");
            assert_eq!(plain_master.digest(), quiet_master.digest());
            assert_eq!(digests(&plain_stores), digests(&quiet_stores));
        }
    }
}

#[test]
fn owner_order_is_the_default_protocol() {
    for seed in [5, 41] {
        let base = EagerSim::new(
            sharded_cfg(seed),
            ReplicaDiscipline::Serial,
            Ownership::Group,
        )
        .run();
        let explicit = EagerSim::new(
            sharded_cfg(seed).with_commit_proto(CommitProto::OwnerOrder),
            ReplicaDiscipline::Serial,
            Ownership::Group,
        )
        .run();
        assert_eq!(base, explicit, "owner-order must be the no-op default");
        assert_eq!(
            LazyMasterSim::new(sharded_cfg(seed)).run(),
            LazyMasterSim::new(sharded_cfg(seed).with_commit_proto(CommitProto::OwnerOrder)).run(),
            "lazy-master owner-order, seed {seed}"
        );
    }
}

#[test]
fn fenced_protocols_are_noops_without_cross_shard_transactions() {
    for proto in [CommitProto::TwoPc, CommitProto::O2pl] {
        let single = |proto: Option<CommitProto>| {
            let mut cfg = sharded_cfg(11).with_cross_shard(0.0);
            if let Some(p) = proto {
                cfg = cfg.with_commit_proto(p);
            }
            EagerSim::new(cfg, ReplicaDiscipline::Serial, Ownership::Group).run()
        };
        let base = single(None);
        let fenced = single(Some(proto));
        assert_eq!(
            base.messages,
            fenced.messages,
            "{} sent protocol messages for single-shard transactions",
            proto.name()
        );
        assert_eq!(
            base,
            fenced,
            "{} must skip single-shard commits",
            proto.name()
        );
    }
}

#[test]
fn two_pc_harness_rows_are_jobs_invariant() {
    let table = |jobs: usize| {
        scaleout(&RunOpts {
            quick: true,
            seed: 23,
            jobs,
            ..RunOpts::default()
        })
    };
    let serial = table(1);
    assert_eq!(
        serial,
        table(4),
        "scaleout proto rows must be jobs-invariant"
    );
    // The table really contains fenced-protocol rows.
    assert!(
        serial.rows.iter().any(|r| r[9] == "2pc"),
        "no 2pc row in the scaleout table"
    );
}

#[test]
fn coordinator_crash_mid_prepare_presumes_abort_cleanly() {
    // O2PL piggybacks every prepare on a lock grant, so it never
    // reaches the post-prepare edge — crash it just before the
    // decision-log write instead (also a coordinator crash with the
    // decision still undecided for the participants).
    for (proto, kind) in [
        (CommitProto::TwoPc, CrashKind::CoordPostPrepare),
        (CommitProto::O2pl, CrashKind::CoordPreDecisionLog),
    ] {
        let rec = Recorder::new(Scheme::Eager);
        let cfg = sharded_cfg(9)
            .with_commit_proto(proto)
            .with_crash_point(CrashPoint {
                kind,
                nth: 0,
                down_secs: 3,
            });
        let report = EagerSim::new(cfg, ReplicaDiscipline::Serial, Ownership::Group)
            .with_recorder(rec.clone())
            .run();
        assert!(
            report.node_crashes >= 1,
            "{}: crash never fired",
            proto.name()
        );
        let check = rec.check();
        assert!(check.commits > 0, "{}: nothing committed", proto.name());
        assert!(
            check.violations.is_empty(),
            "{}: crash mid-prepare broke atomicity: {:?}",
            proto.name(),
            check.violations
        );
    }
}
