//! `scaleout` — the sharded-keyspace Nodes sweep the paper's §4 dares
//! the reader to attempt: full replication makes a 10× node growth cost
//! 1000× in deadlocks, so the sweeps elsewhere in this harness stop in
//! the tens. Sharding the keyspace and replicating each shard to a
//! small fixed replica set (`rf`) caps the per-commit fan-out at
//! `rf - 1` no matter how many nodes join, which is what lets this
//! sweep run the lazy-group engine out to 256 nodes.
//!
//! Each point fixes the *per-node* load (database objects and TPS per
//! node are constant) so the sweep isolates the replication cost:
//! under full replication the per-commit message fan-out grows
//! linearly with `Nodes`; under `rf = 3` it stays flat. A fraction of
//! transactions (`CROSS_SHARD`) deliberately touch objects outside the
//! submitting node's shards and are forwarded to the owning node, so
//! the cross-shard coordination path is exercised at every scale.
//!
//! The table is fully deterministic (wall-clock lives in the repo
//! benchmark, whose `sharded-scaleout` workload times its engines),
//! so the CI determinism gate can compare runs byte-for-byte.

use crate::par::run_points;
use crate::table::{fmt_ms, fmt_val, Table};
use crate::{Instrument, RunOpts};
use repl_core::{
    CommitProto, EagerSim, LazyGroupSim, Mobility, Ownership, ReplicaDiscipline, SimConfig,
    M_COMMIT_LATENCY, M_INDOUBT_WAIT, M_PROPAGATION_LAG,
};
use repl_model::Point;
use repl_workload::presets;

/// Node counts the sweep visits with the partial (`rf = 3`) layout.
const NODE_SWEEP: [u32; 6] = [8, 16, 32, 64, 128, 256];

/// Node counts that also get a full-replication comparison row. Full
/// replication's per-commit fan-out is `Nodes - 1`, so these stop
/// early — which is exactly the point the partial rows make.
const FULL_RF_CAP: u32 = 32;

/// Per-shard replication factor for the partial rows.
const RF: u32 = 3;

/// Fraction of root transactions that draw from the whole keyspace
/// (and forward non-hosted groups to their owners) instead of staying
/// inside the submitting node's hosted shards.
const CROSS_SHARD: f64 = 0.10;

/// Database objects per node: the keyspace grows with the cluster so
/// each node's working set — and therefore its local contention — is
/// constant across the sweep.
const DB_PER_NODE: u32 = 32;

/// Node counts the commit-protocol comparison rows run at. The point
/// of those rows is protocol cost, not scaling, so two sizes suffice.
const PROTO_NODES: [u32; 2] = [16, 64];

/// Replication factor of the commit-protocol rows: small enough that
/// most cross-shard transactions span several owners.
const PROTO_RF: u32 = 2;

/// SCALEOUT: lazy-group commit/deadlock/lag scaling, Nodes × rf.
pub fn scaleout(opts: &RunOpts) -> Table {
    let mut t = Table::new(
        "SCALEOUT",
        "sharded keyspace: lazy-group from 8 to 256 nodes, rf=3 vs full replication",
        &[
            "Nodes",
            "rf",
            "commit/s",
            "deadlock/s",
            "recon/s",
            "lag p50 ms",
            "lag p95 ms",
            "lag p99 ms",
            "msgs/commit",
            "proto",
            "commit p50 ms",
            "commit p95 ms",
            "indoubt p95 ms",
        ],
    );
    // (nodes, rf) points; rf = 0 is the engine's "full replication"
    // sentinel. Partial rows first so the table reads as one sweep,
    // full rows after as the contrast.
    let mut cases: Vec<(u32, u32)> = NODE_SWEEP.iter().map(|&n| (n, RF)).collect();
    cases.extend(
        NODE_SWEEP
            .iter()
            .filter(|&&n| n <= FULL_RF_CAP)
            .map(|&n| (n, 0)),
    );
    let horizon = opts.horizon(120);
    let reports = run_points(opts, cases.clone(), |opts, &(nodes, rf)| {
        let p = presets::scaleup_base()
            .with_db_size(f64::from(nodes * DB_PER_NODE))
            .with_nodes(f64::from(nodes))
            .with_tps(10.0);
        let cfg = SimConfig::from_params(&p, horizon, opts.seed)
            .with_warmup(5)
            .with_shards(nodes, rf)
            .with_cross_shard(CROSS_SHARD);
        let label = if rf == 0 {
            "full".into()
        } else {
            format!("{rf}")
        };
        LazyGroupSim::new(cfg, Mobility::Connected)
            .instrument(opts, format!("scaleout nodes={nodes} rf={label}"))
            .run()
    });
    let mut partial_fanout = Vec::new();
    let mut full_fanout = Vec::new();
    for ((nodes, rf), r) in cases.into_iter().zip(reports) {
        let rf_label = if rf == 0 {
            "full".to_owned()
        } else {
            format!("{rf}")
        };
        opts.metrics
            .absorb(&format!("scaleout/nodes={nodes}/rf={rf_label}"), &r.dists);
        let msgs_per_commit = if r.committed > 0 {
            r.messages as f64 / r.committed as f64
        } else {
            0.0
        };
        let point = Point {
            x: f64::from(nodes),
            y: msgs_per_commit,
        };
        if rf == 0 {
            full_fanout.push(point);
        } else {
            partial_fanout.push(point);
        }
        let lag = r
            .dists
            .histogram(M_PROPAGATION_LAG)
            .filter(|h| h.count() > 0);
        let lag_q = |q: f64| lag.map_or("—".to_owned(), |h| fmt_ms(h.quantile_secs(q)));
        let latency = r
            .dists
            .histogram(M_COMMIT_LATENCY)
            .filter(|h| h.count() > 0);
        let latency_q = |q: f64| latency.map_or("—".to_owned(), |h| fmt_ms(h.quantile_secs(q)));
        t.row(vec![
            format!("{nodes}"),
            rf_label,
            fmt_val(r.commit_rate),
            fmt_val(r.deadlock_rate),
            fmt_val(r.reconciliation_rate),
            lag_q(0.50),
            lag_q(0.95),
            lag_q(0.99),
            fmt_val(msgs_per_commit),
            "—".to_owned(),
            latency_q(0.50),
            latency_q(0.95),
            "—".to_owned(),
        ]);
    }
    // Commit-protocol comparison rows: the eager engine on the same
    // per-node load, sharded with a small replica set, run once per
    // cross-shard commit protocol. Owner-order is the unfenced
    // fire-and-forget baseline; 2PC pays a full prepare/vote round;
    // O2PL piggybacks the prepare on the last lock grant per owner.
    let proto_cases: Vec<(u32, CommitProto)> = PROTO_NODES
        .iter()
        .flat_map(|&n| CommitProto::ALL.into_iter().map(move |p| (n, p)))
        .collect();
    let proto_horizon = opts.horizon(60);
    let proto_reports = run_points(opts, proto_cases.clone(), |opts, &(nodes, proto)| {
        let p = presets::scaleup_base()
            .with_db_size(f64::from(nodes * DB_PER_NODE))
            .with_nodes(f64::from(nodes))
            .with_tps(10.0);
        let cfg = SimConfig::from_params(&p, proto_horizon, opts.seed)
            .with_warmup(5)
            .with_shards(nodes, PROTO_RF)
            .with_cross_shard(CROSS_SHARD)
            .with_commit_proto(proto);
        EagerSim::new(cfg, ReplicaDiscipline::Serial, Ownership::Group)
            .instrument(
                opts,
                format!("scaleout nodes={nodes} proto={}", proto.name()),
            )
            .run()
    });
    for ((nodes, proto), r) in proto_cases.into_iter().zip(proto_reports) {
        opts.metrics.absorb(
            &format!("scaleout/nodes={nodes}/proto={}", proto.name()),
            &r.dists,
        );
        let msgs_per_commit = if r.committed > 0 {
            r.messages as f64 / r.committed as f64
        } else {
            0.0
        };
        let q = |name: &str, q: f64| {
            r.dists
                .histogram(name)
                .filter(|h| h.count() > 0)
                .map_or("—".to_owned(), |h| fmt_ms(h.quantile_secs(q)))
        };
        t.row(vec![
            format!("{nodes}"),
            format!("{PROTO_RF}"),
            fmt_val(r.commit_rate),
            fmt_val(r.deadlock_rate),
            fmt_val(r.reconciliation_rate),
            "—".to_owned(),
            "—".to_owned(),
            "—".to_owned(),
            fmt_val(msgs_per_commit),
            proto.name().to_owned(),
            q(M_COMMIT_LATENCY, 0.50),
            q(M_COMMIT_LATENCY, 0.95),
            q(M_INDOUBT_WAIT, 0.95),
        ]);
    }
    if let Some(k) = repl_model::fit_exponent(&partial_fanout) {
        t.note(format!(
            "rf=3 per-commit fan-out Nodes-exponent {k:.2} — per-node replication \
             work stays flat as the cluster grows"
        ));
    }
    if let Some(k) = repl_model::fit_exponent(&full_fanout) {
        t.note(format!(
            "full-replication fan-out Nodes-exponent {k:.2} — the linear growth \
             that stops the other sweeps in the tens"
        ));
    }
    t.note(format!(
        "fixed per-node load: db = {DB_PER_NODE}*Nodes, tps = 10/node, \
         shards = Nodes, cross-shard fraction = {CROSS_SHARD}"
    ));
    t.note(format!(
        "proto rows: eager engine, rf = {PROTO_RF}; indoubt p95 = time a \
         prepared participant blocks awaiting the coordinator's decision"
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> RunOpts {
        RunOpts {
            quick: true,
            seed: 23,
            ..RunOpts::default()
        }
    }

    #[test]
    fn scaleout_covers_the_full_sweep() {
        let t = scaleout(&quick_opts());
        let proto_rows = PROTO_NODES.len() * CommitProto::ALL.len();
        assert_eq!(t.rows.len(), NODE_SWEEP.len() + 3 + proto_rows);
        // The 256-node point completes and commits work.
        let big = t
            .rows
            .iter()
            .find(|r| r[0] == "256")
            .expect("256-node row present");
        assert_ne!(big[2], "0.000", "256-node point must commit transactions");
        // Partial rows report a real propagation-lag percentile.
        assert_ne!(big[6], "—", "sharded lazy-group must report replica lag");
    }

    #[test]
    fn partial_rf_fanout_is_flat_while_full_grows() {
        let t = scaleout(&quick_opts());
        let fanout = |nodes: &str, rf: &str| -> f64 {
            t.rows
                .iter()
                .find(|r| r[0] == nodes && r[1] == rf)
                .expect("row present")[8]
                .parse()
                .expect("msgs/commit is numeric")
        };
        // rf=3 fan-out stays in the same ballpark from 8 to 256 nodes...
        assert!(fanout("256", "3") < fanout("8", "3") * 2.0 + 1.0);
        // ...while full replication has already grown ~4x by 32 nodes.
        assert!(fanout("32", "full") > fanout("8", "full") * 2.0);
    }

    #[test]
    fn protocol_rows_order_by_message_cost() {
        let t = scaleout(&quick_opts());
        let row = |nodes: &str, proto: &str| -> &Vec<String> {
            t.rows
                .iter()
                .find(|r| r[0] == nodes && r[9] == proto)
                .unwrap_or_else(|| panic!("missing proto row {nodes}/{proto}"))
        };
        for nodes in ["16", "64"] {
            let msgs = |proto: &str| -> f64 {
                row(nodes, proto)[8]
                    .parse()
                    .expect("msgs/commit is numeric")
            };
            // The full prepare/vote round is the most expensive; the
            // piggybacked variant undercuts it; fire-and-forget is
            // cheapest (and unsafe — the check campaign proves that).
            assert!(
                msgs("2pc") > msgs("owner-order"),
                "2pc must cost more messages than owner-order at {nodes} nodes"
            );
            assert!(
                msgs("o2pl") < msgs("2pc"),
                "o2pl piggybacking must undercut 2pc at {nodes} nodes"
            );
            // Fenced protocols report how long prepared participants
            // blocked in-doubt; the unfenced baseline never prepares.
            assert_ne!(row(nodes, "2pc")[12], "—", "2pc must report in-doubt wait");
            assert_eq!(
                row(nodes, "owner-order")[12],
                "—",
                "owner-order has no in-doubt window"
            );
        }
    }
}
