//! E3, E4 and E11 — the structural artifacts: Figure 1 (work
//! multiplication), Figure 3 (scaleup vs partitioning vs replication),
//! and Table 1 (the taxonomy, measured).

use crate::par::run_points;
use crate::table::{fmt_ms, fmt_val, Table};
use crate::{Instrument, RunOpts};
use repl_core::{
    ContentionProfile, ContentionSim, EagerSim, LazyGroupSim, LazyMasterSim, Mobility, Ownership,
    ReplicaDiscipline, SimConfig, TwoTierConfig, TwoTierSim, TwoTierWorkload,
};
use repl_model::{Params, Scheme};
use repl_sim::SimDuration;

/// E3: Figure 1 — "if data is replicated at N nodes, the transaction
/// does N times as much work". Measured object updates and messages per
/// user transaction for each propagation strategy at N = 3. Eager's
/// replica updates are modelled as work, not sent, so it measures no
/// messages; a note gives the paper's count.
pub fn e03(opts: &RunOpts) -> Table {
    let mut t = Table::new(
        "E3",
        "Figure 1: work per user transaction at N=3 (Actions=3)",
        &[
            "scheme",
            "committed txns",
            "updates/user-txn",
            "messages/user-txn",
            "replica txns/user-txn",
        ],
    );
    let p = Params::new(100_000.0, 3.0, 5.0, 3.0, 0.01);
    let horizon = opts.horizon(200);
    let reports = run_points(opts, vec!["eager", "lazy"], |opts, &which| {
        let cfg = SimConfig::from_params(&p, horizon, opts.seed).with_warmup(5);
        match which {
            "eager" => EagerSim::new(cfg, ReplicaDiscipline::Serial, Ownership::Group)
                .instrument(opts, "e3 eager")
                .run(),
            _ => LazyGroupSim::new(cfg, Mobility::Connected)
                .instrument(opts, "e3 lazy-group")
                .run(),
        }
    });
    let (eager, lazy) = (&reports[0], &reports[1]);
    opts.metrics.absorb("e3/eager", &eager.dists);
    opts.metrics.absorb("e3/lazy-group", &lazy.dists);
    t.row(vec![
        "eager (1 txn, 9 updates)".into(),
        eager.committed.to_string(),
        fmt_val(eager.actions as f64 / eager.committed.max(1) as f64),
        fmt_val(eager.messages as f64 / eager.committed.max(1) as f64),
        "0".into(),
    ]);
    t.row(vec![
        "lazy (1 root + 2 lazy txns)".into(),
        lazy.committed.to_string(),
        fmt_val((lazy.actions + lazy.replica_commits * 3) as f64 / lazy.committed.max(1) as f64),
        fmt_val(lazy.messages as f64 / lazy.committed.max(1) as f64),
        fmt_val(lazy.replica_commits as f64 / lazy.committed.max(1) as f64),
    ]);

    t.note("both strategies perform ~N x Actions = 9 updates per user transaction (eq. 8)");
    t.note("eager does them in one long transaction; lazy in N-1 extra transactions (Fig. 1)");
    t.note("eager replica updates are modelled as work, not sent: the paper counts (N-1) x Actions = 6 messages");
    t
}

/// E4: Figure 3 — growing a 1 TPS system. Replication doubles the
/// users *and* makes every node do every update: aggregate update work
/// quadruples while a partitioned system only doubles.
pub fn e04(opts: &RunOpts) -> Table {
    let mut t = Table::new(
        "E4",
        "Figure 3: scaleup vs partitioning vs replication (update actions/s)",
        &["system", "user TPS total", "update work/s", "vs base"],
    );
    let horizon = opts.horizon(300);
    let actions = 4.0;
    let tps = 1.0;
    // (label, tps, seed offset); "replication" runs the eager engine,
    // everything else a single node.
    let cases: Vec<(&str, f64, u64)> = vec![
        ("base", tps, 0),
        ("scaleup", 2.0 * tps, 1),
        ("partition-a", tps, 2),
        ("partition-b", tps, 3),
        ("replication", tps, 4),
    ];
    let reports = run_points(opts, cases, |opts, &(label, tps, seed_off)| {
        let seed = opts.seed + seed_off;
        if label == "replication" {
            // Two nodes, each originating 1 TPS, each also applying
            // the other's updates.
            let p = Params::new(10_000.0, 2.0, tps, actions, 0.01);
            let cfg = SimConfig::from_params(&p, horizon, seed).with_warmup(5);
            EagerSim::new(cfg, ReplicaDiscipline::Serial, Ownership::Group)
                .instrument(opts, "e4 replication")
                .run()
        } else {
            let p = Params::new(10_000.0, 1.0, tps, actions, 0.01);
            let cfg = SimConfig::from_params(&p, horizon, seed).with_warmup(5);
            ContentionSim::new(cfg, ContentionProfile::single_node(&cfg))
                .instrument(opts, format!("e4 {label}"))
                .run()
        }
    });
    for (label, r) in [
        "base",
        "scaleup",
        "partition-a",
        "partition-b",
        "replication",
    ]
    .iter()
    .zip(&reports)
    {
        opts.metrics.absorb(&format!("e4/{label}"), &r.dists);
    }
    let base_work = reports[0].action_rate;
    t.row(vec![
        "base: one 1 TPS node".into(),
        fmt_val(tps),
        fmt_val(base_work),
        "1.0x".into(),
    ]);
    t.row(vec![
        "scaleup: one 2 TPS node".into(),
        fmt_val(2.0 * tps),
        fmt_val(reports[1].action_rate),
        format!("{:.1}x", reports[1].action_rate / base_work),
    ]);
    // Partitioning: two independent 1 TPS nodes — work is additive.
    let part_work = reports[2].action_rate + reports[3].action_rate;
    t.row(vec![
        "partitioning: two 1 TPS nodes".into(),
        fmt_val(2.0 * tps),
        fmt_val(part_work),
        format!("{:.1}x", part_work / base_work),
    ]);
    t.row(vec![
        "replication: two 1 TPS replicas".into(),
        fmt_val(2.0 * tps),
        fmt_val(reports[4].action_rate),
        format!("{:.1}x", reports[4].action_rate / base_work),
    ]);
    t.note("doubling users under replication quadruples total update work (N^2, Fig. 3)");
    t
}

/// E11: Table 1, measured — all five schemes on one 4-node
/// configuration, side by side. Eager runs once: equation (12) does not
/// distinguish master from group, and neither does the engine, so the
/// eager-master row prints the eager run.
pub fn e11(opts: &RunOpts) -> Table {
    let mut t = Table::new(
        "E11",
        "Table 1 measured: all five schemes, 4 nodes, DB=500, 10 TPS/node",
        &[
            "scheme",
            "txns/user-update (T1)",
            "owners (T1)",
            "commits/s",
            "deadlocks/s",
            "recon/s",
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "max ms",
            "mobile ok",
        ],
    );
    let p = Params::new(500.0, 4.0, 10.0, 4.0, 0.01);
    let n = 4u64;
    let horizon = opts.horizon(400);
    let schemes = vec![
        Scheme::EagerGroup,
        Scheme::LazyGroup,
        Scheme::LazyMaster,
        Scheme::TwoTier,
    ];
    let reports = run_points(opts, schemes.clone(), |opts, &scheme| {
        let mk = || SimConfig::from_params(&p, horizon, opts.seed).with_warmup(5);
        match scheme {
            Scheme::EagerGroup | Scheme::EagerMaster => {
                EagerSim::new(mk(), ReplicaDiscipline::Serial, Ownership::Group)
                    .instrument(opts, "e11 eager-group")
                    .run()
            }
            Scheme::LazyGroup => LazyGroupSim::new(mk(), Mobility::Connected)
                .instrument(opts, "e11 lazy-group")
                .run(),
            Scheme::LazyMaster => LazyMasterSim::new(mk())
                .instrument(opts, "e11 lazy-master")
                .run(),
            Scheme::TwoTier => {
                let tt = TwoTierConfig {
                    sim: mk(),
                    base_nodes: 2,
                    mobile_owned: 0,
                    connected: SimDuration::from_secs(15),
                    disconnected: SimDuration::from_secs(15),
                    workload: TwoTierWorkload::Commutative { max_amount: 10 },
                    initial_value: 1_000_000,
                };
                TwoTierSim::new(tt).instrument(opts, "e11 two-tier").run()
            }
        }
    });
    for (scheme, r) in schemes.iter().zip(&reports) {
        opts.metrics
            .absorb(&format!("e11/{}", scheme.name()), &r.dists);
    }
    // Table 1's order, the eager run printed twice.
    let rows = [
        (Scheme::EagerGroup, &reports[0]),
        (Scheme::EagerMaster, &reports[0]),
        (Scheme::LazyGroup, &reports[1]),
        (Scheme::LazyMaster, &reports[2]),
        (Scheme::TwoTier, &reports[3]),
    ];
    for (scheme, r) in rows {
        t.row(vec![
            scheme.name().into(),
            scheme.transactions_per_user_update(n).to_string(),
            scheme.object_owners(n).to_string(),
            fmt_val(r.commit_rate),
            fmt_val(r.deadlock_rate),
            fmt_val(r.reconciliation_rate),
            fmt_ms(r.p50_latency_secs),
            fmt_ms(r.p95_latency_secs),
            fmt_ms(r.p99_latency_secs),
            fmt_ms(r.max_latency_secs),
            if scheme.supports_mobility() {
                "yes"
            } else {
                "no"
            }
            .into(),
        ]);
    }

    t.note("eager converts conflicts to waits/deadlocks; lazy-group to reconciliations;");
    t.note("two-tier (commutative) shows zero reconciliation while supporting mobility (§7)");
    t.note("eager-master prints the eager run: eq. (12) does not distinguish master from group");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> RunOpts {
        RunOpts {
            quick: true,
            seed: 11,
            ..RunOpts::default()
        }
    }

    #[test]
    fn e03_reports_two_schemes() {
        let t = e03(&quick());
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn e04_replication_work_exceeds_partitioning() {
        let t = e04(&quick());
        assert_eq!(t.rows.len(), 4);
        let part: f64 = t.rows[2][2].parse().unwrap();
        let repl: f64 = t.rows[3][2].parse().unwrap();
        assert!(
            repl > part * 1.5,
            "replication {repl} vs partitioning {part}"
        );
    }

    #[test]
    fn e11_covers_all_five_schemes() {
        let t = e11(&quick());
        assert_eq!(t.rows.len(), 5);
        let names: Vec<&str> = t.rows.iter().map(|r| r[0].as_str()).collect();
        assert!(names.contains(&"two-tier"));
    }
}
