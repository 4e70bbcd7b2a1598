//! E8, E9, E10 and the latency ablation — lazy replication.

use super::curve::{Curve, Rate};
use crate::par::run_points;
use crate::table::{fmt_val, Table};
use crate::{Instrument, RunOpts};
use repl_core::{LazyGroupSim, LazyMasterSim, Mobility, Report, SimConfig};
use repl_model::{eager, lazy, Axis, Params};
use repl_net::LatencyModel;
use repl_sim::SimDuration;
use repl_workload::presets;

fn run_lazy_group(
    opts: &RunOpts,
    p: &Params,
    horizon: u64,
    mobility: Mobility,
    label: String,
) -> Report {
    let cfg = SimConfig::from_params(p, horizon, opts.seed).with_warmup(5);
    LazyGroupSim::new(cfg, mobility)
        .instrument(opts, label)
        .run()
}

/// E8: connected lazy-group reconciliation rate vs `Nodes`.
///
/// The paper equates this rate with the eager wait rate (equation 14,
/// cubic in `Nodes`). With zero message delay the simulator's conflict
/// window is only the root-transaction duration, so the measured growth
/// sits between quadratic and cubic; the latency ablation shows the
/// rate climbing toward the model as delays grow — exactly the paper's
/// "if message propagation times were added, the reconciliation rate
/// would rise".
pub const E8: Curve = Curve {
    name: "e8",
    title: "lazy-group reconciliation rate vs Nodes (eq. 14)",
    axis: Axis::Nodes,
    // One node cannot reconcile with itself.
    points: || {
        presets::node_sweep()
            .into_iter()
            .filter(|&n| n >= 2.0)
            .collect()
    },
    base: || presets::scaleup_base().with_db_size(500.0).with_tps(10.0),
    model: lazy::group_reconciliation_rate,
    rate: Rate::Reconciliations,
    run: |opts, p, rate, label| {
        let horizon = opts.adaptive_horizon(rate.min(1.0), 50.0, 200, 5_000);
        run_lazy_group(opts, p, horizon, Mobility::Connected, label)
    },
    lead: None,
    trail: None,
    fit: Some("model predicts 3 with delays; zero-delay window flattens it — see ABL-LAT"),
    measured_note: None,
    note: None,
};

/// E9: mobile lazy-group — reconciliation rate vs the disconnect
/// window (equations 15–18 predict linear growth in the window for the
/// whole-system rate, quadratic for the per-cycle collision count).
pub const E9: Curve = Curve {
    name: "e9",
    title: "mobile lazy-group reconciliation vs Disconnect_Time (eqs. 15-18)",
    axis: Axis::DisconnectedTime,
    points: presets::disconnect_sweep,
    // Low enough update density that short windows sit in the
    // rare-collision (quadratic) regime — eq. 17's P(collision) < 1 —
    // while the longest windows saturate, which is itself the paper's
    // point about long disconnections.
    base: || Params::new(20_000.0, 4.0, 1.0, 2.0, 0.01),
    model: lazy::mobile_reconciliation_rate,
    rate: Rate::Reconciliations,
    run: |opts, p, _, label| {
        let d = p.disconnected_time;
        let horizon = opts.horizon(2_400).max(8 * d as u64);
        let mobility = Mobility::Cycling {
            connected: SimDuration::from_secs_f64(d / 2.0),
            disconnected: SimDuration::from_secs_f64(d),
        };
        run_lazy_group(opts, p, horizon, mobility, label)
    },
    lead: Some(("P(collision)/cycle", |p| {
        fmt_val(lazy::mobile_collision_probability(p))
    })),
    trail: None,
    fit: Some("model predicts ~1 while P(collision) << 1; saturates once most cycles collide"),
    measured_note: None,
    note: None,
};

/// E9b: mobile reconciliation vs `Nodes` — equation (18) is quadratic
/// in the node count.
pub const E9B: Curve = Curve {
    name: "e9b",
    title: "mobile lazy-group reconciliation vs Nodes (eq. 18 quadratic)",
    axis: Axis::Nodes,
    points: || vec![2.0, 3.0, 4.0, 6.0, 8.0],
    base: || presets::mobile_base().with_db_size(2_000.0),
    model: lazy::mobile_reconciliation_rate,
    rate: Rate::Reconciliations,
    run: |opts, p, _, label| {
        let mobility = Mobility::Cycling {
            connected: SimDuration::from_secs(10),
            disconnected: SimDuration::from_secs_f64(p.disconnected_time),
        };
        run_lazy_group(opts, p, opts.horizon(600), mobility, label)
    },
    lead: None,
    trail: None,
    fit: Some("model predicts ~2; eq. 18"),
    measured_note: None,
    note: None,
};

/// E10: lazy-master deadlock rate vs `Nodes` (equation 19, quadratic)
/// and the comparison against eager-group (who wins).
pub const E10: Curve = Curve {
    name: "e10",
    title: "lazy-master deadlock rate vs Nodes (eq. 19) and eager comparison",
    axis: Axis::Nodes,
    points: presets::node_sweep,
    base: presets::scaleup_base,
    model: lazy::master_deadlock_rate,
    rate: Rate::Deadlocks,
    run: |opts, p, rate, label| {
        let horizon = opts.adaptive_horizon(rate, 40.0, 200, 20_000);
        let cfg = SimConfig::from_params(p, horizon, opts.seed).with_warmup(5);
        LazyMasterSim::new(cfg).instrument(opts, label).run()
    },
    lead: None,
    trail: Some(("eager model (eq. 12)", |p| {
        fmt_val(eager::total_deadlock_rate(p))
    })),
    fit: Some("model predicts 2; eq. 19"),
    measured_note: None,
    note: Some(
        "lazy-master stays below eager at every N>1 — \"slightly less deadlock prone\" (§5)",
    ),
};

/// Latency ablation: the closed forms assume zero message delay and the
/// paper warns delays make lazy-group reconciliation worse. Sweep the
/// one-way delay and watch the rate climb.
pub fn ablate_latency(opts: &RunOpts) -> Table {
    let mut t = Table::new(
        "ABL-LAT",
        "lazy-group reconciliation rate vs one-way message delay",
        &["delay ms", "recon/s measured"],
    );
    let p = presets::scaleup_base().with_db_size(500.0).with_nodes(4.0);
    let sweep = vec![0u64, 10, 50, 200, 1000];
    let reports = run_points(opts, sweep.clone(), |opts, &delay_ms| {
        let horizon = opts.horizon(600);
        let cfg = SimConfig::from_params(&p, horizon, opts.seed)
            .with_warmup(5)
            .with_latency(LatencyModel::Fixed(SimDuration::from_millis(delay_ms)));
        LazyGroupSim::new(cfg, Mobility::Connected)
            .instrument(opts, format!("ablate-latency delay={delay_ms}ms"))
            .run()
    });
    for (delay_ms, r) in sweep.into_iter().zip(reports) {
        opts.metrics
            .absorb(&format!("ablate-latency/delay={delay_ms}ms"), &r.dists);
        t.row(vec![format!("{delay_ms}"), fmt_val(r.reconciliation_rate)]);
    }
    t.note("rate grows with delay — the conflict window includes propagation time (§4)");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::by_name;

    fn quick() -> RunOpts {
        RunOpts {
            quick: true,
            seed: 5,
            ..RunOpts::default()
        }
    }

    #[test]
    fn e08_skips_single_node() {
        let t = (by_name("e8").unwrap().run)(&quick());
        assert_eq!(t.rows.len(), presets::node_sweep().len() - 1);
        assert!(t.rows.iter().all(|r| r[0] != "1"));
    }

    #[test]
    fn ablate_latency_monotone_tail() {
        let t = ablate_latency(&quick());
        assert_eq!(t.rows.len(), 5);
        // The largest delay should beat the zero-delay rate.
        let first: f64 = t.rows[0][1].parse().unwrap_or(0.0);
        let last: f64 = t.rows.last().unwrap()[1].parse().unwrap_or(f64::MAX);
        assert!(last >= first);
    }
}
