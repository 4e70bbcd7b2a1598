//! E8, E9, E10 and the latency ablation — lazy replication.

use crate::par::run_points;
use crate::table::{fmt_ratio, fmt_val, Table};
use crate::{Instrument, RunOpts};
use repl_core::{LazyGroupSim, LazyMasterSim, Mobility};
use repl_model::{eager, lazy, Point};
use repl_net::LatencyModel;
use repl_sim::SimDuration;
use repl_workload::presets;

/// E8: connected lazy-group reconciliation rate vs `Nodes`.
///
/// The paper equates this rate with the eager wait rate (equation 14,
/// cubic in `Nodes`). With zero message delay the simulator's conflict
/// window is only the root-transaction duration, so the measured growth
/// sits between quadratic and cubic; the latency ablation shows the
/// rate climbing toward the model as delays grow — exactly the paper's
/// "if message propagation times were added, the reconciliation rate
/// would rise".
pub fn e08(opts: &RunOpts) -> Table {
    let mut t = Table::new(
        "E8",
        "lazy-group reconciliation rate vs Nodes (eq. 14)",
        &["Nodes", "recon/s model", "recon/s measured", "meas/model"],
    );
    let base = presets::scaleup_base().with_db_size(500.0).with_tps(10.0);
    // One node cannot reconcile with itself.
    let sweep: Vec<f64> = presets::node_sweep()
        .iter()
        .copied()
        .filter(|&n| n >= 2.0)
        .collect();
    let reports = run_points(opts, sweep.clone(), |opts, &n| {
        let p = base.with_nodes(n);
        let predicted = lazy::group_reconciliation_rate(&p);
        let horizon = opts.adaptive_horizon(predicted.min(1.0), 50.0, 200, 5_000);
        let cfg = opts.sim_config(&p, horizon).with_warmup(5);
        LazyGroupSim::new(cfg, Mobility::Connected)
            .instrument(opts, format!("e8 nodes={n}"))
            .run()
    });
    let mut points = Vec::new();
    for (n, r) in sweep.into_iter().zip(reports) {
        opts.metrics.absorb(&format!("e8/nodes={n}"), &r.dists);
        let predicted = lazy::group_reconciliation_rate(&base.with_nodes(n));
        points.push(Point {
            x: n,
            y: r.reconciliation_rate,
        });
        t.row(vec![
            format!("{n}"),
            fmt_val(predicted),
            fmt_val(r.reconciliation_rate),
            fmt_ratio(r.reconciliation_rate, predicted),
        ]);
    }
    if let Some(k) = repl_model::fit_exponent(&points) {
        t.note(format!(
            "measured Nodes-exponent {k:.2} (model predicts 3 with delays; \
             zero-delay window flattens it — see ABL-LAT)"
        ));
    }
    t
}

/// E9: mobile lazy-group — reconciliation rate vs the disconnect
/// window (equations 15–18 predict linear growth in the window for the
/// whole-system rate, quadratic for the per-cycle collision count).
pub fn e09(opts: &RunOpts) -> Table {
    let mut t = Table::new(
        "E9",
        "mobile lazy-group reconciliation vs Disconnect_Time (eqs. 15-18)",
        &[
            "Disc. secs",
            "P(collision)/cycle",
            "recon/s model",
            "recon/s measured",
            "meas/model",
        ],
    );
    // Low enough update density that short windows sit in the
    // rare-collision (quadratic) regime — eq. 17's P(collision) < 1 —
    // while the longest windows saturate, which is itself the paper's
    // point about long disconnections.
    let base = repl_model::Params::new(20_000.0, 4.0, 1.0, 2.0, 0.01);
    let sweep = presets::disconnect_sweep().to_vec();
    let reports = run_points(opts, sweep.clone(), |opts, &d| {
        let p = base.with_disconnected_time(d);
        let horizon = opts.horizon(2_400).max(8 * d as u64);
        let cfg = opts.sim_config(&p, horizon).with_warmup(5);
        let mobility = Mobility::Cycling {
            connected: SimDuration::from_secs_f64(d / 2.0),
            disconnected: SimDuration::from_secs_f64(d),
        };
        LazyGroupSim::new(cfg, mobility)
            .instrument(opts, format!("e9 disconnect={d}"))
            .run()
    });
    let mut points = Vec::new();
    for (d, r) in sweep.into_iter().zip(reports) {
        opts.metrics
            .absorb(&format!("e9/disconnected={d}"), &r.dists);
        let p = base.with_disconnected_time(d);
        let predicted = lazy::mobile_reconciliation_rate(&p);
        points.push(Point {
            x: d,
            y: r.reconciliation_rate,
        });
        t.row(vec![
            format!("{d}"),
            fmt_val(lazy::mobile_collision_probability(&p)),
            fmt_val(predicted),
            fmt_val(r.reconciliation_rate),
            fmt_ratio(r.reconciliation_rate, predicted),
        ]);
    }
    if let Some(k) = repl_model::fit_exponent(&points) {
        t.note(format!(
            "measured Disconnect_Time-exponent {k:.2} (model predicts ~1 \
             while P(collision) << 1; saturates once most cycles collide)"
        ));
    }
    t
}

/// E9b: mobile reconciliation vs `Nodes` — equation (18) is quadratic
/// in the node count.
pub fn e09_nodes(opts: &RunOpts) -> Table {
    let mut t = Table::new(
        "E9b",
        "mobile lazy-group reconciliation vs Nodes (eq. 18 quadratic)",
        &["Nodes", "recon/s model", "recon/s measured", "meas/model"],
    );
    let base = presets::mobile_base().with_db_size(2_000.0);
    let sweep = vec![2.0, 3.0, 4.0, 6.0, 8.0];
    let reports = run_points(opts, sweep.clone(), |opts, &n| {
        let p = base.with_nodes(n);
        let horizon = opts.horizon(600);
        let cfg = opts.sim_config(&p, horizon).with_warmup(5);
        let mobility = Mobility::Cycling {
            connected: SimDuration::from_secs(10),
            disconnected: SimDuration::from_secs_f64(p.disconnected_time),
        };
        LazyGroupSim::new(cfg, mobility)
            .instrument(opts, format!("e9b nodes={n}"))
            .run()
    });
    let mut points = Vec::new();
    for (n, r) in sweep.into_iter().zip(reports) {
        opts.metrics.absorb(&format!("e9b/nodes={n}"), &r.dists);
        let predicted = lazy::mobile_reconciliation_rate(&base.with_nodes(n));
        points.push(Point {
            x: n,
            y: r.reconciliation_rate,
        });
        t.row(vec![
            format!("{n}"),
            fmt_val(predicted),
            fmt_val(r.reconciliation_rate),
            fmt_ratio(r.reconciliation_rate, predicted),
        ]);
    }
    if let Some(k) = repl_model::fit_exponent(&points) {
        t.note(format!(
            "measured Nodes-exponent {k:.2} (model predicts ~2; eq. 18)"
        ));
    }
    t
}

/// E10: lazy-master deadlock rate vs `Nodes` (equation 19, quadratic)
/// and the comparison against eager-group (who wins).
pub fn e10(opts: &RunOpts) -> Table {
    let mut t = Table::new(
        "E10",
        "lazy-master deadlock rate vs Nodes (eq. 19) and eager comparison",
        &[
            "Nodes",
            "deadlocks/s model",
            "deadlocks/s measured",
            "meas/model",
            "eager model (eq. 12)",
        ],
    );
    let base = presets::scaleup_base();
    let sweep = presets::node_sweep().to_vec();
    let reports = run_points(opts, sweep.clone(), |opts, &n| {
        let p = base.with_nodes(n);
        let predicted = lazy::master_deadlock_rate(&p);
        let horizon = opts.adaptive_horizon(predicted, 40.0, 200, 20_000);
        let cfg = opts.sim_config(&p, horizon).with_warmup(5);
        LazyMasterSim::new(cfg)
            .instrument(opts, format!("e10 nodes={n}"))
            .run()
    });
    let mut points = Vec::new();
    for (n, r) in sweep.into_iter().zip(reports) {
        opts.metrics.absorb(&format!("e10/nodes={n}"), &r.dists);
        let p = base.with_nodes(n);
        let predicted = lazy::master_deadlock_rate(&p);
        points.push(Point {
            x: n,
            y: r.deadlock_rate,
        });
        t.row(vec![
            format!("{n}"),
            fmt_val(predicted),
            fmt_val(r.deadlock_rate),
            fmt_ratio(r.deadlock_rate, predicted),
            fmt_val(eager::total_deadlock_rate(&p)),
        ]);
    }
    if let Some(k) = repl_model::fit_exponent(&points) {
        t.note(format!(
            "measured Nodes-exponent {k:.2} (model predicts 2; eq. 19)"
        ));
    }
    t.note("lazy-master stays below eager at every N>1 — \"slightly less deadlock prone\" (§5)");
    t
}

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
        let cfg = opts
            .sim_config(&p, horizon)
            .with_warmup(5)
            .with_latency(LatencyModel::Fixed(SimDuration::from_millis(delay_ms)));
        LazyGroupSim::new(cfg, Mobility::Connected)
            .instrument(opts, format!("ablate-latency delay={delay_ms}ms"))
            .run()
    });
    for (delay_ms, r) in sweep.into_iter().zip(reports) {
        opts.metrics
            .absorb(&format!("abl-lat/delay={delay_ms}ms"), &r.dists);
        t.row(vec![format!("{delay_ms}"), fmt_val(r.reconciliation_rate)]);
    }
    t.note("rate grows with delay — the conflict window includes propagation time (§4)");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> RunOpts {
        RunOpts {
            quick: true,
            seed: 5,
            ..RunOpts::default()
        }
    }

    #[test]
    fn e08_skips_single_node() {
        let t = e08(&quick());
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
