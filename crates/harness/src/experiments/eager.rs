//! E5, E6, E7 and the footnote-2 ablation — eager replication's
//! polynomial explosions.

use super::curve::{Curve, Rate};
use crate::par::run_points;
use crate::table::{fmt_ratio, fmt_val, Table};
use crate::{Instrument, RunOpts};
use repl_core::{EagerSim, Ownership, ReplicaDiscipline, SimConfig};
use repl_model::{eager, Axis, Params, Point};
use repl_workload::presets;

fn run_eager(
    p: &Params,
    horizon: u64,
    opts: &RunOpts,
    label: String,
    discipline: ReplicaDiscipline,
) -> repl_core::Report {
    let cfg = SimConfig::from_params(p, horizon, opts.seed).with_warmup(5);
    EagerSim::new(cfg, discipline, Ownership::Group)
        .instrument(opts, label)
        .run()
}

/// The sweep-point run every eager curve shares: serial replica
/// updates, group ownership, a horizon sized for 40 deadlocks.
fn run_eager_deadlocks(opts: &RunOpts, p: &Params, rate: f64, label: String) -> repl_core::Report {
    let horizon = opts.adaptive_horizon(rate, 40.0, 200, 20_000);
    run_eager(p, horizon, opts, label, ReplicaDiscipline::Serial)
}

/// E5: eager system-wide wait rate vs `Nodes` — equation (10)'s cubic.
pub const E5: Curve = Curve {
    name: "e5",
    title: "eager replication wait rate vs Nodes (eqs. 7-10)",
    axis: Axis::Nodes,
    points: presets::node_sweep,
    base: presets::scaleup_base,
    model: eager::total_wait_rate,
    rate: Rate::Waits,
    run: |opts, p, rate, label| {
        let horizon = opts.adaptive_horizon(rate, 300.0, 200, 10_000);
        run_eager(p, horizon, opts, label, ReplicaDiscipline::Serial)
    },
    lead: None,
    trail: None,
    fit: Some("model predicts 3; eq. 10"),
    measured_note: None,
    note: None,
};

/// E6: eager deadlock rate vs `Nodes` (eq. 12) — the headline claim:
/// "a ten-fold increase in nodes gives a thousand-fold increase in
/// deadlocks".
pub const E6: Curve = Curve {
    name: "e6",
    title: "eager deadlock rate vs Nodes (eqs. 11-12): 10x nodes => ~1000x",
    axis: Axis::Nodes,
    points: presets::node_sweep,
    base: presets::scaleup_base,
    model: eager::total_deadlock_rate,
    rate: Rate::Deadlocks,
    run: run_eager_deadlocks,
    lead: None,
    trail: None,
    fit: Some("model predicts 3; eq. 12"),
    measured_note: Some(ten_fold_blow_up),
    note: None,
};

/// E6's note: the measured deadlock rate at 10 nodes over the rate at 1.
fn ten_fold_blow_up(points: &[Point]) -> String {
    let at = |n: f64| points.iter().find(|p| p.x == n).map_or(0.0, |p| p.y);
    if at(1.0) > 0.0 {
        format!(
            "measured 10x-node blow-up: {:.0}x (paper: ~1000x)",
            at(10.0) / at(1.0)
        )
    } else {
        "1-node deadlock rate unobservably low in this run (expected: eq. 5 rate is tiny)"
            .to_owned()
    }
}

/// E6b: eager deadlock rate vs `Actions` — the fifth-power sensitivity
/// at fixed node count ("a ten-fold increase in the transaction size
/// increases the deadlock rate by a factor of 100,000").
pub const E6B: Curve = Curve {
    name: "e6b",
    title: "eager deadlock rate vs Actions at 4 nodes (Actions^5 term of eq. 12)",
    axis: Axis::Actions,
    points: presets::action_sweep,
    base: || presets::scaleup_base().with_nodes(4.0),
    model: eager::total_deadlock_rate,
    rate: Rate::Deadlocks,
    run: run_eager_deadlocks,
    lead: None,
    trail: None,
    fit: Some("model predicts 5"),
    measured_note: None,
    note: None,
};

/// E7: the scaled-database variant — `DB_Size` grows with `Nodes`, so
/// equation (13) predicts only *linear* deadlock growth. The model
/// takes the unscaled base; the run scales `DB_Size` itself.
pub const E7: Curve = Curve {
    name: "e7",
    title: "eager deadlock rate with DB_Size scaled by Nodes (eq. 13): linear growth",
    axis: Axis::Nodes,
    points: presets::node_sweep,
    // Smaller base DB so the (linear, weak) growth is measurable.
    base: || Params::new(500.0, 1.0, 40.0, 4.0, 0.01),
    model: eager::deadlock_rate_scaled_db,
    rate: Rate::Deadlocks,
    run: |opts, p, rate, label| {
        let scaled = p.with_db_size(p.db_size * p.nodes);
        run_eager_deadlocks(opts, &scaled, rate, label)
    },
    lead: Some(("DB_Size", |p| ((p.db_size * p.nodes) as u64).to_string())),
    trail: None,
    fit: Some("model predicts 1; eq. 13"),
    measured_note: None,
    note: None,
};

/// Footnote-2 ablation: applying replica updates in parallel holds the
/// transaction duration flat, cutting the deadlock growth from cubic to
/// quadratic.
pub fn ablate_parallel(opts: &RunOpts) -> Table {
    let mut t = Table::new(
        "ABL-PAR",
        "footnote 2: serial vs parallel replica updates (deadlocks/s)",
        &["Nodes", "serial", "parallel", "serial/parallel"],
    );
    let base = presets::scaleup_base();
    let sweep = presets::node_sweep().to_vec();
    let reports = run_points(opts, sweep.clone(), |opts, &n| {
        let p = base.with_nodes(n);
        let predicted = eager::total_deadlock_rate(&p);
        // The parallel discipline deadlocks ~N-times less; size each
        // run's horizon for its own expected event count.
        let horizon_s = opts.adaptive_horizon(predicted, 40.0, 200, 20_000);
        let horizon_p = opts.adaptive_horizon(predicted / p.nodes.max(1.0), 40.0, 200, 20_000);
        let rs = run_eager(
            &p,
            horizon_s,
            opts,
            format!("ablate-parallel serial nodes={n}"),
            ReplicaDiscipline::Serial,
        );
        let rp = run_eager(
            &p,
            horizon_p,
            opts,
            format!("ablate-parallel parallel nodes={n}"),
            ReplicaDiscipline::Parallel,
        );
        (rs, rp)
    });
    let mut serial_pts = Vec::new();
    let mut par_pts = Vec::new();
    for (n, (rs, rp)) in sweep.into_iter().zip(reports) {
        opts.metrics
            .absorb(&format!("ablate-parallel/serial/nodes={n}"), &rs.dists);
        opts.metrics
            .absorb(&format!("ablate-parallel/parallel/nodes={n}"), &rp.dists);
        serial_pts.push(Point {
            x: n,
            y: rs.deadlock_rate,
        });
        par_pts.push(Point {
            x: n,
            y: rp.deadlock_rate,
        });
        t.row(vec![
            format!("{n}"),
            fmt_val(rs.deadlock_rate),
            fmt_val(rp.deadlock_rate),
            fmt_ratio(rs.deadlock_rate, rp.deadlock_rate),
        ]);
    }
    if let (Some(ks), Some(kp)) = (
        repl_model::fit_exponent(&serial_pts),
        repl_model::fit_exponent(&par_pts),
    ) {
        t.note(format!(
            "Nodes-exponents: serial {ks:.2} (model 3), parallel {kp:.2} (model 2)"
        ));
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::by_name;

    fn quick() -> RunOpts {
        RunOpts {
            quick: true,
            seed: 3,
            ..RunOpts::default()
        }
    }

    #[test]
    fn e05_full_sweep() {
        let t = (by_name("e5").unwrap().run)(&quick());
        assert_eq!(t.rows.len(), presets::node_sweep().len());
    }

    #[test]
    fn e07_scales_db_column() {
        let t = (by_name("e7").unwrap().run)(&quick());
        // DB_Size column grows with nodes.
        let first: u64 = t.rows[0][1].parse().unwrap();
        let last: u64 = t.rows.last().unwrap()[1].parse().unwrap();
        assert!(last > first);
    }
}
