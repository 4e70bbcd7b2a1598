//! E1 and E2 — the single-node baseline: measured wait and deadlock
//! rates against equations (2)–(5).

use super::curve::{Curve, Rate};
use crate::table::fmt_val;
use crate::{Instrument, RunOpts};
use repl_core::{ContentionProfile, ContentionSim, Report, SimConfig};
use repl_model::{single, Axis, Params};

fn run_single_node(opts: &RunOpts, p: &Params, horizon: u64, label: String) -> Report {
    let cfg = SimConfig::from_params(p, horizon, opts.seed).with_warmup(5);
    ContentionSim::new(cfg, ContentionProfile::single_node(&cfg))
        .instrument(opts, label)
        .run()
}

/// E1: single-node wait rate vs the closed form, sweeping the
/// transaction size (`Actions`). The model's wait rate is equation (2)
/// divided by the transaction duration, times the concurrent
/// population — the `Nodes = 1` case of equation (10).
pub const E1: Curve = Curve {
    name: "e1",
    title: "single-node wait rate vs model (eq. 2/10)",
    axis: Axis::Actions,
    points: || vec![2.0, 3.0, 4.0, 5.0, 6.0, 8.0],
    base: repl_workload::presets::single_node_base,
    model: single::node_wait_rate,
    rate: Rate::Waits,
    run: |opts, p, rate, label| {
        let horizon = opts.adaptive_horizon(rate, 200.0, 200, 5_000);
        run_single_node(opts, p, horizon, label)
    },
    lead: Some(("PW (model)", |p| fmt_val(single::wait_probability(p)))),
    trail: None,
    fit: None,
    measured_note: None,
    note: Some("model regime: PW << 1; measured/model ratios near 1 validate eq. (2)"),
};

/// E2: single-node deadlock rate vs equation (5), sweeping `Actions` —
/// the fifth-power sensitivity.
pub const E2: Curve = Curve {
    name: "e2",
    title: "single-node deadlock rate vs model (eqs. 3-5), Actions^5 growth",
    axis: Axis::Actions,
    points: || vec![3.0, 4.0, 5.0, 6.0, 7.0],
    // Higher contention than E1 so deadlocks are observable in finite
    // runs while PW stays << 1.
    base: || Params::new(500.0, 1.0, 100.0, 4.0, 0.01),
    model: single::node_deadlock_rate,
    rate: Rate::Deadlocks,
    run: |opts, p, rate, label| {
        let horizon = opts.adaptive_horizon(rate, 40.0, 200, 20_000);
        run_single_node(opts, p, horizon, label)
    },
    lead: None,
    trail: None,
    fit: Some("model predicts 5; eq. 5"),
    measured_note: None,
    note: None,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::by_name;

    fn quick() -> RunOpts {
        RunOpts {
            quick: true,
            seed: 7,
            ..RunOpts::default()
        }
    }

    #[test]
    fn e01_produces_full_table() {
        let t = (by_name("e1").unwrap().run)(&quick());
        assert_eq!(t.rows.len(), 6);
        assert!(!t.notes.is_empty());
    }

    #[test]
    fn e02_produces_full_table() {
        let t = (by_name("e2").unwrap().run)(&quick());
        assert_eq!(t.rows.len(), 5);
    }
}
