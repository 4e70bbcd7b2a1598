//! E12 — the two-tier scheme (§7, Figures 5 and 6).

use super::curve::{Curve, Rate};
use crate::par::run_points;
use crate::table::{fmt_val, Table};
use crate::{Instrument, RunOpts};
use repl_core::{SimConfig, TwoTierConfig, TwoTierSim, TwoTierWorkload};
use repl_model::{lazy, Axis, Params};
use repl_sim::SimDuration;

fn config(
    p: &Params,
    base_nodes: u32,
    workload: TwoTierWorkload,
    initial_value: i64,
    horizon: u64,
    opts: &RunOpts,
) -> TwoTierConfig {
    TwoTierConfig {
        sim: SimConfig::from_params(p, horizon, opts.seed).with_warmup(5),
        base_nodes,
        mobile_owned: 0,
        connected: SimDuration::from_secs(10),
        disconnected: SimDuration::from_secs(20),
        workload,
        initial_value,
    }
}

/// E12: the §7 claims, measured.
///
/// 1. Commutative transactions + ample balances ⇒ **zero**
///    reconciliations (key property 5).
/// 2. Non-commutative blind writes with exact-match acceptance ⇒
///    substantial rejection rates (why transaction design matters).
/// 3. Scarce balances + non-negative criterion ⇒ some rejections, but
///    the master state keeps its invariant — no system delusion.
/// 4. Base transactions deadlock at the lazy-master rate (eq. 19).
/// 5. All replicas converge to the base state.
pub fn e12(opts: &RunOpts) -> Table {
    let mut t = Table::new(
        "E12",
        "two-tier replication: acceptance failures by transaction design (§7)",
        &[
            "workload",
            "tentative txns",
            "accepted",
            "rejected",
            "reject %",
            "base deadlocks/s (meas)",
            "eq.19 model",
            "converged",
        ],
    );
    let p = Params::new(500.0, 6.0, 10.0, 4.0, 0.01);
    let horizon = opts.horizon(400);

    let cases: Vec<(&str, TwoTierWorkload, i64)> = vec![
        (
            "commutative, ample funds",
            TwoTierWorkload::Commutative { max_amount: 10 },
            1_000_000,
        ),
        (
            "commutative, scarce funds",
            TwoTierWorkload::Commutative { max_amount: 500 },
            200,
        ),
        (
            "transforms, exact match",
            TwoTierWorkload::ExactMatch { max_amount: 20 },
            1_000,
        ),
    ];
    let results = run_points(opts, cases, |opts, &(label, workload, funds)| {
        let cfg = config(&p, 2, workload, funds, horizon, opts);
        let (r, master, replicas) = TwoTierSim::new(cfg)
            .instrument(opts, format!("e12 {label}"))
            .run_with_state();
        let converged = {
            let want = master.digest();
            replicas.iter().all(|s| s.digest() == want)
        };
        (label, r, converged)
    });
    for (label, r, converged) in results {
        opts.metrics.absorb(&format!("e12/{label}"), &r.dists);
        let total = r.tentative_accepted + r.tentative_rejected;
        let reject_pct = if total > 0 {
            100.0 * r.tentative_rejected as f64 / total as f64
        } else {
            0.0
        };
        t.row(vec![
            label.into(),
            r.tentative_commits.to_string(),
            r.tentative_accepted.to_string(),
            r.tentative_rejected.to_string(),
            format!("{reject_pct:.1}%"),
            fmt_val(r.deadlock_rate),
            fmt_val(lazy::two_tier_base_deadlock_rate(&p)),
            if converged { "yes" } else { "NO" }.into(),
        ]);
    }
    t.note("commutative + ample funds: zero rejections — §7 property 5");
    t.note("master state is always serializable; replicas converge to it — no system delusion");
    t
}

/// E12b: two-tier base deadlock rate vs `Nodes` — must track the
/// lazy-master curve (equation 19), since base transactions execute
/// under the lazy-master discipline.
pub const E12B: Curve = Curve {
    name: "e12b",
    title: "two-tier base deadlock rate vs Nodes (follows eq. 19)",
    axis: Axis::Nodes,
    points: || vec![2.0, 3.0, 4.0, 6.0, 8.0],
    base: || Params::new(600.0, 2.0, 15.0, 4.0, 0.01),
    model: lazy::two_tier_base_deadlock_rate,
    rate: Rate::Deadlocks,
    run: |opts, p, rate, label| {
        let horizon = opts.adaptive_horizon(rate, 40.0, 200, 5_000);
        let cfg = config(
            p,
            (p.nodes as u32 / 2).max(1),
            TwoTierWorkload::Commutative { max_amount: 10 },
            1_000_000,
            horizon,
            opts,
        );
        TwoTierSim::new(cfg).instrument(opts, label).run()
    },
    lead: None,
    trail: None,
    fit: Some("model predicts 2; eq. 19"),
    measured_note: None,
    note: None,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e12_reports_three_workloads() {
        let t = e12(&RunOpts {
            quick: true,
            seed: 13,
            ..RunOpts::default()
        });
        assert_eq!(t.rows.len(), 3);
        // All rows converged.
        assert!(t.rows.iter().all(|r| r[7] == "yes"), "{t:?}");
        // Commutative/ample row has zero rejects.
        assert_eq!(t.rows[0][3], "0");
    }
}
