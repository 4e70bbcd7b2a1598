//! System-delusion ablation — §1/§2: "Each reconciliation failure
//! implies differences among nodes. Soon, the system suffers system
//! delusion — the database is inconsistent and there is no obvious way
//! to repair it."
//!
//! Runs the same lazy-group workload twice: once with automatic
//! time-priority resolution (replicas converge, some updates are lost)
//! and once with manual reconciliation (conflicts are dropped for a
//! person to handle — replicas drift apart, and they drift *faster* the
//! longer the run).

use crate::par::run_points;
use crate::table::Table;
use crate::{Instrument, RunOpts};
use repl_core::{LazyGroupSim, Mobility, ResolutionMode, SimConfig};
use repl_model::Params;
use repl_storage::ObjectStore;

/// Count objects whose value differs between any pair of replicas.
fn divergent_objects(stores: &[ObjectStore]) -> usize {
    if stores.is_empty() {
        return 0;
    }
    let n = stores[0].len();
    (0..n as u64)
        .filter(|&i| {
            let id = repl_storage::ObjectId(i);
            let first = &stores[0].get(id).value;
            stores[1..].iter().any(|s| &s.get(id).value != first)
        })
        .count()
}

/// The ablation: convergent vs delusional lazy-group over growing run
/// lengths.
pub fn ablate_delusion(opts: &RunOpts) -> Table {
    let mut t = Table::new(
        "ABL-DEL",
        "system delusion: manual reconciliation leaves replicas divergent",
        &[
            "run secs",
            "reconciliations",
            "divergent objs (time-priority)",
            "divergent objs (manual)",
        ],
    );
    let p = Params::new(300.0, 4.0, 10.0, 4.0, 0.01);
    let sweep = vec![50u64, 100, 200];
    let results = run_points(opts, sweep, |opts, &secs| {
        let horizon = opts.horizon(secs).max(20);
        let cfg = SimConfig::from_params(&p, horizon, opts.seed).with_warmup(2);
        let (auto_report, auto_stores) = LazyGroupSim::new(cfg, Mobility::Connected)
            .instrument(opts, format!("ablate-delusion auto secs={secs}"))
            .run_with_state();
        let (_, manual_stores) = LazyGroupSim::new(cfg, Mobility::Connected)
            .with_resolution(ResolutionMode::Manual)
            .instrument(opts, format!("ablate-delusion manual secs={secs}"))
            .run_with_state();
        (
            horizon,
            auto_report.reconciliations,
            divergent_objects(&auto_stores),
            divergent_objects(&manual_stores),
        )
    });
    for (horizon, reconciliations, auto_div, manual_div) in results {
        t.row(vec![
            format!("{horizon}"),
            reconciliations.to_string(),
            auto_div.to_string(),
            manual_div.to_string(),
        ]);
    }
    t.note("time-priority: zero divergence after drain (convergence property)");
    t.note("manual: divergence accumulates with run length — system delusion (§2)");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_mode_diverges_auto_mode_converges() {
        let t = ablate_delusion(&RunOpts {
            quick: true,
            seed: 23,
            ..RunOpts::default()
        });
        for row in &t.rows {
            let auto: usize = row[2].parse().unwrap();
            assert_eq!(auto, 0, "time-priority must converge: {row:?}");
        }
        let manual_last: usize = t.rows.last().unwrap()[3].parse().unwrap();
        assert!(
            manual_last > 0,
            "manual reconciliation must leave divergence: {t:?}"
        );
    }
}
