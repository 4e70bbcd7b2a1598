//! `tails` — tail-latency distributions the steady-state equations
//! cannot see. Sweeps the E1 contention axis (`Actions`) under the
//! eager and lazy-group engines and reports lock-wait and replica-lag
//! percentiles from the mergeable log-linear histograms.
//!
//! The paper's closed forms predict *mean* rates; the tails are where
//! the replication dangers actually bite (a p99 wait under eager
//! locking grows much faster than the mean as transactions widen).

use crate::par::run_points;
use crate::table::{fmt_ms, fmt_val, Table};
use crate::{Instrument, RunOpts};
use repl_core::{
    EagerSim, LazyGroupSim, Mobility, Ownership, ReplicaDiscipline, SimConfig, M_LOCK_WAIT,
    M_PROPAGATION_LAG,
};

/// Distribution columns for one engine run: lock-wait percentiles plus
/// the lazy propagation-lag p95 (`—` where the scheme has no replica
/// stream).
pub fn tails(opts: &RunOpts) -> Table {
    let mut t = Table::new(
        "TAILS",
        "lock-wait and replica-lag tails: eager vs lazy-group, sweeping Actions",
        &[
            "scheme",
            "Actions",
            "commits/s",
            "wait p50 ms",
            "wait p95 ms",
            "wait p99 ms",
            "wait max ms",
            "lag p95 ms",
        ],
    );
    let base = repl_workload::presets::scaleup_base()
        .with_db_size(500.0)
        .with_nodes(4.0);
    let actions = [2.0, 4.0, 6.0];
    let mut cases: Vec<(&str, f64)> = Vec::new();
    for &a in &actions {
        cases.push(("eager", a));
    }
    for &a in &actions {
        cases.push(("lazy-group", a));
    }
    let horizon = opts.horizon(400);
    let reports = run_points(opts, cases.clone(), |opts, &(scheme, a)| {
        let p = base.with_actions(a);
        let cfg = SimConfig::from_params(&p, horizon, opts.seed).with_warmup(5);
        match scheme {
            "eager" => EagerSim::new(cfg, ReplicaDiscipline::Serial, Ownership::Group)
                .instrument(opts, format!("tails eager actions={a}"))
                .run(),
            _ => LazyGroupSim::new(cfg, Mobility::Connected)
                .instrument(opts, format!("tails lazy-group actions={a}"))
                .run(),
        }
    });
    for ((scheme, a), r) in cases.into_iter().zip(reports) {
        opts.metrics
            .absorb(&format!("tails/{scheme}/actions={a}"), &r.dists);
        let wait = r.dists.histogram(M_LOCK_WAIT);
        let pick = |q: f64| {
            wait.filter(|h| h.count() > 0)
                .map_or("—".to_owned(), |h| fmt_ms(h.quantile_secs(q)))
        };
        let wait_max = wait
            .filter(|h| h.count() > 0)
            .map_or("—".to_owned(), |h| fmt_ms(h.max_secs()));
        let lag = r
            .dists
            .histogram(M_PROPAGATION_LAG)
            .filter(|h| h.count() > 0)
            .map_or("—".to_owned(), |h| fmt_ms(h.quantile_secs(0.95)));
        t.row(vec![
            scheme.into(),
            format!("{a}"),
            fmt_val(r.commit_rate),
            pick(0.50),
            pick(0.95),
            pick(0.99),
            wait_max,
            lag,
        ]);
    }
    t.note("same load, same seed: eager pays its conflicts in waits, lazy-group in lag");
    t.note("percentiles come from the mergeable log-linear histograms (--metrics exports them)");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tails_reports_both_schemes() {
        let t = tails(&RunOpts {
            quick: true,
            seed: 23,
            ..RunOpts::default()
        });
        assert_eq!(t.rows.len(), 6);
        // Lazy-group rows carry a real propagation-lag percentile.
        let lazy_lag = &t.rows[3][7];
        assert_ne!(lazy_lag, "—", "lazy-group must report replica lag");
        // Eager has no replica stream.
        assert_eq!(t.rows[0][7], "—");
    }

    #[test]
    fn tails_absorbs_into_metrics_session() {
        let opts = RunOpts {
            quick: true,
            seed: 23,
            metrics: crate::MetricsSession::enabled(),
            ..RunOpts::default()
        };
        tails(&opts);
        let json = opts.metrics.to_json().expect("session on");
        assert!(json.contains("tails/eager/actions=2"));
        assert!(json.contains("commit_latency"));
    }
}
