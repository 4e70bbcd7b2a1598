//! The experiment registry — every table/figure regenerator behind one
//! name-indexed entry point.

pub mod chaos;
pub mod check;
pub mod convergent;
pub mod curve;
pub mod delusion;
pub mod eager;
pub mod failover;
pub mod hotspot;
pub mod lazy;
pub mod quorum;
pub mod scaleout;
pub mod schemes;
pub mod single;
pub mod tails;
pub mod two_tier;

use crate::table::Table;
use crate::RunOpts;

/// One registered experiment.
pub struct Experiment {
    /// CLI name (`e1`, `e12b`, `ablate-latency`, …).
    pub name: &'static str,
    /// One-line description for `harness list`.
    pub about: &'static str,
    /// The runner.
    pub run: fn(&RunOpts) -> Table,
}

/// The registry entry of a [`curve::Curve`]: its runner builds the
/// curve's table.
macro_rules! curve {
    ($curve:path, $about:literal) => {
        Experiment {
            name: $curve.name,
            about: $about,
            run: |o| $curve.table(o),
        }
    };
}

/// Every experiment, in presentation order.
pub const ALL: &[Experiment] = &[
    curve!(single::E1, "single-node wait rate vs eq. (2)/(10)"),
    curve!(single::E2, "single-node deadlock rate vs eqs. (3)-(5)"),
    Experiment {
        name: "e3",
        about: "Figure 1: work per user transaction",
        run: schemes::e03,
    },
    Experiment {
        name: "e4",
        about: "Figure 3: scaleup vs partitioning vs replication",
        run: schemes::e04,
    },
    curve!(eager::E5, "eager wait rate vs Nodes (eq. 10)"),
    curve!(eager::E6, "eager deadlock rate vs Nodes (eq. 12)"),
    curve!(eager::E6B, "eager deadlock rate vs Actions (Actions^5)"),
    curve!(eager::E7, "scaled-DB eager deadlocks (eq. 13)"),
    curve!(lazy::E8, "lazy-group reconciliation vs Nodes (eq. 14)"),
    curve!(
        lazy::E9,
        "mobile reconciliation vs Disconnect_Time (eqs. 15-18)"
    ),
    curve!(lazy::E9B, "mobile reconciliation vs Nodes (eq. 18)"),
    curve!(lazy::E10, "lazy-master deadlocks vs Nodes (eq. 19)"),
    Experiment {
        name: "e11",
        about: "Table 1 measured: all five schemes",
        run: schemes::e11,
    },
    Experiment {
        name: "e12",
        about: "two-tier acceptance failures by workload (§7)",
        run: two_tier::e12,
    },
    curve!(two_tier::E12B, "two-tier base deadlocks vs Nodes (eq. 19)"),
    Experiment {
        name: "e13",
        about: "§6 convergence schemes and lost updates",
        run: convergent::e13,
    },
    Experiment {
        name: "e14",
        about: "Table 2 parameter glossary",
        run: convergent::e14,
    },
    Experiment {
        name: "ablate-parallel",
        about: "footnote 2: serial vs parallel replica updates",
        run: eager::ablate_parallel,
    },
    Experiment {
        name: "ablate-latency",
        about: "message delay vs lazy-group reconciliation",
        run: lazy::ablate_latency,
    },
    Experiment {
        name: "tails",
        about: "lock-wait and replica-lag percentile tails: eager vs lazy-group",
        run: tails::tails,
    },
    Experiment {
        name: "hotspot",
        about: "Zipf hotspots vs the uniform-access model",
        run: hotspot::hotspot,
    },
    Experiment {
        name: "ablate-delusion",
        about: "manual reconciliation => replica divergence (system delusion)",
        run: delusion::ablate_delusion,
    },
    Experiment {
        name: "ablate-quorum",
        about: "write availability: write-all vs majority quorum (§3)",
        run: quorum::ablate_quorum,
    },
    Experiment {
        name: "chaos",
        about: "fault injection: partitions, crashes, message chaos under both deadlock policies",
        run: chaos::chaos,
    },
    Experiment {
        name: "failover",
        about: "replicated base tier: crash rate vs election/unavailability percentiles",
        run: failover::failover,
    },
    Experiment {
        name: "scaleout",
        about: "sharded keyspace: lazy-group 8..256 nodes, rf=3 vs full replication",
        run: scaleout::scaleout,
    },
    Experiment {
        name: "check",
        about: "correctness oracles: replay the seed corpus, then fuzz all five engines",
        run: check::check,
    },
    Experiment {
        name: "check-selftest",
        about: "oracle self-test: hand-broken artifacts must be flagged",
        run: check::check_selftest,
    },
];

/// Find an experiment by CLI name.
pub fn by_name(name: &str) -> Option<&'static Experiment> {
    ALL.iter().find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique() {
        let mut names: Vec<&str> = ALL.iter().map(|e| e.name).collect();
        names.sort_unstable();
        let len = names.len();
        names.dedup();
        assert_eq!(names.len(), len);
    }

    #[test]
    fn lookup_works() {
        assert!(by_name("e12").is_some());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn registry_covers_all_paper_artifacts() {
        // Equations 2-19, Table 1, Table 2, Figures 1 and 3 must all
        // have a regenerator.
        for required in [
            "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14",
        ] {
            assert!(by_name(required).is_some(), "missing {required}");
        }
    }
}
