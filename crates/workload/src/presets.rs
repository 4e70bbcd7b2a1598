//! Named parameter presets shared by the harness experiments — one
//! source of truth for every experiment's configuration.
//!
//! The presets are scaled so the discrete-event runs finish in seconds
//! of wall-clock time while staying inside the model's validity regime
//! (`PW ≪ 1`, `DB_Size ≫ Nodes`) except where an experiment
//! deliberately leaves it.

use repl_model::Params;

/// The baseline single-node configuration used by experiments E1/E2:
/// moderate contention so waits are measurable but `PW ≪ 1` holds.
pub fn single_node_base() -> Params {
    Params::new(2_000.0, 1.0, 50.0, 4.0, 0.01)
}

/// The replication scaleup baseline for E5/E6/E8/E10: per-node load
/// stays fixed while `Nodes` sweeps.
pub fn scaleup_base() -> Params {
    Params::new(2_000.0, 1.0, 20.0, 4.0, 0.01)
}

/// The node counts every scaleup experiment sweeps over.
pub fn node_sweep() -> Vec<f64> {
    vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0]
}

/// Transaction sizes for the `Actions⁵` sensitivity sweep (E6b).
pub fn action_sweep() -> Vec<f64> {
    vec![2.0, 3.0, 4.0, 5.0, 6.0, 8.0]
}

/// Disconnect windows (seconds) for the mobile experiment E9.
pub fn disconnect_sweep() -> Vec<f64> {
    vec![5.0, 10.0, 20.0, 40.0, 80.0]
}

/// The mobile lazy-group baseline for E9.
pub fn mobile_base() -> Params {
    Params::new(2_000.0, 4.0, 5.0, 4.0, 0.01).with_disconnected_time(20.0)
}

/// Default simulated horizon (seconds) for rate measurements.
pub const HORIZON_SECS: u64 = 200;

/// Default warm-up (seconds) excluded from measurement windows.
pub const WARMUP_SECS: u64 = 20;

/// Default root seed for all experiments (override per-run for
/// confidence intervals).
pub const SEED: u64 = 0x5EED_1996;

#[cfg(test)]
mod tests {
    use super::*;
    use repl_model::single;

    #[test]
    fn presets_validate() {
        single_node_base().validate().unwrap();
        scaleup_base().validate().unwrap();
        mobile_base().validate().unwrap();
    }

    #[test]
    fn baseline_is_in_model_regime() {
        // PW must be well below 1 for the closed forms to hold.
        let pw = single::wait_probability(&single_node_base());
        assert!(pw < 0.1, "PW {pw} too high for model validity");
        assert!(pw > 1e-4, "PW {pw} too low to measure in finite runs");
    }

    #[test]
    fn sweeps_are_sorted_and_nonempty() {
        for sweep in [node_sweep(), action_sweep(), disconnect_sweep()] {
            assert!(!sweep.is_empty());
            assert!(sweep.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn scaleup_stays_tractable_at_max_nodes() {
        // At the largest node count the eager transaction population
        // must stay far below DB_Size (no thrashing).
        let p = scaleup_base().with_nodes(10.0);
        let pop =
            repl_model::eager::total_transactions(&p, repl_model::eager::ParallelismModel::Serial);
        assert!(pop < p.db_size / 10.0);
    }
}
