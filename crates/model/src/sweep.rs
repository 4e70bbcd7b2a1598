//! Parameter sweeps: evaluate any model quantity over a range of one
//! parameter, producing `(x, y)` series the harness prints.

use crate::Params;
use serde::{Deserialize, Serialize};

/// Which model parameter a sweep varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Axis {
    /// Vary `Nodes`.
    Nodes,
    /// Vary `Actions` (transaction size).
    Actions,
    /// Vary per-node `TPS`.
    Tps,
    /// Vary `DB_Size`.
    DbSize,
    /// Vary `Disconnected_Time`.
    DisconnectedTime,
}

impl Axis {
    /// Return a copy of `base` with this axis set to `value`.
    pub fn apply(self, base: &Params, value: f64) -> Params {
        let mut p = *base;
        match self {
            Axis::Nodes => p.nodes = value,
            Axis::Actions => p.actions = value,
            Axis::Tps => p.tps = value,
            Axis::DbSize => p.db_size = value,
            Axis::DisconnectedTime => p.disconnected_time = value,
        }
        p
    }

    /// Human-readable name matching the paper's Table 2.
    pub fn name(self) -> &'static str {
        match self {
            Axis::Nodes => "Nodes",
            Axis::Actions => "Actions",
            Axis::Tps => "TPS",
            Axis::DbSize => "DB_Size",
            Axis::DisconnectedTime => "Disconnected_Time",
        }
    }
}

/// One `(x, prediction)` point of a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Point {
    /// Value of the swept axis.
    pub x: f64,
    /// Model prediction at that value.
    pub y: f64,
}

/// Evaluate `f` at each axis value, returning the predicted series.
pub fn sweep(base: &Params, axis: Axis, values: &[f64], f: impl Fn(&Params) -> f64) -> Vec<Point> {
    values
        .iter()
        .map(|&x| Point {
            x,
            y: f(&axis.apply(base, x)),
        })
        .collect()
}

/// Fit the growth exponent `k` of `y ≈ c·xᵏ` to a series via least-squares
/// regression in log-log space. Points with non-positive `x` or `y` are
/// skipped (they have no logarithm). Returns `None` if fewer than two
/// usable points remain or the x-values are all identical.
pub fn fit_exponent(points: &[Point]) -> Option<f64> {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .filter(|p| p.x > 0.0 && p.y > 0.0)
        .map(|p| (p.x.ln(), p.y.ln()))
        .collect();
    if logs.len() < 2 {
        return None;
    }
    let n = logs.len() as f64;
    let sx: f64 = logs.iter().map(|(x, _)| x).sum();
    let sy: f64 = logs.iter().map(|(_, y)| y).sum();
    let sxx: f64 = logs.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = logs.iter().map(|(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    Some((n * sxy - sx * sy) / denom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{eager, lazy};

    #[test]
    fn axis_apply_sets_value() {
        let base = Params::default();
        assert_eq!(Axis::Nodes.apply(&base, 9.0).nodes, 9.0);
        assert_eq!(Axis::Actions.apply(&base, 9.0).actions, 9.0);
        assert_eq!(Axis::Tps.apply(&base, 9.0).tps, 9.0);
        assert_eq!(Axis::DbSize.apply(&base, 9.0).db_size, 9.0);
        assert_eq!(
            Axis::DisconnectedTime.apply(&base, 9.0).disconnected_time,
            9.0
        );
    }

    #[test]
    fn sweep_produces_one_point_per_value() {
        let base = Params::default();
        let pts = sweep(&base, Axis::Nodes, &[1.0, 2.0, 4.0], |p| p.nodes * 10.0);
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[2].y, 40.0);
    }

    #[test]
    fn exponent_of_eager_deadlock_rate_is_three() {
        let base = Params::default();
        let values: Vec<f64> = (1..=10).map(|n| n as f64).collect();
        let pts = sweep(&base, Axis::Nodes, &values, eager::total_deadlock_rate);
        let k = fit_exponent(&pts).unwrap();
        assert!((k - 3.0).abs() < 1e-9, "got exponent {k}");
    }

    #[test]
    fn exponent_of_lazy_master_deadlock_rate_is_two() {
        let base = Params::default();
        let values: Vec<f64> = (1..=10).map(|n| n as f64).collect();
        let pts = sweep(&base, Axis::Nodes, &values, lazy::master_deadlock_rate);
        let k = fit_exponent(&pts).unwrap();
        assert!((k - 2.0).abs() < 1e-9, "got exponent {k}");
    }

    #[test]
    fn exponent_of_actions_in_deadlock_rate_is_five() {
        let base = Params::default();
        let values: Vec<f64> = (1..=10).map(|n| n as f64).collect();
        let pts = sweep(&base, Axis::Actions, &values, eager::total_deadlock_rate);
        let k = fit_exponent(&pts).unwrap();
        assert!((k - 5.0).abs() < 1e-9);
    }

    #[test]
    fn fit_rejects_degenerate_series() {
        assert!(fit_exponent(&[]).is_none());
        assert!(fit_exponent(&[Point { x: 1.0, y: 1.0 }]).is_none());
        let same_x = [Point { x: 2.0, y: 1.0 }, Point { x: 2.0, y: 5.0 }];
        assert!(fit_exponent(&same_x).is_none());
    }

    #[test]
    fn fit_skips_nonpositive_points() {
        let pts = [
            Point { x: 0.0, y: 1.0 },
            Point { x: 1.0, y: 0.0 },
            Point { x: 2.0, y: 4.0 },
            Point { x: 4.0, y: 16.0 },
        ];
        let k = fit_exponent(&pts).unwrap();
        assert!((k - 2.0).abs() < 1e-9);
    }
}
