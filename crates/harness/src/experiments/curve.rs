//! The model-vs-measured curve: the paper's claims are growth
//! exponents, and eleven experiments (E1, E2, E5–E10, E12b) each check
//! one by sweeping a parameter, running an engine at every point and
//! printing the measured rate beside the model's equation.
//!
//! Each of them is one [`Curve`] value; [`Curve::table`] is the only
//! place that runs such a sweep, absorbs its `--metrics`
//! distributions, builds the rows and fits the exponent.

use crate::par::run_points;
use crate::table::{fmt_ratio, fmt_val, Table};
use crate::RunOpts;
use repl_core::Report;
use repl_model::{fit_exponent, sweep, Axis, Params, Point};

/// The measured rate a curve compares with its model.
#[derive(Debug, Clone, Copy)]
pub enum Rate {
    /// Lock waits per second.
    Waits,
    /// Deadlocks per second.
    Deadlocks,
    /// Reconciliations per second.
    Reconciliations,
}

impl Rate {
    fn unit(self) -> &'static str {
        match self {
            Rate::Waits => "waits/s",
            Rate::Deadlocks => "deadlocks/s",
            Rate::Reconciliations => "recon/s",
        }
    }

    fn of(self, r: &Report) -> f64 {
        match self {
            Rate::Waits => r.wait_rate,
            Rate::Deadlocks => r.deadlock_rate,
            Rate::Reconciliations => r.reconciliation_rate,
        }
    }
}

/// How the tables spell a swept axis: the swept column's header, the
/// key in run and metrics labels, and the name in the fit note.
fn spelling(axis: Axis) -> (&'static str, &'static str, &'static str) {
    match axis {
        Axis::Nodes => ("Nodes", "nodes", "Nodes"),
        Axis::Actions => ("Actions", "actions", "Actions"),
        Axis::Tps => ("TPS", "tps", "TPS"),
        Axis::DbSize => ("DB_Size", "db", "DB_Size"),
        Axis::DisconnectedTime => ("Disc. secs", "disconnect", "Disconnect_Time"),
    }
}

/// An extra model column: its header and its cell at a point's
/// parameters.
pub type Column = (&'static str, fn(&Params) -> String);

/// One swept model-vs-measured experiment.
///
/// Its table has the columns `<axis>`, [`Curve::lead`], `<rate> model`,
/// `<rate> measured`, `meas/model`, [`Curve::trail`]. Runs are
/// labelled `"{name} {key}={x}"` and their distributions filed under
/// `"{name}/{key}={x}"`, where `key` spells the axis (`nodes`).
pub struct Curve {
    /// CLI name, which opens every run and metrics label (`e6b`). The
    /// table id is the name with a capital first letter (`E6b`).
    pub name: &'static str,
    /// Table title.
    pub title: &'static str,
    /// The swept parameter.
    pub axis: Axis,
    /// The sweep points, in row order.
    pub points: fn() -> Vec<f64>,
    /// The parameters every point starts from.
    pub base: fn() -> Params,
    /// The model equation for the rate at a point.
    pub model: fn(&Params) -> f64,
    /// The measured rate.
    pub rate: Rate,
    /// Run one point: the engine at these parameters, given the model
    /// rate there (horizons are sized from it) and the run label.
    pub run: fn(&RunOpts, &Params, f64, String) -> Report,
    /// A model column printed right after the swept one.
    pub lead: Option<Column>,
    /// A model column printed last.
    pub trail: Option<Column>,
    /// The model's claim for the fitted exponent, printed as
    /// `measured <axis>-exponent {k} ({claim})`. `None` fits nothing.
    pub fit: Option<&'static str>,
    /// A note drawn from the measured points, after the fit.
    pub measured_note: Option<fn(&[Point]) -> String>,
    /// A fixed note, printed last.
    pub note: Option<&'static str>,
}

impl Curve {
    /// Run the sweep and build the table.
    pub fn table(&self, opts: &RunOpts) -> Table {
        let base = (self.base)();
        let xs = (self.points)();
        let (x_col, key, exponent) = spelling(self.axis);
        let unit = self.rate.unit();
        let (model_col, measured_col) = (format!("{unit} model"), format!("{unit} measured"));
        let mut headers = vec![x_col];
        headers.extend(self.lead.map(|(h, _)| h));
        headers.extend([model_col.as_str(), measured_col.as_str(), "meas/model"]);
        headers.extend(self.trail.map(|(h, _)| h));
        let id = format!("{}{}", self.name[..1].to_uppercase(), &self.name[1..]);
        let mut t = Table::new(&id, self.title, &headers);
        let reports = run_points(opts, xs.clone(), |opts, &x| {
            let p = self.axis.apply(&base, x);
            let label = format!("{} {key}={x}", self.name);
            (self.run)(opts, &p, (self.model)(&p), label)
        });
        let mut points = Vec::with_capacity(xs.len());
        for (predicted, r) in sweep(&base, self.axis, &xs, self.model)
            .into_iter()
            .zip(reports)
        {
            let (x, model) = (predicted.x, predicted.y);
            opts.metrics
                .absorb(&format!("{}/{key}={x}", self.name), &r.dists);
            let p = self.axis.apply(&base, x);
            let y = self.rate.of(&r);
            points.push(Point { x, y });
            let mut row = vec![format!("{x}")];
            row.extend(self.lead.map(|(_, cell)| cell(&p)));
            row.extend([fmt_val(model), fmt_val(y), fmt_ratio(y, model)]);
            row.extend(self.trail.map(|(_, cell)| cell(&p)));
            t.row(row);
        }
        if let Some(claim) = self.fit {
            if let Some(k) = fit_exponent(&points) {
                t.note(format!("measured {exponent}-exponent {k:.2} ({claim})"));
            }
        }
        if let Some(note) = self.measured_note {
            t.note(note(&points));
        }
        if let Some(note) = self.note {
            t.note(note);
        }
        t
    }
}
