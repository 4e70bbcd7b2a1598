//! # repl-harness — regenerates every table and figure of the paper
//!
//! Each experiment runs the relevant protocol engine(s) across a
//! parameter sweep, prints the model prediction next to the measured
//! rate, and fits the growth exponent the paper claims. The eleven
//! model-vs-measured curves (E1, E2, E5–E10, E12b) are each one
//! [`experiments::curve::Curve`]:
//!
//! | Experiment | Paper artifact | Claim checked |
//! |------------|----------------|---------------|
//! | `e1` | eq. (2)/(10) | single-node wait rate matches the closed form |
//! | `e2` | eqs. (3)–(5) | single-node deadlock rate ∝ Actions⁵ |
//! | `e3` | Figure 1 / Table 1 | transactions & messages per user update |
//! | `e4` | Figure 3 | replication doubles work twice (4× at 2 nodes) |
//! | `e5` | eqs. (7)–(10) | eager wait rate ∝ Nodes³ |
//! | `e6`, `e6b` | eqs. (11)–(12) | eager deadlocks ∝ Nodes³ / Actions⁵; 10× nodes ⇒ 1000× |
//! | `e7` | eq. (13) | scaled database ⇒ linear deadlock growth |
//! | `e8` | eq. (14) | lazy-group reconciliation growth |
//! | `e9`, `e9b` | eqs. (15)–(18) | mobile reconciliation vs disconnect window and Nodes |
//! | `e10` | eq. (19) | lazy-master deadlocks ∝ Nodes², beats eager |
//! | `e11` | Table 1 | all five schemes side by side |
//! | `e12`, `e12b` | §7, Figs. 5–6 | two-tier: commutative ⇒ zero reconciliation |
//! | `e13` | §6 | convergence & lost updates (Notes / Access) |
//! | `e14` | Table 2 | the parameter glossary |
//! | `ablate-parallel` | footnote 2 | parallel replica updates ⇒ quadratic |
//! | `ablate-latency` | §3/§4 remark | message delay worsens lazy-group rates |
//! | `hotspot` | model assumption | Zipf hotspots break the uniform model |

#![warn(missing_docs)]

pub mod experiments;
pub mod par;
pub mod table;

pub use table::{fmt_ms, fmt_ratio, fmt_val, Table};

use repl_core::engine::kernel::{Protocol, Sim};
use std::cell::RefCell;
use std::rc::Rc;

/// Shared collector for `--check` mode. While enabled, every
/// [`Instrument::instrument`] call hands the engine a fresh, labelled
/// [`repl_check::Recorder`]; after an experiment finishes the driver
/// [`CheckSession::drain`]s the `(label, report)` pairs. Clones share
/// state (the harness is single-threaded on the check path — an
/// enabled session forces [`par::run_points`] serial).
#[derive(Debug, Clone, Default)]
pub struct CheckSession {
    inner: Option<Rc<RefCell<Registered>>>,
}

/// The recorders handed out so far, each under its experiment label.
type Registered = Vec<(String, repl_check::Recorder)>;

impl CheckSession {
    /// An enabled session that will hand out live recorders.
    pub fn enabled() -> Self {
        CheckSession {
            inner: Some(Rc::new(RefCell::new(Vec::new()))),
        }
    }

    /// Whether checking is on.
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// A fresh recorder for one engine run under `scheme`, registered
    /// under `label`. Returns the inert recorder when the session is
    /// off.
    pub fn recorder(&self, scheme: repl_check::Scheme, label: &str) -> repl_check::Recorder {
        let Some(inner) = &self.inner else {
            return repl_check::Recorder::off();
        };
        let rec = repl_check::Recorder::new(scheme);
        inner.borrow_mut().push((label.to_owned(), rec.clone()));
        rec
    }

    /// Run every registered recorder's oracles and drain the reports.
    pub fn drain(&self) -> Vec<(String, repl_check::CheckReport)> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        inner
            .borrow_mut()
            .drain(..)
            .map(|(label, rec)| (label, rec.check()))
            .collect()
    }
}

/// Shared collector for `--metrics` mode. While enabled, experiments
/// [`MetricsSession::absorb`] each point's [`Report::dists`] under a
/// `experiment/label` key after the (possibly parallel) sweep returns —
/// absorption happens on the main thread in point order, so the final
/// registry is byte-identical at any `--jobs` count. Clones share state.
///
/// [`Report::dists`]: repl_core::Report
#[derive(Debug, Clone, Default)]
pub struct MetricsSession {
    inner: Option<Rc<RefCell<repl_telemetry::MetricsRegistry>>>,
}

impl MetricsSession {
    /// An enabled session that will accumulate distributions.
    pub fn enabled() -> Self {
        MetricsSession {
            inner: Some(Rc::new(
                RefCell::new(repl_telemetry::MetricsRegistry::new()),
            )),
        }
    }

    /// Whether collection is on.
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// Fold one run's distributions into the registry under `label`.
    /// A no-op when the session is off or the metrics are empty.
    pub fn absorb(&self, label: &str, metrics: &repl_telemetry::RunMetrics) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().absorb(label, metrics);
        }
    }

    /// The accumulated registry serialized to JSON (`None` when off).
    pub fn to_json(&self) -> Option<String> {
        self.inner.as_ref().map(|inner| inner.borrow().to_json())
    }
}

/// Global run options.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Shrink horizons ~10× (CI / smoke mode). Exponent fits get
    /// noisier but stay directionally right.
    pub quick: bool,
    /// Root seed.
    pub seed: u64,
    /// Tracer every engine run attaches to (`--trace` / `--series`);
    /// off by default, so untraced runs keep the pre-telemetry path.
    pub tracer: repl_telemetry::TraceHandle,
    /// Wall-clock phase profiler (`--profile`); off by default.
    pub profiler: repl_telemetry::Profiler,
    /// Fault plan override (`--faults SPEC`); when set, the chaos and
    /// failover experiments inject exactly this plan instead of their
    /// built-in ones. Other experiments ignore it (their claims assume
    /// a clean fabric).
    pub faults: Option<repl_net::FaultPlan>,
    /// Sweep fan-out: how many worker threads [`par::run_points`] may
    /// use. The library default is 1 (serial — unit tests and embedders
    /// get the untouched in-order path); the `harness` binary defaults
    /// it to [`par::default_jobs`] and exposes `--jobs N`. Results are
    /// bit-identical at any value.
    pub jobs: usize,
    /// Correctness-oracle session (`--check`); off by default. When on,
    /// every instrumented engine run records its execution and sweeps
    /// run serially (recorders are `Rc`-based, like tracers).
    pub check: CheckSession,
    /// Mergeable-metrics session (`--metrics FILE`); off by default.
    /// Unlike tracers and check recorders, metrics ride each worker's
    /// `Report` back to the main thread, so an enabled session does
    /// *not* force a serial sweep.
    pub metrics: MetricsSession,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            quick: false,
            seed: repl_workload::presets::SEED,
            tracer: repl_telemetry::TraceHandle::off(),
            profiler: repl_telemetry::Profiler::off(),
            faults: None,
            jobs: 1,
            check: CheckSession::default(),
            metrics: MetricsSession::default(),
        }
    }
}

/// Simulation engines that accept telemetry instrumentation.
///
/// Implemented for every engine (they are all one [`Sim`]), so a runner
/// can attach the CLI-selected tracer, profiler, and a per-run label
/// in one call: `EagerSim::new(..).instrument(opts, "e6 nodes=4")`.
pub trait Instrument: Sized {
    /// Attach `opts`'s tracer and profiler, labelling this run `label`
    /// (the label opens each run's series in `--series` output).
    #[must_use]
    fn instrument(self, opts: &RunOpts, label: impl Into<String>) -> Self;
}

impl<P: Protocol> Instrument for Sim<P> {
    fn instrument(self, opts: &RunOpts, label: impl Into<String>) -> Self {
        let label = label.into();
        let sim = self
            .with_tracer(opts.tracer.clone())
            .with_profiler(opts.profiler.clone());
        let sim = if opts.check.is_on() {
            sim.with_recorder(opts.check.recorder(P::SCHEME, &label))
        } else {
            sim
        };
        sim.with_run_label(label)
    }
}

impl RunOpts {
    /// Pick a horizon long enough to expect `target_events` at the
    /// model-predicted `rate`, clamped to `[min_secs, max_secs]`
    /// (both divided by 10 in quick mode).
    pub fn adaptive_horizon(
        &self,
        rate: f64,
        target_events: f64,
        min_secs: u64,
        max_secs: u64,
    ) -> u64 {
        let (min_secs, max_secs) = if self.quick {
            ((min_secs / 10).max(20), (max_secs / 10).max(20))
        } else {
            (min_secs, max_secs)
        };
        if rate <= 0.0 {
            return max_secs;
        }
        let want = (target_events / rate).ceil() as u64;
        want.clamp(min_secs, max_secs)
    }

    /// Fixed horizon, divided by 10 in quick mode (min 20 s).
    pub fn horizon(&self, secs: u64) -> u64 {
        if self.quick {
            (secs / 10).max(20)
        } else {
            secs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_horizon_scales_inverse_to_rate() {
        let o = RunOpts {
            quick: false,
            seed: 1,
            ..RunOpts::default()
        };
        assert_eq!(o.adaptive_horizon(1.0, 30.0, 10, 100_000), 30);
        assert_eq!(o.adaptive_horizon(0.001, 30.0, 10, 100_000), 30_000);
        // Clamping.
        assert_eq!(o.adaptive_horizon(100.0, 30.0, 10, 100_000), 10);
        assert_eq!(o.adaptive_horizon(0.0, 30.0, 10, 100_000), 100_000);
    }

    #[test]
    fn quick_mode_divides() {
        let o = RunOpts {
            quick: true,
            seed: 1,
            ..RunOpts::default()
        };
        assert_eq!(o.horizon(200), 20);
        assert_eq!(o.horizon(5000), 500);
        // Quick clamps shrink too.
        assert_eq!(o.adaptive_horizon(0.0001, 30.0, 100, 20_000), 2_000);
    }
}
