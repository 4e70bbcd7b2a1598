//! One pass: every operation of the workload once, each verified.

use crate::calibrate::HostSpeed;
use crate::trace::Tracer;
use crate::workloads::{execute, Loop, Mods, Op, Outcome, Output};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One operation's result within a pass.
pub struct OpResult {
    /// What ran; `None` if the operation panicked.
    pub outcome: Option<Outcome>,
    /// Why the operation counts as failed, if it does.
    pub failure: Option<String>,
}

/// Exact counters summed over a pass's reports and verdicts. A change
/// meant only to speed up the simulator leaves every one identical.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Totals {
    pub committed: u64,
    pub deadlocks: u64,
    pub waits: u64,
    pub cycle_checks: u64,
    pub messages: u64,
    /// Messages of the loops that send through `Network` (the
    /// contention loop only counts its replica updates).
    pub fabric_messages: u64,
    pub dropped: u64,
    pub duplicated: u64,
    pub replica_commits: u64,
    pub stale: u64,
    pub reconciliations: u64,
    pub oracle_records: u64,
    pub oracle_violations: u64,
}

/// Every operation of the workload, run once.
pub struct Pass {
    /// Results, in operation order.
    pub results: Vec<OpResult>,
    /// How much slower than nominal the host ran during the pass
    /// (see `calibrate`): divide a time of this pass by it.
    pub slowdown: f64,
}

impl Pass {
    fn sum(&self, f: impl Fn(&Outcome) -> u64) -> u64 {
        self.results
            .iter()
            .filter_map(|r| r.outcome.as_ref())
            .map(f)
            .sum()
    }

    /// Host time inside `run()`, `check()` and experiment calls.
    pub fn wall_ns(&self) -> u64 {
        self.sum(|o| o.run_ns + o.check_ns)
    }

    /// Host time constructing engines.
    pub fn setup_ns(&self) -> u64 {
        self.sum(|o| o.setup_ns)
    }

    /// Committed root transactions over all engine reports.
    pub fn committed(&self) -> u64 {
        self.sum(|o| o.committed)
    }

    /// Operations that failed.
    pub fn failed(&self) -> u64 {
        self.results.iter().filter(|r| r.failure.is_some()).count() as u64
    }

    /// Counters over the reports of this pass of `ops`.
    pub fn totals(&self, ops: &[Op]) -> Totals {
        let mut t = Totals::default();
        for (op, result) in ops.iter().zip(&self.results) {
            let Some(o) = &result.outcome else { continue };
            if let Some(r) = o.output.report() {
                t.committed += r.committed;
                t.deadlocks += r.deadlocks;
                t.waits += r.waits;
                t.cycle_checks += r.cycle_checks;
                t.messages += r.messages;
                if op.event_loop() != Loop::Contention {
                    t.fabric_messages += r.messages;
                }
                t.dropped += r.messages_dropped;
                t.duplicated += r.messages_duplicated;
                t.replica_commits += r.replica_commits;
                t.stale += r.stale_updates;
                t.reconciliations += r.reconciliations;
            }
            if let Some(v) = o.verdict {
                t.oracle_records += v.records;
                t.oracle_violations += v.violations;
            }
        }
        t
    }

    /// The outputs, for use as the reference of later passes. Panicked
    /// operations leave a hole that no later output can match.
    pub fn outputs(&self) -> Vec<Option<Output>> {
        self.results
            .iter()
            .map(|r| r.outcome.as_ref().map(|o| o.output.clone()))
            .collect()
    }
}

/// Reference slices run at about this many points of a pass.
const CALIBRATION_POINTS: usize = 10;

/// Run every operation once. An operation fails if it panics, if its
/// own verification fails, or if its output differs from `reference`
/// (the first pass's).
pub fn run_pass(
    ops: &[Op],
    mods: &Mods,
    tr: &mut Tracer,
    host: &mut HostSpeed,
    pass: u32,
    reference: Option<&[Option<Output>]>,
) -> Pass {
    tr.set_pass(pass);
    tr.set_op("");
    let pass_span = tr.enter("pass");
    let mut calibrate = |tr: &mut Tracer| {
        let span = tr.enter("calibrate");
        host.sample();
        tr.exit(span);
    };
    let stride = (ops.len() / (CALIBRATION_POINTS - 1)).max(1);
    let mut results = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        if i % stride == 0 {
            tr.set_op("");
            calibrate(tr);
        }
        tr.set_op(&op.name);
        let before = tr.depth();
        let op_span = tr.enter("op");
        let outcome = catch_unwind(AssertUnwindSafe(|| execute(op, mods, tr))).ok();
        // A panic unwinds past the inner `exit` calls.
        tr.close_to(before + 1);
        tr.exit(op_span);
        let failure = match &outcome {
            None => Some("panicked".to_owned()),
            Some(o) => o.failure.clone().or_else(|| {
                let same = reference.is_none_or(|r| r[i].as_ref() == Some(&o.output));
                (!same).then(|| "output differs from the first pass".to_owned())
            }),
        };
        if let Some(why) = &failure {
            eprintln!("FAILED {}: {why}", op.name);
        }
        results.push(OpResult { outcome, failure });
    }
    tr.set_op("");
    calibrate(tr);
    tr.exit(pass_span);
    Pass {
        results,
        slowdown: host.take_factor(),
    }
}
