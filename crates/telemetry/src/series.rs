//! Time-resolved rate series: fixed-width buckets of event counts,
//! one series per engine run, yielding per-bucket wait / deadlock /
//! reconciliation / commit rates.
//!
//! The paper's equations predict *steady-state* rates; bucketing the
//! event stream is how a run shows whether it ever reached steady
//! state (e.g. the reconciliation backlog of equation (18) draining
//! after a reconnect).

use crate::event::{Event, EventKind};
use crate::sinks::Tracer;
use repl_sim::{SimDuration, SimTime};

/// Event counts inside one `[k·width, (k+1)·width)` window.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Bucket {
    /// Committed user transactions.
    pub commits: u64,
    /// Lock waits.
    pub waits: u64,
    /// Deadlocks detected.
    pub deadlocks: u64,
    /// Reconciliations performed.
    pub reconciliations: u64,
    /// Replica-update commits.
    pub replica_commits: u64,
    /// Messages sent.
    pub messages: u64,
    /// Messages delivered.
    pub deliveries: u64,
    /// Tentative commits at mobile nodes.
    pub tentative_commits: u64,
    /// Tentative transactions rejected at the base.
    pub tentative_rejected: u64,
}

impl Bucket {
    fn observe(&mut self, kind: &EventKind) {
        match kind {
            EventKind::TxnCommit => self.commits += 1,
            EventKind::LockWait { .. } => self.waits += 1,
            // Timeout resolutions are the same measured quantity as
            // detected cycles — eq. (12)'s deadlock rate under the
            // alternate resolution policy.
            EventKind::DeadlockDetected { .. } | EventKind::LockTimeout { .. } => {
                self.deadlocks += 1;
            }
            EventKind::Reconcile => self.reconciliations += 1,
            EventKind::ReplicaApply => self.replica_commits += 1,
            EventKind::MsgSent { .. } | EventKind::ReplicaSend { .. } => self.messages += 1,
            EventKind::MsgDelivered { .. } => self.deliveries += 1,
            EventKind::TentativeCommit => self.tentative_commits += 1,
            EventKind::TentativeRejected => self.tentative_rejected += 1,
            _ => {}
        }
    }

    fn is_empty(&self) -> bool {
        *self == Bucket::default()
    }
}

/// Per-second rates of one bucket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketRates {
    /// Window start, seconds of simulated time.
    pub start_secs: f64,
    /// Effective window length, seconds (the final bucket of a run may
    /// be partial).
    pub width_secs: f64,
    /// Commits per second.
    pub commit_rate: f64,
    /// Waits per second.
    pub wait_rate: f64,
    /// Deadlocks per second.
    pub deadlock_rate: f64,
    /// Reconciliations per second.
    pub reconciliation_rate: f64,
}

/// The bucketed series of one engine run.
#[derive(Debug, Clone)]
pub struct RunSeries {
    /// The run's label (from [`EventKind::RunStart`]).
    pub label: String,
    /// Dense buckets from simulated time zero; interior empty windows
    /// are materialized as all-zero buckets.
    pub buckets: Vec<Bucket>,
    /// Largest event timestamp seen, if any event arrived.
    pub last_event: Option<SimTime>,
    /// Set by [`SeriesAggregator::close_run`]: the run's true horizon,
    /// which bounds the final (possibly partial) bucket.
    pub end: Option<SimTime>,
}

impl RunSeries {
    fn new(label: String) -> Self {
        RunSeries {
            label,
            buckets: Vec::new(),
            last_event: None,
            end: None,
        }
    }

    /// Per-bucket rates. The final bucket's divisor is clipped to the
    /// run's end (if [`SeriesAggregator::close_run`] recorded one), so
    /// a partial last window is not under-reported.
    pub fn rates(&self, width: SimDuration) -> Vec<BucketRates> {
        let width_secs = width.as_secs_f64();
        let n = self.buckets.len();
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let start_secs = i as f64 * width_secs;
                let mut w = width_secs;
                if i + 1 == n {
                    if let Some(end) = self.end {
                        let partial = end.as_secs_f64() - start_secs;
                        if partial > 0.0 && partial < w {
                            w = partial;
                        }
                    }
                }
                BucketRates {
                    start_secs,
                    width_secs: w,
                    commit_rate: b.commits as f64 / w,
                    wait_rate: b.waits as f64 / w,
                    deadlock_rate: b.deadlocks as f64 / w,
                    reconciliation_rate: b.reconciliations as f64 / w,
                }
            })
            .collect()
    }

    /// True if no counted event ever landed in any bucket.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(Bucket::is_empty)
    }
}

/// A [`Tracer`] that folds the event stream into fixed-width buckets,
/// starting a fresh series at every [`EventKind::RunStart`].
#[derive(Debug)]
pub struct SeriesAggregator {
    width: SimDuration,
    runs: Vec<RunSeries>,
}

impl SeriesAggregator {
    /// An aggregator with `width`-long windows.
    pub fn new(width: SimDuration) -> Self {
        assert!(width.0 > 0, "bucket width must be positive");
        SeriesAggregator {
            width,
            runs: Vec::new(),
        }
    }

    /// The configured window length.
    pub fn width(&self) -> SimDuration {
        self.width
    }

    /// The completed series, one per run.
    pub fn runs(&self) -> &[RunSeries] {
        &self.runs
    }

    /// Record the true horizon of the current run so the final bucket's
    /// rates divide by its real (possibly partial) length.
    pub fn close_run(&mut self, end: SimTime) {
        if let Some(run) = self.runs.last_mut() {
            run.end = Some(end);
        }
    }

    fn current_run(&mut self) -> &mut RunSeries {
        if self.runs.is_empty() {
            // Events before any RunStart marker still aggregate.
            self.runs.push(RunSeries::new("run".to_owned()));
        }
        self.runs.last_mut().expect("non-empty runs")
    }

    /// The bucket index of `at`: half-open windows, so an event exactly
    /// on a boundary `k·width` belongs to bucket `k`.
    pub fn bucket_index(&self, at: SimTime) -> usize {
        (at.0 / self.width.0) as usize
    }
}

impl Tracer for SeriesAggregator {
    fn run_end(&mut self, at: SimTime) {
        self.close_run(at);
    }

    fn record(&mut self, event: &Event) {
        if let EventKind::RunStart { label } = &event.kind {
            self.runs.push(RunSeries::new(label.clone()));
            return;
        }
        let idx = self.bucket_index(event.at);
        let run = self.current_run();
        if run.buckets.len() <= idx {
            run.buckets.resize(idx + 1, Bucket::default());
        }
        run.buckets[idx].observe(&event.kind);
        run.last_event = Some(match run.last_event {
            Some(prev) if prev.0 >= event.at.0 => prev,
            _ => event.at,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repl_storage::{NodeId, TxnId};

    fn commit_at(micros: u64) -> Event {
        Event::new(SimTime(micros), NodeId(0), TxnId(1), EventKind::TxnCommit)
    }

    #[test]
    fn boundary_event_opens_next_bucket() {
        let mut agg = SeriesAggregator::new(SimDuration::from_secs(10));
        agg.record(&commit_at(9_999_999));
        agg.record(&commit_at(10_000_000)); // exactly on the boundary
        let run = &agg.runs()[0];
        assert_eq!(run.buckets.len(), 2);
        assert_eq!(run.buckets[0].commits, 1);
        assert_eq!(run.buckets[1].commits, 1);
    }

    #[test]
    fn interior_empty_buckets_are_materialized() {
        let mut agg = SeriesAggregator::new(SimDuration::from_secs(1));
        agg.record(&commit_at(100));
        agg.record(&commit_at(3_500_000)); // bucket 3; 1 and 2 empty
        let run = &agg.runs()[0];
        assert_eq!(run.buckets.len(), 4);
        assert!(run.buckets[1].is_empty() && run.buckets[2].is_empty());
        let rates = run.rates(SimDuration::from_secs(1));
        assert_eq!(rates[1].commit_rate, 0.0);
        assert_eq!(rates[3].commit_rate, 1.0);
    }

    #[test]
    fn partial_final_bucket_uses_true_width() {
        let mut agg = SeriesAggregator::new(SimDuration::from_secs(10));
        // 25-second run: buckets [0,10), [10,20), [20,25).
        agg.record(&commit_at(21_000_000));
        agg.record(&commit_at(24_000_000));
        agg.close_run(SimTime::from_secs(25));
        let run = &agg.runs()[0];
        let rates = run.rates(SimDuration::from_secs(10));
        assert_eq!(rates.len(), 3);
        assert!((rates[2].width_secs - 5.0).abs() < 1e-12);
        assert!((rates[2].commit_rate - 2.0 / 5.0).abs() < 1e-12);
        // Full interior buckets divide by the full width.
        assert!((rates[0].width_secs - 10.0).abs() < 1e-12);
    }

    #[test]
    fn run_start_splits_series() {
        let mut agg = SeriesAggregator::new(SimDuration::from_secs(1));
        agg.record(&Event::system(
            SimTime::ZERO,
            NodeId(0),
            EventKind::RunStart {
                label: "a".to_owned(),
            },
        ));
        agg.record(&commit_at(10));
        agg.record(&Event::system(
            SimTime::ZERO,
            NodeId(0),
            EventKind::RunStart {
                label: "b".to_owned(),
            },
        ));
        agg.record(&commit_at(20));
        agg.record(&commit_at(30));
        assert_eq!(agg.runs().len(), 2);
        assert_eq!(agg.runs()[0].label, "a");
        assert_eq!(agg.runs()[0].buckets[0].commits, 1);
        assert_eq!(agg.runs()[1].buckets[0].commits, 2);
    }
}
