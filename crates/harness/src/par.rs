//! The parallel sweep executor.
//!
//! Every sweep-shaped experiment is a map over independent simulation
//! points: each point builds its own `SimConfig` from the shared
//! [`RunOpts`] and runs a fresh engine to completion. Nothing is shared
//! between points, so they can run on worker threads — the only
//! requirement is that the *output* be indistinguishable from the
//! serial run. [`run_points`] guarantees that:
//!
//! * every point sees the same `quick`/`seed`/`faults` options it sees
//!   today, so each simulation is bit-identical to its serial twin;
//! * results are reassembled in point order before the caller touches
//!   them, so tables, exponent fits, and notes come out byte-identical
//!   no matter how many workers ran or how they interleaved.
//!
//! The executor degrades to the plain serial loop when a tracer or
//! profiler is attached: [`repl_telemetry::TraceHandle`] is `Rc`-based
//! (deliberately not `Send` — the engines are single-threaded), and a
//! serial trace is the only one worth reading anyway.

use crate::RunOpts;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The fan-out the harness uses when `--jobs` is absent: the
/// `HARNESS_JOBS` environment variable if set to a positive integer,
/// otherwise [`std::thread::available_parallelism`].
pub fn default_jobs() -> usize {
    if let Some(n) = std::env::var("HARNESS_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
    {
        return n;
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The `Send` subset of [`RunOpts`] a worker thread needs to rebuild a
/// local options value. Tracer and profiler are intentionally absent:
/// when either is attached the executor never leaves the serial path.
struct WorkerOpts {
    quick: bool,
    seed: u64,
    faults: Option<repl_net::FaultPlan>,
}

impl WorkerOpts {
    fn snapshot(opts: &RunOpts) -> Self {
        // Destructured without `..` on purpose: a field added to
        // `RunOpts` must be carried to the workers or consciously left
        // behind here, or this stops compiling.
        let RunOpts {
            quick,
            seed,
            tracer: _,
            profiler: _,
            faults,
            jobs: _,
            check: _,
            metrics: _,
        } = opts;
        WorkerOpts {
            quick: *quick,
            seed: *seed,
            faults: faults.clone(),
        }
    }

    fn to_opts(&self) -> RunOpts {
        RunOpts {
            quick: self.quick,
            seed: self.seed,
            faults: self.faults.clone(),
            // Workers run exactly one point at a time; nested sweeps
            // (none exist today) would stay serial rather than
            // oversubscribe.
            jobs: 1,
            ..RunOpts::default()
        }
    }
}

/// Run `f` over every point, fanning out across up to `opts.jobs`
/// worker threads, and return the results **in point order**.
///
/// Each worker invokes `f` with a private `RunOpts` carrying the same
/// `quick`/`seed`/`faults` values as `opts`, so a point's simulation is
/// bit-identical whether it ran serially or on a worker. Falls back to the plain in-order serial
/// loop (with `opts` itself, tracer and all) when `opts.jobs <= 1`,
/// when a tracer, profiler, or check session is attached, or when there
/// is at most one point.
pub fn run_points<P, R, F>(opts: &RunOpts, points: Vec<P>, f: F) -> Vec<R>
where
    P: Send + Sync,
    R: Send,
    F: Fn(&RunOpts, &P) -> R + Send + Sync,
{
    let jobs = opts.jobs.min(points.len());
    if jobs <= 1 || opts.tracer.is_active() || opts.profiler.is_enabled() || opts.check.is_on() {
        return points.iter().map(|p| f(opts, p)).collect();
    }
    let template = WorkerOpts::snapshot(opts);
    let next = AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, R)>();
    let mut results: Vec<Option<R>> = Vec::with_capacity(points.len());
    results.resize_with(points.len(), || None);
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let tx = tx.clone();
            let (next, points, f, template) = (&next, &points, &f, &template);
            scope.spawn(move || {
                let local = template.to_opts();
                loop {
                    // Work-stealing by index: whichever worker is free
                    // claims the next point, so a slow point (long
                    // horizon) never stalls the rest of the sweep.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= points.len() {
                        break;
                    }
                    let r = f(&local, &points[i]);
                    if tx.send((i, r)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        for (i, r) in rx.iter() {
            results[i] = Some(r);
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("a sweep worker exited without reporting its point"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts_with_jobs(jobs: usize) -> RunOpts {
        RunOpts {
            jobs,
            ..RunOpts::default()
        }
    }

    #[test]
    fn preserves_point_order() {
        let points: Vec<u64> = (0..64).collect();
        let out = run_points(&opts_with_jobs(8), points.clone(), |_, &p| p * 3);
        assert_eq!(out, points.iter().map(|p| p * 3).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_serial() {
        let points: Vec<u64> = (0..16).collect();
        // Something seed-dependent, like a real sweep point.
        let f = |o: &RunOpts, p: &u64| {
            let mut rng = repl_sim::SimRng::stream(o.seed, &format!("pt-{p}"));
            rng.next_u64()
        };
        let serial = run_points(&opts_with_jobs(1), points.clone(), f);
        let parallel = run_points(&opts_with_jobs(4), points, f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn traced_runs_stay_serial_with_the_original_opts() {
        let ring = std::rc::Rc::new(std::cell::RefCell::new(repl_telemetry::RingBuffer::new(8)));
        let mut o = opts_with_jobs(8);
        o.tracer.attach(&ring);
        // The closure would fail to compile on the parallel path if the
        // tracer-carrying opts were sent across threads; at runtime the
        // serial path must pass the *original* opts through.
        let seen: Vec<bool> = run_points(&o, vec![0u8; 3], |o, _| o.tracer.is_active());
        assert_eq!(seen, vec![true; 3]);
    }

    #[test]
    fn empty_and_single_point_sweeps() {
        let none: Vec<u32> = run_points(&opts_with_jobs(8), Vec::<u32>::new(), |_, &p| p);
        assert!(none.is_empty());
        let one = run_points(&opts_with_jobs(8), vec![7u32], |_, &p| p + 1);
        assert_eq!(one, vec![8]);
    }

    #[test]
    fn worker_opts_carry_quick_seed_faults() {
        let mut o = opts_with_jobs(4);
        o.quick = true;
        o.seed = 99;
        o.faults = Some(repl_net::FaultPlan::quiet(99));
        let got = run_points(&o, vec![(); 4], |local, ()| {
            (local.quick, local.seed, local.faults.is_some(), local.jobs)
        });
        let want = (true, 99, true, 1);
        assert!(got.iter().all(|&g| g == want));
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}
