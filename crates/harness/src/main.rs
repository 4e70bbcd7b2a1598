//! `harness` — regenerate the paper's tables and figures.
//!
//! ```text
//! harness list                 # show every experiment
//! harness e6                   # run one experiment
//! harness e6 e10 e12           # run several
//! harness all                  # run everything, in order
//! harness --quick all          # ~10x shorter horizons (smoke mode)
//! harness --seed 42 e8         # override the root seed
//! harness --json e8            # machine-readable output
//! harness --trace out.jsonl e6 # stream every engine event as JSONL
//! harness --series 10 e6       # bucketed per-10s rate tables per run
//! harness --profile e6         # wall-clock phase timing report
//! harness --faults SPEC chaos  # override the chaos (or failover) fault plan
//! harness --check --quick e11  # record every run, run the oracles
//! harness --metrics m.json e1  # export merged latency/wait/lag dists
//! ```
//!
//! `SPEC` is the fault mini-language of [`repl_net::FaultPlan::parse`]:
//! `;`-separated clauses `drop=P`, `dup=P`, `delay=P:SECS`,
//! `retransmit=SECS`, `part=S..E:0,1/2,3`, `crash=N:S..E`.
//!
//! `--jobs N` caps the sweep executor's worker threads (default: the
//! `HARNESS_JOBS` environment variable, else every core). Output is
//! bit-identical at any jobs count; traced/profiled runs stay serial.

use repl_harness::experiments::{self, Experiment};
use repl_harness::RunOpts;
use repl_telemetry::{JsonlSink, Profiler, SeriesAggregator};
use std::cell::RefCell;
use std::io::Write;
use std::process::ExitCode;
use std::rc::Rc;

fn usage() -> ExitCode {
    eprintln!(
        "usage: harness [--quick] [--json] [--seed N] [--jobs N] \
         [--trace FILE] [--series SECS] [--profile] [--faults SPEC] \
         [--check] [--metrics FILE] <list|all|NAME...>"
    );
    eprintln!("experiments:");
    for e in experiments::ALL {
        eprintln!("  {:16} {}", e.name, e.about);
    }
    ExitCode::FAILURE
}

/// Render one run's bucketed rate series (`--series`).
fn print_series(out: &mut impl Write, agg: &SeriesAggregator) -> std::io::Result<()> {
    let width = agg.width();
    for run in agg.runs() {
        writeln!(
            out,
            "series: {} (bucket {}s)",
            run.label,
            width.as_secs_f64()
        )?;
        if run.is_empty() {
            writeln!(out, "  (no counted events)")?;
            continue;
        }
        writeln!(
            out,
            "  {:>10} {:>8} {:>12} {:>12} {:>12} {:>12}",
            "start_s", "width_s", "commit/s", "wait/s", "deadlock/s", "recon/s"
        )?;
        for r in run.rates(width) {
            writeln!(
                out,
                "  {:>10.1} {:>8.1} {:>12.3} {:>12.3} {:>12.3} {:>12.3}",
                r.start_secs,
                r.width_secs,
                r.commit_rate,
                r.wait_rate,
                r.deadlock_rate,
                r.reconciliation_rate
            )?;
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        // The reader went away (`harness all | head`): nobody is left to
        // print for, which is a clean early exit, not a failure.
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cannot write to stdout: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parse the command line and run the selected experiments. `Err` is a
/// failed write to stdout; everything else is reported and folded into
/// the exit code.
fn run() -> std::io::Result<ExitCode> {
    // The library default is serial; the CLI defaults to every core
    // (or HARNESS_JOBS) since output is jobs-count invariant.
    let mut opts = RunOpts {
        jobs: repl_harness::par::default_jobs(),
        ..RunOpts::default()
    };
    let mut json = false;
    let mut trace_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut series_secs: Option<u64> = None;
    let mut fault_spec: Option<String> = None;
    let mut names: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--json" => json = true,
            "--seed" => {
                let Some(v) = args.next().and_then(|s| s.parse().ok()) else {
                    eprintln!("--seed needs an integer");
                    return Ok(usage());
                };
                opts.seed = v;
            }
            "--jobs" => {
                let Some(v) = args.next().and_then(|s| s.parse().ok()).filter(|v| *v >= 1) else {
                    eprintln!("--jobs needs a positive integer");
                    return Ok(usage());
                };
                opts.jobs = v;
            }
            "--trace" => {
                let Some(p) = args.next() else {
                    eprintln!("--trace needs a file path");
                    return Ok(usage());
                };
                trace_path = Some(p);
            }
            "--series" => {
                let Some(v) = args.next().and_then(|s| s.parse().ok()).filter(|v| *v > 0) else {
                    eprintln!("--series needs a positive bucket width in seconds");
                    return Ok(usage());
                };
                series_secs = Some(v);
            }
            "--faults" => {
                let Some(s) = args.next() else {
                    eprintln!("--faults needs a fault spec");
                    return Ok(usage());
                };
                fault_spec = Some(s);
            }
            "--profile" => opts.profiler = Profiler::enabled(),
            "--check" => opts.check = repl_harness::CheckSession::enabled(),
            "--metrics" => {
                let Some(p) = args.next() else {
                    eprintln!("--metrics needs a file path");
                    return Ok(usage());
                };
                metrics_path = Some(p);
                opts.metrics = repl_harness::MetricsSession::enabled();
            }
            "-h" | "--help" => return Ok(usage()),
            other if other.starts_with('-') => {
                eprintln!("unknown flag `{other}`");
                return Ok(usage());
            }
            other => names.push(other.to_owned()),
        }
    }
    if names.is_empty() {
        return Ok(usage());
    }
    // Parsed after the arg loop so `--seed` wins regardless of order.
    if let Some(spec) = &fault_spec {
        match repl_net::FaultPlan::parse(spec, opts.seed) {
            Ok(plan) => {
                // `chaos` and `failover` consume `--faults`, each at a
                // fixed node count: reject clauses addressing nodes no
                // named experiment's run has, rather than letting them
                // silently never fire.
                let failover = names.iter().any(|n| n == "failover" || n == "all");
                let nodes = if failover {
                    experiments::failover::NODES
                } else {
                    experiments::chaos::CHAOS_NODES
                };
                if let Err(e) = plan.validate_nodes(nodes) {
                    eprintln!("--faults: {e}");
                    return Ok(ExitCode::FAILURE);
                }
                opts.faults = Some(plan);
            }
            Err(e) => {
                eprintln!("--faults: {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    let series = series_secs.map(|secs| {
        Rc::new(RefCell::new(SeriesAggregator::new(
            repl_sim::SimDuration::from_secs(secs),
        )))
    });
    if let Some(agg) = &series {
        opts.tracer.attach(agg);
    }
    if let Some(path) = &trace_path {
        match JsonlSink::create(path) {
            Ok(sink) => {
                let sink = Rc::new(RefCell::new(sink));
                opts.tracer.attach(&sink);
            }
            Err(e) => {
                eprintln!("--trace: cannot create {path}: {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    // All table/JSON/series output funnels through one locked, buffered
    // stdout handle: one flush per experiment instead of one write
    // syscall per row (visible in `--quick all` profiles).
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    if names.iter().any(|n| n == "list") {
        for e in experiments::ALL {
            writeln!(out, "{:16} {}", e.name, e.about)?;
        }
        out.flush()?;
        return Ok(ExitCode::SUCCESS);
    }
    let selected: Vec<&Experiment> = if names.iter().any(|n| n == "all") {
        experiments::ALL.iter().collect()
    } else {
        let mut v = Vec::new();
        for n in &names {
            match experiments::by_name(n) {
                Some(e) => v.push(e),
                None => {
                    eprintln!("unknown experiment `{n}`");
                    return Ok(usage());
                }
            }
        }
        v
    };
    let mut total_violations = 0usize;
    for e in selected {
        let mut table = (e.run)(&opts);
        // Drain the check session after each experiment so violations
        // land in that experiment's table (text and JSON alike).
        if opts.check.is_on() {
            let mut runs = 0usize;
            let mut commits = 0usize;
            let mut truncated = 0usize;
            for (label, report) in opts.check.drain() {
                runs += 1;
                commits += report.commits;
                if report.truncated() {
                    truncated += 1;
                }
                if report.expected_divergence {
                    table.note(format!("check: {label}: divergence expected (suppressed)"));
                }
                for v in &report.violations {
                    table.violation(format!("{label}: {v}"));
                }
            }
            let mut summary =
                format!("check: {runs} run(s), {commits} commit(s) through the oracles");
            if truncated > 0 {
                summary.push_str(&format!(
                    ", {truncated} truncated (clean verdicts inconclusive)"
                ));
            }
            table.note(summary);
        }
        total_violations += table.violations.len();
        if json {
            match serde_json::to_string_pretty(&table) {
                Ok(s) => writeln!(out, "{s}")?,
                Err(err) => {
                    eprintln!("cannot serialize table {}: {err}", table.id);
                    return Ok(ExitCode::FAILURE);
                }
            }
        } else {
            writeln!(out, "{}", table.render())?;
        }
        // Flush per experiment so long sweeps still stream progress.
        out.flush()?;
    }
    opts.tracer.flush();
    if let Some(path) = &metrics_path {
        let json = opts
            .metrics
            .to_json()
            .expect("--metrics enabled the session");
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("--metrics: cannot write {path}: {e}");
            return Ok(ExitCode::FAILURE);
        }
    }
    if let Some(agg) = &series {
        print_series(&mut out, &agg.borrow())?;
    }
    if opts.profiler.is_enabled() {
        writeln!(out, "profile (wall-clock per engine phase):")?;
        for line in opts.profiler.report_lines() {
            writeln!(out, "  {line}")?;
        }
    }
    out.flush()?;
    if total_violations > 0 {
        eprintln!("correctness oracles found {total_violations} violation(s)");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}
