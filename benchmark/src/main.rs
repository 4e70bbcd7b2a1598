//! The repo benchmark's runner. See `../README.md`.
//!
//! With `--workload NAME` the process runs that workload itself, a
//! single-threaded closed loop: construct an engine through the public
//! API, run it, verify it, then the next. Without it, the process
//! starts one child of itself per workload (so `peak_rss_mb` is
//! attributable) and merges what they report.
//!
//! The last line of standard output is the result object the driver
//! reads: `{"correct", "attempted", "failed", "metrics"}`.

mod calibrate;
mod catalog;
mod layers;
mod runner;
mod stats;
mod trace;
mod workloads;

use catalog::{END_TO_END, PER_LAYER};
use repl_harness::MetricsSession;
use repl_telemetry::{MetricsRegistry, Profiler};
use runner::{run_pass, Pass, Totals};
use serde::Content;
use stats::{summarize, worse_by, Summary};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{Mods, Output};

/// Result-file schema version.
const SCHEMA: u64 = 1;
/// Timed passes are never fewer than this, however short `--seconds`.
const MIN_TIMED_PASSES: usize = 7;
/// `--seconds` when none is given: `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 16;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
    repeat_check: bool,
    out: PathBuf,
    /// Where a child writes its detail (the parent merges and removes
    /// it); top-level runs write `results.json`.
    detail: Option<PathBuf>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: run.sh [--workload NAME] [--seed N] [--seconds N] [--traced | --trace 0|1] \
         [--smoke] [--repeat-check] [--out DIR]\nworkloads: {}",
        workloads::NAMES.join(", ")
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        traced: false,
        smoke: false,
        repeat_check: false,
        out: PathBuf::from("benchmark/out"),
        detail: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--traced" => a.traced = true,
            "--smoke" => a.smoke = true,
            "--repeat-check" => a.repeat_check = true,
            "--out" => a.out = PathBuf::from(value()?),
            "--detail" => a.detail = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(w) = &a.workload {
        if !workloads::NAMES.contains(&w.as_str()) {
            return Err(format!("unknown workload `{w}`"));
        }
    }
    if a.repeat_check && a.traced {
        return Err("--repeat-check compares untraced runs".to_owned());
    }
    Ok(a)
}

// ---------------------------------------------------------------------
// JSON and manifest
// ---------------------------------------------------------------------

fn obj(entries: Vec<(&str, Content)>) -> Content {
    Content::Map(
        entries
            .into_iter()
            .map(|(k, v)| (Content::Str(k.to_owned()), v))
            .collect(),
    )
}

fn text(s: &str) -> Content {
    Content::Str(s.to_owned())
}

fn get<'a>(c: &'a Content, key: &str) -> Option<&'a Content> {
    let Content::Map(entries) = c else {
        return None;
    };
    entries
        .iter()
        .find(|(k, _)| matches!(k, Content::Str(s) if s == key))
        .map(|(_, v)| v)
}

fn as_f64(c: &Content) -> Option<f64> {
    match c {
        Content::F64(v) => Some(*v),
        Content::U64(v) => Some(*v as f64),
        Content::I64(v) => Some(*v as f64),
        _ => None,
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The `[profile.release]` table of a manifest, one `key = value` per
/// line, comments and blank lines dropped.
fn release_profile(manifest: &str) -> Vec<String> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect()
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// `{git_rev, seed, nproc, rustc, profile, passes, schema}`: heads every
/// result and trace file, so a number can be traced to what made it.
fn manifest(seed: u64, passes: Content, mode: &str) -> Content {
    obj(vec![
        (
            "git_rev",
            text(&command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Content::U64(seed)),
        ("nproc", Content::U64(nproc() as u64)),
        ("rustc", text(&command_line("rustc", &["--version"]))),
        (
            "profile",
            text(&format!(
                "release: {}",
                release_profile(include_str!("../Cargo.toml")).join(", ")
            )),
        ),
        ("passes", passes),
        ("schema", Content::U64(SCHEMA)),
        ("mode", text(mode)),
    ])
}

fn mode_name(a: &Args) -> &'static str {
    match (a.smoke, a.traced) {
        (true, true) => "smoke-traced",
        (true, false) => "smoke",
        (false, true) => "traced",
        (false, false) => "full",
    }
}

fn write_file(path: &Path, body: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, body).map_err(|e| format!("{}: {e}", path.display()))
}

fn pretty(c: &Content) -> String {
    let mut s = serde_json::to_string_pretty(c).expect("content serializes");
    s.push('\n');
    s
}

// ---------------------------------------------------------------------
// One workload, in this process
// ---------------------------------------------------------------------

/// `VmHWM` of this process so far, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Hash of every first-pass `Report` / table: moves exactly when a
/// simulated statistic does. No expected value is committed anywhere.
fn sim_fingerprint(outputs: &[Option<Output>]) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for o in outputs {
        let json = o
            .as_ref()
            .map_or_else(|| "panicked".to_owned(), Output::to_json);
        h = fnv1a(h, json.as_bytes());
        h = fnv1a(h, b"\n");
    }
    format!("{h:016x}")
}

/// The exact counters printed and written for each workload.
/// `committed` is passed in: the sweep's comes from its metrics
/// registry, not from reports.
fn counts(t: &Totals, committed: u64) -> Vec<(&'static str, u64)> {
    vec![
        ("committed", committed),
        ("deadlocks", t.deadlocks),
        ("waits", t.waits),
        ("messages", t.messages),
        ("replica_commits", t.replica_commits),
        ("reconciliations", t.reconciliations),
        ("oracle_records", t.oracle_records),
        ("oracle_violations", t.oracle_violations),
    ]
}

/// What one workload's process measured.
struct Measured {
    /// The driver's result object.
    line: Content,
    /// The workload's entry in `results.json`.
    detail: Content,
    failed: u64,
}

fn summary_json(s: &Summary) -> Content {
    obj(vec![
        ("n", Content::U64(s.n as u64)),
        ("min", Content::F64(s.min)),
        ("q1", Content::F64(s.q1)),
        ("median", Content::F64(s.median)),
        ("q3", Content::F64(s.q3)),
    ])
}

fn metric_json(value: f64, unit: &str) -> Content {
    obj(vec![("value", Content::F64(value)), ("unit", text(unit))])
}

fn run_workload(a: &Args, workload: &str) -> Result<Measured, String> {
    let ops = workloads::ops(workload, a.seed, a.smoke).expect("name was validated");
    let probe = workloads::setup_probe(workload, a.seed, a.smoke);
    let mut tr = trace::Tracer::new(workload, a.traced);
    let mut host = calibrate::HostSpeed::new();
    println!(
        "== {workload}  seed {}  {} operations per pass  {}",
        a.seed,
        ops.len(),
        mode_name(a)
    );

    // Warm-up: fills caches and the allocator, and fixes the outputs
    // every later pass must reproduce. The sweep's commit count comes
    // from here (the timed passes run with metrics export off).
    let session = MetricsSession::enabled();
    let warm_mods = Mods {
        metrics: session.clone(),
        ..Mods::default()
    };
    let warm = run_pass(&ops, &warm_mods, &mut tr, &mut host, 0, None);
    let reference = warm.outputs();
    // Peak memory of a fresh process running the workload once, which
    // is what a user's run is. Read at exit it creeps with the number
    // of passes (dense-full: 56 MB here, 78 to 89 MB after nine passes)
    // as glibc raises its mmap threshold and the heap fragments, and
    // the number of passes depends on how fast the host happens to be.
    let first_pass_rss_mb = peak_rss_mb();
    let mut attempted = ops.len() as u64;
    let mut failed = warm.failed();
    // Engine operations hand back reports; experiments only tables, so
    // the sweep counts commits through its metrics registry.
    let committed = if ops.iter().any(|o| o.sim_config().is_some()) {
        warm.committed()
    } else {
        MetricsRegistry::from_json(&session.to_json().expect("session is enabled"))
            .map_err(|e| format!("metrics registry: {e}"))?
            .runs
            .values()
            .filter_map(|r| r.histogram(repl_core::M_COMMIT_LATENCY))
            .map(|h| h.count())
            .sum()
    };

    // Timed passes: until `--seconds` of measured time, never fewer
    // than seven (one, then the traced one, under `--traced`).
    let (min_passes, budget_ns) = match (a.traced, a.smoke) {
        (true, _) => (1, 0),
        (false, true) => (2, 0),
        (false, false) => (MIN_TIMED_PASSES, a.seconds * 1_000_000_000),
    };
    let mut passes: Vec<Pass> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    let mut measured_ns = 0u64;
    while passes.len() < min_passes || measured_ns < budget_ns {
        let n = passes.len() as u32 + 1;
        let pass = run_pass(
            &ops,
            &Mods::default(),
            &mut tr,
            &mut host,
            n,
            Some(&reference),
        );
        let probe_ns: u64 = probe.iter().map(workloads::construct_ns).sum();
        attempted += ops.len() as u64;
        failed += pass.failed();
        measured_ns += pass.wall_ns() + pass.setup_ns() + probe_ns;
        setups.push((pass.setup_ns() + probe_ns) as f64 / 1e9 / pass.slowdown);
        passes.push(pass);
    }
    // Times are normalised by each pass's measured host slowdown.
    let walls: Vec<f64> = passes
        .iter()
        .map(|p| p.wall_ns() as f64 / 1e9 / p.slowdown)
        .collect();
    let raw_walls: Vec<f64> = passes.iter().map(|p| p.wall_ns() as f64 / 1e9).collect();
    let raw_wall = summarize(&raw_walls).expect("at least one timed pass");
    let slowdowns: Vec<f64> = passes.iter().map(|p| p.slowdown).collect();
    let slowdown = summarize(&slowdowns).expect("at least one timed pass");
    let wall = summarize(&walls).expect("at least one timed pass");
    let setup = summarize(&setups).expect("at least one timed pass");

    let mut per_layer = None;
    let mut trace_notes = Vec::new();
    if a.traced {
        let profiler = Profiler::enabled();
        let mods = Mods {
            profiler: profiler.clone(),
            ..Mods::default()
        };
        let traced = run_pass(&ops, &mods, &mut tr, &mut host, 2, Some(&reference));
        attempted += ops.len() as u64;
        failed += traced.failed();
        let floor_ns = warm.wall_ns().min(passes[0].wall_ns());
        let m = layers::measure(
            &layers::Inputs {
                ops: &ops,
                plain: &passes[0],
                traced: &traced,
                profiler: &profiler,
                floor_ns,
                reference: &reference,
                smoke: a.smoke,
                nproc: nproc(),
                seed: a.seed,
            },
            &mut tr,
            &mut host,
        );
        trace_notes = trace_report(&tr, &m, traced.wall_ns());
        per_layer = Some(m);
    }

    let ok_frac = 1.0 - failed as f64 / attempted as f64;
    let e2e = [
        wall.median,
        committed as f64 / wall.median,
        setup.median,
        first_pass_rss_mb,
        ok_frac,
    ];
    let exit_rss_mb = peak_rss_mb();
    let fingerprint = sim_fingerprint(&reference);
    let exact = counts(&warm.totals(&ops), committed);

    // Every metric by name with its unit.
    for (m, v) in END_TO_END.iter().zip(e2e) {
        let extra = match m.name {
            "wall_s" => format!(
                "n={} q1={:.4} q3={:.4} min={:.4}",
                wall.n, wall.q1, wall.q3, wall.min
            ),
            "setup_s" => format!(
                "n={} q1={:.6} q3={:.6} min={:.6}",
                setup.n, setup.q1, setup.q3, setup.min
            ),
            "peak_rss_mb" => format!("after the first pass; {exit_rss_mb:.1} MB at exit"),
            "ok_frac" => format!(
                "fail_frac {} = {failed} failed / {attempted} attempted",
                1.0 - ok_frac
            ),
            _ => String::new(),
        };
        let tag = if a.smoke { "smoke " } else { "" };
        println!("{tag}{:<14}{v:>16.6} {:<6}{extra}", m.name, m.unit);
    }
    println!(
        "host           slowdown {:.4} (min {:.4}, q3 {:.4}) against the nominal reference slice; raw wall_s {:.6}",
        slowdown.median, slowdown.min, slowdown.q3, raw_wall.median
    );
    if wall.n > 1 {
        println!(
            "pass spread    wall_s {:.2} %  setup_s {:.2} %  (q3 - q1 over the median)",
            wall.spread() * 100.0,
            setup.spread() * 100.0
        );
    }
    println!("sim_fingerprint {fingerprint}");
    println!(
        "counts         {}",
        exact
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    if let Some(m) = &per_layer {
        for ((name, v), def) in m.metrics.iter().zip(PER_LAYER) {
            println!(
                "{name:<40}{v:>18.6} {:<6}[{}; {} is better; moves {}]",
                def.unit,
                def.layer(),
                if def.lower_is_better {
                    "lower"
                } else {
                    "higher"
                },
                def.moves
            );
        }
    }
    for note in &trace_notes {
        println!("{note}");
    }

    let man = manifest(a.seed, Content::U64(passes.len() as u64), mode_name(a));
    if a.traced {
        let path = a.out.join(format!("trace-{workload}.jsonl"));
        let body = trace::to_jsonl(
            &serde_json::to_string(&man).expect("manifest serializes"),
            tr.spans(),
        );
        write_file(&path, &body)?;
        println!("trace          {}", path.display());
    }

    let e2e_json = obj(END_TO_END
        .iter()
        .zip(e2e)
        .map(|(m, v)| (m.name, metric_json(v, m.unit)))
        .collect());
    let layer_json = per_layer.as_ref().map(|m| {
        obj(m
            .metrics
            .iter()
            .zip(PER_LAYER)
            .map(|((name, v), def)| {
                // Null, not 0, where one core means "not measured".
                let skipped = nproc() == 1
                    && (name.starts_with("harness.par.") || name.starts_with("cluster."));
                let value = if skipped {
                    Content::Null
                } else {
                    Content::F64(*v)
                };
                (
                    *name,
                    obj(vec![
                        ("value", value),
                        ("unit", text(def.unit)),
                        ("layer", text(def.layer())),
                        ("moves", text(def.moves)),
                    ]),
                )
            })
            .collect())
    });
    let detail = obj(vec![
        ("manifest", man),
        ("workload", text(workload)),
        (
            "ops",
            Content::Seq(ops.iter().map(|o| text(&o.describe())).collect()),
        ),
        ("timed_passes", Content::U64(passes.len() as u64)),
        ("attempted", Content::U64(attempted)),
        ("failed", Content::U64(failed)),
        ("fail_frac", Content::F64(1.0 - ok_frac)),
        ("end_to_end", e2e_json.clone()),
        ("wall_s", summary_json(&wall)),
        ("wall_s_raw", summary_json(&raw_wall)),
        ("host_slowdown", summary_json(&slowdown)),
        ("setup_s", summary_json(&setup)),
        ("exit_rss_mb", Content::F64(exit_rss_mb)),
        ("sim_fingerprint", text(&fingerprint)),
        (
            "counts",
            obj(exact.iter().map(|(k, v)| (*k, Content::U64(*v))).collect()),
        ),
        ("per_layer", layer_json.unwrap_or(Content::Null)),
        (
            "est_shares",
            per_layer.as_ref().map_or(Content::Null, |m| {
                obj(m
                    .shares
                    .iter()
                    .map(|(k, v)| (*k, Content::F64(*v)))
                    .collect())
            }),
        ),
    ]);

    // The driver's line carries one metric set: end to end when
    // untraced, per layer when traced.
    let metrics = match &per_layer {
        None => e2e_json,
        Some(m) => obj(m
            .metrics
            .iter()
            .zip(PER_LAYER)
            .map(|((name, v), def)| (*name, metric_json(*v, def.unit)))
            .collect()),
    };
    let line = obj(vec![
        ("correct", Content::Bool(failed == 0)),
        ("attempted", Content::U64(attempted)),
        ("failed", Content::U64(failed)),
        ("metrics", metrics),
    ]);
    Ok(Measured {
        line,
        detail,
        failed,
    })
}

/// What the trace shows: how much of the timed pass the `op` spans
/// cover, the layer table, and the two excluded crates' share.
fn trace_report(tr: &trace::Tracer, m: &layers::Measured, traced_wall_ns: u64) -> Vec<String> {
    let spans = tr.spans();
    let mut notes = vec![format!(
        "trace: op spans cover {:.2} % of the timed pass, {:.2} % of the traced pass; {} spans",
        trace::op_coverage(spans, 1) * 100.0,
        trace::op_coverage(spans, 2) * 100.0,
        spans.len()
    )];
    notes.push("layer table (estimated share of the pass; not forced to sum to 100 %):".to_owned());
    for (layer, share) in &m.shares {
        notes.push(format!("  {layer:<30}{:>8.2} %", share * 100.0));
    }
    let own = trace::self_times(spans);
    for crate_name in ["model", "workload"] {
        let ns: u64 = spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == format!("layer.excluded.{crate_name}"))
            .map(|(_, ns)| ns)
            .sum();
        notes.push(format!(
            "excluded layer repl-{crate_name}: {:.4} % of the traced pass",
            ns as f64 / traced_wall_ns.max(1) as f64 * 100.0
        ));
    }
    notes
}

// ---------------------------------------------------------------------
// All workloads, one child process each
// ---------------------------------------------------------------------

/// Run `workload` in a child of this executable; returns its detail.
fn run_child(a: &Args, workload: &str) -> Result<Content, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let detail = a.out.join(format!(".{workload}.json"));
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if a.traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&a.out)
        .arg("--detail")
        .arg(&detail);
    if a.smoke {
        cmd.arg("--smoke");
    }
    // The child's lines stream through; `status` waits for it to end.
    let status = cmd.status().map_err(|e| format!("spawn {workload}: {e}"))?;
    let body = std::fs::read_to_string(&detail)
        .map_err(|e| format!("{workload} left no result ({status}): {e}"))?;
    let _ = std::fs::remove_file(&detail);
    serde_json::from_str(&body).map_err(|e| format!("{workload} result: {e}"))
}

/// Run the selected workloads once; `(name, detail)` each.
fn run_set(a: &Args) -> Result<Vec<(String, Content)>, String> {
    let names: Vec<&str> = match &a.workload {
        Some(w) => vec![w.as_str()],
        None => workloads::NAMES.to_vec(),
    };
    names
        .into_iter()
        .map(|w| Ok((w.to_owned(), run_child(a, w)?)))
        .collect()
}

fn failed_in(set: &[(String, Content)]) -> u64 {
    set.iter()
        .filter_map(|(_, d)| get(d, "failed").and_then(as_f64))
        .sum::<f64>() as u64
}

fn results_json(a: &Args, set: &[(String, Content)], repeat: Option<Content>) -> Content {
    let passes = obj(set
        .iter()
        .map(|(w, d)| {
            (
                w.as_str(),
                get(d, "timed_passes").cloned().unwrap_or(Content::Null),
            )
        })
        .collect());
    let mut entries = vec![
        ("manifest", manifest(a.seed, passes, mode_name(a))),
        (
            "workloads",
            obj(set.iter().map(|(w, d)| (w.as_str(), d.clone())).collect()),
        ),
    ];
    if let Some(r) = repeat {
        entries.push(("repeat_check", r));
    }
    obj(entries)
}

/// Two sets of runs of the same build must agree within the
/// benchmark's own bounds, and exactly on counts and fingerprint.
fn repeat_check(a: &Args) -> Result<ExitCode, String> {
    println!("# repeat-check: first set");
    let first = run_set(a)?;
    println!("# repeat-check: second set");
    let second = run_set(a)?;
    let mut rows = Vec::new();
    let mut bad = failed_in(&first) + failed_in(&second) > 0;
    println!("# repeat-check: relative difference of the second set against the first");
    for ((w, d1), (_, d2)) in first.iter().zip(&second) {
        for m in &END_TO_END {
            let value = |d: &Content| {
                get(d, "end_to_end")
                    .and_then(|e| get(e, m.name))
                    .and_then(|v| get(v, "value"))
                    .and_then(as_f64)
                    .ok_or(format!("{w}: no {}", m.name))
            };
            let (v1, v2) = (value(d1)?, value(d2)?);
            let worse = worse_by(v1, v2, m.lower_is_better);
            let over = worse > m.bound;
            bad |= over;
            println!(
                "{w:<18}{:<13}{v1:>16.6} -> {v2:>16.6}  worse by {:>7.2} %  bound {:>5.1} %  {}",
                m.name,
                worse * 100.0,
                m.bound * 100.0,
                if over { "EXCEEDED" } else { "ok" }
            );
            rows.push(obj(vec![
                ("workload", text(w)),
                ("metric", text(m.name)),
                ("first", Content::F64(v1)),
                ("second", Content::F64(v2)),
                ("worse_by", Content::F64(worse)),
                ("bound", Content::F64(m.bound)),
            ]));
        }
        for key in ["sim_fingerprint", "counts"] {
            let same = get(d1, key) == get(d2, key);
            bad |= !same;
            println!(
                "{w:<18}{key:<16}{}",
                if same { "identical" } else { "DIFFERS" }
            );
        }
    }
    let doc = results_json(a, &second, Some(Content::Seq(rows)));
    write_file(&a.out.join("results.json"), &pretty(&doc))?;
    Ok(if bad {
        eprintln!("repeat-check FAILED");
        ExitCode::FAILURE
    } else {
        println!("repeat-check passed");
        ExitCode::SUCCESS
    })
}

fn real_main() -> Result<ExitCode, String> {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return Ok(usage());
        }
    };
    if a.repeat_check {
        return repeat_check(&a);
    }
    // One workload (the driver's invocation, or one of our own
    // children): run it here and end with the result line.
    if let Some(w) = &a.workload {
        let t0 = Instant::now();
        let m = run_workload(&a, w)?;
        match &a.detail {
            Some(path) => write_file(path, &pretty(&m.detail))?,
            None => {
                let set = [(w.clone(), m.detail)];
                write_file(
                    &a.out.join("results.json"),
                    &pretty(&results_json(&a, &set, None)),
                )?;
            }
        }
        println!("elapsed        {:.1} s", t0.elapsed().as_secs_f64());
        println!(
            "{}",
            serde_json::to_string(&m.line).expect("result line serializes")
        );
        return Ok(if m.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    let set = run_set(&a)?;
    let path = a.out.join("results.json");
    write_file(&path, &pretty(&results_json(&a, &set, None)))?;
    println!("results        {}", path.display());
    Ok(if failed_in(&set) == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A benchmark built without fat LTO measures a different program.
    #[test]
    fn release_profile_matches_the_root_manifest() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml");
        let root = std::fs::read_to_string(root).expect("root Cargo.toml");
        let mine = release_profile(include_str!("../Cargo.toml"));
        assert!(
            !mine.is_empty(),
            "benchmark manifest has no [profile.release]"
        );
        assert_eq!(mine, release_profile(&root));
    }

    #[test]
    fn release_profile_reads_one_table() {
        let toml = "[package]\nname = \"x\"\n\n# why\n[profile.release]\nlto   = \"fat\"\n\
                    # note\ncodegen-units = 1\n\n[profile.bench]\ndebug = true\n";
        assert_eq!(
            release_profile(toml),
            vec!["lto = \"fat\"".to_owned(), "codegen-units = 1".to_owned()]
        );
        assert!(release_profile("[package]\n").is_empty());
    }

    #[test]
    fn fingerprint_moves_with_any_output() {
        use repl_core::Report;
        let report = |committed| {
            Some(Output::Report(Box::new(Report {
                committed,
                ..Report::default()
            })))
        };
        let a = sim_fingerprint(&[report(1), report(2)]);
        assert_eq!(a, sim_fingerprint(&[report(1), report(2)]));
        assert_ne!(a, sim_fingerprint(&[report(1), report(3)]));
        assert_ne!(a, sim_fingerprint(&[report(2), report(1)]));
        assert_ne!(a, sim_fingerprint(&[report(1), None]));
        assert_eq!(a.len(), 16);
    }
}
