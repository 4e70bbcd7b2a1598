//! The parallel executor's core contract: sweep output is a pure
//! function of (experiments, seed, quick) — the `--jobs` count must
//! never leak into results. Verified at two levels: the library
//! `run_points` API, and the shipped binary byte-for-byte.
//!
//! The binary-level test runs a representative subset of experiments
//! (every engine family plus the fault-injected chaos run) because the
//! full `--quick all` sweep is too slow under the dev profile;
//! `scripts/ci.sh` does the full-`all` byte comparison against the
//! release binary.

use repl_harness::par::run_points;
use repl_harness::RunOpts;
use std::process::Command;

fn run_harness(jobs: &str, env: &[(&str, &str)]) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_harness"));
    cmd.args([
        "--quick", "--json", "--seed", "77", "--jobs", jobs, "e1", "e5", "e8", "e11", "chaos",
    ]);
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("harness binary runs")
}

/// `--jobs 4` must be byte-identical to `--jobs 1` — which is the same
/// in-order loop the pre-executor serial harness ran.
#[test]
fn binary_output_identical_across_jobs_counts() {
    let serial = run_harness("1", &[]);
    let parallel = run_harness("4", &[]);
    assert!(serial.status.success(), "serial run failed: {serial:?}");
    assert!(
        parallel.status.success(),
        "parallel run failed: {parallel:?}"
    );
    assert!(!serial.stdout.is_empty(), "serial run produced no output");
    assert_eq!(
        serial.stdout, parallel.stdout,
        "--jobs 4 output diverged from --jobs 1"
    );
}

/// The `HARNESS_JOBS` env default must behave exactly like `--jobs`.
#[test]
fn env_default_matches_explicit_flag() {
    let flagged = run_harness("3", &[]);
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_harness"));
    cmd.args([
        "--quick", "--json", "--seed", "77", "e1", "e5", "e8", "e11", "chaos",
    ])
    .env("HARNESS_JOBS", "3");
    let defaulted = cmd.output().expect("harness binary runs");
    assert!(defaulted.status.success());
    assert_eq!(flagged.stdout, defaulted.stdout);
}

/// Unknown flags must be rejected, not swallowed into experiment names.
#[test]
fn unknown_flag_is_an_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_harness"))
        .args(["--quick", "--bogus", "e1"])
        .output()
        .expect("harness binary runs");
    assert!(!out.status.success(), "--bogus was accepted");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown flag `--bogus`"),
        "stderr did not name the bad flag: {stderr}"
    );
}

/// `harness ... | head -1`: the reader closes the pipe after one line.
/// The remaining writes fail with `BrokenPipe`, which must end the run
/// quietly and successfully — not with a panic.
#[test]
fn closed_stdout_pipe_is_a_clean_early_exit() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::Stdio;
    // Several experiments, so there is output left to write after the
    // reader has gone.
    let mut child = Command::new(env!("CARGO_BIN_EXE_harness"))
        .args(["--quick", "--seed", "77", "e14", "e3", "e1", "e14", "e3"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("harness binary runs");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut first = String::new();
    stdout.read_line(&mut first).expect("one line of output");
    assert!(!first.is_empty(), "harness printed nothing");
    drop(stdout);
    let status = child.wait().expect("harness exits");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("stderr is text");
    assert!(
        !stderr.contains("panicked"),
        "closed pipe made the harness panic: {stderr}"
    );
    assert!(stderr.is_empty(), "unexpected stderr: {stderr}");
    assert!(status.success(), "closed pipe is not a failure: {status:?}");
}

/// Library-level contract: parallel `run_points` returns the same
/// results in the same order as the serial fallback, including
/// per-point seed derivation.
#[test]
fn run_points_order_and_values_match_serial() {
    let points: Vec<u64> = (0..37).collect();
    let work = |opts: &RunOpts, &p: &u64| {
        // Mix the per-point value with the shared seed so a worker
        // running points out of order with the wrong opts shows up.
        let mut acc = opts.seed.wrapping_mul(p + 1);
        for i in 0..1_000u64 {
            acc = acc.rotate_left(7) ^ i;
        }
        (p, acc)
    };
    let serial_opts = RunOpts {
        seed: 77,
        jobs: 1,
        ..RunOpts::default()
    };
    let parallel_opts = RunOpts {
        seed: 77,
        jobs: 4,
        ..RunOpts::default()
    };
    let serial = run_points(&serial_opts, points.clone(), work);
    let parallel = run_points(&parallel_opts, points, work);
    assert_eq!(serial, parallel);
}
