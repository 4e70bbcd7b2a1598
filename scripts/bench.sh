#!/usr/bin/env bash
# Benchmark driver: times every harness experiment plus the full sweep
# (serial vs --jobs), runs the criterion micro/engine suites, and
# writes the combined result to BENCH_harness.json — the committed
# performance baseline the docs tables are generated from.
#
# Usage:
#   scripts/bench.sh            full run, rewrites BENCH_harness.json
#   scripts/bench.sh --smoke    CI smoke: 1 rep, writes to a temp file
#                               and validates it; also reruns the
#                               engine criterion suite and fails if any
#                               tracked median regresses >1.5x against
#                               the committed BENCH_harness.json
set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=0
for arg in "$@"; do
    case "$arg" in
        --smoke) SMOKE=1 ;;
        *)
            echo "usage: scripts/bench.sh [--smoke]" >&2
            exit 2
            ;;
    esac
done

echo "== building release harness =="
cargo build --release -p repl-harness

OUT=BENCH_harness.json
REPS=3
if [ "$SMOKE" = 1 ]; then
    OUT="$(mktemp)"
    trap 'rm -f "$OUT"' EXIT
    REPS=1
fi

CRIT_LOG=""
if [ "$SMOKE" = 0 ]; then
    echo "== criterion: micro + engines =="
    CRIT_LOG="$(mktemp)"
    cargo bench -p repl-bench --bench micro --bench engines 2>&1 | tee "$CRIT_LOG"
else
    # The smoke gate tracks only the ms-scale engine benches: the
    # ns-scale micro benches jitter past any useful threshold on a
    # shared box, while a genuine hot-path regression in an engine
    # shows up here as well. The micro suite still runs first, as it
    # does when the baseline is taken: the sub-millisecond engine
    # benches at the head of a cold process read 1.5-1.8x slow on this
    # sandbox (the first ~100 ms after idle), which is the gate's
    # whole margin.
    echo "== criterion smoke: engines regression gate =="
    CRIT_LOG="$(mktemp)"
    cargo bench -p repl-bench --bench micro --bench engines 2>&1 | tee "$CRIT_LOG"
fi

# The NullTracer guard already runs in `cargo test --workspace`; here
# the release-profile metrics guard keeps full distribution recording
# honest against the lean baseline.
echo "== overhead guard: metrics recording <5% over lean =="
cargo test -p repl-bench --release -q metrics_recording_overhead_under_five_percent

echo "== timing harness experiments (reps=$REPS) =="
SMOKE="$SMOKE" REPS="$REPS" OUT="$OUT" CRIT_LOG="$CRIT_LOG" python3 - <<'EOF'
import json, os, pathlib, re, subprocess, time

BIN = "./target/release/harness"
SEED = "42"
smoke = os.environ["SMOKE"] == "1"
reps = int(os.environ["REPS"])
out_path = os.environ["OUT"]

def timed(args):
    """Min wall-clock over `reps` runs of the harness with `args`."""
    best = None
    for _ in range(reps):
        start = time.monotonic()
        subprocess.run(
            [BIN, "--quick", "--json", "--seed", SEED, *args],
            check=True, stdout=subprocess.DEVNULL,
        )
        elapsed = time.monotonic() - start
        best = elapsed if best is None else min(best, elapsed)
    return round(best, 4)

names = [
    line.split()[0]
    for line in subprocess.run(
        [BIN, "list"], check=True, capture_output=True, text=True
    ).stdout.splitlines()
    if line.strip()
]
if smoke:
    names = names[:3]

experiments = {}
for name in names:
    experiments[name] = timed([name])
    print(f"  {name:<16} {experiments[name]:8.3f}s")

cores = os.cpu_count() or 1
# At least 2 so the threaded executor path is what gets timed, even on
# a single-core container.
par_jobs = 2 if smoke else max(2, cores)
serial = timed(["--jobs", "1", "all"])
parallel = timed(["--jobs", str(par_jobs), "all"])
print(f"  all --jobs 1     {serial:8.3f}s")
print(f"  all --jobs {par_jobs:<6}{parallel:8.3f}s")

# Fold in the criterion medians (full mode only). The vendored
# criterion prints one summary line per bench:
#   bench GROUP/NAME: median 26.108µs (min ..., max ..., n=10)
criterion = {}
crit_log = os.environ["CRIT_LOG"]
if crit_log:
    scale = {"ns": 1.0, "µs": 1e3, "us": 1e3, "ms": 1e6, "s": 1e9}
    pat = re.compile(r"^bench (\S+): median ([0-9.]+)(ns|µs|us|ms|s) ")
    with open(crit_log) as f:
        for line in f:
            if m := pat.match(line):
                criterion[m[1]] = round(float(m[2]) * scale[m[3]], 1)
    assert criterion, "cargo bench ran but no summary lines parsed"

result = {
    "schema": 1,
    "mode": "quick",
    "seed": int(SEED),
    "reps": reps,
    "cores": cores,
    "sweep": {
        "serial_secs": serial,
        "parallel_secs": parallel,
        "parallel_jobs": par_jobs,
    },
    "experiments": experiments,
    "criterion_median_ns": criterion,
}
with open(out_path, "w") as f:
    json.dump(result, f, indent=2, sort_keys=True)
    f.write("\n")

# Smoke mode validates the document instead of committing it.
with open(out_path) as f:
    doc = json.load(f)
assert doc["experiments"], "no experiment timings recorded"
assert doc["sweep"]["serial_secs"] > 0
print(f"wrote {out_path} ({len(doc['experiments'])} experiments)")

if smoke:
    # Regression gate: every tracked criterion median must stay within
    # 1.5x of the committed baseline. Benches added since the last
    # baseline regeneration are reported but not gated.
    baseline = json.loads(pathlib.Path("BENCH_harness.json").read_text())
    base_crit = baseline.get("criterion_median_ns", {})
    tracked = sorted(
        n for n in criterion
        if n.startswith(("engines_30s_sim/", "engines_steady_state/"))
    )
    assert tracked, "smoke criterion run produced no engine medians"
    failures = []
    for name in tracked:
        now = criterion[name]
        then = base_crit.get(name)
        if then is None:
            print(f"  {name:<40} {now:>12.0f}ns  (new, not gated)")
            continue
        ratio = now / then
        flag = "REGRESSED" if ratio > 1.5 else "ok"
        print(f"  {name:<40} {now:>12.0f}ns  vs {then:>12.0f}ns  {ratio:5.2f}x  {flag}")
        if ratio > 1.5:
            failures.append(name)
    if failures:
        raise SystemExit(
            f"criterion regression gate: {len(failures)} bench(es) slower "
            f"than 1.5x the committed baseline: {', '.join(failures)}"
        )
    print(f"ok: {len(tracked)} tracked medians within 1.5x of baseline")

if not smoke:
    # Re-render the wall-clock table in EXPERIMENTS.md between markers.
    begin, end = "<!-- bench-table:begin -->", "<!-- bench-table:end -->"

    def order(name):
        m = re.match(r"e(\d+)(b?)$", name)
        return (0, int(m[1]), m[2]) if m else (1, name)

    lines = ["", "| experiment | wall-clock (s) |", "|---|---|"]
    lines += [
        f"| `{n}` | {secs:.3f} |"
        for n, secs in sorted(experiments.items(), key=lambda kv: order(kv[0]))
    ]
    lines += [
        f"| **`all` serial (`--jobs 1`)** | **{serial:.3f}** |",
        f"| **`all` parallel (`--jobs {par_jobs}`)** | **{parallel:.3f}** |",
        "",
    ]
    md = pathlib.Path("EXPERIMENTS.md")
    text = md.read_text()
    head, rest = text.split(begin, 1)
    _, tail = rest.split(end, 1)
    md.write_text(head + begin + "\n" + "\n".join(lines) + end + tail)
    print("updated EXPERIMENTS.md wall-clock table")
EOF

echo "== bench done =="
