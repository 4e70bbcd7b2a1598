#!/usr/bin/env bash
# Full CI gate: formatting, lints, release build, tests, and a smoke
# run of every experiment with machine-readable output validated.
#
# Usage: scripts/ci.sh  (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

say() { printf '\n== %s ==\n' "$*"; }

say "cargo fmt --check"
cargo fmt --all -- --check

say "cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

# only_in_kernel PATTERN...: in non-test engine code (above each file's
# `#[cfg(test)]`), every pattern occurs in kernel.rs, and nowhere else.
only_in_kernel() {
    local pat f hits
    for pat in "$@"; do
        for f in crates/core/src/engine/*.rs; do
            hits="$(awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f" | grep -c -- "$pat" || true)"
            if [ "$(basename "$f")" = kernel.rs ]; then
                [ "$hits" -ge 1 ] || {
                    echo "engine/kernel.rs no longer has \`$pat\`" >&2
                    exit 1
                }
            elif [ "$hits" -ne 0 ]; then
                echo "$f has \`$pat\` ($hits); it belongs in engine/kernel.rs only" >&2
                exit 1
            fi
        done
    done
}

say "one loop: queue, event loop and instrumentation builders live in engine/kernel.rs only"
# The five engines are protocols over one simulation kernel. A second
# `EventQueue`, `pop_until` loop, FIFO-lane registration or builder set
# in engine code means a loop has been forked off again.
only_in_kernel 'EventQueue::new' '\.pop_until(' 'set_fifo_lane' \
    'fn with_tracer' 'fn with_profiler' 'fn with_run_label' 'fn with_recorder'
echo "ok: one EventQueue, one pop_until loop, one builder set"

say "one fabric: network, injector and partition live in engine/kernel.rs only"
# A protocol that builds a `Network`, installs or lifts a
# `FaultInjector`, or starts or heals a partition has taken the fabric
# back: a fault kind added to the kernel would no longer reach it.
only_in_kernel 'Network::new' 'FaultInjector::new' 'clear_faults' \
    '\.partition(' 'heal_partition'
echo "ok: one Network, one fault install, one partition"

say "one message counter: only the kernel's send path counts a message"
# `Kernel::send` counts every message it puts on the wire, and nothing
# else may: a protocol that bumps the counter itself counts a message
# no fault can reach, or one that was never sent.
only_in_kernel 'metrics\.messages\b'
echo "ok: every counted message is a sent message"

say "one retransmit period: every protocol timer waits the kernel's"
# The kernel holds the period: the attached plan's, else a quiet
# plan's, so a plan that injects nothing changes nothing. An engine
# that keeps a period of its own or reads one off a plan runs
# differently once any plan is attached.
only_in_kernel '\.retransmit\b' 'retransmit: SimDuration' 'FaultPlan::quiet'
echo "ok: one retransmit period, held by the kernel"

say "one id minter: every TxnId comes from the kernel's counter"
# `Kernel::mint_txn` hands out every transaction id from the run's one
# counter, so an id names one thing and id order is begin order. An
# engine that builds a `TxnId` itself has forked the id space again.
only_in_kernel 'TxnId('
echo "ok: every TxnId is minted by the kernel"

say "state machines read no clock: non-test repl-core code names no std::time, std::thread or Instant"
# Every protocol in repl-core is a state machine: time is the kernel's
# simulated clock or a driver's tick. A wall clock, a sleep or a thread
# there would make an outcome depend on the host.
clock_hits="$(find crates/core/src -name '*.rs' | sort | while read -r f; do
    awk '/^#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' "$f"
done | grep -E 'std::time|std::thread|\bInstant\b' || true)"
[ -z "$clock_hits" ] || {
    echo "$clock_hits" >&2
    echo "repl-core reads a clock or starts a thread; drive it from a tick instead" >&2
    exit 1
}
echo "ok: no clock, sleep or thread in repl-core"

say "set-up follows hosted state: non-test repl-core code has no whole-keyspace loop"
# A node pays for the objects it hosts: stores start filled
# (`ObjectStore::filled`), and no constructor walks every object id to
# find its own. A `for … in 0..….db_size` loop makes set-up nodes × DB.
keyspace_hits="$(find crates/core/src -name '*.rs' | sort | while read -r f; do
    awk '/^#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' "$f"
done | grep -E '\bfor\b.* in 0\.\.[A-Za-z_.]*db_size' || true)"
[ -z "$keyspace_hits" ] || {
    echo "$keyspace_hits" >&2
    echo "repl-core walks the whole keyspace; size the work by the hosted state instead" >&2
    exit 1
}
echo "ok: no whole-keyspace loop in repl-core"

say "cargo build --release"
cargo build --release --workspace

say "cargo test"
cargo test -q --workspace

# Every gate's scratch file lives in one directory, removed on exit.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

say "harness smoke: --quick --json all"
out="$tmp/out"
metrics_out="$tmp/metrics_out"
./target/release/harness --quick --json --metrics "$metrics_out" all >"$out"

say "validating harness JSON"
# `--json all` prints one pretty-printed JSON document per experiment,
# concatenated; parse the stream and require at least one table per
# registered experiment.
python3 - "$out" <<'EOF'
import json, sys

text = open(sys.argv[1]).read()
dec = json.JSONDecoder()
idx, tables = 0, []
while idx < len(text):
    while idx < len(text) and text[idx].isspace():
        idx += 1
    if idx >= len(text):
        break
    table, idx = dec.raw_decode(text, idx)
    tables.append(table)
assert tables, "harness emitted no JSON tables"
for t in tables:
    assert t.get("title"), f"table missing title: {t}"
    assert t.get("rows"), f"table {t['title']!r} has no rows"
print(f"ok: {len(tables)} JSON tables, all titled and non-empty")
EOF

say "queue gauge: --profile reports the event queue's peak and retained memory"
# No table, golden or test reads `EventQueue::retained_bytes` end to
# end; this is the one run that does.
profile_out="$tmp/profile_out"
./target/release/harness --profile --quick e1 >"$profile_out"
grep -Eq '^ *queue: peak [1-9][0-9]* events, [0-9]+ KB retained$' "$profile_out" || {
    echo "--profile printed no 'queue: peak N events, M KB retained' line with N >= 1" >&2
    grep -E 'queue' "$profile_out" >&2 || true
    exit 1
}
echo "ok: $(grep -Eo 'queue: peak .*' "$profile_out")"

say "parallel smoke: --jobs 2 must be byte-identical to serial"
par_out="$tmp/par_out"
par_metrics="$tmp/par_metrics"
./target/release/harness --quick --json --jobs 2 --metrics "$par_metrics" all >"$par_out"
cmp "$out" "$par_out" || {
    echo "--jobs 2 output differs from the serial run" >&2
    exit 1
}
echo "ok: parallel sweep output byte-identical to serial"

say "metrics gate: schema valid, --jobs invariant"
cmp "$metrics_out" "$par_metrics" || {
    echo "--metrics export differs between serial and --jobs 2" >&2
    exit 1
}
/usr/bin/jq -e '
    .schema == 1
    and (.runs | length > 0)
    and ((([.runs[].histograms[]?.count] | add) // 0) > 0)
' "$metrics_out" >/dev/null || {
    echo "metrics JSON failed schema validation" >&2
    exit 1
}
echo "ok: $(/usr/bin/jq '.runs | length' "$metrics_out") metric runs, histograms populated, export --jobs invariant"
# Every run key is filed under the experiment that produced it:
# `NAME/...`, where NAME is one that `harness list` prints.
names="$(./target/release/harness list | awk '{print $1}' | /usr/bin/jq -R . | /usr/bin/jq -sc .)"
stray="$(/usr/bin/jq -r --argjson names "$names" '
    .runs | keys[] | select(. as $k | $names | any(. as $n | $k | startswith($n + "/")) | not)
' "$metrics_out")"
[ -z "$stray" ] || {
    echo "$stray" >&2
    echo "--metrics keys above do not start with an experiment name and '/'" >&2
    exit 1
}
echo "ok: every metrics key starts with an experiment name"

say "chaos smoke: fixed seed, twice (determinism + schema)"
chaos_a="$tmp/chaos_a"
chaos_b="$tmp/chaos_b"
./target/release/harness --quick --json --seed 41 chaos >"$chaos_a"
./target/release/harness --quick --json --seed 41 chaos >"$chaos_b"
cmp "$chaos_a" "$chaos_b" || {
    echo "chaos runs with the same seed produced different output" >&2
    exit 1
}
python3 - "$chaos_a" <<'EOF'
import json, sys

table = json.loads(open(sys.argv[1]).read())
assert table["id"] == "CHAOS", f"unexpected table id {table['id']!r}"
cols = table["headers"]
rows = {r[cols.index("policy")]: dict(zip(cols, r)) for r in table["rows"]}
assert set(rows) == {"detection", "timeout", "eager/owner-order", "eager/2pc", "eager/o2pl",
                     "two-tier"}, f"policies: {sorted(rows)}"
for name, row in rows.items():
    assert int(row["dropped"]) > 0, f"{name} run injected no drops: {row}"
    assert int(row["crashes"]) > 0, f"{name} run injected no crashes: {row}"
for name in ("detection", "timeout", "two-tier"):
    assert rows[name]["converged"] == "yes", f"{name} run diverged: {rows[name]}"
assert int(rows["timeout"]["cycle checks"]) == 0, "timeout mode searched the graph"
assert int(rows["timeout"]["timeouts"]) > 0, "timeout mode resolved nothing"
assert int(rows["detection"]["cycle checks"]) > 0, "detection mode never searched"
print("ok: chaos smoke deterministic, converged, policies use disjoint mechanisms")
EOF

say "chaos oracle gates: every run clean through the oracles but owner-order, which tears"
proto_out="$tmp/proto_out"
# Both lazy-group policies, every commit protocol and two-tier run under
# the full chaos plan (drops, duplicates, a crash window). Every run but
# owner-order must come through the oracles with zero violations; 2PC
# and O2PL face the atomicity and decision-durability oracles too, and
# two-tier the failover ones. Owner-order's partial commits are the
# oracles' teeth, so the run exits 1.
if ./target/release/harness --quick --json --seed 41 --check chaos >"$proto_out"; then
    echo "the owner-order chaos run tore no commit: the oracles have no teeth" >&2
    exit 1
fi
/usr/bin/jq -e '
    ([.violations[] | select(startswith("chaos proto=owner-order:") | not)] | length == 0)
    and ([.violations[] | select(startswith("chaos proto=owner-order:"))] | length > 0)
    and ([.rows[] | select(.[0] == "eager/2pc" or .[0] == "eager/o2pl")] | length == 2)
    and ([.rows[] | select(.[0] == "two-tier" and .[-1] == "yes")] | length == 1)
    and ([.violations[] | select(startswith("chaos two-tier:"))] | length == 0)
' "$proto_out" >/dev/null || {
    echo "a chaos run other than owner-order failed the oracles, or owner-order tore nothing" >&2
    /usr/bin/jq '.violations' "$proto_out" >&2
    exit 1
}
echo "ok: lazy-group, 2PC, O2PL and two-tier chaos runs violation-free, owner-order tears $(/usr/bin/jq '.violations | length' "$proto_out") commits"

say "oracle smoke: --check on a real experiment must stay clean"
check_out="$tmp/check_out"
./target/release/harness --quick --json --seed 41 --check e11 >"$check_out"
python3 - "$check_out" <<'EOF'
import json, sys

table = json.loads(open(sys.argv[1]).read())
assert table["violations"] == [], f"oracle violations: {table['violations']}"
note = [n for n in table["notes"] if n.startswith("check:")]
assert note, "--check run recorded nothing through the oracles"
print(f"ok: zero violations ({note[0]})")
EOF

say "oracle fuzz smoke: fixed-seed corpus replay + fuzz must be clean"
./target/release/harness --quick --seed 41 check

say "oracle self-test: every checker must flag its broken artifact"
./target/release/harness check-selftest

say "oracle mutation gate: an injected lock bug must fail the check run"
if REPL_MUTATE=grant-held:3 ./target/release/harness --quick --seed 41 check >"$check_out" 2>&1; then
    echo "check passed despite the injected lock bug" >&2
    exit 1
fi
grep -q "CHECK_CASE" "$check_out" || {
    echo "failing check run printed no CHECK_CASE repro line" >&2
    exit 1
}
echo "ok: injected bug caught, shrunk repro line emitted"

say "failover smoke: fixed seed (determinism incl. trace order, metrics schema, zero violations)"
fo_a="$tmp/fo_a"
fo_b="$tmp/fo_b"
fo_metrics_a="$tmp/fo_metrics_a"
fo_metrics_b="$tmp/fo_metrics_b"
./target/release/harness --quick --json --seed 41 --metrics "$fo_metrics_a" failover >"$fo_a"
./target/release/harness --quick --json --seed 41 --jobs 2 --metrics "$fo_metrics_b" failover >"$fo_b"
cmp "$fo_a" "$fo_b" || {
    echo "failover --jobs 2 output differs from the serial run" >&2
    exit 1
}
cmp "$fo_metrics_a" "$fo_metrics_b" || {
    echo "failover --metrics export differs between serial and --jobs 2" >&2
    exit 1
}
# The base tier is a sequential state machine: no replica thread races
# another for the trace ring, so the event order is a function of the
# seed, not only the event multiset.
fo_trace_a="$tmp/fo_trace_a"
fo_trace_b="$tmp/fo_trace_b"
./target/release/harness --quick --json --seed 41 --trace "$fo_trace_a" failover >/dev/null
./target/release/harness --quick --json --seed 41 --trace "$fo_trace_b" failover >/dev/null
[ -s "$fo_trace_a" ] || {
    echo "failover --trace wrote no events" >&2
    exit 1
}
cmp "$fo_trace_a" "$fo_trace_b" || {
    echo "failover --trace differs between two same-seed runs" >&2
    exit 1
}
/usr/bin/jq -e '
    .schema == 1
    and ([.runs | keys[] | select(startswith("failover/"))] | length > 0)
    and ([.runs | to_entries[] | select(.key | startswith("failover/"))
          | .value.histograms["failover_unavailability"].count] | add > 0)
' "$fo_metrics_a" >/dev/null || {
    echo "failover metrics JSON failed schema validation" >&2
    exit 1
}
python3 - "$fo_a" <<'EOF'
import json, sys

table = json.loads(open(sys.argv[1]).read())
assert table["id"] == "FAILOVER", f"unexpected table id {table['id']!r}"
assert table["violations"] == [], f"failover oracle violations: {table['violations']}"
cols = table["headers"]
rows = [dict(zip(cols, r)) for r in table["rows"]]
assert rows, "failover table has no rows"
for row in rows:
    assert row["safe"] == "yes", f"unsafe failover row: {row}"
elections = sum(int(r["elections"]) for r in rows)
assert elections > 0, "failover smoke never elected a leader"
print(f"ok: failover deterministic, {elections} elections, all rows safe")
EOF

say "scaleout smoke: fixed seed (determinism across --jobs, schema, sublinear fan-out)"
sc_a="$tmp/sc_a"
sc_b="$tmp/sc_b"
./target/release/harness --quick --json --seed 41 scaleout >"$sc_a"
./target/release/harness --quick --json --seed 41 --jobs 2 scaleout >"$sc_b"
cmp "$sc_a" "$sc_b" || {
    echo "scaleout --jobs 2 output differs from the serial run" >&2
    exit 1
}
/usr/bin/jq -e '
    def fanout(n; rf): (.rows[] | select(.[0] == n and .[1] == rf) | .[8] | tonumber);
    def pmsgs(n; p): (.rows[] | select(.[0] == n and .[9] == p) | .[8] | tonumber);
    .id == "SCALEOUT"
    and .violations == []
    and (.headers | index("msgs/commit") == 8)
    and (.headers | index("proto") == 9)
    and (.headers | index("commit p50 ms") == 10)
    and (.headers | index("commit p95 ms") == 11)
    and (.headers | index("indoubt p95 ms") == 12)
    and (.rows | length >= 9)
    and ([.rows[] | select(.[0] == "256" and .[1] == "3")] | length == 1)
    and (fanout("256"; "3") < fanout("8"; "3") * 2 + 1)
    and (fanout("256"; "3") >= 3.0 and fanout("256"; "3") <= 3.8)
    and (fanout("32"; "full") > fanout("8"; "full") * 2)
    and ([.rows[] | select(.[9] == "2pc")] | length == 2)
    and (pmsgs("16"; "2pc") > pmsgs("16"; "owner-order"))
    and (pmsgs("16"; "o2pl") < pmsgs("16"; "2pc"))
    and ([.rows[] | select(.[9] == "2pc") | .[12]] | all(. != "—"))
' "$sc_a" >/dev/null || {
    echo "scaleout JSON failed schema/sublinearity/protocol validation" >&2
    exit 1
}
echo "ok: scaleout deterministic across --jobs, rf=3 fan-out flat, protocol rows ordered by message cost"

say "scaleout oracle smoke: --check on the sharded sweep must stay clean"
./target/release/harness --quick --json --seed 41 --check scaleout >"$sc_b"
/usr/bin/jq -e '.violations == []' "$sc_b" >/dev/null || {
    echo "scaleout --check recorded oracle violations" >&2
    /usr/bin/jq '.violations' "$sc_b" >&2
    exit 1
}
echo "ok: sharded sweep clean through the oracles"

say "benchmark smoke: all four workloads, every operation correct"
# Also what keeps the standalone benchmark/ workspace compiling against
# the crates' public API. Smoke numbers mean nothing; only ok_frac does.
bench_out="$tmp/bench_out"
benchmark/run.sh --smoke >"$bench_out"
grep '^{' "$bench_out" | /usr/bin/jq -es '
    length == 4
    and all(.[]; .correct and .failed == 0 and .metrics.ok_frac.value == 1)
' >/dev/null || {
    echo "benchmark smoke: a workload is missing, incorrect or has ok_frac < 1" >&2
    grep -E '^==|ok_frac' "$bench_out" >&2
    exit 1
}
echo "ok: benchmark smoke ran 4 workloads, ok_frac 1 on each"

say "benchmark unit tests: statistics, workload cases, metric catalogue vs BENCHMARK.json"
cargo test --manifest-path benchmark/Cargo.toml --offline -q

say "allocator gates: heap follows live events (queue_memory), allocations follow rf (fanout_allocations), telemetry allocates nothing per event (telemetry_allocations), allocations per commit stay bounded (commit_allocations), a warm lock cycle allocates nothing (lock_allocations)"
# Each file installs its own counting #[global_allocator]; release, so
# the numbers are the ones the docs quote.
cargo test -q --release --test queue_memory --test fanout_allocations --test telemetry_allocations \
    --test commit_allocations
cargo test -q --release -p repl-storage --test lock_allocations

say "non-test lines (informational, not a gate)"
scripts/loc.sh

say "all CI gates passed"
