#!/usr/bin/env bash
# Build the benchmark runner from source and run it.
#
#   benchmark/run.sh                         all four workloads, untraced
#   benchmark/run.sh --workload dense-full   one workload
#   benchmark/run.sh --traced                per-layer metrics + trace JSONL
#   benchmark/run.sh --smoke                 same code path, seconds not minutes
#   benchmark/run.sh --repeat-check          two sets, compared to the bounds
#
# Also the entry point the driver calls (BENCHMARK.json):
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
# See README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

# Build output goes to stderr: stdout belongs to the runner, whose last
# line is the result the driver parses.
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/repl-benchmark" --out "$here/out" "$@"
