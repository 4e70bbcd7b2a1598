#!/usr/bin/env bash
# Non-test line count of the workspace, per crate and in total.
#
# Counts every tracked `*.rs` file under `crates/` and `src/` whose path
# has no `/tests/` component, up to the file's first `#[cfg(test)]`,
# without blank lines and `//` comment lines (doc comments included).
#
# Usage: scripts/loc.sh  (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

git ls-files -- 'crates/*.rs' 'src/*.rs' | grep -v '/tests/' | while read -r f; do
    n="$(awk '/^[[:space:]]*#\[cfg\(test\)\]/{exit}
              /^[[:space:]]*$/ || /^[[:space:]]*\/\// {next}
              {c++} END {print c + 0}' "$f")"
    case "$f" in
        crates/*) crate="$(echo "$f" | cut -d/ -f1-2)" ;;
        *) crate="src" ;;
    esac
    echo "$crate $n"
done | awk '{lines[$1] += $2; total += $2}
            END {for (c in lines) printf "%7d  %s\n", lines[c], c | "sort -k2"
                 close("sort -k2"); printf "%7d  total\n", total}'
