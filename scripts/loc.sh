#!/usr/bin/env bash
# Non-test line count of the workspace, per crate and in total.
#
# Counts every tracked `*.rs` file under `crates/` and `src/` whose path
# has no `/tests/` component, up to the file's first `#[cfg(test)]`,
# without blank lines and `//` comment lines (doc comments included).
# A `#[cfg(test)] mod name;` declaration is skipped, not cut at, and
# the file it declares is test code: it is not counted.
#
# Usage: scripts/loc.sh  (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

files="$(git ls-files -- 'crates/*.rs' 'src/*.rs' | grep -v '/tests/')"

# The files that `#[cfg(test)] mod name;` lines declare: `name.rs` and
# `name/mod.rs` beside a `lib.rs`, `main.rs` or `mod.rs`, and under the
# declaring file's own directory otherwise.
test_mods="$(echo "$files" | while read -r f; do
    case "$(basename "$f")" in
        lib.rs | main.rs | mod.rs) dir="$(dirname "$f")" ;;
        *) dir="${f%.rs}" ;;
    esac
    awk -v dir="$dir" '
        t && /^[[:space:]]*mod [A-Za-z0-9_]+;/ {
            name = $2; sub(/;.*/, "", name)
            print dir "/" name ".rs"; print dir "/" name "/mod.rs"
        }
        { t = /^[[:space:]]*#\[cfg\(test\)\]/ }' "$f"
done)"

echo "$files" | grep -vxF -- "$test_mods" | while read -r f; do
    n="$(awk 'test && /^[[:space:]]*mod [A-Za-z0-9_]+;/ {test = 0; next}
              test {exit}
              /^[[:space:]]*#\[cfg\(test\)\]/ {test = 1; next}
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
