#!/bin/sh
# First-party non-test lines, per crate and in total.
#
# Counts every `*.rs` file under `crates/*/src` and under `src/`. A file
# is read up to its first line that starts with `#[cfg(test)]` (at
# column 0), so a trailing in-file test module is not counted. Blank
# lines and lines whose first non-blank characters are `//` (comments,
# `///` and `//!` docs) are not counted. Everything else is: code,
# attributes, braces, and test-only code that comes before the first
# `#[cfg(test)]` line. Not counted at all: `tests/`, `benches/`,
# `examples/`, `shims/`, `benchmark/` and `crates/*/tests`.
#
# Usage: scripts/loc.sh            per-crate lines, then the total
#        scripts/loc.sh --total    the total alone

set -eu

cd "$(dirname "$0")/.."

count() {
    find "$@" -name '*.rs' -exec awk '
        FNR == 1 { on = 1 }
        /^#\[cfg\(test\)\]/ { on = 0 }
        on {
            t = $0
            sub(/^[ \t]+/, "", t)
            if (t != "" && substr(t, 1, 2) != "//") n++
        }
        END { print n + 0 }
    ' {} + | awk '{ s += $1 } END { print s + 0 }'
}

total=0
for dir in crates/*/src src; do
    n="$(count "$dir")"
    total=$((total + n))
    [ "${1:-}" = "--total" ] || printf '%6d  %s\n' "$n" "$dir"
done
if [ "${1:-}" = "--total" ]; then
    echo "$total"
else
    printf '%6d  total\n' "$total"
fi
