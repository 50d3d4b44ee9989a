#!/bin/sh
# Documentation and lint gate for the workspace.
#
# - `cargo doc` with rustdoc warnings promoted to errors: catches missing
#   docs on public items (core, info and obs build with
#   `#![warn(missing_docs)]`) and broken intra-doc links everywhere.
# - `cargo test --doc`: the runnable examples embedded in the API docs
#   (e.g. `sim::par::fan_out`, `sim::timer::TimerWheel`,
#   `info::entry::Snapshot`) must compile and pass.
# - `cargo clippy -D warnings`: the workspace is expected to be
#   clippy-clean.
# - lock classes: the `lock_class!("…")` literals in the non-test part
#   of `crates/*/src` and the first column of DESIGN §13.2's table are
#   the same set (the table's `a.{b,c}` groups count as `a.b` and
#   `a.c`): a new class needs its row, a deleted one takes its row along.
#
# Works fully offline — all external dependencies are vendored under
# shims/ (see shims/README.md), so no registry access is needed.

set -eu

cd "$(dirname "$0")/.."

echo "==> cargo doc --workspace --no-deps (warnings are errors)"
RUSTDOCFLAGS="${RUSTDOCFLAGS:--D warnings}" cargo doc --workspace --no-deps

echo "==> cargo test --workspace --doc"
cargo test --workspace --doc -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> lock classes in crates/*/src are exactly DESIGN §13.2's table"
named="$(awk '/^### 13\.2 /{on=1; next} /^##+ /{on=0} on && /^\| `/' DESIGN.md |
    cut -d'|' -f2 | grep -o '`[a-z_.{},]*`' | tr -d '`' |
    awk '{
        if (match($0, /\{.*\}/)) {
            n = split(substr($0, RSTART + 1, RLENGTH - 2), part, ",")
            for (i = 1; i <= n; i++) print substr($0, 1, RSTART - 1) part[i]
        } else print
    }' | sort -u)"
used="$(for f in $(find crates/*/src -name '*.rs'); do
    awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f"
done | grep -o 'lock_class!("[^"]*")' | sed 's/lock_class!("//; s/")//' | sort -u)"
unnamed="$(echo "$used" | grep -vxF -e "$named" || true)"
unused="$(echo "$named" | grep -vxF -e "$used" || true)"
if [ -n "$unnamed$unused" ]; then
    [ -z "$unnamed" ] || printf 'lock classes not named in DESIGN §13.2:\n%s\n' "$unnamed" >&2
    [ -z "$unused" ] || printf 'DESIGN §13.2 rows naming no lock class in crates/*/src:\n%s\n' "$unused" >&2
    exit 1
fi

echo "==> docs and lints clean"
