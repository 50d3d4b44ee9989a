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
#   `a.c`): a new class needs its row, a deleted one takes its row along;
#   and the section's "The count is n" sentence says how many there are.
# - protocol version: `PROTOCOL_VERSION` in crates/proto/src/message.rs
#   is the one version DESIGN §8.1 names as `PROTOCOL_VERSION = n`, so a
#   wire change bumps the version and its documentation together.
# - handshake sizes: the HELLO, RESP and FIN sizes the golden test in
#   crates/gsi/src/handshake.rs pins (`E21_<MSG>_BYTES`) are the ones
#   DESIGN §8.1's handshake table names as `<MSG> = n`.
# - CHANGES.md budget: the newest entry (the one naming the highest
#   ISSUE number) is at most 1 536 bytes; older entries are exempt.
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
count="$(echo "$used" | grep -c .)"
stated="$(awk '/^### 13\.2 /{on=1; next} /^##+ /{on=0} on' DESIGN.md |
    sed -n 's/^The count is \([0-9]*\).*/\1/p')"
if [ "$count" != "$stated" ]; then
    printf 'crates/*/src has %s lock classes; DESIGN §13.2 says "The count is %s"\n' \
        "$count" "${stated:-(no count)}" >&2
    exit 1
fi

echo "==> PROTOCOL_VERSION in crates/proto is the version DESIGN §8.1 documents"
section81="$(awk '/^### 8\.1 /{on=1; next} /^##+ /{on=0} on' DESIGN.md)"
code="$(sed -n 's/^pub const PROTOCOL_VERSION: u8 = \([0-9]*\);$/\1/p' crates/proto/src/message.rs)"
doc="$(echo "$section81" | grep -o '`PROTOCOL_VERSION = [0-9]*`' | tr -dc '0-9\n' | sort -u)"
if [ -z "$code" ] || [ "$code" != "$doc" ]; then
    printf 'PROTOCOL_VERSION is %s in crates/proto/src/message.rs; DESIGN §8.1 documents %s\n' \
        "${code:-no value}" "$(echo ${doc:-none})" >&2
    exit 1
fi

echo "==> handshake sizes in crates/gsi are the sizes DESIGN §8.1 documents"
for msg in HELLO RESP FIN; do
    code="$(sed -n "s/^ *const E21_${msg}_BYTES: usize = \([0-9]*\);$/\1/p" crates/gsi/src/handshake.rs)"
    doc="$(echo "$section81" | grep -o "\`$msg = [0-9]*\`" | tr -dc '0-9\n' | sort -u)"
    if [ -z "$code" ] || [ "$code" != "$doc" ]; then
        printf '%s is %s bytes in crates/gsi/src/handshake.rs; DESIGN §8.1 documents %s\n' \
            "$msg" "${code:-no value}" "$(echo ${doc:-none})" >&2
        exit 1
    fi
done

echo "==> the newest CHANGES.md entry is at most 1 536 bytes"
# An entry is a `- ` line plus the two-space-indented lines under it;
# `LC_ALL=C` makes `length` count bytes.
set -- $(LC_ALL=C awk '
    /^- / { n++; if (match($0, /ISSUE [0-9]+/)) issue[n] = substr($0, RSTART + 6, RLENGTH - 6) + 0 }
    n && /^(- |  )/ { bytes[n] += length($0) + 1 }
    END {
        for (i = 1; i <= n; i++) if (issue[i] > issue[top]) top = i
        print issue[top] + 0, bytes[top] + 0
    }' CHANGES.md)
if [ "$1" = 0 ] || [ "$2" -gt 1536 ]; then
    printf 'CHANGES.md: the newest entry (ISSUE %s) is %s bytes; the budget is 1536\n' "$1" "$2" >&2
    exit 1
fi

echo "==> docs and lints clean"
