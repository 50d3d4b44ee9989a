#!/bin/sh
# Gate every experiment bench: each `[[bench]]` of crates/bench/Cargo.toml
# but the criterion micro-benches runs through scripts/bench_gate.sh, so
# a new bench is gated by default. Each bench checks its named claims
# (`Report` in crates/bench/src/lib.rs; the claims are listed in
# EXPERIMENTS.md) and exits non-zero unless every gated one holds.

set -eu

cd "$(dirname "$0")/.."

for bench in $(awk '/^\[\[bench\]\]/ { on = 1; next } /^\[/ { on = 0 }
    on && $1 == "name" { gsub(/"/, "", $3); print $3 }' crates/bench/Cargo.toml); do
    [ "$bench" != micro ] || continue
    sh scripts/bench_gate.sh "$bench"
done

echo "==> bench smoke ok"
