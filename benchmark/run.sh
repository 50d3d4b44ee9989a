#!/usr/bin/env bash
# e21, the wire budget: build the benchmark, then run it.
#
#   benchmark/run.sh [--seed N]
#       every workload, each in its own process: an untraced run (the
#       end-to-end metrics) and a traced run (the per-layer metrics and the
#       budget table). Exits non-zero if any output check fails. The ten
#       results are also gathered into <out>/suite_seed<N>.json.
#   benchmark/run.sh --workload NAME [--seed N] [--trace 0|1]
#       one run. The last line of standard output is the result as JSON.
#       (`--seconds 20`, which BENCHMARK.json's driver appends, is accepted;
#       the run length is fixed and no other value is.)
#
# Results and traces land in benchmark/out/ (or --out DIR). The build goes
# to $CARGO_TARGET_DIR (default: the repository's target/), offline.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

# Build output goes to standard error: standard output carries results only.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/e21-wire-budget"

# Provenance the binary cannot find out by itself. A checkout without .git
# (an exported tree) reports its commit as unknown rather than some parent
# directory's.
E21_GIT_SHA=unknown
if [ -e .git ] && sha="$(git rev-parse HEAD 2>/dev/null)"; then
    E21_GIT_SHA="$sha"
    if [ -n "$(git status --porcelain --untracked-files=no 2>/dev/null | head -n 1)" ]; then
        E21_GIT_SHA="$sha+dirty"
    fi
fi
E21_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
export E21_GIT_SHA E21_RUSTC

seed=1 out=benchmark/out prev=""
for arg in "$@"; do
    case "$prev" in
        --seed) seed="$arg" ;;
        --out) out="$arg" ;;
    esac
    if [ "$arg" = "--workload" ]; then
        exec "$bin" "$@"
    fi
    prev="$arg"
done

status=0
for workload in info_hit info_wide info_refresh job_submit connect_churn; do
    for trace in 0 1; do
        "$bin" --workload "$workload" --trace "$trace" "$@" || status=1
        echo
    done
done
{
    echo "["
    sep=""
    for workload in info_hit info_wide info_refresh job_submit connect_churn; do
        for trace in 0 1; do
            printf '%s' "$sep"
            cat "$out/result_${workload}_seed${seed}_trace${trace}.json"
            sep=","
        done
    done
    echo "]"
} > "$out/suite_seed${seed}.json"
echo "suite written to $out/suite_seed${seed}.json"
exit "$status"
