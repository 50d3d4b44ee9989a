#!/bin/sh
# Run one experiment bench of infogram-bench and fail unless the report
# it writes, target/bench/<bench>.json, says `"pass": true`.
#
# Usage: scripts/bench_gate.sh <bench>
#
# BENCH_QUICK=1 is set: the benches too slow to run in full on every
# gate take their smaller smoke run, the rest ignore it. The old report
# is removed first, so a bench that dies before writing one fails.

set -eu

cd "$(dirname "$0")/.."

report="target/bench/$1.json"
echo "==> $1 -> $report"
rm -f "$report"
BENCH_QUICK=1 cargo bench -q -p infogram-bench --bench "$1"
grep -q '"pass": true' "$report" || {
    echo "bench gate FAILED: $report does not report pass=true" >&2
    exit 1
}
