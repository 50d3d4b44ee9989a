#!/bin/sh
# Smoke-run the acceptance-gated benchmarks and gate on their pass flags.
#
#   - e16_parallel_fanout (quick: 3 rounds per K, 20k hit-path queries)
#     writes BENCH_parallel_fanout.json; asserts `(info=all)` over 4
#     slow keywords stays within 1.5x of one provider's cost.
#   - e17_fault_storm (quick: 400 rounds) writes BENCH_fault_storm.json;
#     asserts >=99% availability under a seeded 10% provider-failure
#     storm and byte-identical replay from the seed.
#   - e18_refresh_sched (quick: 600 rounds) writes
#     BENCH_refresh_sched.json; asserts a >=99.9% hit rate at steady
#     load with strictly fewer provider executions than TTL-expiry
#     polling, cold keywords skipped, and byte-identical replay.
#   - e19_push_sub (quick: 10k subscriptions) writes
#     BENCH_push_sub.json; asserts every subscriber receives every
#     version of its keyword exactly once in order (zero missed
#     updates) with bounded p99 per-subscriber fan-out cost.
#
# Each bench asserts its own acceptance criterion and exits non-zero on
# regression, so this doubles as a CI gate. A few seconds total.

set -eu

cd "$(dirname "$0")/.."

. scripts/bench_gate.sh

run_bench_gate e16_parallel_fanout E16_QUICK E16_JSON BENCH_parallel_fanout.json
run_bench_gate e17_fault_storm E17_QUICK E17_JSON BENCH_fault_storm.json
run_bench_gate e18_refresh_sched E18_QUICK E18_JSON BENCH_refresh_sched.json
run_bench_gate e19_push_sub E19_QUICK E19_JSON BENCH_push_sub.json

echo "==> bench smoke ok"
