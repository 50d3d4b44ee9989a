#!/bin/sh
# Chaos smoke: the full sandbox under a randomized-but-seeded fault
# storm (examples/chaos.rs).
#
# Each run draws a fresh storm seed (printed up front) for one fault
# plan, hammers the service through a real client while 10% of
# provider executions fail and the same plan faults the WAL's disk
# (failed appends, short writes, failed fsyncs — submissions refused
# UNAVAILABLE while the log is read-only must land on retry), and
# asserts zero panics plus a bounded query-error rate. To replay a
# failing run's draws exactly:
#
#   SEED=<printed seed> scripts/chaos_smoke.sh
#
# ROUNDS=<n> scales the run length (default 40 rounds x 5 keywords).

set -eu

cd "$(dirname "$0")/.."

echo "==> chaos smoke (examples/chaos.rs)"
cargo run -q --release --example chaos

echo "==> chaos smoke ok"
