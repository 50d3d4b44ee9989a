#!/bin/sh
# Crash-consistency gate: the restart-recovery and crash-storm suites,
# with a sim::fault::Plan attached to the simulated disk
# (MemStorage::with_plan) where the scenario calls for a misbehaving one.
#
#   - tests/restart_recovery.rs — kill a service with jobs in flight,
#     restart a new incarnation over the same file-backed WAL: jobs
#     recovered, outcomes kept, accounting intact, epoch advanced.
#   - tests/wal_crash.rs — the frame-format contract: truncation at
#     every byte prefix recovers exactly the contained frames, a flip
#     of any single byte never invents history — swept over a history on
#     MemStorage, and over a segment headed by a checkpoint larger than
#     the read buffer on MemStorage and on FileStorage — a full disk
#     surfaces UNAVAILABLE + retry-after-ms on the wire (then heals), and
#     recovery damage shows up in (info=metrics).
#   - crates/exec/tests/hostile_wal.rs — recovery's largest allocation:
#     every cut and bit flip of a small file log, and an intact log many
#     read buffers long, reopen without asking for more than one
#     constant at once.
#   - e20_crash_storm (quick) — a seeded disk-fault storm with a
#     mid-storm power loss; writes BENCH_crash_storm.json and gates on
#     its pass flag: zero acked-submission loss, zero resurrected
#     finished jobs, checkpoint + bounded-tail replay, honest
#     degradation, byte-identical replay from the seed.
#
# (The group-commit schedule exploration lives in tests/model_wal.rs,
# run by scripts/check_model.sh.)

set -eu

cd "$(dirname "$0")/.."

echo "==> crash suite: tests/restart_recovery.rs"
cargo test --test restart_recovery -q

echo "==> crash suite: tests/wal_crash.rs"
cargo test --test wal_crash -q

echo "==> crash suite: crates/exec/tests/hostile_wal.rs"
cargo test -p infogram-exec --test hostile_wal -q

. scripts/bench_gate.sh

run_bench_gate e20_crash_storm E20_QUICK E20_JSON BENCH_crash_storm.json

echo "==> crash gate ok"
