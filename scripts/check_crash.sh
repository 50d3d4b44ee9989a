#!/bin/sh
# Crash-consistency suites, on their own: the restart-recovery and
# crash-storm suites, with a sim::fault::Plan attached to the simulated
# disk (MemStorage::with_plan) where the scenario calls for a
# misbehaving one. scripts/check_all.sh runs the same tests, with the
# same flags, in its `cargo test --workspace` step; run this script to
# check crash consistency alone.
#
#   - tests/restart_recovery.rs — kill a service with jobs in flight,
#     restart a new incarnation over the same file-backed WAL: jobs
#     recovered, outcomes kept, accounting intact, epoch advanced.
#   - tests/wal_crash.rs — the frame-format contract: truncation at
#     every byte prefix recovers exactly the contained frames, a flip
#     of any single byte never invents history — swept over a history on
#     MemStorage, and over a segment headed by a checkpoint larger than
#     the read buffer on MemStorage and on FileStorage — jobs committed
#     after a torn tail at every byte prefix (MemStorage; the last two
#     frames' cuts on FileStorage) survive the next reopen, a full disk
#     surfaces UNAVAILABLE + retry-after-ms on the wire (then heals), a
#     disk whose every fsync fails is found by the first submission and
#     one refusing appends is read-only from boot, and recovery damage
#     shows up in (info=metrics).
#   - crates/exec/tests/hostile_wal.rs — recovery's largest allocation:
#     every cut and bit flip of a small file log, and an intact log many
#     read buffers long, reopen without asking for more than one
#     constant at once.
#
# (The group-commit schedule exploration lives in tests/model_wal.rs,
# run by scripts/check_model.sh; the e20_crash_storm bench — a seeded
# disk-fault storm with a mid-storm power loss — is gated with every
# other bench by scripts/bench_smoke.sh.)

set -eu

cd "$(dirname "$0")/.."

echo "==> crash suite: tests/restart_recovery.rs"
cargo test --test restart_recovery -q

echo "==> crash suite: tests/wal_crash.rs"
cargo test --test wal_crash -q

echo "==> crash suite: crates/exec/tests/hostile_wal.rs"
cargo test -p infogram-exec --test hostile_wal -q

echo "==> crash gate ok"
