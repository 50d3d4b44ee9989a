#!/bin/sh
# The full local gate, in dependency order:
#
#   1. cargo fmt --check — formatting drift fails fast
#   2. infogram-lint — the workspace's own token-oriented lint pass
#      (clock discipline, unwrap policy, guard-across-call, config
#      table markers); see crates/lint
#   3. scripts/check_docs.sh — rustdoc + clippy, warnings as errors
#   4. cargo test --workspace — every unit, doc, and integration test;
#      then crates/exec/tests/job_memory.rs once more in release (its
#      byte and allocation ceilings hold in both builds), printing what
#      it measured: the table DESIGN §14.5 quotes, beside its ceilings
#   5. scripts/check_lockdep.sh — lock-order / blocking-section sweep:
#      the key suites re-run with sim::lockdep forced on, failing on
#      any LOCKDEP finding
#   6. scripts/check_model.sh — bounded schedule-exploration model
#      checking of the concurrency core (seconds; EXHAUSTIVE=1 for the
#      unbounded sweep)
#   7. scripts/check_crash.sh — crash consistency: restart-recovery
#      and WAL crash-point suites plus the quick E20 crash storm under
#      injected disk faults (writes BENCH_crash_storm.json)
#   8. scripts/bench_smoke.sh — quick E16 + E17 + E18 + E19 runs
#      gating on the fan-out, fault-storm, refresh-scheduler and
#      push-subscription acceptance criteria (writes
#      BENCH_parallel_fanout.json, BENCH_fault_storm.json,
#      BENCH_refresh_sched.json and BENCH_push_sub.json)
#   9. scripts/chaos_smoke.sh — the full sandbox under a seeded random
#      fault + disk-fault storm: zero panics, bounded error rate,
#      replayable seed
#  10. (cd benchmark && cargo test --offline --locked -q) — the frozen
#      e21 benchmark still builds against the crates' API and passes its
#      unit tests (not the 3-minute run); `--locked` fails a
#      `[dependencies]` edge that would rewrite benchmark/Cargo.lock
#  11. scripts/loc.sh --total — first-party non-test lines, printed as a
#      report, not a gate
#
# Works fully offline; expect a few minutes on a cold target dir.

set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> infogram-lint"
cargo run -q -p infogram-lint --

sh scripts/check_docs.sh

echo "==> cargo test --workspace"
cargo test --workspace -q

echo "==> job_memory ceilings, release build"
# One thread, so the printed table is not interleaved with `test … ok`.
cargo test --release -q -p infogram-exec --test job_memory -- --nocapture --test-threads=1

sh scripts/check_lockdep.sh

sh scripts/check_model.sh

sh scripts/check_crash.sh

sh scripts/bench_smoke.sh

sh scripts/chaos_smoke.sh

echo "==> benchmark package: build + unit tests"
(cd benchmark && cargo test --offline --locked -q)

echo "==> first-party non-test lines (scripts/loc.sh, a report): $(sh scripts/loc.sh --total)"

echo "==> all gates green"
