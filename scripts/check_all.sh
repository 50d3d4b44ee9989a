#!/bin/sh
# The full local gate, in dependency order:
#
#   1. cargo fmt --check — formatting drift fails fast
#   2. infogram-lint — the two rules no compiler pass can see
#      (guard-across-call, pub items without a caller); see crates/lint.
#      The unwrap, print, clock and thread rules are clippy's, checked
#      in step 3 (DESIGN §9.1)
#   3. scripts/check_docs.sh — rustdoc + clippy, warnings as errors
#   4. cargo test --workspace — every unit, doc, and integration test,
#      the crash-consistency suites among them (tests/restart_recovery.rs,
#      tests/wal_crash.rs, crates/exec/tests/hostile_wal.rs); then
#      crates/exec/tests/job_memory.rs once more in release (its
#      byte and allocation ceilings hold in both builds), printing what
#      it measured: the table DESIGN §14.5 quotes, beside its ceilings
#   5. scripts/check_lockdep.sh — lock-order / blocking-section sweep:
#      the key suites re-run with parking_lot::lockdep forced on, failing on
#      any LOCKDEP finding
#   6. scripts/check_model.sh — bounded schedule-exploration model
#      checking of the concurrency core (seconds; EXHAUSTIVE=1 for the
#      unbounded sweep)
#   7. scripts/bench_smoke.sh — every experiment bench (Table 1,
#      Figures 1 and 4, E5–E20; quick mode where a bench has one),
#      each failing unless its named claims hold (reports under
#      target/bench/)
#   8. scripts/chaos_smoke.sh — the full sandbox under a seeded random
#      fault + disk-fault storm: zero panics, bounded error rate,
#      replayable seed
#   9. (cd benchmark && cargo test --offline --locked -q) — the frozen
#      e21 benchmark still builds against the crates' API and passes its
#      unit tests (not the 3-minute run); `--locked` fails a
#      `[dependencies]` edge that would rewrite benchmark/Cargo.lock
#  10. scripts/loc.sh --total — first-party non-test lines, printed; a
#      gate, not a report: check_docs.sh (step 3) fails above its
#      LOC_CEILING
#  11. `git status --porcelain` is what it was before step 1: the gate
#      writes only ignored files
#
# Works fully offline; expect a few minutes on a cold target dir.

set -eu

cd "$(dirname "$0")/.."

tree_before="$(git status --porcelain 2>/dev/null || true)"

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

sh scripts/bench_smoke.sh

sh scripts/chaos_smoke.sh

echo "==> benchmark package: build + unit tests"
(cd benchmark && cargo test --offline --locked -q)

echo "==> first-party non-test lines (scripts/loc.sh, at most check_docs.sh's LOC_CEILING): $(sh scripts/loc.sh --total)"

echo "==> the gate left the tree as it found it (git status --porcelain)"
tree_after="$(git status --porcelain 2>/dev/null || true)"
if [ "$tree_before" != "$tree_after" ]; then
    printf 'git status --porcelain before:\n%s\nafter:\n%s\n' "$tree_before" "$tree_after" >&2
    exit 1
fi

echo "==> all gates green"
