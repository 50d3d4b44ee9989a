#!/bin/sh
# Schedule-exploration model checking for the concurrency core: clippy
# over the `model` feature configuration (which the default gate never
# compiles), infogram-sim's own sim::model unit tests (the explorer
# checking itself), then each suite in SUITES below — tests/<suite>.rs,
# whose doc comment says which invariants and seeded regressions it
# holds.
#
# Bounds: by default explorations use a CHESS-style preemption bound of
# 2 and a 4000-execution budget per scenario — seconds of wall time.
#
#   EXHAUSTIVE=1 scripts/check_model.sh
#
# lifts the preemption bound and raises the budget to 200k executions
# per scenario (still well under a minute on this suite). Fine-grained
# knobs: MODEL_MAX_EXECUTIONS, MODEL_PREEMPTION_BOUND.

set -eu

cd "$(dirname "$0")/.."

SUITES="model_concurrency model_fault model_sched model_sub model_wal"

MODE=bounded
if [ "${EXHAUSTIVE:-0}" = "1" ]; then
    MODE=exhaustive
fi

echo "==> cargo clippy (--features model) -- -D warnings"
cargo clippy -p infogram-sim -p infogram --all-targets --features model -- -D warnings

echo "==> model suite: infogram-sim (${MODE})"
cargo test -p infogram-sim --features model -q

for suite in $SUITES; do
    echo "==> model suite: tests/${suite}.rs (${MODE})"
    cargo test -p infogram --features model --test "$suite" -q
done

echo "==> model checking green (${MODE})"
