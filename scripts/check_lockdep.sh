#!/bin/sh
# Lock-order and blocking-section analysis sweep (sim::lockdep).
#
# Lockdep rides inside the instrumented parking_lot shim: every Mutex /
# RwLock acquisition feeds a per-thread held-stack and a process-global
# acquisition-order graph, and violations print as `LOCKDEP: ...` lines
# on stderr the moment the closing edge is recorded — no hang needed.
#
# This script runs the lockdep-focused suites with the analyzer forced
# on (INFOGRAM_LOCKDEP=1, so the sweep also guards release-profile CI
# where debug_assertions are off) and fails on any LOCKDEP line:
#
#   - tests/lockdep.rs — the analyzer's own acceptance tests (cycle
#     detection, guard-across-blocking, held-at-exit, and the seeded
#     SubscriptionHub inversion). These capture their reports, so a
#     *seeded* violation is asserted on rather than printed. It also
#     runs tests/model_sub.rs's callback scenario on OS threads: job
#     Events pushed under exec.engine.jobs (the exec.engine.jobs ->
#     proto.outbox.state order) must draw no report.
#   - tests/push_sub.rs and tests/refresh_sched.rs — the two most
#     lock-heavy integration suites (delivery fan-out, scheduler wheel,
#     eviction under ticks) run as zero-finding sweeps.
#   - the workspace unit/integration default gate, same condition.
#
# `--nocapture` matters: the libtest harness swallows stderr of passing
# tests, which would hide findings from exactly the runs that matter.

set -eu

cd "$(dirname "$0")/.."

LOG="$(mktemp)"
trap 'rm -f "$LOG"' EXIT

run() {
    desc="$1"
    shift
    echo "==> lockdep sweep: ${desc}"
    INFOGRAM_LOCKDEP=1 "$@" -- --nocapture >"$LOG" 2>&1 || {
        cat "$LOG"
        echo "lockdep sweep: '${desc}' failed" >&2
        exit 1
    }
    if grep "^LOCKDEP:" "$LOG"; then
        echo "lockdep sweep: findings in '${desc}' (see above)" >&2
        exit 1
    fi
}

run "tests/lockdep.rs (acceptance)" cargo test -q -p infogram --test lockdep
run "tests/push_sub.rs" cargo test -q -p infogram --test push_sub
run "tests/refresh_sched.rs" cargo test -q -p infogram --test refresh_sched
run "workspace suites" cargo test -q --workspace

# The examples drive the full sandbox stack over the real wire and
# exercise service paths the unit suites do not (the first sweep of
# them caught a jobs-lock-across-outbox-send hold that every test
# missed). No `--nocapture` dance needed: examples own their stderr.
for ex in quickstart metrics scheduler sporadic_grid subscribe \
          untrusted_jobs vo_monitor ws_gateway; do
    echo "==> lockdep sweep: example ${ex}"
    INFOGRAM_LOCKDEP=1 cargo run -q --example "$ex" >"$LOG" 2>&1 || {
        cat "$LOG"
        echo "lockdep sweep: example '${ex}' failed" >&2
        exit 1
    }
    if grep "^LOCKDEP:" "$LOG"; then
        echo "lockdep sweep: findings in example '${ex}' (see above)" >&2
        exit 1
    fi
done

echo "==> lockdep: zero findings"
