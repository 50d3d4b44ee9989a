# Sourced by bench_smoke.sh and check_crash.sh (cwd = repo root).
#
# run_bench_gate <bench> <QUICK env> <JSON env> <file>
#
# Runs one acceptance-gated bench of infogram-bench in its quick mode
# and fails unless the JSON it wrote reports `"pass": true`. `cargo
# bench` runs the binary from the package directory, so the output path
# is anchored at the repo root.
run_bench_gate() {
    echo "==> $1 (quick) -> $4"
    env "$2=1" "$3=$(pwd)/$4" cargo bench -q -p infogram-bench --bench "$1"
    grep -q '"pass": true' "$4" || {
        echo "bench gate FAILED: $4 does not report pass=true" >&2
        exit 1
    }
}
