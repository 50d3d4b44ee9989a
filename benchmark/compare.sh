#!/usr/bin/env bash
# Run two full sets of untraced runs and compare them, per workload and
# end-to-end metric, against the bounds in BENCHMARK.json.
#
#   benchmark/compare.sh [--seed N] [--runs R] [--against DIR]
#
# Set A is this checkout. Set B is this checkout again (how far do two runs
# of the same code disagree?) or, with --against DIR, the checkout at DIR
# (parent versus change). Each set is R runs per workload (default 1) on
# seeds N, N+1, …; A and B alternate which goes first. Prints both medians,
# the relative difference (positive = B worse), the bound of the gated
# metrics and, from R >= 4, each set's spread (interquartile distance /
# median). Exits 1 if a gated metric of B is worse than A's by more than
# its bound, or a run failed its output checks.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed=1 runs=1 other="$here/.."
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="$2" ;;
        --runs) runs="$2" ;;
        --against) other="$2" ;;
        *) echo "compare.sh: unknown argument '$1'" >&2; exit 2 ;;
    esac
    shift 2
done
other="$(cd "$other" && pwd)"
out="$here/out/compare"
rm -rf "$out"
mkdir -p "$out/A" "$out/B"

one() { # side checkout workload seed
    "$2/benchmark/run.sh" --workload "$3" --seed "$4" --trace 0 --out "$out/$1" \
        >"$out/$1/log_$3_$4.txt" \
        || echo "compare.sh: $1 $3 seed $4 failed (see $out/$1/log_$3_$4.txt)" >&2
}

for ((r = 0; r < runs; r++)); do
    for workload in info_hit info_wide info_refresh job_submit connect_churn; do
        if ((r % 2 == 0)); then
            one A "$here/.." "$workload" $((seed + r)); one B "$other" "$workload" $((seed + r))
        else
            one B "$other" "$workload" $((seed + r)); one A "$here/.." "$workload" $((seed + r))
        fi
        echo "compare.sh: $workload seed $((seed + r)) done" >&2
    done
done

python3 - "$here/../BENCHMARK.json" "$out" "$runs" <<'PY'
import glob, json, statistics, sys

contract, out, runs = json.load(open(sys.argv[1])), sys.argv[2], int(sys.argv[3])
gated = {m["name"]: m for m in contract["end_to_end"]}
better = {m["name"]: m["better"] for m in contract["end_to_end"] + contract["per_layer"]}

def load(side):
    values, bad = {}, 0
    for path in sorted(glob.glob(f"{out}/{side}/result_*_trace0.json")):
        r = json.load(open(path))
        bad += 0 if r["correct"] else 1
        for name, m in list(r["metrics"].items()) + list(r["speed"].items()):
            values.setdefault((r["workload"], name), []).append(m["value"])
    return values, bad

def spread(v):
    if len(v) < 4:
        return ""
    q = statistics.quantiles(v, n=4)
    return f"{100 * (q[2] - q[0]) / statistics.median(v):.1f}%"

a, bad_a = load("A")
b, bad_b = load("B")
expected = runs * len(contract["workloads"])
failed = bad_a + bad_b > 0
for side in "AB":
    got = len(glob.glob(f"{out}/{side}/result_*_trace0.json"))
    if got != expected:
        print(f"set {side}: {got} results, expected {expected}")
        failed = True
print(f"{'workload':<14} {'metric':<18} {'median A':>12} {'median B':>12} {'B worse by':>10} {'bound':>6} "
      f"{'spread A':>8} {'spread B':>8}")
for w in contract["workloads"]:
    names = [n for (wl, n) in a if wl == w["name"]]
    for name in names:
        key = (w["name"], name)
        if key not in b:
            continue
        ma, mb = statistics.median(a[key]), statistics.median(b[key])
        worse = (mb - ma) / ma if better[name] == "lower" else (ma - mb) / ma
        bound = gated[name]["bound"] if name in gated else None
        over = bound is not None and worse > bound
        failed |= over
        print(f"{w['name']:<14} {name:<18} {ma:>12.4f} {mb:>12.4f} {100 * worse:>9.1f}% "
              f"{'' if bound is None else f'{100 * bound:.0f}%':>6} {spread(a[key]):>8} {spread(b[key]):>8}"
              f"{'  OVER BOUND' if over else ''}")
print("metrics without a bound are reported, not gated (see README.md)")
if bad_a + bad_b:
    print(f"{bad_a + bad_b} runs reported incorrect output")
sys.exit(1 if failed else 0)
PY
