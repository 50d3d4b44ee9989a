#!/usr/bin/env python3
"""Generate EXPERIMENTS.md from a captured `cargo bench --workspace` run.

Each experiment bench prints a banner block; this script slices those
blocks out of bench_output.txt and wraps them with the paper-vs-measured
commentary. Re-run after any bench change:

    cargo bench --workspace 2>&1 | tee bench_output.txt
    python3 scripts/gen_experiments.py
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RAW = (ROOT / "bench_output.txt").read_text()

# Split the raw output into banner-delimited experiment blocks keyed by id.
# A banner is a 4-line unit:
#     ================...
#     <ID>: <title>
#     expected shape: ...
#     ================...
lines = RAW.splitlines()
id_re = re.compile(r"^[A-Z][A-Z0-9]*: ")
starts = [
    k
    for k in range(len(lines) - 3)
    if lines[k].startswith("====")
    and id_re.match(lines[k + 1])
    and lines[k + 3].startswith("====")
]
NOISE_PREFIXES = (
    "     Running ",
    "   Compiling ",
    "    Finished ",
    "Gnuplot not found",
    "Benchmarking",
    "running ",
    "test result",
)
blocks = {}
for idx, k in enumerate(starts):
    end = starts[idx + 1] if idx + 1 < len(starts) else len(lines)
    exp_id = lines[k + 1].split(":", 1)[0].strip()
    body = []
    for line in lines[k:end]:
        if line.startswith(NOISE_PREFIXES):
            break
        body.append(line)
    blocks[exp_id] = "\n".join(body).rstrip()

ORDER = [
    ("T1", "Table 1 — the configuration file, executed",
     "Paper artifact: Table 1 lists the literal `(TTL, keyword, command)` rows. "
     "The paper asserts the semantics in prose (`0 specifies execution of the "
     "keyword every time it is requested`); it reports no measurements.",
     "The literal five rows, driven by a fixed 200-query schedule at 10 ms "
     "spacing on the virtual clock. Hit ratio tracks TTL exactly (TTL T ⇒ "
     "~1 execution per T/10 ms of queries); the TTL=0 CPULoad row executes on "
     "all 200 queries. The table's semantics hold as specified."),
    ("F1", "Figure 1 — GRAM three-tier architecture",
     "Paper artifact: an architecture diagram (client tier → gatekeeper/job "
     "manager → local execution); no measurements.",
     "Measured as a per-tier latency breakdown over 40 jobs. The backend tier "
     "(the job's own 20 ms runtime) dominates; gatekeeper cost (GSI handshake "
     "+ gridmap) is paid once per connection; job-manager operations are tens "
     "of microseconds. This is the cost structure the unification argument "
     "relies on: the per-connection column is what Figure 4 halves."),
    ("F2", "Figure 2 — the baseline: separate GRAM + MDS",
     "Paper artifact: a diagram showing a client forced to contact two "
     "services over two protocols; the paper's complaint is qualitative "
     "(`not only do the services operate through different ports, but they "
     "also use different protocols`).",
     "Measured: a closed-loop 50/50 info/jobs workload against the separate "
     "services. Connections = 2 x clients (one GRAM, one MDS bind per "
     "client), two protocols on the wire, two GSI handshakes per client."),
    ("F3", "Figure 3 — the InfoGram architecture",
     "Paper artifact: the unified-architecture diagram (shaded additions to "
     "GRAM: logger, system monitor, system information service).",
     "Measured: the identical workload against the unified service. "
     "Connections = 1 x clients; one protocol; info queries travel as xRSL "
     "submits on the job connection. Mean latency is lower than the baseline "
     "mostly because the MDS path must refresh a whole GRIS subtree per "
     "search while the native path touches only the requested keyword."),
    ("F4", "Figure 4 — unified vs separate, head to head",
     "Paper artifact: `The new InfoGram service reduces the number of "
     "protocols and components in a Grid` — the headline claim, asserted "
     "structurally.",
     "Measured: the claim quantified across the job/info mix. The unified "
     "service does the same work with exactly half the connections and "
     "handshakes at every p_info, at equal-or-better latency. Byte volume "
     "is comparable (the unified LDIF bodies run larger at high info "
     "fractions because they carry the quality/age annotations the MDS "
     "view lacks). The structural table is Figure 2 vs Figure 4 in rows. "
     "**This is the paper's thesis, and it holds.**"),
    ("E5", "E5 — caching beats exec-per-request (§5.1)",
     "Paper claim: `it would be wasteful to execute the command requesting "
     "the load every single time. Instead, it can be more efficient to cache "
     "this value` — asserted, not measured.",
     "Measured: with 1000 polling clients, a 1 s TTL serves queries ~1000x "
     "faster than exec-per-request while backend executions drop from ~50/s "
     "to 1/s; the cost is bounded staleness (~TTL/2 mean). With one client "
     "and a TTL shorter than the polling gap the cache buys nothing — also "
     "the correct shape."),
    ("E6", "E6 — degradation functions and the quality threshold (§5.2/§6.4/§6.6)",
     "Paper claim: attaching a degradation function and a `quality` "
     "threshold lets clients trade refresh work for accuracy; the semantics "
     "are specified, no numbers given.",
     "Measured against a drifting AR(1) CPU load with ground truth "
     "available: refresh count and served accuracy both rise monotonically "
     "with the threshold (1 → 18 refreshes, error 0.34 → 0.17 over the "
     "sweep). Binary degradation is all-or-nothing while linear/exponential "
     "trade smoothly — the distinction §5.2 draws between its two cases."),
    ("E7", "E7 — response modes (§6.6)",
     "Paper claim: `immediate` executes regardless of TTL, `cached` serves "
     "if valid else refreshes, `last` returns the stored value without "
     "updating.",
     "Measured: 240 queries at 4 Hz against a 1 s TTL. `immediate` = 240 "
     "executions, `cached` = ~60 (one per TTL window), `last` = 0 with the "
     "served copy simply ageing. Latency orders exactly as the semantics "
     "imply: last < cached < immediate."),
    ("E8", "E8 — the performance tag (§6.6)",
     "Paper claim: `the performance tag returns the number of seconds and "
     "the standard deviation about how long it takes to obtain a particular "
     "information value`.",
     "Measured against commands with known cost distributions: after 300 "
     "catalogued executions the reported mean is within ~0.2% of truth and "
     "the reported σ tracks the configured dispersion across a 40x range of "
     "cost scales."),
    ("E9", "E9 — update monitors and the delay throttle (§6.2)",
     "Paper claim: `if multiple updateState methods are invoked, monitors "
     "are used to perform only one such update at a time`, plus a `delay` "
     "that rate-limits consecutive refreshes.",
     "Measured with real threads against a 30 ms provider: storms of up to "
     "32 concurrent updaters collapse to exactly 1 execution each (a 32x "
     "saving against the no-monitor baseline of one execution per caller); "
     "the delay gate caps executions at ~1 per delay window."),
    ("E10", "E10 — restart from the logging service (§6/§6.1/§10)",
     "Paper claim: `the log can be used to restart our InfoGRAM service in "
     "case it needs to be restarted`, and jobs restart automatically on "
     "failure.",
     "Measured: a service killed with up to 50 jobs in flight recovers all "
     "of them from a file-backed WAL in under ~10 ms, keeps terminal "
     "outcomes, and restarts each unfinished job from its logged xRSL (`the "
     "command used and arguments` — exactly what the paper says it logs). "
     "A failing job with retry budget N restarts exactly N times."),
    ("E11", "E11 — untrusted jobs in a trusted environment (§5.5/§7)",
     "Paper claim: J-GRAM executes untrusted jar files either in the "
     "service's own JVM or in a separate JVM `to increase security`; `the "
     "Grid administrator must decide which mode should be run`.",
     "Measured: the enforcement matrix blocks every hostile operation "
     "(filesystem escape, exfiltration, fork bomb, compute bomb) in both "
     "modes; the difference is the failure domain — an in-process violation "
     "contaminates the host where isolation contains it — against a "
     "constant ~50 µs/op crossing cost (1.05x on compute-bound jobs). That "
     "is the administrator's trade, quantified."),
    ("E12", "E12 — LDIF/XML formats and MDS integration (§3/§5.5/§6.6)",
     "Paper claim: output renders as LDIF or XML; the provider `can easily "
     "be integrated into the Globus MDS information service architecture`, "
     "enabling `a gradual transition`.",
     "Measured: the MDS-bridge view is attribute-identical to the native "
     "view for all five Table 1 keywords, and rendering costs well under a "
     "microsecond per record in every format (XML ~40% larger than LDIF on "
     "the wire). `annotated` rows are what the service sends — one quality "
     "and one age per record, which LDIF and XML say once in the record's "
     "head (46 bytes over the bare record, however many attributes) and the "
     "`plain` debugging format repeats on every line; `bare` rows are "
     "hand-built records with neither. DSML — which the paper says is "
     "`straightforward to support` — is also implemented and equally cheap."),
    ("E13", "E13 — security: handshake and contracts (§5.3)",
     "Paper claim: GSI provides authentication; the paper *aspires* to "
     "contracts `such as allow access to this resource from 3 to 4 pm to "
     "user X`.",
     "Measured: handshake CPU grows linearly with delegation depth (chain "
     "verification dominates), and the decision matrix implements the "
     "paper's example literally — Alice inside her 3–4 pm window is allowed "
     "(directly or through a live proxy), outside it denied, with expired "
     "proxies and unmapped users rejected at the right layers."),
    ("E14", "E14 — sporadic grids (§8)",
     "Paper claim: InfoGram suits grids `created just for a short period of "
     "time during sophisticated experiments at synchrotrons or photon "
     "sources`, being `easy to install it on a number of machines`.",
     "Measured: a 16-node grid is up (services + aggregate registration) in "
     "about a millisecond, answers its first scheduling query immediately, "
     "and runs a scan→acquire→analyze jarlet pipeline whose makespan (~95 "
     "ms of simulated analysis) dwarfs the bring-up — the deployment-speed "
     "property the scenario needs."),
    ("E15", "E15 — aggregate caching ablation (§3)",
     "Paper claim: `to increase the scalability of a distributed "
     "information service, the MDS provides an information caching "
     "function`.",
     "Measured: the GIIS member cache cuts pull traffic proportionally to "
     "its TTL (10 s cache ⇒ 10% of the no-cache pulls at 1 query/s) at the "
     "price of bounded staleness — the same freshness/load dial as E5, one "
     "level up the hierarchy. The TTL=0 row is the no-cache ablation."),
    ("E16", "E16 — scatter-gather fan-out and the interned-handle hit path",
     "No direct paper artifact — this is a performance property of the "
     "reproduction itself: `(info=all)` must not serialize K slow "
     "providers, and the cache-hit path must not pay per-query metric-name "
     "formatting or attribute deep-copies.",
     "Measured: the fan-out pool holds `(info=all)` at ~1.01× one "
     "provider's cost out to K=8 (sequential would be 8×, ~201 ms), and "
     "the warm hit path serves ~1.5 M queries/s through pre-interned "
     "keyword handles and `Arc`-shared snapshots (`hit_path_ns_per_query`, "
     "`InformationService::answer` alone); the same query as xRSL text "
     "through `InfoGramDispatcher::dispatch` — parse, accounting, answer, "
     "render, dispatch telemetry — runs at ~0.7 M/s "
     "(`dispatch_hit_ns_per_query`). Both are the minimum of 5 "
     "repetitions, so the figures compare across commits. Smoke gate: "
     "`scripts/bench_smoke.sh` runs the quick variant and fails unless "
     "`BENCH_parallel_fanout.json` reports `pass: true` (K=4 within 1.5× "
     "of one provider)."),
    ("E17", "E17 — fault storm: supervised fetches under provider failure",
     "No direct paper artifact — the paper assumes providers execute; this "
     "measures the reproduction's fault-domain supervisor (DESIGN.md §10) "
     "under a seeded storm of failures, hangs and slowdowns.",
     "Measured: with 10% of provider executions failing (plus 300 ms hangs "
     "that blow the deadline budgets), ≥99% of queries are still answered "
     "— retried in-fetch where the budget allows, served last-known-good "
     "and honestly tagged degraded where it does not — and the whole run "
     "replays byte-identically from its seed. Smoke gate: "
     "`scripts/bench_smoke.sh` runs the quick variant and fails unless "
     "`BENCH_fault_storm.json` reports `pass: true`."),
    ("E18", "E18 — adaptive refresh scheduling vs TTL-expiry polling",
     "No direct paper artifact — the paper refreshes reactively (a query "
     "after TTL expiry blocks on `updateState`). This measures the "
     "reproduction's refresh scheduler (DESIGN.md §11), which prefetches "
     "from the §6.6 performance catalog and the observed query demand.",
     "Measured: with demand concentrated on two hot and one warm keyword, "
     "the scheduler holds a ≥99.9% cache-hit rate at steady load while "
     "executing strictly fewer provider invocations than polling every "
     "keyword each TTL (cold keywords are skipped, not refreshed), and "
     "replays byte-identically from its seed. Smoke gate: "
     "`scripts/bench_smoke.sh` runs the quick variant and fails unless "
     "`BENCH_refresh_sched.json` reports `pass: true`."),
    ("E19", "E19 — push-subscription fan-out at scale",
     "No direct paper artifact — the paper's queries are pull-only; this "
     "measures the reproduction's `(action=subscribe)` delivery pipeline "
     "(DESIGN.md \u00a712): 100k standing subscriptions across 64 keywords, "
     "every update frame round-tripped through the real wire encoding.",
     "Measured: every subscriber receives every version of its keyword "
     "exactly once, in order — zero missed updates across 2M deliveries — "
     "and fan-out cost is O(subscribers-of-keyword): p99 notify latency "
     "divided by the keyword's subscriber count stays in the low "
     "microseconds. Smoke gate: `scripts/bench_smoke.sh` runs the quick "
     "variant (10k subscriptions) and fails unless `BENCH_push_sub.json` "
     "reports `pass: true`."),
    ("E20", "E20 — crash storm: the WAL under injected disk faults",
     "Paper claim (\u00a76): `Logging and check pointing is enabled through "
     "a logging service ... the log can be used to restart our InfoGRAM "
     "service`. This measures the reproduction's crash-consistent WAL "
     "(DESIGN.md \u00a714) under a seeded disk-fault storm — failed appends, "
     "short writes, failed fsyncs, a mid-storm power loss — not just a "
     "clean restart (that is E10).",
     "Measured: every acked submission survives the power loss, no job "
     "observed terminal before the crash is resurrected, recovery replays "
     "checkpoint + a bounded tail (not the whole history) in "
     "sub-millisecond time, faulty-disk windows surface as honest "
     "UNAVAILABLE refusals rather than silent acks, and the entire run — "
     "acks, refusals, outcomes, recovery stats — replays byte-identically "
     "from its seed. Gate: `scripts/check_crash.sh` runs the quick "
     "variant plus the crash-point test suites and fails unless "
     "`BENCH_crash_storm.json` reports `pass: true`."),
]

out = []
out.append("""# EXPERIMENTS — paper vs. measured

Every artifact of the paper's evaluation (Table 1 and Figures 1–4 — the
paper's evaluation is architectural/qualitative; it reports **no**
quantitative tables) and every quantitative *claim* in its prose (E5–E15),
plus the reproduction's own performance and resilience properties
(E16–E20), is regenerated by a dedicated benchmark target. This file
pairs each with its measured outcome.

Reproduce everything with:

```console
$ cargo bench --workspace 2>&1 | tee bench_output.txt
$ python3 scripts/gen_experiments.py   # regenerates this file
```

Absolute numbers below come from one run on one machine (in-memory
transport, simulated hosts — see DESIGN.md §2 for the substitutions); the
*shapes* — who wins, by what factor, where the crossovers fall — are the
reproducible content. All cache/degradation experiments run on a virtual
clock and are bit-for-bit deterministic; the wire experiments use real
threads and real time and vary a few percent between runs.

Summary of shapes:

| id | paper says | measured verdict |
|----|------------|------------------|
| T1 | Table 1 semantics (TTL per keyword, 0 = always execute) | holds exactly |
| F1 | three-tier GRAM structure | backend dominates; gatekeeper cost is per-connection |
| F2/F3/F4 | unified service "reduces the number of protocols and components" | exactly 2x fewer connections & handshakes at every mix, latency at parity or better |
| E5 | caching beats exec-per-request for many clients | up to ~1000x latency win; backend load capped at 1/TTL |
| E6 | quality threshold trades refreshes for accuracy | monotone in both, as specified |
| E7 | immediate/cached/last semantics | execution counts 240/~60/0, latency ordered |
| E8 | performance tag reports mean + σ | within ~0.2% of ground truth |
| E9 | monitors collapse concurrent updates | exactly 1 execution per storm, up to 32x saving |
| E10 | restart from the log | 100% of in-flight jobs recovered, ~ms recovery |
| E11 | sandbox modes trade overhead vs containment | all attacks blocked; 1.05x isolation cost |
| E12 | LDIF/XML + MDS compatibility | attribute-identical views; µs-scale rendering |
| E13 | contracts like "3 to 4 pm for user X" | decision matrix matches the example literally |
| E14 | sporadic grids are practical | 16-node grid usable in ~1 ms |
| E15 | aggregate caching scales the MDS | pulls ∝ 1/TTL, staleness bounded by TTL |
| E16 | (ours) `(info=all)` must not serialize providers | K=8 slow keywords at ~1.01x one provider's cost; ~1.5 M hits/s (`answer`), ~0.7 M/s dispatched |
| E17 | (ours) failures must degrade, not error | ≥99% availability under a seeded 10% failure storm; deterministic replay |
| E18 | (ours) refresh on demand, not on a timer | ≥99.9% hit rate with strictly fewer executions than TTL polling |
| E19 | (ours) push subscriptions must not miss updates | 2M deliveries, zero gaps; fan-out ∝ subscribers-of-keyword, ~µs p99 each |
| E20 | restart from the log, on a disk that lies | zero acked-loss / zero resurrections through a mid-storm power loss; checkpoint + bounded-tail replay |

E21, the wire budget — the same service driven over real TCP, with an
end-to-end number and a per-layer budget table for each of five
workloads — lives in its own package with its own method and results:
[`benchmark/README.md`](benchmark/README.md) (`benchmark/run.sh`,
declared in `BENCHMARK.json`). It is not part of `cargo bench
--workspace` and not regenerated into this file.
""")

missing = []
for exp_id, title, paper, measured in ORDER:
    out.append(f"\n---\n\n## {title}\n")
    out.append(f"**Paper.** {paper}\n")
    out.append(f"**Measured.** {measured}\n")
    if exp_id in blocks:
        out.append("```text")
        out.append(blocks[exp_id])
        out.append("```")
    else:
        missing.append(exp_id)
        out.append("*(bench output missing — rerun cargo bench)*")

out.append("""

---

## Micro-benchmarks

`cargo bench -p infogram-bench --bench micro` (criterion) covers the hot
paths: RSL parse/print, xRSL extraction, LDIF/XML rendering and parsing,
wire encode/decode, certificate-chain verification and proxy delegation.
These have no counterpart in the paper; they exist to keep the substrate
honest (all are in the nanosecond–microsecond range, so none of the
experiment-level effects above are parser artifacts).
""")

(ROOT / "EXPERIMENTS.md").write_text("\n".join(out))
print(f"wrote EXPERIMENTS.md; blocks found: {sorted(blocks)}; missing: {missing}")
