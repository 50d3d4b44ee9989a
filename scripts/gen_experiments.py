#!/usr/bin/env python3
"""Generate EXPERIMENTS.md from a captured `cargo bench --workspace` run.

Each experiment bench prints a banner block that ends in its named
claims; this script slices those blocks out of bench_output.txt and
wraps them with the paper-vs-measured commentary. Re-run after any
bench change:

    cargo bench --workspace 2>&1 | tee bench_output.txt
    python3 scripts/gen_experiments.py
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RAW = (ROOT / "bench_output.txt").read_text()

# Split the raw output into banner-delimited experiment blocks keyed by id.
# A banner is a 3-line unit:
#     ================...
#     <ID>: <title>
#     ================...
lines = RAW.splitlines()
id_re = re.compile(r"^[A-Z][A-Z0-9]*: ")
starts = [
    k
    for k in range(len(lines) - 2)
    if lines[k].startswith("====")
    and id_re.match(lines[k + 1])
    and lines[k + 2].startswith("====")
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

# (id, title, what the paper says, a note the claims do not carry or "").
# The measured verdicts are the claims at the end of each bench's block.
ORDER = [
    ("T1", "Table 1 — the configuration file, executed",
     "Table 1 lists literal `(TTL, keyword, command)` rows; `0 specifies "
     "execution of the keyword every time it is requested`. No measurements.",
     "The five rows under a fixed 200-query schedule at 10 ms spacing on "
     "the virtual clock."),
    ("F1", "Figure 1 — GRAM three-tier architecture",
     "An architecture diagram (client tier → gatekeeper/job manager → local "
     "execution); no measurements.",
     "The per-connection column is what Figure 4 halves."),
    ("F4", "Figures 2–4 — the baseline, the unified service, head to head",
     "Figure 2: a client must contact two services (`not only do the "
     "services operate through different ports, but they also use "
     "different protocols`); Figure 3: the unified architecture; Figure 4: "
     "`The new InfoGram service reduces the number of protocols and "
     "components in a Grid`. Asserted structurally, no measurements.",
     "Both worlds run one closed-loop workload; the structure is counted "
     "from the running servers. Latency and bytes depend on how many "
     "status polls a job's wall time takes, so they are reported: the "
     "MDS path refreshes a whole GRIS subtree per search, which is why "
     "the baseline is slower wherever the mix has queries; at all-jobs "
     "the two are at parity. At p_info 1 nothing is polled, so the bytes "
     "there are gated: a unified reply names each attribute relative to "
     "its record, and answers for fewer bytes than the MDS path. **The "
     "paper's thesis holds, exactly.**"),
    ("E5", "E5 — caching beats exec-per-request (§5.1)",
     "`it would be wasteful to execute the command requesting the load "
     "every single time. Instead, it can be more efficient to cache this "
     "value` — asserted, not measured.",
     "Without the cache load grows linearly only while the clients' gap "
     "dominates the 20 ms command cost; it then saturates at 1/cost."),
    ("E6", "E6 — degradation functions and the quality threshold (§5.2/§6.4/§6.6)",
     "A degradation function and a `quality` threshold let clients trade "
     "refresh work for accuracy; specified, no numbers.",
     "One seed cannot show the accuracy trend: its 120 queries span about "
     "twelve 10 s correlation times, and the 10%–50% rows differ by less "
     "than its noise. So each row averages seeds 1–64, after a 100 s "
     "warm-up (the load starts at its mean, which a never-refreshed cache "
     "would otherwise serve as the best constant guess)."),
    ("E7", "E7 — response modes (§6.6)",
     "`immediate` executes regardless of TTL, `cached` serves if valid else "
     "refreshes, `last` returns the stored value without updating.",
     "240 queries at 4 Hz against a 1 s TTL."),
    ("E8", "E8 — the performance tag (§6.6)",
     "`the performance tag returns the number of seconds and the standard "
     "deviation about how long it takes to obtain a particular information "
     "value`.",
     "The rows share one seed, so their normal draws are one sample scaled: "
     "σ reads −5.8% on all three normal models, −1.42 standard errors."),
    ("E9", "E9 — update monitors and the delay throttle (§6.2)",
     "`if multiple updateState methods are invoked, monitors are used to "
     "perform only one such update at a time`, plus a `delay` that "
     "rate-limits consecutive refreshes.",
     "Real threads against a 30 ms provider that holds its execution until "
     "the storm's last caller has arrived."),
    ("E10", "E10 — restart from the logging service (§6/§6.1/§10)",
     "`the log can be used to restart our InfoGRAM service in case it needs "
     "to be restarted`, and jobs restart automatically on failure.",
     "Unfinished jobs restart from their logged xRSL (`the command used and "
     "arguments`); a start's boot record rides the first acknowledged "
     "commit (DESIGN §14)."),
    ("E11", "E11 — untrusted jobs in a trusted environment (§5.5/§7)",
     "J-GRAM runs untrusted jars in the service's JVM or in a separate one "
     "`to increase security`; `the Grid administrator must decide which "
     "mode should be run`.",
     "The administrator's trade, quantified: containment against a 50 µs "
     "per-operation crossing cost (1.05x on compute-bound jobs)."),
    ("E12", "E12 — LDIF/XML formats and MDS integration (§3/§5.5/§6.6)",
     "Output renders as LDIF or XML; the provider `can easily be integrated "
     "into the Globus MDS information service architecture`.",
     "`annotated` rows are what the service sends: one quality and one age "
     "per record, said once in the record's head by LDIF and XML and on "
     "every line by `plain`, and each attribute named relative to the "
     "record's keyword except by `plain`."),
    ("E13", "E13 — security: handshake and contracts (§5.3)",
     "GSI authenticates; the paper *aspires* to contracts `such as allow "
     "access to this resource from 3 to 4 pm to user X`.",
     "The matrix binds through `gsi::accept`, the server's half of every "
     "connection; the cost table times the four `wire_*` steps it runs, "
     "encoding and decoding both chains, and keeps each depth's fastest of "
     "ten interleaved rounds. A link costs more the deeper it is: a full-DN "
     "certificate names its whole subject and issuer, which the handshake "
     "decodes, compares and hashes, so the reported claim sets the deepest "
     "link against the shallowest. The cached matrix binds real "
     "clients to the gatekeeper and the MDS a second time, so that each "
     "names both chains by digest."),
    ("E14", "E14 — sporadic grids (§8)",
     "InfoGram suits grids `created just for a short period of time during "
     "sophisticated experiments`, being `easy to install it on a number of "
     "machines`.",
     ""),
    ("E15", "E15 — aggregate caching ablation (§3)",
     "`to increase the scalability of a distributed information service, "
     "the MDS provides an information caching function`.",
     "The same freshness/load dial as E5, one level up the hierarchy; the "
     "TTL=0 row is the no-cache ablation."),
    ("E16", "E16 — scatter-gather fan-out and the interned-handle hit path",
     "No paper artifact: `(info=all)` must not serialize K slow providers.",
     "`hit_path_ns_per_query` is `InformationService::answer` alone; "
     "`dispatch_hit_ns_per_query` the same query as xRSL text through "
     "`InfoGramDispatcher::dispatch` (parse, accounting, answer, render). "
     "Both are the minimum of 5 repetitions."),
    ("E17", "E17 — fault storm: supervised fetches under provider failure",
     "No paper artifact: the fault-domain supervisor (DESIGN §10) under a "
     "seeded storm of failures, 300 ms hangs and slowdowns.",
     ""),
    ("E18", "E18 — adaptive refresh scheduling vs TTL-expiry polling",
     "No paper artifact (the paper refreshes on a query after TTL expiry): "
     "the refresh scheduler of DESIGN §11.",
     ""),
    ("E19", "E19 — push-subscription fan-out at scale",
     "No paper artifact (queries are pull-only): `(action=subscribe)` "
     "delivery (DESIGN §12), every frame round-tripped through the wire "
     "encoding.",
     "A job's Events go to its submitter and one observer, not to a "
     "watcher per connection, so a transition beside idle connections "
     "visits as many observers as alone (gated, a count) and takes as "
     "long (reported, wall clock)."),
    ("E20", "E20 — crash storm: the WAL under injected disk faults",
     "§6: `the log can be used to restart our InfoGRAM service` — here on "
     "a disk that fails appends and fsyncs and loses power mid-storm "
     "(DESIGN §14), not a clean restart (E10).",
     ""),
]

out = []
out.append("""# EXPERIMENTS — paper vs. measured

Every artifact of the paper's evaluation (Table 1 and Figures 1–4 — the
paper's evaluation is architectural/qualitative; it reports **no**
quantitative tables) and every quantitative *claim* in its prose (E5–E15),
plus the reproduction's own performance and resilience properties
(E16–E20), is regenerated by a dedicated benchmark target; Figures 2 and
3 are the two worlds of the Figure 4 bench. Each block below ends in
the bench's named claims, each marked as holding or not: a claim on
virtual time or a count is gated exactly, a claim on the wall clock
(or on work whose amount it sets) is `reported`. Every bench writes them to `target/bench/<bench>.json`
with a `pass` flag, and `scripts/bench_smoke.sh` fails unless every
report passes (E10 and E16–E20 in their `BENCH_QUICK=1` sizes).

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
| F4 (F2, F3) | unified service "reduces the number of protocols and components" | 1 listener, 1 protocol, exactly 2x fewer connections & handshakes at every mix (counted); latency lower at every mix with queries, at parity at all-jobs (reported) |
| E5 | caching beats exec-per-request for many clients | TTL-0 load grows with clients until the provider runs back to back; TTL caps it at 1/TTL; up to ~1000x latency win |
| E6 | quality threshold trades refreshes for accuracy | monotone in both over 64 seeds, within 3 s.e. of the AR(1) expectation |
| E7 | immediate/cached/last semantics | execution counts 240/~60/0, latency ordered |
| E8 | performance tag reports mean + σ | equals the costs drawn; those within 3 s.e. of the model |
| E9 | monitors collapse concurrent updates | exactly 1 execution per storm, up to 32x saving |
| E10 | restart from the log | 100% of in-flight jobs recovered, sub-ms median restart, no fsync at start |
| E11 | sandbox modes trade overhead vs containment | all attacks blocked; 1.05x isolation cost |
| E12 | LDIF/XML + MDS compatibility | attribute-identical views; µs-scale rendering |
| E13 | contracts like "3 to 4 pm for user X" | decision matrix matches the example literally, and each session ends where its window or proxy does; a proxy link costs ≤ 62 B at any depth; a cached connect is refused as a full one and sends no chain (counted) |
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
for exp_id, title, paper, note in ORDER:
    out.append(f"\n---\n\n## {title}\n")
    out.append(f"**Paper.** {paper}\n")
    if note:
        out.append(f"**Note.** {note}\n")
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
