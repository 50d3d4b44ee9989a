//! E10 — logging, checkpointing, restart (§6, §6.1, §10).
//!
//! Part 1: kill a service with W jobs in flight, then restart it over the
//! same file-backed log k times, and measure how many jobs came back, how
//! long each start took (median and quartiles over the k) and how many
//! fsyncs a start spent (none: the boot record rides the first ack).
//!
//! Part 2: the §6.1 per-job fault tolerance — jobs that fail are
//! restarted automatically up to their retry budget.
//!
//! `BENCH_QUICK=1` runs fewer rows and restarts. Recovery is counted
//! and gated; restart time is wall clock and reported.

use infogram::exec::wal::FileWal;
use infogram::proto::message::JobStateCode;
use infogram::quickstart::{Sandbox, SandboxConfig};
use infogram_bench::{fmt_secs, row, table, Joined, Report, Summary};
use std::time::{Duration, Instant};

/// One row of part 1: `k` restarts over one log with `in_flight` jobs.
struct RestartRow {
    in_flight: usize,
    /// Per restart: jobs recovered, finished jobs kept, fsyncs at boot.
    recovered: Vec<u64>,
    terminal_kept: Vec<usize>,
    boot_fsyncs: Vec<u64>,
    times: Summary,
}

fn service_restart_row(in_flight: usize, k: usize) -> RestartRow {
    let dir = std::env::temp_dir().join(format!(
        "infogram-bench-e10-{}-{in_flight}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let open = || FileWal::open(dir.join("restart.wal")).expect("wal");
    let first = Sandbox::start_with(SandboxConfig {
        wal_sink: Some(open()),
        ..Default::default()
    });
    let mut client = first.connect_client();
    // Some jobs finish before the crash, `in_flight` stay running.
    for _ in 0..3 {
        let h = client
            .submit("(executable=simwork)(arguments=1)", false)
            .expect("submit");
        client
            .wait_terminal(&h, Duration::from_millis(2), Duration::from_secs(10))
            .expect("finish");
    }
    for _ in 0..in_flight {
        client
            .submit("(executable=simwork)(arguments=600000)", false)
            .expect("submit");
    }
    first.shutdown();
    drop(client);

    // Restart k times and measure each recovery.
    let (mut recovered, mut terminal_kept, mut boot_fsyncs, mut times) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..k {
        let t0 = Instant::now();
        let next = Sandbox::start_with(SandboxConfig {
            wal_sink: Some(open()),
            ..Default::default()
        });
        times.push(t0.elapsed());
        let engine = next.service.engine();
        recovered.push(engine.metrics().counter_value("jobs.recovered"));
        boot_fsyncs.push(engine.metrics().counter_value("wal.fsyncs"));
        let done = |id: &u64| {
            engine
                .status(*id)
                .is_some_and(|v| v.state == JobStateCode::Done)
        };
        terminal_kept.push(engine.job_ids().iter().filter(|id| done(id)).count());
        next.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
    RestartRow {
        in_flight,
        recovered,
        terminal_kept,
        boot_fsyncs,
        times: Summary::from_durations(&times),
    }
}

/// A row's values as `lo..hi`, or one number when they agree.
fn range<T: Ord + std::fmt::Display>(values: &[T]) -> String {
    match (values.iter().min(), values.iter().max()) {
        (Some(lo), Some(hi)) if lo != hi => format!("{lo}..{hi}"),
        (Some(lo), _) => lo.to_string(),
        _ => String::new(),
    }
}

/// The automatic restarts a failing job with budget `retries` got, and
/// its final state and exit code.
fn auto_restart_row(retries: u32) -> (u64, String, String) {
    let sandbox = Sandbox::start();
    let mut client = sandbox.connect_client();
    // A job that always fails; it burns its retry budget then fails.
    let h = client
        .submit(
            &format!("&(executable=simwork)(arguments=5 7)(restartonfail={retries})"),
            false,
        )
        .expect("submit");
    let (state, exit, _) = client
        .wait_terminal(&h, Duration::from_millis(2), Duration::from_secs(20))
        .expect("terminal");
    let restarts = sandbox
        .service
        .engine()
        .metrics()
        .counter_value("jobs.restarts");
    sandbox.shutdown();
    (
        restarts,
        state.to_string(),
        exit.map(|e| e.to_string()).unwrap_or_default(),
    )
}

fn main() {
    let (widths, k): (&[usize], usize) = if infogram_bench::quick() {
        (&[1, 20], 5)
    } else {
        (&[1, 5, 20, 50], 11)
    };
    let mut report = Report::start(
        env!("CARGO_CRATE_NAME"),
        "E10",
        "restart from the logging service (§6/§6.1/§10)",
    );

    println!("\n-- service crash, then {k} restarts over a file-backed WAL --");
    let rows: Vec<RestartRow> = widths.iter().map(|&w| service_restart_row(w, k)).collect();
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            row![
                r.in_flight,
                range(&r.recovered),
                format!("{}/3", range(&r.terminal_kept)),
                range(&r.boot_fsyncs),
                fmt_secs(r.times.median()),
                format!(
                    "{}..{}",
                    fmt_secs(r.times.quantile(0.25)),
                    fmt_secs(r.times.quantile(0.75))
                )
            ]
        })
        .collect();
    table(
        "in-flight|recovered|terminal-kept|boot-fsyncs|recovery-p50|recovery-p25..p75",
        &cells,
    );

    println!("\n-- §6.1 automatic job restart on failure --");
    let budgets = [0u32, 1, 3, 5];
    let auto: Vec<(u64, String, String)> = budgets.iter().map(|&r| auto_restart_row(r)).collect();
    let cells: Vec<Vec<String>> = (budgets.iter().zip(&auto))
        .map(|(r, (restarts, state, exit))| row![r, restarts, state.clone(), exit.clone()])
        .collect();
    table("retry-budget|restarts|final-state|exit", &cells);

    let every = |f: &dyn Fn(&RestartRow) -> bool| rows.iter().all(f);
    let per_row = |f: &dyn Fn(&RestartRow) -> String| rows.iter().map(f).joined();
    report.claim(
        "in_flight_jobs_recovered",
        "every in-flight job is resubmitted on every restart",
        every(&|r| r.recovered.iter().all(|&n| n == r.in_flight as u64)),
        per_row(&|r| format!("{}/{}", range(&r.recovered), r.in_flight)),
    );
    report.claim(
        "finished_jobs_keep_outcomes",
        "finished jobs keep their outcomes: 3/3 DONE after every restart",
        every(&|r| r.terminal_kept.iter().all(|&n| n == 3)),
        per_row(&|r| format!("{}/3", range(&r.terminal_kept))),
    );
    report.claim(
        "start_spends_no_fsync",
        "a start spends no fsync",
        every(&|r| r.boot_fsyncs.iter().all(|&n| n == 0)),
        per_row(&|r| range(&r.boot_fsyncs)),
    );
    report.claim(
        "auto_restart_uses_its_budget",
        "per-job auto-restart consumes exactly its retry budget, then the job fails",
        (budgets.iter().zip(&auto))
            .all(|(&r, (restarts, state, _))| *restarts == u64::from(r) && state == "FAILED"),
        (budgets.iter().zip(&auto))
            .map(|(r, (restarts, state, _))| format!("{restarts}/{r} {state}"))
            .joined(),
    );
    for r in &rows {
        let name = format!("recovery_p50_us_at_{}", r.in_flight);
        report.figure(&name, r.times.median() * 1e6);
    }
    report.finish();
}
