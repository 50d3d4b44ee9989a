//! E10 — logging, checkpointing, restart (§6, §6.1, §10).
//!
//! Part 1: kill a service with W jobs in flight, restart over the same
//! file-backed log, and measure how many jobs came back and how long
//! recovery took.
//!
//! Part 2: the §6.1 per-job fault tolerance — jobs that fail are
//! restarted automatically up to their retry budget.

use infogram::exec::wal::FileWal;
use infogram::proto::message::JobStateCode;
use infogram::quickstart::{Sandbox, SandboxConfig};
use infogram_bench::{banner, fmt_secs, table};
use std::time::{Duration, Instant};

fn service_restart_row(in_flight: usize) -> Vec<String> {
    let path = std::env::temp_dir().join(format!(
        "infogram-bench-e10-{}-{in_flight}.log",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);

    let first = Sandbox::start_with(SandboxConfig {
        wal_sink: Some(FileWal::open(&path).expect("wal")),
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

    // Restart and measure recovery.
    let t0 = Instant::now();
    let second = Sandbox::start_with(SandboxConfig {
        wal_sink: Some(FileWal::open(&path).expect("wal")),
        ..Default::default()
    });
    let recovery = t0.elapsed();
    let recovered = second
        .service
        .engine()
        .metrics()
        .counter_value("jobs.recovered");
    let terminal_kept = second
        .service
        .engine()
        .job_ids()
        .iter()
        .filter(|id| {
            second
                .service
                .engine()
                .status(**id)
                .map(|v| v.state == JobStateCode::Done)
                .unwrap_or(false)
        })
        .count();
    second.shutdown();
    let _ = std::fs::remove_file(&path);
    vec![
        in_flight.to_string(),
        recovered.to_string(),
        format!("{terminal_kept}/3"),
        fmt_secs(recovery.as_secs_f64()),
    ]
}

fn auto_restart_row(retries: u32) -> Vec<String> {
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
    vec![
        retries.to_string(),
        restarts.to_string(),
        state.to_string(),
        exit.map(|e| e.to_string()).unwrap_or_default(),
    ]
}

fn main() {
    banner(
        "E10",
        "restart from the logging service (§6/§6.1/§10)",
        "every in-flight job is resubmitted on restart; finished jobs keep their \
         outcomes; per-job auto-restart consumes exactly its retry budget",
    );

    println!("\n-- service crash + restart over a file-backed WAL --");
    let rows: Vec<Vec<String>> = [1usize, 5, 20, 50]
        .iter()
        .map(|&w| service_restart_row(w))
        .collect();
    table(
        &["in-flight", "recovered", "terminal-kept", "recovery-time"],
        &rows,
    );

    println!("\n-- §6.1 automatic job restart on failure --");
    let rows: Vec<Vec<String>> = [0u32, 1, 3, 5]
        .iter()
        .map(|&r| auto_restart_row(r))
        .collect();
    table(&["retry-budget", "restarts", "final-state", "exit"], &rows);
    println!(
        "\nreading: recovery is O(in-flight jobs) and every unfinished submission\n\
         restarts from its logged xRSL (\"the command used and arguments\"); a job\n\
         with budget N fails only after N automatic restarts."
    );
}
