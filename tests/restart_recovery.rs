//! Restart-from-log (E10 functional core).
//!
//! §6 of the paper: "the log can be used to restart our InfoGRAM service
//! in case it needs to be restarted (e.g. the machine was shut down)".
//! We run a service with a file-backed WAL, kill it with jobs in flight,
//! start a new incarnation over the same log, and check that unfinished
//! jobs were restarted, finished jobs kept their outcomes, and the epoch
//! advanced.

// Bench/example/test harness: panic-on-failure is the error policy here.
#![allow(clippy::unwrap_used)]

use infogram::exec::wal::FileWal;
use infogram::proto::message::JobStateCode;
use infogram::quickstart::{Sandbox, SandboxConfig};
use std::path::PathBuf;
use std::time::Duration;

fn temp_wal(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("infogram-restart-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

fn sandbox_with_wal(path: &PathBuf) -> Sandbox {
    Sandbox::start_with(SandboxConfig {
        wal_sink: Some(FileWal::open(path).unwrap()),
        ..Default::default()
    })
}

#[test]
fn service_restart_recovers_in_flight_jobs() {
    let wal_path = temp_wal("recover.log");

    // --- first incarnation ---
    let first = sandbox_with_wal(&wal_path);
    let mut client = first.connect_client();
    // One quick job that finishes, one long job that will be in flight.
    let quick = client
        .submit("(executable=simwork)(arguments=10)", false)
        .unwrap();
    let (state, exit, _) = client
        .wait_terminal(&quick, Duration::from_millis(5), Duration::from_secs(10))
        .unwrap();
    assert_eq!(state, JobStateCode::Done);
    assert_eq!(exit, Some(0));
    let long = client
        .submit("(executable=simwork)(arguments=60000)", false)
        .unwrap();
    assert_eq!(first.service.engine().epoch(), 1);
    // "Machine shutdown": stop the service abruptly.
    first.shutdown();
    drop(client);

    // --- second incarnation over the same log ---
    let second = sandbox_with_wal(&wal_path);
    let engine = second.service.engine();
    assert_eq!(engine.epoch(), 2, "epoch advances across restarts");

    // The finished job is remembered as terminal.
    let quick_view = engine.status(quick.job_id).expect("quick job recovered");
    assert_eq!(quick_view.state, JobStateCode::Done);
    assert_eq!(quick_view.exit_code, Some(0));

    // The in-flight job was restarted and is running again.
    let long_view = engine.status(long.job_id).expect("long job recovered");
    assert!(
        matches!(
            long_view.state,
            JobStateCode::Active | JobStateCode::Pending
        ),
        "restarted job is live again: {long_view:?}"
    );
    assert_eq!(engine.metrics().counter_value("jobs.recovered"), 1);

    // Its xRSL was restored verbatim from the log.
    assert_eq!(
        engine.job_rsl(long.job_id).unwrap(),
        "(executable=simwork)(arguments=60000)"
    );
    second.shutdown();
    let _ = std::fs::remove_file(&wal_path);
}

#[test]
fn recovered_job_runs_to_completion() {
    let wal_path = temp_wal("complete.log");
    let first = sandbox_with_wal(&wal_path);
    let mut client = first.connect_client();
    let job = client
        .submit("(executable=simwork)(arguments=120)", false)
        .unwrap();
    first.shutdown();
    drop(client);

    let second = sandbox_with_wal(&wal_path);
    // The restarted job finishes on the new incarnation.
    let engine = second.service.engine().clone();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let view = engine.status(job.job_id).expect("recovered");
        if view.state.is_terminal() {
            assert_eq!(view.state, JobStateCode::Done);
            break;
        }
        assert!(std::time::Instant::now() < deadline, "job never finished");
        std::thread::sleep(Duration::from_millis(5));
    }
    second.shutdown();
    let _ = std::fs::remove_file(&wal_path);
}

#[test]
fn accounting_survives_restart() {
    let wal_path = temp_wal("accounting.log");
    let first = sandbox_with_wal(&wal_path);
    let mut client = first.connect_client();
    for _ in 0..2 {
        let h = client
            .submit("(executable=simwork)(arguments=5)", false)
            .unwrap();
        client
            .wait_terminal(&h, Duration::from_millis(5), Duration::from_secs(10))
            .unwrap();
    }
    first.shutdown();
    drop(client);

    let second = sandbox_with_wal(&wal_path);
    let summary = second.service.accounting();
    assert_eq!(summary["gregor"].submitted, 2);
    assert_eq!(summary["gregor"].completed, 2);
    second.shutdown();
    let _ = std::fs::remove_file(&wal_path);
}

/// Information queries are counted, not logged: what a restart finds is
/// the count as of the last checkpoint.
#[test]
fn counted_queries_survive_restart_as_of_the_last_checkpoint() {
    use infogram::exec::wal::{Wal, WalConfig, WalEvent};
    use infogram::exec::ConnCtx;
    use infogram::sim::SimTime;
    let wal_path = temp_wal("queries.log");
    let open = || {
        let cfg = WalConfig {
            checkpoint_every_events: 8,
            ..WalConfig::default()
        };
        Wal::with_config(Box::new(FileWal::open(&wal_path).unwrap()), cfg)
    };
    let queries = |wal: &Wal| wal.with_fold(|fold| fold.accounts["gregor"].info_queries);

    let wal = open();
    let mut conn = ConnCtx::detached();
    for _ in 0..5 {
        conn.count_info_query(&wal, "gregor");
    }
    for epoch in 1..=8 {
        wal.commit(SimTime::ZERO, &[WalEvent::ServiceStarted { epoch }])
            .unwrap();
    }
    conn.count_info_query(&wal, "gregor");
    assert_eq!(queries(&wal), 6);
    drop(wal);

    assert_eq!(
        queries(&open()),
        5,
        "the sixth was counted after the checkpoint"
    );
    let _ = std::fs::remove_file(&wal_path);
}

#[test]
fn job_ids_continue_across_restarts() {
    let wal_path = temp_wal("ids.log");
    let first = sandbox_with_wal(&wal_path);
    let mut client = first.connect_client();
    let h1 = client
        .submit("(executable=simwork)(arguments=1)", false)
        .unwrap();
    first.shutdown();
    drop(client);

    let second = sandbox_with_wal(&wal_path);
    let mut client2 = second.connect_client();
    let h2 = client2
        .submit("(executable=simwork)(arguments=1)", false)
        .unwrap();
    assert!(
        h2.job_id > h1.job_id,
        "new incarnation must not reuse job ids ({} vs {})",
        h2.job_id,
        h1.job_id
    );
    assert_eq!(h2.epoch, 2);
    second.shutdown();
    let _ = std::fs::remove_file(&wal_path);
}
