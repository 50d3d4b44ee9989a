//! Failure injection: the service must degrade precisely, not
//! catastrophically, when providers, executables, or running processes
//! break underneath it.

use infogram::info::config::ServiceConfig;
use infogram::proto::message::{codes, JobStateCode};
use infogram::quickstart::{Sandbox, SandboxConfig};
use infogram_client::ClientError;
use std::time::Duration;

/// Table 1 plus a keyword whose command always exits nonzero and one
/// whose executable does not exist.
fn config_with_broken_keywords() -> ServiceConfig {
    let mut text = infogram::info::config::TABLE1_TEXT.to_string();
    text.push_str("50 Broken /bin/false\n");
    text.push_str("50 Missing /opt/nonexistent/probe\n");
    ServiceConfig::parse(&text).expect("config")
}

#[test]
fn broken_provider_fails_only_its_own_keyword() {
    let sandbox = Sandbox::start_with(SandboxConfig {
        config: config_with_broken_keywords(),
        ..Default::default()
    });
    let mut client = sandbox.connect_client();

    // The broken keyword reports a provider failure. A nonzero exit is
    // *transient* in the error taxonomy, so the supervisor burns its
    // in-fetch retry budget (1 attempt + 2 retries) before giving up.
    match client.info("Broken") {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, codes::INTERNAL);
            assert!(message.contains("exit code 1"), "{message}");
        }
        other => panic!("{other:?}"),
    }
    let info_service = sandbox.service.info_service();
    assert_eq!(
        info_service.lookup("Broken").unwrap().execution_count(),
        3,
        "transient failures are retried"
    );
    // A missing executable is a *configuration* error: retrying cannot
    // fix it, so exactly one execution happens and the breaker ignores it.
    match client.info("Missing") {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, codes::INTERNAL);
            assert!(message.contains("unknown command"), "{message}");
        }
        other => panic!("{other:?}"),
    }
    assert_eq!(
        info_service.lookup("Missing").unwrap().execution_count(),
        1,
        "configuration errors are never retried"
    );

    // ...while every healthy keyword keeps working on the same connection.
    for kw in ["Date", "Memory", "CPU", "CPULoad", "list"] {
        let r = client.info(kw).unwrap_or_else(|e| panic!("{kw}: {e}"));
        assert_eq!(r.record_count, 1, "{kw}");
    }

    // And (info=all) fails loudly rather than silently dropping the
    // broken keyword — partial answers would be worse than errors.
    assert!(client.query_rsl("(info=all)").is_err());
    sandbox.shutdown();
}

#[test]
fn provider_failure_does_not_poison_the_cache() {
    let sandbox = Sandbox::start_with(SandboxConfig {
        config: config_with_broken_keywords(),
        ..Default::default()
    });
    let mut client = sandbox.connect_client();
    // Fail twice, then verify the entry still answers metadata queries
    // and that a healthy keyword cached earlier is unaffected.
    client.info("Memory").unwrap();
    let _ = client.info("Broken");
    let _ = client.info("Broken");
    let r = client.info("Memory").unwrap();
    assert_eq!(r.record_count, 1);
    // Schema reflection still covers all seven configured keywords plus
    // the built-in Metrics: and jobs entries.
    let schema = client.query_rsl("(info=schema)").unwrap();
    assert_eq!(schema.record_count, 9);
    sandbox.shutdown();
}

#[test]
fn missing_job_executable_rejected_at_submit() {
    let sandbox = Sandbox::start();
    let mut client = sandbox.connect_client();
    match client.submit("(executable=/opt/warp-drive)", false) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, codes::EXECUTION_FAILED);
            assert!(message.contains("unknown"), "{message}");
        }
        other => panic!("{other:?}"),
    }
    // The failed submit consumed no job id visible to status polling.
    let summary = sandbox.service.accounting();
    assert!(summary.get("gregor").map(|u| u.submitted).unwrap_or(0) == 0);
    sandbox.shutdown();
}

#[test]
fn injected_process_failure_fails_the_job() {
    let sandbox = Sandbox::start();
    let mut client = sandbox.connect_client();
    let handle = client
        .submit("(executable=simwork)(arguments=60000)", false)
        .unwrap();
    let (state, _, _) = client.status(&handle).unwrap();
    assert_eq!(state, JobStateCode::Active);
    // Sabotage: the "kernel" kills the job with a nonzero exit.
    let ids: Vec<u64> = (1..=4)
        .filter(|&id| sandbox.host.processes.inject_failure(id, 137))
        .collect();
    assert!(!ids.is_empty(), "found the job's instance to sabotage");
    let (state, exit, _) = client
        .wait_terminal(&handle, Duration::from_millis(5), Duration::from_secs(5))
        .unwrap();
    assert_eq!(state, JobStateCode::Failed);
    assert_eq!(exit, Some(137));
    sandbox.shutdown();
}

#[test]
fn injected_failure_with_retry_budget_restarts() {
    let sandbox = Sandbox::start();
    let mut client = sandbox.connect_client();
    let handle = client
        .submit(
            "&(executable=simwork)(arguments=60000)(restartonfail=1)",
            false,
        )
        .unwrap();
    // Kill the first incarnation.
    let killed: Vec<u64> = (1..=4)
        .filter(|&id| sandbox.host.processes.inject_failure(id, 1))
        .collect();
    assert!(!killed.is_empty());
    // The engine restarts it: next observation is Pending/Active again.
    std::thread::sleep(Duration::from_millis(10));
    let (state, _, _) = client.status(&handle).unwrap();
    assert!(
        matches!(state, JobStateCode::Pending | JobStateCode::Active),
        "restarted after injected failure: {state:?}"
    );
    assert_eq!(
        sandbox
            .service
            .engine()
            .metrics()
            .counter_value("jobs.restarts"),
        1
    );
    sandbox.shutdown();
}

#[test]
fn client_disconnect_leaves_service_healthy() {
    let sandbox = Sandbox::start();
    {
        // A client that submits and vanishes without waiting.
        let mut rude = sandbox.connect_client();
        rude.submit("(executable=simwork)(arguments=50)", true)
            .unwrap();
        // dropped here — connection closes mid-callback-subscription
    }
    // A fresh client finds a fully functional service and the orphaned
    // job finishes on its own.
    let mut client = sandbox.connect_client();
    let r = client.info("Memory").unwrap();
    assert_eq!(r.record_count, 1);
    let engine = sandbox.service.engine();
    let ids = engine.job_ids();
    assert_eq!(ids.len(), 1);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let view = engine.status(ids[0]).unwrap();
        if view.state.is_terminal() {
            assert_eq!(view.state, JobStateCode::Done);
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "orphan never finished"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    sandbox.shutdown();
}

#[test]
fn garbage_frames_answered_or_dropped_without_crash() {
    let sandbox = Sandbox::start();
    for garbage in [
        &b""[..],
        b"\x00\x01\x02",
        b"GET / HTTP/1.0\r\n\r\n",
        &[0xffu8; 512][..],
    ] {
        let conn =
            infogram::proto::transport::Transport::connect(&sandbox.net, sandbox.addr()).unwrap();
        let _ = conn.send(garbage);
        // The server either answers with an authentication error or drops
        // the connection; it must not take the service down.
        let _ = conn.recv();
    }
    // Still serving.
    let mut client = sandbox.connect_client();
    client.info("CPU").unwrap();
    sandbox.shutdown();
}
