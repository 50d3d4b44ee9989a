//! Job-contact authorization (§2): "a job handle ... can be used for
//! later connection, including from other remote clients with appropriate
//! authorization." The owning identity (or a client mapped to the same
//! local account) may poll and cancel; everyone else is denied.

use infogram::gsi::{CertificateAuthority, Dn};
use infogram::proto::message::{codes, JobStateCode};
use infogram::quickstart::Sandbox;
use infogram::sim::{SimTime, SplitMix64};
use infogram_client::{ClientError, InfoGramClient};
use std::time::Duration;

/// A sandbox plus a *second* mapped user ("mallory") with a different
/// local account, issued by the same CA and added to the gridmap.
fn sandbox_with_second_user() -> (Sandbox, infogram::gsi::Credential) {
    let sandbox = Sandbox::start();
    // Re-create the sandbox CA deterministically (same seed) to issue a
    // second certificate the service will trust.
    let mut rng = SplitMix64::new(0x1f06);
    let ca = CertificateAuthority::new_root(
        &Dn::user("Grid", "CA", "Sandbox Root CA"),
        &mut rng,
        SimTime::ZERO,
        Duration::from_secs(10 * 365 * 86_400),
    );
    // The sandbox's own certs came from the same deterministic sequence;
    // verify the trust root matches before proceeding.
    assert_eq!(
        ca.certificate(),
        &sandbox.roots[0],
        "deterministic CA reconstruction must match the sandbox's root"
    );
    // Skip the two issuances the sandbox performed (user + service cred)
    // so serial numbers do not collide, then issue mallory.
    let _ = ca.issue(
        &Dn::user("Grid", "ANL", "Gregor"),
        &mut rng,
        SimTime::ZERO,
        Duration::from_secs(365 * 86_400),
    );
    let _ = ca.issue(
        &Dn::user("Grid", "Hosts", "node00.grid.example.org"),
        &mut rng,
        SimTime::ZERO,
        Duration::from_secs(365 * 86_400),
    );
    let mallory = ca.issue(
        &Dn::user("Grid", "ANL", "Mallory"),
        &mut rng,
        SimTime::ZERO,
        Duration::from_secs(365 * 86_400),
    );
    // Mallory is deliberately NOT in the sandbox's gridmap: she holds a
    // trusted certificate but no local mapping, which is exactly the case
    // the gatekeeper must stop.
    (sandbox, mallory)
}

#[test]
fn owner_may_poll_and_cancel_from_a_second_connection() {
    let sandbox = Sandbox::start();
    let mut first = sandbox.connect_client();
    let handle = first
        .submit("(executable=simwork)(arguments=60000)", false)
        .unwrap();
    // Same identity, different connection: allowed (the paper's "later
    // connection" use of a handle).
    let mut second = sandbox.connect_client();
    let (state, _, _) = second.status(&handle).unwrap();
    assert_eq!(state, JobStateCode::Active);
    second.cancel(&handle).unwrap();
    let (state, _, _) = first.status(&handle).unwrap();
    assert_eq!(state, JobStateCode::Canceled);
    sandbox.shutdown();
}

#[test]
fn unmapped_stranger_cannot_even_connect() {
    let (sandbox, mallory) = sandbox_with_second_user();
    // Mallory holds a valid certificate from the trusted CA but has no
    // gridmap entry in the running service: the gatekeeper denies her
    // before any job contact is possible.
    match InfoGramClient::connect(
        &sandbox.net,
        sandbox.addr(),
        &mallory,
        &sandbox.roots,
        sandbox.clock.clone(),
    ) {
        Err(ClientError::Denied { code, .. }) => assert_eq!(code, codes::AUTHORIZATION),
        other => panic!("{:?}", other.map(|_| "connected")),
    }
    sandbox.shutdown();
}

#[test]
fn foreign_owner_denied_at_the_engine() {
    // Exercise the contact check directly at the dispatcher level, where
    // a differently-mapped identity is representable without a second
    // gridmap entry.
    use infogram::core::InfoGramDispatcher;
    use infogram::exec::gram::{ConnCtx, RequestDispatcher};
    use infogram::proto::message::{Reply, Request};
    let sandbox = Sandbox::start();
    let mut ctx = ConnCtx::detached();
    let dispatcher = InfoGramDispatcher::new(
        std::sync::Arc::clone(sandbox.service.engine()),
        std::sync::Arc::clone(sandbox.service.info_service()),
    );
    // Alice submits.
    let reply = dispatcher.dispatch(
        "/O=Grid/CN=Alice",
        "alice",
        Request::Submit {
            rsl: "(executable=simwork)(arguments=60000)".to_string(),
            callback: false,
        },
        &mut ctx,
    );
    let handle = match reply {
        Reply::JobAccepted { handle } => handle,
        other => panic!("{other:?}"),
    };
    // Mallory (different identity, different account) may not poll...
    match dispatcher.dispatch(
        "/O=Grid/CN=Mallory",
        "mallory",
        Request::Status {
            handle: handle.clone(),
        },
        &mut ctx,
    ) {
        Reply::Error { code, .. } => assert_eq!(code, codes::AUTHORIZATION),
        other => panic!("{other:?}"),
    }
    // ...nor cancel.
    match dispatcher.dispatch(
        "/O=Grid/CN=Mallory",
        "mallory",
        Request::Cancel {
            handle: handle.clone(),
        },
        &mut ctx,
    ) {
        Reply::Error { code, .. } => assert_eq!(code, codes::AUTHORIZATION),
        other => panic!("{other:?}"),
    }
    // A different identity mapped to the *same* account may (shared local
    // account semantics, as with real gridmaps listing several DNs per
    // login).
    match dispatcher.dispatch(
        "/O=Grid/CN=AliceProxyService",
        "alice",
        Request::Status {
            handle: handle.clone(),
        },
        &mut ctx,
    ) {
        Reply::JobStatus { state, .. } => assert_eq!(state, JobStateCode::Active),
        other => panic!("{other:?}"),
    }
    // The owner still cancels fine.
    match dispatcher.dispatch(
        "/O=Grid/CN=Alice",
        "alice",
        Request::Cancel { handle },
        &mut ctx,
    ) {
        Reply::JobStatus { state, .. } => assert_eq!(state, JobStateCode::Canceled),
        other => panic!("{other:?}"),
    }
    sandbox.shutdown();
}

#[test]
fn finished_job_keeps_its_contact_check_across_a_restart() {
    // A finished job is answered from the log's row, which is all a
    // restarted service has of it: the same identities are let in and
    // turned away before the restart and after.
    use infogram::core::InfoGramDispatcher;
    use infogram::exec::gram::{ConnCtx, RequestDispatcher};
    use infogram::exec::wal::FileWal;
    use infogram::proto::message::{Reply, Request};
    use infogram::quickstart::SandboxConfig;
    let dir = std::env::temp_dir().join(format!("infogram-authz-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("contact.log");
    let _ = std::fs::remove_file(&path);
    let start = || {
        Sandbox::start_with(SandboxConfig {
            wal_sink: Some(FileWal::open(&path).unwrap()),
            ..Default::default()
        })
    };

    let first = start();
    let mut client = first.connect_client();
    let handle = client
        .submit("(executable=simwork)(arguments=10)", false)
        .unwrap();
    let (state, _, _) = client
        .wait_terminal(&handle, Duration::from_millis(5), Duration::from_secs(10))
        .unwrap();
    assert_eq!(state, JobStateCode::Done);
    drop(client);

    let check = |sandbox: &Sandbox| {
        let dispatcher = InfoGramDispatcher::new(
            std::sync::Arc::clone(sandbox.service.engine()),
            std::sync::Arc::clone(sandbox.service.info_service()),
        );
        let ask = |owner: &str, account: &str, request: Request| match dispatcher.dispatch(
            owner,
            account,
            request,
            &mut ConnCtx::detached(),
        ) {
            Reply::JobStatus { state, .. } => Ok(state),
            Reply::Error { code, .. } => Err(code),
            other => panic!("{other:?}"),
        };
        let status = || Request::Status {
            handle: handle.clone(),
        };
        let cancel = || Request::Cancel {
            handle: handle.clone(),
        };
        for request in [status(), cancel()] {
            let stranger = ask("/O=Grid/CN=Mallory", "mallory", request);
            assert_eq!(stranger, Err(codes::AUTHORIZATION));
        }
        let same_account = ask("/O=Grid/CN=GregorProxyService", "gregor", status());
        assert_eq!(same_account, Ok(JobStateCode::Done));
        let (owner, account) = sandbox.service.engine().job_owner(handle.job_id).unwrap();
        assert_eq!(account, "gregor");
        assert_eq!(ask(&owner, "elsewhere", status()), Ok(JobStateCode::Done));
        assert_eq!(ask(&owner, &account, cancel()), Err(codes::NO_SUCH_JOB));
    };
    check(&first);
    first.shutdown();
    let second = start();
    assert_eq!(second.service.engine().live_jobs(), 0);
    check(&second);
    second.shutdown();
    let _ = std::fs::remove_file(&path);
}
