//! End-to-end tests of the unified InfoGram service over the wire:
//! one connection, one protocol, both request kinds — Figure 3 of the
//! paper, exercised through real client/server message exchange.

use infogram::exec::sandbox::VIOLATION_EXIT;
use infogram::proto::message::{codes, JobStateCode};
use infogram::quickstart::{Sandbox, SandboxConfig};
use infogram::rsl::{OutputFormat, ResponseMode};
use infogram_client::{ClientError, QueryBuilder};
use std::time::Duration;

fn wait_opts() -> (Duration, Duration) {
    (Duration::from_millis(5), Duration::from_secs(10))
}

#[test]
fn info_query_all_formats_over_the_wire() {
    let sandbox = Sandbox::start();
    let mut client = sandbox.connect_client();

    let ldif = client
        .query(&QueryBuilder::new().keyword("Memory"))
        .unwrap();
    assert_eq!(ldif.record_count, 1);
    assert!(ldif.body.contains("dn: kw=Memory"));
    assert_eq!(ldif.records[0].keyword, "Memory");

    let xml = client
        .query(
            &QueryBuilder::new()
                .keyword("Memory")
                .format(OutputFormat::Xml),
        )
        .unwrap();
    assert!(xml.body.starts_with("<infogram>"));
    // The LDIF and XML views carry the same total (cached value).
    assert_eq!(
        xml.records[0].get("Memory:total").unwrap().value,
        ldif.records[0].get("Memory:total").unwrap().value
    );

    let plain = client
        .query(
            &QueryBuilder::new()
                .keyword("CPU")
                .format(OutputFormat::Plain),
        )
        .unwrap();
    assert!(plain.body.contains("CPU:count: 4"));

    sandbox.shutdown();
}

#[test]
fn concatenated_info_tags_like_the_paper() {
    // §6.6: "(info=memory)(info=cpu)"
    let sandbox = Sandbox::start();
    let mut client = sandbox.connect_client();
    let result = client.query_rsl("(info=memory)(info=cpu)").unwrap();
    assert_eq!(result.record_count, 2);
    let keywords: Vec<&str> = result.records.iter().map(|r| r.keyword.as_str()).collect();
    assert_eq!(keywords, vec!["Memory", "CPU"]);
    sandbox.shutdown();
}

#[test]
fn info_all_and_schema() {
    let sandbox = Sandbox::start();
    let mut client = sandbox.connect_client();
    let all = client.query(&QueryBuilder::new().all()).unwrap();
    assert_eq!(
        all.record_count, 6,
        "five Table 1 keywords plus the built-in Metrics:"
    );
    let schema = client.query(&QueryBuilder::new().schema()).unwrap();
    assert_eq!(schema.record_count, 6);
    assert!(schema.body.contains("Schema.Date"));
    assert!(schema.body.contains("Schema.Metrics"));
    assert!(schema.body.contains("degradation"));
    sandbox.shutdown();
}

#[test]
fn response_modes_over_the_wire() {
    let sandbox = Sandbox::start();
    let mut client = sandbox.connect_client();
    // Populate, then `last` must not refresh.
    client.info("Memory").unwrap();
    let execs_before = sandbox
        .service
        .info_service()
        .lookup("Memory")
        .unwrap()
        .execution_count();
    client
        .query(
            &QueryBuilder::new()
                .keyword("Memory")
                .response(ResponseMode::Last),
        )
        .unwrap();
    let si = sandbox.service.info_service().lookup("Memory").unwrap();
    assert_eq!(si.execution_count(), execs_before, "last never refreshes");
    client
        .query(
            &QueryBuilder::new()
                .keyword("Memory")
                .response(ResponseMode::Immediate),
        )
        .unwrap();
    assert_eq!(
        si.execution_count(),
        execs_before + 1,
        "immediate always refreshes"
    );
    sandbox.shutdown();
}

#[test]
fn fork_job_full_lifecycle() {
    let sandbox = Sandbox::start();
    let mut client = sandbox.connect_client();
    let handle = client
        .submit("(executable=simwork)(arguments=80)", false)
        .unwrap();
    assert_eq!(handle.epoch, 1);
    let (poll, deadline) = wait_opts();
    let (state, exit, output) = client.wait_terminal(&handle, poll, deadline).unwrap();
    assert_eq!(state, JobStateCode::Done);
    assert_eq!(exit, Some(0));
    assert!(output.contains("simulated work complete"));
    sandbox.shutdown();
}

#[test]
fn batch_job_on_named_queue() {
    let sandbox = Sandbox::start();
    let mut client = sandbox.connect_client();
    let handle = client
        .submit(
            "&(executable=simwork)(arguments=50)(jobtype=batch)(queue=pbs)",
            false,
        )
        .unwrap();
    let (poll, deadline) = wait_opts();
    let (state, _, _) = client.wait_terminal(&handle, poll, deadline).unwrap();
    assert_eq!(state, JobStateCode::Done);
    sandbox.shutdown();
}

#[test]
fn matchmade_job_with_requirements() {
    let sandbox = Sandbox::start();
    let mut client = sandbox.connect_client();
    let handle = client
        .submit(
            "&(executable=simwork)(arguments=50)(jobtype=batch)(queue=condor)\
             (requirements=(os linux)(arch ia64))",
            false,
        )
        .unwrap();
    let (poll, deadline) = wait_opts();
    let (state, _, _) = client.wait_terminal(&handle, poll, deadline).unwrap();
    assert_eq!(state, JobStateCode::Done);
    sandbox.shutdown();
}

#[test]
fn jarlet_job_runs_sandboxed() {
    let sandbox = Sandbox::start();
    sandbox
        .host
        .fs
        .write("/home/gregor/scan.jar", "compute 10; print scan-complete");
    let mut client = sandbox.connect_client();
    let handle = client
        .submit("(executable=/home/gregor/scan.jar)", false)
        .unwrap();
    let (poll, deadline) = wait_opts();
    let (state, exit, output) = client.wait_terminal(&handle, poll, deadline).unwrap();
    assert_eq!(state, JobStateCode::Done);
    assert_eq!(exit, Some(0));
    assert!(output.contains("scan-complete"));
    sandbox.shutdown();
}

#[test]
fn malicious_jarlet_blocked() {
    let sandbox = Sandbox::start();
    sandbox.host.fs.write(
        "/home/gregor/evil.jar",
        "read /etc/grid-security/hostcert.pem; print stolen",
    );
    let mut client = sandbox.connect_client();
    let handle = client
        .submit("(executable=/home/gregor/evil.jar)", false)
        .unwrap();
    let (poll, deadline) = wait_opts();
    let (state, exit, output) = client.wait_terminal(&handle, poll, deadline).unwrap();
    assert_eq!(state, JobStateCode::Failed);
    assert_eq!(exit, Some(VIOLATION_EXIT));
    assert!(output.contains("SECURITY VIOLATION"));
    assert!(!output.contains("stolen"), "the read never happened");
    sandbox.shutdown();
}

#[test]
fn cancel_over_the_wire() {
    let sandbox = Sandbox::start();
    let mut client = sandbox.connect_client();
    let handle = client
        .submit("(executable=simwork)(arguments=60000)", false)
        .unwrap();
    client.cancel(&handle).unwrap();
    let (state, _, _) = client.status(&handle).unwrap();
    assert_eq!(state, JobStateCode::Canceled);
    sandbox.shutdown();
}

#[test]
fn event_callbacks_deliver_terminal_state() {
    let sandbox = Sandbox::start();
    let mut client = sandbox.connect_client();
    let handle = client
        .submit("(executable=simwork)(arguments=30)", true)
        .unwrap();
    // Trigger state observation server-side by polling until done — the
    // event is pushed on the same connection.
    let (poll, deadline) = wait_opts();
    client.wait_terminal(&handle, poll, deadline).unwrap();
    // The Done event must have been delivered (buffered during polling).
    let mut saw_done = false;
    while let Some((h, state)) = client.next_event() {
        assert_eq!(h.job_id, handle.job_id);
        if state == JobStateCode::Done {
            saw_done = true;
        }
    }
    assert!(saw_done, "callback event for the terminal state");
    sandbox.shutdown();
}

#[test]
fn unknown_keyword_and_bad_rsl_error_codes() {
    let sandbox = Sandbox::start();
    let mut client = sandbox.connect_client();
    match client.info("Bogus") {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, codes::NO_SUCH_KEYWORD),
        other => panic!("{other:?}"),
    }
    match client.query_rsl("((((") {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, codes::BAD_RSL),
        other => panic!("{other:?}"),
    }
    match client.query_rsl("&(executable=x)(info=cpu)") {
        Err(ClientError::Server { code, .. }) => {
            assert_eq!(code, codes::AMBIGUOUS_REQUEST)
        }
        other => panic!("{other:?}"),
    }
    sandbox.shutdown();
}

#[test]
fn unmapped_user_denied_at_gatekeeper() {
    use infogram::gsi::{CertificateAuthority, Dn};
    use infogram::sim::{SimTime, SplitMix64};
    let sandbox = Sandbox::start();
    // A certificate from the sandbox CA would be needed; a stranger CA
    // fails authentication, a strange *user* of the right CA fails
    // authorization. Build the latter via a fresh CA == untrusted (easier
    // to produce) and check the denial path.
    let mut rng = SplitMix64::new(777);
    let rogue = CertificateAuthority::new_root(
        &Dn::user("Rogue", "CA", "Evil"),
        &mut rng,
        SimTime::ZERO,
        Duration::from_secs(86_400),
    );
    let impostor = rogue.issue(
        &Dn::user("Grid", "ANL", "Impostor"),
        &mut rng,
        SimTime::ZERO,
        Duration::from_secs(3600),
    );
    match infogram_client::InfoGramClient::connect(
        &sandbox.net,
        sandbox.addr(),
        &impostor,
        &sandbox.roots,
        sandbox.clock.clone(),
    ) {
        Err(ClientError::Denied { code, .. }) => assert_eq!(code, codes::AUTHENTICATION),
        other => panic!("{:?}", other.map(|_| "connected")),
    }
    sandbox.shutdown();
}

#[test]
fn multi_request_rejected_like_jgram() {
    // §7: "DUROC is not supported".
    let sandbox = Sandbox::start();
    let mut client = sandbox.connect_client();
    match client.submit("+(&(executable=a))(&(executable=b))", false) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, codes::UNSUPPORTED),
        other => panic!("{other:?}"),
    }
    sandbox.shutdown();
}

#[test]
fn timeout_action_exception_surfaces_and_job_continues() {
    let sandbox = Sandbox::start();
    let mut client = sandbox.connect_client();
    let handle = client
        .submit(
            "&(executable=simwork)(arguments=60000)(timeout=1)(action=exception)",
            false,
        )
        .unwrap();
    std::thread::sleep(Duration::from_millis(20));
    match client.status(&handle) {
        Err(ClientError::Server { code, .. }) => {
            assert_eq!(code, codes::TIMEOUT_EXCEPTION)
        }
        other => panic!("{other:?}"),
    }
    sandbox.shutdown();
}

#[test]
fn timeout_exception_ends_when_the_job_does() {
    let sandbox = Sandbox::start();
    let mut client = sandbox.connect_client();
    let handle = client
        .submit(
            "&(executable=simwork)(arguments=60)(timeout=1)(action=exception)",
            false,
        )
        .unwrap();
    std::thread::sleep(Duration::from_millis(20));
    match client.status(&handle) {
        Err(ClientError::Server { code, .. }) => {
            assert_eq!(code, codes::TIMEOUT_EXCEPTION)
        }
        other => panic!("{other:?}"),
    }
    // The job ran on past its timeout and finished: from then on a poll
    // answers with how it ended, not that "it continues to run".
    std::thread::sleep(Duration::from_millis(60));
    for _ in 0..2 {
        let (state, exit, output) = client.status(&handle).unwrap();
        assert_eq!((state, exit), (JobStateCode::Done, Some(0)));
        assert!(output.contains("simulated work complete"), "{output:?}");
    }
    let metrics = sandbox.service.engine().metrics();
    assert_eq!(metrics.counter_value("jobs.timeout_exceptions"), 1);
    sandbox.shutdown();
}

#[test]
fn timeout_action_cancel_stops_the_job() {
    let sandbox = Sandbox::start();
    let mut client = sandbox.connect_client();
    let handle = client
        .submit(
            "&(executable=simwork)(arguments=60000)(timeout=1)(action=cancel)",
            false,
        )
        .unwrap();
    std::thread::sleep(Duration::from_millis(20));
    let (state, _, _) = client.status(&handle).unwrap();
    assert_eq!(state, JobStateCode::Canceled);
    sandbox.shutdown();
}

#[test]
fn accounting_report_after_activity() {
    let sandbox = Sandbox::start();
    let mut client = sandbox.connect_client();
    let (poll, deadline) = wait_opts();
    for _ in 0..3 {
        let h = client
            .submit("(executable=simwork)(arguments=10)", false)
            .unwrap();
        client.wait_terminal(&h, poll, deadline).unwrap();
    }
    let summary = sandbox.service.accounting();
    assert_eq!(summary["gregor"].submitted, 3);
    assert_eq!(summary["gregor"].completed, 3);
    let report = infogram::core::accounting::render_report(&summary);
    assert!(report.contains("gregor"));
    sandbox.shutdown();
}

#[test]
fn concurrent_clients_share_the_service() {
    let sandbox = Sandbox::start();
    let mut handles = Vec::new();
    for i in 0..6 {
        let net = sandbox.net.clone();
        let addr = sandbox.addr().to_string();
        let user = sandbox.user.clone();
        let roots = sandbox.roots.clone();
        let clock = sandbox.clock.clone();
        handles.push(std::thread::spawn(move || {
            let mut client =
                infogram_client::InfoGramClient::connect(&net, &addr, &user, &roots, clock)
                    .unwrap();
            if i % 2 == 0 {
                let r = client.info("CPULoad").unwrap();
                assert_eq!(r.record_count, 1);
            } else {
                let h = client
                    .submit("(executable=simwork)(arguments=20)", false)
                    .unwrap();
                let (state, _, _) = client
                    .wait_terminal(&h, Duration::from_millis(5), Duration::from_secs(10))
                    .unwrap();
                assert_eq!(state, JobStateCode::Done);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    sandbox.shutdown();
}

#[test]
fn contract_window_enforced_at_connect() {
    use infogram::gsi::{Contract, Dn, SubjectMatch};
    // Build a sandbox whose authorizer requires a contract that is never
    // active (empty window list).
    let cfg = SandboxConfig {
        contracts: Some(vec![Contract::new(
            SubjectMatch::Exact(Dn::user("Grid", "ANL", "Gregor")),
            "infogram",
            vec![],
        )]),
        ..Default::default()
    };
    let sandbox = Sandbox::start_with(cfg);
    match infogram_client::InfoGramClient::connect(
        &sandbox.net,
        sandbox.addr(),
        &sandbox.user,
        &sandbox.roots,
        sandbox.clock.clone(),
    ) {
        Err(ClientError::Denied { code, .. }) => assert_eq!(code, codes::AUTHORIZATION),
        other => panic!("{:?}", other.map(|_| "connected")),
    }
    sandbox.shutdown();
}

#[test]
fn wide_reply_says_quality_and_age_once_per_record() {
    // The shape of the e21 benchmark's `info_wide` (16 keywords × 24
    // attributes × 24-character values, one cached reply), pinned in
    // tree: the body stays under 15.5 kB because each record carries its
    // quality and age once, in its head, not after every attribute.
    use infogram::info::{DegradationFn, FnProvider, SystemInformation};
    let sandbox = Sandbox::start();
    let info = sandbox.service.info_service();
    let mut query = QueryBuilder::new();
    for k in 0..16 {
        let keyword = format!("K{k:02}");
        info.register(SystemInformation::new(
            Box::new(FnProvider::new(&keyword, move || {
                Ok((0..24)
                    .map(|a| (format!("a{a:02}"), format!("{:024}", k * 100 + a)))
                    .collect())
            })),
            sandbox.clock.clone(),
            Duration::from_secs(600),
            DegradationFn::default(),
        ));
        query = query.keyword(&keyword);
    }
    let mut client = sandbox.connect_client();
    client.query(&query).unwrap(); // produces the sixteen values
    let reply = client.query(&query).unwrap(); // served from the cache
    assert_eq!(reply.record_count, 16);
    assert!(
        reply.body.len() <= 15_500,
        "{} body bytes",
        reply.body.len()
    );
    assert_eq!(reply.body.matches("\ninfogram-quality: ").count(), 16);
    assert_eq!(reply.body.matches("\ninfogram-age: ").count(), 16);
    assert!(!reply.body.contains(";quality") && !reply.body.contains(";age"));
    // The client still hands every attribute its quality and age.
    for rec in &reply.records {
        assert_eq!(rec.attributes.len(), 24);
        assert!(rec
            .attributes
            .iter()
            .all(|a| a.quality == Some(1.0) && a.age_secs.is_some()));
    }
    assert_eq!(reply.records[15].attributes[23].name, "K15:a23");
    assert_eq!(reply.records[15].attributes[23].value.len(), 24);
    sandbox.shutdown();
}

#[test]
fn text_that_would_kill_the_process_is_bad_rsl_on_a_connection_that_lives_on() {
    // One request from any user (the WS gateway asks for no credentials
    // at all) must not take the service down for everyone.
    use infogram::core::ws::{WsClient, WsGateway};
    use infogram::core::InfoGramDispatcher;
    use infogram::proto::message::{Reply, Request};
    use std::sync::Arc;
    let sandbox = Sandbox::start();
    // The parser recurses once per `(`. Unbounded, 100 000 of them
    // overflowed the connection thread's stack, and a stack overflow
    // aborts the whole process.
    let nesting = "(".repeat(100_000);
    // Each variable is twice the one before it. Unbounded, forty of them
    // are a terabyte `String`, and a failed allocation aborts as well.
    let doubling: String = (0..40)
        .map(|i| format!("(rslsubstitution=(V{} $(V{i}) # $(V{i})))", i + 1))
        .collect();
    let doubling = format!("(rslsubstitution=(V0 aaaaaaaa)){doubling}(info=$(V40))");

    let gateway = WsGateway::start(
        InfoGramDispatcher::new(
            Arc::clone(sandbox.service.engine()),
            Arc::clone(sandbox.service.info_service()),
        ),
        "/O=Grid/OU=WS/CN=Gateway",
        "gregor",
        &sandbox.net,
        "node00.grid.example.org:8080",
    )
    .unwrap();
    let mut client = sandbox.connect_client();
    let mut ws = WsClient::connect(&sandbox.net, gateway.addr()).unwrap();
    let submit = |rsl: &str| Request::Submit {
        rsl: rsl.to_string(),
        callback: false,
    };
    for hostile in [&nesting, &doubling] {
        match client.query_rsl(hostile) {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, codes::BAD_RSL),
            other => panic!("{other:?}"),
        }
        assert_eq!(client.query_rsl("(info=Memory)").unwrap().record_count, 1);

        match ws.call(&submit(hostile)).unwrap() {
            Reply::Error { code, .. } => assert_eq!(code, codes::BAD_RSL),
            other => panic!("{other:?}"),
        }
        match ws.call(&submit("(info=Memory)")).unwrap() {
            Reply::InfoResult { record_count, .. } => assert_eq!(record_count, 1),
            other => panic!("{other:?}"),
        }
    }
    gateway.shutdown();
    sandbox.shutdown();
}

#[test]
fn a_comparison_on_a_tag_is_bad_rsl_not_an_assignment() {
    // `(executable!=/bin/rm)` used to run `/bin/rm`: the operator was
    // never read.
    let sandbox = Sandbox::start();
    let mut client = sandbox.connect_client();
    match client.submit("&(executable!=/bin/rm)(count<3)", false) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, codes::BAD_RSL);
            assert!(message.contains("executable!=/bin/rm"), "{message}");
        }
        other => panic!("{other:?}"),
    }
    sandbox.shutdown();
}

#[test]
fn rsl_variables_reach_the_job_and_the_query() {
    // `$(D)` used to arrive as the literal argument "$(D)" (and the
    // `directory` as nothing at all). The simulated host has no working
    // directory to observe, so the listing goes by the argument.
    let sandbox = Sandbox::start();
    let mut client = sandbox.connect_client();
    let handle = client
        .submit(
            "&(rslsubstitution=(D /home/gregor))(executable=/bin/ls)(directory=$(D))(arguments=$(D))",
            false,
        )
        .unwrap();
    let (poll, deadline) = wait_opts();
    let (state, exit, output) = client.wait_terminal(&handle, poll, deadline).unwrap();
    assert_eq!((state, exit), (JobStateCode::Done, Some(0)), "{output}");
    assert!(output.contains("paper.tex"), "{output}");

    let reply = client
        .query_rsl("(rslsubstitution=(K Memory))(info=$(K))")
        .unwrap();
    assert_eq!(reply.records[0].keyword, "Memory");
    // An unbound variable is a malformed request, not a keyword named "$(K)".
    match client.query_rsl("(info=$(K))") {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, codes::BAD_RSL);
            assert!(message.contains("$(K)"), "{message}");
        }
        other => panic!("{other:?}"),
    }
    sandbox.shutdown();
}

/// A client submits with `callback=true` and hangs up before its job
/// ends. The engine holds the connection's outbox weakly, so the outbox
/// goes with the connection — a long job keeps no socket open — and the
/// job's end, with nobody left to tell, is an ordinary poll from a later
/// connection.
#[test]
fn a_callback_job_outlives_its_connection() {
    use infogram::core::InfoGramDispatcher;
    use infogram::exec::gram::{ConnCtx, GramServer, RequestDispatcher};
    use infogram::gsi::{Authorizer, CertificateAuthority, Dn, GridMap};
    use infogram::proto::message::{Reply, Request};
    use infogram::proto::transport::Transport;
    use infogram::proto::Outbox;
    use infogram::sim::{SimTime, SplitMix64};
    use infogram_client::InfoGramClient;
    use parking_lot::Mutex;
    use std::sync::{Arc, Weak};

    /// The unified dispatcher, keeping a weak reference to the outbox
    /// of the last connection it served.
    struct Spy {
        inner: Arc<InfoGramDispatcher>,
        outbox: Mutex<Weak<Outbox>>,
    }
    impl RequestDispatcher for Spy {
        fn dispatch(
            &self,
            owner: &str,
            account: &str,
            request: Request,
            ctx: &mut ConnCtx,
        ) -> Reply {
            if let Some(outbox) = ctx.outbox() {
                *self.outbox.lock() = Arc::downgrade(outbox);
            }
            self.inner.dispatch(owner, account, request, ctx)
        }
        fn connection_closed(&self, ctx: &mut ConnCtx) {
            self.inner.connection_closed(ctx);
        }
    }

    let sandbox = Sandbox::start();
    let engine = sandbox.service.engine();
    let mut rng = SplitMix64::new(24);
    let year = Duration::from_secs(365 * 86_400);
    let ca = CertificateAuthority::new_root(
        &Dn::user("Grid", "CA", "Spy"),
        &mut rng,
        SimTime::ZERO,
        year,
    );
    let user = ca.issue(
        &Dn::user("Grid", "ANL", "Gregor"),
        &mut rng,
        SimTime::ZERO,
        year,
    );
    let host = ca.issue(
        &Dn::user("Grid", "Hosts", "spy.grid"),
        &mut rng,
        SimTime::ZERO,
        year,
    );
    let roots = vec![ca.certificate().clone()];
    let mut gridmap = GridMap::new();
    gridmap.add(Dn::user("Grid", "ANL", "Gregor"), &["gregor"]);
    let spy = Arc::new(Spy {
        inner: InfoGramDispatcher::new(
            Arc::clone(engine),
            Arc::clone(sandbox.service.info_service()),
        ),
        outbox: Mutex::new(Weak::new()),
    });
    let server = GramServer::start(
        Arc::clone(engine),
        Arc::clone(&spy) as Arc<dyn RequestDispatcher>,
        sandbox.net.listen("spy.grid:0").unwrap(),
        host,
        roots.clone(),
        Arc::new(Authorizer::gridmap_only(gridmap)),
        sandbox.clock.clone(),
    );
    let connect = || {
        InfoGramClient::connect(
            &sandbox.net,
            server.addr(),
            &user,
            &roots,
            sandbox.clock.clone(),
        )
        .unwrap()
    };
    let active = || engine.metrics().gauge_value("gram.connections.active");

    let mut client = connect();
    let handle = client
        .submit("(executable=simwork)(arguments=300)", true)
        .unwrap();
    let outbox = spy.outbox.lock().clone();
    assert!(outbox.upgrade().is_some(), "the connection is open");
    drop(client);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while active() != 0.0 {
        assert!(
            std::time::Instant::now() < deadline,
            "the connection never ended"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        outbox.upgrade().is_none(),
        "the job kept its connection's outbox"
    );
    assert_eq!(engine.live_jobs(), 1, "the job outlived the connection");

    let mut later = connect();
    let (state, exit, _) = later
        .wait_terminal(&handle, wait_opts().0, wait_opts().1)
        .unwrap();
    assert_eq!((state, exit), (JobStateCode::Done, Some(0)));
    assert_eq!(
        later.next_event(),
        None,
        "no Event strays onto another connection"
    );
    drop(later);
    server.shutdown();
    sandbox.shutdown();
}
