//! The same service over real TCP.
//!
//! Everything else in the suite uses the deterministic in-memory network;
//! this file proves the stack also runs over `std::net` sockets — frames,
//! handshake, info queries and jobs included.

use infogram::core::{InfoGramParams, InfoGramService};
use infogram::exec::sandbox::{ExecMode, Policy};
use infogram::exec::wal::Wal;
use infogram::gsi::{
    wire_client_finish, wire_client_hello, Authorizer, Certificate, CertificateAuthority,
    Credential, Dn, GridMap,
};
use infogram::host::commands::{ChargeMode, CommandRegistry};
use infogram::host::machine::SimulatedHost;
use infogram::info::config::ServiceConfig;
use infogram::mds::protocol::{MdsReply, MDS_PROTOCOL_VERSION};
use infogram::proto::frame::{header_len, read_frame};
use infogram::proto::message::{codes, JobStateCode, Reply, Request, PROTOCOL_VERSION};
use infogram::proto::transport::tcp::TcpTransport;
use infogram::proto::transport::{Conn, Transport, HANDSHAKE_DEADLINE};
use infogram::proto::JobHandle;
use infogram::sim::clock::SharedClock;
use infogram::sim::metrics::MetricSet;
use infogram::sim::{varint, SimTime, SplitMix64, SystemClock};
use infogram_client::InfoGramClient;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[path = "support/handshake_peers.rs"]
mod handshake_peers;

use handshake_peers::{named_issuer_hello, trickle_until_dropped};

/// A service on `127.0.0.1:0` and what a client needs to reach it.
struct TcpWorld {
    clock: SharedClock,
    transport: TcpTransport,
    service: Arc<InfoGramService>,
    user: Credential,
    roots: Vec<Certificate>,
}

impl TcpWorld {
    fn start() -> TcpWorld {
        let clock = SystemClock::shared();
        let mut rng = SplitMix64::new(4242);
        let ca = CertificateAuthority::new_root(
            &Dn::user("Grid", "CA", "TCP Root"),
            &mut rng,
            SimTime::ZERO,
            Duration::from_secs(86_400),
        );
        let user = ca.issue(
            &Dn::user("Grid", "ANL", "TcpUser"),
            &mut rng,
            SimTime::ZERO,
            Duration::from_secs(3600),
        );
        let service_cred = ca.issue(
            &Dn::user("Grid", "Hosts", "127.0.0.1"),
            &mut rng,
            SimTime::ZERO,
            Duration::from_secs(3600),
        );
        let roots = vec![ca.certificate().clone()];
        let mut gridmap = GridMap::new();
        gridmap.add(Dn::user("Grid", "ANL", "TcpUser"), &["tcpuser"]);

        let host = SimulatedHost::default_on(clock.clone());
        let registry = CommandRegistry::new(host, ChargeMode::Sleep);
        let transport = TcpTransport::new();
        let service = InfoGramService::start(
            InfoGramParams {
                service_name: "infogram-tcp".to_string(),
                bind_addr: "127.0.0.1:0".to_string(),
                config: ServiceConfig::table1(),
                sandbox_policy: Policy::restrictive(),
                sandbox_mode: ExecMode::Isolated,
                credential: service_cred,
                trust_roots: roots.clone(),
                authorizer: Arc::new(Authorizer::gridmap_only(gridmap)),
            },
            registry,
            vec![],
            Wal::in_memory(),
            &transport,
            clock.clone(),
            MetricSet::new(),
        )
        .unwrap();
        TcpWorld {
            clock,
            transport,
            service,
            user,
            roots,
        }
    }

    fn connect(&self, addr: &str) -> InfoGramClient {
        InfoGramClient::connect(
            &self.transport,
            addr,
            &self.user,
            &self.roots,
            self.clock.clone(),
        )
        .unwrap()
    }

    /// A raw connection past the GSI handshake and the authorization
    /// ack, for sending bytes no client would.
    fn raw_session(&self) -> Box<dyn Conn> {
        let conn = self.transport.connect(self.service.addr()).unwrap();
        let mut rng = SplitMix64::new(7);
        let (hello, nonce) = wire_client_hello(&self.user, &mut rng);
        conn.send(&hello).unwrap();
        let resp = conn.recv().unwrap();
        let (fin, _) =
            wire_client_finish(&self.user, &self.roots, &resp, nonce, self.clock.now()).unwrap();
        conn.send(&fin).unwrap();
        assert_eq!(Reply::decode(&conn.recv().unwrap()).unwrap(), Reply::Pong);
        conn
    }
}

#[test]
fn full_stack_over_tcp() {
    let w = TcpWorld::start();
    let mut client = w.connect(w.service.addr());

    // Information query over real sockets.
    let result = client.info("Memory").unwrap();
    assert_eq!(result.record_count, 1);
    assert!(result.records[0].get("Memory:total").is_some());

    // Job over real sockets.
    let handle = client
        .submit("(executable=simwork)(arguments=30)", false)
        .unwrap();
    let (state, exit, _) = client
        .wait_terminal(&handle, Duration::from_millis(5), Duration::from_secs(10))
        .unwrap();
    assert_eq!(state, JobStateCode::Done);
    assert_eq!(exit, Some(0));

    // Traffic was really metered by the TCP transport.
    assert!(w.transport.metrics().counter_value("net.bytes") > 0);
    w.service.shutdown();
}

/// §2: the handle "can be used for later connection, including from
/// other remote clients" — so it names the port the service listens on,
/// not the `:0` it was asked to bind.
#[test]
fn a_handle_names_the_port_the_service_listens_on() {
    let w = TcpWorld::start();
    let handle = w
        .connect(w.service.addr())
        .submit("(executable=simwork)(arguments=20)", false)
        .unwrap();
    assert_eq!(handle.endpoint(), w.service.addr());

    let mut other = w.connect(&handle.endpoint());
    let (state, exit, _) = other
        .wait_terminal(&handle, Duration::from_millis(5), Duration::from_secs(10))
        .unwrap();
    assert_eq!(state, JobStateCode::Done);
    assert_eq!(exit, Some(0));
    w.service.shutdown();
}

/// A frame whose bytes are not a request is answered with a typed error
/// and the connection goes on: the next request on the *same*
/// connection is served.
#[test]
fn a_malformed_request_leaves_its_connection_serving() {
    let w = TcpWorld::start();
    let conn = w.raw_session();
    let status = Request::Status {
        handle: JobHandle::new("127.0.0.1", 2119, 300, 1),
    }
    .encode();
    let mut malformed = vec![
        Vec::new(),
        vec![2, 1],
        [&status[..], &[0]].concat(),
        [&status[..2], &[0x80; 11]].concat(),
        [&status[..2], &[0x7f, b'h']].concat(),
    ];
    malformed.extend((1..status.len()).map(|cut| status[..cut].to_vec()));
    for bytes in &malformed {
        conn.send(bytes).unwrap();
        match Reply::decode(&conn.recv().unwrap()).unwrap() {
            Reply::Error { code, .. } => assert_eq!(code, codes::BAD_RSL, "{bytes:?}"),
            other => panic!("{bytes:?} answered {other:?}"),
        }
    }

    let query = Request::Submit {
        rsl: "(info=Memory)".to_string(),
        callback: false,
    };
    conn.send(&query.encode()).unwrap();
    match Reply::decode(&conn.recv().unwrap()).unwrap() {
        Reply::InfoResult { record_count, body } => {
            assert_eq!(record_count, 1);
            assert!(body.contains("Memory"), "{body}");
        }
        other => panic!("(info=Memory) answered {other:?}"),
    }
    w.service.shutdown();
}

/// A v4 peer's messages carry the v4 version byte: a v5 service refuses
/// its request rather than answer a body the peer would read without
/// its attributes' namespace.
#[test]
fn a_v4_request_is_refused_and_never_answered() {
    let w = TcpWorld::start();
    let queries = || w.service.engine().metrics().counter_value("info.queries");
    let conn = w.raw_session();
    let mut v4 = Request::Submit {
        rsl: "(info=Memory)".to_string(),
        callback: false,
    }
    .encode();
    assert_eq!(v4[0], PROTOCOL_VERSION);
    v4[0] = 4;
    conn.send(&v4).unwrap();
    match Reply::decode(&conn.recv().unwrap()).unwrap() {
        Reply::Error { code, message } => {
            assert_eq!(code, codes::BAD_RSL);
            assert!(
                message.contains("unsupported protocol version 4"),
                "{message}"
            );
        }
        other => panic!("a v4 request answered {other:?}"),
    }
    assert_eq!(queries(), 0);
    // The same request under the current version is answered.
    v4[0] = PROTOCOL_VERSION;
    conn.send(&v4).unwrap();
    let reply = Reply::decode(&conn.recv().unwrap()).unwrap();
    assert!(
        matches!(
            reply,
            Reply::InfoResult {
                record_count: 1,
                ..
            }
        ),
        "{reply:?}"
    );
    assert_eq!(queries(), 1);
    w.service.shutdown();
}

/// How the handshake's HELLO was spelled before it went binary: decimal
/// fields between ASCII unit (`\x1f`) and record (`\x1e`) separators.
fn text_form_hello(user: &Credential) -> Vec<u8> {
    let c = &user.chain[0];
    let cert = [
        c.subject.to_string(),
        c.issuer.to_string(),
        c.serial.to_string(),
        c.not_before.as_nanos().to_string(),
        c.not_after.as_nanos().to_string(),
        c.subject_key.0.to_string(),
        "EE".to_string(), // an end entity
        c.signature.to_string(),
    ]
    .join("\x1f");
    format!("HELLO\x1f42\x1e{cert}").into_bytes()
}

/// A peer still naming every issuer is refused by the HELLO's tag, with
/// `AUTHENTICATION`, before its chain is read as today's encoding; the
/// service goes on.
#[test]
fn a_peer_naming_every_issuer_is_refused_at_the_handshake() {
    let w = TcpWorld::start();
    let counter = |name: &str| w.service.engine().metrics().counter_value(name);
    let conn = w.transport.connect(w.service.addr()).unwrap();
    conn.send(&named_issuer_hello(&w.user)).unwrap();
    match Reply::decode(&conn.recv().unwrap()).unwrap() {
        Reply::Error { code, message } => {
            assert_eq!(code, codes::AUTHENTICATION);
            assert!(message.contains("not a HELLO"), "{message}");
        }
        other => panic!("an issuer-naming HELLO answered {other:?}"),
    }
    assert_eq!(counter("gram.auth_failures"), 1);
    assert_eq!(counter("gram.handshakes"), 0);
    assert_eq!(
        w.connect(w.service.addr())
            .info("Memory")
            .unwrap()
            .record_count,
        1
    );
    w.service.shutdown();
}

/// The handshake deadline counts from accept: a peer trickling its HELLO
/// one byte a second, each read fed long before it would time out, is
/// still dropped once `HANDSHAKE_DEADLINE` has passed.
#[test]
fn a_trickled_hello_is_dropped_at_the_handshake_deadline() {
    let w = TcpWorld::start();
    let (hello, _) = wire_client_hello(&w.user, &mut SplitMix64::new(11));
    trickle_until_dropped(w.service.addr(), &hello);
    assert_eq!(
        w.service
            .engine()
            .metrics()
            .counter_value("gram.handshakes"),
        0
    );
    w.service.shutdown();
}

/// A HELLO the gatekeeper cannot read is refused with `AUTHENTICATION`,
/// and the service goes on: a fresh connection authenticates and is
/// answered.
#[test]
fn an_unreadable_hello_is_refused_and_the_next_connection_served() {
    let w = TcpWorld::start();
    let (hello, _) = wire_client_hello(&w.user, &mut SplitMix64::new(3));
    // Tag and 8-byte nonce, then the chain's certificate count.
    let count_at = 9;
    assert_eq!(hello[count_at], 1);
    let claims_2_60 = [
        &hello[..count_at],
        &varint::encode(1 << 60),
        &hello[count_at + 1..],
    ]
    .concat();
    for bytes in [
        text_form_hello(&w.user),
        hello[..hello.len() / 2].to_vec(),
        claims_2_60,
    ] {
        let conn = w.transport.connect(w.service.addr()).unwrap();
        conn.send(&bytes).unwrap();
        match Reply::decode(&conn.recv().unwrap()).unwrap() {
            Reply::Error { code, .. } => assert_eq!(code, codes::AUTHENTICATION, "{bytes:?}"),
            other => panic!("{bytes:?} answered {other:?}"),
        }

        let result = w.connect(w.service.addr()).info("Memory").unwrap();
        assert_eq!(result.record_count, 1);
    }
    w.service.shutdown();
}

/// No handshake message reads as a request or reply of either protocol
/// in the tree: its tag is neither protocol's version byte.
#[test]
fn handshake_messages_are_neither_infogram_nor_mds_messages() {
    let w = TcpWorld::start();
    let conn = w.transport.connect(w.service.addr()).unwrap();
    let (hello, nonce) = wire_client_hello(&w.user, &mut SplitMix64::new(5));
    conn.send(&hello).unwrap();
    let resp = conn.recv().unwrap();
    let (fin, _) = wire_client_finish(&w.user, &w.roots, &resp, nonce, w.clock.now()).unwrap();
    for message in [&hello, &resp, &fin] {
        assert_ne!(message[0], PROTOCOL_VERSION);
        assert_ne!(message[0], MDS_PROTOCOL_VERSION);
        assert!(Reply::decode(message).is_err(), "{message:?}");
        assert!(Request::decode(message).is_err(), "{message:?}");
        assert!(MdsReply::decode(message).is_err(), "{message:?}");
    }
    w.service.shutdown();
}

/// `net.bytes` is what the socket carries: a raw peer counts every byte
/// a `TcpConn` sends, header included, and the counter grows by as much.
#[test]
fn the_meter_counts_every_byte_a_tcp_conn_sends() {
    let transport = TcpTransport::new();
    let peer = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = peer.local_addr().unwrap().to_string();
    for len in [0, 1, 32_767, 32_768, 1 << 20] {
        let (carried, metered) = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let (mut stream, _) = peer.accept().unwrap();
                let mut all = Vec::new();
                stream.read_to_end(&mut all).unwrap();
                all.len()
            });
            let before = transport.metrics().counter_value("net.bytes");
            let conn = transport.connect(&addr).unwrap();
            conn.send(&vec![7; len]).unwrap();
            drop(conn);
            let metered = transport.metrics().counter_value("net.bytes") - before;
            (reader.join().unwrap(), metered)
        });
        assert_eq!(carried, len + header_len(len), "{len}");
        assert_eq!(metered, carried as u64, "{len}");
    }
}

/// A v3 peer frames its HELLO behind a 4-byte length. Its first two
/// bytes read as an empty frame, which is no HELLO: the gatekeeper
/// refuses it, and the request the peer sends next is never dispatched.
#[test]
fn a_v3_peer_is_refused_at_the_handshake_and_never_dispatched() {
    let w = TcpWorld::start();
    let counter = |name: &str| w.service.engine().metrics().counter_value(name);
    let (hello, _) = wire_client_hello(&w.user, &mut SplitMix64::new(9));
    let query = Request::Submit {
        rsl: "(info=Memory)".to_string(),
        callback: false,
    }
    .encode();
    let mut v3 = Vec::new();
    for message in [&hello, &query] {
        v3.extend_from_slice(&(message.len() as u32).to_be_bytes());
        v3.extend_from_slice(message);
    }
    let mut stream = TcpStream::connect(w.service.addr()).unwrap();
    stream.write_all(&v3).unwrap();
    match Reply::decode(&read_frame(&mut stream).unwrap()).unwrap() {
        Reply::Error { code, .. } => assert_eq!(code, codes::AUTHENTICATION),
        other => panic!("a v3 HELLO answered {other:?}"),
    }
    assert_eq!(counter("gram.auth_failures"), 1);
    assert_eq!(counter("gram.handshakes"), 0);
    assert_eq!(counter("gram.requests"), 0);
    assert_eq!(
        w.connect(w.service.addr())
            .info("Memory")
            .unwrap()
            .record_count,
        1
    );
    w.service.shutdown();
}

/// A peer that connects and sends nothing, and one that sends one byte
/// of a header and stops, each hold a connection only until the
/// handshake deadline; a client connecting meanwhile is served.
#[test]
fn a_stalled_handshake_is_dropped_at_its_deadline() {
    let w = TcpWorld::start();
    let active = || {
        w.service
            .engine()
            .metrics()
            .gauge_value("gram.connections.active")
    };
    let until = |want: f64, by: Instant| {
        while active() != want {
            assert!(
                Instant::now() < by,
                "{} connections active, not {want}",
                active()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    };
    let start = Instant::now();
    let _half_open = TcpStream::connect(w.service.addr()).unwrap();
    let mut slow_loris = TcpStream::connect(w.service.addr()).unwrap();
    slow_loris.write_all(&[0]).unwrap();
    until(2.0, start + Duration::from_secs(1));

    let mut client = w.connect(w.service.addr());
    assert_eq!(client.info("Memory").unwrap().record_count, 1);
    assert_eq!(active(), 3.0);
    drop(client);

    until(0.0, start + HANDSHAKE_DEADLINE + Duration::from_secs(1));
    assert!(
        start.elapsed() >= HANDSHAKE_DEADLINE,
        "{:?}",
        start.elapsed()
    );
    w.service.shutdown();
}

/// A subscriber whose peer stopped reading holds a scheduled refresh's
/// send at most `HANDSHAKE_DEADLINE`: the write fails, the outbox closes
/// and the subscription is evicted, and a later scheduled refresh of the
/// watched keyword completes.
#[test]
fn a_peer_that_stops_reading_holds_a_scheduled_refresh_only_until_the_write_deadline() {
    use infogram::info::{
        DegradationFn, FnProvider, RefreshScheduler, SubscriptionHub, SystemInformation,
    };
    use infogram::proto::Outbox;
    use infogram::sim::ManualClock;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc;

    let transport = TcpTransport::new();
    let listener = transport.listen("127.0.0.1:0").unwrap();
    // Connected, and never read from.
    let _peer = TcpStream::connect(listener.local_addr()).unwrap();
    let conn: Arc<dyn Conn> = Arc::from(listener.accept().unwrap());

    // Every refresh changes 256 KiB of values: a few dozen fill the
    // socket buffers between the two ends.
    let clock = ManualClock::new();
    let produced = AtomicU64::new(0);
    let bulk = FnProvider::new("Bulk", move || {
        let n = produced.fetch_add(1, Ordering::Relaxed);
        let value = format!("{n}:{}", "x".repeat(4096));
        Ok((0..64).map(|i| (format!("a{i}"), value.clone())).collect())
    });
    let ttl = Duration::from_secs(1);
    let si = SystemInformation::new(Box::new(bulk), clock.clone(), ttl, DegradationFn::default());
    let hub = SubscriptionHub::new("node0.grid", MetricSet::new());
    let sched = RefreshScheduler::new(clock.clone(), MetricSet::new(), Arc::clone(&hub));
    sched.watch(Arc::clone(&si)).unwrap();
    hub.subscribe(&["Bulk".to_string()], "t", Outbox::new(conn, 8));

    // The driver's part: tick until the subscription is gone, then once
    // more; each tick reports how long it took.
    let (ticked, ticks) = mpsc::channel();
    let driver = std::thread::spawn(move || {
        let mut after = 0;
        while after < 2 {
            let start = Instant::now();
            sched.tick();
            after += usize::from(hub.active() == 0);
            ticked
                .send((start.elapsed(), si.execution_count()))
                .unwrap();
            clock.advance(ttl);
        }
    });
    let (mut longest, mut executions) = (Duration::ZERO, Vec::new());
    loop {
        match ticks.recv_timeout(HANDSHAKE_DEADLINE + Duration::from_secs(1)) {
            Ok((took, executed)) => {
                longest = longest.max(took);
                executions.push(executed);
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("a tick is held past the deadline"),
        }
    }
    driver.join().unwrap();
    assert!(
        longest >= HANDSHAKE_DEADLINE / 2,
        "no send blocked: {longest:?}"
    );
    let n = executions.len();
    assert_eq!(
        executions[n - 1],
        n as u64,
        "every tick refreshed: {executions:?}"
    );
}
