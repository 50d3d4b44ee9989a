//! The same service over real TCP.
//!
//! Everything else in the suite uses the deterministic in-memory network;
//! this file proves the stack also runs over `std::net` sockets — frames,
//! handshake, info queries and jobs included.

// Test harness: panic-on-failure is the error policy here.
#![allow(clippy::unwrap_used)]

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
use infogram::proto::message::{codes, JobStateCode, Reply, Request, PROTOCOL_VERSION};
use infogram::proto::transport::tcp::TcpTransport;
use infogram::proto::transport::{Conn, Transport};
use infogram::proto::JobHandle;
use infogram::sim::clock::SharedClock;
use infogram::sim::metrics::MetricSet;
use infogram::sim::{varint, SimTime, SplitMix64, SystemClock};
use infogram_client::InfoGramClient;
use std::sync::Arc;
use std::time::Duration;

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
