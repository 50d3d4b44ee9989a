//! No handshake endpoint reuses a nonce.
//!
//! The GSI handshake proves each side holds its key by signing the
//! other side's nonce. If a server hands two connections the same nonce,
//! a recorded HELLO + FIN authenticates the second one as the recorded
//! user, without the user's key; if two clients send the same nonce, a
//! RESP recorded for one authenticates the server to the other, so a man
//! in the middle without the server's key passes for the server. Under a
//! manual clock every endpoint runs at the same clock reading, so a
//! nonce seeded from the clock alone repeats: the server tests replay
//! one honest session on a second connection to the GRAM gatekeeper and
//! to the MDS server; the client tests replay the server's RESP to a
//! second `GramClient` and a second `MdsClient`.

use infogram::client::{ClientError, GramClient};
use infogram::exec::gram::{self, JobsOnlyDispatcher};
use infogram::exec::{EngineConfig, ForkBackend, JobEngine, Wal};
use infogram::gsi::{
    wire_client_finish, wire_client_hello, Authorizer, Certificate, CertificateAuthority,
    Credential, Dn, GridMap,
};
use infogram::host::commands::{ChargeMode, CommandRegistry};
use infogram::host::machine::SimulatedHost;
use infogram::info::config::ServiceConfig;
use infogram::info::service::InformationService;
use infogram::mds::client::MdsClientError;
use infogram::mds::protocol::MdsReply;
use infogram::mds::{service, Gris, MdsClient};
use infogram::proto::message::{codes, Reply};
use infogram::proto::transport::mem::MemNetwork;
use infogram::proto::transport::Acceptor;
use infogram::proto::{ProtoError, Transport};
use infogram::sim::clock::SharedClock;
use infogram::sim::metrics::MetricSet;
use infogram::sim::{ManualClock, SimTime, SplitMix64};
use std::sync::Arc;
use std::time::Duration;

struct World {
    clock: SharedClock,
    net: Arc<MemNetwork>,
    user: Credential,
    server: Credential,
    roots: Vec<Certificate>,
    registry: Arc<CommandRegistry>,
}

fn world() -> World {
    let clock: SharedClock = ManualClock::new();
    let mut rng = SplitMix64::new(33);
    let ca = CertificateAuthority::new_root(
        &Dn::user("Grid", "CA", "Root"),
        &mut rng,
        SimTime::ZERO,
        Duration::from_secs(86_400),
    );
    let mut issue = |name: &str| {
        let dn = Dn::user("Grid", "ANL", name);
        ca.issue(&dn, &mut rng, SimTime::ZERO, Duration::from_secs(86_400))
    };
    let user = issue("Gregor");
    let server = issue("server.grid");
    let host = SimulatedHost::default_on(clock.clone());
    World {
        registry: CommandRegistry::new(host, ChargeMode::None),
        roots: vec![ca.certificate().clone()],
        net: MemNetwork::ideal(),
        clock,
        user,
        server,
    }
}

type Exchange<T> = Result<T, Box<dyn std::error::Error>>;

/// One honest handshake as `w.user`: the HELLO and FIN it sent, and what
/// the server answered the FIN with.
fn honest_session(w: &World, addr: &str) -> Exchange<(Vec<u8>, Vec<u8>, Vec<u8>)> {
    let conn = w.net.connect(addr)?;
    let mut rng = SplitMix64::new(7);
    let (hello, nonce) = wire_client_hello(&w.user, &mut rng);
    conn.send(&hello)?;
    let resp = conn.recv()?;
    let (fin, _) = wire_client_finish(&w.user, &w.roots, &resp, nonce, w.clock.now())?;
    conn.send(&fin)?;
    let ack = conn.recv()?;
    Ok((hello, fin, ack))
}

/// Send a recorded HELLO and FIN on a fresh connection; the server's
/// answer to the FIN.
fn replay(w: &World, addr: &str, hello: &[u8], fin: &[u8]) -> Exchange<Vec<u8>> {
    let conn = w.net.connect(addr)?;
    conn.send(hello)?;
    conn.recv()?;
    conn.send(fin)?;
    Ok(conn.recv()?)
}

/// A GRAM gatekeeper (jobs only) mapping `w.user` to `gregor`.
fn gatekeeper(w: &World) -> Acceptor {
    let engine = JobEngine::new(
        EngineConfig::default(),
        w.clock.clone(),
        Wal::in_memory(),
        ForkBackend::new(Arc::clone(&w.registry)),
        MetricSet::new(),
    );
    let mut gridmap = GridMap::new();
    gridmap.add(Dn::user("Grid", "ANL", "Gregor"), &["gregor"]);
    gram::serve(
        Arc::clone(&engine),
        JobsOnlyDispatcher::new(engine),
        w.net.listen("gram.grid:0").expect("gatekeeper binds"),
        w.server.clone(),
        w.roots.clone(),
        Arc::new(Authorizer::gridmap_only(gridmap)),
        w.clock.clone(),
    )
}

/// An MDS server over a Table 1 GRIS.
fn mds_server(w: &World) -> Acceptor {
    let info = InformationService::from_config(
        &ServiceConfig::table1(),
        Arc::clone(&w.registry),
        w.clock.clone(),
        MetricSet::new(),
    );
    service::serve(
        Gris::new(info),
        &w.net,
        "mds.grid:0",
        w.server.clone(),
        w.roots.clone(),
        Arc::new(Authorizer::gridmap_only(
            GridMap::parse("\"/O=Grid/OU=ANL/CN=Gregor\" gregor").unwrap(),
        )),
        w.clock.clone(),
        &MetricSet::new(),
    )
    .expect("MDS server binds")
}

/// A man in the middle of two clients at one clock reading, without the
/// server's key. It relays the first client's handshake to the server at
/// `upstream` and keeps the server's RESP; it answers the second
/// client's HELLO with that RESP, and a FIN with `ack`. `connect` runs
/// one client through it; the two clients' results are returned.
fn through_a_middleman<T>(
    w: &World,
    upstream: &str,
    ack: &[u8],
    connect: impl Fn(&str) -> T,
) -> (T, T) {
    let listener = w.net.listen("mitm.grid:0").expect("middleman binds");
    let addr = listener.local_addr();
    std::thread::scope(|scope| {
        scope.spawn(|| -> Result<(), ProtoError> {
            let first = listener.accept()?;
            let server = w.net.connect(upstream)?;
            server.send(&first.recv()?)?;
            let resp = server.recv()?;
            first.send(&resp)?;
            server.send(&first.recv()?)?;
            first.send(&server.recv()?)?;
            let second = listener.accept()?;
            second.recv()?;
            second.send(&resp)?;
            second.recv()?;
            second.send(ack)
        });
        (connect(&addr), connect(&addr))
    })
}

#[test]
fn the_gatekeeper_refuses_a_replayed_handshake() {
    let w = world();
    let server = gatekeeper(&w);
    let (hello, fin, ack) = honest_session(&w, server.addr()).unwrap();
    assert_eq!(Reply::decode(&ack).unwrap(), Reply::Pong);
    match Reply::decode(&replay(&w, server.addr(), &hello, &fin).unwrap()).unwrap() {
        Reply::Error { code, .. } => assert_eq!(code, codes::AUTHENTICATION),
        other => panic!("a replayed handshake was answered {other:?}"),
    }
    server.shutdown();
}

#[test]
fn the_mds_server_refuses_a_replayed_bind() {
    let w = world();
    let server = mds_server(&w);
    let (hello, fin, ack) = honest_session(&w, server.addr()).unwrap();
    assert!(matches!(
        MdsReply::decode(&ack).unwrap(),
        MdsReply::SearchResult { count: 0, .. }
    ));
    match MdsReply::decode(&replay(&w, server.addr(), &hello, &fin).unwrap()).unwrap() {
        MdsReply::Error { message } => assert!(message.contains("bind failed"), "{message}"),
        other => panic!("a replayed bind was answered {other:?}"),
    }
    server.shutdown();
}

#[test]
fn a_gram_client_refuses_a_resp_recorded_for_another_client() {
    let w = world();
    let server = gatekeeper(&w);
    let connect =
        |addr: &str| GramClient::connect(&w.net, addr, &w.user, &w.roots, w.clock.clone());
    let (first, second) = through_a_middleman(&w, server.addr(), &Reply::Pong.encode(), connect);
    first.unwrap();
    match second {
        Err(ClientError::Protocol(message)) => assert!(message.contains("bad proof"), "{message}"),
        other => panic!(
            "a replayed RESP was accepted: {:?}",
            other.map(|_| "connected")
        ),
    }
    server.shutdown();
}

#[test]
fn an_mds_client_refuses_a_resp_recorded_for_another_client() {
    let w = world();
    let server = mds_server(&w);
    let bound = MdsReply::SearchResult {
        body: String::new(),
        count: 0,
    };
    let bind = |addr: &str| MdsClient::bind(&w.net, addr, &w.user, &w.roots, &w.clock);
    let (first, second) = through_a_middleman(&w, server.addr(), &bound.encode(), bind);
    first.unwrap();
    match second {
        Err(MdsClientError::BindFailed(message)) => {
            assert!(message.contains("bad proof"), "{message}")
        }
        other => panic!("a replayed RESP was accepted: {:?}", other.map(|_| "bound")),
    }
    server.shutdown();
}
