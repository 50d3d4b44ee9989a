//! A server never reuses a handshake nonce.
//!
//! The GSI handshake proves the client holds its key by signing the
//! server's nonce. If a server hands two connections the same nonce, a
//! recorded HELLO + FIN authenticates the second one as the recorded
//! user, without the user's key. Under a manual clock every connection
//! is accepted at the same clock reading, so a nonce seeded from the
//! clock alone repeats: each test records one honest session and
//! replays it on a second connection, at the same clock reading, to the
//! GRAM gatekeeper and to the MDS server.

use infogram::exec::gram::{GramServer, JobsOnlyDispatcher};
use infogram::exec::{EngineConfig, ForkBackend, JobEngine, Wal};
use infogram::gsi::{
    wire_client_finish, wire_client_hello, Authorizer, Certificate, CertificateAuthority,
    Credential, Dn, GridMap,
};
use infogram::host::commands::{ChargeMode, CommandRegistry};
use infogram::host::machine::SimulatedHost;
use infogram::info::config::ServiceConfig;
use infogram::info::service::InformationService;
use infogram::mds::protocol::MdsReply;
use infogram::mds::{Gris, MdsServer};
use infogram::proto::message::{codes, Reply};
use infogram::proto::transport::mem::MemNetwork;
use infogram::proto::Transport;
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

#[test]
fn the_gatekeeper_refuses_a_replayed_handshake() {
    let w = world();
    let engine = JobEngine::new(
        EngineConfig::default(),
        w.clock.clone(),
        Wal::in_memory(),
        ForkBackend::new(Arc::clone(&w.registry)),
        MetricSet::new(),
    );
    let mut gridmap = GridMap::new();
    gridmap.add(Dn::user("Grid", "ANL", "Gregor"), &["gregor"]);
    let server = GramServer::start(
        Arc::clone(&engine),
        JobsOnlyDispatcher::new(engine),
        w.net.listen("gram.grid:0").unwrap(),
        w.server.clone(),
        w.roots.clone(),
        Arc::new(Authorizer::gridmap_only(gridmap)),
        w.clock.clone(),
    );
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
    let info = InformationService::from_config(
        &ServiceConfig::table1(),
        Arc::clone(&w.registry),
        w.clock.clone(),
        MetricSet::new(),
    );
    let server = MdsServer::start(
        Gris::new(info),
        &w.net,
        "mds.grid:0",
        w.server.clone(),
        w.roots.clone(),
        w.clock.clone(),
    )
    .unwrap();
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
