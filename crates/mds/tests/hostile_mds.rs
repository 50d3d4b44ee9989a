//! Hostile bytes over the MDS protocol.
//!
//! Every request and reply of the baseline's second protocol goes
//! through the shared sweep (`tests/support/hostile.rs`): truncated at
//! every byte and every byte flipped. Whatever arrives, decoding returns
//! a typed `MdsWireError` or a message that re-encodes to exactly the
//! bytes it came from, and asks the allocator for nothing larger than
//! the message plus an error message's worth. A search result's body
//! text goes through the same corruptions and its parser returns. Over
//! TCP, a peer framing as protocol v3 did, one whose chain names every
//! issuer, or one that stalls or trickles in the bind, is dropped
//! without a search; a cached HELLO with bytes past its end or an old
//! tag is refused, and one whose digest names nothing falls back.

use infogram_gsi::{
    bind, wire_client_hello, Certificate, CertificateAuthority, Credential, Dn, HandshakeError,
};
use infogram_host::commands::{ChargeMode, CommandRegistry};
use infogram_host::machine::SimulatedHost;
use infogram_info::config::ServiceConfig;
use infogram_info::service::InformationService;
use infogram_mds::client::MdsClient;
use infogram_mds::dit::{DirEntry, Scope};
use infogram_mds::gris::Gris;
use infogram_mds::protocol::{
    entries_from_text, entries_to_text, MdsReply, MdsRequest, MDS_PROTOCOL_VERSION,
};
use infogram_mds::service;
use infogram_proto::frame::{read_frame, write_frame};
use infogram_proto::transport::tcp::TcpTransport;
use infogram_proto::transport::{Acceptor, HANDSHAKE_DEADLINE};
use infogram_sim::clock::SharedClock;
use infogram_sim::metrics::MetricSet;
use infogram_sim::{varint, SimTime, SplitMix64, SystemClock};
use std::cell::RefCell;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

#[path = "../../../tests/support/hostile.rs"]
mod hostile;

#[path = "../../../tests/support/handshake_peers.rs"]
mod handshake_peers;

use handshake_peers::{named_issuer_hello, trickle_until_dropped};

use hostile::{corruptions, input_plus_message, sweep};

#[test]
fn request_decode_survives_every_cut_and_flip() {
    for request in [
        MdsRequest::Search {
            base: "/o=Grid".to_string(),
            scope: Scope::Sub,
            filter: "(&(kw=Memory)(Memory-free>=1))".to_string(),
        },
        MdsRequest::Search {
            base: "/o=Grid/hn=grüße".to_string(),
            scope: Scope::Base,
            filter: "(objectclass=*)".to_string(),
        },
        MdsRequest::Unbind,
    ] {
        sweep(
            &format!("{request:?}"),
            &request.encode(),
            input_plus_message,
            MdsRequest::decode,
            Some(&MdsRequest::encode),
        );
    }
}

#[test]
fn reply_decode_survives_every_cut_and_flip() {
    for reply in [
        MdsReply::SearchResult {
            body: "dn: /o=Grid\nobjectclass: organization\n".to_string(),
            count: 1,
        },
        MdsReply::Error {
            message: "no such base".to_string(),
        },
    ] {
        sweep(
            &format!("{reply:?}"),
            &reply.encode(),
            input_plus_message,
            MdsReply::decode,
            Some(&MdsReply::encode),
        );
    }
}

#[test]
fn an_entry_count_past_u32_is_refused() {
    let past = varint::encode(u64::from(u32::MAX) + 1);
    let bytes = [&[MDS_PROTOCOL_VERSION, 0, 0][..], &past].concat();
    let refusal = MdsReply::decode(&bytes).unwrap_err().reason;
    assert_eq!(refusal, "entry count past u32");
}

/// An MDS over TCP on `127.0.0.1:0`, its counters, a client credential
/// it trusts, and the trust roots.
fn tcp_mds() -> (Acceptor, MetricSet, Credential, Vec<Certificate>) {
    let clock = SystemClock::shared();
    let mut rng = SplitMix64::new(35);
    let day = Duration::from_secs(86_400);
    let ca = CertificateAuthority::new_root(
        &Dn::user("Grid", "CA", "Root"),
        &mut rng,
        SimTime::ZERO,
        day,
    );
    let user = ca.issue(
        &Dn::user("Grid", "ANL", "Client"),
        &mut rng,
        SimTime::ZERO,
        day,
    );
    let host = ca.issue(
        &Dn::user("Grid", "Hosts", "mds"),
        &mut rng,
        SimTime::ZERO,
        day,
    );
    let registry = CommandRegistry::new(SimulatedHost::default_on(clock.clone()), ChargeMode::None);
    let info = InformationService::from_config(
        &ServiceConfig::table1(),
        registry,
        clock.clone(),
        MetricSet::new(),
    );
    let metrics = MetricSet::new();
    let roots = vec![ca.certificate().clone()];
    let transport = TcpTransport::new();
    let server = service::serve(
        Gris::new(info),
        &transport,
        "127.0.0.1:0",
        host,
        roots.clone(),
        std::sync::Arc::new(infogram_gsi::Authorizer::gridmap_only(
            infogram_gsi::GridMap::parse("\"/O=Grid/OU=ANL/CN=Client\" client").unwrap(),
        )),
        clock,
        &metrics,
    )
    .unwrap();
    (server, metrics, user, roots)
}

/// A v3 peer frames its HELLO behind a 4-byte length, whose first two
/// bytes read as an empty frame: no HELLO, so the bind fails and the
/// search that follows is never read.
#[test]
fn a_v3_peer_is_refused_at_the_bind_and_never_searched() {
    let (server, metrics, user, _) = tcp_mds();
    let (hello, _) = wire_client_hello(&user, &mut SplitMix64::new(3));
    let search = MdsRequest::Search {
        base: "/o=Grid".to_string(),
        scope: Scope::Sub,
        filter: "(kw=Memory)".to_string(),
    }
    .encode();
    // One write: the server closes after the first frame, and a second
    // write could meet its reset.
    let mut v3 = Vec::new();
    for message in [&hello, &search] {
        v3.extend_from_slice(&(message.len() as u32).to_be_bytes());
        v3.extend_from_slice(message);
    }
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.write_all(&v3).unwrap();
    let reply = MdsReply::decode(&read_frame(&mut stream).unwrap()).unwrap();
    assert!(matches!(reply, MdsReply::Error { .. }), "{reply:?}");
    assert_eq!(metrics.counter_value("mds.handshakes"), 0);
    assert_eq!(metrics.counter_value("mds.requests"), 0);
    server.shutdown();
}

/// A peer that connects and sends nothing is hung up on once the
/// handshake deadline passes.
#[test]
fn a_silent_peer_is_dropped_at_the_handshake_deadline() {
    let (server, _, _, _) = tcp_mds();
    let start = Instant::now();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(HANDSHAKE_DEADLINE + Duration::from_secs(1)))
        .unwrap();
    assert_eq!(stream.read(&mut [0; 16]).unwrap(), 0, "the server hung up");
    assert!(
        start.elapsed() >= HANDSHAKE_DEADLINE,
        "{:?}",
        start.elapsed()
    );
    server.shutdown();
}

/// A peer still naming every issuer fails the bind on the HELLO's tag,
/// and the search it sends next is never read.
#[test]
fn a_peer_naming_every_issuer_is_refused_at_the_bind_and_never_searched() {
    let (server, metrics, user, _) = tcp_mds();
    let search = MdsRequest::Search {
        base: "/o=Grid".to_string(),
        scope: Scope::Sub,
        filter: "(kw=Memory)".to_string(),
    }
    .encode();
    let mut frames = Vec::new();
    for message in [&named_issuer_hello(&user), &search] {
        frames.extend_from_slice(&(message.len() as u16).to_be_bytes());
        frames.extend_from_slice(message);
    }
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.write_all(&frames).unwrap();
    let reply = MdsReply::decode(&read_frame(&mut stream).unwrap()).unwrap();
    assert!(matches!(reply, MdsReply::Error { .. }), "{reply:?}");
    assert_eq!(metrics.counter_value("mds.handshakes"), 0);
    assert_eq!(metrics.counter_value("mds.requests"), 0);
    server.shutdown();
}

/// The bind's deadline counts from accept: a peer trickling its HELLO
/// one byte a second, so that every read gets a byte long before it
/// would time out, is hung up on once `HANDSHAKE_DEADLINE` has passed.
#[test]
fn a_trickled_hello_is_dropped_at_the_handshake_deadline() {
    let (server, metrics, user, _) = tcp_mds();
    let (hello, _) = wire_client_hello(&user, &mut SplitMix64::new(11));
    trickle_until_dropped(server.addr(), &hello);
    assert_eq!(metrics.counter_value("mds.handshakes"), 0);
    server.shutdown();
}

/// `gsi::bind` over TCP to `addr`, a cached HELLO passed through
/// `tamper`: the server's answer to the last message sent.
fn tampered_bind(
    addr: &str,
    user: &Credential,
    roots: &[Certificate],
    tamper: impl Fn(&mut Vec<u8>),
) -> Vec<u8> {
    let stream = RefCell::new(TcpStream::connect(addr).unwrap());
    let send = |m: &[u8]| {
        let mut m = m.to_vec();
        if m[0] == 0xfa {
            tamper(&mut m);
        }
        write_frame(&mut *stream.borrow_mut(), &m).map_err(|_| None::<HandshakeError>)
    };
    let recv = || read_frame(&mut *stream.borrow_mut()).map_err(|_| None);
    let now = SystemClock::shared().now();
    bind(user, roots, addr, now, send, recv).unwrap().0
}

#[test]
fn a_hostile_cached_hello_is_refused_or_falls_back() {
    let (server, metrics, user, roots) = tcp_mds();
    let clock: SharedClock = SystemClock::shared();
    let transport = TcpTransport::new();
    MdsClient::bind(&transport, server.addr(), &user, &roots, &clock).unwrap();
    let bind = |tamper: &dyn Fn(&mut Vec<u8>)| {
        MdsReply::decode(&tampered_bind(server.addr(), &user, &roots, tamper)).unwrap()
    };
    for (tamper, refusal) in [
        (
            &(|m: &mut Vec<u8>| m.push(0)) as &dyn Fn(&mut Vec<u8>),
            "trailing bytes",
        ),
        (&|m: &mut Vec<u8>| m[0] = 0xf5, "not a HELLO"),
    ] {
        match bind(tamper) {
            MdsReply::Error { message } => assert!(message.ends_with(refusal), "{message}"),
            other => panic!("{other:?}"),
        }
    }
    assert_eq!(metrics.counter_value("mds.handshakes"), 1);
    // A client digest naming nothing, then a server digest naming another
    // chain: each bind completes, sending the chain the digest missed.
    for at in [9, 17] {
        let reply = bind(&|m: &mut Vec<u8>| m[at] ^= 0xff);
        assert!(matches!(reply, MdsReply::SearchResult { .. }), "{reply:?}");
    }
    assert_eq!(metrics.counter_value("mds.handshakes"), 3);
    server.shutdown();
}

#[test]
fn body_text_parse_survives_every_cut_and_flip() {
    let pair = |k: &str, v: &str| (k.to_string(), v.to_string());
    let entries = vec![
        DirEntry::new(
            Dn::parse("/o=Grid/hn=node0").unwrap(),
            vec![pair("objectclass", "GridResource"), pair("hn", "node0")],
        ),
        DirEntry::new(
            Dn::parse("/o=Grid/hn=node0/kw=Odd").unwrap(),
            vec![
                pair("Odd-lines", "two\nlines"),
                pair("Odd-cr", "ends in CR\r"),
                pair("Odd-zone", " grüße: x"),
            ],
        ),
    ];
    let text = entries_to_text(&entries);
    assert_eq!(entries_from_text(&text), entries);
    for (_, bytes) in corruptions(text.as_bytes()) {
        if let Ok(text) = std::str::from_utf8(&bytes) {
            entries_from_text(text);
        }
    }
}
