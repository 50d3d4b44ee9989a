//! Peers no client would be, for the servers' handshake tests:
//! `tests/tcp_transport.rs` (the gatekeeper) and
//! `crates/mds/tests/hostile_mds.rs` (the MDS) include it with `#[path]`.

use infogram_gsi::Credential;
use infogram_proto::transport::HANDSHAKE_DEADLINE;
use infogram_sim::wire::{put_str, put_varint};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A HELLO as peers wrote it while a chain named every issuer: tag `f5`,
/// and each certificate's issuer DN written out after its subject.
pub fn named_issuer_hello(user: &Credential) -> Vec<u8> {
    let mut out = vec![0xf5];
    out.extend_from_slice(&42u64.to_le_bytes());
    put_varint(&mut out, user.chain.len() as u64);
    for c in &user.chain {
        for dn in [&c.subject, &c.issuer] {
            put_varint(&mut out, dn.rdns().len() as u64);
            for (attr, value) in dn.rdns() {
                put_str(&mut out, attr);
                put_str(&mut out, value);
            }
        }
        for n in [c.serial, c.not_before.as_nanos(), c.not_after.as_nanos()] {
            put_varint(&mut out, n);
        }
        out.extend_from_slice(&c.subject_key.0.to_le_bytes());
        out.extend_from_slice(&c.signature.to_le_bytes());
        out.push(1); // an end entity
    }
    out
}

/// Connect to `addr` and send `hello`, framed, one byte a second — so
/// every read of it gets a byte long before `HANDSHAKE_DEADLINE` — until
/// the server hangs up. Fails unless it does within the deadline and a
/// second after connecting, having read at least five bytes and not the
/// whole HELLO.
pub fn trickle_until_dropped(addr: &str, hello: &[u8]) {
    let framed = [&(hello.len() as u16).to_be_bytes()[..], hello].concat();
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_millis(5)))
        .unwrap();
    let mut sent = 0;
    loop {
        let elapsed = start.elapsed();
        assert!(
            elapsed < HANDSHAKE_DEADLINE + Duration::from_secs(1),
            "still connected after {elapsed:?}, {sent} bytes sent"
        );
        if sent < framed.len() && elapsed >= Duration::from_secs(sent as u64) {
            let _ = stream.write_all(&framed[sent..=sent]);
            sent += 1;
        }
        match stream.read(&mut [0; 64]) {
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Ok(0) | Err(_) => break,
            Ok(n) => panic!("the server answered {n} bytes of a partial HELLO"),
        }
    }
    let dropped_after = start.elapsed();
    assert!(dropped_after >= HANDSHAKE_DEADLINE, "{dropped_after:?}");
    assert!(
        sent >= 5 && sent < framed.len(),
        "{sent} of {}",
        framed.len()
    );
}
