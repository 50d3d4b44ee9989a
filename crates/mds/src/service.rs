//! The network-facing MDS server.
//!
//! GSI-authenticated ("the newest implementation of a Grid information
//! service ... integrates GSI to perform authentication", §3), then an
//! LDAP-style search loop over the MDS protocol, fronting one host's
//! GRIS.

use crate::filter::Filter;
use crate::gris::Gris;
use crate::protocol::{entries_to_text, MdsReply, MdsRequest};
use infogram_gsi::{
    nonce_rng, wire_server_respond, wire_server_verify, Certificate, Credential, Dn,
};
use infogram_proto::transport::{Acceptor, Conn, ProtoError, Transport, HANDSHAKE_DEADLINE};
use infogram_sim::clock::SharedClock;
use infogram_sim::metrics::{Counter, MetricSet};
use std::sync::Arc;

/// What every connection thread of an MDS server shares.
struct SearchService {
    gris: Arc<Gris>,
    credential: Credential,
    trust_roots: Vec<Certificate>,
    clock: SharedClock,
    handshakes: Arc<Counter>,
    requests: Arc<Counter>,
}

/// Bind and serve `gris` until the returned acceptor's
/// [`Acceptor::shutdown`], counting completed binds and requests into
/// `metrics` as `mds.handshakes` and `mds.requests`.
pub fn serve(
    gris: Arc<Gris>,
    transport: &dyn Transport,
    bind_addr: &str,
    credential: Credential,
    trust_roots: Vec<Certificate>,
    clock: SharedClock,
    metrics: &MetricSet,
) -> Result<Acceptor, ProtoError> {
    let service = SearchService {
        gris,
        credential,
        trust_roots,
        clock,
        handshakes: metrics.counter("mds.handshakes"),
        requests: metrics.counter("mds.requests"),
    };
    Acceptor::start(transport, bind_addr, move |conn| {
        service.serve_connection(conn)
    })
}

impl SearchService {
    fn serve_connection(&self, conn: Arc<dyn Conn>) {
        // GSI bind.
        let now = self.clock.now();
        let mut rng = nonce_rng(now);
        if conn.set_read_deadline(Some(HANDSHAKE_DEADLINE)).is_err() {
            return;
        }
        let Ok(hello) = conn.recv() else { return };
        let Ok((resp, pending)) =
            wire_server_respond(&self.credential, &self.trust_roots, &hello, now, &mut rng)
        else {
            let _ = conn.send(
                &MdsReply::Error {
                    message: "bind failed: bad credentials".to_string(),
                }
                .encode(),
            );
            return;
        };
        if conn.send(&resp).is_err() {
            return;
        }
        let Ok(fin) = conn.recv() else { return };
        if wire_server_verify(&pending, &fin).is_err() {
            let _ = conn.send(
                &MdsReply::Error {
                    message: "bind failed: bad proof".to_string(),
                }
                .encode(),
            );
            return;
        }
        self.handshakes.incr();
        let _ = conn.send(
            &MdsReply::SearchResult {
                body: String::new(),
                count: 0,
            }
            .encode(),
        ); // bind ack
        if conn.set_read_deadline(None).is_err() {
            return;
        }

        // Search loop.
        while let Ok(bytes) = conn.recv() {
            self.requests.incr();
            let reply = match MdsRequest::decode(&bytes) {
                Ok(MdsRequest::Unbind) => break,
                Ok(MdsRequest::Search {
                    base,
                    scope,
                    filter,
                }) => match (Dn::parse(&base), Filter::parse(&filter)) {
                    (Ok(base), Ok(filter)) => {
                        let entries = self.gris.search(&base, scope, &filter);
                        MdsReply::SearchResult {
                            body: entries_to_text(&entries),
                            count: entries.len() as u32,
                        }
                    }
                    (Err(e), _) => MdsReply::Error {
                        message: e.to_string(),
                    },
                    (_, Err(e)) => MdsReply::Error {
                        message: e.to_string(),
                    },
                },
                Err(e) => MdsReply::Error {
                    message: e.to_string(),
                },
            };
            if conn.send(&reply.encode()).is_err() {
                break;
            }
        }
    }
}
