//! The network-facing MDS server.
//!
//! GSI-authenticated ("the newest implementation of a Grid information
//! service ... integrates GSI to perform authentication", §3), then an
//! LDAP-style search loop over the MDS protocol, fronting one host's
//! GRIS.

use crate::filter::Filter;
use crate::gris::Gris;
use crate::protocol::{entries_to_text, MdsReply, MdsRequest};
use infogram_gsi::{accept, Authorizer, Certificate, Credential, Dn};
use infogram_proto::message::codes;
use infogram_proto::transport::{Acceptor, Conn, ProtoError, Transport, HANDSHAKE_DEADLINE};
use infogram_sim::clock::SharedClock;
use infogram_sim::metrics::{Counter, MetricSet};
use std::sync::Arc;

/// What every connection thread of an MDS server shares.
struct SearchService {
    gris: Arc<Gris>,
    credential: Credential,
    trust_roots: Vec<Certificate>,
    authorizer: Arc<Authorizer>,
    clock: SharedClock,
    handshakes: Arc<Counter>,
    requests: Arc<Counter>,
}

/// Bind and serve `gris` until the returned acceptor's
/// [`Acceptor::shutdown`], authorizing each bind through `authorizer`
/// and counting completed binds and requests into `metrics` as
/// `mds.handshakes` and `mds.requests`.
#[expect(clippy::too_many_arguments, reason = "a server's whole configuration")]
pub fn serve(
    gris: Arc<Gris>,
    transport: &dyn Transport,
    bind_addr: &str,
    credential: Credential,
    trust_roots: Vec<Certificate>,
    authorizer: Arc<Authorizer>,
    clock: SharedClock,
    metrics: &MetricSet,
) -> Result<Acceptor, ProtoError> {
    let service = SearchService {
        gris,
        credential,
        trust_roots,
        authorizer,
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
        let error = |e: &dyn std::fmt::Display| MdsReply::Error {
            message: e.to_string(),
        };
        // GSI bind.
        if conn.set_read_deadline(Some(HANDSHAKE_DEADLINE)).is_err() {
            return;
        }
        // A transport error is `None`: there is nobody left to refuse.
        let send = |m: &[u8]| conn.send(m).map_err(|_| None);
        let recv = || conn.recv().map_err(|_| None);
        let (cred, roots, authz) = (&self.credential, &self.trust_roots, &*self.authorizer);
        let session = match accept(cred, roots, authz, "mds", self.clock.now(), send, recv) {
            Ok(session) => session,
            Err(None) => return,
            Err(Some(e)) => {
                let _ = conn.send(&error(&format_args!("bind failed: {e}")).encode());
                return;
            }
        };
        self.handshakes.incr();
        let ack = MdsReply::SearchResult {
            body: String::new(),
            count: 0,
        };
        let _ = conn.send(&ack.encode()); // bind ack
        if conn.set_read_deadline(None).is_err() {
            return;
        }

        // Search loop, until the client unbinds; once its bind has
        // expired, every search is refused.
        while let Ok(bytes) = conn.recv() {
            self.requests.incr();
            let reply = match MdsRequest::decode(&bytes) {
                Ok(MdsRequest::Unbind) => break,
                _ if self.clock.now() >= session.valid_until => error(&codes::EXPIRED),
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
                    (Err(e), _) => error(&e),
                    (_, Err(e)) => error(&e),
                },
                Err(e) => error(&e),
            };
            if conn.send(&reply.encode()).is_err() {
                break;
            }
        }
    }
}
