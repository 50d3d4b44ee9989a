//! The network-facing MDS server.
//!
//! GSI-authenticated ("the newest implementation of a Grid information
//! service ... integrates GSI to perform authentication", §3), then an
//! LDAP-style search loop over the MDS protocol. Can front either a
//! single GRIS or a GIIS aggregate.

use crate::dit::{DirEntry, Scope};
use crate::filter::Filter;
use crate::giis::Giis;
use crate::gris::Gris;
use crate::protocol::{entries_to_text, MdsReply, MdsRequest};
use infogram_gsi::{wire_server_respond, wire_server_verify, Certificate, Credential, Dn};
use infogram_proto::transport::{Acceptor, Conn, ProtoError, Transport};
use infogram_sim::clock::SharedClock;
use infogram_sim::SplitMix64;
use std::sync::Arc;

/// What an MDS server fronts.
#[derive(Clone)]
pub enum Directory {
    /// A single host's GRIS.
    Gris(Arc<Gris>),
    /// A virtual-organization GIIS.
    Giis(Arc<Giis>),
}

impl Directory {
    fn search(&self, base: &Dn, scope: Scope, filter: &Filter) -> Vec<DirEntry> {
        match self {
            Directory::Gris(g) => g.search(base, scope, filter),
            Directory::Giis(g) => g.search(base, scope, filter),
        }
    }
}

/// A running MDS server.
pub struct MdsServer {
    acceptor: Acceptor,
}

/// What every connection thread of an [`MdsServer`] shares.
struct SearchService {
    directory: Directory,
    credential: Credential,
    trust_roots: Vec<Certificate>,
    clock: SharedClock,
}

impl std::fmt::Debug for MdsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MdsServer")
            .field("addr", &self.addr())
            .finish_non_exhaustive()
    }
}

impl MdsServer {
    /// Bind and start serving.
    pub fn start(
        directory: Directory,
        transport: &dyn Transport,
        bind_addr: &str,
        credential: Credential,
        trust_roots: Vec<Certificate>,
        clock: SharedClock,
    ) -> Result<Arc<Self>, ProtoError> {
        let service = SearchService {
            directory,
            credential,
            trust_roots,
            clock,
        };
        let acceptor = Acceptor::start(transport, bind_addr, move |conn| {
            service.serve_connection(conn)
        })?;
        Ok(Arc::new(MdsServer { acceptor }))
    }

    /// The bound address.
    pub fn addr(&self) -> &str {
        self.acceptor.addr()
    }

    /// Stop accepting.
    pub fn shutdown(&self) {
        self.acceptor.shutdown();
    }
}

impl SearchService {
    fn serve_connection(&self, conn: Arc<dyn Conn>) {
        // GSI bind.
        let now = self.clock.now();
        let mut rng = SplitMix64::new(now.as_nanos() ^ 0x4d45_5344);
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
        let _ = conn.send(
            &MdsReply::SearchResult {
                body: String::new(),
                count: 0,
            }
            .encode(),
        ); // bind ack

        // Search loop.
        while let Ok(bytes) = conn.recv() {
            let reply = match MdsRequest::decode(&bytes) {
                Ok(MdsRequest::Unbind) => break,
                Ok(MdsRequest::Search {
                    base,
                    scope,
                    filter,
                }) => match (Dn::parse(&base), Filter::parse(&filter)) {
                    (Ok(base), Ok(filter)) => {
                        let entries = self.directory.search(&base, scope, &filter);
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
