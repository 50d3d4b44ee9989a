//! The MDS client.
//!
//! Performs the GSI bind, then issues searches over the MDS protocol.
//! In the baseline world of Figure 2, a grid client holds one of these
//! *and* a GRAM client — two connections, two protocols.

use crate::dit::{DirEntry, Scope};
use crate::protocol::{entries_from_text, MdsReply, MdsRequest};
use infogram_gsi::{
    wire_client_finish, wire_client_hello, Certificate, Credential, SecurityContext,
};
use infogram_proto::transport::{Conn, ProtoError, Transport};
use infogram_sim::clock::SharedClock;
use infogram_sim::SplitMix64;
#[cfg(test)]
use std::sync::Arc;

/// Why an MDS operation failed.
#[derive(Debug)]
pub enum MdsClientError {
    /// Transport problem.
    Transport(ProtoError),
    /// Bind (handshake) rejected.
    BindFailed(String),
    /// The server answered with an error.
    Server(String),
    /// The reply did not decode.
    Protocol(String),
}

impl std::fmt::Display for MdsClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MdsClientError::Transport(e) => write!(f, "transport: {e}"),
            MdsClientError::BindFailed(m) => write!(f, "bind failed: {m}"),
            MdsClientError::Server(m) => write!(f, "server error: {m}"),
            MdsClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for MdsClientError {}

impl From<ProtoError> for MdsClientError {
    fn from(e: ProtoError) -> Self {
        MdsClientError::Transport(e)
    }
}

/// A bound MDS session.
pub struct MdsClient {
    conn: Box<dyn Conn>,
    context: SecurityContext,
}

impl std::fmt::Debug for MdsClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MdsClient")
            .field("peer", &self.context.peer.to_string())
            .finish_non_exhaustive()
    }
}

impl MdsClient {
    /// Connect and bind (GSI handshake).
    pub fn bind(
        transport: &dyn Transport,
        addr: &str,
        credential: &Credential,
        trust_roots: &[Certificate],
        clock: &SharedClock,
    ) -> Result<MdsClient, MdsClientError> {
        let conn = transport.connect(addr)?;
        let now = clock.now();
        let mut rng = SplitMix64::new(now.as_nanos() ^ 0xb1d);
        let (hello, nonce) = wire_client_hello(credential, &mut rng);
        conn.send(&hello)?;
        let resp = conn.recv()?;
        let (fin, context) = wire_client_finish(credential, trust_roots, &resp, nonce, now)
            .map_err(|e| MdsClientError::BindFailed(e.to_string()))?;
        conn.send(&fin)?;
        // Bind ack (or error).
        let ack = conn.recv()?;
        match MdsReply::decode(&ack) {
            Ok(MdsReply::SearchResult { .. }) => {}
            Ok(MdsReply::Error { message }) => return Err(MdsClientError::BindFailed(message)),
            Err(e) => return Err(MdsClientError::Protocol(e.to_string())),
        }
        Ok(MdsClient { conn, context })
    }

    /// The authenticated server identity.
    pub fn server_identity(&self) -> &SecurityContext {
        &self.context
    }

    /// Issue one search.
    pub fn search(
        &mut self,
        base: &str,
        scope: Scope,
        filter: &str,
    ) -> Result<Vec<DirEntry>, MdsClientError> {
        let req = MdsRequest::Search {
            base: base.to_string(),
            scope,
            filter: filter.to_string(),
        };
        self.conn.send(&req.encode())?;
        let bytes = self.conn.recv()?;
        match MdsReply::decode(&bytes) {
            Ok(MdsReply::SearchResult { body, .. }) => Ok(entries_from_text(&body)),
            Ok(MdsReply::Error { message }) => Err(MdsClientError::Server(message)),
            Err(e) => Err(MdsClientError::Protocol(e.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gris::Gris;
    use crate::service::{Directory, MdsServer};
    use infogram_gsi::{CertificateAuthority, Dn};
    use infogram_host::commands::{ChargeMode, CommandRegistry};
    use infogram_host::machine::SimulatedHost;
    use infogram_info::config::ServiceConfig;
    use infogram_info::service::InformationService;
    use infogram_proto::transport::mem::MemNetwork;
    use infogram_sim::metrics::MetricSet;
    use infogram_sim::{SimTime, SystemClock};
    use std::time::Duration;

    struct World {
        clock: SharedClock,
        net: Arc<MemNetwork>,
        server: Arc<MdsServer>,
        user: Credential,
        roots: Vec<Certificate>,
    }

    fn world() -> World {
        let clock: SharedClock = SystemClock::shared();
        let mut rng = SplitMix64::new(404);
        let ca = CertificateAuthority::new_root(
            &Dn::user("Grid", "CA", "Root"),
            &mut rng,
            SimTime::ZERO,
            Duration::from_secs(86_400 * 365),
        );
        let user = ca.issue(
            &Dn::user("Grid", "ANL", "Client"),
            &mut rng,
            SimTime::ZERO,
            Duration::from_secs(86_400),
        );
        let host_cred = ca.issue(
            &Dn::user("Grid", "Hosts", "mds.grid"),
            &mut rng,
            SimTime::ZERO,
            Duration::from_secs(86_400),
        );
        let roots = vec![ca.certificate().clone()];

        let host = SimulatedHost::default_on(clock.clone());
        let reg = CommandRegistry::new(host, ChargeMode::None);
        let info = InformationService::from_config(
            &ServiceConfig::table1(),
            reg,
            clock.clone(),
            MetricSet::new(),
        );
        let gris = Gris::new(info);
        let net = MemNetwork::ideal();
        let server = MdsServer::start(
            Directory::Gris(gris),
            &net,
            "mds.grid:2135",
            host_cred,
            roots.clone(),
            clock.clone(),
        )
        .unwrap();
        World {
            clock,
            net,
            server,
            user,
            roots,
        }
    }

    #[test]
    fn bind_then_search() {
        let w = world();
        let mut client =
            MdsClient::bind(&w.net, w.server.addr(), &w.user, &w.roots, &w.clock).unwrap();
        assert_eq!(
            client.server_identity().peer,
            Dn::user("Grid", "Hosts", "mds.grid")
        );
        let entries = client.search("/o=Grid", Scope::Sub, "(kw=Memory)").unwrap();
        assert_eq!(entries.len(), 1);
        assert!(entries[0].first("Memory-total").is_some());
        w.server.shutdown();
    }

    #[test]
    fn search_with_bad_filter_is_server_error() {
        let w = world();
        let mut client =
            MdsClient::bind(&w.net, w.server.addr(), &w.user, &w.roots, &w.clock).unwrap();
        // The second filter is 100 000 levels deep: parsed by unbounded
        // recursion it overflowed the connection thread's stack, which
        // aborts the whole process, not one session.
        for bad in ["not a filter", &"(!".repeat(100_000)] {
            match client.search("/o=Grid", Scope::Sub, bad) {
                Err(MdsClientError::Server(_)) => {}
                other => panic!("{other:?}"),
            }
        }
        let entries = client.search("/o=Grid", Scope::Sub, "(kw=Memory)").unwrap();
        assert_eq!(entries.len(), 1, "the session outlives a refused filter");
        w.server.shutdown();
    }

    #[test]
    fn untrusted_client_rejected_at_bind() {
        let w = world();
        let mut rogue_rng = SplitMix64::new(999);
        let rogue_ca = CertificateAuthority::new_root(
            &Dn::user("Rogue", "CA", "Evil"),
            &mut rogue_rng,
            SimTime::ZERO,
            Duration::from_secs(86_400),
        );
        let impostor = rogue_ca.issue(
            &Dn::user("Grid", "ANL", "Impostor"),
            &mut rogue_rng,
            SimTime::ZERO,
            Duration::from_secs(3600),
        );
        match MdsClient::bind(&w.net, w.server.addr(), &impostor, &w.roots, &w.clock) {
            Err(MdsClientError::BindFailed(_)) | Err(MdsClientError::Protocol(_)) => {}
            other => panic!("{:?}", other.map(|_| "bound")),
        }
        w.server.shutdown();
    }

    #[test]
    fn connection_and_message_accounting() {
        let w = world();
        let mut client =
            MdsClient::bind(&w.net, w.server.addr(), &w.user, &w.roots, &w.clock).unwrap();
        client
            .search("/o=Grid", Scope::Sub, "(objectclass=*)")
            .unwrap();
        // 1 connection; handshake (3) + ack (1) + search req/reply (2).
        assert_eq!(w.net.metrics().counter_value("net.connections"), 1);
        assert!(w.net.metrics().counter_value("net.messages") >= 6);
        w.server.shutdown();
    }
}
