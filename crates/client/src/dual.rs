//! The baseline dual client: GRAM for jobs, MDS for information.
//!
//! §4 of the paper, implemented as code: "In order for a client to
//! perform a job execution and an information query, two different
//! mechanisms for contacting these services must be used." The
//! [`DualClient`] opens two connections (paying two GSI handshakes),
//! speaks two protocols, and needs format-conversion glue between them —
//! the complexity Figure 4 removes.

use crate::gram::{ClientError, GramClient};
use infogram_gsi::{Certificate, Credential};
use infogram_mds::client::{MdsClient, MdsClientError};
use infogram_mds::dit::Scope;
use infogram_proto::handle::JobHandle;
use infogram_proto::message::JobStateCode;
use infogram_proto::record::InfoRecord;
use infogram_proto::render::ldif;
use infogram_proto::transport::Transport;
use infogram_sim::clock::SharedClock;
use std::time::Duration;

/// Why a dual-client operation failed.
#[derive(Debug)]
pub enum DualError {
    /// The GRAM side failed.
    Gram(ClientError),
    /// The MDS side failed.
    Mds(MdsClientError),
}

impl std::fmt::Display for DualError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DualError::Gram(e) => write!(f, "GRAM: {e}"),
            DualError::Mds(e) => write!(f, "MDS: {e}"),
        }
    }
}

impl std::error::Error for DualError {}

/// A client of the two-service baseline world.
pub struct DualClient {
    gram: GramClient,
    mds: MdsClient,
}

impl std::fmt::Debug for DualClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DualClient").finish_non_exhaustive()
    }
}

impl DualClient {
    /// Connect to *both* services — two connections, two handshakes.
    pub fn connect(
        transport: &dyn Transport,
        gram_addr: &str,
        mds_addr: &str,
        credential: &Credential,
        trust_roots: &[Certificate],
        clock: SharedClock,
    ) -> Result<DualClient, DualError> {
        let gram =
            GramClient::connect(transport, gram_addr, credential, trust_roots, clock.clone())
                .map_err(DualError::Gram)?;
        let mds = MdsClient::bind(transport, mds_addr, credential, trust_roots, &clock)
            .map_err(DualError::Mds)?;
        Ok(DualClient { gram, mds })
    }

    /// Submit a job — over the GRAM connection.
    pub fn submit(&mut self, rsl: &str, callback: bool) -> Result<JobHandle, DualError> {
        self.gram.submit(rsl, callback).map_err(DualError::Gram)
    }

    /// Poll a job — over the GRAM connection.
    pub fn status(
        &mut self,
        handle: &JobHandle,
    ) -> Result<(JobStateCode, Option<i32>, String), DualError> {
        self.gram.status(handle).map_err(DualError::Gram)
    }

    /// Wait for a job to finish.
    pub fn wait_terminal(
        &mut self,
        handle: &JobHandle,
        poll_every: Duration,
        deadline: Duration,
    ) -> Result<(JobStateCode, Option<i32>, String), DualError> {
        self.gram
            .wait_terminal(handle, poll_every, deadline)
            .map_err(DualError::Gram)
    }

    /// Query one keyword's information — over the *other* connection,
    /// in the *other* protocol, with the LDAP query model. The glue code
    /// below (keyword → filter, entries → records) is exactly the "code
    /// sharing for interpreting return values" burden §4 complains about.
    pub fn info(&mut self, keyword: &str) -> Result<Vec<InfoRecord>, DualError> {
        let entries = self
            .mds
            .search("/o=Grid", Scope::Sub, &format!("(kw={keyword})"))
            .map_err(DualError::Mds)?;
        let mut records = Vec::with_capacity(entries.len());
        for e in entries {
            let keyword = e.first("kw").unwrap_or_default();
            let host = e.first("hn").unwrap_or_default();
            let mut rec = InfoRecord::new(&keyword, &host);
            for (k, v) in &e.attributes {
                if k == "objectclass" || k == "kw" || k == "hn" {
                    continue;
                }
                // Undo the LDAP-safe renaming: `Memory-total` →
                // `Memory:total`.
                let Some(name) = ldif::restore_name(k, &keyword) else {
                    continue;
                };
                rec.attributes
                    .push(infogram_proto::record::Attribute::new(&name, v));
            }
            records.push(rec);
        }
        Ok(records)
    }

    /// Raw MDS search access for LDAP-style queries.
    pub fn mds(&mut self) -> &mut MdsClient {
        &mut self.mds
    }

    /// Raw GRAM access.
    pub fn gram(&mut self) -> &mut GramClient {
        &mut self.gram
    }
}
