//! Set-up: one in-process InfoGram service on loopback TCP.
//!
//! Every workload runs against the same world — seeded PKI, a simulated
//! host carrying the `info_wide` fixture files, Table 1's keywords with
//! their TTLs raised so queries hit the cache, the sixteen fixture
//! keywords, and an [`InfoGramService`] on `127.0.0.1:0` — so a number
//! measured on one workload can be set beside the same layer's number on
//! another. Only the log differs: `job_submit` gets a file-backed WAL.

use crate::gen::{wide_fixture, Seeds, WideFile, REFRESH_KEYWORDS};
use infogram_client::InfoGramClient;
use infogram_core::{InfoGramParams, InfoGramService};
use infogram_exec::sandbox::{ExecMode, Policy};
use infogram_exec::wal::{FileWal, Wal};
use infogram_gsi::{Authorizer, Certificate, CertificateAuthority, Credential, Dn, GridMap};
use infogram_host::commands::{ChargeMode, CommandRegistry};
use infogram_host::machine::{HostConfig, SimulatedHost};
use infogram_info::config::ServiceConfig;
use infogram_obs::MetricSet;
use infogram_proto::transport::tcp::TcpTransport;
use infogram_sim::clock::SharedClock;
use infogram_sim::{SimTime, SplitMix64, SystemClock};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// TTL of every cached keyword: longer than any run, so after priming
/// every cached-mode query is a hit.
const CACHE_TTL_MS: u64 = 600_000;
/// The local account the benchmark user maps to.
pub const ACCOUNT: &str = "bench";

/// Which log backs the service's engine.
#[derive(Debug, Clone)]
pub enum WalKind {
    /// In-memory log (the information workloads; the §7 query log still
    /// appends one record per request).
    Memory,
    /// File-backed log rooted at this path, default flush policy (fsync
    /// per group-commit batch).
    File(PathBuf),
}

/// A started service and everything a client needs to reach it.
pub struct World {
    /// The service's clock (system time).
    pub clock: SharedClock,
    /// The TCP transport; its `net.*` counters meter both directions.
    pub transport: Arc<TcpTransport>,
    /// The running service.
    pub service: Arc<InfoGramService>,
    /// The telemetry every layer of the service writes into.
    pub metrics: MetricSet,
    /// The benchmark user's credential.
    pub user: Credential,
    /// The service's credential (for the `gsi` layer measurements).
    pub service_cred: Credential,
    /// Trust anchors.
    pub roots: Vec<Certificate>,
    /// Gatekeeper policy (for the `gsi` layer measurements).
    pub authorizer: Arc<Authorizer>,
    /// The fixture behind `info_wide`.
    pub fixture: Vec<WideFile>,
}

/// The keyword configuration, in the program's own Table 1 file format.
fn config_text(fixture: &[WideFile]) -> String {
    let mut text = String::from("# TTL  Keyword  Command\n");
    for e in &ServiceConfig::table1().entries {
        let ttl = if e.ttl.is_zero() { 0 } else { CACHE_TTL_MS };
        text.push_str(&format!("{ttl} {} {}\n", e.keyword, e.command));
    }
    for f in fixture {
        text.push_str(&format!("{CACHE_TTL_MS} {} cat {}\n", f.keyword, f.path));
    }
    text
}

impl World {
    /// Generate PKI and fixture from `seeds`, start the service, return
    /// once it is listening. Providers charge no simulated execution cost
    /// (`ChargeMode::None`): the refresh path's own CPU is what is timed.
    pub fn start(seeds: &Seeds, wal: &WalKind) -> World {
        let clock: SharedClock = SystemClock::shared();
        let mut rng = SplitMix64::new(seeds.pki);
        let year = Duration::from_secs(365 * 86_400);
        let ca = CertificateAuthority::new_root(
            &Dn::user("Grid", "CA", "E21 Root CA"),
            &mut rng,
            SimTime::ZERO,
            year,
        );
        let roots = vec![ca.certificate().clone()];
        let user_dn = Dn::user("Grid", "Bench", "e21-client");
        let user = ca.issue(&user_dn, &mut rng, SimTime::ZERO, year);
        let service_cred = ca.issue(
            &Dn::user("Grid", "Hosts", "127.0.0.1"),
            &mut rng,
            SimTime::ZERO,
            year,
        );
        let mut gridmap = GridMap::new();
        gridmap.add(user_dn, &[ACCOUNT]);
        let authorizer = Arc::new(Authorizer::gridmap_only(gridmap));

        let host = SimulatedHost::new(
            HostConfig {
                hostname: "127.0.0.1".to_string(),
                seed: seeds.host,
                ..Default::default()
            },
            clock.clone(),
        );
        let fixture = wide_fixture(seeds.fixture);
        for f in &fixture {
            host.fs.write(&f.path, f.content.clone());
        }
        let registry = CommandRegistry::new(host, ChargeMode::None);
        let config = ServiceConfig::parse(&config_text(&fixture)).expect("generated config parses");

        let wal = match wal {
            WalKind::Memory => Wal::in_memory(),
            WalKind::File(path) => Wal::new(Box::new(
                FileWal::open(path.clone()).expect("WAL directory is writable"),
            )),
        };
        let transport = Arc::new(TcpTransport::new());
        let metrics = MetricSet::new();
        let service = InfoGramService::start(
            InfoGramParams {
                service_name: "infogram".to_string(),
                bind_addr: "127.0.0.1:0".to_string(),
                config,
                sandbox_policy: Policy::restrictive(),
                sandbox_mode: ExecMode::Isolated,
                credential: service_cred.clone(),
                trust_roots: roots.clone(),
                authorizer: Arc::clone(&authorizer),
            },
            registry,
            vec![],
            wal,
            &*transport,
            clock.clone(),
            metrics.clone(),
        )
        .expect("service binds an ephemeral loopback port");
        World {
            clock,
            transport,
            service,
            metrics,
            user,
            service_cred,
            roots,
            authorizer,
            fixture,
        }
    }

    /// One authenticated connection (TCP connect + GSI handshake +
    /// authorization ack).
    pub fn connect(&self) -> Result<InfoGramClient, infogram_client::ClientError> {
        InfoGramClient::connect(
            &*self.transport,
            self.service.addr(),
            &self.user,
            &self.roots,
            self.clock.clone(),
        )
    }

    /// Fill the cache: one query per keyword any workload names, so the
    /// first timed request already sees steady state.
    pub fn prime(&self, client: &mut InfoGramClient) {
        for k in REFRESH_KEYWORDS {
            client.info(k).expect("priming query answered");
        }
        for f in &self.fixture {
            client.info(&f.keyword).expect("priming query answered");
        }
    }
}

/// A scratch directory unique to this process, removed on drop. Lives
/// under the benchmark's own output directory: a run reads and writes
/// nothing outside its checkout.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Create `<out>/tmp/<label>-<pid>`.
    pub fn create(out: &Path, label: &str) -> std::io::Result<ScratchDir> {
        let dir = out
            .join("tmp")
            .join(format!("{label}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::TTL_KEYWORDS;

    #[test]
    fn config_raises_ttls_and_keeps_table1_commands() {
        let fixture = wide_fixture(1);
        let cfg = ServiceConfig::parse(&config_text(&fixture)).unwrap();
        assert_eq!(cfg.entries.len(), 5 + fixture.len());
        for k in TTL_KEYWORDS {
            assert_eq!(cfg.get(k).unwrap().ttl, Duration::from_millis(CACHE_TTL_MS));
        }
        assert!(cfg.get("CPULoad").unwrap().ttl.is_zero());
        assert_eq!(cfg.get("Memory").unwrap().command, "/sbin/sysinfo.exe -mem");
        assert_eq!(cfg.get("K07").unwrap().command, "cat /bench/k07");
    }

    #[test]
    fn scratch_dir_is_removed_on_drop() {
        let base = std::env::temp_dir().join(format!("e21-test-{}", std::process::id()));
        let path = {
            let s = ScratchDir::create(&base, "wal").unwrap();
            assert!(s.path().is_dir());
            s.path().to_path_buf()
        };
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&base);
    }
}
