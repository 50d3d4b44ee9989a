//! A self-contained in-process grid for examples, tests, and docs.
//!
//! [`Sandbox`] stands up everything the paper's Figure 3 needs — a
//! simulated host, a CA and credentials, a gridmap, batch queues, and a
//! running InfoGram service on an in-memory network — and hands out
//! authenticated clients. The runnable examples build on it; so do the
//! doctests.

use infogram_client::{DualClient, InfoGramClient};
use infogram_core::{InfoGramParams, InfoGramService};
use infogram_exec::sandbox::{ExecMode, Policy};
use infogram_exec::wal::{FrameWal, Wal};
use infogram_gsi::{
    Authorizer, Certificate, CertificateAuthority, Contract, Credential, Dn, GridMap,
};
use infogram_host::commands::{ChargeMode, CommandRegistry};
use infogram_host::machine::{HostConfig, SimulatedHost};
use infogram_host::queue::{BatchQueue, FairShareQueue, FifoQueue, MachineAd, Matchmaker};
use infogram_info::config::ServiceConfig;
use infogram_mds::gris::Gris;
use infogram_mds::service::{Directory, MdsServer};
use infogram_proto::transport::mem::MemNetwork;
use infogram_proto::transport::Transport;
use infogram_sim::clock::SharedClock;
use infogram_sim::metrics::MetricSet;
use infogram_sim::{SimTime, SplitMix64, SystemClock};
use std::sync::Arc;
use std::time::Duration;

/// Configuration knobs for a [`Sandbox`].
pub struct SandboxConfig {
    /// Hostname of the simulated machine.
    pub hostname: String,
    /// Deterministic seed for the host models and PKI.
    pub seed: u64,
    /// Keyword configuration (defaults to Table 1).
    pub config: ServiceConfig,
    /// Sandbox mode for jarlet jobs.
    pub sandbox_mode: ExecMode,
    /// Sandbox policy for jarlet jobs.
    pub sandbox_policy: Policy,
    /// Contracts; `None` = gridmap-only authorization.
    pub contracts: Option<Vec<Contract>>,
    /// Where the job log goes; `None` is [`Wal::in_memory`], a fresh
    /// [`infogram_exec::wal::MemStorage`]. Supply what
    /// [`infogram_exec::wal::FileWal::open`] returns to survive restarts,
    /// or a sink over a `MemStorage` of your own to inject disk faults or
    /// crash it. The sandbox's `Wal` runs the sink with the default
    /// [`infogram_exec::wal::WalConfig`]; a sink has no tuning of its own.
    pub wal_sink: Option<FrameWal>,
    /// Also start the baseline separate GRAM + MDS services.
    pub with_baseline: bool,
    /// Network link model (latency); `None` = ideal link.
    pub link: Option<infogram_sim::net::Link>,
}

impl Default for SandboxConfig {
    fn default() -> Self {
        SandboxConfig {
            hostname: "node00.grid.example.org".to_string(),
            seed: 0x1f06,
            config: ServiceConfig::table1(),
            sandbox_mode: ExecMode::Isolated,
            sandbox_policy: Policy::restrictive(),
            contracts: None,
            wal_sink: None,
            with_baseline: false,
            link: None,
        }
    }
}

/// A complete in-process grid: host + PKI + InfoGram service (+ optional
/// baseline GRAM/MDS pair), on an ideal in-memory network.
pub struct Sandbox {
    /// The shared clock (system time).
    pub clock: SharedClock,
    /// The in-memory network (with traffic accounting).
    pub net: Arc<MemNetwork>,
    /// The simulated host.
    pub host: Arc<SimulatedHost>,
    /// The command registry on the host.
    pub registry: Arc<CommandRegistry>,
    /// The running unified service.
    pub service: Arc<InfoGramService>,
    /// The baseline GRAM server, if requested.
    pub baseline_gram: Option<Arc<infogram_exec::gram::GramServer>>,
    /// The baseline MDS server, if requested.
    pub baseline_mds: Option<Arc<MdsServer>>,
    /// The authenticated user's credential.
    pub user: Credential,
    /// Trust anchors.
    pub roots: Vec<Certificate>,
}

impl Sandbox {
    /// Start with defaults.
    pub fn start() -> Sandbox {
        Sandbox::start_with(SandboxConfig::default())
    }

    /// Start with explicit configuration.
    pub fn start_with(cfg: SandboxConfig) -> Sandbox {
        let clock: SharedClock = SystemClock::shared();
        let mut rng = SplitMix64::new(cfg.seed);

        // PKI.
        let ca = CertificateAuthority::new_root(
            &Dn::user("Grid", "CA", "Sandbox Root CA"),
            &mut rng,
            SimTime::ZERO,
            Duration::from_secs(10 * 365 * 86_400),
        );
        let roots = vec![ca.certificate().clone()];
        let user = ca.issue(
            &Dn::user("Grid", "ANL", "Gregor"),
            &mut rng,
            SimTime::ZERO,
            Duration::from_secs(365 * 86_400),
        );
        let service_cred = ca.issue(
            &Dn::user("Grid", "Hosts", &cfg.hostname),
            &mut rng,
            SimTime::ZERO,
            Duration::from_secs(365 * 86_400),
        );

        // Authorization.
        let mut gridmap = GridMap::new();
        gridmap.add(Dn::user("Grid", "ANL", "Gregor"), &["gregor"]);
        let authorizer = Arc::new(match cfg.contracts {
            Some(contracts) => Authorizer::with_contracts(gridmap, contracts),
            None => Authorizer::gridmap_only(gridmap),
        });

        // Host + queues.
        let host = SimulatedHost::new(
            HostConfig {
                hostname: cfg.hostname.clone(),
                seed: cfg.seed ^ 0x05f,
                ..Default::default()
            },
            clock.clone(),
        );
        let registry = CommandRegistry::new(Arc::clone(&host), ChargeMode::Sleep);
        let queues: Vec<(String, Arc<dyn BatchQueue>)> = vec![
            (
                "pbs".to_string(),
                Arc::new(FifoQueue::new(clock.clone(), 4)) as Arc<dyn BatchQueue>,
            ),
            (
                "fair".to_string(),
                Arc::new(FairShareQueue::new(clock.clone(), 4)),
            ),
            (
                "condor".to_string(),
                Arc::new(Matchmaker::new(
                    clock.clone(),
                    vec![
                        MachineAd::new("m1", &[("os", "linux"), ("arch", "x86")]),
                        MachineAd::new("m2", &[("os", "linux"), ("arch", "ia64")]),
                    ],
                )),
            ),
        ];

        let net = match cfg.link {
            Some(link) => MemNetwork::new(clock.clone(), link, MetricSet::new()),
            None => MemNetwork::ideal(),
        };
        let wal = match cfg.wal_sink {
            Some(sink) => Wal::new(Box::new(sink)),
            None => Wal::in_memory(),
        };
        let service = InfoGramService::start(
            InfoGramParams {
                service_name: "infogram".to_string(),
                bind_addr: format!("{}:2119", cfg.hostname),
                config: cfg.config,
                sandbox_policy: cfg.sandbox_policy,
                sandbox_mode: cfg.sandbox_mode,
                credential: service_cred.clone(),
                trust_roots: roots.clone(),
                authorizer: Arc::clone(&authorizer),
            },
            Arc::clone(&registry),
            queues,
            wal,
            &net,
            clock.clone(),
            MetricSet::new(),
        )
        // lint:allow(unwrap) — quickstart sandbox: fail fast on misconfiguration
        .expect("InfoGram service starts");

        // Optional baseline pair (Figure 2): separate GRAM + MDS.
        let (baseline_gram, baseline_mds) = if cfg.with_baseline {
            let engine = infogram_exec::engine::JobEngine::new(
                infogram_exec::engine::EngineConfig {
                    service_name: "gram-baseline".to_string(),
                    hostname: cfg.hostname.clone(),
                    port: 2120,
                },
                clock.clone(),
                Wal::in_memory(),
                infogram_exec::backend::ForkBackend::new(Arc::clone(&registry)),
                MetricSet::new(),
            );
            let listener = net
                .listen(&format!("{}:2120", cfg.hostname))
                // lint:allow(unwrap) — quickstart sandbox: fail fast on misconfiguration
                .expect("baseline GRAM binds");
            let gram = infogram_exec::gram::GramServer::start(
                Arc::clone(&engine),
                infogram_exec::gram::JobsOnlyDispatcher::new(engine),
                listener,
                service_cred.clone(),
                roots.clone(),
                Arc::clone(&authorizer),
                clock.clone(),
            );
            let gris = Gris::new(Arc::clone(service.info_service()));
            let mds = MdsServer::start(
                Directory::Gris(gris),
                &net,
                &format!("{}:2135", cfg.hostname),
                service_cred,
                roots.clone(),
                clock.clone(),
            )
            // lint:allow(unwrap) — quickstart sandbox: fail fast on misconfiguration
            .expect("baseline MDS starts");
            (Some(gram), Some(mds))
        } else {
            (None, None)
        };

        Sandbox {
            clock,
            net,
            host,
            registry,
            service,
            baseline_gram,
            baseline_mds,
            user,
            roots,
        }
    }

    /// The unified service's address.
    pub fn addr(&self) -> &str {
        self.service.addr()
    }

    /// A fresh authenticated unified client.
    pub fn client(&mut self) -> &'static mut InfoGramClient {
        // Convenience for doctests: leak one client. Long-running code
        // should use `connect_client`.
        Box::leak(Box::new(self.connect_client()))
    }

    /// Connect an owned unified client.
    pub fn connect_client(&self) -> InfoGramClient {
        InfoGramClient::connect(
            &self.net,
            self.service.addr(),
            &self.user,
            &self.roots,
            self.clock.clone(),
        )
        // lint:allow(unwrap) — quickstart sandbox: fail fast on misconfiguration
        .expect("client connects")
    }

    /// Connect a baseline dual client (requires `with_baseline`).
    pub fn connect_dual_client(&self) -> DualClient {
        let gram = self
            .baseline_gram
            .as_ref()
            // lint:allow(unwrap) — documented contract: requires with_baseline
            .expect("baseline enabled")
            .addr()
            .to_string();
        let mds = self
            .baseline_mds
            .as_ref()
            // lint:allow(unwrap) — documented contract: requires with_baseline
            .expect("baseline enabled")
            .addr()
            .to_string();
        DualClient::connect(
            &self.net,
            &gram,
            &mds,
            &self.user,
            &self.roots,
            self.clock.clone(),
        )
        // lint:allow(unwrap) — quickstart sandbox: fail fast on misconfiguration
        .expect("dual client connects")
    }

    /// Stop every started server.
    pub fn shutdown(&self) {
        self.service.shutdown();
        if let Some(g) = &self.baseline_gram {
            g.shutdown();
        }
        if let Some(m) = &self.baseline_mds {
            m.shutdown();
        }
    }
}
