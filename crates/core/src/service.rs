//! Assembly of the InfoGram service.
//!
//! Figure 3 of the paper, as one constructor: gatekeeper (GSI
//! authentication + gridmap/contract authorization), logging service,
//! job manager with its backends, the system monitor + system information
//! service pair, and the single client protocol over one port.

use crate::dispatch::InfoGramDispatcher;
use infogram_exec::backend::{ForkBackend, JarletBackend, QueueBackend};
use infogram_exec::engine::{EngineConfig, JobEngine};
use infogram_exec::gram::GramServer;
use infogram_exec::sandbox::{ExecMode, Policy};
use infogram_exec::wal::{AccountUsage, Wal};
use infogram_gsi::{Authorizer, Certificate, Credential};
use infogram_host::commands::CommandRegistry;
use infogram_host::machine::SimulatedHost;
use infogram_host::queue::BatchQueue;
use infogram_info::config::ServiceConfig;
use infogram_info::service::InformationService;
use infogram_info::{RefreshScheduler, SubscriptionHub, JOBS_KEYWORD};
use infogram_proto::transport::{ProtoError, Transport};
use infogram_sim::clock::SharedClock;
use infogram_sim::metrics::MetricSet;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Construction parameters for an InfoGram service.
pub struct InfoGramParams {
    /// Resource name used by authorization contracts.
    pub service_name: String,
    /// Bind address, e.g. `"node00.grid:2119"` or `"node00.grid:0"`.
    pub bind_addr: String,
    /// The keyword configuration (Table 1 format).
    pub config: ServiceConfig,
    /// Sandbox policy for untrusted jarlet jobs.
    pub sandbox_policy: Policy,
    /// Sandbox execution mode (the two "JVM" modes of §7).
    pub sandbox_mode: ExecMode,
    /// Service credential presented to clients.
    pub credential: Credential,
    /// Trusted CA certificates.
    pub trust_roots: Vec<Certificate>,
    /// Gridmap (+ optional contracts) policy.
    pub authorizer: Arc<Authorizer>,
}

/// A running InfoGram service: one port, both behaviours.
pub struct InfoGramService {
    server: Arc<GramServer>,
    info: Arc<InformationService>,
    engine: Arc<JobEngine>,
    registry: Arc<CommandRegistry>,
    hub: Arc<SubscriptionHub>,
    sched: Arc<RefreshScheduler>,
    driver_running: Arc<AtomicBool>,
    driver: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for InfoGramService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InfoGramService")
            .field("addr", &self.server.addr())
            .finish_non_exhaustive()
    }
}

impl InfoGramService {
    /// Start the service on a host. `wal` may be file-backed to survive
    /// restarts; pass named batch queues for `(jobtype=batch)` support.
    #[allow(clippy::too_many_arguments)]
    pub fn start(
        params: InfoGramParams,
        registry: Arc<CommandRegistry>,
        queues: Vec<(String, Arc<dyn BatchQueue>)>,
        wal: Wal,
        transport: &dyn Transport,
        clock: SharedClock,
        metrics: MetricSet,
    ) -> Result<Arc<Self>, ProtoError> {
        let host: Arc<SimulatedHost> = Arc::clone(registry.host());
        let info = InformationService::from_config(
            &params.config,
            Arc::clone(&registry),
            clock.clone(),
            metrics.clone(),
        );
        // The built-in self-describing keyword: `(info=metrics)` answers
        // with a live snapshot of the telemetry handle every layer of
        // this service writes into.
        info.register_metrics_provider(metrics.clone());

        // Bind before the engine exists: a job handle names the port the
        // listener resolved (`host:0` picks one), which is where another
        // client reconnects to (§2).
        let listener = transport.listen(&params.bind_addr)?;
        let port = listener
            .local_addr()
            .rsplit_once(':')
            .and_then(|(_, p)| p.parse().ok())
            .unwrap_or(0);
        let hostname = params
            .bind_addr
            .rsplit_once(':')
            .map_or(params.bind_addr.as_str(), |(h, _)| h);
        let engine_config = EngineConfig {
            service_name: params.service_name.clone(),
            hostname: hostname.to_string(),
            port,
        };
        let engine = JobEngine::new(
            engine_config,
            clock.clone(),
            wal,
            ForkBackend::new(Arc::clone(&registry)),
            metrics.clone(),
        )
        .with_jarlet(JarletBackend::new(
            Arc::clone(&host),
            params.sandbox_policy.clone(),
            params.sandbox_mode,
        ));
        for (name, queue) in queues {
            engine.add_queue(
                &name,
                QueueBackend::new(&name, queue, Arc::clone(&registry)),
            );
        }
        // §7 I/O redirection lands on the service host's filesystem.
        engine.set_stdio_host(Arc::clone(&host));
        // Restart-from-log: resubmit whatever the previous incarnation
        // left unfinished (§6, §10 "automatic restart capabilities").
        engine.recover();

        let dispatcher = InfoGramDispatcher::new(Arc::clone(&engine), Arc::clone(&info));

        // ---- persistent-query plumbing: scheduler + subscription hub ----
        // The wheel starts EMPTY: keywords join it when a subscription
        // names them (a subscription is standing demand), so a service
        // nobody subscribes to refreshes nothing in the background and
        // on-demand query behaviour is exactly as before.
        let hub = Arc::clone(dispatcher.hub());
        let sched = RefreshScheduler::new(clock.clone(), metrics.clone());
        sched.set_hub(Arc::clone(&hub));
        dispatcher.set_scheduler(Arc::clone(&sched));
        let driver_running = Arc::new(AtomicBool::new(true));
        let driver = {
            let sched = Arc::clone(&sched);
            let hub = Arc::clone(&hub);
            let engine = Arc::clone(&engine);
            let running = Arc::clone(&driver_running);
            let clock = clock.clone();
            // lint:allow(thread-spawn) — long-lived refresh driver, not a
            // fan-out: it outlives any scope sim::par could provide and is
            // joined explicitly on shutdown.
            std::thread::spawn(move || {
                while running.load(Ordering::SeqCst) {
                    // Job state is otherwise pulled lazily by status
                    // queries; a `jobs` subscription (of any account) is
                    // standing demand for its jobs' transitions, so poll
                    // on its behalf.
                    if hub.has_subscribers(JOBS_KEYWORD) {
                        engine.poll_active();
                    }
                    sched.tick();
                    // Nap toward the next wheel deadline, bounded so
                    // shutdown stays prompt and an empty wheel does not
                    // spin.
                    let nap = sched
                        .next_deadline()
                        .map(|d| d.since(clock.now()))
                        .unwrap_or(Duration::from_millis(25));
                    let nap = nap.clamp(Duration::from_millis(1), Duration::from_millis(25));
                    std::thread::sleep(nap);
                }
            })
        };

        let server = GramServer::start(
            Arc::clone(&engine),
            dispatcher,
            listener,
            params.credential,
            params.trust_roots,
            params.authorizer,
            clock,
        );
        Ok(Arc::new(InfoGramService {
            server,
            info,
            engine,
            registry,
            hub,
            sched,
            driver_running,
            driver: Mutex::new(Some(driver)),
        }))
    }

    /// The bound address.
    pub fn addr(&self) -> &str {
        self.server.addr()
    }

    /// The unified service's information half.
    pub fn info_service(&self) -> &Arc<InformationService> {
        &self.info
    }

    /// The unified service's execution half.
    pub fn engine(&self) -> &Arc<JobEngine> {
        &self.engine
    }

    /// The host this service runs on.
    pub fn host(&self) -> &Arc<SimulatedHost> {
        self.registry.host()
    }

    /// The command registry behind the providers and the fork backend.
    pub fn registry(&self) -> &Arc<CommandRegistry> {
        &self.registry
    }

    /// Simple grid accounting from the logging service (§6).
    pub fn accounting(&self) -> BTreeMap<String, AccountUsage> {
        self.engine.wal().with_fold(|fold| fold.accounts.clone())
    }

    /// The `(action=subscribe)` index: live subscription count, keyword
    /// channel versions.
    pub fn subscriptions(&self) -> &Arc<SubscriptionHub> {
        &self.hub
    }

    /// The refresh scheduler driving subscribed keywords.
    pub fn scheduler(&self) -> &Arc<RefreshScheduler> {
        &self.sched
    }

    /// Stop accepting connections and park the refresh driver.
    pub fn shutdown(&self) {
        self.driver_running.store(false, Ordering::SeqCst);
        if let Some(t) = self.driver.lock().take() {
            let _ = t.join();
        }
        self.server.shutdown();
    }
}

/// Shared fixture used by this crate's tests (and re-used by the bridge
/// tests): a default host, a one-user PKI, and a started service on an
/// ideal in-memory network.
#[cfg(test)]
pub mod tests_support {
    use super::*;
    use infogram_gsi::{CertificateAuthority, Dn, GridMap};
    use infogram_host::commands::ChargeMode;
    use infogram_host::machine::SimulatedHost;
    use infogram_proto::transport::mem::MemNetwork;
    use infogram_sim::{SimTime, SplitMix64, SystemClock};
    use std::time::Duration;

    /// Everything a wire-level test needs.
    pub struct TestWorld {
        /// The shared clock.
        pub clock: SharedClock,
        /// The in-memory network.
        pub net: Arc<MemNetwork>,
        /// The running service.
        pub service: Arc<InfoGramService>,
        /// A mapped user credential.
        pub user: Credential,
        /// Trust anchors.
        pub roots: Vec<Certificate>,
    }

    /// Start a default InfoGram service bound at `addr`.
    pub fn start_default_service(addr: &str) -> TestWorld {
        let clock: SharedClock = SystemClock::shared();
        let mut rng = SplitMix64::new(2002);
        let ca = CertificateAuthority::new_root(
            &Dn::user("Grid", "CA", "Root"),
            &mut rng,
            SimTime::ZERO,
            Duration::from_secs(365 * 86_400),
        );
        let user = ca.issue(
            &Dn::user("Grid", "ANL", "Gregor"),
            &mut rng,
            SimTime::ZERO,
            Duration::from_secs(86_400),
        );
        let service_cred = ca.issue(
            &Dn::user("Grid", "Hosts", "infogram.grid"),
            &mut rng,
            SimTime::ZERO,
            Duration::from_secs(86_400),
        );
        let roots = vec![ca.certificate().clone()];
        let mut gridmap = GridMap::new();
        gridmap.add(Dn::user("Grid", "ANL", "Gregor"), &["gregor"]);
        let authorizer = Arc::new(Authorizer::gridmap_only(gridmap));

        let host = SimulatedHost::default_on(clock.clone());
        let registry = CommandRegistry::new(host, ChargeMode::None);
        let net = MemNetwork::ideal();
        let service = InfoGramService::start(
            InfoGramParams {
                service_name: "infogram".to_string(),
                bind_addr: addr.to_string(),
                config: ServiceConfig::table1(),
                sandbox_policy: Policy::restrictive(),
                sandbox_mode: ExecMode::Isolated,
                credential: service_cred,
                trust_roots: roots.clone(),
                authorizer,
            },
            registry,
            vec![],
            Wal::in_memory(),
            &net,
            clock.clone(),
            MetricSet::new(),
        )
        .expect("service starts");
        TestWorld {
            clock,
            net,
            service,
            user,
            roots,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::start_default_service;
    use infogram_rsl::InfoSelector;

    #[test]
    fn service_starts_and_binds() {
        let w = start_default_service("svc.grid:0");
        assert!(w.service.addr().starts_with("svc.grid:"));
        assert_eq!(w.service.engine().epoch(), 1);
        w.service.shutdown();
    }

    #[test]
    fn info_and_engine_share_the_host() {
        let w = start_default_service("svc2.grid:0");
        assert_eq!(
            w.service.info_service().hostname(),
            w.service.host().hostname()
        );
        w.service.shutdown();
    }

    #[test]
    fn accounting_reflects_engine_activity() {
        let w = start_default_service("svc3.grid:0");
        let req =
            infogram_rsl::XrslRequest::from_text("(executable=simwork)(arguments=1)").unwrap();
        w.service
            .engine()
            .submit(
                "(executable=simwork)(arguments=1)",
                req.job.unwrap(),
                "/O=Grid/CN=G",
                "gregor",
            )
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(5));
        w.service.engine().status(1);
        let summary = w.service.accounting();
        assert_eq!(summary["gregor"].submitted, 1);
        w.service.shutdown();
    }

    #[test]
    fn native_info_available_immediately() {
        let w = start_default_service("svc4.grid:0");
        let recs = w
            .service
            .info_service()
            .answer(
                &[InfoSelector::Keyword("Date".to_string())],
                &Default::default(),
            )
            .unwrap();
        assert_eq!(recs.len(), 1);
        assert!(recs[0].get("value").unwrap().value.contains("2002"));
        w.service.shutdown();
    }
}
