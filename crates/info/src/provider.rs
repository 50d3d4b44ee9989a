//! Information providers.
//!
//! §6.2: "The system information service returns relevant information
//! about the system resources, through either (a) calls to a system
//! command via the Java runtime exec (b) a query to a function exposing
//! Java runtime information such as load, memory, or disk space (c) or a
//! read function from a file that is used by an information provider."
//!
//! * case (a) → [`CommandProvider`] over the simulated host's command
//!   registry;
//! * case (b) → [`RuntimeProvider`] querying the host models directly;
//! * case (c) has no provider: nothing configures one;
//! * plus [`FnProvider`] wrapping a closure, for tests and custom
//!   integrations ("the integration of new information providers can be
//!   performed through the implementation of interfaces").

use infogram_host::commands::{parse_kv_output, CommandRegistry};
use infogram_host::machine::SimulatedHost;
use infogram_sim::metrics::MetricSet;
use std::sync::Arc;

/// Why a provider could not produce its information.
///
/// The taxonomy matters to the fault supervisor: *transient* errors
/// (nonzero exits, custom failures) are retried and counted toward the
/// circuit breaker, while *configuration* errors (an unknown executable)
/// are permanent — retrying them is pointless, so they are
/// surfaced immediately and never open the breaker. See
/// [`ProviderError::is_transient`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProviderError {
    /// The backing command ran but exited nonzero — transient: the
    /// backend may recover, so the supervisor retries and breaker-counts
    /// these.
    CommandFailed {
        /// What ran.
        command: String,
        /// Why it failed, e.g. `exit code 1`.
        detail: String,
    },
    /// The executable is not registered at all — a configuration error,
    /// never retried: no number of attempts will make it appear.
    UnknownCommand {
        /// The command line that could not be resolved.
        command: String,
        /// The resolver's message, e.g. `unknown command: probe`.
        detail: String,
    },
    /// Custom provider failure (treated as transient).
    Other(String),
}

impl ProviderError {
    /// Whether retrying could plausibly succeed. Transient errors are
    /// retried in-fetch and counted toward the circuit breaker;
    /// configuration errors fail fast and leave the breaker untouched.
    pub fn is_transient(&self) -> bool {
        match self {
            ProviderError::CommandFailed { .. } | ProviderError::Other(_) => true,
            ProviderError::UnknownCommand { .. } => false,
        }
    }
}

impl std::fmt::Display for ProviderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProviderError::CommandFailed { command, detail } => {
                write!(f, "command '{command}' failed: {detail}")
            }
            ProviderError::UnknownCommand { command, detail } => {
                write!(
                    f,
                    "command '{command}' failed: {detail} (configuration error)"
                )
            }
            ProviderError::Other(s) => write!(f, "provider error: {s}"),
        }
    }
}

impl std::error::Error for ProviderError {}

/// Source of one keyword's attributes. `produce` is the expensive,
/// blocking call — the thing the TTL cache exists to avoid.
pub trait InfoProvider: Send + Sync {
    /// The keyword this provider serves (e.g. `Memory`).
    fn keyword(&self) -> &str;
    /// Produce fresh `(attribute, value)` pairs.
    fn produce(&self) -> Result<Vec<(String, String)>, ProviderError>;
    /// A human-readable description of the source (command line, path, …)
    /// reported by the schema reflection.
    fn source(&self) -> String;
}

/// Case (a): run a command through the host's registry and parse its
/// `key: value` output.
pub struct CommandProvider {
    keyword: String,
    command_line: String,
    registry: Arc<CommandRegistry>,
}

impl CommandProvider {
    /// A provider executing `command_line` for `keyword`.
    pub fn new(keyword: &str, command_line: &str, registry: Arc<CommandRegistry>) -> Self {
        CommandProvider {
            keyword: keyword.to_string(),
            command_line: command_line.to_string(),
            registry,
        }
    }
}

impl InfoProvider for CommandProvider {
    fn keyword(&self) -> &str {
        &self.keyword
    }

    fn produce(&self) -> Result<Vec<(String, String)>, ProviderError> {
        // A command the registry cannot resolve is a configuration
        // error, not a transient failure: classify it so the supervisor
        // never wastes retries on it.
        let out = self.registry.execute(&self.command_line).map_err(|e| {
            ProviderError::UnknownCommand {
                command: self.command_line.clone(),
                detail: e.to_string(),
            }
        })?;
        if out.exit_code != 0 {
            return Err(ProviderError::CommandFailed {
                command: self.command_line.clone(),
                detail: format!("exit code {}", out.exit_code),
            });
        }
        Ok(parse_kv_output(&out.stdout))
    }

    fn source(&self) -> String {
        self.command_line.clone()
    }
}

/// Case (b): query the host models directly, no exec cost — the analogue
/// of asking the JVM for `freeMemory()`.
pub struct RuntimeProvider {
    keyword: String,
    host: Arc<SimulatedHost>,
    facet: RuntimeFacet,
}

/// Which runtime quantity a [`RuntimeProvider`] exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeFacet {
    /// CPU load (instantaneous + 1/5/15-minute averages).
    Load,
    /// Memory totals.
    Memory,
    /// Disk totals.
    Disk,
    /// Uptime and host identity.
    Host,
}

impl RuntimeProvider {
    /// A runtime provider for one facet.
    pub fn new(keyword: &str, host: Arc<SimulatedHost>, facet: RuntimeFacet) -> Self {
        RuntimeProvider {
            keyword: keyword.to_string(),
            host,
            facet,
        }
    }
}

impl InfoProvider for RuntimeProvider {
    fn keyword(&self) -> &str {
        &self.keyword
    }

    fn produce(&self) -> Result<Vec<(String, String)>, ProviderError> {
        let h = &self.host;
        Ok(match self.facet {
            RuntimeFacet::Load => {
                let (l1, l5, l15) = h.cpu.load_averages();
                vec![
                    ("load".to_string(), format!("{:.4}", h.cpu.current())),
                    ("load1".to_string(), format!("{l1:.4}")),
                    ("load5".to_string(), format!("{l5:.4}")),
                    ("load15".to_string(), format!("{l15:.4}")),
                ]
            }
            RuntimeFacet::Memory => vec![
                ("total".to_string(), h.memory.total().to_string()),
                ("used".to_string(), h.memory.used().to_string()),
                ("free".to_string(), h.memory.free().to_string()),
            ],
            RuntimeFacet::Disk => vec![
                ("total".to_string(), h.disk.total().to_string()),
                ("used".to_string(), h.disk.used().to_string()),
                ("free".to_string(), h.disk.free().to_string()),
            ],
            RuntimeFacet::Host => vec![
                ("hostname".to_string(), h.hostname().to_string()),
                ("os".to_string(), h.config().os_name.clone()),
                ("cpus".to_string(), h.config().cpus.to_string()),
                ("uptime".to_string(), format!("{:.1}", h.uptime_secs())),
            ],
        })
    }

    fn source(&self) -> String {
        format!("runtime:{:?}", self.facet)
    }
}

/// The built-in `Metrics:` keyword — the service describing itself.
///
/// Flattens the shared telemetry handle's snapshot (counters, gauges,
/// histogram quantiles, recorder means, recent events) into plain
/// `(attribute, value)` pairs, so `(info=metrics)` travels through
/// exactly the same caching, filtering, quality, and rendering machinery
/// as every Table 1 keyword. Registered with a TTL of zero, it reads a
/// live snapshot on every query.
pub struct TelemetryProvider {
    telemetry: MetricSet,
}

impl TelemetryProvider {
    /// Canonical keyword of the self-describing telemetry entry.
    pub const KEYWORD: &'static str = "Metrics";

    /// A provider reading snapshots of the given telemetry handle.
    pub fn new(telemetry: MetricSet) -> Self {
        TelemetryProvider { telemetry }
    }
}

impl InfoProvider for TelemetryProvider {
    fn keyword(&self) -> &str {
        Self::KEYWORD
    }

    fn produce(&self) -> Result<Vec<(String, String)>, ProviderError> {
        Ok(self.telemetry.snapshot_attrs())
    }

    fn source(&self) -> String {
        "telemetry snapshot".to_string()
    }
}

/// A provider wrapping a closure.
pub struct FnProvider<F> {
    keyword: String,
    f: F,
}

impl<F> FnProvider<F>
where
    F: Fn() -> Result<Vec<(String, String)>, ProviderError> + Send + Sync,
{
    /// Wrap a closure as a provider.
    pub fn new(keyword: &str, f: F) -> Self {
        FnProvider {
            keyword: keyword.to_string(),
            f,
        }
    }
}

impl<F> InfoProvider for FnProvider<F>
where
    F: Fn() -> Result<Vec<(String, String)>, ProviderError> + Send + Sync,
{
    fn keyword(&self) -> &str {
        &self.keyword
    }

    fn produce(&self) -> Result<Vec<(String, String)>, ProviderError> {
        (self.f)()
    }

    fn source(&self) -> String {
        "fn".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infogram_host::commands::ChargeMode;
    use infogram_sim::ManualClock;
    use std::time::Duration;

    fn world() -> (Arc<ManualClock>, Arc<SimulatedHost>, Arc<CommandRegistry>) {
        let clock = ManualClock::new();
        let host = SimulatedHost::default_on(clock.clone());
        let reg = CommandRegistry::new(Arc::clone(&host), ChargeMode::Advance(clock.clone()));
        (clock, host, reg)
    }

    #[test]
    fn command_provider_memory() {
        let (_c, host, reg) = world();
        let p = CommandProvider::new("Memory", "/sbin/sysinfo.exe -mem", reg);
        let attrs = p.produce().unwrap();
        let total: u64 = attrs
            .iter()
            .find(|(k, _)| k == "total")
            .unwrap()
            .1
            .parse()
            .unwrap();
        assert_eq!(total, host.memory.total());
        assert_eq!(p.keyword(), "Memory");
        assert_eq!(p.source(), "/sbin/sysinfo.exe -mem");
    }

    #[test]
    fn command_provider_failure_modes() {
        let (_c, _host, reg) = world();
        // Unresolvable executable → configuration error, never retried.
        let unknown = CommandProvider::new("X", "/bin/nonexistent", Arc::clone(&reg));
        match unknown.produce() {
            Err(e @ ProviderError::UnknownCommand { .. }) => {
                assert!(!e.is_transient());
                assert!(e.to_string().contains("unknown command"));
            }
            other => panic!("{other:?}"),
        }
        // Nonzero exit → transient, retried and breaker-counted.
        let failing = CommandProvider::new("X", "false", reg);
        match failing.produce() {
            Err(e @ ProviderError::CommandFailed { .. }) => {
                assert!(e.is_transient());
                assert!(e.to_string().contains("exit code 1"));
            }
            other => panic!("{other:?}"),
        }
        assert!(ProviderError::Other("boom".to_string()).is_transient());
    }

    #[test]
    fn runtime_provider_load_tracks_model() {
        let (clock, host, _reg) = world();
        clock.advance(Duration::from_secs(45));
        let p = RuntimeProvider::new("CPULoad", Arc::clone(&host), RuntimeFacet::Load);
        let attrs = p.produce().unwrap();
        let load: f64 = attrs
            .iter()
            .find(|(k, _)| k == "load")
            .unwrap()
            .1
            .parse()
            .unwrap();
        assert!((load - host.cpu.current()).abs() < 1e-3);
    }

    #[test]
    fn runtime_provider_host_facet() {
        let (_c, host, _reg) = world();
        let p = RuntimeProvider::new("Host", host, RuntimeFacet::Host);
        let attrs = p.produce().unwrap();
        assert!(attrs
            .iter()
            .any(|(k, v)| k == "hostname" && v == "node00.grid.example.org"));
        assert!(attrs.iter().any(|(k, _)| k == "cpus"));
    }

    #[test]
    fn fn_provider() {
        let p = FnProvider::new("Custom", || {
            Ok(vec![("answer".to_string(), "42".to_string())])
        });
        assert_eq!(p.produce().unwrap()[0].1, "42");
        let failing = FnProvider::new("Bad", || Err(ProviderError::Other("boom".to_string())));
        assert!(failing.produce().is_err());
    }
}
