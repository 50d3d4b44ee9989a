//! System command registry.
//!
//! Table 1 of the paper maps information keywords to *commands* —
//! `date -u`, `/sbin/sysinfo.exe -mem`, `/usr/local/bin/cpuload.exe`,
//! `ls /home/gregor` — executed "via the Java runtime exec" (§6.2 case
//! (a)). This module is that runtime: a registry of command handlers over a
//! [`SimulatedHost`], each with a configurable execution-cost model.
//!
//! The cost is what makes the caching experiments real: executing a
//! command *takes time* (charged to the host clock), so serving from the
//! TTL cache measurably beats re-executing (§5.1).

use crate::machine::SimulatedHost;
use crate::procfs;
use infogram_sim::fault::{Fault, Plan, EXIT_HUNG, EXIT_INJECTED};
use infogram_sim::{par, ManualClock, SplitMix64};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Result of a command execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommandOutput {
    /// Captured standard output.
    pub stdout: String,
    /// Exit code (0 = success).
    pub exit_code: i32,
    /// The simulated execution cost that was charged.
    pub cost: Duration,
}

/// Why a command could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommandError {
    /// No handler registered for this executable name.
    UnknownCommand(String),
    /// The command line was empty.
    EmptyCommandLine,
}

impl std::fmt::Display for CommandError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommandError::UnknownCommand(c) => write!(f, "unknown command: {c}"),
            CommandError::EmptyCommandLine => write!(f, "empty command line"),
        }
    }
}

impl std::error::Error for CommandError {}

/// Distribution of a command's execution time.
#[derive(Debug, Clone)]
pub enum CostModel {
    /// Always exactly this long.
    Fixed(Duration),
    /// Normal, truncated at zero.
    Normal {
        /// Mean cost.
        mean: Duration,
        /// Cost standard deviation.
        std_dev: Duration,
    },
}

impl CostModel {
    fn sample(&self, rng: &mut SplitMix64) -> Duration {
        match self {
            CostModel::Fixed(d) => *d,
            CostModel::Normal { mean, std_dev } => {
                let x = rng.normal(mean.as_secs_f64(), std_dev.as_secs_f64());
                Duration::from_secs_f64(x.max(0.0))
            }
        }
    }
}

/// How execution cost is charged to the world.
#[derive(Debug, Clone)]
pub enum ChargeMode {
    /// Really sleep on the host clock (system-clock services).
    Sleep,
    /// Advance a manual clock by the cost (deterministic experiments).
    Advance(Arc<ManualClock>),
    /// Record the cost in the output but charge nothing (pure unit tests).
    None,
}

type Handler = Arc<dyn Fn(&SimulatedHost, &[&str]) -> (String, i32) + Send + Sync + 'static>;

struct CommandSpec {
    handler: Handler,
    cost: CostModel,
}

impl std::fmt::Debug for CommandSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommandSpec")
            .field("cost", &self.cost)
            .finish_non_exhaustive()
    }
}

/// Registry of executable commands on one host.
#[derive(Debug)]
pub struct CommandRegistry {
    host: Arc<SimulatedHost>,
    specs: RwLock<HashMap<String, CommandSpec>>,
    rng: Mutex<SplitMix64>,
    charge: ChargeMode,
    faults: RwLock<Option<Arc<Plan>>>,
}

impl CommandRegistry {
    /// A registry with all built-in commands, charging costs per `charge`.
    pub fn new(host: Arc<SimulatedHost>, charge: ChargeMode) -> Arc<Self> {
        let seed = host.config().seed ^ 0xc0ffee;
        let reg = Arc::new(CommandRegistry {
            host,
            specs: RwLock::new(HashMap::new()),
            rng: Mutex::new(SplitMix64::new(seed)),
            charge,
            faults: RwLock::new(None),
        });
        reg.install_builtins();
        reg
    }

    /// Register (or replace) a command by executable basename.
    pub fn register(
        &self,
        name: &str,
        cost: CostModel,
        handler: impl Fn(&SimulatedHost, &[&str]) -> (String, i32) + Send + Sync + 'static,
    ) {
        self.specs.write().insert(
            name.to_string(),
            CommandSpec {
                handler: Arc::new(handler),
                cost,
            },
        );
    }

    /// Override only the cost model of an existing command.
    pub fn set_cost(&self, name: &str, cost: CostModel) -> bool {
        match self.specs.write().get_mut(name) {
            Some(spec) => {
                spec.cost = cost;
                true
            }
            None => false,
        }
    }

    /// Whether a command with this basename exists.
    pub fn contains(&self, name: &str) -> bool {
        self.specs.read().contains_key(name)
    }

    /// Attach (or replace) the fault plan consulted by [`execute`].
    ///
    /// Faults apply to *interactive* executions only; [`plan`] (job
    /// planning) is unaffected, so the injection surface is exactly the
    /// information-provider path. Pass-through of the plan's decisions:
    /// `Fail` charges the normal cost then exits nonzero, `Hang(d)` and
    /// `SlowBy(d)` charge `d` through the same [`ChargeMode`] as
    /// execution cost, so deadline budgets observe the stall under both
    /// clocks.
    ///
    /// [`execute`]: CommandRegistry::execute
    /// [`plan`]: CommandRegistry::plan
    pub fn set_fault_plan(&self, plan: Arc<Plan>) {
        *self.faults.write() = Some(plan);
    }

    /// Remove any attached fault plan.
    pub fn clear_fault_plan(&self) {
        *self.faults.write() = None;
    }

    /// Charge a duration to the world per this registry's charge mode.
    fn charge(&self, d: Duration) {
        match &self.charge {
            ChargeMode::Sleep => self.host.clock().sleep(d),
            ChargeMode::Advance(manual) => manual.advance(d),
            ChargeMode::None => {}
        }
    }

    /// Execute a full command line, e.g. `/sbin/sysinfo.exe -mem`.
    ///
    /// The executable is resolved by its basename, so the machine-specific
    /// paths of Table 1 all resolve to the simulated implementations.
    pub fn execute(&self, command_line: &str) -> Result<CommandOutput, CommandError> {
        let tokens: Vec<&str> = command_line.split_whitespace().collect();
        let exe = tokens.first().ok_or(CommandError::EmptyCommandLine)?;
        let basename = exe.rsplit('/').next().unwrap_or(exe);
        // Strip a `.exe` suffix, as in `/sbin/sysinfo.exe`.
        let basename = basename.strip_suffix(".exe").unwrap_or(basename);

        let (handler, cost_model) = {
            let specs = self.specs.read();
            let spec = specs
                .get(basename)
                .ok_or_else(|| CommandError::UnknownCommand(basename.to_string()))?;
            (Arc::clone(&spec.handler), spec.cost.clone())
        };
        let cost = self.sample_cost(&cost_model);
        let fault = self.faults.read().as_ref().and_then(|p| p.decide(basename));
        let (extra, failure) = match fault {
            None => (Duration::ZERO, None),
            Some(Fault::SlowBy(extra)) => (extra, None),
            Some(Fault::Fail) => (
                Duration::ZERO,
                Some(("fault: injected failure\n", EXIT_INJECTED)),
            ),
            // The command stalls (charged so deadline budgets see it),
            // then is reaped as failed.
            Some(Fault::Hang(stall)) => (
                stall,
                Some(("fault: hung, reaped by watchdog\n", EXIT_HUNG)),
            ),
        };
        self.charge(cost + extra);
        let (stdout, exit_code) = match failure {
            Some((stdout, exit_code)) => (stdout.to_string(), exit_code),
            None => handler(&self.host, &tokens[1..]),
        };
        Ok(CommandOutput {
            stdout,
            exit_code,
            cost: cost + extra,
        })
    }

    /// Draw one execution cost. Concurrent executions in a
    /// [`par::fan_out`] would take draws from the shared stream in thread
    /// order, so inside a branch the draw is keyed by the branch and the
    /// time it sees instead, and a seeded fan-out replays exactly.
    fn sample_cost(&self, model: &CostModel) -> Duration {
        match par::branch_id() {
            Some(branch) => {
                let at = self.host.clock().now().as_nanos();
                model.sample(&mut SplitMix64::new(self.host.config().seed ^ branch ^ at))
            }
            None => model.sample(&mut self.rng.lock()),
        }
    }

    /// Plan a command execution without charging its cost: compute the
    /// output, exit code, and the sampled cost. The fork backend in
    /// `infogram-exec` uses this to enter a process into the process
    /// table whose *deadline* models the cost, instead of blocking the
    /// submitting thread.
    ///
    /// If the planned output contains a `__runtime_ms` pair (emitted by
    /// `simwork`/`sleep`), that value overrides the sampled cost and is
    /// stripped from the output.
    pub fn plan(&self, command_line: &str) -> Result<CommandOutput, CommandError> {
        let tokens: Vec<&str> = command_line.split_whitespace().collect();
        let exe = tokens.first().ok_or(CommandError::EmptyCommandLine)?;
        let basename = exe.rsplit('/').next().unwrap_or(exe);
        let basename = basename.strip_suffix(".exe").unwrap_or(basename);
        let (handler, cost_model) = {
            let specs = self.specs.read();
            let spec = specs
                .get(basename)
                .ok_or_else(|| CommandError::UnknownCommand(basename.to_string()))?;
            (Arc::clone(&spec.handler), spec.cost.clone())
        };
        let mut cost = self.sample_cost(&cost_model);
        let (stdout, exit_code) = handler(&self.host, &tokens[1..]);
        let mut kept = String::with_capacity(stdout.len());
        for line in stdout.lines() {
            if let Some(ms) = line
                .strip_prefix("__runtime_ms:")
                .and_then(|v| v.trim().parse::<u64>().ok())
            {
                cost = Duration::from_millis(ms);
            } else {
                kept.push_str(line);
                kept.push('\n');
            }
        }
        Ok(CommandOutput {
            stdout: kept,
            exit_code,
            cost,
        })
    }

    /// The host this registry executes against.
    pub fn host(&self) -> &Arc<SimulatedHost> {
        &self.host
    }

    fn install_builtins(self: &Arc<Self>) {
        let fast = CostModel::Normal {
            mean: Duration::from_millis(5),
            std_dev: Duration::from_millis(1),
        };
        let medium = CostModel::Normal {
            mean: Duration::from_millis(20),
            std_dev: Duration::from_millis(4),
        };

        self.register("date", fast.clone(), |host, _args| {
            (format!("value: {}\n", host.date_string()), 0)
        });

        self.register("hostname", fast.clone(), |host, _args| {
            (format!("value: {}\n", host.hostname()), 0)
        });

        self.register("uname", fast.clone(), |host, args| {
            let os = &host.config().os_name;
            let out = if args.contains(&"-a") {
                format!("value: {os} {} simd 1 SMP\n", host.hostname())
            } else {
                format!("value: {os}\n")
            };
            (out, 0)
        });

        self.register("uptime", fast.clone(), |host, _args| {
            let (l1, l5, l15) = host.cpu.load_averages();
            (
                format!(
                    "seconds: {:.0}\nload1: {l1:.2}\nload5: {l5:.2}\nload15: {l15:.2}\n",
                    host.uptime_secs()
                ),
                0,
            )
        });

        // `/sbin/sysinfo.exe -mem | -cpu | -disk` from Table 1.
        self.register("sysinfo", medium.clone(), |host, args| {
            match args.first().copied() {
                Some("-mem") => (
                    format!(
                        "total: {}\nused: {}\nfree: {}\n",
                        host.memory.total(),
                        host.memory.used(),
                        host.memory.free()
                    ),
                    0,
                ),
                Some("-cpu") => (
                    format!(
                        "count: {}\nmodel: SimCPU 1000MHz\nmhz: 1000\n",
                        host.config().cpus
                    ),
                    0,
                ),
                Some("-disk") => (
                    format!(
                        "total: {}\nused: {}\nfree: {}\n",
                        host.disk.total(),
                        host.disk.used(),
                        host.disk.free()
                    ),
                    0,
                ),
                other => (
                    format!("error: unknown flag {:?}\n", other.unwrap_or("")),
                    1,
                ),
            }
        });

        // `/usr/local/bin/cpuload.exe` from Table 1: the hot, frequently
        // polled value of §5.1.
        self.register("cpuload", medium.clone(), |host, _args| {
            let (l1, l5, l15) = host.cpu.load_averages();
            (
                format!(
                    "load: {:.4}\nload1: {l1:.4}\nload5: {l5:.4}\nload15: {l15:.4}\n",
                    host.cpu.current()
                ),
                0,
            )
        });

        self.register("ls", fast.clone(), |host, args| {
            let dir = args
                .iter()
                .find(|a| !a.starts_with('-'))
                .copied()
                .unwrap_or("/");
            let entries = host.fs.list(dir);
            if entries.is_empty() && !host.fs.exists(dir) {
                (format!("ls: cannot access {dir}\n"), 2)
            } else {
                let mut out = String::new();
                for (i, e) in entries.iter().enumerate() {
                    out.push_str(&format!("entry{i}: {e}\n"));
                }
                (out, 0)
            }
        });

        self.register("cat", fast.clone(), |host, args| match args.first() {
            Some(path) => match host.fs.read_text(path) {
                Some(text) => (text, 0),
                None => (format!("cat: {path}: no such file\n"), 1),
            },
            None => (String::new(), 1),
        });

        self.register("df", medium, |host, _args| {
            (
                format!(
                    "total: {}\nused: {}\navailable: {}\n",
                    host.disk.total(),
                    host.disk.used(),
                    host.disk.free()
                ),
                0,
            )
        });

        // `proc` reads a /proc file after refreshing it from the models.
        self.register("proc", fast, |host, args| match args.first() {
            Some(path) => {
                procfs::sync_procfs(host);
                match host.fs.read_text(path) {
                    Some(text) => (text, 0),
                    None => (format!("proc: {path}: no such file\n"), 1),
                }
            }
            None => (String::new(), 1),
        });

        // `true` / `false` for exit-code tests.
        self.register("true", CostModel::Fixed(Duration::ZERO), |_, _| {
            (String::new(), 0)
        });
        self.register("false", CostModel::Fixed(Duration::ZERO), |_, _| {
            (String::new(), 1)
        });

        // `simwork <runtime_ms> [exit_code]` — a controllable batch job
        // body for the execution-service experiments. The `__runtime_ms`
        // pair instructs `plan` to use the requested runtime as the
        // process duration.
        self.register("simwork", CostModel::Fixed(Duration::ZERO), |_, args| {
            let ms: u64 = args.first().and_then(|a| a.parse().ok()).unwrap_or(0);
            let exit: i32 = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(0);
            (
                format!("__runtime_ms: {ms}\nstatus: simulated work complete\n"),
                exit,
            )
        });

        // `sleep <seconds>` — classic job body.
        self.register("sleep", CostModel::Fixed(Duration::ZERO), |_, args| {
            let secs: f64 = args.first().and_then(|a| a.parse().ok()).unwrap_or(0.0);
            (format!("__runtime_ms: {}\n", (secs * 1000.0) as u64), 0)
        });
    }
}

/// Parse `key: value` command output lines into ordered pairs, the
/// convention all built-in commands follow and the information providers
/// consume.
pub fn parse_kv_output(stdout: &str) -> Vec<(String, String)> {
    stdout
        .lines()
        .filter_map(|line| {
            let (k, v) = line.split_once(':')?;
            let k = k.trim();
            if k.is_empty() {
                return None;
            }
            Some((k.to_string(), v.trim().to_string()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use infogram_sim::{Clock, ManualClock};

    fn registry() -> (Arc<ManualClock>, Arc<CommandRegistry>) {
        let clock = ManualClock::new();
        let host = SimulatedHost::default_on(clock.clone());
        let reg = CommandRegistry::new(host, ChargeMode::Advance(clock.clone()));
        (clock, reg)
    }

    #[test]
    fn date_command() {
        let (_c, reg) = registry();
        let out = reg.execute("date -u").unwrap();
        assert_eq!(out.exit_code, 0);
        assert!(out.stdout.contains("2002-07-24"));
    }

    #[test]
    fn table1_paths_resolve_by_basename() {
        let (_c, reg) = registry();
        assert_eq!(reg.execute("/sbin/sysinfo.exe -mem").unwrap().exit_code, 0);
        assert_eq!(reg.execute("/sbin/sysinfo.exe -cpu").unwrap().exit_code, 0);
        assert_eq!(
            reg.execute("/usr/local/bin/cpuload.exe").unwrap().exit_code,
            0
        );
        assert_eq!(reg.execute("/bin/ls /home/gregor").unwrap().exit_code, 0);
    }

    #[test]
    fn ls_lists_home_gregor() {
        let (_c, reg) = registry();
        let out = reg.execute("/bin/ls /home/gregor").unwrap();
        assert!(out.stdout.contains("paper.tex"));
        assert!(out.stdout.contains("jobs"));
    }

    #[test]
    fn ls_missing_dir_fails() {
        let (_c, reg) = registry();
        let out = reg.execute("ls /no/such/dir").unwrap();
        assert_eq!(out.exit_code, 2);
    }

    #[test]
    fn unknown_command() {
        let (_c, reg) = registry();
        assert_eq!(
            reg.execute("/usr/bin/frobnicate"),
            Err(CommandError::UnknownCommand("frobnicate".to_string()))
        );
        assert_eq!(reg.execute("   "), Err(CommandError::EmptyCommandLine));
    }

    #[test]
    fn cost_charged_to_manual_clock() {
        let (clock, reg) = registry();
        let before = clock.now();
        let out = reg.execute("cpuload").unwrap();
        assert!(out.cost > Duration::ZERO);
        assert_eq!(clock.now().since(before), out.cost);
    }

    #[test]
    fn fixed_cost_override() {
        let (clock, reg) = registry();
        assert!(reg.set_cost("cpuload", CostModel::Fixed(Duration::from_millis(123))));
        let before = clock.now();
        reg.execute("cpuload").unwrap();
        assert_eq!(clock.now().since(before), Duration::from_millis(123));
        assert!(!reg.set_cost("nope", CostModel::Fixed(Duration::ZERO)));
    }

    #[test]
    fn custom_command_registration() {
        let (_c, reg) = registry();
        reg.register("greet", CostModel::Fixed(Duration::ZERO), |_, args| {
            (format!("hello: {}\n", args.join(" ")), 0)
        });
        let out = reg.execute("/opt/bin/greet grid world").unwrap();
        assert_eq!(out.stdout, "hello: grid world\n");
    }

    #[test]
    fn kv_parsing() {
        let kvs = parse_kv_output("a: 1\nb: two words \n\nnot-a-pair\n: missing\n");
        assert_eq!(
            kvs,
            vec![
                ("a".to_string(), "1".to_string()),
                ("b".to_string(), "two words".to_string()),
            ]
        );
    }

    #[test]
    fn sysinfo_mem_parses() {
        let (_c, reg) = registry();
        let out = reg.execute("sysinfo -mem").unwrap();
        let kvs = parse_kv_output(&out.stdout);
        let total: u64 = kvs
            .iter()
            .find(|(k, _)| k == "total")
            .unwrap()
            .1
            .parse()
            .unwrap();
        assert_eq!(total, reg.host().memory.total());
    }

    #[test]
    fn proc_command_reads_live_loadavg() {
        let (clock, reg) = registry();
        clock.advance(Duration::from_secs(30));
        let out = reg.execute("proc /proc/loadavg").unwrap();
        assert_eq!(out.exit_code, 0);
        assert!(crate::procfs::parse_loadavg_load1(&out.stdout).is_some());
    }

    #[test]
    fn true_false_exit_codes() {
        let (_c, reg) = registry();
        assert_eq!(reg.execute("true").unwrap().exit_code, 0);
        assert_eq!(reg.execute("false").unwrap().exit_code, 1);
    }

    #[test]
    fn plan_does_not_charge_cost() {
        let (clock, reg) = registry();
        let before = clock.now();
        let out = reg.plan("cpuload").unwrap();
        assert_eq!(clock.now(), before, "plan must not advance the clock");
        assert!(out.cost > Duration::ZERO);
        assert!(out.stdout.contains("load:"));
    }

    #[test]
    fn simwork_runtime_and_exit() {
        let (_c, reg) = registry();
        let out = reg.plan("/bin/simwork 1500 3").unwrap();
        assert_eq!(out.cost, Duration::from_millis(1500));
        assert_eq!(out.exit_code, 3);
        assert!(
            !out.stdout.contains("__runtime_ms"),
            "runtime directive stripped from output"
        );
        assert!(out.stdout.contains("simulated work complete"));
    }

    #[test]
    fn fault_plan_shapes_execution() {
        let (clock, reg) = registry();
        reg.set_cost("cpuload", CostModel::Fixed(Duration::from_millis(10)));
        let plan = Plan::new();
        plan.script(
            "cpuload",
            vec![
                Fault::Fail,
                Fault::Hang(Duration::from_millis(200)),
                Fault::SlowBy(Duration::from_millis(40)),
            ],
        );
        reg.set_fault_plan(plan);

        let out = reg.execute("cpuload").unwrap();
        assert_eq!(out.exit_code, EXIT_INJECTED);
        assert!(out.stdout.contains("injected failure"));

        // The hang charges its stall to the clock before failing.
        let before = clock.now();
        let out = reg.execute("cpuload").unwrap();
        assert_eq!(out.exit_code, EXIT_HUNG);
        assert_eq!(clock.now().since(before), Duration::from_millis(210));

        // SlowBy succeeds with the extra delay charged.
        let before = clock.now();
        let out = reg.execute("cpuload").unwrap();
        assert_eq!(out.exit_code, 0);
        assert!(out.stdout.contains("load:"));
        assert_eq!(clock.now().since(before), Duration::from_millis(50));

        // Script exhausted: healthy again.
        assert_eq!(reg.execute("cpuload").unwrap().exit_code, 0);
        reg.clear_fault_plan();
    }

    #[test]
    fn sleep_runtime() {
        let (_c, reg) = registry();
        let out = reg.plan("sleep 2.5").unwrap();
        assert_eq!(out.cost, Duration::from_millis(2500));
        assert_eq!(out.exit_code, 0);
    }
}
