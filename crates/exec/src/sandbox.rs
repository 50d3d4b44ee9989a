//! Secure sandboxing of untrusted jobs.
//!
//! §5.5/§7 of the paper: "the execution of untrusted applications in
//! trusted environments is important to enable the use of Grids. ...
//! our J-GRAM service enhances the normal Globus GRAM service by being
//! able to execute pure Java code submitted as Java jar files. ... one
//! method is to execute the code in the same JVM as the rest of the
//! components are running. An alternative is to separate the execution of
//! the job into a JVM to increase security. We provide the ability to
//! configure the job manager to run in either of these modes."
//!
//! The JVM is replaced by a **jarlet**: a tiny line-oriented program whose
//! operations (compute, file read/write, network, spawn, allocate) are
//! each checked against a capability [`Policy`]. The two JVM modes become
//! [`ExecMode::InProcess`] (no per-op overhead, but a violation
//! *contaminates* the host service — observable in the outcome) and
//! [`ExecMode::Isolated`] (per-op crossing overhead, violations fully
//! contained).

use infogram_host::machine::SimulatedHost;
use std::sync::Arc;
use std::time::Duration;

/// One jarlet instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Burn `units` of compute (1 ms of simulated work per unit).
    Compute(u64),
    /// Read a file.
    Read(String),
    /// Write a file (contents = the op's argument tail).
    Write(String, String),
    /// Open a network connection.
    Net(String),
    /// Spawn a subprocess.
    Spawn,
    /// Allocate memory.
    Alloc(u64),
    /// Emit output.
    Print(String),
    /// Terminate with a nonzero exit code.
    Fail(i32),
}

/// A parsed jarlet program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Jarlet {
    /// The instruction sequence.
    pub ops: Vec<Op>,
}

/// A jarlet parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JarletParseError {
    /// 1-based statement index.
    pub statement: usize,
    /// Explanation.
    pub reason: String,
}

impl std::fmt::Display for JarletParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "jarlet statement {}: {}", self.statement, self.reason)
    }
}

impl std::error::Error for JarletParseError {}

impl Jarlet {
    /// Parse a `;`-or-newline-separated program, e.g.
    /// `compute 10; read /data/in.dat; write /tmp/out result; print done`.
    pub fn parse(src: &str) -> Result<Jarlet, JarletParseError> {
        let mut ops = Vec::new();
        for (i, stmt) in src.split([';', '\n']).map(str::trim).enumerate() {
            if stmt.is_empty() || stmt.starts_with('#') {
                continue;
            }
            let err = |reason: &str| JarletParseError {
                statement: i + 1,
                reason: reason.to_string(),
            };
            let (verb, rest) = match stmt.split_once(char::is_whitespace) {
                Some((v, r)) => (v, r.trim()),
                None => (stmt, ""),
            };
            let op = match verb {
                "compute" => Op::Compute(rest.parse().map_err(|_| err("bad compute units"))?),
                "read" => {
                    if rest.is_empty() {
                        return Err(err("read needs a path"));
                    }
                    Op::Read(rest.to_string())
                }
                "write" => {
                    let (path, contents) = match rest.split_once(char::is_whitespace) {
                        Some((p, c)) => (p, c.trim()),
                        None => (rest, ""),
                    };
                    if path.is_empty() {
                        return Err(err("write needs a path"));
                    }
                    Op::Write(path.to_string(), contents.to_string())
                }
                "net" => {
                    if rest.is_empty() {
                        return Err(err("net needs a host"));
                    }
                    Op::Net(rest.to_string())
                }
                "spawn" => Op::Spawn,
                "alloc" => Op::Alloc(rest.parse().map_err(|_| err("bad alloc bytes"))?),
                "print" => Op::Print(rest.to_string()),
                "fail" => Op::Fail(rest.parse().unwrap_or(1)),
                other => return Err(err(&format!("unknown op '{other}'"))),
            };
            ops.push(op);
        }
        Ok(Jarlet { ops })
    }
}

/// Capability policy for a jarlet run — what the "trusted environment"
/// permits the untrusted code.
#[derive(Debug, Clone, PartialEq)]
pub struct Policy {
    /// Path prefixes readable by the job.
    pub read_prefixes: Vec<String>,
    /// Path prefixes writable by the job.
    pub write_prefixes: Vec<String>,
    /// Whether outbound network is allowed.
    pub allow_net: bool,
    /// Whether spawning subprocesses is allowed.
    pub allow_spawn: bool,
    /// Compute-unit budget.
    pub max_compute_units: u64,
    /// Allocation budget in bytes.
    pub max_alloc_bytes: u64,
}

impl Policy {
    /// A restrictive default: read `/data`, write `/tmp`, no net, no
    /// spawn, modest budgets.
    pub fn restrictive() -> Policy {
        Policy {
            read_prefixes: vec!["/data".to_string()],
            write_prefixes: vec!["/tmp".to_string()],
            allow_net: false,
            allow_spawn: false,
            max_compute_units: 10_000,
            max_alloc_bytes: 64 << 20,
        }
    }

    /// A permissive policy for trusted code.
    pub fn permissive() -> Policy {
        Policy {
            read_prefixes: vec!["/".to_string()],
            write_prefixes: vec!["/".to_string()],
            allow_net: true,
            allow_spawn: true,
            max_compute_units: u64::MAX,
            max_alloc_bytes: u64::MAX,
        }
    }

    fn may_read(&self, path: &str) -> bool {
        self.read_prefixes.iter().any(|p| path.starts_with(p))
    }

    fn may_write(&self, path: &str) -> bool {
        self.write_prefixes.iter().any(|p| path.starts_with(p))
    }
}

/// How the jarlet runs — the paper's two JVM modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Same "JVM" as the service: zero crossing overhead, but a policy
    /// violation contaminates the host service.
    InProcess,
    /// A separate "JVM": every op pays a crossing overhead, violations
    /// are fully contained.
    Isolated,
}

/// Per-op crossing overhead in the isolated mode (models the extra JVM's
/// IPC boundary).
pub const ISOLATION_OVERHEAD_PER_OP: Duration = Duration::from_micros(50);

/// The result of running a jarlet.
#[derive(Debug, Clone, PartialEq)]
pub struct SandboxOutcome {
    /// Exit code (0 = success; 126 = policy violation).
    pub exit_code: i32,
    /// Captured `print` output.
    pub output: String,
    /// Policy violations encountered (each aborts the run).
    pub violations: Vec<String>,
    /// Ops executed before termination.
    pub ops_executed: u64,
    /// Simulated execution time (compute + isolation overhead).
    pub runtime: Duration,
    /// Whether the *host service* was contaminated — only possible when a
    /// violation happens in [`ExecMode::InProcess`].
    pub host_contaminated: bool,
}

/// Exit code reported for policy violations.
pub const VIOLATION_EXIT: i32 = 126;

/// Run a jarlet under a policy on a host.
pub fn run_jarlet(
    jarlet: &Jarlet,
    policy: &Policy,
    mode: ExecMode,
    host: &Arc<SimulatedHost>,
) -> SandboxOutcome {
    let mut outcome = SandboxOutcome {
        exit_code: 0,
        output: String::new(),
        violations: Vec::new(),
        ops_executed: 0,
        runtime: Duration::ZERO,
        host_contaminated: false,
    };
    let mut compute_used: u64 = 0;
    let mut alloc_used: u64 = 0;

    let violate = |outcome: &mut SandboxOutcome, what: String| {
        outcome.violations.push(what);
        outcome.exit_code = VIOLATION_EXIT;
        if mode == ExecMode::InProcess {
            // The untrusted code shares the service's address space; a
            // violation means it touched something it must not.
            outcome.host_contaminated = true;
        }
    };

    for op in &jarlet.ops {
        outcome.ops_executed += 1;
        if mode == ExecMode::Isolated {
            outcome.runtime += ISOLATION_OVERHEAD_PER_OP;
        }
        match op {
            Op::Compute(units) => {
                compute_used += units;
                if compute_used > policy.max_compute_units {
                    violate(
                        &mut outcome,
                        format!(
                            "compute budget exceeded: {compute_used} > {}",
                            policy.max_compute_units
                        ),
                    );
                    break;
                }
                outcome.runtime += Duration::from_millis(*units);
            }
            Op::Read(path) => {
                if !policy.may_read(path) {
                    violate(&mut outcome, format!("read denied: {path}"));
                    break;
                }
                // Reading a missing file is an ordinary failure, not a
                // violation.
                if host.fs.read(path).is_none() {
                    outcome.exit_code = 2;
                    outcome.output.push_str(&format!("read error: {path}\n"));
                    break;
                }
            }
            Op::Write(path, contents) => {
                if !policy.may_write(path) {
                    violate(&mut outcome, format!("write denied: {path}"));
                    break;
                }
                host.fs.write(path, contents.as_bytes().to_vec());
            }
            Op::Net(peer) => {
                if !policy.allow_net {
                    violate(&mut outcome, format!("network denied: {peer}"));
                    break;
                }
                outcome.runtime += Duration::from_millis(1);
            }
            Op::Spawn => {
                if !policy.allow_spawn {
                    violate(&mut outcome, "spawn denied".to_string());
                    break;
                }
            }
            Op::Alloc(bytes) => {
                alloc_used += bytes;
                if alloc_used > policy.max_alloc_bytes {
                    violate(
                        &mut outcome,
                        format!(
                            "allocation budget exceeded: {alloc_used} > {}",
                            policy.max_alloc_bytes
                        ),
                    );
                    break;
                }
            }
            Op::Print(text) => {
                outcome.output.push_str(text);
                outcome.output.push('\n');
            }
            Op::Fail(code) => {
                outcome.exit_code = *code;
                break;
            }
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use infogram_sim::ManualClock;

    fn host() -> Arc<SimulatedHost> {
        let h = SimulatedHost::default_on(ManualClock::new());
        h.fs.write("/data/input.dat", "payload");
        h
    }

    #[test]
    fn parse_program() {
        let j = Jarlet::parse("compute 10; read /data/x; print done").unwrap();
        assert_eq!(j.ops.len(), 3);
        assert_eq!(j.ops[2], Op::Print("done".to_string()));
    }

    #[test]
    fn parse_errors() {
        assert!(Jarlet::parse("compute lots").is_err());
        assert!(Jarlet::parse("teleport home").is_err());
        assert!(Jarlet::parse("read").is_err());
        // Comments and blanks are fine.
        assert!(Jarlet::parse("# comment\n\ncompute 1").is_ok());
    }

    #[test]
    fn well_behaved_job_succeeds() {
        let h = host();
        let j = Jarlet::parse(
            "compute 5; read /data/input.dat; write /tmp/out result; print analysis-done",
        )
        .unwrap();
        let out = run_jarlet(&j, &Policy::restrictive(), ExecMode::Isolated, &h);
        assert_eq!(out.exit_code, 0);
        assert!(out.violations.is_empty());
        assert!(!out.host_contaminated);
        assert_eq!(out.output, "analysis-done\n");
        assert_eq!(h.fs.read_text("/tmp/out").unwrap(), "result");
        assert_eq!(out.ops_executed, 4);
    }

    #[test]
    fn fs_escape_blocked() {
        let h = host();
        let j = Jarlet::parse("read /etc/grid-security/hostcert.pem").unwrap();
        let out = run_jarlet(&j, &Policy::restrictive(), ExecMode::Isolated, &h);
        assert_eq!(out.exit_code, VIOLATION_EXIT);
        assert_eq!(out.violations.len(), 1);
        assert!(out.violations[0].contains("read denied"));
        assert!(!out.host_contaminated, "isolated mode contains the breach");
    }

    #[test]
    fn write_escape_blocked() {
        let h = host();
        let j = Jarlet::parse("write /etc/passwd pwned").unwrap();
        let out = run_jarlet(&j, &Policy::restrictive(), ExecMode::Isolated, &h);
        assert_eq!(out.exit_code, VIOLATION_EXIT);
        assert!(!h.fs.exists("/etc/passwd"), "write must not happen");
    }

    #[test]
    fn net_and_spawn_blocked() {
        let h = host();
        for prog in ["net evil.example.org:31337", "spawn"] {
            let j = Jarlet::parse(prog).unwrap();
            let out = run_jarlet(&j, &Policy::restrictive(), ExecMode::Isolated, &h);
            assert_eq!(out.exit_code, VIOLATION_EXIT, "{prog}");
        }
    }

    #[test]
    fn compute_bomb_capped() {
        let h = host();
        let j = Jarlet::parse("compute 5000; compute 5000; compute 5000").unwrap();
        let out = run_jarlet(&j, &Policy::restrictive(), ExecMode::Isolated, &h);
        assert_eq!(out.exit_code, VIOLATION_EXIT);
        assert!(out.violations[0].contains("compute budget"));
        assert_eq!(out.ops_executed, 3, "stopped at the violating op");
    }

    #[test]
    fn alloc_bomb_capped() {
        let h = host();
        let j = Jarlet::parse(&format!("alloc {}", 1u64 << 40)).unwrap();
        let out = run_jarlet(&j, &Policy::restrictive(), ExecMode::Isolated, &h);
        assert_eq!(out.exit_code, VIOLATION_EXIT);
    }

    #[test]
    fn in_process_violation_contaminates_host() {
        let h = host();
        let j = Jarlet::parse("read /etc/shadow").unwrap();
        let isolated = run_jarlet(&j, &Policy::restrictive(), ExecMode::Isolated, &h);
        let in_proc = run_jarlet(&j, &Policy::restrictive(), ExecMode::InProcess, &h);
        assert!(!isolated.host_contaminated);
        assert!(in_proc.host_contaminated, "same JVM → breach reaches host");
    }

    #[test]
    fn isolation_costs_overhead() {
        let h = host();
        let j = Jarlet::parse("compute 1; compute 1; compute 1; compute 1").unwrap();
        let fast = run_jarlet(&j, &Policy::permissive(), ExecMode::InProcess, &h);
        let slow = run_jarlet(&j, &Policy::permissive(), ExecMode::Isolated, &h);
        assert_eq!(
            slow.runtime - fast.runtime,
            4 * ISOLATION_OVERHEAD_PER_OP,
            "isolated mode pays per-op crossing cost"
        );
    }

    #[test]
    fn explicit_failure_and_missing_file() {
        let h = host();
        let j = Jarlet::parse("fail 42").unwrap();
        assert_eq!(
            run_jarlet(&j, &Policy::permissive(), ExecMode::InProcess, &h).exit_code,
            42
        );
        let j = Jarlet::parse("read /data/absent.dat").unwrap();
        let out = run_jarlet(&j, &Policy::restrictive(), ExecMode::InProcess, &h);
        assert_eq!(out.exit_code, 2);
        assert!(out.violations.is_empty(), "missing file is not a violation");
        assert!(!out.host_contaminated);
    }

    #[test]
    fn permissive_policy_allows_everything() {
        let h = host();
        let j = Jarlet::parse("read /etc/grid-security/hostcert.pem; net peer:80; spawn").unwrap();
        let out = run_jarlet(&j, &Policy::permissive(), ExecMode::InProcess, &h);
        assert_eq!(out.exit_code, 0);
        assert!(out.violations.is_empty());
    }
}
