//! The backend tier: local schedulers.
//!
//! §2: "The backend tier is easily portable to various scheduling
//! systems. The Globus Toolkit services provide scheduling interfaces
//! such as PBS, LSF, Condor, and Unix process fork." The same portability
//! seam exists here as the [`ExecBackend`] trait with three
//! implementations:
//!
//! * [`ForkBackend`] — immediate execution as simulated host processes;
//! * [`QueueBackend`] — submission into an `infogram-host` batch queue
//!   (a FIFO or fair-share pool is the PBS/LSF flavour, a matchmaker
//!   pool the Condor flavour);
//! * [`JarletBackend`] — sandboxed execution of untrusted jarlet jobs
//!   (the paper's jar-file support, §7).

use crate::sandbox::{run_jarlet, ExecMode, Jarlet, Policy};
use infogram_host::commands::CommandRegistry;
use infogram_host::machine::SimulatedHost;
use infogram_host::process::{ExitStatus, ProcState};
use infogram_host::queue::{BatchJob, BatchQueue, JobOutcome};
use infogram_rsl::JobRequest;
use std::sync::Arc;

/// Why a backend refused a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// The executable does not resolve to anything runnable.
    UnknownExecutable(String),
    /// The jarlet program was malformed.
    BadJarlet(String),
    /// Anything else.
    Other(String),
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::UnknownExecutable(e) => write!(f, "unknown executable: {e}"),
            BackendError::BadJarlet(e) => write!(f, "bad jarlet: {e}"),
            BackendError::Other(e) => write!(f, "backend error: {e}"),
        }
    }
}

impl std::error::Error for BackendError {}

/// A handle to whatever the backend is running, one id per instance:
/// host process ids (fork and jarlet backends) or batch queue entries
/// (queue backend). A job keeps the backend that issued its ref, so a
/// backend only ever sees its own kind of id.
pub type BackendJobRef = Vec<u64>;

/// Backend-level job status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendStatus {
    /// Waiting for resources (batch queue depth).
    Pending,
    /// Running.
    Active,
    /// All instances finished; combined exit code (first nonzero).
    Finished {
        /// Combined exit code.
        exit_code: i32,
    },
    /// Cancelled.
    Canceled,
}

/// A local scheduler the job manager can drive.
pub trait ExecBackend: Send + Sync {
    /// Start a job; returns the backend ref and the job's (eventual)
    /// captured output.
    fn submit(
        &self,
        job: &JobRequest,
        account: &str,
    ) -> Result<(BackendJobRef, String), BackendError>;
    /// Poll current status.
    fn poll(&self, job_ref: &[u64]) -> BackendStatus;
    /// Cancel; true if anything was actually stopped.
    fn cancel(&self, job_ref: &[u64]) -> bool;
    /// The job behind `job_ref` is terminal and its outcome recorded:
    /// forget it. The engine calls this wherever a ref stops being
    /// polled; the ref must not be used afterwards.
    fn release(&self, job_ref: &[u64]);
}

fn command_line(job: &JobRequest) -> String {
    if job.arguments.is_empty() {
        job.executable.clone()
    } else {
        format!("{} {}", job.executable, job.arguments.join(" "))
    }
}

/// Reap the processes of a released job (fork and jarlet backends).
fn release_processes(host: &SimulatedHost, pids: &[u64]) {
    for &pid in pids {
        host.processes.remove(pid);
    }
}

/// Kill the processes of a job with `signal`; true if any was running.
fn kill_processes(host: &SimulatedHost, pids: &[u64], signal: i32) -> bool {
    pids.iter()
        .fold(false, |any, &pid| host.processes.kill(pid, signal) | any)
}

fn poll_processes(host: &SimulatedHost, pids: &[u64]) -> BackendStatus {
    let mut exit = 0;
    let mut any_running = false;
    let mut any_canceled = false;
    for &pid in pids {
        match host.processes.state(pid) {
            Some(ProcState::Running) => any_running = true,
            Some(ProcState::Exited) => match host.processes.exit_status(pid) {
                Some(ExitStatus::Code(c)) => {
                    if exit == 0 {
                        exit = c;
                    }
                }
                Some(ExitStatus::Signaled(_)) => any_canceled = true,
                None => any_running = true,
            },
            None => {
                // Reaped or unknown: treat as finished-with-failure.
                if exit == 0 {
                    exit = -1;
                }
            }
        }
    }
    if any_running {
        BackendStatus::Active
    } else if any_canceled {
        BackendStatus::Canceled
    } else {
        BackendStatus::Finished { exit_code: exit }
    }
}

/// Unix-process-fork backend: the GRAM default. Jobs start immediately as
/// entries in the simulated process table; their runtime is the planned
/// command cost.
pub struct ForkBackend {
    registry: Arc<CommandRegistry>,
}

impl ForkBackend {
    /// A fork backend over a command registry.
    pub fn new(registry: Arc<CommandRegistry>) -> Arc<Self> {
        Arc::new(ForkBackend { registry })
    }
}

impl ExecBackend for ForkBackend {
    fn submit(
        &self,
        job: &JobRequest,
        _account: &str,
    ) -> Result<(BackendJobRef, String), BackendError> {
        let cmdline = command_line(job);
        let planned = self
            .registry
            .plan(&cmdline)
            .map_err(|e| BackendError::UnknownExecutable(e.to_string()))?;
        let host = self.registry.host();
        let pids = (0..job.count)
            .map(|_| host.processes.spawn(planned.cost, planned.exit_code))
            .collect();
        Ok((pids, planned.stdout))
    }

    fn poll(&self, pids: &[u64]) -> BackendStatus {
        poll_processes(self.registry.host(), pids)
    }

    fn cancel(&self, pids: &[u64]) -> bool {
        kill_processes(self.registry.host(), pids, 15)
    }

    fn release(&self, pids: &[u64]) {
        release_processes(self.registry.host(), pids);
    }
}

/// Batch-queue backend over any pool (FIFO, fair-share, or matchmaker).
pub struct QueueBackend {
    queue: Arc<BatchQueue>,
    registry: Arc<CommandRegistry>,
}

impl QueueBackend {
    /// A backend feeding `queue`.
    pub fn new(queue: Arc<BatchQueue>, registry: Arc<CommandRegistry>) -> Arc<Self> {
        Arc::new(QueueBackend { queue, registry })
    }
}

impl ExecBackend for QueueBackend {
    fn submit(
        &self,
        job: &JobRequest,
        account: &str,
    ) -> Result<(BackendJobRef, String), BackendError> {
        let cmdline = command_line(job);
        let planned = self
            .registry
            .plan(&cmdline)
            .map_err(|e| BackendError::UnknownExecutable(e.to_string()))?;
        let mut ids = Vec::with_capacity(job.count as usize);
        for _ in 0..job.count {
            let mut batch_job = BatchJob::simple(&job.executable, account, planned.cost);
            batch_job.exit_code = planned.exit_code;
            for (k, v) in &job.requirements {
                batch_job = batch_job.requiring(k, v);
            }
            ids.push(self.queue.submit(batch_job));
        }
        Ok((ids, planned.stdout))
    }

    fn poll(&self, ids: &[u64]) -> BackendStatus {
        let mut exit = 0;
        let mut any_pending = false;
        let mut any_active = false;
        let mut any_canceled = false;
        for id in ids {
            match self.queue.poll(*id) {
                Some(JobOutcome::Queued) => any_pending = true,
                Some(JobOutcome::Running { .. }) => any_active = true,
                Some(JobOutcome::Completed { status, .. }) => {
                    if let ExitStatus::Code(c) = status {
                        if exit == 0 {
                            exit = c;
                        }
                    }
                }
                Some(JobOutcome::Cancelled) | None => any_canceled = true,
            }
        }
        if any_active {
            BackendStatus::Active
        } else if any_pending {
            BackendStatus::Pending
        } else if any_canceled {
            BackendStatus::Canceled
        } else {
            BackendStatus::Finished { exit_code: exit }
        }
    }

    fn cancel(&self, ids: &[u64]) -> bool {
        ids.iter()
            .fold(false, |any, &id| self.queue.cancel(id) | any)
    }

    fn release(&self, ids: &[u64]) {
        for &id in ids {
            self.queue.forget(id);
        }
    }
}

/// Sandboxed jarlet backend: runs untrusted programs under a policy, in
/// the configured execution mode.
pub struct JarletBackend {
    host: Arc<SimulatedHost>,
    policy: Policy,
    mode: ExecMode,
}

impl JarletBackend {
    /// A jarlet backend with the given policy and mode. "The Grid
    /// administrator must decide which mode should be run" (§7).
    pub fn new(host: Arc<SimulatedHost>, policy: Policy, mode: ExecMode) -> Arc<Self> {
        Arc::new(JarletBackend { host, policy, mode })
    }
}

impl ExecBackend for JarletBackend {
    fn submit(
        &self,
        job: &JobRequest,
        _account: &str,
    ) -> Result<(BackendJobRef, String), BackendError> {
        // The program is the staged file at the executable path, or the
        // inline arguments if no such file exists.
        let source = match self.host.fs.read_text(&job.executable) {
            Some(text) => text,
            None if !job.arguments.is_empty() => job.arguments.join(" "),
            None => {
                return Err(BackendError::UnknownExecutable(format!(
                    "{} (no staged jarlet, no inline program)",
                    job.executable
                )))
            }
        };
        let jarlet = Jarlet::parse(&source).map_err(|e| BackendError::BadJarlet(e.to_string()))?;
        let outcome = run_jarlet(&jarlet, &self.policy, self.mode, &self.host);
        let mut output = outcome.output.clone();
        for v in &outcome.violations {
            output.push_str(&format!("SECURITY VIOLATION: {v}\n"));
        }
        if outcome.host_contaminated {
            output.push_str("WARNING: host contaminated (in-process violation)\n");
        }
        // Model the job's duration as a process entry so status polling
        // sees it Active while it "runs".
        let pid = self
            .host
            .processes
            .spawn(outcome.runtime, outcome.exit_code);
        Ok((vec![pid], output))
    }

    fn poll(&self, pids: &[u64]) -> BackendStatus {
        poll_processes(&self.host, pids)
    }

    fn cancel(&self, pids: &[u64]) -> bool {
        kill_processes(&self.host, pids, 9)
    }

    fn release(&self, pids: &[u64]) {
        release_processes(&self.host, pids);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infogram_host::commands::ChargeMode;
    use infogram_host::queue::MachineAd;
    use infogram_rsl::XrslRequest;
    use infogram_sim::ManualClock;
    use std::time::Duration;

    fn world() -> (Arc<ManualClock>, Arc<CommandRegistry>) {
        let clock = ManualClock::new();
        let host = SimulatedHost::default_on(clock.clone());
        let reg = CommandRegistry::new(host, ChargeMode::None);
        (clock, reg)
    }

    fn job(rsl: &str) -> JobRequest {
        XrslRequest::from_text(rsl).unwrap().job.unwrap()
    }

    #[test]
    fn fork_runs_to_completion() {
        let (clock, reg) = world();
        let backend = ForkBackend::new(reg);
        let (r, output) = backend
            .submit(&job("(executable=/bin/simwork)(arguments=500 0)"), "alice")
            .unwrap();
        assert_eq!(backend.poll(&r), BackendStatus::Active);
        clock.advance(Duration::from_millis(500));
        assert_eq!(backend.poll(&r), BackendStatus::Finished { exit_code: 0 });
        assert!(output.contains("simulated work complete"));
    }

    #[test]
    fn fork_count_spawns_instances() {
        let (clock, reg) = world();
        let backend = ForkBackend::new(Arc::clone(&reg));
        let (r, _out) = backend
            .submit(
                &job("&(executable=simwork)(arguments=100)(count=4)"),
                "alice",
            )
            .unwrap();
        assert_eq!(r.len(), 4);
        assert_eq!(reg.host().processes.running_count(), 4);
        clock.advance(Duration::from_millis(100));
        assert_eq!(backend.poll(&r), BackendStatus::Finished { exit_code: 0 });
    }

    #[test]
    fn fork_nonzero_exit_propagates() {
        let (clock, reg) = world();
        let backend = ForkBackend::new(reg);
        let (r, _out) = backend
            .submit(&job("(executable=simwork)(arguments=100 7)"), "a")
            .unwrap();
        clock.advance(Duration::from_millis(100));
        assert_eq!(backend.poll(&r), BackendStatus::Finished { exit_code: 7 });
    }

    #[test]
    fn fork_unknown_executable() {
        let (_c, reg) = world();
        let backend = ForkBackend::new(reg);
        assert!(matches!(
            backend.submit(&job("(executable=/opt/warp-drive)"), "a"),
            Err(BackendError::UnknownExecutable(_))
        ));
    }

    #[test]
    fn fork_cancel_kills() {
        let (_c, reg) = world();
        let backend = ForkBackend::new(reg);
        let (r, _out) = backend
            .submit(&job("(executable=simwork)(arguments=60000)"), "a")
            .unwrap();
        assert!(backend.cancel(&r));
        assert_eq!(backend.poll(&r), BackendStatus::Canceled);
        assert!(!backend.cancel(&r), "second cancel is a no-op");
    }

    #[test]
    fn queue_backend_pending_then_active() {
        let (clock, reg) = world();
        let queue = Arc::new(BatchQueue::fifo(clock.clone(), 1));
        let backend = QueueBackend::new(Arc::clone(&queue), reg);
        let (a, _) = backend
            .submit(&job("(executable=simwork)(arguments=1000)"), "alice")
            .unwrap();
        let (b, _) = backend
            .submit(&job("(executable=simwork)(arguments=1000)"), "bob")
            .unwrap();
        assert_eq!(backend.poll(&a), BackendStatus::Active);
        assert_eq!(backend.poll(&b), BackendStatus::Pending);
        assert_eq!(queue.queued_depth(), 1);
        clock.advance(Duration::from_millis(1000));
        assert_eq!(backend.poll(&a), BackendStatus::Finished { exit_code: 0 });
        assert_eq!(backend.poll(&b), BackendStatus::Active);
        clock.advance(Duration::from_millis(1000));
        assert_eq!(backend.poll(&b), BackendStatus::Finished { exit_code: 0 });
    }

    #[test]
    fn matchmaker_backend_respects_requirements() {
        let (clock, reg) = world();
        let pool = Arc::new(BatchQueue::matchmaker(
            clock.clone(),
            vec![MachineAd::new("m1", &[("os", "linux")])],
        ));
        let backend = QueueBackend::new(pool, reg);
        let matching =
            job("&(executable=simwork)(arguments=100)(jobtype=batch)(requirements=(os linux))");
        let impossible =
            job("&(executable=simwork)(arguments=100)(jobtype=batch)(requirements=(os plan9))");
        let (a, _) = backend.submit(&matching, "u").unwrap();
        let (b, _) = backend.submit(&impossible, "u").unwrap();
        assert_eq!(backend.poll(&a), BackendStatus::Active);
        assert_eq!(backend.poll(&b), BackendStatus::Pending);
        clock.advance(Duration::from_secs(10));
        assert_eq!(backend.poll(&a), BackendStatus::Finished { exit_code: 0 });
        assert_eq!(backend.poll(&b), BackendStatus::Pending, "never matches");
    }

    #[test]
    fn queue_cancel() {
        let (clock, reg) = world();
        let queue = Arc::new(BatchQueue::fifo(clock.clone(), 1));
        let backend = QueueBackend::new(queue, reg);
        let (a, _) = backend
            .submit(&job("(executable=simwork)(arguments=5000)"), "a")
            .unwrap();
        assert!(backend.cancel(&a));
        assert_eq!(backend.poll(&a), BackendStatus::Canceled);
    }

    #[test]
    fn release_reaps_the_pids_of_a_finished_job() {
        let (clock, reg) = world();
        let backend = ForkBackend::new(Arc::clone(&reg));
        let processes = &reg.host().processes;
        let (r, _out) = backend
            .submit(
                &job("&(executable=simwork)(arguments=100)(count=3)"),
                "alice",
            )
            .unwrap();
        let (other, _out) = backend
            .submit(&job("(executable=simwork)(arguments=60000)"), "alice")
            .unwrap();
        clock.advance(Duration::from_millis(100));
        assert_eq!(backend.poll(&r), BackendStatus::Finished { exit_code: 0 });
        assert_eq!((processes.len(), processes.running_count()), (4, 1));
        backend.release(&r);
        assert_eq!((processes.len(), processes.running_count()), (1, 1));
        assert_eq!(backend.poll(&other), BackendStatus::Active);
    }

    #[test]
    fn release_makes_every_queue_forget_a_finished_job_and_no_other() {
        let (clock, reg) = world();
        let fair = Arc::new(BatchQueue::fair_share(clock.clone(), 1));
        let queues: [Arc<BatchQueue>; 3] = [
            Arc::new(BatchQueue::fifo(clock.clone(), 1)),
            fair.clone(),
            Arc::new(BatchQueue::matchmaker(
                clock.clone(),
                vec![MachineAd::new("m1", &[])],
            )),
        ];
        for queue in queues {
            let backend = QueueBackend::new(Arc::clone(&queue), Arc::clone(&reg));
            let spec = job("(executable=simwork)(arguments=1000)");
            let (a, _) = backend.submit(&spec, "alice").unwrap();
            let (b, _) = backend.submit(&spec, "alice").unwrap();
            let (c, _) = backend.submit(&spec, "alice").unwrap();
            assert!(backend.cancel(&c));
            // One slot: `a` runs, `b` waits. Neither has an outcome to
            // forget yet.
            backend.release(&a);
            backend.release(&b);
            assert_eq!(backend.poll(&a), BackendStatus::Active);
            assert_eq!(backend.poll(&b), BackendStatus::Pending);
            clock.advance(Duration::from_millis(1000));
            assert_eq!(backend.poll(&a), BackendStatus::Finished { exit_code: 0 });
            assert_eq!(backend.poll(&c), BackendStatus::Canceled);
            let usage = fair.usage_of("alice");
            backend.release(&a);
            backend.release(&c);
            for &id in a.iter().chain(&c) {
                assert_eq!(queue.poll(id), None);
            }
            assert_eq!(fair.usage_of("alice"), usage);
            assert_eq!(backend.poll(&b), BackendStatus::Active);
        }
    }

    #[test]
    fn jarlet_backend_runs_staged_program() {
        let (clock, reg) = world();
        let host = Arc::clone(reg.host());
        host.fs
            .write("/home/gregor/scan.jar", "compute 50; print scanned");
        let backend = JarletBackend::new(host, Policy::permissive(), ExecMode::Isolated);
        let (r, output) = backend
            .submit(&job("(executable=/home/gregor/scan.jar)"), "gregor")
            .unwrap();
        assert!(output.contains("scanned"));
        assert_eq!(
            backend.poll(&r),
            BackendStatus::Active,
            "runs for its compute time"
        );
        clock.advance(Duration::from_millis(100));
        assert_eq!(backend.poll(&r), BackendStatus::Finished { exit_code: 0 });
    }

    #[test]
    fn jarlet_backend_inline_program() {
        let (clock, reg) = world();
        let backend = JarletBackend::new(
            Arc::clone(reg.host()),
            Policy::restrictive(),
            ExecMode::Isolated,
        );
        let (r, output) = backend
            .submit(
                &job(r#"(executable=inline.jar)(arguments="print hello-grid")"#),
                "u",
            )
            .unwrap();
        assert!(output.contains("hello-grid"));
        clock.advance(Duration::from_secs(1));
        assert!(matches!(
            backend.poll(&r),
            BackendStatus::Finished { exit_code: 0 }
        ));
    }

    #[test]
    fn jarlet_violation_reported_in_output() {
        let (clock, reg) = world();
        let backend = JarletBackend::new(
            Arc::clone(reg.host()),
            Policy::restrictive(),
            ExecMode::Isolated,
        );
        let (r, output) = backend
            .submit(
                &job(r#"(executable=evil.jar)(arguments="read /etc/grid-security/hostcert.pem")"#),
                "u",
            )
            .unwrap();
        assert!(output.contains("SECURITY VIOLATION"));
        clock.advance(Duration::from_secs(1));
        assert_eq!(
            backend.poll(&r),
            BackendStatus::Finished {
                exit_code: crate::sandbox::VIOLATION_EXIT
            }
        );
    }

    #[test]
    fn jarlet_missing_program() {
        let (_c, reg) = world();
        let backend = JarletBackend::new(
            Arc::clone(reg.host()),
            Policy::restrictive(),
            ExecMode::Isolated,
        );
        assert!(matches!(
            backend.submit(&job("(executable=/nowhere/x.jar)"), "u"),
            Err(BackendError::UnknownExecutable(_))
        ));
    }
}
