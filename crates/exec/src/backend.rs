//! The backend tier: local schedulers.
//!
//! §2: "The backend tier is easily portable to various scheduling
//! systems. The Globus Toolkit services provide scheduling interfaces
//! such as PBS, LSF, Condor, and Unix process fork." The same portability
//! seam exists here as the [`ExecBackend`] trait. Every job runs in an
//! `infogram-host` [`BatchQueue`] pool, so one poll, one cancel and one
//! release serve all of them; the implementations differ in what they
//! start:
//!
//! * [`QueueBackend`] — a command, planned by the host's registry, in
//!   the host's fork pool ([`ForkBackend`], the GRAM default) or in a
//!   batch queue (a FIFO or fair-share pool is the PBS/LSF flavour, a
//!   matchmaker pool the Condor flavour);
//! * [`JarletBackend`] — a sandboxed untrusted jarlet job in the host's
//!   fork pool (the paper's jar-file support, §7).

use crate::sandbox::{run_jarlet, ExecMode, Jarlet, Policy};
use infogram_host::commands::CommandRegistry;
use infogram_host::machine::SimulatedHost;
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

/// A handle to whatever the backend is running: the pool ids of the
/// job's instances. A job keeps the backend that issued its ref, so a
/// backend only ever sees ids of its own pool.
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

    /// The pool this backend's jobs run in.
    fn pool(&self) -> &BatchQueue;

    /// Poll current status. An id the pool no longer holds reads as
    /// canceled.
    fn poll(&self, ids: &[u64]) -> BackendStatus {
        let pool = self.pool();
        let mut exit = 0;
        let mut any_pending = false;
        let mut any_active = false;
        let mut any_canceled = false;
        for &id in ids {
            match pool.poll(id) {
                Some(JobOutcome::Queued) => any_pending = true,
                Some(JobOutcome::Running { .. }) => any_active = true,
                Some(JobOutcome::Completed { exit_code, .. }) => {
                    if exit == 0 {
                        exit = exit_code;
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

    /// Cancel; true if anything was actually stopped.
    fn cancel(&self, ids: &[u64]) -> bool {
        ids.iter()
            .fold(false, |any, &id| self.pool().cancel(id) | any)
    }

    /// The job behind `ids` is terminal and its outcome recorded: forget
    /// it. The engine calls this wherever a ref stops being polled; the
    /// ref must not be used afterwards.
    fn release(&self, ids: &[u64]) {
        for &id in ids {
            self.pool().forget(id);
        }
    }
}

fn command_line(job: &JobRequest) -> String {
    if job.arguments.is_empty() {
        job.executable.clone()
    } else {
        format!("{} {}", job.executable, job.arguments.join(" "))
    }
}

/// Unix-process-fork backend, the GRAM default: a [`QueueBackend`] over
/// the host's fork pool, so jobs start immediately and run for the
/// planned command cost. `ForkBackend::new(registry)` builds one.
pub type ForkBackend = QueueBackend;

/// Runs commands, planned by the host's registry, in a pool: the host's
/// fork pool or a batch queue (FIFO, fair-share, or matchmaker).
pub struct QueueBackend {
    /// `None`: the host's fork pool.
    queue: Option<Arc<BatchQueue>>,
    registry: Arc<CommandRegistry>,
}

impl QueueBackend {
    /// A fork backend: jobs run in the fork pool of the registry's host.
    pub fn new(registry: Arc<CommandRegistry>) -> Arc<Self> {
        Arc::new(QueueBackend {
            queue: None,
            registry,
        })
    }

    /// A backend feeding the batch queue `queue`.
    pub fn batch(queue: Arc<BatchQueue>, registry: Arc<CommandRegistry>) -> Arc<Self> {
        Arc::new(QueueBackend {
            queue: Some(queue),
            registry,
        })
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
            let mut batch_job = BatchJob::new(account, planned.cost);
            batch_job.exit_code = planned.exit_code;
            for (k, v) in &job.requirements {
                batch_job = batch_job.requiring(k, v);
            }
            ids.push(self.pool().submit(batch_job));
        }
        Ok((ids, planned.stdout))
    }

    fn pool(&self) -> &BatchQueue {
        self.queue
            .as_deref()
            .unwrap_or(&self.registry.host().processes)
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
        account: &str,
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
        // The job runs in the fork pool for its compute time, so status
        // polling sees it Active while it "runs".
        let mut run = BatchJob::new(account, outcome.runtime);
        run.exit_code = outcome.exit_code;
        Ok((vec![self.pool().submit(run)], output))
    }

    fn pool(&self) -> &BatchQueue {
        &self.host.processes
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
        let backend = QueueBackend::batch(Arc::clone(&queue), reg);
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
        let backend = QueueBackend::batch(pool, reg);
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
        let backend = QueueBackend::batch(queue, reg);
        let (a, _) = backend
            .submit(&job("(executable=simwork)(arguments=5000)"), "a")
            .unwrap();
        assert!(backend.cancel(&a));
        assert_eq!(backend.poll(&a), BackendStatus::Canceled);
    }

    #[test]
    fn release_forgets_the_ids_of_a_finished_job() {
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

    /// Fork, batch and jarlet jobs share one status rule: an id the pool
    /// no longer holds reads as canceled, never as an exit code.
    #[test]
    fn an_id_the_pool_no_longer_holds_reads_as_canceled() {
        let (clock, reg) = world();
        let host = Arc::clone(reg.host());
        let queue = Arc::new(BatchQueue::fifo(clock.clone(), 1));
        let simwork = "(executable=simwork)(arguments=100 3)";
        let jarlet = r#"(executable=x.jar)(arguments="compute 50")"#;
        let backends: [(Arc<dyn ExecBackend>, &str, i32); 3] = [
            (ForkBackend::new(Arc::clone(&reg)), simwork, 3),
            (QueueBackend::batch(queue, Arc::clone(&reg)), simwork, 3),
            (
                JarletBackend::new(host, Policy::permissive(), ExecMode::Isolated),
                jarlet,
                0,
            ),
        ];
        for (backend, rsl, exit_code) in backends {
            let (r, _) = backend.submit(&job(rsl), "alice").unwrap();
            clock.advance(Duration::from_secs(1));
            assert_eq!(backend.poll(&r), BackendStatus::Finished { exit_code });
            backend.release(&r);
            assert_eq!(backend.poll(&r), BackendStatus::Canceled);
            assert!(!backend.cancel(&r));
            assert_eq!(backend.poll(&[u64::MAX]), BackendStatus::Canceled);
        }
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
            let backend = QueueBackend::batch(Arc::clone(&queue), Arc::clone(&reg));
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
