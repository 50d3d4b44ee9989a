//! The job engine: job table + per-job lifecycle management.
//!
//! This is the "job manager" tier of J-GRAM (§2, §7): each submitted job
//! gets an entry that tracks its backend, drives its state machine on
//! every observation, enforces `maxtime` and the xRSL `timeout`/`action`
//! extension (§6.6), performs the automatic restart-on-failure of §6.1,
//! writes every transition to the logging service (§6), pushes it to the
//! submitting connection when that client asked for event callbacks (§2),
//! and tells the engine's observers.

use crate::backend::{BackendError, BackendJobRef, BackendStatus, ExecBackend};
use crate::chunked::Chunked;
use crate::wal::{Job, NamePool, Principal, RecoveredJob, RecoveryStats, Wal, WalError, WalEvent};
use infogram_host::machine::SimulatedHost;
use infogram_proto::handle::JobHandle;
use infogram_proto::message::{JobStateCode, Reply};
use infogram_proto::{drain_all, Outbox};
use infogram_rsl::{JobRequest, JobType, TimeoutAction, XrslRequest};
use infogram_sim::clock::SharedClock;
use infogram_sim::metrics::MetricSet;
use infogram_sim::SimTime;
use parking_lot::{lock_class, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::Duration;

/// Engine identity: where handles point and which resource name contracts
/// are checked against.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Resource name used in authorization contracts.
    pub service_name: String,
    /// Host part of issued job handles.
    pub hostname: String,
    /// Port part of issued job handles.
    pub port: u16,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            service_name: "jgram".to_string(),
            hostname: "localhost".to_string(),
            port: 2119,
        }
    }
}

/// Why a submission was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// Backend refused the job.
    Backend(BackendError),
    /// `(queue=X)` names no configured queue.
    UnknownQueue(String),
    /// Batch job without a queue and no default queue configured.
    NoQueueConfigured,
    /// The logging service cannot make the submission durable; the
    /// engine is read-only until the WAL heals. Honest degradation:
    /// rejected with a retry hint, never silently acked.
    WalUnavailable {
        /// Milliseconds until the WAL probes its sink again.
        retry_after_ms: u64,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Backend(e) => write!(f, "{e}"),
            SubmitError::UnknownQueue(q) => write!(f, "unknown queue '{q}'"),
            SubmitError::NoQueueConfigured => write!(f, "no batch queue configured"),
            SubmitError::WalUnavailable { retry_after_ms } => write!(
                f,
                "job log degraded, not accepting jobs; retry-after-ms={retry_after_ms}"
            ),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A point-in-time view of one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatusView {
    /// Current state.
    pub state: JobStateCode,
    /// Exit code once terminal.
    pub exit_code: Option<i32>,
    /// Captured output once terminal (empty before).
    pub output: String,
    /// Whether a `(timeout=...)(action=exception)` deadline has passed
    /// while the job kept running.
    pub timeout_exceeded: bool,
}

/// What it takes to run a job and to watch it run. (The xRSL text is not
/// here at all: the log fold holds it, see [`JobEngine::job_rsl`].)
struct LiveJob {
    spec: JobRequest,
    /// The backend the job was launched on, for as long as it runs.
    backend: Arc<dyn ExecBackend>,
    job_ref: BackendJobRef,
    submitted_at: SimTime,
    retries_left: u32,
    /// A `(timeout=...)(action=exception)` deadline has passed; the job
    /// keeps running, and says so until it ends.
    timeout_exceeded: bool,
}

/// One entry of the job table: a job that can still change. It is here
/// from `submit` / `recover` until its `Finished` record is durable;
/// [`JobEngine::settle`] then removes it, and the log's row — which has
/// held the job's owner, account and xRSL all along — is the one place
/// its outcome is kept.
struct JobEntry {
    /// Owner and account, shared with every other entry of the same pair.
    principal: Arc<Principal>,
    /// What the job will have printed, shown once it is terminal.
    output: String,
    /// Never terminal.
    state: JobStateCode,
    live: Box<LiveJob>,
    /// A terminal transition for this job is queued but not yet durable.
    /// While set, refresh/cancel leave the entry alone —
    /// [`JobEngine::settle`] removes it (or clears the flag if the WAL
    /// rejects the commit, so a later refresh retries).
    finishing: bool,
    /// The submitting connection's outbox, if it asked for event callbacks
    /// (§2) and is still open. Held weakly: a job never keeps a connection
    /// open, and the reference leaves with the entry. Counted in
    /// [`JobEngine::callback_jobs`] while set.
    callback: Option<Weak<Outbox>>,
}

/// A terminal transition discovered under the jobs lock, to be committed
/// and finalized by [`JobEngine::settle`] *after* the lock is released —
/// the WAL's commit ticket blocks on a condvar, which is illegal under
/// any engine lock (DESIGN §13).
struct PendingFinish {
    job_id: u64,
    state: JobStateCode,
    exit_code: Option<i32>,
    now: SimTime,
    wall: Duration,
}

/// The job table, and the principals its entries share.
#[derive(Default)]
struct JobTable {
    /// Jobs in flight.
    entries: HashMap<u64, JobEntry>,
    /// What finished jobs printed, by job id — the one thing about them
    /// the log does not hold (§6 records "the command used and
    /// arguments"), so it does not survive a restart. A job that printed
    /// nothing has no row.
    outputs: Chunked<u64>,
    identities: NamePool,
    /// Engine-wide observers, told of each transition under this lock.
    observers: Vec<Observer>,
}

/// Told of a job transition, in the `exec.engine.jobs` section that
/// finds it: the job's handle, its new state and the local account that
/// owns it. It may only push (never send), and returns the outboxes it
/// pushed into, which the engine drains once the lock is released.
type Observer = Box<dyn Fn(&JobHandle, JobStateCode, &str) -> Vec<Arc<Outbox>> + Send + Sync>;

/// What one critical section on the job table announces. Each
/// transition's Event is pushed into the submitter's callback outbox
/// and the observers are told, under the jobs lock: a push never
/// blocks and an outbox is FIFO, so every frame reaches the wire in the
/// order this lock saw the transitions. `outboxes` are drained
/// ([`drain_all`]) once the lock is released.
struct Announcements<'t> {
    observers: &'t [Observer],
    outboxes: Vec<Arc<Outbox>>,
}

impl<'t> Announcements<'t> {
    fn new(observers: &'t [Observer]) -> Self {
        Announcements {
            observers,
            outboxes: Vec::new(),
        }
    }

    /// Tell the observers of a transition.
    fn tell(&mut self, principal: &Principal, handle: &JobHandle, state: JobStateCode) {
        for observer in self.observers {
            self.outboxes
                .extend(observer(handle, state, principal.account()));
        }
    }

    /// Announce a transition of `entry`: its Event first, then the
    /// observers.
    fn record(&mut self, entry: &JobEntry, handle: JobHandle, state: JobStateCode) {
        if let Some(outbox) = entry.callback.as_ref().and_then(Weak::upgrade) {
            // A full or closed outbox loses the Event, as it would a reply.
            let event = Reply::Event {
                handle: handle.clone(),
                state,
            };
            let _ = outbox.push(event.encode());
            self.outboxes.push(outbox);
        }
        self.tell(&entry.principal, &handle, state);
    }
}

/// The J-GRAM job engine.
pub struct JobEngine {
    config: EngineConfig,
    clock: SharedClock,
    epoch: u64,
    next_job_id: AtomicU64,
    wal: Wal,
    fork: Arc<dyn ExecBackend>,
    jarlet: OnceLock<Arc<dyn ExecBackend>>,
    /// Named batch queues; the first is the default.
    queues: OnceLock<Vec<(String, Arc<dyn ExecBackend>)>>,
    jobs: Mutex<JobTable>,
    /// Jobs in the table whose submitter's callback outbox is open. It
    /// publishes nothing else (the driver reads it only to decide whether
    /// to poll), so `Relaxed` suffices.
    callback_jobs: AtomicUsize,
    /// Host whose filesystem receives `(stdout=...)`/`(stderr=...)`
    /// redirections, when configured.
    stdio_host: OnceLock<Arc<SimulatedHost>>,
    metrics: MetricSet,
}

impl std::fmt::Debug for JobEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobEngine")
            .field("epoch", &self.epoch)
            .field("service", &self.config.service_name)
            .finish_non_exhaustive()
    }
}

impl JobEngine {
    /// A fresh engine (epoch derived from any existing log content + 1,
    /// so a file-backed WAL naturally continues its epoch sequence).
    pub fn new(
        config: EngineConfig,
        clock: SharedClock,
        wal: Wal,
        fork: Arc<dyn ExecBackend>,
        metrics: MetricSet,
    ) -> Arc<Self> {
        let mut wal = wal;
        wal.set_telemetry(metrics.clone());
        let (last_epoch, last_job_id) =
            wal.with_fold(|fold| (fold.state.last_epoch, fold.state.last_job_id));
        let epoch = last_epoch + 1;
        // The boot record is relaxed, so a start waits on no fsync: the
        // first acked commit's fsync covers it (DESIGN §14). An append
        // that fails here latches the WAL read-only, and the engine serves
        // status/info while refusing submissions; a failing fsync is found
        // by the first submission.
        wal.record(clock.now(), &WalEvent::ServiceStarted { epoch });
        Arc::new(JobEngine {
            config,
            clock,
            epoch,
            next_job_id: AtomicU64::new(last_job_id + 1),
            wal,
            fork,
            jarlet: OnceLock::new(),
            queues: OnceLock::new(),
            jobs: Mutex::with_class(JobTable::default(), lock_class!("exec.engine.jobs")),
            callback_jobs: AtomicUsize::new(0),
            stdio_host: OnceLock::new(),
            metrics,
        })
    }

    /// Attach the sandboxed jarlet backend. The first one attached stays.
    pub fn set_jarlet(&self, backend: Arc<dyn ExecBackend>) {
        let _ = self.jarlet.set(backend);
    }

    /// Enable `(stdout=path)` / `(stderr=path)` redirection onto this
    /// host's filesystem — §7: "It is possible to redirect I/O to and
    /// from the client." The first host set stays.
    pub fn set_stdio_host(&self, host: Arc<SimulatedHost>) {
        let _ = self.stdio_host.set(host);
    }

    /// Attach the named batch queue backends. The first queue is the
    /// default for `(jobtype=batch)` without `(queue=...)`, and a name
    /// given twice means its first entry. The first list attached stays.
    pub fn set_queues(&self, queues: Vec<(String, Arc<dyn ExecBackend>)>) {
        let _ = self.queues.set(queues);
    }

    /// The engine's restart generation.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Engine identity.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The engine's metric sink.
    pub fn metrics(&self) -> &MetricSet {
        &self.metrics
    }

    /// The engine's time source. The dispatcher shares it so its latency
    /// measurements live on the same (possibly virtual) timeline as job
    /// deadlines.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// Register an observer of every job transition, initial states
    /// included: it is told the job's handle, new state and owning
    /// account under `exec.engine.jobs`, so it sees a job's transitions
    /// in order. It must not block: it pushes, and returns the outboxes
    /// it pushed into for the engine to drain after release. Observers
    /// live as long as the engine.
    pub fn on_state_change(
        &self,
        observer: impl Fn(&JobHandle, JobStateCode, &str) -> Vec<Arc<Outbox>> + Send + Sync + 'static,
    ) {
        self.jobs.lock().observers.push(Box::new(observer));
    }

    /// How many observers [`JobEngine::on_state_change`] registered: the
    /// callbacks every job transition visits.
    pub fn observer_count(&self) -> usize {
        self.jobs.lock().observers.len()
    }

    /// The engine's logging service (tests and benches reach through to
    /// inspect the fold or force commits).
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// What WAL recovery salvaged when this engine's log was opened.
    pub fn wal_recovery_stats(&self) -> RecoveryStats {
        self.wal.recovery_stats().clone()
    }

    /// If the engine is in read-only degradation (WAL down), the retry
    /// hint in milliseconds.
    pub fn wal_read_only_hint(&self) -> Option<u64> {
        self.wal.read_only_hint(self.clock.now())
    }

    /// Count one information query against `account` for the simple grid
    /// accounting — the uncached form: it looks the account's counter up
    /// under the log's lock. A connection keeps the handle instead
    /// ([`ConnCtx::count_info_query`](crate::gram::ConnCtx::count_info_query)).
    /// Nothing is logged, so `_owner` and `_keywords` go nowhere; the
    /// frozen benchmark still passes them.
    pub fn log_info_query(&self, _owner: &str, account: &str, _keywords: &str) {
        self.wal
            .info_query_counter(account)
            .fetch_add(1, Ordering::Relaxed);
    }

    fn handle_for(&self, job_id: u64) -> JobHandle {
        JobHandle::new(&self.config.hostname, self.config.port, job_id, self.epoch)
    }

    fn backend_for(&self, spec: &JobRequest) -> Result<Arc<dyn ExecBackend>, SubmitError> {
        match spec.job_type {
            JobType::Fork => Ok(Arc::clone(&self.fork)),
            JobType::Jarlet => self.jarlet.get().cloned().ok_or_else(|| {
                SubmitError::Backend(BackendError::Other(
                    "no jarlet backend configured".to_string(),
                ))
            }),
            JobType::Batch => {
                let queues = self.queues.get().map_or(&[][..], Vec::as_slice);
                let (_, backend) = match &spec.queue {
                    Some(name) => queues
                        .iter()
                        .find(|(n, _)| n == name)
                        .ok_or_else(|| SubmitError::UnknownQueue(name.clone()))?,
                    None => queues.first().ok_or(SubmitError::NoQueueConfigured)?,
                };
                Ok(Arc::clone(backend))
            }
        }
    }

    /// Start `spec` on its backend: the job's runnable half, the output
    /// captured so far, and the state it starts in.
    fn launch(
        &self,
        spec: JobRequest,
        account: &str,
        now: SimTime,
    ) -> Result<(LiveJob, String, JobStateCode), SubmitError> {
        let backend = self.backend_for(&spec)?;
        let (job_ref, output) = backend
            .submit(&spec, account)
            .map_err(SubmitError::Backend)?;
        let state = match backend.poll(&job_ref) {
            BackendStatus::Pending => JobStateCode::Pending,
            _ => JobStateCode::Active,
        };
        let live = LiveJob {
            retries_left: spec.restart_on_fail,
            spec,
            backend,
            job_ref,
            submitted_at: now,
            timeout_exceeded: false,
        };
        Ok((live, output, state))
    }

    /// Submit a job. `rsl_text` is logged verbatim ("the command used and
    /// arguments"); `owner`/`account` come from the gatekeeper's
    /// authorization decision.
    pub fn submit(
        &self,
        rsl_text: &str,
        spec: JobRequest,
        owner: &str,
        account: &str,
    ) -> Result<JobHandle, SubmitError> {
        self.submit_with_callback(rsl_text, spec, owner, account, None)
    }

    /// [`JobEngine::submit`], and with a `callback` outbox every later
    /// transition of the job is pushed into it as a `Reply::Event` (§2:
    /// the job manager "interacts thereafter with the client"). The
    /// initial state is not sent.
    pub fn submit_with_callback(
        &self,
        rsl_text: &str,
        spec: JobRequest,
        owner: &str,
        account: &str,
        callback: Option<&Arc<Outbox>>,
    ) -> Result<JobHandle, SubmitError> {
        let now = self.clock.now();
        // Fast-path rejection while degraded: don't even start a backend
        // job we could not durably record.
        if let Some(retry_after_ms) = self.wal.read_only_hint(now) {
            self.metrics.counter("jobs.rejected_readonly").incr();
            return Err(SubmitError::WalUnavailable { retry_after_ms });
        }
        let (live, output, initial_state) = self.launch(spec, account, now)?;
        let job_id = self.next_job_id.fetch_add(1, Ordering::SeqCst);
        // Group commit: the ack below only happens once this batch is
        // durable. No engine lock is held across the ticket wait.
        if let Err(e) = self.wal.commit(
            now,
            &[
                WalEvent::Submitted {
                    job_id,
                    rsl: rsl_text.to_string(),
                    owner: owner.to_string(),
                    account: account.to_string(),
                },
                WalEvent::StateChanged {
                    job_id,
                    state: initial_state,
                },
            ],
        ) {
            // Honest degradation: never ack a submission the log lost.
            live.backend.cancel(&live.job_ref);
            live.backend.release(&live.job_ref);
            self.metrics.counter("jobs.rejected_readonly").incr();
            let retry_after_ms = match e {
                WalError::ReadOnly { retry_after_ms } => retry_after_ms,
                WalError::Io(_) => self.wal.retry_after_ms(),
            };
            return Err(SubmitError::WalUnavailable { retry_after_ms });
        }
        let handle = self.handle_for(job_id);
        let outboxes = {
            let mut guard = self.jobs.lock();
            let jobs = &mut *guard;
            let principal = jobs.identities.intern(owner, account);
            let mut news = Announcements::new(&jobs.observers);
            news.tell(&principal, &handle, initial_state);
            let callback = callback.map(Arc::downgrade);
            if callback.is_some() {
                self.callback_jobs.fetch_add(1, Ordering::Relaxed);
            }
            let entry = JobEntry {
                principal,
                output,
                state: initial_state,
                live: Box::new(live),
                finishing: false,
                callback,
            };
            jobs.entries.insert(job_id, entry);
            news.outboxes
        };
        self.metrics.counter("jobs.submitted").incr();
        drain_all(outboxes);
        Ok(handle)
    }

    /// Stop counting `entry` among the callback jobs.
    fn drop_callback(&self, entry: &mut JobEntry) {
        if entry.callback.take().is_some() {
            self.callback_jobs.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Drive one job's state machine from the backend's current status.
    /// Returns the (possibly new) state.
    ///
    /// Callers hold the `jobs` lock (they hand in `&mut JobEntry` from
    /// the locked table), so a non-terminal transition is announced into
    /// `news` at once, and a terminal one queued into `finish` (the WAL
    /// commit ticket blocks on a condvar, illegal under the lock).
    /// [`JobEngine::settle`] acts on both after release.
    fn refresh(
        &self,
        job_id: u64,
        entry: &mut JobEntry,
        news: &mut Announcements<'_>,
        finish: &mut Option<PendingFinish>,
    ) -> JobStateCode {
        if entry.finishing {
            return entry.state;
        }
        if entry
            .callback
            .as_ref()
            .is_some_and(|c| c.strong_count() == 0)
        {
            // The submitter hung up: nobody waits for this job's Events.
            self.drop_callback(entry);
        }
        let now = self.clock.now();

        // Deadlines: GRAM `maxtime` kills (→ Failed); the xRSL extension
        // `(timeout=...)` either cancels or raises while continuing.
        let elapsed = now.since(entry.live.submitted_at);
        if let Some(max_time) = entry.live.spec.max_time {
            if elapsed > max_time {
                entry.live.backend.cancel(&entry.live.job_ref);
                self.queue_finish(job_id, entry, JobStateCode::Failed, None, now, finish);
                self.metrics.counter("jobs.maxtime_kills").incr();
                return entry.state;
            }
        }
        if let Some(timeout) = entry.live.spec.timeout {
            if elapsed > timeout {
                match entry.live.spec.timeout_action {
                    TimeoutAction::Cancel => {
                        entry.live.backend.cancel(&entry.live.job_ref);
                        self.queue_finish(job_id, entry, JobStateCode::Canceled, None, now, finish);
                        self.metrics.counter("jobs.timeout_cancels").incr();
                        return entry.state;
                    }
                    TimeoutAction::Exception => {
                        if !entry.live.timeout_exceeded {
                            entry.live.timeout_exceeded = true;
                            self.metrics.counter("jobs.timeout_exceptions").incr();
                        }
                        // "the execution of the command itself would be
                        // continuing" — fall through to normal polling.
                    }
                }
            }
        }

        let live = &mut *entry.live;
        let status = live.backend.poll(&live.job_ref);
        let new_state = match status {
            BackendStatus::Pending => JobStateCode::Pending,
            BackendStatus::Active => JobStateCode::Active,
            BackendStatus::Canceled => JobStateCode::Canceled,
            BackendStatus::Finished { exit_code } => {
                if exit_code == 0 {
                    JobStateCode::Done
                } else if live.retries_left > 0 {
                    // §6.1: "a fault tolerance mechanism that allows to
                    // restart a job upon failure".
                    live.retries_left -= 1;
                    self.metrics.counter("jobs.restarts").incr();
                    match live.backend.submit(&live.spec, entry.principal.account()) {
                        Ok((job_ref, output)) => {
                            // The failed attempt is waited for: reap it.
                            let failed = std::mem::replace(&mut live.job_ref, job_ref);
                            live.backend.release(&failed);
                            entry.output = output;
                            live.submitted_at = now;
                            JobStateCode::Pending
                        }
                        Err(_) => JobStateCode::Failed,
                    }
                } else {
                    JobStateCode::Failed
                }
            }
        };
        if new_state != entry.state {
            if new_state.is_terminal() {
                let exit_code = match status {
                    BackendStatus::Finished { exit_code } => Some(exit_code),
                    _ => None,
                };
                self.queue_finish(job_id, entry, new_state, exit_code, now, finish);
            } else {
                entry.state = new_state;
                self.wal.record(
                    now,
                    &WalEvent::StateChanged {
                        job_id,
                        state: new_state,
                    },
                );
                news.record(entry, self.handle_for(job_id), new_state);
            }
        }
        entry.state
    }

    /// Queue a terminal transition. The entry stays, in its non-terminal
    /// state — terminal visibility is gated on the `Finished` record
    /// being durable, so recovery can never resurrect a finished job the
    /// log did not confirm.
    fn queue_finish(
        &self,
        job_id: u64,
        entry: &mut JobEntry,
        state: JobStateCode,
        exit_code: Option<i32>,
        now: SimTime,
        finish: &mut Option<PendingFinish>,
    ) {
        entry.finishing = true;
        *finish = Some(PendingFinish {
            job_id,
            state,
            exit_code,
            now,
            wall: now.since(entry.live.submitted_at),
        });
    }

    /// Act on what refresh found, with no engine lock held: the outboxes
    /// its announcements went into are drained first, then the terminal
    /// transition, if any, is group-committed to the WAL and — only once
    /// durable, so the log's row already says how the job ended — its
    /// entry leaves the table and the transition is announced, in the
    /// same critical section. A failed commit clears the `finishing`
    /// flag so a later refresh retries (the backend's view of a finished
    /// job is stable). Returns how the job ended, if it did and the log
    /// has it.
    fn settle(
        &self,
        outboxes: Vec<Arc<Outbox>>,
        finish: Option<PendingFinish>,
    ) -> Option<(JobStateCode, Option<i32>)> {
        drain_all(outboxes);
        let f = finish?;
        if !self.commit_finish(&f) {
            if let Some(entry) = self.jobs.lock().entries.get_mut(&f.job_id) {
                entry.finishing = false;
            }
            return None;
        }
        let (retired, outboxes) = {
            let mut guard = self.jobs.lock();
            let jobs = &mut *guard;
            let mut news = Announcements::new(&jobs.observers);
            let mut retired = jobs.entries.remove(&f.job_id);
            if let Some(entry) = &mut retired {
                // Stdout/stderr redirection onto the service-side
                // filesystem.
                if let Some(host) = self.stdio_host.get() {
                    if let Some(path) = &entry.live.spec.stdout {
                        host.fs.write(path, entry.output.clone());
                    }
                    if let Some(path) = &entry.live.spec.stderr {
                        let stderr_body = if f.state == JobStateCode::Done {
                            String::new()
                        } else {
                            format!("job ended in state {} (exit {:?})\n", f.state, f.exit_code)
                        };
                        host.fs.write(path, stderr_body);
                    }
                }
                if !entry.output.is_empty() {
                    jobs.outputs.insert(f.job_id, &entry.output);
                }
                news.record(entry, self.finished(&f), f.state);
                self.drop_callback(entry);
            }
            (retired, news.outboxes)
        };
        // The backend's record of the job is reaped, and the entry freed,
        // with no lock held.
        if let Some(entry) = retired {
            entry.live.backend.release(&entry.live.job_ref);
            drop(entry);
        }
        drain_all(outboxes);
        Some((f.state, f.exit_code))
    }

    /// Make one terminal transition durable. False — and counted in
    /// `wal.finish_deferred` — if the log refuses it: the job then stays
    /// in flight.
    fn commit_finish(&self, f: &PendingFinish) -> bool {
        let finished = WalEvent::Finished {
            job_id: f.job_id,
            state: f.state,
            exit_code: f.exit_code,
            wall_seconds: f.wall.as_secs_f64(),
        };
        let committed = self.wal.commit(f.now, &[finished]).is_ok();
        if !committed {
            self.metrics.counter("wal.finish_deferred").incr();
        }
        committed
    }

    /// Count a terminal transition that is durable; returns the job's
    /// handle, to announce it with.
    fn finished(&self, f: &PendingFinish) -> JobHandle {
        self.metrics
            .counter(match f.state {
                JobStateCode::Done => "jobs.done",
                JobStateCode::Canceled => "jobs.canceled",
                _ => "jobs.failed",
            })
            .incr();
        // Backend execution latency (submission → terminal state, on the
        // service clock).
        self.metrics.histogram("jobs.wall").record(f.wall);
        self.handle_for(f.job_id)
    }

    /// Drive one job's state machine (if it still has one) and settle
    /// what that discovers: how the job ended, if this poll is the one
    /// that found out.
    fn poll(&self, job_id: u64) -> Option<(JobStateCode, Option<i32>)> {
        let mut finish = None;
        let outboxes = {
            let mut guard = self.jobs.lock();
            let jobs = &mut *guard;
            let mut news = Announcements::new(&jobs.observers);
            if let Some(entry) = jobs.entries.get_mut(&job_id) {
                self.refresh(job_id, entry, &mut news, &mut finish);
            }
            news.outboxes
        };
        self.settle(outboxes, finish)
    }

    /// The log's row for a job that is not in the table, if that row is
    /// finished. An unfinished row outside the table is a job of an
    /// earlier incarnation that [`JobEngine::recover`] has not yet — or
    /// could not — relaunch: this incarnation does not know it.
    fn finished_row<R>(
        &self,
        job_id: u64,
        read: impl FnOnce(Job<'_>, (JobStateCode, Option<i32>)) -> R,
    ) -> Option<R> {
        self.wal
            .with_job(job_id, |job| job.finished.map(|end| read(job, end)))
            .flatten()
    }

    /// Current status of a job; `None` for unknown ids.
    pub fn status(&self, job_id: u64) -> Option<JobStatusView> {
        // Terminal transitions are committed before the view is built, so
        // a single status call still observes the terminal state (when
        // the WAL is healthy).
        let ended = self.poll(job_id);
        let output = {
            let jobs = self.jobs.lock();
            if let Some(entry) = jobs.entries.get(&job_id) {
                return Some(JobStatusView {
                    state: entry.state,
                    exit_code: None,
                    output: String::new(),
                    timeout_exceeded: entry.live.timeout_exceeded,
                });
            }
            jobs.outputs
                .find(job_id)
                .map(|output| output.text().to_string())
                .unwrap_or_default()
        };
        // Not in the table: finished, or unknown. `settle` removes an
        // entry only after the log has the terminal row, so there is no
        // moment at which neither answers; the jobs lock is released
        // before the log's is taken — which it is not by the poll that
        // ended the job itself.
        let (state, exit_code) = match ended {
            Some(end) => end,
            None => self.finished_row(job_id, |_, end| end)?,
        };
        Some(JobStatusView {
            state,
            exit_code,
            output,
            timeout_exceeded: false,
        })
    }

    /// Refresh every job in flight against its backend, announcing any
    /// transition discovered. Job state is otherwise pulled lazily by
    /// `status`/`cancel`; the push-subscription driver calls this while
    /// the `jobs` channel has subscribers or [`JobEngine::callback_jobs`]
    /// is not zero, so transitions stream to them without any client
    /// polling.
    pub fn poll_active(&self) {
        let ids: Vec<u64> = self.jobs.lock().entries.keys().copied().collect();
        for id in ids {
            self.poll(id);
        }
    }

    /// Cancel a job; false for unknown or already-terminal jobs (or when
    /// the WAL refuses to durably record the cancellation — honest: the
    /// caller is only told "canceled" once it would survive a restart).
    pub fn cancel(&self, job_id: u64) -> bool {
        let mut finish = None;
        let (attempted, outboxes) = {
            let mut guard = self.jobs.lock();
            let jobs = &mut *guard;
            let mut news = Announcements::new(&jobs.observers);
            let Some(entry) = jobs.entries.get_mut(&job_id) else {
                return false; // unknown, or already terminal
            };
            self.refresh(job_id, entry, &mut news, &mut finish);
            let attempted = !entry.finishing;
            if attempted {
                entry.live.backend.cancel(&entry.live.job_ref);
                let now = self.clock.now();
                let canceled = JobStateCode::Canceled;
                self.queue_finish(job_id, entry, canceled, None, now, &mut finish);
            }
            (attempted, news.outboxes)
        };
        // A refresh can discover a terminal transition even when the
        // cancel itself loses the race — settle whatever was queued.
        let ended = self.settle(outboxes, finish);
        attempted && matches!(ended, Some((JobStateCode::Canceled, _)))
    }

    /// All known job ids: those in flight and those the log says finished.
    pub fn job_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.jobs.lock().entries.keys().copied().collect();
        self.wal.with_fold(|fold| {
            let finished = fold.state.jobs.iter().filter(|job| job.finished.is_some());
            ids.extend(finished.map(|job| job.job_id));
        });
        ids.sort_unstable();
        // A job that finished between the two reads was seen by both.
        ids.dedup();
        ids
    }

    /// The jobs the local `account` owns, in id order, each with the state
    /// its last transition announced: those in flight from the table,
    /// those finished from the log's rows. One read: the log is read
    /// under the jobs lock (jobs → io, the order `recover` takes), so a
    /// job that is ending is seen once, in the table, until the
    /// transition that removes it is announced. Nothing is polled.
    pub fn jobs_of(&self, account: &str) -> Vec<(JobHandle, JobStateCode)> {
        let jobs = self.jobs.lock();
        let mut found: Vec<(u64, JobStateCode)> = jobs
            .entries
            .iter()
            .filter(|(_, entry)| entry.principal.account() == account)
            .map(|(&id, entry)| (id, entry.state))
            .collect();
        self.wal.with_fold(|fold| {
            found.extend(fold.state.jobs.iter().filter_map(|job| {
                let (state, _) = job.finished?;
                let mine = job.account() == account && !jobs.entries.contains_key(&job.job_id);
                mine.then_some((job.job_id, state))
            }));
        });
        drop(jobs);
        found.sort_unstable_by_key(|&(id, _)| id);
        found
            .into_iter()
            .map(|(id, state)| (self.handle_for(id), state))
            .collect()
    }

    /// How many jobs are in flight: the size of the table.
    pub fn live_jobs(&self) -> usize {
        self.jobs.lock().entries.len()
    }

    /// How many jobs in flight have a submitter waiting on its open
    /// connection for their callback Events — read without a lock.
    pub fn callback_jobs(&self) -> usize {
        self.callback_jobs.load(Ordering::Relaxed)
    }

    /// The xRSL a job was submitted with — answered from the log fold,
    /// which holds it for every job this engine knows (a submission is in
    /// the fold before it is in the table).
    pub fn job_rsl(&self, job_id: u64) -> Option<String> {
        let in_flight = self.jobs.lock().entries.contains_key(&job_id);
        self.wal
            .with_job(job_id, |job| {
                (in_flight || job.finished.is_some()).then(|| job.rsl().to_string())
            })
            .flatten()
    }

    /// Owner and account of a job, read in place: from the table while
    /// the job can still change, from the log's row once it has finished.
    fn with_identity<R>(&self, job_id: u64, read: impl FnOnce(&str, &str) -> R) -> Option<R> {
        {
            let jobs = self.jobs.lock();
            if let Some(entry) = jobs.entries.get(&job_id) {
                return Some(read(entry.principal.owner(), entry.principal.account()));
            }
        }
        self.finished_row(job_id, |job, _| read(job.owner(), job.account()))
    }

    /// Job-contact authorization (§2: a handle can be used "from other
    /// remote clients with appropriate authorization"): whether the grid
    /// identity `owner`, mapped to the local `account`, may poll and
    /// cancel the job — its owner may, and so may any identity mapped to
    /// the same account. `None` for unknown ids. Nothing is copied.
    pub fn may_contact(&self, job_id: u64, owner: &str, account: &str) -> Option<bool> {
        self.with_identity(job_id, |job_owner, job_account| {
            job_owner == owner || job_account == account
        })
    }

    /// Owner and account of a job.
    pub fn job_owner(&self, job_id: u64) -> Option<(String, String)> {
        self.with_identity(job_id, |owner, account| {
            (owner.to_string(), account.to_string())
        })
    }

    /// Recover from the WAL: jobs that were in flight when the previous
    /// incarnation died are resubmitted ("the log can be used to restart
    /// our InfoGRAM service"). A finished job needs nothing: the log's row
    /// answers for it. An in-flight job this incarnation cannot start (its
    /// queue is no longer configured, the backend refuses it, its logged
    /// text is xRSL an older version accepted and this one refuses) is
    /// recorded `Failed`, not forgotten: its handle was acked. Returns the
    /// ids of restarted jobs.
    pub fn recover(&self) -> Vec<u64> {
        // One pass over the fold, read in place (jobs → io is the lock
        // order `refresh` already takes): its unfinished rows, but for
        // those in the table — which this incarnation submitted, or has
        // recovered already — are taken out to be restarted below with no
        // lock held.
        let (recovered, in_flight) = {
            let jobs = self.jobs.lock();
            self.wal.with_fold(|fold| {
                let mut in_flight = fold.state.unfinished();
                in_flight.retain(|job| !jobs.entries.contains_key(&job.job_id));
                let in_flight: Vec<(RecoveredJob, String)> = in_flight
                    .into_iter()
                    .map(|job| (job.clone(), job.rsl().to_string()))
                    .collect();
                (fold.state.jobs.len(), in_flight)
            })
        };
        self.metrics
            .gauge("wal.recovered_jobs")
            .set(recovered as f64);
        let mut restarted = Vec::new();
        for (job, rsl) in in_flight {
            // Restart it from its logged xRSL.
            let now = self.clock.now();
            let launched = XrslRequest::from_text(&rsl)
                .ok()
                .and_then(|req| req.job)
                .and_then(|spec| self.launch(spec, job.account(), now).ok());
            let Some((live, output, initial)) = launched else {
                // As for any other failure, terminal only once durable: a
                // log that is read-only at boot leaves the job in flight
                // for the next restart.
                let failed = PendingFinish {
                    job_id: job.job_id,
                    state: JobStateCode::Failed,
                    exit_code: None,
                    now,
                    wall: Duration::ZERO,
                };
                if self.commit_finish(&failed) {
                    let handle = self.finished(&failed);
                    let outboxes = {
                        let jobs = self.jobs.lock();
                        let mut news = Announcements::new(&jobs.observers);
                        news.tell(&job.principal, &handle, failed.state);
                        news.outboxes
                    };
                    drain_all(outboxes);
                }
                continue;
            };
            self.jobs.lock().entries.insert(
                job.job_id,
                JobEntry {
                    principal: job.principal,
                    output,
                    state: initial,
                    live: Box::new(live),
                    finishing: false,
                    callback: None,
                },
            );
            self.wal.record(
                now,
                &WalEvent::StateChanged {
                    job_id: job.job_id,
                    state: initial,
                },
            );
            self.metrics.counter("jobs.recovered").incr();
            restarted.push(job.job_id);
        }
        restarted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ForkBackend, JarletBackend, QueueBackend};
    use crate::sandbox::{ExecMode, Policy};
    use infogram_host::commands::{ChargeMode, CommandRegistry};
    use infogram_host::machine::SimulatedHost;
    use infogram_host::queue::BatchQueue;
    use infogram_sim::ManualClock;
    use std::time::Duration;

    struct World {
        clock: Arc<ManualClock>,
        registry: Arc<CommandRegistry>,
        engine: Arc<JobEngine>,
    }

    fn world() -> World {
        world_on(Wal::in_memory())
    }

    fn world_on(wal: Wal) -> World {
        world_with_queues(wal, &["pbs"])
    }

    /// A world whose batch queues are `names`, each FIFO over two slots.
    fn world_with_queues(wal: Wal, names: &[&str]) -> World {
        let clock = ManualClock::new();
        let host = SimulatedHost::default_on(clock.clone());
        let registry = CommandRegistry::new(host, ChargeMode::None);
        let engine = JobEngine::new(
            EngineConfig::default(),
            clock.clone(),
            wal,
            ForkBackend::new(Arc::clone(&registry)),
            MetricSet::new(),
        );
        engine.set_jarlet(JarletBackend::new(
            Arc::clone(registry.host()),
            Policy::restrictive(),
            ExecMode::Isolated,
        ));
        let queue = |name: &&str| -> (String, Arc<dyn ExecBackend>) {
            let pool = Arc::new(BatchQueue::fifo(clock.clone(), 2));
            (
                name.to_string(),
                QueueBackend::batch(pool, Arc::clone(&registry)),
            )
        };
        engine.set_queues(names.iter().map(queue).collect());
        World {
            clock,
            registry,
            engine,
        }
    }

    fn submit(w: &World, rsl: &str) -> JobHandle {
        let req = XrslRequest::from_text(rsl).unwrap();
        w.engine
            .submit(rsl, req.job.unwrap(), "/O=Grid/CN=Tester", "tester")
            .unwrap()
    }

    #[test]
    fn fork_job_lifecycle() {
        let w = world();
        let h = submit(&w, "(executable=simwork)(arguments=500)");
        assert_eq!(h.epoch, 1);
        let st = w.engine.status(h.job_id).unwrap();
        assert_eq!(st.state, JobStateCode::Active);
        assert_eq!(st.output, "", "no output before terminal");
        w.clock.advance(Duration::from_millis(500));
        let st = w.engine.status(h.job_id).unwrap();
        assert_eq!(st.state, JobStateCode::Done);
        assert_eq!(st.exit_code, Some(0));
        assert!(st.output.contains("simulated work complete"));
    }

    #[test]
    fn failing_job_goes_failed() {
        let w = world();
        let h = submit(&w, "(executable=simwork)(arguments=100 9)");
        w.clock.advance(Duration::from_millis(100));
        let st = w.engine.status(h.job_id).unwrap();
        assert_eq!(st.state, JobStateCode::Failed);
        assert_eq!(st.exit_code, Some(9));
    }

    #[test]
    fn restart_on_fail_retries() {
        let w = world();
        let h = submit(
            &w,
            "&(executable=simwork)(arguments=100 5)(restartonfail=2)",
        );
        // First attempt fails at t=100 → auto-restart.
        w.clock.advance(Duration::from_millis(100));
        let st = w.engine.status(h.job_id).unwrap();
        assert!(
            st.state == JobStateCode::Pending || st.state == JobStateCode::Active,
            "restarted, not failed: {st:?}"
        );
        // Two more failures exhaust the retry budget.
        w.clock.advance(Duration::from_millis(100));
        w.engine.status(h.job_id).unwrap();
        w.clock.advance(Duration::from_millis(100));
        let st = w.engine.status(h.job_id).unwrap();
        assert_eq!(st.state, JobStateCode::Failed);
        assert_eq!(
            w.engine.metrics().counter_value("jobs.restarts"),
            2,
            "retry budget of 2 consumed"
        );
    }

    #[test]
    fn cancel_running_job() {
        let w = world();
        let h = submit(&w, "(executable=simwork)(arguments=60000)");
        assert!(w.engine.cancel(h.job_id));
        let st = w.engine.status(h.job_id).unwrap();
        assert_eq!(st.state, JobStateCode::Canceled);
        assert!(!w.engine.cancel(h.job_id), "cancel of terminal job fails");
        assert!(!w.engine.cancel(999), "unknown job");
    }

    #[test]
    fn maxtime_kills_overrunning_job() {
        let w = world();
        // maxtime is minutes; 1 minute limit, 2-minute job.
        let h = submit(&w, "&(executable=simwork)(arguments=120000)(maxtime=1)");
        w.clock.advance(Duration::from_secs(61));
        let st = w.engine.status(h.job_id).unwrap();
        assert_eq!(st.state, JobStateCode::Failed);
        assert_eq!(w.engine.metrics().counter_value("jobs.maxtime_kills"), 1);
    }

    #[test]
    fn batch_job_queues() {
        let w = world();
        let ids: Vec<JobHandle> = (0..3)
            .map(|_| submit(&w, "&(executable=simwork)(arguments=1000)(jobtype=batch)"))
            .collect();
        // 2 slots: two active, one pending.
        let states: Vec<JobStateCode> = ids
            .iter()
            .map(|h| w.engine.status(h.job_id).unwrap().state)
            .collect();
        assert_eq!(
            states
                .iter()
                .filter(|s| **s == JobStateCode::Active)
                .count(),
            2
        );
        assert_eq!(
            states
                .iter()
                .filter(|s| **s == JobStateCode::Pending)
                .count(),
            1
        );
        w.clock.advance(Duration::from_secs(2));
        for h in &ids {
            assert_eq!(w.engine.status(h.job_id).unwrap().state, JobStateCode::Done);
        }
    }

    #[test]
    fn unknown_queue_rejected() {
        let w = world();
        let req =
            XrslRequest::from_text("&(executable=simwork)(jobtype=batch)(queue=lsf)").unwrap();
        match w.engine.submit("x", req.job.unwrap(), "/O=Grid/CN=T", "t") {
            Err(SubmitError::UnknownQueue(q)) => assert_eq!(q, "lsf"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn jarlet_job_through_engine() {
        let w = world();
        w.registry
            .host()
            .fs
            .write("/home/gregor/analysis.jar", "compute 20; print ok");
        let h = submit(&w, "(executable=/home/gregor/analysis.jar)");
        w.clock.advance(Duration::from_millis(100));
        let st = w.engine.status(h.job_id).unwrap();
        assert_eq!(st.state, JobStateCode::Done);
        assert!(st.output.contains("ok"));
    }

    #[test]
    fn watchers_see_transitions() {
        let w = world();
        let seen: Arc<Mutex<Vec<JobStateCode>>> = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        w.engine.on_state_change(move |_h, s, account| {
            assert_eq!(account, "tester");
            seen2.lock().push(s);
            Vec::new()
        });
        let h = submit(&w, "(executable=simwork)(arguments=200)");
        w.clock.advance(Duration::from_millis(200));
        w.engine.status(h.job_id).unwrap();
        let states = seen.lock().clone();
        assert_eq!(states, [JobStateCode::Active, JobStateCode::Done]);
    }

    #[test]
    fn wal_records_full_history() {
        let w = world();
        let h = submit(&w, "(executable=simwork)(arguments=100)");
        w.clock.advance(Duration::from_millis(100));
        w.engine.status(h.job_id).unwrap();
        let events = w.engine.wal().events();
        assert!(matches!(events[0], WalEvent::ServiceStarted { epoch: 1 }));
        assert!(events
            .iter()
            .any(|e| matches!(e, WalEvent::Submitted { job_id, .. } if *job_id == h.job_id)));
        assert!(events.iter().any(|e| matches!(
            e,
            WalEvent::Finished {
                state: JobStateCode::Done,
                ..
            }
        )));
    }

    #[test]
    fn status_of_unknown_job() {
        let w = world();
        assert!(w.engine.status(424242).is_none());
    }

    #[test]
    fn stdout_redirection_writes_host_file() {
        let w = world();
        w.engine.set_stdio_host(Arc::clone(w.registry.host()));
        let h = submit(
            &w,
            "&(executable=simwork)(arguments=100)(stdout=/home/gregor/job.out)(stderr=/home/gregor/job.err)",
        );
        w.clock.advance(Duration::from_millis(100));
        w.engine.status(h.job_id).unwrap();
        let out = w
            .registry
            .host()
            .fs
            .read_text("/home/gregor/job.out")
            .expect("stdout file written");
        assert!(out.contains("simulated work complete"));
        assert_eq!(
            w.registry
                .host()
                .fs
                .read_text("/home/gregor/job.err")
                .unwrap(),
            "",
            "clean exit leaves an empty stderr file"
        );
    }

    #[test]
    fn stderr_redirection_records_failure() {
        let w = world();
        w.engine.set_stdio_host(Arc::clone(w.registry.host()));
        let h = submit(
            &w,
            "&(executable=simwork)(arguments=50 3)(stderr=/tmp/fail.err)",
        );
        w.clock.advance(Duration::from_millis(50));
        w.engine.status(h.job_id).unwrap();
        let err = w.registry.host().fs.read_text("/tmp/fail.err").unwrap();
        assert!(err.contains("FAILED"));
        assert!(err.contains("exit Some(3)"));
    }

    /// What a client can ask about one job.
    #[derive(Debug, PartialEq)]
    struct Answers {
        state: JobStateCode,
        exit_code: Option<i32>,
        owner: (String, String),
        rsl: String,
    }

    fn answers(engine: &JobEngine, job_id: u64) -> Answers {
        let view = engine.status(job_id).unwrap();
        Answers {
            state: view.state,
            exit_code: view.exit_code,
            owner: engine.job_owner(job_id).unwrap(),
            rsl: engine.job_rsl(job_id).unwrap(),
        }
    }

    #[test]
    fn answers_are_the_same_across_a_restart() {
        use crate::wal::{FrameWal, MemStorage};
        let storage = MemStorage::new();
        let open = || {
            let sink = FrameWal::open(storage.clone()).unwrap();
            Wal::new(Box::new(sink))
        };
        // (xRSL, state and exit code when the first incarnation stops)
        let table = [
            (
                "(executable=simwork)(arguments=100)",
                JobStateCode::Done,
                Some(0),
            ),
            (
                "&(executable=simwork)(arguments=100 9)(stdout=/tmp/nine.out)",
                JobStateCode::Failed,
                Some(9),
            ),
            (
                "(executable=simwork)(arguments=70000)",
                JobStateCode::Canceled,
                None,
            ),
            (
                "(executable=simwork)(arguments=60000)",
                JobStateCode::Active,
                None,
            ),
        ];

        let first = world_on(open());
        let ids: Vec<u64> = table
            .iter()
            .map(|(rsl, _, _)| submit(&first, rsl).job_id)
            .collect();
        assert!(first.engine.cancel(ids[2]));
        first.clock.advance(Duration::from_millis(100));
        let before: Vec<Answers> = ids.iter().map(|id| answers(&first.engine, *id)).collect();
        for (row, (rsl, state, exit_code)) in before.iter().zip(table) {
            assert_eq!((row.state, row.exit_code), (state, exit_code), "{rsl}");
            assert_eq!(row.owner.1, "tester");
            assert_eq!(row.rsl, rsl);
        }
        assert_eq!(first.engine.live_jobs(), 1);
        drop(first);

        let second = world_on(open());
        assert_eq!(
            second.engine.job_rsl(ids[0]).as_deref(),
            Some(table[0].0),
            "a finished job is answered from the log, recovered or not"
        );
        assert_eq!(second.engine.job_rsl(ids[3]), None, "not relaunched yet");
        assert_eq!(second.engine.status(ids[3]), None, "not relaunched yet");
        assert_eq!(second.engine.job_ids(), ids[..3]);
        assert_eq!(second.engine.recover(), [ids[3]]);
        assert_eq!(second.engine.job_ids(), ids);
        assert_eq!(second.engine.recover(), [], "recovery is idempotent");
        assert_eq!(
            second.engine.live_jobs(),
            1,
            "only the restarted job is live"
        );
        for (id, was) in ids.iter().zip(&before) {
            assert_eq!(&answers(&second.engine, *id), was);
        }
        for id in &ids[..3] {
            assert!(!second.engine.cancel(*id), "terminal before the restart");
            assert_eq!(second.engine.status(*id).unwrap().output, "");
        }
        assert!(
            second.engine.cancel(ids[3]),
            "the restarted job is runnable"
        );
        assert_eq!(
            second.engine.status(ids[3]).unwrap().state,
            JobStateCode::Canceled
        );
        assert_eq!(second.engine.status(999), None);
        assert_eq!(second.engine.job_owner(999), None);
        assert_eq!(second.engine.job_rsl(999), None);
    }

    #[test]
    fn a_job_the_restart_cannot_launch_is_failed_not_forgotten() {
        use crate::wal::{FrameWal, MemStorage};
        use infogram_sim::fault::Plan;
        let disk = Plan::new();
        let storage = MemStorage::with_plan(Some(Arc::clone(&disk)));
        let open = || Wal::new(Box::new(FrameWal::open(storage.clone()).unwrap()));
        let unfinished = |w: &World| {
            let wal = w.engine.wal();
            wal.with_fold(|fold| {
                (
                    fold.state.unfinished().len(),
                    fold.accounts["tester"].failed,
                )
            })
        };

        let first = world_with_queues(open(), &["pbs", "q"]);
        let rsl = "&(executable=simwork)(arguments=60000)(jobtype=batch)(queue=q)";
        let id = submit(&first, rsl).job_id;
        drop(first);

        // No later incarnation has a queue `q`. This one also boots on a
        // full disk: it cannot make the failure durable, so the job stays
        // in flight — invisible here, but not lost.
        disk.fill_disk();
        let second = world_on(open());
        assert_eq!(second.engine.recover(), []);
        assert_eq!(second.engine.status(id), None);
        assert_eq!(unfinished(&second), (1, 0));
        drop(second);

        disk.free_space();
        let third = world_on(open());
        assert_eq!(third.engine.recover(), []);
        let view = third.engine.status(id).unwrap();
        assert_eq!((view.state, view.exit_code), (JobStateCode::Failed, None));
        assert_eq!(third.engine.job_rsl(id).as_deref(), Some(rsl));
        assert_eq!(third.engine.live_jobs(), 0);
        assert_eq!(third.engine.metrics().counter_value("jobs.failed"), 1);
        assert_eq!(unfinished(&third), (0, 1));
        drop(third);

        let fourth = world_on(open());
        assert_eq!(fourth.engine.recover(), [], "nothing left to restart");
        assert_eq!(
            fourth.engine.status(id).unwrap().state,
            JobStateCode::Failed
        );
        assert_eq!(unfinished(&fourth), (0, 1), "failed once, not per restart");
    }

    #[test]
    fn a_logged_request_this_version_refuses_is_failed_on_restart() {
        // A log written before the operator was read can hold an acked,
        // in-flight `(count<3)`, which ran as `count=3`; one written
        // before variables were resolved, an unbound `$(X)`.
        use crate::wal::{FrameWal, MemStorage};
        let storage = MemStorage::new();
        let open = || Wal::new(Box::new(FrameWal::open(storage.clone()).unwrap()));
        let first = world_on(open());
        let ran_as = XrslRequest::from_text("&(executable=simwork)(arguments=60000)(count=3)");
        let logged = [
            "&(executable=simwork)(arguments=60000)(count<3)",
            "&(executable=simwork)(arguments=60000)(count=3)(stdout=$(X))",
        ];
        let ids = logged.map(|rsl| {
            let spec = ran_as.clone().unwrap().job.unwrap();
            let handle = first
                .engine
                .submit(rsl, spec, "/O=Grid/CN=Tester", "tester");
            handle.unwrap().job_id
        });
        drop(first);

        let second = world_on(open());
        assert_eq!(second.engine.recover(), []);
        for (id, rsl) in ids.into_iter().zip(logged) {
            let view = second.engine.status(id).unwrap();
            assert_eq!((view.state, view.exit_code), (JobStateCode::Failed, None));
            assert_eq!(second.engine.job_rsl(id).as_deref(), Some(rsl));
        }
    }

    /// Every thread polls and cancels every job at once, so each job's
    /// first terminal poll — the `settle` that moves it from the table to
    /// the log's row — is raced by seven other readers.
    #[test]
    fn a_job_leaving_the_table_is_never_unknown_and_is_canceled_once() {
        use std::sync::atomic::AtomicUsize;
        const THREADS: usize = 8;
        const JOBS: usize = 200;
        let w = world();
        // Even jobs have run their millisecond when the threads start;
        // odd ones would run for a minute.
        let ids: Vec<u64> = (0..JOBS)
            .map(|i| {
                let ms = if i % 2 == 0 { 1 } else { 60_000 };
                submit(&w, &format!("(executable=simwork)(arguments={ms})")).job_id
            })
            .collect();
        w.clock.advance(Duration::from_millis(1));
        let canceled: Vec<AtomicUsize> = ids.iter().map(|_| AtomicUsize::new(0)).collect();
        let start = std::sync::Barrier::new(THREADS);
        let poll = |id: u64| {
            let view = w.engine.status(id).expect("an acked job is never unknown");
            if view.state.is_terminal() {
                assert!(
                    view.output.contains("simulated work complete"),
                    "job {id} is {} without its output",
                    view.state
                );
            }
            view
        };
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    start.wait();
                    for (i, id) in ids.iter().enumerate() {
                        poll(*id);
                        if w.engine.cancel(*id) {
                            canceled[i].fetch_add(1, Ordering::SeqCst);
                        }
                        poll(*id);
                        assert_eq!(w.engine.job_owner(*id).unwrap().1, "tester");
                    }
                });
            }
        });
        for (i, id) in ids.iter().enumerate() {
            let view = poll(*id);
            let cancels = canceled[i].load(Ordering::SeqCst);
            if i % 2 == 0 {
                assert_eq!((view.state, view.exit_code), (JobStateCode::Done, Some(0)));
                assert_eq!(cancels, 0, "job {id} had finished");
            } else {
                assert_eq!((view.state, view.exit_code), (JobStateCode::Canceled, None));
                assert_eq!(cancels, 1, "job {id} was canceled {cancels} times");
            }
        }
        assert_eq!(w.engine.live_jobs(), 0);
        assert_eq!(w.engine.job_ids(), ids);
        assert!(w.registry.host().processes.is_empty(), "every id forgotten");
    }

    #[test]
    fn a_failed_attempt_is_reaped_before_its_restart() {
        let w = world();
        let h = submit(
            &w,
            "&(executable=simwork)(arguments=100 5)(restartonfail=1)",
        );
        let processes = &w.registry.host().processes;
        assert_eq!(processes.len(), 1);
        w.clock.advance(Duration::from_millis(100));
        let st = w.engine.status(h.job_id).unwrap();
        assert!(!st.state.is_terminal(), "restarted: {st:?}");
        assert_eq!(
            (processes.len(), processes.running_count()),
            (1, 1),
            "the first attempt's id is gone, the second runs"
        );
        w.clock.advance(Duration::from_millis(100));
        assert_eq!(
            w.engine.status(h.job_id).unwrap().state,
            JobStateCode::Failed
        );
        assert!(processes.is_empty());
    }

    #[test]
    fn a_submission_the_log_refuses_leaves_no_process_behind() {
        use crate::wal::{FrameWal, MemStorage};
        use infogram_sim::fault::Plan;
        let disk = Plan::new();
        let storage = MemStorage::with_plan(Some(Arc::clone(&disk)));
        let w = world_on(Wal::new(Box::new(FrameWal::open(storage).unwrap())));
        disk.fill_disk();
        let rsl = "(executable=simwork)(arguments=60000)";
        let spec = XrslRequest::from_text(rsl).unwrap().job.unwrap();
        let refused = w.engine.submit(rsl, spec, "/O=Grid/CN=Tester", "tester");
        assert!(matches!(refused, Err(SubmitError::WalUnavailable { .. })));
        assert!(w.registry.host().processes.is_empty());
        assert_eq!(w.engine.live_jobs(), 0);
    }

    /// A start on a file log waits on no fsync: the boot record rides
    /// the first acked submission's.
    #[test]
    fn a_start_on_a_file_log_spends_no_fsync() {
        use crate::wal::FileWal;
        let dir = std::env::temp_dir().join(format!("infogram-boot-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fsyncs = |w: &World| w.engine.metrics().counter_value("wal.fsyncs");
        let open = || Wal::new(Box::new(FileWal::open(dir.join("boot.wal")).unwrap()));
        for epoch in 1..=2 {
            let w = world_on(open());
            assert_eq!((w.engine.epoch(), fsyncs(&w)), (epoch, 0), "started");
            let h = submit(&w, "(executable=simwork)(arguments=10)");
            assert_eq!((h.epoch, fsyncs(&w)), (epoch, 1), "first ack");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Power is lost before the first ack, or after it, over and over: an
    /// epoch may come back only while no handle carried it, and no job id
    /// or `(job_id, epoch)` is ever handed out twice.
    #[test]
    fn an_epoch_is_durable_by_its_first_ack() {
        use crate::wal::{FrameWal, MemStorage};
        let storage = MemStorage::new();
        let open = || Wal::new(Box::new(FrameWal::open(storage.clone()).unwrap()));
        let mut acked: Vec<(u64, u64)> = Vec::new();
        let mut epochs = Vec::new();
        for ack in [false, true, false, false, true, true, false] {
            let w = world_on(open());
            epochs.push(w.engine.epoch());
            if ack {
                let h = submit(&w, "(executable=simwork)(arguments=60000)");
                assert_eq!(h.epoch, w.engine.epoch());
                acked.push((h.job_id, h.epoch));
            }
            drop(w);
            storage.crash();
            storage.restart();
        }
        assert_eq!(epochs, [1, 1, 2, 2, 2, 3, 4]);
        assert_eq!(acked, [(1, 1), (2, 2), (3, 3)]);
    }

    /// The boot record sits in a segment the first submission's failed
    /// fsync rotates away from; the retry's ack still makes it durable.
    #[test]
    fn an_ack_after_a_failed_fsync_keeps_the_epoch_it_carries() {
        use crate::wal::{FrameWal, MemStorage};
        use infogram_sim::fault::Plan;
        let disk = Plan::new();
        let storage = MemStorage::with_plan(Some(Arc::clone(&disk)));
        let open = || Wal::new(Box::new(FrameWal::open(storage.clone()).unwrap()));
        let w = world_on(open());
        disk.fail_sync(0);
        let rsl = "(executable=simwork)(arguments=60000)";
        let spec = XrslRequest::from_text(rsl).unwrap().job.unwrap();
        let refused = w.engine.submit(rsl, spec, "/O=Grid/CN=Tester", "tester");
        assert!(matches!(refused, Err(SubmitError::WalUnavailable { .. })));
        w.clock.advance(Duration::from_secs(2));
        let h = submit(&w, rsl);
        drop(w);
        storage.crash();
        storage.restart();
        let next = world_on(open());
        assert_eq!(h.epoch, 1);
        assert_eq!(next.engine.epoch(), 2, "epoch 1 was acked");
        assert!(next.engine.recover().contains(&h.job_id));
    }

    #[test]
    fn a_timeout_exception_ends_with_the_job() {
        let w = world();
        let h = submit(
            &w,
            "&(executable=simwork)(arguments=60)(timeout=1)(action=exception)",
        );
        w.clock.advance(Duration::from_millis(20));
        let running = w.engine.status(h.job_id).unwrap();
        assert!(running.timeout_exceeded && !running.state.is_terminal());
        w.clock.advance(Duration::from_millis(40));
        for _ in 0..2 {
            let ended = w.engine.status(h.job_id).unwrap();
            assert_eq!(
                (ended.state, ended.exit_code),
                (JobStateCode::Done, Some(0))
            );
            assert!(!ended.timeout_exceeded, "nothing continues to run");
            assert!(ended.output.contains("simulated work complete"));
        }
        let exceptions = w.engine.metrics().counter_value("jobs.timeout_exceptions");
        assert_eq!(exceptions, 1);
    }

    #[test]
    fn job_owner_recorded() {
        let w = world();
        let h = submit(&w, "(executable=simwork)(arguments=10)");
        let (owner, account) = w.engine.job_owner(h.job_id).unwrap();
        assert_eq!(owner, "/O=Grid/CN=Tester");
        assert_eq!(account, "tester");
    }
}
