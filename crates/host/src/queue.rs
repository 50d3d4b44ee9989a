//! Batch-scheduler models.
//!
//! GRAM's backend tier "is easily portable to various scheduling systems
//! ... PBS, LSF, Condor, and Unix process fork" (§2 of the paper). The
//! J-GRAM backends in `infogram-exec` delegate to these queue models:
//!
//! * [`FifoQueue`] — a PBS/LSF-style space-shared queue with a fixed slot
//!   count and first-come-first-served dispatch.
//! * [`FairShareQueue`] — the same engine but dispatch ordered by least
//!   accumulated per-user usage.
//! * [`Matchmaker`] — a Condor-style pool: jobs carry attribute
//!   requirements, machines advertise attributes, and a job runs on the
//!   first free machine that satisfies every requirement.
//!
//! All three are event-driven on the host clock: scheduling decisions are
//! replayed lazily up to "now" whenever the queue is observed, so they work
//! identically under real and virtual time.

use crate::process::ExitStatus;
use infogram_sim::{Clock, SimTime};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Identifier of a job inside one queue.
pub type QueueJobId = u64;

/// A job as the batch layer sees it.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// Human-readable name.
    pub name: String,
    /// Submitting (local) user.
    pub user: String,
    /// Service time once started.
    pub runtime: Duration,
    /// CPUs consumed (used for fair-share accounting).
    pub cpus: u32,
    /// Exit code the job will report.
    pub exit_code: i32,
    /// Attribute requirements for matchmaking (ignored by FIFO queues).
    pub requirements: Vec<(String, String)>,
}

impl BatchJob {
    /// A simple single-CPU job.
    pub fn simple(name: &str, user: &str, runtime: Duration) -> Self {
        BatchJob {
            name: name.to_string(),
            user: user.to_string(),
            runtime,
            cpus: 1,
            exit_code: 0,
            requirements: Vec::new(),
        }
    }

    /// Add a matchmaking requirement.
    pub fn requiring(mut self, key: &str, value: &str) -> Self {
        self.requirements.push((key.to_string(), value.to_string()));
        self
    }
}

/// Observable state of a batch job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// Waiting for a slot.
    Queued,
    /// Started at the contained time, still running.
    Running {
        /// When the job began executing.
        started_at: SimTime,
    },
    /// Finished.
    Completed {
        /// When the job began executing.
        started_at: SimTime,
        /// When the job finished.
        finished_at: SimTime,
        /// How it ended.
        status: ExitStatus,
    },
    /// Cancelled before completion.
    Cancelled,
}

/// Common interface of every batch-scheduler model.
pub trait BatchQueue: Send + Sync + std::fmt::Debug {
    /// Scheduler family name ("fifo", "fairshare", "matchmaker").
    fn scheduler_name(&self) -> &str;
    /// Enqueue a job; returns its queue-local id.
    fn submit(&self, job: BatchJob) -> QueueJobId;
    /// Current outcome; `None` for unknown ids.
    fn poll(&self, id: QueueJobId) -> Option<JobOutcome>;
    /// Cancel a queued or running job; false if already terminal/unknown.
    fn cancel(&self, id: QueueJobId) -> bool;
    /// Drop the recorded outcome of a completed or cancelled job, whose
    /// id is unknown from here on. A queued or running job is left alone.
    fn forget(&self, id: QueueJobId);
    /// Jobs waiting for a slot right now.
    fn queued_depth(&self) -> usize;
    /// Jobs running right now.
    fn running_count(&self) -> usize;
}

/// Dispatch-order policy for the slot-based engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Policy {
    Fifo,
    FairShare,
}

#[derive(Debug, Clone)]
struct Pending {
    id: QueueJobId,
    job: BatchJob,
    submitted_at: SimTime,
}

#[derive(Debug, Clone)]
struct Running {
    id: QueueJobId,
    started_at: SimTime,
    ends_at: SimTime,
    exit_code: i32,
}

#[derive(Debug)]
struct EngineState {
    next_id: QueueJobId,
    cursor: SimTime,
    pending: Vec<Pending>,
    running: Vec<Running>,
    finished: BTreeMap<QueueJobId, JobOutcome>,
    /// Accumulated cpu-seconds per user (fair share).
    usage: BTreeMap<String, f64>,
}

/// Slot-based queue engine shared by [`FifoQueue`] and [`FairShareQueue`].
#[derive(Debug)]
struct Engine {
    clock: Arc<dyn Clock>,
    slots: usize,
    policy: Policy,
    state: Mutex<EngineState>,
}

impl Engine {
    fn new(clock: Arc<dyn Clock>, slots: usize, policy: Policy) -> Self {
        assert!(slots > 0, "queue needs at least one slot");
        Engine {
            clock,
            slots,
            policy,
            state: Mutex::new(EngineState {
                next_id: 1,
                cursor: SimTime::ZERO,
                pending: Vec::new(),
                running: Vec::new(),
                finished: BTreeMap::new(),
                usage: BTreeMap::new(),
            }),
        }
    }

    /// Replay scheduling decisions up to `now`.
    fn sweep(&self, st: &mut EngineState, now: SimTime) {
        loop {
            // Fill free slots at the cursor.
            while st.running.len() < self.slots && !st.pending.is_empty() {
                let idx = self.pick(st);
                let p = st.pending.remove(idx);
                let start = st.cursor.max(p.submitted_at);
                let run = p.job.runtime;
                *st.usage.entry(p.job.user.clone()).or_insert(0.0) +=
                    run.as_secs_f64() * p.job.cpus as f64;
                st.running.push(Running {
                    id: p.id,
                    started_at: start,
                    ends_at: start.plus(run),
                    exit_code: p.job.exit_code,
                });
            }
            // Advance to the next completion that is in the past.
            let next = st
                .running
                .iter()
                .enumerate()
                .min_by_key(|(_, r)| r.ends_at)
                .map(|(i, r)| (i, r.ends_at));
            match next {
                Some((i, end)) if end <= now => {
                    let r = st.running.swap_remove(i);
                    st.cursor = end;
                    st.finished.insert(
                        r.id,
                        JobOutcome::Completed {
                            started_at: r.started_at,
                            finished_at: r.ends_at,
                            status: ExitStatus::Code(r.exit_code),
                        },
                    );
                }
                _ => {
                    st.cursor = now;
                    break;
                }
            }
        }
    }

    /// Index into `pending` of the next job to dispatch.
    fn pick(&self, st: &EngineState) -> usize {
        match self.policy {
            Policy::Fifo => 0,
            Policy::FairShare => {
                let mut best = 0usize;
                let mut best_usage = f64::INFINITY;
                for (i, p) in st.pending.iter().enumerate() {
                    let u = st.usage.get(&p.job.user).copied().unwrap_or(0.0);
                    if u < best_usage {
                        best_usage = u;
                        best = i;
                    }
                }
                best
            }
        }
    }

    fn submit(&self, job: BatchJob) -> QueueJobId {
        let now = self.clock.now();
        let mut st = self.state.lock();
        self.sweep(&mut st, now);
        let id = st.next_id;
        st.next_id += 1;
        st.pending.push(Pending {
            id,
            job,
            submitted_at: now,
        });
        self.sweep(&mut st, now);
        id
    }

    fn poll(&self, id: QueueJobId) -> Option<JobOutcome> {
        let now = self.clock.now();
        let mut st = self.state.lock();
        self.sweep(&mut st, now);
        if let Some(out) = st.finished.get(&id) {
            return Some(*out);
        }
        if let Some(r) = st.running.iter().find(|r| r.id == id) {
            return Some(JobOutcome::Running {
                started_at: r.started_at,
            });
        }
        if st.pending.iter().any(|p| p.id == id) {
            return Some(JobOutcome::Queued);
        }
        None
    }

    fn cancel(&self, id: QueueJobId) -> bool {
        let now = self.clock.now();
        let mut st = self.state.lock();
        self.sweep(&mut st, now);
        if let Some(i) = st.pending.iter().position(|p| p.id == id) {
            st.pending.remove(i);
            st.finished.insert(id, JobOutcome::Cancelled);
            return true;
        }
        if let Some(i) = st.running.iter().position(|r| r.id == id) {
            st.running.swap_remove(i);
            st.finished.insert(id, JobOutcome::Cancelled);
            return true;
        }
        false
    }

    fn forget(&self, id: QueueJobId) {
        self.state.lock().finished.remove(&id);
    }

    fn queued_depth(&self) -> usize {
        let now = self.clock.now();
        let mut st = self.state.lock();
        self.sweep(&mut st, now);
        st.pending.len()
    }

    fn running_count(&self) -> usize {
        let now = self.clock.now();
        let mut st = self.state.lock();
        self.sweep(&mut st, now);
        st.running.len()
    }
}

/// PBS/LSF-flavoured first-come-first-served space-shared queue.
#[derive(Debug)]
pub struct FifoQueue {
    engine: Engine,
}

impl FifoQueue {
    /// A FIFO queue with `slots` simultaneous jobs.
    pub fn new(clock: Arc<dyn Clock>, slots: usize) -> Self {
        FifoQueue {
            engine: Engine::new(clock, slots, Policy::Fifo),
        }
    }
}

impl BatchQueue for FifoQueue {
    fn scheduler_name(&self) -> &str {
        "fifo"
    }
    fn submit(&self, job: BatchJob) -> QueueJobId {
        self.engine.submit(job)
    }
    fn poll(&self, id: QueueJobId) -> Option<JobOutcome> {
        self.engine.poll(id)
    }
    fn cancel(&self, id: QueueJobId) -> bool {
        self.engine.cancel(id)
    }
    fn forget(&self, id: QueueJobId) {
        self.engine.forget(id)
    }
    fn queued_depth(&self) -> usize {
        self.engine.queued_depth()
    }
    fn running_count(&self) -> usize {
        self.engine.running_count()
    }
}

/// Fair-share queue: dispatch order favours users with the least
/// accumulated cpu-seconds.
#[derive(Debug)]
pub struct FairShareQueue {
    engine: Engine,
}

impl FairShareQueue {
    /// A fair-share queue with `slots` simultaneous jobs.
    pub fn new(clock: Arc<dyn Clock>, slots: usize) -> Self {
        FairShareQueue {
            engine: Engine::new(clock, slots, Policy::FairShare),
        }
    }

    /// Accumulated cpu-seconds charged to a user so far.
    pub fn usage_of(&self, user: &str) -> f64 {
        self.engine
            .state
            .lock()
            .usage
            .get(user)
            .copied()
            .unwrap_or(0.0)
    }
}

impl BatchQueue for FairShareQueue {
    fn scheduler_name(&self) -> &str {
        "fairshare"
    }
    fn submit(&self, job: BatchJob) -> QueueJobId {
        self.engine.submit(job)
    }
    fn poll(&self, id: QueueJobId) -> Option<JobOutcome> {
        self.engine.poll(id)
    }
    fn cancel(&self, id: QueueJobId) -> bool {
        self.engine.cancel(id)
    }
    fn forget(&self, id: QueueJobId) {
        self.engine.forget(id)
    }
    fn queued_depth(&self) -> usize {
        self.engine.queued_depth()
    }
    fn running_count(&self) -> usize {
        self.engine.running_count()
    }
}

/// One advertised machine in a matchmaking pool.
#[derive(Debug, Clone)]
pub struct MachineAd {
    /// Machine name.
    pub name: String,
    /// Advertised attributes, e.g. `arch=x86`, `os=linux`, `mem=2048`.
    pub attributes: BTreeMap<String, String>,
}

impl MachineAd {
    /// Build an ad from `(key, value)` pairs.
    pub fn new(name: &str, attrs: &[(&str, &str)]) -> Self {
        MachineAd {
            name: name.to_string(),
            attributes: attrs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    /// Whether this machine satisfies every requirement of a job.
    pub fn matches(&self, job: &BatchJob) -> bool {
        job.requirements
            .iter()
            .all(|(k, v)| self.attributes.get(k) == Some(v))
    }
}

#[derive(Debug)]
struct MatchState {
    next_id: QueueJobId,
    cursor: SimTime,
    pending: Vec<Pending>,
    /// Per-machine: currently running job, if any.
    running: Vec<Option<Running>>,
    finished: BTreeMap<QueueJobId, JobOutcome>,
}

/// Condor-style matchmaker: a pool of machines with attributes; each job's
/// requirements must all be satisfied by its machine.
#[derive(Debug)]
pub struct Matchmaker {
    clock: Arc<dyn Clock>,
    machines: Vec<MachineAd>,
    state: Mutex<MatchState>,
}

impl Matchmaker {
    /// A pool over the given machine ads.
    pub fn new(clock: Arc<dyn Clock>, machines: Vec<MachineAd>) -> Self {
        assert!(!machines.is_empty(), "empty pool");
        let n = machines.len();
        Matchmaker {
            clock,
            machines,
            state: Mutex::new(MatchState {
                next_id: 1,
                cursor: SimTime::ZERO,
                pending: Vec::new(),
                running: vec![None; n],
                finished: BTreeMap::new(),
            }),
        }
    }

    fn sweep(&self, st: &mut MatchState, now: SimTime) {
        loop {
            // Match pending jobs (in submit order) to free machines at the
            // cursor.
            let mut matched_any = true;
            while matched_any {
                matched_any = false;
                let mut i = 0;
                while i < st.pending.len() {
                    let slot = (0..self.machines.len()).find(|&m| {
                        st.running[m].is_none() && self.machines[m].matches(&st.pending[i].job)
                    });
                    if let Some(m) = slot {
                        let p = st.pending.remove(i);
                        let start = st.cursor.max(p.submitted_at);
                        st.running[m] = Some(Running {
                            id: p.id,
                            started_at: start,
                            ends_at: start.plus(p.job.runtime),
                            exit_code: p.job.exit_code,
                        });
                        matched_any = true;
                    } else {
                        i += 1;
                    }
                }
            }
            // Earliest completion in the past?
            let next = st
                .running
                .iter()
                .enumerate()
                .filter_map(|(m, r)| r.as_ref().map(|r| (m, r.ends_at)))
                .min_by_key(|(_, e)| *e);
            match next {
                Some((m, end)) if end <= now => {
                    // lint:allow(unwrap) — index m came from filter_map over the Some entries above
                    let r = st.running[m].take().expect("running job present");
                    st.cursor = end;
                    st.finished.insert(
                        r.id,
                        JobOutcome::Completed {
                            started_at: r.started_at,
                            finished_at: r.ends_at,
                            status: ExitStatus::Code(r.exit_code),
                        },
                    );
                }
                _ => {
                    st.cursor = now;
                    break;
                }
            }
        }
    }
}

impl BatchQueue for Matchmaker {
    fn scheduler_name(&self) -> &str {
        "matchmaker"
    }

    fn submit(&self, job: BatchJob) -> QueueJobId {
        let now = self.clock.now();
        let mut st = self.state.lock();
        self.sweep(&mut st, now);
        let id = st.next_id;
        st.next_id += 1;
        st.pending.push(Pending {
            id,
            job,
            submitted_at: now,
        });
        self.sweep(&mut st, now);
        id
    }

    fn poll(&self, id: QueueJobId) -> Option<JobOutcome> {
        let now = self.clock.now();
        let mut st = self.state.lock();
        self.sweep(&mut st, now);
        if let Some(out) = st.finished.get(&id) {
            return Some(*out);
        }
        if let Some(r) = st.running.iter().flatten().find(|r| r.id == id) {
            return Some(JobOutcome::Running {
                started_at: r.started_at,
            });
        }
        if st.pending.iter().any(|p| p.id == id) {
            return Some(JobOutcome::Queued);
        }
        None
    }

    fn cancel(&self, id: QueueJobId) -> bool {
        let now = self.clock.now();
        let mut st = self.state.lock();
        self.sweep(&mut st, now);
        if let Some(i) = st.pending.iter().position(|p| p.id == id) {
            st.pending.remove(i);
            st.finished.insert(id, JobOutcome::Cancelled);
            return true;
        }
        for slot in st.running.iter_mut() {
            if slot.as_ref().map(|r| r.id) == Some(id) {
                *slot = None;
                st.finished.insert(id, JobOutcome::Cancelled);
                return true;
            }
        }
        false
    }

    fn forget(&self, id: QueueJobId) {
        self.state.lock().finished.remove(&id);
    }

    fn queued_depth(&self) -> usize {
        let now = self.clock.now();
        let mut st = self.state.lock();
        self.sweep(&mut st, now);
        st.pending.len()
    }

    fn running_count(&self) -> usize {
        let now = self.clock.now();
        let mut st = self.state.lock();
        self.sweep(&mut st, now);
        st.running.iter().flatten().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infogram_sim::ManualClock;

    fn secs(s: u64) -> Duration {
        Duration::from_secs(s)
    }

    #[test]
    fn fifo_runs_in_order_with_slots() {
        let clock = ManualClock::new();
        let q = FifoQueue::new(clock.clone(), 1);
        let a = q.submit(BatchJob::simple("a", "u1", secs(10)));
        let b = q.submit(BatchJob::simple("b", "u1", secs(10)));
        assert_eq!(
            q.poll(a),
            Some(JobOutcome::Running {
                started_at: SimTime::ZERO
            })
        );
        assert_eq!(q.poll(b), Some(JobOutcome::Queued));
        assert_eq!(q.queued_depth(), 1);
        clock.advance(secs(10));
        // a completes at t=10, b starts at t=10.
        assert!(
            matches!(q.poll(a), Some(JobOutcome::Completed { finished_at, .. }) if finished_at == SimTime::from_secs(10))
        );
        assert!(
            matches!(q.poll(b), Some(JobOutcome::Running { started_at }) if started_at == SimTime::from_secs(10))
        );
        clock.advance(secs(10));
        assert!(matches!(q.poll(b), Some(JobOutcome::Completed { .. })));
    }

    #[test]
    fn fifo_parallel_slots() {
        let clock = ManualClock::new();
        let q = FifoQueue::new(clock.clone(), 3);
        let ids: Vec<_> = (0..3)
            .map(|i| q.submit(BatchJob::simple(&format!("j{i}"), "u", secs(5))))
            .collect();
        assert_eq!(q.running_count(), 3);
        clock.advance(secs(5));
        for id in ids {
            assert!(matches!(q.poll(id), Some(JobOutcome::Completed { .. })));
        }
    }

    #[test]
    fn fifo_cancel_pending_and_running() {
        let clock = ManualClock::new();
        let q = FifoQueue::new(clock.clone(), 1);
        let a = q.submit(BatchJob::simple("a", "u", secs(100)));
        let b = q.submit(BatchJob::simple("b", "u", secs(100)));
        assert!(q.cancel(b));
        assert_eq!(q.poll(b), Some(JobOutcome::Cancelled));
        assert!(q.cancel(a));
        assert_eq!(q.poll(a), Some(JobOutcome::Cancelled));
        assert!(!q.cancel(a), "second cancel fails");
        assert_eq!(q.poll(999), None);
    }

    #[test]
    fn completion_time_exact_under_backlog() {
        let clock = ManualClock::new();
        let q = FifoQueue::new(clock.clone(), 1);
        let ids: Vec<_> = (0..4)
            .map(|i| q.submit(BatchJob::simple(&format!("{i}"), "u", secs(3))))
            .collect();
        clock.advance(secs(60));
        for (i, id) in ids.iter().enumerate() {
            match q.poll(*id) {
                Some(JobOutcome::Completed {
                    started_at,
                    finished_at,
                    status,
                }) => {
                    assert_eq!(started_at, SimTime::from_secs(3 * i as u64));
                    assert_eq!(finished_at, SimTime::from_secs(3 * (i as u64 + 1)));
                    assert!(status.success());
                }
                other => panic!("job {i}: {other:?}"),
            }
        }
    }

    #[test]
    fn fairshare_prefers_light_user() {
        let clock = ManualClock::new();
        let q = FairShareQueue::new(clock.clone(), 1);
        // Heavy user fills the machine, then queues more; light user's job
        // arrives last but should jump the heavy user's backlog.
        let _h1 = q.submit(BatchJob::simple("h1", "heavy", secs(10)));
        let h2 = q.submit(BatchJob::simple("h2", "heavy", secs(10)));
        let l1 = q.submit(BatchJob::simple("l1", "light", secs(10)));
        clock.advance(secs(10)); // h1 done; next dispatch decision
        assert!(
            matches!(q.poll(l1), Some(JobOutcome::Running { .. })),
            "light user should run before heavy's second job"
        );
        assert_eq!(q.poll(h2), Some(JobOutcome::Queued));
        // Each user has now dispatched one 10s single-cpu job.
        assert!((q.usage_of("heavy") - 10.0).abs() < 1e-9);
        assert!((q.usage_of("light") - 10.0).abs() < 1e-9);
    }

    #[test]
    fn fairshare_usage_accumulates() {
        let clock = ManualClock::new();
        let q = FairShareQueue::new(clock.clone(), 2);
        q.submit(BatchJob::simple("a", "alice", secs(30)));
        assert!((q.usage_of("alice") - 30.0).abs() < 1e-9);
        assert_eq!(q.usage_of("bob"), 0.0);
    }

    #[test]
    fn matchmaker_respects_requirements() {
        let clock = ManualClock::new();
        let pool = Matchmaker::new(
            clock.clone(),
            vec![
                MachineAd::new("m1", &[("arch", "x86"), ("os", "linux")]),
                MachineAd::new("m2", &[("arch", "sparc"), ("os", "solaris")]),
            ],
        );
        let linux_job = BatchJob::simple("lj", "u", secs(5)).requiring("os", "linux");
        let solaris_job = BatchJob::simple("sj", "u", secs(5)).requiring("os", "solaris");
        let impossible = BatchJob::simple("ij", "u", secs(5)).requiring("os", "plan9");
        let a = pool.submit(linux_job);
        let b = pool.submit(solaris_job);
        let c = pool.submit(impossible);
        assert!(matches!(pool.poll(a), Some(JobOutcome::Running { .. })));
        assert!(matches!(pool.poll(b), Some(JobOutcome::Running { .. })));
        assert_eq!(pool.poll(c), Some(JobOutcome::Queued));
        clock.advance(secs(5));
        assert!(matches!(pool.poll(a), Some(JobOutcome::Completed { .. })));
        // The impossible job is still queued — forever.
        assert_eq!(pool.poll(c), Some(JobOutcome::Queued));
    }

    #[test]
    fn matchmaker_queues_when_pool_busy() {
        let clock = ManualClock::new();
        let pool = Matchmaker::new(
            clock.clone(),
            vec![MachineAd::new("m1", &[("os", "linux")])],
        );
        let a = pool.submit(BatchJob::simple("a", "u", secs(10)).requiring("os", "linux"));
        let b = pool.submit(BatchJob::simple("b", "u", secs(10)).requiring("os", "linux"));
        assert!(matches!(pool.poll(a), Some(JobOutcome::Running { .. })));
        assert_eq!(pool.poll(b), Some(JobOutcome::Queued));
        clock.advance(secs(10));
        assert!(
            matches!(pool.poll(b), Some(JobOutcome::Running { started_at }) if started_at == SimTime::from_secs(10))
        );
    }

    #[test]
    fn matchmaker_cancel() {
        let clock = ManualClock::new();
        let pool = Matchmaker::new(clock.clone(), vec![MachineAd::new("m", &[])]);
        let a = pool.submit(BatchJob::simple("a", "u", secs(10)));
        assert!(pool.cancel(a));
        assert_eq!(pool.poll(a), Some(JobOutcome::Cancelled));
        assert_eq!(pool.running_count(), 0);
    }

    #[test]
    fn nonzero_exit_propagates() {
        let clock = ManualClock::new();
        let q = FifoQueue::new(clock.clone(), 1);
        let mut job = BatchJob::simple("bad", "u", secs(1));
        job.exit_code = 3;
        let id = q.submit(job);
        clock.advance(secs(1));
        match q.poll(id) {
            Some(JobOutcome::Completed { status, .. }) => {
                assert_eq!(status, ExitStatus::Code(3))
            }
            other => panic!("{other:?}"),
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use infogram_sim::ManualClock;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum QOp {
        Submit { runtime_ms: u64 },
        Advance { ms: u64 },
        Cancel { idx: usize },
    }

    fn arb_op() -> impl Strategy<Value = QOp> {
        prop_oneof![
            (1u64..500).prop_map(|runtime_ms| QOp::Submit { runtime_ms }),
            (0u64..1000).prop_map(|ms| QOp::Advance { ms }),
            (0usize..16).prop_map(|idx| QOp::Cancel { idx }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Under any schedule: never more running jobs than slots; every
        /// completed job has finished_at = started_at + runtime; states
        /// only move forward (Queued → Running → terminal).
        #[test]
        fn fifo_schedule_invariants(
            slots in 1usize..4,
            ops in prop::collection::vec(arb_op(), 1..40),
        ) {
            let clock = ManualClock::new();
            let q = FifoQueue::new(clock.clone(), slots);
            let mut ids: Vec<(QueueJobId, u64)> = Vec::new();
            let mut seen_running: std::collections::HashSet<QueueJobId> = Default::default();
            let mut seen_terminal: std::collections::HashSet<QueueJobId> = Default::default();
            for op in ops {
                match op {
                    QOp::Submit { runtime_ms } => {
                        let id = q.submit(BatchJob::simple(
                            "j",
                            "user",
                            Duration::from_millis(runtime_ms),
                        ));
                        ids.push((id, runtime_ms));
                    }
                    QOp::Advance { ms } => clock.advance(Duration::from_millis(ms)),
                    QOp::Cancel { idx } => {
                        if let Some(&(id, _)) = ids.get(idx) {
                            let _ = q.cancel(id);
                        }
                    }
                }
                prop_assert!(q.running_count() <= slots);
                for &(id, runtime_ms) in &ids {
                    match q.poll(id) {
                        Some(JobOutcome::Queued) => {
                            prop_assert!(!seen_running.contains(&id), "ran then re-queued");
                            prop_assert!(!seen_terminal.contains(&id));
                        }
                        Some(JobOutcome::Running { .. }) => {
                            seen_running.insert(id);
                            prop_assert!(!seen_terminal.contains(&id), "terminal then running");
                        }
                        Some(JobOutcome::Completed {
                            started_at,
                            finished_at,
                            ..
                        }) => {
                            seen_terminal.insert(id);
                            prop_assert_eq!(
                                finished_at.since(started_at),
                                Duration::from_millis(runtime_ms)
                            );
                        }
                        Some(JobOutcome::Cancelled) => {
                            seen_terminal.insert(id);
                        }
                        None => prop_assert!(false, "known id vanished"),
                    }
                }
            }
        }
    }
}
