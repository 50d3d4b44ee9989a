//! Local resource managers.
//!
//! GRAM's backend tier "is easily portable to various scheduling systems
//! ... PBS, LSF, Condor, and Unix process fork" (§2 of the paper). The
//! J-GRAM backends in `infogram-exec` delegate to one model of all four,
//! [`BatchQueue`]: a pool of slots fed by one discrete-event engine, built
//! four ways.
//!
//! * [`BatchQueue::fifo`] — a PBS/LSF-style space-shared queue: a fixed
//!   number of slots, first-come-first-served dispatch.
//! * [`BatchQueue::fair_share`] — the same slots, dispatch ordered by
//!   least accumulated per-user usage.
//! * [`BatchQueue::matchmaker`] — a Condor-style pool: each slot is a
//!   machine with an advertised [`MachineAd`], and a job runs only on a
//!   machine that satisfies every one of its requirements.
//! * [`BatchQueue::fork`] — Unix process fork: a pool that never queues.
//!   It starts with no slots and gives each job that finds none free a
//!   slot of its own, so every job starts the moment it is submitted.
//!
//! Scheduling decisions are replayed lazily up to "now" on the host clock
//! whenever the queue is observed, so they work identically under real
//! and virtual time.

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
    /// Submitting (local) user, charged for fair-share accounting.
    pub user: String,
    /// Service time once started.
    pub runtime: Duration,
    /// Exit code the job will report.
    pub exit_code: i32,
    /// Attribute requirements for matchmaking (ignored by a slot without
    /// an ad).
    pub requirements: Vec<(String, String)>,
}

impl BatchJob {
    /// A job of `user` that runs for `runtime` and exits with 0.
    pub fn new(user: &str, runtime: Duration) -> Self {
        BatchJob {
            user: user.to_string(),
            runtime,
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
        /// The code it exited with (0 = success).
        exit_code: i32,
    },
    /// Cancelled before completion.
    Cancelled,
}

/// Dispatch order of a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Policy {
    /// Submit order.
    Fifo,
    /// Least accumulated usage first, ties in submit order.
    FairShare,
    /// Submit order, and a job no free slot takes gets a new slot:
    /// nothing waits.
    Fork,
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
struct State {
    next_id: QueueJobId,
    cursor: SimTime,
    pending: Vec<Pending>,
    /// Per slot: the job it runs, if any.
    running: Vec<Option<Running>>,
    finished: BTreeMap<QueueJobId, JobOutcome>,
    /// Accumulated cpu-seconds per user, charged at dispatch.
    usage: BTreeMap<String, f64>,
}

impl State {
    /// Take a running job out of its slot.
    fn take_running(&mut self, id: QueueJobId) -> Option<Running> {
        self.running
            .iter_mut()
            .find(|r| r.as_ref().is_some_and(|r| r.id == id))?
            .take()
    }
}

/// A local resource manager: a pool of slots and the jobs waiting for
/// them.
///
/// A slot without an ad runs any job and ignores its requirements; a
/// slot with a [`MachineAd`] runs a job only if the ad satisfies every
/// requirement. Each dispatch takes, in the pool's policy order, the
/// first pending job some free slot accepts and starts it on the first
/// such slot.
#[derive(Debug)]
pub struct BatchQueue {
    clock: Arc<dyn Clock>,
    policy: Policy,
    /// The ad of slot `i`, for a matchmaker; no slot of another pool has
    /// one.
    ads: Vec<MachineAd>,
    state: Mutex<State>,
}

impl BatchQueue {
    /// A PBS/LSF-flavoured first-come-first-served queue with `slots`
    /// simultaneous jobs.
    pub fn fifo(clock: Arc<dyn Clock>, slots: usize) -> Self {
        Self::pool(clock, Policy::Fifo, slots, Vec::new())
    }

    /// A queue with `slots` simultaneous jobs whose dispatch favours the
    /// users with the least accumulated cpu-seconds.
    pub fn fair_share(clock: Arc<dyn Clock>, slots: usize) -> Self {
        Self::pool(clock, Policy::FairShare, slots, Vec::new())
    }

    /// A Condor-style pool over the given machine ads, dispatched in
    /// submit order.
    pub fn matchmaker(clock: Arc<dyn Clock>, machines: Vec<MachineAd>) -> Self {
        Self::pool(clock, Policy::Fifo, machines.len(), machines)
    }

    /// A Unix-fork pool: every job starts when it is submitted, in a slot
    /// of its own. It starts with no slots, so building one allocates
    /// nothing.
    pub fn fork(clock: Arc<dyn Clock>) -> Self {
        Self::pool(clock, Policy::Fork, 0, Vec::new())
    }

    fn pool(clock: Arc<dyn Clock>, policy: Policy, slots: usize, ads: Vec<MachineAd>) -> Self {
        assert!(
            slots > 0 || policy == Policy::Fork,
            "a pool needs at least one slot"
        );
        BatchQueue {
            clock,
            policy,
            ads,
            state: Mutex::new(State {
                next_id: 1,
                cursor: SimTime::ZERO,
                pending: Vec::new(),
                running: vec![None; slots],
                finished: BTreeMap::new(),
                usage: BTreeMap::new(),
            }),
        }
    }

    /// Replay scheduling decisions up to `now`.
    fn sweep(&self, st: &mut State, now: SimTime) {
        loop {
            // Fill free slots at the cursor.
            while let Some((i, slot)) = self.next_dispatch(st) {
                let p = st.pending.remove(i);
                let start = st.cursor.max(p.submitted_at);
                let run = p.job.runtime;
                *st.usage.entry(p.job.user).or_insert(0.0) += run.as_secs_f64();
                if slot == st.running.len() {
                    st.running.push(None);
                }
                st.running[slot] = Some(Running {
                    id: p.id,
                    started_at: start,
                    ends_at: start.plus(run),
                    exit_code: p.job.exit_code,
                });
            }
            // Advance to the earliest completion that is in the past; of
            // two at once, the lower slot's first.
            let due = st
                .running
                .iter()
                .enumerate()
                .filter_map(|(slot, r)| Some((r.as_ref()?.ends_at, slot)))
                .min()
                .filter(|&(end, _)| end <= now);
            match due.and_then(|(_, slot)| st.running[slot].take()) {
                Some(r) => {
                    st.cursor = r.ends_at;
                    st.finished.insert(
                        r.id,
                        JobOutcome::Completed {
                            started_at: r.started_at,
                            finished_at: r.ends_at,
                            exit_code: r.exit_code,
                        },
                    );
                }
                None => {
                    st.cursor = now;
                    break;
                }
            }
        }
    }

    /// The next dispatch at the cursor, `(index into pending, slot)`: the
    /// first job in policy order that a free slot accepts. A fork pool's
    /// slot `running.len()` is the new one it adds.
    fn next_dispatch(&self, st: &State) -> Option<(usize, usize)> {
        let grows = self.policy == Policy::Fork;
        if !grows && st.running.iter().all(Option::is_some) {
            return None;
        }
        let mut best = None;
        let mut best_usage = f64::INFINITY;
        for (i, p) in st.pending.iter().enumerate() {
            let usage = match self.policy {
                Policy::Fifo | Policy::Fork => 0.0,
                Policy::FairShare => st.usage.get(&p.job.user).copied().unwrap_or(0.0),
            };
            if usage >= best_usage {
                continue;
            }
            let free = (0..st.running.len())
                .find(|&s| {
                    st.running[s].is_none() && self.ads.get(s).is_none_or(|ad| ad.matches(&p.job))
                })
                .or(grows.then_some(st.running.len()));
            if let Some(slot) = free {
                best = Some((i, slot));
                best_usage = usage;
            }
        }
        best
    }

    /// The state, swept up to now.
    fn observe(&self) -> parking_lot::MutexGuard<'_, State> {
        let now = self.clock.now();
        let mut st = self.state.lock();
        self.sweep(&mut st, now);
        st
    }

    /// Enqueue a job; returns its queue-local id. Ids are never reissued.
    pub fn submit(&self, job: BatchJob) -> QueueJobId {
        let mut st = self.observe();
        // A sweep leaves the cursor at now.
        let now = st.cursor;
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

    /// Current outcome; `None` for unknown ids.
    pub fn poll(&self, id: QueueJobId) -> Option<JobOutcome> {
        let st = self.observe();
        if let Some(out) = st.finished.get(&id) {
            return Some(*out);
        }
        if let Some(r) = st.running.iter().flatten().find(|r| r.id == id) {
            return Some(JobOutcome::Running {
                started_at: r.started_at,
            });
        }
        st.pending
            .iter()
            .any(|p| p.id == id)
            .then_some(JobOutcome::Queued)
    }

    /// Cancel a queued or running job; false if already terminal or
    /// unknown.
    pub fn cancel(&self, id: QueueJobId) -> bool {
        let mut st = self.observe();
        if let Some(i) = st.pending.iter().position(|p| p.id == id) {
            st.pending.remove(i);
        } else if st.take_running(id).is_none() {
            return false;
        }
        st.finished.insert(id, JobOutcome::Cancelled);
        true
    }

    /// End a running job now with `exit_code`, as a crash would (failure
    /// injection for the restart experiments); false if it is not
    /// running.
    pub fn inject_failure(&self, id: QueueJobId, exit_code: i32) -> bool {
        let mut st = self.observe();
        let Some(r) = st.take_running(id) else {
            return false;
        };
        let ended = JobOutcome::Completed {
            started_at: r.started_at,
            finished_at: st.cursor,
            exit_code,
        };
        st.finished.insert(id, ended);
        true
    }

    /// Drop the recorded outcome of a completed or cancelled job, whose
    /// id is unknown from here on. A queued or running job is left alone.
    pub fn forget(&self, id: QueueJobId) {
        self.observe().finished.remove(&id);
    }

    /// Jobs waiting for a slot right now.
    pub fn queued_depth(&self) -> usize {
        self.observe().pending.len()
    }

    /// Jobs running right now.
    pub fn running_count(&self) -> usize {
        self.observe().running.iter().flatten().count()
    }

    /// Jobs the pool knows: queued, running, or ended and not forgotten.
    pub fn len(&self) -> usize {
        let st = self.state.lock();
        st.pending.len() + st.running.iter().flatten().count() + st.finished.len()
    }

    /// Whether the pool knows no job at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Accumulated cpu-seconds charged to a user so far.
    pub fn usage_of(&self, user: &str) -> f64 {
        self.state.lock().usage.get(user).copied().unwrap_or(0.0)
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

#[cfg(test)]
mod tests {
    use super::*;
    use infogram_sim::{ManualClock, SplitMix64};

    fn secs(s: u64) -> Duration {
        Duration::from_secs(s)
    }

    #[test]
    fn fifo_runs_in_order_with_slots() {
        let clock = ManualClock::new();
        let q = BatchQueue::fifo(clock.clone(), 1);
        let a = q.submit(BatchJob::new("u1", secs(10)));
        let b = q.submit(BatchJob::new("u1", secs(10)));
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
        let q = BatchQueue::fifo(clock.clone(), 3);
        let ids: Vec<_> = (0..3)
            .map(|_| q.submit(BatchJob::new("u", secs(5))))
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
        let q = BatchQueue::fifo(clock.clone(), 1);
        let a = q.submit(BatchJob::new("u", secs(100)));
        let b = q.submit(BatchJob::new("u", secs(100)));
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
        let q = BatchQueue::fifo(clock.clone(), 1);
        let ids: Vec<_> = (0..4)
            .map(|_| q.submit(BatchJob::new("u", secs(3))))
            .collect();
        clock.advance(secs(60));
        for (i, id) in ids.iter().enumerate() {
            match q.poll(*id) {
                Some(JobOutcome::Completed {
                    started_at,
                    finished_at,
                    exit_code,
                }) => {
                    assert_eq!(started_at, SimTime::from_secs(3 * i as u64));
                    assert_eq!(finished_at, SimTime::from_secs(3 * (i as u64 + 1)));
                    assert_eq!(exit_code, 0);
                }
                other => panic!("job {i}: {other:?}"),
            }
        }
    }

    #[test]
    fn fairshare_prefers_light_user() {
        let clock = ManualClock::new();
        let q = BatchQueue::fair_share(clock.clone(), 1);
        // Heavy user fills the machine, then queues more; light user's job
        // arrives last but should jump the heavy user's backlog.
        let _h1 = q.submit(BatchJob::new("heavy", secs(10)));
        let h2 = q.submit(BatchJob::new("heavy", secs(10)));
        let l1 = q.submit(BatchJob::new("light", secs(10)));
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
        let q = BatchQueue::fair_share(clock.clone(), 2);
        q.submit(BatchJob::new("alice", secs(30)));
        assert!((q.usage_of("alice") - 30.0).abs() < 1e-9);
        assert_eq!(q.usage_of("bob"), 0.0);
    }

    #[test]
    fn matchmaker_respects_requirements() {
        let clock = ManualClock::new();
        let pool = BatchQueue::matchmaker(
            clock.clone(),
            vec![
                MachineAd::new("m1", &[("arch", "x86"), ("os", "linux")]),
                MachineAd::new("m2", &[("arch", "sparc"), ("os", "solaris")]),
            ],
        );
        let linux_job = BatchJob::new("u", secs(5)).requiring("os", "linux");
        let solaris_job = BatchJob::new("u", secs(5)).requiring("os", "solaris");
        let impossible = BatchJob::new("u", secs(5)).requiring("os", "plan9");
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
        let pool = BatchQueue::matchmaker(
            clock.clone(),
            vec![MachineAd::new("m1", &[("os", "linux")])],
        );
        let a = pool.submit(BatchJob::new("u", secs(10)).requiring("os", "linux"));
        let b = pool.submit(BatchJob::new("u", secs(10)).requiring("os", "linux"));
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
        let pool = BatchQueue::matchmaker(clock.clone(), vec![MachineAd::new("m", &[])]);
        let a = pool.submit(BatchJob::new("u", secs(10)));
        assert!(pool.cancel(a));
        assert_eq!(pool.poll(a), Some(JobOutcome::Cancelled));
        assert_eq!(pool.running_count(), 0);
    }

    #[test]
    fn nonzero_exit_propagates() {
        let clock = ManualClock::new();
        let q = BatchQueue::fifo(clock.clone(), 1);
        let mut job = BatchJob::new("u", secs(1));
        job.exit_code = 3;
        let id = q.submit(job);
        clock.advance(secs(1));
        match q.poll(id) {
            Some(JobOutcome::Completed { exit_code, .. }) => assert_eq!(exit_code, 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fork_pool_starts_every_job_at_once_and_reports_its_exit() {
        let clock = ManualClock::new();
        let q = BatchQueue::fork(clock.clone());
        assert_eq!((q.len(), q.running_count()), (0, 0));
        let mut failing = BatchJob::new("u", secs(1));
        failing.exit_code = 2;
        let ids = [
            q.submit(BatchJob::new("u", secs(10))),
            q.submit(failing),
            q.submit(BatchJob::new("u", secs(10))),
        ];
        let started = Some(JobOutcome::Running {
            started_at: SimTime::ZERO,
        });
        for id in ids {
            assert_eq!(q.poll(id), started);
        }
        assert_eq!((q.queued_depth(), q.running_count()), (0, 3));
        clock.advance(secs(1));
        let ended = |at, exit_code| {
            Some(JobOutcome::Completed {
                started_at: SimTime::ZERO,
                finished_at: SimTime::from_secs(at),
                exit_code,
            })
        };
        assert_eq!(q.poll(ids[1]), ended(1, 2));
        // The freed slot is the next job's, which still starts at once.
        let late = q.submit(BatchJob::new("u", secs(1)));
        assert!(
            matches!(q.poll(late), Some(JobOutcome::Running { started_at }) if started_at == SimTime::from_secs(1))
        );
        clock.advance(secs(9));
        assert_eq!(q.poll(ids[0]), ended(10, 0));
        assert_eq!(q.running_count(), 0);
    }

    #[test]
    fn fork_pool_cancel_and_injected_failure_end_only_a_running_job() {
        let clock = ManualClock::new();
        let q = BatchQueue::fork(clock.clone());
        let a = q.submit(BatchJob::new("u", secs(100)));
        let b = q.submit(BatchJob::new("u", secs(100)));
        let short = q.submit(BatchJob::new("u", secs(1)));
        clock.advance(secs(2));
        assert!(q.cancel(a));
        assert_eq!(q.poll(a), Some(JobOutcome::Cancelled));
        assert!(!q.cancel(a), "second cancel fails");
        assert!(!q.cancel(short), "an exited job cannot be killed");
        assert!(!q.inject_failure(a, 1));
        assert!(q.inject_failure(b, 42));
        assert_eq!(
            q.poll(b),
            Some(JobOutcome::Completed {
                started_at: SimTime::ZERO,
                finished_at: SimTime::from_secs(2),
                exit_code: 42,
            })
        );
        assert!(!q.inject_failure(b, 42), "already ended");
        assert_eq!(q.poll(999), None);
        assert!(!q.cancel(999) && !q.inject_failure(999, 1));
    }

    #[test]
    fn a_forgotten_id_is_unknown_and_never_reissued() {
        let clock = ManualClock::new();
        let q = BatchQueue::fork(clock.clone());
        let a = q.submit(BatchJob::new("u", secs(1)));
        let b = q.submit(BatchJob::new("u", secs(10)));
        clock.advance(secs(2));
        q.forget(a);
        q.forget(b);
        assert_eq!(q.poll(a), None);
        assert!(
            matches!(q.poll(b), Some(JobOutcome::Running { .. })),
            "still running"
        );
        assert_eq!((q.len(), q.running_count()), (1, 1));
        assert!(q.submit(BatchJob::new("u", secs(1))) > b);
        assert!(!q.is_empty());
    }

    /// One seeded run of 240 operations — submits (three users, mixed
    /// runtimes, exit codes and requirements), clock advances and
    /// cancels — then an hour to drain: every job's final outcome, as
    /// `id:start-finish/exit` in milliseconds, `id:x` for cancelled and
    /// `id:q` for still queued. Times are multiples of 50 ms, so jobs
    /// often end together and free slots often tie: the run pins which
    /// completion, job and slot each policy takes first.
    fn golden_run(q: &BatchQueue, clock: &ManualClock) -> String {
        let mut rng = SplitMix64::new(0x0029_9e2d);
        let users = ["alice", "bob", "carol"];
        let reqs: [&[(&str, &str)]; 5] = [
            &[],
            &[("os", "linux")],
            &[("arch", "x86")],
            &[("arch", "ia64"), ("os", "linux")],
            &[("os", "plan9")],
        ];
        let mut ids = Vec::new();
        for _ in 0..240 {
            match rng.below(10) {
                0..=4 => {
                    let user = *rng.pick(&users);
                    let runtime = Duration::from_millis(50 * rng.below(8));
                    let mut job = BatchJob::new(user, runtime);
                    job.exit_code = [0, 0, 0, 2][rng.below(4) as usize];
                    for (k, v) in *rng.pick(&reqs) {
                        job = job.requiring(k, v);
                    }
                    ids.push(q.submit(job));
                }
                5..=7 => clock.advance(Duration::from_millis(50 * rng.below(6))),
                _ => {
                    q.cancel(ids[rng.below(ids.len() as u64) as usize]);
                }
            }
        }
        clock.advance(secs(3600));
        let ms = |t: SimTime| t.since(SimTime::ZERO).as_millis();
        let outcome = |id| match q.poll(id) {
            Some(JobOutcome::Completed {
                started_at,
                finished_at,
                exit_code: c,
            }) => format!("{id}:{}-{}/{c}", ms(started_at), ms(finished_at)),
            Some(JobOutcome::Cancelled) => format!("{id}:x"),
            Some(JobOutcome::Queued) => format!("{id}:q"),
            other => format!("{id}:{other:?}"),
        };
        ids.into_iter().map(outcome).collect::<Vec<_>>().join(" ")
    }

    /// The golden run's outcomes on each pool, as the three separate
    /// scheduler types this engine replaced recorded them.
    const GOLDEN_FIFO: &str = "\
1:0-50/0 2:x 3:650-650/0 4:x 5:650-900/2 6:700-850/2 7:850-850/0 8:850-900/0 9:x 10:x
11:900-1000/0 12:x 13:950-950/2 14:950-1250/0 15:1000-1300/2 16:1250-1300/2
17:1300-1300/0 18:1300-1450/0 19:1300-1400/0 20:1400-1550/0 21:1450-1700/0
22:1550-1650/0 23:1650-1950/0 24:1700-2050/0 25:1950-1950/0 26:1950-1950/0
27:1950-2250/0 28:x 29:2100-2250/0 30:x 31:2250-2400/0 32:2250-2250/0 33:x
34:2250-2350/0 35:2350-2400/2 36:2400-2600/0 37:2400-2550/0 38:2550-2650/2
39:2600-2600/0 40:2600-2600/0 41:2600-2650/0 42:2650-2750/0 43:2700-2700/0
44:3200-3450/0 45:3200-3550/0 46:3450-3750/0 47:3550-3600/2 48:3900-3900/2
49:3900-3950/0 50:3900-4150/0 51:4100-4400/0 52:x 53:4150-4350/0 54:4350-4600/0
55:4400-4400/0 56:4400-4500/0 57:4500-4700/0 58:4600-4600/2 59:4600-4850/2
60:4700-5050/0 61:4850-5100/0 62:5050-5350/0 63:x 64:5100-5250/0 65:5250-5300/0
66:5300-5600/2 67:5350-5600/0 68:x 69:5600-5850/0 70:5600-5900/0 71:5850-6050/0
72:5900-6050/0 73:6050-6400/0 74:6050-6300/0 75:6300-6400/0 76:x 77:6400-6700/2
78:6400-6600/2 79:x 80:6600-6650/0 81:6650-6750/2 82:6700-7050/2 83:6750-7050/0
84:7050-7350/0 85:7050-7250/0 86:7250-7550/0 87:7350-7600/0 88:x 89:7550-7650/0
90:7600-7950/2 91:7650-8000/0 92:7950-8150/0 93:x 94:x 95:x 96:8000-8200/0
97:8150-8350/2 98:8200-8450/0 99:8350-8550/2 100:8450-8650/0 101:8550-8600/0
102:8600-8650/0 103:8650-8650/0 104:8650-8900/0 105:8650-9000/0 106:8900-9150/0
107:9000-9000/2 108:9000-9300/0 109:9150-9200/0 110:9200-9300/0 111:9300-9650/2
112:9300-9650/0 113:9650-9900/2 114:9650-9700/2 115:9700-9900/0 116:9900-10200/0
117:9900-9900/0 118:9900-10250/0 119:10200-10350/0 120:10250-10350/0 121:10350-10400/2";
    const GOLDEN_FAIR: &str = "\
1:0-50/0 2:x 3:650-650/0 4:x 5:650-900/2 6:1000-1150/2 7:650-650/0 8:x 9:x 10:x
11:1300-1400/0 12:x 13:700-700/2 14:1000-1300/0 15:700-1000/2 16:950-1000/2
17:1000-1000/0 18:1550-1700/0 19:1150-1250/0 20:1750-1900/0 21:x 22:1400-1500/0
23:2150-2450/0 24:1700-2050/0 25:2050-2050/0 26:2050-2050/0 27:1250-1550/0
28:1500-1750/2 29:1900-2050/0 30:x 31:2050-2200/0 32:2100-2100/0 33:x 34:2450-2550/0
35:2100-2150/2 36:2200-2400/0 37:2400-2550/0 38:2550-2650/2 39:2650-2650/0
40:2550-2550/0 41:2550-2600/0 42:2600-2700/0 43:2700-2700/0 44:3200-3450/0
45:3200-3550/0 46:3450-3750/0 47:3550-3600/2 48:3900-3900/2 49:3900-3950/0
50:3900-4150/0 51:4100-4400/0 52:x 53:4400-4600/0 54:4150-4400/0 55:4400-4400/0
56:4400-4500/0 57:4500-4700/0 58:4600-4600/2 59:5250-5500/2 60:4600-4950/0
61:4700-4950/0 62:4950-5250/0 63:x 64:5600-5750/0 65:5550-5600/0 66:5750-6050/2 67:x
68:x 69:6150-6400/0 70:5850-6150/0 71:4950-5150/0 72:6600-6750/0 73:5150-5500/0
74:6350-6600/0 75:6650-6750/0 76:x 77:6750-7050/2 78:6750-6950/2 79:5500-5500/2
80:5500-5550/0 81:7350-7450/2 82:5500-5850/2 83:7400-7700/0 84:7050-7350/0
85:7950-8150/0 86:6050-6350/0 87:6400-6650/0 88:x 89:6950-7050/0 90:7050-7400/2
91:7650-8000/0 92:8000-8200/0 93:x 94:x 95:x 96:8200-8400/0 97:8450-8650/2
98:8750-9000/0 99:7450-7650/2 100:8400-8600/0 101:9200-9250/0 102:9250-9300/0
103:7700-7700/0 104:9300-9550/0 105:8650-9000/0 106:7700-7950/0 107:8150-8150/2
108:8150-8450/0 109:9550-9600/0 110:8600-8700/0 111:9550-9900/2 112:9700-10050/0
113:9900-10150/2 114:8700-8750/2 115:9000-9200/0 116:10050-10350/0 117:9050-9050/0
118:9050-9400/0 119:9400-9550/0 120:9600-9700/0 121:9000-9050/2";
    const GOLDEN_MATCH: &str = "\
1:0-50/0 2:x 3:650-650/0 4:x 5:x 6:650-800/2 7:700-700/0 8:700-750/0 9:x 10:x 11:q
12:750-950/0 13:800-800/2 14:800-1100/0 15:950-1250/2 16:q 17:q 18:1250-1400/0 19:x
20:1100-1250/0 21:1250-1500/0 22:1400-1500/0 23:1500-1800/0 24:1800-2150/0 25:q
26:1500-1500/0 27:1500-1800/0 28:1800-2050/2 29:2050-2200/0 30:x 31:2150-2300/0
32:2200-2200/0 33:x 34:2300-2400/0 35:2200-2250/2 36:2250-2450/0 37:2400-2550/0
38:2450-2550/2 39:2550-2550/0 40:2550-2550/0 41:2550-2600/0 42:2550-2650/0
43:2700-2700/0 44:3200-3450/0 45:3450-3800/0 46:x 47:3550-3600/2 48:3900-3900/2
49:3900-3950/0 50:3900-4150/0 51:4100-4400/0 52:x 53:x 54:4150-4400/0 55:4400-4400/0
56:4400-4500/0 57:4400-4600/0 58:4500-4500/2 59:q 60:x 61:4600-4850/0 62:4850-5150/0
63:x 64:5150-5300/0 65:4900-4950/0 66:5300-5600/2 67:4950-5200/0 68:x 69:5200-5450/0
70:5450-5750/0 71:5750-5950/0 72:5950-6100/0 73:5600-5950/0 74:5950-6200/0
75:6100-6200/0 76:x 77:6200-6500/2 78:6500-6700/2 79:x 80:6200-6250/0 81:6250-6350/2
82:q 83:6350-6650/0 84:6650-6950/0 85:6700-6900/0 86:6900-7200/0 87:6950-7200/0 88:x
89:7200-7300/0 90:7200-7550/2 91:7300-7650/0 92:7650-7850/0 93:x 94:x 95:x
96:7850-8050/0 97:7550-7750/2 98:7750-8000/0 99:8000-8200/2 100:8200-8400/0
101:8400-8450/0 102:8050-8100/0 103:8100-8100/0 104:q 105:8100-8450/0 106:8450-8700/0
107:8700-8700/2 108:8450-8750/0 109:q 110:8700-8800/0 111:8800-9150/2 112:q
113:9150-9400/2 114:9400-9450/2 115:8750-8950/0 116:8950-9250/0 117:9250-9250/0
118:9250-9600/0 119:9450-9600/0 120:q 121:9600-9650/2";

    #[test]
    fn every_pool_schedules_the_golden_run_as_before() {
        let run = |build: &dyn Fn(Arc<dyn Clock>) -> BatchQueue| {
            let clock = ManualClock::new();
            golden_run(&build(clock.clone()), &clock)
        };
        let machines = vec![
            MachineAd::new("m1", &[("os", "linux"), ("arch", "x86")]),
            MachineAd::new("m2", &[("os", "linux"), ("arch", "ia64")]),
        ];
        let got = [
            run(&|c| BatchQueue::fifo(c, 2)),
            run(&|c| BatchQueue::fair_share(c, 2)),
            run(&|c| BatchQueue::matchmaker(c, machines.clone())),
        ];
        for (got, golden) in got.iter().zip([GOLDEN_FIFO, GOLDEN_FAIR, GOLDEN_MATCH]) {
            let want: Vec<&str> = golden.split_whitespace().collect();
            assert_eq!(*got, want.join(" "));
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
        Submit {
            runtime_ms: u64,
            user: usize,
            linux: bool,
        },
        Advance {
            ms: u64,
        },
        Cancel {
            idx: usize,
        },
    }

    fn arb_op() -> impl Strategy<Value = QOp> {
        prop_oneof![
            (1u64..500, 0usize..3, any::<bool>()).prop_map(|(runtime_ms, user, linux)| {
                QOp::Submit {
                    runtime_ms,
                    user,
                    linux,
                }
            }),
            (0u64..1000).prop_map(|ms| QOp::Advance { ms }),
            (0usize..16).prop_map(|idx| QOp::Cancel { idx }),
        ]
    }

    /// Pool 0 is FIFO, 1 fair-share, 2 a matchmaker whose machines
    /// alternate between linux and solaris, 3 a fork pool.
    fn pool(kind: usize, clock: Arc<dyn Clock>, slots: usize) -> BatchQueue {
        match kind {
            0 => BatchQueue::fifo(clock, slots),
            1 => BatchQueue::fair_share(clock, slots),
            3 => BatchQueue::fork(clock),
            _ => {
                let os = |m: usize| {
                    if m.is_multiple_of(2) {
                        "linux"
                    } else {
                        "solaris"
                    }
                };
                let ads = (0..slots)
                    .map(|m| MachineAd::new(&format!("m{m}"), &[("os", os(m))]))
                    .collect();
                BatchQueue::matchmaker(clock, ads)
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Under any schedule, on every pool: never more running jobs
        /// than slots; every completed job has finished_at = started_at +
        /// runtime; states only move forward (Queued → Running →
        /// terminal). A fork pool has no slot limit, but never reports a
        /// job queued, and each job ends exactly its runtime after its
        /// submit.
        #[test]
        fn every_pool_keeps_schedule_invariants(
            kind in 0usize..4,
            slots in 1usize..4,
            ops in prop::collection::vec(arb_op(), 1..40),
        ) {
            let clock = ManualClock::new();
            let q = pool(kind, clock.clone(), slots);
            let fork = kind == 3;
            let mut ids: Vec<(QueueJobId, u64, SimTime)> = Vec::new();
            let mut seen_running: std::collections::HashSet<QueueJobId> = Default::default();
            let mut seen_terminal: std::collections::HashSet<QueueJobId> = Default::default();
            for op in ops {
                match op {
                    QOp::Submit {
                        runtime_ms,
                        user,
                        linux,
                    } => {
                        let user = ["alice", "bob", "carol"][user];
                        let mut job = BatchJob::new(user, Duration::from_millis(runtime_ms));
                        if linux {
                            job = job.requiring("os", "linux");
                        }
                        ids.push((q.submit(job), runtime_ms, clock.now()));
                    }
                    QOp::Advance { ms } => clock.advance(Duration::from_millis(ms)),
                    QOp::Cancel { idx } => {
                        if let Some(&(id, ..)) = ids.get(idx) {
                            let _ = q.cancel(id);
                        }
                    }
                }
                prop_assert!(fork || q.running_count() <= slots);
                for &(id, runtime_ms, submitted_at) in &ids {
                    match q.poll(id) {
                        Some(JobOutcome::Queued) => {
                            prop_assert!(!fork, "a fork pool queued a job");
                            prop_assert!(!seen_running.contains(&id), "ran then re-queued");
                            prop_assert!(!seen_terminal.contains(&id));
                        }
                        Some(JobOutcome::Running { started_at }) => {
                            prop_assert!(!fork || started_at == submitted_at);
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
                            prop_assert!(!fork || started_at == submitted_at);
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
