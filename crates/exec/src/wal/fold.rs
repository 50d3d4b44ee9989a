//! The fold: what the log amounts to — job table, high-water ids,
//! per-account usage. One implementation serves the committer, recovery
//! and [`CheckpointState::from_events`], so a recovered state cannot
//! drift from a live one.

use super::event::WalEvent;
use crate::chunked::{Chunked, Entry, Keyed};
use infogram_proto::message::JobStateCode;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Who a job runs as: the grid identity (owner DN) and the local account
/// it is mapped to. Interned by a [`NamePool`]: allocated once per
/// distinct pair and shared by every row and in-flight entry naming it.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Principal {
    owner: Box<str>,
    account: Box<str>,
}

impl Principal {
    /// The owner DN.
    pub(crate) fn owner(&self) -> &str {
        &self.owner
    }

    /// The mapped local account.
    pub(crate) fn account(&self) -> &str {
        &self.account
    }
}

/// The distinct principals of a job table — a handful of values, each
/// held once and shared by every row that names it — keyed by owner.
#[derive(Debug, Default)]
pub(crate) struct NamePool(HashMap<Box<str>, Vec<Arc<Principal>>>);

impl NamePool {
    /// The shared principal for `owner` / `account`, allocated on first
    /// sight only.
    pub(crate) fn intern(&mut self, owner: &str, account: &str) -> Arc<Principal> {
        let mut known = self.0.get(owner).into_iter().flatten();
        if let Some(shared) = known.find(|p| p.account() == account) {
            return Arc::clone(shared);
        }
        let shared = Arc::new(Principal {
            owner: owner.into(),
            account: account.into(),
        });
        self.0
            .entry(owner.into())
            .or_default()
            .push(Arc::clone(&shared));
        shared
    }
}

/// The folded log: job table + per-account usage. This is both what a
/// [`WalEvent::Checkpoint`] serializes and what the running
/// [`Wal`](super::Wal) maintains incrementally so a checkpoint is cheap
/// to cut. Its rows sit in shared chunks ([`JobRows`]), so a clone
/// copies one pointer per chunk, not the table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckpointState {
    /// The recovered job table (epoch, last job id, jobs in order).
    pub state: RecoveredState,
    /// Per-account usage, the paper's "simple Grid accounting".
    pub accounts: BTreeMap<String, AccountUsage>,
}

impl CheckpointState {
    /// Fold one event into the snapshot. `names` is owned alongside the
    /// snapshot and only makes repeated principals free: a pair it has
    /// not seen (a checkpoint brings its own) costs one more allocation,
    /// never a wrong answer.
    pub(super) fn apply(&mut self, ev: &WalEvent, names: &mut NamePool) {
        match ev {
            WalEvent::ServiceStarted { epoch } => {
                self.state.last_epoch = self.state.last_epoch.max(*epoch);
            }
            WalEvent::Submitted {
                job_id,
                rsl,
                owner,
                account,
            } => {
                self.state.last_job_id = self.state.last_job_id.max(*job_id);
                let row = RecoveredJob {
                    job_id: *job_id,
                    principal: names.intern(owner, account),
                    finished: None,
                };
                self.state.jobs.insert(row, rsl);
                self.usage(account, |u| u.submitted += 1);
            }
            WalEvent::StateChanged { .. } => {}
            WalEvent::InfoQueried { account, .. } => self.count_info_queries(account, 1),
            WalEvent::Finished {
                job_id,
                state,
                exit_code,
                wall_seconds,
            } => {
                if let Some(job) = self.state.jobs.find_mut(*job_id) {
                    if job.finished.is_none() {
                        job.finished = Some((*state, *exit_code));
                        let principal = Arc::clone(&job.principal);
                        self.usage(principal.account(), |u| {
                            u.wall_seconds += wall_seconds;
                            if *state == JobStateCode::Done {
                                u.completed += 1;
                            } else {
                                u.failed += 1;
                            }
                        });
                    }
                }
            }
            // Copies one pointer per chunk: the rows stay where they are.
            WalEvent::Checkpoint(ck) => *self = (**ck).clone(),
        }
    }

    /// Fold a whole history from nothing.
    pub fn from_events(events: &[WalEvent]) -> CheckpointState {
        let mut fold = CheckpointState::default();
        let mut names = NamePool::default();
        for ev in events {
            fold.apply(ev, &mut names);
        }
        fold
    }

    /// Credit `account` with `n` information queries: one per `INFOQ`
    /// line of an old log, or what its connections counted since the log
    /// last settled them ([`Wal::info_query_counter`](super::Wal)).
    pub(super) fn count_info_queries(&mut self, account: &str, n: u64) {
        self.usage(account, |u| u.info_queries += n);
    }

    /// Update one account's usage; the name is copied on first sight only.
    fn usage(&mut self, account: &str, update: impl FnOnce(&mut AccountUsage)) {
        match self.accounts.get_mut(account) {
            Some(usage) => update(usage),
            None => update(self.accounts.entry(account.to_string()).or_default()),
        }
    }
}

/// A job reconstructed from the log. Its xRSL sits in the text buffer
/// of the [`JobRows`] chunk that holds the row: read it through the
/// table, as [`Job::rsl`].
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredJob {
    /// Original job id.
    pub job_id: u64,
    /// Owner and account (one shared copy per distinct pair).
    pub(crate) principal: Arc<Principal>,
    /// Terminal state, if the job finished before the crash.
    pub finished: Option<(JobStateCode, Option<i32>)>,
}

const _: () = assert!(JobRows::ROW_BYTES <= 40);

impl RecoveredJob {
    /// Owner DN string.
    pub fn owner(&self) -> &str {
        self.principal.owner()
    }

    /// Local account.
    pub fn account(&self) -> &str {
        self.principal.account()
    }
}

impl Keyed for RecoveredJob {
    fn key(&self) -> u64 {
        self.job_id
    }
}

/// A job table: rows in id order, each with its xRSL, in chunks that
/// copies share (see [`Chunked`]).
pub type JobRows = Chunked<RecoveredJob>;

/// A row of a [`JobRows`] with its xRSL, where the table holds them.
pub type Job<'a> = Entry<'a, RecoveredJob>;

impl<'a> Job<'a> {
    /// The xRSL the job was submitted with.
    pub fn rsl(&self) -> &'a str {
        self.text()
    }
}

/// Everything recovery needs from a log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveredState {
    /// Highest epoch seen (the restarted service uses `epoch + 1`).
    pub last_epoch: u64,
    /// Highest job id seen (ids continue from here).
    pub last_job_id: u64,
    /// All jobs, in id order — a job is found by binary search, with no
    /// index beside the table.
    pub jobs: JobRows,
}

impl RecoveredState {
    /// Rebuild from events (a checkpoint event replaces everything before
    /// it).
    pub fn from_events(events: &[WalEvent]) -> RecoveredState {
        CheckpointState::from_events(events).state
    }

    /// Jobs that were in flight when the service died — the ones restart
    /// must resubmit.
    pub fn unfinished(&self) -> Vec<Job<'_>> {
        self.jobs.iter().filter(|j| j.finished.is_none()).collect()
    }
}

/// Per-account usage derived from the log — the paper's "simple Grid
/// accounting".
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AccountUsage {
    /// Jobs submitted.
    pub submitted: u64,
    /// Jobs that finished successfully.
    pub completed: u64,
    /// Jobs that failed or were cancelled.
    pub failed: u64,
    /// Total wall seconds of finished jobs.
    pub wall_seconds: f64,
    /// Information queries served.
    pub info_queries: u64,
}

#[cfg(test)]
mod tests {
    use super::super::event::fixtures::sample_events;
    use super::*;

    #[test]
    fn recovery_finds_unfinished_jobs() {
        let state = RecoveredState::from_events(&sample_events());
        assert_eq!(state.last_epoch, 1);
        assert_eq!(state.last_job_id, 2);
        assert_eq!(state.jobs.len(), 2);
        let unfinished = state.unfinished();
        assert_eq!(unfinished.len(), 1);
        assert_eq!(unfinished[0].job_id, 2);
        assert_eq!(unfinished[0].account(), "bob");
        assert_eq!(unfinished[0].owner(), "/O=Grid/CN=Bob");
        // Job 1 finished before the crash.
        let done = Some((JobStateCode::Done, Some(0)));
        assert_eq!(state.jobs.find(1).unwrap().finished, done);
    }

    #[test]
    fn accounting_per_account() {
        let mut events = sample_events();
        events.push(WalEvent::Finished {
            job_id: 2,
            state: JobStateCode::Failed,
            exit_code: Some(3),
            wall_seconds: 0.75,
        });
        let summary = CheckpointState::from_events(&events).accounts;
        let alice = &summary["alice"];
        assert_eq!(alice.submitted, 1);
        assert_eq!(alice.completed, 1);
        assert_eq!(alice.failed, 0);
        assert!((alice.wall_seconds - 1.25).abs() < 1e-9);
        let bob = &summary["bob"];
        assert_eq!(bob.submitted, 1);
        assert_eq!(bob.failed, 1);
    }

    #[test]
    fn accounting_counts_info_queries() {
        let events = vec![
            WalEvent::InfoQueried {
                owner: "/O=Grid/CN=Alice".to_string(),
                account: "alice".to_string(),
                keywords: "Memory".to_string(),
            },
            WalEvent::InfoQueried {
                owner: "/O=Grid/CN=Alice".to_string(),
                account: "alice".to_string(),
                keywords: "CPU,CPULoad".to_string(),
            },
        ];
        let summary = CheckpointState::from_events(&events).accounts;
        assert_eq!(summary["alice"].info_queries, 2);
        assert_eq!(summary["alice"].submitted, 0);
    }

    #[test]
    fn epoch_tracking_across_restarts() {
        let events = vec![
            WalEvent::ServiceStarted { epoch: 1 },
            WalEvent::ServiceStarted { epoch: 2 },
            WalEvent::ServiceStarted { epoch: 3 },
        ];
        assert_eq!(RecoveredState::from_events(&events).last_epoch, 3);
    }

    #[test]
    fn a_pool_holds_one_principal_per_pair() {
        let mut names = NamePool::default();
        let alice = names.intern("/O=Grid/CN=Alice", "alice");
        assert!(Arc::ptr_eq(
            &alice,
            &names.intern("/O=Grid/CN=Alice", "alice")
        ));
        // Either half differing is another principal.
        let other_account = names.intern("/O=Grid/CN=Alice", "bob");
        let other_owner = names.intern("/O=Grid/CN=Bob", "alice");
        assert!(!Arc::ptr_eq(&alice, &other_account));
        assert!(!Arc::ptr_eq(&alice, &other_owner));
        assert_eq!(
            (other_owner.owner(), other_owner.account()),
            ("/O=Grid/CN=Bob", "alice")
        );
        assert_eq!(names.0.values().map(Vec::len).sum::<usize>(), 3);
    }
}
