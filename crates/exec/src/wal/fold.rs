//! The fold: what the log amounts to — job table, high-water ids,
//! per-account usage. One implementation serves the committer, recovery
//! and [`CheckpointState::from_events`], so a recovered state cannot
//! drift from a live one.

use super::event::WalEvent;
use infogram_proto::message::JobStateCode;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// The distinct owner / account strings of a job table — a handful of
/// values, each held once and shared by every row that names it.
#[derive(Debug, Default)]
pub(crate) struct NamePool(HashSet<Arc<str>>);

impl NamePool {
    /// The shared copy of `name`, allocated on first sight only.
    pub(crate) fn intern(&mut self, name: &str) -> Arc<str> {
        if let Some(shared) = self.0.get(name) {
            return Arc::clone(shared);
        }
        let shared: Arc<str> = Arc::from(name);
        self.0.insert(Arc::clone(&shared));
        shared
    }
}

/// The folded log: job table + per-account usage. This is both what a
/// [`WalEvent::Checkpoint`] serializes and what the running
/// [`Wal`](super::Wal) maintains incrementally so a checkpoint is cheap
/// to cut. Its strings are shared (`Arc<str>`), so a clone copies the
/// table, not the text.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckpointState {
    /// The recovered job table (epoch, last job id, jobs in order).
    pub state: RecoveredState,
    /// Per-account usage, the paper's "simple Grid accounting".
    pub accounts: BTreeMap<String, AccountUsage>,
}

impl CheckpointState {
    /// Fold one event into the snapshot. `names` is owned alongside the
    /// snapshot and only makes repeated owners and accounts free: a name
    /// it has not seen (a checkpoint brings its own) costs one more
    /// allocation, never a wrong answer.
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
                // Ids are allocated in order and all but always committed
                // in order, so this is a push; racing submitters land a
                // few places apart.
                let at = self.state.end_of(*job_id);
                self.state.jobs.insert(
                    at,
                    RecoveredJob {
                        job_id: *job_id,
                        rsl: Arc::from(rsl.as_str()),
                        owner: names.intern(owner),
                        account: names.intern(account),
                        finished: None,
                    },
                );
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
                if let Some(i) = self.state.position(*job_id) {
                    let job = &mut self.state.jobs[i];
                    if job.finished.is_none() {
                        job.finished = Some((*state, *exit_code));
                        let account = Arc::clone(&job.account);
                        self.usage(&account, |u| {
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
            WalEvent::Checkpoint(ck) => self.replace((**ck).clone()),
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

    /// Make `ck` the whole state — what applying a checkpoint event
    /// means, for a caller that owns the decoded checkpoint. Its rows are
    /// put in id order (stable, and one pass over a table that already
    /// is): a checkpoint written while rows sat in commit order loads to
    /// the same table.
    pub(super) fn replace(&mut self, ck: CheckpointState) {
        *self = ck;
        self.state.jobs.sort_by_key(|job| job.job_id);
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

/// A job reconstructed from the log.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredJob {
    /// Original job id.
    pub job_id: u64,
    /// The xRSL it was submitted with.
    pub rsl: Arc<str>,
    /// Owner DN string (one shared copy per distinct owner).
    pub owner: Arc<str>,
    /// Local account (one shared copy per distinct account).
    pub account: Arc<str>,
    /// Terminal state, if the job finished before the crash.
    pub finished: Option<(JobStateCode, Option<i32>)>,
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
    pub jobs: Vec<RecoveredJob>,
}

impl RecoveredState {
    /// Where the rows with ids up to and including `job_id` end: where
    /// its row goes, and one past where it is.
    fn end_of(&self, job_id: u64) -> usize {
        self.jobs.partition_point(|job| job.job_id <= job_id)
    }

    /// Where `job_id`'s row is. (Were a damaged log to name an id twice,
    /// the row submitted last.)
    pub(super) fn position(&self, job_id: u64) -> Option<usize> {
        let at = self.end_of(job_id).checked_sub(1)?;
        (self.jobs[at].job_id == job_id).then_some(at)
    }

    /// Rebuild from events (a checkpoint event replaces everything before
    /// it).
    pub fn from_events(events: &[WalEvent]) -> RecoveredState {
        CheckpointState::from_events(events).state
    }

    /// Jobs that were in flight when the service died — the ones restart
    /// must resubmit.
    pub fn unfinished(&self) -> Vec<&RecoveredJob> {
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
        assert_eq!(&*unfinished[0].account, "bob");
        // Job 1 finished before the crash.
        assert_eq!(state.jobs[0].finished, Some((JobStateCode::Done, Some(0))));
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
}
