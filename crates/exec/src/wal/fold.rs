//! The fold: what the log amounts to — job table, high-water ids,
//! per-account usage. One implementation serves the committer, recovery
//! and [`CheckpointState::from_events`], so a recovered state cannot
//! drift from a live one.

use super::event::WalEvent;
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
                self.state.jobs.insert(RecoveredJob {
                    job_id: *job_id,
                    rsl: rsl.as_str().into(),
                    principal: names.intern(owner, account),
                    finished: None,
                });
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

/// A job reconstructed from the log.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredJob {
    /// Original job id.
    pub job_id: u64,
    /// The xRSL it was submitted with.
    pub rsl: Box<str>,
    /// Owner and account (one shared copy per distinct pair).
    pub(crate) principal: Arc<Principal>,
    /// Terminal state, if the job finished before the crash.
    pub finished: Option<(JobStateCode, Option<i32>)>,
}

const _: () = assert!(std::mem::size_of::<RecoveredJob>() <= 48);

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

/// Rows per chunk of a [`JobRows`].
const CHUNK: usize = 512;

/// A new chunk holding `row`, with room for a full one.
fn chunk_of(row: RecoveredJob) -> Vec<RecoveredJob> {
    let mut chunk = Vec::with_capacity(CHUNK);
    chunk.push(row);
    chunk
}

/// A job table: rows in id order, held in chunks of up to 512 that
/// copies share. A copy shares its chunks; a write copies one — the
/// chunk it lands in, and only if a copy still shares it, so the live
/// fold, which nothing shares, never copies.
#[derive(Debug, Clone, Default)]
pub struct JobRows {
    /// No chunk is empty; every row of a chunk sorts before every row of
    /// the next. Duplicate ids (a damaged log) sit in insertion order.
    chunks: Vec<Arc<Vec<RecoveredJob>>>,
}

/// The rows of a [`JobRows`], in id order.
pub type Rows<'a> = std::iter::FlatMap<
    std::slice::Iter<'a, Arc<Vec<RecoveredJob>>>,
    &'a Vec<RecoveredJob>,
    fn(&'a Arc<Vec<RecoveredJob>>) -> &'a Vec<RecoveredJob>,
>;

impl JobRows {
    /// How many rows.
    pub fn len(&self) -> usize {
        self.chunks.iter().map(|chunk| chunk.len()).sum()
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Every row, in id order.
    pub fn iter(&self) -> Rows<'_> {
        self.chunks.iter().flat_map(|chunk| chunk)
    }

    /// `job_id`'s row, found by binary search. (Were a damaged log to
    /// name an id twice, the row inserted last.)
    pub fn find(&self, job_id: u64) -> Option<&RecoveredJob> {
        let (k, at) = self.last_up_to(job_id)?;
        let row = &self.chunks[k][at];
        (row.job_id == job_id).then_some(row)
    }

    /// `job_id`'s row, to change; its chunk is copied first if a copy of
    /// the table shares it.
    pub(crate) fn find_mut(&mut self, job_id: u64) -> Option<&mut RecoveredJob> {
        let (k, at) = self.last_up_to(job_id)?;
        if self.chunks[k][at].job_id != job_id {
            return None;
        }
        Some(&mut Arc::make_mut(&mut self.chunks[k])[at])
    }

    /// Put `row` after every row whose id is not above its own. Ids are
    /// allocated in order and all but always committed in order, so this
    /// is a push; racing submitters land a few places apart, and a
    /// checkpoint written in commit order loads in id order.
    pub(crate) fn insert(&mut self, row: RecoveredJob) {
        let (k, at) = match self.last_up_to(row.job_id) {
            Some((k, at)) => (k, at + 1),
            None => (0, 0),
        };
        let Some(chunk) = self.chunks.get(k) else {
            return self.chunks.push(Arc::new(chunk_of(row)));
        };
        if chunk.len() < CHUNK {
            return Arc::make_mut(&mut self.chunks[k]).insert(at, row);
        }
        if self
            .chunks
            .get(k + 1)
            .is_some_and(|next| next.len() == CHUNK)
        {
            // Two full chunks in a row: the first splits in two.
            let rows = Arc::make_mut(&mut self.chunks[k]);
            let mut tail = Vec::with_capacity(CHUNK);
            tail.extend(rows.drain(CHUNK / 2..));
            if at <= CHUNK / 2 {
                rows.insert(at, row);
            } else {
                tail.insert(at - CHUNK / 2, row);
            }
            return self.chunks.insert(k + 1, Arc::new(tail));
        }
        // A full chunk passes its greatest row on to the next chunk, or to
        // a new last one: appends a few places out of order still leave
        // every chunk but the last full.
        let spill = if at == CHUNK {
            row
        } else {
            // In place: the chunk never outgrows its buffer.
            let rows = Arc::make_mut(&mut self.chunks[k]);
            let greatest = std::mem::replace(&mut rows[CHUNK - 1], row);
            rows[at..].rotate_right(1);
            greatest
        };
        match self.chunks.get_mut(k + 1) {
            Some(next) => Arc::make_mut(next).insert(0, spill),
            None => self.chunks.push(Arc::new(chunk_of(spill))),
        }
    }

    /// Where the last row with an id up to `job_id` is: chunk and index.
    fn last_up_to(&self, job_id: u64) -> Option<(usize, usize)> {
        let k = self
            .chunks
            .partition_point(|chunk| chunk[0].job_id <= job_id)
            .checked_sub(1)?;
        // Chunk `k` starts at or below `job_id`: `at` is at least 1.
        let at = self.chunks[k].partition_point(|row| row.job_id <= job_id);
        Some((k, at - 1))
    }
}

/// Equal rows, however they are chunked.
impl PartialEq for JobRows {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl<'a> IntoIterator for &'a JobRows {
    type Item = &'a RecoveredJob;
    type IntoIter = Rows<'a>;

    fn into_iter(self) -> Rows<'a> {
        self.iter()
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

    fn row(job_id: u64, tag: usize) -> RecoveredJob {
        RecoveredJob {
            job_id,
            rsl: tag.to_string().into(),
            principal: NamePool::default().intern("/O=Grid/CN=Rows", "rows"),
            finished: None,
        }
    }

    /// A table of `n` rows inserted in id order, tagged with their ids.
    fn in_order(n: u64) -> JobRows {
        let mut rows = JobRows::default();
        for id in 1..=n {
            rows.insert(row(id, id as usize));
        }
        rows
    }

    /// A copy shares every chunk; a write to the copy copies the one
    /// chunk it lands in — its 512 texts with it — and the original
    /// sees none of it.
    #[test]
    fn a_copy_shares_its_chunks_and_a_write_copies_one() {
        let a = in_order(3 * CHUNK as u64 + 7);
        assert_eq!(a.chunks.len(), 4);
        assert!(a.chunks[..3].iter().all(|chunk| chunk.len() == CHUNK));
        let mut b = a.clone();
        let shared = |a: &JobRows, b: &JobRows| -> Vec<bool> {
            let pairs = a.chunks.iter().zip(&b.chunks);
            pairs.map(|(x, y)| Arc::ptr_eq(x, y)).collect()
        };
        assert_eq!(shared(&a, &b), [true; 4]);

        b.find_mut(CHUNK as u64 + 3).unwrap().finished = Some((JobStateCode::Done, Some(0)));
        assert_eq!(shared(&a, &b), [true, false, true, true]);
        assert!(a.find(CHUNK as u64 + 3).unwrap().finished.is_none());
        let copied = &b.chunks[1];
        assert!(!std::ptr::eq(&*copied[0].rsl, &*a.chunks[1][0].rsl));

        // A write to the tail — the next submission — copies the tail.
        b.insert(row(4 * CHUNK as u64, 0));
        assert_eq!(shared(&a, &b), [true, false, true, false]);
        assert_eq!((a.len(), b.len()), (3 * CHUNK + 7, 3 * CHUNK + 8));
        assert!(a.find(4 * CHUNK as u64).is_none());
        assert!(b.find(4 * CHUNK as u64).is_some());

        // The original, unshared again where the copy wrote, writes in
        // place.
        let mut a = a;
        let before = Arc::as_ptr(&a.chunks[1]);
        a.find_mut(CHUNK as u64 + 3).unwrap().finished = Some((JobStateCode::Failed, None));
        assert_eq!(Arc::as_ptr(&a.chunks[1]), before);
    }

    /// A row a place late at a full chunk — the last, or one the next
    /// has room behind — pushes that chunk's greatest row on, so every
    /// chunk but the last stays full and none outgrows its buffer.
    #[test]
    fn a_late_row_at_a_full_chunk_keeps_the_chunks_full() {
        let n = CHUNK as u64;
        // Job n arrives after job n + 1, which filled the last chunk; then
        // after n + 1 and n + 2, when the full chunk is no longer the last.
        for arrivals in [vec![n + 1, n], vec![n + 1, n + 2, n]] {
            let mut rows = in_order(n - 1);
            for &id in &arrivals {
                rows.insert(row(id, 0));
            }
            let lens: Vec<usize> = rows.chunks.iter().map(|c| c.len()).collect();
            assert_eq!(lens, [CHUNK, arrivals.len() - 1]);
            assert!(rows
                .iter()
                .map(|r| r.job_id)
                .eq(1..=n - 1 + arrivals.len() as u64));
            assert!(rows.chunks.iter().all(|c| c.capacity() == CHUNK));
        }
    }

    /// Against a sorted `Vec`: every sequence of inserts leaves the
    /// same rows in the same order, and `find` / `find_mut` agree with
    /// a scan for the row inserted last.
    mod model {
        use super::*;
        use proptest::prelude::*;

        /// How ids arrive: in order; a few places out of order (racing
        /// submitters, and always the row that would fill a chunk after
        /// the next one); fully shuffled (an old commit-order
        /// checkpoint); drawn with repeats (a damaged log).
        fn ids(arrival: u8, n: usize, seed: u64) -> Vec<u64> {
            let mut x = seed | 1;
            let mut next = move |bound: usize| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % bound as u64) as usize
            };
            let mut ids: Vec<u64> = (1..=n as u64).collect();
            match arrival {
                0 => {}
                1 => {
                    for i in 1..n {
                        if next(8) == 0 {
                            let back = 1 + next(4.min(i));
                            ids.swap(i, i - back);
                        }
                    }
                    for i in (CHUNK..n).step_by(CHUNK) {
                        ids.swap(i - 1, i);
                    }
                }
                2 => {
                    for i in (1..n).rev() {
                        ids.swap(i, next(i + 1));
                    }
                }
                _ => {
                    let range = 1 + n / 3;
                    ids = (0..n).map(|_| next(range) as u64).collect();
                }
            }
            ids
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            #[test]
            fn job_rows_are_a_sorted_vec(
                arrival in 0u8..4,
                n in 0usize..1800,
                seed in any::<u64>(),
            ) {
                let mut rows = JobRows::default();
                let mut model: Vec<RecoveredJob> = Vec::new();
                for (tag, id) in ids(arrival, n, seed).into_iter().enumerate() {
                    rows.insert(row(id, tag));
                    let at = model.partition_point(|r| r.job_id <= id);
                    model.insert(at, row(id, tag));
                }
                prop_assert_eq!(rows.len(), model.len());
                prop_assert!(rows.iter().eq(model.iter()));
                prop_assert!((&rows).into_iter().eq(&model));
                prop_assert!(rows.chunks.iter().all(|c| !c.is_empty() && c.len() <= CHUNK));
                // No chunk outgrows its buffer, and rows arriving nearly
                // in order leave every chunk but the last full.
                prop_assert!(rows.chunks.iter().all(|c| c.capacity() == CHUNK));
                if arrival <= 1 {
                    let full = rows.chunks.len().saturating_sub(1);
                    prop_assert!(rows.chunks[..full].iter().all(|c| c.len() == CHUNK));
                }
                let top = model.last().map_or(0, |r| r.job_id);
                for id in 0..=top + 1 {
                    let want = model.iter().rev().find(|r| r.job_id == id);
                    prop_assert_eq!(rows.find(id), want);
                    let end = Some((JobStateCode::Done, Some(id as i32)));
                    if let Some(found) = rows.find_mut(id) {
                        found.finished = end;
                    }
                    if let Some(at) = model.iter().rposition(|r| r.job_id == id) {
                        model[at].finished = end;
                    }
                }
                prop_assert!(rows.iter().eq(model.iter()));
            }
        }
    }
}
