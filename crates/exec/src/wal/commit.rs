//! The log itself: group commit, the relaxed record path, the checkpoint
//! policy, read-only degradation and the information-query counts, over
//! one sink and one fold that `exec.wal.io` owns together.

use super::event::WalEvent;
use super::fold::{CheckpointState, NamePool, RecoveredJob};
use super::frame::RecoveryStats;
use super::sink::FrameWal;
use super::storage::MemStorage;
use infogram_sim::metrics::MetricSet;
use infogram_sim::SimTime;
use parking_lot::{lock_class, Condvar, Mutex};
use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a commit did not make it to durable storage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// The sink failed while flushing the batch containing this commit.
    Io(String),
    /// The log is in read-only degradation after a recent failure; retry
    /// after the hint.
    ReadOnly {
        /// Milliseconds until the log will probe the sink again.
        retry_after_ms: u64,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(msg) => write!(f, "wal write failed: {msg}"),
            WalError::ReadOnly { retry_after_ms } => {
                write!(f, "wal read-only; retry-after-ms={retry_after_ms}")
            }
        }
    }
}

/// Tuning for the logging service.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Rotate + checkpoint once this many bytes were appended after the
    /// active segment's head checkpoint.
    pub segment_max_bytes: u64,
    /// Checkpoint after this many events even if the segment is small.
    pub checkpoint_every_events: u64,
    /// How long the log stays read-only after a sink failure before the
    /// next commit probes the sink again.
    pub retry_after: Duration,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            segment_max_bytes: 1024 * 1024,
            checkpoint_every_events: 4096,
            retry_after: Duration::from_secs(1),
        }
    }
}

#[derive(Default)]
struct CommitQueue {
    /// Payloads waiting for a leader, paired with their events for the
    /// post-flush fold.
    buf: Vec<(String, WalEvent)>,
    /// Total payloads ever enqueued; a committer's ticket is the value
    /// after its own enqueue.
    enqueued: u64,
    /// Total payloads taken into flush batches.
    taken: u64,
    /// Tickets ≤ this are durable.
    durable: u64,
    /// A leader is currently flushing (queue lock released).
    flushing: bool,
    /// Failed batches as `(lo, hi]` ticket ranges; tickets in a failed
    /// range get the error. Bounded: the degraded latch throttles new
    /// commits, so ranges cannot pile up unboundedly.
    failures: VecDeque<(u64, u64, String)>,
}

/// Everything a write touches, under the one lock (`exec.wal.io`) that
/// serializes writes: the sink and the fold of what went into it.
struct WalIo {
    sink: FrameWal,
    fold: CheckpointState,
    /// The principals the fold's rows share.
    names: NamePool,
    events_since_ckpt: u64,
    /// Information queries counted per account and not yet settled into
    /// `fold.accounts` — see [`Wal::info_query_counter`]. Accounts are a
    /// handful.
    info_queries: Vec<(String, Arc<AtomicU64>)>,
}

impl WalIo {
    /// Move the pending query counts into the fold. An increment racing
    /// the `swap` lands on one side of it: counted now or next time.
    fn settle_info_queries(&mut self) {
        for (account, pending) in &self.info_queries {
            let n = pending.swap(0, Ordering::Relaxed);
            if n > 0 {
                self.fold.count_info_queries(account, n);
            }
        }
    }
}

struct WalTelemetry {
    append: Arc<infogram_sim::metrics::Histogram>,
    group_size: Arc<infogram_sim::metrics::Recorder>,
    fsyncs: Arc<infogram_sim::metrics::Counter>,
    append_errors: Arc<infogram_sim::metrics::Counter>,
    dropped_records: Arc<infogram_sim::metrics::Counter>,
    checkpoints: Arc<infogram_sim::metrics::Counter>,
    segments_reclaimed: Arc<infogram_sim::metrics::Counter>,
    read_only: Arc<infogram_sim::metrics::Gauge>,
    checkpoint_age: Arc<infogram_sim::metrics::Gauge>,
}

/// The logging service handle used by the engine.
pub struct Wal {
    cfg: WalConfig,
    queue: Mutex<CommitQueue>,
    queue_cv: Condvar,
    io: Mutex<WalIo>,
    /// `Some(not_before)` while read-only degraded.
    degraded: Mutex<Option<SimTime>>,
    telemetry: Option<WalTelemetry>,
    load_stats: RecoveryStats,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal").finish_non_exhaustive()
    }
}

impl Wal {
    /// A log over the given sink with default tuning.
    pub fn new(sink: Box<FrameWal>) -> Self {
        Self::with_config(sink, WalConfig::default())
    }

    /// A log over the given sink with explicit tuning. (Boxed because the
    /// frozen `benchmark/` passes a `Box`; there is nothing `dyn` in it.)
    #[allow(clippy::boxed_local)]
    pub fn with_config(sink: Box<FrameWal>, cfg: WalConfig) -> Self {
        let mut fold = CheckpointState::default();
        let mut names = NamePool::default();
        let stats = sink.load(&mut |ev, stats| {
            stats.events_replayed += 1;
            stats.events_since_checkpoint += 1;
            // A decoded checkpoint is moved into the fold, not cloned.
            if let WalEvent::Checkpoint(ck) = ev {
                fold = *ck;
                stats.events_since_checkpoint = 0;
                stats.checkpoint_used = true;
            } else {
                fold.apply(&ev, &mut names);
            }
        });
        Wal {
            cfg,
            queue: Mutex::with_class(CommitQueue::default(), lock_class!("exec.wal.queue")),
            queue_cv: Condvar::with_class(lock_class!("exec.wal.commit_cv")),
            io: Mutex::with_class(
                WalIo {
                    sink: *sink,
                    fold,
                    names,
                    events_since_ckpt: stats.events_since_checkpoint,
                    info_queries: Vec::new(),
                },
                lock_class!("exec.wal.io"),
            ),
            degraded: Mutex::with_class(None, lock_class!("exec.wal.degraded")),
            telemetry: None,
            load_stats: stats,
        }
    }

    /// A log over a fresh [`MemStorage`]: the same frames, checkpoints and
    /// recovery as a file log, on a disk that lives as long as the log.
    pub fn in_memory() -> Self {
        // lint:allow(unwrap) — a fresh `MemStorage` cannot fail to open
        let sink = FrameWal::open(MemStorage::new()).expect("fresh MemStorage opens");
        Wal::new(Box::new(sink))
    }

    /// What recovery salvaged when this log was opened.
    pub fn recovery_stats(&self) -> &RecoveryStats {
        &self.load_stats
    }

    /// The configured read-only backoff, in milliseconds (retry hint for
    /// errors discovered mid-flush).
    pub fn retry_after_ms(&self) -> u64 {
        self.cfg.retry_after.as_millis() as u64
    }

    /// Read the folded log (job table + accounting) as of the last
    /// write and the last counted query — what a checkpoint would
    /// serialize right now — under the I/O lock, without copying it.
    /// `read` must not call back into the log.
    pub fn with_fold<R>(&self, read: impl FnOnce(&CheckpointState) -> R) -> R {
        let mut io = self.io.lock();
        io.settle_info_queries();
        read(&io.fold)
    }

    /// The counter `account`'s information queries are added to. The log
    /// is for jobs (§6: what it takes to restart them); a query is one
    /// relaxed `fetch_add` on this handle, which its connection takes once
    /// — nothing written, and no lock after this call. What has
    /// accumulated moves into `accounts[account].info_queries` whenever
    /// the fold is read or a checkpoint is cut, so the count is as
    /// durable as the last checkpoint.
    pub fn info_query_counter(&self, account: &str) -> Arc<AtomicU64> {
        let mut io = self.io.lock();
        if let Some((_, counter)) = io.info_queries.iter().find(|(a, _)| a == account) {
            return Arc::clone(counter);
        }
        let counter = Arc::new(AtomicU64::new(0));
        io.info_queries
            .push((account.to_string(), Arc::clone(&counter)));
        counter
    }

    /// Read the fold's row for one job, under the I/O lock, without
    /// copying it. `read` must not call back into the log.
    pub fn with_job<R>(&self, job_id: u64, read: impl FnOnce(&RecoveredJob) -> R) -> Option<R> {
        self.io.lock().fold.state.jobs.find(job_id).map(read)
    }

    /// Attach a telemetry handle. Publishes the recovery damage gauges
    /// immediately; subsequent writes feed `wal.append`, `wal.group_size`,
    /// `wal.fsyncs`, `wal.append_errors`, `wal.checkpoints`,
    /// `wal.segments_reclaimed`, `wal.read_only`, `wal.checkpoint_age`.
    pub fn set_telemetry(&mut self, telemetry: MetricSet) {
        telemetry
            .gauge("wal.corrupt_frames")
            .set(self.load_stats.corrupt_frames as f64);
        telemetry
            .gauge("wal.truncated_tail_bytes")
            .set(self.load_stats.truncated_tail_bytes as f64);
        let t = WalTelemetry {
            append: telemetry.histogram("wal.append"),
            group_size: telemetry.recorder("wal.group_size"),
            fsyncs: telemetry.counter("wal.fsyncs"),
            append_errors: telemetry.counter("wal.append_errors"),
            dropped_records: telemetry.counter("wal.dropped_records"),
            checkpoints: telemetry.counter("wal.checkpoints"),
            segments_reclaimed: telemetry.counter("wal.segments_reclaimed"),
            read_only: telemetry.gauge("wal.read_only"),
            checkpoint_age: telemetry.gauge("wal.checkpoint_age"),
        };
        t.read_only.set(0.0);
        t.checkpoint_age
            .set(self.load_stats.events_since_checkpoint as f64);
        self.telemetry = Some(t);
    }

    /// If the log is in read-only degradation at `now`, the retry hint in
    /// milliseconds.
    pub fn read_only_hint(&self, now: SimTime) -> Option<u64> {
        let g = self.degraded.lock();
        match *g {
            Some(not_before) if now < not_before => {
                Some((not_before.since(now).as_millis() as u64).max(1))
            }
            _ => None,
        }
    }

    /// A write failed: count it and go read-only for `retry_after`.
    fn sink_failed(&self, now: SimTime) {
        *self.degraded.lock() = Some(now.plus(self.cfg.retry_after));
        if let Some(t) = &self.telemetry {
            t.append_errors.incr();
            t.read_only.set(1.0);
        }
    }

    fn exit_read_only(&self) {
        let mut g = self.degraded.lock();
        if g.take().is_some() {
            if let Some(t) = &self.telemetry {
                t.read_only.set(0.0);
            }
        }
    }

    /// Durably record `events` (group commit). Blocks until the batch
    /// containing them is flushed and fsynced — only then may the caller
    /// ack. Never call while holding engine locks: the ticket wait is a
    /// condvar blocking point.
    ///
    /// While degraded the fast path returns [`WalError::ReadOnly`]
    /// without touching the sink; after the backoff the next commit
    /// probes the sink again.
    pub fn commit(&self, now: SimTime, events: &[WalEvent]) -> Result<(), WalError> {
        if events.is_empty() {
            return Ok(());
        }
        if let Some(retry_after_ms) = self.read_only_hint(now) {
            if let Some(t) = &self.telemetry {
                t.dropped_records.incr();
            }
            return Err(WalError::ReadOnly { retry_after_ms });
        }
        let items: Vec<(String, WalEvent)> =
            events.iter().map(|e| (e.encode(), e.clone())).collect();
        let mut q = self.queue.lock();
        q.enqueued += items.len() as u64;
        let my = q.enqueued;
        q.buf.extend(items);
        loop {
            // Failed ranges first: `durable` jumps past a failed batch
            // when a later one succeeds, so the order matters.
            if let Some(msg) = q
                .failures
                .iter()
                .find(|(lo, hi, _)| *lo < my && my <= *hi)
                .map(|(_, _, m)| m.clone())
            {
                return Err(WalError::Io(msg));
            }
            if q.durable >= my {
                return Ok(());
            }
            if !q.flushing {
                q.flushing = true;
                let batch = std::mem::take(&mut q.buf);
                let lo = q.taken;
                q.taken += batch.len() as u64;
                let hi = q.taken;
                drop(q);
                let payloads: Vec<&str> = batch.iter().map(|(p, _)| p.as_str()).collect();
                let res = self.write(&payloads, batch.iter().map(|(_, ev)| ev), true);
                q = self.queue.lock();
                q.flushing = false;
                match res {
                    Ok(()) => {
                        q.durable = q.durable.max(hi);
                        self.exit_read_only();
                    }
                    Err(e) => {
                        q.failures.push_back((lo, hi, e.to_string()));
                        if q.failures.len() > 64 {
                            q.failures.pop_front();
                        }
                        self.sink_failed(now);
                    }
                }
                self.queue_cv.notify_all();
                continue;
            }
            self.queue_cv.wait(&mut q);
        }
    }

    /// The one write, durable (the group-commit leader's batch, one
    /// fsync) or relaxed: append to the sink, fold every event, cut a
    /// checkpoint if one is due. Nothing is folded unless all of it was
    /// appended; what a failure means is the caller's to say.
    fn write<'a>(
        &self,
        payloads: &[&str],
        events: impl Iterator<Item = &'a WalEvent>,
        durable: bool,
    ) -> io::Result<()> {
        // lint:allow(direct-clock) — times the real write (+ fsync) I/O
        // into the `wal.append` histogram; virtual time would read as zero
        let start = Instant::now();
        let mut guard = self.io.lock();
        let io = &mut *guard;
        io.sink.append_batch(payloads, durable)?;
        for ev in events {
            io.fold.apply(ev, &mut io.names);
            io.events_since_ckpt += 1;
        }
        if let Some(t) = &self.telemetry {
            t.append.record(start.elapsed());
            if durable {
                t.group_size.record(payloads.len() as f64);
                t.fsyncs.incr();
            }
            t.checkpoint_age.set(io.events_since_ckpt as f64);
        }
        self.maybe_checkpoint(io);
        Ok(())
    }

    /// The checkpoint policy: one is due once `segment_max_bytes` were
    /// appended after the newest one, or `checkpoint_every_events` events.
    fn maybe_checkpoint(&self, io: &mut WalIo) {
        let due = io.sink.tail_len() >= self.cfg.segment_max_bytes
            || io.events_since_ckpt >= self.cfg.checkpoint_every_events;
        if !due {
            return;
        }
        io.settle_info_queries();
        match io.sink.install_checkpoint(&io.fold) {
            Ok(reclaimed) => {
                io.events_since_ckpt = 0;
                if let Some(t) = &self.telemetry {
                    t.checkpoints.incr();
                    t.fsyncs.incr();
                    t.segments_reclaimed.add(reclaimed);
                    t.checkpoint_age.set(0.0);
                }
            }
            Err(_) => {
                // Not fatal: old segments are intact; retry on a later
                // write.
                if let Some(t) = &self.telemetry {
                    t.append_errors.incr();
                }
            }
        }
    }

    /// Record a non-critical event (relaxed: append without fsync, no
    /// group commit). Used for observational records — non-terminal state
    /// changes — where a crash losing the tail is acceptable. While
    /// degraded, and when its own append fails (which also flips the log
    /// read-only), the record is dropped and counted in
    /// `wal.dropped_records`.
    pub fn record(&self, now: SimTime, event: &WalEvent) {
        if self.read_only_hint(now).is_none() {
            let payload = event.encode();
            if self
                .write(&[payload.as_str()], std::iter::once(event), false)
                .is_ok()
            {
                return;
            }
            self.sink_failed(now);
        }
        if let Some(t) = &self.telemetry {
            t.dropped_records.incr();
        }
    }

    /// Load and decode every recoverable event, skipping corrupt records.
    pub fn events(&self) -> Vec<WalEvent> {
        let mut events = Vec::new();
        self.io.lock().sink.load(&mut |ev, _| events.push(ev));
        events
    }
}

/// The engine shares one `Wal` across its connection threads.
const _: fn() = || {
    fn shared<T: Send + Sync>() {}
    shared::<Wal>();
};

#[cfg(test)]
mod tests {
    use super::super::event::fixtures::sample_events;
    use super::super::fold::JobRows;
    use super::super::frame::{frame_batch, CheckpointFrame};
    use super::super::{FileWal, FrameWal, MemStorage};
    use super::*;
    use infogram_proto::message::JobStateCode;
    use infogram_sim::fault::Plan;

    fn commit_all(wal: &Wal, events: &[WalEvent]) {
        for ev in events {
            wal.commit(SimTime::ZERO, std::slice::from_ref(ev)).unwrap();
        }
    }

    #[test]
    fn in_memory_log_roundtrip() {
        let wal = Wal::in_memory();
        commit_all(&wal, &sample_events());
        assert_eq!(wal.events(), sample_events());
    }

    #[test]
    fn record_is_read_your_writes() {
        let wal = Wal::in_memory();
        wal.record(SimTime::ZERO, &sample_events()[0]);
        wal.record(SimTime::ZERO, &sample_events()[1]);
        assert_eq!(wal.events().len(), 2);
        assert_eq!(wal.with_fold(|fold| fold.state.jobs.len()), 1);
    }

    #[test]
    fn file_wal_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("infogram-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test-survive.log");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        {
            let wal = Wal::new(Box::new(FileWal::open(&path).unwrap()));
            commit_all(&wal, &sample_events());
        }
        let wal = Wal::new(Box::new(FileWal::open(&path).unwrap()));
        assert_eq!(wal.events(), sample_events());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn frame_wal_recovers_from_mem_storage_crash() {
        let storage = MemStorage::new();
        let cfg = WalConfig::default();
        {
            let wal = Wal::with_config(
                Box::new(FrameWal::open(storage.clone()).unwrap()),
                cfg.clone(),
            );
            commit_all(&wal, &sample_events());
            // One relaxed record that is appended but never synced.
            wal.record(
                SimTime::ZERO,
                &WalEvent::StateChanged {
                    job_id: 2,
                    state: JobStateCode::Active,
                },
            );
        }
        storage.crash();
        storage.restart();
        let wal = Wal::with_config(Box::new(FrameWal::open(storage).unwrap()), cfg);
        // Committed events survive; the unsynced relaxed record is gone.
        assert_eq!(wal.events(), sample_events());
    }

    #[test]
    fn checkpoint_bounds_replay_and_reclaims_segments() {
        let storage = MemStorage::new();
        let cfg = WalConfig {
            segment_max_bytes: 256,
            checkpoint_every_events: 10_000,
            ..WalConfig::default()
        };
        let wal = Wal::with_config(
            Box::new(FrameWal::open(storage.clone()).unwrap()),
            cfg.clone(),
        );
        for i in 1..=50u64 {
            wal.commit(
                SimTime::ZERO,
                &[
                    WalEvent::Submitted {
                        job_id: i,
                        rsl: format!("(executable=job{i})"),
                        owner: "/O=Grid/CN=Alice".to_string(),
                        account: "alice".to_string(),
                    },
                    WalEvent::Finished {
                        job_id: i,
                        state: JobStateCode::Done,
                        exit_code: Some(0),
                        wall_seconds: 1.0,
                    },
                ],
            )
            .unwrap();
        }
        drop(wal);
        let wal = Wal::with_config(Box::new(FrameWal::open(storage.clone()).unwrap()), cfg);
        let stats = wal.recovery_stats().clone();
        assert!(stats.checkpoint_used, "replay should start at a checkpoint");
        assert!(
            stats.events_replayed < 100,
            "checkpoint + tail, not full history (replayed {})",
            stats.events_replayed
        );
        assert!(
            stats.segments_total <= 3,
            "old segments reclaimed (have {})",
            stats.segments_total
        );
        // And the folded table is complete despite the bounded replay.
        let snap = wal.with_fold(CheckpointState::clone);
        assert_eq!(snap.state.jobs.len(), 50);
        assert_eq!(snap.state.last_job_id, 50);
        assert_eq!(snap.accounts["alice"].completed, 50);
        assert!((snap.accounts["alice"].wall_seconds - 50.0).abs() < 1e-6);
    }

    #[test]
    fn checkpoints_follow_bytes_appended_once_the_table_outgrows_a_segment() {
        let cfg = WalConfig {
            segment_max_bytes: 1024,
            checkpoint_every_events: 1_000_000,
            ..WalConfig::default()
        };
        let metrics = MetricSet::new();
        let mut wal = Wal::with_config(
            Box::new(FrameWal::open(MemStorage::new()).unwrap()),
            cfg.clone(),
        );
        wal.set_telemetry(metrics.clone());
        // A job table several segments large: every checkpoint frame
        // from here on is bigger than `segment_max_bytes` by itself.
        for job_id in 1..=64u64 {
            let submitted = WalEvent::Submitted {
                job_id,
                rsl: "&(executable=simwork)(arguments=1000)".to_string(),
                owner: "/O=Grid/CN=Alice".to_string(),
                account: "alice".to_string(),
            };
            wal.commit(SimTime::ZERO, &[submitted]).unwrap();
        }
        let table = wal.with_fold(|fold| CheckpointFrame::measure(fold).len() as u64);
        assert!(table > 4 * cfg.segment_max_bytes);

        let before = metrics.counter_value("wal.checkpoints");
        let mut appended = 0u64;
        for i in 0..400u64 {
            let event = WalEvent::StateChanged {
                job_id: 1 + i % 64,
                state: JobStateCode::Active,
            };
            appended += 8 + event.encode().len() as u64; // frame header + payload
            wal.commit(SimTime::ZERO, &[event]).unwrap();
        }
        let cut = metrics.counter_value("wal.checkpoints") - before;
        let segments = appended / cfg.segment_max_bytes;
        assert!(segments >= 4, "the appends must span several segments");
        assert!(
            (segments - 1..=segments + 1).contains(&cut),
            "400 appends of {appended} bytes should cut about {segments} checkpoints, cut {cut}"
        );
    }

    #[test]
    fn commit_fails_and_degrades_on_disk_fault() {
        let plan = Plan::new();
        plan.fail_append(0);
        let storage = MemStorage::with_plan(Some(plan));
        let cfg = WalConfig::default();
        let wal = Wal::with_config(Box::new(FrameWal::open(storage).unwrap()), cfg);
        let t0 = SimTime::ZERO;
        let err = wal.commit(t0, &[sample_events()[0].clone()]).unwrap_err();
        assert!(matches!(err, WalError::Io(_)), "got {err:?}");
        // Now degraded: fast-path rejection with a retry hint.
        let err = wal.commit(t0, &[sample_events()[0].clone()]).unwrap_err();
        match err {
            WalError::ReadOnly { retry_after_ms } => assert!(retry_after_ms > 0),
            other => panic!("expected ReadOnly, got {other:?}"),
        }
        assert!(wal.read_only_hint(t0).is_some());
        // After the backoff the next commit probes and heals.
        let later = t0.plus(Duration::from_secs(2));
        assert!(wal.read_only_hint(later).is_none());
        wal.commit(later, &[sample_events()[0].clone()]).unwrap();
        assert!(wal.read_only_hint(later).is_none());
    }

    #[test]
    fn a_failed_relaxed_append_is_dropped_and_counted() {
        let plan = Plan::new();
        plan.fail_append(0);
        let storage = MemStorage::with_plan(Some(plan));
        let metrics = MetricSet::new();
        let mut wal = Wal::new(Box::new(FrameWal::open(storage).unwrap()));
        wal.set_telemetry(metrics.clone());
        let t0 = SimTime::ZERO;
        wal.record(t0, &sample_events()[0]);
        assert_eq!(metrics.counter_value("wal.append_errors"), 1);
        assert_eq!(metrics.counter_value("wal.dropped_records"), 1);
        assert!(wal.read_only_hint(t0).is_some());
        assert!(wal.events().is_empty());
        // After the backoff the next record probes the sink and lands.
        let later = t0.plus(Duration::from_secs(2));
        wal.record(later, &sample_events()[1]);
        assert_eq!(wal.events(), [sample_events()[1].clone()]);
        assert_eq!(metrics.counter_value("wal.dropped_records"), 1);
    }

    /// Queries are counted on handles, outside every lock, while the fold
    /// is read (which settles them) and jobs cut checkpoints (which settle
    /// them too): nothing is counted twice or dropped, and a reader never
    /// sees a count go down.
    #[test]
    fn info_queries_are_counted_exactly_under_readers_and_checkpoints() {
        use crate::gram::ConnCtx;
        use std::sync::atomic::AtomicBool;
        const THREADS: u64 = 8;
        const QUERIES: u64 = 10_000;
        let cfg = WalConfig {
            checkpoint_every_events: 8,
            ..WalConfig::default()
        };
        let sink = FrameWal::open(MemStorage::new()).unwrap();
        let metrics = MetricSet::new();
        let mut wal = Wal::with_config(Box::new(sink), cfg);
        wal.set_telemetry(metrics.clone());
        let counted = |wal: &Wal, account: &str| {
            wal.with_fold(|fold| fold.accounts.get(account).map_or(0, |u| u.info_queries))
        };
        // The reader and the committer run for as long as the queriers do,
        // and for 64 rounds (8 checkpoints) at least.
        let querying = AtomicBool::new(true);
        let rounds = |round: &mut dyn FnMut(u64)| {
            let mut n = 0;
            while querying.load(Ordering::SeqCst) || n < 64 {
                n += 1;
                round(n);
            }
        };
        std::thread::scope(|s| {
            let queriers: Vec<_> = (0..THREADS)
                .map(|i| {
                    let wal = &wal;
                    s.spawn(move || {
                        let account = if i % 2 == 0 { "even" } else { "odd" };
                        let mut ctx = ConnCtx::detached();
                        for _ in 0..QUERIES {
                            ctx.count_info_query(wal, account);
                        }
                    })
                })
                .collect();
            s.spawn(|| {
                let mut last = 0;
                rounds(&mut |_| {
                    let now = counted(&wal, "even");
                    assert!(now >= last, "the count went from {last} to {now}");
                    last = now;
                })
            });
            s.spawn(|| {
                rounds(&mut |job_id| {
                    let state = JobStateCode::Active;
                    wal.commit(SimTime::ZERO, &[WalEvent::StateChanged { job_id, state }])
                        .unwrap();
                })
            });
            for q in queriers {
                q.join().unwrap();
            }
            querying.store(false, Ordering::SeqCst);
        });
        assert!(metrics.counter_value("wal.checkpoints") >= 8);
        assert_eq!(counted(&wal, "even"), THREADS / 2 * QUERIES);
        assert_eq!(counted(&wal, "odd"), THREADS / 2 * QUERIES);
        assert!(
            !wal.events()
                .iter()
                .any(|ev| matches!(ev, WalEvent::InfoQueried { .. })),
            "a counted query writes no record"
        );
    }

    #[test]
    fn fsync_failure_fails_the_commit_but_rotation_recovers() {
        let plan = Plan::new();
        plan.fail_sync(0);
        let storage = MemStorage::with_plan(Some(plan));
        let cfg = WalConfig::default();
        let wal = Wal::with_config(
            Box::new(FrameWal::open(storage.clone()).unwrap()),
            cfg.clone(),
        );
        let t0 = SimTime::ZERO;
        assert!(wal.commit(t0, &[sample_events()[0].clone()]).is_err());
        let later = t0.plus(Duration::from_secs(2));
        wal.commit(later, &[sample_events()[1].clone()]).unwrap();
        drop(wal);
        // The failed commit's bytes may exist but the successful one must
        // be recoverable after a crash.
        storage.crash();
        storage.restart();
        let wal = Wal::with_config(Box::new(FrameWal::open(storage).unwrap()), cfg);
        assert!(wal.events().contains(&sample_events()[1]));
    }

    fn submitted(job_id: u64) -> WalEvent {
        WalEvent::Submitted {
            job_id,
            rsl: format!("(executable=job{job_id})"),
            owner: "/O=Grid/CN=Alice".to_string(),
            account: "alice".to_string(),
        }
    }

    /// A checkpoint cut while rows sat in commit order (any log written
    /// before the fold kept them sorted) loads to the table in id order,
    /// and a later `Finished` finds the row that moved.
    #[test]
    fn a_checkpoint_in_commit_order_loads_in_id_order() {
        // Jobs 1, 3, 2, as a fold before ISSUE 19 wrote them.
        let row = |id: u64| {
            format!("\x1f{id}\x1f(executable=job{id})\x1f/O=Grid/CN=Alice\x1falice\x1f-\x1f-")
        };
        let payload = format!(
            "CKPT\x1f1\x1f3\x1f3\x1f1{}{}{}\x1falice\x1f3\x1f0\x1f0\x1f0\x1f0",
            row(1),
            row(3),
            row(2)
        );
        let finished = WalEvent::Finished {
            job_id: 2,
            state: JobStateCode::Failed,
            exit_code: Some(7),
            wall_seconds: 0.5,
        };
        let storage = MemStorage::new();
        storage.preload(1, frame_batch(&[&payload, &finished.encode()]));

        let wal = Wal::new(Box::new(FrameWal::open(storage).unwrap()));
        assert!(wal.recovery_stats().checkpoint_used);
        assert_eq!(wal.recovery_stats().events_since_checkpoint, 1);
        let rows = wal.with_fold(|fold| fold.state.jobs.clone());
        let ends: Vec<_> = rows.iter().map(|job| (job.job_id, job.finished)).collect();
        let failed = Some((JobStateCode::Failed, Some(7)));
        assert_eq!(ends, [(1, None), (2, failed), (3, None)]);
        assert_eq!(&*rows.find(2).unwrap().rsl, "(executable=job2)");
        assert_eq!(wal.with_job(2, |job| job.finished), Some(failed));
        assert_eq!(wal.with_job(4, |job| job.job_id), None);
        assert_eq!(wal.with_fold(|fold| fold.accounts["alice"].failed), 1);
    }

    /// Racing submitters take their ids in one order and reach the log in
    /// the other.
    #[test]
    fn submissions_committed_out_of_id_order_fold_in_id_order() {
        let wal = &Wal::in_memory();
        std::thread::scope(|s| {
            for job_id in [2, 1, 4, 3] {
                let committer = s.spawn(move || wal.commit(SimTime::ZERO, &[submitted(job_id)]));
                committer.join().unwrap().unwrap();
            }
        });
        let ids = |jobs: &JobRows| jobs.iter().map(|job| job.job_id).collect::<Vec<_>>();
        assert_eq!(wal.with_fold(|fold| ids(&fold.state.jobs)), [1, 2, 3, 4]);
        assert_eq!(
            wal.with_job(1, |job| job.rsl.to_string()).as_deref(),
            Some("(executable=job1)")
        );
        // The log keeps commit order; folding it again agrees.
        let replayed = CheckpointState::from_events(&wal.events());
        assert_eq!(ids(&replayed.state.jobs), [1, 2, 3, 4]);
        assert_eq!(replayed.state.last_job_id, 4);
    }

    #[test]
    fn recovery_skips_corrupt_lines() {
        let wal = Wal::in_memory();
        wal.record(SimTime::ZERO, &sample_events()[0]);
        wal.io
            .lock()
            .sink
            .append_batch(&["CORRUPT LINE"], false)
            .unwrap();
        wal.record(SimTime::ZERO, &sample_events()[1]);
        assert_eq!(wal.events().len(), 2);
    }
}
