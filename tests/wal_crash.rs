//! Crash-consistency properties of the checksummed WAL (DESIGN §14).
//!
//! The frame format and recovery scanner promise that a crash at *any*
//! byte boundary — and corruption of any single byte — yields a log
//! that recovers to a prefix-consistent job table:
//!
//! * **Truncate anywhere, never lose an acked job**: for every byte
//!   prefix of a real log, recovery never panics, replays exactly the
//!   frames fully contained in the prefix, and reports the torn tail.
//! * **Never resurrect a finished job**: once a `Finished` frame is
//!   durable, every longer prefix recovers that job as terminal.
//! * **Flip any byte, recover the rest**: single-byte corruption is
//!   confined — recovered jobs are always a subset of the true
//!   history with their true outcomes, and damage is counted.
//! * **The same for a checkpoint**: both sweeps run again over a segment
//!   headed by a checkpoint larger than the buffer recovery streams it
//!   through, on the simulated disk and in a file.
//! * **A reclaimed segment that comes back replays nothing**: recovery
//!   starts at the newest checkpoint, whatever older segment a crash
//!   restores.
//! * **Honest degradation on the wire**: a full disk turns submissions
//!   into `UNAVAILABLE` + `retry-after-ms=` at the gram layer (never a
//!   silent ack), and the service heals once space returns.
//! * **Recovery telemetry**: damage found during replay is visible in
//!   `(info=metrics)`.

use infogram::exec::{
    FileStorage, FrameWal, MemStorage, RecoveredState, Wal, WalConfig, WalEvent, WalStorage, IO_BUF,
};
use infogram::proto::message::{codes, JobStateCode};
use infogram::quickstart::{Sandbox, SandboxConfig};
use infogram::sim::fault::{Plan, Storm};
use infogram::sim::SimTime;
use infogram_client::ClientError;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Single huge segment, no checkpoints: the tests below reason about
/// raw byte offsets, so keep the whole history in segment 1.
fn one_segment_cfg() -> WalConfig {
    WalConfig {
        segment_max_bytes: u64::MAX,
        checkpoint_every_events: u64::MAX,
        ..WalConfig::default()
    }
}

fn wal_over(storage: &Arc<MemStorage>, cfg: WalConfig) -> Wal {
    let sink = FrameWal::open(Arc::clone(storage) as Arc<dyn WalStorage>).unwrap();
    Wal::with_config(Box::new(sink), cfg)
}

/// Commit jobs `ids` through `wal` — submitted and active, even ids
/// finished — one durable batch per job.
fn commit_jobs(wal: &Wal, ids: std::ops::RangeInclusive<u64>) {
    let commit = |evs: &[WalEvent]| wal.commit(SimTime::ZERO, evs).unwrap();
    for job_id in ids {
        commit(&[
            WalEvent::Submitted {
                job_id,
                rsl: format!("(executable=simwork)(arguments={job_id}0)"),
                owner: format!("/O=Grid/O=Globus/CN=user{}", job_id % 10),
                account: if job_id % 3 == 0 { "staff" } else { "guest" }.to_string(),
            },
            WalEvent::StateChanged {
                job_id,
                state: JobStateCode::Active,
            },
        ]);
        if job_id % 2 == 0 {
            commit(&[WalEvent::Finished {
                job_id,
                state: JobStateCode::Done,
                exit_code: Some(0),
                wall_seconds: job_id as f64,
            }]);
        }
    }
}

/// Write a representative history — eight jobs, even ids finished — and
/// return the durable log bytes.
fn scripted_log() -> Vec<u8> {
    let storage = MemStorage::new();
    let wal = wal_over(&storage, one_segment_cfg());
    wal.commit(SimTime::ZERO, &[WalEvent::ServiceStarted { epoch: 1 }])
        .unwrap();
    commit_jobs(&wal, 1..=8);
    storage.durable_bytes(1)
}

/// A segment as a restart finds it after a checkpoint: 120 jobs cut into
/// a checkpoint frame larger than the buffer recovery reads through, then
/// a tail — a restart, eight more jobs, and a job of the checkpoint
/// finishing.
fn checkpointed_log() -> Vec<u8> {
    let storage = MemStorage::new();
    let cut = WalConfig {
        checkpoint_every_events: 1,
        ..one_segment_cfg()
    };
    // One commit of everything, then a checkpoint opens segment 2.
    let history: Vec<WalEvent> = {
        let scratch = MemStorage::new();
        let wal = wal_over(&scratch, one_segment_cfg());
        commit_jobs(&wal, 1..=120);
        wal.events()
    };
    wal_over(&storage, cut)
        .commit(SimTime::ZERO, &history)
        .unwrap();
    let wal = wal_over(&storage, one_segment_cfg());
    wal.commit(SimTime::ZERO, &[WalEvent::ServiceStarted { epoch: 2 }])
        .unwrap();
    commit_jobs(&wal, 121..=128);
    let finished = WalEvent::Finished {
        job_id: 1,
        state: JobStateCode::Failed,
        exit_code: Some(3),
        wall_seconds: 0.5,
    };
    wal.commit(SimTime::ZERO, &[finished]).unwrap();
    let bytes = storage.durable_bytes(2);
    let frames = frames_of(&bytes);
    assert!(matches!(frames[0].1, WalEvent::Checkpoint(_)));
    assert!(frames[0].0 > IO_BUF, "checkpoint of {} bytes", frames[0].0);
    bytes
}

/// Walk the frame layout (`[len u32 LE][crc u32 LE][payload]`) and
/// return `(end_offset, event)` per frame — the test's independent
/// view of which events a byte prefix fully contains.
fn frames_of(bytes: &[u8]) -> Vec<(usize, WalEvent)> {
    let mut out = Vec::new();
    let mut off = 0usize;
    while off + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        let end = off + 8 + len;
        if end > bytes.len() {
            break;
        }
        let payload = std::str::from_utf8(&bytes[off + 8..end]).unwrap();
        out.push((end, WalEvent::decode(payload).unwrap()));
        off = end;
    }
    assert_eq!(off, bytes.len(), "scripted log ends on a frame boundary");
    out
}

/// The test's own fold: each job's terminal state, if any.
fn outcomes<'a>(
    events: impl IntoIterator<Item = &'a WalEvent>,
) -> BTreeMap<u64, Option<JobStateCode>> {
    let mut jobs = BTreeMap::new();
    for ev in events {
        match ev {
            WalEvent::Submitted { job_id, .. } => {
                jobs.insert(*job_id, None);
            }
            WalEvent::Finished { job_id, state, .. } => {
                if let Some(end @ None) = jobs.get_mut(job_id) {
                    *end = Some(*state);
                }
            }
            WalEvent::Checkpoint(ck) => {
                jobs = ck
                    .state
                    .jobs
                    .iter()
                    .map(|j| (j.job_id, j.finished.map(|(s, _)| s)))
                    .collect();
            }
            _ => {}
        }
    }
    jobs
}

/// Where a sweep puts the damaged segment: the simulator's disk, or a
/// file.
#[derive(Clone, Copy, Debug)]
enum Disk {
    Mem,
    File,
}

/// Recovers segments from one disk; a file disk works in a directory of
/// its own, removed on drop.
struct Recovery {
    disk: Disk,
    dir: PathBuf,
}

impl Recovery {
    fn new(disk: Disk, name: &str) -> Recovery {
        let dir =
            std::env::temp_dir().join(format!("infogram-wal-crash-{}-{name}", std::process::id()));
        if let Disk::File = disk {
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
        }
        Recovery { disk, dir }
    }

    /// A disk whose one segment is `bytes`.
    fn disk(&self, bytes: &[u8]) -> Arc<dyn WalStorage> {
        match self.disk {
            Disk::Mem => {
                let storage = MemStorage::new();
                storage.preload(1, bytes.to_vec());
                storage
            }
            Disk::File => {
                std::fs::write(self.dir.join("sweep.wal.1"), bytes).unwrap();
                // The segment a commit after a torn tail rotates to.
                let _ = std::fs::remove_file(self.dir.join("sweep.wal.2"));
                Arc::new(FileStorage::open(self.dir.join("sweep.wal")).unwrap())
            }
        }
    }

    /// Open a log whose one segment is `bytes` and fold it.
    fn recover(&self, bytes: &[u8]) -> (Wal, RecoveredState) {
        reopen(&self.disk(bytes))
    }
}

/// Open the log on `disk` and fold it.
fn reopen(disk: &Arc<dyn WalStorage>) -> (Wal, RecoveredState) {
    let sink = FrameWal::open(Arc::clone(disk)).unwrap();
    let wal = Wal::with_config(Box::new(sink), one_segment_cfg());
    let state = wal.with_fold(|fold| fold.state.clone());
    (wal, state)
}

/// Each job's terminal state, if any, in a recovered table.
fn table_of(state: &RecoveredState) -> BTreeMap<u64, Option<JobStateCode>> {
    state
        .jobs
        .iter()
        .map(|j| (j.job_id, j.finished.map(|(s, _)| s)))
        .collect()
}

impl Drop for Recovery {
    fn drop(&mut self) {
        if let Disk::File = self.disk {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

fn recover(bytes: &[u8]) -> (Wal, RecoveredState) {
    Recovery::new(Disk::Mem, "mem").recover(bytes)
}

// ---------------------------------------------------------------------
// Truncation at every byte prefix
// ---------------------------------------------------------------------

/// Recover every byte prefix of `bytes` from `disk`: exactly the frames
/// the prefix fully contains replay, the rest is a measured torn tail,
/// and the job table is theirs — no acked job lost, no finished one
/// resurrected.
fn sweep_prefixes(bytes: &[u8], disk: Disk, name: &str) {
    let frames = frames_of(bytes);
    let recovery = Recovery::new(disk, name);
    for n in 0..=bytes.len() {
        let contained = frames.iter().take_while(|(end, _)| *end <= n);
        let last_end = contained.clone().last().map_or(0, |(end, _)| *end);
        let want_jobs = outcomes(contained.clone().map(|(_, ev)| ev));

        let (wal, state) = recovery.recover(&bytes[..n]);
        let stats = wal.recovery_stats();
        assert_eq!(
            stats.corrupt_frames, 0,
            "{disk:?} prefix {n}: truncation is not corruption"
        );
        assert_eq!(
            stats.events_replayed,
            contained.count() as u64,
            "{disk:?} prefix {n}: replay exactly the contained frames"
        );
        assert_eq!(
            stats.truncated_tail_bytes,
            (n - last_end) as u64,
            "{disk:?} prefix {n}: the torn tail is measured"
        );
        assert_eq!(
            table_of(&state),
            want_jobs,
            "{disk:?} prefix {n}: recovered job table"
        );
    }
}

/// Reopen each prefix of `bytes` cut at or after `from` on `disk`,
/// commit two more jobs (one finished) through the reopened log, and
/// reopen again: the job table is the contained frames' plus the two.
/// Nothing is appended after a torn tail, where the next recovery would
/// read the torn header as a frame spanning the new records.
fn sweep_commits_after_a_torn_tail(bytes: &[u8], from: usize, disk: Disk, name: &str) {
    let frames = frames_of(bytes);
    let recovery = Recovery::new(disk, name);
    let next = outcomes(frames.iter().map(|(_, ev)| ev)).len() as u64 + 1;
    for n in from..=bytes.len() {
        let contained = frames.iter().take_while(|(end, _)| *end <= n);
        let mut want_jobs = outcomes(contained.map(|(_, ev)| ev));
        want_jobs.insert(next, None);
        want_jobs.insert(next + 1, Some(JobStateCode::Done));

        let storage = recovery.disk(&bytes[..n]);
        commit_jobs(&reopen(&storage).0, next..=next + 1);
        let (wal, state) = reopen(&storage);
        assert_eq!(
            wal.recovery_stats().corrupt_frames,
            0,
            "{disk:?} prefix {n}: no frame spans the new records"
        );
        assert_eq!(
            table_of(&state),
            want_jobs,
            "{disk:?} prefix {n}: the acked jobs after the torn tail"
        );
    }
}

#[test]
fn truncation_at_every_byte_prefix_recovers_exactly_the_contained_frames() {
    let bytes = scripted_log();
    let frames = frames_of(&bytes);
    assert!(
        frames.len() > 20,
        "history is non-trivial: {}",
        frames.len()
    );
    sweep_prefixes(&bytes, Disk::Mem, "prefix-mem");
}

#[test]
fn a_checkpoint_torn_at_every_byte_on_the_simulated_disk_replays_what_is_contained() {
    sweep_prefixes(&checkpointed_log(), Disk::Mem, "ckpt-prefix-mem");
}

#[test]
fn a_checkpoint_torn_at_every_byte_in_a_file_replays_what_is_contained() {
    sweep_prefixes(&checkpointed_log(), Disk::File, "ckpt-prefix-file");
}

#[test]
fn a_commit_after_a_torn_tail_at_every_byte_prefix_survives_the_next_reopen() {
    sweep_commits_after_a_torn_tail(&scripted_log(), 0, Disk::Mem, "torn-commit-mem");
}

#[test]
fn a_commit_after_a_torn_tail_in_a_file_survives_the_next_reopen() {
    let bytes = scripted_log();
    let frames = frames_of(&bytes);
    // Every cut through the last two frames: headers and payloads torn.
    let from = frames[frames.len() - 3].0;
    sweep_commits_after_a_torn_tail(&bytes, from, Disk::File, "torn-commit-file");
}

// ---------------------------------------------------------------------
// Single-byte corruption anywhere
// ---------------------------------------------------------------------

/// Flip each byte of `bytes` in turn and recover from `disk`: damage is
/// detected and counted, a flip past a frame's length field costs that
/// frame alone, and whatever survives is a subset of the true history
/// with the true outcomes (a job whose `Finished` frame was hit may
/// recover as unfinished — reported, not resurrected *differently*).
fn sweep_flips(bytes: &[u8], disk: Disk, name: &str) {
    let frames = frames_of(bytes);
    let truth = outcomes(frames.iter().map(|(_, ev)| ev));
    let recovery = Recovery::new(disk, name);
    let mut damaged = bytes.to_vec();
    let mut start = 0;
    for pos in 0..bytes.len() {
        damaged[pos] ^= 0x41;
        let (wal, state) = recovery.recover(&damaged);
        damaged[pos] ^= 0x41;
        let stats = wal.recovery_stats();
        assert!(
            stats.corrupt_frames + stats.truncated_tail_bytes > 0,
            "{disk:?} flip at {pos}: damage must be detected and counted"
        );
        if frames.iter().any(|(end, _)| *end == pos) {
            start = pos;
        }
        if pos >= start + 4 {
            assert_eq!(
                (stats.corrupt_frames, stats.events_replayed),
                (1, frames.len() as u64 - 1),
                "{disk:?} flip at {pos}: one frame skipped, the rest replayed"
            );
        }
        for job in state.jobs.iter() {
            let want = truth
                .get(&job.job_id)
                .unwrap_or_else(|| panic!("{disk:?} flip at {pos}: invented job {}", job.job_id));
            if let Some((got_state, _)) = job.finished {
                assert_eq!(
                    Some(got_state),
                    *want,
                    "{disk:?} flip at {pos}: job {} outcome rewritten",
                    job.job_id
                );
            }
        }
    }
}

#[test]
fn flipping_any_single_byte_never_panics_and_never_invents_history() {
    sweep_flips(&scripted_log(), Disk::Mem, "flip-mem");
}

#[test]
fn a_checkpoint_flipped_at_any_byte_on_the_simulated_disk_invents_no_history() {
    sweep_flips(&checkpointed_log(), Disk::Mem, "ckpt-flip-mem");
}

#[test]
fn a_checkpoint_flipped_at_any_byte_in_a_file_invents_no_history() {
    sweep_flips(&checkpointed_log(), Disk::File, "ckpt-flip-file");
}

#[test]
fn mid_log_corruption_is_skipped_and_the_rest_replays() {
    let bytes = scripted_log();
    let frames = frames_of(&bytes);
    // Damage the payload of job 2's Finished frame (CRC now mismatches).
    let (end, _) = frames
        .iter()
        .find(|(_, ev)| matches!(ev, WalEvent::Finished { job_id: 2, .. }))
        .unwrap();
    let mut damaged = bytes.clone();
    damaged[end - 1] ^= 0xff;

    let (wal, state) = recover(&damaged);
    let stats = wal.recovery_stats();
    assert_eq!(
        stats.corrupt_frames, 1,
        "exactly the damaged frame is counted"
    );
    assert_eq!(
        stats.events_replayed,
        frames.len() as u64 - 1,
        "everything after the bad frame still replays"
    );
    // Job 2 lost its terminal record — it is reported as unfinished,
    // while every other job keeps its true outcome.
    let job2 = state.jobs.iter().find(|j| j.job_id == 2).unwrap();
    assert!(job2.finished.is_none());
    let job4 = state.jobs.iter().find(|j| j.job_id == 4).unwrap();
    assert_eq!(job4.finished, Some((JobStateCode::Done, Some(0))));
    assert_eq!(state.jobs.len(), 8, "no submissions lost");
}

// ---------------------------------------------------------------------
// A reclaimed segment that comes back
// ---------------------------------------------------------------------

/// A checkpoint reclaims segment 1, but the removal's directory entry
/// never reached the disk, so the crash brings segment 1 back. It says
/// job 1 is still active and names only epoch 1; recovery must read
/// the newer checkpoint and tail instead.
#[test]
fn a_reclaimed_segment_that_reappears_after_a_crash_replays_nothing() {
    let storage = MemStorage::new();
    let disk = Arc::clone(&storage) as Arc<dyn WalStorage>;
    let wal = wal_over(&storage, one_segment_cfg());
    wal.commit(SimTime::ZERO, &[WalEvent::ServiceStarted { epoch: 1 }])
        .unwrap();
    commit_jobs(&wal, 1..=8);
    drop(wal);
    let reclaimed = storage.durable_bytes(1);
    // One commit past the limit cuts a checkpoint into segment 2.
    let cut = WalConfig {
        checkpoint_every_events: 1,
        ..one_segment_cfg()
    };
    wal_over(&storage, cut)
        .commit(SimTime::ZERO, &[WalEvent::ServiceStarted { epoch: 2 }])
        .unwrap();
    assert!(storage.durable_bytes(1).is_empty(), "segment 1 reclaimed");
    let (wal, _) = reopen(&disk);
    commit_jobs(&wal, 9..=12);
    let finished = WalEvent::Finished {
        job_id: 1,
        state: JobStateCode::Failed,
        exit_code: Some(3),
        wall_seconds: 0.5,
    };
    wal.commit(SimTime::ZERO, &[finished]).unwrap();
    drop(wal);
    let mut acked: BTreeMap<_, _> = (1..=12u64)
        .map(|id| (id, (id % 2 == 0).then_some(JobStateCode::Done)))
        .collect();
    acked.insert(1, Some(JobStateCode::Failed));

    storage.crash();
    storage.preload(1, reclaimed);
    storage.restart();
    let (wal, state) = reopen(&disk);
    let stats = wal.recovery_stats();
    assert_eq!((stats.segments_total, stats.segments_read), (2, 1));
    assert!(stats.checkpoint_used);
    // Acked ⇒ durable, with each outcome as acked: job 1 stays finished.
    assert_eq!(table_of(&state), acked);
    // Ids and epochs continue past everything acked.
    assert_eq!(state.last_job_id, 12);
    assert_eq!(state.last_epoch, 2);
}

// ---------------------------------------------------------------------
// Honest degradation end-to-end through gram
// ---------------------------------------------------------------------

#[test]
fn full_disk_surfaces_unavailable_on_the_wire_and_heals() {
    let plan = Plan::new();
    let storage = MemStorage::with_plan(Some(Arc::clone(&plan)));
    let sink = FrameWal::open(Arc::clone(&storage) as Arc<dyn WalStorage>).unwrap();
    let sandbox = Sandbox::start_with(SandboxConfig {
        wal_sink: Some(sink),
        ..Default::default()
    });
    let mut client = sandbox.connect_client();

    // Healthy baseline: a job runs to completion.
    let ok = client
        .submit("(executable=simwork)(arguments=10)", false)
        .unwrap();
    let (state, _, _) = client
        .wait_terminal(&ok, Duration::from_millis(5), Duration::from_secs(10))
        .unwrap();
    assert_eq!(state, JobStateCode::Done);

    // The disk fills: the submission is refused honestly — UNAVAILABLE
    // with a retry hint, never an ack for a job the log cannot hold.
    plan.fill_disk();
    match client.submit("(executable=simwork)(arguments=10)", false) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, codes::UNAVAILABLE);
            assert!(message.contains("retry-after-ms="), "{message}");
        }
        other => panic!("expected UNAVAILABLE, got {other:?}"),
    }
    // While read-only, further submissions are rejected without even
    // probing the sink.
    assert!(client
        .submit("(executable=simwork)(arguments=10)", false)
        .is_err());
    let engine = sandbox.service.engine();
    assert!(engine.metrics().counter_value("wal.append_errors") >= 1);
    assert!(engine.metrics().counter_value("jobs.rejected_readonly") >= 2);
    assert_eq!(engine.metrics().gauge_value("wal.read_only"), 1.0);

    // Space returns; after the advertised backoff the next submission
    // probes the sink, succeeds, and the service leaves read-only mode.
    plan.free_space();
    std::thread::sleep(Duration::from_millis(1100));
    let healed = client
        .submit("(executable=simwork)(arguments=10)", false)
        .unwrap();
    let (state, _, _) = client
        .wait_terminal(&healed, Duration::from_millis(5), Duration::from_secs(10))
        .unwrap();
    assert_eq!(state, JobStateCode::Done);
    assert_eq!(engine.metrics().gauge_value("wal.read_only"), 0.0);

    sandbox.shutdown();
}

/// A service over `plan`'s simulated disk, and the refusal its first
/// submission gets: `UNAVAILABLE` with a retry hint.
fn start_and_refuse(plan: &Arc<Plan>) -> (Sandbox, infogram_client::InfoGramClient) {
    let storage = MemStorage::with_plan(Some(Arc::clone(plan)));
    let sink = FrameWal::open(storage).unwrap();
    let sandbox = Sandbox::start_with(SandboxConfig {
        wal_sink: Some(sink),
        ..Default::default()
    });
    let mut client = sandbox.connect_client();
    assert!(client.metrics().is_ok(), "information is answered");
    match client.submit("(executable=simwork)(arguments=10)", false) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, codes::UNAVAILABLE);
            assert!(message.contains("retry-after-ms="), "{message}");
        }
        other => panic!("expected UNAVAILABLE, got {other:?}"),
    }
    let engine = sandbox.service.engine();
    assert_eq!(engine.metrics().gauge_value("wal.read_only"), 1.0);
    assert_eq!(engine.metrics().counter_value("wal.fsyncs"), 0);
    (sandbox, client)
}

#[test]
fn a_disk_whose_fsync_always_fails_is_found_by_the_first_submission() {
    let plan = Plan::storm(
        1,
        Storm {
            append_fail_p: 0.0,
            short_p: 0.0,
            fsync_fail_p: 1.0,
            ..Storm::default()
        },
    );
    let (sandbox, _client) = start_and_refuse(&plan);
    sandbox.shutdown();
}

#[test]
fn a_disk_that_refuses_appends_is_read_only_from_boot() {
    let plan = Plan::new();
    plan.fill_disk();
    let (sandbox, mut client) = start_and_refuse(&plan);
    // The boot record's append failed: read-only before any submission.
    let engine = sandbox.service.engine();
    assert_eq!(engine.metrics().counter_value("wal.append_errors"), 1);
    assert!(client.metrics().is_ok(), "information is still answered");
    sandbox.shutdown();
}

// ---------------------------------------------------------------------
// Recovery telemetry in (info=metrics)
// ---------------------------------------------------------------------

#[test]
fn recovery_damage_is_visible_in_metrics() {
    // A history with one finished and one in-flight job…
    let storage = MemStorage::new();
    {
        let wal = wal_over(&storage, one_segment_cfg());
        let commit = |evs: &[WalEvent]| wal.commit(SimTime::ZERO, evs).unwrap();
        commit(&[WalEvent::ServiceStarted { epoch: 1 }]);
        for job_id in [1u64, 2] {
            commit(&[WalEvent::Submitted {
                job_id,
                rsl: "(executable=simwork)(arguments=60000)".to_string(),
                owner: "/O=Grid/O=Globus/CN=alice".to_string(),
                account: "guest".to_string(),
            }]);
        }
        commit(&[WalEvent::Finished {
            job_id: 1,
            state: JobStateCode::Done,
            exit_code: Some(0),
            wall_seconds: 1.0,
        }]);
    }
    // …plus a corrupt frame (good length, bad checksum) and a torn tail.
    let mut bytes = storage.durable_bytes(1);
    bytes.extend_from_slice(&5u32.to_le_bytes());
    bytes.extend_from_slice(&0xdead_beefu32.to_le_bytes());
    bytes.extend_from_slice(b"junk!");
    bytes.extend_from_slice(&[0x10, 0x00, 0x00]); // 3 torn tail bytes

    let damaged = MemStorage::new();
    damaged.preload(1, bytes);
    let sink = FrameWal::open(Arc::clone(&damaged) as Arc<dyn WalStorage>).unwrap();
    let sandbox = Sandbox::start_with(SandboxConfig {
        wal_sink: Some(sink),
        ..Default::default()
    });
    let mut client = sandbox.connect_client();

    let r = client.metrics().unwrap();
    let rec = &r.records[0];
    let value = |name: &str| {
        rec.get(name)
            .unwrap_or_else(|| panic!("missing attribute {name}"))
            .value
            .clone()
    };
    assert_eq!(value("wal.recovered_jobs"), "2");
    assert_eq!(value("wal.corrupt_frames"), "1");
    assert_eq!(value("wal.truncated_tail_bytes"), "3");
    assert!(rec.get("wal.checkpoint_age").is_some());

    sandbox.shutdown();
}
