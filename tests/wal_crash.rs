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
//! * **Honest degradation on the wire**: a full disk turns submissions
//!   into `UNAVAILABLE` + `retry-after-ms=` at the gram layer (never a
//!   silent ack), and the service heals once space returns.
//! * **Recovery telemetry**: damage found during replay is visible in
//!   `(info=metrics)`.

// Bench/example/test harness: panic-on-failure is the error policy here.
#![allow(clippy::unwrap_used)]

use infogram::exec::{FrameWal, MemStorage, RecoveredState, Wal, WalConfig, WalEvent, WalStorage};
use infogram::proto::message::{codes, JobStateCode};
use infogram::quickstart::{Sandbox, SandboxConfig};
use infogram::sim::fault::Plan;
use infogram::sim::SimTime;
use infogram_client::ClientError;
use std::collections::BTreeMap;
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

/// Write a representative history — eight jobs, even ids finished — and
/// return the durable log bytes.
fn scripted_log() -> Vec<u8> {
    let storage = MemStorage::new();
    let wal = wal_over(&storage, one_segment_cfg());
    let commit = |evs: &[WalEvent]| wal.commit(SimTime::ZERO, evs).unwrap();
    commit(&[WalEvent::ServiceStarted { epoch: 1 }]);
    for job_id in 1..=8u64 {
        commit(&[
            WalEvent::Submitted {
                job_id,
                rsl: format!("(executable=simwork)(arguments={job_id}0)"),
                owner: format!("/O=Grid/O=Globus/CN=user{job_id}"),
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
    storage.durable_bytes(1)
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

fn recover(bytes: &[u8]) -> (Wal, RecoveredState) {
    let storage = MemStorage::new();
    storage.preload(1, bytes.to_vec());
    let wal = wal_over(&storage, one_segment_cfg());
    let state = wal.with_fold(|fold| fold.state.clone());
    (wal, state)
}

// ---------------------------------------------------------------------
// Truncation at every byte prefix
// ---------------------------------------------------------------------

#[test]
fn truncation_at_every_byte_prefix_recovers_exactly_the_contained_frames() {
    let bytes = scripted_log();
    let frames = frames_of(&bytes);
    assert!(
        frames.len() > 20,
        "history is non-trivial: {}",
        frames.len()
    );

    for n in 0..=bytes.len() {
        // The test's own fold of the frames fully inside the prefix.
        let contained: Vec<&WalEvent> = frames
            .iter()
            .filter(|(end, _)| *end <= n)
            .map(|(_, ev)| ev)
            .collect();
        let mut want_jobs: BTreeMap<u64, Option<JobStateCode>> = BTreeMap::new();
        for ev in &contained {
            match ev {
                WalEvent::Submitted { job_id, .. } => {
                    want_jobs.insert(*job_id, None);
                }
                WalEvent::Finished { job_id, state, .. } => {
                    want_jobs.insert(*job_id, Some(*state));
                }
                _ => {}
            }
        }
        let last_end = frames
            .iter()
            .filter(|(end, _)| *end <= n)
            .map(|(end, _)| *end)
            .next_back()
            .unwrap_or(0);

        let (wal, state) = recover(&bytes[..n]);
        let stats = wal.recovery_stats();
        assert_eq!(
            stats.corrupt_frames, 0,
            "prefix {n}: truncation is not corruption"
        );
        assert_eq!(
            stats.events_replayed,
            contained.len() as u64,
            "prefix {n}: replay exactly the contained frames"
        );
        assert_eq!(
            stats.truncated_tail_bytes,
            (n - last_end) as u64,
            "prefix {n}: the torn tail is measured"
        );

        // Never lose an acked job, never resurrect a finished one.
        let got: BTreeMap<u64, Option<JobStateCode>> = state
            .jobs
            .iter()
            .map(|j| (j.job_id, j.finished.map(|(s, _)| s)))
            .collect();
        assert_eq!(got, want_jobs, "prefix {n}: recovered job table");
    }
}

// ---------------------------------------------------------------------
// Single-byte corruption anywhere
// ---------------------------------------------------------------------

#[test]
fn flipping_any_single_byte_never_panics_and_never_invents_history() {
    let bytes = scripted_log();
    let frames = frames_of(&bytes);
    // Ground truth: final outcome per job in the undamaged history.
    let mut truth: BTreeMap<u64, Option<JobStateCode>> = BTreeMap::new();
    for (_, ev) in &frames {
        match ev {
            WalEvent::Submitted { job_id, .. } => {
                truth.insert(*job_id, None);
            }
            WalEvent::Finished { job_id, state, .. } => {
                truth.insert(*job_id, Some(*state));
            }
            _ => {}
        }
    }

    for pos in 0..bytes.len() {
        let mut damaged = bytes.clone();
        damaged[pos] ^= 0x41;
        let (wal, state) = recover(&damaged);
        let stats = wal.recovery_stats();
        assert!(
            stats.corrupt_frames + stats.truncated_tail_bytes > 0,
            "flip at {pos}: damage must be detected and counted"
        );
        // Whatever survives is a subset of the true history with the
        // true outcomes (a job whose Finished frame was hit may recover
        // as unfinished — reported, not resurrected *differently*).
        for job in &state.jobs {
            let want = truth
                .get(&job.job_id)
                .unwrap_or_else(|| panic!("flip at {pos}: invented job {}", job.job_id));
            if let Some((got_state, _)) = job.finished {
                assert_eq!(
                    Some(got_state),
                    *want,
                    "flip at {pos}: job {} outcome rewritten",
                    job.job_id
                );
            }
        }
    }
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
