//! E20 — crash storm: the crash-consistent WAL under a seeded disk
//! fault storm with a mid-storm power loss (DESIGN §14).
//!
//! A job engine runs on a virtual clock over an in-memory disk whose
//! appends and fsyncs draw faults from a seeded plan (2% failed
//! appends, 1% short writes, 2% failed fsyncs), with a scripted crash
//! mid-storm. The storm submits short jobs and polls them while the
//! disk misbehaves; the crash kills the service; a second incarnation
//! recovers over the surviving durable bytes and the storm resumes.
//!
//! Acceptance (the durability contract, end to end):
//!
//! * **zero acked-submission loss** — every submission the engine acked
//!   is present after recovery (an ack is only issued once the log
//!   record is fsynced);
//! * **zero resurrected finished jobs** — every job observed terminal
//!   before the crash recovers terminal with the same exit code;
//! * **checkpoint + tail replay** — recovery uses the newest checkpoint
//!   and replays a bounded tail, not the full history, in bounded time;
//! * **honest degradation, then healing** — mid-storm faults reject
//!   submissions (`WalUnavailable`) instead of silently acking, and the
//!   restarted service accepts work again;
//! * **deterministic replay** — the whole run (acks, rejections,
//!   outcomes, recovery stats) reproduces byte-identically from the
//!   seed, because every fault decision is keyed by operation count on
//!   a virtual clock.
//!
//! Env knobs: `E20_QUICK=1` shrinks the round count for smoke runs;
//! `E20_JSON=<path>` writes a machine-readable result with a `pass`
//! flag (used by `scripts/bench_smoke.sh` / `scripts/check_crash.sh`).

// Bench harness: panic-on-failure is the error policy here.
#![allow(clippy::unwrap_used)]

use infogram::exec::{
    EngineConfig, ForkBackend, FrameWal, JobEngine, MemStorage, SubmitError, Wal, WalConfig,
    WalStorage,
};
use infogram_bench::{banner, table};
use infogram_host::commands::{ChargeMode, CommandRegistry};
use infogram_host::machine::SimulatedHost;
use infogram_obs::MetricSet;
use infogram_rsl::XrslRequest;
use infogram_sim::fault::{Plan, Storm};
use infogram_sim::ManualClock;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Storm seed: same seed, same faults, same tallies.
const SEED: u64 = 0xe20_0c4a;

/// Small segments + frequent checkpoints so even the quick run rotates
/// several times and recovery genuinely replays checkpoint + tail.
fn wal_cfg() -> WalConfig {
    WalConfig {
        segment_max_bytes: 2048,
        checkpoint_every_events: 24,
        retry_after: Duration::from_millis(40),
    }
}

fn engine_over(storage: &Arc<MemStorage>, clock: &Arc<ManualClock>) -> Arc<JobEngine> {
    let sink = FrameWal::open(Arc::clone(storage) as Arc<dyn WalStorage>).expect("open wal");
    let host = SimulatedHost::default_on(clock.clone());
    let registry = CommandRegistry::new(host, ChargeMode::None);
    JobEngine::new(
        EngineConfig::default(),
        clock.clone(),
        Wal::with_config(Box::new(sink), wal_cfg()),
        ForkBackend::new(registry),
        MetricSet::new(),
    )
}

fn submit(engine: &JobEngine, rsl: &str) -> Result<u64, SubmitError> {
    let req = XrslRequest::from_text(rsl).expect("rsl");
    engine
        .submit(rsl, req.job.unwrap(), "/O=Grid/CN=StormUser", "storm")
        .map(|h| h.job_id)
}

/// Everything the run observes — compared across replays bit for bit.
#[derive(Debug, Default, PartialEq, Eq, Clone)]
struct Tally {
    acked: Vec<u64>,
    rejected: u64,
    seen_done: BTreeMap<u64, Option<i32>>,
    crashed_mid_storm: bool,
    lost_acked: u64,
    resurrected: u64,
    restarted_in_flight: u64,
    checkpoint_used: bool,
    events_replayed: u64,
    events_since_checkpoint: u64,
    corrupt_frames: u64,
    truncated_tail_bytes: u64,
    post_acked: u64,
    post_rejected: u64,
}

/// One full storm: submit under faults, crash, recover, resume.
/// Returns the tallies plus the recovery wall-clock seconds.
fn run_storm(rounds: u64) -> (Tally, f64) {
    let mut t = Tally::default();
    let plan = Plan::storm(SEED, Storm::default());
    // Power loss mid-storm: the disk dies at a scripted append index.
    plan.crash_after_appends(rounds);
    let storage = MemStorage::with_plan(Some(Arc::clone(&plan)));
    let clock = ManualClock::new();

    // --- first incarnation: storm until the disk dies under it ---
    let engine = engine_over(&storage, &clock);
    for _ in 0..rounds {
        match submit(&engine, "(executable=simwork)(arguments=30)") {
            Ok(job_id) => t.acked.push(job_id),
            Err(SubmitError::WalUnavailable { .. }) => t.rejected += 1,
            Err(other) => panic!("unexpected submit error: {other}"),
        }
        clock.advance(Duration::from_millis(10));
        // Poll every acked job; a job only ever *shows* terminal once
        // its Finished record is fsynced, so this set is the
        // resurrection ground truth.
        for &job_id in &t.acked {
            if let Some(view) = engine.status(job_id) {
                if view.state.is_terminal() {
                    t.seen_done.insert(job_id, view.exit_code);
                }
            }
        }
    }
    t.crashed_mid_storm = storage.crashed();
    drop(engine); // kill -9: volatile bytes are already gone

    // --- second incarnation over the surviving durable bytes ---
    storage.restart();
    let t0 = Instant::now();
    let engine = engine_over(&storage, &clock);
    let restarted = engine.recover();
    let recovery_secs = t0.elapsed().as_secs_f64();
    t.restarted_in_flight = restarted.len() as u64;
    let stats = engine.wal_recovery_stats();
    t.checkpoint_used = stats.checkpoint_used;
    t.events_replayed = stats.events_replayed;
    t.events_since_checkpoint = stats.events_since_checkpoint;
    t.corrupt_frames = stats.corrupt_frames;
    t.truncated_tail_bytes = stats.truncated_tail_bytes;

    for &job_id in &t.acked {
        match engine.status(job_id) {
            None => t.lost_acked += 1,
            Some(view) => {
                if let Some(&exit) = t.seen_done.get(&job_id) {
                    // Observed terminal before the crash: must come back
                    // terminal with the same outcome, never live again.
                    if !view.state.is_terminal() || view.exit_code != exit {
                        t.resurrected += 1;
                    }
                }
            }
        }
    }

    // --- the storm resumes on the healed disk ---
    for _ in 0..rounds / 4 {
        match submit(&engine, "(executable=simwork)(arguments=30)") {
            Ok(_) => t.post_acked += 1,
            Err(SubmitError::WalUnavailable { .. }) => t.post_rejected += 1,
            Err(other) => panic!("unexpected submit error: {other}"),
        }
        clock.advance(Duration::from_millis(10));
    }

    (t, recovery_secs)
}

fn main() {
    let quick = std::env::var("E20_QUICK").is_ok_and(|v| v == "1");
    let rounds: u64 = if quick { 80 } else { 400 };

    banner(
        "E20",
        "crash storm: WAL durability under disk faults + power loss (§6)",
        "every acked submission survives a mid-storm crash, every job seen \
         terminal stays terminal, recovery replays checkpoint + bounded \
         tail, and the run replays byte-identically from its seed",
    );

    let (tally, recovery_secs) = run_storm(rounds);
    println!("\n-- storm: {rounds} rounds, seed {SEED:#x}, crash after {rounds} appends --");
    table(
        &[
            "acked",
            "rejected",
            "seen-done",
            "lost-acked",
            "resurrected",
            "restarted",
            "post-acked",
        ],
        &[vec![
            tally.acked.len().to_string(),
            tally.rejected.to_string(),
            tally.seen_done.len().to_string(),
            tally.lost_acked.to_string(),
            tally.resurrected.to_string(),
            tally.restarted_in_flight.to_string(),
            tally.post_acked.to_string(),
        ]],
    );
    table(
        &[
            "checkpoint-used",
            "events-replayed",
            "tail-events",
            "corrupt-frames",
            "torn-bytes",
            "recovery-time",
        ],
        &[vec![
            tally.checkpoint_used.to_string(),
            tally.events_replayed.to_string(),
            tally.events_since_checkpoint.to_string(),
            tally.corrupt_frames.to_string(),
            tally.truncated_tail_bytes.to_string(),
            format!("{:.1} ms", recovery_secs * 1e3),
        ]],
    );

    // Replay: the same seed must reproduce the exact same run.
    let (replay, _) = run_storm(rounds);
    let deterministic = replay == tally;

    // Bounded tail: rotation can defer a checkpoint by one batch, so
    // allow a few batches of slack over the configured cadence.
    let bounded_tail = tally.events_since_checkpoint <= wal_cfg().checkpoint_every_events * 4;
    let pass = tally.crashed_mid_storm
        && tally.lost_acked == 0
        && tally.resurrected == 0
        && !tally.acked.is_empty()
        && !tally.seen_done.is_empty()
        && tally.checkpoint_used
        && bounded_tail
        && recovery_secs < 2.0
        && tally.post_acked > 0
        && deterministic;

    println!(
        "\nreading: {} acked submissions survived a mid-storm power loss with \
         0 losses and 0 resurrections ({} rejected honestly during faults); \
         recovery replayed a {}-event tail off a checkpoint in {:.1} ms; \
         deterministic replay={deterministic}; pass={pass}",
        tally.acked.len(),
        tally.rejected,
        tally.events_since_checkpoint,
        recovery_secs * 1e3,
    );

    if let Ok(path) = std::env::var("E20_JSON") {
        let json = format!(
            "{{\n  \"experiment\": \"e20_crash_storm\",\n  \
             \"seed\": {SEED},\n  \
             \"rounds\": {rounds},\n  \
             \"acked\": {},\n  \
             \"rejected\": {},\n  \
             \"seen_done\": {},\n  \
             \"lost_acked\": {},\n  \
             \"resurrected\": {},\n  \
             \"restarted_in_flight\": {},\n  \
             \"checkpoint_used\": {},\n  \
             \"events_replayed\": {},\n  \
             \"events_since_checkpoint\": {},\n  \
             \"corrupt_frames\": {},\n  \
             \"truncated_tail_bytes\": {},\n  \
             \"recovery_ms\": {:.1},\n  \
             \"post_acked\": {},\n  \
             \"post_rejected\": {},\n  \
             \"deterministic_replay\": {deterministic},\n  \
             \"pass\": {pass}\n}}\n",
            tally.acked.len(),
            tally.rejected,
            tally.seen_done.len(),
            tally.lost_acked,
            tally.resurrected,
            tally.restarted_in_flight,
            tally.checkpoint_used,
            tally.events_replayed,
            tally.events_since_checkpoint,
            tally.corrupt_frames,
            tally.truncated_tail_bytes,
            recovery_secs * 1e3,
            tally.post_acked,
            tally.post_rejected,
        );
        std::fs::write(&path, json).expect("write E20_JSON");
        println!("wrote {path}");
    }
    assert!(
        pass,
        "crash-storm acceptance failed: crashed={} lost={} resurrected={} \
         checkpoint_used={} tail={} recovery={recovery_secs:.3}s post_acked={} \
         deterministic={deterministic}",
        tally.crashed_mid_storm,
        tally.lost_acked,
        tally.resurrected,
        tally.checkpoint_used,
        tally.events_since_checkpoint,
        tally.post_acked,
    );
}
