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
//! Its claims are the durability contract, end to end. An ack is issued
//! only once its log record is fsynced, and every fault decision is keyed
//! by operation count on a virtual clock, so the whole run — acks,
//! refusals, outcomes, recovery stats — replays from its seed.
//!
//! `BENCH_QUICK=1` shrinks the round count.

use infogram::exec::{
    EngineConfig, ForkBackend, FrameWal, JobEngine, MemStorage, SubmitError, Wal, WalConfig,
    WalStorage,
};
use infogram_bench::{row, table, Report};
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
    let rounds: u64 = if infogram_bench::quick() { 80 } else { 400 };
    let mut report = Report::start(
        env!("CARGO_CRATE_NAME"),
        "E20",
        "crash storm: WAL durability under disk faults + power loss (§6)",
    );

    let (tally, recovery_secs) = run_storm(rounds);
    println!("\n-- storm: {rounds} rounds, seed {SEED:#x}, crash after {rounds} appends --");
    table(
        "acked|rejected|seen-done|lost-acked|resurrected|restarted|post-acked",
        &[row![
            tally.acked.len(),
            tally.rejected,
            tally.seen_done.len(),
            tally.lost_acked,
            tally.resurrected,
            tally.restarted_in_flight,
            tally.post_acked
        ]],
    );
    table(
        "checkpoint-used|events-replayed|tail-events|corrupt-frames|torn-bytes|recovery-time",
        &[row![
            tally.checkpoint_used,
            tally.events_replayed,
            tally.events_since_checkpoint,
            tally.corrupt_frames,
            tally.truncated_tail_bytes,
            format!("{:.1} ms", recovery_secs * 1e3)
        ]],
    );

    // Replay: the same seed must reproduce the exact same run.
    let (replay, _) = run_storm(rounds);
    let deterministic = replay == tally;

    report.claim(
        "acked_survive_crash",
        "every acked submission survives a mid-storm crash",
        tally.crashed_mid_storm && !tally.acked.is_empty() && tally.lost_acked == 0,
        format!(
            "crashed {}, {} acked, {} lost",
            tally.crashed_mid_storm,
            tally.acked.len(),
            tally.lost_acked
        ),
    );
    report.claim(
        "terminal_stays_terminal",
        "every job seen terminal stays terminal",
        !tally.seen_done.is_empty() && tally.resurrected == 0,
        format!(
            "{} seen terminal, {} resurrected",
            tally.seen_done.len(),
            tally.resurrected
        ),
    );
    // Bounded tail: rotation can defer a checkpoint by one batch, so
    // allow a few batches of slack over the configured cadence.
    report.claim(
        "checkpoint_and_bounded_tail",
        "recovery replays checkpoint + a bounded tail, in under 2 s",
        tally.checkpoint_used
            && tally.events_since_checkpoint <= wal_cfg().checkpoint_every_events * 4
            && recovery_secs < 2.0,
        format!(
            "checkpoint {}, {}-event tail, {:.1} ms",
            tally.checkpoint_used,
            tally.events_since_checkpoint,
            recovery_secs * 1e3
        ),
    );
    report.claim(
        "heals_after_restart",
        "faults are refused honestly, and the restarted service accepts work again",
        tally.post_acked > 0,
        format!(
            "{} refused during the storm, {} acked after",
            tally.rejected, tally.post_acked
        ),
    );
    report.claim(
        "replays_from_seed",
        "the run replays byte-identically from its seed",
        deterministic,
        format!("replay equal: {deterministic}"),
    );
    report.figure("recovery_ms", recovery_secs * 1e3);
    report.finish();
}
