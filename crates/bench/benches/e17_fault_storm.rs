//! E17 — the fault-domain supervisor under a provider-failure storm:
//! with 10% of provider executions failing (plus hangs and slowdowns),
//! the service should keep answering nearly every query — retried
//! in-fetch where the budget allows, served last-known-good (and
//! honestly tagged degraded) where it does not — instead of surfacing
//! INTERNAL errors at the storm's rate.
//!
//! The storm is scripted: `Plan::storm(seed, storm)` draws every
//! injection from a seeded PRNG, the world runs on a virtual clock with
//! command costs (and injected stalls) charged to it, and queries are
//! issued one keyword at a time — so the whole run is deterministic and
//! the bench replays itself with the same seed to prove it.
//!
//! `BENCH_QUICK=1` shrinks the round count.

use infogram_bench::{manual_world_with_config, row, table, Report};
use infogram_info::config::{ServiceConfig, TABLE1_TEXT};
use infogram_info::service::QueryOptions;
use infogram_rsl::InfoSelector;
use infogram_sim::fault::{Plan, Storm};
use std::time::{Duration, Instant};

/// World + storm seed: same seed, same storm, same tallies.
const SEED: u64 = 0xe17_fa11;

/// Virtual time between query rounds.
const ROUND_STEP: Duration = Duration::from_millis(30);

const KEYWORDS: [&str; 5] = ["Date", "Memory", "CPU", "CPULoad", "list"];

/// Table 1 with explicit linear degradation windows: the default binary
/// degradation (lifetime = TTL) floors a snapshot's quality to zero the
/// moment it needs a refresh, which makes stale-serve pointless. A 5 s
/// linear window is the "last-known-good is better than nothing" policy
/// a deployment under provider flap would pick.
fn storm_config() -> ServiceConfig {
    let mut text = TABLE1_TEXT.to_string();
    for kw in KEYWORDS {
        text.push_str(&format!("@degradation {kw} linear 5000\n"));
    }
    ServiceConfig::parse(&text).expect("config")
}

/// The storm: Table 1 defaults for fail/hang/slow probabilities, but
/// hangs long enough (300 ms) to blow the TTL-proportional deadline
/// budgets, so the breach path is exercised too.
fn storm() -> Storm {
    Storm {
        hang_for: Duration::from_millis(300),
        ..Storm::default()
    }
}

#[derive(Debug, Default, PartialEq, Eq, Clone)]
struct Tally {
    queries: u64,
    fresh: u64,
    stale: u64,
    errors: u64,
    retries: u64,
    stale_serves: u64,
    deadline_breaches: u64,
}

/// Run `rounds` rounds of per-keyword queries under the seeded storm.
/// Returns the tallies plus the wall-clock seconds spent querying.
fn run_storm(rounds: usize) -> (Tally, f64) {
    let world = manual_world_with_config(SEED, &storm_config());
    let opts = QueryOptions::default();
    let selectors: Vec<InfoSelector> = KEYWORDS
        .iter()
        .map(|k| InfoSelector::Keyword(k.to_string()))
        .collect();
    // Warm start: one clean pass seeds every keyword's snapshot before
    // the weather turns (a storm hitting a cold cache can only error —
    // there is nothing last-known-good to serve yet).
    for sel in &selectors {
        world
            .info
            .answer(std::slice::from_ref(sel), &opts)
            .expect("warm-up");
    }
    world.registry.set_fault_plan(Plan::storm(SEED, storm()));

    let mut tally = Tally::default();
    let start = Instant::now();
    for _ in 0..rounds {
        world.clock.advance(ROUND_STEP);
        for sel in &selectors {
            tally.queries += 1;
            match world.info.answer(std::slice::from_ref(sel), &opts) {
                Ok(records) => {
                    if records.iter().any(|r| r.degraded) {
                        tally.stale += 1;
                    } else {
                        tally.fresh += 1;
                    }
                }
                Err(_) => tally.errors += 1,
            }
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let m = world.info.metrics();
    tally.retries = m.counter_value("info.retries");
    tally.stale_serves = m.counter_value("info.stale_serves");
    tally.deadline_breaches = m.counter_value("info.deadline_breaches");
    (tally, wall)
}

fn main() {
    let rounds = if infogram_bench::quick() { 400 } else { 2000 };
    let mut report = Report::start(
        env!("CARGO_CRATE_NAME"),
        "E17",
        "fault storm: supervised fetches under 10% provider failure",
    );

    let (tally, wall) = run_storm(rounds);
    let answered = tally.fresh + tally.stale;
    let availability = answered as f64 / tally.queries as f64;
    let stale_ratio = tally.stale as f64 / tally.queries as f64;
    let qps = tally.queries as f64 / wall;

    println!(
        "\n-- storm: {} rounds x {} keywords, {:?} virtual step, seed {SEED:#x} --",
        rounds,
        KEYWORDS.len(),
        ROUND_STEP
    );
    table(
        "queries|fresh|served stale|errors|availability|stale ratio|queries/s",
        &[row![
            tally.queries,
            tally.fresh,
            tally.stale,
            tally.errors,
            format!("{:.4}", availability),
            format!("{:.4}", stale_ratio),
            format!("{qps:.0}")
        ]],
    );
    table(
        "in-fetch retries|stale serves|deadline breaches",
        &[row![
            tally.retries,
            tally.stale_serves,
            tally.deadline_breaches
        ]],
    );

    // Replay: the same seed must reproduce the exact same tallies —
    // that is the whole point of scripted fault injection.
    let (replay, _) = run_storm(rounds);
    let deterministic = replay == tally;

    report.claim(
        "available_under_storm",
        "availability stays >=99% while the storm rages (it hit: fetches were retried) — \
         failed fetches are retried or served last-known-good, tagged degraded",
        availability >= 0.99 && tally.retries > 0,
        format!(
            "{availability:.4} answered, {} retries, {} served stale",
            tally.retries, tally.stale
        ),
    );
    report.claim(
        "replays_from_seed",
        "the run replays byte-identically from its seed",
        deterministic,
        format!("replay equal: {deterministic}"),
    );
    report.figure("queries_per_sec", qps);
    report.finish();
}
