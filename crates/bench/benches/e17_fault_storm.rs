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
//! Env knobs: `E17_QUICK=1` shrinks the round count for smoke runs;
//! `E17_JSON=<path>` writes a machine-readable result with a `pass`
//! flag (used by `scripts/bench_smoke.sh`).

use infogram_bench::{banner, manual_world_with_config, table};
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
    let quick = std::env::var("E17_QUICK").is_ok_and(|v| v == "1");
    let rounds = if quick { 400 } else { 2000 };

    banner(
        "E17",
        "fault storm: supervised fetches under 10% provider failure",
        "availability stays >=99% while the storm rages — failed fetches \
         are retried or served last-known-good (tagged degraded), never \
         surfaced as INTERNAL at the storm's rate; the run replays \
         byte-identically from its seed",
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
        &[
            "queries",
            "fresh",
            "served stale",
            "errors",
            "availability",
            "stale ratio",
            "queries/s",
        ],
        &[vec![
            tally.queries.to_string(),
            tally.fresh.to_string(),
            tally.stale.to_string(),
            tally.errors.to_string(),
            format!("{:.4}", availability),
            format!("{:.4}", stale_ratio),
            format!("{qps:.0}"),
        ]],
    );
    table(
        &["in-fetch retries", "stale serves", "deadline breaches"],
        &[vec![
            tally.retries.to_string(),
            tally.stale_serves.to_string(),
            tally.deadline_breaches.to_string(),
        ]],
    );

    // Replay: the same seed must reproduce the exact same tallies —
    // that is the whole point of scripted fault injection.
    let (replay, _) = run_storm(rounds);
    let deterministic = replay == tally;

    // Acceptance: the storm actually hit (retries happened), the
    // supervisor absorbed it (>=99% of queries answered), and the run
    // is reproducible from its seed.
    let pass = availability >= 0.99 && tally.retries > 0 && deterministic;
    println!(
        "\nreading: {:.2}% of queries answered under the storm \
         ({} retried executions, {} stale serves, {} deadline breaches); \
         deterministic replay={deterministic}; pass={pass}",
        availability * 100.0,
        tally.retries,
        tally.stale_serves,
        tally.deadline_breaches,
    );

    if let Ok(path) = std::env::var("E17_JSON") {
        let json = format!(
            "{{\n  \"experiment\": \"e17_fault_storm\",\n  \
             \"seed\": {SEED},\n  \
             \"rounds\": {rounds},\n  \
             \"queries\": {},\n  \
             \"fresh\": {},\n  \
             \"served_stale\": {},\n  \
             \"errors\": {},\n  \
             \"availability\": {availability:.4},\n  \
             \"served_stale_ratio\": {stale_ratio:.4},\n  \
             \"retries\": {},\n  \
             \"stale_serves\": {},\n  \
             \"deadline_breaches\": {},\n  \
             \"queries_per_sec\": {qps:.0},\n  \
             \"deterministic_replay\": {deterministic},\n  \
             \"pass\": {pass}\n}}\n",
            tally.queries,
            tally.fresh,
            tally.stale,
            tally.errors,
            tally.retries,
            tally.stale_serves,
            tally.deadline_breaches,
        );
        std::fs::write(&path, json).expect("write E17_JSON");
        println!("wrote {path}");
    }
    assert!(
        pass,
        "fault-storm acceptance failed: availability {availability:.4}, \
         retries {}, deterministic {deterministic}",
        tally.retries
    );
}
