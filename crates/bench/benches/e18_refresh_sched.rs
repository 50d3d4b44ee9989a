//! E18 — the adaptive refresh scheduler against TTL-expiry polling:
//! with demand concentrated on a few hot keywords, the scheduler must
//! deliver a near-perfect cache-hit rate at steady load (prefetching
//! just before expiry) while executing *strictly fewer* provider
//! invocations than the naive baseline that re-executes every keyword
//! each TTL regardless of demand.
//!
//! Both arms run the same seeded world on the virtual clock with the
//! same query schedule; only the refresh policy differs. The scheduler
//! arm replays itself from the seed to prove determinism.
//!
//! Env knobs: `E18_QUICK=1` shrinks the round count for smoke runs;
//! `E18_JSON=<path>` writes a machine-readable result with a `pass`
//! flag (used by `scripts/bench_smoke.sh`).

use infogram_bench::{banner, manual_world_with_config, table};
use infogram_info::config::ServiceConfig;
use infogram_info::sched::RefreshScheduler;
use infogram_info::service::QueryOptions;
use infogram_rsl::InfoSelector;
use infogram_sim::clock::Clock;
use std::time::{Duration, Instant};

const SEED: u64 = 0xe18_5ced;

/// Virtual time between query rounds.
const STEP: Duration = Duration::from_millis(10);

/// Two hot keywords (queried every round), one warm (every 5th round),
/// two cold (never queried). TTLs in milliseconds, Table 1 format.
const CONFIG: &str = "100 Hot1 date -u\n\
                      100 Hot2 date -u\n\
                      200 Warm date -u\n\
                      100 Cold1 date -u\n\
                      200 Cold2 date -u\n";

const QUERIED: [&str; 3] = ["Hot1", "Hot2", "Warm"];

#[derive(Debug, Default, PartialEq, Clone)]
struct Tally {
    queries: u64,
    hits: u64,
    misses: u64,
    executions: u64,
    prefetches: u64,
    skipped: u64,
}

fn selectors() -> Vec<InfoSelector> {
    QUERIED
        .iter()
        .map(|k| InfoSelector::Keyword(k.to_string()))
        .collect()
}

fn query_round(
    world: &infogram_bench::ManualWorld,
    sels: &[InfoSelector],
    round: usize,
    opts: &QueryOptions,
) -> u64 {
    let mut queries = 0;
    for (i, sel) in sels.iter().enumerate() {
        // Hot1/Hot2 every round, Warm every 5th.
        if i == 2 && !round.is_multiple_of(5) {
            continue;
        }
        world
            .info
            .answer(std::slice::from_ref(sel), opts)
            .expect("query");
        queries += 1;
    }
    queries
}

fn hits_and_misses(world: &infogram_bench::ManualWorld) -> (u64, u64) {
    QUERIED
        .iter()
        .filter_map(|k| world.info.keyword_metrics(k))
        .fold((0, 0), |(h, m), km| {
            (h + km.hits.get(), m + km.misses.get())
        })
}

fn total_executions(world: &infogram_bench::ManualWorld) -> u64 {
    world
        .info
        .entries()
        .iter()
        .map(|e| e.execution_count())
        .sum()
}

/// Scheduler arm: one central refresh plan, queries ride the cache.
fn run_scheduled(rounds: usize) -> (Tally, f64) {
    let config = ServiceConfig::parse(CONFIG).expect("config");
    let world = manual_world_with_config(SEED, &config);
    let metrics = world.info.metrics();
    let sched = RefreshScheduler::new(world.clock.clone(), metrics.clone());
    sched.watch_service(&world.info);
    sched.tick(); // seed every cache before traffic starts

    let opts = QueryOptions::default();
    let sels = selectors();
    let mut tally = Tally::default();
    let start = Instant::now();
    for round in 0..rounds {
        world.clock.advance(STEP);
        while sched
            .next_deadline()
            .is_some_and(|d| d <= world.clock.now())
        {
            sched.tick();
        }
        tally.queries += query_round(&world, &sels, round, &opts);
    }
    let wall = start.elapsed().as_secs_f64();
    (tally.hits, tally.misses) = hits_and_misses(&world);
    tally.executions = total_executions(&world);
    tally.prefetches = metrics.counter_value("sched.prefetches");
    tally.skipped = metrics.counter_value("sched.skipped");
    (tally, wall)
}

/// Polling arm: the naive alternative — re-execute every keyword each
/// TTL, demand or not. Same world, same query schedule.
fn run_polling(rounds: usize) -> Tally {
    let config = ServiceConfig::parse(CONFIG).expect("config");
    let world = manual_world_with_config(SEED, &config);
    let entries = world.info.entries();
    // Seed, then poll each keyword on its own TTL boundary.
    for e in &entries {
        e.fetch_supervised(None).expect("seed");
    }
    let mut last = vec![world.clock.now(); entries.len()];

    let opts = QueryOptions::default();
    let sels = selectors();
    let mut tally = Tally::default();
    for round in 0..rounds {
        world.clock.advance(STEP);
        for (i, e) in entries.iter().enumerate() {
            if world.clock.now().since(last[i]) >= e.ttl() {
                e.fetch_supervised(None).expect("poll refresh");
                last[i] = world.clock.now();
            }
        }
        tally.queries += query_round(&world, &sels, round, &opts);
    }
    (tally.hits, tally.misses) = hits_and_misses(&world);
    tally.executions = total_executions(&world);
    tally
}

fn main() {
    let quick = std::env::var("E18_QUICK").is_ok_and(|v| v == "1");
    let rounds = if quick { 600 } else { 3000 };

    banner(
        "E18",
        "adaptive refresh scheduling vs TTL-expiry polling",
        "steady traffic on prefetched keywords hits >=99.9% of the time, \
         with strictly fewer provider executions than polling every \
         keyword each TTL; cold keywords are skipped, not refreshed; \
         the run replays byte-identically from its seed",
    );

    let (sched, wall) = run_scheduled(rounds);
    let polling = run_polling(rounds);
    let hit_rate = sched.hits as f64 / (sched.hits + sched.misses).max(1) as f64;
    let polling_hit_rate = polling.hits as f64 / (polling.hits + polling.misses).max(1) as f64;
    let qps = sched.queries as f64 / wall;

    println!(
        "\n-- {} rounds x {:?} virtual step, 2 hot + 1 warm + 2 cold keywords, seed {SEED:#x} --",
        rounds, STEP
    );
    table(
        &[
            "arm",
            "queries",
            "hits",
            "misses",
            "hit rate",
            "provider execs",
        ],
        &[
            vec![
                "scheduler".to_string(),
                sched.queries.to_string(),
                sched.hits.to_string(),
                sched.misses.to_string(),
                format!("{hit_rate:.4}"),
                sched.executions.to_string(),
            ],
            vec![
                "ttl-polling".to_string(),
                polling.queries.to_string(),
                polling.hits.to_string(),
                polling.misses.to_string(),
                format!("{polling_hit_rate:.4}"),
                polling.executions.to_string(),
            ],
        ],
    );
    table(
        &["prefetches", "cold skips", "execs saved", "queries/s"],
        &[vec![
            sched.prefetches.to_string(),
            sched.skipped.to_string(),
            (polling.executions.saturating_sub(sched.executions)).to_string(),
            format!("{qps:.0}"),
        ]],
    );

    // Replay: the same seed must reproduce the exact same tallies.
    let (replay, _) = run_scheduled(rounds);
    let deterministic = replay == sched;

    let pass = hit_rate >= 0.999
        && sched.executions < polling.executions
        && sched.skipped > 0
        && deterministic;
    println!(
        "\nreading: {:.2}% hit rate with {} provider executions vs {} under \
         TTL polling ({} cold skips, {} prefetches); \
         deterministic replay={deterministic}; pass={pass}",
        hit_rate * 100.0,
        sched.executions,
        polling.executions,
        sched.skipped,
        sched.prefetches,
    );

    if let Ok(path) = std::env::var("E18_JSON") {
        let json = format!(
            "{{\n  \"experiment\": \"e18_refresh_sched\",\n  \
             \"seed\": {SEED},\n  \
             \"rounds\": {rounds},\n  \
             \"queries\": {},\n  \
             \"hits\": {},\n  \
             \"misses\": {},\n  \
             \"hit_rate\": {hit_rate:.4},\n  \
             \"executions\": {},\n  \
             \"polling_executions\": {},\n  \
             \"prefetches\": {},\n  \
             \"cold_skips\": {},\n  \
             \"queries_per_sec\": {qps:.0},\n  \
             \"deterministic_replay\": {deterministic},\n  \
             \"pass\": {pass}\n}}\n",
            sched.queries,
            sched.hits,
            sched.misses,
            sched.executions,
            polling.executions,
            sched.prefetches,
            sched.skipped,
        );
        std::fs::write(&path, json).expect("write E18_JSON");
        println!("wrote {path}");
    }
    assert!(
        pass,
        "refresh-sched acceptance failed: hit rate {hit_rate:.4}, \
         executions {} vs polling {}, skips {}, deterministic {deterministic}",
        sched.executions, polling.executions, sched.skipped
    );
}
