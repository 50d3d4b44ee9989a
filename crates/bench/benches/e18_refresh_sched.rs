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
//! `BENCH_QUICK=1` shrinks the round count.

use infogram_bench::{manual_world_with_config, row, table, Report};
use infogram_info::config::ServiceConfig;
use infogram_info::sched::RefreshScheduler;
use infogram_info::service::QueryOptions;
use infogram_info::{Cause, SubscriptionHub};
use infogram_rsl::InfoSelector;
use infogram_sim::clock::Clock;
use infogram_sim::metrics::MetricSet;
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
    let count = |name: String| world.info.metrics().counter_value(&name);
    QUERIED.iter().fold((0, 0), |(h, m), k| {
        (
            h + count(format!("info.hits.{k}")),
            m + count(format!("info.misses.{k}")),
        )
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
    let hub = SubscriptionHub::new(world.info.hostname(), MetricSet::new());
    let sched = RefreshScheduler::new(world.clock.clone(), metrics.clone(), hub);
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
        e.refresh(Cause::Query { deadline: None }).expect("seed");
    }
    let mut last = vec![world.clock.now(); entries.len()];

    let opts = QueryOptions::default();
    let sels = selectors();
    let mut tally = Tally::default();
    for round in 0..rounds {
        world.clock.advance(STEP);
        for (i, e) in entries.iter().enumerate() {
            if world.clock.now().since(last[i]) >= e.ttl() {
                e.refresh(Cause::Query { deadline: None })
                    .expect("poll refresh");
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
    let rounds = if infogram_bench::quick() { 600 } else { 3000 };
    let mut report = Report::start(
        env!("CARGO_CRATE_NAME"),
        "E18",
        "adaptive refresh scheduling vs TTL-expiry polling",
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
        "arm|queries|hits|misses|hit rate|provider execs",
        &[
            row![
                "scheduler",
                sched.queries,
                sched.hits,
                sched.misses,
                format!("{hit_rate:.4}"),
                sched.executions
            ],
            row![
                "ttl-polling",
                polling.queries,
                polling.hits,
                polling.misses,
                format!("{polling_hit_rate:.4}"),
                polling.executions
            ],
        ],
    );
    table(
        "prefetches|cold skips|execs saved|queries/s",
        &[row![
            sched.prefetches,
            sched.skipped,
            (polling.executions.saturating_sub(sched.executions)),
            format!("{qps:.0}")
        ]],
    );

    // Replay: the same seed must reproduce the exact same tallies.
    let (replay, _) = run_scheduled(rounds);
    let deterministic = replay == sched;

    report.claim(
        "prefetched_hits",
        "steady traffic on prefetched keywords hits >=99.9% of the time",
        hit_rate >= 0.999,
        format!(
            "{hit_rate:.4} ({} hits, {} misses)",
            sched.hits, sched.misses
        ),
    );
    report.claim(
        "fewer_executions_than_polling",
        "with strictly fewer provider executions than polling every keyword each TTL",
        sched.executions < polling.executions,
        format!(
            "{} vs {} under polling",
            sched.executions, polling.executions
        ),
    );
    report.claim(
        "cold_keywords_skipped",
        "cold keywords are skipped, not refreshed",
        sched.skipped > 0,
        format!(
            "{} cold skips, {} prefetches",
            sched.skipped, sched.prefetches
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
