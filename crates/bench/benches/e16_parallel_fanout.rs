//! E16 — the scatter-gather query engine: `(info=all)` over K slow
//! keywords should cost roughly one provider execution, not K of them,
//! because blocking fetches fan out across the scoped pool
//! (`infogram_sim::par`). The cache-hit path is the other half of the
//! bargain: with pre-interned per-keyword metric handles and
//! `Arc`-shared snapshots it does no name formatting and no attribute
//! deep-copies per query.
//!
//! Part 1 (real threads, real clock): K sleeping providers, TTL 0, one
//! `(info=all)` per round. Sequential cost would be K × 25 ms; the
//! fan-out pool should keep it near 1 × 25 ms for K ≤ 8.
//!
//! Part 2 (virtual clock): warm Table 1 service, pure cache hits, two
//! figures, each the minimum of [`HIT_REPS`] repetitions (one quick-mode
//! sample cannot tell 750 from 900 ns): `answer` alone (lookup + reply
//! records), and the same query as xRSL text through
//! `InfoGramDispatcher::dispatch` on one connection context — parse,
//! accounting, answer, render, dispatch telemetry.
//!
//! `BENCH_QUICK=1` shrinks the round counts. The fan-out claim is wall
//! clock but holds by a wide margin (sequential would be K×), so it stays
//! gated; the hit-path figures are reported.

use infogram_bench::{fmt_ratio, fmt_secs, manual_world, row, table, Report};
use infogram_core::InfoGramDispatcher;
use infogram_exec::gram::{ConnCtx, RequestDispatcher};
use infogram_exec::{EngineConfig, ForkBackend, JobEngine, Wal};
use infogram_info::provider::FnProvider;
use infogram_info::quality::DegradationFn;
use infogram_info::service::{InformationService, QueryOptions};
use infogram_info::SystemInformation;
use infogram_obs::MetricSet;
use infogram_proto::message::{Reply, Request};
use infogram_rsl::InfoSelector;
use infogram_sim::SystemClock;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Provider sleep per execution in Part 1.
const PROVIDER_MS: u64 = 25;

/// Repetitions of each Part 2 measurement; the minimum is reported.
const HIT_REPS: usize = 5;

/// A service with `k` slow keywords (each provider sleeps, TTL 0 so
/// every `(info=all)` re-executes all of them).
fn slow_service(k: usize) -> Arc<InformationService> {
    let clock = SystemClock::shared();
    let service = InformationService::new("e16.grid", clock.clone(), MetricSet::new());
    for i in 0..k {
        service.register(SystemInformation::new(
            Box::new(FnProvider::new(&format!("Slow{i:02}"), move || {
                std::thread::sleep(Duration::from_millis(PROVIDER_MS));
                Ok(vec![("v".to_string(), i.to_string())])
            })),
            clock.clone(),
            Duration::ZERO,
            DegradationFn::default(),
        ));
    }
    service
}

/// Mean wall-clock seconds of one `(info=all)` against `k` slow
/// keywords, over `rounds` rounds.
fn fan_out_cost(k: usize, rounds: usize) -> f64 {
    let service = slow_service(k);
    let opts = QueryOptions::default();
    // One warm-up round so thread-spawn jitter is off the books.
    service.answer(&[InfoSelector::All], &opts).expect("warmup");
    let start = Instant::now();
    for _ in 0..rounds {
        let records = service.answer(&[InfoSelector::All], &opts).expect("all");
        assert_eq!(records.len(), k);
    }
    start.elapsed().as_secs_f64() / rounds as f64
}

/// The fastest of [`HIT_REPS`] runs of `iters` calls of `query`, in ns
/// per call.
fn min_ns_per_call(iters: u64, mut query: impl FnMut()) -> f64 {
    (0..HIT_REPS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                query();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Cache-hit cost against a warm Table 1 service on a virtual clock
/// (time never advances, so every query is a pure hit through the
/// interned-handle hot path): `(answer alone, the whole dispatch)`.
fn hit_path_ns(iters: u64) -> (f64, f64) {
    let world = manual_world(16);
    let opts = QueryOptions::default();
    world
        .info
        .answer(&[InfoSelector::All], &opts)
        .expect("warm");
    let selectors = [InfoSelector::Keyword("Memory".to_string())];
    let answer = min_ns_per_call(iters, || {
        let records = world.info.answer(&selectors, &opts).expect("hit");
        assert_eq!(records.len(), 1);
    });

    let engine = JobEngine::new(
        EngineConfig::default(),
        world.clock.clone(),
        Wal::in_memory(),
        ForkBackend::new(Arc::clone(&world.registry)),
        MetricSet::new(),
    );
    let dispatcher = InfoGramDispatcher::new(engine, Arc::clone(&world.info));
    let mut ctx = ConnCtx::detached();
    let dispatch = min_ns_per_call(iters, || {
        let request = Request::Submit {
            rsl: "(info=Memory)".to_string(),
            callback: false,
        };
        match dispatcher.dispatch("/O=Grid/CN=E16", "e16", request, &mut ctx) {
            Reply::InfoResult { record_count, .. } => assert_eq!(record_count, 1),
            other => panic!("hit refused: {other:?}"),
        }
    });
    (answer, dispatch)
}

fn main() {
    let (rounds, hit_iters) = if infogram_bench::quick() {
        (3, 20_000)
    } else {
        (10, 200_000)
    };
    let mut report = Report::start(
        env!("CARGO_CRATE_NAME"),
        "E16",
        "scatter-gather fan-out + interned-handle hit path",
    );

    println!(
        "\n-- fan-out: (info=all), K keywords x {PROVIDER_MS} ms provider, \
         TTL 0, {rounds} rounds --"
    );
    let single = fan_out_cost(1, rounds);
    let mut rows = vec![vec![
        "1".to_string(),
        fmt_secs(single),
        fmt_secs(single),
        fmt_ratio(1.0),
    ]];
    let mut k4_ratio = f64::NAN;
    let mut k8_ratio = f64::NAN;
    for k in [2usize, 4, 8] {
        let cost = fan_out_cost(k, rounds);
        let ratio = cost / single;
        if k == 4 {
            k4_ratio = ratio;
        }
        if k == 8 {
            k8_ratio = ratio;
        }
        rows.push(row![
            k,
            fmt_secs(cost),
            fmt_secs(single * k as f64),
            fmt_ratio(ratio)
        ]);
    }
    table("K|(info=all) cost|sequential cost|vs one provider", &rows);

    println!(
        "\n-- hot path: warm Table 1 hits, virtual clock, min of {HIT_REPS} x {hit_iters} queries --"
    );
    let (ns, dispatch_ns) = hit_path_ns(hit_iters);
    table(
        "path|ns/query|queries/s",
        &[
            row!["answer", format!("{ns:.0}"), format!("{:.0}", 1e9 / ns)],
            row![
                "dispatch (xRSL text in, rendered reply out)",
                format!("{dispatch_ns:.0}"),
                format!("{:.0}", 1e9 / dispatch_ns)
            ],
        ],
    );

    // The pool holds 8 slots, so K=8 should also stay close; allow
    // scheduler slack.
    report.claim(
        "fan_out_costs_one_provider",
        "(info=all) over K slow keywords costs ~1 provider execution for K<=8 \
         (sequential would cost K): K=4 within 1.5x and K=8 within 2x of one provider",
        k4_ratio <= 1.5 && k8_ratio <= 2.0,
        format!("K=4 {}, K=8 {}", fmt_ratio(k4_ratio), fmt_ratio(k8_ratio)),
    );
    report.figure("single_keyword_secs", single);
    report.figure("hit_path_ns_per_query", ns);
    report.figure("dispatch_hit_ns_per_query", dispatch_ns);
    report.finish();
}
