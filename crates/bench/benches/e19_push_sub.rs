//! E19 — push-subscription fan-out at scale: 100 000 standing
//! subscriptions spread across 64 keywords, driven through rounds of
//! record updates. The hub must deliver every version to every
//! subscriber exactly once, in order, with no gaps (the "missed
//! update" ledger), and the p99 per-subscriber fan-out cost must stay
//! bounded — O(subscribers-of-keyword), not O(all subscriptions).
//!
//! Every frame is decoded off the real wire encoding, so the measured
//! path includes delta encode + frame build + decode, exactly what a
//! connection outbox would carry.
//!
//! A second, engine-level row times one job transition against a
//! running `InfoGramService` with no other connection open and with
//! 1 000 idle authenticated ones (100 in quick mode) on a `MemNetwork`:
//! a transition should cost the same either way, since only the job's
//! own subscribers hear of it.
//!
//! Env knobs: `E19_QUICK=1` shrinks the population for smoke runs;
//! `E19_JSON=<path>` writes a machine-readable result with a `pass`
//! flag (used by `scripts/bench_smoke.sh`).

use infogram::quickstart::Sandbox;
use infogram_bench::{banner, table};
use infogram_info::sub::{SinkClosed, SubSink, SubscriptionHub};
use infogram_proto::message::Reply;
use infogram_proto::record::InfoRecord;
use infogram_rsl::XrslRequest;
use infogram_sim::metrics::MetricSet;
use infogram_sim::ManualClock;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

const KEYWORDS: usize = 64;
const ROUNDS: u64 = 20;
const HOST: &str = "bench.grid.example.org";

/// A subscriber endpoint that decodes every frame it is handed and
/// records the delta versions, exactly as a client applying the stream
/// would. Never blocks, never fails — the bench measures the hub, not
/// a slow consumer.
struct CountingSink {
    versions: Mutex<Vec<u64>>,
}

impl CountingSink {
    fn new() -> Arc<Self> {
        Arc::new(CountingSink {
            versions: Mutex::new(Vec::new()),
        })
    }
}

impl SubSink for CountingSink {
    fn deliver(&self, frame: Vec<u8>) -> Result<(), SinkClosed> {
        let reply = Reply::decode(&frame).expect("wire frame decodes");
        if let Reply::Update { deltas, .. } = reply {
            let mut seen = self.versions.lock();
            for d in &deltas {
                seen.push(d.version);
            }
        }
        Ok(())
    }

    fn close(&self, _frame: Vec<u8>) {}
}

fn keyword(i: usize) -> String {
    format!("kw{i:02}")
}

fn record(kw: &str, round: u64) -> InfoRecord {
    let mut rec = InfoRecord::new(kw, HOST);
    rec.push("value", &format!("round-{round}"));
    rec
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// Median wall time, in microseconds, of the `status` call that finds a
/// job transition, against a sandbox service holding `idle` other
/// authenticated connections that send nothing. The job fails after a
/// millisecond and restarts, `rounds` times: each round is two
/// transitions (ACTIVE → PENDING on the restart, PENDING → ACTIVE on the
/// next poll).
fn transition_us(idle: usize, rounds: u32) -> f64 {
    let sandbox = Sandbox::start();
    let clients: Vec<_> = (0..idle).map(|_| sandbox.connect_client()).collect();
    // The last connections finish setting up after their client returns.
    std::thread::sleep(Duration::from_millis(50));
    let engine = sandbox.service.engine();
    let rsl = format!(
        "&(executable=simwork)(arguments=1 5)(restartonfail={})",
        2 * rounds
    );
    let spec = XrslRequest::from_text(&rsl)
        .expect("xRSL")
        .job
        .expect("job");
    let handle = engine
        .submit(&rsl, spec, "/O=Grid/OU=ANL/CN=Gregor", "gregor")
        .expect("accepted");
    let mut last = engine.status(handle.job_id).expect("known").state;
    let mut samples = Vec::with_capacity(2 * rounds as usize);
    for _ in 0..rounds {
        std::thread::sleep(Duration::from_millis(2));
        for _ in 0..2 {
            let t = Instant::now();
            let state = engine.status(handle.job_id).expect("known").state;
            let us = t.elapsed().as_secs_f64() * 1e6;
            if state != last {
                samples.push(us);
            }
            last = state;
        }
    }
    drop(clients);
    sandbox.shutdown();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    percentile(&samples, 0.5)
}

fn main() {
    let quick = std::env::var("E19_QUICK").is_ok_and(|v| v == "1");
    let population: usize = if quick { 10_000 } else { 100_000 };

    banner(
        "E19",
        "push-subscription fan-out at scale",
        "100k standing subscriptions over 64 keywords: every subscriber \
         receives every version of its keyword exactly once, in order, \
         with zero missed updates; fan-out touches only the keyword's \
         own subscribers, keeping p99 per-subscriber delivery under 100us",
    );

    let clock = ManualClock::new();
    let hub = SubscriptionHub::new(clock, HOST, MetricSet::new());

    // --- enrolment: `population` sinks, round-robin across keywords ---
    let mut sinks: Vec<Arc<CountingSink>> = Vec::with_capacity(population);
    let setup = Instant::now();
    for i in 0..population {
        let sink = CountingSink::new();
        hub.subscribe(
            std::slice::from_ref(&keyword(i % KEYWORDS)),
            "bench",
            Arc::clone(&sink) as Arc<dyn SubSink>,
        );
        sinks.push(sink);
    }
    let setup_secs = setup.elapsed().as_secs_f64();
    assert_eq!(hub.active(), population);
    let per_keyword = population / KEYWORDS;

    // --- fan-out: ROUNDS updates on every keyword, timed per notify ---
    let mut notify_us: Vec<f64> = Vec::with_capacity(KEYWORDS * ROUNDS as usize);
    let drive = Instant::now();
    for round in 1..=ROUNDS {
        for k in 0..KEYWORDS {
            let kw = keyword(k);
            let t = Instant::now();
            hub.notify_record(&kw, record(&kw, round));
            notify_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    let drive_secs = drive.elapsed().as_secs_f64();

    // --- the missed-update ledger: exactly-once, in-order, no gaps ---
    let mut gaps = 0usize;
    let mut short = 0usize;
    let mut delivered = 0u64;
    for sink in &sinks {
        let seen = sink.versions.lock();
        delivered += seen.len() as u64;
        if seen.len() as u64 != ROUNDS {
            short += 1;
            continue;
        }
        if seen.iter().enumerate().any(|(i, v)| *v != i as u64 + 1) {
            gaps += 1;
        }
    }
    let expected = population as u64 * ROUNDS;

    notify_us.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let p50 = percentile(&notify_us, 0.50);
    let p99 = percentile(&notify_us, 0.99);
    let p99_per_sub = p99 / per_keyword as f64;
    let throughput = delivered as f64 / drive_secs;

    println!(
        "\n-- {population} subscriptions, {KEYWORDS} keywords ({per_keyword}/keyword), \
         {ROUNDS} rounds --"
    );
    table(
        &[
            "deliveries",
            "expected",
            "gapped sinks",
            "short sinks",
            "deliveries/s",
        ],
        &[vec![
            delivered.to_string(),
            expected.to_string(),
            gaps.to_string(),
            short.to_string(),
            format!("{throughput:.0}"),
        ]],
    );
    table(
        &[
            "subscribe total (s)",
            "notify p50 (us)",
            "notify p99 (us)",
            "p99 per subscriber (us)",
        ],
        &[vec![
            format!("{setup_secs:.2}"),
            format!("{p50:.0}"),
            format!("{p99:.0}"),
            format!("{p99_per_sub:.2}"),
        ]],
    );

    // --- engine row: one job transition, with and without idle peers ---
    let idle: usize = if quick { 100 } else { 1_000 };
    let rounds = if quick { 200 } else { 500 };
    let alone_us = transition_us(0, rounds);
    let crowded_us = transition_us(idle, rounds);
    println!("\n-- one job transition (median `status` that finds it) --");
    table(
        &["idle connections", "transition (us)"],
        &[
            vec!["0".to_string(), format!("{alone_us:.2}")],
            vec![idle.to_string(), format!("{crowded_us:.2}")],
        ],
    );

    // Flat: idle peers add nothing to a transition (at 100 of them, a
    // per-connection watcher more than doubled it).
    let flat = crowded_us <= 1.5 * alone_us + 2.0;
    let pass = delivered == expected && gaps == 0 && short == 0 && p99_per_sub < 100.0 && flat;
    println!(
        "\nreading: {delivered}/{expected} deliveries, {gaps} gapped and {short} short \
         subscribers (zero missed updates), p99 fan-out {p99:.0}us for {per_keyword} \
         subscribers ({p99_per_sub:.2}us each); a transition costs {alone_us:.2}us \
         alone and {crowded_us:.2}us beside {idle} idle connections; pass={pass}"
    );

    if let Ok(path) = std::env::var("E19_JSON") {
        let json = format!(
            "{{\n  \"experiment\": \"e19_push_sub\",\n  \
             \"population\": {population},\n  \
             \"keywords\": {KEYWORDS},\n  \
             \"rounds\": {ROUNDS},\n  \
             \"deliveries\": {delivered},\n  \
             \"expected\": {expected},\n  \
             \"gapped_sinks\": {gaps},\n  \
             \"short_sinks\": {short},\n  \
             \"deliveries_per_sec\": {throughput:.0},\n  \
             \"notify_p50_us\": {p50:.1},\n  \
             \"notify_p99_us\": {p99:.1},\n  \
             \"p99_per_subscriber_us\": {p99_per_sub:.3},\n  \
             \"idle_connections\": {idle},\n  \
             \"transition_us_alone\": {alone_us:.2},\n  \
             \"transition_us_beside_idle\": {crowded_us:.2},\n  \
             \"pass\": {pass}\n}}\n"
        );
        std::fs::write(&path, json).expect("write E19_JSON");
        println!("wrote {path}");
    }
    assert!(
        pass,
        "push-sub acceptance failed: {delivered}/{expected} deliveries, \
         {gaps} gapped, {short} short, p99/subscriber {p99_per_sub:.2}us, \
         transition {alone_us:.2}us alone vs {crowded_us:.2}us beside {idle} idle"
    );
}
