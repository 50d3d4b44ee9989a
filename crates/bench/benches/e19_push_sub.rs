//! E19 — push-subscription fan-out at scale: 100 000 standing
//! subscriptions spread across 64 keywords, driven through rounds of
//! record updates. The hub must deliver every version to every
//! subscriber exactly once, in order, with no gaps (the "missed
//! update" ledger), and the p99 per-subscriber fan-out cost must stay
//! bounded — O(subscribers-of-keyword), not O(all subscriptions).
//!
//! Every subscriber has its own bounded `Outbox`, and every frame is
//! decoded off the real wire encoding, so a timed notify is the whole
//! push: delta encode, frame build and queueing under the hub's lock,
//! then the drain and decode with no lock held.
//!
//! A second, engine-level row times one job transition against a
//! running `InfoGramService` with no other connection open and with
//! 1 000 idle authenticated ones (100 in quick mode) on a `MemNetwork`:
//! a transition should cost the same either way, since only the job's
//! own subscribers hear of it. That is gated as a count — the engine
//! observers one transition visits — and the times are reported.
//!
//! `BENCH_QUICK=1` shrinks the population.

use infogram::quickstart::Sandbox;
use infogram_bench::{row, table, Report, Summary};
use infogram_info::sub::SubscriptionHub;
use infogram_proto::message::Reply;
use infogram_proto::record::InfoRecord;
use infogram_proto::transport::{Conn, ProtoError};
use infogram_proto::{drain_all, Outbox};
use infogram_rsl::XrslRequest;
use infogram_sim::metrics::MetricSet;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

const KEYWORDS: usize = 64;
const ROUNDS: u64 = 20;
const HOST: &str = "bench.grid.example.org";

/// A subscriber's connection that decodes every frame it is sent and
/// records the delta versions, exactly as a client applying the stream
/// would. Never blocks, never fails — the bench measures the hub, not
/// a slow consumer.
#[derive(Default)]
struct CountingConn {
    versions: Mutex<Vec<u64>>,
}

impl Conn for CountingConn {
    fn send(&self, frame: &[u8]) -> Result<(), ProtoError> {
        let reply = Reply::decode(frame).expect("wire frame decodes");
        if let Reply::Update { deltas, .. } = reply {
            let mut seen = self.versions.lock();
            for d in &deltas {
                seen.push(d.version);
            }
        }
        Ok(())
    }
    fn recv(&self) -> Result<Vec<u8>, ProtoError> {
        Err(ProtoError::Closed)
    }
    fn peer(&self) -> String {
        "subscriber".to_string()
    }
}

fn keyword(i: usize) -> String {
    format!("kw{i:02}")
}

fn record(kw: &str, round: u64) -> InfoRecord {
    let mut rec = InfoRecord::new(kw, HOST);
    rec.push("value", &format!("round-{round}"));
    rec
}

/// One job transition against a sandbox service holding `idle` other
/// authenticated connections that send nothing: the median wall time,
/// in microseconds, of the `status` call that finds it, and the engine
/// observers it visits. The job fails after a millisecond and restarts,
/// `rounds` times: each round is two transitions (ACTIVE → PENDING on
/// the restart, PENDING → ACTIVE on the next poll).
fn transition(idle: usize, rounds: u32) -> (f64, usize) {
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
            if state != last {
                samples.push(t.elapsed());
            }
            last = state;
        }
    }
    let visits = engine.observer_count();
    drop(clients);
    sandbox.shutdown();
    (Summary::from_durations(&samples).median() * 1e6, visits)
}

fn main() {
    let quick = infogram_bench::quick();
    let population: usize = if quick { 10_000 } else { 100_000 };
    let mut report = Report::start(
        env!("CARGO_CRATE_NAME"),
        "E19",
        "push-subscription fan-out at scale",
    );

    let hub = SubscriptionHub::new(HOST, MetricSet::new());

    // --- enrolment: `population` subscribers, round-robin across keywords ---
    let mut sinks: Vec<Arc<CountingConn>> = Vec::with_capacity(population);
    let setup = Instant::now();
    for i in 0..population {
        let sink = Arc::new(CountingConn::default());
        hub.subscribe(
            std::slice::from_ref(&keyword(i % KEYWORDS)),
            "bench",
            Outbox::new(Arc::clone(&sink) as Arc<dyn Conn>, 64),
        );
        sinks.push(sink);
    }
    let setup_secs = setup.elapsed().as_secs_f64();
    assert_eq!(hub.active(), population);
    let per_keyword = population / KEYWORDS;

    // --- fan-out: ROUNDS updates on every keyword, timed per notify ---
    let mut notify = Vec::with_capacity(KEYWORDS * ROUNDS as usize);
    let drive = Instant::now();
    for round in 1..=ROUNDS {
        for k in 0..KEYWORDS {
            let kw = keyword(k);
            let t = Instant::now();
            drain_all(hub.notify_record(&kw, record(&kw, round)));
            notify.push(t.elapsed());
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

    let notify = Summary::from_durations(&notify);
    let (p50, p99) = (notify.median() * 1e6, notify.quantile(0.99) * 1e6);
    let p99_per_sub = p99 / per_keyword as f64;
    let throughput = delivered as f64 / drive_secs;

    println!(
        "\n-- {population} subscriptions, {KEYWORDS} keywords ({per_keyword}/keyword), \
         {ROUNDS} rounds --"
    );
    table(
        "deliveries|expected|gapped sinks|short sinks|deliveries/s",
        &[row![
            delivered,
            expected,
            gaps,
            short,
            format!("{throughput:.0}")
        ]],
    );
    table(
        "subscribe total (s)|notify p50 (us)|notify p99 (us)|p99 per subscriber (us)",
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
    let (alone_us, alone_visits) = transition(0, rounds);
    let (crowded_us, crowded_visits) = transition(idle, rounds);
    println!("\n-- one job transition (median `status` that finds it) --");
    table(
        "idle connections|transition (us)|observers visited",
        &[
            row!["0", format!("{alone_us:.2}"), alone_visits],
            row![idle, format!("{crowded_us:.2}"), crowded_visits],
        ],
    );

    report.claim(
        "every_version_exactly_once",
        "every subscriber receives every version of its keyword exactly once, in order, \
         with zero missed updates",
        delivered == expected && gaps == 0 && short == 0,
        format!("{delivered}/{expected} deliveries, {gaps} gapped, {short} short"),
    );
    report.claim(
        "fan_out_per_keyword",
        "fan-out touches only the keyword's own subscribers, keeping p99 per-subscriber \
         delivery under 100us",
        p99_per_sub < 100.0,
        format!("p99 {p99:.0}us for {per_keyword} subscribers, {p99_per_sub:.2}us each"),
    );
    // Flat: idle peers add nothing to a transition (a per-connection
    // watcher is one more observer per connection, and at 100 of them
    // more than doubled its time).
    report.claim(
        "transition_flat_beside_idle_connections",
        "a job transition visits as many observers beside idle connections as alone",
        crowded_visits == alone_visits,
        format!("{alone_visits} alone, {crowded_visits} beside {idle} idle"),
    );
    report.reported(
        "transition_time_flat_beside_idle_connections",
        "a job transition takes the same time beside idle connections as alone",
        crowded_us <= 1.5 * alone_us + 2.0,
        format!("{alone_us:.2}us alone, {crowded_us:.2}us beside {idle} idle"),
    );
    report.figure("notify_p99_us", p99);
    report.figure("deliveries_per_sec", throughput);
    report.finish();
}
