//! Chaos smoke: the full sandbox (server, wire protocol, client) under
//! a randomized-but-seeded fault storm.
//!
//! Every provider execution rolls the storm dice — 10% fail, 2% hang,
//! 5% run slow — while a real client hammers queries and submits a few
//! jobs over the in-memory network. The same plan makes the service's
//! WAL disk misbehave (failed appends, short writes, failed fsyncs),
//! so job submissions can be honestly refused with
//! `UNAVAILABLE` + a retry hint while the log is read-only. The run
//! must finish with zero panics, a bounded query-error rate, and every
//! submission eventually accepted once the log heals: the fault-domain
//! supervisor turns provider carnage into retries and honestly-tagged
//! stale answers, and the WAL turns disk carnage into bounded
//! read-only windows — never INTERNAL errors or silent acks.
//!
//! The storm is seeded: one seed drives both domains, is printed up
//! front and can be pinned with `SEED=<n>` to replay a failing run's
//! draws exactly. `ROUNDS=<n>` scales the run length.
//!
//! Driven by `scripts/chaos_smoke.sh`.

use infogram::exec::{FrameWal, MemStorage, WalStorage};
use infogram::info::config::{ServiceConfig, TABLE1_TEXT};
use infogram::proto::message::{codes, JobStateCode};
use infogram::quickstart::{Sandbox, SandboxConfig};
use infogram::sim::fault::{Plan, Storm};
use infogram_client::ClientError;
use std::sync::Arc;
use std::time::Duration;

const KEYWORDS: [&str; 5] = ["Date", "Memory", "CPU", "CPULoad", "list"];

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

fn main() {
    let seed = env_u64("SEED").unwrap_or_else(|| {
        // Fresh entropy per run unless pinned; the printed seed replays it.
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0xc4a0_5eed)
    });
    let rounds = env_u64("ROUNDS").unwrap_or(40);
    println!("chaos seed: {seed}  (replay: SEED={seed} cargo run --example chaos)");

    // Table 1 plus linear degradation windows, so a flapping provider's
    // last-known-good value stays servable for 5 s instead of flooring
    // to zero the moment its TTL expires.
    let mut text = TABLE1_TEXT.to_string();
    for kw in KEYWORDS {
        text.push_str(&format!("@degradation {kw} linear 5000\n"));
    }
    // One plan, one seed, two domains. Providers: the sandbox charges
    // costs by really sleeping, so injected stalls stay short (they still
    // blow TTL-0 budgets). The WAL's disk: failed appends / short writes /
    // failed fsyncs flip the job log read-only for its retry window;
    // submissions then get UNAVAILABLE with a retry hint instead of a
    // silent ack. Only jobs write to the log — some twenty appends a run,
    // the 200 queries none — so the disk odds are per job record, set for
    // about one fault per run.
    let plan = Plan::storm(
        seed,
        Storm {
            hang_for: Duration::from_millis(20),
            slow_by: Duration::from_millis(2),
            append_fail_p: 0.03,
            short_p: 0.01,
            fsync_fail_p: 0.03,
            ..Storm::default()
        },
    );
    let disk = MemStorage::with_plan(Some(Arc::clone(&plan)));
    let wal_sink = FrameWal::open(Arc::clone(&disk) as Arc<dyn WalStorage>).expect("open wal");
    let sandbox = Sandbox::start_with(SandboxConfig {
        config: ServiceConfig::parse(&text).expect("config"),
        wal_sink: Some(wal_sink),
        ..Default::default()
    });
    let mut client = sandbox.connect_client();

    // Warm start before the weather turns: a storm hitting a cold cache
    // can only error — there is nothing last-known-good yet.
    for kw in KEYWORDS {
        client.info(kw).expect("warm-up");
    }
    sandbox.registry.set_fault_plan(plan);

    let mut queries = 0u64;
    let mut fresh = 0u64;
    let mut stale = 0u64;
    let mut errors = 0u64;
    let mut jobs_done = 0u64;
    let mut jobs_failed = 0u64;
    let mut wal_rejected = 0u64;
    for round in 0..rounds {
        for kw in KEYWORDS {
            queries += 1;
            match client.info(kw) {
                Ok(r) if r.degraded() => stale += 1,
                Ok(_) => fresh += 1,
                // A provider error surfacing is tolerated (bounded
                // below); a protocol/transport failure is not — the
                // service itself must stay up.
                Err(ClientError::Server { .. }) => errors += 1,
                Err(other) => panic!("round {round}: non-server failure: {other}"),
            }
        }
        // A few jobs ride along; the storm may legitimately fail them
        // (simwork runs through the same fault-injected registry), and
        // the disk storm may refuse them while the log is read-only —
        // but refusal is UNAVAILABLE with a retry hint, the window is
        // bounded, and a retried submission must land.
        if round % 8 == 0 {
            let mut handle = None;
            for _attempt in 0..15 {
                match client.submit("(executable=simwork)(arguments=5)", false) {
                    Ok(h) => {
                        handle = Some(h);
                        break;
                    }
                    Err(ClientError::Server { code, message }) if code == codes::UNAVAILABLE => {
                        assert!(
                            message.contains("retry-after-ms="),
                            "read-only refusal lacks a retry hint: {message} (seed {seed})"
                        );
                        wal_rejected += 1;
                        std::thread::sleep(Duration::from_millis(300));
                    }
                    Err(other) => panic!("round {round}: submit failed: {other}"),
                }
            }
            let handle =
                handle.unwrap_or_else(|| panic!("read-only window never healed (seed {seed})"));
            let (state, _, _) = client
                .wait_terminal(&handle, Duration::from_millis(2), Duration::from_secs(5))
                .expect("wait_terminal");
            if state == JobStateCode::Done {
                jobs_done += 1;
            } else {
                jobs_failed += 1;
            }
        }
    }
    let wal_append_errors = sandbox
        .service
        .engine()
        .metrics()
        .counter_value("wal.append_errors");
    sandbox.shutdown();

    let error_rate = errors as f64 / queries as f64;
    println!(
        "chaos: {queries} queries -> {fresh} fresh, {stale} stale, {errors} errors \
         (rate {:.3}); jobs: {jobs_done} done, {jobs_failed} failed; \
         wal: {wal_append_errors} disk faults, {wal_rejected} read-only refusals",
        error_rate
    );
    // The supervisor's whole job: provider faults at 10% must not show
    // up as anywhere near 10% query errors.
    assert!(
        error_rate <= 0.05,
        "error rate {error_rate:.3} exceeds budget 0.05 (seed {seed})"
    );
    println!("chaos smoke ok (seed {seed})");
}
