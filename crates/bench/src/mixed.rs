//! The shared mixed-workload runner behind Figures 2–4.
//!
//! A closed-loop population of clients issues a stream of requests, each
//! an information query with probability `p_info` and a small job
//! submission otherwise — the traffic of §4's "simple production Grid".
//! The same workload runs against the two worlds:
//!
//! * **baseline** — separate GRAM + MDS: every client opens two
//!   connections and speaks two protocols;
//! * **unified** — one InfoGram service: one connection, one protocol.
//!
//! Connections, messages, and bytes come from the in-memory network's
//! accounting; latencies are wall-clock per request.

use crate::Summary;
use infogram::quickstart::{Sandbox, SandboxConfig};
use infogram_sim::workload::MixedWorkload;
use infogram_sim::SplitMix64;
use std::time::{Duration, Instant};

/// What one run of the workload produced.
pub struct MixedOutcome {
    /// Connections opened.
    pub connections: u64,
    /// Wire messages exchanged.
    pub messages: u64,
    /// Wire bytes exchanged.
    pub bytes: u64,
    /// Per-request latency summary.
    pub latency: Summary,
    /// Total requests completed.
    pub requests: u64,
    /// Wall time of the whole run.
    pub wall: Duration,
}

/// The job each "job" request submits: small, so protocol costs stay
/// visible next to execution time.
const JOB_RSL: &str = "(executable=simwork)(arguments=5)";

/// Run the workload against the baseline world (Figure 2).
pub fn run_baseline(
    clients: usize,
    requests_per_client: usize,
    p_info: f64,
    seed: u64,
) -> MixedOutcome {
    let sandbox = Sandbox::start_with(SandboxConfig {
        with_baseline: true,
        seed,
        ..Default::default()
    });
    // with_baseline is set four lines up, so both servers exist.
    #[allow(clippy::unwrap_used)]
    let gram_addr = sandbox.baseline_gram.as_ref().unwrap().addr().to_string();
    #[allow(clippy::unwrap_used)]
    let mds_addr = sandbox.baseline_mds.as_ref().unwrap().addr().to_string();

    let before_conns = sandbox.net.metrics().counter_value("net.connections");
    let before_msgs = sandbox.net.metrics().counter_value("net.messages");
    let before_bytes = sandbox.net.metrics().counter_value("net.bytes");
    let t0 = Instant::now();

    let mut threads = Vec::new();
    for c in 0..clients {
        let net = sandbox.net.clone();
        let user = sandbox.user.clone();
        let roots = sandbox.roots.clone();
        let clock = sandbox.clock.clone();
        let gram_addr = gram_addr.clone();
        let mds_addr = mds_addr.clone();
        threads.push(std::thread::spawn(move || {
            let mut dual = infogram_client::DualClient::connect(
                &net, &gram_addr, &mds_addr, &user, &roots, clock,
            )
            .expect("dual connect");
            let mut workload = MixedWorkload::new(p_info, seed ^ (c as u64 + 1));
            let mut rng = SplitMix64::new(seed ^ 0xc11e ^ c as u64);
            let mut latencies = Vec::with_capacity(requests_per_client);
            for _ in 0..requests_per_client {
                let t = Instant::now();
                match workload.next_kind() {
                    infogram_sim::workload::RequestKind::InfoQuery => {
                        let kw = *rng.pick(&["CPULoad", "Memory", "CPU"]);
                        dual.info(kw).expect("mds info");
                    }
                    infogram_sim::workload::RequestKind::JobSubmit => {
                        let h = dual.submit(JOB_RSL, false).expect("submit");
                        dual.wait_terminal(&h, Duration::from_millis(2), Duration::from_secs(10))
                            .expect("terminal");
                    }
                }
                latencies.push(t.elapsed());
            }
            latencies
        }));
    }
    let mut all: Vec<Duration> = Vec::new();
    for t in threads {
        all.extend(t.join().expect("client thread"));
    }
    let wall = t0.elapsed();
    let outcome = MixedOutcome {
        connections: sandbox.net.metrics().counter_value("net.connections") - before_conns,
        messages: sandbox.net.metrics().counter_value("net.messages") - before_msgs,
        bytes: sandbox.net.metrics().counter_value("net.bytes") - before_bytes,
        latency: Summary::from_durations(&all),
        requests: all.len() as u64,
        wall,
    };
    sandbox.shutdown();
    outcome
}

/// Run the workload against the unified world (Figure 3).
pub fn run_unified(
    clients: usize,
    requests_per_client: usize,
    p_info: f64,
    seed: u64,
) -> MixedOutcome {
    let sandbox = Sandbox::start_with(SandboxConfig {
        seed,
        ..Default::default()
    });
    let before_conns = sandbox.net.metrics().counter_value("net.connections");
    let before_msgs = sandbox.net.metrics().counter_value("net.messages");
    let before_bytes = sandbox.net.metrics().counter_value("net.bytes");
    let t0 = Instant::now();

    let mut threads = Vec::new();
    for c in 0..clients {
        let net = sandbox.net.clone();
        let addr = sandbox.addr().to_string();
        let user = sandbox.user.clone();
        let roots = sandbox.roots.clone();
        let clock = sandbox.clock.clone();
        threads.push(std::thread::spawn(move || {
            let mut client =
                infogram_client::InfoGramClient::connect(&net, &addr, &user, &roots, clock)
                    .expect("connect");
            let mut workload = MixedWorkload::new(p_info, seed ^ (c as u64 + 1));
            let mut rng = SplitMix64::new(seed ^ 0xc11e ^ c as u64);
            let mut latencies = Vec::with_capacity(requests_per_client);
            for _ in 0..requests_per_client {
                let t = Instant::now();
                match workload.next_kind() {
                    infogram_sim::workload::RequestKind::InfoQuery => {
                        let kw = *rng.pick(&["CPULoad", "Memory", "CPU"]);
                        client.info(kw).expect("info");
                    }
                    infogram_sim::workload::RequestKind::JobSubmit => {
                        let h = client.submit(JOB_RSL, false).expect("submit");
                        client
                            .wait_terminal(&h, Duration::from_millis(2), Duration::from_secs(10))
                            .expect("terminal");
                    }
                }
                latencies.push(t.elapsed());
            }
            latencies
        }));
    }
    let mut all: Vec<Duration> = Vec::new();
    for t in threads {
        all.extend(t.join().expect("client thread"));
    }
    let wall = t0.elapsed();
    let outcome = MixedOutcome {
        connections: sandbox.net.metrics().counter_value("net.connections") - before_conns,
        messages: sandbox.net.metrics().counter_value("net.messages") - before_msgs,
        bytes: sandbox.net.metrics().counter_value("net.bytes") - before_bytes,
        latency: Summary::from_durations(&all),
        requests: all.len() as u64,
        wall,
    };
    sandbox.shutdown();
    outcome
}

/// Rows describing one outcome, shared by the figure benches.
pub fn outcome_row(label: &str, o: &MixedOutcome) -> Vec<String> {
    vec![
        label.to_string(),
        o.connections.to_string(),
        o.messages.to_string(),
        o.bytes.to_string(),
        crate::fmt_secs(o.latency.mean()),
        crate::fmt_secs(o.latency.quantile(0.95)),
        format!("{:.0}", o.requests as f64 / o.wall.as_secs_f64()),
    ]
}

/// The header matching [`outcome_row`].
pub const OUTCOME_HEADER: [&str; 7] = [
    "world", "conns", "messages", "bytes", "mean-lat", "p95-lat", "req/s",
];
