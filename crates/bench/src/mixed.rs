//! The mixed-workload runner behind Figure 4.
//!
//! A closed-loop population of clients issues a stream of requests, each
//! an information query with probability `p_info` and a small job
//! submission otherwise — the traffic of §4's "simple production Grid".
//! The same workload runs against the two worlds, one [`run`] per
//! client type:
//!
//! * **baseline** — separate GRAM + MDS: every client opens two
//!   connections and speaks two protocols ([`DualClient`]);
//! * **unified** — one InfoGram service: one connection, one protocol
//!   ([`InfoGramClient`]).
//!
//! Connections, messages, and bytes come from the in-memory network's
//! accounting, handshakes and requests from each server's counters;
//! latencies are wall-clock per request.

use crate::Summary;
use infogram::quickstart::{Sandbox, SandboxConfig};
use infogram_client::{DualClient, InfoGramClient};
use infogram_sim::workload::{MixedWorkload, RequestKind};
use infogram_sim::SplitMix64;
use std::time::{Duration, Instant};

/// What one run of the workload produced.
pub struct MixedOutcome {
    /// Servers that completed a handshake: the listeners the workload
    /// reached.
    pub servers: u64,
    /// GSI handshakes the servers completed.
    pub handshakes: u64,
    /// The wire protocols whose servers counted requests.
    pub protocols: Vec<&'static str>,
    /// Connections opened.
    pub connections: u64,
    /// Wire messages exchanged.
    pub messages: u64,
    /// Wire bytes exchanged.
    pub bytes: u64,
    /// Of those, the bytes of the connects: handshakes and their acks.
    pub connect_bytes: u64,
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

/// A world's client, as the workload drives it: how it connects and how
/// it issues each kind of request.
pub trait WorldClient: Sized + Send {
    /// Whether the world is the baseline's separate GRAM and MDS.
    const BASELINE: bool;
    /// Open one client to the sandbox's world.
    fn connect(sandbox: &Sandbox) -> Self;
    /// One information query.
    fn info(&mut self, keyword: &str);
    /// Submit the workload's small job and wait until it finishes.
    fn job(&mut self);
}

/// The baseline: two connections, two protocols.
impl WorldClient for DualClient {
    const BASELINE: bool = true;
    fn connect(sandbox: &Sandbox) -> Self {
        sandbox.connect_dual_client()
    }
    fn info(&mut self, keyword: &str) {
        DualClient::info(self, keyword).expect("mds info");
    }
    fn job(&mut self) {
        let h = self.submit(JOB_RSL, false).expect("submit");
        self.wait_terminal(&h, Duration::from_millis(2), Duration::from_secs(10))
            .expect("terminal");
    }
}

/// InfoGram: one connection, one protocol.
impl WorldClient for InfoGramClient {
    const BASELINE: bool = false;
    fn connect(sandbox: &Sandbox) -> Self {
        sandbox.connect_client()
    }
    fn info(&mut self, keyword: &str) {
        InfoGramClient::info(self, keyword).expect("info");
    }
    fn job(&mut self) {
        let h = self.submit(JOB_RSL, false).expect("submit");
        self.wait_terminal(&h, Duration::from_millis(2), Duration::from_secs(10))
            .expect("terminal");
    }
}

/// Run the workload against the world `C` is a client of.
pub fn run<C: WorldClient>(
    clients: usize,
    requests_per_client: usize,
    p_info: f64,
    seed: u64,
) -> MixedOutcome {
    let sandbox = Sandbox::start_with(SandboxConfig {
        with_baseline: C::BASELINE,
        seed,
        ..Default::default()
    });
    let counters = || {
        ["net.connections", "net.messages", "net.bytes"]
            .map(|c| sandbox.net.metrics().counter_value(c))
    };
    // Every server the world runs, with its counter prefix and protocol.
    let servers = [
        (sandbox.service.engine().metrics(), "gram", "GRAMP"),
        (&sandbox.baseline_metrics, "gram", "GRAMP"),
        (&sandbox.baseline_metrics, "mds", "LDAP"),
    ];
    let server_counts = || {
        servers.map(|(m, prefix, _)| {
            ["handshakes", "requests"].map(|c| m.counter_value(&format!("{prefix}.{c}")))
        })
    };
    let before = counters();
    let servers_before = server_counts();
    let t0 = Instant::now();
    // Connected first, so the connects' bytes are counted apart.
    let connected: Vec<C> = (0..clients).map(|_| C::connect(&sandbox)).collect();
    let connect_bytes = counters()[2] - before[2];

    let all: Vec<Duration> = std::thread::scope(|scope| {
        let threads: Vec<_> = (connected.into_iter().enumerate())
            .map(|(c, mut client)| {
                scope.spawn(move || {
                    let mut workload = MixedWorkload::new(p_info, seed ^ (c as u64 + 1));
                    let mut rng = SplitMix64::new(seed ^ 0xc11e ^ c as u64);
                    let mut latencies = Vec::with_capacity(requests_per_client);
                    for _ in 0..requests_per_client {
                        let t = Instant::now();
                        match workload.next_kind() {
                            RequestKind::InfoQuery => {
                                let kw = *rng.pick(&["CPULoad", "Memory", "CPU"]);
                                client.info(kw)
                            }
                            RequestKind::JobSubmit => client.job(),
                        }
                        latencies.push(t.elapsed());
                    }
                    latencies
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("client thread"))
            .collect()
    });
    let wall = t0.elapsed();
    let after = counters();
    let moved: Vec<[u64; 2]> = (server_counts().iter().zip(&servers_before))
        .map(|(a, b)| [a[0] - b[0], a[1] - b[1]])
        .collect();
    let mut protocols: Vec<&'static str> = (servers.iter().zip(&moved))
        .filter(|(_, m)| m[1] > 0)
        .map(|((_, _, protocol), _)| *protocol)
        .collect();
    protocols.dedup();
    let outcome = MixedOutcome {
        servers: moved.iter().filter(|m| m[0] > 0).count() as u64,
        handshakes: moved.iter().map(|m| m[0]).sum(),
        protocols,
        connections: after[0] - before[0],
        messages: after[1] - before[1],
        bytes: after[2] - before[2],
        connect_bytes,
        latency: Summary::from_durations(&all),
        requests: all.len() as u64,
        wall,
    };
    sandbox.shutdown();
    outcome
}
