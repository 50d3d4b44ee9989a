//! Figure 1 — the GRAM three-tier architecture, measured.
//!
//! The paper's Figure 1 is a diagram (client tier → gatekeeper/job
//! manager middle tier → local-execution backend tier). We regenerate it
//! as numbers: where a job's wall time goes as it crosses the tiers —
//! gatekeeper (connect: GSI handshake + gridmap authorization), job
//! manager (submit: RSL parse, WAL, backend dispatch), and backend
//! (run: the job's own execution), plus status-poll cost.
//!
//! The tier costs are wall clock. The one gated on it holds by more than
//! an order of magnitude; the per-connection handshake is counted.

use infogram::quickstart::{Sandbox, SandboxConfig};
use infogram_bench::{fmt_secs, row, table, Report, Summary};
use infogram_client::GramClient;
use std::time::{Duration, Instant};

fn main() {
    let mut report = Report::start(
        env!("CARGO_CRATE_NAME"),
        "F1",
        "GRAM tier latency breakdown (Figure 1)",
    );

    let sandbox = Sandbox::start_with(SandboxConfig {
        with_baseline: true,
        ..Default::default()
    });
    let gram_addr = sandbox.baseline_gram.as_ref().unwrap().addr().to_string();

    const JOBS: usize = 40;
    let mut t_connect = Vec::new();
    let mut t_submit = Vec::new();
    let mut t_status = Vec::new();
    let mut t_run = Vec::new();

    for _ in 0..JOBS {
        // Client tier → gatekeeper: connection + mutual auth + gridmap.
        let t0 = Instant::now();
        let mut client = GramClient::connect(
            &sandbox.net,
            &gram_addr,
            &sandbox.user,
            &sandbox.roots,
            sandbox.clock.clone(),
        )
        .expect("connect");
        t_connect.push(t0.elapsed());

        // Middle tier: job manager startup (submit → handle).
        let t1 = Instant::now();
        let handle = client
            .submit("(executable=simwork)(arguments=20)", false)
            .expect("submit");
        t_submit.push(t1.elapsed());

        // One status poll (middle tier request handling).
        let t2 = Instant::now();
        client.status(&handle).expect("status");
        t_status.push(t2.elapsed());

        // Backend tier: the job's own run time.
        let t3 = Instant::now();
        let (state, _, _) = client
            .wait_terminal(&handle, Duration::from_millis(2), Duration::from_secs(10))
            .expect("terminal");
        assert_eq!(state.to_string(), "DONE");
        t_run.push(t3.elapsed());
    }

    let mut rows = Vec::new();
    let mut means = Vec::new();
    for (tier, what, samples) in [
        (
            "gatekeeper",
            "connect + GSI handshake + gridmap",
            &t_connect,
        ),
        ("job manager", "submit (parse, WAL, dispatch)", &t_submit),
        ("job manager", "status poll", &t_status),
        ("backend", "job execution (20 ms simwork)", &t_run),
    ] {
        let s = Summary::from_durations(samples);
        means.push(s.mean());
        rows.push(row![
            tier,
            what,
            fmt_secs(s.mean()),
            fmt_secs(s.median()),
            fmt_secs(s.quantile(0.95))
        ]);
    }
    table("tier|operation|mean|p50|p95", &rows);
    let metrics = sandbox.baseline_metrics.clone();
    sandbox.shutdown();

    let overhead = means[0] + means[1] + means[2];
    report.claim(
        "backend_dominates",
        "the backend tier (job runtime) costs over 10x the gatekeeper and job manager together",
        means[3] > 10.0 * overhead,
        format!(
            "backend {} vs {} (connect + submit + status)",
            fmt_secs(means[3]),
            fmt_secs(overhead)
        ),
    );
    let (handshakes, requests) = (
        metrics.counter_value("gram.handshakes"),
        metrics.counter_value("gram.requests"),
    );
    report.claim(
        "gatekeeper_cost_per_connection",
        "the gatekeeper's handshake is paid once per connection, not per request",
        handshakes == JOBS as u64 && requests > handshakes,
        format!("{handshakes} handshakes for {JOBS} connections and {requests} requests"),
    );
    report.finish();
}
