//! Figure 1 — the GRAM three-tier architecture, measured.
//!
//! The paper's Figure 1 is a diagram (client tier → gatekeeper/job
//! manager middle tier → local-execution backend tier). We regenerate it
//! as numbers: where a job's wall time goes as it crosses the tiers —
//! gatekeeper (connect: GSI handshake + gridmap authorization), job
//! manager (submit: RSL parse, WAL, backend dispatch), and backend
//! (run: the job's own execution), plus status-poll cost.

use infogram::quickstart::{Sandbox, SandboxConfig};
use infogram_bench::{banner, fmt_secs, table, Summary};
use infogram_client::GramClient;
use std::time::{Duration, Instant};

fn main() {
    banner(
        "F1",
        "GRAM tier latency breakdown (Figure 1)",
        "the backend tier (job runtime) dominates; gatekeeper cost is per-connection \
         (handshake), job-manager cost per-request — the same shape as C-GRAM",
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
        rows.push(vec![
            tier.to_string(),
            what.to_string(),
            fmt_secs(s.mean()),
            fmt_secs(s.median()),
            fmt_secs(s.quantile(0.95)),
        ]);
    }
    table(&["tier", "operation", "mean", "p50", "p95"], &rows);
    println!(
        "\nreading: per-job overhead (gatekeeper + job manager) is small against the\n\
         backend runtime, and the gatekeeper's share is paid once per *connection* —\n\
         which is why the one-connection InfoGram saves exactly that column (Fig 4)."
    );
    sandbox.shutdown();
}
