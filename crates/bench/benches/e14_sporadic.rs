//! E14 — the §8 application: sporadic grids at a photon source.
//!
//! "Such a Grid is created just for a short period of time during
//! sophisticated experiments." What matters operationally is how fast the
//! grid becomes useful: time-to-up, time-to-first-job, and the makespan
//! of a scan→acquire→analyze pipeline, as the node count grows.

use infogram::core::mds_bridge;
use infogram::mds::filter::Filter;
use infogram::mds::giis::Giis;
use infogram::quickstart::{Sandbox, SandboxConfig};
use infogram::sim::SystemClock;
use infogram_bench::{banner, fmt_secs, table};
use std::time::{Duration, Instant};

fn run(nodes: usize) -> Vec<String> {
    // ---- bring-up ----
    let t0 = Instant::now();
    let grid: Vec<Sandbox> = (0..nodes)
        .map(|i| {
            Sandbox::start_with(SandboxConfig {
                hostname: format!("beam{i:02}.aps.anl.gov"),
                seed: 7000 + i as u64,
                ..Default::default()
            })
        })
        .collect();
    let giis = Giis::new(SystemClock::shared(), Duration::from_secs(10));
    for n in &grid {
        mds_bridge::register_into(&n.service, &giis);
    }
    let t_up = t0.elapsed();

    // ---- schedule: least loaded node via the aggregate ----
    let entries = giis.search_all(&Filter::parse("(kw=CPULoad)").expect("filter"));
    assert_eq!(entries.len(), nodes);
    let target_host = entries
        .iter()
        .min_by(|a, b| {
            let la: f64 = a.first("CPULoad-load").unwrap().parse().unwrap();
            let lb: f64 = b.first("CPULoad-load").unwrap().parse().unwrap();
            la.partial_cmp(&lb).unwrap()
        })
        .unwrap()
        .first("hn")
        .unwrap();
    let target = grid
        .iter()
        .find(|n| n.host.hostname() == target_host)
        .unwrap();

    // ---- pipeline ----
    target.host.fs.write("/data/specimen.dat", "fov");
    for (stage, prog) in [
        (
            "scan",
            "read /data/specimen.dat; compute 20; write /tmp/points p; print ok",
        ),
        (
            "acquire",
            "read /data/specimen.dat; compute 30; write /tmp/patterns d; print ok",
        ),
        ("analyze", "compute 40; write /tmp/result r; print ok"),
    ] {
        target
            .host
            .fs
            .write(&format!("/home/gregor/{stage}.jar"), prog);
    }
    let mut client = target.connect_client();
    let t1 = Instant::now();
    let mut first_job = Duration::ZERO;
    for (i, stage) in ["scan", "acquire", "analyze"].iter().enumerate() {
        let h = client
            .submit(&format!("(executable=/home/gregor/{stage}.jar)"), false)
            .expect("submit");
        let (state, _, _) = client
            .wait_terminal(&h, Duration::from_millis(2), Duration::from_secs(20))
            .expect("finish");
        assert_eq!(state.to_string(), "DONE");
        if i == 0 {
            first_job = t1.elapsed();
        }
    }
    let makespan = t1.elapsed();

    // ---- teardown ----
    let t2 = Instant::now();
    for n in &grid {
        n.shutdown();
    }
    let t_down = t2.elapsed();

    vec![
        nodes.to_string(),
        fmt_secs(t_up.as_secs_f64()),
        fmt_secs(first_job.as_secs_f64()),
        fmt_secs(makespan.as_secs_f64()),
        fmt_secs(t_down.as_secs_f64()),
    ]
}

fn main() {
    banner(
        "E14",
        "sporadic grid bring-up and pipeline (§8)",
        "bring-up grows roughly linearly with node count but stays far below the \
         pipeline's own runtime; the grid is usable milliseconds after creation",
    );
    let rows: Vec<Vec<String>> = [2usize, 4, 8, 16].iter().map(|&n| run(n)).collect();
    table(
        &[
            "nodes",
            "bring-up",
            "time-to-first-job",
            "pipeline-makespan",
            "teardown",
        ],
        &rows,
    );
    println!(
        "\nreading: the §8 scenario is practical — a pure-software service that\n\
         deploys per-experiment ('easy to install it on a number of machines') and\n\
         is answering queries and running sandboxed analysis jobs immediately."
    );
}
