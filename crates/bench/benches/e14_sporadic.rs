//! E14 — the §8 application: sporadic grids at a photon source.
//!
//! "Such a Grid is created just for a short period of time during
//! sophisticated experiments." What matters operationally is how fast the
//! grid becomes useful: time-to-up, time-to-first-job, and the makespan
//! of a scan→acquire→analyze pipeline, as the node count grows.
//!
//! What the aggregate sees and how the pipeline ends are counted and
//! gated; the times are wall clock and reported.

use infogram::core::mds_bridge;
use infogram::mds::filter::Filter;
use infogram::mds::giis::Giis;
use infogram::quickstart::{Sandbox, SandboxConfig};
use infogram::sim::SystemClock;
use infogram_bench::{fmt_secs, row, table, Joined, Report};
use std::time::{Duration, Instant};

/// One grid's run: nodes the aggregate saw, stages that finished DONE,
/// bring-up and pipeline makespan.
struct Run {
    nodes: usize,
    seen: usize,
    done: usize,
    up: Duration,
    first_job: Duration,
    makespan: Duration,
    down: Duration,
}

fn run(nodes: usize) -> Run {
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
    let seen = entries.len();
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
    let mut done = 0;
    for (i, stage) in ["scan", "acquire", "analyze"].iter().enumerate() {
        let h = client
            .submit(&format!("(executable=/home/gregor/{stage}.jar)"), false)
            .expect("submit");
        let (state, _, _) = client
            .wait_terminal(&h, Duration::from_millis(2), Duration::from_secs(20))
            .expect("finish");
        done += usize::from(state.to_string() == "DONE");
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
    Run {
        nodes,
        seen,
        done,
        up: t_up,
        first_job,
        makespan,
        down: t2.elapsed(),
    }
}

fn main() {
    let mut report = Report::start(
        env!("CARGO_CRATE_NAME"),
        "E14",
        "sporadic grid bring-up and pipeline (§8)",
    );
    let runs: Vec<Run> = [2usize, 4, 8, 16].iter().map(|&n| run(n)).collect();
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            [r.up, r.first_job, r.makespan, r.down]
                .iter()
                .fold(row![r.nodes], |mut row, d| {
                    row.push(fmt_secs(d.as_secs_f64()));
                    row
                })
        })
        .collect();
    table(
        "nodes|bring-up|time-to-first-job|pipeline-makespan|teardown",
        &rows,
    );

    report.claim(
        "every_node_schedulable",
        "the aggregate sees every node at once, and the pipeline's three stages finish DONE",
        runs.iter().all(|r| r.seen == r.nodes && r.done == 3),
        runs.iter()
            .map(|r| format!("{}/{} nodes, {}/3 DONE", r.seen, r.nodes, r.done))
            .collect::<Vec<_>>()
            .join("; "),
    );
    report.reported(
        "bring_up_far_below_pipeline",
        "bring-up stays far below the pipeline's own runtime: the grid is usable \
         milliseconds after creation",
        runs.iter().all(|r| 10 * r.up < r.makespan),
        runs.iter()
            .map(|r| {
                format!(
                    "{}: {} vs {}",
                    r.nodes,
                    fmt_secs(r.up.as_secs_f64()),
                    fmt_secs(r.makespan.as_secs_f64())
                )
            })
            .joined(),
    );
    report.finish();
}
