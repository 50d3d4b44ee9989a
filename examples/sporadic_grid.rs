//! The paper's §8 application: a *sporadic grid* at a photon source.
//!
//! "Such a Grid is created just for a short period of time during
//! sophisticated experiments at synchrotrons or photon sources." Three
//! beamline nodes come up, publish into a VO aggregate, the controller
//! picks the least-loaded node, runs a scan → acquire → analyze pipeline
//! of sandboxed jarlet jobs there, prints the accounting, and tears the
//! grid down.
//!
//! ```text
//! cargo run --example sporadic_grid
//! ```

use infogram::core::mds_bridge;
use infogram::mds::filter::Filter;
use infogram::mds::giis::Giis;
use infogram::quickstart::{Sandbox, SandboxConfig};
use infogram::sim::SystemClock;
use std::time::Duration;

fn main() {
    println!("=== bringing up a sporadic grid (3 beamline nodes) ===");
    let t_up = std::time::Instant::now();
    let nodes: Vec<Sandbox> = (0..3)
        .map(|i| {
            Sandbox::start_with(SandboxConfig {
                hostname: format!("beamline{i:02}.aps.anl.gov"),
                seed: 2002 + i as u64,
                ..Default::default()
            })
        })
        .collect();
    println!("grid up in {:?}\n", t_up.elapsed());

    // VO-level aggregate over the nodes' information services.
    let giis = Giis::new(SystemClock::shared(), Duration::from_secs(10));
    for n in &nodes {
        mds_bridge::register_into(&n.service, &giis);
    }

    println!("=== selecting the least-loaded node through the aggregate ===");
    let entries = giis.search_all(&Filter::parse("(kw=CPULoad)").unwrap());
    for e in &entries {
        println!(
            "  {:<26} load = {}",
            e.first("hn").unwrap_or_default(),
            e.first("CPULoad-load").unwrap_or_default()
        );
    }
    let chosen = entries
        .iter()
        .min_by(|a, b| {
            let la: f64 = a.first("CPULoad-load").unwrap().parse().unwrap();
            let lb: f64 = b.first("CPULoad-load").unwrap().parse().unwrap();
            la.partial_cmp(&lb).unwrap()
        })
        .unwrap();
    let target_host = chosen.first("hn").unwrap();
    println!("chosen: {target_host}\n");
    let target = nodes
        .iter()
        .find(|n| n.host.hostname() == target_host)
        .unwrap();

    // Stage the experiment: specimen data plus three jarlet programs.
    target
        .host
        .fs
        .write("/data/specimen.dat", "2D field of view");
    target.host.fs.write(
        "/home/gregor/scan.jar",
        "read /data/specimen.dat; compute 20; write /tmp/points grid; print scanned 64x64 points",
    );
    target.host.fs.write(
        "/home/gregor/acquire.jar",
        "read /data/specimen.dat; compute 30; write /tmp/patterns raw; print acquired diffraction patterns",
    );
    target.host.fs.write(
        "/home/gregor/analyze.jar",
        "compute 40; write /tmp/result domains; print analyzed domain formation and motion",
    );

    println!("=== running the scan → acquire → analyze pipeline ===");
    let mut client = target.connect_client();
    let t0 = std::time::Instant::now();
    for stage in ["scan", "acquire", "analyze"] {
        let handle = client
            .submit(&format!("(executable=/home/gregor/{stage}.jar)"), false)
            .expect("submit");
        let (state, _exit, output) = client
            .wait_terminal(&handle, Duration::from_millis(5), Duration::from_secs(10))
            .expect("stage finishes");
        println!("  {stage:<8} {state}  {}", output.trim_end());
    }
    println!("pipeline makespan: {:?}\n", t0.elapsed());

    // Monitoring query mid-experiment, same connection.
    let mem = client.info("Memory").expect("memory");
    println!(
        "free memory on {target_host}: {} bytes\n",
        mem.records[0].get("Memory:free").unwrap().value
    );

    println!("=== accounting (from the logging service) ===");
    print!(
        "{}",
        infogram::core::accounting::render_report(&target.service.accounting())
    );

    println!("\n=== tearing the sporadic grid down ===");
    for n in &nodes {
        n.shutdown();
    }
    println!("done.");
}
