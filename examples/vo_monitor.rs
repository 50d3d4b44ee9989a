//! A virtual-organization monitor on the unified protocol.
//!
//! The §5.1 scenario from the service operator's side: a monitoring
//! client polls CPU load across a VO. It demonstrates the caching and
//! quality machinery — `response` modes, the `quality` threshold, the
//! `performance` tag — and contrasts the native path with the legacy
//! MDS path (Figure 2's world) on the same data.
//!
//! ```text
//! cargo run --example vo_monitor
//! ```

use infogram::core::mds_bridge;
use infogram::mds::filter::Filter;
use infogram::mds::giis::Giis;
use infogram::quickstart::{Sandbox, SandboxConfig};
use infogram::rsl::{OutputFormat, ResponseMode};
use infogram::sim::SystemClock;
use infogram_client::QueryBuilder;
use std::time::Duration;

fn main() {
    // A small VO of four nodes.
    let nodes: Vec<Sandbox> = (0..4)
        .map(|i| {
            Sandbox::start_with(SandboxConfig {
                hostname: format!("node{i:02}.vo.example.org"),
                seed: 500 + i as u64,
                ..Default::default()
            })
        })
        .collect();

    println!("=== polling CPULoad natively (one query per node) ===");
    for n in &nodes {
        let mut client = n.connect_client();
        let r = client
            .query(
                &QueryBuilder::new()
                    .keyword("CPULoad")
                    .performance()
                    .format(OutputFormat::Plain),
            )
            .expect("query");
        let load = r
            .body
            .lines()
            .find(|l| l.starts_with("CPULoad:load:"))
            .unwrap_or("?")
            .to_string();
        println!("  {:<24} {}", n.host.hostname(), load.trim());
    }

    println!("\n=== response modes on one node ===");
    let node0 = &nodes[0];
    let mut client = node0.connect_client();
    for (label, mode) in [
        ("immediate", ResponseMode::Immediate),
        ("cached   ", ResponseMode::Cached),
        ("last     ", ResponseMode::Last),
    ] {
        let t0 = std::time::Instant::now();
        let r = client
            .query(&QueryBuilder::new().keyword("Memory").response(mode))
            .expect("query");
        println!(
            "  response={label} → {} record(s) in {:?}",
            r.record_count,
            t0.elapsed()
        );
    }
    let si = node0.service.info_service().lookup("Memory").unwrap();
    println!("  provider executions so far: {}", si.execution_count());

    println!("\n=== quality threshold (quality=99 forces refresh of stale data) ===");
    let before = si.execution_count();
    client
        .query(&QueryBuilder::new().keyword("Memory").quality(99.0))
        .expect("query");
    println!(
        "  executions: {before} → {} (refreshed iff quality dropped below 99%)",
        si.execution_count()
    );

    println!("\n=== the same VO through the legacy MDS path (GIIS aggregate) ===");
    let giis = Giis::new(SystemClock::shared(), Duration::from_secs(30));
    for n in &nodes {
        mds_bridge::register_into(&n.service, &giis);
    }
    let busy = giis.search_all(&Filter::parse("(&(kw=CPULoad)(CPULoad-load>=0))").unwrap());
    for e in &busy {
        println!(
            "  {:<24} load = {}",
            e.first("hn").unwrap_or_default(),
            e.first("CPULoad-load").unwrap_or_default()
        );
    }
    println!(
        "  (aggregate pulled {} member subtrees; cached for 30s)",
        giis.pull_count()
    );

    for n in &nodes {
        n.shutdown();
    }
}
