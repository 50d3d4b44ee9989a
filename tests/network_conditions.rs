//! The full service under non-ideal network links, plus §7 I/O
//! redirection over the wire.

use infogram::proto::message::JobStateCode;
use infogram::quickstart::{Sandbox, SandboxConfig};
use infogram::sim::net::{LatencyModel, Link};
use std::time::{Duration, Instant};

#[test]
fn service_works_over_a_slow_link() {
    let sandbox = Sandbox::start_with(SandboxConfig {
        link: Some(Link::new(LatencyModel::Fixed(Duration::from_millis(5)), 42)),
        ..Default::default()
    });
    let t0 = Instant::now();
    let mut client = sandbox.connect_client();
    let connect_time = t0.elapsed();
    // The handshake is 3 messages + 1 ack = at least 4 × 5 ms of one-way
    // latency.
    assert!(
        connect_time >= Duration::from_millis(20),
        "handshake did not pay the link latency: {connect_time:?}"
    );

    let t1 = Instant::now();
    let r = client.info("CPU").unwrap();
    assert_eq!(r.record_count, 1);
    // One request/reply round trip ≥ 2 × 5 ms.
    assert!(t1.elapsed() >= Duration::from_millis(10));
    sandbox.shutdown();
}

#[test]
fn jittery_link_answers_remain_correct() {
    let sandbox = Sandbox::start_with(SandboxConfig {
        link: Some(Link::new(
            LatencyModel::Uniform {
                min: Duration::from_micros(100),
                max: Duration::from_millis(3),
            },
            7,
        )),
        ..Default::default()
    });
    let mut client = sandbox.connect_client();
    for _ in 0..10 {
        let r = client.info("Memory").unwrap();
        assert_eq!(r.record_count, 1);
        assert!(r.records[0].get("Memory:total").is_some());
    }
    let h = client
        .submit("(executable=simwork)(arguments=20)", false)
        .unwrap();
    let (state, exit, _) = client
        .wait_terminal(&h, Duration::from_millis(5), Duration::from_secs(10))
        .unwrap();
    assert_eq!(state, JobStateCode::Done);
    assert_eq!(exit, Some(0));
    sandbox.shutdown();
}

#[test]
fn stdout_redirection_over_the_wire() {
    // §7: "It is possible to redirect I/O to and from the client."
    let sandbox = Sandbox::start();
    let mut client = sandbox.connect_client();
    let h = client
        .submit(
            "&(executable=simwork)(arguments=30)(stdout=/home/gregor/run.out)",
            false,
        )
        .unwrap();
    client
        .wait_terminal(&h, Duration::from_millis(5), Duration::from_secs(10))
        .unwrap();
    let staged = sandbox
        .host
        .fs
        .read_text("/home/gregor/run.out")
        .expect("stdout staged on the service host");
    assert!(staged.contains("simulated work complete"));
    // And the `list` information provider can now see it — information
    // and execution genuinely share one world.
    let listing = client.info("list").unwrap();
    assert!(
        listing.body.contains("run.out"),
        "the ls provider sees the redirected file:\n{}",
        listing.body
    );
    sandbox.shutdown();
}
