//! Baseline (separate GRAM + MDS, Figure 2) vs unified InfoGram
//! (Figure 4): functional equivalence and structural difference.
//!
//! The benchmark harness measures *how much* the unified service wins;
//! these tests pin down *that* both worlds produce the same answers and
//! that the baseline really does need two connections and two protocols.

use infogram::proto::message::{codes, JobStateCode};
use infogram::quickstart::{Sandbox, SandboxConfig};
use infogram_client::ClientError;
use std::time::Duration;

fn dual_world() -> Sandbox {
    Sandbox::start_with(SandboxConfig {
        with_baseline: true,
        ..Default::default()
    })
}

#[test]
fn baseline_gram_refuses_info_queries() {
    // The defining deficiency of the two-service world: ask the GRAM for
    // information and it sends you to the MDS.
    let sandbox = dual_world();
    let mut dual = sandbox.connect_dual_client();
    match dual
        .gram()
        .request(&infogram::proto::message::Request::Submit {
            rsl: "(info=memory)".to_string(),
            callback: false,
        }) {
        Ok(infogram::proto::message::Reply::Error { code, message }) => {
            assert_eq!(code, codes::UNSUPPORTED);
            assert!(message.contains("MDS"));
        }
        other => panic!("{other:?}"),
    }
    sandbox.shutdown();
}

#[test]
fn both_paths_report_the_same_memory_total() {
    // E12 functional heart: the MDS view and the native InfoGram view of
    // the same provider agree attribute-for-attribute.
    let sandbox = dual_world();
    let mut dual = sandbox.connect_dual_client();
    let mut unified = sandbox.connect_client();

    let via_mds = dual.info("Memory").unwrap();
    let via_infogram = unified.info("Memory").unwrap();

    assert_eq!(via_mds.len(), 1);
    assert_eq!(via_infogram.record_count, 1);
    let mds_total = &via_mds[0].get("Memory:total").unwrap().value;
    let native = &via_infogram.records[0];
    assert_eq!(mds_total, &native.get("Memory:total").unwrap().value);
    // The client still sees a quality and an age on every attribute —
    // the ones the service stamps, which the wire says once per record
    // (their values are pinned on a manual clock in `core::dispatch`).
    let in_process = sandbox
        .service
        .info_service()
        .answer(
            &[infogram::rsl::InfoSelector::Keyword("Memory".to_string())],
            &infogram::info::service::QueryOptions {
                mode: infogram::rsl::ResponseMode::Last,
                ..Default::default()
            },
        )
        .unwrap();
    assert_eq!(native.attributes.len(), in_process[0].attributes.len());
    for (wire, local) in native.attributes.iter().zip(&in_process[0].attributes) {
        assert_eq!((&wire.name, &wire.value), (&local.name, &local.value));
        assert!(wire.quality.is_some() && wire.age_secs.is_some());
        assert_eq!(wire.quality, native.attributes[0].quality);
        assert_eq!(wire.age_secs, native.attributes[0].age_secs);
    }
    sandbox.shutdown();
}

#[test]
fn dual_client_costs_two_connections() {
    let sandbox = dual_world();
    let before = sandbox.net.metrics().counter_value("net.connections");
    let _dual = sandbox.connect_dual_client();
    let after_dual = sandbox.net.metrics().counter_value("net.connections");
    assert_eq!(after_dual - before, 2, "baseline opens GRAM + MDS");
    let _unified = sandbox.connect_client();
    let after_unified = sandbox.net.metrics().counter_value("net.connections");
    assert_eq!(after_unified - after_dual, 1, "unified opens one");
    sandbox.shutdown();
}

#[test]
fn dual_client_runs_jobs_through_gram() {
    let sandbox = dual_world();
    let mut dual = sandbox.connect_dual_client();
    let handle = dual
        .submit("(executable=simwork)(arguments=40)", false)
        .unwrap();
    let (state, exit, _) = dual
        .wait_terminal(&handle, Duration::from_millis(5), Duration::from_secs(10))
        .unwrap();
    assert_eq!(state, JobStateCode::Done);
    assert_eq!(exit, Some(0));
    sandbox.shutdown();
}

#[test]
fn dual_client_ldap_search_works() {
    let sandbox = dual_world();
    let mut dual = sandbox.connect_dual_client();
    // The "google-like" LDAP query on the MDS side.
    let entries = dual
        .mds()
        .search(
            "/o=Grid",
            infogram::mds::dit::Scope::Sub,
            "(&(objectclass=InfoGramProvider)(Memory-free>=1))",
        )
        .unwrap();
    assert_eq!(entries.len(), 1);
    sandbox.shutdown();
}

#[test]
fn unified_handles_mixed_workload_on_one_connection() {
    let sandbox = dual_world();
    let mut unified = sandbox.connect_client();
    let conns_before = sandbox.net.metrics().counter_value("net.connections");
    // Interleave queries and jobs — all on the connection we already have.
    for i in 0..4 {
        if i % 2 == 0 {
            unified.info("CPULoad").unwrap();
        } else {
            let h = unified
                .submit("(executable=simwork)(arguments=10)", false)
                .unwrap();
            unified
                .wait_terminal(&h, Duration::from_millis(5), Duration::from_secs(10))
                .unwrap();
        }
    }
    assert_eq!(
        sandbox.net.metrics().counter_value("net.connections"),
        conns_before,
        "no additional connections for the mixed workload"
    );
    sandbox.shutdown();
}

#[test]
fn protocols_are_mutually_unintelligible() {
    // Feed each server the other protocol's bytes: both must answer with
    // an error (or drop), never misinterpret.
    let sandbox = dual_world();
    let mds_addr = sandbox.baseline_mds.as_ref().unwrap().addr().to_string();

    // An MDS request sent to the InfoGram port fails the handshake (it is
    // not a HELLO).
    let conn =
        infogram::proto::transport::Transport::connect(&sandbox.net, sandbox.addr()).unwrap();
    conn.send(&infogram::mds::protocol::MdsRequest::Unbind.encode())
        .unwrap();
    // The server either answers with an authentication error or drops
    // the connection.
    if let Ok(bytes) = conn.recv() {
        match infogram::proto::message::Reply::decode(&bytes) {
            Ok(infogram::proto::message::Reply::Error { code, .. }) => {
                assert_eq!(code, codes::AUTHENTICATION)
            }
            other => panic!("{other:?}"),
        }
    }

    // A GRAM ping sent to the MDS port fails its handshake.
    let conn2 = infogram::proto::transport::Transport::connect(&sandbox.net, &mds_addr).unwrap();
    conn2
        .send(&infogram::proto::message::Request::Ping.encode())
        .unwrap();
    if let Ok(bytes) = conn2.recv() {
        match infogram::mds::protocol::MdsReply::decode(&bytes) {
            Ok(infogram::mds::protocol::MdsReply::Error { .. }) => {}
            other => panic!("{other:?}"),
        }
    }
    sandbox.shutdown();
}

#[test]
fn unmapped_user_rejected_by_both_worlds() {
    use infogram::gsi::{CertificateAuthority, Dn};
    use infogram::sim::{SimTime, SplitMix64};
    let sandbox = dual_world();
    let mut rng = SplitMix64::new(31337);
    let rogue_ca = CertificateAuthority::new_root(
        &Dn::user("Rogue", "CA", "R"),
        &mut rng,
        SimTime::ZERO,
        Duration::from_secs(86_400),
    );
    let impostor = rogue_ca.issue(
        &Dn::user("Grid", "ANL", "X"),
        &mut rng,
        SimTime::ZERO,
        Duration::from_secs(3600),
    );
    let gram_addr = sandbox.baseline_gram.as_ref().unwrap().addr().to_string();
    let mds_addr = sandbox.baseline_mds.as_ref().unwrap().addr().to_string();
    assert!(infogram_client::DualClient::connect(
        &sandbox.net,
        &gram_addr,
        &mds_addr,
        &impostor,
        &sandbox.roots,
        sandbox.clock.clone(),
    )
    .is_err());
    assert!(matches!(
        infogram_client::InfoGramClient::connect(
            &sandbox.net,
            sandbox.addr(),
            &impostor,
            &sandbox.roots,
            sandbox.clock.clone(),
        ),
        Err(ClientError::Denied { .. })
    ));
    sandbox.shutdown();
}
