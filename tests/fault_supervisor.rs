//! Fault-domain supervisor, end to end: circuit breakers, deadline
//! budgets, last-known-good stale-serve, GIIS member fall-back, and the
//! client's reconnect/retry-after behaviour — all under deterministic
//! fault injection.

use infogram::host::commands::{ChargeMode, CommandRegistry};
use infogram::host::machine::SimulatedHost;
use infogram::info::config::ServiceConfig;
use infogram::info::entry::QueryError;
use infogram::info::service::{InformationService, QueryOptions};
use infogram::info::BreakerState;
use infogram::proto::message::codes;
use infogram::quickstart::{Sandbox, SandboxConfig};
use infogram::sim::clock::Clock;
use infogram::sim::fault::{Fault, Plan, Storm};
use infogram::sim::metrics::MetricSet;
use infogram::sim::ManualClock;
use infogram_client::ClientError;
use infogram_rsl::InfoSelector;
use std::sync::Arc;
use std::time::Duration;

type World = (
    Arc<ManualClock>,
    Arc<CommandRegistry>,
    Arc<InformationService>,
    MetricSet,
);

/// A direct (no wire protocol) service on a virtual clock, so faults and
/// backoff windows are stepped deterministically.
fn manual_service(config_text: &str) -> World {
    let clock = ManualClock::new();
    let host = SimulatedHost::default_on(clock.clone());
    let registry = CommandRegistry::new(host, ChargeMode::Advance(clock.clone()));
    let metrics = MetricSet::new();
    let info = InformationService::from_config(
        &ServiceConfig::parse(config_text).expect("config"),
        Arc::clone(&registry),
        clock.clone(),
        metrics.clone(),
    );
    (clock, registry, info, metrics)
}

#[test]
fn breaker_trips_after_failures_and_half_open_probe_recovers() {
    let (clock, registry, info, metrics) = manual_service("100 Probe date -u\n");
    let entry = info.lookup("Probe").expect("configured");

    // 3 supervised fetches x (1 attempt + 2 retries) consume 9 faults.
    let plan = Plan::new();
    plan.script("date", vec![Fault::Fail; 9]);
    registry.set_fault_plan(plan);

    for round in 1..=3 {
        assert!(entry.fetch_supervised(None).is_err(), "round {round}");
        // Step past the (jittered) in-between backoff gate.
        clock.advance(Duration::from_millis(200));
    }
    assert_eq!(entry.breaker_state(), BreakerState::Open);
    assert_eq!(entry.execution_count(), 9, "each round retried twice");
    assert_eq!(metrics.counter_value("info.retries"), 6);
    assert_eq!(metrics.gauge_value("info.breaker.Probe") as u32, 1);

    // While cooling, fetches are rejected without running the provider,
    // and the rejection carries a machine-readable retry-after hint.
    match entry.fetch_supervised(None) {
        Err(QueryError::Unavailable { retry_after }) => {
            assert!(retry_after > Duration::ZERO);
            assert!(retry_after <= Duration::from_millis(600), "{retry_after:?}");
        }
        other => panic!("expected Unavailable, got {other:?}"),
    }
    assert_eq!(entry.execution_count(), 9, "breaker open: no execution");

    // Past the cool-down the breaker goes half-open: a single probe runs
    // (the script is exhausted, so it succeeds) and closes the breaker.
    clock.advance(Duration::from_secs(1));
    let snap = entry.fetch_supervised(None).expect("probe succeeds");
    assert!(!snap.stale);
    assert_eq!(entry.breaker_state(), BreakerState::Closed);
    assert_eq!(entry.execution_count(), 10, "exactly one probe");
    assert_eq!(metrics.gauge_value("info.breaker.Probe") as u32, 0);
}

#[test]
fn stale_serve_quality_decays_until_hard_failure() {
    // Linear degradation over 10 s: stale answers stay honest about
    // their age and the entry hard-fails only when quality floors.
    let (clock, registry, info, metrics) =
        manual_service("1000 Mem /sbin/sysinfo.exe -mem\n@degradation Mem linear 10000\n");
    let entry = info.lookup("Mem").expect("configured");

    let fresh = entry.fetch_supervised(None).expect("healthy first fetch");
    assert!(!fresh.stale);
    let produced_at = fresh.produced_at;

    let plan = Plan::new();
    plan.script("sysinfo", vec![Fault::Fail; 100]);
    registry.set_fault_plan(plan);

    // 2 s later the TTL has lapsed; the refresh fails and the supervisor
    // serves the last-known-good snapshot tagged with its true age.
    clock.advance(Duration::from_secs(2));
    let stale = entry.fetch_supervised(None).expect("stale serve");
    assert!(stale.stale);
    assert_eq!(stale.produced_at, produced_at, "true production time kept");
    assert!(metrics.counter_value("info.stale_serves") >= 1);

    // The degraded answer flows to the record level with the annotation.
    let records = info
        .answer(
            &[InfoSelector::Keyword("Mem".to_string())],
            &QueryOptions::default(),
        )
        .expect("degraded but answered");
    assert!(records[0].degraded);
    let age = records[0].stale_age_secs.expect("age reported");
    assert!((2.0..9.0).contains(&age), "{age}");

    // Once the snapshot's quality floors to zero there is nothing honest
    // left to serve: the query hard-fails instead of returning junk.
    clock.advance(Duration::from_secs(9));
    assert!(entry.fetch_supervised(None).is_err(), "quality floored");
}

#[test]
fn deadline_budget_stops_retries_over_a_hang() {
    let (clock, registry, info, metrics) =
        manual_service("0 Load /usr/local/bin/cpuload.exe\n@degradation Load linear 60000\n");
    let entry = info.lookup("Load").expect("configured");
    entry.fetch_supervised(None).expect("healthy first fetch");
    assert_eq!(entry.execution_count(), 1);

    // The provider hangs for 30 virtual seconds — far over the budget.
    let plan = Plan::new();
    plan.script("cpuload", vec![Fault::Hang(Duration::from_secs(30))]);
    registry.set_fault_plan(plan);

    let before = clock.now();
    let snap = entry
        .fetch_supervised(Some(Duration::from_millis(200)))
        .expect("stale serve after breach");
    assert!(snap.stale, "hang answered from last-known-good");
    assert_eq!(
        entry.execution_count(),
        2,
        "budget breached: no retry burned on a dead provider"
    );
    assert_eq!(metrics.counter_value("info.deadline_breaches"), 1);
    assert!(clock.now().since(before) >= Duration::from_secs(30));

    // The hang consumed the script; after the backoff window the next
    // fetch runs fresh again.
    clock.advance(Duration::from_millis(200));
    let snap = entry.fetch_supervised(None).expect("recovered");
    assert!(!snap.stale);
}

#[test]
fn seeded_fault_storm_replays_byte_identically() {
    fn run(seed: u64) -> String {
        let (clock, registry, info, _metrics) =
            manual_service("100 Date date -u\n100 CPU /sbin/sysinfo.exe -cpu\n");
        registry.set_fault_plan(Plan::storm(
            seed,
            Storm {
                fail_p: 0.30,
                hang_p: 0.05,
                slow_p: 0.10,
                ..Storm::default()
            },
        ));
        let mut log = String::new();
        for round in 0..25 {
            clock.advance(Duration::from_millis(150));
            match info.answer(&[InfoSelector::All], &QueryOptions::default()) {
                Ok(records) => {
                    for r in &records {
                        log.push_str(&format!(
                            "{round} {} degraded={} age={:?}\n",
                            r.keyword, r.degraded, r.stale_age_secs
                        ));
                    }
                }
                Err(e) => log.push_str(&format!("{round} error: {e}\n")),
            }
        }
        log
    }
    let a = run(0xfa11);
    let b = run(0xfa11);
    assert_eq!(a, b, "same seed, same virtual schedule, same bytes");
}

#[test]
fn degraded_answers_reach_the_client_never_internal() {
    let mut text = infogram::info::config::TABLE1_TEXT.to_string();
    text.push_str("200 FlakyDate date +%s\n@degradation FlakyDate linear 60000\n");
    let sandbox = Sandbox::start_with(SandboxConfig {
        config: ServiceConfig::parse(&text).expect("config"),
        ..Default::default()
    });
    let mut client = sandbox.connect_client();

    let fresh = client.info("FlakyDate").expect("healthy");
    assert!(!fresh.degraded());
    assert_eq!(fresh.require_fresh().expect("fresh").len(), 1);

    // Every subsequent `date` execution fails. The client keeps getting
    // answers — degraded, honestly aged — never an INTERNAL error.
    let plan = Plan::new();
    plan.script("date", vec![Fault::Fail; 1000]);
    sandbox.registry.set_fault_plan(plan);

    std::thread::sleep(Duration::from_millis(250)); // let the TTL lapse
    for round in 0..4 {
        let r = client
            .info("FlakyDate")
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert!(r.degraded(), "round {round} served last-known-good");
        assert!(r.stale_age_secs().unwrap_or(0.0) > 0.0);
        match r.require_fresh() {
            Err(ClientError::Degraded { stale_age_secs }) => {
                assert!(stale_age_secs.is_some())
            }
            other => panic!("expected Degraded, got {other:?}"),
        }
        std::thread::sleep(Duration::from_millis(60));
    }
    sandbox.shutdown();
}

#[test]
fn xrsl_timeout_tightens_the_deadline_budget_over_a_hang() {
    // TTL 0 => every query executes the provider; default budget is the
    // 250 ms floor. A 200 ms hang therefore *survives* the default
    // budget (the in-fetch retry runs after it) but *breaches* an
    // explicit (timeout=150) — which must give up and stale-serve
    // instead of burning a retry into a dead budget.
    let mut text = infogram::info::config::TABLE1_TEXT.to_string();
    text.push_str("0 Hangy uptime\n@degradation Hangy linear 60000\n");
    let sandbox = Sandbox::start_with(SandboxConfig {
        config: ServiceConfig::parse(&text).expect("config"),
        ..Default::default()
    });
    let mut client = sandbox.connect_client();
    let warm = client.query_rsl("(info=Hangy)").expect("healthy warm-up");
    assert!(!warm.degraded());
    let info_service = sandbox.service.info_service();
    let entry = info_service.lookup("Hangy").expect("configured");
    assert_eq!(entry.execution_count(), 1);

    let hang = || {
        let plan = Plan::new();
        plan.script("uptime", vec![Fault::Hang(Duration::from_millis(200))]);
        sandbox.registry.set_fault_plan(plan);
    };

    // (timeout=150): the hang blows the budget; the reply is the
    // last-known-good answer, degraded, with no retry attempted.
    hang();
    let r = client
        .query_rsl("(info=Hangy)(timeout=150)")
        .expect("stale serve, not INTERNAL");
    assert!(r.degraded(), "budget breached: served last-known-good");
    assert_eq!(entry.execution_count(), 2, "no retry into a dead budget");
    assert_eq!(
        info_service
            .metrics()
            .counter_value("info.deadline_breaches"),
        1
    );

    // Same hang, default 250 ms budget: the failed execution is within
    // budget, so the retry runs (script exhausted => healthy) and the
    // answer comes back fresh.
    std::thread::sleep(Duration::from_millis(60)); // clear the backoff gate
    hang();
    let r = client.query_rsl("(info=Hangy)").expect("fresh after retry");
    assert!(!r.degraded(), "within budget: retried to a fresh answer");
    assert_eq!(entry.execution_count(), 4, "hang + one retry");
    assert_eq!(
        info_service
            .metrics()
            .counter_value("info.deadline_breaches"),
        1,
        "200 ms hang does not breach the 250 ms default budget"
    );
    sandbox.shutdown();
}

#[test]
fn breaker_open_rejection_carries_retry_after_and_client_honors_it() {
    let mut text = infogram::info::config::TABLE1_TEXT.to_string();
    text.push_str("50 Recover uptime\n");
    let sandbox = Sandbox::start_with(SandboxConfig {
        config: ServiceConfig::parse(&text).expect("config"),
        ..Default::default()
    });

    // Exactly 9 failures: three supervised fetches (1 + 2 retries each)
    // trip the breaker, leaving a healthy provider behind it.
    let plan = Plan::new();
    plan.script("uptime", vec![Fault::Fail; 9]);
    sandbox.registry.set_fault_plan(plan);

    let mut plain = sandbox.connect_client();
    for _ in 0..3 {
        assert!(plain.info("Recover").is_err());
        std::thread::sleep(Duration::from_millis(80)); // clear backoff gate
    }
    // Breaker is now open and there is no snapshot to degrade to: the
    // wire-level rejection is UNAVAILABLE with a retry-after hint.
    match plain.info("Recover") {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, codes::UNAVAILABLE);
            assert!(message.contains("retry-after-ms="), "{message}");
        }
        other => panic!("expected UNAVAILABLE, got {other:?}"),
    }

    // A retrying client sleeps out the server's hint; its second attempt
    // lands as the half-open probe, which succeeds and closes the breaker.
    let mut retrying = infogram_client::InfoGramClient::connect_with_retry(
        Arc::new(Arc::clone(&sandbox.net)),
        sandbox.addr(),
        &sandbox.user,
        &sandbox.roots,
        sandbox.clock.clone(),
    )
    .expect("connects");
    let r = retrying.info("Recover").expect("recovered after hint");
    assert!(!r.degraded(), "probe refreshed: answer is fresh");
    assert_eq!(retrying.reconnect_count(), 0, "no transport failure");
    sandbox.shutdown();
}

#[test]
fn giis_keeps_serving_records_of_an_open_member() {
    use infogram::mds::dit::Scope;
    use infogram::mds::filter::Filter;
    use infogram::mds::giis::Giis;
    use infogram::mds::gris::Gris;

    let clock = ManualClock::new();
    let giis = Giis::new(clock.clone(), Duration::from_secs(30));
    let host = SimulatedHost::default_on(clock.clone());
    let registry = CommandRegistry::new(host, ChargeMode::Advance(clock.clone()));
    let info = InformationService::from_config(
        &ServiceConfig::table1(),
        Arc::clone(&registry),
        clock.clone(),
        MetricSet::new(),
    );
    giis.register(Gris::new(info));

    let everything = Filter::everything();
    let healthy = giis.search(giis.base(), Scope::Sub, &everything);
    assert_eq!(healthy.len(), 6, "host entry + 5 keywords");

    // All providers of the (only) member fail; its snapshots are far
    // past their Binary lifetimes by the next expiry, so the member pull
    // fails hard — yet the aggregate answer does not shrink.
    let plan = Plan::new();
    for cmd in ["date", "sysinfo", "cpuload", "ls"] {
        plan.script(cmd, vec![Fault::Fail; 30]);
    }
    registry.set_fault_plan(plan);
    clock.advance(Duration::from_secs(31));
    let cached = giis.search(giis.base(), Scope::Sub, &everything);
    assert_eq!(cached.len(), 6, "cached member records keep serving");
    assert_eq!(giis.stale_pull_count(), 1);
}
