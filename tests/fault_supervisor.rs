//! Fault-domain supervisor, end to end: circuit breakers, deadline
//! budgets, last-known-good stale-serve, GIIS member fall-back, and the
//! client's reconnect/retry-after behaviour — all under deterministic
//! fault injection.

use infogram::host::commands::{ChargeMode, CommandRegistry};
use infogram::host::machine::SimulatedHost;
use infogram::info::config::ServiceConfig;
use infogram::info::entry::QueryError;
use infogram::info::service::{InfoServiceError, InformationService, QueryOptions};
use infogram::info::{BreakerState, Cause, SystemInformation};
use infogram::proto::message::codes;
use infogram::quickstart::{Sandbox, SandboxConfig};
use infogram::sim::clock::Clock;
use infogram::sim::fault::{Fault, Plan, Storm};
use infogram::sim::metrics::MetricSet;
use infogram::sim::ManualClock;
use infogram_client::ClientError;
use infogram_rsl::{InfoSelector, ResponseMode};
use std::sync::Arc;
use std::time::Duration;

/// A query with no `(timeout=…)`: the TTL-proportional budget.
const QUERY: Cause = Cause::Query { deadline: None };

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
        assert!(entry.refresh(QUERY).is_err(), "round {round}");
        // Step past the (jittered) in-between backoff gate.
        clock.advance(Duration::from_millis(200));
    }
    assert_eq!(entry.breaker_state(), BreakerState::Open);
    assert_eq!(entry.execution_count(), 9, "each round retried twice");
    assert_eq!(metrics.counter_value("info.retries"), 6);
    assert_eq!(metrics.gauge_value("info.breaker.Probe") as u32, 1);

    // While cooling, fetches are rejected without running the provider,
    // and the rejection carries a machine-readable retry-after hint.
    match entry.refresh(QUERY) {
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
    let snap = entry.refresh(QUERY).expect("probe succeeds");
    assert!(!snap.stale);
    assert_eq!(entry.breaker_state(), BreakerState::Closed);
    assert_eq!(entry.execution_count(), 10, "exactly one probe");
    assert_eq!(metrics.gauge_value("info.breaker.Probe") as u32, 0);
}

/// One fetch of `Probe`: straight at the entry, or as `(info=Probe)
/// (response=immediate)` through the service. `Ok` says whether the
/// answer was tagged stale.
fn fetch_probe(info: &InformationService, immediate: bool) -> Result<bool, QueryError> {
    if !immediate {
        let entry = info.lookup("Probe").expect("configured");
        return entry.refresh(QUERY).map(|snap| snap.stale);
    }
    let opts = QueryOptions {
        mode: ResponseMode::Immediate,
        ..Default::default()
    };
    match info.answer(&[InfoSelector::Keyword("Probe".to_string())], &opts) {
        Ok(records) => Ok(records[0].degraded),
        Err(InfoServiceError::Query(e)) => Err(e),
        Err(other) => panic!("{other}"),
    }
}

/// Table 1's `Probe` with a 100 ms `delay` (plus `extra` lines): one
/// healthy fetch; 2 s later the provider is down and ten fetches arrive
/// 1 ms apart. Returns the world, the entry and the ten answers.
fn delayed_probe(
    extra: &str,
    immediate: bool,
) -> (World, Arc<SystemInformation>, Vec<Result<bool, QueryError>>) {
    let world = manual_service(&format!("1000 Probe date -u\n@delay Probe 100\n{extra}"));
    let (clock, registry, info, _) = &world;
    let entry = info.lookup("Probe").expect("configured");
    assert_eq!(
        fetch_probe(info, immediate),
        Ok(false),
        "healthy first fetch"
    );
    clock.advance(Duration::from_secs(2));
    let plan = Plan::new();
    plan.script("date", vec![Fault::Fail; 100]);
    registry.set_fault_plan(plan);
    let answers = (0..10)
        .map(|_| {
            let answer = fetch_probe(info, immediate);
            clock.advance(Duration::from_millis(1));
            answer
        })
        .collect();
    (world, entry, answers)
}

#[test]
fn a_retry_the_delay_turns_away_is_no_success_and_expired_answers_say_so() {
    for immediate in [false, true] {
        // The value outlives its TTL by a minute of linear decay, so
        // every answer can fall back on it.
        let (world, entry, answers) = delayed_probe("@degradation Probe linear 60000\n", immediate);
        assert_eq!(
            entry.execution_count(),
            2,
            "one provider call: the retry and the other nine wait out the delay"
        );
        assert_eq!(
            answers,
            vec![Ok(true); 10],
            "every expired answer is tagged stale"
        );
        assert_eq!(entry.breaker_state(), BreakerState::Closed);
        assert_eq!(
            entry.failure_streak(),
            1,
            "the throttled retry booked nothing"
        );

        // Past each not-before, one more real failure: the third opens
        // the breaker.
        let clock = &world.0;
        for executions in [3, 4] {
            clock.set(entry.not_before());
            assert_eq!(fetch_probe(&world.2, immediate), Ok(true));
            assert_eq!(entry.execution_count(), executions);
        }
        assert_eq!(entry.breaker_state(), BreakerState::Open);
        assert_eq!(entry.failure_streak(), 3);
    }

    // The same file with Table 1's default binary degradation: the value
    // is worthless past its TTL, so the answers are errors — but still
    // one provider call, and still one failure on the breaker.
    let (_world, entry, answers) = delayed_probe("", false);
    assert_eq!(entry.execution_count(), 2);
    assert!(matches!(answers[0], Err(QueryError::Provider(_))));
    for answer in &answers[1..] {
        assert!(
            matches!(answer, Err(QueryError::Unavailable { retry_after })
                if *retry_after <= Duration::from_millis(100)),
            "{answer:?}"
        );
    }
    assert_eq!(entry.failure_streak(), 1);
}

#[test]
fn stale_serve_quality_decays_until_hard_failure() {
    // Linear degradation over 10 s: stale answers stay honest about
    // their age and the entry hard-fails only when quality floors.
    let (clock, registry, info, metrics) =
        manual_service("1000 Mem /sbin/sysinfo.exe -mem\n@degradation Mem linear 10000\n");
    let entry = info.lookup("Mem").expect("configured");

    let fresh = entry.refresh(QUERY).expect("healthy first fetch");
    assert!(!fresh.stale);
    let produced_at = fresh.produced_at;

    let plan = Plan::new();
    plan.script("sysinfo", vec![Fault::Fail; 100]);
    registry.set_fault_plan(plan);

    // 2 s later the TTL has lapsed; the refresh fails and the supervisor
    // serves the last-known-good snapshot tagged with its true age.
    clock.advance(Duration::from_secs(2));
    let stale = entry.refresh(QUERY).expect("stale serve");
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
    assert!(entry.refresh(QUERY).is_err(), "quality floored");
}

#[test]
fn deadline_budget_stops_retries_over_a_hang() {
    let (clock, registry, info, metrics) =
        manual_service("0 Load /usr/local/bin/cpuload.exe\n@degradation Load linear 60000\n");
    let entry = info.lookup("Load").expect("configured");
    entry.refresh(QUERY).expect("healthy first fetch");
    assert_eq!(entry.execution_count(), 1);

    // The provider hangs for 30 virtual seconds — far over the budget.
    let plan = Plan::new();
    plan.script("cpuload", vec![Fault::Hang(Duration::from_secs(30))]);
    registry.set_fault_plan(plan);

    let before = clock.now();
    let snap = entry
        .refresh(Cause::Query {
            deadline: Some(Duration::from_millis(200)),
        })
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
    let snap = entry.refresh(QUERY).expect("recovered");
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
