//! Persistent push subscriptions, end to end over the wire: a client
//! opens `(action=subscribe)` queries against a full sandbox stack and
//!
//! * receives an initial full snapshot followed by contiguous
//!   incremental deltas as the refresh scheduler re-runs providers,
//! * sees job-state transitions stream in under the virtual `jobs`
//!   keyword,
//! * observes eviction as a typed [`ClientError::SubscriptionEnded`]
//!   carrying `SLOW_CONSUMER` (and loses the connection, by design),
//! * keeps degraded/stale-age annotations intact across the delta
//!   encode/decode round trip,
//! * transparently resubscribes after a severed connection with no
//!   version gap,
//! * interleaves job Events and subscription Updates on one connection
//!   without either wait losing the other's frames,
//! * receives exactly one update for a query's own refresh of a
//!   subscribed keyword, and none for a cache hit,
//! * is refused a TTL-0 keyword, which nothing would ever push, and
//! * survives an 8-thread subscribe/unsubscribe storm with the hub
//!   draining back to zero.

use infogram::exec::DEFAULT_OUTBOX_CAPACITY;
use infogram::info::config::ServiceConfig;
use infogram::proto::drain_all;
use infogram::proto::message::codes;
use infogram::proto::record::InfoRecord;
use infogram::quickstart::{Sandbox, SandboxConfig};
use infogram_client::{ClientError, InfoGramClient};
use std::sync::{Arc, Barrier};

/// Subscribe → initial full snapshot → live deltas with contiguous
/// versions → clean unsubscribe. The refresh wheel starts empty; the
/// subscription itself is what puts `Date` on it, so every update here
/// is scheduler-driven push, not polling.
#[test]
fn subscribe_streams_snapshot_then_contiguous_deltas() {
    let sandbox = Sandbox::start();
    let mut client = sandbox.connect_client();

    let id = client.subscribe(&["Date"]).expect("subscribe accepted");
    assert_eq!(client.subscription_id(), Some(id));

    // The channel is cold, so the first frame is the first scheduled
    // refresh: version 1, full snapshot.
    let first = client.wait_update().expect("first update streams in");
    assert_eq!(first.id, id);
    assert_eq!(first.records.len(), 1);
    assert_eq!(first.records[0].keyword, "Date");
    assert!(
        !first.records[0].attributes.is_empty(),
        "snapshot carries the provider's attributes"
    );
    assert!(first.deltas[0].full, "cold channel opens with a snapshot");
    assert_eq!(first.deltas[0].version, 1);

    // Subsequent refreshes push incremental deltas; `wait_update`
    // verifies contiguity internally (a gap is a protocol error), so
    // three more successes prove no update was missed.
    let mut version = first.deltas[0].version;
    for _ in 0..3 {
        let next = client.wait_update().expect("live update");
        assert_eq!(next.deltas[0].version, version + 1, "versions contiguous");
        version = next.deltas[0].version;
        assert_eq!(next.records[0].keyword, "Date");
    }

    client.unsubscribe().expect("unsubscribe acknowledged");
    assert_eq!(client.subscription_id(), None);
    assert_eq!(
        sandbox.service.subscriptions().active(),
        0,
        "unsubscribe released the hub entry synchronously"
    );
    sandbox.shutdown();
}

/// Job-state transitions stream under the virtual `jobs` keyword: a
/// submit on the same connection pushes PENDING/ACTIVE/DONE records
/// through the subscription without any status polling.
#[test]
fn jobs_keyword_pushes_state_transitions() {
    let sandbox = Sandbox::start();
    let mut client = sandbox.connect_client();

    client.subscribe(&["jobs"]).expect("subscribe accepted");
    let handle = client
        .submit("(executable=simwork)(arguments=10)", false)
        .expect("job accepted");

    // Three transitions, three pushes; stop at the terminal one.
    let mut states = Vec::new();
    while states.last().map(String::as_str) != Some("DONE") {
        let update = client.wait_update().expect("job transition pushed");
        for rec in &update.records {
            assert_eq!(rec.keyword, "jobs");
            assert_eq!(
                rec.get("jobs:handle").expect("handle attribute").value,
                handle.to_string()
            );
            states.push(
                rec.get("jobs:state")
                    .expect("state attribute")
                    .value
                    .clone(),
            );
        }
        assert!(states.len() <= 8, "runaway transition stream: {states:?}");
    }
    // The fork backend may start the process during submit, so the
    // first pushed state is PENDING or already ACTIVE.
    assert!(
        states[0] == "PENDING" || states[0] == "ACTIVE",
        "saw the initial state: {states:?}"
    );
    sandbox.shutdown();
}

/// Eviction surfaces as the typed error with the slow-consumer code,
/// and — by design — takes the whole connection with it: the final
/// `SubEnd` is the last frame the peer ever receives.
#[test]
fn eviction_is_a_typed_slow_consumer_error() {
    // With a ten-minute TTL and a warm cache no scheduled refresh pushes
    // to, or drains, the connection's outbox: the test's pushes are the
    // channel's only ones, and those it leaves undrained pile up as they
    // would in front of a peer that stopped reading.
    let sandbox = Sandbox::start_with(SandboxConfig {
        config: ServiceConfig::parse("600000 Memory /sbin/sysinfo.exe -mem").expect("config"),
        ..Default::default()
    });
    let mut client = sandbox.connect_client();
    client.info("Memory").expect("cache warmed");
    let id = client.subscribe(&["Memory"]).expect("subscribe accepted");
    let hub = sandbox.service.subscriptions();
    let probe = |value: &str| {
        let mut rec = InfoRecord::new("Memory", "probe");
        rec.push("Memory:probe", value);
        rec
    };
    drain_all(hub.notify_record("Memory", probe("read")));
    let first = client.wait_update().expect("stream is live");
    assert!(first.deltas[0].full);

    // One undrained push more than the outbox holds overflows it.
    let mut pushed = Vec::new();
    for _ in 0..=DEFAULT_OUTBOX_CAPACITY {
        pushed = hub.notify_record("Memory", probe("unread"));
    }
    assert_eq!(hub.active(), 0, "the overflow evicted the subscriber");
    drain_all(pushed);

    // Updates already in flight may precede the final notice.
    let err = loop {
        match client.wait_update() {
            Ok(_) => continue,
            Err(e) => break e,
        }
    };
    match err {
        ClientError::SubscriptionEnded {
            id: ended,
            code,
            message,
        } => {
            assert_eq!(ended, id);
            assert_eq!(code, codes::SLOW_CONSUMER);
            assert!(message.contains("fell behind"), "{message}");
        }
        other => panic!("expected SubscriptionEnded, got {other:?}"),
    }
    assert_eq!(client.subscription_id(), None, "client state cleared");
    assert!(
        client.info("Memory").is_err(),
        "eviction closes the outbox, which terminates the connection"
    );
    sandbox.shutdown();
}

/// A degraded record (fault-domain stale serve) pushed through the hub
/// keeps its record-level annotations across the delta encode/decode
/// round trip: the subscriber knows the value is stale and how old it
/// is.
#[test]
fn degraded_annotations_survive_the_push_pipeline() {
    let sandbox = Sandbox::start();
    let mut client = sandbox.connect_client();

    client.subscribe(&["Date"]).expect("subscribe accepted");
    client.wait_update().expect("stream is live");

    let host = sandbox
        .addr()
        .rsplit_once(':')
        .map(|(h, _)| h.to_string())
        .unwrap_or_default();
    let mut stale = InfoRecord::new("Date", &host);
    stale.degraded = true;
    stale.stale_age_secs = Some(12.5);
    stale.push("Date:output", "Tue Jul 16 09:00:00 UTC 2002");
    drain_all(sandbox.service.subscriptions().notify_record("Date", stale));

    // Scheduler refreshes may interleave with the injected push; the
    // degraded record arrives with its annotations intact.
    let degraded = loop {
        let update = client.wait_update().expect("update");
        if let Some(rec) = update.records.iter().find(|r| r.degraded) {
            assert!(
                update.deltas.iter().any(|d| d.degraded),
                "the wire-level delta carries the flag too"
            );
            break rec.clone();
        }
    };
    let age = degraded.stale_age_secs.expect("stale age annotated");
    assert!((age - 12.5).abs() < 1e-9, "age survives exactly, got {age}");
    assert_eq!(
        degraded.get("Date:output").expect("value present").value,
        "Tue Jul 16 09:00:00 UTC 2002"
    );
    sandbox.shutdown();
}

/// A dropped connection under a retry policy transparently reconnects
/// *and resubscribes*: the fresh stream opens with full snapshots at
/// the channels' current versions, so the client proves it observed no
/// gap — `wait_update` would fail with a "missed update" protocol
/// error otherwise.
#[test]
fn resubscribe_after_reconnect_shows_no_gap() {
    let sandbox = Sandbox::start();
    let mut client = InfoGramClient::connect_with_retry(
        Arc::new(Arc::clone(&sandbox.net)),
        sandbox.addr(),
        &sandbox.user,
        &sandbox.roots,
        sandbox.clock.clone(),
    )
    .expect("connects");

    let before = client.subscribe(&["Date"]).expect("subscribe accepted");
    let first = client.wait_update().expect("first update");
    assert!(first.deltas.iter().all(|d| d.full));
    client.wait_update().expect("stream is live mid-flight");

    client.sever();

    let after = client.wait_update().expect("update after reconnect");
    assert_eq!(
        client.reconnect_count(),
        1,
        "exactly one transparent reconnect"
    );
    assert!(
        after.deltas.iter().all(|d| d.full),
        "fresh stream opens with full snapshots"
    );
    let resubscribed = client
        .subscription_id()
        .expect("subscription re-established");
    assert_ne!(before, resubscribed, "a new server-side registration");

    // And it keeps flowing: contiguity from the snapshot onward.
    let next = client.wait_update().expect("stream continues");
    assert_eq!(next.id, resubscribed);
    sandbox.shutdown();
}

/// Job Events and subscription Updates share one connection, and
/// neither wait loses the other's frames: the injected Update reaches
/// the wire while `wait_event` waits for the job, and the next
/// `wait_update` still returns it.
#[test]
fn an_update_that_arrives_during_wait_event_is_kept() {
    // With a ten-minute TTL and a warm cache, Memory's first scheduled
    // refresh is minutes away, so after the cached snapshot the join
    // opens with, the injected record is the channel's only push.
    let sandbox = Sandbox::start_with(SandboxConfig {
        config: ServiceConfig::parse("600000 Memory /sbin/sysinfo.exe -mem").expect("config"),
        ..Default::default()
    });
    let mut client = sandbox.connect_client();
    client.info("Memory").expect("cache warmed");
    client.subscribe(&["Memory"]).expect("subscribe accepted");
    let snapshot = client.wait_update().expect("the cached snapshot");
    assert_eq!(snapshot.deltas[0].version, 0);
    let handle = client
        .submit("(executable=simwork)(arguments=300)", true)
        .expect("job accepted");

    let mut injected = InfoRecord::new("Memory", "probe");
    injected.push("Memory:probe", "injected");
    drain_all(
        sandbox
            .service
            .subscriptions()
            .notify_record("Memory", injected),
    );

    // The job runs for 300 ms, so the Update is on the wire before the
    // job's terminal Event.
    loop {
        let (h, state) = client.wait_event().expect("the job's Event");
        assert_eq!(h.job_id, handle.job_id);
        if state.is_terminal() {
            break;
        }
    }

    let update = client.wait_update().expect("the Update was kept");
    assert_eq!(update.deltas[0].version, 1);
    assert_eq!(
        update.records[0]
            .get("Memory:probe")
            .expect("the injected record")
            .value,
        "injected"
    );
    assert!(client.next_update().is_none(), "delivered exactly once");
    sandbox.shutdown();
}

/// A refresh a query causes pushes like a scheduled one: on a
/// subscribed keyword, `(response=immediate)` delivers exactly one
/// update, one version on; a cache hit delivers none. The push is in the
/// outbox before the reply, so it has arrived once the reply has.
#[test]
fn a_query_that_refreshes_a_subscribed_keyword_pushes_once() {
    // A ten-minute TTL and a warm cache: the wheel's first refresh is
    // minutes away, so every push below, after the cached snapshot the
    // join opens with, is the query's.
    let sandbox = Sandbox::start_with(SandboxConfig {
        config: ServiceConfig::parse("600000 Memory /sbin/sysinfo.exe -mem").expect("config"),
        ..Default::default()
    });
    let mut client = sandbox.connect_client();
    client.info("Memory").expect("cache warmed");
    client.subscribe(&["Memory"]).expect("subscribe accepted");
    assert!(client.next_update().expect("the cached snapshot").is_ok());
    let version = sandbox.service.subscriptions().channel_version("Memory");

    let fresh = client
        .query_rsl("(info=Memory)(response=immediate)")
        .expect("immediate answer");
    assert!(!fresh.degraded());
    let pushed = client
        .next_update()
        .expect("the refresh pushed")
        .expect("update");
    assert_eq!(pushed.deltas[0].version, version + 1, "one version on");
    assert!(client.next_update().is_none(), "exactly one update");

    client.query_rsl("(info=Memory)").expect("cache hit");
    assert!(client.next_update().is_none(), "a TTL hit pushes nothing");
    assert_eq!(
        sandbox.service.subscriptions().channel_version("Memory"),
        version + 1
    );
    sandbox.shutdown();
}

/// A keyword cached before anyone subscribed opens its first
/// subscriber's stream with the cached record, at once: with a
/// ten-minute TTL no refresh would push for minutes.
#[test]
fn the_first_subscriber_to_a_warm_keyword_starts_from_its_cached_record() {
    let sandbox = Sandbox::start_with(SandboxConfig {
        config: ServiceConfig::parse("600000 Memory /sbin/sysinfo.exe -mem").expect("config"),
        ..Default::default()
    });
    let mut client = sandbox.connect_client();
    let cached = client.info("Memory").expect("cache warmed");
    client.subscribe(&["Memory"]).expect("subscribe accepted");
    let first = client
        .next_update()
        .expect("queued before the subscribe reply")
        .expect("update");
    assert!(first.deltas[0].full);
    assert_eq!(first.deltas[0].version, 0);
    let total = |rec: &InfoRecord| rec.get("Memory:total").map(|a| a.value.clone());
    assert!(total(&first.records[0]).is_some());
    assert_eq!(total(&first.records[0]), total(&cached.records[0]));
    sandbox.shutdown();
}

/// Eight threads churning subscribe → receive → unsubscribe against
/// one service: no panics, every stream delivers, and the hub drains
/// back to zero when the storm passes.
#[test]
fn subscribe_unsubscribe_storm_drains_clean() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 6;

    let sandbox = Sandbox::start();
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let sandbox = &sandbox;
            let barrier = &barrier;
            scope.spawn(move || {
                let mut client = sandbox.connect_client();
                barrier.wait();
                for round in 0..ROUNDS {
                    let keywords: &[&str] = if (t + round) % 2 == 0 {
                        &["Date", "jobs"]
                    } else {
                        &["Memory", "CPU"]
                    };
                    client.subscribe(keywords).expect("subscribe");
                    let update = client.wait_update().expect("stream delivers");
                    assert!(!update.deltas.is_empty());
                    client.unsubscribe().expect("unsubscribe");
                }
            });
        }
    });
    assert_eq!(
        sandbox.service.subscriptions().active(),
        0,
        "the storm left no subscription behind"
    );
    sandbox.shutdown();
}

/// A TTL-0 keyword is never put on the refresh wheel and nothing else
/// pushes it, so a subscription to it would be accepted and then stay
/// silent for ever. It is refused as BAD_RSL naming the keyword, before
/// anything is watched or subscribed; a keyword with a TTL still
/// subscribes.
#[test]
fn a_ttl_zero_keyword_is_refused_at_subscribe() {
    let sandbox = Sandbox::start();
    let mut client = sandbox.connect_client();
    for (keywords, named) in [
        (&["cpuload"][..], "cpuload"),
        (&["CPU", "metrics"], "metrics"),
    ] {
        match client.subscribe(keywords) {
            Err(ClientError::Server { code, message }) => {
                assert_eq!(code, codes::BAD_RSL, "{message}");
                assert!(message.to_ascii_lowercase().contains(named), "{message}");
            }
            other => panic!("{keywords:?}: {other:?}"),
        }
        assert_eq!(sandbox.service.subscriptions().active(), 0);
        assert!(!sandbox.service.scheduler().is_watched("CPU"));
    }
    client.subscribe(&["cpu"]).expect("CPU has TTL 100");
    assert_eq!(sandbox.service.subscriptions().active(), 1);
    assert!(sandbox.service.scheduler().is_watched("CPU"));
    sandbox.shutdown();
}
