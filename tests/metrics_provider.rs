//! End-to-end tests of the self-describing `Metrics:` provider: drive
//! jobs and information queries through the unified dispatcher over the
//! in-memory transport, then ask the service to describe itself with
//! `(info=metrics)` and check that every instrumented layer — dispatch,
//! connection handling, the information cache, and the job engine — shows
//! up in the answer.

use infogram::quickstart::Sandbox;
use infogram::rsl::OutputFormat;
use infogram_client::QueryBuilder;
use std::time::Duration;

#[test]
fn metrics_keyword_reflects_all_four_layers() {
    let sandbox = Sandbox::start();
    let mut client = sandbox.connect_client();

    // Info-cache layer: a miss (first query) then a hit (within TTL).
    client.info("Memory").unwrap();
    client.info("Memory").unwrap();

    // Job layer: run one job to completion.
    let handle = client
        .submit("(executable=simwork)(arguments=20)", false)
        .unwrap();
    let (state, exit, _) = client
        .wait_terminal(&handle, Duration::from_millis(5), Duration::from_secs(10))
        .unwrap();
    assert!(state.is_terminal());
    assert_eq!(exit, Some(0));

    // Now the service describes itself.
    let r = client.metrics().unwrap();
    assert_eq!(r.record_count, 1);
    let rec = &r.records[0];
    assert_eq!(rec.keyword, "Metrics");
    let value = |name: &str| {
        rec.get(name)
            .unwrap_or_else(|| panic!("missing attribute {name}"))
            .value
            .clone()
    };

    // Dispatch layer: per-kind outcome counters and latency quantiles.
    let info_ok: u64 = value("dispatch.info.ok").parse().unwrap();
    assert!(info_ok >= 2, "dispatch.info.ok = {info_ok}");
    assert_eq!(value("dispatch.job.ok"), "1");
    let status_ok: u64 = value("dispatch.status.ok").parse().unwrap();
    assert!(status_ok >= 1, "wait_terminal polled at least once");
    assert!(rec.get("dispatch.info.p95_ms").is_some());

    // Connection layer: one authenticated connection, many frames.
    assert_eq!(value("gram.connections"), "1");
    assert_eq!(value("gram.connections.active"), "1");
    let frames: u64 = value("gram.requests").parse().unwrap();
    assert!(frames >= 4, "gram.requests = {frames}");

    // Info-cache layer: per-keyword miss/hit counters.
    assert_eq!(value("info.misses.Memory"), "1");
    let hits: u64 = value("info.hits.Memory").parse().unwrap();
    assert!(hits >= 1, "info.hits.Memory = {hits}");
    assert!(rec.get("info.refresh.count").is_some());

    // Job-engine layer: lifecycle counters, the wall-time histogram, WAL
    // append latency and group-commit sizes.
    let submitted: u64 = value("jobs.submitted").parse().unwrap();
    assert_eq!(submitted, 1);
    assert_eq!(value("jobs.done"), "1");
    assert_eq!(value("jobs.wall.count"), "1");
    let wal_appends: u64 = value("wal.append.count").parse().unwrap();
    assert!(wal_appends >= 3, "start + submit + state + finish");
    // A group size is a count of records, not a duration: its mean is
    // published unscaled. A submission commits two records (`Submitted`
    // and its first state), a finish one, so the groups hold three.
    let groups: f64 = value("wal.group_size.count").parse().unwrap();
    let group: f64 = value("wal.group_size.mean").parse().unwrap();
    let committed = (2 * submitted + 1) as f64;
    assert!(
        (1.0..=committed).contains(&group) && (group * groups - committed).abs() < 0.01,
        "wal.group_size: {groups} groups, mean {group}"
    );

    sandbox.shutdown();
}

#[test]
fn xrsl_tags_apply_to_metrics_records() {
    let sandbox = Sandbox::start();
    let mut client = sandbox.connect_client();
    client.info("CPU").unwrap();

    // (filter=...) narrows the record to one attribute, like any keyword.
    let r = client
        .query(
            &QueryBuilder::new()
                .keyword("metrics")
                .filter("Metrics:info.misses.CPU"),
        )
        .unwrap();
    assert_eq!(r.record_count, 1);
    assert_eq!(r.records[0].attributes.len(), 1);
    assert_eq!(r.records[0].attributes[0].name, "Metrics:info.misses.CPU");
    assert_eq!(r.records[0].attributes[0].value, "1");

    // (format=xml) renders the same snapshot as XML.
    let xml = client
        .query(
            &QueryBuilder::new()
                .keyword("metrics")
                .format(OutputFormat::Xml),
        )
        .unwrap();
    assert!(xml.body.starts_with("<infogram>"));
    assert!(xml.body.contains("dispatch.info"));

    // (performance=true) attaches the provider's own update-time stats.
    let perf = client
        .query(&QueryBuilder::new().keyword("metrics").performance())
        .unwrap();
    assert!(perf.records[0].get("perf.samples").is_some());

    // TTL 0: every metrics query re-executes the provider — the answer
    // is always a live snapshot, never a cached one.
    let si = sandbox.service.info_service().lookup("Metrics").unwrap();
    let before = si.execution_count();
    client.metrics().unwrap();
    client.metrics().unwrap();
    assert_eq!(si.execution_count(), before + 2);

    sandbox.shutdown();
}
