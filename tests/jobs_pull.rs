//! `(info=jobs)` pulls what `(action=subscribe)(info=jobs)` pushes: the
//! asking account's jobs, in flight and finished, one record per job in
//! id order, each the record the job's last push carried. The xRSL tags
//! apply to it as to any keyword.

use infogram::proto::record::InfoRecord;
use infogram::quickstart::Sandbox;
use infogram_client::InfoGramClient;
use std::time::Duration;

/// A record without the quality and age every pull annotates and no
/// push carries.
fn bare(mut rec: InfoRecord) -> InfoRecord {
    for attr in &mut rec.attributes {
        attr.quality = None;
        attr.age_secs = None;
    }
    rec
}

fn state(rec: &InfoRecord) -> &str {
    &rec.get("jobs:state").expect("a state").value
}

/// Read `watcher`'s pushes until the last one of each of `handles` is in
/// state `states[i]`; returns those last records.
fn pushed_until(
    watcher: &mut InfoGramClient,
    handles: &[String],
    states: &[&str],
) -> Vec<InfoRecord> {
    let mut last: Vec<Option<InfoRecord>> = vec![None; handles.len()];
    while !(last.iter().zip(states)).all(|(rec, s)| rec.as_ref().is_some_and(|r| state(r) == *s)) {
        let update = watcher.wait_update().expect("a job transition is pushed");
        for rec in update.records {
            let handle = &rec.get("jobs:handle").expect("a handle").value;
            let i = handles
                .iter()
                .position(|h| h == handle)
                .expect("one of ours");
            last[i] = Some(rec);
        }
    }
    last.into_iter().flatten().collect()
}

#[test]
fn a_pull_returns_the_askers_jobs_as_their_pushes_carry_them() {
    let sandbox = Sandbox::start();
    let mut client = sandbox.connect_client();
    let mut watcher = sandbox.connect_client();
    watcher.subscribe(&["jobs"]).expect("subscribed");

    let done = client
        .submit("(executable=simwork)(arguments=10)", false)
        .expect("accepted");
    let (end, _, _) = client
        .wait_terminal(&done, Duration::from_millis(5), Duration::from_secs(10))
        .expect("the first job ends");
    assert_eq!(end.to_string(), "DONE");
    let running = client
        .submit("(executable=simwork)(arguments=600000)", false)
        .expect("accepted");
    let handles = [done.to_string(), running.to_string()];
    // The service polls for the subscriber, so the running job is soon
    // pushed ACTIVE; it stays so for ten minutes.
    let pushed = pushed_until(&mut watcher, &handles, &["DONE", "ACTIVE"]);

    let pulled = client.query_rsl("(info=jobs)").expect("jobs answers");
    assert_eq!(pulled.record_count, 2);
    let pulled: Vec<InfoRecord> = pulled.records.into_iter().map(bare).collect();
    assert_eq!(pulled, pushed, "one record per job, in id order, as pushed");

    // Another format carries the same records.
    let xml = client.query_rsl("(info=jobs)(format=xml)").expect("xml");
    assert!(xml.body.starts_with("<infogram>"), "{}", xml.body);
    assert_eq!(
        xml.records.into_iter().map(bare).collect::<Vec<_>>(),
        pushed
    );

    // A filter keeps the named attribute of each record.
    let states = client
        .query_rsl("(info=jobs)(filter=jobs:state)")
        .expect("filtered");
    let names: Vec<Vec<&str>> = (states.records.iter())
        .map(|r| r.attributes.iter().map(|a| a.name.as_str()).collect())
        .collect();
    assert_eq!(names, [["jobs:state"], ["jobs:state"]]);

    // The §6.6 catalog times the reads: this is the fourth.
    let perf = client
        .query_rsl("(info=jobs)(performance=true)")
        .expect("perf");
    for rec in &perf.records {
        assert_eq!(
            rec.get("jobs:perf.samples").expect("perf").value,
            "4",
            "{rec}"
        );
    }
    sandbox.shutdown();
}

#[test]
fn every_keyword_and_the_schema_name_the_jobs_keyword() {
    let sandbox = Sandbox::start();
    let mut client = sandbox.connect_client();
    let all = client.query_rsl("(info=all)").expect("all");
    let without = all.record_count;
    let handle = client
        .submit("(executable=simwork)(arguments=600000)", false)
        .expect("accepted");

    // The asker's job is one more record of `(info=all)`.
    let all = client.query_rsl("(info=all)").expect("all");
    assert_eq!(all.record_count, without + 1);
    let jobs: Vec<&InfoRecord> = all.records.iter().filter(|r| r.keyword == "jobs").collect();
    assert_eq!(jobs.len(), 1);
    assert_eq!(
        jobs[0].get("jobs:handle").expect("handle").value,
        handle.to_string()
    );

    let schema = client.query_rsl("(info=schema)").expect("schema");
    let entry = (schema.records.iter())
        .find(|r| r.keyword == "Schema.jobs")
        .expect("the schema lists jobs");
    assert_eq!(entry.get("ttl_ms").expect("ttl").value, "0");
    sandbox.shutdown();
}
