//! Push subscriptions: `(action=subscribe)` turns an information query
//! into a standing one. The service streams an initial snapshot and
//! then pushes an incremental delta whenever the refresh scheduler
//! re-runs a provider — and, under the `jobs` keyword, whenever one of
//! the account's jobs changes state. No client-side polling anywhere
//! below.
//!
//! ```text
//! cargo run --example subscribe
//! ```

use infogram::quickstart::Sandbox;

fn main() {
    let sandbox = Sandbox::start();
    let mut client = sandbox.connect_client();
    println!("connected to InfoGram at {}\n", sandbox.addr());

    // One subscription may cover several keywords; `jobs` carries the
    // state transitions of this account's jobs.
    let id = client.subscribe(&["Date", "jobs"]).expect("subscribe");
    println!("subscription #{id} open on Date + jobs");

    // The cold Date channel opens with a full snapshot at version 1.
    let first = client.wait_update().expect("initial snapshot");
    for (rec, delta) in first.records.iter().zip(&first.deltas) {
        println!(
            "  [{}] v{} {} ({} attrs)",
            rec.keyword,
            delta.version,
            if delta.full { "snapshot" } else { "delta" },
            rec.attributes.len()
        );
    }

    // A job submitted on the same connection streams its transitions
    // through the subscription.
    let handle = client
        .submit("(executable=simwork)(arguments=10)", false)
        .expect("submit");
    println!("\nsubmitted job {handle}; watching the jobs channel:");

    let mut date_pushes = 0u32;
    loop {
        let update = client.wait_update().expect("push");
        let mut done = false;
        for (rec, delta) in update.records.iter().zip(&update.deltas) {
            match rec.keyword.as_str() {
                "jobs" => {
                    let state = rec.get("jobs:state").expect("state").value.clone();
                    println!("  [jobs] v{} state={state}", delta.version);
                    done = state == "DONE";
                }
                kw => {
                    println!(
                        "  [{kw}] v{} {}",
                        delta.version,
                        if delta.full { "snapshot" } else { "delta" }
                    );
                    date_pushes += 1;
                }
            }
        }
        if done {
            break;
        }
    }

    // The same records, pulled: this account's jobs, one record each.
    let pulled = client.query_rsl("(info=jobs)").expect("pull");
    for rec in &pulled.records {
        let attr = |name| rec.get(name).map_or("?", |a| a.value.as_str());
        println!(
            "  (info=jobs): {} {}",
            attr("jobs:handle"),
            attr("jobs:state")
        );
    }

    client.unsubscribe().expect("unsubscribe");
    println!(
        "\njob finished; saw {date_pushes} scheduler-driven Date push(es); \
         unsubscribed, hub active = {}",
        sandbox.service.subscriptions().active()
    );
    sandbox.shutdown();
}
