//! One scenario, run by two suites: `tests/model_sub.rs` explores its
//! schedules, `tests/lockdep.rs` runs it on OS threads under lockdep.
//!
//! A job whose entry holds a callback outbox fails and restarts once,
//! then fails for good, while two threads poll it at once through each
//! step (or through one of them: an explorer's budget goes further on
//! one race at a time). Under `exec.engine.jobs` each transition is
//! pushed into the callback outbox (an `exec.engine.jobs →
//! proto.outbox.state` order) and told to the engine's observers: one
//! records what it is told, and one is the dispatcher's, which pushes
//! into the `(action=subscribe)(info=jobs)` stream of the job's account
//! (`exec.engine.jobs → info.sub.hub_state → proto.outbox.state`). Every
//! outbox is drained with no lock held. Under every schedule the client
//! must be sent each transition exactly once, in transition order:
//! PENDING (the restart), ACTIVE, FAILED; and the observer and the
//! subscriber must see every state in that order, the initial ACTIVE
//! first.

use infogram::exec::backend::ForkBackend;
use infogram::exec::{EngineConfig, JobEngine, Wal};
use infogram::host::commands::{ChargeMode, CommandRegistry};
use infogram::host::machine::SimulatedHost;
use infogram::info::{SubscriptionHub, JOBS_KEYWORD};
use infogram::proto::message::{JobStateCode, Reply};
use infogram::proto::transport::{Conn, ProtoError};
use infogram::proto::Outbox;
use infogram::rsl::XrslRequest;
use infogram::sim::metrics::MetricSet;
use infogram::sim::ManualClock;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// One poller's work.
pub type Poller = Box<dyn FnOnce() + Send>;

/// The client's end: every frame the outbox sends.
#[derive(Default)]
struct Wire(Mutex<Vec<Vec<u8>>>);

impl Wire {
    /// Every frame sent, decoded.
    fn replies(&self) -> Vec<Reply> {
        let frames = self.0.lock();
        frames
            .iter()
            .map(|f| Reply::decode(f).expect("a frame"))
            .collect()
    }
}

impl Conn for Wire {
    fn send(&self, msg: &[u8]) -> Result<(), ProtoError> {
        self.0.lock().push(msg.to_vec());
        Ok(())
    }
    fn recv(&self) -> Result<Vec<u8>, ProtoError> {
        Err(ProtoError::Closed)
    }
    fn peer(&self) -> String {
        "client".to_string()
    }
}

/// Run the scenario on `clock`. `restart` runs the two pollers of the
/// restart and `end` the two of the final failure, each returning once
/// both pollers have.
pub fn polled_from_two_threads(
    clock: Arc<ManualClock>,
    restart: impl Fn(Poller, Poller),
    end: impl Fn(Poller, Poller),
) {
    let host = SimulatedHost::default_on(clock.clone());
    let registry = CommandRegistry::new(host, ChargeMode::None);
    let fork = ForkBackend::new(registry);
    let config = EngineConfig::default();
    let engine = JobEngine::new(
        config,
        clock.clone(),
        Wal::in_memory(),
        fork,
        MetricSet::new(),
    );
    // What an observer is told, and what the account's `jobs`
    // subscriber is sent through an observer like the dispatcher's.
    let told = Arc::new(Mutex::new(Vec::new()));
    let record = Arc::clone(&told);
    engine.on_state_change(move |_, state, _| {
        record.lock().push(state);
        Vec::new()
    });
    let hub = SubscriptionHub::new("node0.grid", MetricSet::new());
    let publish = Arc::clone(&hub);
    engine
        .on_state_change(move |handle, state, account| publish.notify_job(handle, state, account));
    let stream = Arc::new(Wire::default());
    let jobs = [JOBS_KEYWORD.to_string()];
    hub.subscribe(
        &jobs,
        "t",
        Outbox::new(Arc::clone(&stream) as Arc<dyn Conn>, 8),
    );
    let wire = Arc::new(Wire::default());
    let outbox = Outbox::new(Arc::clone(&wire) as Arc<dyn Conn>, 8);
    let rsl = "&(executable=simwork)(arguments=1 5)(restartonfail=1)";
    let spec = XrslRequest::from_text(rsl)
        .expect("xRSL")
        .job
        .expect("a job");
    let handle = engine.submit_with_callback(rsl, spec, "/O=Grid/CN=T", "t", Some(&outbox));
    let id = handle.expect("accepted").job_id;
    let poller = || -> Poller {
        let engine = Arc::clone(&engine);
        Box::new(move || {
            engine.status(id).expect("known");
        })
    };
    // The first attempt has failed: one poll restarts it, the other
    // sees it run.
    clock.advance(Duration::from_millis(1));
    restart(poller(), poller());
    // The second has failed too, with no retry left: one poll ends it.
    clock.advance(Duration::from_millis(1));
    end(poller(), poller());
    assert_eq!(
        engine.status(id).expect("known").state,
        JobStateCode::Failed
    );
    let sent: Vec<JobStateCode> = (wire.replies().into_iter())
        .map(|reply| match reply {
            Reply::Event { state, .. } => state,
            other => panic!("not an event: {other:?}"),
        })
        .collect();
    use JobStateCode::{Active, Failed, Pending};
    assert_eq!(
        sent,
        [Pending, Active, Failed],
        "each transition sent once, in transition order"
    );
    let told = told.lock().clone();
    assert_eq!(
        told,
        [Active, Pending, Active, Failed],
        "the observer is told each state once, in transition order"
    );
    // The subscriber applies its deltas in version order, as a client does.
    let mut last = None;
    let mut streamed = Vec::new();
    for (version, reply) in (1..).zip(stream.replies()) {
        let Reply::Update { deltas, .. } = reply else {
            panic!("not an update: {reply:?}");
        };
        assert_eq!(deltas[0].version, version, "a gap in the jobs stream");
        let rec = deltas[0].apply(last.as_ref()).expect("the delta applies");
        streamed.push(rec.get("jobs:state").expect("a state").value.clone());
        last = Some(rec);
    }
    assert_eq!(
        streamed,
        ["ACTIVE", "PENDING", "ACTIVE", "FAILED"],
        "the jobs subscriber sees each state once, in transition order"
    );
}
