//! One scenario, run by two suites: `tests/model_sub.rs` explores its
//! schedules, `tests/lockdep.rs` runs it on OS threads under lockdep.
//!
//! A job whose entry holds a callback outbox fails and restarts once,
//! then fails for good, while two threads poll it at once through each
//! step (or through one of them: an explorer's budget goes further on
//! one race at a time). Its transitions are pushed into the outbox under
//! `exec.engine.jobs` (an `exec.engine.jobs → proto.outbox.state`
//! order) and drained with no lock held. Under every schedule the
//! client must be sent each transition exactly once, in transition
//! order: PENDING (the restart), ACTIVE, FAILED.

use infogram::exec::backend::ForkBackend;
use infogram::exec::{EngineConfig, JobEngine, Wal};
use infogram::host::commands::{ChargeMode, CommandRegistry};
use infogram::host::machine::SimulatedHost;
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
    let sent: Vec<JobStateCode> = wire
        .0
        .lock()
        .iter()
        .map(|frame| match Reply::decode(frame) {
            Ok(Reply::Event { state, .. }) => state,
            other => panic!("not an event: {other:?}"),
        })
        .collect();
    assert_eq!(
        sent,
        [
            JobStateCode::Pending,
            JobStateCode::Active,
            JobStateCode::Failed
        ],
        "each transition sent once, in transition order"
    );
}
