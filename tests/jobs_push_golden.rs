//! The exact bytes a `(action=subscribe)(info=jobs)` subscriber is sent
//! for one job's PENDING → ACTIVE → DONE.
//!
//! Everything that feeds those frames is fixed: a manual clock, an
//! in-memory log, and a one-slot FIFO queue that another account's job
//! holds, so the subscriber's job waits (PENDING), starts when the slot
//! frees (ACTIVE) and ends (DONE). The frames are the push wire format
//! of a job transition — a change to the record a job is pushed as, to
//! the delta encoding or to the `Update` framing shows here first.

use infogram::core::InfoGramDispatcher;
use infogram::exec::backend::{ForkBackend, QueueBackend};
use infogram::exec::gram::{ConnCtx, RequestDispatcher};
use infogram::exec::{EngineConfig, JobEngine, Wal};
use infogram::host::commands::{ChargeMode, CommandRegistry};
use infogram::host::machine::SimulatedHost;
use infogram::host::queue::BatchQueue;
use infogram::info::config::ServiceConfig;
use infogram::info::InformationService;
use infogram::proto::message::{Reply, Request};
use infogram::proto::transport::{Conn, ProtoError};
use infogram::proto::Outbox;
use infogram::sim::metrics::MetricSet;
use infogram::sim::ManualClock;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// The subscriber's end of the wire: every frame its outbox sends.
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
        "subscriber".to_string()
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn submit(rsl: &str) -> Request {
    Request::Submit {
        rsl: rsl.to_string(),
        callback: false,
    }
}

/// A job on the batch queue that runs for 10 ms.
const JOB: &str = "(executable=simwork)(arguments=10)(jobtype=batch)";

/// The three `Update` frames, version 1 a full record (`jobs:handle`,
/// `jobs:state`), versions 2 and 3 the changed state alone.
const GOLDEN: [&str; 3] = [
    "05070101046a6f6273176e6f646530302e677269642e6578616d706c652e6f7267\
     0101020b6a6f62733a68616e646c651f782d696e666f6772616d3a2f2f6c6f63616c\
     686f73743a323131392f322f31000a6a6f62733a73746174650750454e44494e470000",
    "05070101046a6f6273176e6f646530302e677269642e6578616d706c652e6f7267\
     0200010a6a6f62733a7374617465064143544956450000",
    "05070101046a6f6273176e6f646530302e677269642e6578616d706c652e6f7267\
     0300010a6a6f62733a737461746504444f4e450000",
];

#[test]
fn a_jobs_subscriber_is_sent_these_bytes_for_pending_active_done() {
    let clock = ManualClock::new();
    let host = SimulatedHost::default_on(clock.clone());
    let registry = CommandRegistry::new(host, ChargeMode::None);
    let info = InformationService::from_config(
        &ServiceConfig::table1(),
        Arc::clone(&registry),
        clock.clone(),
        MetricSet::new(),
    );
    let engine = JobEngine::new(
        EngineConfig::default(),
        clock.clone(),
        Wal::in_memory(),
        ForkBackend::new(Arc::clone(&registry)),
        MetricSet::new(),
    );
    let queue = Arc::new(BatchQueue::fifo(clock.clone(), 1));
    engine.set_queues(vec![(
        "pbs".to_string(),
        QueueBackend::batch(queue, registry),
    )]);
    let dispatcher = InfoGramDispatcher::new(Arc::clone(&engine), info);

    let wire = Arc::new(Wire::default());
    let mut ctx = ConnCtx::new(Outbox::new(Arc::clone(&wire) as Arc<dyn Conn>, 64));
    let subscribe = submit("(action=subscribe)(info=jobs)");
    let reply = dispatcher.dispatch("/O=Grid/CN=T", "t", subscribe, &mut ctx);
    assert!(
        matches!(reply, Reply::Subscribed { id: 1, count: 1 }),
        "{reply:?}"
    );

    // Another account's job takes the one slot; its transitions are not
    // the subscriber's.
    let other = dispatcher.dispatch("/O=Grid/CN=U", "u", submit(JOB), &mut ConnCtx::detached());
    assert!(matches!(other, Reply::JobAccepted { .. }), "{other:?}");
    let mine = dispatcher.dispatch("/O=Grid/CN=T", "t", submit(JOB), &mut ConnCtx::detached());
    let Reply::JobAccepted { handle } = mine else {
        panic!("{mine:?}");
    };
    for _ in 0..2 {
        clock.advance(Duration::from_millis(10));
        engine.status(handle.job_id).expect("a known job");
    }

    let frames: Vec<String> = wire.0.lock().iter().map(|f| hex(f)).collect();
    assert_eq!(frames, GOLDEN, "the pushed frames changed");
}
