//! Model-checked invariants for the push-subscription delivery
//! pipeline (DESIGN.md §12).
//!
//! Runs only with `--features model` (`scripts/check_model.sh`): each
//! test hands a small multi-threaded scenario to the schedule explorer
//! in `infogram_sim::model`, which re-executes it under every bounded
//! interleaving of its synchronization points.
//!
//! Checked invariants:
//!
//! * **Bounded means bounded (seeded)** — a fixture reintroducing the
//!   tempting outbox bug (capacity check and insert in *separate* lock
//!   acquisitions) must be caught by the explorer: two concurrent
//!   pushes both pass the check and the "bounded" queue overcommits.
//!   The shipped [`Outbox`] must pass the identical scenario
//!   exhaustively — its check-and-insert is one atomic critical
//!   section, so exactly one push wins the last slot and the loser
//!   gets a typed `Overflow`.
//! * **No lost, duplicated, or reordered update** — two concurrent
//!   `notify_record` calls on one channel deliver exactly versions
//!   `[1, 2]` to every subscriber, in that order, under every
//!   interleaving.
//! * **A joiner never sees a gap** — a subscriber racing `subscribe`
//!   against a concurrent notify always starts with a full snapshot
//!   and ends at the channel's final version, with no version hole in
//!   between.
//! * **Backpressure never deadlocks the pipeline** — a scheduler tick
//!   whose fan-out hits a dead connection (the eviction path: state
//!   lock, delivery lock, outbox close) interleaved with a concurrent
//!   subscribe on the same channel always terminates, leaving the
//!   healthy subscriber live and the keyword scheduled.
//! * **A job's Events follow its transitions** — two threads polling a
//!   restarting job whose entry holds a callback outbox send its client
//!   each transition exactly once, in transition order, whether they
//!   race the restart or the end (`support/callback_race.rs`, which
//!   `tests/lockdep.rs` also runs).

#![cfg(feature = "model")]
// Test harness: panic-on-failure is the error policy here — and inside a
// model scenario a panic IS the violation signal the explorer looks for.
#![allow(clippy::unwrap_used)]

use infogram::info::provider::FnProvider;
use infogram::info::{
    DegradationFn, RefreshScheduler, SinkClosed, SubSink, SubscriptionHub, SystemInformation,
};
use infogram::proto::message::Reply;
use infogram::proto::record::InfoRecord;
use infogram::proto::transport::{Conn, ProtoError};
use infogram::proto::{Outbox, OutboxError};
use infogram::sim::metrics::MetricSet;
use infogram::sim::model;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

#[path = "support/model_pair.rs"]
mod model_pair;

#[path = "support/callback_race.rs"]
mod callback_race;

/// A connection that accepts every frame (the outbox scenarios only
/// exercise queueing, not the wire).
struct NullConn;

impl Conn for NullConn {
    fn send(&self, _msg: &[u8]) -> Result<(), ProtoError> {
        Ok(())
    }
    fn recv(&self) -> Result<Vec<u8>, ProtoError> {
        Err(ProtoError::Closed)
    }
    fn peer(&self) -> String {
        "null".to_string()
    }
}

/// A connection whose peer is gone: every send fails, driving the
/// hub's eviction path.
struct DeadConn;

impl Conn for DeadConn {
    fn send(&self, _msg: &[u8]) -> Result<(), ProtoError> {
        Err(ProtoError::Closed)
    }
    fn recv(&self) -> Result<Vec<u8>, ProtoError> {
        Err(ProtoError::Closed)
    }
    fn peer(&self) -> String {
        "dead".to_string()
    }
}

/// Records every delivered frame, decoded; never fails.
struct CollectingSink {
    replies: Mutex<Vec<Reply>>,
}

impl CollectingSink {
    fn new() -> Arc<Self> {
        Arc::new(CollectingSink {
            replies: Mutex::new(Vec::new()),
        })
    }

    /// The version sequence received, in delivery order.
    fn versions(&self) -> Vec<u64> {
        self.replies
            .lock()
            .iter()
            .filter_map(|r| match r {
                Reply::Update { deltas, .. } => Some(deltas.iter().map(|d| d.version)),
                _ => None,
            })
            .flatten()
            .collect()
    }

    /// Whether the first delivered delta was a full snapshot.
    fn starts_full(&self) -> bool {
        match self.replies.lock().first() {
            Some(Reply::Update { deltas, .. }) => deltas.first().is_some_and(|d| d.full),
            _ => false,
        }
    }
}

impl SubSink for CollectingSink {
    fn deliver(&self, frame: Vec<u8>) -> Result<(), SinkClosed> {
        self.replies
            .lock()
            .push(Reply::decode(&frame).expect("valid frame"));
        Ok(())
    }

    fn close(&self, _frame: Vec<u8>) {}
}

fn hub_on(clock: Arc<infogram::sim::ManualClock>) -> Arc<SubscriptionHub> {
    SubscriptionHub::new(clock, "node0.grid", MetricSet::new())
}

fn record(kw: &str, val: &str) -> InfoRecord {
    let mut rec = InfoRecord::new(kw, "node0.grid");
    rec.push("value", val);
    rec
}

// ---------------------------------------------------------------------
// Seeded regression: capacity check and insert in separate acquisitions
// ---------------------------------------------------------------------

/// The tempting outbox simplification — "check the length, then push":
/// with the check and the insert in *separate* lock acquisitions, two
/// concurrent pushes at `capacity - 1` both pass the check and the
/// bounded queue overcommits. The shipped [`Outbox`] holds one critical
/// section across both.
struct BuggyOutbox {
    queue: Mutex<Vec<Vec<u8>>>,
    capacity: usize,
}

impl BuggyOutbox {
    fn push(&self, frame: Vec<u8>) -> Result<(), ()> {
        // BUG (reintroduced): check…
        if self.queue.lock().len() >= self.capacity {
            return Err(());
        }
        // …then act, after the lock was dropped and retaken.
        self.queue.lock().push(frame);
        Ok(())
    }
}

#[test]
fn model_finds_seeded_outbox_overcommit_bug() {
    let report = model::explore(&model_pair::regression_config(), || {
        let outbox = Arc::new(BuggyOutbox {
            queue: Mutex::new(Vec::new()),
            capacity: 1,
        });
        let o1 = Arc::clone(&outbox);
        let o2 = Arc::clone(&outbox);
        let a = model::spawn(move || {
            let _ = o1.push(vec![1]);
        });
        let b = model::spawn(move || {
            let _ = o2.push(vec![2]);
        });
        a.join();
        b.join();
        let queued = outbox.queue.lock().len();
        assert!(
            queued <= outbox.capacity,
            "bounded outbox overcommitted: {queued} frames in a capacity-{} queue",
            outbox.capacity
        );
    });
    model_pair::expect_found(&report, "overcommitted");
}

#[test]
fn shipped_outbox_passes_the_concurrent_push_scenario() {
    let report = model::explore(&model_pair::regression_config(), || {
        let outbox = Outbox::new(Arc::new(NullConn), 1);
        let results: Arc<Mutex<Vec<Result<(), OutboxError>>>> = Arc::new(Mutex::new(Vec::new()));
        let o1 = Arc::clone(&outbox);
        let o2 = Arc::clone(&outbox);
        let r1 = Arc::clone(&results);
        let r2 = Arc::clone(&results);
        let a = model::spawn(move || {
            let r = o1.push(vec![1]);
            r1.lock().push(r);
        });
        let b = model::spawn(move || {
            let r = o2.push(vec![2]);
            r2.lock().push(r);
        });
        a.join();
        b.join();

        assert!(outbox.queued() <= 1, "capacity holds under every schedule");
        let results = results.lock();
        let oks = results.iter().filter(|r| r.is_ok()).count();
        let overflows = results
            .iter()
            .filter(|r| matches!(r, Err(OutboxError::Overflow { capacity: 1 })))
            .count();
        assert_eq!(
            (oks, overflows),
            (1, 1),
            "exactly one push wins the last slot; the loser gets a typed overflow"
        );
        // Frame conservation: the accepted frame drains to the wire.
        assert_eq!(outbox.drain().expect("open"), 1);
        assert_eq!(outbox.queued(), 0);
    });
    model_pair::expect_cleared(&report);
}

// ---------------------------------------------------------------------
// No lost, duplicated, or reordered update
// ---------------------------------------------------------------------

#[test]
fn concurrent_notifies_deliver_every_version_exactly_once_in_order() {
    model::check(
        "lost/duplicated/reordered update under concurrent notifies",
        || {
            let clock = model::virtual_clock();
            let hub = hub_on(clock);
            let sink = CollectingSink::new();
            hub.subscribe(&["K".to_string()], "t", sink.clone() as Arc<dyn SubSink>);

            let h1 = Arc::clone(&hub);
            let h2 = Arc::clone(&hub);
            let a = model::spawn(move || h1.notify_record("K", record("K", "a")));
            let b = model::spawn(move || h2.notify_record("K", record("K", "b")));
            a.join();
            b.join();

            assert_eq!(
                sink.versions(),
                vec![1, 2],
                "every version delivered exactly once, in version order"
            );
            assert_eq!(hub.channel_version("K"), 2);
        },
    );
}

// ---------------------------------------------------------------------
// A joiner never sees a gap
// ---------------------------------------------------------------------

#[test]
fn joiner_racing_a_notify_starts_full_and_ends_current() {
    model::check("subscribe vs notify version gap", || {
        let clock = model::virtual_clock();
        let hub = hub_on(clock);
        // Warm the channel to version 1 via an established subscriber.
        let early = CollectingSink::new();
        hub.subscribe(&["K".to_string()], "t", early.clone() as Arc<dyn SubSink>);
        hub.notify_record("K", record("K", "1"));

        let late = CollectingSink::new();
        let h1 = Arc::clone(&hub);
        let h2 = Arc::clone(&hub);
        let late2 = late.clone();
        let a = model::spawn(move || {
            h1.subscribe(&["K".to_string()], "t", late2 as Arc<dyn SubSink>);
        });
        let b = model::spawn(move || h2.notify_record("K", record("K", "2")));
        a.join();
        b.join();

        // Depending on the interleaving the joiner sees [full@1, Δ2],
        // or just [full@2] — never a compact delta it cannot apply and
        // never a version hole.
        let versions = late.versions();
        assert!(late.starts_full(), "a joiner always starts from a snapshot");
        assert!(
            versions == vec![1, 2] || versions == vec![2],
            "no gap and no reorder for the joiner, got {versions:?}"
        );
        assert_eq!(
            early.versions(),
            vec![1, 2],
            "the established stream is unperturbed"
        );
    });
}

// ---------------------------------------------------------------------
// Backpressure / eviction never deadlocks the pipeline
// ---------------------------------------------------------------------

#[test]
fn eviction_under_a_tick_never_deadlocks_with_a_joining_subscriber() {
    model::check("outbox backpressure vs scheduler tick", || {
        let clock = model::virtual_clock();
        let hub = hub_on(clock.clone());
        let si = SystemInformation::new(
            Box::new(FnProvider::new("K", || {
                Ok(vec![("v".to_string(), "1".to_string())])
            })),
            clock.clone(),
            Duration::from_millis(100),
            DegradationFn::Linear {
                lifetime: Duration::from_secs(60),
            },
        );
        let sched = RefreshScheduler::new(clock, MetricSet::new());
        sched.set_hub(Arc::clone(&hub));
        sched.watch(si, None).unwrap();

        // A doomed subscriber: its outbox drains into a dead peer, so
        // the tick's fan-out must walk the full eviction path (state
        // lock → delivery lock → outbox close) while a healthy
        // subscriber races to join the same channel.
        let doomed = Outbox::new(Arc::new(DeadConn), 4);
        hub.subscribe(&["K".to_string()], "t", doomed);
        let healthy = CollectingSink::new();

        let s1 = Arc::clone(&sched);
        let h2 = Arc::clone(&hub);
        let healthy2 = healthy.clone();
        let a = model::spawn(move || {
            s1.tick();
        });
        let b = model::spawn(move || {
            h2.subscribe(&["K".to_string()], "t", healthy2 as Arc<dyn SubSink>);
        });
        a.join();
        b.join();

        assert_eq!(
            hub.active(),
            1,
            "the dead sink was evicted and the healthy joiner survives"
        );
        assert_eq!(sched.watched(), 1, "the keyword stays on the wheel");
        // Whatever the joiner received is gap-free.
        let versions = healthy.versions();
        for pair in versions.windows(2) {
            assert_eq!(pair[1], pair[0] + 1, "gap in {versions:?}");
        }
    });
}

// ---------------------------------------------------------------------
// A job's Events follow its transitions
// ---------------------------------------------------------------------

fn race(a: callback_race::Poller, b: callback_race::Poller) {
    let (a, b) = (model::spawn(a), model::spawn(b));
    a.join();
    b.join();
}

fn one_then_the_other(a: callback_race::Poller, b: callback_race::Poller) {
    a();
    b();
}

#[test]
fn callback_events_keep_transition_order_when_polls_race_a_restart() {
    model::check("callback Events vs two pollers racing a restart", || {
        let clock = model::virtual_clock();
        callback_race::polled_from_two_threads(clock, race, one_then_the_other);
    });
}

#[test]
fn the_last_callback_event_is_sent_once_when_polls_race_the_end() {
    model::check("callback Events vs two pollers racing the end", || {
        let clock = model::virtual_clock();
        callback_race::polled_from_two_threads(clock, one_then_the_other, race);
    });
}
