//! The persistent-query subscription index.
//!
//! `(action=subscribe)` registers a query that *stays open*: instead of
//! polling, the client receives an incremental
//! [`RecordDelta`] whenever one of its keywords is refreshed or a job
//! changes state (the condense_db
//! persistent-query shape — results stream in for as long as the query
//! is registered). The [`SubscriptionHub`] is the index that makes the
//! fan-out O(subscribers-of-this-keyword) instead of
//! O(subscriptions × keywords): each keyword owns a channel holding its
//! last pushed snapshot, a monotonically increasing version, and the
//! ids subscribed to it, so a refresh diffs once, encodes once, and
//! stamps per-subscriber frames.
//!
//! The delivery discipline (model-checked in `tests/model_sub.rs`):
//!
//! * the hub's *state* lock is **never** held across a sink delivery —
//!   fan-out collects `(id, sink)` pairs under the lock and delivers
//!   outside it, so a slow sink cannot deadlock the refresh scheduler;
//!   a per-channel *delivery* lock serializes version assignment and
//!   fan-out instead, so concurrent notifiers (and a subscriber's
//!   initial snapshot) always reach a sink in version order;
//! * a failed delivery evicts the subscription immediately (bounded
//!   outboxes turn slow consumers into
//!   [`codes::SLOW_CONSUMER`](infogram_proto::message::codes) errors,
//!   not unbounded buffers);
//! * every push bumps the keyword version by exactly one and every live
//!   subscriber observes it — empty deltas (refresh produced an
//!   identical record) are still delivered so the version stream stays
//!   contiguous and a client can *prove* it missed nothing. Every fresh
//!   production of a watched keyword pushes once, whether the scheduler
//!   or a query caused it.
//!
//! Job-state transitions push through the same machinery under the
//! virtual keyword [`JOBS_KEYWORD`]: each transition becomes a tiny
//! record (`jobs:handle`, `jobs:state`), diffed and versioned like any
//! other keyword — in one channel per local account, so a subscriber
//! sees the jobs of the account it is mapped to: those it may poll and
//! cancel.

use crate::entry::{Snapshot, SystemInformation};
use infogram_proto::delta::{encode_deltas, RecordDelta};
use infogram_proto::message::{codes, update_frame, JobStateCode, Reply};
use infogram_proto::record::InfoRecord;
use infogram_proto::{JobHandle, Outbox, OutboxError};
use infogram_sim::metrics::{Counter, Gauge, MetricSet};
use parking_lot::{lock_class, Mutex};
use std::collections::HashMap;
use std::sync::Arc;

/// The virtual keyword job-state transitions publish under; subscribe
/// with `(action=subscribe)(info=jobs)`.
pub const JOBS_KEYWORD: &str = "jobs";

/// A sink refused a frame: the subscription behind it must be evicted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SinkClosed {
    /// A [`codes`] value explaining the eviction
    /// ([`codes::SLOW_CONSUMER`] for outbox overflow).
    pub code: u32,
    /// Human-readable explanation, forwarded in the final frame.
    pub message: String,
}

/// Where a subscription's frames go: a connection's bounded [`Outbox`]
/// on the wire; tests and the bench substitute counting sinks.
pub trait SubSink: Send + Sync {
    /// Deliver one encoded frame. An `Err` evicts the subscription:
    /// implementations must not block — a bounded outbox fails fast on
    /// overflow instead of waiting for the consumer.
    fn deliver(&self, frame: Vec<u8>) -> Result<(), SinkClosed>;
    /// Best-effort final frame (the `SubEnd` notice) after eviction;
    /// implementations may discard any undelivered backlog first.
    fn close(&self, frame: Vec<u8>);
}

/// The production sink. A full outbox is a slow consumer — `deliver`
/// fails with [`codes::SLOW_CONSUMER`] and the hub evicts; it never
/// blocks the refresh scheduler behind a stuck peer.
impl SubSink for Outbox {
    fn deliver(&self, frame: Vec<u8>) -> Result<(), SinkClosed> {
        match self.send(frame) {
            Ok(()) => Ok(()),
            Err(OutboxError::Overflow { capacity }) => Err(SinkClosed {
                code: codes::SLOW_CONSUMER,
                message: format!(
                    "subscriber fell behind: outbox full at {capacity} frames; \
                     drain faster or subscribe to fewer keywords"
                ),
            }),
            Err(OutboxError::Closed) => Err(SinkClosed {
                code: codes::INTERNAL,
                message: "connection closed".to_string(),
            }),
        }
    }

    fn close(&self, frame: Vec<u8>) {
        self.close_with(frame);
    }
}

struct SubEntry {
    sink: Arc<dyn SubSink>,
    /// The channels this subscription joined.
    channels: Vec<Channel>,
}

/// What a channel carries: one keyword, or the jobs of one account.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Channel {
    /// A keyword, lowercased (keywords are case-insensitive).
    Keyword(String),
    /// The jobs of one local account, as spelled (accounts are not).
    Jobs(String),
}

struct KeywordChannel {
    /// Bumped by exactly one per pushed update; subscribers prove
    /// no-missed-updates by version contiguity.
    version: u64,
    /// The last pushed record, the diffing baseline.
    last: Option<InfoRecord>,
    subscribers: Vec<u64>,
    /// Serializes version assignment *and* fan-out for this channel —
    /// held across delivery, while the hub's state lock is not.
    /// Concurrent notifiers (the refresh driver, job submit threads)
    /// would otherwise race their deliveries and a subscriber could
    /// observe v+1 before v; a joining subscriber likewise gets its
    /// initial snapshot onto the wire before any later version.
    delivery: Arc<Mutex<()>>,
}

impl KeywordChannel {
    fn new() -> Self {
        KeywordChannel {
            version: 0,
            last: None,
            subscribers: Vec::new(),
            // Every per-keyword delivery lock shares one lockdep class:
            // instances are never nested, and the class orders against
            // the hub state lock (delivery first — DESIGN §13).
            delivery: Arc::new(Mutex::with_class((), lock_class!("info.sub.delivery"))),
        }
    }
}

struct HubState {
    next_id: u64,
    subs: HashMap<u64, SubEntry>,
    channels: HashMap<Channel, KeywordChannel>,
}

struct HubTelemetry {
    active: Arc<Gauge>,
    delivered: Arc<Counter>,
    evicted: Arc<Counter>,
    updates: Arc<Counter>,
}

/// The subscription index. See the [module docs](self).
pub struct SubscriptionHub {
    hostname: String,
    telemetry: HubTelemetry,
    state: Mutex<HubState>,
}

impl std::fmt::Debug for SubscriptionHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("SubscriptionHub")
            .field("subscriptions", &st.subs.len())
            .field("channels", &st.channels.len())
            .finish_non_exhaustive()
    }
}

impl SubscriptionHub {
    /// An empty hub publishing under `hostname`. `metrics` receives the
    /// `sub.*` instruments.
    pub fn new(hostname: &str, metrics: MetricSet) -> Arc<Self> {
        Arc::new(SubscriptionHub {
            hostname: hostname.to_string(),
            telemetry: HubTelemetry {
                active: metrics.gauge("sub.active"),
                delivered: metrics.counter("sub.delivered"),
                evicted: metrics.counter("sub.evicted"),
                updates: metrics.counter("sub.updates"),
            },
            state: Mutex::with_class(
                HubState {
                    next_id: 1,
                    subs: HashMap::new(),
                    channels: HashMap::new(),
                },
                lock_class!("info.sub.hub_state"),
            ),
        })
    }

    /// Number of live subscriptions.
    pub fn active(&self) -> usize {
        self.state.lock().subs.len()
    }

    /// Whether any live subscription watches `keyword` (for
    /// [`JOBS_KEYWORD`], any account's jobs) — standing demand the
    /// refresh scheduler's cold-skip gate must honor: a subscriber is a
    /// client that *already asked* for every future value.
    pub fn has_subscribers(&self, keyword: &str) -> bool {
        let key = keyword.to_ascii_lowercase();
        let st = self.state.lock();
        let watched = |ch: &KeywordChannel| !ch.subscribers.is_empty();
        if key == JOBS_KEYWORD {
            let mut jobs = st
                .channels
                .iter()
                .filter(|(c, _)| matches!(c, Channel::Jobs(_)));
            return jobs.any(|(_, ch)| watched(ch));
        }
        st.channels.get(&Channel::Keyword(key)).is_some_and(watched)
    }

    /// The current version of a keyword's channel (0 before the first
    /// pushed update).
    pub fn channel_version(&self, keyword: &str) -> u64 {
        let key = Channel::Keyword(keyword.to_ascii_lowercase());
        self.state
            .lock()
            .channels
            .get(&key)
            .map_or(0, |c| c.version)
    }

    /// Register a persistent query over `keywords` for a subscriber
    /// mapped to the local `account` (whose jobs [`JOBS_KEYWORD`]
    /// names), delivering to `sink`. Returns the subscription id.
    /// Channels that already hold a snapshot deliver it immediately as a
    /// full-snapshot delta at the channel's current version — a
    /// resubscribing client restarts from ground truth, so a reconnect
    /// never shows a gap.
    pub fn subscribe(&self, keywords: &[String], account: &str, sink: Arc<dyn SubSink>) -> u64 {
        let mut keys: Vec<Channel> = Vec::new();
        for kw in keywords {
            let key = match kw.to_ascii_lowercase() {
                jobs if jobs == JOBS_KEYWORD => Channel::Jobs(account.to_string()),
                key => Channel::Keyword(key),
            };
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
        let id = {
            let mut st = self.state.lock();
            let id = st.next_id;
            st.next_id += 1;
            st.subs.insert(
                id,
                SubEntry {
                    sink: Arc::clone(&sink),
                    channels: Vec::new(),
                },
            );
            self.telemetry.active.set(st.subs.len() as f64);
            id
        };
        // Join one channel at a time under its delivery lock: once the
        // id is on a subscriber list, the next notify on that channel
        // waits until the initial snapshot (if any) is on the wire, so
        // a joiner can never see version v+1 before its snapshot at v.
        for key in keys {
            let delivery = {
                let mut st = self.state.lock();
                Arc::clone(
                    &st.channels
                        .entry(key.clone())
                        .or_insert_with(KeywordChannel::new)
                        .delivery,
                )
            };
            let _order = delivery.lock();
            let initial = {
                let mut st = self.state.lock();
                let st = &mut *st;
                let Some(entry) = st.subs.get_mut(&id) else {
                    return id; // unsubscribed/evicted mid-join
                };
                entry.channels.push(key.clone());
                #[expect(clippy::expect_used, reason = "created above, never removed")]
                let ch = st.channels.get_mut(&key).expect("channel exists");
                ch.subscribers.push(id);
                ch.last
                    .as_ref()
                    .map(|last| RecordDelta::diff(None, last, ch.version))
            };
            if let Some(delta) = initial {
                let frame = update_frame(id, &encode_deltas(std::slice::from_ref(&delta)));
                if let Err(closed) = sink.deliver(frame) {
                    self.evict(id, closed.code, &closed.message);
                    return id;
                }
                self.telemetry.delivered.incr();
            }
        }
        id
    }

    /// End a subscription cleanly. Returns whether it existed. The
    /// `SubEnd` acknowledgement travels as the *reply* to the
    /// unsubscribe request, not through the sink.
    pub fn unsubscribe(&self, id: u64) -> bool {
        let mut st = self.state.lock();
        let existed = Self::remove_locked(&mut st, id).is_some();
        self.telemetry.active.set(st.subs.len() as f64);
        existed
    }

    /// Evict a subscription (slow consumer, dead sink): remove it and
    /// push a best-effort final `SubEnd` frame through the sink's
    /// close path.
    pub fn evict(&self, id: u64, code: u32, message: &str) {
        let entry = {
            let mut st = self.state.lock();
            let e = Self::remove_locked(&mut st, id);
            self.telemetry.active.set(st.subs.len() as f64);
            e
        };
        if let Some(entry) = entry {
            let frame = Reply::SubEnd {
                id,
                code,
                message: message.to_string(),
            }
            .encode();
            entry.sink.close(frame);
            self.telemetry.evicted.incr();
        }
    }

    fn remove_locked(st: &mut HubState, id: u64) -> Option<SubEntry> {
        let entry = st.subs.remove(&id)?;
        for key in &entry.channels {
            if let Some(ch) = st.channels.get_mut(key) {
                ch.subscribers.retain(|s| *s != id);
            }
        }
        Some(entry)
    }

    /// Push one fresh production into its keyword channel. Called by the
    /// entry that produced it, holding its monitor but no lock; the hub
    /// lock is released before any sink delivery.
    pub fn notify_refresh(&self, si: &SystemInformation, snap: &Snapshot) {
        self.notify_record(si.keyword(), self.snapshot_record(si.keyword(), snap));
    }

    /// Push a transition of a job `account` owns into that account's
    /// [`JOBS_KEYWORD`] channel.
    pub fn notify_job(&self, handle: &JobHandle, state: JobStateCode, account: &str) {
        let mut rec = InfoRecord::new(JOBS_KEYWORD, &self.hostname);
        rec.push("handle", &handle.to_string());
        rec.push("state", &state.to_string());
        self.notify_channel(Channel::Jobs(account.to_string()), rec);
    }

    /// Push one record into `keyword`'s channel.
    pub fn notify_record(&self, keyword: &str, record: InfoRecord) {
        self.notify_channel(Channel::Keyword(keyword.to_ascii_lowercase()), record);
    }

    /// Core fan-out: version the channel, diff against its last
    /// record, encode once, deliver to every subscriber. O(N) in the
    /// channel's subscriber count; subscribers of other channels are
    /// never touched.
    fn notify_channel(&self, key: Channel, record: InfoRecord) {
        let Some(delivery) = self
            .state
            .lock()
            .channels
            .get(&key)
            .map(|c| Arc::clone(&c.delivery))
        else {
            return; // nobody ever subscribed; nothing to version
        };
        // Held across the fan-out: concurrent notifiers of this channel
        // deliver strictly in version order (see `KeywordChannel`).
        let _order = delivery.lock();
        let (delta, targets) = {
            let mut st = self.state.lock();
            let st = &mut *st;
            let Some(ch) = st.channels.get_mut(&key) else {
                return; // unreachable: channels are never removed
            };
            ch.version += 1;
            let delta = RecordDelta::diff(ch.last.as_ref(), &record, ch.version);
            ch.last = Some(record);
            let subs = &st.subs;
            let targets: Vec<(u64, Arc<dyn SubSink>)> = ch
                .subscribers
                .iter()
                .filter_map(|id| subs.get(id).map(|e| (*id, Arc::clone(&e.sink))))
                .collect();
            (delta, targets)
        };
        self.telemetry.updates.incr();
        if targets.is_empty() {
            return;
        }
        // Encode the payload once; per subscriber the frame build is a
        // header + id stamp + memcpy.
        let payload = encode_deltas(std::slice::from_ref(&delta));
        let mut dead: Vec<(u64, SinkClosed)> = Vec::new();
        for (id, sink) in targets {
            match sink.deliver(update_frame(id, &payload)) {
                Ok(()) => self.telemetry.delivered.incr(),
                Err(closed) => dead.push((id, closed)),
            }
        }
        for (id, closed) in dead {
            self.evict(id, closed.code, &closed.message);
        }
    }

    /// Seeded lock-order regression for `tests/lockdep.rs`: acquire a
    /// channel's delivery lock *while holding* the hub state lock — the
    /// reverse of every real path (delivery first, then state; DESIGN
    /// §13). Single-threaded and contention-free, so nothing hangs; the
    /// point is that `parking_lot::lockdep` must still report the inversion.
    /// Never called by service code.
    #[doc(hidden)]
    pub fn debug_acquire_in_reverse_order(&self, keyword: &str) {
        let key = Channel::Keyword(keyword.to_ascii_lowercase());
        let st = self.state.lock();
        if let Some(ch) = st.channels.get(&key) {
            let delivery = Arc::clone(&ch.delivery);
            let _order = delivery.lock(); // hub state still held: inversion
        }
    }

    /// Convert a fresh production into the record pushed to subscribers.
    /// It is never a stale serve, and its values carry no per-attribute
    /// age/quality annotations (they are fresh as of the refresh;
    /// annotating with query-time age would make every unchanged value
    /// look changed).
    fn snapshot_record(&self, keyword: &str, snap: &Snapshot) -> InfoRecord {
        let mut rec = InfoRecord::new(keyword, &self.hostname);
        for (name, value) in snap.attributes.iter() {
            rec.push(name, value);
        }
        rec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infogram_proto::message::codes;

    struct CollectingSink {
        frames: Mutex<Vec<Vec<u8>>>,
        fail_after: Option<usize>,
        closed_with: Mutex<Option<Vec<u8>>>,
    }

    impl CollectingSink {
        fn new() -> Arc<Self> {
            Arc::new(CollectingSink {
                frames: Mutex::new(Vec::new()),
                fail_after: None,
                closed_with: Mutex::new(None),
            })
        }

        fn failing_after(n: usize) -> Arc<Self> {
            Arc::new(CollectingSink {
                frames: Mutex::new(Vec::new()),
                fail_after: Some(n),
                closed_with: Mutex::new(None),
            })
        }

        fn replies(&self) -> Vec<Reply> {
            self.frames
                .lock()
                .iter()
                .map(|f| Reply::decode(f).expect("valid frame"))
                .collect()
        }
    }

    impl SubSink for CollectingSink {
        fn deliver(&self, frame: Vec<u8>) -> Result<(), SinkClosed> {
            let mut frames = self.frames.lock();
            if self.fail_after.is_some_and(|n| frames.len() >= n) {
                return Err(SinkClosed {
                    code: codes::SLOW_CONSUMER,
                    message: "scripted overflow".to_string(),
                });
            }
            frames.push(frame);
            Ok(())
        }

        fn close(&self, frame: Vec<u8>) {
            *self.closed_with.lock() = Some(frame);
        }
    }

    fn hub() -> Arc<SubscriptionHub> {
        SubscriptionHub::new("node0.grid", MetricSet::new())
    }

    fn record(kw: &str, val: &str) -> InfoRecord {
        let mut rec = InfoRecord::new(kw, "node0.grid");
        rec.push("value", val);
        rec
    }

    #[test]
    fn fan_out_reaches_every_subscriber_with_contiguous_versions() {
        let h = hub();
        let sinks: Vec<_> = (0..3).map(|_| CollectingSink::new()).collect();
        let ids: Vec<u64> = sinks
            .iter()
            .map(|s| h.subscribe(&["Memory".to_string()], "t", s.clone() as Arc<dyn SubSink>))
            .collect();
        assert_eq!(ids, vec![1, 2, 3]);
        for round in 0..4 {
            h.notify_record("Memory", record("Memory", &round.to_string()));
        }
        for (sink, id) in sinks.iter().zip(&ids) {
            let replies = sink.replies();
            assert_eq!(replies.len(), 4);
            for (i, reply) in replies.iter().enumerate() {
                let Reply::Update { id: got, deltas } = reply else {
                    panic!("expected update, got {reply:?}");
                };
                assert_eq!(got, id, "frames carry the receiver's own id");
                assert_eq!(deltas.len(), 1);
                assert_eq!(deltas[0].version, i as u64 + 1, "versions are contiguous");
            }
        }
    }

    #[test]
    fn late_subscriber_starts_from_a_full_snapshot() {
        let h = hub();
        let early = CollectingSink::new();
        h.subscribe(
            &["Memory".to_string()],
            "t",
            early.clone() as Arc<dyn SubSink>,
        );
        h.notify_record("Memory", record("Memory", "1"));
        h.notify_record("Memory", record("Memory", "2"));

        let late = CollectingSink::new();
        h.subscribe(
            &["Memory".to_string()],
            "t",
            late.clone() as Arc<dyn SubSink>,
        );
        let replies = late.replies();
        assert_eq!(replies.len(), 1, "immediate initial delivery");
        let Reply::Update { deltas, .. } = &replies[0] else {
            panic!("expected update");
        };
        assert!(deltas[0].full, "a late joiner needs no server history");
        assert_eq!(
            deltas[0].version, 2,
            "initial snapshot carries the current version"
        );
        let rec = deltas[0].apply(None).expect("full snapshot applies bare");
        assert_eq!(rec.get("Memory:value").map(|a| a.value.as_str()), Some("2"));
    }

    #[test]
    fn failed_delivery_evicts_and_closes_with_subend() {
        let h = hub();
        let healthy = CollectingSink::new();
        let slow = CollectingSink::failing_after(1);
        h.subscribe(
            &["CPU".to_string()],
            "t",
            healthy.clone() as Arc<dyn SubSink>,
        );
        let slow_id = h.subscribe(&["CPU".to_string()], "t", slow.clone() as Arc<dyn SubSink>);
        h.notify_record("CPU", record("CPU", "1"));
        assert_eq!(h.active(), 2);
        h.notify_record("CPU", record("CPU", "2"));
        assert_eq!(h.active(), 1, "the slow consumer was evicted");
        let closed = slow.closed_with.lock().clone().expect("close frame sent");
        let Reply::SubEnd { id, code, .. } = Reply::decode(&closed).expect("valid") else {
            panic!("expected SubEnd");
        };
        assert_eq!(id, slow_id);
        assert_eq!(code, codes::SLOW_CONSUMER);
        // The healthy subscriber keeps receiving.
        h.notify_record("CPU", record("CPU", "3"));
        assert_eq!(healthy.replies().len(), 3);
    }

    #[test]
    fn unsubscribe_stops_delivery_and_unversioned_keywords_stay_silent() {
        let h = hub();
        let sink = CollectingSink::new();
        let id = h.subscribe(
            &["Memory".to_string()],
            "t",
            sink.clone() as Arc<dyn SubSink>,
        );
        h.notify_record("Memory", record("Memory", "1"));
        assert!(h.unsubscribe(id));
        assert!(!h.unsubscribe(id), "second unsubscribe reports missing");
        h.notify_record("Memory", record("Memory", "2"));
        assert_eq!(sink.replies().len(), 1);
        assert!(!h.has_subscribers("Memory"));
        // A keyword nobody ever subscribed to is not even versioned.
        h.notify_record("Ghost", record("Ghost", "1"));
        assert_eq!(h.channel_version("Ghost"), 0);
    }

    #[test]
    fn job_transitions_push_under_the_owners_jobs_channel() {
        let h = hub();
        let subscribe = |account: &str| {
            let sink = CollectingSink::new();
            let jobs = [JOBS_KEYWORD.to_string()];
            h.subscribe(&jobs, account, sink.clone() as Arc<dyn SubSink>);
            sink
        };
        let (sink, other, shouting) = (subscribe("t"), subscribe("u"), subscribe("T"));
        assert!(h.has_subscribers("Jobs"));
        let handle = JobHandle::new("node0.grid", 2119, 7, 1);
        h.notify_job(&handle, JobStateCode::Active, "t");
        h.notify_job(&handle, JobStateCode::Done, "t");
        assert!(other.replies().is_empty() && shouting.replies().is_empty());
        let replies = sink.replies();
        assert_eq!(replies.len(), 2);
        let Reply::Update { deltas, .. } = &replies[1] else {
            panic!("expected update");
        };
        // Second transition: only the state attribute changed.
        assert!(!deltas[0].full);
        assert_eq!(deltas[0].changed.len(), 1);
        assert_eq!(deltas[0].changed[0].name, "jobs:state");
        assert_eq!(deltas[0].changed[0].value, "DONE");
    }

    #[test]
    fn empty_deltas_keep_the_version_stream_contiguous() {
        let h = hub();
        let sink = CollectingSink::new();
        h.subscribe(
            &["Memory".to_string()],
            "t",
            sink.clone() as Arc<dyn SubSink>,
        );
        h.notify_record("Memory", record("Memory", "same"));
        h.notify_record("Memory", record("Memory", "same"));
        let replies = sink.replies();
        assert_eq!(replies.len(), 2, "identical refreshes still deliver");
        let Reply::Update { deltas, .. } = &replies[1] else {
            panic!("expected update");
        };
        assert!(deltas[0].is_empty());
        assert_eq!(deltas[0].version, 2);
    }
}
