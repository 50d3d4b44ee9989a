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
//! The delivery discipline — every push the service makes follows it
//! (model-checked in `tests/model_sub.rs`):
//!
//! * a frame is queued with [`Outbox::push`], which never blocks, in
//!   the critical section that orders it: under the hub's one state
//!   lock, a notify bumps the version, diffs, and pushes to every
//!   subscriber's outbox, and a joiner's snapshot is pushed in the
//!   section that adds the joiner — so every outbox holds its frames in
//!   version order;
//! * the outboxes are drained only once every lock is released: the
//!   hub hands them back to its caller (the refresh path, the job
//!   engine), so a stuck peer stalls only the thread draining it —
//!   never the keyword, the refresh monitor or the jobs lock;
//! * a refused push evicts the subscription immediately (bounded
//!   outboxes turn slow consumers into
//!   [`codes::SLOW_CONSUMER`](infogram_proto::message::codes) errors,
//!   not unbounded buffers): its outbox is closed with a final `SubEnd`,
//!   which the caller's drain flushes;
//! * every push bumps the keyword version by exactly one and every live
//!   subscriber observes it — empty deltas (refresh produced an
//!   identical record) are still delivered so the version stream stays
//!   contiguous and a client can *prove* it missed nothing. Every fresh
//!   production of a watched keyword pushes once, whether the scheduler
//!   or a query caused it.
//!
//! Job-state transitions push through the same machinery under the
//! keyword [`JOBS_KEYWORD`]: each transition becomes a job's record
//! (`jobs:handle`, `jobs:state`), diffed and versioned like any other
//! keyword — in one channel per local account, so a subscriber sees the
//! jobs of the account it is mapped to: those it may poll and cancel.
//! The engine tells the hub under the lock that found the transition,
//! so each channel carries a job's transitions in order. The keyword's
//! entry ([`jobs_entry`]) answers `(info=jobs)` with the same records.

use crate::entry::{Snapshot, SystemInformation};
use crate::provider::{AccountRows, InfoProvider, ProviderError};
use crate::quality::DegradationFn;
use infogram_proto::delta::{encode_deltas, RecordDelta};
use infogram_proto::message::{codes, update_frame, JobStateCode, Reply};
use infogram_proto::record::InfoRecord;
use infogram_proto::{JobHandle, Outbox, OutboxError};
use infogram_sim::clock::SharedClock;
use infogram_sim::metrics::{Counter, Gauge, MetricSet};
use infogram_sim::SimTime;
use parking_lot::{lock_class, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

/// The keyword of the asking account's jobs: `(info=jobs)` pulls them,
/// `(action=subscribe)(info=jobs)` is pushed their transitions.
pub const JOBS_KEYWORD: &str = "jobs";

/// A job's attributes, pulled and pushed alike.
fn job_attributes(handle: &JobHandle, state: JobStateCode) -> Vec<(String, String)> {
    vec![
        ("handle".to_string(), handle.to_string()),
        ("state".to_string(), state.to_string()),
    ]
}

/// The [`JOBS_KEYWORD`] entry, TTL 0: per request, `read` finds the jobs
/// the asking local account owns, in id order, and each is one record
/// with the attributes its pushes carry (§2: an answer names a job only
/// to that job's account).
pub fn jobs_entry(
    read: impl Fn(&str) -> Vec<(JobHandle, JobStateCode)> + Send + Sync + 'static,
    clock: SharedClock,
) -> Arc<SystemInformation> {
    let rows = move |account: &str| {
        let jobs = read(account);
        jobs.iter()
            .map(|(handle, state)| job_attributes(handle, *state))
            .collect()
    };
    let jobs = Box::new(Jobs(Box::new(rows)));
    SystemInformation::new(jobs, clock, Duration::ZERO, DegradationFn::default())
}

/// The [`JOBS_KEYWORD`] provider: it reads per account, and its shared
/// value names no job.
struct Jobs(Box<AccountRows>);

impl InfoProvider for Jobs {
    fn keyword(&self) -> &str {
        JOBS_KEYWORD
    }

    fn produce(&self) -> Result<Vec<(String, String)>, ProviderError> {
        Ok(Vec::new())
    }

    fn source(&self) -> String {
        "the asking account's jobs: job table and log".to_string()
    }

    fn per_account(&self) -> Option<&AccountRows> {
        Some(&*self.0)
    }
}

/// What a channel carries: one keyword, or the jobs of one account.
#[derive(PartialEq, Eq)]
enum Channel {
    /// A keyword, lowercased (keywords are case-insensitive).
    Keyword(String),
    /// The jobs of one local account, as spelled (accounts are not).
    Jobs(String),
}

/// A subscriber whose outbox refused a push, and why.
type Refused = (u64, Arc<Outbox>, OutboxError);

#[derive(Default)]
struct KeywordChannel {
    /// Bumped by exactly one per pushed update; subscribers prove
    /// no-missed-updates by version contiguity.
    version: u64,
    /// The last pushed record, the diffing baseline.
    last: Option<InfoRecord>,
    subscribers: Vec<(u64, Arc<Outbox>)>,
}

impl KeywordChannel {
    /// Version `record`, diff it against the last one, encode once and
    /// push it to every subscriber — per subscriber a header, an id
    /// stamp and a memcpy. Returns every outbox pushed into, and the
    /// subscribers whose outbox refused the frame.
    fn publish(&mut self, record: InfoRecord) -> (Vec<Arc<Outbox>>, Vec<Refused>) {
        self.version += 1;
        let delta = RecordDelta::diff(self.last.as_ref(), &record, self.version);
        self.last = Some(record);
        let (mut pushed, mut refused) = (Vec::new(), Vec::new());
        if self.subscribers.is_empty() {
            return (pushed, refused);
        }
        let payload = encode_deltas(std::slice::from_ref(&delta));
        pushed.reserve(self.subscribers.len());
        for (id, outbox) in &self.subscribers {
            if let Err(e) = outbox.push(update_frame(*id, &payload)) {
                refused.push((*id, Arc::clone(outbox), e));
            }
            pushed.push(Arc::clone(outbox));
        }
        (pushed, refused)
    }
}

struct HubState {
    next_id: u64,
    /// Each subscription's channels.
    subs: HashMap<u64, Vec<Channel>>,
    /// Keyword channels, by lowercased keyword.
    keywords: HashMap<String, KeywordChannel>,
    /// [`JOBS_KEYWORD`] channels, by account: looked up by `&str`, so a
    /// transition of an account nobody subscribed to allocates nothing.
    jobs: HashMap<String, KeywordChannel>,
}

impl HubState {
    /// The map `channel` lives in, and its key there.
    fn map<'a>(&mut self, channel: &'a Channel) -> (&mut HashMap<String, KeywordChannel>, &'a str) {
        match channel {
            Channel::Keyword(k) => (&mut self.keywords, k),
            Channel::Jobs(a) => (&mut self.jobs, a),
        }
    }
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
    /// The earliest [`Outbox::valid_until`] of a subscriber, in ns: no
    /// authorization expires before it. Written under `state`.
    earliest: AtomicU64,
    state: Mutex<HubState>,
}

impl std::fmt::Debug for SubscriptionHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("SubscriptionHub")
            .field("subscriptions", &st.subs.len())
            .field("channels", &(st.keywords.len() + st.jobs.len()))
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
            earliest: AtomicU64::new(u64::MAX),
            state: Mutex::with_class(
                HubState {
                    next_id: 1,
                    subs: HashMap::new(),
                    keywords: HashMap::new(),
                    jobs: HashMap::new(),
                },
                lock_class!("info.sub.hub_state"),
            ),
        })
    }

    /// Number of live subscriptions.
    pub fn active(&self) -> usize {
        self.state.lock().subs.len()
    }

    /// Whether any live subscription watches `keyword` — standing demand
    /// the refresh scheduler's cold-skip gate must honor: a subscriber is
    /// a client that *already asked* for every future value.
    pub fn has_subscribers(&self, keyword: &str) -> bool {
        let key = keyword.to_ascii_lowercase();
        let st = self.state.lock();
        st.keywords
            .get(&key)
            .is_some_and(|ch| !ch.subscribers.is_empty())
    }

    /// Whether any live subscription watches [`JOBS_KEYWORD`], of any
    /// account: standing demand for job transitions.
    pub fn watches_jobs(&self) -> bool {
        let st = self.state.lock();
        st.jobs.values().any(|ch| !ch.subscribers.is_empty())
    }

    /// Whether the hub itself pushes `keyword` ([`JOBS_KEYWORD`], on each
    /// job transition), rather than its entry's refreshes.
    pub fn pushes(&self, keyword: &str) -> bool {
        keyword.eq_ignore_ascii_case(JOBS_KEYWORD)
    }

    /// The current version of a keyword's channel (0 before the first
    /// pushed update).
    pub fn channel_version(&self, keyword: &str) -> u64 {
        let key = keyword.to_ascii_lowercase();
        self.state
            .lock()
            .keywords
            .get(&key)
            .map_or(0, |c| c.version)
    }

    /// Register a persistent query over `keywords` for a subscriber
    /// mapped to the local `account` (whose jobs [`JOBS_KEYWORD`]
    /// names), pushing to `outbox`. Returns the subscription id; the
    /// caller drains `outbox` once it holds no lock. Channels that
    /// already hold a snapshot push it, in the critical section that
    /// adds the joiner, as a full-snapshot delta at the channel's
    /// current version — so no later version can overtake it, and a
    /// resubscribing client restarts from ground truth: a reconnect
    /// never shows a gap.
    pub fn subscribe(&self, keywords: &[String], account: &str, outbox: Arc<Outbox>) -> u64 {
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
        let mut st = self.state.lock();
        let id = st.next_id;
        st.next_id += 1;
        let mut refused = None;
        for key in &keys {
            let (map, name) = st.map(key);
            let ch = map.entry(name.to_string()).or_default();
            ch.subscribers.push((id, Arc::clone(&outbox)));
            let Some(last) = &ch.last else { continue };
            let delta = RecordDelta::diff(None, last, ch.version);
            let frame = update_frame(id, &encode_deltas(std::slice::from_ref(&delta)));
            match outbox.push(frame) {
                Ok(()) => self.telemetry.delivered.incr(),
                Err(e) => {
                    refused = Some(e);
                    break;
                }
            }
        }
        st.subs.insert(id, keys);
        self.telemetry.active.set(st.subs.len() as f64);
        self.earliest
            .fetch_min(outbox.valid_until.as_nanos(), Relaxed);
        if let Some(e) = refused {
            self.evict(&mut st, id, &outbox, e);
        }
        id
    }

    /// Give `si`'s keyword a channel holding its cached value, if it has
    /// none yet and the value is within its TTL: the first subscriber
    /// then starts from that snapshot instead of waiting up to a TTL for
    /// the next refresh. A channel that exists keeps its baseline — its
    /// subscribers' deltas are diffed against it.
    pub fn seed(&self, si: &SystemInformation) {
        let Ok(snap) = si.query_state() else { return };
        let record = self.record(si.keyword(), &snap.attributes);
        let mut st = self.state.lock();
        st.keywords
            .entry(si.keyword().to_ascii_lowercase())
            .or_insert_with(|| KeywordChannel {
                last: Some(record),
                ..KeywordChannel::default()
            });
    }

    /// End a subscription cleanly. Returns whether it existed. The
    /// `SubEnd` acknowledgement travels as the *reply* to the
    /// unsubscribe request, not through the outbox's push stream.
    pub fn unsubscribe(&self, id: u64) -> bool {
        let mut st = self.state.lock();
        let existed = Self::remove_locked(&mut st, id);
        self.telemetry.active.set(st.subs.len() as f64);
        existed
    }

    /// Evict a subscription whose outbox refused a push (slow consumer,
    /// dead connection): remove it and close the outbox with a final
    /// `SubEnd` — queued, not sent: whoever drains the outbox sends it.
    fn evict(&self, st: &mut HubState, id: u64, outbox: &Outbox, refused: OutboxError) {
        if !Self::remove_locked(st, id) {
            return;
        }
        self.telemetry.active.set(st.subs.len() as f64);
        self.telemetry.evicted.incr();
        let (code, message) = match refused {
            OutboxError::Overflow { capacity } => (
                codes::SLOW_CONSUMER,
                format!(
                    "subscriber fell behind: outbox full at {capacity} frames; \
                     drain faster or subscribe to fewer keywords"
                ),
            ),
            OutboxError::Closed => (codes::INTERNAL, "connection closed".to_string()),
        };
        outbox.close_with([Reply::SubEnd { id, code, message }.encode()]);
    }

    /// Evict every subscription whose session's authorization has
    /// expired by `now`: each outbox is closed with one `SubEnd` per
    /// subscription it carried ([`codes::AUTHORIZATION`],
    /// [`codes::EXPIRED`]), and returned once. One compare while nothing
    /// expires.
    #[must_use = "drain the closed outboxes once no lock is held"]
    pub fn expire(&self, now: SimTime) -> Vec<Arc<Outbox>> {
        if now.as_nanos() < self.earliest.load(Relaxed) {
            return Vec::new();
        }
        let mut st = self.state.lock();
        let channels = st.keywords.values().chain(st.jobs.values());
        let (mut expired, live): (Vec<_>, Vec<_>) = channels
            .flat_map(|ch| ch.subscribers.iter().cloned())
            .partition(|(_, o)| o.valid_until <= now);
        let earliest = live.iter().map(|(_, o)| o.valid_until.as_nanos()).min();
        self.earliest.store(earliest.unwrap_or(u64::MAX), Relaxed);
        // Each outbox with its SubEnds, in the order subscribed; a
        // subscription on several channels is ended once.
        expired.sort_unstable_by_key(|(id, _)| *id);
        let mut ends: Vec<(Arc<Outbox>, Vec<Vec<u8>>)> = Vec::new();
        for (id, outbox) in expired {
            if !Self::remove_locked(&mut st, id) {
                continue;
            }
            self.telemetry.evicted.incr();
            let (code, message) = (codes::AUTHORIZATION, codes::EXPIRED.to_string());
            let end = Reply::SubEnd { id, code, message }.encode();
            match ends.iter_mut().find(|(o, _)| Arc::ptr_eq(o, &outbox)) {
                Some((_, frames)) => frames.push(end),
                None => ends.push((outbox, vec![end])),
            }
        }
        self.telemetry.active.set(st.subs.len() as f64);
        ends.into_iter()
            .map(|(outbox, frames)| {
                outbox.close_with(frames);
                outbox
            })
            .collect()
    }

    fn remove_locked(st: &mut HubState, id: u64) -> bool {
        let Some(channels) = st.subs.remove(&id) else {
            return false;
        };
        for key in &channels {
            let (map, name) = st.map(key);
            if let Some(ch) = map.get_mut(name) {
                ch.subscribers.retain(|(s, _)| *s != id);
            }
        }
        true
    }

    /// Push one fresh production into its keyword channel. Called by the
    /// entry that produced it, holding its monitor but no lock.
    #[must_use = "drain the pushed outboxes once no lock is held"]
    pub fn notify_refresh(&self, si: &SystemInformation, snap: &Snapshot) -> Vec<Arc<Outbox>> {
        self.notify_record(si.keyword(), self.record(si.keyword(), &snap.attributes))
    }

    /// Push a transition of a job `account` owns into that account's
    /// [`JOBS_KEYWORD`] channel. The engine calls it under the lock that
    /// found the transition; without a channel for `account` it
    /// allocates nothing.
    #[must_use = "drain the pushed outboxes once no lock is held"]
    pub fn notify_job(
        &self,
        handle: &JobHandle,
        state: JobStateCode,
        account: &str,
    ) -> Vec<Arc<Outbox>> {
        let mut st = self.state.lock();
        let Some(ch) = st.jobs.get_mut(account) else {
            return Vec::new();
        };
        let rec = self.record(JOBS_KEYWORD, &job_attributes(handle, state));
        let (pushed, refused) = ch.publish(rec);
        self.published(&mut st, pushed, refused)
    }

    /// Push one record into `keyword`'s channel. A keyword nobody ever
    /// subscribed to has no channel and is not versioned. Returns the
    /// outboxes pushed into, as every notify does: the caller drains
    /// them ([`drain_all`](infogram_proto::drain_all)) once it holds no
    /// lock.
    #[must_use = "drain the pushed outboxes once no lock is held"]
    pub fn notify_record(&self, keyword: &str, record: InfoRecord) -> Vec<Arc<Outbox>> {
        let key = keyword.to_ascii_lowercase();
        let mut st = self.state.lock();
        let Some(ch) = st.keywords.get_mut(&key) else {
            return Vec::new();
        };
        let (pushed, refused) = ch.publish(record);
        self.published(&mut st, pushed, refused)
    }

    /// Count one publication into `pushed` and evict the subscribers
    /// whose outbox refused it; returns `pushed`, to be drained.
    fn published(
        &self,
        st: &mut HubState,
        pushed: Vec<Arc<Outbox>>,
        refused: Vec<Refused>,
    ) -> Vec<Arc<Outbox>> {
        self.telemetry.updates.incr();
        let delivered = pushed.len() - refused.len();
        self.telemetry.delivered.add(delivered as u64);
        for (id, outbox, e) in refused {
            self.evict(st, id, &outbox, e);
        }
        pushed
    }

    /// The record a fresh production is pushed as. It is never a stale
    /// serve, and its values carry no per-attribute age/quality
    /// annotations (they are fresh as of the refresh; annotating with
    /// query-time age would make every unchanged value look changed).
    fn record(&self, keyword: &str, attributes: &[(String, String)]) -> InfoRecord {
        let mut rec = InfoRecord::new(keyword, &self.hostname);
        for (name, value) in attributes {
            rec.push(name, value);
        }
        rec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::FnProvider;
    use crate::{Cause, DegradationFn};
    use infogram_proto::drain_all;
    use infogram_proto::message::codes;
    use infogram_proto::transport::{Conn, ProtoError};
    use infogram_sim::ManualClock;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    /// A subscriber's end of the wire: every frame its outbox sends.
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

    impl Wire {
        fn replies(&self) -> Vec<Reply> {
            self.0
                .lock()
                .iter()
                .map(|f| Reply::decode(f).expect("valid frame"))
                .collect()
        }
    }

    /// An outbox of `capacity` frames over a fresh wire.
    fn subscriber(capacity: usize) -> (Arc<Outbox>, Arc<Wire>) {
        let wire = Arc::new(Wire::default());
        (
            Outbox::new(Arc::clone(&wire) as Arc<dyn Conn>, capacity),
            wire,
        )
    }

    fn hub() -> Arc<SubscriptionHub> {
        SubscriptionHub::new("node0.grid", MetricSet::new())
    }

    fn record(kw: &str, val: &str) -> InfoRecord {
        let mut rec = InfoRecord::new(kw, "node0.grid");
        rec.push("value", val);
        rec
    }

    fn memory() -> [String; 1] {
        ["Memory".to_string()]
    }

    #[test]
    fn fan_out_reaches_every_subscriber_with_contiguous_versions() {
        let h = hub();
        let subs: Vec<_> = (0..3).map(|_| subscriber(8)).collect();
        let ids: Vec<u64> = subs
            .iter()
            .map(|(outbox, _)| h.subscribe(&memory(), "t", Arc::clone(outbox)))
            .collect();
        assert_eq!(ids, vec![1, 2, 3]);
        for round in 0..4 {
            drain_all(h.notify_record("Memory", record("Memory", &round.to_string())));
        }
        for ((_, wire), id) in subs.iter().zip(&ids) {
            let replies = wire.replies();
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
        let (early, _) = subscriber(8);
        h.subscribe(&memory(), "t", early);
        drain_all(h.notify_record("Memory", record("Memory", "1")));
        drain_all(h.notify_record("Memory", record("Memory", "2")));

        let (late, wire) = subscriber(8);
        h.subscribe(&memory(), "t", Arc::clone(&late));
        assert_eq!(late.queued(), 1, "the snapshot is queued by the join");
        late.drain().expect("open");
        let replies = wire.replies();
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
    fn a_refused_push_evicts_and_closes_with_subend() {
        let h = hub();
        let (healthy, healthy_wire) = subscriber(8);
        // Its peer reads nothing: one undrained frame fills the outbox.
        let (slow, slow_wire) = subscriber(1);
        h.subscribe(&["CPU".to_string()], "t", healthy);
        let slow_id = h.subscribe(&["CPU".to_string()], "t", slow);
        let _undrained = h.notify_record("CPU", record("CPU", "1"));
        assert_eq!(h.active(), 2);
        drain_all(h.notify_record("CPU", record("CPU", "2")));
        assert_eq!(h.active(), 1, "the slow consumer was evicted");
        let replies = slow_wire.replies();
        assert_eq!(replies.len(), 1, "the backlog is discarded");
        let Reply::SubEnd { id, code, .. } = &replies[0] else {
            panic!("expected SubEnd");
        };
        assert_eq!((*id, *code), (slow_id, codes::SLOW_CONSUMER));
        // The healthy subscriber keeps receiving.
        drain_all(h.notify_record("CPU", record("CPU", "3")));
        assert_eq!(healthy_wire.replies().len(), 3);
    }

    #[test]
    fn unsubscribe_stops_delivery_and_unversioned_keywords_stay_silent() {
        let h = hub();
        let (outbox, wire) = subscriber(8);
        let id = h.subscribe(&memory(), "t", outbox);
        drain_all(h.notify_record("Memory", record("Memory", "1")));
        assert!(h.unsubscribe(id));
        assert!(!h.unsubscribe(id), "second unsubscribe reports missing");
        assert!(h.notify_record("Memory", record("Memory", "2")).is_empty());
        assert_eq!(wire.replies().len(), 1);
        assert!(!h.has_subscribers("Memory"));
        // A keyword nobody ever subscribed to is not even versioned.
        assert!(h.notify_record("Ghost", record("Ghost", "1")).is_empty());
        assert_eq!(h.channel_version("Ghost"), 0);
    }

    #[test]
    fn job_transitions_push_under_the_owners_jobs_channel() {
        let h = hub();
        let subscribe = |account: &str| {
            let (outbox, wire) = subscriber(8);
            h.subscribe(&[JOBS_KEYWORD.to_string()], account, outbox);
            wire
        };
        let (wire, other, shouting) = (subscribe("t"), subscribe("u"), subscribe("T"));
        assert!(h.watches_jobs() && !h.has_subscribers("Jobs"));
        let handle = JobHandle::new("node0.grid", 2119, 7, 1);
        drain_all(h.notify_job(&handle, JobStateCode::Active, "t"));
        drain_all(h.notify_job(&handle, JobStateCode::Done, "t"));
        assert!(h
            .notify_job(&handle, JobStateCode::Done, "nobody")
            .is_empty());
        assert!(other.replies().is_empty() && shouting.replies().is_empty());
        let replies = wire.replies();
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
        let (outbox, wire) = subscriber(8);
        h.subscribe(&memory(), "t", outbox);
        drain_all(h.notify_record("Memory", record("Memory", "same")));
        drain_all(h.notify_record("Memory", record("Memory", "same")));
        let replies = wire.replies();
        assert_eq!(replies.len(), 2, "identical refreshes still deliver");
        let Reply::Update { deltas, .. } = &replies[1] else {
            panic!("expected update");
        };
        assert!(deltas[0].is_empty());
        assert_eq!(deltas[0].version, 2);
    }

    /// A peer that stopped reading: each `send` blocks until the test
    /// opens the gate, and says when the first one has started.
    struct Stuck {
        sending: AtomicBool,
        gate: std::sync::Mutex<bool>,
        opened: std::sync::Condvar,
        wire: Wire,
    }

    impl Stuck {
        fn new() -> Arc<Self> {
            Arc::new(Stuck {
                sending: AtomicBool::new(false),
                gate: std::sync::Mutex::new(false),
                opened: std::sync::Condvar::new(),
                wire: Wire::default(),
            })
        }

        fn wait_until_sending(&self) {
            while !self.sending.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        }

        fn open(&self) {
            *self.gate.lock().unwrap() = true;
            self.opened.notify_all();
        }
    }

    impl Conn for Stuck {
        fn send(&self, msg: &[u8]) -> Result<(), ProtoError> {
            self.sending.store(true, Ordering::SeqCst);
            let open = self.gate.lock().unwrap();
            drop(self.opened.wait_while(open, |open| !*open).unwrap());
            self.wire.send(msg)
        }
        fn recv(&self) -> Result<Vec<u8>, ProtoError> {
            Err(ProtoError::Closed)
        }
        fn peer(&self) -> String {
            "stuck".to_string()
        }
    }

    /// Run `second` on its own thread while `stuck`'s first send is
    /// blocked, then open the gate: whether `second` finished before
    /// the gate opened (waiting at most two seconds for it).
    fn returns_while_stuck(stuck: &Stuck, second: impl FnOnce() + Send + 'static) -> bool {
        stuck.wait_until_sending();
        let (done, finished) = mpsc::channel();
        let second = std::thread::spawn(move || {
            second();
            let _ = done.send(());
        });
        let returned = finished.recv_timeout(Duration::from_secs(2)).is_ok();
        stuck.open();
        second.join().expect("second caller");
        returned
    }

    #[test]
    fn a_stuck_subscriber_stalls_no_later_notify_of_its_keyword() {
        let h = hub();
        let stuck = Stuck::new();
        h.subscribe(
            &memory(),
            "t",
            Outbox::new(Arc::clone(&stuck) as Arc<dyn Conn>, 8),
        );
        let h1 = Arc::clone(&h);
        let first = std::thread::spawn(move || {
            drain_all(h1.notify_record("Memory", record("Memory", "1")));
        });
        let h2 = Arc::clone(&h);
        let returned = returns_while_stuck(&stuck, move || {
            drain_all(h2.notify_record("Memory", record("Memory", "2")));
        });
        first.join().expect("first notify");
        assert!(returned, "the second notify waited for the stuck peer");
        assert_eq!(h.channel_version("Memory"), 2);
        let versions: Vec<u64> = (stuck.wire.replies().iter())
            .filter_map(|r| match r {
                Reply::Update { deltas, .. } => Some(deltas[0].version),
                _ => None,
            })
            .collect();
        assert_eq!(versions, [1, 2], "the first drain sent both, in order");
    }

    #[test]
    fn a_stuck_subscriber_stalls_no_later_refresh_of_its_keyword() {
        let h = hub();
        let si = SystemInformation::new(
            Box::new(FnProvider::new("Memory", || {
                Ok(vec![("free".to_string(), "1".to_string())])
            })),
            ManualClock::new(),
            Duration::from_secs(10),
            DegradationFn::Linear {
                lifetime: Duration::from_secs(60),
            },
        );
        si.push_to(&h);
        let stuck = Stuck::new();
        h.subscribe(
            &memory(),
            "t",
            Outbox::new(Arc::clone(&stuck) as Arc<dyn Conn>, 8),
        );
        let si1 = Arc::clone(&si);
        let first = std::thread::spawn(move || si1.refresh(Cause::Scheduled).map(|_| ()));
        let si2 = Arc::clone(&si);
        let returned = returns_while_stuck(&stuck, move || {
            si2.refresh(Cause::Scheduled).expect("fresh");
        });
        first.join().expect("first refresh").expect("fresh");
        assert!(returned, "the second refresh waited for the stuck peer");
        assert_eq!((si.execution_count(), h.channel_version("Memory")), (2, 2));
    }
}
