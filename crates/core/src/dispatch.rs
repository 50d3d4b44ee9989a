//! The unified dispatcher: one protocol, two behaviours.
//!
//! §6.6: "At the protocol level we have replaced an LDAP search query
//! with a query cast as a simple job submission through RSL." A submit
//! whose xRSL carries `(info=...)` is answered with rendered information
//! records; one carrying `(executable=...)` is a job submission; a
//! specification with both is rejected as ambiguous.

use infogram_exec::gram::{self, ConnCtx, RequestDispatcher};
use infogram_exec::JobEngine;
use infogram_info::service::{InfoServiceError, InformationService, QueryOptions};
use infogram_info::{QueryError, RefreshScheduler, SubscriptionHub, JOBS_KEYWORD};
use infogram_proto::message::{codes, Reply, Request};
use infogram_rsl::{RequestAction, RequestKind, XrslRequest};
use infogram_sim::metrics::{Counter, Histogram};
use infogram_sim::SimTime;
use parking_lot::Mutex;
use std::sync::Arc;

/// Interned per-request-kind instrument handles (`dispatch.<kind>`
/// histogram plus `.ok`/`.err` counters), resolved once at construction
/// so the dispatch hot path never formats a metric name.
struct KindMetrics {
    latency: Arc<Histogram>,
    ok: Arc<Counter>,
    err: Arc<Counter>,
}

impl KindMetrics {
    fn intern(telemetry: &infogram_sim::metrics::MetricSet, kind: &str) -> Self {
        KindMetrics {
            latency: telemetry.histogram(&format!("dispatch.{kind}")),
            ok: telemetry.counter(&format!("dispatch.{kind}.ok")),
            err: telemetry.counter(&format!("dispatch.{kind}.err")),
        }
    }
}

/// The InfoGram request dispatcher.
pub struct InfoGramDispatcher {
    engine: Arc<JobEngine>,
    info: Arc<InformationService>,
    hub: Arc<SubscriptionHub>,
    /// Set once the service wires a refresh scheduler; subscribes then
    /// put their keywords on the wheel so updates flow without polling.
    sched: Mutex<Option<Arc<RefreshScheduler>>>,
    job: KindMetrics,
    status: KindMetrics,
    cancel: KindMetrics,
    ping: KindMetrics,
    info_kind: KindMetrics,
    sub_kind: KindMetrics,
}

impl InfoGramDispatcher {
    /// Wire a job engine and an information service together. Also
    /// registers the engine observer that publishes each job transition
    /// to the `(action=subscribe)(info=jobs)` subscribers of the job's
    /// account.
    pub fn new(engine: Arc<JobEngine>, info: Arc<InformationService>) -> Arc<Self> {
        let t = engine.metrics().clone();
        let hub = SubscriptionHub::new(engine.clock().clone(), info.hostname(), t.clone());
        {
            let hub = Arc::clone(&hub);
            engine.on_state_change(move |handle, state, account| {
                hub.notify_job(handle, state, account)
            });
        }
        Arc::new(InfoGramDispatcher {
            job: KindMetrics::intern(&t, "job"),
            status: KindMetrics::intern(&t, "status"),
            cancel: KindMetrics::intern(&t, "cancel"),
            ping: KindMetrics::intern(&t, "ping"),
            info_kind: KindMetrics::intern(&t, "info"),
            sub_kind: KindMetrics::intern(&t, "subscribe"),
            hub,
            sched: Mutex::new(None),
            engine,
            info,
        })
    }

    /// The subscription index behind `(action=subscribe)`.
    pub fn hub(&self) -> &Arc<SubscriptionHub> {
        &self.hub
    }

    /// Wire the refresh scheduler subscribes register their keywords
    /// with. Without one, subscriptions still receive job-state pushes
    /// and any refreshes driven externally, but nothing schedules
    /// keyword refreshes on their behalf.
    pub fn set_scheduler(&self, sched: Arc<RefreshScheduler>) {
        *self.sched.lock() = Some(sched);
    }

    /// The telemetry handle shared with the engine — the WS gateway and
    /// the `Metrics:` provider instrument through it.
    pub fn telemetry(&self) -> &infogram_sim::metrics::MetricSet {
        self.engine.metrics()
    }

    /// Answer an information query.
    fn dispatch_info(&self, account: &str, req: &XrslRequest, ctx: &mut ConnCtx) -> Reply {
        ctx.count_info_query(self.engine.wal(), account);
        let opts = QueryOptions {
            mode: req.response,
            quality_threshold: req.quality,
            filter: req.filter.clone(),
            performance: req.performance,
            // `(timeout=...)` bounds the provider deadline budget; absent,
            // each keyword's TTL-proportional default applies.
            deadline: req.timeout,
        };
        match self.info.answer_body(&req.info, &opts, req.format) {
            Ok((body, record_count)) => Reply::InfoResult { body, record_count },
            Err(InfoServiceError::UnknownKeyword(k)) => Reply::Error {
                code: codes::NO_SUCH_KEYWORD,
                message: format!("no information provider for keyword '{k}'"),
            },
            Err(InfoServiceError::Query(QueryError::NeverProduced)) => Reply::Error {
                code: codes::NO_SUCH_KEYWORD,
                message: "(response=last) before any value was produced".to_string(),
            },
            // Breaker open with nothing cached: a distinct, retryable
            // rejection whose message carries the `retry-after-ms=` hint
            // (the QueryError Display emits it).
            Err(InfoServiceError::Query(e @ QueryError::Unavailable { .. })) => Reply::Error {
                code: codes::UNAVAILABLE,
                message: e.to_string(),
            },
            Err(InfoServiceError::Query(e)) => Reply::Error {
                code: codes::INTERNAL,
                message: e.to_string(),
            },
        }
    }

    /// Open a persistent query: `(action=subscribe)(info=...)`.
    fn dispatch_subscribe(&self, account: &str, req: &XrslRequest, ctx: &mut ConnCtx) -> Reply {
        let Some(outbox) = ctx.outbox() else {
            // Detached dispatch (the WS gateway, unit tests) has no push
            // channel — a subscription would have nowhere to stream.
            return Reply::Error {
                code: codes::UNSUPPORTED,
                message: "(action=subscribe) needs a connection that can carry unsolicited \
                          frames; the WS syntax is request/response only"
                    .to_string(),
            };
        };
        let outbox = Arc::clone(outbox);
        let sched = self.sched.lock().clone();
        let mut keywords = Vec::with_capacity(req.info.len());
        for sel in &req.info {
            let k = match sel {
                // `all`/`schema` expand to unstable keyword sets — a
                // subscription must name what it watches so the hub can
                // index the fan-out per keyword.
                infogram_rsl::InfoSelector::All | infogram_rsl::InfoSelector::Schema => {
                    return Reply::Error {
                        code: codes::BAD_RSL,
                        message: "(action=subscribe) takes explicit keywords; (info=all) and \
                                  (info=schema) cannot be watched"
                            .to_string(),
                    }
                }
                infogram_rsl::InfoSelector::Keyword(k) => k,
            };
            if k.eq_ignore_ascii_case(JOBS_KEYWORD) {
                keywords.push(JOBS_KEYWORD.to_string());
                continue;
            }
            let Some(si) = self.info.lookup(k) else {
                return Reply::Error {
                    code: codes::NO_SUCH_KEYWORD,
                    message: format!("no information provider for keyword '{k}'"),
                };
            };
            // Put the keyword on the refresh wheel so updates flow
            // without anyone polling; already-watched keywords keep
            // their schedule and demand history. TTL-0 keywords cannot
            // be scheduled — their subscribers only see pushes driven
            // by external refreshes.
            if let Some(s) = &sched {
                if !s.is_watched(k) {
                    let _ = s.watch(Arc::clone(&si), self.info.keyword_metrics(k));
                }
            }
            keywords.push(si.keyword().to_string());
        }
        ctx.count_info_query(self.engine.wal(), account);
        let id = self.hub.subscribe(&keywords, account, outbox);
        ctx.sub_ids.push(id);
        Reply::Subscribed {
            id,
            count: keywords.len() as u32,
        }
    }

    /// Close a persistent query: `(action=unsubscribe)(subscription=N)`.
    fn dispatch_unsubscribe(&self, req: &XrslRequest, ctx: &mut ConnCtx) -> Reply {
        // The parser guarantees the tag is present for this action.
        let id = req.subscription.unwrap_or(0);
        // A connection may only close subscriptions it opened — ids are
        // global, so an unchecked unsubscribe would let one client tear
        // down another's stream.
        let Some(pos) = ctx.sub_ids.iter().position(|s| *s == id) else {
            return Reply::Error {
                code: codes::NO_SUCH_JOB,
                message: format!("no subscription {id} on this connection"),
            };
        };
        ctx.sub_ids.remove(pos);
        self.hub.unsubscribe(id);
        // The SubEnd travels as the reply to this request, not through
        // the sink: the stream is already quiesced by `unsubscribe`.
        Reply::SubEnd {
            id,
            code: 0,
            message: "unsubscribed".to_string(),
        }
    }

    /// Record latency and outcome for one dispatched request: the elapsed
    /// service-clock time goes into the `dispatch.<kind>` histogram and
    /// the reply bumps `dispatch.<kind>.ok` or `dispatch.<kind>.err` —
    /// all through handles interned at construction.
    fn observe(&self, kind: &KindMetrics, start: SimTime, reply: Reply) -> Reply {
        let elapsed = self.engine.clock().now().since(start);
        kind.latency.record(elapsed);
        if matches!(reply, Reply::Error { .. }) {
            kind.err.incr();
        } else {
            kind.ok.incr();
        }
        reply
    }
}

impl RequestDispatcher for InfoGramDispatcher {
    fn dispatch(&self, owner: &str, account: &str, request: Request, ctx: &mut ConnCtx) -> Reply {
        let start = self.engine.clock().now();
        let engine = &*self.engine;
        let (kind, reply) = match request {
            // The one parse; a text it refuses is charged to
            // `dispatch.job`, as is everything with a job half.
            Request::Submit { rsl, callback } => match gram::parse_submit(&rsl) {
                Err(refusal) => (&self.job, refusal),
                Ok(req) => match (req.kind(), req.action) {
                    // Jobs: identical to GRAM.
                    (RequestKind::Job, _) => (
                        &self.job,
                        gram::submit_job(engine, owner, account, &rsl, req, callback, ctx),
                    ),
                    (RequestKind::Both, _) => (&self.job, gram::ambiguous_request()),
                    (_, RequestAction::Subscribe) => {
                        (&self.sub_kind, self.dispatch_subscribe(account, &req, ctx))
                    }
                    (_, RequestAction::Unsubscribe) => {
                        (&self.sub_kind, self.dispatch_unsubscribe(&req, ctx))
                    }
                    (RequestKind::Info, RequestAction::None) => {
                        (&self.info_kind, self.dispatch_info(account, &req, ctx))
                    }
                    (RequestKind::Empty, RequestAction::None) => (
                        &self.info_kind,
                        Reply::Error {
                            code: codes::BAD_RSL,
                            message: "specification has neither (executable=) nor (info=)"
                                .to_string(),
                        },
                    ),
                },
            },
            // Status, cancel, ping: identical to GRAM.
            Request::Status { handle } => (
                &self.status,
                gram::job_status(engine, owner, account, handle),
            ),
            Request::Cancel { handle } => (
                &self.cancel,
                gram::job_cancel(engine, owner, account, handle),
            ),
            Request::Ping => (&self.ping, Reply::Pong),
        };
        self.observe(kind, start, reply)
    }

    fn connection_closed(&self, ctx: &mut ConnCtx) {
        // The peer is gone: silently release every subscription it
        // still holds (no SubEnd — there is nobody to read it).
        for id in ctx.sub_ids.drain(..) {
            self.hub.unsubscribe(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infogram_exec::backend::ForkBackend;
    use infogram_exec::engine::EngineConfig;
    use infogram_exec::Wal;
    use infogram_host::commands::{ChargeMode, CommandRegistry};
    use infogram_host::machine::SimulatedHost;
    use infogram_info::config::ServiceConfig;
    use infogram_info::{DegradationFn, FnProvider, ProviderError, SystemInformation};
    use infogram_proto::message::JobStateCode;
    use infogram_proto::render;
    use infogram_sim::metrics::MetricSet;
    use infogram_sim::ManualClock;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::time::Duration;

    fn world() -> (Arc<ManualClock>, Arc<InfoGramDispatcher>) {
        world_on(Wal::in_memory())
    }

    fn world_on(wal: Wal) -> (Arc<ManualClock>, Arc<InfoGramDispatcher>) {
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
            wal,
            ForkBackend::new(registry),
            MetricSet::new(),
        );
        (clock.clone(), InfoGramDispatcher::new(engine, info))
    }

    fn submit(rsl: &str) -> Request {
        Request::Submit {
            rsl: rsl.to_string(),
            callback: false,
        }
    }

    fn dispatch(d: &InfoGramDispatcher, req: Request) -> Reply {
        let mut ctx = ConnCtx::detached();
        d.dispatch("/O=Grid/CN=T", "t", req, &mut ctx)
    }

    #[test]
    fn info_query_returns_ldif() {
        let (_c, d) = world();
        let reply = dispatch(&d, submit("(info=memory)"));
        match reply {
            Reply::InfoResult { body, record_count } => {
                assert_eq!(record_count, 1);
                assert!(body.contains("Memory-total:"));
                assert!(body.starts_with("dn: kw=Memory"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn paper_concatenated_query() {
        // §6.6: "(info=memory)(info=cpu)"
        let (_c, d) = world();
        match dispatch(&d, submit("(info=memory)(info=cpu)")) {
            Reply::InfoResult { record_count, body } => {
                assert_eq!(record_count, 2);
                assert!(body.contains("kw=Memory"));
                assert!(body.contains("kw=CPU"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn xml_format_tag() {
        let (_c, d) = world();
        match dispatch(&d, submit("(info=cpu)(format=xml)")) {
            Reply::InfoResult { body, .. } => {
                assert!(body.starts_with("<infogram>"));
                assert!(body.contains("CPU:count"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn schema_reflection() {
        let (_c, d) = world();
        match dispatch(&d, submit("(info=schema)")) {
            Reply::InfoResult { record_count, body } => {
                assert_eq!(record_count, 5);
                assert!(body.contains("Schema.CPULoad"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn job_submission_still_works() {
        let (clock, d) = world();
        let reply = dispatch(&d, submit("(executable=simwork)(arguments=100)"));
        let handle = match reply {
            Reply::JobAccepted { handle } => handle,
            other => panic!("{other:?}"),
        };
        clock.advance(Duration::from_millis(100));
        match dispatch(&d, Request::Status { handle }) {
            Reply::JobStatus { state, .. } => assert_eq!(state, JobStateCode::Done),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ambiguous_request_rejected() {
        let (_c, d) = world();
        match dispatch(&d, submit("&(executable=/bin/ls)(info=cpu)")) {
            Reply::Error { code, .. } => assert_eq!(code, codes::AMBIGUOUS_REQUEST),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_request_rejected() {
        let (_c, d) = world();
        match dispatch(&d, submit("(format=xml)")) {
            Reply::Error { code, .. } => assert_eq!(code, codes::BAD_RSL),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_keyword_error_code() {
        let (_c, d) = world();
        match dispatch(&d, submit("(info=Bogus)")) {
            Reply::Error { code, message } => {
                assert_eq!(code, codes::NO_SUCH_KEYWORD);
                assert!(message.contains("Bogus"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn response_last_before_production() {
        let (_c, d) = world();
        match dispatch(&d, submit("(info=cpu)(response=last)")) {
            Reply::Error { code, .. } => assert_eq!(code, codes::NO_SUCH_KEYWORD),
            other => panic!("{other:?}"),
        }
        // After a cached read, `last` works.
        dispatch(&d, submit("(info=cpu)"));
        match dispatch(&d, submit("(info=cpu)(response=last)")) {
            Reply::InfoResult { record_count, .. } => assert_eq!(record_count, 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn performance_tag_round_trips() {
        let (_c, d) = world();
        dispatch(&d, submit("(info=list)"));
        match dispatch(&d, submit("(info=list)(performance=true)")) {
            Reply::InfoResult { body, .. } => {
                assert!(body.contains("list-perf.mean_seconds"));
                assert!(body.contains("list-perf.std_seconds"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn filter_tag_narrows_result() {
        let (_c, d) = world();
        match dispatch(
            &d,
            submit("(info=memory)(filter=Memory:free)(format=plain)"),
        ) {
            Reply::InfoResult { body, .. } => {
                assert!(body.contains("Memory:free"));
                assert!(!body.contains("Memory:total"));
            }
            other => panic!("{other:?}"),
        }
    }

    /// Send `rsl` through `dispatch_info` and check the body against the
    /// reference: the records `answer` builds for the same request, put
    /// through `render`. Returns the body.
    fn assert_one_answer(d: &InfoGramDispatcher, rsl: &str) -> String {
        let req = XrslRequest::from_text(rsl).unwrap();
        let (body, record_count) = match dispatch(d, submit(rsl)) {
            Reply::InfoResult { body, record_count } => (body, record_count),
            other => panic!("{rsl}: {other:?}"),
        };
        let opts = QueryOptions {
            mode: req.response,
            quality_threshold: req.quality,
            filter: req.filter.clone(),
            performance: req.performance,
            deadline: req.timeout,
        };
        let records = d.info.answer(&req.info, &opts).unwrap();
        assert_eq!(body, render::render(&records, req.format), "{rsl}");
        assert_eq!(record_count as usize, records.len(), "{rsl}");
        body
    }

    /// Register keyword `name` (TTL 10 s, quality falling linearly to
    /// zero over 100 s) whose provider reports how often it ran, plus
    /// `extra`; it fails while the returned switch is on.
    fn counting_keyword(
        d: &InfoGramDispatcher,
        clock: &Arc<ManualClock>,
        name: &str,
        extra: &[(&str, &str)],
    ) -> Arc<AtomicBool> {
        let failing = Arc::new(AtomicBool::new(false));
        let (switch, runs) = (Arc::clone(&failing), AtomicU64::new(0));
        let extra: Vec<(String, String)> = extra
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        d.info.register(SystemInformation::new(
            Box::new(FnProvider::new(name, move || {
                if switch.load(Ordering::SeqCst) {
                    return Err(ProviderError::Other("down".into()));
                }
                let n = runs.fetch_add(1, Ordering::SeqCst) + 1;
                let mut attrs = vec![("n".to_string(), n.to_string())];
                attrs.extend(extra.iter().cloned());
                Ok(attrs)
            })),
            clock.clone(),
            Duration::from_secs(10),
            DegradationFn::Linear {
                lifetime: Duration::from_secs(100),
            },
        ));
        failing
    }

    #[test]
    fn dispatched_body_is_the_rendered_answer_byte_for_byte() {
        let (clock, d) = world();
        // Beyond Table 1: values every format has to escape, a name the
        // provider namespaced itself, and a keyword with no attributes.
        let odd = [("Other:odd", " <padded> & \"quoted\""), ("uni", "grüße")];
        let failing = counting_keyword(&d, &clock, "Flaky", &odd);
        d.info.register(SystemInformation::new(
            Box::new(FnProvider::new("Empty", || Ok(Vec::new()))),
            clock.clone(),
            Duration::from_secs(10),
            DegradationFn::default(),
        ));
        let keywords = d.info.keywords();
        assert_eq!(keywords.len(), 7);
        for format in ["ldif", "xml", "dsml", "plain"] {
            for k in &keywords {
                // A miss renders the fresh snapshot into its own body; the
                // hits after it share the block kept beside the snapshot.
                assert_one_answer(&d, &format!("(info={k})(format={format})"));
                clock.advance(Duration::from_millis(7));
                assert_one_answer(&d, &format!("(info={k})(format={format})"));
                assert_one_answer(&d, &format!("(info={k})(response=last)(format={format})"));
                assert_one_answer(&d, &format!("(info={k})(filter={k}:*)(format={format})"));
                // (`last`: a TTL-0 keyword would run between the two
                // halves of the comparison and move `perf.samples`.)
                assert_one_answer(
                    &d,
                    &format!("(info={k})(response=last)(performance=true)(format={format})"),
                );
            }
            assert_one_answer(&d, &format!("(info=memory)(filter=free)(format={format})"));
            assert_one_answer(&d, &format!("(info=all)(format={format})"));
            assert_one_answer(&d, &format!("(info=schema)(format={format})"));
            assert_one_answer(
                &d,
                &format!("(info=cpu)(info=schema)(info=all)(response=last)(format={format})"),
            );
        }

        // Degraded: the provider is down and the cached value past its
        // TTL, so the refresh stale-serves it. The annotations are all in
        // the head — the cached block is served as is.
        clock.advance(Duration::from_secs(20));
        failing.store(true, Ordering::SeqCst);
        for format in ["ldif", "xml", "dsml", "plain"] {
            let body = assert_one_answer(&d, &format!("(info=flaky)(format={format})"));
            let marker = match format {
                "ldif" => "infogram-degraded: TRUE\ninfogram-stale-age: 20.",
                "plain" => "# Flaky @ ",
                _ => " degraded=\"true\" stale-age=\"20.",
            };
            assert!(body.contains(marker), "{format}: {body}");
        }
        failing.store(false, Ordering::SeqCst);

        // `response=last` far past every TTL: the same blocks, heads that
        // say how old they are.
        clock.advance(Duration::from_secs(3600));
        for format in ["ldif", "xml", "dsml", "plain"] {
            for k in &keywords {
                assert_one_answer(&d, &format!("(info={k})(response=last)(format={format})"));
            }
        }
        let body = assert_one_answer(&d, "(info=memory)(response=last)");
        assert!(body.contains("infogram-quality: 0.0000\ninfogram-age: 36"));
    }

    #[test]
    fn refresh_drops_the_old_block_and_the_next_reply_carries_the_new_values() {
        let (clock, d) = world();
        counting_keyword(&d, &clock, "N", &[]);
        let reply = |rsl: &str| assert_one_answer(&d, rsl);
        assert!(reply("(info=n)").contains("N-n: 1\n"));
        let held = Arc::downgrade(&d.info.lookup("N").unwrap().last_state().unwrap().attributes);
        for format in ["ldif", "xml", "dsml"] {
            assert!(reply(&format!("(info=n)(format={format})")).contains('1'));
        }
        assert!(held.upgrade().is_some(), "cached until the next refresh");
        clock.advance(Duration::from_secs(11));
        let refreshed = reply("(info=n)");
        assert!(refreshed.contains("N-n: 2\n") && !refreshed.contains("N-n: 1\n"));
        assert!(
            held.upgrade().is_none(),
            "the swap frees the old attributes and their rendered blocks"
        );
        let hit = reply("(info=n)");
        assert!(hit.contains("N-n: 2\n") && !hit.contains("N-n: 1\n"));
    }

    #[test]
    fn bad_rsl_rejected() {
        let (_c, d) = world();
        match dispatch(&d, submit("((((")) {
            Reply::Error { code, .. } => assert_eq!(code, codes::BAD_RSL),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ping_answered() {
        let (_c, d) = world();
        assert_eq!(dispatch(&d, Request::Ping), Reply::Pong);
    }

    #[test]
    fn subscribe_detached_refused() {
        // Without an outbox (WS gateway, tests) there is no push channel.
        let (_c, d) = world();
        match dispatch(&d, submit("(action=subscribe)(info=cpu)")) {
            Reply::Error { code, message } => {
                assert_eq!(code, codes::UNSUPPORTED);
                assert!(message.contains("subscribe"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unsubscribe_unknown_id_refused() {
        let (_c, d) = world();
        match dispatch(&d, submit("(action=unsubscribe)(subscription=7)")) {
            Reply::Error { code, message } => {
                assert_eq!(code, codes::NO_SUCH_JOB);
                assert!(message.contains("7"));
            }
            other => panic!("{other:?}"),
        }
    }

    fn outbox_ctx() -> (ConnCtx, Box<dyn infogram_proto::transport::Conn>) {
        use infogram_proto::transport::{mem::MemNetwork, Transport};
        let net = MemNetwork::ideal();
        let listener = net.listen("d.grid:1").unwrap();
        let client = net.connect("d.grid:1").unwrap();
        let server: Arc<dyn infogram_proto::transport::Conn> =
            Arc::from(listener.accept().unwrap());
        let outbox = infogram_proto::Outbox::new(server, 32);
        (ConnCtx::new(outbox), client)
    }

    /// The states of the Events a connection's client was sent, once the
    /// connection is gone (and its outbox with it).
    fn events(ctx: ConnCtx, client: Box<dyn infogram_proto::transport::Conn>) -> Vec<JobStateCode> {
        drop(ctx);
        let mut states = Vec::new();
        while let Ok(frame) = client.recv() {
            match Reply::decode(&frame) {
                Ok(Reply::Event { state, .. }) => states.push(state),
                other => panic!("{other:?}"),
            }
        }
        states
    }

    /// A callback client is sent every transition of its job after the
    /// first, in order — a restart's PENDING included, which a fork job
    /// that starts ACTIVE used to lose — and nobody else is sent any:
    /// not a `callback=false` submitter, not a detached one, not the
    /// connection whose polls drove the transitions.
    #[test]
    fn callback_events_reach_the_submitter_alone_restart_included() {
        use JobStateCode::{Active, Failed, Pending};
        let (clock, d) = world();
        let (mut submitter, submitter_wire) = outbox_ctx();
        let (mut quiet, quiet_wire) = outbox_ctx();
        let (mut poller, poller_wire) = outbox_ctx();
        let restarting = "&(executable=simwork)(arguments=100 5)(restartonfail=1)";
        let submit = |ctx: &mut ConnCtx, callback: bool| {
            let rsl = restarting.to_string();
            match d.dispatch("/O=Grid/CN=T", "t", Request::Submit { rsl, callback }, ctx) {
                Reply::JobAccepted { handle } => handle,
                other => panic!("{other:?}"),
            }
        };
        let handles = [
            submit(&mut submitter, true),
            submit(&mut quiet, false),
            submit(&mut ConnCtx::detached(), true),
        ];
        let mut poll = || {
            handles.clone().map(|handle| {
                match d.dispatch("/O=Grid/CN=T", "t", Request::Status { handle }, &mut poller) {
                    Reply::JobStatus { state, .. } => state,
                    other => panic!("{other:?}"),
                }
            })
        };
        clock.advance(Duration::from_millis(100));
        assert_eq!(
            poll(),
            [Pending; 3],
            "the first attempt failed and restarted"
        );
        assert_eq!(poll(), [Active; 3]);
        clock.advance(Duration::from_millis(100));
        assert_eq!(poll(), [Failed; 3]);
        assert_eq!(poll(), [Failed; 3]);
        assert_eq!(events(submitter, submitter_wire), [Pending, Active, Failed]);
        assert_eq!(events(quiet, quiet_wire), []);
        assert_eq!(events(poller, poller_wire), []);
    }

    /// A reply reduced to what routing decides: its tag, plus the code
    /// and message of an error.
    fn shape(reply: &Reply) -> String {
        match reply {
            Reply::Error { code, message } => format!("Error {code}: {message}"),
            Reply::JobAccepted { .. } => "JobAccepted".to_string(),
            Reply::InfoResult { record_count, .. } => format!("InfoResult {record_count}"),
            Reply::Subscribed { count, .. } => format!("Subscribed {count}"),
            other => format!("{other:?}"),
        }
    }

    /// Every way a `Submit` can be routed, through both dispatchers:
    /// `(xRSL, InfoGram reply, dispatch counter that moved, GRAM reply)`.
    /// A reply expectation is a prefix of [`shape`]. Written from the
    /// behaviour before parse-once routing, which it pins — except the
    /// one-branch `+` info query, see there.
    #[test]
    fn routing_table() {
        const GRAM_ONLY: &str =
            "Error 40: this GRAM serves job requests only; query the MDS for information";
        const NO_DUROC: &str = "Error 40: multi-request (+) submission is not supported (no DUROC)";
        const MIXED: &str = "Error 33: specification mixes (executable=) and (info=)";
        let table: &[(&str, &str, &str, &str)] = &[
            (
                "(executable=simwork)(arguments=1)",
                "JobAccepted",
                "dispatch.job.ok",
                "JobAccepted",
            ),
            (
                "(info=memory)",
                "InfoResult 1",
                "dispatch.info.ok",
                GRAM_ONLY,
            ),
            (
                "&(executable=/bin/ls)(info=cpu)",
                MIXED,
                "dispatch.job.err",
                MIXED,
            ),
            (
                "(format=xml)",
                "Error 1: specification has neither (executable=) nor (info=)",
                "dispatch.info.err",
                GRAM_ONLY,
            ),
            // Text the parser refuses is charged to `dispatch.job`.
            (
                "((((",
                "Error 1: RSL parse error: expected attribute name",
                "dispatch.job.err",
                "Error 1: RSL parse error: expected attribute name",
            ),
            (
                "(inof=cpu)",
                "Error 1: unknown xRSL tag (inof=…); known tags: executable,",
                "dispatch.job.err",
                "Error 1: unknown xRSL tag (inof=…); known tags: executable,",
            ),
            (
                "+(&(executable=a))(&(info=cpu))",
                NO_DUROC,
                "dispatch.job.err",
                NO_DUROC,
            ),
            (
                "+(&(executable=simwork))",
                "JobAccepted",
                "dispatch.job.ok",
                "JobAccepted",
            ),
            // Before parse-once this one-branch `+` was parsed twice, the
            // second time by a function that refuses every `+`: `Error 1:
            // xRSL structure error: multi-request (+) must be expanded
            // with parse_all`. It is now answered like the job above.
            (
                "+(&(info=memory))",
                "InfoResult 1",
                "dispatch.info.ok",
                GRAM_ONLY,
            ),
            (
                "(action=subscribe)(info=cpu)",
                "Subscribed 1",
                "dispatch.subscribe.ok",
                GRAM_ONLY,
            ),
            (
                "(action=subscribe)(executable=x)(info=cpu)",
                "Error 1: xRSL structure error: (action=subscribe) registers a persistent query",
                "dispatch.job.err",
                "Error 1: xRSL structure error: (action=subscribe) registers a persistent query",
            ),
            (
                "(action=unsubscribe)(subscription=7)",
                "Error 12: no subscription 7 on this connection",
                "dispatch.subscribe.err",
                GRAM_ONLY,
            ),
        ];
        let (_c, d) = world();
        let gram_only = infogram_exec::JobsOnlyDispatcher::new(Arc::clone(&d.engine));
        let (mut ctx, _client) = outbox_ctx();
        let dispatch_counters = || -> Vec<(String, u64)> {
            let mut all = d.telemetry().counters_snapshot();
            all.retain(|(name, _)| name.starts_with("dispatch."));
            all
        };
        for (rsl, unified, counter, baseline) in table {
            let before = dispatch_counters();
            let reply = d.dispatch("/O=Grid/CN=T", "t", submit(rsl), &mut ctx);
            assert!(shape(&reply).starts_with(unified), "{rsl}: {reply:?}");
            let moved: Vec<String> = dispatch_counters()
                .into_iter()
                .zip(before)
                .filter(|(after, before)| after.1 != before.1)
                .map(|(after, before)| format!("{} +{}", after.0, after.1 - before.1))
                .collect();
            assert_eq!(moved, vec![format!("{counter} +1")], "{rsl}");

            let reply = gram_only.dispatch("/O=Grid/CN=T", "t", submit(rsl), &mut ctx);
            assert!(shape(&reply).starts_with(baseline), "{rsl}: {reply:?}");
        }
    }

    #[test]
    fn subscribe_unknown_keyword_refused() {
        let (_c, d) = world();
        let (mut ctx, _client) = outbox_ctx();
        match d.dispatch(
            "/O=Grid/CN=T",
            "t",
            submit("(action=subscribe)(info=Bogus)"),
            &mut ctx,
        ) {
            Reply::Error { code, .. } => assert_eq!(code, codes::NO_SUCH_KEYWORD),
            other => panic!("{other:?}"),
        }
        assert!(ctx.sub_ids.is_empty(), "failed subscribe leaves no id");
    }

    #[test]
    fn subscribe_then_unsubscribe_over_outbox() {
        let (_c, d) = world();
        let (mut ctx, _client) = outbox_ctx();
        let id = match d.dispatch(
            "/O=Grid/CN=T",
            "t",
            submit("(action=subscribe)(info=cpu)(info=jobs)"),
            &mut ctx,
        ) {
            Reply::Subscribed { id, count } => {
                assert_eq!(count, 2);
                id
            }
            other => panic!("{other:?}"),
        };
        assert_eq!(ctx.sub_ids, vec![id]);
        assert_eq!(d.hub().active(), 1);
        match d.dispatch(
            "/O=Grid/CN=T",
            "t",
            submit(&format!("(action=unsubscribe)(subscription={id})")),
            &mut ctx,
        ) {
            Reply::SubEnd { id: sid, code, .. } => {
                assert_eq!(sid, id);
                assert_eq!(code, 0);
            }
            other => panic!("{other:?}"),
        }
        assert!(ctx.sub_ids.is_empty());
        assert_eq!(d.hub().active(), 0);
    }

    fn info_queries(d: &InfoGramDispatcher, account: &str) -> u64 {
        let wal = d.engine.wal();
        wal.with_fold(|fold| fold.accounts.get(account).map_or(0, |u| u.info_queries))
    }

    #[test]
    fn queries_and_subscriptions_are_counted_per_account() {
        let (_c, d) = world();
        let (mut ctx, _client) = outbox_ctx();
        for rsl in [
            "(info=memory)(info=CPU)",
            "(info=all)",
            "(info=Bogus)",
            "(action=subscribe)(info=cpu)(info=jobs)",
            // Not counted: refused before it is a query, and not one.
            "(action=subscribe)(info=Bogus)",
            "(executable=simwork)(arguments=1)",
        ] {
            d.dispatch("/O=Grid/CN=T", "t", submit(rsl), &mut ctx);
        }
        d.dispatch(
            "/O=Grid/CN=U",
            "u",
            submit("(info=cpu)"),
            &mut ConnCtx::detached(),
        );
        assert_eq!((info_queries(&d, "t"), info_queries(&d, "u")), (4, 1));
        assert_eq!(
            d.engine.wal().events().len(),
            3,
            "started, submitted, state"
        );
    }

    /// Something else holds `exec.wal.io` — a group-commit leader inside
    /// its fsync, an accounting read — and a connection that has served
    /// one query keeps answering: it takes no lock of the log.
    #[test]
    fn a_read_does_not_wait_for_the_log() {
        use std::sync::mpsc;
        let (_c, d) = world();
        let mut ctx = ConnCtx::detached();
        let query = |ctx: &mut ConnCtx| match d.dispatch("/O", "t", submit("(info=Memory)"), ctx) {
            Reply::InfoResult { .. } => {}
            other => panic!("{other:?}"),
        };
        query(&mut ctx);
        let (parked, is_parked) = mpsc::channel();
        let (release, released) = mpsc::channel::<()>();
        let (done, is_done) = mpsc::channel();
        std::thread::scope(|s| {
            let wal = d.engine.wal();
            s.spawn(move || {
                wal.with_fold(|_| {
                    parked.send(()).unwrap();
                    let _ = released.recv();
                })
            });
            is_parked.recv().unwrap();
            s.spawn(|| {
                for _ in 0..1000 {
                    query(&mut ctx);
                }
                done.send(()).unwrap();
            });
            let finished = is_done.recv_timeout(Duration::from_secs(10));
            release.send(()).unwrap();
            finished.expect("1 000 cached queries waited for exec.wal.io");
        });
        assert_eq!(info_queries(&d, "t"), 1001);
    }

    /// The log's disk refuses every append and a hundred queries neither
    /// notice nor latch the log read-only; the submission that does need
    /// the disk is refused for its own failure.
    #[test]
    fn a_read_cannot_break_the_log() {
        use infogram_exec::{FrameWal, MemStorage};
        use infogram_sim::fault::Plan;
        let disk = Plan::new();
        let storage = MemStorage::with_plan(Some(Arc::clone(&disk)));
        let (_c, d) = world_on(Wal::new(Box::new(FrameWal::open(storage).unwrap())));
        disk.fill_disk();
        let mut ctx = ConnCtx::detached();
        for _ in 0..100 {
            match d.dispatch("/O=Grid/CN=T", "t", submit("(info=Memory)"), &mut ctx) {
                Reply::InfoResult { .. } => {}
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(d.telemetry().counter_value("wal.append_errors"), 0);
        assert_eq!(d.engine.wal_read_only_hint(), None);
        match d.dispatch(
            "/O=Grid/CN=T",
            "t",
            submit("(executable=simwork)"),
            &mut ctx,
        ) {
            Reply::Error { code, message } => {
                assert_eq!(code, codes::UNAVAILABLE);
                assert!(message.contains("retry-after-ms="), "{message}");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(d.telemetry().counter_value("wal.append_errors"), 1);
        assert_eq!(info_queries(&d, "t"), 100);
    }

    #[test]
    fn connection_closed_releases_subscriptions() {
        let (_c, d) = world();
        let (mut ctx, _client) = outbox_ctx();
        match d.dispatch(
            "/O=Grid/CN=T",
            "t",
            submit("(action=subscribe)(info=jobs)"),
            &mut ctx,
        ) {
            Reply::Subscribed { .. } => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(d.hub().active(), 1);
        d.connection_closed(&mut ctx);
        assert_eq!(d.hub().active(), 0);
        assert!(ctx.sub_ids.is_empty());
    }
}
