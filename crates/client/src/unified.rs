//! The unified InfoGram client.
//!
//! "Querying the information is handled by clients much as the execution
//! of jobs" (§6.6): both travel as submits over the same authenticated
//! connection. [`QueryBuilder`] assembles the xRSL extension tags.

use crate::gram::{ClientError, GramClient};
use infogram_gsi::{Certificate, Credential};
use infogram_proto::delta::RecordDelta;
use infogram_proto::handle::JobHandle;
use infogram_proto::message::{codes, JobStateCode, Reply, Request};
use infogram_proto::record::InfoRecord;
use infogram_proto::render::{dsml, ldif, xml};
use infogram_proto::transport::Transport;
use infogram_rsl::{OutputFormat, ResponseMode};
use infogram_sim::clock::SharedClock;
use infogram_sim::SplitMix64;
use std::collections::HashMap;
use std::fmt::Write;
use std::sync::Arc;
use std::time::Duration;

/// Builder for information-query xRSL: the tags of §6.6.
#[derive(Debug, Clone, Default)]
pub struct QueryBuilder {
    selectors: Vec<String>,
    response: Option<ResponseMode>,
    quality: Option<f64>,
    performance: bool,
    format: Option<OutputFormat>,
    filter: Option<String>,
}

impl QueryBuilder {
    /// An empty query.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one `(info=keyword)` selector.
    pub fn keyword(mut self, kw: &str) -> Self {
        self.selectors.push(kw.to_string());
        self
    }

    /// `(info=all)`.
    pub fn all(mut self) -> Self {
        self.selectors.push("all".to_string());
        self
    }

    /// `(info=schema)` — service reflection.
    pub fn schema(mut self) -> Self {
        self.selectors.push("schema".to_string());
        self
    }

    /// `(response=immediate|cached|last)`.
    pub fn response(mut self, mode: ResponseMode) -> Self {
        self.response = Some(mode);
        self
    }

    /// `(quality=N)` — percentage threshold.
    pub fn quality(mut self, percent: f64) -> Self {
        self.quality = Some(percent);
        self
    }

    /// `(performance=true)`.
    pub fn performance(mut self) -> Self {
        self.performance = true;
        self
    }

    /// `(format=ldif|xml|dsml|plain)`.
    pub fn format(mut self, format: OutputFormat) -> Self {
        self.format = Some(format);
        self
    }

    /// `(filter=...)`.
    pub fn filter(mut self, filter: &str) -> Self {
        self.filter = Some(filter.to_string());
        self
    }

    /// Render the xRSL text.
    pub fn to_rsl(&self) -> String {
        let mut out = String::new();
        for s in &self.selectors {
            let _ = write!(out, "(info={s})");
        }
        if let Some(mode) = self.response {
            let _ = write!(out, "(response={})", mode.as_str());
        }
        if let Some(q) = self.quality {
            let _ = write!(out, "(quality={q})");
        }
        if self.performance {
            out.push_str("(performance=true)");
        }
        if let Some(f) = self.format {
            let _ = write!(out, "(format={f})");
        }
        if let Some(f) = &self.filter {
            let _ = write!(out, "(filter={f})");
        }
        out
    }
}

/// The result of an information query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The raw rendered body as the service produced it.
    pub body: String,
    /// Parsed records (LDIF and XML parse back; plain stays raw).
    pub records: Vec<InfoRecord>,
    /// Record count as reported by the service.
    pub record_count: u32,
}

impl QueryResult {
    /// Whether any record is a last-known-good stale serve (the
    /// provider failed or its breaker is open; see the wire-level
    /// `infogram-degraded` annotation).
    pub fn degraded(&self) -> bool {
        self.records.iter().any(|r| r.degraded)
    }

    /// The oldest stale age among degraded records, if any reported one.
    pub fn stale_age_secs(&self) -> Option<f64> {
        self.records
            .iter()
            .filter(|r| r.degraded)
            .filter_map(|r| r.stale_age_secs)
            .fold(None, |acc, a| Some(acc.map_or(a, |m: f64| m.max(a))))
    }

    /// The records, but only if *none* of them are degraded — callers
    /// that cannot tolerate stale data get [`ClientError::Degraded`]
    /// instead of silently consuming last-known-good values.
    pub fn require_fresh(&self) -> Result<&[InfoRecord], ClientError> {
        if self.degraded() {
            return Err(ClientError::Degraded {
                stale_age_secs: self.stale_age_secs(),
            });
        }
        Ok(&self.records)
    }
}

/// Attempts per operation, the first try included, after a transport
/// failure or a breaker-open (`UNAVAILABLE`) rejection.
const RETRY_ATTEMPTS: u32 = 3;
/// First backoff delay; doubled per subsequent attempt, so with three
/// attempts it is 50 ms, 100 ms or 200 ms before jitter.
const RETRY_BACKOFF_BASE: Duration = Duration::from_millis(50);
/// Cap on an honored server `retry-after-ms=` hint.
const RETRY_HINT_MAX: Duration = Duration::from_secs(2);
/// Relative jitter: each delay is scaled by a factor in `[0.8, 1.2]`.
const RETRY_JITTER: f64 = 0.2;
/// Seed of the deterministic jitter stream ("retry").
const RETRY_SEED: u64 = 0x0072_6574_7279;

/// Everything needed to re-establish a dropped session.
struct ReconnectState {
    transport: Arc<dyn Transport>,
    addr: String,
    credential: Credential,
    trust_roots: Vec<Certificate>,
    clock: SharedClock,
    rng: SplitMix64,
    reconnects: u64,
}

impl ReconnectState {
    /// Jittered exponential delay before retry number `attempt` (1-based).
    fn backoff(&mut self, attempt: u32) -> Duration {
        let raw = RETRY_BACKOFF_BASE * (1 << (attempt - 1));
        let unit = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let factor = 1.0 - RETRY_JITTER + 2.0 * RETRY_JITTER * unit;
        Duration::from_nanos((raw.as_nanos() as f64 * factor) as u64)
    }
}

/// One delivered subscription batch, deltas already applied: the full
/// per-keyword records as the service now sees them.
#[derive(Debug, Clone)]
pub struct SubUpdate {
    /// The subscription the batch belongs to.
    pub id: u64,
    /// Full records after applying the deltas to the prior snapshots.
    pub records: Vec<InfoRecord>,
    /// The raw deltas as received (changed attributes only, unless a
    /// full snapshot).
    pub deltas: Vec<RecordDelta>,
}

/// Client-side state of the one tracked push subscription: per-keyword
/// last-applied version and snapshot, for delta application and
/// missed-update detection.
struct SubState {
    id: u64,
    keywords: Vec<String>,
    /// Lowercased keyword → (last applied version, full record).
    snapshots: HashMap<String, (u64, InfoRecord)>,
}

impl SubState {
    /// Apply one received batch: verify version contiguity per keyword
    /// (the service bumps each channel's version by exactly one per
    /// push, so `prev + 1` is the only acceptable compact successor),
    /// then fold each delta into the running snapshot.
    fn apply(&mut self, deltas: Vec<RecordDelta>) -> Result<SubUpdate, ClientError> {
        let mut records = Vec::with_capacity(deltas.len());
        for d in &deltas {
            let key = d.keyword.to_ascii_lowercase();
            let prev = self.snapshots.get(&key);
            if !d.full {
                match prev {
                    Some((v, _)) if v + 1 == d.version => {}
                    Some((v, _)) => {
                        return Err(ClientError::Protocol(format!(
                            "missed update on '{}': have version {v}, received {}",
                            d.keyword, d.version
                        )))
                    }
                    None => {
                        return Err(ClientError::Protocol(format!(
                            "compact delta for '{}' without a prior snapshot",
                            d.keyword
                        )))
                    }
                }
            }
            let rec = d
                .apply(prev.map(|(_, r)| r))
                .map_err(|e| ClientError::Protocol(e.to_string()))?;
            self.snapshots.insert(key, (d.version, rec.clone()));
            records.push(rec);
        }
        Ok(SubUpdate {
            id: self.id,
            records,
            deltas,
        })
    }
}

/// One connection, both behaviours.
pub struct InfoGramClient {
    gram: GramClient,
    reconnect: Option<ReconnectState>,
    subscription: Option<SubState>,
}

impl std::fmt::Debug for InfoGramClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InfoGramClient").finish_non_exhaustive()
    }
}

impl InfoGramClient {
    /// Connect and authenticate to an InfoGram service.
    pub fn connect(
        transport: &dyn Transport,
        addr: &str,
        credential: &Credential,
        trust_roots: &[Certificate],
        clock: SharedClock,
    ) -> Result<InfoGramClient, ClientError> {
        Ok(InfoGramClient {
            gram: GramClient::connect(transport, addr, credential, trust_roots, clock)?,
            reconnect: None,
            subscription: None,
        })
    }

    /// Connect with transparent reconnect-and-retry: connection-level
    /// failures re-establish the session (handshake included) after a
    /// capped, jittered exponential backoff, and breaker-open
    /// rejections honor the server's `retry-after-ms=` hint, for up to
    /// three attempts per operation. The transport is owned so the
    /// session can be rebuilt at any time.
    pub fn connect_with_retry(
        transport: Arc<dyn Transport>,
        addr: &str,
        credential: &Credential,
        trust_roots: &[Certificate],
        clock: SharedClock,
    ) -> Result<InfoGramClient, ClientError> {
        let gram = GramClient::connect(&*transport, addr, credential, trust_roots, clock.clone())?;
        Ok(InfoGramClient {
            gram,
            subscription: None,
            reconnect: Some(ReconnectState {
                transport,
                addr: addr.to_string(),
                credential: credential.clone(),
                trust_roots: trust_roots.to_vec(),
                clock,
                rng: SplitMix64::new(RETRY_SEED),
                reconnects: 0,
            }),
        })
    }

    /// How many times the session was transparently re-established.
    pub fn reconnect_count(&self) -> u64 {
        self.reconnect.as_ref().map_or(0, |s| s.reconnects)
    }

    /// Fault injection: drop the underlying connection so the next
    /// operation observes a transport failure, as a crashed link
    /// would. Reconnect tests use this to exercise the transparent
    /// resubscribe path.
    pub fn sever(&mut self) {
        self.gram.sever();
    }

    /// Issue one request, transparently reconnecting on transport
    /// failures and sleeping out breaker-open rejections. Without
    /// [`InfoGramClient::connect_with_retry`] this is a plain request.
    fn request_resilient(&mut self, request: &Request) -> Result<Reply, ClientError> {
        if self.reconnect.is_none() {
            return self.gram.request(request);
        }
        let mut attempt: u32 = 0;
        loop {
            attempt += 1;
            let outcome = self.gram.request(request);
            // lint:allow(unwrap) — reconnect checked Some on entry and is never cleared
            let st = self.reconnect.as_mut().expect("reconnect state present");
            match outcome {
                Err(ClientError::Transport(_)) if attempt < RETRY_ATTEMPTS => {
                    let delay = st.backoff(attempt);
                    st.clock.sleep(delay);
                    match GramClient::connect(
                        &*st.transport,
                        &st.addr,
                        &st.credential,
                        &st.trust_roots,
                        st.clock.clone(),
                    ) {
                        Ok(gram) => {
                            st.reconnects += 1;
                            self.gram = gram;
                        }
                        // Still unreachable: fall through and let the
                        // next attempt fail fast on the dead session
                        // until the budget runs out.
                        Err(ClientError::Transport(_)) => {}
                        Err(other) => return Err(other),
                    }
                }
                Ok(Reply::Error { code, ref message })
                    if code == codes::UNAVAILABLE && attempt < RETRY_ATTEMPTS =>
                {
                    // A millisecond of margin on top of the hint: the
                    // wire hint has millisecond resolution, so sleeping
                    // it exactly can land the retry a hair inside the
                    // still-closed window.
                    let hint = parse_retry_after(message)
                        .map(|h| h + Duration::from_millis(1))
                        .unwrap_or_else(|| st.backoff(attempt))
                        .min(RETRY_HINT_MAX);
                    st.clock.sleep(hint);
                }
                other => return other,
            }
        }
    }

    /// Submit a job.
    pub fn submit(&mut self, rsl: &str, callback: bool) -> Result<JobHandle, ClientError> {
        self.gram.submit(rsl, callback)
    }

    /// Poll a job.
    pub fn status(
        &mut self,
        handle: &JobHandle,
    ) -> Result<(JobStateCode, Option<i32>, String), ClientError> {
        self.gram.status(handle)
    }

    /// Cancel a job.
    pub fn cancel(&mut self, handle: &JobHandle) -> Result<(), ClientError> {
        self.gram.cancel(handle)
    }

    /// Wait for a job to finish.
    pub fn wait_terminal(
        &mut self,
        handle: &JobHandle,
        poll_every: Duration,
        deadline: Duration,
    ) -> Result<(JobStateCode, Option<i32>, String), ClientError> {
        self.gram.wait_terminal(handle, poll_every, deadline)
    }

    /// Pop a buffered event.
    pub fn next_event(&mut self) -> Option<(JobHandle, JobStateCode)> {
        self.gram.next_event()
    }

    /// Block for the next event.
    pub fn wait_event(&mut self) -> Result<(JobHandle, JobStateCode), ClientError> {
        self.gram.wait_event()
    }

    /// Issue a raw xRSL information query. Queries are idempotent, so a
    /// retry policy (see [`InfoGramClient::connect_with_retry`]) applies
    /// here — unlike job submission, which is never replayed.
    pub fn query_rsl(&mut self, rsl: &str) -> Result<QueryResult, ClientError> {
        let format = detect_format(rsl);
        match self.request_resilient(&Request::Submit {
            rsl: rsl.to_string(),
            callback: false,
        })? {
            Reply::InfoResult { body, record_count } => {
                let records = match format {
                    OutputFormat::Ldif => ldif::parse(&body),
                    OutputFormat::Xml => xml::parse(&body),
                    OutputFormat::Dsml => dsml::parse(&body),
                    OutputFormat::Plain => Vec::new(),
                };
                Ok(QueryResult {
                    body,
                    records,
                    record_count,
                })
            }
            Reply::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// Issue a built query.
    pub fn query(&mut self, builder: &QueryBuilder) -> Result<QueryResult, ClientError> {
        self.query_rsl(&builder.to_rsl())
    }

    /// Convenience: fetch one keyword with defaults.
    pub fn info(&mut self, keyword: &str) -> Result<QueryResult, ClientError> {
        self.query(&QueryBuilder::new().keyword(keyword))
    }

    /// Convenience: the service's live telemetry — `(info=metrics)`,
    /// answered by the built-in self-describing `Metrics:` keyword.
    pub fn metrics(&mut self) -> Result<QueryResult, ClientError> {
        self.info("metrics")
    }

    /// Open a persistent query over `keywords`
    /// (`(action=subscribe)(info=K)...`): the service streams an
    /// incremental delta whenever one of them refreshes (use the
    /// virtual keyword `jobs` for job-state transitions). Returns the
    /// server-assigned subscription id. One subscription is tracked per
    /// client; subscribing again replaces it.
    pub fn subscribe(&mut self, keywords: &[&str]) -> Result<u64, ClientError> {
        if let Some(old) = self.subscription.take() {
            // Replace: close the previous stream first (best effort —
            // the server also reaps it at connection teardown).
            let _ = self.gram.unsubscribe(old.id);
        }
        let (id, _count) = self.gram.subscribe(keywords)?;
        self.subscription = Some(SubState {
            id,
            keywords: keywords.iter().map(|k| k.to_string()).collect(),
            snapshots: HashMap::new(),
        });
        Ok(id)
    }

    /// Close the tracked subscription.
    pub fn unsubscribe(&mut self) -> Result<(), ClientError> {
        match self.subscription.take() {
            Some(sub) => self.gram.unsubscribe(sub.id),
            None => Ok(()),
        }
    }

    /// The tracked subscription's server-assigned id, if one is open.
    /// Changes when a reconnect resubscribes.
    pub fn subscription_id(&self) -> Option<u64> {
        self.subscription.as_ref().map(|s| s.id)
    }

    /// Block until the next update batch on the tracked subscription,
    /// with deltas applied into full records and per-keyword version
    /// contiguity verified (a gap is a protocol error — the delivery
    /// pipeline promises none).
    ///
    /// With a retry policy, a dropped connection transparently
    /// reconnects *and resubscribes*: the fresh subscription starts
    /// with full snapshots at the channels' current versions, so the
    /// client observes no gap across the reconnect.
    pub fn wait_update(&mut self) -> Result<SubUpdate, ClientError> {
        loop {
            if self.subscription.is_none() {
                return Err(ClientError::Protocol(
                    "no subscription open on this client".to_string(),
                ));
            }
            match self.gram.wait_update() {
                Ok((id, deltas)) => {
                    // lint:allow(unwrap) — checked Some at loop entry
                    let sub = self.subscription.as_mut().expect("subscription present");
                    if id != sub.id {
                        // A frame from a pre-reconnect incarnation of
                        // the stream; the fresh full snapshot follows.
                        continue;
                    }
                    return sub.apply(deltas);
                }
                Err(ClientError::SubscriptionEnded { id, code, message }) => {
                    if self.subscription.as_ref().is_some_and(|s| s.id == id) {
                        self.subscription = None;
                    }
                    return Err(ClientError::SubscriptionEnded { id, code, message });
                }
                Err(ClientError::Transport(e)) => {
                    if self.reconnect.is_none() {
                        return Err(ClientError::Transport(e));
                    }
                    self.resubscribe()?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Pop an already-buffered update on the tracked subscription, if
    /// any (non-blocking).
    pub fn next_update(&mut self) -> Option<Result<SubUpdate, ClientError>> {
        loop {
            match self.gram.next_update()? {
                Ok((id, deltas)) => {
                    let sub = self.subscription.as_mut()?;
                    if id != sub.id {
                        continue;
                    }
                    return Some(sub.apply(deltas));
                }
                Err(ClientError::SubscriptionEnded { id, code, message }) => {
                    if self.subscription.as_ref().is_some_and(|s| s.id == id) {
                        self.subscription = None;
                    }
                    return Some(Err(ClientError::SubscriptionEnded { id, code, message }));
                }
                Err(e) => return Some(Err(e)),
            }
        }
    }

    /// Re-establish the session after a drop and re-issue the tracked
    /// subscription. Snapshot state is cleared: the fresh stream opens
    /// with full snapshots, so delta application restarts cleanly.
    fn resubscribe(&mut self) -> Result<(), ClientError> {
        // lint:allow(unwrap) — caller checked reconnect.is_some()
        let st = self.reconnect.as_mut().expect("reconnect state present");
        let mut attempt: u32 = 0;
        loop {
            attempt += 1;
            let delay = st.backoff(attempt);
            st.clock.sleep(delay);
            match GramClient::connect(
                &*st.transport,
                &st.addr,
                &st.credential,
                &st.trust_roots,
                st.clock.clone(),
            ) {
                Ok(gram) => {
                    st.reconnects += 1;
                    self.gram = gram;
                    break;
                }
                Err(ClientError::Transport(_)) if attempt < RETRY_ATTEMPTS => {}
                Err(e) => return Err(e),
            }
        }
        let keywords = match &self.subscription {
            Some(sub) => sub.keywords.clone(),
            None => return Ok(()),
        };
        let kws: Vec<&str> = keywords.iter().map(|k| k.as_str()).collect();
        let (id, _count) = self.gram.subscribe(&kws)?;
        // lint:allow(unwrap) — checked Some just above
        let sub = self.subscription.as_mut().expect("subscription present");
        sub.id = id;
        sub.snapshots.clear();
        Ok(())
    }

    /// Requests issued on this session.
    pub fn requests_sent(&self) -> u64 {
        self.gram.requests_sent()
    }

    /// The underlying GRAM session (for protocol-level tests).
    pub fn gram(&mut self) -> &mut GramClient {
        &mut self.gram
    }
}

/// Extract the machine-readable `retry-after-ms=<n>` hint a breaker-open
/// rejection carries in its message.
fn parse_retry_after(message: &str) -> Option<Duration> {
    let rest = message.split("retry-after-ms=").nth(1)?;
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse::<u64>().ok().map(Duration::from_millis)
}

/// The client knows which format it asked for; mirror the service-side
/// default (LDIF).
fn detect_format(rsl: &str) -> OutputFormat {
    if rsl.contains("(format=xml)") {
        OutputFormat::Xml
    } else if rsl.contains("(format=dsml)") {
        OutputFormat::Dsml
    } else if rsl.contains("(format=plain)") {
        OutputFormat::Plain
    } else {
        OutputFormat::Ldif
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_builder_renders_tags() {
        let rsl = QueryBuilder::new()
            .keyword("memory")
            .keyword("cpu")
            .response(ResponseMode::Immediate)
            .quality(75.0)
            .performance()
            .format(OutputFormat::Xml)
            .filter("Memory:free")
            .to_rsl();
        assert_eq!(
            rsl,
            "(info=memory)(info=cpu)(response=immediate)(quality=75)\
             (performance=true)(format=xml)(filter=Memory:free)"
        );
        // And it parses as valid xRSL.
        let req = infogram_rsl::XrslRequest::from_text(&rsl).unwrap();
        assert_eq!(req.info.len(), 2);
        assert_eq!(req.quality, Some(75.0));
        assert!(req.performance);
    }

    #[test]
    fn builder_defaults_are_empty() {
        assert_eq!(QueryBuilder::new().keyword("cpu").to_rsl(), "(info=cpu)");
    }

    #[test]
    fn format_detection() {
        assert_eq!(detect_format("(info=x)"), OutputFormat::Ldif);
        assert_eq!(detect_format("(info=x)(format=xml)"), OutputFormat::Xml);
        assert_eq!(detect_format("(info=x)(format=plain)"), OutputFormat::Plain);
        assert_eq!(detect_format("(info=x)(format=dsml)"), OutputFormat::Dsml);
    }

    #[test]
    fn retry_after_hint_parses() {
        assert_eq!(
            parse_retry_after("provider unavailable (breaker open); retry-after-ms=500"),
            Some(Duration::from_millis(500))
        );
        assert_eq!(
            parse_retry_after("retry-after-ms=42 trailing words"),
            Some(Duration::from_millis(42))
        );
        assert_eq!(parse_retry_after("no hint here"), None);
        assert_eq!(parse_retry_after("retry-after-ms=junk"), None);
    }

    #[test]
    fn backoff_doubles_with_seeded_jitter() {
        let mk = || ReconnectState {
            transport: Arc::new(infogram_proto::transport::mem::MemNetwork::ideal()),
            addr: "h:1".into(),
            credential: test_credential(),
            trust_roots: Vec::new(),
            clock: infogram_sim::ManualClock::new(),
            rng: SplitMix64::new(RETRY_SEED),
            reconnects: 0,
        };
        let (mut a, mut b) = (mk(), mk());
        for attempt in 1..=RETRY_ATTEMPTS {
            let d = a.backoff(attempt);
            assert_eq!(d, b.backoff(attempt), "the stream is seed-deterministic");
            // 50 ms doubled per attempt, then jittered ±20 %.
            let raw = Duration::from_millis(50) * (1 << (attempt - 1));
            assert!(
                d >= raw.mul_f64(0.8) && d <= raw.mul_f64(1.2),
                "attempt {attempt}: {d:?}"
            );
        }
    }

    #[test]
    fn degraded_accessors_distinguish_fresh_from_stale() {
        let mut fresh = InfoRecord::new("CPU", "n");
        fresh.push("count", "4");
        let mut stale = InfoRecord::new("Memory", "n");
        stale.push("total", "4096");
        stale.degraded = true;
        stale.stale_age_secs = Some(17.5);
        let result = QueryResult {
            body: String::new(),
            records: vec![fresh, stale],
            record_count: 2,
        };
        assert!(result.degraded());
        assert_eq!(result.stale_age_secs(), Some(17.5));
        match result.require_fresh() {
            Err(ClientError::Degraded { stale_age_secs }) => {
                assert_eq!(stale_age_secs, Some(17.5));
            }
            other => panic!("expected Degraded, got {other:?}"),
        }
        let all_fresh = QueryResult {
            body: String::new(),
            records: vec![InfoRecord::new("CPU", "n")],
            record_count: 1,
        };
        assert!(!all_fresh.degraded());
        assert_eq!(all_fresh.require_fresh().unwrap().len(), 1);
    }

    fn test_credential() -> Credential {
        use infogram_gsi::{CertificateAuthority, Dn};
        use infogram_sim::SimTime;
        let mut rng = SplitMix64::new(7);
        let hour = Duration::from_secs(3600);
        let ca = CertificateAuthority::new_root(
            &Dn::parse("/o=Grid/cn=TestCA").unwrap(),
            &mut rng,
            SimTime::ZERO,
            hour,
        );
        ca.issue(
            &Dn::parse("/o=Grid/cn=user").unwrap(),
            &mut rng,
            SimTime::ZERO,
            hour,
        )
    }
}
