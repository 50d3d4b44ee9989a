//! The assembled information service.
//!
//! Holds the keyword registry ([`SystemInformation`] entries), answers
//! selector lists with the xRSL response modes, applies the quality
//! threshold and the attribute filter, and attaches the performance
//! catalog when asked — §6.2–6.6 of the paper, in one object.

use crate::config::ServiceConfig;
use crate::entry::{Cause, QueryError, Snapshot, SystemInformation};
use crate::provider::{CommandProvider, TelemetryProvider};
use crate::quality::DegradationFn;
use crate::schema::Schema;
use infogram_host::commands::CommandRegistry;
use infogram_proto::record::InfoRecord;
use infogram_proto::render::{self, BodyWriter, Head};
use infogram_rsl::{InfoSelector, OutputFormat, ResponseMode};
use infogram_sim::clock::SharedClock;
use infogram_sim::metrics::MetricSet;
use infogram_sim::{par, SimTime};
use parking_lot::{lock_class, RwLock};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Why a query could not be answered.
#[derive(Debug, Clone, PartialEq)]
pub enum InfoServiceError {
    /// The keyword has no configured provider.
    UnknownKeyword(String),
    /// The provider layer failed.
    Query(QueryError),
}

impl std::fmt::Display for InfoServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InfoServiceError::UnknownKeyword(k) => write!(f, "unknown keyword '{k}'"),
            InfoServiceError::Query(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for InfoServiceError {}

impl From<QueryError> for InfoServiceError {
    fn from(e: QueryError) -> Self {
        InfoServiceError::Query(e)
    }
}

/// Options accompanying a query — the xRSL tags that shape the answer.
#[derive(Debug, Clone, Default)]
pub struct QueryOptions {
    /// `(response=...)`.
    pub mode: ResponseMode,
    /// `(quality=...)` threshold in percent.
    pub quality_threshold: Option<f64>,
    /// `(filter=...)` attribute filter.
    pub filter: Option<String>,
    /// `(performance=true)` — attach timing statistics.
    pub performance: bool,
    /// `(timeout=...)` — the deadline budget for provider executions.
    /// `None` uses the per-keyword TTL-proportional default.
    pub deadline: Option<std::time::Duration>,
}

/// What one selector of a query is served from, once either §6.2 phase
/// has filled it in.
type Slot = Option<Result<Snapshot, QueryError>>;

/// The keyword registry, arc-swapped copy-on-write: readers clone the
/// `Arc` under a briefly-held read lock and then walk the map with no
/// lock at all, so concurrent fan-out workers never contend on lookups.
/// Registration (rare) clones the map and swaps the `Arc`.
type Registry = Arc<BTreeMap<String, Arc<SystemInformation>>>;

/// The information service of one host.
pub struct InformationService {
    hostname: String,
    clock: SharedClock,
    entries: RwLock<Registry>,
    metrics: MetricSet,
}

impl std::fmt::Debug for InformationService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InformationService")
            .field("hostname", &self.hostname)
            .field("keywords", &self.keywords())
            .finish_non_exhaustive()
    }
}

impl InformationService {
    /// An empty service for a host.
    pub fn new(hostname: &str, clock: SharedClock, metrics: MetricSet) -> Arc<Self> {
        Arc::new(InformationService {
            hostname: hostname.to_string(),
            clock,
            entries: RwLock::with_class(
                Arc::new(BTreeMap::new()),
                lock_class!("info.service.registry"),
            ),
            metrics,
        })
    }

    /// Build a service from a configuration file (Table 1 style), wiring
    /// every entry to a [`CommandProvider`] on the given registry.
    pub fn from_config(
        config: &ServiceConfig,
        registry: Arc<CommandRegistry>,
        clock: SharedClock,
        metrics: MetricSet,
    ) -> Arc<Self> {
        let service = InformationService::new(registry.host().hostname(), clock.clone(), metrics);
        for entry in &config.entries {
            let provider =
                CommandProvider::new(&entry.keyword, &entry.command, Arc::clone(&registry));
            let si = SystemInformation::new(
                Box::new(provider),
                clock.clone(),
                entry.ttl,
                entry.degradation.clone(),
            );
            si.set_delay(entry.delay);
            service.register(si);
        }
        service
    }

    /// Register a keyword entry (replacing any same-keyword entry). The
    /// entry is wired into this service's telemetry: every `info`
    /// instrument it and the service move for it is interned now
    /// ([`SystemInformation::set_telemetry`]), so no query ever formats
    /// a metric name.
    pub fn register(&self, si: Arc<SystemInformation>) {
        si.set_telemetry(self.metrics.clone());
        let key = si.keyword().to_ascii_lowercase();
        let mut entries = self.entries.write();
        let mut next = BTreeMap::clone(&entries);
        next.insert(key, si);
        *entries = Arc::new(next);
    }

    /// Register the built-in `Metrics:` keyword over the given telemetry
    /// handle — the service describing itself through its own query path.
    ///
    /// The entry has a TTL of zero (Table 1's "execute every time"
    /// convention), so each `(info=metrics)` reads a live snapshot; all
    /// the xRSL tags (`filter`, `response`, `format`, `performance`)
    /// apply to it like to any other keyword. Returns the entry.
    pub fn register_metrics_provider(&self, telemetry: MetricSet) -> Arc<SystemInformation> {
        let si = SystemInformation::new(
            Box::new(TelemetryProvider::new(telemetry)),
            self.clock.clone(),
            std::time::Duration::ZERO,
            DegradationFn::default(),
        );
        self.register(Arc::clone(&si));
        si
    }

    /// Hostname this service describes.
    pub fn hostname(&self) -> &str {
        &self.hostname
    }

    /// The service's metric sink.
    pub fn metrics(&self) -> &MetricSet {
        &self.metrics
    }

    /// A consistent point-in-time view of the registry: one `Arc` clone
    /// under a briefly-held read lock, then lock-free map walks.
    fn registry(&self) -> Registry {
        Arc::clone(&self.entries.read())
    }

    /// Configured keywords, in canonical case, sorted.
    pub fn keywords(&self) -> Vec<String> {
        self.registry()
            .values()
            .map(|si| si.keyword().to_string())
            .collect()
    }

    /// Look up a keyword case-insensitively.
    pub fn lookup(&self, keyword: &str) -> Option<Arc<SystemInformation>> {
        self.registry().get(&keyword.to_ascii_lowercase()).cloned()
    }

    /// All entries (for schema reflection and aggregation).
    pub fn entries(&self) -> Vec<Arc<SystemInformation>> {
        self.registry().values().cloned().collect()
    }

    /// The one place an answer served without executing the provider is
    /// counted. `may_be_old` is false only for the valid `cached` hit,
    /// which is within its TTL by construction and so skips the clock
    /// read; `(response=last)`, the delay throttle and a coalesced wait
    /// can all hand back a value older than its TTL.
    fn count_hit(&self, si: &SystemInformation, snap: &Snapshot, may_be_old: bool) {
        si.count(|t| &t.cache_hits);
        si.count(|t| &t.hits);
        let ttl = si.ttl();
        let old = || !ttl.is_zero() && self.clock.now().since(snap.produced_at) >= ttl;
        if snap.stale || (may_be_old && old()) {
            si.count(|t| &t.stale);
        }
    }

    /// Phase one — the paper's non-blocking `queryState`. The response
    /// mode, the TTL and the quality threshold are judged here, once, from
    /// a single locked read of the entry; `None` hands the keyword to
    /// [`InformationService::refresh`].
    ///
    /// A hit costs one `info.entry.state` acquisition, one clock read and
    /// three interned counter increments: no `format!`, no attribute copy,
    /// no refresh bookkeeping.
    fn query(&self, si: &SystemInformation, opts: &QueryOptions) -> Slot {
        si.count(|t| &t.queries);
        match opts.mode {
            ResponseMode::Immediate => None,
            ResponseMode::Last => Some(
                si.last_state()
                    .inspect(|snap| self.count_hit(si, snap, true)),
            ),
            ResponseMode::Cached => {
                // §6.6 quality tag: "If the degradation function of any of
                // its returned attributes is below that threshold, this
                // attribute is regenerated by the associated command."
                let threshold = opts.quality_threshold;
                let below =
                    |age| threshold.is_some_and(|t| si.degradation().quality(age) * 100.0 < t);
                let quality_forced = match si.query_state() {
                    // A valid value's age only costs a clock read when a
                    // threshold was asked for.
                    Ok(snap)
                        if threshold.is_none()
                            || !below(self.clock.now().since(snap.produced_at)) =>
                    {
                        self.count_hit(si, &snap, false);
                        return Some(Ok(snap));
                    }
                    Ok(_) => true,
                    Err(QueryError::Expired { age, .. }) => below(age),
                    Err(_) => false, // never produced: an ordinary miss
                };
                if quality_forced {
                    si.count(|t| &t.quality_refreshes);
                }
                None
            }
        }
    }

    /// Phase two — the paper's blocking `updateState`: the entry's one
    /// refresh path, as a query (breaker-gated, retried,
    /// deadline-budgeted, answered from the cache when nothing fresh
    /// comes of it). The entry counts what it produced; a query counts
    /// its own miss, or the cached value it got instead.
    fn refresh(&self, si: &SystemInformation, opts: &QueryOptions) -> Result<Snapshot, QueryError> {
        let snap = si.refresh(Cause::Query {
            deadline: opts.deadline,
        })?;
        if snap.from_cache {
            // The cached value in place of a failed or gated refresh,
            // or another caller's refresh the monitor coalesced us onto.
            self.count_hit(si, &snap, true);
        } else {
            si.count(|t| &t.misses);
        }
        Ok(snap)
    }

    /// Convert a snapshot into a wire record, annotating quality and its
    /// age as of `now`.
    fn to_record(
        &self,
        si: &SystemInformation,
        snap: &Snapshot,
        opts: &QueryOptions,
        now: SimTime,
    ) -> InfoRecord {
        let mut rec = InfoRecord::new(si.keyword(), &self.hostname);
        let age = now.since(snap.produced_at);
        let quality = si.degradation().quality(age);
        if snap.stale {
            // Fault-driven last-known-good: mark the record degraded and
            // carry the value's true age so clients can judge it.
            rec.degraded = true;
            rec.stale_age_secs = Some(age.as_secs_f64());
        }
        for (name, value) in snap.attributes.iter() {
            let attr = rec.push(name, value);
            attr.quality = Some(quality);
            attr.age_secs = Some(age.as_secs_f64());
        }
        if opts.performance {
            // §6.6: "The performance tag returns the number of seconds and
            // the standard deviation about how long it takes to obtain a
            // particular information value."
            let (mean, std, n) = si.average_update_time();
            rec.push("perf.mean_seconds", &format!("{mean:.6}"));
            rec.push("perf.std_seconds", &format!("{std:.6}"));
            rec.push("perf.samples", &n.to_string());
        }
        rec
    }

    /// The shared first half of [`InformationService::answer`] and
    /// [`InformationService::answer_body`], which document it: resolve
    /// the selectors against `registry` (`None` is `(info=schema)`), then
    /// run the two §6.2 phases. Every keyword's slot comes back filled, in
    /// selector order. A per-account entry is read for `account` as it
    /// is resolved, and stands for one item per row, its slot filled.
    fn serve<'r>(
        &self,
        registry: &'r Registry,
        account: Option<&str>,
        selectors: &[InfoSelector],
        opts: &QueryOptions,
    ) -> Result<(Vec<Option<&'r SystemInformation>>, Vec<Slot>), InfoServiceError> {
        let mut items: Vec<Option<&SystemInformation>> = Vec::with_capacity(selectors.len());
        let mut slots: Vec<Slot> = Vec::with_capacity(selectors.len());
        let mut resolve = |item: Option<&'r SystemInformation>| {
            let Some(rows) = item.and_then(|si| si.read_for(account)) else {
                items.push(item);
                return slots.push(None);
            };
            items.extend(rows.iter().map(|_| item));
            slots.extend(rows.into_iter().map(|snap| Some(Ok(snap))));
        };
        for sel in selectors {
            match sel {
                InfoSelector::Schema => resolve(None),
                InfoSelector::All => registry.values().for_each(|si| resolve(Some(si))),
                InfoSelector::Keyword(k) => resolve(Some(
                    registry
                        .get(&k.to_ascii_lowercase())
                        .ok_or_else(|| InfoServiceError::UnknownKeyword(k.clone()))?,
                )),
            }
        }
        let mut misses: Vec<(usize, &SystemInformation)> = Vec::new();
        for (i, item) in items.iter().enumerate() {
            if let Some(si) = item.filter(|_| slots[i].is_none()) {
                slots[i] = self.query(si, opts);
                if slots[i].is_none() {
                    misses.push((i, si));
                }
            }
        }
        let refreshed = par::fan_out(&misses, |_, (_, si)| self.refresh(si, opts));
        for ((i, _), result) in misses.iter().zip(refreshed) {
            slots[*i] = Some(result);
        }
        Ok((items, slots))
    }

    /// Answer a selector list. Unknown keywords fail the whole query with
    /// [`InfoServiceError::UnknownKeyword`]; provider failures fail it
    /// with the error of the earliest failing selector position.
    ///
    /// The selector list is first resolved against one consistent
    /// registry snapshot (so unknown keywords fail before any provider
    /// runs; a per-account keyword is read as it resolves). Then the two
    /// §6.2 methods, in order: every keyword gets the
    /// non-blocking `query`, and the ones it could not serve are fanned
    /// out to the blocking `refresh` (`sim::par` runs 0 or 1 inline, more
    /// across the scoped pool). Records are gathered back in selector
    /// order, so the reply is indistinguishable from the sequential walk
    /// — N slow keywords cost ~1 provider execution of wall time instead
    /// of ~N.
    ///
    /// This caller has no account: a per-account keyword (`jobs`)
    /// answers it no record.
    pub fn answer(
        &self,
        selectors: &[InfoSelector],
        opts: &QueryOptions,
    ) -> Result<Vec<InfoRecord>, InfoServiceError> {
        self.records(None, selectors, opts)
    }

    /// [`InformationService::answer`], asked by the local `account`.
    fn records(
        &self,
        account: Option<&str>,
        selectors: &[InfoSelector],
        opts: &QueryOptions,
    ) -> Result<Vec<InfoRecord>, InfoServiceError> {
        let registry = self.registry();
        let (items, slots) = self.serve(&registry, account, selectors, opts)?;
        // Gather in selector order; the first error (by position) wins.
        let now = self.clock.now();
        let mut records = Vec::with_capacity(items.len());
        for (item, slot) in items.iter().zip(slots) {
            match item {
                None => records.extend(Schema::of(self).to_records(&self.hostname)),
                Some(si) => {
                    #[expect(clippy::expect_used, reason = "`serve` fills every slot")]
                    let snap = slot.expect("every fetch item was filled")?;
                    records.push(self.to_record(si, &snap, opts, now));
                }
            }
        }
        if let Some(filter) = &opts.filter {
            for rec in &mut records {
                rec.retain_matching(filter);
            }
            records.retain(|r| !r.attributes.is_empty());
        }
        Ok(records)
    }

    /// Answer a selector list with the rendered reply body and its
    /// record count — byte for byte `render` of the records the same
    /// request builds for `account`, without building them.
    ///
    /// A keyword's record is its head (keyword, host, the degraded
    /// annotation, and the one quality and age `answer` stamps on every
    /// attribute — which the renderer therefore hoists) followed by its
    /// attribute block. A snapshot served from the cache contributes
    /// the block kept beside it ([`Snapshot::cached_block`]: rendered by
    /// the first such reply, one `push_str` for every later one). A
    /// snapshot this very call produced is rendered straight into the
    /// body and stores nothing — whoever reads it from the cache next
    /// pays for the block, a refresh nobody reads pays nothing.
    ///
    /// `(filter=...)` and `(performance=true)` change a record's
    /// attributes, and `plain` annotates every line: those replies are
    /// rendered from records.
    ///
    /// `account` is the local account the asking session is mapped to:
    /// a per-account keyword answers it its own rows, and `None` none.
    pub fn answer_body(
        &self,
        account: Option<&str>,
        selectors: &[InfoSelector],
        opts: &QueryOptions,
        format: OutputFormat,
    ) -> Result<(String, u32), InfoServiceError> {
        if opts.filter.is_some() || opts.performance || format == OutputFormat::Plain {
            let records = self.records(account, selectors, opts)?;
            return Ok((render::render(&records, format), records.len() as u32));
        }
        let registry = self.registry();
        let (items, slots) = self.serve(&registry, account, selectors, opts)?;
        // The first error (by position) wins.
        let snaps: Vec<Option<Snapshot>> = slots
            .into_iter()
            .map(Option::transpose)
            .collect::<Result<_, _>>()?;
        let served = || {
            items
                .iter()
                .zip(&snaps)
                .map(|(si, snap)| si.zip(snap.as_ref()))
        };
        let now = self.clock.now();
        let capacity = served()
            .flatten()
            .map(|(si, snap)| {
                let block = snap.cached_block(si.keyword(), format);
                192 + block.map_or(64 * snap.attributes.len(), str::len)
            })
            .sum();
        let mut body = BodyWriter::new(format, capacity);
        for item in served() {
            let Some((si, snap)) = item else {
                for rec in Schema::of(self).to_records(&self.hostname) {
                    body.record(&rec);
                }
                continue;
            };
            let keyword = si.keyword();
            let age = now.since(snap.produced_at);
            // An empty record has no attribute to take a shared quality
            // and age from; the renderer hoists none.
            let annotated = !snap.attributes.is_empty();
            body.head(&Head {
                keyword,
                host: &self.hostname,
                degraded: snap.stale,
                stale_age_secs: snap.stale.then_some(age.as_secs_f64()),
                quality: annotated.then(|| si.degradation().quality(age)),
                age_secs: annotated.then_some(age.as_secs_f64()),
            });
            match snap.cached_block(keyword, format) {
                Some(block) => body.push_block(block),
                None => body.block(keyword, snap.attributes.attr_refs()),
            }
        }
        let record_count = body.record_count();
        Ok((body.finish(), record_count))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::{FnProvider, ProviderError};
    use crate::sub::SubscriptionHub;
    use infogram_host::commands::{ChargeMode, CostModel};
    use infogram_host::machine::SimulatedHost;
    use infogram_sim::clock::Clock;
    use infogram_sim::ManualClock;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::time::Duration;

    fn table1_service() -> (
        Arc<ManualClock>,
        Arc<CommandRegistry>,
        Arc<InformationService>,
    ) {
        let clock = ManualClock::new();
        let (reg, svc) = table1_service_on(&clock, clock.clone());
        (clock, reg, svc)
    }

    /// Table 1 on a host driven by `manual`, with the service and its
    /// entries reading `service_clock`.
    fn table1_service_on(
        manual: &Arc<ManualClock>,
        service_clock: SharedClock,
    ) -> (Arc<CommandRegistry>, Arc<InformationService>) {
        let host = SimulatedHost::default_on(manual.clone());
        let reg = CommandRegistry::new(host, ChargeMode::Advance(manual.clone()));
        let svc = InformationService::from_config(
            &ServiceConfig::table1(),
            Arc::clone(&reg),
            service_clock,
            MetricSet::new(),
        );
        (reg, svc)
    }

    /// A [`ManualClock`] that counts how often it is read.
    #[derive(Debug)]
    struct CountingClock {
        inner: Arc<ManualClock>,
        reads: AtomicU64,
    }

    impl Clock for CountingClock {
        fn now(&self) -> SimTime {
            self.reads.fetch_add(1, Ordering::Relaxed);
            self.inner.now()
        }

        fn sleep(&self, d: Duration) {
            self.inner.sleep(d)
        }
    }

    fn kw(k: &str) -> Vec<InfoSelector> {
        vec![InfoSelector::Keyword(k.to_string())]
    }

    #[test]
    fn table1_keywords_registered() {
        let (_c, _r, svc) = table1_service();
        assert_eq!(
            svc.keywords(),
            vec!["CPU", "CPULoad", "Date", "list", "Memory"]
        );
    }

    #[test]
    fn query_memory_returns_namespaced_attributes() {
        let (_c, _r, svc) = table1_service();
        let recs = svc.answer(&kw("Memory"), &QueryOptions::default()).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].keyword, "Memory");
        assert!(recs[0].get("Memory:total").is_some());
        assert!(recs[0].get("Memory:free").is_some());
    }

    #[test]
    fn keyword_lookup_case_insensitive() {
        let (_c, _r, svc) = table1_service();
        assert!(svc.answer(&kw("memory"), &QueryOptions::default()).is_ok());
        assert!(svc.answer(&kw("MEMORY"), &QueryOptions::default()).is_ok());
    }

    #[test]
    fn unknown_keyword_rejected() {
        let (_c, _r, svc) = table1_service();
        match svc.answer(&kw("Bogus"), &QueryOptions::default()) {
            Err(InfoServiceError::UnknownKeyword(k)) => assert_eq!(k, "Bogus"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn info_all_returns_every_keyword() {
        let (_c, _r, svc) = table1_service();
        let recs = svc
            .answer(&[InfoSelector::All], &QueryOptions::default())
            .unwrap();
        assert_eq!(recs.len(), 5);
    }

    #[test]
    fn concatenated_selectors_like_the_paper() {
        // "(info=memory)(info=cpu)"
        let (_c, _r, svc) = table1_service();
        let recs = svc
            .answer(
                &[
                    InfoSelector::Keyword("memory".to_string()),
                    InfoSelector::Keyword("cpu".to_string()),
                ],
                &QueryOptions::default(),
            )
            .unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].keyword, "Memory");
        assert_eq!(recs[1].keyword, "CPU");
    }

    #[test]
    fn cached_mode_serves_within_ttl() {
        let (clock, _r, svc) = table1_service();
        let opts = QueryOptions::default();
        svc.answer(&kw("Memory"), &opts).unwrap(); // miss
        let si = svc.lookup("Memory").unwrap();
        assert_eq!(si.execution_count(), 1);
        // Within the 80ms TTL (command costs advance the manual clock, so
        // stay well under it).
        svc.answer(&kw("Memory"), &opts).unwrap();
        assert_eq!(si.execution_count(), 1, "served from cache");
        clock.advance(Duration::from_millis(80));
        svc.answer(&kw("Memory"), &opts).unwrap();
        assert_eq!(si.execution_count(), 2, "expired → refreshed");
    }

    #[test]
    fn cpuload_ttl_zero_always_executes() {
        let (_c, reg, svc) = table1_service();
        // Make the command cost zero so the clock does not advance and the
        // effect is purely the TTL-0 rule.
        reg.set_cost("cpuload", CostModel::Fixed(Duration::ZERO));
        let opts = QueryOptions::default();
        for _ in 0..3 {
            svc.answer(&kw("CPULoad"), &opts).unwrap();
        }
        assert_eq!(svc.lookup("CPULoad").unwrap().execution_count(), 3);
    }

    #[test]
    fn immediate_mode_always_refreshes() {
        let (_c, _r, svc) = table1_service();
        let opts = QueryOptions {
            mode: ResponseMode::Immediate,
            ..Default::default()
        };
        svc.answer(&kw("Memory"), &opts).unwrap();
        svc.answer(&kw("Memory"), &opts).unwrap();
        assert_eq!(svc.lookup("Memory").unwrap().execution_count(), 2);
    }

    #[test]
    fn last_mode_never_refreshes() {
        let (clock, _r, svc) = table1_service();
        let cached = QueryOptions::default();
        svc.answer(&kw("Memory"), &cached).unwrap();
        clock.advance(Duration::from_secs(3600)); // far past TTL
        let last = QueryOptions {
            mode: ResponseMode::Last,
            ..Default::default()
        };
        let recs = svc.answer(&kw("Memory"), &last).unwrap();
        assert_eq!(svc.lookup("Memory").unwrap().execution_count(), 1);
        // The age annotation shows how stale it is.
        assert!(recs[0].attributes[0].age_secs.unwrap() >= 3600.0);
        // And `last` before anything cached is an error.
        match svc.answer(&kw("CPU"), &last) {
            Err(InfoServiceError::Query(QueryError::NeverProduced)) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn quality_threshold_forces_refresh() {
        let (clock, _r, svc) = table1_service();
        // Binary degradation over 80ms TTL; at age 40ms quality is 1.0,
        // so threshold 50 does not refresh; threshold via linear would.
        // Re-register Memory with linear degradation for a gradual curve.
        let si = svc.lookup("Memory").unwrap();
        let _ = si;
        let reg_entry = SystemInformation::new(
            Box::new(crate::provider::FnProvider::new("Memory", || {
                Ok(vec![("total".to_string(), "1".to_string())])
            })),
            clock.clone(),
            Duration::from_secs(100),
            crate::quality::DegradationFn::Linear {
                lifetime: Duration::from_secs(100),
            },
        );
        svc.register(Arc::clone(&reg_entry));
        let base = QueryOptions::default();
        svc.answer(&kw("Memory"), &base).unwrap();
        clock.advance(Duration::from_secs(30)); // quality now 0.7
        let strict = QueryOptions {
            quality_threshold: Some(90.0),
            ..Default::default()
        };
        svc.answer(&kw("Memory"), &strict).unwrap();
        assert_eq!(
            reg_entry.execution_count(),
            2,
            "quality 70% < threshold 90% forces a refresh"
        );
        let lax = QueryOptions {
            quality_threshold: Some(10.0),
            ..Default::default()
        };
        svc.answer(&kw("Memory"), &lax).unwrap();
        assert_eq!(reg_entry.execution_count(), 2, "fresh value passes");
    }

    #[test]
    fn performance_tag_attaches_stats() {
        let (_c, _r, svc) = table1_service();
        let opts = QueryOptions {
            performance: true,
            ..Default::default()
        };
        let recs = svc.answer(&kw("Memory"), &opts).unwrap();
        let mean: f64 = recs[0]
            .get("perf.mean_seconds")
            .unwrap()
            .value
            .parse()
            .unwrap();
        assert!(mean > 0.0, "command cost recorded");
        assert_eq!(recs[0].get("perf.samples").unwrap().value, "1");
    }

    #[test]
    fn filter_selects_attributes() {
        let (_c, _r, svc) = table1_service();
        let opts = QueryOptions {
            filter: Some("Memory:free".to_string()),
            ..Default::default()
        };
        let recs = svc.answer(&kw("Memory"), &opts).unwrap();
        assert_eq!(recs[0].attributes.len(), 1);
        assert_eq!(recs[0].attributes[0].name, "Memory:free");
        // A filter matching nothing drops the record entirely.
        let opts = QueryOptions {
            filter: Some("Nothing:here".to_string()),
            ..Default::default()
        };
        assert!(svc.answer(&kw("Memory"), &opts).unwrap().is_empty());
    }

    #[test]
    fn quality_annotation_reflects_age() {
        let (clock, _r, svc) = table1_service();
        svc.answer(&kw("list"), &QueryOptions::default()).unwrap(); // ttl 1000ms binary
        clock.advance(Duration::from_millis(500));
        let last = QueryOptions {
            mode: ResponseMode::Last,
            ..Default::default()
        };
        let recs = svc.answer(&kw("list"), &last).unwrap();
        assert_eq!(recs[0].attributes[0].quality, Some(1.0));
        clock.advance(Duration::from_millis(600));
        let recs = svc.answer(&kw("list"), &last).unwrap();
        assert_eq!(
            recs[0].attributes[0].quality,
            Some(0.0),
            "binary degradation flips at the 1000ms lifetime"
        );
    }

    #[test]
    fn hot_path_uses_interned_keyword_handles() {
        let manual = ManualClock::new();
        let clock = Arc::new(CountingClock {
            inner: manual.clone(),
            reads: AtomicU64::new(0),
        });
        let (_r, svc) = table1_service_on(&manual, clock.clone());
        let opts = QueryOptions::default();
        svc.answer(&kw("Memory"), &opts).unwrap(); // miss: creates nothing new either
        let si = svc.lookup("Memory").unwrap();
        let km = si.telemetry().unwrap();
        // The handles the entry interned at register() time are the very
        // instruments the telemetry set resolves by name.
        assert!(Arc::ptr_eq(
            &km.hits,
            &svc.metrics().counter("info.hits.Memory")
        ));
        assert!(Arc::ptr_eq(
            &km.misses,
            &svc.metrics().counter("info.misses.Memory")
        ));
        assert!(Arc::ptr_eq(
            &km.stale,
            &svc.metrics().counter("info.stale.Memory")
        ));
        assert!(Arc::ptr_eq(
            &km.validity_ms,
            &svc.metrics().gauge("info.validity_ms.Memory")
        ));
        // Cache hits go through those handles without creating (or even
        // naming) any instrument: the counter set stays fixed while the
        // interned handle observes every hit.
        let names_before = svc.metrics().counters_snapshot().len();
        let hits_before = km.hits.get();
        for _ in 0..100 {
            svc.answer(&kw("Memory"), &opts).unwrap();
        }
        assert_eq!(km.hits.get(), hits_before + 100);
        assert_eq!(
            svc.metrics().counters_snapshot().len(),
            names_before,
            "hit path must not mint new metric names"
        );
        // And the hit decides once: one clock read for the TTL check under
        // the entry lock, one to stamp the record's age — not a third to
        // re-derive validity or quality.
        let reads_before = clock.reads.load(Ordering::Relaxed);
        svc.answer(&kw("Memory"), &opts).unwrap();
        let reads = clock.reads.load(Ordering::Relaxed) - reads_before;
        assert!(reads <= 2, "warm cached hit read the clock {reads} times");
    }

    /// One scripted provider execution: its cost on the manual clock and
    /// its outcome (`Err(true)` transient, `Err(false)` a configuration
    /// error).
    type Step = (u64, Result<(), bool>);

    /// A keyword on `clock` whose provider plays `script` in order,
    /// charging each step's cost to `manual`; given `metrics`, with
    /// telemetry there and a hub.
    fn scripted(
        manual: &Arc<ManualClock>,
        clock: SharedClock,
        script: Vec<Step>,
        metrics: Option<&MetricSet>,
    ) -> Arc<SystemInformation> {
        let (manual, next) = (Arc::clone(manual), AtomicU64::new(0));
        let si = SystemInformation::new(
            Box::new(FnProvider::new("K", move || {
                let (cost, outcome) = script[next.fetch_add(1, Ordering::Relaxed) as usize];
                manual.advance(Duration::from_millis(cost));
                match outcome {
                    Ok(()) => Ok(vec![("v".to_string(), "1".to_string())]),
                    Err(true) => Err(ProviderError::Other("down".to_string())),
                    Err(false) => Err(ProviderError::UnknownCommand {
                        command: "k".to_string(),
                        detail: "not configured".to_string(),
                    }),
                }
            })),
            clock,
            Duration::from_secs(1),
            DegradationFn::default(),
        );
        if let Some(metrics) = metrics {
            si.set_telemetry(metrics.clone());
            si.push_to(&SubscriptionHub::new("h", MetricSet::new()));
        }
        si
    }

    #[test]
    fn a_refresh_reads_the_clock_once_per_stage_boundary() {
        let query = Cause::Query { deadline: None };
        // Clock reads of the last refresh of `script`, run in full.
        let reads = |script: Vec<Step>, observed: bool| {
            let manual = ManualClock::new();
            let clock = Arc::new(CountingClock {
                inner: manual.clone(),
                reads: AtomicU64::new(0),
            });
            let (metrics, runs) = (MetricSet::new(), script.len());
            let si = scripted(&manual, clock.clone(), script, observed.then_some(&metrics));
            let mut before = 0;
            while (si.execution_count() as usize) < runs {
                before = clock.reads.load(Ordering::Relaxed);
                let _ = si.refresh(query);
            }
            clock.reads.load(Ordering::Relaxed) - before
        };
        // Arrival, the attempt's end, and the push done that `info.refresh`
        // ends at; without a histogram to record it, no push stamp.
        assert_eq!(reads(vec![(5, Ok(()))], true), 3);
        assert_eq!(reads(vec![(5, Ok(()))], false), 2);
        // Failure booking and the degraded answer's age and staleness
        // all take the attempt's end.
        assert_eq!(reads(vec![(5, Ok(())), (5, Err(false))], true), 2);
        // A retry starts where the failed attempt ended: one more read.
        assert_eq!(reads(vec![(5, Err(true)), (5, Ok(()))], true), 4);
        assert_eq!(
            reads(vec![(5, Err(true)), (5, Err(true)), (5, Ok(()))], true),
            5
        );
    }

    #[test]
    fn a_production_is_timed_from_arrival_and_its_catalog_sample_is_its_successful_attempt() {
        let manual = ManualClock::new();
        let metrics = MetricSet::new();
        let si = scripted(
            &manual,
            manual.clone(),
            vec![(10, Err(true)), (30, Ok(()))],
            Some(&metrics),
        );
        assert!(!si.refresh(Cause::Scheduled).unwrap().from_cache);
        let refresh = metrics.histogram("info.refresh");
        assert_eq!(refresh.count(), 1);
        assert!((refresh.mean_secs() - 0.040).abs() < 1e-9, "both attempts");
        let (mean, _, n) = si.average_update_time();
        assert_eq!(n, 1);
        assert!((mean - 0.030).abs() < 1e-9, "the successful attempt alone");
    }

    #[test]
    fn a_waiter_that_takes_over_after_a_failure_times_its_wait() {
        let manual = ManualClock::new();
        let clock = Arc::new(CountingClock {
            inner: manual.clone(),
            reads: AtomicU64::new(0),
        });
        let (entered, holding) = std::sync::mpsc::channel();
        let (release, released) = std::sync::mpsc::channel::<()>();
        let released = std::sync::Mutex::new(released);
        let (m, calls) = (manual.clone(), AtomicU64::new(0));
        // The holder's execution waits for the test, costs 10 ms and is
        // misconfigured (no backoff gates the waiter); the waiter's costs
        // 30 ms and produces.
        let si = SystemInformation::new(
            Box::new(FnProvider::new("K", move || {
                if calls.fetch_add(1, Ordering::Relaxed) == 0 {
                    entered.send(()).unwrap();
                    released.lock().unwrap().recv().unwrap();
                    m.advance(Duration::from_millis(10));
                    return Err(ProviderError::UnknownCommand {
                        command: "k".to_string(),
                        detail: "not configured".to_string(),
                    });
                }
                m.advance(Duration::from_millis(30));
                Ok(vec![("v".to_string(), "1".to_string())])
            })),
            clock.clone(),
            Duration::from_secs(1),
            DegradationFn::default(),
        );
        let metrics = MetricSet::new();
        si.set_telemetry(metrics.clone());
        let holder = {
            let si = Arc::clone(&si);
            std::thread::spawn(move || si.refresh(Cause::Scheduled).is_err())
        };
        holding.recv().unwrap();
        manual.advance(Duration::from_millis(5));
        let waiter = {
            let si = Arc::clone(&si);
            std::thread::spawn(move || si.refresh(Cause::Scheduled).unwrap().from_cache)
        };
        // The waiter reads its arrival under the entry's lock and keeps
        // it until it parks on the monitor, and the holder needs that
        // lock to finish: once the read is in, the wait is certain.
        while clock.reads.load(Ordering::Relaxed) < 2 {
            std::thread::yield_now();
        }
        release.send(()).unwrap();
        assert!(holder.join().unwrap(), "the holder's fetch failed");
        assert!(!waiter.join().unwrap(), "the waiter produced");
        let refresh = metrics.histogram("info.refresh");
        assert_eq!(refresh.count(), 1, "a failure is no production");
        // Arrival at 5 ms, the wait to 15 ms, its attempt to 45 ms.
        assert!((refresh.mean_secs() - 0.040).abs() < 1e-9);
        let (mean, _, n) = si.average_update_time();
        assert_eq!(n, 1);
        assert!((mean - 0.030).abs() < 1e-9, "the waiter's attempt alone");
    }

    #[test]
    fn answer_fans_out_but_keeps_selector_order() {
        // Five TTL-0 keywords: (info=all) refreshes every one, through
        // the fan-out pool, and the reply must still be in registry
        // order with one record per keyword.
        let clock = ManualClock::new();
        let svc = InformationService::new("h", clock.clone(), MetricSet::new());
        for name in ["E", "A", "C", "B", "D"] {
            let n = name.to_string();
            svc.register(SystemInformation::new(
                Box::new(crate::provider::FnProvider::new(name, move || {
                    Ok(vec![("v".to_string(), n.clone())])
                })),
                clock.clone(),
                Duration::ZERO,
                crate::quality::DegradationFn::default(),
            ));
        }
        let recs = svc
            .answer(&[InfoSelector::All], &QueryOptions::default())
            .unwrap();
        let order: Vec<&str> = recs.iter().map(|r| r.keyword.as_str()).collect();
        assert_eq!(order, vec!["A", "B", "C", "D", "E"]);
        // Concatenated selectors keep request order, not registry order.
        let recs = svc
            .answer(
                &[
                    InfoSelector::Keyword("D".into()),
                    InfoSelector::Keyword("A".into()),
                    InfoSelector::Keyword("C".into()),
                ],
                &QueryOptions::default(),
            )
            .unwrap();
        let order: Vec<&str> = recs.iter().map(|r| r.keyword.as_str()).collect();
        assert_eq!(order, vec!["D", "A", "C"]);
    }

    #[test]
    fn unknown_keyword_fails_before_any_provider_runs() {
        let (_c, _r, svc) = table1_service();
        let res = svc.answer(
            &[
                InfoSelector::Keyword("memory".into()),
                InfoSelector::Keyword("Bogus".into()),
            ],
            &QueryOptions::default(),
        );
        assert!(matches!(res, Err(InfoServiceError::UnknownKeyword(_))));
        assert_eq!(
            svc.lookup("Memory").unwrap().execution_count(),
            0,
            "selector resolution rejects the query before fetching"
        );
    }

    #[test]
    fn metrics_count_hits_and_refreshes() {
        let (_c, _r, svc) = table1_service();
        let opts = QueryOptions::default();
        svc.answer(&kw("Memory"), &opts).unwrap();
        svc.answer(&kw("Memory"), &opts).unwrap();
        assert_eq!(svc.metrics().counter_value("info.refreshes"), 1);
        assert_eq!(svc.metrics().counter_value("info.cache_hits"), 1);
        assert_eq!(svc.metrics().counter_value("info.queries"), 2);
    }

    const Q: &str = "info.queries";
    const CH: &str = "info.cache_hits";
    const R: &str = "info.refreshes";
    const QR: &str = "info.quality_refreshes";
    const H: &str = "info.hits.K";
    const M: &str = "info.misses.K";
    const S: &str = "info.stale.K";
    const COUNTERS: [&str; 7] = [Q, CH, R, QR, H, M, S];

    /// What one `answer` did, as the outside can tell.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Outcome {
        /// Served the cached value; provider untouched.
        Hit,
        /// As `Hit`, but the value was past its TTL (`info.stale.K`).
        Old,
        /// Executed the provider and served the fresh value.
        Miss,
        /// As `Miss`, because the quality threshold asked for it.
        Forced,
        /// Failed with `NeverProduced`; provider untouched.
        Never,
        /// The refresh failed; the cached value, within its TTL, came
        /// back as it is.
        Fallback,
        /// As `Fallback`, on a quality-forced refresh.
        ForcedFallback,
        /// The refresh failed; the cached value, past its TTL, came back
        /// degraded.
        StaleServe,
        /// As `StaleServe`, on a quality-forced refresh.
        ForcedStaleServe,
    }

    impl Outcome {
        /// (provider executed, from_cache, stale, counters that moved).
        fn expect(self) -> (bool, bool, bool, &'static [&'static str]) {
            match self {
                Outcome::Hit => (false, true, false, &[Q, CH, H]),
                Outcome::Old => (false, true, false, &[Q, CH, H, S]),
                Outcome::Miss => (true, false, false, &[Q, R, M]),
                Outcome::Forced => (true, false, false, &[Q, QR, R, M]),
                Outcome::Never => (false, false, false, &[Q]),
                Outcome::Fallback => (true, true, false, &[Q, CH, H]),
                Outcome::ForcedFallback => (true, true, false, &[Q, QR, CH, H]),
                Outcome::StaleServe => (true, true, true, &[Q, CH, H, S]),
                Outcome::ForcedStaleServe => (true, true, true, &[Q, QR, CH, H, S]),
            }
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Cache {
        Never,
        Valid,
        Expired,
        Ttl0,
    }

    /// Run one cell of the table on a fresh single-keyword service: TTL
    /// 100 s (or 0), quality decaying linearly to zero over 400 s, so a
    /// valid value (age 10 s) rates 97.5 % and an expired one (age 200 s)
    /// 50 % — both meet a threshold of 10 and miss one of 99.
    fn check_cell(
        mode: ResponseMode,
        cache: Cache,
        threshold: Option<f64>,
        fail: bool,
        want: Outcome,
    ) {
        let cell = format!("{mode:?} x {cache:?} x {threshold:?} (fail={fail})");
        let clock = ManualClock::new();
        let failing = Arc::new(AtomicBool::new(false));
        let f2 = Arc::clone(&failing);
        let calls = AtomicU64::new(0);
        let ttl = if cache == Cache::Ttl0 { 0 } else { 100 };
        let si = SystemInformation::new(
            Box::new(crate::provider::FnProvider::new("K", move || {
                let n = calls.fetch_add(1, Ordering::SeqCst) + 1;
                if f2.load(Ordering::SeqCst) {
                    return Err(crate::provider::ProviderError::Other("down".into()));
                }
                Ok(vec![("n".to_string(), n.to_string())])
            })),
            clock.clone(),
            Duration::from_secs(ttl),
            DegradationFn::Linear {
                lifetime: Duration::from_secs(400),
            },
        );
        let svc = InformationService::new("h", clock.clone(), MetricSet::new());
        svc.register(Arc::clone(&si));
        if cache != Cache::Never {
            si.update_state().unwrap(); // primes the cache, not the service counters
            clock.advance(Duration::from_secs(if cache == Cache::Expired {
                200
            } else {
                10
            }));
        }
        failing.store(fail, Ordering::SeqCst);
        let before: Vec<u64> = COUNTERS
            .iter()
            .map(|c| svc.metrics().counter_value(c))
            .collect();
        let executions = si.execution_count();
        let opts = QueryOptions {
            mode,
            quality_threshold: threshold,
            ..Default::default()
        };
        let answer = svc.answer(&kw("K"), &opts);

        let (executed, from_cache, stale, moved) = want.expect();
        assert_eq!(si.execution_count() > executions, executed, "{cell}");
        if want == Outcome::Never {
            assert_eq!(
                answer,
                Err(InfoServiceError::Query(QueryError::NeverProduced)),
                "{cell}"
            );
        } else {
            let recs = answer.unwrap_or_else(|e| panic!("{cell}: {e}"));
            // The provider stamps its execution number: the primed value
            // is n=1, anything fresher was produced by this query.
            let primed = cache != Cache::Never && recs[0].get("K:n").unwrap().value == "1";
            assert_eq!(primed, from_cache, "{cell}: from_cache");
            assert_eq!(recs[0].degraded, stale, "{cell}: stale");
        }
        for (name, before) in COUNTERS.iter().zip(before) {
            let delta = svc.metrics().counter_value(name) - before;
            assert_eq!(delta, u64::from(moved.contains(name)), "{cell}: {name}");
        }
    }

    #[test]
    fn two_phase_equivalence_table() {
        use Cache::*;
        use Outcome::{Forced, Hit, Miss, Old};
        use ResponseMode::{Cached, Immediate, Last};
        // Columns: no threshold, threshold met (10), threshold missed (99).
        let table = [
            (Cached, Never, [Miss, Miss, Miss]),
            (Cached, Valid, [Hit, Hit, Forced]),
            (Cached, Expired, [Miss, Miss, Forced]),
            (Cached, Ttl0, [Miss, Miss, Forced]),
            (Immediate, Never, [Miss, Miss, Miss]),
            (Immediate, Valid, [Miss, Miss, Miss]),
            (Immediate, Expired, [Miss, Miss, Miss]),
            (Immediate, Ttl0, [Miss, Miss, Miss]),
            (Last, Never, [Outcome::Never; 3]),
            (Last, Valid, [Hit, Hit, Hit]),
            (Last, Expired, [Old, Old, Old]),
            (Last, Ttl0, [Hit, Hit, Hit]),
        ];
        for (mode, cache, row) in table {
            for (threshold, want) in [None, Some(10.0), Some(99.0)].into_iter().zip(row) {
                check_cell(mode, cache, threshold, false, want);
            }
        }
        // With the provider down, a refresh answers what is cached,
        // tagged stale once past its TTL.
        check_cell(Immediate, Valid, None, true, Outcome::Fallback);
        check_cell(Cached, Expired, None, true, Outcome::StaleServe);
        check_cell(Cached, Valid, Some(99.0), true, Outcome::ForcedFallback);
        check_cell(Cached, Expired, Some(99.0), true, Outcome::ForcedStaleServe);
    }

    #[test]
    fn mixed_all_keeps_registry_order_across_the_two_phases() {
        // (info=all) over A, B, C, D: A and D are warm hits answered by
        // the non-blocking pass, B and C (TTL 0) are the two misses that
        // go through the fan-out between them.
        let clock = ManualClock::new();
        let svc = InformationService::new("h", clock.clone(), MetricSet::new());
        for (name, ttl) in [("C", 0), ("A", 60), ("D", 60), ("B", 0)] {
            let calls = AtomicU64::new(0);
            let si = SystemInformation::new(
                Box::new(crate::provider::FnProvider::new(name, move || {
                    let n = calls.fetch_add(1, Ordering::SeqCst) + 1;
                    Ok(vec![("n".to_string(), n.to_string())])
                })),
                clock.clone(),
                Duration::from_secs(ttl),
                DegradationFn::default(),
            );
            si.update_state().unwrap();
            svc.register(si);
        }
        let recs = svc
            .answer(&[InfoSelector::All], &QueryOptions::default())
            .unwrap();
        let served: Vec<(&str, &str)> = recs
            .iter()
            .map(|r| (r.keyword.as_str(), r.attributes[0].value.as_str()))
            .collect();
        assert_eq!(
            served,
            vec![("A", "1"), ("B", "2"), ("C", "2"), ("D", "1")],
            "hits keep their cached value, misses re-execute, order is the registry's"
        );
        assert_eq!(svc.metrics().counter_value("info.queries"), 4);
        assert_eq!(svc.metrics().counter_value("info.cache_hits"), 2);
        assert_eq!(svc.metrics().counter_value("info.refreshes"), 2);
        for (name, hits, misses) in [("A", 1, 0), ("B", 0, 1), ("C", 0, 1), ("D", 1, 0)] {
            assert_eq!(
                svc.metrics().counter_value(&format!("info.hits.{name}")),
                hits
            );
            assert_eq!(
                svc.metrics().counter_value(&format!("info.misses.{name}")),
                misses
            );
        }
    }
}
