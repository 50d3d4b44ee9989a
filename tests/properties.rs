//! Cross-crate property-based tests on the system's core invariants.
//!
//! Module-level proptests live next to their modules (RSL round-trips,
//! base64, LDIF/XML escaping, wire decoding). The properties here span
//! subsystems: cache freshness under arbitrary query schedules, WAL
//! replay fidelity, filter round-trips, job lifecycle legality.

use infogram::exec::wal::{RecoveredState, WalEvent};
use infogram::info::entry::SystemInformation;
use infogram::info::provider::FnProvider;
use infogram::info::quality::DegradationFn;
use infogram::mds::filter::Filter;
use infogram::proto::message::JobStateCode;
use infogram::sim::{Clock, ManualClock};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------
// Cache invariants (§6.2) under arbitrary schedules.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum CacheOp {
    /// Advance the clock by this many milliseconds.
    Advance(u64),
    /// Non-blocking read.
    Query,
    /// Cache-preferring read.
    Cached,
    /// Forced refresh.
    Update,
    /// Last-stored read.
    Last,
}

fn arb_cache_op() -> impl Strategy<Value = CacheOp> {
    prop_oneof![
        (0u64..500).prop_map(CacheOp::Advance),
        Just(CacheOp::Query),
        Just(CacheOp::Cached),
        Just(CacheOp::Update),
        Just(CacheOp::Last),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under ANY schedule of operations:
    /// 1. `query_state` never returns a value older than the TTL;
    /// 2. every successful read returns the value of the most recent
    ///    provider execution (monotone versions);
    /// 3. `cached`/`update` never fail once anything was produced.
    #[test]
    fn cache_schedule_invariants(
        ttl_ms in 1u64..400,
        ops in prop::collection::vec(arb_cache_op(), 1..60),
    ) {
        let clock = ManualClock::new();
        let version = Arc::new(AtomicU64::new(0));
        let v2 = Arc::clone(&version);
        let si = SystemInformation::new(
            Box::new(FnProvider::new("K", move || {
                let v = v2.fetch_add(1, Ordering::SeqCst) + 1;
                Ok(vec![("v".to_string(), v.to_string())])
            })),
            clock.clone(),
            Duration::from_millis(ttl_ms),
            DegradationFn::default(),
        );
        let ttl = Duration::from_millis(ttl_ms);
        let mut last_seen_version = 0u64;
        for op in ops {
            match op {
                CacheOp::Advance(ms) => clock.advance(Duration::from_millis(ms)),
                CacheOp::Query => {
                    if let Ok(snap) = si.query_state() {
                        let age = clock.now().since(snap.produced_at);
                        prop_assert!(age < ttl, "query served {age:?} old with ttl {ttl:?}");
                        let v: u64 = snap.attributes[0].1.parse().unwrap();
                        prop_assert!(v >= last_seen_version, "version went backwards");
                        last_seen_version = v;
                    }
                }
                CacheOp::Cached => {
                    let snap = si.query_state().or_else(|_| si.update_state()).unwrap();
                    let v: u64 = snap.attributes[0].1.parse().unwrap();
                    prop_assert!(v >= last_seen_version);
                    last_seen_version = v;
                    // Freshly served cache content is within TTL...
                    let age = clock.now().since(snap.produced_at);
                    prop_assert!(age < ttl || !snap.from_cache);
                }
                CacheOp::Update => {
                    let snap = si.update_state().unwrap();
                    prop_assert!(!snap.from_cache, "update always executes (no delay set)");
                    let v: u64 = snap.attributes[0].1.parse().unwrap();
                    prop_assert!(v > last_seen_version, "update must produce a new version");
                    last_seen_version = v;
                }
                CacheOp::Last => {
                    if let Ok(snap) = si.last_state() {
                        let v: u64 = snap.attributes[0].1.parse().unwrap();
                        prop_assert!(v >= last_seen_version);
                        last_seen_version = v;
                    }
                }
            }
            // Global invariant: execution count equals the version counter.
            prop_assert_eq!(si.execution_count(), version.load(Ordering::SeqCst));
        }
    }
}

// ---------------------------------------------------------------------
// WAL replay fidelity: encode → decode → recover is lossless for the
// recovery-relevant facts.
// ---------------------------------------------------------------------

fn arb_state() -> impl Strategy<Value = JobStateCode> {
    prop_oneof![
        Just(JobStateCode::Pending),
        Just(JobStateCode::Active),
        Just(JobStateCode::Suspended),
        Just(JobStateCode::Done),
        Just(JobStateCode::Failed),
        Just(JobStateCode::Canceled),
    ]
}

fn arb_event() -> impl Strategy<Value = WalEvent> {
    prop_oneof![
        (1u64..100).prop_map(|epoch| WalEvent::ServiceStarted { epoch }),
        (1u64..50, "[ -~]{0,40}", "[a-z]{1,8}").prop_map(|(job_id, rsl, account)| {
            WalEvent::Submitted {
                job_id,
                rsl: rsl.replace('\x1f', " "),
                owner: format!("/O=Grid/CN=U{job_id}"),
                account,
            }
        }),
        (1u64..50, arb_state())
            .prop_map(|(job_id, state)| WalEvent::StateChanged { job_id, state }),
        (
            1u64..50,
            arb_state(),
            prop::option::of(-128i32..128),
            0.0f64..1000.0
        )
            .prop_map(
                |(job_id, state, exit_code, wall_seconds)| WalEvent::Finished {
                    job_id,
                    state,
                    exit_code,
                    wall_seconds: (wall_seconds * 1000.0).round() / 1000.0,
                }
            ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every event round-trips its log line exactly.
    #[test]
    fn wal_event_roundtrip(ev in arb_event()) {
        let line = ev.encode();
        prop_assert!(!line.contains('\n'));
        prop_assert_eq!(WalEvent::decode(&line), Some(ev));
    }

    /// Recovery classifies a job as finished exactly when its plan says
    /// a Finished event was logged, regardless of interleaved noise
    /// (state changes, restarts, Finished events for unknown job ids).
    #[test]
    fn recovery_classification(
        plans in prop::collection::vec(
            (any::<bool>(), arb_state(), prop::option::of(-128i32..128)),
            0..20,
        ),
        noise in prop::collection::vec(arb_event(), 0..10),
    ) {
        use std::collections::BTreeSet;
        let mut events: Vec<WalEvent> = Vec::new();
        let mut expected_finished: BTreeSet<u64> = BTreeSet::new();
        let mut all_ids: BTreeSet<u64> = BTreeSet::new();
        for (i, (finish, state, exit_code)) in plans.iter().enumerate() {
            let job_id = (i + 1) as u64;
            all_ids.insert(job_id);
            events.push(WalEvent::Submitted {
                job_id,
                rsl: format!("(executable=job{job_id})"),
                owner: format!("/O=Grid/CN=U{job_id}"),
                account: "acct".to_string(),
            });
            if *finish {
                expected_finished.insert(job_id);
                events.push(WalEvent::Finished {
                    job_id,
                    state: *state,
                    exit_code: *exit_code,
                    wall_seconds: 1.0,
                });
            }
        }
        // Noise: events about *unknown* job ids must not change the
        // classification (drop noise Submitted events, offset the rest).
        for n in noise {
            match n {
                WalEvent::Submitted { .. } => {}
                WalEvent::ServiceStarted { epoch } => {
                    events.push(WalEvent::ServiceStarted { epoch })
                }
                WalEvent::StateChanged { job_id, state } => events.push(
                    WalEvent::StateChanged { job_id: job_id + 1000, state },
                ),
                WalEvent::Finished {
                    job_id,
                    state,
                    exit_code,
                    wall_seconds,
                } => events.push(WalEvent::Finished {
                    job_id: job_id + 1000,
                    state,
                    exit_code,
                    wall_seconds,
                }),
                WalEvent::InfoQueried { .. } => events.push(n),
                // A checkpoint would (by design) replace the planned
                // history — not noise; skip it.
                WalEvent::Checkpoint(_) => {}
            }
        }
        let state = RecoveredState::from_events(&events);
        let recovered_ids: BTreeSet<u64> = state.jobs.iter().map(|j| j.job_id).collect();
        prop_assert_eq!(&recovered_ids, &all_ids);
        let unfinished_ids: BTreeSet<u64> =
            state.unfinished().iter().map(|j| j.job_id).collect();
        let expected_unfinished: BTreeSet<u64> =
            all_ids.difference(&expected_finished).copied().collect();
        prop_assert_eq!(&unfinished_ids, &expected_unfinished);
    }
}

// ---------------------------------------------------------------------
// MDS filter display → parse round-trip for generated filters.
// ---------------------------------------------------------------------

fn arb_filter() -> impl Strategy<Value = Filter> {
    let attr = "[a-z][a-z0-9-]{0,8}";
    let value = "[a-zA-Z0-9._:-]{1,10}";
    let leaf = prop_oneof![
        (attr, value).prop_map(|(a, v)| Filter::Equals(a, v)),
        attr.prop_map(Filter::Present),
        (attr, value).prop_map(|(a, v)| Filter::GreaterEq(a, v)),
        (attr, value).prop_map(|(a, v)| Filter::LessEq(a, v)),
        // A substring anchored at both ends with one part prints without
        // any '*' and is indistinguishable from Equals; exclude that
        // (semantically identical) corner from the generator.
        (
            attr,
            prop::collection::vec(value, 1..3),
            any::<bool>(),
            any::<bool>()
        )
            .prop_filter_map(
                "fully-anchored single part is Equals",
                |(a, parts, s, e)| {
                    if s && e && parts.len() == 1 {
                        None
                    } else {
                        Some(Filter::Substring(a, parts, s, e))
                    }
                }
            ),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..3).prop_map(Filter::And),
            prop::collection::vec(inner.clone(), 1..3).prop_map(Filter::Or),
            inner.prop_map(|f| Filter::Not(Box::new(f))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn filter_display_parse_roundtrip(f in arb_filter()) {
        let printed = f.to_string();
        let reparsed = Filter::parse(&printed)
            .unwrap_or_else(|e| panic!("'{printed}' failed to reparse: {e}"));
        prop_assert_eq!(reparsed, f);
    }

    /// Filter evaluation is total (never panics) on arbitrary entries.
    #[test]
    fn filter_eval_total(
        f in arb_filter(),
        attrs in prop::collection::vec(("[a-z]{1,6}", "[ -~]{0,12}"), 0..6),
    ) {
        let get = |name: &str| -> Vec<String> {
            attrs
                .iter()
                .filter(|(k, _)| k.eq_ignore_ascii_case(name))
                .map(|(_, v)| v.clone())
                .collect()
        };
        let _ = f.matches(&get);
    }
}

// ---------------------------------------------------------------------
// GridMap render → parse round-trip with generated identities.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gridmap_roundtrip(
        users in prop::collection::vec(("[A-Za-z][A-Za-z ]{0,14}", "[a-z][a-z0-9]{0,7}"), 1..8),
    ) {
        use infogram::gsi::{Dn, GridMap};
        let mut map = GridMap::new();
        // Later entries for the same DN replace earlier ones, as a
        // gridmap reload would; keep only the last per DN in the model.
        let mut expected: std::collections::BTreeMap<Dn, String> = Default::default();
        for (cn, account) in &users {
            let cn = cn.trim();
            if cn.is_empty() {
                continue;
            }
            let dn = Dn::user("Grid", "ANL", cn);
            map.add(dn.clone(), &[account]);
            expected.insert(dn, account.clone());
        }
        let reparsed = GridMap::parse(&map.render()).unwrap();
        for (dn, account) in expected {
            prop_assert_eq!(reparsed.lookup(&dn), Some(account.as_str()));
        }
    }
}

// ---------------------------------------------------------------------
// DSML/XML/LDIF agree on content for arbitrary single-line values and
// arbitrary per-attribute annotations: whatever the renderer hoists into
// the record's head or leaves on the attribute, `parse(render(r)) == r`.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn formats_agree_on_content(
        values in prop::collection::vec("[ -~]{0,20}", 1..5),
        // 0: every attribute carries the same quality and age; 1: all but
        // one do; 2: each its own draw (some `None`); 3: none annotated.
        shape in 0u8..4,
        odd in 0usize..4,
        // Drawn on the renderers' `.4` / `.3` grids, so text round-trips.
        shared in (0u32..10_001, 0u32..100_000),
        own in prop::collection::vec(
            (prop::option::of(0u32..10_001), prop::option::of(0u32..100_000)),
            4..5,
        ),
        stale_age in prop::option::of(0u32..100_000),
    ) {
        use infogram::proto::record::InfoRecord;
        use infogram::proto::render::{dsml, ldif, xml};
        let quality = |k: u32| f64::from(k) / 10_000.0;
        let age = |k: u32| f64::from(k) / 1_000.0;
        let mut rec = InfoRecord::new("Kw", "host.grid");
        rec.degraded = stale_age.is_some();
        rec.stale_age_secs = stale_age.map(age);
        for (i, v) in values.iter().enumerate() {
            let attr = rec.push(&format!("a{i}"), v);
            let (q, a) = match shape {
                0 => (Some(shared.0), Some(shared.1)),
                1 if i != odd % values.len() => (Some(shared.0), Some(shared.1)),
                1 | 2 => own[i],
                _ => (None, None),
            };
            attr.quality = q.map(quality);
            attr.age_secs = a.map(age);
        }
        let one = std::slice::from_ref(&rec);
        prop_assert_eq!(ldif::parse(&ldif::render(one)).as_slice(), one);
        prop_assert_eq!(xml::parse(&xml::render(one)).as_slice(), one);
        prop_assert_eq!(dsml::parse(&dsml::render(one)).as_slice(), one);
        if shape == 0 {
            // Said once: no per-attribute annotation is left on the wire.
            let text = ldif::render(one);
            prop_assert!(!text.contains(";quality") && !text.contains(";age"));
            prop_assert_eq!(text.matches("infogram-quality: ").count(), 1);
        }
    }
}

// ---------------------------------------------------------------------
// Persistent-query xRSL: client-built subscribe/unsubscribe requests
// parse back to exactly what the builder meant.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The render direction is the client's request builder (see
    /// `GramClient::subscribe`): fold keywords into
    /// `(action=subscribe)(info=k)…`. Parsing must recover the action
    /// and the exact selector list, in order.
    #[test]
    fn subscribe_request_roundtrip(
        keywords in prop::collection::vec("[A-Za-z][A-Za-z0-9]{0,11}", 1..6),
    ) {
        use infogram::rsl::xrsl::{RequestAction, XrslRequest};
        use infogram::rsl::InfoSelector;
        let text = keywords.iter().fold("(action=subscribe)".to_string(), |acc, k| {
            format!("{acc}(info={k})")
        });
        let req = XrslRequest::from_text(&text).unwrap();
        prop_assert_eq!(req.action, RequestAction::Subscribe);
        prop_assert_eq!(req.subscription, None);
        let got: Vec<String> = req
            .info
            .iter()
            .map(|s| match s {
                InfoSelector::Keyword(k) => k.clone(),
                other => panic!("unexpected selector {other:?}"),
            })
            .collect();
        prop_assert_eq!(got, keywords);
    }

    /// `(action=unsubscribe)(subscription=N)` recovers N for any id,
    /// and rendering through the client builder is the identity.
    #[test]
    fn unsubscribe_request_roundtrip(id in any::<u64>()) {
        use infogram::rsl::xrsl::{RequestAction, XrslRequest};
        let text = format!("(action=unsubscribe)(subscription={id})");
        let req = XrslRequest::from_text(&text).unwrap();
        prop_assert_eq!(req.action, RequestAction::Unsubscribe);
        prop_assert_eq!(req.subscription, Some(id));
        prop_assert!(req.info.is_empty());
    }
}

// ---------------------------------------------------------------------
// Record deltas: diff → apply reproduces the new record byte for byte,
// and batches survive the wire framing exactly.
// ---------------------------------------------------------------------

fn arb_record(keyword: &'static str) -> impl Strategy<Value = infogram::proto::record::InfoRecord> {
    use infogram::proto::record::{Attribute, InfoRecord};
    (
        prop::collection::vec(
            (
                "[a-z]{1,6}",
                "[ -~]{0,12}",
                prop::option::of(0.0f64..1.0),
                prop::option::of(0.0f64..1e6),
            ),
            0..6,
        ),
        any::<bool>(),
        prop::option::of(0.0f64..1e6),
    )
        .prop_map(move |(attrs, degraded, stale_age)| {
            let mut rec = InfoRecord::new(keyword, "node0.grid");
            // Distinct names: a record is a map rendered in provider
            // order, so the generator must not produce duplicates.
            let mut seen = std::collections::HashSet::new();
            for (name, value, quality, age) in attrs {
                if !seen.insert(name.clone()) {
                    continue;
                }
                let mut a = Attribute::new(&format!("{keyword}:{name}"), &value);
                a.quality = quality;
                a.age_secs = age;
                rec.attributes.push(a);
            }
            rec.degraded = degraded;
            rec.stale_age_secs = if degraded { stale_age } else { None };
            rec
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// For ANY pair of snapshots of a keyword, applying the diff to the
    /// old record reproduces the new one exactly — attributes, order,
    /// quality/age annotations, and the degraded/stale-age marks.
    #[test]
    fn delta_diff_apply_is_exact(
        prev in arb_record("K"),
        next in arb_record("K"),
        version in 1u64..1_000_000,
    ) {
        use infogram::proto::RecordDelta;
        let delta = RecordDelta::diff(Some(&prev), &next, version);
        let rebuilt = delta.apply(Some(&prev)).unwrap();
        prop_assert_eq!(rebuilt, next.clone());
        // And a cold start (no baseline) always works via a snapshot.
        let full = RecordDelta::diff(None, &next, version);
        prop_assert!(full.full);
        prop_assert_eq!(full.apply(None).unwrap(), next);
    }

    /// A delta batch encoded into an `Update` frame decodes to the
    /// identical batch through the public wire path.
    #[test]
    fn delta_batch_survives_the_update_frame(
        id in any::<u64>(),
        pairs in prop::collection::vec((arb_record("K"), arb_record("K")), 1..5),
        version in 1u64..1_000_000,
    ) {
        use infogram::proto::message::{update_frame, Reply};
        use infogram::proto::{encode_deltas, RecordDelta};
        let deltas: Vec<RecordDelta> = pairs
            .iter()
            .enumerate()
            .map(|(i, (prev, next))| RecordDelta::diff(Some(prev), next, version + i as u64))
            .collect();
        let frame = update_frame(id, &encode_deltas(&deltas));
        let Reply::Update { id: got_id, deltas: got } = Reply::decode(&frame).unwrap() else {
            panic!("expected an update frame");
        };
        prop_assert_eq!(got_id, id);
        prop_assert_eq!(got, deltas);
    }
}
