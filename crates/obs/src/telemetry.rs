//! The shared [`Telemetry`] handle: a named bag of every instrument.

use crate::events::{Event, EventRing};
use crate::histogram::Histogram;
use crate::metrics::{Counter, Gauge, Recorder};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A named, shareable set of counters, gauges, histograms, recorders, and
/// a ring of recent events.
///
/// Cloning is cheap and every clone observes the same state, so one handle
/// is created per service and threaded through the dispatcher, the
/// connection loop, the information cache, and the job engine. Looking up
/// a name that does not exist creates the instrument, so instrumentation
/// points never need registration boilerplate.
///
/// Instruments are *interned*: every lookup of the same name returns a
/// clone of the same `Arc`, so hot paths should resolve their handles
/// once (at registration/construction time) and then increment through
/// the cached `Arc` — a lock-free atomic op with no name formatting, no
/// map lookup, and no allocation per event. The info service's
/// per-keyword counters and the dispatcher's per-kind histograms both
/// work this way.
#[derive(Debug, Default, Clone)]
pub struct Telemetry {
    inner: Arc<TelemetryInner>,
}

#[derive(Debug, Default)]
struct TelemetryInner {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    recorders: Mutex<BTreeMap<String, Arc<Recorder>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    events: EventRing,
}

/// How many of the newest ring events [`Telemetry::snapshot_attrs`]
/// includes, keeping a `(info=metrics)` reply readable.
const SNAPSHOT_EVENTS: usize = 8;

impl Telemetry {
    /// A fresh, empty telemetry set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get (or create) the counter with this name.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.inner.counters.lock();
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::default())),
        )
    }

    /// Get (or create) the gauge with this name.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.inner.gauges.lock();
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Gauge::default())),
        )
    }

    /// Get (or create) the count + mean recorder with this name.
    pub fn recorder(&self, name: &str) -> Arc<Recorder> {
        let mut map = self.inner.recorders.lock();
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Recorder::default())),
        )
    }

    /// Get (or create) the latency histogram with this name.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.inner.histograms.lock();
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::default())),
        )
    }

    /// Append a structured event to the shared ring. `at_secs` is the
    /// service clock reading, in seconds since the service epoch.
    pub fn event(&self, at_secs: f64, kind: &str, detail: &str) -> u64 {
        self.inner.events.push(at_secs, kind, detail)
    }

    /// The retained recent events, oldest first.
    pub fn recent_events(&self) -> Vec<Event> {
        self.inner.events.recent()
    }

    /// Current value of a counter (0 if it was never touched).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.inner
            .counters
            .lock()
            .get(name)
            .map(|c| c.get())
            .unwrap_or(0)
    }

    /// Current value of a gauge (0 if it was never touched).
    pub fn gauge_value(&self, name: &str) -> f64 {
        self.inner
            .gauges
            .lock()
            .get(name)
            .map(|g| g.get())
            .unwrap_or(0.0)
    }

    /// Names and values of all counters, sorted by name.
    pub fn counters_snapshot(&self) -> Vec<(String, u64)> {
        self.inner
            .counters
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// Flatten the whole telemetry state into `(attribute, value)` pairs,
    /// sorted by attribute name — the payload of the `Metrics:` key
    /// information provider.
    ///
    /// The attribute schema (documented in DESIGN.md):
    ///
    /// * counters and gauges appear under their own dotted names;
    /// * each histogram `h` contributes `h.count`, `h.mean_ms`,
    ///   `h.p50_ms`, `h.p95_ms`, and `h.p99_ms`;
    /// * each recorder `r` contributes `r.count` and `r.mean_ms`;
    /// * the event ring contributes `events.recorded` plus the newest
    ///   events as `event.<seq>`;
    /// * the lock-order analyzer contributes `lockdep.classes`,
    ///   `lockdep.edges`, and `lockdep.findings` (all zero when lockdep
    ///   is disabled, e.g. release builds).
    pub fn snapshot_attrs(&self) -> Vec<(String, String)> {
        let mut attrs: BTreeMap<String, String> = BTreeMap::new();
        let lockdep = parking_lot::lockdep::counts();
        attrs.insert("lockdep.classes".to_string(), lockdep.classes.to_string());
        attrs.insert("lockdep.edges".to_string(), lockdep.edges.to_string());
        attrs.insert("lockdep.findings".to_string(), lockdep.findings.to_string());
        for (name, c) in self.inner.counters.lock().iter() {
            attrs.insert(name.clone(), c.get().to_string());
        }
        for (name, g) in self.inner.gauges.lock().iter() {
            attrs.insert(name.clone(), format_f64(g.get()));
        }
        for (name, h) in self.inner.histograms.lock().iter() {
            attrs.insert(format!("{name}.count"), h.count().to_string());
            attrs.insert(format!("{name}.mean_ms"), format_ms(h.mean_secs()));
            attrs.insert(format!("{name}.p50_ms"), format_ms(h.quantile_secs(0.50)));
            attrs.insert(format!("{name}.p95_ms"), format_ms(h.quantile_secs(0.95)));
            attrs.insert(format!("{name}.p99_ms"), format_ms(h.quantile_secs(0.99)));
        }
        for (name, r) in self.inner.recorders.lock().iter() {
            attrs.insert(format!("{name}.count"), r.count().to_string());
            attrs.insert(format!("{name}.mean_ms"), format_ms(r.mean()));
        }
        attrs.insert(
            "events.recorded".to_string(),
            self.inner.events.total_pushed().to_string(),
        );
        let recent = self.inner.events.recent();
        let newest = recent.len().saturating_sub(SNAPSHOT_EVENTS);
        for ev in &recent[newest..] {
            attrs.insert(
                format!("event.{}", ev.seq),
                format!("[t={:.3}s] {}: {}", ev.at_secs, ev.kind, ev.detail),
            );
        }
        attrs.into_iter().collect()
    }
}

/// Seconds → milliseconds with fixed 3-decimal precision.
fn format_ms(secs: f64) -> String {
    format!("{:.3}", secs * 1e3)
}

/// Gauge rendering: plain integers stay integral, fractions keep 3 places.
fn format_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn counters_accumulate() {
        let t = Telemetry::new();
        t.counter("jobs").incr();
        t.counter("jobs").add(4);
        assert_eq!(t.counter_value("jobs"), 5);
        assert_eq!(t.counter_value("never"), 0);
    }

    #[test]
    fn handles_are_interned() {
        // Repeated lookups return the same Arc, so a handle cached at
        // registration time stays wired to the instrument every later
        // lookup (and snapshot) observes.
        let t = Telemetry::new();
        let c1 = t.counter("info.hits.Memory");
        let c2 = t.counter("info.hits.Memory");
        assert!(Arc::ptr_eq(&c1, &c2));
        let g1 = t.gauge("g");
        assert!(Arc::ptr_eq(&g1, &t.gauge("g")));
        let h1 = t.histogram("h");
        assert!(Arc::ptr_eq(&h1, &t.histogram("h")));
        let r1 = t.recorder("r");
        assert!(Arc::ptr_eq(&r1, &t.recorder("r")));
        // Increments through the cached handle are visible by name.
        c1.incr();
        assert_eq!(t.counter_value("info.hits.Memory"), 1);
    }

    #[test]
    fn counters_shared_across_clones() {
        let t = Telemetry::new();
        let t2 = t.clone();
        t.counter("x").incr();
        t2.counter("x").incr();
        assert_eq!(t.counter_value("x"), 2);
    }

    #[test]
    fn recorder_shared_by_name() {
        let t = Telemetry::new();
        t.recorder("lat").record(1.0);
        t.recorder("lat").record(3.0);
        assert_eq!(t.recorder("lat").count(), 2);
        assert!((t.recorder("lat").mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn snapshot_sorted_by_name() {
        let t = Telemetry::new();
        t.counter("b").incr();
        t.counter("a").add(2);
        let snap = t.counters_snapshot();
        assert_eq!(snap, vec![("a".to_string(), 2), ("b".to_string(), 1)]);
    }

    #[test]
    fn concurrent_increments() {
        let t = Telemetry::new();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let t = t.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        t.counter("c").incr();
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert_eq!(t.counter_value("c"), 8000);
    }

    #[test]
    fn snapshot_attrs_covers_every_instrument() {
        let t = Telemetry::new();
        t.counter("requests.info").add(3);
        t.gauge("queue.depth").set(2.0);
        t.histogram("dispatch.latency")
            .record(Duration::from_millis(5));
        t.recorder("refresh.latency").record(0.25);
        t.event(1.5, "job.state", "job 1: Pending -> Active");

        let attrs: BTreeMap<String, String> = t.snapshot_attrs().into_iter().collect();
        assert_eq!(attrs["requests.info"], "3");
        assert_eq!(attrs["queue.depth"], "2");
        assert_eq!(attrs["dispatch.latency.count"], "1");
        assert!(attrs.contains_key("dispatch.latency.p95_ms"));
        assert_eq!(attrs["refresh.latency.count"], "1");
        assert_eq!(attrs["refresh.latency.mean_ms"], "250.000");
        assert_eq!(attrs["events.recorded"], "1");
        assert!(attrs["event.1"].contains("Pending -> Active"));

        // Sorted by attribute name.
        let names: Vec<&String> = attrs.keys().collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn snapshot_attrs_caps_event_spam() {
        let t = Telemetry::new();
        for i in 0..100 {
            t.event(i as f64, "tick", "spam");
        }
        let events: Vec<_> = t
            .snapshot_attrs()
            .into_iter()
            .filter(|(k, _)| k.starts_with("event."))
            .collect();
        assert_eq!(events.len(), 8);
        let total = t
            .snapshot_attrs()
            .into_iter()
            .find(|(k, _)| k == "events.recorded")
            .unwrap();
        assert_eq!(total.1, "100");
    }
}
