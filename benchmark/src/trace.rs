//! Spans: who spent how long on which request.
//!
//! The benchmark records spans from its own files, around its calls into
//! each layer (spans inside the program are a later change). A span is
//! `(name, start, end, parent, request)`; spans of one request share the
//! request number. Every span's duration feeds the per-stage statistics;
//! the spans themselves stay in memory — only the first
//! [`SPANS_KEPT_PER_STAGE`] of each stage, which is plenty to read a
//! timeline from — and are written out when the run ends.

use crate::stats::{percentile, Stat};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans of each stage kept for the trace file (all of them are counted).
pub const SPANS_KEPT_PER_STAGE: usize = 256;

/// Index+1 of a span in its buffer; 0 means "no parent".
pub type SpanId = u32;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Stage name, `layer.stage`.
    pub name: &'static str,
    /// The span that caused this one (0 = root).
    pub parent: SpanId,
    /// Request number the span belongs to.
    pub request: u32,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// End, ns since the run's epoch.
    pub end_ns: u64,
}

/// An in-memory span buffer plus per-stage duration samples.
#[derive(Debug)]
pub struct SpanBuf {
    epoch: Instant,
    spans: Vec<Span>,
    durations: BTreeMap<&'static str, Vec<u32>>,
}

impl SpanBuf {
    /// An empty buffer; `epoch` is shared by every buffer of a run so
    /// their timelines line up.
    pub fn new(epoch: Instant) -> SpanBuf {
        SpanBuf {
            epoch,
            spans: Vec::with_capacity(8 * SPANS_KEPT_PER_STAGE),
            durations: BTreeMap::new(),
        }
    }

    /// The instant span times are counted from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Reserve room for `n` more samples of `stage`, so recording it does
    /// not allocate inside a timed loop.
    pub fn reserve(&mut self, stage: &'static str, n: usize) {
        self.durations.entry(stage).or_default().reserve(n);
    }

    /// Record one span; returns its id for children to name as parent.
    /// A span that is not kept (its stage already has enough) returns 0.
    pub fn span(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u32,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.span_scaled(name, parent, request, start, end, 1)
    }

    /// Record a span that covered `calls` back-to-back calls of the
    /// stage (nanosecond-scale functions are timed in batches so the
    /// timer does not dominate); the duration sample is the per-call mean.
    pub fn span_scaled(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u32,
        start: Instant,
        end: Instant,
        calls: u32,
    ) -> SpanId {
        let total = end.saturating_duration_since(start).as_nanos() as u64;
        let samples = self.durations.entry(name).or_default();
        samples.push((total / calls.max(1) as u64).min(u32::MAX as u64) as u32);
        if samples.len() > SPANS_KEPT_PER_STAGE {
            return 0;
        }
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns,
            end_ns: start_ns + total,
        });
        self.spans.len() as SpanId
    }

    /// Fold another buffer's samples and spans in (parents re-based).
    pub fn absorb(&mut self, other: SpanBuf) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != 0 {
                s.parent += base;
            }
            s
        }));
        for (name, mut d) in other.durations {
            self.durations.entry(name).or_default().append(&mut d);
        }
    }

    /// p50 / p99 / count of a stage's duration samples, in ns.
    pub fn stage(&self, name: &str) -> StageStat {
        let mut d = self.durations.get(name).cloned().unwrap_or_default();
        d.sort_unstable();
        StageStat {
            p50_ns: percentile(&d, 0.50) as f64,
            p99_ns: percentile(&d, 0.99) as f64,
            samples: d.len() as u64,
        }
    }

    /// Every stage that has at least one sample, in name order.
    pub fn stage_names(&self) -> Vec<&'static str> {
        self.durations.keys().copied().collect()
    }

    /// Spans recorded (kept or not).
    pub fn total_spans(&self) -> u64 {
        self.durations.values().map(|d| d.len() as u64).sum()
    }

    /// The kept spans.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the kept spans as JSON.
    pub fn write_json(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{{header},")?;
        writeln!(
            out,
            "\"spans_recorded\": {}, \"spans_written\": {},",
            self.total_spans(),
            self.spans.len()
        )?;
        writeln!(out, "\"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\": {}, \"name\": \"{}\", \"parent\": {}, \"request_id\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}{comma}",
                i + 1,
                s.name,
                s.parent,
                s.request,
                s.start_ns,
                s.end_ns
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Duration statistics of one stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageStat {
    /// Median, ns.
    pub p50_ns: f64,
    /// 99th percentile, ns.
    pub p99_ns: f64,
    /// Samples behind them.
    pub samples: u64,
}

impl StageStat {
    /// The median as a reportable number, divided by `per_unit` (1 for
    /// ns, 1000 for µs).
    pub fn stat(&self, per_unit: f64) -> Stat {
        Stat {
            value: self.p50_ns / per_unit,
            min: self.p50_ns / per_unit,
            max: self.p99_ns / per_unit,
            samples: self.samples,
        }
    }
}

/// One row of the budget table.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetRow {
    /// Stage name; children are indented under the stage that contains them.
    pub stage: String,
    /// Nesting depth (0 = on the request's blocking path).
    pub depth: usize,
    /// Median, µs.
    pub p50_us: f64,
    /// 99th percentile, µs.
    pub p99_us: f64,
    /// Median minus the medians of its children, µs.
    pub self_us: f64,
}

/// Self time per row: a stage's p50 minus the p50s of the rows nested
/// directly under it.
pub fn fill_self_times(rows: &mut [BudgetRow]) {
    for i in 0..rows.len() {
        let depth = rows[i].depth;
        let mut children = 0.0;
        for row in &rows[i + 1..] {
            if row.depth <= depth {
                break;
            }
            if row.depth == depth + 1 {
                children += row.p50_us;
            }
        }
        rows[i].self_us = rows[i].p50_us - children;
    }
}

/// Sum of the top-level rows: the part of a request some stage owns.
pub fn stage_sum_us(rows: &[BudgetRow]) -> f64 {
    rows.iter().filter(|r| r.depth == 0).map(|r| r.p50_us).sum()
}

/// Print the budget table against the end-to-end median.
pub fn print_budget(workload: &str, rows: &[BudgetRow], e2e_p50_us: f64) {
    println!();
    println!("budget table — {workload} (share = self time ÷ untraced end-to-end p50 {e2e_p50_us:.2} µs)");
    println!(
        "{:<40} {:>10} {:>10} {:>10} {:>8}",
        "stage", "p50 µs", "p99 µs", "self µs", "share"
    );
    for r in rows {
        println!(
            "{:<40} {:>10.3} {:>10.3} {:>10.3} {:>7.1}%",
            format!("{}{}", "  ".repeat(r.depth), r.stage),
            r.p50_us,
            r.p99_us,
            r.self_us,
            100.0 * r.self_us / e2e_p50_us
        );
    }
    let sum = stage_sum_us(rows);
    println!(
        "{:<40} {:>10.3} {:>10} {:>10} {:>7.1}%",
        "Σ stages",
        sum,
        "",
        "",
        100.0 * sum / e2e_p50_us
    );
    println!(
        "{:<40} {:>10.3} {:>10} {:>10} {:>7.1}%",
        "unaccounted",
        e2e_p50_us - sum,
        "",
        "",
        100.0 * (1.0 - sum / e2e_p50_us)
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_keep_parent_links_and_all_durations_count() {
        let epoch = Instant::now();
        let mut buf = SpanBuf::new(epoch);
        let t = |us: u64| epoch + Duration::from_micros(us);
        let root = buf.span("a.root", 0, 7, t(0), t(10));
        let child = buf.span("a.child", root, 7, t(2), t(5));
        assert_eq!((root, child), (1, 2));
        assert_eq!(buf.spans()[1].parent, 1);
        assert_eq!(buf.spans()[1].start_ns, 2_000);
        assert_eq!(buf.spans()[1].end_ns, 5_000);
        for i in 0..(SPANS_KEPT_PER_STAGE as u64 + 10) {
            buf.span("a.many", 0, i as u32, t(i), t(i + 1));
        }
        // Only the first SPANS_KEPT_PER_STAGE are kept, all are counted.
        assert_eq!(buf.spans().len(), 2 + SPANS_KEPT_PER_STAGE);
        assert_eq!(
            buf.stage("a.many").samples,
            SPANS_KEPT_PER_STAGE as u64 + 10
        );
        assert_eq!(buf.stage("a.many").p50_ns, 1_000.0);
        assert_eq!(buf.stage("nothing").samples, 0);
    }

    #[test]
    fn batched_span_records_per_call_mean() {
        let epoch = Instant::now();
        let mut buf = SpanBuf::new(epoch);
        buf.span_scaled("x", 0, 0, epoch, epoch + Duration::from_nanos(6_400), 64);
        assert_eq!(buf.stage("x").p50_ns, 100.0);
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = SpanBuf::new(epoch);
        a.span("r", 0, 0, epoch, epoch);
        let mut b = SpanBuf::new(epoch);
        let r = b.span("r", 0, 1, epoch, epoch);
        b.span("c", r, 1, epoch, epoch);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, 2);
        assert_eq!(a.stage("r").samples, 2);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let row = |stage: &str, depth, p50_us| BudgetRow {
            stage: stage.to_string(),
            depth,
            p50_us,
            p99_us: p50_us,
            self_us: 0.0,
        };
        let mut rows = vec![
            row("encode", 0, 1.0),
            row("dispatch", 0, 10.0),
            row("parse", 1, 2.0),
            row("answer", 1, 5.0),
            row("fetch", 2, 4.0),
            row("decode", 0, 3.0),
        ];
        fill_self_times(&mut rows);
        assert_eq!(rows[1].self_us, 3.0);
        assert_eq!(rows[3].self_us, 1.0);
        assert_eq!(rows[0].self_us, 1.0);
        assert_eq!(stage_sum_us(&rows), 14.0);
    }
}
