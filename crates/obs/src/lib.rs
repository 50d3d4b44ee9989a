#![warn(missing_docs)]

//! Telemetry layer for the InfoGram reproduction.
//!
//! The paper's central claim (§6.6) is that one protocol should carry both
//! information queries and job execution; this crate exists so the service
//! can apply that claim to *itself*. Every InfoGram subsystem — the unified
//! dispatcher, the GRAM connection loop, the information cache, the job
//! engine and its WAL — records into a shared [`Telemetry`] handle, and the
//! `Metrics:` key information provider (in `infogram-info`) serves that
//! state back over the same xRSL `(info=...)` path as any §6.3 Table-1
//! provider. Nothing here knows about the wire protocol; this crate is the
//! bottom of the dependency stack (only `parking_lot` below it).
//!
//! The vocabulary:
//!
//! * [`Counter`] — monotonically increasing event count.
//! * [`Gauge`] — instantaneous level that can move both ways.
//! * [`Histogram`] — fixed log₂-bucket latency histogram (lock-free).
//! * [`Recorder`] — streaming count + mean, O(1) memory.
//! * [`EventRing`] — bounded ring of recent structured [`Event`]s.
//! * [`Telemetry`] — the named, shareable bag of all of the above.
//! * [`stats`] — Welford accumulators and percentile summaries backing
//!   the paper's `performance` tag (§6.6).

pub mod events;
pub mod histogram;
pub mod metrics;
pub mod stats;
pub mod telemetry;

pub use events::{Event, EventRing};
pub use histogram::Histogram;
pub use metrics::{Counter, Gauge, Recorder};
pub use stats::{Summary, Welford};
pub use telemetry::Telemetry;

/// Backwards-compatible name: the pre-telemetry bench harness called the
/// shared handle a "metric set".
pub type MetricSet = Telemetry;
