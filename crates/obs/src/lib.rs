#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), warn(clippy::disallowed_methods))]

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
//! * [`Recorder`] — streaming count + mean of unitless samples, O(1)
//!   memory.
//! * [`Telemetry`] — the named, shareable bag of all of the above.
//! * [`stats`] — the Welford accumulator backing the paper's
//!   `performance` tag (§6.6).

pub mod histogram;
pub mod metrics;
pub mod stats;
pub mod telemetry;

pub use histogram::Histogram;
pub use metrics::{Counter, Gauge, Recorder};
pub use stats::Welford;
pub use telemetry::Telemetry;

/// Backwards-compatible name: the pre-telemetry bench harness called the
/// shared handle a "metric set".
pub type MetricSet = Telemetry;
