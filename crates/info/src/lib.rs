#![warn(missing_docs)]

//! The InfoGram information service.
//!
//! This crate implements the information half of the paper (§3, §5.1–5.2,
//! §6.2–6.5):
//!
//! * [`provider`] — information providers: "(a) calls to a system command
//!   via the Java runtime exec (b) a query to a function exposing Java
//!   runtime information such as load, memory, or disk space (c) or a
//!   read function from a file" (§6.2). Cases (a) and (b) exist here,
//!   over the simulated host; nothing configures a case (c) provider.
//! * [`entry::SystemInformation`] — the paper's `SystemInformation`
//!   interface: non-blocking `query_state`, blocking coalesced
//!   `update_state` guarded by a monitor, a `delay` throttle, TTL
//!   bookkeeping, and the per-keyword performance catalog behind the
//!   xRSL `performance` tag.
//! * [`quality`] — degradation functions and quality-of-information
//!   (§5.2, §6.4).
//! * [`config`] — the Table 1 configuration file format mapping
//!   `(TTL, keyword, command)`.
//! * [`schema`] — service reflection: the `(info=schema)` response
//!   (§6.5).
//! * [`service`] — the assembled [`service::InformationService`]
//!   answering selector lists with response modes, quality thresholds and
//!   filters.
//! * [`sched`] — the adaptive refresh scheduler: a central
//!   [`sched::RefreshScheduler`] that prefetches hot keywords just
//!   before TTL expiry (lead time from the §6.6 performance catalog),
//!   skips cold keywords, batches co-expiring refreshes through one
//!   `sim::par` fan-out, parks breaker-open keywords, and evicts
//!   misconfigured ones.
//! * [`sub`] — the persistent-query subscription index behind
//!   `(action=subscribe)`: per-keyword channels fan refreshed values
//!   out to subscribers as versioned record deltas, with slow-consumer
//!   eviction instead of unbounded buffering.
//! * [`supervisor`] — the per-keyword fault-domain supervisor: a
//!   Closed → Open → HalfOpen circuit breaker with non-blocking jittered
//!   backoff, bounded in-fetch retries, and deadline budgets; failed or
//!   budget-breached fetches serve the last-known-good snapshot tagged
//!   with its true age so the degradation function reports honest,
//!   degraded quality instead of an error.

pub mod config;
pub mod entry;
pub mod provider;
pub mod quality;
pub mod sched;
pub mod schema;
pub mod service;
pub mod sub;
pub mod supervisor;

pub use config::{ConfigEntry, ConfigError, ServiceConfig, TABLE1_TEXT};
pub use entry::{QueryError, Snapshot, SystemInformation};
pub use provider::{CommandProvider, FnProvider, InfoProvider, ProviderError, RuntimeProvider};
pub use quality::DegradationFn;
pub use sched::{RefreshScheduler, TickReport, WatchError};
pub use service::{InfoServiceError, InformationService};
pub use sub::{SinkClosed, SubSink, SubscriptionHub, JOBS_KEYWORD};
pub use supervisor::{Admission, BreakerState, Supervisor};
