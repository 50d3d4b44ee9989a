#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), warn(clippy::disallowed_methods))]

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
//!   xRSL `performance` tag. Each entry is also its own fault domain: a
//!   Closed → Open → HalfOpen circuit breaker with jittered backoff,
//!   bounded in-fetch retries and deadline budgets, all under the
//!   entry's one lock and one `refresh(cause)` path; a failed or gated
//!   query is answered from the cache, tagged with its true age.
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

pub mod config;
pub mod entry;
pub mod provider;
pub mod quality;
pub mod sched;
pub mod schema;
pub mod service;
pub mod sub;

pub use config::{ConfigEntry, ConfigError, ServiceConfig, TABLE1_TEXT};
pub use entry::{BreakerState, Cause, QueryError, Snapshot, SystemInformation};
pub use provider::{CommandProvider, FnProvider, InfoProvider, ProviderError, RuntimeProvider};
pub use quality::DegradationFn;
pub use sched::{RefreshScheduler, TickReport, WatchError};
pub use service::{InfoServiceError, InformationService};
pub use sub::{jobs_entry, SubscriptionHub, JOBS_KEYWORD};
