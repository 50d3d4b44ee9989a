#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), warn(clippy::disallowed_methods))]

//! InfoGram: the unified information + job-execution grid service.
//!
//! The paper's contribution (§1, §6): the Globus Toolkit ran two separate
//! services — GRAM for jobs, MDS for information — "with different wire
//! protocols", and "this complexity can be reduced significantly" because
//! both are "a query formulated and submitted to a server followed by a
//! stream of information that returns the result based on the query."
//!
//! InfoGram is one gatekeeper, one port, one protocol: an xRSL
//! specification either submits a job (`(executable=...)`) or queries
//! information (`(info=...)`), and everything else — GSI authentication,
//! gridmap/contract authorization, logging and restart, callbacks —
//! is shared.
//!
//! * [`dispatch`] — the unified request dispatcher that tells the two
//!   request kinds apart and applies the xRSL extension tags (`response`,
//!   `quality`, `performance`, `format`, `filter`).
//! * [`service`] — assembly: host + providers + engine + gatekeeper in
//!   one [`service::InfoGramService`], with restart-from-log.
//! * [`mds_bridge`] — backwards compatibility: expose the same
//!   information through a GRIS/GIIS so existing MDS clients keep working
//!   ("we provide the option to move to a different Information provider
//!   while enabling a gradual transition").
//! * [`accounting`] — the simple grid accounting derived from the
//!   logging service.

pub mod accounting;
pub mod dispatch;
pub mod mds_bridge;
pub mod service;

pub use dispatch::InfoGramDispatcher;
pub use service::{InfoGramParams, InfoGramService};
