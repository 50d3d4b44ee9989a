#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), warn(clippy::disallowed_methods))]

//! MDS: the Monitoring and Directory Service baseline.
//!
//! §3–4 of the paper describe the Globus information service the
//! InfoGram replaces: "The Globus Grid information service, MDS, contains
//! two fundamental entities: distributed information providers and
//! information aggregates" — the per-resource **GRIS** and the
//! organization-level **GIIS**, queried over LDAP.
//!
//! This crate is that baseline, end to end:
//!
//! * [`filter`] — RFC-2254-style search filters
//!   (`(&(objectclass=*)(Memory-free>=1000))`), parsed from text and
//!   evaluated against entries;
//! * [`dit`] — the directory information tree with base/one/sub scopes;
//! * [`gris`] — a GRIS over an `infogram-info` information service;
//! * [`giis`] — the aggregate with MDS-2.0-style result caching;
//! * [`protocol`] — MDS's own wire protocol (bind/search/unbind) —
//!   deliberately *different* from the GRAM protocol, because that very
//!   difference is what Figure 2 charges the baseline for;
//! * [`service`] / [`client`] — a network-facing MDS server
//!   ([`service::serve`]) and client.

pub mod client;
pub mod dit;
pub mod filter;
pub mod giis;
pub mod gris;
pub mod protocol;
pub mod service;

pub use client::MdsClient;
pub use dit::{DirEntry, DirectoryTree, Scope};
pub use filter::Filter;
pub use giis::Giis;
pub use gris::Gris;
