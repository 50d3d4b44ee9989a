#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), warn(clippy::disallowed_methods))]

//! # InfoGram
//!
//! A Rust reproduction of *"InfoGram: A Grid Service that Supports Both
//! Information Queries and Job Execution"* (von Laszewski, Gawor, Peña,
//! Foster — HPDC-11, 2002).
//!
//! The Globus Toolkit of 2002 ran two separate services: **GRAM** for job
//! execution and **MDS** for resource information, each with its own wire
//! protocol, port, and deployment. The paper's observation is that both
//! are "a query formulated and submitted to a server followed by a stream
//! of information that returns the result based on the query" — so one
//! service can do both. This workspace rebuilds that whole world:
//!
//! | crate | role |
//! |---|---|
//! | [`sim`] | clocks (virtual + system), deterministic RNG, simulated links, stats, workloads |
//! | [`host`] | simulated machines: CPU-load processes, memory/disk, commands, fork and batch pools |
//! | [`gsi`] | simulated Grid Security Infrastructure: CAs, proxy chains, gridmap, contracts |
//! | [`rsl`] | the RSL language + the paper's xRSL extension tags |
//! | [`proto`] | the unified wire protocol, LDIF/XML renderers, in-memory + TCP transports |
//! | [`info`] | information providers, TTL caching with monitors, degradation/quality, schema |
//! | [`exec`] | J-GRAM: gatekeeper, job engine, fork/batch/matchmaker backends, sandbox, WAL |
//! | [`mds`] | the *baseline*: an LDAP-style GRIS/GIIS with its own protocol |
//! | [`core`] | **InfoGram itself**: one gatekeeper serving both request kinds |
//! | [`client`] | the unified client and the two-connection baseline client |
//!
//! ## Quickstart
//!
//! ```
//! use infogram::quickstart::Sandbox;
//!
//! // A self-contained in-process grid: one host, one InfoGram service,
//! // one authenticated client.
//! let sandbox = Sandbox::start();
//! let mut client = sandbox.connect_client();
//!
//! // Information query — one of Table 1's keywords:
//! let result = client.info("Memory").unwrap();
//! assert_eq!(result.record_count, 1);
//!
//! // Job submission over the same connection and protocol:
//! let handle = client
//!     .submit("(executable=simwork)(arguments=50)", false)
//!     .unwrap();
//! let (state, exit, _out) = client
//!     .wait_terminal(&handle, std::time::Duration::from_millis(5),
//!                    std::time::Duration::from_secs(5))
//!     .unwrap();
//! assert_eq!(state.to_string(), "DONE");
//! assert_eq!(exit, Some(0));
//! sandbox.shutdown();
//! ```

pub use infogram_client as client;
pub use infogram_core as core;
pub use infogram_exec as exec;
pub use infogram_gsi as gsi;
pub use infogram_host as host;
pub use infogram_info as info;
pub use infogram_mds as mds;
pub use infogram_obs as obs;
pub use infogram_proto as proto;
pub use infogram_rsl as rsl;
pub use infogram_sim as sim;

pub mod quickstart;

/// README.md's code blocks, compiled and run as this crate's doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
