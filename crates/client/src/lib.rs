#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), warn(clippy::disallowed_methods))]

//! Client APIs for the InfoGram reproduction.
//!
//! Two clients embody the paper's comparison:
//!
//! * [`InfoGramClient`] — one connection, one protocol (Figure 4): job
//!   submission *and* information queries through the same xRSL channel,
//!   with a typed [`QueryBuilder`] for the extension tags.
//! * [`DualClient`] — the baseline (Figure 2): "two different mechanisms
//!   for contacting these services must be used. Not only do the services
//!   operate through different ports, but they also use different
//!   protocols." It holds a GRAM connection for jobs and an MDS session
//!   for information.
//!
//! Both are built on [`GramClient`], the GRAMP-level client (connect,
//! authenticate, submit/status/cancel, asynchronous event callbacks).

pub mod dual;
pub mod gram;
pub mod unified;

pub use dual::DualClient;
pub use gram::{ClientError, GramClient};
pub use unified::{InfoGramClient, QueryBuilder, QueryResult, SubUpdate};
