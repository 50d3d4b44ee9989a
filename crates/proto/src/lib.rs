#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), warn(clippy::disallowed_methods))]

//! Wire protocol for the InfoGram reproduction.
//!
//! The paper's central architectural claim is that job execution and
//! information query are "based on the same principle: a query formulated
//! and submitted to a server followed by a stream of information that
//! returns the result" — so **one** protocol suffices where Globus used
//! two (GRAMP for GRAM, LDAP for MDS). This crate is that one protocol:
//!
//! * [`message`] — the GRAMP-shaped request/reply vocabulary (submit,
//!   status, cancel, callback registration, events) with a compact binary
//!   encoding. Info queries travel as ordinary submits whose RSL carries
//!   `(info=...)` tags.
//! * [`handle`] — GlobusID-style job contact handles
//!   (`x-infogram://host:port/jobid/epoch` to a user; their four fields
//!   on the wire).
//! * [`record`] — information records: namespaced attributes with
//!   quality-of-information annotations.
//! * [`render`] — LDIF, XML, and plain renderers for records (§6.6
//!   `format` tag), including a from-scratch base64 for LDIF-unsafe
//!   values.
//! * [`delta`] — changed-attributes-only payloads for push
//!   subscriptions (`(action=subscribe)`): versioned, gap-detectable,
//!   renderer-round-trippable.
//! * [`outbox`] — bounded per-connection frame queues with
//!   slow-consumer eviction, the backpressure half of the push path.
//! * [`frame`] — length-prefixed framing, one write per frame.
//! * [`transport`] — the [`transport::Transport`] abstraction with an
//!   in-memory channel network (deterministic, latency-modelled) and a
//!   real TCP implementation.
//!
//! The separate LDAP-flavoured protocol of the MDS baseline lives in
//! `infogram-mds` — its existence *is* the baseline condition of
//! Figures 2 and 4.

pub mod delta;
pub mod frame;
pub mod handle;
pub mod message;
pub mod outbox;
pub mod record;
pub mod render;
pub mod transport;

pub use delta::{encode_deltas, DeltaError, RecordDelta};
pub use frame::{read_frame, write_frame, MAX_FRAME_LEN};
pub use handle::JobHandle;
pub use message::{codes, JobStateCode, Reply, Request, WireError};
pub use outbox::{drain_all, Outbox, OutboxError};
pub use record::{Attribute, InfoRecord};
pub use transport::{Conn, Listener, ProtoError, Transport};
