#![warn(missing_docs)]

//! J-GRAM: the job execution service.
//!
//! §7 of the paper: "we have implemented a pure Java implementation [of
//! the] Globus GRAM service that provides much the same functionality than
//! its C-based counterpart. ... It contains a gatekeeper, job manager, and
//! a local job execution process. We name this service J-GRAM."
//!
//! This crate is that service, over the simulated substrate:
//!
//! * [`backend`] — the backend tier: fork, batch-queue (PBS/LSF-style),
//!   and matchmaker (Condor-style) local schedulers, plus the sandboxed
//!   jarlet backend for untrusted jobs (§7 "Secure Sandboxing").
//! * [`engine`] — the job table and per-job lifecycle management
//!   (submission, status, cancellation, `maxtime`/`timeout` enforcement,
//!   automatic restart on failure per §6.1, and event callbacks).
//! * [`wal`] — the logging service (§6): an append-only log of
//!   submissions and state changes "used to restart our InfoGRAM service
//!   in case it needs to be restarted", plus the simple grid accounting
//!   the paper plans on top of it.
//! * [`sandbox`] — the jarlet interpreter: capability-policed execution
//!   of untrusted programs, in-process or isolated.
//! * [`gram`] — the wire-facing GRAM server (gatekeeper: handshake,
//!   gridmap mapping, per-connection request loop). This is the
//!   *baseline* service of Figure 2; it answers job requests only and
//!   rejects `(info=...)` queries — that is exactly the architectural
//!   deficiency InfoGram removes.

pub mod backend;
pub mod engine;
pub mod gram;
pub mod sandbox;
pub mod wal;

pub use backend::{
    BackendError, BackendJobRef, BackendStatus, ExecBackend, ForkBackend, JarletBackend,
    QueueBackend,
};
pub use engine::{EngineConfig, JobEngine, SubmitError};
pub use gram::{
    ConnCtx, GramServer, JobsOnlyDispatcher, RequestDispatcher, DEFAULT_OUTBOX_CAPACITY,
};
pub use sandbox::{ExecMode, Jarlet, Policy, SandboxOutcome};
pub use wal::{
    AccountUsage, CheckpointState, FileStorage, FileWal, FrameWal, MemStorage, RecoveredJob,
    RecoveredState, RecoveryStats, Wal, WalConfig, WalError, WalEvent, WalStorage,
};
