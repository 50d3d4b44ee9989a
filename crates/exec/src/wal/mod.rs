//! The logging service: crash-consistent write-ahead log, restart
//! recovery, accounting.
//!
//! §6 of the paper: "Logging and check pointing is enabled through a
//! logging service. ... In either case the log can be used to restart our
//! InfoGRAM service in case it needs to be restarted (e.g. the machine was
//! shut down). ... Presently, we only record minimal information such as
//! the command used and arguments executed. We intend to use this logging
//! service to provide simple Grid accounting."
//!
//! Faithful to that: the log records submissions (the xRSL text — the
//! command and arguments), state changes, and completions; [`RecoveredState`]
//! rebuilds the job table from it; [`CheckpointState::accounts`] is the
//! per-account usage report. An information query has nothing to restart:
//! it is counted ([`Wal::info_query_counter`]), not logged.
//!
//! # Durability model (DESIGN §14)
//!
//! The log is a sequence of **segments** held by a [`WalStorage`]
//! (in-memory for the simulator, one file per segment on disk). Each
//! segment is a sequence of **frames**: `[len: u32 LE][crc32: u32 LE]
//! [payload]`. Recovery scans every frame; a frame that runs past the end
//! of the segment is a *torn tail* (truncate and continue — the write
//! never completed), while a fully-present frame with a bad checksum is
//! *mid-log corruption* (skip, count in `wal.corrupt_frames`).
//!
//! Critical events go through [`Wal::commit`], which group-commits: the
//! calling thread enqueues its payloads and blocks on a commit ticket
//! until a leader has flushed the whole batch with one durable append
//! (one fsync). Only then is the submission acked. A failed flush flips
//! the log read-only for `WalConfig::retry_after`; the engine surfaces
//! that as `UNAVAILABLE` + retry-after rather than silently acking.
//!
//! Periodic [`WalEvent::Checkpoint`] records carry the folded job table
//! so recovery replays checkpoint + tail instead of the whole history;
//! segments older than the checkpoint are reclaimed.
//!
//! Lock classes (DESIGN §13): `exec.wal.queue` (commit queue; waiters
//! hold only this lock, released inside the `exec.wal.commit_cv` wait,
//! so commits are legal anywhere the engine holds no other lock),
//! `exec.wal.io` (owns the sink and the in-memory fold: every write,
//! checkpoint and read of either happens under it), `exec.wal.degraded`
//! (read-only latch), `exec.wal.mem_storage` / `exec.wal.file_storage`
//! (leaf locks inside the storages; the sink has none). Commits must never
//! run under `exec.engine.jobs`: the ticket wait is a blocking point.
//!
//! # Files, and the decision each owns
//!
//! - `event` — the text codec: record tags, field escaping, the
//!   checkpoint payload.
//! - `fold` — what the log amounts to: job table (rows in shared chunks,
//!   one interned principal per row), accounting, how each event changes
//!   them.
//! - `frame` — the frame layout, the CRC, damage classification.
//! - `storage` — numbered byte segments: the simulator's crashable disk
//!   and real files.
//! - `sink` — frames over a storage: segment rotation, poisoning,
//!   reclamation.
//! - `commit` — the [`Wal`]: group commit, relaxed records, *when* a
//!   checkpoint is due ([`WalConfig`]), read-only degradation, the
//!   per-account query counters.

mod commit;
mod event;
mod fold;
mod frame;
mod sink;
mod storage;

pub use commit::{Wal, WalConfig, WalError};
pub use event::WalEvent;
pub use fold::{AccountUsage, CheckpointState, JobRows, RecoveredJob, RecoveredState, Rows};
pub(crate) use fold::{NamePool, Principal};
pub use frame::{RecoveryStats, IO_BUF};
pub use sink::{FileWal, FrameWal};
pub use storage::{FileStorage, MemStorage, WalStorage};
