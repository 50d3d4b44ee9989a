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
//! per-account usage report.
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
//! hold only this lock, released inside the condvar wait, so commits are
//! legal anywhere the engine holds no other lock), `exec.wal.io`
//! (serializes sink I/O and the in-memory fold), `exec.wal.degraded`
//! (read-only latch), `exec.wal.frames` / `exec.wal.mem_storage` /
//! `exec.wal.file_storage` (leaf locks inside sinks and storages).
//! Commits must never run under `exec.engine.jobs`: the ticket wait is a
//! blocking point.

use infogram_proto::message::JobStateCode;
use infogram_sim::fault::{AppendVerdict, DiskFaultPlan, SyncVerdict, DISK_CRASHED_DETAIL};
use infogram_sim::metrics::MetricSet;
use infogram_sim::SimTime;
use parking_lot::{lock_class, Condvar, Mutex};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fmt::{self, Write as _};
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEP: char = '\x1f';

/// One logged event.
#[derive(Debug, Clone, PartialEq)]
pub enum WalEvent {
    /// The service (re)started with this epoch.
    ServiceStarted {
        /// Restart generation.
        epoch: u64,
    },
    /// A job was accepted.
    Submitted {
        /// Engine-local job id.
        job_id: u64,
        /// The full xRSL text — "the command used and arguments".
        rsl: String,
        /// The grid identity (DN string).
        owner: String,
        /// The mapped local account.
        account: String,
    },
    /// A job changed state.
    StateChanged {
        /// Which job.
        job_id: u64,
        /// The new state.
        state: JobStateCode,
    },
    /// An authenticated information query was served (§7: "logging of
    /// authenticated information queries to guide the use as part of
    /// intelligent scheduling services").
    InfoQueried {
        /// The grid identity (DN string).
        owner: String,
        /// The mapped local account.
        account: String,
        /// Comma-joined keywords served.
        keywords: String,
    },
    /// A job reached a terminal state.
    Finished {
        /// Which job.
        job_id: u64,
        /// Terminal state (Done/Failed/Canceled).
        state: JobStateCode,
        /// Exit code if the job ran to completion.
        exit_code: Option<i32>,
        /// Wall seconds consumed (for accounting).
        wall_seconds: f64,
    },
    /// A serialized snapshot of the folded job table + accounting; the
    /// paper's "check pointing". Recovery replays the newest checkpoint
    /// plus the tail after it.
    Checkpoint(Box<CheckpointState>),
}

fn state_str(s: JobStateCode) -> &'static str {
    match s {
        JobStateCode::Pending => "PENDING",
        JobStateCode::Active => "ACTIVE",
        JobStateCode::Suspended => "SUSPENDED",
        JobStateCode::Done => "DONE",
        JobStateCode::Failed => "FAILED",
        JobStateCode::Canceled => "CANCELED",
    }
}

fn parse_state(s: &str) -> Option<JobStateCode> {
    Some(match s {
        "PENDING" => JobStateCode::Pending,
        "ACTIVE" => JobStateCode::Active,
        "SUSPENDED" => JobStateCode::Suspended,
        "DONE" => JobStateCode::Done,
        "FAILED" => JobStateCode::Failed,
        "CANCELED" => JobStateCode::Canceled,
        _ => return None,
    })
}

/// A free-form field, written escaped so it can never collide with the
/// record separator or a line break: `%` → `%25`, `\x1f` → `%1F`, `\n` →
/// `%0A`, `\r` → `%0D`. Owner DNs, accounts, keywords and RSL text all
/// pass through this, so adversarial field content round-trips losslessly.
struct Esc<'a>(&'a str);

impl fmt::Display for Esc<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut rest = self.0;
        while let Some(i) = rest.find(['%', SEP, '\n', '\r']) {
            f.write_str(&rest[..i])?;
            f.write_str(match rest.as_bytes()[i] {
                b'%' => "%25",
                b'\n' => "%0A",
                b'\r' => "%0D",
                _ => "%1F",
            })?;
            rest = &rest[i + 1..];
        }
        f.write_str(rest)
    }
}

/// Reverse [`Esc`]; `None` for strings the encoder could not have
/// produced (raw control characters, unknown `%` escapes) so corrupt
/// frames are rejected rather than silently mangled.
fn unesc(s: &str) -> Option<Cow<'_, str>> {
    if s.contains(['\n', '\r']) {
        return None;
    }
    if !s.contains('%') {
        return Some(Cow::Borrowed(s));
    }
    let mut out = String::with_capacity(s.len());
    let mut it = s.chars();
    while let Some(c) = it.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        match (it.next()?, it.next()?) {
            ('2', '5') => out.push('%'),
            ('1', 'F') => out.push(SEP),
            ('0', 'A') => out.push('\n'),
            ('0', 'D') => out.push('\r'),
            _ => return None,
        }
    }
    Some(Cow::Owned(out))
}

impl WalEvent {
    /// Encode as one record payload (field-separated; free-form fields
    /// are escaped so separators and newlines in them round-trip).
    pub fn encode(&self) -> String {
        match self {
            WalEvent::ServiceStarted { epoch } => format!("START{SEP}{epoch}"),
            WalEvent::Submitted {
                job_id,
                rsl,
                owner,
                account,
            } => {
                format!(
                    "SUBMIT{SEP}{job_id}{SEP}{}{SEP}{}{SEP}{}",
                    Esc(owner),
                    Esc(account),
                    Esc(rsl)
                )
            }
            WalEvent::StateChanged { job_id, state } => {
                format!("STATE{SEP}{job_id}{SEP}{}", state_str(*state))
            }
            WalEvent::InfoQueried {
                owner,
                account,
                keywords,
            } => format!(
                "INFOQ{SEP}{}{SEP}{}{SEP}{}",
                Esc(owner),
                Esc(account),
                Esc(keywords)
            ),
            WalEvent::Finished {
                job_id,
                state,
                exit_code,
                wall_seconds,
            } => format!(
                "FINISH{SEP}{job_id}{SEP}{}{SEP}{}{SEP}{wall_seconds:.3}",
                state_str(*state),
                exit_code.map(|c| c.to_string()).unwrap_or_default()
            ),
            WalEvent::Checkpoint(ck) => ck.encode(),
        }
    }

    /// Decode one record payload; `None` for corrupt payloads (recovery
    /// skips them rather than refusing to start).
    pub fn decode(line: &str) -> Option<WalEvent> {
        // A checkpoint carries six fields per job: walked in place, never
        // collected.
        if line.split(SEP).next() == Some("CKPT") {
            return CheckpointState::decode(line).map(|ck| WalEvent::Checkpoint(Box::new(ck)));
        }
        let fields: Vec<&str> = line.split(SEP).collect();
        match fields.as_slice() {
            ["START", epoch] => Some(WalEvent::ServiceStarted {
                epoch: epoch.parse().ok()?,
            }),
            ["SUBMIT", job_id, owner, account, rsl] => Some(WalEvent::Submitted {
                job_id: job_id.parse().ok()?,
                rsl: unesc(rsl)?.into_owned(),
                owner: unesc(owner)?.into_owned(),
                account: unesc(account)?.into_owned(),
            }),
            ["STATE", job_id, state] => Some(WalEvent::StateChanged {
                job_id: job_id.parse().ok()?,
                state: parse_state(state)?,
            }),
            ["INFOQ", owner, account, keywords] => Some(WalEvent::InfoQueried {
                owner: unesc(owner)?.into_owned(),
                account: unesc(account)?.into_owned(),
                keywords: unesc(keywords)?.into_owned(),
            }),
            ["FINISH", job_id, state, exit, wall] => Some(WalEvent::Finished {
                job_id: job_id.parse().ok()?,
                state: parse_state(state)?,
                exit_code: if exit.is_empty() {
                    None
                } else {
                    Some(exit.parse().ok()?)
                },
                wall_seconds: wall.parse().ok()?,
            }),
            _ => None,
        }
    }
}

/// The distinct owner / account strings of a job table — a handful of
/// values, each held once and shared by every row that names it.
#[derive(Debug, Default)]
pub(crate) struct NamePool(HashSet<Arc<str>>);

impl NamePool {
    /// The shared copy of `name`, allocated on first sight only.
    pub(crate) fn intern(&mut self, name: &str) -> Arc<str> {
        if let Some(shared) = self.0.get(name) {
            return Arc::clone(shared);
        }
        let shared: Arc<str> = Arc::from(name);
        self.0.insert(Arc::clone(&shared));
        shared
    }
}

/// What a fold keeps beside its [`CheckpointState`]: where each job sits
/// in `state.jobs`, and the identity strings its rows share. The pool
/// only makes repeats free; a name it has not seen (a checkpoint brings
/// its own) costs one more allocation, never a wrong answer.
#[derive(Debug, Default)]
struct FoldIndex {
    slot: BTreeMap<u64, usize>,
    names: NamePool,
}

/// The folded log: job table + per-account usage. This is both what a
/// [`WalEvent::Checkpoint`] serializes and what the running [`Wal`]
/// maintains incrementally so a checkpoint is cheap to cut. Its strings
/// are shared (`Arc<str>`), so a clone copies the table, not the text.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckpointState {
    /// The recovered job table (epoch, last job id, jobs in order).
    pub state: RecoveredState,
    /// Per-account usage, the paper's "simple Grid accounting".
    pub accounts: BTreeMap<String, AccountUsage>,
}

impl CheckpointState {
    /// Fold one event into the snapshot. `index` must be owned alongside
    /// the snapshot (it is rebuilt when a checkpoint event replaces the
    /// whole state).
    fn apply(&mut self, ev: &WalEvent, index: &mut FoldIndex) {
        match ev {
            WalEvent::ServiceStarted { epoch } => {
                self.state.last_epoch = self.state.last_epoch.max(*epoch);
            }
            WalEvent::Submitted {
                job_id,
                rsl,
                owner,
                account,
            } => {
                self.state.last_job_id = self.state.last_job_id.max(*job_id);
                index.slot.insert(*job_id, self.state.jobs.len());
                self.state.jobs.push(RecoveredJob {
                    job_id: *job_id,
                    rsl: Arc::from(rsl.as_str()),
                    owner: index.names.intern(owner),
                    account: index.names.intern(account),
                    finished: None,
                });
                self.usage(account, |u| u.submitted += 1);
            }
            WalEvent::StateChanged { .. } => {}
            WalEvent::InfoQueried { account, .. } => self.usage(account, |u| u.info_queries += 1),
            WalEvent::Finished {
                job_id,
                state,
                exit_code,
                wall_seconds,
            } => {
                if let Some(&i) = index.slot.get(job_id) {
                    let job = &mut self.state.jobs[i];
                    if job.finished.is_none() {
                        job.finished = Some((*state, *exit_code));
                        let account = Arc::clone(&job.account);
                        self.usage(&account, |u| {
                            u.wall_seconds += wall_seconds;
                            if *state == JobStateCode::Done {
                                u.completed += 1;
                            } else {
                                u.failed += 1;
                            }
                        });
                    }
                }
            }
            WalEvent::Checkpoint(ck) => self.replace((**ck).clone(), index),
        }
    }

    /// Fold a whole history from nothing.
    pub fn from_events(events: &[WalEvent]) -> CheckpointState {
        let mut fold = CheckpointState::default();
        let mut index = FoldIndex::default();
        for ev in events {
            fold.apply(ev, &mut index);
        }
        fold
    }

    /// Make `ck` the whole state — what applying a checkpoint event
    /// means, for a caller that owns the decoded checkpoint.
    fn replace(&mut self, ck: CheckpointState, index: &mut FoldIndex) {
        *self = ck;
        index.slot = self
            .state
            .jobs
            .iter()
            .enumerate()
            .map(|(i, j)| (j.job_id, i))
            .collect();
    }

    /// Update one account's usage; the name is copied on first sight only.
    fn usage(&mut self, account: &str, update: impl FnOnce(&mut AccountUsage)) {
        match self.accounts.get_mut(account) {
            Some(usage) => update(usage),
            None => update(self.accounts.entry(account.to_string()).or_default()),
        }
    }

    fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    /// Append the record payload to `out` — straight into the caller's
    /// buffer, with no per-job temporaries.
    fn encode_into(&self, out: &mut String) {
        // Writing to a `String` cannot fail.
        let _ = write!(
            out,
            "CKPT{SEP}{}{SEP}{}{SEP}{}{SEP}{}",
            self.state.last_epoch,
            self.state.last_job_id,
            self.state.jobs.len(),
            self.accounts.len()
        );
        for j in &self.state.jobs {
            let _ = write!(
                out,
                "{SEP}{}{SEP}{}{SEP}{}{SEP}{}{SEP}",
                j.job_id,
                Esc(&j.rsl),
                Esc(&j.owner),
                Esc(&j.account)
            );
            let _ = match j.finished {
                None => write!(out, "-{SEP}-"),
                Some((s, None)) => write!(out, "{}{SEP}-", state_str(s)),
                Some((s, Some(exit))) => write!(out, "{}{SEP}{exit}", state_str(s)),
            };
        }
        for (name, u) in &self.accounts {
            // `{}` (shortest round-trip) formatting so wall seconds
            // survive arbitrarily many checkpoint/recover cycles.
            let _ = write!(
                out,
                "{SEP}{}{SEP}{}{SEP}{}{SEP}{}{SEP}{}{SEP}{}",
                Esc(name),
                u.submitted,
                u.completed,
                u.failed,
                u.wall_seconds,
                u.info_queries
            );
        }
    }

    fn decode(line: &str) -> Option<CheckpointState> {
        let mut it = line.split(SEP);
        if it.next()? != "CKPT" {
            return None;
        }
        let last_epoch: u64 = it.next()?.parse().ok()?;
        let last_job_id: u64 = it.next()?.parse().ok()?;
        let njobs: usize = it.next()?.parse().ok()?;
        let naccounts: usize = it.next()?.parse().ok()?;
        // The counts come from the log: hold them against the payload's
        // own field count before allocating for them.
        let fields = 1 + line.bytes().filter(|&b| b == SEP as u8).count();
        let claimed = njobs
            .checked_add(naccounts)?
            .checked_mul(6)?
            .checked_add(5)?;
        if fields != claimed {
            return None;
        }
        let mut names = NamePool::default();
        let mut jobs = Vec::with_capacity(njobs);
        for _ in 0..njobs {
            let job_id: u64 = it.next()?.parse().ok()?;
            let rsl = Arc::from(unesc(it.next()?)?);
            let owner = names.intern(&unesc(it.next()?)?);
            let account = names.intern(&unesc(it.next()?)?);
            let finished = match (it.next()?, it.next()?) {
                ("-", _) => None,
                (state, "-") => Some((parse_state(state)?, None)),
                (state, exit) => Some((parse_state(state)?, Some(exit.parse().ok()?))),
            };
            jobs.push(RecoveredJob {
                job_id,
                rsl,
                owner,
                account,
                finished,
            });
        }
        let mut accounts = BTreeMap::new();
        for _ in 0..naccounts {
            let name = unesc(it.next()?)?.into_owned();
            accounts.insert(
                name,
                AccountUsage {
                    submitted: it.next()?.parse().ok()?,
                    completed: it.next()?.parse().ok()?,
                    failed: it.next()?.parse().ok()?,
                    wall_seconds: it.next()?.parse().ok()?,
                    info_queries: it.next()?.parse().ok()?,
                },
            );
        }
        Some(CheckpointState {
            state: RecoveredState {
                last_epoch,
                last_job_id,
                jobs,
            },
            accounts,
        })
    }
}

// ---------------------------------------------------------------------------
// Frames: [len: u32 LE][crc32: u32 LE][payload]
// ---------------------------------------------------------------------------

/// Upper bound on a single frame payload; anything larger in a scan is
/// treated as corruption (a garbage length field), not a real frame.
const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Slicing-by-8 tables for [`crc32`]: `CRC_TABLES[k][b]` is the CRC of
/// byte `b` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE, reflected, poly 0xEDB88320), eight bytes per step. A
/// checkpoint frame is checksummed under `exec.wal.io`, so this is on
/// the commit path of whoever cuts the checkpoint.
fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Append one frame for `payload` to `buf`.
fn push_frame(buf: &mut Vec<u8>, payload: &str) {
    let bytes = payload.as_bytes();
    buf.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(bytes).to_le_bytes());
    buf.extend_from_slice(bytes);
}

/// One frame holding `checkpoint`, encoded once: the payload is written
/// behind an eight-byte placeholder that then receives length and CRC.
fn checkpoint_frame(checkpoint: &CheckpointState) -> Vec<u8> {
    let mut frame = "\0".repeat(8);
    checkpoint.encode_into(&mut frame);
    let mut frame = frame.into_bytes();
    let (header, payload) = frame.split_at_mut(8);
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    frame
}

/// Scan a segment's bytes, handing each intact frame payload to `visit`
/// in place, and classifying damage into `stats`: a frame running past
/// the end is a torn tail (truncate), a complete frame with a bad CRC or
/// invalid UTF-8 is mid-log corruption (skip and continue), a garbage
/// length is unrecoverable from here on (no resync marker — count the
/// rest as truncated).
pub(crate) fn scan_frames(
    bytes: &[u8],
    stats: &mut RecoveryStats,
    visit: &mut dyn FnMut(&str, &mut RecoveryStats),
) {
    let mut pos = 0usize;
    while pos < bytes.len() {
        let rem = bytes.len() - pos;
        if rem < 8 {
            stats.truncated_tail_bytes += rem as u64;
            break;
        }
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
            as usize;
        if len > MAX_FRAME {
            stats.corrupt_frames += 1;
            stats.truncated_tail_bytes += rem as u64;
            break;
        }
        if len > rem - 8 {
            stats.truncated_tail_bytes += rem as u64;
            break;
        }
        let crc = u32::from_le_bytes([
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
        ]);
        let payload = &bytes[pos + 8..pos + 8 + len];
        pos += 8 + len;
        if crc32(payload) != crc {
            stats.corrupt_frames += 1;
            continue;
        }
        match std::str::from_utf8(payload) {
            Ok(s) => visit(s, stats),
            Err(_) => stats.corrupt_frames += 1,
        }
    }
}

/// What recovery salvaged (and could not salvage) from the log. Surfaced
/// through `(info=metrics)` so a restarted service self-describes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryStats {
    /// Complete frames with a bad checksum or undecodable payload —
    /// mid-log corruption, skipped.
    pub corrupt_frames: u64,
    /// Bytes dropped from torn segment tails (incomplete final writes).
    pub truncated_tail_bytes: u64,
    /// Segments present in storage.
    pub segments_total: u64,
    /// Segments actually read (checkpoint + tail, not full history).
    pub segments_read: u64,
    /// Storage read errors during recovery (segments skipped).
    pub io_errors: u64,
    /// Events decoded and replayed into the job table.
    pub events_replayed: u64,
    /// Events replayed after the newest checkpoint.
    pub events_since_checkpoint: u64,
    /// Whether a checkpoint bounded the replay.
    pub checkpoint_used: bool,
}

// ---------------------------------------------------------------------------
// Storage: segments of raw bytes
// ---------------------------------------------------------------------------

/// Raw segment storage under a [`WalSink`] — numbered segments of bytes
/// with append/sync/remove. Implementations route writes through a
/// [`DiskFaultPlan`] so torn writes, fsync failures, disk-full and
/// crash-after-k-appends are injectable deterministically.
pub trait WalStorage: Send + Sync + std::fmt::Debug {
    /// Segment numbers currently present, in any order.
    fn segments(&self) -> io::Result<Vec<u64>>;
    /// Read a whole segment; absent segments read as empty.
    fn read(&self, seg: u64) -> io::Result<Vec<u8>>;
    /// Append bytes to a segment (creating it if absent). May write a
    /// prefix and fail (short/torn write).
    fn append(&self, seg: u64, bytes: &[u8]) -> io::Result<()>;
    /// Make everything appended to `seg` durable (fsync).
    fn sync(&self, seg: u64) -> io::Result<()>;
    /// Delete a segment.
    fn remove(&self, seg: u64) -> io::Result<()>;
}

#[derive(Debug, Default)]
struct MemSegment {
    /// Bytes that survive a crash (synced).
    durable: Vec<u8>,
    /// Bytes appended but not yet synced; a crash drops them.
    volatile: Vec<u8>,
}

#[derive(Debug, Default)]
struct MemStorageState {
    segs: BTreeMap<u64, MemSegment>,
    crashed: bool,
}

/// In-memory [`WalStorage`] with an explicit durable/volatile split and a
/// [`DiskFaultPlan`] hook — the simulator's disk. [`MemStorage::crash`]
/// models power loss (volatile bytes vanish); [`MemStorage::restart`]
/// brings the disk back with only durable bytes.
#[derive(Debug)]
pub struct MemStorage {
    state: Mutex<MemStorageState>,
    plan: Option<Arc<DiskFaultPlan>>,
}

impl MemStorage {
    /// A fault-free in-memory disk.
    pub fn new() -> Arc<Self> {
        Self::with_plan(None)
    }

    /// An in-memory disk whose appends/syncs consult `plan`.
    pub fn with_plan(plan: Option<Arc<DiskFaultPlan>>) -> Arc<Self> {
        Arc::new(MemStorage {
            state: Mutex::with_class(
                MemStorageState::default(),
                lock_class!("exec.wal.mem_storage"),
            ),
            plan,
        })
    }

    /// Simulate power loss: unsynced bytes vanish, every subsequent
    /// operation fails until [`MemStorage::restart`].
    pub fn crash(&self) {
        let mut st = self.state.lock();
        st.crashed = true;
        for seg in st.segs.values_mut() {
            seg.volatile.clear();
        }
    }

    /// Bring the disk back after a [`MemStorage::crash`] — only durable
    /// bytes remain. Also resets the fault plan's crashed latch.
    pub fn restart(&self) {
        self.state.lock().crashed = false;
        if let Some(p) = &self.plan {
            p.restart();
        }
    }

    /// The durable (post-crash) contents of a segment — test harness
    /// accessor for crash-point assertions.
    pub fn durable_bytes(&self, seg: u64) -> Vec<u8> {
        self.state
            .lock()
            .segs
            .get(&seg)
            .map(|s| s.durable.clone())
            .unwrap_or_default()
    }

    /// Replace a segment's durable contents — test harness hook for
    /// constructing truncated/bit-flipped logs byte by byte.
    pub fn preload(&self, seg: u64, bytes: Vec<u8>) {
        let mut st = self.state.lock();
        let s = st.segs.entry(seg).or_default();
        s.durable = bytes;
        s.volatile.clear();
    }

    fn err(detail: &str) -> io::Error {
        io::Error::other(detail.to_string())
    }
}

impl WalStorage for MemStorage {
    fn segments(&self) -> io::Result<Vec<u64>> {
        let st = self.state.lock();
        if st.crashed {
            return Err(Self::err(DISK_CRASHED_DETAIL));
        }
        Ok(st.segs.keys().copied().collect())
    }

    fn read(&self, seg: u64) -> io::Result<Vec<u8>> {
        let st = self.state.lock();
        if st.crashed {
            return Err(Self::err(DISK_CRASHED_DETAIL));
        }
        Ok(st
            .segs
            .get(&seg)
            .map(|s| {
                let mut all = s.durable.clone();
                all.extend_from_slice(&s.volatile);
                all
            })
            .unwrap_or_default())
    }

    fn append(&self, seg: u64, bytes: &[u8]) -> io::Result<()> {
        let mut st = self.state.lock();
        if st.crashed {
            return Err(Self::err(DISK_CRASHED_DETAIL));
        }
        let verdict = match &self.plan {
            Some(p) => p.on_append(bytes.len()),
            None => AppendVerdict::Write,
        };
        match verdict {
            AppendVerdict::Write => {
                st.segs
                    .entry(seg)
                    .or_default()
                    .volatile
                    .extend_from_slice(bytes);
                Ok(())
            }
            AppendVerdict::Short { keep } => {
                st.segs
                    .entry(seg)
                    .or_default()
                    .volatile
                    .extend_from_slice(&bytes[..keep]);
                Err(Self::err("short write (injected)"))
            }
            AppendVerdict::Torn { keep } => {
                // A torn write is a prefix that reached the platter right
                // as the power died: it lands durable, everything
                // volatile (all segments) is lost.
                let s = st.segs.entry(seg).or_default();
                s.durable.extend_from_slice(&s.volatile);
                s.durable.extend_from_slice(&bytes[..keep]);
                s.volatile.clear();
                st.crashed = true;
                for other in st.segs.values_mut() {
                    other.volatile.clear();
                }
                Err(Self::err(DISK_CRASHED_DETAIL))
            }
            AppendVerdict::Fail { detail } => Err(Self::err(detail)),
            AppendVerdict::Crash => {
                st.crashed = true;
                for s in st.segs.values_mut() {
                    s.volatile.clear();
                }
                Err(Self::err(DISK_CRASHED_DETAIL))
            }
        }
    }

    fn sync(&self, seg: u64) -> io::Result<()> {
        let mut st = self.state.lock();
        if st.crashed {
            return Err(Self::err(DISK_CRASHED_DETAIL));
        }
        let verdict = match &self.plan {
            Some(p) => p.on_sync(),
            None => SyncVerdict::Sync,
        };
        match verdict {
            SyncVerdict::Sync => {
                if let Some(s) = st.segs.get_mut(&seg) {
                    let v = std::mem::take(&mut s.volatile);
                    s.durable.extend_from_slice(&v);
                }
                Ok(())
            }
            SyncVerdict::Fail => Err(Self::err("fsync failed (injected)")),
        }
    }

    fn remove(&self, seg: u64) -> io::Result<()> {
        let mut st = self.state.lock();
        if st.crashed {
            return Err(Self::err(DISK_CRASHED_DETAIL));
        }
        st.segs.remove(&seg);
        Ok(())
    }
}

/// File-backed [`WalStorage`]: segment `n` lives at `<prefix>.<n>`. Real
/// fsync via `sync_data`; an optional [`DiskFaultPlan`] injects the same
/// fault envelope as [`MemStorage`] (minus the durable/volatile split —
/// the kernel page cache is not simulated here).
#[derive(Debug)]
pub struct FileStorage {
    prefix: PathBuf,
    plan: Option<Arc<DiskFaultPlan>>,
    files: Mutex<HashMap<u64, std::fs::File>>,
}

impl FileStorage {
    /// Storage rooted at `prefix` (segment files are `<prefix>.<n>`).
    pub fn open(prefix: impl Into<PathBuf>) -> io::Result<Self> {
        Self::open_with(prefix, None)
    }

    /// Storage rooted at `prefix` with a fault plan on the write path.
    pub fn open_with(
        prefix: impl Into<PathBuf>,
        plan: Option<Arc<DiskFaultPlan>>,
    ) -> io::Result<Self> {
        let prefix = prefix.into();
        if let Some(dir) = prefix.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        Ok(FileStorage {
            prefix,
            plan,
            files: Mutex::with_class(HashMap::new(), lock_class!("exec.wal.file_storage")),
        })
    }

    fn seg_path(&self, seg: u64) -> PathBuf {
        let mut s = self.prefix.as_os_str().to_os_string();
        s.push(format!(".{seg}"));
        PathBuf::from(s)
    }
}

impl WalStorage for FileStorage {
    fn segments(&self) -> io::Result<Vec<u64>> {
        let parent = match self.prefix.parent() {
            Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
            _ => PathBuf::from("."),
        };
        let stem = match self.prefix.file_name() {
            Some(n) => format!("{}.", n.to_string_lossy()),
            None => return Ok(Vec::new()),
        };
        let mut out = Vec::new();
        for entry in std::fs::read_dir(parent)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(rest) = name.strip_prefix(&stem) {
                if let Ok(seg) = rest.parse::<u64>() {
                    out.push(seg);
                }
            }
        }
        Ok(out)
    }

    fn read(&self, seg: u64) -> io::Result<Vec<u8>> {
        match std::fs::read(self.seg_path(seg)) {
            Ok(b) => Ok(b),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(e),
        }
    }

    fn append(&self, seg: u64, bytes: &[u8]) -> io::Result<()> {
        if let Some(p) = &self.plan {
            if p.crashed() {
                return Err(io::Error::other(DISK_CRASHED_DETAIL));
            }
        }
        let verdict = match &self.plan {
            Some(p) => p.on_append(bytes.len()),
            None => AppendVerdict::Write,
        };
        let mut files = self.files.lock();
        let file = match files.entry(seg) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(v) => v.insert(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(self.seg_path(seg))?,
            ),
        };
        match verdict {
            AppendVerdict::Write => file.write_all(bytes),
            AppendVerdict::Short { keep } => {
                file.write_all(&bytes[..keep])?;
                Err(io::Error::other("short write (injected)"))
            }
            AppendVerdict::Torn { keep } => {
                file.write_all(&bytes[..keep])?;
                let _ = file.sync_data();
                Err(io::Error::other(DISK_CRASHED_DETAIL))
            }
            AppendVerdict::Fail { detail } => Err(io::Error::other(detail)),
            AppendVerdict::Crash => Err(io::Error::other(DISK_CRASHED_DETAIL)),
        }
    }

    fn sync(&self, seg: u64) -> io::Result<()> {
        if let Some(p) = &self.plan {
            if p.crashed() {
                return Err(io::Error::other(DISK_CRASHED_DETAIL));
            }
            if matches!(p.on_sync(), SyncVerdict::Fail) {
                return Err(io::Error::other("fsync failed (injected)"));
            }
        }
        match self.files.lock().get(&seg) {
            Some(f) => f.sync_data(),
            None => Ok(()),
        }
    }

    fn remove(&self, seg: u64) -> io::Result<()> {
        self.files.lock().remove(&seg);
        match std::fs::remove_file(self.seg_path(seg)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }
}

// ---------------------------------------------------------------------------
// Sinks: framed segments over a storage
// ---------------------------------------------------------------------------

/// Where record payloads go. "The log can either be stored in the middle
/// tier, or on the backend tier" — here: in memory, or as checksummed
/// frames over a [`WalStorage`].
pub trait WalSink: Send + Sync {
    /// Append a batch of payloads atomically-enough: a crash may tear the
    /// tail of the batch but never reorders it. `durable` requests an
    /// fsync before returning.
    fn append_batch(&self, payloads: &[&str], durable: bool) -> io::Result<()>;
    /// Hand every payload recoverable from storage (checkpoint + tail
    /// for segmented sinks) to `visit`, in log order and in place, with
    /// the damage accounting so far (which `visit` may add to).
    fn load(&self, visit: &mut dyn FnMut(&str, &mut RecoveryStats)) -> RecoveryStats;
    /// Whether the sink would like a checkpoint cut now (e.g. the active
    /// segment is over its size budget).
    fn wants_checkpoint(&self) -> bool {
        false
    }
    /// Start a new segment headed by `checkpoint`, serialized by the
    /// sink into whatever buffer it writes from, and reclaim older
    /// history. Returns how many segments were reclaimed.
    fn install_checkpoint(&self, checkpoint: &CheckpointState) -> io::Result<u64>;
}

/// In-memory log (middle tier) — trivially durable, never fails.
#[derive(Debug, Default)]
pub struct MemWal {
    lines: Mutex<Vec<String>>,
}

impl MemWal {
    /// An empty in-memory log.
    pub fn new() -> Self {
        MemWal {
            lines: Mutex::with_class(Vec::new(), lock_class!("exec.wal.mem")),
        }
    }
}

impl WalSink for MemWal {
    fn append_batch(&self, payloads: &[&str], _durable: bool) -> io::Result<()> {
        let mut lines = self.lines.lock();
        lines.extend(payloads.iter().map(|p| p.to_string()));
        Ok(())
    }

    fn load(&self, visit: &mut dyn FnMut(&str, &mut RecoveryStats)) -> RecoveryStats {
        let mut stats = RecoveryStats::default();
        for line in self.lines.lock().iter() {
            visit(line, &mut stats);
        }
        stats
    }

    fn install_checkpoint(&self, checkpoint: &CheckpointState) -> io::Result<u64> {
        let line = checkpoint.encode();
        let mut lines = self.lines.lock();
        lines.clear();
        lines.push(line);
        Ok(0)
    }
}

#[derive(Debug)]
struct FrameState {
    segs: Vec<u64>,
    active: u64,
    /// Bytes appended to the active segment after its head checkpoint.
    /// The head must not count towards `segment_max_bytes`, or a job
    /// table larger than one segment is re-written on every append.
    tail_len: u64,
    next_seg: u64,
    /// Set after any append/sync error: the active segment's tail may be
    /// garbage (short write), so the next append rotates to a fresh
    /// segment — damage stays at segment tails where torn-tail
    /// truncation handles it.
    poisoned: bool,
}

/// Checksummed, length-prefixed frames over segmented [`WalStorage`] —
/// the crash-consistent backend-tier sink.
#[derive(Debug)]
pub struct FrameWal {
    storage: Arc<dyn WalStorage>,
    cfg: WalConfig,
    st: Mutex<FrameState>,
}

impl FrameWal {
    /// Open (resuming existing segments if present) over `storage`.
    pub fn open(storage: Arc<dyn WalStorage>, cfg: WalConfig) -> io::Result<FrameWal> {
        let mut segs = storage.segments()?;
        segs.sort_unstable();
        let active = match segs.last() {
            Some(&s) => s,
            None => {
                segs.push(1);
                1
            }
        };
        let tail_len = storage
            .read(active)
            .map(|b| (b.len() - Self::head_checkpoint_len(&b)) as u64)
            .unwrap_or(0);
        Ok(FrameWal {
            storage,
            st: Mutex::with_class(
                FrameState {
                    next_seg: active + 1,
                    segs,
                    active,
                    tail_len,
                    poisoned: false,
                },
                lock_class!("exec.wal.frames"),
            ),
            cfg,
        })
    }

    /// Size of the segment's first frame if it is a checkpoint, else 0.
    fn head_checkpoint_len(bytes: &[u8]) -> usize {
        let mut scratch = RecoveryStats::default();
        // Checkpoints are only ever written as a segment's head, so the
        // first frame decides; do not checksum the rest of the segment.
        let head = match bytes {
            [a, b, c, d, ..] => 8 + u32::from_le_bytes([*a, *b, *c, *d]) as usize,
            _ => 0,
        };
        let mut len = 0;
        let mut note = |p: &str, _: &mut RecoveryStats| {
            if p.starts_with("CKPT\x1f") {
                len = 8 + p.len();
            }
        };
        scan_frames(&bytes[..head.min(bytes.len())], &mut scratch, &mut note);
        len
    }
}

impl WalSink for FrameWal {
    fn append_batch(&self, payloads: &[&str], durable: bool) -> io::Result<()> {
        let mut st = self.st.lock();
        if st.poisoned {
            let seg = st.next_seg;
            st.next_seg += 1;
            st.segs.push(seg);
            st.active = seg;
            st.tail_len = 0;
            st.poisoned = false;
        }
        let mut buf = Vec::new();
        for p in payloads {
            push_frame(&mut buf, p);
        }
        if let Err(e) = self.storage.append(st.active, &buf) {
            st.poisoned = true;
            return Err(e);
        }
        st.tail_len += buf.len() as u64;
        if durable {
            if let Err(e) = self.storage.sync(st.active) {
                st.poisoned = true;
                return Err(e);
            }
        }
        Ok(())
    }

    fn load(&self, visit: &mut dyn FnMut(&str, &mut RecoveryStats)) -> RecoveryStats {
        let mut stats = RecoveryStats::default();
        let mut segs = match self.storage.segments() {
            Ok(s) => s,
            Err(_) => {
                stats.io_errors += 1;
                return stats;
            }
        };
        segs.sort_unstable();
        stats.segments_total = segs.len() as u64;
        // Newest segment headed by a checkpoint bounds the replay.
        let mut start = 0usize;
        for i in (1..segs.len()).rev() {
            if let Ok(bytes) = self.storage.read(segs[i]) {
                if Self::head_checkpoint_len(&bytes) > 0 {
                    start = i;
                    break;
                }
            }
        }
        for &seg in &segs[start..] {
            match self.storage.read(seg) {
                Ok(bytes) => scan_frames(&bytes, &mut stats, visit),
                Err(_) => stats.io_errors += 1,
            }
        }
        stats.segments_read = (segs.len() - start) as u64;
        stats
    }

    fn wants_checkpoint(&self) -> bool {
        self.st.lock().tail_len >= self.cfg.segment_max_bytes
    }

    fn install_checkpoint(&self, checkpoint: &CheckpointState) -> io::Result<u64> {
        let buf = checkpoint_frame(checkpoint);
        let mut st = self.st.lock();
        let seg = st.next_seg;
        st.next_seg += 1;
        // Durable new segment BEFORE reclaiming old ones: a crash between
        // the two leaves extra history, never a hole.
        if let Err(e) = self.storage.append(seg, &buf) {
            let _ = self.storage.remove(seg);
            return Err(e);
        }
        if let Err(e) = self.storage.sync(seg) {
            let _ = self.storage.remove(seg);
            return Err(e);
        }
        let old = std::mem::take(&mut st.segs);
        let mut kept = Vec::new();
        let mut reclaimed = 0u64;
        for s in old {
            if self.storage.remove(s).is_ok() {
                reclaimed += 1;
            } else {
                kept.push(s);
            }
        }
        kept.push(seg);
        st.segs = kept;
        st.active = seg;
        st.tail_len = 0;
        st.poisoned = false;
        Ok(reclaimed)
    }
}

/// Compatibility facade over the pre-segmentation file sink: `open(path)`
/// now yields a [`FrameWal`] over a [`FileStorage`] rooted at `path`
/// (segment files are `<path>.<n>`).
#[derive(Debug)]
pub struct FileWal;

impl FileWal {
    /// Open a framed, segmented file log rooted at `path`.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<FrameWal> {
        FrameWal::open(Arc::new(FileStorage::open(path)?), WalConfig::default())
    }
}

// ---------------------------------------------------------------------------
// The Wal: group commit, fold, degradation
// ---------------------------------------------------------------------------

/// Why a commit did not make it to durable storage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// The sink failed while flushing the batch containing this commit.
    Io(String),
    /// The log is in read-only degradation after a recent failure; retry
    /// after the hint.
    ReadOnly {
        /// Milliseconds until the log will probe the sink again.
        retry_after_ms: u64,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(msg) => write!(f, "wal write failed: {msg}"),
            WalError::ReadOnly { retry_after_ms } => {
                write!(f, "wal read-only; retry-after-ms={retry_after_ms}")
            }
        }
    }
}

/// Tuning for the logging service.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Rotate + checkpoint once this many bytes were appended after the
    /// active segment's head checkpoint.
    pub segment_max_bytes: u64,
    /// Checkpoint after this many events even if the segment is small.
    pub checkpoint_every_events: u64,
    /// How long the log stays read-only after a sink failure before the
    /// next commit probes the sink again.
    pub retry_after: Duration,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            segment_max_bytes: 1024 * 1024,
            checkpoint_every_events: 4096,
            retry_after: Duration::from_secs(1),
        }
    }
}

#[derive(Default)]
struct CommitQueue {
    /// Payloads waiting for a leader, paired with their events for the
    /// post-flush fold.
    buf: Vec<(String, WalEvent)>,
    /// Total payloads ever enqueued; a committer's ticket is the value
    /// after its own enqueue.
    enqueued: u64,
    /// Total payloads taken into flush batches.
    taken: u64,
    /// Tickets ≤ this are durable.
    durable: u64,
    /// A leader is currently flushing (queue lock released).
    flushing: bool,
    /// Failed batches as `(lo, hi]` ticket ranges; tickets in a failed
    /// range get the error. Bounded: the degraded latch throttles new
    /// commits, so ranges cannot pile up unboundedly.
    failures: VecDeque<(u64, u64, String)>,
}

struct WalIo {
    fold: CheckpointState,
    fold_index: FoldIndex,
    events_since_ckpt: u64,
}

struct WalTelemetry {
    append: Arc<infogram_sim::metrics::Histogram>,
    group_size: Arc<infogram_sim::metrics::Recorder>,
    fsyncs: Arc<infogram_sim::metrics::Counter>,
    append_errors: Arc<infogram_sim::metrics::Counter>,
    dropped_records: Arc<infogram_sim::metrics::Counter>,
    checkpoints: Arc<infogram_sim::metrics::Counter>,
    segments_reclaimed: Arc<infogram_sim::metrics::Counter>,
    read_only: Arc<infogram_sim::metrics::Gauge>,
    checkpoint_age: Arc<infogram_sim::metrics::Gauge>,
}

/// The logging service handle used by the engine.
pub struct Wal {
    sink: Box<dyn WalSink>,
    cfg: WalConfig,
    queue: Mutex<CommitQueue>,
    queue_cv: Condvar,
    io: Mutex<WalIo>,
    /// `Some(not_before)` while read-only degraded.
    degraded: Mutex<Option<SimTime>>,
    telemetry: Option<WalTelemetry>,
    load_stats: RecoveryStats,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal").finish_non_exhaustive()
    }
}

impl Wal {
    /// A log over the given sink with default tuning.
    pub fn new(sink: Box<dyn WalSink>) -> Self {
        Self::with_config(sink, WalConfig::default())
    }

    /// A log over the given sink with explicit tuning.
    pub fn with_config(sink: Box<dyn WalSink>, cfg: WalConfig) -> Self {
        let mut fold = CheckpointState::default();
        let mut fold_index = FoldIndex::default();
        let stats = sink.load(&mut |p, stats| match WalEvent::decode(p) {
            None => stats.corrupt_frames += 1,
            Some(ev) => {
                stats.events_replayed += 1;
                stats.events_since_checkpoint += 1;
                // A decoded checkpoint is moved into the fold, not cloned.
                if let WalEvent::Checkpoint(ck) = ev {
                    fold.replace(*ck, &mut fold_index);
                    stats.events_since_checkpoint = 0;
                    stats.checkpoint_used = true;
                } else {
                    fold.apply(&ev, &mut fold_index);
                }
            }
        });
        Wal {
            sink,
            cfg,
            queue: Mutex::with_class(CommitQueue::default(), lock_class!("exec.wal.queue")),
            queue_cv: Condvar::with_class(lock_class!("exec.wal.commit_cv")),
            io: Mutex::with_class(
                WalIo {
                    fold,
                    fold_index,
                    events_since_ckpt: stats.events_since_checkpoint,
                },
                lock_class!("exec.wal.io"),
            ),
            degraded: Mutex::with_class(None, lock_class!("exec.wal.degraded")),
            telemetry: None,
            load_stats: stats,
        }
    }

    /// An in-memory log.
    pub fn in_memory() -> Self {
        Wal::new(Box::new(MemWal::new()))
    }

    /// What recovery salvaged when this log was opened.
    pub fn recovery_stats(&self) -> &RecoveryStats {
        &self.load_stats
    }

    /// The configured read-only backoff, in milliseconds (retry hint for
    /// errors discovered mid-flush).
    pub fn retry_after_ms(&self) -> u64 {
        self.cfg.retry_after.as_millis() as u64
    }

    /// Read the folded log (job table + accounting) as of the last
    /// write — what a checkpoint would serialize right now — under the
    /// I/O lock, without copying it. `read` must not call back into the
    /// log.
    pub fn with_fold<R>(&self, read: impl FnOnce(&CheckpointState) -> R) -> R {
        read(&self.io.lock().fold)
    }

    /// The fold's row for one job.
    pub fn job(&self, job_id: u64) -> Option<RecoveredJob> {
        let io = self.io.lock();
        let slot = *io.fold_index.slot.get(&job_id)?;
        io.fold.state.jobs.get(slot).cloned()
    }

    /// Attach a telemetry handle. Publishes the recovery damage gauges
    /// immediately; subsequent writes feed `wal.append`, `wal.group_size`,
    /// `wal.fsyncs`, `wal.append_errors`, `wal.checkpoints`,
    /// `wal.segments_reclaimed`, `wal.read_only`, `wal.checkpoint_age`.
    pub fn set_telemetry(&mut self, telemetry: MetricSet) {
        telemetry
            .gauge("wal.corrupt_frames")
            .set(self.load_stats.corrupt_frames as f64);
        telemetry
            .gauge("wal.truncated_tail_bytes")
            .set(self.load_stats.truncated_tail_bytes as f64);
        let t = WalTelemetry {
            append: telemetry.histogram("wal.append"),
            group_size: telemetry.recorder("wal.group_size"),
            fsyncs: telemetry.counter("wal.fsyncs"),
            append_errors: telemetry.counter("wal.append_errors"),
            dropped_records: telemetry.counter("wal.dropped_records"),
            checkpoints: telemetry.counter("wal.checkpoints"),
            segments_reclaimed: telemetry.counter("wal.segments_reclaimed"),
            read_only: telemetry.gauge("wal.read_only"),
            checkpoint_age: telemetry.gauge("wal.checkpoint_age"),
        };
        t.read_only.set(0.0);
        t.checkpoint_age
            .set(self.load_stats.events_since_checkpoint as f64);
        self.telemetry = Some(t);
    }

    /// If the log is in read-only degradation at `now`, the retry hint in
    /// milliseconds.
    pub fn read_only_hint(&self, now: SimTime) -> Option<u64> {
        let g = self.degraded.lock();
        match *g {
            Some(not_before) if now < not_before => {
                Some((not_before.since(now).as_millis() as u64).max(1))
            }
            _ => None,
        }
    }

    fn enter_read_only(&self, now: SimTime) {
        *self.degraded.lock() = Some(now.plus(self.cfg.retry_after));
        if let Some(t) = &self.telemetry {
            t.read_only.set(1.0);
        }
    }

    fn exit_read_only(&self) {
        let mut g = self.degraded.lock();
        if g.take().is_some() {
            if let Some(t) = &self.telemetry {
                t.read_only.set(0.0);
            }
        }
    }

    /// Durably record `events` (group commit). Blocks until the batch
    /// containing them is flushed and fsynced — only then may the caller
    /// ack. Never call while holding engine locks: the ticket wait is a
    /// condvar blocking point.
    ///
    /// While degraded the fast path returns [`WalError::ReadOnly`]
    /// without touching the sink; after the backoff the next commit
    /// probes the sink again.
    pub fn commit(&self, now: SimTime, events: &[WalEvent]) -> Result<(), WalError> {
        if events.is_empty() {
            return Ok(());
        }
        if let Some(retry_after_ms) = self.read_only_hint(now) {
            if let Some(t) = &self.telemetry {
                t.dropped_records.incr();
            }
            return Err(WalError::ReadOnly { retry_after_ms });
        }
        let items: Vec<(String, WalEvent)> =
            events.iter().map(|e| (e.encode(), e.clone())).collect();
        let mut q = self.queue.lock();
        q.enqueued += items.len() as u64;
        let my = q.enqueued;
        q.buf.extend(items);
        loop {
            // Failed ranges first: `durable` jumps past a failed batch
            // when a later one succeeds, so the order matters.
            if let Some(msg) = q
                .failures
                .iter()
                .find(|(lo, hi, _)| *lo < my && my <= *hi)
                .map(|(_, _, m)| m.clone())
            {
                return Err(WalError::Io(msg));
            }
            if q.durable >= my {
                return Ok(());
            }
            if !q.flushing {
                q.flushing = true;
                let batch = std::mem::take(&mut q.buf);
                let lo = q.taken;
                q.taken += batch.len() as u64;
                let hi = q.taken;
                drop(q);
                let res = self.flush_batch(&batch);
                q = self.queue.lock();
                q.flushing = false;
                match res {
                    Ok(()) => {
                        q.durable = q.durable.max(hi);
                        self.exit_read_only();
                    }
                    Err(e) => {
                        if let Some(t) = &self.telemetry {
                            t.append_errors.incr();
                        }
                        q.failures.push_back((lo, hi, e.to_string()));
                        if q.failures.len() > 64 {
                            q.failures.pop_front();
                        }
                        self.enter_read_only(now);
                    }
                }
                self.queue_cv.notify_all();
                continue;
            }
            self.queue_cv.wait(&mut q);
        }
    }

    fn flush_batch(&self, batch: &[(String, WalEvent)]) -> io::Result<()> {
        // lint:allow(direct-clock) — times the real encode+write+fsync I/O
        // into the `wal.append` histogram; virtual time would read as zero
        let start = Instant::now();
        let refs: Vec<&str> = batch.iter().map(|(p, _)| p.as_str()).collect();
        let mut io = self.io.lock();
        self.sink.append_batch(&refs, true)?;
        for (_, ev) in batch {
            io.fold_apply(ev);
        }
        if let Some(t) = &self.telemetry {
            t.append.record(start.elapsed());
            t.group_size.record(batch.len() as f64);
            t.fsyncs.incr();
            t.checkpoint_age.set(io.events_since_ckpt as f64);
        }
        self.maybe_checkpoint(&mut io);
        Ok(())
    }

    fn maybe_checkpoint(&self, io: &mut WalIo) {
        if io.events_since_ckpt == 0 {
            return;
        }
        let due = self.sink.wants_checkpoint()
            || io.events_since_ckpt >= self.cfg.checkpoint_every_events;
        if !due {
            return;
        }
        match self.sink.install_checkpoint(&io.fold) {
            Ok(reclaimed) => {
                io.events_since_ckpt = 0;
                if let Some(t) = &self.telemetry {
                    t.checkpoints.incr();
                    t.fsyncs.incr();
                    t.segments_reclaimed.add(reclaimed);
                    t.checkpoint_age.set(0.0);
                }
            }
            Err(_) => {
                // Not fatal: old segments are intact; retry on a later
                // write.
                if let Some(t) = &self.telemetry {
                    t.append_errors.incr();
                }
            }
        }
    }

    /// Record a non-critical event (relaxed: append without fsync, no
    /// group commit). Used for observational records — non-terminal state
    /// changes, the §7 query log — where a crash losing the tail is
    /// acceptable. While degraded the record is dropped and counted in
    /// `wal.dropped_records`.
    pub fn record(&self, now: SimTime, event: &WalEvent) {
        if self.read_only_hint(now).is_some() {
            if let Some(t) = &self.telemetry {
                t.dropped_records.incr();
            }
            return;
        }
        let payload = event.encode();
        // lint:allow(direct-clock) — times the real encode+write I/O into
        // the `wal.append` histogram; virtual time would read as zero
        let start = Instant::now();
        let mut io = self.io.lock();
        match self.sink.append_batch(&[payload.as_str()], false) {
            Ok(()) => {
                io.fold_apply(event);
                if let Some(t) = &self.telemetry {
                    t.append.record(start.elapsed());
                    t.checkpoint_age.set(io.events_since_ckpt as f64);
                }
                self.maybe_checkpoint(&mut io);
            }
            Err(_) => {
                drop(io);
                if let Some(t) = &self.telemetry {
                    t.append_errors.incr();
                }
                self.enter_read_only(now);
            }
        }
    }

    /// Load and decode every recoverable event, skipping corrupt records.
    pub fn events(&self) -> Vec<WalEvent> {
        let mut events = Vec::new();
        self.sink
            .load(&mut |p, _| events.extend(WalEvent::decode(p)));
        events
    }
}

impl WalIo {
    fn fold_apply(&mut self, ev: &WalEvent) {
        self.fold.apply(ev, &mut self.fold_index);
        self.events_since_ckpt += 1;
    }
}

/// A job reconstructed from the log.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredJob {
    /// Original job id.
    pub job_id: u64,
    /// The xRSL it was submitted with.
    pub rsl: Arc<str>,
    /// Owner DN string (one shared copy per distinct owner).
    pub owner: Arc<str>,
    /// Local account (one shared copy per distinct account).
    pub account: Arc<str>,
    /// Terminal state, if the job finished before the crash.
    pub finished: Option<(JobStateCode, Option<i32>)>,
}

/// Everything recovery needs from a log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveredState {
    /// Highest epoch seen (the restarted service uses `epoch + 1`).
    pub last_epoch: u64,
    /// Highest job id seen (ids continue from here).
    pub last_job_id: u64,
    /// All jobs, in submission order.
    pub jobs: Vec<RecoveredJob>,
}

impl RecoveredState {
    /// Rebuild from events (a checkpoint event replaces everything before
    /// it).
    pub fn from_events(events: &[WalEvent]) -> RecoveredState {
        CheckpointState::from_events(events).state
    }

    /// Jobs that were in flight when the service died — the ones restart
    /// must resubmit.
    pub fn unfinished(&self) -> Vec<&RecoveredJob> {
        self.jobs.iter().filter(|j| j.finished.is_none()).collect()
    }
}

/// Per-account usage derived from the log — the paper's "simple Grid
/// accounting".
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AccountUsage {
    /// Jobs submitted.
    pub submitted: u64,
    /// Jobs that finished successfully.
    pub completed: u64,
    /// Jobs that failed or were cancelled.
    pub failed: u64,
    /// Total wall seconds of finished jobs.
    pub wall_seconds: f64,
    /// Information queries served (the §7 query log).
    pub info_queries: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use infogram_sim::fault::DiskFault;

    fn sample_events() -> Vec<WalEvent> {
        vec![
            WalEvent::ServiceStarted { epoch: 1 },
            WalEvent::Submitted {
                job_id: 1,
                rsl: "&(executable=/bin/date)(arguments=-u)".to_string(),
                owner: "/O=Grid/CN=Alice".to_string(),
                account: "alice".to_string(),
            },
            WalEvent::StateChanged {
                job_id: 1,
                state: JobStateCode::Active,
            },
            WalEvent::Submitted {
                job_id: 2,
                rsl: "(executable=simwork 500)".to_string(),
                owner: "/O=Grid/CN=Bob".to_string(),
                account: "bob".to_string(),
            },
            WalEvent::Finished {
                job_id: 1,
                state: JobStateCode::Done,
                exit_code: Some(0),
                wall_seconds: 1.25,
            },
        ]
    }

    /// [`scan_frames`], collected.
    fn scanned(bytes: &[u8], stats: &mut RecoveryStats) -> Vec<String> {
        let mut out = Vec::new();
        scan_frames(bytes, stats, &mut |p, _| out.push(p.to_string()));
        out
    }

    fn commit_all(wal: &Wal, events: &[WalEvent]) {
        for ev in events {
            wal.commit(SimTime::ZERO, std::slice::from_ref(ev)).unwrap();
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        for ev in sample_events() {
            let line = ev.encode();
            assert!(!line.contains('\n'));
            assert_eq!(WalEvent::decode(&line), Some(ev));
        }
        // Finished with no exit code.
        let ev = WalEvent::Finished {
            job_id: 3,
            state: JobStateCode::Canceled,
            exit_code: None,
            wall_seconds: 0.5,
        };
        assert_eq!(WalEvent::decode(&ev.encode()), Some(ev));
        // Info query log entries.
        let ev = WalEvent::InfoQueried {
            owner: "/O=Grid/CN=Alice".to_string(),
            account: "alice".to_string(),
            keywords: "Memory,CPU".to_string(),
        };
        assert_eq!(WalEvent::decode(&ev.encode()), Some(ev));
    }

    #[test]
    fn hostile_fields_roundtrip() {
        // Separators, newlines, and the escape character itself in every
        // free-form field must survive encode/decode losslessly.
        let ev = WalEvent::Submitted {
            job_id: 7,
            rsl: "&(executable=/bin/echo)(arguments=a\x1fb\nc%25d)".to_string(),
            owner: "/O=Grid/CN=Eve\x1fMallory\r\n".to_string(),
            account: "eve%1F\x1f".to_string(),
        };
        let line = ev.encode();
        assert!(!line.contains('\n'));
        assert_eq!(
            line.matches(SEP).count(),
            4,
            "escaped fields leak separators"
        );
        assert_eq!(WalEvent::decode(&line), Some(ev));
        let ev = WalEvent::InfoQueried {
            owner: "a\x1fb".to_string(),
            account: "%".to_string(),
            keywords: "Memory,\nCPU".to_string(),
        };
        assert_eq!(WalEvent::decode(&ev.encode()), Some(ev));
    }

    #[test]
    fn decode_rejects_corrupt_lines() {
        assert_eq!(WalEvent::decode(""), None);
        assert_eq!(WalEvent::decode("NOISE"), None);
        assert_eq!(WalEvent::decode("STATE\x1fabc\x1fACTIVE"), None);
        assert_eq!(WalEvent::decode("STATE\x1f1\x1fDANCING"), None);
        // Raw newline / bad escape in an escaped field: the encoder never
        // produces these, so they are corruption.
        assert_eq!(WalEvent::decode("INFOQ\x1fa\nb\x1facct\x1fkw"), None);
        assert_eq!(WalEvent::decode("INFOQ\x1fa%ZZ\x1facct\x1fkw"), None);
        assert_eq!(WalEvent::decode("INFOQ\x1fa%2\x1facct\x1fkw"), None);
    }

    #[test]
    fn checkpoint_roundtrip() {
        let fold = CheckpointState::from_events(&sample_events());
        let ev = WalEvent::Checkpoint(Box::new(fold.clone()));
        let decoded = WalEvent::decode(&ev.encode()).expect("checkpoint decodes");
        assert_eq!(decoded, ev);
        // Replaying [checkpoint] alone equals replaying the history.
        assert_eq!(
            RecoveredState::from_events(std::slice::from_ref(&decoded)),
            RecoveredState::from_events(&sample_events())
        );
        assert_eq!(
            CheckpointState::from_events(&[decoded]).accounts,
            CheckpointState::from_events(&sample_events()).accounts
        );
    }

    /// The fold whose checkpoint frame [`GOLDEN_CHECKPOINT_FRAME`] is:
    /// three jobs (failed, canceled with hostile fields, in flight) and
    /// two accounts.
    fn golden_fold() -> CheckpointState {
        CheckpointState::from_events(&[
            WalEvent::ServiceStarted { epoch: 3 },
            WalEvent::Submitted {
                job_id: 1,
                rsl: "&(executable=/bin/date)(arguments=-u)".to_string(),
                owner: "/O=Grid/CN=Alice".to_string(),
                account: "alice".to_string(),
            },
            WalEvent::Submitted {
                job_id: 2,
                rsl: "&(executable=/bin/echo)(arguments=a\x1fb\nc%25d)".to_string(),
                owner: "/O=Grid/CN=Eve\x1fMallory\r\n".to_string(),
                account: "eve%1F\x1f".to_string(),
            },
            WalEvent::Finished {
                job_id: 1,
                state: JobStateCode::Failed,
                exit_code: Some(-3),
                wall_seconds: 1.25,
            },
            WalEvent::Submitted {
                job_id: 3,
                rsl: "(executable=simwork)(arguments=500)".to_string(),
                owner: "/O=Grid/CN=Alice".to_string(),
                account: "alice".to_string(),
            },
            WalEvent::InfoQueried {
                owner: "/O=Grid/CN=Alice".to_string(),
                account: "alice".to_string(),
                keywords: "Memory,CPU".to_string(),
            },
            WalEvent::Finished {
                job_id: 2,
                state: JobStateCode::Canceled,
                exit_code: None,
                wall_seconds: 0.1,
            },
        ])
    }

    /// What `FrameWal::install_checkpoint` appended for [`golden_fold`]
    /// before the encoder wrote into the frame buffer (captured from
    /// commit 5bcfe06, hex).
    const GOLDEN_CHECKPOINT_FRAME: &str = "\
        2c0100006d59fe46434b50541f331f331f331f321f311f262865786563757461\
         626c653d2f62696e2f646174652928617267756d656e74733d2d75291f2f4f3d\
         477269642f434e3d416c6963651f616c6963651f4641494c45441f2d331f321f\
         262865786563757461626c653d2f62696e2f6563686f2928617267756d656e74\
         733d612531466225304163253235323564291f2f4f3d477269642f434e3d4576\
         652531464d616c6c6f72792530442530411f65766525323531462531461f4341\
         4e43454c45441f2d1f331f2865786563757461626c653d73696d776f726b2928\
         617267756d656e74733d353030291f2f4f3d477269642f434e3d416c6963651f\
         616c6963651f2d1f2d1f616c6963651f321f301f311f312e32351f311f657665\
         25323531462531461f311f301f311f302e311f30";

    #[test]
    fn checkpoint_frame_bytes_are_the_previous_encoders() {
        let golden: Vec<u8> = (0..GOLDEN_CHECKPOINT_FRAME.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&GOLDEN_CHECKPOINT_FRAME[i..i + 2], 16).unwrap())
            .collect();
        let storage = MemStorage::new();
        let sink = FrameWal::open(storage.clone(), WalConfig::default()).unwrap();
        sink.install_checkpoint(&golden_fold()).unwrap();
        assert_eq!(storage.durable_bytes(2), golden);
        // And the old bytes decode to the same fold.
        let payload = std::str::from_utf8(&golden[8..]).unwrap();
        assert_eq!(
            WalEvent::decode(payload),
            Some(WalEvent::Checkpoint(Box::new(golden_fold())))
        );
    }

    #[test]
    fn checkpoint_rows_share_their_identity_strings() {
        let WalEvent::Checkpoint(ck) =
            WalEvent::decode(&WalEvent::Checkpoint(Box::new(golden_fold())).encode()).unwrap()
        else {
            panic!("a checkpoint decodes to a checkpoint");
        };
        let jobs = &ck.state.jobs;
        assert!(Arc::ptr_eq(&jobs[0].owner, &jobs[2].owner));
        assert!(Arc::ptr_eq(&jobs[0].account, &jobs[2].account));
        // A clone copies the table, not the text.
        let copy = ck.clone();
        assert!(Arc::ptr_eq(&copy.state.jobs[1].rsl, &jobs[1].rsl));
    }

    /// The definition [`crc32`] is a table-driven form of.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_is_the_bitwise_crc() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926, "the IEEE check value");
        // Every length across several eight-byte steps, at every
        // alignment of the slice start.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let noise: Vec<u8> = (0..4096)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect();
        for start in 0..9 {
            for len in (0..70).chain([255, 256, 257, 1000, 4000]) {
                let bytes = &noise[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bitwise(bytes),
                    "start {start} len {len}"
                );
            }
        }
        // The frames the fixtures above are made of.
        let mut buf = Vec::new();
        for ev in sample_events() {
            push_frame(&mut buf, &ev.encode());
        }
        let mut stats = RecoveryStats::default();
        for payload in scanned(&buf, &mut stats) {
            assert_eq!(crc32(payload.as_bytes()), crc32_bitwise(payload.as_bytes()));
        }
        assert_eq!(stats, RecoveryStats::default());
    }

    #[test]
    fn frame_scan_roundtrip_and_torn_tail() {
        let payloads = ["one", "two", "three"];
        let mut buf = Vec::new();
        for p in payloads {
            push_frame(&mut buf, p);
        }
        let mut stats = RecoveryStats::default();
        assert_eq!(scanned(&buf, &mut stats), payloads);
        assert_eq!(stats, RecoveryStats::default());
        // Every strict prefix yields a (possibly shorter) prefix of the
        // payloads plus a torn tail — never a panic, never garbage.
        for cut in 0..buf.len() {
            let mut stats = RecoveryStats::default();
            let got = scanned(&buf[..cut], &mut stats);
            assert!(got.len() <= payloads.len());
            assert_eq!(got, payloads[..got.len()]);
            assert_eq!(stats.corrupt_frames, 0);
            if got.len() < payloads.len() && cut > got_len_bytes(&payloads[..got.len()]) {
                assert!(stats.truncated_tail_bytes > 0);
            }
        }
    }

    fn got_len_bytes(payloads: &[&str]) -> usize {
        payloads.iter().map(|p| p.len() + 8).sum()
    }

    #[test]
    fn frame_scan_skips_mid_log_corruption() {
        let mut buf = Vec::new();
        push_frame(&mut buf, "first");
        let corrupt_at = buf.len() + 9; // a payload byte of the second frame
        push_frame(&mut buf, "second");
        push_frame(&mut buf, "third");
        buf[corrupt_at] ^= 0xFF;
        let mut stats = RecoveryStats::default();
        assert_eq!(scanned(&buf, &mut stats), ["first", "third"]);
        assert_eq!(stats.corrupt_frames, 1);
        assert_eq!(stats.truncated_tail_bytes, 0);
    }

    #[test]
    fn mem_wal_roundtrip() {
        let wal = Wal::in_memory();
        commit_all(&wal, &sample_events());
        assert_eq!(wal.events(), sample_events());
    }

    #[test]
    fn record_is_read_your_writes() {
        let wal = Wal::in_memory();
        wal.record(SimTime::ZERO, &sample_events()[0]);
        wal.record(SimTime::ZERO, &sample_events()[1]);
        assert_eq!(wal.events().len(), 2);
        assert_eq!(wal.with_fold(|fold| fold.state.jobs.len()), 1);
    }

    #[test]
    fn file_wal_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("infogram-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test-survive.log");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        {
            let wal = Wal::new(Box::new(FileWal::open(&path).unwrap()));
            commit_all(&wal, &sample_events());
        }
        let wal = Wal::new(Box::new(FileWal::open(&path).unwrap()));
        assert_eq!(wal.events(), sample_events());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn frame_wal_recovers_from_mem_storage_crash() {
        let storage = MemStorage::new();
        let cfg = WalConfig::default();
        {
            let wal = Wal::with_config(
                Box::new(FrameWal::open(storage.clone(), cfg.clone()).unwrap()),
                cfg.clone(),
            );
            commit_all(&wal, &sample_events());
            // One relaxed record that is appended but never synced.
            wal.record(
                SimTime::ZERO,
                &WalEvent::StateChanged {
                    job_id: 2,
                    state: JobStateCode::Active,
                },
            );
        }
        storage.crash();
        storage.restart();
        let wal = Wal::with_config(Box::new(FrameWal::open(storage, cfg.clone()).unwrap()), cfg);
        // Committed events survive; the unsynced relaxed record is gone.
        assert_eq!(wal.events(), sample_events());
    }

    #[test]
    fn checkpoint_bounds_replay_and_reclaims_segments() {
        let storage = MemStorage::new();
        let cfg = WalConfig {
            segment_max_bytes: 256,
            checkpoint_every_events: 10_000,
            ..WalConfig::default()
        };
        let wal = Wal::with_config(
            Box::new(FrameWal::open(storage.clone(), cfg.clone()).unwrap()),
            cfg.clone(),
        );
        for i in 1..=50u64 {
            wal.commit(
                SimTime::ZERO,
                &[
                    WalEvent::Submitted {
                        job_id: i,
                        rsl: format!("(executable=job{i})"),
                        owner: "/O=Grid/CN=Alice".to_string(),
                        account: "alice".to_string(),
                    },
                    WalEvent::Finished {
                        job_id: i,
                        state: JobStateCode::Done,
                        exit_code: Some(0),
                        wall_seconds: 1.0,
                    },
                ],
            )
            .unwrap();
        }
        drop(wal);
        let wal = Wal::with_config(
            Box::new(FrameWal::open(storage.clone(), cfg.clone()).unwrap()),
            cfg,
        );
        let stats = wal.recovery_stats().clone();
        assert!(stats.checkpoint_used, "replay should start at a checkpoint");
        assert!(
            stats.events_replayed < 100,
            "checkpoint + tail, not full history (replayed {})",
            stats.events_replayed
        );
        assert!(
            stats.segments_total <= 3,
            "old segments reclaimed (have {})",
            stats.segments_total
        );
        // And the folded table is complete despite the bounded replay.
        let snap = wal.with_fold(CheckpointState::clone);
        assert_eq!(snap.state.jobs.len(), 50);
        assert_eq!(snap.state.last_job_id, 50);
        assert_eq!(snap.accounts["alice"].completed, 50);
        assert!((snap.accounts["alice"].wall_seconds - 50.0).abs() < 1e-6);
    }

    #[test]
    fn checkpoints_follow_bytes_appended_once_the_table_outgrows_a_segment() {
        let cfg = WalConfig {
            segment_max_bytes: 1024,
            checkpoint_every_events: 1_000_000,
            ..WalConfig::default()
        };
        let metrics = MetricSet::new();
        let mut wal = Wal::with_config(
            Box::new(FrameWal::open(MemStorage::new(), cfg.clone()).unwrap()),
            cfg.clone(),
        );
        wal.set_telemetry(metrics.clone());
        // A job table several segments large: every checkpoint frame
        // from here on is bigger than `segment_max_bytes` by itself.
        for job_id in 1..=64u64 {
            let submitted = WalEvent::Submitted {
                job_id,
                rsl: "&(executable=simwork)(arguments=1000)".to_string(),
                owner: "/O=Grid/CN=Alice".to_string(),
                account: "alice".to_string(),
            };
            wal.commit(SimTime::ZERO, &[submitted]).unwrap();
        }
        let table = wal.with_fold(|fold| checkpoint_frame(fold).len() as u64);
        assert!(table > 4 * cfg.segment_max_bytes);

        let before = metrics.counter_value("wal.checkpoints");
        let mut appended = 0u64;
        for i in 0..400u64 {
            let event = WalEvent::StateChanged {
                job_id: 1 + i % 64,
                state: JobStateCode::Active,
            };
            appended += 8 + event.encode().len() as u64; // frame header + payload
            wal.commit(SimTime::ZERO, &[event]).unwrap();
        }
        let cut = metrics.counter_value("wal.checkpoints") - before;
        let segments = appended / cfg.segment_max_bytes;
        assert!(segments >= 4, "the appends must span several segments");
        assert!(
            (segments - 1..=segments + 1).contains(&cut),
            "400 appends of {appended} bytes should cut about {segments} checkpoints, cut {cut}"
        );
    }

    #[test]
    fn commit_fails_and_degrades_on_disk_fault() {
        let plan = DiskFaultPlan::new();
        plan.fault_append(0, DiskFault::FailAppend);
        let storage = MemStorage::with_plan(Some(plan));
        let cfg = WalConfig::default();
        let wal = Wal::with_config(Box::new(FrameWal::open(storage, cfg.clone()).unwrap()), cfg);
        let t0 = SimTime::ZERO;
        let err = wal.commit(t0, &[sample_events()[0].clone()]).unwrap_err();
        assert!(matches!(err, WalError::Io(_)), "got {err:?}");
        // Now degraded: fast-path rejection with a retry hint.
        let err = wal.commit(t0, &[sample_events()[0].clone()]).unwrap_err();
        match err {
            WalError::ReadOnly { retry_after_ms } => assert!(retry_after_ms > 0),
            other => panic!("expected ReadOnly, got {other:?}"),
        }
        assert!(wal.read_only_hint(t0).is_some());
        // After the backoff the next commit probes and heals.
        let later = t0.plus(Duration::from_secs(2));
        assert!(wal.read_only_hint(later).is_none());
        wal.commit(later, &[sample_events()[0].clone()]).unwrap();
        assert!(wal.read_only_hint(later).is_none());
    }

    #[test]
    fn fsync_failure_fails_the_commit_but_rotation_recovers() {
        let plan = DiskFaultPlan::new();
        plan.fail_sync(0);
        let storage = MemStorage::with_plan(Some(plan));
        let cfg = WalConfig::default();
        let wal = Wal::with_config(
            Box::new(FrameWal::open(storage.clone(), cfg.clone()).unwrap()),
            cfg.clone(),
        );
        let t0 = SimTime::ZERO;
        assert!(wal.commit(t0, &[sample_events()[0].clone()]).is_err());
        let later = t0.plus(Duration::from_secs(2));
        wal.commit(later, &[sample_events()[1].clone()]).unwrap();
        drop(wal);
        // The failed commit's bytes may exist but the successful one must
        // be recoverable after a crash.
        storage.crash();
        storage.restart();
        let wal = Wal::with_config(Box::new(FrameWal::open(storage, cfg.clone()).unwrap()), cfg);
        assert!(wal.events().contains(&sample_events()[1]));
    }

    #[test]
    fn recovery_finds_unfinished_jobs() {
        let state = RecoveredState::from_events(&sample_events());
        assert_eq!(state.last_epoch, 1);
        assert_eq!(state.last_job_id, 2);
        assert_eq!(state.jobs.len(), 2);
        let unfinished = state.unfinished();
        assert_eq!(unfinished.len(), 1);
        assert_eq!(unfinished[0].job_id, 2);
        assert_eq!(&*unfinished[0].account, "bob");
        // Job 1 finished before the crash.
        assert_eq!(state.jobs[0].finished, Some((JobStateCode::Done, Some(0))));
    }

    #[test]
    fn recovery_skips_corrupt_lines() {
        let wal = Wal::in_memory();
        wal.record(SimTime::ZERO, &sample_events()[0]);
        wal.sink.append_batch(&["CORRUPT LINE"], false).unwrap();
        wal.record(SimTime::ZERO, &sample_events()[1]);
        assert_eq!(wal.events().len(), 2);
    }

    #[test]
    fn accounting_per_account() {
        let mut events = sample_events();
        events.push(WalEvent::Finished {
            job_id: 2,
            state: JobStateCode::Failed,
            exit_code: Some(3),
            wall_seconds: 0.75,
        });
        let summary = CheckpointState::from_events(&events).accounts;
        let alice = &summary["alice"];
        assert_eq!(alice.submitted, 1);
        assert_eq!(alice.completed, 1);
        assert_eq!(alice.failed, 0);
        assert!((alice.wall_seconds - 1.25).abs() < 1e-9);
        let bob = &summary["bob"];
        assert_eq!(bob.submitted, 1);
        assert_eq!(bob.failed, 1);
    }

    #[test]
    fn accounting_counts_info_queries() {
        let events = vec![
            WalEvent::InfoQueried {
                owner: "/O=Grid/CN=Alice".to_string(),
                account: "alice".to_string(),
                keywords: "Memory".to_string(),
            },
            WalEvent::InfoQueried {
                owner: "/O=Grid/CN=Alice".to_string(),
                account: "alice".to_string(),
                keywords: "CPU,CPULoad".to_string(),
            },
        ];
        let summary = CheckpointState::from_events(&events).accounts;
        assert_eq!(summary["alice"].info_queries, 2);
        assert_eq!(summary["alice"].submitted, 0);
    }

    #[test]
    fn epoch_tracking_across_restarts() {
        let events = vec![
            WalEvent::ServiceStarted { epoch: 1 },
            WalEvent::ServiceStarted { epoch: 2 },
            WalEvent::ServiceStarted { epoch: 3 },
        ];
        assert_eq!(RecoveredState::from_events(&events).last_epoch, 3);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Free-form field content, heavy on what [`Esc`] must escape.
    const HOSTILE: &str = "[a-z/=()&%1F0AD\x1f\\n\\r]{0,16}";

    fn arb_event() -> impl Strategy<Value = WalEvent> {
        let state = prop_oneof![
            Just(JobStateCode::Done),
            Just(JobStateCode::Failed),
            Just(JobStateCode::Canceled),
        ];
        prop_oneof![
            (1u64..12, HOSTILE, HOSTILE, HOSTILE).prop_map(|(job_id, rsl, owner, account)| {
                WalEvent::Submitted {
                    job_id,
                    rsl,
                    owner,
                    account,
                }
            }),
            (1u64..12, state, prop::option::of(-3i32..300), 0u32..100_000).prop_map(
                |(job_id, state, exit_code, millis)| WalEvent::Finished {
                    job_id,
                    state,
                    exit_code,
                    wall_seconds: millis as f64 / 1000.0,
                }
            ),
            (HOSTILE, HOSTILE, HOSTILE).prop_map(|(owner, account, keywords)| {
                WalEvent::InfoQueried {
                    owner,
                    account,
                    keywords,
                }
            }),
            (1u64..9).prop_map(|epoch| WalEvent::ServiceStarted { epoch }),
        ]
    }

    proptest! {
        /// A checkpoint's encoding is a fixed point: what decodes from
        /// it is the fold that was encoded, and encodes to the same bytes.
        #[test]
        fn checkpoint_encode_decode_encode_is_a_fixed_point(
            events in prop::collection::vec(arb_event(), 0..24)
        ) {
            let fold = CheckpointState::from_events(&events);
            let first = WalEvent::Checkpoint(Box::new(fold)).encode();
            let decoded = WalEvent::decode(&first);
            prop_assert!(decoded.is_some(), "does not decode: {first:?}");
            let decoded = decoded.unwrap();
            prop_assert_eq!(decoded.encode(), first.clone());
            let WalEvent::Checkpoint(ck) = decoded else {
                panic!("a checkpoint decodes to a checkpoint");
            };
            prop_assert_eq!(checkpoint_frame(&ck)[8..].to_vec(), first.into_bytes());
        }
    }
}
