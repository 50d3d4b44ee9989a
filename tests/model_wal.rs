//! Model-checked invariants for the WAL group-commit protocol.
//!
//! Runs only with `--features model` (`scripts/check_model.sh`): each
//! test hands a small multi-threaded scenario to the schedule explorer
//! in `infogram_sim::model`, which re-executes it under every bounded
//! interleaving of its synchronization points.
//!
//! Checked invariants (see DESIGN.md §14):
//!
//! * **No ack before durable (seeded)** — a fixture reintroducing the
//!   tempting group-commit bug (the leader acks everything *enqueued*
//!   when its flush completes, instead of everything it actually
//!   *took* into the flushed batch) must be *caught* by the explorer:
//!   a committer that enqueued mid-flush gets an Ok for bytes that
//!   never reached the disk.
//! * **The shipped [`Wal`] passes the identical scenario** — a commit
//!   ticket only resolves Ok once its payload is fsynced; racing
//!   submitters never lose a ticket (every commit returns).
//! * **Failure honesty under races** — with an injected fsync failure,
//!   every racing committer gets either Ok-with-durable-bytes or an
//!   error; no interleaving produces an acked-but-lost record.

#![cfg(feature = "model")]

use infogram::exec::{FrameWal, MemStorage, Wal, WalEvent, WalStorage};
use infogram::sim::fault::Plan;
use infogram::sim::model;
use infogram::sim::SimTime;
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;

#[path = "support/model_pair.rs"]
mod model_pair;

/// True if `needle` is somewhere in the durable (crash-surviving) bytes
/// of the storage — frames embed payloads verbatim, so a committed
/// record is durable exactly when its encoded payload is.
fn durable_contains(storage: &MemStorage, needle: &str) -> bool {
    (1..=4u64).any(|seg| {
        let bytes = storage.durable_bytes(seg);
        bytes.windows(needle.len()).any(|w| w == needle.as_bytes())
    })
}

fn submit_event(job_id: u64) -> WalEvent {
    WalEvent::Submitted {
        job_id,
        rsl: format!("(executable=job{job_id})"),
        owner: format!("/O=Grid/CN=U{job_id}"),
        account: "acct".to_string(),
    }
}

// ---------------------------------------------------------------------
// Seeded regression: leader acks `enqueued` instead of `taken`
// ---------------------------------------------------------------------

/// The shipped `Wal` snapshots `taken..taken+batch` when the leader
/// drains the buffer, and on success advances `durable` only to the end
/// of that batch. This fixture reintroduces the tempting shortcut of
/// advancing `durable` to `enqueued` — "everything anyone asked for by
/// now" — which acks a payload that was enqueued *during* the flush and
/// is still sitting in the un-flushed buffer.
struct BuggyGroupWal {
    storage: Arc<MemStorage>,
    q: Mutex<BuggyQueue>,
    cv: Condvar,
}

#[derive(Default)]
struct BuggyQueue {
    buf: Vec<String>,
    enqueued: u64,
    durable: u64,
    flushing: bool,
}

impl BuggyGroupWal {
    fn new(storage: Arc<MemStorage>) -> Self {
        BuggyGroupWal {
            storage,
            q: Mutex::new(BuggyQueue::default()),
            cv: Condvar::new(),
        }
    }

    fn commit(&self, payload: &str) {
        let mut q = self.q.lock();
        q.enqueued += 1;
        let my = q.enqueued;
        q.buf.push(payload.to_string());
        loop {
            if q.durable >= my {
                return;
            }
            if !q.flushing {
                q.flushing = true;
                let batch = std::mem::take(&mut q.buf);
                drop(q);
                let mut bytes = Vec::new();
                for p in &batch {
                    bytes.extend_from_slice(p.as_bytes());
                }
                self.storage.append(1, &bytes).unwrap();
                self.storage.sync(1).unwrap();
                q = self.q.lock();
                q.flushing = false;
                // BUG (reintroduced): ack everything enqueued so far —
                // including payloads that arrived mid-flush and are
                // still in `buf`, not on the disk.
                q.durable = q.enqueued;
                self.cv.notify_all();
                continue;
            }
            self.cv.wait(&mut q);
        }
    }
}

#[test]
fn model_finds_seeded_ack_before_durable_bug() {
    let report = model::explore(&model_pair::regression_config(), || {
        let storage = MemStorage::new();
        let wal = Arc::new(BuggyGroupWal::new(Arc::clone(&storage)));
        let mut handles = Vec::new();
        for payload in ["PAYLOAD-A", "PAYLOAD-B"] {
            let wal = Arc::clone(&wal);
            let storage = Arc::clone(&storage);
            handles.push(model::spawn(move || {
                wal.commit(payload);
                assert!(
                    durable_contains(&storage, payload),
                    "acked before durable: {payload} not on disk"
                );
            }));
        }
        for h in handles {
            h.join();
        }
    });
    model_pair::expect_found(&report, "acked before durable");
}

// ---------------------------------------------------------------------
// The shipped Wal under the identical scenario
// ---------------------------------------------------------------------

#[test]
fn shipped_wal_never_acks_before_durable() {
    let report = model::explore(&model_pair::bounded_config(), || {
        let storage = MemStorage::new();
        let wal = Arc::new(Wal::new(Box::new(
            FrameWal::open(Arc::clone(&storage) as Arc<dyn WalStorage>).unwrap(),
        )));
        let mut handles = Vec::new();
        for job_id in [1u64, 2] {
            let wal = Arc::clone(&wal);
            let storage = Arc::clone(&storage);
            handles.push(model::spawn(move || {
                let ev = submit_event(job_id);
                let payload = ev.encode();
                // No lost ticket: commit always returns; healthy disk
                // means it returns Ok.
                wal.commit(SimTime::ZERO, &[ev]).unwrap();
                assert!(
                    durable_contains(&storage, &payload),
                    "acked before durable: job {job_id} not on disk"
                );
            }));
        }
        for h in handles {
            h.join();
        }
    });
    model_pair::expect_cleared(&report);
}

// ---------------------------------------------------------------------
// Failure honesty: an injected fsync failure never yields a lost ack
// ---------------------------------------------------------------------

#[test]
fn racing_committers_get_ok_durable_or_an_error() {
    let report = model::explore(&model_pair::bounded_config(), || {
        let plan = Plan::new();
        plan.fail_sync(0); // the first fsync (whichever batch wins) fails
        let storage = MemStorage::with_plan(Some(plan));
        let wal = Arc::new(Wal::new(Box::new(
            FrameWal::open(Arc::clone(&storage) as Arc<dyn WalStorage>).unwrap(),
        )));
        let mut handles = Vec::new();
        for job_id in [1u64, 2] {
            let wal = Arc::clone(&wal);
            let storage = Arc::clone(&storage);
            handles.push(model::spawn(move || {
                let ev = submit_event(job_id);
                let payload = ev.encode();
                // Every ticket resolves; Ok implies durable bytes. (An
                // error is legal — the batch hit the injected fsync
                // failure, or arrived while the log was read-only.)
                if wal.commit(SimTime::ZERO, &[ev]).is_ok() {
                    assert!(
                        durable_contains(&storage, &payload),
                        "acked before durable under fsync failure: job {job_id}"
                    );
                }
            }));
        }
        for h in handles {
            h.join();
        }
    });
    model_pair::expect_cleared(&report);
}
