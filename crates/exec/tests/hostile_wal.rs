//! Recovery holds what it decoded, not what the disk holds.
//!
//! A restart streams each segment of the log through a buffer of
//! [`IO_BUF`] bytes: a checkpoint is decoded field by field as it
//! arrives, any other frame passes through one reused buffer. So the
//! largest single allocation of a reopen is bounded by one constant,
//! whatever the log's size and whatever its bytes. These tests reopen
//! every corruption of a small file log (the shared sweep's
//! `corruptions()`: each strict prefix, each byte with each bit and with
//! all eight flipped) and an intact log many buffers long, and hold each
//! reopen's largest request to [`LARGEST`].

// Its allocator and `corruptions()`; not its `sweep`, whose decoders
// refuse every cut — these do not.
#[allow(dead_code)]
#[path = "../../../tests/support/hostile.rs"]
mod hostile;

use hostile::{corruptions, largest_request};
use infogram_exec::wal::{FileWal, Wal, WalConfig, WalEvent, IO_BUF};
use infogram_proto::message::JobStateCode;
use infogram_sim::SimTime;
use std::path::{Path, PathBuf};

/// The most a reopen may ask for at once: a chunk of the job table — its
/// 512 rows of 40 bytes (20 KiB), or their texts in one buffer, never
/// grown past a full chunk of texts as long (512 of at most 37 bytes
/// here; `job_memory.rs` bounds what a long text asks for) — is the
/// largest thing recovery builds, and the read buffer is [`IO_BUF`].
const LARGEST: usize = 4 * IO_BUF;

/// A directory for one test's logs, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "infogram-hostile-wal-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A file log at `prefix` holding `jobs` jobs, submitted and finished in
/// durable batches of `batch` jobs, cut into a checkpoint every
/// `checkpoint_every` events; the bytes of its one remaining segment:
/// checkpoint + tail.
fn file_log(prefix: &Path, jobs: u64, batch: usize, checkpoint_every: u64) -> Vec<u8> {
    let cfg = WalConfig {
        checkpoint_every_events: checkpoint_every,
        ..WalConfig::default()
    };
    let wal = Wal::with_config(Box::new(FileWal::open(prefix).unwrap()), cfg);
    let ids: Vec<u64> = (1..=jobs).collect();
    for batch in ids.chunks(batch) {
        let events: Vec<WalEvent> = batch
            .iter()
            .flat_map(|&job_id| {
                let submitted = WalEvent::Submitted {
                    job_id,
                    rsl: format!("&(executable=simwork)(arguments={job_id})"),
                    owner: format!("/O=Grid/CN=user{}", job_id % 4),
                    account: format!("user{}", job_id % 4),
                };
                let finished = WalEvent::Finished {
                    job_id,
                    state: JobStateCode::Done,
                    exit_code: Some(0),
                    wall_seconds: 0.001,
                };
                // The last job of a batch is still running.
                let running = job_id == *batch.last().unwrap();
                std::iter::once(submitted).chain((!running).then_some(finished))
            })
            .collect();
        wal.commit(SimTime::ZERO, &events).unwrap();
    }
    let events = wal.events();
    assert!(matches!(events[0], WalEvent::Checkpoint(_)));
    assert!(events.len() > 1, "a tail follows the checkpoint");
    drop(wal);
    let dir = prefix.parent().unwrap();
    let segments: Vec<_> = std::fs::read_dir(dir).unwrap().collect();
    assert_eq!(segments.len(), 1, "older segments were reclaimed");
    std::fs::read(segments[0].as_ref().unwrap().path()).unwrap()
}

/// Reopen the log whose one segment is `bytes` (written at `prefix`'s
/// segment 1); the jobs it recovered and the largest request it made.
fn reopen(prefix: &Path, bytes: &[u8]) -> (usize, usize) {
    let mut seg = prefix.as_os_str().to_os_string();
    seg.push(".1");
    std::fs::write(seg, bytes).unwrap();
    let (jobs, largest) = largest_request(|| {
        let wal = Wal::new(Box::new(FileWal::open(prefix).unwrap()));
        wal.with_fold(|fold| fold.state.jobs.len())
    });
    (jobs, largest)
}

#[test]
fn no_corruption_of_a_small_log_makes_recovery_allocate_past_one_constant() {
    let scratch = Scratch::new("small");
    let log = file_log(&scratch.0.join("small").join("jobs.wal"), 7, 2, 8);
    assert!(log.len() < IO_BUF, "{} bytes", log.len());
    let prefix = scratch.0.join("reopened.wal");
    let (jobs, _) = reopen(&prefix, &log);
    assert_eq!(jobs, 7);
    let mut worst = 0;
    for (_, bytes) in corruptions(&log) {
        let (jobs, largest) = reopen(&prefix, &bytes);
        assert!(jobs <= 7, "{jobs} jobs invented from {} bytes", bytes.len());
        assert!(
            largest <= LARGEST,
            "{largest} bytes asked for at once reopening {} bytes",
            bytes.len()
        );
        worst = worst.max(largest);
    }
    println!(
        "small log of {} bytes, every corruption: at most {worst} bytes at once",
        log.len()
    );
}

/// The intact log spans many read buffers and is larger than
/// [`LARGEST`] by itself: a reopen that held a segment would ask for it
/// whole.
#[test]
fn reopening_a_log_many_buffers_long_allocates_no_more_than_a_small_one() {
    let scratch = Scratch::new("large");
    let log = file_log(&scratch.0.join("large").join("jobs.wal"), 1_500, 50, 2_000);
    assert!(log.len() >= 4 * IO_BUF, "{} bytes", log.len());
    assert!(log.len() > LARGEST, "{} bytes", log.len());
    let (jobs, largest) = reopen(&scratch.0.join("reopened.wal"), &log);
    println!(
        "intact log of {} bytes: at most {largest} bytes at once",
        log.len()
    );
    assert_eq!(jobs, 1_500);
    assert!(largest <= LARGEST, "{largest} bytes asked for at once");
}
