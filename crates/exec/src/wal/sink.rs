//! The sink: record payloads as checksummed frames over a storage. Plain
//! state — the `Wal` that owns it only touches it under `exec.wal.io`.

use super::event::WalEvent;
use super::fold::CheckpointState;
use super::frame::{
    declared_head_checkpoint, frame_batch, head_is_checkpoint, scan_segment, CheckpointFrame,
    RecoveryStats,
};
use super::storage::{FileStorage, WalStorage};
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

/// Where record payloads go: checksummed, length-prefixed frames over
/// segmented [`WalStorage`]. "The log can either be stored in the middle
/// tier, or on the backend tier" — the storage decides which: crashable
/// memory or real files.
#[derive(Debug)]
pub struct FrameWal {
    storage: Arc<dyn WalStorage>,
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

impl FrameWal {
    /// Open (resuming existing segments if present) over `storage`.
    pub fn open(storage: Arc<dyn WalStorage>) -> io::Result<FrameWal> {
        let mut segs = storage.segments()?;
        segs.sort_unstable();
        let active = match segs.last() {
            Some(&s) => s,
            None => {
                segs.push(1);
                1
            }
        };
        // The head frame's declared size is all this needs of the segment.
        let tail_len = storage
            .reader(active)
            .map(|(head, len)| len - declared_head_checkpoint(head, len))
            .unwrap_or(0);
        Ok(FrameWal {
            storage,
            next_seg: active + 1,
            segs,
            active,
            tail_len,
            poisoned: false,
        })
    }

    /// Append a batch of payloads atomically-enough: a crash may tear the
    /// tail of the batch but never reorders it. `durable` requests an
    /// fsync before returning.
    pub(super) fn append_batch(&mut self, payloads: &[&str], durable: bool) -> io::Result<()> {
        if self.poisoned {
            self.active = self.next_seg;
            self.next_seg += 1;
            self.segs.push(self.active);
            self.tail_len = 0;
        }
        let buf = frame_batch(payloads);
        let written = self.storage.append(self.active, &buf).and_then(|()| {
            self.tail_len += buf.len() as u64;
            if durable {
                self.storage.sync(self.active)
            } else {
                Ok(())
            }
        });
        self.poisoned = written.is_err();
        written
    }

    /// Hand every event recoverable from storage (checkpoint + tail) to
    /// `visit`, in log order, with the damage accounting so far (which
    /// `visit` may add to). Each segment streams through a bounded
    /// buffer: what is held is what was decoded.
    pub(super) fn load(
        &self,
        visit: &mut dyn FnMut(WalEvent, &mut RecoveryStats),
    ) -> RecoveryStats {
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
            let probe = self.storage.reader(segs[i]);
            if probe
                .and_then(|(src, len)| head_is_checkpoint(src, len))
                .unwrap_or(false)
            {
                start = i;
                break;
            }
        }
        for &seg in &segs[start..] {
            let scan = self.storage.reader(seg);
            if scan
                .and_then(|(src, len)| scan_segment(src, len, &mut stats, visit))
                .is_err()
            {
                stats.io_errors += 1;
            }
        }
        stats.segments_read = (segs.len() - start) as u64;
        stats
    }

    /// Bytes appended since the newest checkpoint; whether that makes a
    /// checkpoint due is the log's decision, not the sink's.
    pub(super) fn tail_len(&self) -> u64 {
        self.tail_len
    }

    /// Start a new segment headed by `checkpoint` and reclaim older
    /// history. The frame is measured, then encoded straight into one
    /// append through a bounded writer. Returns how many segments were
    /// reclaimed.
    pub fn install_checkpoint(&mut self, checkpoint: &CheckpointState) -> io::Result<u64> {
        let frame = CheckpointFrame::measure(checkpoint);
        let seg = self.next_seg;
        self.next_seg += 1;
        // Durable new segment BEFORE reclaiming old ones: a crash between
        // the two leaves extra history, never a hole.
        if let Err(e) = self
            .storage
            .append_with(seg, frame.len(), &mut |out| frame.write_to(out))
            .and_then(|()| self.storage.sync(seg))
        {
            let _ = self.storage.remove(seg);
            return Err(e);
        }
        let mut reclaimed = 0u64;
        self.segs.retain(|&s| {
            let removed = self.storage.remove(s).is_ok();
            reclaimed += removed as u64;
            !removed
        });
        self.segs.push(seg);
        self.active = seg;
        self.tail_len = 0;
        self.poisoned = false;
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
        FrameWal::open(Arc::new(FileStorage::open(path)?))
    }
}

#[cfg(test)]
mod tests {
    use super::super::event::fixtures::golden_fold;
    use super::super::{MemStorage, RecoveredState, Wal, WalConfig};
    use super::*;
    use infogram_proto::message::JobStateCode;
    use infogram_sim::metrics::MetricSet;
    use infogram_sim::SimTime;
    use std::io::Read;

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
        let mut sink = FrameWal::open(storage.clone()).unwrap();
        sink.install_checkpoint(&golden_fold()).unwrap();
        assert_eq!(storage.durable_bytes(2), golden);
        // And the old bytes decode to the same fold.
        let payload = std::str::from_utf8(&golden[8..]).unwrap();
        assert_eq!(
            WalEvent::decode(payload),
            Some(WalEvent::Checkpoint(Box::new(golden_fold())))
        );
    }

    /// Opening reads the active segment's head, not the segment: on
    /// either storage, the bytes appended after its head checkpoint come
    /// out as they did when the whole segment was read and checksummed.
    #[test]
    fn open_measures_the_tail_from_the_head_alone() {
        let mut checkpoint = Vec::new();
        let golden = golden_fold();
        CheckpointFrame::measure(&golden)
            .write_to(&mut checkpoint)
            .unwrap();
        let records = frame_batch(&["START\x1f1", "STATE\x1f1\x1fACTIVE"]);
        let n = records.len() as u64;
        // Each segment, and the tail a whole-segment scan measures.
        let cases = [
            (Vec::new(), 0),
            ([&checkpoint[..], &records].concat(), n),
            (records.clone(), n),
            // A torn tail, and a torn head.
            (
                [&checkpoint[..], &records[..records.len() - 3]].concat(),
                n - 3,
            ),
            (
                checkpoint[..checkpoint.len() - 1].to_vec(),
                checkpoint.len() as u64 - 1,
            ),
        ];
        let dir = std::env::temp_dir().join(format!("infogram-head-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for (case, (bytes, tail)) in cases.iter().enumerate() {
            // The simulator's disk, the head split across its durable and
            // volatile bytes.
            let mem = MemStorage::new();
            let durable = bytes.len().min(10);
            mem.preload(1, bytes[..durable].to_vec());
            mem.append(1, &bytes[durable..]).unwrap();
            let prefix = dir.join(format!("case{case}.wal"));
            std::fs::write(dir.join(format!("case{case}.wal.1")), bytes).unwrap();
            let file = Arc::new(FileStorage::open(prefix).unwrap());
            let storages: [Arc<dyn WalStorage>; 2] = [mem, file];
            for storage in storages {
                let (mut reader, len) = storage.reader(1).unwrap();
                let mut read = Vec::new();
                reader.read_to_end(&mut read).unwrap();
                assert_eq!((&read, len), (bytes, bytes.len() as u64), "case {case}");
                drop(reader);
                let sink = FrameWal::open(storage).unwrap();
                assert_eq!(sink.tail_len(), *tail, "case {case}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn contract_cfg() -> WalConfig {
        WalConfig {
            checkpoint_every_events: 8,
            ..WalConfig::default()
        }
    }

    /// Twelve jobs through `sink` — durable submits and finishes, relaxed
    /// breadcrumbs and logged queries between them — and what the log
    /// then holds: fold, `events()`, checkpoints cut.
    fn contract_script(sink: FrameWal) -> (CheckpointState, Vec<WalEvent>, u64) {
        let metrics = MetricSet::new();
        let mut wal = Wal::with_config(Box::new(sink), contract_cfg());
        wal.set_telemetry(metrics.clone());
        let t = SimTime::ZERO;
        wal.commit(t, &[WalEvent::ServiceStarted { epoch: 1 }])
            .unwrap();
        for job_id in 1..=12u64 {
            let account = if job_id % 3 == 0 { "carol" } else { "dave" };
            let submitted = WalEvent::Submitted {
                job_id,
                rsl: format!("&(executable=simwork)(arguments={job_id})"),
                owner: format!("/O=Grid/CN={account}"),
                account: account.to_string(),
            };
            wal.commit(t, &[submitted]).unwrap();
            let state = JobStateCode::Active;
            wal.record(t, &WalEvent::StateChanged { job_id, state });
            let queried = WalEvent::InfoQueried {
                owner: format!("/O=Grid/CN={account}"),
                account: account.to_string(),
                keywords: "Memory,CPU".to_string(),
            };
            wal.record(t, &queried);
            if job_id % 2 == 0 {
                let finished = WalEvent::Finished {
                    job_id,
                    state: JobStateCode::Done,
                    exit_code: Some(0),
                    wall_seconds: 0.5 * job_id as f64,
                };
                wal.commit(t, &[finished]).unwrap();
            }
        }
        (
            wal.with_fold(CheckpointState::clone),
            wal.events(),
            metrics.counter_value("wal.checkpoints"),
        )
    }

    /// One contract for every storage: the same script — the `INFOQ`
    /// lines a log written before ISSUE 18 holds included — leaves the
    /// same fold, the same `events()` and the same number of checkpoints
    /// behind, and recovers to them on reopen.
    #[test]
    fn every_sink_keeps_the_same_log() {
        let dir = std::env::temp_dir().join(format!("infogram-sinks-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mem = MemStorage::new();
        let file = || Arc::new(FileStorage::open(dir.join("contract.wal")).unwrap());

        let expected = contract_script(FrameWal::open(mem.clone()).unwrap());
        let (fold, events, checkpoints) = &expected;
        assert_eq!(fold.state.jobs.len(), 12);
        assert_eq!(fold.state.unfinished().len(), 6);
        assert_eq!(fold.accounts["dave"].info_queries, 8);
        assert_eq!(*checkpoints, 5, "43 events at 8 per checkpoint");
        assert!(matches!(events[0], WalEvent::Checkpoint(_)));
        assert_eq!(events.len(), 1 + 43 % 8, "checkpoint + tail");
        assert_eq!(contract_script(FrameWal::open(file()).unwrap()), expected);

        let reopened: [Arc<dyn WalStorage>; 2] = [mem, file()];
        for storage in reopened {
            let sink = FrameWal::open(storage).unwrap();
            let wal = Wal::with_config(Box::new(sink), contract_cfg());
            assert_eq!(&wal.with_fold(CheckpointState::clone), fold);
            assert_eq!(&wal.events(), events);
            assert_eq!(RecoveredState::from_events(events), fold.state);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
