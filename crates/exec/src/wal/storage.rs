//! Storage: numbered segments of raw bytes under a sink — the
//! simulator's crashable disk and the real one.

use infogram_sim::fault::{AppendVerdict, Plan, SyncVerdict, DISK_CRASHED_DETAIL};
use parking_lot::{lock_class, Mutex};
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Raw segment storage under a [`FrameWal`](super::FrameWal) — numbered
/// segments of bytes with append/sync/remove.
pub trait WalStorage: Send + Sync + std::fmt::Debug {
    /// Segment numbers currently present, in any order.
    fn segments(&self) -> io::Result<Vec<u64>>;
    /// A reader of a segment's bytes, and how many there are; an absent
    /// segment reads as empty. The caller decides how much it holds.
    fn reader(&self, seg: u64) -> io::Result<(Box<dyn Read + '_>, u64)>;
    /// Append `len` bytes to a segment (creating it if absent), as `write`
    /// produces them: one append, however many writes it takes. May write
    /// a prefix and fail (short write).
    fn append_with(
        &self,
        seg: u64,
        len: usize,
        write: &mut dyn FnMut(&mut dyn Write) -> io::Result<()>,
    ) -> io::Result<()>;
    /// Append bytes to a segment (creating it if absent). May write a
    /// prefix and fail (short write).
    fn append(&self, seg: u64, bytes: &[u8]) -> io::Result<()> {
        self.append_with(seg, bytes.len(), &mut |out| out.write_all(bytes))
    }
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

impl MemStorageState {
    /// Power loss: unsynced bytes vanish from every segment, and every
    /// operation fails until restart.
    fn lose_power(&mut self) {
        self.crashed = true;
        for seg in self.segs.values_mut() {
            seg.volatile.clear();
        }
    }
}

/// In-memory [`WalStorage`] with an explicit durable/volatile split and a
/// fault [`Plan`] hook — the simulator's disk, where short writes, failed
/// appends and fsyncs, a full disk and crash-after-k-appends are injected
/// deterministically. [`MemStorage::crash`] models power loss (volatile
/// bytes vanish); [`MemStorage::restart`] brings the disk back with only
/// durable bytes. The crash latch is the storage's own: the plan is not
/// consulted while the disk is down.
#[derive(Debug)]
pub struct MemStorage {
    state: Mutex<MemStorageState>,
    plan: Option<Arc<Plan>>,
}

impl MemStorage {
    /// A fault-free in-memory disk.
    pub fn new() -> Arc<Self> {
        Self::with_plan(None)
    }

    /// An in-memory disk whose appends/syncs consult `plan`.
    pub fn with_plan(plan: Option<Arc<Plan>>) -> Arc<Self> {
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
        self.state.lock().lose_power();
    }

    /// Bring the disk back after a crash — only durable bytes remain. A
    /// full disk stays full: that latch is the plan's.
    pub fn restart(&self) {
        self.state.lock().crashed = false;
    }

    /// Whether the disk is down (every operation fails until
    /// [`MemStorage::restart`]).
    pub fn crashed(&self) -> bool {
        self.state.lock().crashed
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

    fn reader(&self, seg: u64) -> io::Result<(Box<dyn Read + '_>, u64)> {
        let st = self.state.lock();
        if st.crashed {
            return Err(Self::err(DISK_CRASHED_DETAIL));
        }
        let len = st
            .segs
            .get(&seg)
            .map_or(0, |s| s.durable.len() + s.volatile.len());
        let reader = MemReader {
            storage: self,
            seg,
            at: 0,
        };
        Ok((Box::new(reader), len as u64))
    }

    fn append_with(
        &self,
        seg: u64,
        len: usize,
        write: &mut dyn FnMut(&mut dyn Write) -> io::Result<()>,
    ) -> io::Result<()> {
        let mut st = self.state.lock();
        if st.crashed {
            return Err(Self::err(DISK_CRASHED_DETAIL));
        }
        let verdict = match &self.plan {
            Some(p) => p.on_append(len),
            None => AppendVerdict::Write,
        };
        // A short write fails even when all `len` bytes land.
        let (keep, short) = match verdict {
            AppendVerdict::Write => (len, false),
            AppendVerdict::Short { keep } => (keep, true),
            AppendVerdict::Fail { detail } => return Err(Self::err(detail)),
            AppendVerdict::Crash => {
                st.lose_power();
                return Err(Self::err(DISK_CRASHED_DETAIL));
            }
        };
        let volatile = &mut st.segs.entry(seg).or_default().volatile;
        let start = volatile.len();
        volatile.reserve(len);
        let written = write(volatile);
        volatile.truncate(start + keep);
        written?;
        if short {
            return Err(Self::err("short write (injected)"));
        }
        Ok(())
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

/// A [`MemStorage`] segment, copied out a read at a time under the
/// storage's lock.
struct MemReader<'a> {
    storage: &'a MemStorage,
    seg: u64,
    at: usize,
}

impl Read for MemReader<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let st = self.storage.state.lock();
        if st.crashed {
            return Err(MemStorage::err(DISK_CRASHED_DETAIL));
        }
        let Some(s) = st.segs.get(&self.seg) else {
            return Ok(0);
        };
        let from = match self.at.checked_sub(s.durable.len()) {
            None => &s.durable[self.at..],
            Some(at) => s.volatile.get(at..).unwrap_or_default(),
        };
        let n = from.len().min(out.len());
        out[..n].copy_from_slice(&from[..n]);
        self.at += n;
        Ok(n)
    }
}

/// File-backed [`WalStorage`]: segment `n` lives at `<prefix>.<n>`. Real
/// fsync via `sync_data`; faults are whatever the disk does (injection
/// lives in [`MemStorage`]). `sync_data` does not make a new file's
/// directory entry durable on every file system, so a segment this
/// storage created also syncs its directory, once, at its first sync.
#[derive(Debug)]
pub struct FileStorage {
    prefix: PathBuf,
    /// Open segments, each with whether its directory entry still awaits
    /// a sync.
    files: Mutex<HashMap<u64, (std::fs::File, bool)>>,
    /// Directory syncs made so far.
    dir_syncs: AtomicU64,
}

impl FileStorage {
    /// Storage rooted at `prefix` (segment files are `<prefix>.<n>`).
    pub fn open(prefix: impl Into<PathBuf>) -> io::Result<Self> {
        let prefix = prefix.into();
        if let Some(dir) = prefix.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        Ok(FileStorage {
            prefix,
            files: Mutex::with_class(HashMap::new(), lock_class!("exec.wal.file_storage")),
            dir_syncs: AtomicU64::new(0),
        })
    }

    fn seg_path(&self, seg: u64) -> PathBuf {
        let mut s = self.prefix.as_os_str().to_os_string();
        s.push(format!(".{seg}"));
        PathBuf::from(s)
    }

    /// The directory the segment files live in.
    fn dir(&self) -> &Path {
        match self.prefix.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        }
    }
}

impl WalStorage for FileStorage {
    fn segments(&self) -> io::Result<Vec<u64>> {
        let stem = match self.prefix.file_name() {
            Some(n) => format!("{}.", n.to_string_lossy()),
            None => return Ok(Vec::new()),
        };
        let mut out = Vec::new();
        for entry in std::fs::read_dir(self.dir())? {
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

    fn reader(&self, seg: u64) -> io::Result<(Box<dyn Read + '_>, u64)> {
        match std::fs::File::open(self.seg_path(seg)) {
            Ok(file) => {
                let len = file.metadata()?.len();
                Ok((Box::new(file), len))
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok((Box::new(io::empty()), 0)),
            Err(e) => Err(e),
        }
    }

    fn append_with(
        &self,
        seg: u64,
        _len: usize,
        write: &mut dyn FnMut(&mut dyn Write) -> io::Result<()>,
    ) -> io::Result<()> {
        let mut files = self.files.lock();
        let (file, _) = match files.entry(seg) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(v) => {
                let path = self.seg_path(seg);
                let mut open = std::fs::OpenOptions::new();
                open.append(true);
                let opened = match open.clone().create_new(true).open(&path) {
                    Ok(file) => (file, true),
                    Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                        (open.open(&path)?, false)
                    }
                    Err(e) => return Err(e),
                };
                v.insert(opened)
            }
        };
        write(file)
    }

    fn sync(&self, seg: u64) -> io::Result<()> {
        let mut files = self.files.lock();
        let Some((file, new_entry)) = files.get_mut(&seg) else {
            return Ok(());
        };
        file.sync_data()?;
        if *new_entry {
            std::fs::File::open(self.dir())?.sync_all()?;
            self.dir_syncs.fetch_add(1, Ordering::Relaxed);
            *new_entry = false;
        }
        Ok(())
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

#[cfg(test)]
mod tests {
    use super::*;

    fn read(disk: &MemStorage, seg: u64) -> io::Result<Vec<u8>> {
        let (mut reader, len) = disk.reader(seg)?;
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes)?;
        assert_eq!(bytes.len() as u64, len);
        Ok(bytes)
    }

    fn crashed_err<T: std::fmt::Debug>(r: io::Result<T>) -> bool {
        matches!(r, Err(e) if e.to_string() == DISK_CRASHED_DETAIL)
    }

    #[test]
    fn the_storage_owns_the_crash_latch() {
        let plan = Plan::new();
        plan.crash_after_appends(2);
        let disk = MemStorage::with_plan(Some(Arc::clone(&plan)));
        disk.preload(0, b"old".to_vec());
        disk.append(0, b"aa").unwrap();
        disk.append(1, b"bb").unwrap();
        // The third append crashes: no byte of it lands, and the unsynced
        // bytes of every segment are gone.
        assert!(crashed_err(disk.append(0, b"cc")));
        assert!(disk.crashed());
        assert_eq!(disk.durable_bytes(0), b"old");
        assert_eq!(disk.durable_bytes(1), b"");
        // While crashed, every operation fails — the plan is not asked.
        assert!(crashed_err(disk.append(0, b"dd")));
        assert!(crashed_err(disk.sync(0)));
        assert!(crashed_err(read(&disk, 0)));
        assert!(crashed_err(disk.segments()));
        // Restart heals the disk with only durable bytes.
        disk.restart();
        assert!(!disk.crashed());
        assert_eq!(read(&disk, 0).unwrap(), b"old");
        assert_eq!(read(&disk, 1).unwrap(), b"");
        disk.append(0, b"ee").unwrap();
        disk.sync(0).unwrap();
        assert_eq!(disk.durable_bytes(0), b"oldee");
    }

    /// A segment file this storage created syncs its directory once, at
    /// its first sync; one that already existed, an append alone and
    /// opening, listing and reading the log sync none.
    #[test]
    fn a_created_segment_syncs_its_directory_once() {
        let dir = std::env::temp_dir().join(format!("infogram-dirsync-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("log.wal.1"), b"old").unwrap();
        let open = || FileStorage::open(dir.join("log.wal")).unwrap();
        let syncs = |disk: &FileStorage| disk.dir_syncs.load(Ordering::Relaxed);

        let disk = open();
        assert_eq!(disk.segments().unwrap(), [1]);
        let (mut reader, len) = disk.reader(1).unwrap();
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes).unwrap();
        assert_eq!((&bytes[..], len), (&b"old"[..], 3));
        assert_eq!(syncs(&disk), 0, "open, list and read");
        disk.append(1, b"er").unwrap();
        disk.sync(1).unwrap();
        assert_eq!(syncs(&disk), 0, "segment 1 existed");
        disk.append(2, b"new").unwrap();
        assert_eq!(syncs(&disk), 0, "an append alone");
        for seg in [2, 2, 3, 3] {
            disk.append(seg, b"+").unwrap();
            disk.sync(seg).unwrap();
        }
        assert_eq!(syncs(&disk), 2, "one per created segment");
        assert_eq!(std::fs::read(dir.join("log.wal.1")).unwrap(), b"older");

        let reopened = open();
        reopened.append(3, b"+").unwrap();
        reopened.sync(3).unwrap();
        assert_eq!(syncs(&reopened), 0, "segment 3 existed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_full_disk_stays_full_across_restart() {
        let plan = Plan::new();
        let disk = MemStorage::with_plan(Some(Arc::clone(&plan)));
        plan.fill_disk();
        disk.crash();
        disk.restart();
        let full = disk.append(0, b"x").unwrap_err();
        assert_eq!(full.to_string(), "disk full (injected)");
        plan.free_space();
        disk.append(0, b"x").unwrap();
    }
}
