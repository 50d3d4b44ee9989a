//! Storage: numbered segments of raw bytes under a sink — the
//! simulator's crashable disk and the real one.

use infogram_sim::fault::{AppendVerdict, DiskFaultPlan, SyncVerdict, DISK_CRASHED_DETAIL};
use parking_lot::{lock_class, Mutex};
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::Arc;

/// Raw segment storage under a [`FrameWal`](super::FrameWal) — numbered
/// segments of bytes with append/sync/remove.
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
/// [`DiskFaultPlan`] hook — the simulator's disk, where torn writes, fsync
/// failures, disk-full and crash-after-k-appends are injected
/// deterministically. [`MemStorage::crash`] models power loss (volatile
/// bytes vanish); [`MemStorage::restart`] brings the disk back with only
/// durable bytes.
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
/// fsync via `sync_data`; faults are whatever the disk does (injection
/// lives in [`MemStorage`]).
#[derive(Debug)]
pub struct FileStorage {
    prefix: PathBuf,
    files: Mutex<HashMap<u64, std::fs::File>>,
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
        file.write_all(bytes)
    }

    fn sync(&self, seg: u64) -> io::Result<()> {
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
