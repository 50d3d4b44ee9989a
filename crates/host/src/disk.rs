//! Disk model and a tiny in-memory filesystem.
//!
//! Two pieces: a capacity model (for the `sysinfo -disk` style providers)
//! and [`MemFs`], a path → contents map used for the paper's `ls
//! /home/gregor` information provider (Table 1), for the `/proc` files, and
//! for sandbox filesystem-policy tests.

use parking_lot::RwLock;
use std::collections::BTreeMap;

/// Simulated disk capacity accounting.
#[derive(Debug)]
pub struct DiskModel {
    total: u64,
    used: u64,
}

impl DiskModel {
    /// A disk with `total` bytes, `used` of which are occupied.
    pub fn new(total: u64, used: u64) -> Self {
        DiskModel {
            total,
            used: used.min(total),
        }
    }

    /// Total capacity in bytes.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Bytes in use.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes free.
    pub fn free(&self) -> u64 {
        self.total - self.used
    }
}

/// A minimal in-memory filesystem: absolute slash-separated paths mapping
/// to byte contents. Directories are implicit (any proper path prefix).
#[derive(Debug, Default)]
pub struct MemFs {
    files: RwLock<BTreeMap<String, Vec<u8>>>,
}

impl MemFs {
    /// An empty filesystem.
    pub fn new() -> Self {
        Self::default()
    }

    fn normalize(path: &str) -> String {
        let mut p = String::from("/");
        for seg in path.split('/').filter(|s| !s.is_empty() && *s != ".") {
            if !p.ends_with('/') {
                p.push('/');
            }
            p.push_str(seg);
        }
        p
    }

    /// Create or replace a file.
    pub fn write(&self, path: &str, contents: impl Into<Vec<u8>>) {
        self.files
            .write()
            .insert(Self::normalize(path), contents.into());
    }

    /// Read a file's contents, if present.
    pub fn read(&self, path: &str) -> Option<Vec<u8>> {
        self.files.read().get(&Self::normalize(path)).cloned()
    }

    /// Read a file as UTF-8 text, if present and valid.
    pub fn read_text(&self, path: &str) -> Option<String> {
        self.read(path).and_then(|b| String::from_utf8(b).ok())
    }

    /// Whether the exact file exists.
    pub fn exists(&self, path: &str) -> bool {
        self.files.read().contains_key(&Self::normalize(path))
    }

    /// Remove a file; returns whether it existed.
    pub fn remove(&self, path: &str) -> bool {
        self.files.write().remove(&Self::normalize(path)).is_some()
    }

    /// The immediate children of a directory: file names and first-level
    /// subdirectory names, sorted and deduplicated. Mirrors `ls`.
    pub fn list(&self, dir: &str) -> Vec<String> {
        let dir = {
            let d = Self::normalize(dir);
            if d == "/" {
                d
            } else {
                format!("{d}/")
            }
        };
        let files = self.files.read();
        let mut out: Vec<String> = files
            .keys()
            .filter_map(|k| k.strip_prefix(&dir))
            .filter(|rest| !rest.is_empty())
            .map(|rest| match rest.split_once('/') {
                Some((first, _)) => first.to_string(),
                None => rest.to_string(),
            })
            .collect();
        out.sort();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_accounting() {
        let d = DiskModel::new(1000, 300);
        assert_eq!((d.used(), d.free()), (300, 700));
        let full = DiskModel::new(1000, 5000);
        assert_eq!((full.used(), full.free()), (1000, 0), "used is clamped");
    }

    #[test]
    fn fs_roundtrip_and_normalization() {
        let fs = MemFs::new();
        fs.write("/home//gregor/./file.txt", "hello");
        assert_eq!(fs.read_text("/home/gregor/file.txt").unwrap(), "hello");
        assert!(fs.exists("home/gregor/file.txt"));
        assert!(!fs.exists("/home/gregor/nope"));
    }

    #[test]
    fn fs_list_directory() {
        let fs = MemFs::new();
        fs.write("/home/gregor/a.txt", "");
        fs.write("/home/gregor/b.txt", "");
        fs.write("/home/gregor/sub/c.txt", "");
        fs.write("/home/other/d.txt", "");
        assert_eq!(
            fs.list("/home/gregor"),
            vec!["a.txt".to_string(), "b.txt".to_string(), "sub".to_string()]
        );
        assert_eq!(
            fs.list("/home"),
            vec!["gregor".to_string(), "other".to_string()]
        );
        assert!(fs.list("/empty").is_empty());
    }

    #[test]
    fn fs_list_root() {
        let fs = MemFs::new();
        fs.write("/proc/loadavg", "x");
        fs.write("/etc/passwd", "y");
        assert_eq!(fs.list("/"), vec!["etc".to_string(), "proc".to_string()]);
    }

    #[test]
    fn fs_remove() {
        let fs = MemFs::new();
        fs.write("/a", "1");
        assert!(fs.remove("/a"));
        assert!(!fs.remove("/a"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_path() -> impl Strategy<Value = String> {
        prop::collection::vec("[a-z][a-z.]{0,5}", 1..4)
            .prop_map(|segs| format!("/{}", segs.join("/")))
    }

    proptest! {
        /// Write-then-read returns the written bytes, however the path is
        /// decorated with redundant slashes and `.` segments.
        #[test]
        fn write_read_roundtrip(
            path in arb_path(),
            contents in prop::collection::vec(any::<u8>(), 0..64),
            decoration in "(/|/\\./){0,3}",
        ) {
            let fs = MemFs::new();
            fs.write(&path, contents.clone());
            // Decorate: double slashes / dot segments prepended.
            let decorated = format!("{decoration}{path}");
            prop_assert_eq!(fs.read(&decorated), Some(contents));
        }

        /// Every written file is reachable through `list` from the root.
        #[test]
        fn listed_from_root(paths in prop::collection::vec(arb_path(), 1..8)) {
            let fs = MemFs::new();
            for p in &paths {
                fs.write(p, "x");
            }
            for p in &paths {
                // Walk down the tree from "/" following the path segments.
                let mut dir = "/".to_string();
                for seg in p.trim_start_matches('/').split('/') {
                    let entries = fs.list(&dir);
                    prop_assert!(
                        entries.iter().any(|e| e == seg),
                        "{seg} missing from {dir} (entries {entries:?})"
                    );
                    if !dir.ends_with('/') {
                        dir.push('/');
                    }
                    dir.push_str(seg);
                }
                prop_assert!(fs.exists(p));
            }
        }
    }
}
