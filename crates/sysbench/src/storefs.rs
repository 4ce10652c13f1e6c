//! Store directories owned by the harness: created fresh, measured from
//! outside (files, bytes), and removed on every exit path.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU32, Ordering};

/// Free space a store root must have before the harness uses it: one
/// cold grid sweep writes about 0.3 GB, and a store that fills up turns
/// writes into silent misses.
pub const MIN_FREE_BYTES: u64 = 1 << 30;

static NEXT_DIR: AtomicU32 = AtomicU32::new(0);

/// What lies under a store root.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Usage {
    /// Regular files, at any depth.
    pub files: u64,
    /// Of those, files inside a `tiles` directory (tile-record blobs).
    pub tile_files: u64,
    /// Sum of file lengths.
    pub bytes: u64,
}

impl Usage {
    /// Size in MB (10⁶ bytes).
    pub fn megabytes(&self) -> f64 {
        self.bytes as f64 / 1e6
    }
}

/// A fresh directory under the store root, removed when dropped.
#[derive(Debug)]
pub struct StoreDir {
    path: PathBuf,
}

impl StoreDir {
    /// Creates `<root>/<pid>-<n>`, unique within and across processes.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the directory cannot be created.
    pub fn create(root: &Path) -> io::Result<Self> {
        let path = root.join(format!(
            "{}-{}",
            std::process::id(),
            NEXT_DIR.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Walks the directory and totals what is there.
    pub fn usage(&self) -> Usage {
        let mut usage = Usage::default();
        walk(&self.path, false, &mut usage);
        usage
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        fs::remove_dir_all(&self.path).ok();
    }
}

fn walk(dir: &Path, in_tiles: bool, usage: &mut Usage) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let Ok(kind) = entry.file_type() else {
            continue;
        };
        if kind.is_dir() {
            walk(
                &entry.path(),
                in_tiles || entry.file_name() == "tiles",
                usage,
            );
        } else if kind.is_file() {
            usage.files += 1;
            usage.tile_files += u64::from(in_tiles);
            usage.bytes += entry.metadata().map_or(0, |m| m.len());
        }
    }
}

/// Prepares the store root: creates it, removes directories left behind
/// by harness processes that no longer exist (a killed run cannot run
/// its `Drop`s), and checks the free space.
///
/// # Errors
///
/// Returns a message when the root cannot be created or its filesystem
/// has less than [`MIN_FREE_BYTES`] free.
pub fn prepare_root(root: &Path) -> Result<(), String> {
    fs::create_dir_all(root).map_err(|e| format!("cannot create {}: {e}", root.display()))?;
    // Liveness is read off /proc; without it nothing can be called stale.
    if Path::new("/proc/self").exists() {
        for entry in fs::read_dir(root).into_iter().flatten().flatten() {
            let name = entry.file_name();
            let owner = name.to_string_lossy();
            let pid = owner.split('-').next().unwrap_or_default();
            if pid.parse::<u32>().is_ok() && !Path::new("/proc").join(pid).exists() {
                fs::remove_dir_all(entry.path()).ok();
            }
        }
    }
    match free_bytes(root) {
        Some(free) if free < MIN_FREE_BYTES => Err(format!(
            "{} has {} MB free; the store needs {} MB",
            root.display(),
            free >> 20,
            MIN_FREE_BYTES >> 20
        )),
        // `df` missing or unparsable: nothing to refuse on.
        _ => Ok(()),
    }
}

/// Free bytes on the filesystem holding `path`, from `df -Pk`.
fn free_bytes(path: &Path) -> Option<u64> {
    let out = Command::new("df").arg("-Pk").arg(path).output().ok()?;
    let text = String::from_utf8_lossy(&out.stdout);
    let available_kb: u64 = text
        .lines()
        .nth(1)?
        .split_whitespace()
        .nth(3)?
        .parse()
        .ok()?;
    Some(available_kb * 1024)
}

/// Filesystem type of the mount holding `path` (from `/proc/mounts`,
/// longest mount-point prefix), or `unknown`.
pub fn fs_type(path: &Path) -> String {
    let path = fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, kind) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), kind.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_owned(), |(_, kind)| kind)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sysbench-{tag}-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn usage_counts_files_bytes_and_tile_blobs() {
        let root = scratch("usage");
        let store = StoreDir::create(&root).unwrap();
        fs::create_dir_all(store.path().join("fp/tiles")).unwrap();
        fs::create_dir_all(store.path().join("fp/points")).unwrap();
        fs::write(store.path().join("fp/a.json"), b"12345").unwrap();
        fs::write(store.path().join("fp/tiles/t.json"), b"123").unwrap();
        fs::write(store.path().join("fp/points/p.json"), b"12").unwrap();
        assert_eq!(
            store.usage(),
            Usage {
                files: 3,
                tile_files: 1,
                bytes: 10
            }
        );
        let path = store.path().to_path_buf();
        drop(store);
        assert!(!path.exists(), "dropping the guard removes the store");
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn guard_removes_the_store_when_a_panic_unwinds() {
        let root = scratch("panic");
        let seen = std::sync::Mutex::new(PathBuf::new());
        let result = std::panic::catch_unwind(|| {
            let store = StoreDir::create(&root).unwrap();
            *seen.lock().unwrap() = store.path().to_path_buf();
            panic!("op failed");
        });
        assert!(result.is_err());
        let path = seen.lock().unwrap().clone();
        assert!(path.starts_with(&root) && !path.exists());
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn prepare_root_sweeps_dirs_of_dead_processes_only() {
        let root = scratch("stale");
        // PIDs are capped at 2^22 on Linux, so this one never exists.
        let stale = root.join("4194999-0");
        let unrelated = root.join("notes");
        fs::create_dir_all(&stale).unwrap();
        fs::create_dir_all(&unrelated).unwrap();
        let live = StoreDir::create(&root).unwrap();
        prepare_root(&root).unwrap();
        assert!(!stale.exists());
        assert!(unrelated.exists());
        assert!(live.path().exists());
        drop(live);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn fs_type_names_a_filesystem() {
        assert!(!fs_type(&std::env::temp_dir()).is_empty());
    }
}
