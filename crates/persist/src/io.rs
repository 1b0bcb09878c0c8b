//! The I/O seam: every byte the persistence layer writes goes through an
//! [`IoBackend`], so tests can substitute a deterministic in-memory
//! filesystem ([`MemFs`]) that injects torn writes, failed fsyncs and
//! power loss at exact record boundaries.
//!
//! The trait deliberately exposes *durability-shaped* primitives rather
//! than POSIX calls: [`IoBackend::append_durable`] is "append these bytes
//! and do not return success until they are on stable storage" (the WAL
//! primitive), [`IoBackend::write_atomic`] is "replace this file's contents
//! all-or-nothing" (the checkpoint primitive, tmp-file + fsync + rename on
//! a real filesystem).

use inferray_store::unpoison;
use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex};

/// Abstract durable storage. Implementations must be safe to share across
/// threads; the callers serialize writers themselves.
pub trait IoBackend: Send + Sync + std::fmt::Debug {
    /// Creates `dir` and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;

    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Appends `data` to `path` (creating it if absent) and flushes it to
    /// stable storage before returning. On error the file may hold a
    /// *prefix* of `data` (a torn write) — callers must tolerate that.
    fn append_durable(&self, path: &Path, data: &[u8]) -> io::Result<()>;

    /// Replaces the contents of `path` with `data` atomically: after a
    /// crash the file holds either its old contents or all of `data`,
    /// never a mix.
    fn write_atomic(&self, path: &Path, data: &[u8]) -> io::Result<()>;

    /// Removes a file. Missing files are an error (callers check first).
    fn remove(&self, path: &Path) -> io::Result<()>;

    /// The files directly inside `dir`, in sorted order. A missing
    /// directory reads as empty.
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;

    /// Whether `path` exists as a file.
    fn exists(&self, path: &Path) -> bool;
}

// ---------------------------------------------------------------------------
// Real filesystem
// ---------------------------------------------------------------------------

/// How much of an atomic write goes to the file between two syncs. A
/// checkpoint image is tens of megabytes and is written beside the log; on a
/// journaling filesystem an fsync of the log waits for whatever the image
/// has dirtied so far, so the image is flushed slice by slice and a log
/// append never waits for more than one of them. Measured on ext4, a 29 MB
/// file beside 7 KB appends every 8 ms, two runs each: with one sync at the
/// end the append's p99 is 39 and 69 ms; with a sync per 4 MiB 5.8 and
/// 5.5 ms, the file itself taking 40 ms either way; with a sync per MiB
/// the append's p99 is 13 ms and the file takes 50 to 330 ms.
const WRITE_SLICE: usize = 4 << 20;

/// The production backend: `std::fs` with explicit `sync_all` calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdFs;

impl StdFs {
    /// Best-effort fsync of a directory so a rename/create inside it is
    /// itself durable. Ignored on platforms where opening a directory
    /// fails — the rename is still atomic, only its durability timing is
    /// weakened.
    fn sync_dir(dir: &Path) {
        if let Ok(handle) = fs::File::open(dir) {
            let _ = handle.sync_all();
        }
    }
}

impl IoBackend for StdFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn append_durable(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        file.write_all(data)?;
        file.sync_all()
    }

    fn write_atomic(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let tmp = match (path.parent(), path.file_name()) {
            (Some(dir), Some(name)) => {
                let mut tmp_name = name.to_os_string();
                tmp_name.push(".tmp");
                dir.join(tmp_name)
            }
            _ => return Err(io::Error::new(io::ErrorKind::InvalidInput, "bad path")),
        };
        let mut file = fs::File::create(&tmp)?;
        for (index, slice) in data.chunks(WRITE_SLICE).enumerate() {
            if index > 0 {
                file.sync_data()?;
            }
            file.write_all(slice)?;
        }
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, path)?;
        if let Some(dir) = path.parent() {
            StdFs::sync_dir(dir);
        }
        Ok(())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let entries = match fs::read_dir(dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut files = Vec::new();
        for entry in entries {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                files.push(entry.path());
            }
        }
        files.sort();
        Ok(files)
    }

    fn exists(&self, path: &Path) -> bool {
        path.is_file()
    }
}

// ---------------------------------------------------------------------------
// Deterministic fault-injected in-memory filesystem
// ---------------------------------------------------------------------------

/// A fault to inject into a [`MemFs`]. Faults are queued with
/// [`MemFs::inject`] and each is consumed by the next operation of the
/// matching kind, so a test can place a failure at an exact write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The next [`IoBackend::append_durable`] writes only the first `keep`
    /// bytes of its record (a torn/short write that *did* reach the
    /// platter) and reports failure.
    TornAppend {
        /// How many bytes of the record survive on disk.
        keep: usize,
    },
    /// The next `append_durable` writes its bytes into the OS cache but the
    /// fsync fails: the call reports failure, and the appended bytes are
    /// lost at the next power cut (they never became durable).
    FailSync,
    /// The next [`IoBackend::write_atomic`] fails before the rename,
    /// leaving the previous file contents untouched.
    FailAtomicWrite,
    /// The volume disappears: every subsequent operation fails (sticky).
    Offline,
}

#[derive(Debug, Default, Clone)]
struct MemFile {
    /// Full contents, including bytes not yet flushed.
    data: Vec<u8>,
    /// Length of the durable prefix — what survives a power cut.
    synced_len: usize,
}

#[derive(Debug, Default)]
struct MemFsState {
    files: BTreeMap<PathBuf, MemFile>,
    faults: Vec<Fault>,
    offline: bool,
    /// Atomic writes to paths with this extension wait (see [`MemFs::hold`]).
    held: Option<String>,
}

/// An in-memory [`IoBackend`] with a power-loss model: each file tracks a
/// durable prefix ([`MemFile::synced_len`]), [`MemFs::durable_view`]
/// snapshots exactly what a crash would leave behind, and queued
/// [`Fault`]s fail specific operations deterministically.
#[derive(Debug, Default)]
pub struct MemFs {
    state: Mutex<MemFsState>,
    released: Condvar,
}

/// What a crash leaves on disk: path → durable bytes.
pub type DurableView = BTreeMap<PathBuf, Vec<u8>>;

impl MemFs {
    /// An empty filesystem.
    pub fn new() -> Self {
        MemFs::default()
    }

    /// Reconstructs a filesystem from a crash image, as if the machine
    /// rebooted: every surviving byte is durable.
    pub fn from_view(view: DurableView) -> Self {
        let files = view
            .into_iter()
            .map(|(path, data)| {
                let synced_len = data.len();
                (path, MemFile { data, synced_len })
            })
            .collect();
        MemFs {
            state: Mutex::new(MemFsState {
                files,
                ..MemFsState::default()
            }),
            released: Condvar::new(),
        }
    }

    /// Queues a fault for the next matching operation. `Fault::Offline`
    /// takes effect immediately and is sticky.
    pub fn inject(&self, fault: Fault) {
        let mut state = self.lock();
        if fault == Fault::Offline {
            state.offline = true;
        } else {
            state.faults.push(fault);
        }
    }

    /// Parks every [`IoBackend::write_atomic`] to a path with this
    /// extension until [`MemFs::release`]. A checkpoint writes its image on
    /// a thread of its own; holding `"img"` pins the moment "log sealed,
    /// image not yet durable", so a test can take a [`MemFs::durable_view`]
    /// there, queue a fault for the image write, and only then let it run.
    pub fn hold(&self, extension: &str) {
        self.lock().held = Some(extension.to_owned());
    }

    /// Lets the writes parked by [`MemFs::hold`] proceed.
    pub fn release(&self) {
        self.lock().held = None;
        self.released.notify_all();
    }

    /// Snapshot of what a power cut *right now* would leave behind: each
    /// file truncated to its durable prefix.
    pub fn durable_view(&self) -> DurableView {
        self.lock()
            .files
            .iter()
            .map(|(path, file)| (path.clone(), file.data[..file.synced_len].to_vec()))
            .collect()
    }

    /// The full (possibly not-yet-durable) contents of a file.
    pub fn raw(&self, path: &Path) -> Option<Vec<u8>> {
        self.lock().files.get(path).map(|f| f.data.clone())
    }

    /// XORs `mask` into the byte at `offset` (bit-flip injection).
    /// Panics if the file or offset does not exist — corruption tests
    /// address bytes they know are there.
    pub fn corrupt_byte(&self, path: &Path, offset: usize, mask: u8) {
        let mut state = self.lock();
        let file = state
            .files
            .get_mut(path)
            .expect("corrupt_byte: no such file");
        file.data[offset] ^= mask;
        file.synced_len = file.synced_len.max(offset + 1);
    }

    /// Truncates a file to `len` bytes (both content and durable prefix).
    pub fn truncate(&self, path: &Path, len: usize) {
        let mut state = self.lock();
        let file = state.files.get_mut(path).expect("truncate: no such file");
        file.data.truncate(len);
        file.synced_len = file.synced_len.min(len);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemFsState> {
        unpoison(self.state.lock())
    }

    fn take_fault(state: &mut MemFsState, matches: impl Fn(Fault) -> bool) -> Option<Fault> {
        let index = state.faults.iter().position(|&f| matches(f))?;
        Some(state.faults.remove(index))
    }

    fn offline_err() -> io::Error {
        io::Error::other("injected fault: volume offline")
    }
}

impl IoBackend for MemFs {
    fn create_dir_all(&self, _dir: &Path) -> io::Result<()> {
        if self.lock().offline {
            return Err(MemFs::offline_err());
        }
        Ok(())
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let state = self.lock();
        if state.offline {
            return Err(MemFs::offline_err());
        }
        state
            .files
            .get(path)
            .map(|f| f.data.clone())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))
    }

    fn append_durable(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut state = self.lock();
        if state.offline {
            return Err(MemFs::offline_err());
        }
        let fault = MemFs::take_fault(&mut state, |f| {
            matches!(f, Fault::TornAppend { .. } | Fault::FailSync)
        });
        let file = state.files.entry(path.to_path_buf()).or_default();
        match fault {
            None => {
                file.data.extend_from_slice(data);
                file.synced_len = file.data.len();
                Ok(())
            }
            Some(Fault::TornAppend { keep }) => {
                let keep = keep.min(data.len());
                file.data.extend_from_slice(&data[..keep]);
                // The torn prefix reached the platter before the failure.
                file.synced_len = file.data.len();
                Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    format!(
                        "injected fault: torn append ({keep} of {} bytes)",
                        data.len()
                    ),
                ))
            }
            Some(Fault::FailSync) => {
                // The bytes sit in the page cache but never reach stable
                // storage: visible to reads now, gone after a power cut.
                file.data.extend_from_slice(data);
                Err(io::Error::other("injected fault: fsync failed"))
            }
            // take_fault only hands this path TornAppend/FailSync today;
            // treat any future fault kind as a failed sync rather than
            // panicking inside the I/O layer.
            Some(_) => {
                file.data.extend_from_slice(data);
                Err(io::Error::other(
                    "injected fault: unrecognized, treated as fsync failure",
                ))
            }
        }
    }

    fn write_atomic(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut state = self.lock();
        while state
            .held
            .as_deref()
            .is_some_and(|held| path.extension().and_then(|e| e.to_str()) == Some(held))
        {
            state = unpoison(self.released.wait(state));
        }
        if state.offline {
            return Err(MemFs::offline_err());
        }
        if MemFs::take_fault(&mut state, |f| f == Fault::FailAtomicWrite).is_some() {
            return Err(io::Error::other("injected fault: atomic write failed"));
        }
        state.files.insert(
            path.to_path_buf(),
            MemFile {
                synced_len: data.len(),
                data: data.to_vec(),
            },
        );
        Ok(())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        let mut state = self.lock();
        if state.offline {
            return Err(MemFs::offline_err());
        }
        state
            .files
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let state = self.lock();
        if state.offline {
            return Err(MemFs::offline_err());
        }
        Ok(state
            .files
            .keys()
            .filter(|path| path.parent() == Some(dir))
            .cloned()
            .collect())
    }

    fn exists(&self, path: &Path) -> bool {
        self.lock().files.contains_key(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn appends_are_durable_and_survive_the_view_round_trip() {
        let fs = MemFs::new();
        let path = Path::new("d/wal.log");
        fs.append_durable(path, b"hello ").unwrap();
        fs.append_durable(path, b"world").unwrap();
        let rebooted = MemFs::from_view(fs.durable_view());
        assert_eq!(rebooted.read(path).unwrap(), b"hello world");
    }

    #[test]
    fn torn_append_keeps_a_prefix_and_reports_failure() {
        let fs = MemFs::new();
        let path = Path::new("d/wal.log");
        fs.append_durable(path, b"aaaa").unwrap();
        fs.inject(Fault::TornAppend { keep: 2 });
        assert!(fs.append_durable(path, b"bbbb").is_err());
        assert_eq!(fs.durable_view()[path], b"aaaabb");
    }

    #[test]
    fn failed_sync_loses_the_bytes_at_the_next_crash() {
        let fs = MemFs::new();
        let path = Path::new("d/wal.log");
        fs.append_durable(path, b"safe").unwrap();
        fs.inject(Fault::FailSync);
        assert!(fs.append_durable(path, b"lost").is_err());
        // Visible before the crash…
        assert_eq!(fs.read(path).unwrap(), b"safelost");
        // …gone after it.
        assert_eq!(fs.durable_view()[path], b"safe");
    }

    #[test]
    fn failed_atomic_write_preserves_the_old_contents() {
        let fs = MemFs::new();
        let path = Path::new("d/snap.img");
        fs.write_atomic(path, b"old").unwrap();
        fs.inject(Fault::FailAtomicWrite);
        assert!(fs.write_atomic(path, b"new").is_err());
        assert_eq!(fs.read(path).unwrap(), b"old");
    }

    #[test]
    fn offline_is_sticky() {
        let fs = MemFs::new();
        fs.inject(Fault::Offline);
        assert!(fs.append_durable(Path::new("x"), b"y").is_err());
        assert!(fs.read(Path::new("x")).is_err());
    }

    #[test]
    fn list_returns_only_direct_children_sorted() {
        let fs = MemFs::new();
        fs.write_atomic(Path::new("d/b"), b"").unwrap();
        fs.write_atomic(Path::new("d/a"), b"").unwrap();
        fs.write_atomic(Path::new("d/sub/c"), b"").unwrap();
        let listed = fs.list(Path::new("d")).unwrap();
        assert_eq!(listed, vec![PathBuf::from("d/a"), PathBuf::from("d/b")]);
    }

    #[test]
    fn std_fs_round_trips_under_a_temp_dir() {
        let dir = std::env::temp_dir().join(format!("inferray-persist-io-{}", std::process::id()));
        let fs = StdFs;
        fs.create_dir_all(&dir).unwrap();
        let wal = dir.join("wal.log");
        fs.append_durable(&wal, b"abc").unwrap();
        fs.append_durable(&wal, b"def").unwrap();
        assert_eq!(fs.read(&wal).unwrap(), b"abcdef");
        fs.write_atomic(&wal, b"reset").unwrap();
        assert_eq!(fs.read(&wal).unwrap(), b"reset");
        assert!(fs.exists(&wal));
        assert_eq!(fs.list(&dir).unwrap(), vec![wal.clone()]);
        fs.remove(&wal).unwrap();
        assert!(!fs.exists(&wal));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
