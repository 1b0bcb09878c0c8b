//! The I/O seam: every byte the persistence layer writes goes through an
//! [`IoBackend`], so tests can substitute a deterministic in-memory
//! filesystem ([`MemFs`]) that injects torn writes, failed fsyncs and
//! power loss at exact record boundaries.
//!
//! The trait deliberately exposes *durability-shaped* primitives rather
//! than POSIX calls: [`IoBackend::append_durable`] is "append these bytes
//! and do not return success until they are on stable storage" (the WAL
//! primitive), [`IoBackend::write_atomic_streamed`] is "replace this file's
//! contents all-or-nothing with what this closure streams" (the checkpoint
//! primitive, tmp-file + fsync + rename on a real filesystem), and
//! [`IoBackend::open_at`] is "a handle of its own, reading from this
//! offset" (the cold start's, one per image section).

use inferray_store::unpoison;
use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex};

/// Where a streamed atomic write puts its bytes
/// ([`IoBackend::write_atomic_streamed`]): appended in order, and — for a
/// field whose value is known only once what follows it is written, like a
/// snapshot section's length and checksum — overwritten in place later.
pub trait StreamSink {
    /// Appends `bytes` behind everything appended so far.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Overwrites bytes appended earlier, from `offset` on.
    fn patch(&mut self, offset: u64, bytes: &[u8]) -> io::Result<()>;
}

impl StreamSink for Vec<u8> {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.extend_from_slice(bytes);
        Ok(())
    }

    fn patch(&mut self, offset: u64, bytes: &[u8]) -> io::Result<()> {
        let at = usize::try_from(offset).unwrap_or(usize::MAX);
        match at
            .checked_add(bytes.len())
            .and_then(|end| self.get_mut(at..end))
        {
            Some(target) => {
                target.copy_from_slice(bytes);
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "patch past the bytes written",
            )),
        }
    }
}

/// What a streamed atomic write runs to produce the file's new contents.
pub type Fill<'f> = dyn FnMut(&mut dyn StreamSink) -> io::Result<()> + 'f;

/// Abstract durable storage. Implementations must be safe to share across
/// threads; the callers serialize writers themselves.
pub trait IoBackend: Send + Sync + std::fmt::Debug {
    /// Creates `dir` and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;

    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Appends `data` to `path` and flushes it to stable storage before
    /// returning. On error the file may hold a *prefix* of `data` (a torn
    /// write) — callers must tolerate that. The log appends only to files
    /// it created through [`IoBackend::write_atomic`], which makes their
    /// directory entries durable: [`MemFs`] refuses a missing file, so the
    /// suites catch an append that would create one; [`StdFs`] creates it
    /// and syncs its directory, for callers that log to a fresh file.
    fn append_durable(&self, path: &Path, data: &[u8]) -> io::Result<()>;

    /// Replaces the contents of `path` atomically with the bytes `fill`
    /// streams into the sink it is given: after a crash the file holds
    /// either its old contents or all of the new ones, never a mix. An
    /// `Err` from `fill`, or a failure while its bytes are written, leaves
    /// the old contents in place.
    fn write_atomic_streamed(&self, path: &Path, fill: &mut Fill<'_>) -> io::Result<()>;

    /// Replaces the contents of `path` with `data` atomically: the
    /// streamed write of one piece.
    fn write_atomic(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.write_atomic_streamed(path, &mut |sink| sink.append(data))
    }

    /// Opens `path` for reading from byte `offset` on, as a handle of its
    /// own: the sections of one snapshot image are read side by side. An
    /// offset at or past the end reads nothing.
    fn open_at(&self, path: &Path, offset: u64) -> io::Result<Box<dyn Read + Send + '_>>;

    /// Removes a file. Missing files are an error (callers check first).
    fn remove(&self, path: &Path) -> io::Result<()>;

    /// The files directly inside `dir`, in sorted order. A missing
    /// directory reads as empty.
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;

    /// Whether `path` exists as a file.
    fn exists(&self, path: &Path) -> bool;
}

/// `<prefix>-<n>.<ext>` with `n` zero-padded to 20 digits, so that name
/// order is number order: how snapshot images and log segments are named.
pub(crate) fn numbered_file_name(prefix: &str, n: u64, ext: &str) -> String {
    format!("{prefix}-{n:020}.{ext}")
}

/// The number of a [`numbered_file_name`] with this prefix and extension.
pub(crate) fn parse_numbered_file_name(name: &str, prefix: &str, ext: &str) -> Option<u64> {
    let digits = name.strip_prefix(prefix)?.strip_prefix('-')?;
    let digits = digits.strip_suffix(ext)?.strip_suffix('.')?;
    if digits.len() != 20 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// The files in `dir` that `number` parses a number out of, highest first.
pub(crate) fn list_numbered(
    backend: &dyn IoBackend,
    dir: &Path,
    number: fn(&str) -> Option<u64>,
) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut files: Vec<(u64, PathBuf)> = backend
        .list(dir)?
        .into_iter()
        .filter_map(|path| Some((number(path.file_name()?.to_str()?)?, path)))
        .collect();
    files.sort_by_key(|file| std::cmp::Reverse(file.0));
    Ok(files)
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

/// What [`StdFs`] appends to a file's name for the temp file an atomic
/// write streams into before renaming it into place. A process killed in
/// between leaves it behind; `DurableDataset::open` removes it.
pub const TEMP_SUFFIX: &str = ".tmp";

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
        let created = !path.exists();
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        file.write_all(data)?;
        file.sync_all()?;
        if let Some(dir) = path.parent().filter(|_| created) {
            StdFs::sync_dir(dir);
        }
        Ok(())
    }

    fn write_atomic_streamed(&self, path: &Path, fill: &mut Fill<'_>) -> io::Result<()> {
        let tmp = match (path.parent(), path.file_name()) {
            (Some(dir), Some(name)) => {
                let mut tmp_name = name.to_os_string();
                tmp_name.push(TEMP_SUFFIX);
                dir.join(tmp_name)
            }
            _ => return Err(io::Error::new(io::ErrorKind::InvalidInput, "bad path")),
        };
        let mut sink = SlicedFile {
            file: fs::File::create(&tmp)?,
            unsynced: 0,
        };
        if let Err(e) = fill(&mut sink).and_then(|()| sink.file.sync_all()) {
            drop(sink);
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        drop(sink);
        fs::rename(&tmp, path)?;
        if let Some(dir) = path.parent() {
            StdFs::sync_dir(dir);
        }
        Ok(())
    }

    fn open_at(&self, path: &Path, offset: u64) -> io::Result<Box<dyn Read + Send + '_>> {
        let mut file = fs::File::open(path)?;
        file.seek(SeekFrom::Start(offset))?;
        Ok(Box::new(file))
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

/// The temp file of a [`StdFs`] atomic write: synced every [`WRITE_SLICE`]
/// bytes appended, before the next byte goes in.
struct SlicedFile {
    file: fs::File,
    /// Bytes appended since the last sync.
    unsynced: usize,
}

impl StreamSink for SlicedFile {
    fn append(&mut self, mut bytes: &[u8]) -> io::Result<()> {
        while !bytes.is_empty() {
            if self.unsynced == WRITE_SLICE {
                self.file.sync_data()?;
                self.unsynced = 0;
            }
            let (now, later) = bytes.split_at(bytes.len().min(WRITE_SLICE - self.unsynced));
            self.file.write_all(now)?;
            self.unsynced += now.len();
            bytes = later;
        }
        Ok(())
    }

    fn patch(&mut self, offset: u64, bytes: &[u8]) -> io::Result<()> {
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.write_all(bytes)?;
        self.file.seek(SeekFrom::End(0))?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// A dry run over another backend
// ---------------------------------------------------------------------------

/// A backend that reads through to another one and keeps what is written
/// in memory: every append, atomic write and removal lands in an overlay
/// that later reads, listings and handles see, and the backend underneath
/// is never written. Opening a data directory through it is a dry run of
/// recovery — `inferray-cli recover` reports what `serve` would recover to,
/// torn log tail cut and stale temp files removed, and leaves the directory
/// as it found it.
#[derive(Debug, Default)]
pub struct Overlay<B> {
    under: B,
    /// What was written, by path: the new contents, or `None` once removed.
    changed: Mutex<BTreeMap<PathBuf, Option<Vec<u8>>>>,
}

impl<B: IoBackend> Overlay<B> {
    /// An overlay with nothing written yet over `under`.
    pub fn new(under: B) -> Self {
        Overlay {
            under,
            changed: Mutex::new(BTreeMap::new()),
        }
    }

    /// The contents of `path` as this backend sees it: `Ok(None)` when it
    /// is missing.
    fn contents(&self, path: &Path) -> io::Result<Option<Vec<u8>>> {
        if let Some(changed) = unpoison(self.changed.lock()).get(path) {
            return Ok(changed.clone());
        }
        match self.under.read(path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn set(&self, path: &Path, contents: Option<Vec<u8>>) {
        unpoison(self.changed.lock()).insert(path.to_path_buf(), contents);
    }
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("{} not found", path.display()),
    )
}

impl<B: IoBackend> IoBackend for Overlay<B> {
    fn create_dir_all(&self, _dir: &Path) -> io::Result<()> {
        Ok(())
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.contents(path)?.ok_or_else(|| not_found(path))
    }

    /// Like [`StdFs`], creates a missing file.
    fn append_durable(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut bytes = self.contents(path)?.unwrap_or_default();
        bytes.extend_from_slice(data);
        self.set(path, Some(bytes));
        Ok(())
    }

    fn write_atomic_streamed(&self, path: &Path, fill: &mut Fill<'_>) -> io::Result<()> {
        let mut bytes = Vec::new();
        fill(&mut bytes)?;
        self.set(path, Some(bytes));
        Ok(())
    }

    fn open_at(&self, path: &Path, offset: u64) -> io::Result<Box<dyn Read + Send + '_>> {
        let changed = unpoison(self.changed.lock()).get(path).cloned();
        match changed {
            None => self.under.open_at(path, offset),
            Some(None) => Err(not_found(path)),
            Some(Some(bytes)) => {
                let mut reader = io::Cursor::new(bytes);
                reader.set_position(offset);
                Ok(Box::new(reader))
            }
        }
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        if !self.exists(path) {
            return Err(not_found(path));
        }
        self.set(path, None);
        Ok(())
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut files: std::collections::BTreeSet<PathBuf> =
            self.under.list(dir)?.into_iter().collect();
        for (path, contents) in unpoison(self.changed.lock()).iter() {
            if path.parent() == Some(dir) {
                match contents {
                    Some(_) => files.insert(path.clone()),
                    None => files.remove(path),
                };
            }
        }
        Ok(files.into_iter().collect())
    }

    fn exists(&self, path: &Path) -> bool {
        match unpoison(self.changed.lock()).get(path) {
            Some(contents) => contents.is_some(),
            None => self.under.exists(path),
        }
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
    /// The next atomic write ([`IoBackend::write_atomic_streamed`], or
    /// [`IoBackend::write_atomic`] on it) fails where it would rename its
    /// file into place — after its bytes were streamed, so a fault queued
    /// while they stream still hits it — leaving the previous file
    /// contents untouched.
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

    /// Parks every atomic write ([`IoBackend::write_atomic_streamed`]) to a path with this
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

    fn lock(&self) -> std::sync::MutexGuard<'_, MemFsState> {
        unpoison(self.state.lock())
    }

    fn take_fault(state: &mut MemFsState, matches: impl Fn(Fault) -> bool) -> Option<Fault> {
        let index = state.faults.iter().position(|&f| matches(f))?;
        Some(state.faults.remove(index))
    }

    /// The state, unless the volume is offline.
    fn online(&self) -> io::Result<std::sync::MutexGuard<'_, MemFsState>> {
        let state = self.lock();
        match state.offline {
            true => Err(io::Error::other("injected fault: volume offline")),
            false => Ok(state),
        }
    }

    fn no_such_file() -> io::Error {
        io::Error::new(io::ErrorKind::NotFound, "no such file")
    }
}

impl IoBackend for MemFs {
    fn create_dir_all(&self, _dir: &Path) -> io::Result<()> {
        self.online().map(drop)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let state = self.online()?;
        state
            .files
            .get(path)
            .map(|f| f.data.clone())
            .ok_or_else(MemFs::no_such_file)
    }

    fn append_durable(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut state = self.online()?;
        let fault = MemFs::take_fault(&mut state, |f| {
            matches!(f, Fault::TornAppend { .. } | Fault::FailSync)
        });
        let file = state.files.get_mut(path).ok_or_else(MemFs::no_such_file)?;
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
            // FailSync — the only other kind `take_fault` hands this path:
            // the bytes sit in the page cache but never reach stable
            // storage: visible to reads now, gone after a power cut.
            Some(_) => {
                file.data.extend_from_slice(data);
                Err(io::Error::other("injected fault: fsync failed"))
            }
        }
    }

    fn write_atomic_streamed(&self, path: &Path, fill: &mut Fill<'_>) -> io::Result<()> {
        {
            let mut state = self.lock();
            while state
                .held
                .as_deref()
                .is_some_and(|held| path.extension().and_then(|e| e.to_str()) == Some(held))
            {
                state = unpoison(self.released.wait(state));
            }
        }
        self.online().map(drop)?;
        // The bytes stream into a file of their own, outside the lock, so
        // that a fault can be injected while they do; only the rename below
        // makes them the file's contents.
        let mut tmp = MemTmp {
            fs: self,
            data: Vec::new(),
        };
        fill(&mut tmp)?;
        let MemTmp { data, .. } = tmp;
        let mut state = self.online()?;
        if MemFs::take_fault(&mut state, |f| f == Fault::FailAtomicWrite).is_some() {
            return Err(io::Error::other("injected fault: atomic write failed"));
        }
        state.files.insert(
            path.to_path_buf(),
            MemFile {
                synced_len: data.len(),
                data,
            },
        );
        Ok(())
    }

    fn open_at(&self, path: &Path, offset: u64) -> io::Result<Box<dyn Read + Send + '_>> {
        let state = self.online()?;
        if !state.files.contains_key(path) {
            return Err(MemFs::no_such_file());
        }
        Ok(Box::new(MemReader {
            fs: self,
            path: path.to_path_buf(),
            offset,
        }))
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        let mut state = self.online()?;
        state
            .files
            .remove(path)
            .map(|_| ())
            .ok_or_else(MemFs::no_such_file)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let state = self.online()?;
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

/// The temp file of a [`MemFs`] atomic write. A volume that goes offline
/// while it is written fails the next append.
struct MemTmp<'a> {
    fs: &'a MemFs,
    data: Vec<u8>,
}

impl StreamSink for MemTmp<'_> {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.fs.online().map(drop)?;
        StreamSink::append(&mut self.data, bytes)
    }

    fn patch(&mut self, offset: u64, bytes: &[u8]) -> io::Result<()> {
        self.fs.online().map(drop)?;
        self.data.patch(offset, bytes)
    }
}

/// A [`MemFs`] read handle: each read copies what it asks for out of the
/// file, so no handle holds a copy of the whole file.
struct MemReader<'a> {
    fs: &'a MemFs,
    path: PathBuf,
    offset: u64,
}

impl Read for MemReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let state = self.fs.online()?;
        let file = state
            .files
            .get(&self.path)
            .ok_or_else(MemFs::no_such_file)?;
        let from = usize::try_from(self.offset)
            .unwrap_or(usize::MAX)
            .min(file.data.len());
        let n = buf.len().min(file.data.len() - from);
        buf[..n].copy_from_slice(&file.data[from..from + n]);
        self.offset += n as u64;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn appends_are_durable_and_survive_the_view_round_trip() {
        let fs = MemFs::new();
        let path = Path::new("d/wal.log");
        fs.write_atomic(path, b"").unwrap();
        fs.append_durable(path, b"hello ").unwrap();
        fs.append_durable(path, b"world").unwrap();
        let rebooted = MemFs::from_view(fs.durable_view());
        assert_eq!(rebooted.read(path).unwrap(), b"hello world");
    }

    #[test]
    fn torn_append_keeps_a_prefix_and_reports_failure() {
        let fs = MemFs::new();
        let path = Path::new("d/wal.log");
        fs.write_atomic(path, b"").unwrap();
        fs.append_durable(path, b"aaaa").unwrap();
        fs.inject(Fault::TornAppend { keep: 2 });
        assert!(fs.append_durable(path, b"bbbb").is_err());
        assert_eq!(fs.durable_view()[path], b"aaaabb");
    }

    #[test]
    fn failed_sync_loses_the_bytes_at_the_next_crash() {
        let fs = MemFs::new();
        let path = Path::new("d/wal.log");
        fs.write_atomic(path, b"").unwrap();
        fs.append_durable(path, b"safe").unwrap();
        fs.inject(Fault::FailSync);
        assert!(fs.append_durable(path, b"lost").is_err());
        // Visible before the crash…
        assert_eq!(fs.read(path).unwrap(), b"safelost");
        // …gone after it.
        assert_eq!(fs.durable_view()[path], b"safe");
    }

    #[test]
    fn mem_fs_refuses_an_append_to_a_missing_file() {
        let fs = MemFs::new();
        let err = fs.append_durable(Path::new("d/wal.log"), b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert!(fs.durable_view().is_empty());
    }

    #[test]
    fn std_fs_creates_a_missing_file_on_append() {
        let dir = std::env::temp_dir().join(format!("inferray-persist-new-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fs = StdFs;
        let path = dir.join("fresh.log");
        assert!(fs.append_durable(&path, b"x").is_err(), "no directory");
        fs.create_dir_all(&dir).unwrap();
        fs.append_durable(&path, b"ab").unwrap();
        fs.append_durable(&path, b"c").unwrap();
        assert_eq!(fs.read(&path).unwrap(), b"abc");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn numbered_names_sort_by_number_and_parse_back() {
        let name = |n| numbered_file_name("wal", n, "log");
        assert_eq!(name(7), "wal-00000000000000000007.log");
        assert!(name(9) < name(10));
        for n in [0, 10, u64::MAX] {
            assert_eq!(parse_numbered_file_name(&name(n), "wal", "log"), Some(n));
        }
        for other in [
            "wal.log",
            "wal-7.log",
            "wal-0000000000000000000x.log",
            "wal-00000000000000000007.img",
        ] {
            assert_eq!(
                parse_numbered_file_name(other, "wal", "log"),
                None,
                "{other}"
            );
        }
        let fs = MemFs::new();
        for file in [name(10), name(9), "notes".to_owned(), name(11) + ".tmp"] {
            fs.write_atomic(&Path::new("d").join(file), b"").unwrap();
        }
        let parse = |name: &str| parse_numbered_file_name(name, "wal", "log");
        let listed = list_numbered(&fs, Path::new("d"), parse).unwrap();
        assert_eq!(
            listed,
            [
                (10, Path::new("d").join(name(10))),
                (9, Path::new("d").join(name(9)))
            ]
        );
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
    fn a_fault_in_mid_stream_leaves_the_old_file_and_nothing_renamed() {
        for fault in [Fault::FailAtomicWrite, Fault::Offline] {
            let fs = MemFs::new();
            let path = Path::new("d/snap.img");
            fs.write_atomic(path, b"old").unwrap();
            let streamed = fs.write_atomic_streamed(path, &mut |sink| {
                sink.append(b"new ")?;
                fs.inject(fault);
                sink.patch(0, b"N")?;
                sink.append(b"image")
            });
            assert!(streamed.is_err(), "{fault:?}");
            assert_eq!(fs.durable_view().into_keys().collect::<Vec<_>>(), [path]);
            assert_eq!(fs.raw(path).unwrap(), b"old", "{fault:?}");
        }
    }

    #[test]
    fn a_streamed_write_patches_and_reads_back_from_any_offset() {
        let fs = MemFs::new();
        let path = Path::new("d/snap.img");
        fs.write_atomic_streamed(path, &mut |sink| {
            sink.append(b"..llo, ")?;
            sink.append(b"world")?;
            sink.patch(0, b"he")
        })
        .unwrap();
        let mut tail = String::new();
        fs.open_at(path, 5)
            .unwrap()
            .read_to_string(&mut tail)
            .unwrap();
        assert_eq!(tail, ", world");
        let mut past_the_end = Vec::new();
        fs.open_at(path, 99)
            .unwrap()
            .read_to_end(&mut past_the_end)
            .unwrap();
        assert!(past_the_end.is_empty());
        // A fill that fails leaves the file as it was.
        let failed = fs.write_atomic_streamed(path, &mut |sink| {
            sink.append(b"x")?;
            Err(io::Error::other("the encoder gave up"))
        });
        assert!(failed.is_err());
        assert_eq!(fs.read(path).unwrap(), b"hello, world");
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
        // A streamed write longer than a sync slice, with a patch into its
        // first slice, read back from an offset.
        let long: Vec<u8> = (0..WRITE_SLICE + 100).map(|i| i as u8).collect();
        fs.write_atomic_streamed(&wal, &mut |sink| {
            sink.append(&long)?;
            sink.patch(1, b"!")
        })
        .unwrap();
        let mut back = Vec::new();
        fs.open_at(&wal, 1).unwrap().read_to_end(&mut back).unwrap();
        assert_eq!(back.len(), long.len() - 1);
        assert_eq!((back[0], &back[1..]), (b'!', &long[2..]));
        assert!(!fs.exists(&dir.join("wal.log.tmp")));
        let failed = fs.write_atomic_streamed(&wal, &mut |sink| {
            sink.append(b"partial")?;
            Err(io::Error::other("the encoder gave up"))
        });
        assert!(failed.is_err());
        assert!(!fs.exists(&dir.join("wal.log.tmp")));
        fs.write_atomic(&wal, b"reset").unwrap();
        assert_eq!(fs.read(&wal).unwrap(), b"reset");
        assert!(fs.exists(&wal));
        assert_eq!(fs.list(&dir).unwrap(), vec![wal.clone()]);
        fs.remove(&wal).unwrap();
        assert!(!fs.exists(&wal));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_overlay_sees_its_own_writes_and_leaves_the_backend_underneath_as_it_was() {
        let under = MemFs::new();
        let dir = Path::new("d");
        under.write_atomic(&dir.join("a"), b"abc").unwrap();
        under.write_atomic(&dir.join("b"), b"left behind").unwrap();
        let before = under.durable_view();
        let overlay = Overlay::new(under);
        overlay.append_durable(&dir.join("a"), b"def").unwrap();
        overlay.write_atomic(&dir.join("c"), b"new").unwrap();
        overlay.remove(&dir.join("b")).unwrap();
        overlay.append_durable(&dir.join("fresh"), b"x").unwrap();
        assert!(overlay.remove(&dir.join("b")).is_err());
        assert_eq!(overlay.read(&dir.join("a")).unwrap(), b"abcdef");
        let mut tail = String::new();
        overlay
            .open_at(&dir.join("a"), 2)
            .unwrap()
            .read_to_string(&mut tail)
            .unwrap();
        assert_eq!(tail, "cdef");
        assert!(overlay.open_at(&dir.join("b"), 0).is_err());
        assert!(!overlay.exists(&dir.join("b")) && overlay.exists(&dir.join("c")));
        assert_eq!(
            overlay.list(dir).unwrap(),
            ["a", "c", "fresh"].map(|name| dir.join(name))
        );
        assert_eq!(overlay.under.durable_view(), before);
        assert_eq!(overlay.under.read(&dir.join("b")).unwrap(), b"left behind");
    }
}
