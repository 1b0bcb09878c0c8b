//! [`DurableDataset`]: a [`ServingDataset`] whose writes survive crashes.
//!
//! A durable write is the dataset's one write pipeline
//! ([`ServingDataset::write_ntriples`]) with this module's WAL append +
//! fsync as its log stage: the candidate is reasoned and shape-gated on
//! private copies, then logged, then published — so an acknowledged write
//! is durable before any reader can observe it, and a refused write never
//! reaches the log. Checkpoints serialize the full store into a
//! [snapshot image](crate::snapshot) and retire the log records it covers.
//! Recovery is the composition: newest valid image + replay of the WAL
//! suffix through the same pipeline (with a no-op log stage), which is what
//! makes the recovered store *byte-identical* (the engine is deterministic
//! for a given input sequence).
//!
//! ## A checkpoint has two halves
//!
//! An image of a LUBM-500k store is 31 MB: ~50 ms to stream into its file,
//! several times the cost of the write that happens to cross the
//! threshold. So that write only *begins* the checkpoint, under
//! the state lock it already holds: it **seals** the log — the live
//! segment's records move into `wal.sealed`, `wal.log` starts empty — takes
//! the `Arc`s of the state it just published, and hands both to a thread.
//! The thread streams the image into its file through one block and, once
//! it is durable, removes
//! the sealed segment and prunes old images; the next write (or
//! [`DurableDataset::wait_for_checkpoint`], or `Drop`) joins it and moves
//! the status forward. At most one image is in flight; a threshold crossed
//! again before it is durable waits for it. [`DurableDataset::checkpoint`]
//! runs the same two halves back to back.
//!
//! Every intermediate state recovers, because replay is
//! `image + sealed + live`, skipping by sequence number:
//!
//! | crash after | on disk | replayed |
//! |---|---|---|
//! | sealed segment written | old image, sealed = live | each record once |
//! | live segment emptied | old image, sealed, writes since in live | sealed, then live |
//! | image durable | new image, sealed, live | live (sealed is skipped) |
//! | sealed segment removed | new image, live | live |
//!
//! An image that fails to be written leaves the sealed segment where it
//! is; the next checkpoint seals behind it and covers both.
//!
//! ## Degradation, not panic
//!
//! A failed WAL append means the write cannot be made durable, so nothing
//! is published and the dataset flips to **read-only**: writes return
//! [`DurableError::ReadOnly`], reads keep serving the last published
//! epoch. A failed *checkpoint* is softer — the WAL simply keeps growing
//! and the error is surfaced through [`DurabilityStatus`] — because the
//! log alone is still a complete durability story.
//!
//! Failure atomicity is the standard fsync contract: when an append
//! reports failure the record may or may not have reached the platter.
//! Both outcomes are safe — the record is either absent after recovery
//! (client saw an error, write lost: correct) or present and replayed
//! (client saw an error, write survived: the same anomaly a real
//! filesystem permits, and the store is still consistent because the
//! record is internally complete or it fails its CRC).

use crate::io::IoBackend;
use crate::snapshot::{self, SnapshotImage};
use crate::wal::{self, WAL_FILE, WAL_SEALED_FILE};
use inferray_core::{
    InferenceStats, InferrayOptions, Program, ServingDataset, WriteError, WriteKind, WriteOutcome,
};
use inferray_dictionary::Dictionary;
use inferray_model::json_string_into;
use inferray_parser::LoadedDataset;
use inferray_rules::analysis::Diagnostic;
use inferray_store::{unpoison, StoreSnapshot, TripleStore};
use std::fmt::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// When to fold the WAL into a fresh snapshot image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint once this many records accumulated since the last one.
    pub wal_record_limit: Option<u64>,
    /// Checkpoint once the log grew past this many bytes.
    pub wal_byte_limit: Option<u64>,
    /// How many snapshot images to keep (older ones are pruned). At least
    /// one is always kept.
    pub snapshots_to_keep: usize,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy {
            wal_record_limit: Some(1024),
            wal_byte_limit: Some(64 << 20),
            snapshots_to_keep: 2,
        }
    }
}

impl CheckpointPolicy {
    /// A policy that never checkpoints on its own (tests drive checkpoints
    /// explicitly).
    pub fn manual() -> Self {
        CheckpointPolicy {
            wal_record_limit: None,
            wal_byte_limit: None,
            snapshots_to_keep: 2,
        }
    }

    fn triggered(&self, wal_records: u64, wal_bytes: u64) -> bool {
        self.wal_record_limit
            .is_some_and(|limit| wal_records >= limit)
            || self.wal_byte_limit.is_some_and(|limit| wal_bytes >= limit)
    }
}

/// Why a durable operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurableError {
    /// The dataset is degraded to read-only after an unrecoverable WAL
    /// failure; reads keep serving.
    ReadOnly {
        /// What flipped the dataset read-only.
        reason: String,
    },
    /// The write was refused before the log stage — it does not parse or
    /// encode, or the shape gate refused its candidate. Nothing was logged
    /// or applied.
    Rejected {
        /// Parser/encoder diagnostic, or the shape-violation summary.
        message: String,
    },
    /// The rule program a dataset was to be created under does not load.
    Program(Vec<Diagnostic>),
    /// An I/O operation outside the write path failed.
    Io {
        /// What was being attempted.
        context: String,
        /// The underlying error.
        message: String,
    },
    /// Recovery found state it cannot trust (an acknowledged WAL record
    /// that no longer parses, or no decodable snapshot among existing
    /// files).
    Corrupt {
        /// Diagnostic.
        message: String,
    },
    /// The snapshot was written under a different program (another
    /// fragment, or a rule file with different text).
    FragmentMismatch {
        /// Program name stored in the image.
        stored: String,
        /// Name of the program the caller asked to resume under.
        requested: String,
    },
    /// The data directory holds no snapshot image at all.
    NoSnapshot,
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::ReadOnly { reason } => {
                write!(f, "dataset is read-only: {reason}")
            }
            DurableError::Rejected { message } => write!(f, "rejected: {message}"),
            DurableError::Program(diags) => {
                let list: Vec<String> = diags.iter().map(|d| d.to_string()).collect();
                write!(f, "rule program has errors: {}", list.join("; "))
            }
            DurableError::Io { context, message } => write!(f, "{context}: {message}"),
            DurableError::Corrupt { message } => write!(f, "corrupt state: {message}"),
            DurableError::FragmentMismatch { stored, requested } => write!(
                f,
                "snapshot was materialized under program {stored}, not {requested}"
            ),
            DurableError::NoSnapshot => write!(f, "no snapshot image in data directory"),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<WriteError> for DurableError {
    fn from(error: WriteError) -> DurableError {
        match error {
            WriteError::Log(reason) => DurableError::ReadOnly { reason },
            refused => DurableError::Rejected {
                message: refused.to_string(),
            },
        }
    }
}

/// Operator-visible durability state (surfaced through `GET /status`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DurabilityStatus {
    /// `true` once the dataset degraded to read-only.
    pub read_only: bool,
    /// The newest *durable* snapshot image, written or recovered. While a
    /// checkpoint's image is still being written this is the one before it.
    pub snapshot_path: Option<PathBuf>,
    /// Epoch covered by that image.
    pub snapshot_epoch: u64,
    /// Last WAL sequence number folded into that image.
    pub last_checkpoint_seq: u64,
    /// Last WAL sequence number acknowledged.
    pub last_seq: u64,
    /// Records in the live log segment: appended since the last checkpoint
    /// *began* (it seals the log before it writes its image).
    pub wal_records: u64,
    /// Bytes in the live log segment.
    pub wal_bytes: u64,
    /// Length of the last image a checkpoint wrote (0 before the first).
    pub last_image_bytes: u64,
    /// Wall time of that checkpoint's image, from the first byte streamed to
    /// the rename being durable, in µs.
    pub last_checkpoint_us: u64,
    /// The most recent persistence error, if any.
    pub last_error: Option<String>,
}

impl DurabilityStatus {
    /// Renders the status as a JSON object into `out` — no allocation
    /// beyond the caller's buffer: the server calls this per `GET /status`
    /// from its zero-allocation path (verify-lint IL007).
    pub fn json_into(&self, out: &mut String) {
        let _ = write!(out, "{{\"read_only\":{},\"snapshot_path\":", self.read_only);
        match &self.snapshot_path {
            Some(path) => json_string_into(out, &path.to_string_lossy()),
            None => out.push_str("null"),
        }
        let _ = write!(
            out,
            ",\"snapshot_epoch\":{},\"last_checkpoint_seq\":{},\"last_seq\":{},\
             \"wal_records\":{},\"wal_bytes\":{},\"last_image_bytes\":{},\
             \"last_checkpoint_us\":{},\"last_error\":",
            self.snapshot_epoch,
            self.last_checkpoint_seq,
            self.last_seq,
            self.wal_records,
            self.wal_bytes,
            self.last_image_bytes,
            self.last_checkpoint_us
        );
        match &self.last_error {
            Some(error) => json_string_into(out, error),
            None => out.push_str("null"),
        }
        out.push('}');
    }
}

/// What [`DurableDataset::open`] did to get back to a serving state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The image recovery restored from.
    pub snapshot_path: PathBuf,
    /// Epoch of that image.
    pub snapshot_epoch: u64,
    /// Newer snapshot files that failed validation and were skipped.
    pub invalid_snapshots: usize,
    /// WAL records replayed on top of the image.
    pub replayed_records: usize,
    /// WAL records skipped because the image already covered them.
    pub skipped_records: usize,
    /// Bytes of torn/corrupt WAL tail that were discarded.
    pub torn_tail_bytes: usize,
    /// Epoch the dataset resumed serving at.
    pub epoch: u64,
    /// Triples in the resumed (materialized) store.
    pub triples: usize,
}

#[derive(Debug, Default)]
struct DurableState {
    last_seq: u64,
    /// Records and bytes of the live log segment ([`WAL_FILE`]).
    wal_records: u64,
    wal_bytes: u64,
    /// The newest *durable* image.
    snapshot_epoch: u64,
    snapshot_seq: u64,
    snapshot_path: Option<PathBuf>,
    /// What the last image written cost.
    last_image: ImageCost,
    last_error: Option<String>,
    /// The checkpoint whose image is still being written.
    in_flight: Option<ImageInFlight>,
}

/// The length of a written image and the wall time it took.
#[derive(Debug, Default, Clone, Copy)]
struct ImageCost {
    bytes: u64,
    time: Duration,
}

/// A begun checkpoint: the log is sealed, the state is captured, and a
/// helper thread is writing the image that will cover the sealed segment.
#[derive(Debug)]
struct ImageInFlight {
    path: PathBuf,
    epoch: u64,
    seq: u64,
    writer: JoinHandle<std::io::Result<ImageCost>>,
}

/// A crash-safe [`ServingDataset`]: WAL + snapshot images behind an
/// [`IoBackend`].
#[derive(Debug)]
pub struct DurableDataset {
    inner: Arc<ServingDataset>,
    backend: Arc<dyn IoBackend>,
    dir: PathBuf,
    /// What the image header's `fragment` field says the dataset is closed
    /// under (see [`program_name`]).
    program_name: String,
    policy: CheckpointPolicy,
    read_only: AtomicBool,
    state: Mutex<DurableState>,
    /// Leaf mutex (last in the lock order) holding a pre-built copy of the
    /// operator status. Refreshed at the end of every state transition —
    /// still under the state lock — so `GET /status` never waits behind a
    /// materialization, WAL append, or checkpoint in flight.
    status_mirror: Mutex<DurabilityStatus>,
}

/// The name an image header records for `program`: the fragment's display
/// name, or `rules:` plus the CRC-32 of the rule text — enough to refuse a
/// data directory reopened under a different rule file.
fn program_name(program: &Program) -> String {
    match program {
        Program::Fragment(fragment) => fragment.to_string(),
        Program::Rules(text) => format!("rules:{:08x}", crate::crc32(text.as_bytes())),
    }
}

impl DurableDataset {
    /// Materializes a freshly loaded dataset under `program` (a
    /// [`Fragment`](inferray_core::Fragment) or rule text) and writes its
    /// initial snapshot image — the creation is only reported successful
    /// once the dataset is durable.
    pub fn create(
        loaded: LoadedDataset,
        program: impl Into<Program>,
        options: InferrayOptions,
        dir: impl Into<PathBuf>,
        backend: Arc<dyn IoBackend>,
        policy: CheckpointPolicy,
    ) -> Result<(Self, InferenceStats), DurableError> {
        let dir = dir.into();
        backend.create_dir_all(&dir).map_err(|e| DurableError::Io {
            context: format!("creating data directory {}", dir.display()),
            message: e.to_string(),
        })?;
        let (dataset, stats) = ServingDataset::materialize_program(loaded, program, options)
            .map_err(DurableError::Program)?;
        let durable =
            DurableDataset::assemble(dataset, backend, dir, policy, DurableState::default());
        durable.checkpoint()?;
        Ok((durable, stats))
    }

    fn assemble(
        dataset: ServingDataset,
        backend: Arc<dyn IoBackend>,
        dir: PathBuf,
        policy: CheckpointPolicy,
        state: DurableState,
    ) -> Self {
        let durable = DurableDataset {
            program_name: program_name(dataset.program()),
            inner: Arc::new(dataset),
            backend,
            dir,
            policy,
            // Recovery sets `last_error` only when it could not heal the log.
            read_only: AtomicBool::new(state.last_error.is_some()),
            state: Mutex::new(state),
            status_mirror: Mutex::new(DurabilityStatus::default()),
        };
        durable.refresh_status_mirror(&durable.lock_state());
        durable
    }

    /// Recovers from a data directory: newest valid snapshot image + WAL
    /// replay, tolerating invalid newer images and a torn log tail.
    /// `program` must be the one the directory was created under.
    pub fn open(
        dir: impl Into<PathBuf>,
        program: impl Into<Program>,
        options: InferrayOptions,
        backend: Arc<dyn IoBackend>,
        policy: CheckpointPolicy,
    ) -> Result<(Self, RecoveryReport), DurableError> {
        let dir = dir.into();
        let program = program.into();
        let (image, snapshot_path, invalid_snapshots) =
            DurableDataset::newest_valid_image(backend.as_ref(), &dir)?;
        let requested = program_name(&program);
        if image.fragment != requested {
            return Err(DurableError::FragmentMismatch {
                stored: image.fragment,
                requested,
            });
        }
        let SnapshotImage {
            epoch,
            last_seq: snapshot_seq,
            dictionary,
            base,
            materialized,
            ..
        } = image;
        let inner =
            ServingDataset::from_parts(dictionary, base, materialized, epoch, program, options);

        // Replay the WAL suffix through the live write pipeline. Every
        // record passed the shape gate of the process that logged it, so
        // replay runs ungated; the embedder re-installs its shapes on the
        // recovered dataset, which validates the recovered snapshot.
        //
        // The sealed segment comes first: it holds what a checkpoint had
        // set aside when its image did not become durable. It is only ever
        // replaced atomically, so anything in it that does not scan is
        // damage to acknowledged writes, not a torn append.
        let read_log = |path: &Path| match backend.read(path) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(DurableError::Io {
                context: format!("reading {}", path.display()),
                message: e.to_string(),
            }),
        };
        let sealed_path = dir.join(WAL_SEALED_FILE);
        let sealed_bytes = read_log(&sealed_path)?;
        let sealed = wal::scan(&sealed_bytes);
        if sealed.torn_tail {
            return Err(DurableError::Corrupt {
                message: format!(
                    "{} is damaged after {} bytes",
                    sealed_path.display(),
                    sealed.valid_bytes
                ),
            });
        }
        let wal_path = dir.join(WAL_FILE);
        let wal_bytes = read_log(&wal_path)?;
        let scan = wal::scan(&wal_bytes);
        let mut replayed = 0usize;
        let mut skipped = 0usize;
        let mut last_seq = snapshot_seq;
        for record in sealed.records.iter().chain(&scan.records) {
            // Covered by the image, or met in the sealed segment already (a
            // crash between sealing and emptying the live segment).
            if record.seq <= last_seq {
                skipped += 1;
                continue;
            }
            inner
                .write_ntriples(record.kind, &record.body, || Ok(()))
                .map_err(|e| DurableError::Corrupt {
                    message: format!(
                        "WAL record {} passed its checksum but does not replay: {e}",
                        record.seq
                    ),
                })?;
            replayed += 1;
            last_seq = record.seq;
        }

        // A torn tail must be cut before new appends, or the garbage bytes
        // would permanently corrupt every future scan. Failing to cut it is
        // not fatal — but the dataset must then refuse writes.
        let mut read_only_reason = None;
        if scan.torn_tail {
            if let Err(e) = backend.write_atomic(&wal_path, &wal_bytes[..scan.valid_bytes]) {
                read_only_reason = Some(format!(
                    "could not truncate torn WAL tail of {}: {e}",
                    wal_path.display()
                ));
            }
        }

        let snapshot = inner.store_snapshot();
        let report = RecoveryReport {
            snapshot_path: snapshot_path.clone(),
            snapshot_epoch: epoch,
            invalid_snapshots,
            replayed_records: replayed,
            skipped_records: skipped,
            torn_tail_bytes: wal_bytes.len() - scan.valid_bytes,
            epoch: snapshot.epoch(),
            triples: snapshot.store().len(),
        };
        let state = DurableState {
            last_seq,
            wal_records: scan.records.len() as u64,
            wal_bytes: scan.valid_bytes as u64,
            snapshot_epoch: epoch,
            snapshot_seq,
            snapshot_path: Some(snapshot_path),
            last_image: ImageCost::default(),
            last_error: read_only_reason,
            in_flight: None,
        };
        let durable = DurableDataset::assemble(inner, backend, dir, policy, state);
        Ok((durable, report))
    }

    fn newest_valid_image(
        backend: &dyn IoBackend,
        dir: &Path,
    ) -> Result<(SnapshotImage, PathBuf, usize), DurableError> {
        let files = backend.list(dir).map_err(|e| DurableError::Io {
            context: format!("listing {}", dir.display()),
            message: e.to_string(),
        })?;
        let mut candidates: Vec<(u64, PathBuf)> = files
            .into_iter()
            .filter_map(|path| {
                let name = path.file_name()?.to_str()?;
                Some((snapshot::parse_snapshot_file_name(name)?, path.clone()))
            })
            .collect();
        if candidates.is_empty() {
            return Err(DurableError::NoSnapshot);
        }
        candidates.sort_by_key(|c| std::cmp::Reverse(c.0));
        let total = candidates.len();
        let mut invalid = 0usize;
        for (_, path) in candidates {
            match snapshot::open_image(backend, &path) {
                Ok(image) => return Ok((image, path, invalid)),
                Err(_) => invalid += 1,
            }
        }
        Err(DurableError::Corrupt {
            message: format!("all {total} snapshot images failed validation"),
        })
    }

    /// The underlying dataset, for query engines and status endpoints.
    /// Reads stay available even when the dataset is read-only.
    pub fn dataset(&self) -> &Arc<ServingDataset> {
        &self.inner
    }

    /// `true` once an unrecoverable WAL failure degraded writes.
    pub fn is_read_only(&self) -> bool {
        self.read_only.load(Ordering::Acquire)
    }

    /// Current durability state for operators. Reads only the status
    /// mirror — a leaf mutex held for a field copy — so the endpoint stays
    /// responsive while a write holds the state lock across
    /// materialization, WAL append, and checkpointing.
    pub fn status(&self) -> DurabilityStatus {
        self.notice_a_finished_image();
        unpoison(self.status_mirror.lock()).clone()
    }

    /// [`DurabilityStatus::json_into`] straight off the status mirror,
    /// without the copy [`DurableDataset::status`] makes.
    pub fn status_json_into(&self, out: &mut String) {
        self.notice_a_finished_image();
        unpoison(self.status_mirror.lock()).json_into(out);
    }

    /// The status moves on to a checkpoint's image when a write joins its
    /// thread. With no write coming, a status request does it — but only
    /// when the state lock is free and the thread is done, so it still
    /// never waits.
    fn notice_a_finished_image(&self) {
        if let Ok(mut state) = self.state.try_lock() {
            if state.in_flight.is_some() {
                self.settle_checkpoint(&mut state, false);
                if state.in_flight.is_none() {
                    self.refresh_status_mirror(&state);
                }
            }
        }
    }

    /// Rebuilds the operator-visible mirror from the authoritative state.
    /// Called at the end of every state transition, still under the state
    /// lock (lock order: persist state → status mirror, the leaf).
    fn refresh_status_mirror(&self, state: &DurableState) {
        let status = DurabilityStatus {
            read_only: self.read_only.load(Ordering::Acquire),
            snapshot_path: state.snapshot_path.clone(),
            snapshot_epoch: state.snapshot_epoch,
            last_checkpoint_seq: state.snapshot_seq,
            last_seq: state.last_seq,
            wal_records: state.wal_records,
            wal_bytes: state.wal_bytes,
            last_image_bytes: state.last_image.bytes,
            last_checkpoint_us: state.last_image.time.as_micros() as u64,
            last_error: state.last_error.clone(),
        };
        *unpoison(self.status_mirror.lock()) = status;
    }

    /// A durable write: the dataset's write pipeline
    /// ([`ServingDataset::write_ntriples`]) with WAL append + fsync as its
    /// log stage, under the state lock so that WAL order equals apply
    /// order. [`WriteError::Log`] means the dataset is (now) read-only.
    /// The checkpoint threshold is checked here, after the publish.
    pub fn write_ntriples(&self, kind: WriteKind, body: &str) -> Result<WriteOutcome, WriteError> {
        let mut state = self.lock_state();
        if self.is_read_only() {
            let reason = state.last_error.clone();
            return Err(WriteError::Log(
                reason.unwrap_or_else(|| "degraded to read-only".to_string()),
            ));
        }
        let outcome = self
            .inner
            .write_ntriples(kind, body, || self.append(&mut state, kind, body))?;
        self.settle_checkpoint(&mut state, false);
        self.maybe_checkpoint(&mut state);
        self.refresh_status_mirror(&state);
        Ok(outcome)
    }

    /// Durably asserts an N-Triples batch.
    pub fn extend_ntriples(&self, body: &str) -> Result<WriteOutcome, DurableError> {
        Ok(self.write_ntriples(WriteKind::Assert, body)?)
    }

    /// Durably retracts an N-Triples batch (delete–rederive).
    pub fn retract_ntriples(&self, body: &str) -> Result<WriteOutcome, DurableError> {
        Ok(self.write_ntriples(WriteKind::Retract, body)?)
    }

    /// Writes a snapshot image of the current state and empties the WAL;
    /// returns once the image is durable.
    pub fn checkpoint(&self) -> Result<PathBuf, DurableError> {
        let mut state = self.lock_state();
        let result = self
            .begin_checkpoint(&mut state)
            .and_then(|image| self.finish_checkpoint(&mut state, image));
        self.refresh_status_mirror(&state);
        result
    }

    /// Blocks until no checkpoint image is being written, so that
    /// [`DurableDataset::status`] describes files that are on disk: for an
    /// embedder about to copy the data directory, and for tests.
    pub fn wait_for_checkpoint(&self) {
        let mut state = self.lock_state();
        self.settle_checkpoint(&mut state, true);
        self.refresh_status_mirror(&state);
    }

    fn lock_state(&self) -> MutexGuard<'_, DurableState> {
        unpoison(self.state.lock())
    }

    fn wal_path(&self) -> PathBuf {
        self.dir.join(WAL_FILE)
    }

    /// The pipeline's log stage: appends one record and fsyncs it. On
    /// failure nothing will be published and the dataset flips read-only.
    fn append(&self, state: &mut DurableState, kind: WriteKind, body: &str) -> Result<(), String> {
        let seq = state.last_seq + 1;
        let record = wal::encode_record(seq, kind, body);
        if let Err(e) = self.backend.append_durable(&self.wal_path(), &record) {
            let reason = format!("WAL append failed: {e}");
            state.last_error = Some(reason.clone());
            self.read_only.store(true, Ordering::Release);
            self.refresh_status_mirror(state);
            return Err(reason);
        }
        state.last_seq = seq;
        state.wal_records += 1;
        state.wal_bytes += record.len() as u64;
        Ok(())
    }

    /// The threshold checkpoint: begun by the write that crossed the
    /// threshold, finished behind its acknowledgement.
    fn maybe_checkpoint(&self, state: &mut DurableState) {
        if !self.policy.triggered(state.wal_records, state.wal_bytes) {
            return;
        }
        // A failed checkpoint is not fatal: the WAL alone still carries
        // every acknowledged write. Record the error and keep serving.
        match self.begin_checkpoint(state) {
            Ok(image) => state.in_flight = Some(image),
            Err(e) => state.last_error = Some(format!("checkpoint failed: {e}")),
        }
    }

    /// First half of a checkpoint, under the state lock: seal the log,
    /// capture the state it leads to, and start a thread that writes the
    /// image. Cheap — two small atomic writes and a copy of the base — so
    /// the write that crossed the threshold pays for no image.
    ///
    /// Sealing moves the live segment's records behind the sealed segment's
    /// ([`WAL_SEALED_FILE`], normally absent) and empties the live segment:
    /// `wal_records` counts from zero again at once, and a crash before the
    /// image is durable replays `sealed ++ live` on top of the previous
    /// image. If the two writes are torn apart by a crash or a fault, both
    /// files hold the same records; replay skips by sequence number.
    fn begin_checkpoint(&self, state: &mut DurableState) -> Result<ImageInFlight, DurableError> {
        // One image at a time: a threshold reached again before the last
        // image is durable waits for it.
        self.settle_checkpoint(state, true);
        let io_error = |context: String| {
            move |e: std::io::Error| DurableError::Io {
                context,
                message: e.to_string(),
            }
        };
        let (wal_path, sealed_path) = (self.wal_path(), self.dir.join(WAL_SEALED_FILE));
        let read = |path: &Path| match self.backend.exists(path) {
            true => self.backend.read(path),
            false => Ok(Vec::new()),
        };
        // The sealed segment is normally absent. Behind whatever it holds go
        // the live records it does not hold yet — record by record, which
        // also leaves a torn tail of the live segment behind.
        let mut sealed = read(&sealed_path).map_err(io_error("reading the sealed log".into()))?;
        let held = wal::scan(&sealed);
        sealed.truncate(held.valid_bytes);
        let covered = held.records.last().map_or(0, |record| record.seq);
        let live = read(&wal_path).map_err(io_error("reading the log".into()))?;
        for record in wal::scan(&live).records {
            if record.seq > covered {
                sealed.extend(wal::encode_record(record.seq, record.kind, &record.body));
            }
        }
        if !sealed.is_empty() {
            self.backend
                .write_atomic(&sealed_path, &sealed)
                .map_err(io_error(format!("sealing {}", wal_path.display())))?;
        }
        match self.backend.write_atomic(&wal_path, &[]) {
            Ok(()) => {
                state.wal_records = 0;
                state.wal_bytes = 0;
            }
            // The image will cover the records left behind; they are merely
            // redundant, and the threshold stays crossed.
            Err(e) => state.last_error = Some(format!("WAL truncation failed: {e}")),
        }

        let (dictionary, base, snapshot) = self.inner.persistable_state();
        let (epoch, seq) = (snapshot.epoch(), state.last_seq);
        let path = self.dir.join(snapshot::snapshot_file_name(epoch));
        let job = ImageJob {
            backend: Arc::clone(&self.backend),
            dir: self.dir.clone(),
            path: path.clone(),
            keep: self.policy.snapshots_to_keep,
            program_name: self.program_name.clone(),
            seq,
        };
        let writer = std::thread::Builder::new()
            .name("inferray-checkpoint".to_string())
            .spawn(move || job.run(&dictionary, &base, &snapshot))
            .map_err(io_error("starting the checkpoint thread".to_string()))?;
        Ok(ImageInFlight {
            path,
            epoch,
            seq,
            writer,
        })
    }

    /// Second half of a checkpoint: waits for the image and, once it is
    /// durable, makes it the dataset's newest one. A failed image leaves
    /// the sealed segment in place for the next checkpoint to cover.
    fn finish_checkpoint(
        &self,
        state: &mut DurableState,
        image: ImageInFlight,
    ) -> Result<PathBuf, DurableError> {
        let written = image
            .writer
            .join()
            .unwrap_or_else(|_| Err(std::io::Error::other("the checkpoint thread panicked")));
        match written {
            Ok(cost) => {
                state.last_image = cost;
                state.snapshot_epoch = image.epoch;
                state.snapshot_seq = image.seq;
                state.snapshot_path = Some(image.path.clone());
                Ok(image.path)
            }
            Err(e) => {
                let error = DurableError::Io {
                    context: format!("writing snapshot {}", image.path.display()),
                    message: e.to_string(),
                };
                state.last_error = Some(format!("checkpoint failed: {error}"));
                Err(error)
            }
        }
    }

    /// Takes up the threshold checkpoint in flight, if there is one and —
    /// unless `wait` — its thread is done.
    fn settle_checkpoint(&self, state: &mut DurableState, wait: bool) {
        let done = |image: &mut ImageInFlight| wait || image.writer.is_finished();
        if let Some(image) = state.in_flight.take_if(done) {
            let _ = self.finish_checkpoint(state, image);
        }
    }
}

impl Drop for DurableDataset {
    /// No thread outlives the dataset it writes an image of.
    fn drop(&mut self) {
        if let Some(image) = unpoison(self.state.get_mut()).in_flight.take() {
            let _ = image.writer.join();
        }
    }
}

/// What the checkpoint thread owns besides the captured state.
struct ImageJob {
    backend: Arc<dyn IoBackend>,
    dir: PathBuf,
    path: PathBuf,
    keep: usize,
    program_name: String,
    seq: u64,
}

impl ImageJob {
    /// Streams the image into its file through one block
    /// ([`snapshot::write_image`]); once it is durable, retires what it
    /// supersedes — the sealed log segment and the oldest images. Both
    /// removals are best-effort: a sealed segment left behind is skipped by
    /// sequence number at the next start and swallowed by the next seal.
    fn run(
        self,
        dictionary: &Dictionary,
        base: &TripleStore,
        snapshot: &StoreSnapshot,
    ) -> std::io::Result<ImageCost> {
        let start = Instant::now();
        let mut bytes = 0;
        self.backend
            .write_atomic_streamed(&self.path, &mut |sink| {
                bytes = snapshot::write_image(
                    sink,
                    dictionary,
                    base,
                    snapshot.store(),
                    snapshot.epoch(),
                    self.seq,
                    &self.program_name,
                )?;
                Ok(())
            })?;
        let cost = ImageCost {
            bytes,
            time: start.elapsed(),
        };
        let sealed = self.dir.join(WAL_SEALED_FILE);
        if self.backend.exists(&sealed) {
            let _ = self.backend.remove(&sealed);
        }
        self.prune_snapshots();
        Ok(cost)
    }

    /// Removes all but the newest [`CheckpointPolicy::snapshots_to_keep`]
    /// images (best-effort; the one just written is never removed).
    fn prune_snapshots(&self) {
        let Ok(files) = self.backend.list(&self.dir) else {
            return;
        };
        let mut images: Vec<(u64, PathBuf)> = files
            .into_iter()
            .filter_map(|path| {
                let name = path.file_name()?.to_str()?;
                Some((snapshot::parse_snapshot_file_name(name)?, path.clone()))
            })
            .collect();
        images.sort_by_key(|i| std::cmp::Reverse(i.0));
        for (_, path) in images.into_iter().skip(self.keep.max(1)) {
            if path != self.path {
                let _ = self.backend.remove(&path);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{Fault, MemFs};
    use inferray_core::Fragment;
    use inferray_parser::load_ntriples;

    const DATA: &str = "<http://ex/human> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://ex/mammal> .\n\
         <http://ex/mammal> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://ex/animal> .\n\
         <http://ex/bart> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/human> .\n";

    fn boot(backend: Arc<MemFs>) -> DurableDataset {
        let loaded = load_ntriples(DATA).unwrap();
        let (durable, _) = DurableDataset::create(
            loaded,
            Fragment::RdfsDefault,
            InferrayOptions::default(),
            "data",
            backend,
            CheckpointPolicy::manual(),
        )
        .unwrap();
        durable
    }

    #[test]
    fn create_then_open_resumes_the_same_store() {
        let fs = Arc::new(MemFs::new());
        let original = boot(Arc::clone(&fs));
        original
            .extend_ntriples(
                "<http://ex/lisa> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/human> .\n",
            )
            .unwrap();

        let rebooted = Arc::new(MemFs::from_view(fs.durable_view()));
        let (recovered, report) = DurableDataset::open(
            "data",
            Fragment::RdfsDefault,
            InferrayOptions::default(),
            rebooted,
            CheckpointPolicy::manual(),
        )
        .unwrap();

        assert_eq!(report.replayed_records, 1);
        let (live, live_dict) = original.dataset().snapshot();
        let (back, back_dict) = recovered.dataset().snapshot();
        assert_eq!(live.epoch(), back.epoch());
        assert_eq!(live.store(), back.store());
        assert_eq!(*live_dict, *back_dict);
    }

    #[test]
    fn checkpoint_truncates_the_wal_and_is_skipped_on_replay() {
        let fs = Arc::new(MemFs::new());
        let durable = boot(Arc::clone(&fs));
        durable
            .extend_ntriples(
                "<http://ex/lisa> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/human> .\n",
            )
            .unwrap();
        durable.checkpoint().unwrap();
        assert_eq!(fs.read(Path::new("data/wal.log")).unwrap(), b"");

        let rebooted = Arc::new(MemFs::from_view(fs.durable_view()));
        let (_, report) = DurableDataset::open(
            "data",
            Fragment::RdfsDefault,
            InferrayOptions::default(),
            rebooted,
            CheckpointPolicy::manual(),
        )
        .unwrap();
        assert_eq!(report.replayed_records, 0);
        assert_eq!(report.skipped_records, 0);
    }

    #[test]
    fn a_checkpoint_reports_the_length_and_the_time_of_its_image() {
        let fs = Arc::new(MemFs::new());
        let durable = boot(Arc::clone(&fs));
        let created = durable.status();
        let path = created.snapshot_path.clone().unwrap();
        assert_eq!(
            created.last_image_bytes,
            fs.raw(&path).unwrap().len() as u64
        );
        assert_edge(&durable, 1);
        let path = durable.checkpoint().unwrap();
        let status = durable.status();
        assert_eq!(status.last_image_bytes, fs.raw(&path).unwrap().len() as u64);
        assert!(status.last_image_bytes > created.last_image_bytes);
        assert!(status.last_checkpoint_us > 0);
        let mut json = String::new();
        durable.status_json_into(&mut json);
        assert!(json.contains(&format!(
            "\"last_image_bytes\":{},",
            status.last_image_bytes
        )));
    }

    #[test]
    fn failed_fsync_degrades_to_read_only_without_applying() {
        let fs = Arc::new(MemFs::new());
        let durable = boot(Arc::clone(&fs));
        let epoch_before = durable.dataset().epoch();
        fs.inject(Fault::FailSync);
        let err = durable
            .extend_ntriples(
                "<http://ex/lisa> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/human> .\n",
            )
            .unwrap_err();
        assert!(matches!(err, DurableError::ReadOnly { .. }));
        assert!(durable.is_read_only());
        // The failed write never published.
        assert_eq!(durable.dataset().epoch(), epoch_before);
        // Subsequent writes are refused outright…
        assert!(matches!(
            durable.extend_ntriples("<http://ex/a> <http://ex/p> <http://ex/b> .\n"),
            Err(DurableError::ReadOnly { .. })
        ));
        // …and the status says so.
        let status = durable.status();
        assert!(status.read_only);
        assert!(status.last_error.is_some());
        let mut json = String::new();
        durable.status_json_into(&mut json);
        assert!(json.contains("\"read_only\":true"));
    }

    #[test]
    fn durability_status_renders_the_wire_format() {
        let status = DurabilityStatus {
            read_only: true,
            snapshot_path: Some(PathBuf::from("d/snap \"7\".img")),
            snapshot_epoch: 7,
            last_checkpoint_seq: 5,
            last_seq: 9,
            wal_records: 4,
            wal_bytes: 321,
            last_image_bytes: 31_248_669,
            last_checkpoint_us: 52_000,
            last_error: Some("disk\tgone\u{1}".to_string()),
        };
        let mut json = String::new();
        status.json_into(&mut json);
        assert_eq!(
            json,
            "{\"read_only\":true,\"snapshot_path\":\"d/snap \\\"7\\\".img\",\"snapshot_epoch\":7,\
             \"last_checkpoint_seq\":5,\"last_seq\":9,\"wal_records\":4,\"wal_bytes\":321,\
             \"last_image_bytes\":31248669,\"last_checkpoint_us\":52000,\
             \"last_error\":\"disk\\tgone\\u0001\"}"
        );
        json.clear();
        DurabilityStatus::default().json_into(&mut json);
        assert_eq!(
            json,
            "{\"read_only\":false,\"snapshot_path\":null,\"snapshot_epoch\":0,\
             \"last_checkpoint_seq\":0,\"last_seq\":0,\"wal_records\":0,\"wal_bytes\":0,\
             \"last_image_bytes\":0,\"last_checkpoint_us\":0,\"last_error\":null}"
        );
    }

    #[test]
    fn a_refused_write_is_never_logged() {
        let fs = Arc::new(MemFs::new());
        let durable = boot(Arc::clone(&fs));
        durable
            .dataset()
            .install_shapes(
                "shape Human targets class <http://ex/human> { <http://ex/name> count [0..1] ; } .",
            )
            .unwrap();
        durable
            .extend_ntriples("<http://ex/bart> <http://ex/name> \"Bart\" .\n")
            .unwrap();
        let logged = durable.status();
        assert_eq!(logged.wal_records, 1);

        // The gate refuses a second name, the parser a broken document, the
        // encoder a literal subject: none of them reaches the log, none of
        // them degrades the dataset, none of them publishes.
        for refused in [
            "<http://ex/bart> <http://ex/name> \"Bartholomew\" .\n",
            "<broken",
            "\"literal\" <http://ex/name> <http://ex/bart> .\n",
        ] {
            let err = durable.extend_ntriples(refused).unwrap_err();
            assert!(matches!(err, DurableError::Rejected { .. }), "{err}");
        }
        // Retracting the only name is fine for `count [0..1]`; a retraction
        // the gate refuses is covered by tests/crash_recovery.rs.
        assert_eq!(durable.status(), logged);
        assert!(!durable.is_read_only());
        assert_eq!(durable.dataset().epoch(), 1);
        assert_eq!(
            wal::scan(&fs.read(Path::new("data/wal.log")).unwrap())
                .records
                .len(),
            1
        );
    }

    #[test]
    fn a_rule_program_dataset_reopens_only_under_the_same_program() {
        const RULES: &str = "@prefix ex: <http://ex/> .\n\
             rule gp: ?x ex:parent ?y, ?y ex:parent ?z => ?x ex:grandparent ?z .\n";
        let fs = Arc::new(MemFs::new());
        let loaded = load_ntriples("<http://ex/a> <http://ex/parent> <http://ex/b> .\n").unwrap();
        let (original, _) = DurableDataset::create(
            loaded,
            RULES,
            InferrayOptions::default(),
            "data",
            Arc::clone(&fs) as Arc<dyn IoBackend>,
            CheckpointPolicy::manual(),
        )
        .unwrap();
        original
            .extend_ntriples("<http://ex/b> <http://ex/parent> <http://ex/c> .\n")
            .unwrap();

        let reopen = |program: Program| {
            DurableDataset::open(
                "data",
                program,
                InferrayOptions::default(),
                Arc::new(MemFs::from_view(fs.durable_view())),
                CheckpointPolicy::manual(),
            )
        };
        let (recovered, report) = reopen(RULES.into()).unwrap();
        assert_eq!(report.replayed_records, 1);
        let (live, live_dict) = original.dataset().snapshot();
        let (back, back_dict) = recovered.dataset().snapshot();
        assert_eq!(live.epoch(), back.epoch());
        assert_eq!(live.store(), back.store());
        assert_eq!(*live_dict, *back_dict);
        // The replayed write went through the custom rule.
        assert_eq!(back.store().len(), 3);

        for other in [
            Program::from(Fragment::RdfsDefault),
            Program::from("rule r: ?x <http://ex/parent> ?y => ?y <http://ex/child> ?x .\n"),
        ] {
            let err = reopen(other).unwrap_err();
            assert!(
                matches!(err, DurableError::FragmentMismatch { .. }),
                "{err}"
            );
        }
    }

    #[test]
    fn create_refuses_a_rule_program_with_errors() {
        let err = DurableDataset::create(
            load_ntriples(DATA).unwrap(),
            "rule bad: ?x <urn:p> ?y => ?x <urn:q> ?z .",
            InferrayOptions::default(),
            "data",
            Arc::new(MemFs::new()),
            CheckpointPolicy::manual(),
        )
        .unwrap_err();
        assert!(matches!(&err, DurableError::Program(diags) if diags[0].code == "RA003"));
    }

    #[test]
    fn open_refuses_a_fragment_mismatch() {
        let fs = Arc::new(MemFs::new());
        let _ = boot(Arc::clone(&fs));
        let err = DurableDataset::open(
            "data",
            Fragment::RhoDf,
            InferrayOptions::default(),
            fs,
            CheckpointPolicy::manual(),
        )
        .unwrap_err();
        assert!(matches!(err, DurableError::FragmentMismatch { .. }));
    }

    #[test]
    fn open_on_an_empty_directory_reports_no_snapshot() {
        let err = DurableDataset::open(
            "data",
            Fragment::RdfsDefault,
            InferrayOptions::default(),
            Arc::new(MemFs::new()),
            CheckpointPolicy::manual(),
        )
        .unwrap_err();
        assert_eq!(err, DurableError::NoSnapshot);
    }

    #[test]
    fn a_corrupt_newest_snapshot_falls_back_to_the_previous_one() {
        let fs = Arc::new(MemFs::new());
        let durable = boot(Arc::clone(&fs));
        // Write a second image at a later epoch, then corrupt it.
        durable
            .extend_ntriples(
                "<http://ex/lisa> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/human> .\n",
            )
            .unwrap();
        let newest = durable.checkpoint().unwrap();
        fs.corrupt_byte(&newest, 40, 0xFF);

        let rebooted = Arc::new(MemFs::from_view(fs.durable_view()));
        let (recovered, report) = DurableDataset::open(
            "data",
            Fragment::RdfsDefault,
            InferrayOptions::default(),
            rebooted,
            CheckpointPolicy::manual(),
        )
        .unwrap();
        assert_eq!(report.invalid_snapshots, 1);
        // Bit rot in the newest image after its WAL was truncated is the
        // one scenario where recovery legitimately resumes at an *older*
        // state (docs/persistence.md): the older image is intact, the rot
        // is detected, and the server still comes up serving.
        assert_eq!(recovered.dataset().epoch(), report.epoch);
        assert_eq!(report.snapshot_epoch, 0);
    }

    #[test]
    fn record_limit_triggers_automatic_checkpoints() {
        let fs = Arc::new(MemFs::new());
        let loaded = load_ntriples(DATA).unwrap();
        let (durable, _) = DurableDataset::create(
            loaded,
            Fragment::RdfsDefault,
            InferrayOptions::default(),
            "data",
            Arc::clone(&fs) as Arc<dyn IoBackend>,
            CheckpointPolicy {
                wal_record_limit: Some(2),
                wal_byte_limit: None,
                snapshots_to_keep: 2,
            },
        )
        .unwrap();
        durable
            .extend_ntriples("<http://ex/a> <http://ex/p> <http://ex/b> .\n")
            .unwrap();
        assert!(!fs.read(Path::new("data/wal.log")).unwrap().is_empty());
        durable
            .extend_ntriples("<http://ex/c> <http://ex/p> <http://ex/d> .\n")
            .unwrap();
        // Second record crossed the limit: the log is sealed at once, the
        // image follows behind the acknowledgement.
        assert!(fs.read(Path::new("data/wal.log")).unwrap().is_empty());
        assert_eq!(durable.status().wal_records, 0);
        durable.wait_for_checkpoint();
        assert_eq!(durable.status().last_checkpoint_seq, 2);
        assert!(!fs.exists(Path::new("data/wal.sealed")));
    }

    const SEALED: &str = "data/wal.sealed";
    const LIVE: &str = "data/wal.log";

    fn every_two_records() -> CheckpointPolicy {
        CheckpointPolicy {
            wal_record_limit: Some(2),
            wal_byte_limit: None,
            snapshots_to_keep: 2,
        }
    }

    fn boot_with(backend: Arc<MemFs>, policy: CheckpointPolicy) -> DurableDataset {
        let (durable, _) = DurableDataset::create(
            load_ntriples(DATA).unwrap(),
            Fragment::RdfsDefault,
            InferrayOptions::default(),
            "data",
            backend,
            policy,
        )
        .unwrap();
        durable
    }

    fn assert_edge(durable: &DurableDataset, n: u8) {
        durable
            .extend_ntriples(&format!(
                "<http://ex/s{n}> <http://ex/p> <http://ex/o{n}> .\n"
            ))
            .unwrap();
    }

    fn records(fs: &MemFs, path: &str) -> usize {
        wal::scan(&fs.read(Path::new(path)).unwrap()).records.len()
    }

    /// What a power cut right now recovers to, and how.
    fn recover(fs: &MemFs) -> (DurableDataset, RecoveryReport) {
        DurableDataset::open(
            "data",
            Fragment::RdfsDefault,
            InferrayOptions::default(),
            Arc::new(MemFs::from_view(fs.durable_view())),
            CheckpointPolicy::manual(),
        )
        .unwrap()
    }

    fn assert_same_state(live: &DurableDataset, recovered: &DurableDataset) {
        let (live, live_dict) = live.dataset().snapshot();
        let (back, back_dict) = recovered.dataset().snapshot();
        assert_eq!(live.epoch(), back.epoch());
        assert_eq!(live.store(), back.store());
        assert_eq!(*live_dict, *back_dict);
    }

    #[test]
    fn a_crash_while_the_image_is_in_flight_replays_the_sealed_segment() {
        let fs = Arc::new(MemFs::new());
        let durable = boot_with(Arc::clone(&fs), every_two_records());
        fs.hold("img");
        assert_edge(&durable, 1);
        assert_edge(&durable, 2);
        // Sealed, acknowledged, no image yet: the status describes the
        // newest *durable* image and counts the live segment only.
        let status = durable.status();
        assert_eq!((status.wal_records, status.last_seq), (0, 2));
        assert_eq!((status.last_checkpoint_seq, status.snapshot_epoch), (0, 0));
        assert_eq!((records(&fs, SEALED), records(&fs, LIVE)), (2, 0));
        // Writes go on beside the image.
        assert_edge(&durable, 3);
        assert_eq!((records(&fs, SEALED), records(&fs, LIVE)), (2, 1));
        assert_eq!(durable.status().wal_records, 1);

        let (recovered, report) = recover(&fs);
        assert_eq!((report.replayed_records, report.skipped_records), (3, 0));
        assert_eq!(report.snapshot_epoch, 0);
        assert_eq!(recovered.status().wal_records, 1);
        assert_same_state(&durable, &recovered);

        fs.release();
        durable.wait_for_checkpoint();
        let status = durable.status();
        assert_eq!((status.last_checkpoint_seq, status.snapshot_epoch), (2, 2));
        assert_eq!(status.last_error, None);
        assert!(!fs.exists(Path::new(SEALED)));
        let (recovered, report) = recover(&fs);
        assert_eq!((report.replayed_records, report.skipped_records), (1, 0));
        assert_eq!(report.snapshot_epoch, 2);
        assert_same_state(&durable, &recovered);
    }

    #[test]
    fn a_failed_image_leaves_its_segment_to_the_next_checkpoint() {
        let fs = Arc::new(MemFs::new());
        let durable = boot_with(Arc::clone(&fs), every_two_records());
        fs.hold("img");
        assert_edge(&durable, 1);
        assert_edge(&durable, 2);
        fs.inject(Fault::FailAtomicWrite);
        fs.release();
        durable.wait_for_checkpoint();
        let status = durable.status();
        assert!(status.last_error.unwrap().contains("checkpoint failed"));
        assert_eq!((status.last_checkpoint_seq, status.wal_records), (0, 0));
        assert!(!durable.is_read_only());
        assert_eq!((records(&fs, SEALED), records(&fs, LIVE)), (2, 0));
        let (recovered, report) = recover(&fs);
        assert_eq!(report.replayed_records, 2);
        assert_same_state(&durable, &recovered);

        // The next threshold seals behind what is already sealed, and its
        // image covers both.
        fs.hold("img");
        assert_edge(&durable, 3);
        assert_edge(&durable, 4);
        assert_eq!((records(&fs, SEALED), records(&fs, LIVE)), (4, 0));
        fs.release();
        durable.wait_for_checkpoint();
        assert_eq!(durable.status().last_checkpoint_seq, 4);
        assert!(!fs.exists(Path::new(SEALED)));
        let (recovered, report) = recover(&fs);
        assert_eq!((report.replayed_records, report.skipped_records), (0, 0));
        assert_same_state(&durable, &recovered);
    }

    #[test]
    fn a_log_that_cannot_be_sealed_keeps_growing_until_it_can() {
        let fs = Arc::new(MemFs::new());
        let durable = boot_with(Arc::clone(&fs), every_two_records());
        assert_edge(&durable, 1);
        fs.inject(Fault::FailAtomicWrite);
        assert_edge(&durable, 2);
        let status = durable.status();
        assert!(status.last_error.unwrap().contains("sealing"));
        assert_eq!((status.wal_records, status.last_checkpoint_seq), (2, 0));
        assert!(!fs.exists(Path::new(SEALED)));
        assert_same_state(&durable, &recover(&fs).0);

        // The threshold is still crossed: the next write tries again.
        assert_edge(&durable, 3);
        durable.wait_for_checkpoint();
        let status = durable.status();
        assert_eq!((status.wal_records, status.last_checkpoint_seq), (0, 3));
        assert_same_state(&durable, &recover(&fs).0);
    }

    #[test]
    fn a_seal_whose_second_write_fails_leaves_redundant_records_behind() {
        let fs = Arc::new(MemFs::new());
        let durable = boot_with(Arc::clone(&fs), every_two_records());
        assert_edge(&durable, 1);
        // Park the write that empties the live segment, fail it, let it go.
        fs.hold("log");
        std::thread::scope(|scope| {
            let crossing = scope.spawn(|| assert_edge(&durable, 2));
            while !fs.exists(Path::new(SEALED)) {
                std::thread::yield_now();
            }
            fs.inject(Fault::FailAtomicWrite);
            fs.release();
            crossing.join().unwrap();
        });
        durable.wait_for_checkpoint();
        // The image covers both records; the live segment still holds them
        // and still counts, so the next write begins another checkpoint.
        let status = durable.status();
        assert!(status.last_error.unwrap().contains("WAL truncation failed"));
        assert_eq!((status.wal_records, status.last_checkpoint_seq), (2, 2));
        let (recovered, report) = recover(&fs);
        assert_eq!((report.replayed_records, report.skipped_records), (0, 2));
        assert_same_state(&durable, &recovered);

        assert_edge(&durable, 3);
        durable.wait_for_checkpoint();
        let status = durable.status();
        assert_eq!((status.wal_records, status.last_checkpoint_seq), (0, 3));
        assert_same_state(&durable, &recover(&fs).0);
    }

    #[test]
    fn records_in_both_segments_are_replayed_once() {
        // A crash between the two atomic writes of a seal: the sealed
        // segment already holds what the live one still does.
        let fs = Arc::new(MemFs::new());
        let durable = boot(Arc::clone(&fs));
        assert_edge(&durable, 1);
        assert_edge(&durable, 2);
        let log = fs.read(Path::new(LIVE)).unwrap();
        fs.write_atomic(Path::new(SEALED), &log).unwrap();
        let (recovered, report) = recover(&fs);
        assert_eq!((report.replayed_records, report.skipped_records), (2, 2));
        assert_same_state(&durable, &recovered);

        // The sealed segment is only ever replaced whole, so one that does
        // not scan to its end is damage, and recovery says so.
        fs.write_atomic(Path::new(SEALED), &log[..log.len() - 1])
            .unwrap();
        let err = DurableDataset::open(
            "data",
            Fragment::RdfsDefault,
            InferrayOptions::default(),
            Arc::new(MemFs::from_view(fs.durable_view())),
            CheckpointPolicy::manual(),
        )
        .unwrap_err();
        assert!(matches!(err, DurableError::Corrupt { .. }), "{err}");
    }
}
