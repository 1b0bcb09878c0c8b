//! [`DurableDataset`]: a [`ServingDataset`] whose writes survive crashes.
//!
//! A durable write is the dataset's one write pipeline
//! ([`ServingDataset::write_ntriples`]) with this module's WAL append +
//! fsync as its log stage: the candidate is reasoned and shape-gated on
//! private copies, then logged, then published — so an acknowledged write
//! is durable before any reader can observe it, and a refused write never
//! reaches the log. Checkpoints serialize the store into a
//! [snapshot image](crate::snapshot) and retire the log records it covers.
//! Recovery is the composition: newest valid image + replay of the WAL
//! suffix through the same pipeline's step ([`Replay`]: encode, compile,
//! promote, reason — in place on the image's state, before any reader
//! exists, with no gate, log or publish per record), which is what makes
//! the recovered store *byte-identical* (the engine is deterministic for a
//! given input sequence).
//!
//! ## Full and delta images
//!
//! Once a full image is durable the dataset remembers it
//! ([`BaseImage`]: its name, its length, its term counts, its tables by
//! identity). A later checkpoint writes a **delta** on it — the terms
//! appended since and the tables that are no longer the very ones it
//! captured — unless the delta would pass
//! 1/[`DELTA_FRACTION`](crate::snapshot::DELTA_FRACTION) of the full
//! image's bytes or the state is still at the full image's epoch; then it
//! writes a full image, which becomes the base of the next deltas. Deltas
//! always build on the last full image, so recovery reads at most two
//! images; the first checkpoint after [`DurableDataset::open`] is always
//! full. Pruning keeps the base of every delta it keeps.
//!
//! ## A checkpoint has two halves
//!
//! An image of a LUBM-500k store is 31 MB: ~50 ms to stream into its file,
//! several times the cost of the write that happens to cross the
//! threshold. So that write only *begins* the checkpoint, under
//! the state lock it already holds: it **seals** the log — creates the
//! next, empty [segment](crate::wal) for the writes after it — takes the
//! `Arc`s of the state it just published, and hands them to a thread.
//! The thread streams the image into its file through one block and, once
//! it is durable, prunes old images and the segments every image it keeps
//! covers; the next write (or [`DurableDataset::wait_for_checkpoint`], or
//! `Drop`) joins it and moves the status forward. At most one image is in
//! flight; a threshold crossed again before it is durable waits for it.
//! [`DurableDataset::checkpoint`] runs the same two halves back to back.
//!
//! Every intermediate state recovers, because replay reads every segment
//! on top of the newest image that recovers, skipping what it covers: a
//! segment goes only once each kept image covers it, so the image before
//! a rotten newest one still finds its records. An image that fails to be
//! written removes nothing; the next checkpoint covers its records too.
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

use crate::io::{list_numbered, IoBackend, TEMP_SUFFIX};
use crate::snapshot::{self, BaseImage, ImageParts, Recovered, SnapshotImage};
use crate::wal;
use inferray_core::{
    InferenceStats, InferrayOptions, Program, Replay, ServingDataset, Stage, Stages, WriteError,
    WriteKind, WriteOutcome,
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
    /// that is missing or no longer parses, or no decodable snapshot among
    /// existing files).
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

impl DurableError {
    /// [`DurableError::Corrupt`] saying `message`.
    pub(crate) fn corrupt(message: String) -> DurableError {
        DurableError::Corrupt { message }
    }

    /// Maps an I/O error to [`DurableError::Io`] under `context`.
    pub(crate) fn io(context: String) -> impl FnOnce(std::io::Error) -> DurableError {
        move |e| DurableError::Io {
            context,
            message: e.to_string(),
        }
    }
}

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
    /// Records in the newest log segment: appended since the last
    /// checkpoint *began* (it seals the log before it writes its image).
    pub wal_records: u64,
    /// Bytes in the newest log segment.
    pub wal_bytes: u64,
    /// Length of the last image a checkpoint wrote (0 before the first).
    pub last_image_bytes: u64,
    /// Wall time of that checkpoint's image, from the first byte streamed to
    /// the rename being durable, in µs.
    pub last_checkpoint_us: u64,
    /// Whether the newest durable image is a full image or a delta.
    pub last_image_kind: ImageKind,
    /// Epoch of the full image the newest durable image needs: its own for
    /// a full image, its base's for a delta.
    pub image_base_epoch: u64,
    /// The most recent persistence error, if any.
    pub last_error: Option<String>,
}

/// Which of the two image formats a snapshot file holds
/// ([`crate::snapshot`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ImageKind {
    /// The whole state on its own.
    #[default]
    Full,
    /// What changed since a full image, read on top of it.
    Delta,
}

impl ImageKind {
    /// `"full"` or `"delta"`, as `/status` renders it.
    pub fn as_str(self) -> &'static str {
        match self {
            ImageKind::Full => "full",
            ImageKind::Delta => "delta",
        }
    }
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
             \"last_checkpoint_us\":{},\"last_image_kind\":\"{}\",\"image_base_epoch\":{},\
             \"last_error\":",
            self.snapshot_epoch,
            self.last_checkpoint_seq,
            self.last_seq,
            self.wal_records,
            self.wal_bytes,
            self.last_image_bytes,
            self.last_checkpoint_us,
            self.last_image_kind.as_str(),
            self.image_base_epoch
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
    /// When that image is a delta: the full image it was read on top of.
    pub base_path: Option<PathBuf>,
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
    /// Where the time went: reading the image that recovered — each
    /// section's decode inside it, a delta's base's added — then the first
    /// epoch's ⟨o,s⟩ caches, then reading and replaying the log. Newer
    /// images that did not recover are not counted.
    pub stages: Stages,
}

#[derive(Debug, Default)]
struct DurableState {
    /// What `/status` shows, but for `read_only` (the dataset's flag) and
    /// the log counts, which are `live`'s.
    status: DurabilityStatus,
    /// The log segment writes append to.
    live: wal::Live,
    /// The last full image this process made durable: what a checkpoint
    /// writes a delta on.
    full_image: Option<Arc<BaseImage>>,
    /// The checkpoint whose image is still being written.
    in_flight: Option<ImageInFlight>,
}

/// What a checkpoint thread wrote, and the wall time it took.
#[derive(Debug)]
struct WrittenImage {
    bytes: u64,
    time: Duration,
    /// The full image it built on, for a delta; the record of itself, for a
    /// full image.
    base: Arc<BaseImage>,
    kind: ImageKind,
}

/// A begun checkpoint: the log is sealed, the state is captured, and a
/// helper thread is writing the image that will cover the records before
/// the seal.
#[derive(Debug)]
struct ImageInFlight {
    path: PathBuf,
    epoch: u64,
    seq: u64,
    writer: JoinHandle<std::io::Result<WrittenImage>>,
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
    ) -> Result<(Self, (InferenceStats, Stages)), DurableError> {
        let dir = dir.into();
        backend
            .create_dir_all(&dir)
            .map_err(DurableError::io(format!(
                "creating data directory {}",
                dir.display()
            )))?;
        let (dataset, run) = ServingDataset::materialize_program(loaded, program, options)
            .map_err(DurableError::Program)?;
        let durable =
            DurableDataset::assemble(dataset, backend, dir, policy, DurableState::default());
        durable.checkpoint()?;
        Ok((durable, run))
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
            read_only: AtomicBool::new(state.status.last_error.is_some()),
            state: Mutex::new(state),
            status_mirror: Mutex::new(DurabilityStatus::default()),
        };
        durable.refresh_status_mirror(&durable.lock_state());
        durable
    }

    /// Recovers from a data directory: newest valid snapshot image + WAL
    /// replay, tolerating invalid newer images and a torn log tail.
    /// `program` must be the one the directory was created under. The temp
    /// files a process killed during an atomic write left behind are
    /// removed first.
    pub fn open(
        dir: impl Into<PathBuf>,
        program: impl Into<Program>,
        options: InferrayOptions,
        backend: Arc<dyn IoBackend>,
        policy: CheckpointPolicy,
    ) -> Result<(Self, RecoveryReport), DurableError> {
        let dir = dir.into();
        let program = program.into();
        DurableDataset::remove_temp_files(backend.as_ref(), &dir)?;
        let (recovered, snapshot_path, invalid_snapshots) =
            DurableDataset::newest_valid_image(backend.as_ref(), &dir)?;
        let Recovered {
            image,
            base: base_path,
            mut stages,
        } = recovered;
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
        let mut clock = Instant::now();
        let mut replay = Replay::new(dictionary, base, materialized, epoch, program, options);
        stages.lap(Stage::OsCaches, &mut clock);

        // Replay the WAL suffix through the live write's step, in place on
        // the image's own state: no reader exists before the publish.
        // Every record passed the shape gate of the process that logged
        // it, so replay runs ungated; the embedder re-installs its shapes
        // on the recovered dataset, which validates the recovered snapshot.
        let log = wal::recover(backend.as_ref(), &dir, snapshot_seq)?;
        for record in &log.records {
            replay.ntriples(record.kind, &record.body).map_err(|e| {
                let seq = record.seq;
                DurableError::corrupt(format!("WAL record {seq} does not replay: {e}"))
            })?;
        }
        let inner = replay.publish();
        stages.lap(Stage::Replay, &mut clock);

        let snapshot = inner.store_snapshot();
        let image_base_epoch = base_path
            .as_deref()
            .and_then(|path| snapshot::parse_snapshot_file_name(path.file_name()?.to_str()?))
            .unwrap_or(epoch);
        let report = RecoveryReport {
            snapshot_path: snapshot_path.clone(),
            snapshot_epoch: epoch,
            base_path: base_path.clone(),
            invalid_snapshots,
            replayed_records: log.records.len(),
            skipped_records: log.skipped,
            torn_tail_bytes: log.torn_bytes,
            epoch: snapshot.epoch(),
            triples: snapshot.store().len(),
            stages,
        };
        let status = DurabilityStatus {
            snapshot_path: Some(snapshot_path),
            snapshot_epoch: epoch,
            last_checkpoint_seq: snapshot_seq,
            last_seq: log.records.last().map_or(snapshot_seq, |record| record.seq),
            last_image_kind: match base_path {
                Some(_) => ImageKind::Delta,
                None => ImageKind::Full,
            },
            image_base_epoch,
            // Set only when the log cannot take appends: the dataset is
            // read-only.
            last_error: log.unwritable,
            ..DurabilityStatus::default()
        };
        // Nothing of this process's state is in an image yet: its first
        // checkpoint is a full one. It must be: a delta carries the tables
        // that are no longer the very allocations its full image captured,
        // and replay changed tables in place, in the allocations the image
        // was decoded into — a delta on that image would miss them.
        let state = DurableState {
            status,
            live: log.live,
            ..DurableState::default()
        };
        let durable = DurableDataset::assemble(inner, backend, dir, policy, state);
        Ok((durable, report))
    }

    /// Removes the temp files of this crate's own naming — an image's or a
    /// log segment's name plus [`TEMP_SUFFIX`] — that an atomic write killed
    /// before its rename left behind: nothing else ever removes them.
    fn remove_temp_files(backend: &dyn IoBackend, dir: &Path) -> Result<(), DurableError> {
        let files = backend
            .list(dir)
            .map_err(DurableError::io(format!("listing {}", dir.display())))?;
        for path in files {
            let name = path.file_name().and_then(|name| name.to_str());
            let target = name
                .and_then(|name| name.strip_suffix(TEMP_SUFFIX))
                .unwrap_or("");
            // Best-effort, like pruning: a file left behind costs space,
            // not recovery (a read-only copy of a directory still opens).
            if wal::parse_segment_file_name(target).is_some()
                || snapshot::parse_snapshot_file_name(target).is_some()
            {
                let _ = backend.remove(&path);
            }
        }
        Ok(())
    }

    /// The newest image that recovers — on its own, or as a delta on the
    /// full image it names — with its path and how many newer images did
    /// not recover. When none does, the refusal names the newest image and
    /// why it failed.
    fn newest_valid_image(
        backend: &dyn IoBackend,
        dir: &Path,
    ) -> Result<(Recovered, PathBuf, usize), DurableError> {
        let candidates = list_numbered(backend, dir, snapshot::parse_snapshot_file_name)
            .map_err(DurableError::io(format!("listing {}", dir.display())))?;
        let mut invalid = 0usize;
        let mut newest_failure = None;
        for (_, path) in candidates {
            match snapshot::open_recoverable(backend, &path) {
                Ok(recovered) => return Ok((recovered, path, invalid)),
                Err(error) => {
                    invalid += 1;
                    newest_failure.get_or_insert((path, error));
                }
            }
        }
        let (path, error) = newest_failure.ok_or(DurableError::NoSnapshot)?;
        let path = path.display();
        Err(DurableError::corrupt(format!(
            "all {invalid} snapshot images failed validation; the newest, {path}: {error}"
        )))
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
            wal_records: state.live.records,
            wal_bytes: state.live.bytes,
            ..state.status.clone()
        };
        *unpoison(self.status_mirror.lock()) = status;
    }

    /// A durable write: the dataset's write pipeline
    /// ([`ServingDataset::write_ntriples`]) with WAL append + fsync as its
    /// log stage, under the state lock so that WAL order equals apply
    /// order. [`WriteError::Log`] means the dataset is (now) read-only.
    /// The checkpoint threshold is checked here, after the publish; the
    /// write that crosses it reports beginning the checkpoint as its
    /// [`Stage::Checkpoint`].
    pub fn write_ntriples(&self, kind: WriteKind, body: &str) -> Result<WriteOutcome, WriteError> {
        let mut state = self.lock_state();
        if self.is_read_only() {
            let reason = state.status.last_error.clone();
            return Err(WriteError::Log(
                reason.unwrap_or_else(|| "degraded to read-only".to_string()),
            ));
        }
        let mut outcome = self
            .inner
            .write_ntriples(kind, body, || self.append(&mut state, kind, body))?;
        self.settle_checkpoint(&mut state, false);
        let start = Instant::now();
        if self.maybe_checkpoint(&mut state) {
            outcome.stages.add(Stage::Checkpoint, start.elapsed());
        }
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

    /// Seals the log and writes a snapshot image of the current state;
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

    /// The pipeline's log stage: appends one record and fsyncs it. On
    /// failure nothing will be published and the dataset flips read-only.
    fn append(&self, state: &mut DurableState, kind: WriteKind, body: &str) -> Result<(), String> {
        let seq = state.status.last_seq + 1;
        let record = wal::encode_record(seq, kind, body);
        if let Err(e) = self.backend.append_durable(&state.live.path, &record) {
            let reason = format!("WAL append failed: {e}");
            state.status.last_error = Some(reason.clone());
            self.read_only.store(true, Ordering::Release);
            self.refresh_status_mirror(state);
            return Err(reason);
        }
        state.status.last_seq = seq;
        state.live.records += 1;
        state.live.bytes += record.len() as u64;
        Ok(())
    }

    /// The threshold checkpoint: begun by the write that crossed the
    /// threshold, finished behind its acknowledgement. Whether the
    /// threshold was crossed.
    fn maybe_checkpoint(&self, state: &mut DurableState) -> bool {
        if !self.policy.triggered(state.live.records, state.live.bytes) {
            return false;
        }
        // A failed checkpoint is not fatal: the WAL alone still carries
        // every acknowledged write. Record the error and keep serving.
        match self.begin_checkpoint(state) {
            Ok(image) => state.in_flight = Some(image),
            Err(e) => state.status.last_error = Some(format!("checkpoint failed: {e}")),
        }
        true
    }

    /// First half of a checkpoint, under the state lock: seal the log,
    /// capture the state it leads to, and start a thread that writes the
    /// image. Cheap — one atomic write of no bytes and a copy of the base —
    /// so the write that crossed the threshold pays for no image.
    ///
    /// Sealing creates the segment the writes after this one go to
    /// ([`wal::seal`]): `wal_records` counts from zero again at once. It
    /// reads and rewrites no record; if it fails nothing has changed, no
    /// image is begun, and the threshold stays crossed.
    fn begin_checkpoint(&self, state: &mut DurableState) -> Result<ImageInFlight, DurableError> {
        // One image at a time: a threshold reached again before the last
        // image is durable waits for it.
        self.settle_checkpoint(state, true);
        // A read-only dataset's segment may end in a failed append; it
        // stays the newest, where recovery cuts a torn tail.
        let seq = state.status.last_seq;
        if !self.is_read_only() {
            state.live = wal::seal(self.backend.as_ref(), &self.dir, seq)
                .map_err(DurableError::io(format!("sealing the log at record {seq}")))?;
        }

        let (dictionary, base, snapshot) = self.inner.persistable_state();
        let epoch = snapshot.epoch();
        let path = self.dir.join(snapshot::snapshot_file_name(epoch));
        let job = ImageJob {
            backend: Arc::clone(&self.backend),
            dir: self.dir.clone(),
            path: path.clone(),
            keep: self.policy.snapshots_to_keep,
            program_name: self.program_name.clone(),
            seq,
            full_image: state.full_image.clone(),
        };
        let capture = Capture {
            dictionary,
            base,
            snapshot,
        };
        let writer = std::thread::Builder::new()
            .name("inferray-checkpoint".to_string())
            .spawn(move || job.run(capture))
            .map_err(DurableError::io(
                "starting the checkpoint thread".to_string(),
            ))?;
        Ok(ImageInFlight {
            path,
            epoch,
            seq,
            writer,
        })
    }

    /// Second half of a checkpoint: waits for the image and, once it is
    /// durable, makes it the dataset's newest one. A failed image leaves
    /// the log as it is for the next checkpoint to cover.
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
            Ok(written) => {
                let status = &mut state.status;
                status.last_image_bytes = written.bytes;
                status.last_checkpoint_us = written.time.as_micros() as u64;
                status.last_image_kind = written.kind;
                status.image_base_epoch = written.base.epoch();
                status.snapshot_epoch = image.epoch;
                status.last_checkpoint_seq = image.seq;
                status.snapshot_path = Some(image.path.clone());
                if written.kind == ImageKind::Full {
                    state.full_image = Some(written.base);
                }
                Ok(image.path)
            }
            Err(e) => {
                let error = DurableError::Io {
                    context: format!("writing snapshot {}", image.path.display()),
                    message: e.to_string(),
                };
                state.status.last_error = Some(format!("checkpoint failed: {error}"));
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
    /// The full image a delta would build on.
    full_image: Option<Arc<BaseImage>>,
}

/// The state a checkpoint writes an image of.
struct Capture {
    dictionary: Arc<Dictionary>,
    base: TripleStore,
    snapshot: StoreSnapshot,
}

impl ImageJob {
    /// Streams the image into its file through one block — a delta on the
    /// last full image when [`BaseImage::takes_delta`], a full image
    /// otherwise — and lets the captured state go as soon as its last
    /// section is streamed, before the file is synced and renamed: the
    /// tables it holds can go back to the writes' buffer pool. Once the
    /// image is durable, retires what it supersedes — the oldest images,
    /// then the log segments every image it keeps covers. Both removals are
    /// best-effort: a segment left behind is skipped by sequence number at
    /// the next start, and the next checkpoint removes it.
    fn run(self, capture: Capture) -> std::io::Result<WrittenImage> {
        let start = Instant::now();
        let mut capture = Some(capture);
        let mut streamed = None;
        self.backend
            .write_atomic_streamed(&self.path, &mut |sink| {
                let Capture {
                    dictionary,
                    base,
                    snapshot,
                } = capture
                    .take()
                    .ok_or_else(|| std::io::Error::other("the image was streamed twice"))?;
                let parts = ImageParts {
                    dictionary: &dictionary,
                    base: &base,
                    materialized: snapshot.store(),
                    epoch: snapshot.epoch(),
                    last_seq: self.seq,
                    fragment: &self.program_name,
                };
                streamed = Some(match &self.full_image {
                    Some(full) if full.takes_delta(&parts) => {
                        let bytes = snapshot::write_delta_image(sink, parts, full)?;
                        (bytes, Arc::clone(full), ImageKind::Delta)
                    }
                    _ => {
                        let record = snapshot::write_base_image(sink, parts)?;
                        (record.bytes(), Arc::new(record), ImageKind::Full)
                    }
                });
                Ok(())
            })?;
        let (bytes, base, kind) =
            streamed.ok_or_else(|| std::io::Error::other("the image was not streamed"))?;
        let time = start.elapsed();
        let written = WrittenImage {
            bytes,
            time,
            base,
            kind,
        };
        let covered = self.prune_snapshots(&written);
        wal::prune(self.backend.as_ref(), &self.dir, covered);
        Ok(written)
    }

    /// Removes the images older than the newest
    /// [`CheckpointPolicy::snapshots_to_keep`] recoverable ones — a full
    /// image, or a delta whose base is there — except the base of a delta
    /// it keeps, and never the image just written or its base
    /// (best-effort). Newer images that do not recover are kept, uncounted.
    /// Returns the last log record each counted image, and the image just
    /// written, covers: a base kept only for its deltas does not count, or
    /// the log would be kept back to it — on `serve.update` a base is never
    /// rewritten.
    fn prune_snapshots(&self, written: &WrittenImage) -> u64 {
        let Ok(images) = list_numbered(
            self.backend.as_ref(),
            &self.dir,
            snapshot::parse_snapshot_file_name,
        ) else {
            return 0;
        };
        // The image just written is kept, counted or not.
        let mut covered = self.seq;
        let mut kept = vec![self.path.clone()];
        if written.kind == ImageKind::Delta {
            kept.push(
                self.dir
                    .join(snapshot::snapshot_file_name(written.base.epoch())),
            );
        }
        let mut recoverable = 0;
        for (_, path) in images {
            if recoverable < self.keep.max(1) {
                match snapshot::image_needs(self.backend.as_ref(), &path) {
                    Ok((seq, base)) if base.as_ref().is_none_or(|b| self.backend.exists(b)) => {
                        recoverable += 1;
                        covered = covered.min(seq);
                        kept.extend(base);
                    }
                    _ => {}
                }
                kept.push(path);
            } else if !kept.contains(&path) {
                let _ = self.backend.remove(&path);
            }
        }
        covered
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

    /// The path of the log segment whose records start at `first`.
    fn segment(first: u64) -> PathBuf {
        Path::new("data").join(wal::segment_file_name(first))
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
    fn a_checkpoint_seals_the_log_and_replay_skips_what_its_image_covers() {
        let fs = Arc::new(MemFs::new());
        let durable = boot(Arc::clone(&fs));
        durable
            .extend_ntriples(
                "<http://ex/lisa> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/human> .\n",
            )
            .unwrap();
        durable.checkpoint().unwrap();
        // Writes go on in a new, empty segment; the one before stays for the
        // image before, which does not cover its record.
        assert_eq!(fs.read(&segment(2)).unwrap(), b"");
        assert_eq!(wal::scan(&fs.read(&segment(1)).unwrap()).records.len(), 1);

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
        assert_eq!(report.skipped_records, 1);
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
        assert_eq!(
            (created.last_image_kind, created.image_base_epoch),
            (ImageKind::Full, 0)
        );
        assert_edge(&durable, 1);
        let path = durable.checkpoint().unwrap();
        let status = durable.status();
        assert_eq!(status.last_image_bytes, fs.raw(&path).unwrap().len() as u64);
        // One table and three terms since the full image: a delta on it.
        assert_eq!(
            (status.last_image_kind, status.image_base_epoch),
            (ImageKind::Delta, 0)
        );
        assert!(status.last_image_bytes < created.last_image_bytes);
        assert!(status.last_checkpoint_us > 0);
        let mut json = String::new();
        durable.status_json_into(&mut json);
        assert!(json.contains(&format!(
            "\"last_image_bytes\":{},",
            status.last_image_bytes
        )));
        assert!(json.contains("\"last_image_kind\":\"delta\",\"image_base_epoch\":0,"));
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
            last_image_kind: ImageKind::Delta,
            image_base_epoch: 3,
            last_error: Some("disk\tgone\u{1}".to_string()),
        };
        let mut json = String::new();
        status.json_into(&mut json);
        assert_eq!(
            json,
            "{\"read_only\":true,\"snapshot_path\":\"d/snap \\\"7\\\".img\",\"snapshot_epoch\":7,\
             \"last_checkpoint_seq\":5,\"last_seq\":9,\"wal_records\":4,\"wal_bytes\":321,\
             \"last_image_bytes\":31248669,\"last_checkpoint_us\":52000,\
             \"last_image_kind\":\"delta\",\"image_base_epoch\":3,\
             \"last_error\":\"disk\\tgone\\u0001\"}"
        );
        json.clear();
        DurabilityStatus::default().json_into(&mut json);
        assert_eq!(
            json,
            "{\"read_only\":false,\"snapshot_path\":null,\"snapshot_epoch\":0,\
             \"last_checkpoint_seq\":0,\"last_seq\":0,\"wal_records\":0,\"wal_bytes\":0,\
             \"last_image_bytes\":0,\"last_checkpoint_us\":0,\"last_image_kind\":\"full\",\
             \"image_base_epoch\":0,\"last_error\":null}"
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
        assert_eq!(wal::scan(&fs.read(&segment(1)).unwrap()).records.len(), 1);
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
        // The rot is detected, and the older image still finds the record
        // the newer one covered in the log: recovery lands on the last
        // acknowledged write (docs/persistence.md).
        assert_eq!(report.snapshot_epoch, 0);
        assert_eq!((report.replayed_records, report.epoch), (1, 1));
        assert_eq!(recovered.dataset().epoch(), durable.dataset().epoch());
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
        assert_eq!(records(&fs, 1), 1);
        durable
            .extend_ntriples("<http://ex/c> <http://ex/p> <http://ex/d> .\n")
            .unwrap();
        // Second record crossed the limit: the log is sealed at once, the
        // image follows behind the acknowledgement.
        assert_eq!(fs.read(&segment(3)).unwrap(), b"");
        assert_eq!(durable.status().wal_records, 0);
        durable.wait_for_checkpoint();
        assert_eq!(durable.status().last_checkpoint_seq, 2);
        assert_eq!(records(&fs, 1), 2);
    }

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

    /// Records in the segment whose records start at `first`, if it is there.
    fn records(fs: &MemFs, first: u64) -> usize {
        fs.raw(&segment(first))
            .map_or(0, |bytes| wal::scan(&bytes).records.len())
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

    /// Replay changes tables in place, so they keep the allocations the
    /// image was decoded into: a delta that finds changed tables by
    /// identity would miss every one of them if it were written on that
    /// image. The first checkpoint after a replay is full, and the deltas on
    /// it recover.
    #[test]
    fn the_first_checkpoint_after_a_replay_is_full_and_the_delta_on_it_recovers() {
        let fs = Arc::new(MemFs::new());
        let original = boot(Arc::clone(&fs));
        // `rdf:type` is in the image; the replayed record changes it.
        original
            .extend_ntriples(
                "<http://ex/lisa> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/human> .\n",
            )
            .unwrap();
        let disk = Arc::new(MemFs::from_view(fs.durable_view()));
        let (reopened, report) = DurableDataset::open(
            "data",
            Fragment::RdfsDefault,
            InferrayOptions::default(),
            Arc::clone(&disk) as Arc<dyn IoBackend>,
            CheckpointPolicy::manual(),
        )
        .unwrap();
        assert_eq!(report.replayed_records, 1);
        assert_same_state(&original, &reopened);

        reopened.checkpoint().unwrap();
        assert_eq!(reopened.status().last_image_kind, ImageKind::Full);
        reopened
            .extend_ntriples(
                "<http://ex/maggie> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/human> .\n",
            )
            .unwrap();
        reopened.checkpoint().unwrap();
        let status = reopened.status();
        assert_eq!(
            (status.last_image_kind, status.image_base_epoch),
            (ImageKind::Delta, 1)
        );
        let (back, report) = recover(&disk);
        assert_eq!(report.replayed_records, 0);
        assert!(report.base_path.is_some());
        assert_same_state(&reopened, &back);
        let (_, live_base, _) = reopened.dataset().persistable_state();
        let (_, back_base, _) = back.dataset().persistable_state();
        assert_eq!(live_base, back_base);
    }

    #[test]
    fn a_crash_while_the_image_is_in_flight_replays_the_log_before_the_seal() {
        let fs = Arc::new(MemFs::new());
        let durable = boot_with(Arc::clone(&fs), every_two_records());
        fs.hold("img");
        assert_edge(&durable, 1);
        assert_edge(&durable, 2);
        // Sealed, acknowledged, no image yet: the status describes the
        // newest *durable* image and counts the newest segment only.
        let status = durable.status();
        assert_eq!((status.wal_records, status.last_seq), (0, 2));
        assert_eq!((status.last_checkpoint_seq, status.snapshot_epoch), (0, 0));
        assert_eq!((records(&fs, 1), records(&fs, 3)), (2, 0));
        // Writes go on beside the image.
        assert_edge(&durable, 3);
        assert_eq!((records(&fs, 1), records(&fs, 3)), (2, 1));
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
        // The image before is kept, and it does not cover the first segment.
        assert_eq!(records(&fs, 1), 2);
        let (recovered, report) = recover(&fs);
        assert_eq!((report.replayed_records, report.skipped_records), (1, 2));
        assert_eq!(report.snapshot_epoch, 2);
        assert_same_state(&durable, &recovered);
    }

    #[test]
    fn a_failed_image_leaves_the_log_to_the_next_checkpoint() {
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
        assert_eq!((records(&fs, 1), records(&fs, 3)), (2, 0));
        let (recovered, report) = recover(&fs);
        assert_eq!(report.replayed_records, 2);
        assert_same_state(&durable, &recovered);

        // The next threshold seals again, and its image covers both
        // segments; they stay while the image from `create` is kept.
        assert_edge(&durable, 3);
        assert_edge(&durable, 4);
        durable.wait_for_checkpoint();
        assert_eq!(durable.status().last_checkpoint_seq, 4);
        assert_eq!(
            (records(&fs, 1), records(&fs, 3), records(&fs, 5)),
            (2, 2, 0)
        );
        let (recovered, report) = recover(&fs);
        assert_eq!((report.replayed_records, report.skipped_records), (0, 4));
        assert_same_state(&durable, &recovered);

        // The next two kept images cover the first two segments. The base
        // of the older one is kept for it, but does not count: the log is
        // not kept back to it.
        let status = durable.status();
        assert_eq!(
            (status.last_image_kind, status.image_base_epoch),
            (ImageKind::Delta, 0)
        );
        assert_edge(&durable, 5);
        assert_edge(&durable, 6);
        durable.wait_for_checkpoint();
        assert!(fs.exists(&Path::new("data").join(snapshot::snapshot_file_name(0))));
        assert!(!fs.exists(&segment(1)) && !fs.exists(&segment(3)));
        assert_eq!((records(&fs, 5), records(&fs, 7)), (2, 0));
        let (recovered, report) = recover(&fs);
        assert_eq!((report.replayed_records, report.skipped_records), (0, 2));
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
        assert!(!fs.exists(&segment(3)));
        assert_same_state(&durable, &recover(&fs).0);

        // The threshold is still crossed: the next write tries again.
        assert_edge(&durable, 3);
        durable.wait_for_checkpoint();
        let status = durable.status();
        assert_eq!((status.wal_records, status.last_checkpoint_seq), (0, 3));
        assert_eq!((records(&fs, 1), records(&fs, 4)), (3, 0));
        assert_same_state(&durable, &recover(&fs).0);
    }

    #[test]
    fn only_the_newest_segment_may_end_torn() {
        let fs = Arc::new(MemFs::new());
        let durable = boot(Arc::clone(&fs));
        assert_edge(&durable, 1);
        assert_edge(&durable, 2);
        durable.checkpoint().unwrap();
        assert_edge(&durable, 3);
        let open = |view| {
            let policy = CheckpointPolicy::manual();
            let fs = Arc::new(MemFs::from_view(view));
            DurableDataset::open(
                "data",
                Fragment::RdfsDefault,
                InferrayOptions::default(),
                fs,
                policy,
            )
        };
        // The newest segment's torn tail is an append cut short: cut away.
        let mut view = fs.durable_view();
        let record = view.get_mut(&segment(3)).unwrap();
        record.pop();
        let torn = record.len();
        let (recovered, report) = open(view).unwrap();
        assert_eq!((report.replayed_records, report.torn_tail_bytes), (0, torn));
        assert_eq!(recovered.status().wal_records, 0);
        // An older segment is never appended to again: damage.
        let mut view = fs.durable_view();
        view.get_mut(&segment(1)).unwrap().pop();
        let err = open(view).unwrap_err();
        assert!(matches!(err, DurableError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn open_removes_the_temp_files_a_killed_atomic_write_left_behind() {
        let fs = Arc::new(MemFs::new());
        drop(boot(Arc::clone(&fs)));
        let ours = [
            "data/snapshot-00000000000000000039.img.tmp",
            "data/wal-00000000000000000039.log.tmp",
            "data/wal-00000000000000000001.log.tmp",
        ];
        // The two files of the log before segments are no name of this
        // crate's any more.
        let others = [
            "data/notes.tmp",
            "data/snapshot-39.img.tmp",
            "data/wal-39.log.tmp",
            "data/wal.log.tmp",
            "data/wal.sealed.tmp",
        ];
        for path in ours.iter().chain(&others) {
            fs.write_atomic(Path::new(path), b"left behind").unwrap();
        }
        let (_, report) = recover(&fs);
        assert_eq!(report.snapshot_epoch, 0);
        let (reopened, _) = DurableDataset::open(
            "data",
            Fragment::RdfsDefault,
            InferrayOptions::default(),
            Arc::clone(&fs) as Arc<dyn IoBackend>,
            CheckpointPolicy::manual(),
        )
        .unwrap();
        drop(reopened);
        for path in ours {
            assert!(!fs.exists(Path::new(path)), "{path}");
        }
        for path in others {
            assert!(fs.exists(Path::new(path)), "{path}");
        }
    }

    #[test]
    fn open_removes_a_killed_checkpoint_s_temp_image_from_a_real_directory() {
        let dir = std::env::temp_dir().join(format!(
            "inferray-persist-temp-files-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || {
            DurableDataset::open(
                &dir,
                Fragment::RdfsDefault,
                InferrayOptions::default(),
                Arc::new(crate::StdFs),
                CheckpointPolicy::manual(),
            )
        };
        let (durable, _) = DurableDataset::create(
            load_ntriples(DATA).unwrap(),
            Fragment::RdfsDefault,
            InferrayOptions::default(),
            &dir,
            Arc::new(crate::StdFs),
            CheckpointPolicy::manual(),
        )
        .unwrap();
        drop(durable);
        let stale = dir.join("snapshot-00000000000000000039.img.tmp");
        std::fs::write(&stale, vec![0u8; 4096]).unwrap();
        let torn = dir.join("wal-00000000000000000002.log.tmp");
        std::fs::write(&torn, b"torn").unwrap();
        let (_, report) = open().unwrap();
        assert_eq!(report.snapshot_epoch, 0);
        assert!(!stale.exists());
        assert!(!torn.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A [`MemFs`] that, once armed, parks an image's atomic write after
    /// its bytes are streamed and before they are renamed into place.
    #[derive(Debug, Default)]
    struct ParkBeforeRename {
        fs: MemFs,
        /// (armed, parked)
        park: Mutex<(bool, bool)>,
        moved: std::sync::Condvar,
    }

    impl ParkBeforeRename {
        fn wait_until(&self, until: impl Fn(&(bool, bool)) -> bool) {
            let mut park = unpoison(self.park.lock());
            while !until(&park) {
                park = unpoison(self.moved.wait(park));
            }
        }

        fn set(&self, to: (bool, bool)) {
            *unpoison(self.park.lock()) = to;
            self.moved.notify_all();
        }
    }

    impl IoBackend for ParkBeforeRename {
        fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
            self.fs.create_dir_all(dir)
        }

        fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
            self.fs.read(path)
        }

        fn append_durable(&self, path: &Path, data: &[u8]) -> std::io::Result<()> {
            self.fs.append_durable(path, data)
        }

        fn write_atomic_streamed(
            &self,
            path: &Path,
            fill: &mut crate::Fill<'_>,
        ) -> std::io::Result<()> {
            let image = path.extension().is_some_and(|e| e == "img");
            self.fs.write_atomic_streamed(path, &mut |sink| {
                fill(sink)?;
                if image && unpoison(self.park.lock()).0 {
                    self.set((true, true));
                    self.wait_until(|&(armed, _)| !armed);
                }
                Ok(())
            })
        }

        fn open_at(
            &self,
            path: &Path,
            offset: u64,
        ) -> std::io::Result<Box<dyn std::io::Read + Send + '_>> {
            self.fs.open_at(path, offset)
        }

        fn remove(&self, path: &Path) -> std::io::Result<()> {
            self.fs.remove(path)
        }

        fn list(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
            self.fs.list(dir)
        }

        fn exists(&self, path: &Path) -> bool {
            self.fs.exists(path)
        }
    }

    #[test]
    fn a_checkpoint_lets_its_capture_go_before_its_image_is_durable() {
        let fs = Arc::new(ParkBeforeRename::default());
        let (durable, _) = DurableDataset::create(
            load_ntriples(DATA).unwrap(),
            Fragment::RdfsDefault,
            InferrayOptions::default(),
            "data",
            Arc::clone(&fs) as Arc<dyn IoBackend>,
            CheckpointPolicy::manual(),
        )
        .unwrap();
        assert_edge(&durable, 1);
        let (dictionary, table) = {
            let (dictionary, base, _) = durable.dataset().persistable_state();
            let table = base.slot_tables().iter().flatten().next().cloned().unwrap();
            (dictionary, table)
        };
        let held = (Arc::strong_count(&dictionary), Arc::strong_count(&table));
        fs.set((true, false));
        let (on_disk, parked, path) = std::thread::scope(|scope| {
            let checkpoint = scope.spawn(|| durable.checkpoint().unwrap());
            fs.wait_until(|&(_, parked)| parked);
            let image = snapshot::snapshot_file_name(durable.dataset().epoch());
            let on_disk = fs.exists(&durable.dir.join(image));
            let parked = (Arc::strong_count(&dictionary), Arc::strong_count(&table));
            fs.set((false, true));
            (on_disk, parked, checkpoint.join().unwrap())
        });
        // Streamed, not renamed: the image was not there yet, and the state
        // it captured was no longer held by it.
        assert!(!on_disk);
        assert_eq!(parked, held);
        assert!(fs.exists(&path));
    }
}
