//! # inferray-persist
//!
//! Durable storage for the Inferray serving layer (docs/persistence.md):
//!
//! - [`snapshot`] — the checksummed snapshot image: the dictionary as it
//!   sits in memory + 32-bit pair words + epoch, length-prefixed with a
//!   CRC-32 per section; a full image is the delta on the empty base, and a
//!   delta image holds only what changed since a full one;
//! - [`wal`] — the write-ahead log of assert/retract batches, fsync'd
//!   before the in-memory publish, tolerant of a torn tail record, kept as
//!   segments that a checkpoint seals and retires;
//! - [`io`] — the [`IoBackend`] seam between the formats and the disk,
//!   with a production `std::fs` backend ([`StdFs`]) and a deterministic
//!   fault-injecting in-memory backend ([`MemFs`]) that models power loss,
//!   torn writes and failed fsyncs for the crash-recovery test suite, and
//!   an [`Overlay`] that keeps every write in memory (a dry run);
//! - [`durable`] — [`DurableDataset`], the crash-safe
//!   [`ServingDataset`](inferray_core::ServingDataset): WAL-then-publish
//!   writes, threshold-triggered checkpoints, recovery by image + replay,
//!   and graceful read-only degradation when the log cannot be appended.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc;
pub mod durable;
pub mod io;
pub mod snapshot;
pub mod wal;

pub use crc::{crc32, Crc32};
pub use durable::{
    CheckpointPolicy, DurabilityStatus, DurableDataset, DurableError, ImageKind, RecoveryReport,
};
pub use io::{DurableView, Fault, Fill, IoBackend, MemFs, Overlay, StdFs, StreamSink};
pub use snapshot::{
    decode_delta_image, decode_image, encode_image, image_needs, open_image, open_recoverable,
    parse_snapshot_file_name, snapshot_file_name, write_base_image, write_delta_image, write_image,
    BaseImage, ImageParts, Recovered, SnapshotError, SnapshotImage, DELTA_FRACTION, IMAGE_BLOCK,
};
pub use wal::{parse_segment_file_name, segment_file_name, WalKind, WalRecord, WalScan};
