//! # inferray-persist
//!
//! Durable storage for the Inferray serving layer (docs/persistence.md):
//!
//! - [`snapshot`] — the checksummed, mmap-able snapshot image: dictionary +
//!   pair tables + epoch, length-prefixed with a CRC-32 per section;
//! - [`wal`] — the write-ahead log of assert/retract batches, fsync'd
//!   before the in-memory publish, tolerant of a torn tail record;
//! - [`io`] — the [`IoBackend`] seam between the formats and the disk,
//!   with a production `std::fs` backend ([`StdFs`]) and a deterministic
//!   fault-injecting in-memory backend ([`MemFs`]) that models power loss,
//!   torn writes and failed fsyncs for the crash-recovery test suite;
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
    CheckpointPolicy, DurabilityStatus, DurableDataset, DurableError, RecoveryReport,
};
pub use io::{DurableView, Fault, Fill, IoBackend, MemFs, StdFs, StreamSink};
pub use snapshot::{
    decode_image, encode_image, open_image, parse_snapshot_file_name, snapshot_file_name,
    write_image, SnapshotError, SnapshotImage, IMAGE_BLOCK,
};
pub use wal::{WalKind, WalRecord, WalScan, WAL_FILE, WAL_SEALED_FILE};
