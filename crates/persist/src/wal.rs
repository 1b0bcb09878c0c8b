//! The write-ahead log: length-prefixed, CRC-checked records of
//! assert/retract batches, fsync'd before the in-memory publish.
//!
//! ## Record layout (all integers little-endian)
//!
//! ```text
//! ┌──────────┬──────────┬──────────────────────────────────────────┐
//! │ len: u32 │ crc: u32 │ payload (len bytes)                      │
//! └──────────┴──────────┴──────────────────────────────────────────┘
//! payload = seq: u64 | kind: u8 (1 = assert, 2 = retract) | body…
//! ```
//!
//! `body` is the batch itself as canonical N-Triples text — the exact bytes
//! the server accepted — so replay goes through the same
//! parse → encode → materialize/retract path as the original write and
//! lands on a byte-identical store. `seq` is a monotonically increasing
//! record number that spans checkpoints; the snapshot image remembers the
//! last sequence it covers, which makes replay idempotent (records at or
//! below it are skipped).
//!
//! [`scan`] tolerates a *torn tail*: a crash mid-append leaves a prefix of
//! the final record, which fails the length or CRC check and simply ends
//! the scan. Anything before the tear is trusted (each record carries its
//! own CRC); anything after it is discarded.
//!
//! ## Segments
//!
//! A data directory's log is a run of segment files named by the first
//! record each may hold ([`segment_file_name`]); a segment's records end
//! below the next segment's first. Appends go to the newest segment
//! (`Live`). A checkpoint *seals* the log by creating the next, empty
//! segment (`seal`) — one atomic write of no bytes, reading and rewriting
//! none — and, once its image is durable, removes the segments whose
//! records every kept image covers (`prune`). No segment but the newest is
//! ever written again, so only the newest may end in a torn append;
//! recovery (`recover`) refuses an older one that does not scan to its
//! end, and a record missing between the image and the newest segment.
//!
//! This module is the one place that knows the log's files.

use crate::crc::crc32;
use crate::durable::DurableError;
use crate::io::{list_numbered, numbered_file_name, parse_numbered_file_name, IoBackend};
use std::io;
use std::path::{Path, PathBuf};

/// File name of the log segment whose records start at `first_seq`.
pub fn segment_file_name(first_seq: u64) -> String {
    numbered_file_name("wal", first_seq, "log")
}

/// Parses a first sequence number back out of a [`segment_file_name`].
pub fn parse_segment_file_name(name: &str) -> Option<u64> {
    parse_numbered_file_name(name, "wal", "log")
}

/// Upper bound on a single record's payload — a defence against reading a
/// garbage length field and allocating gigabytes. One update batch is one
/// HTTP body, and the server bounds those far below this.
pub const MAX_RECORD_LEN: u32 = 1 << 30;

/// Fixed bytes in front of every payload: length + CRC.
const RECORD_HEADER: usize = 8;
/// Minimum payload: sequence number + kind byte.
const MIN_PAYLOAD: usize = 9;

/// What a WAL record does: the write pipeline's own kind
/// ([`inferray_core::WriteKind`]), so a replayed record re-enters the
/// pipeline without translation.
pub use inferray_core::WriteKind as WalKind;

fn kind_to_byte(kind: WalKind) -> u8 {
    match kind {
        WalKind::Assert => 1,
        WalKind::Retract => 2,
    }
}

fn kind_from_byte(byte: u8) -> Option<WalKind> {
    match byte {
        1 => Some(WalKind::Assert),
        2 => Some(WalKind::Retract),
        _ => None,
    }
}

/// A decoded WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Monotonic record number (spans checkpoints).
    pub seq: u64,
    /// Assert or retract.
    pub kind: WalKind,
    /// The batch as N-Triples text.
    pub body: String,
}

/// Result of scanning a log image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalScan {
    /// The records of the valid prefix, in log order.
    pub records: Vec<WalRecord>,
    /// Length of that valid prefix in bytes. Appending must resume here —
    /// the caller truncates any torn tail before accepting new writes.
    pub valid_bytes: usize,
    /// `true` when bytes beyond the valid prefix were discarded.
    pub torn_tail: bool,
}

/// Encodes one record (header + payload) ready for a durable append.
pub fn encode_record(seq: u64, kind: WalKind, body: &str) -> Vec<u8> {
    let payload_len = 8 + 1 + body.len();
    let mut out = Vec::with_capacity(RECORD_HEADER + payload_len);
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
    out.extend_from_slice(&[0, 0, 0, 0]); // CRC patched below.
    out.extend_from_slice(&seq.to_le_bytes());
    out.push(kind_to_byte(kind));
    out.extend_from_slice(body.as_bytes());
    let crc = crc32(&out[RECORD_HEADER..]);
    out[4..8].copy_from_slice(&crc.to_le_bytes());
    out
}

/// The `N` bytes at `at`, or `None` when the slice is too short.
fn bytes_at<const N: usize>(bytes: &[u8], at: usize) -> Option<[u8; N]> {
    bytes.get(at..at + N)?.try_into().ok()
}

/// The record at the front of `bytes` and its length in bytes, or `None`
/// when it is torn or corrupt: truncated header, oversized or undersized
/// length, CRC mismatch, unknown kind, or non-UTF-8 body.
fn record_at(bytes: &[u8]) -> Option<(WalRecord, usize)> {
    let len = u32::from_le_bytes(bytes_at(bytes, 0)?) as usize;
    let crc = u32::from_le_bytes(bytes_at(bytes, 4)?);
    if !(MIN_PAYLOAD..=MAX_RECORD_LEN as usize).contains(&len) {
        return None;
    }
    let payload = bytes.get(RECORD_HEADER..RECORD_HEADER + len)?;
    if crc32(payload) != crc {
        return None;
    }
    let (seq, kind) = (
        u64::from_le_bytes(bytes_at(payload, 0)?),
        kind_from_byte(payload[8])?,
    );
    let body = std::str::from_utf8(&payload[9..]).ok()?.to_string();
    Some((WalRecord { seq, kind, body }, RECORD_HEADER + len))
}

/// Scans a log image, stopping (without error) at the first sign of a torn
/// or corrupt tail: a record `record_at` refuses, or a non-increasing
/// sequence number.
pub fn scan(bytes: &[u8]) -> WalScan {
    let mut records: Vec<WalRecord> = Vec::new();
    let mut offset = 0usize;
    while let Some((record, len)) = record_at(&bytes[offset..]) {
        if records.last().is_some_and(|last| record.seq <= last.seq) {
            break;
        }
        records.push(record);
        offset += len;
    }
    WalScan {
        records,
        valid_bytes: offset,
        torn_tail: offset < bytes.len(),
    }
}

/// The newest segment — the one appends go to — and what it holds.
#[derive(Debug, Default)]
pub(crate) struct Live {
    pub(crate) path: PathBuf,
    pub(crate) records: u64,
    pub(crate) bytes: u64,
}

/// Seals the log behind record `last_seq`: creates the empty segment the
/// records after it go to. Reads no byte of the log; on failure nothing
/// has changed.
pub(crate) fn seal(backend: &dyn IoBackend, dir: &Path, last_seq: u64) -> io::Result<Live> {
    let path = dir.join(segment_file_name(last_seq + 1));
    backend.write_atomic(&path, &[])?;
    Ok(Live {
        path,
        ..Live::default()
    })
}

/// Removes the segments whose records are all at or below `covered`
/// (best-effort). The newest segment always stays: appends go on in it.
pub(crate) fn prune(backend: &dyn IoBackend, dir: &Path, covered: u64) {
    let Ok(segments) = list_numbered(backend, dir, parse_segment_file_name) else {
        return;
    };
    // Newest first: a segment's records end below its successor's first.
    for pair in segments.windows(2) {
        if pair[0].0 <= covered.saturating_add(1) {
            let _ = backend.remove(&pair[1].1);
        }
    }
}

/// The log as [`recover`] found it, for an image covering records up to
/// some `last_seq`.
#[derive(Debug, Default)]
pub(crate) struct Recovered {
    /// The records past the image, numbered on from its `last_seq`.
    pub(crate) records: Vec<WalRecord>,
    /// Records the image already covers.
    pub(crate) skipped: usize,
    /// Bytes of torn tail cut off the newest segment.
    pub(crate) torn_bytes: usize,
    /// Where appends resume.
    pub(crate) live: Live,
    /// Why they cannot: the torn tail could not be cut.
    pub(crate) unwritable: Option<String>,
}

/// Reads every segment, oldest first, on top of an image covering the
/// records up to `covered`. A record missing past `covered` — a segment
/// that starts after the record that should come next, or a number
/// skipped — and an older segment that does not scan to its end are
/// [`DurableError::Corrupt`]: acknowledged writes are gone. The newest
/// segment's torn tail is cut; with no segment at all, one is created.
pub(crate) fn recover(
    backend: &dyn IoBackend,
    dir: &Path,
    covered: u64,
) -> Result<Recovered, DurableError> {
    let mut files = list_numbered(backend, dir, parse_segment_file_name)
        .map_err(DurableError::io(format!("listing {}", dir.display())))?;
    files.reverse();
    let mut found = Recovered::default();
    let mut last = covered;
    for (index, (first, path)) in files.iter().enumerate() {
        missing(last, *first, path)?;
        let bytes = backend
            .read(path)
            .map_err(DurableError::io(format!("reading {}", path.display())))?;
        let scan = scan(&bytes);
        if scan.torn_tail && index + 1 < files.len() {
            let (at, valid) = (path.display(), scan.valid_bytes);
            return Err(DurableError::corrupt(format!(
                "{at} is damaged after {valid} bytes"
            )));
        }
        found.live = Live {
            path: path.clone(),
            records: scan.records.len() as u64,
            bytes: scan.valid_bytes as u64,
        };
        for record in scan.records {
            missing(last, record.seq, path)?;
            if record.seq <= last {
                found.skipped += 1;
            } else {
                last = record.seq;
                found.records.push(record);
            }
        }
        // A torn tail must be cut before new appends, or the garbage bytes
        // would permanently corrupt every future scan.
        if scan.torn_tail {
            found.torn_bytes = bytes.len() - scan.valid_bytes;
            if let Err(e) = backend.write_atomic(path, &bytes[..scan.valid_bytes]) {
                found.unwritable = Some(format!(
                    "could not truncate torn WAL tail of {}: {e}",
                    path.display()
                ));
            }
        }
    }
    if files.is_empty() {
        found.live = seal(backend, dir, last).map_err(DurableError::io(format!(
            "creating a log segment in {}",
            dir.display()
        )))?;
    }
    Ok(found)
}

/// Refuses a log whose next record, `next`, does not follow `last`.
fn missing(last: u64, next: u64, path: &Path) -> Result<(), DurableError> {
    if next > last + 1 {
        let (from, to, at) = (last + 1, next - 1, path.display());
        return Err(DurableError::corrupt(format!(
            "log records {from}..={to} are missing before {at}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> (Vec<u8>, Vec<WalRecord>) {
        let records = vec![
            WalRecord {
                seq: 1,
                kind: WalKind::Assert,
                body: "<a> <b> <c> .\n".to_string(),
            },
            WalRecord {
                seq: 2,
                kind: WalKind::Retract,
                body: "<a> <b> <c> .\n".to_string(),
            },
            WalRecord {
                seq: 5,
                kind: WalKind::Assert,
                body: String::new(),
            },
        ];
        let mut bytes = Vec::new();
        for r in &records {
            bytes.extend_from_slice(&encode_record(r.seq, r.kind, &r.body));
        }
        (bytes, records)
    }

    #[test]
    fn round_trips_a_clean_log() {
        let (bytes, records) = sample_log();
        let scan = scan(&bytes);
        assert_eq!(scan.records, records);
        assert_eq!(scan.valid_bytes, bytes.len());
        assert!(!scan.torn_tail);
    }

    #[test]
    fn tolerates_a_torn_tail_at_every_cut_point() {
        let (bytes, records) = sample_log();
        let second_record_end = bytes.len() - (RECORD_HEADER + 8 + 1); // last record is header + seq + kind
        for cut in second_record_end + 1..bytes.len() {
            let scan = scan(&bytes[..cut]);
            assert_eq!(scan.records, records[..2], "cut at {cut}");
            assert_eq!(scan.valid_bytes, second_record_end);
            assert!(scan.torn_tail, "cut at {cut}");
        }
    }

    #[test]
    fn a_bit_flip_ends_the_scan_at_the_previous_record() {
        let (bytes, records) = sample_log();
        let first_len = RECORD_HEADER + 8 + 1 + records[0].body.len();
        for offset in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[offset] ^= 0x40;
            let scan = scan(&corrupt);
            // Corruption can only ever *shorten* the accepted prefix, and
            // records before the flipped byte survive intact.
            assert!(scan.records.len() <= records.len(), "offset {offset}");
            if offset >= first_len {
                assert!(
                    !scan.records.is_empty() && scan.records[0] == records[0],
                    "offset {offset}"
                );
            }
        }
    }

    #[test]
    fn non_increasing_sequence_numbers_end_the_scan() {
        let mut bytes = encode_record(7, WalKind::Assert, "x");
        bytes.extend_from_slice(&encode_record(7, WalKind::Assert, "y"));
        let scan = scan(&bytes);
        assert_eq!(scan.records.len(), 1);
        assert!(scan.torn_tail);
    }

    #[test]
    fn empty_log_scans_clean() {
        let scan = scan(b"");
        assert!(scan.records.is_empty());
        assert_eq!(scan.valid_bytes, 0);
        assert!(!scan.torn_tail);
    }
}
