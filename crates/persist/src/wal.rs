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

use crate::crc::crc32;

/// File name of the log inside a data directory: the live segment, the
/// one every write appends to.
pub const WAL_FILE: &str = "wal.log";

/// File name of the sealed segment: the records a checkpoint set aside
/// when it began, kept until the image that covers them is durable. Same
/// record format; absent whenever no checkpoint is under way.
pub const WAL_SEALED_FILE: &str = "wal.sealed";

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

/// Little-endian u32 at `at`, or `None` when the slice is too short.
fn le_u32(bytes: &[u8], at: usize) -> Option<u32> {
    let arr: [u8; 4] = bytes.get(at..at + 4)?.try_into().ok()?;
    Some(u32::from_le_bytes(arr))
}

/// Little-endian u64 at `at`, or `None` when the slice is too short.
fn le_u64(bytes: &[u8], at: usize) -> Option<u64> {
    let arr: [u8; 8] = bytes.get(at..at + 8)?.try_into().ok()?;
    Some(u64::from_le_bytes(arr))
}

/// Scans a log image, stopping (without error) at the first sign of a torn
/// or corrupt tail: truncated header, oversized or undersized length,
/// CRC mismatch, unknown kind, non-UTF-8 body, or a non-increasing
/// sequence number.
pub fn scan(bytes: &[u8]) -> WalScan {
    let mut records = Vec::new();
    let mut offset = 0usize;
    let mut last_seq = 0u64;
    loop {
        let remaining = &bytes[offset..];
        if remaining.len() < RECORD_HEADER {
            break;
        }
        // A short read here is impossible after the length check, but the
        // scan's contract is "stop at the first malformed byte, never
        // panic", so the conversions bail like every other torn-tail case.
        let Some(len) = le_u32(remaining, 0) else {
            break;
        };
        let len = len as usize;
        if len < MIN_PAYLOAD || len > MAX_RECORD_LEN as usize {
            break;
        }
        if remaining.len() < RECORD_HEADER + len {
            break;
        }
        let Some(crc) = le_u32(remaining, 4) else {
            break;
        };
        let payload = &remaining[RECORD_HEADER..RECORD_HEADER + len];
        if crc32(payload) != crc {
            break;
        }
        let Some(seq) = le_u64(payload, 0) else {
            break;
        };
        let Some(kind) = kind_from_byte(payload[8]) else {
            break;
        };
        let Ok(body) = std::str::from_utf8(&payload[9..]) else {
            break;
        };
        if records.is_empty() || seq > last_seq {
            last_seq = seq;
        } else {
            break;
        }
        records.push(WalRecord {
            seq,
            kind,
            body: body.to_string(),
        });
        offset += RECORD_HEADER + len;
    }
    WalScan {
        records,
        valid_bytes: offset,
        torn_tail: offset < bytes.len(),
    }
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
