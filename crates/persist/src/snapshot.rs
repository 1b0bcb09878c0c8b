//! The snapshot image: dictionary + base + materialized pair tables +
//! epoch, serialized as a length-prefixed, CRC-checked file.
//!
//! ## One codec: format 2 (all integers little-endian)
//!
//! ```text
//! magic      "IFRYIMG2"                      8 bytes
//! header_len u32 · header_crc u32            CRC over the header payload
//! header     version u32 = 2
//!            epoch u64 · last_seq u64
//!            fragment_len u32 · fragment     UTF-8 program name
//!            base u8                         0: a full image
//!                                            1: a delta, then base_epoch u64 ·
//!                                               base_header_crc u32
//!            section_count u32 = 3
//! section ×3 tag [u8;4] · len u64 · crc u32 · payload
//! ```
//!
//! Sections appear in order `DICT`, `BASE`, `MATL`. Every image is a
//! **delta on a base**: a full image is the delta on the empty base — no
//! terms, no tables — and a delta image ([`write_delta_image`]) the delta
//! on the last full image, which its header names by epoch (so by file
//! name) and header CRC. One writer and one reader serve both.
//!
//! ```text
//! DICT  base properties u64 · base resources u64   what the base holds
//!       properties u64 · resources u64             slots appended
//!       base text u64 · base entries u64           the base's arena
//!       text u64 · entries u64                     arena appended
//!       ends       entries × u64                   end offsets in the arena
//!       properties properties × u32                arena entry of each slot
//!       resources  resources × u32
//!       text       text bytes                      UTF-8
//! BASE, slot_count u64, then per slot a marker u8: 0 no table,
//! MATL  1 a table — pair_count u64 · 2 × pair_count u32 words —, or
//!       2 the base's table, still the very one
//! ```
//!
//! The `DICT` section is the dictionary as it sits in memory
//! ([`Dictionary::raw_parts_since`]): its text arena's text and end
//! offsets, and its two dense tables of arena entries. A cold start copies
//! them and rebuilds the lookup index by re-seating each entry
//! ([`Dictionary::append_raw_parts`]); the index itself is not stored, so
//! the file does not depend on the hash or the probe order. Each pair word
//! is a term identifier minus 2³¹ ([`IMAGE_WORD_BASE`]): the dictionary
//! numbers at most 2³¹ − 1 terms in each half, so every identifier fits
//! ([`MAX_PER_HALF`](inferray_model::ids::MAX_PER_HALF)); the reader widens
//! it back.
//!
//! The store sections preserve the **exact slot layout** of the in-memory
//! `TripleStore` — `None` slots versus allocated-but-empty tables — because
//! the crash-recovery suite asserts recovered stores equal their pre-crash
//! originals under `PartialEq`, which observes that difference.
//!
//! `last_seq` is the WAL sequence number the image covers: replay skips
//! records at or below it, which is what makes "checkpoint, then crash
//! before the log is retired" safe.
//!
//! ## What a reader checks
//!
//! Each section's CRC; every count held to what its section still holds
//! before anything is allocated for it; UTF-8 of the text; end offsets that
//! rise and stay inside the text and on character boundaries; every text
//! one that reads back as a term, and none twice; every slot naming an
//! entry the arena holds, every new entry named by a slot, and an entry in
//! both tables only as a property and its promotion's stale resource slot;
//! pair words strictly sorted after widening; slot markers known, and
//! "as in base" only where the base has a table. A section that fails any
//! of them is discarded whole, and recovery falls back to an older image.
//!
//! ## One block each way
//!
//! Neither direction holds the image in memory. The checkpoint thread
//! streams it ([`write_image`]) through one [`IMAGE_BLOCK`] into the
//! image's temp file; a section's length and CRC — known only once its
//! payload is written — are patched in behind it, the CRC kept running
//! ([`Crc32`]) as the blocks leave. A cold start ([`open_image`]) reads the
//! header and the section table, checks that the file ends where the last
//! section does, and then decodes each section from its own handle and
//! offset, through one block, keeping its CRC as it reads — the dictionary
//! on one pool lane, the two stores on another. What the decoder allocates
//! is the decoded dictionary and tables, each at a size it first holds to
//! what its section still contains.
//! [`encode_image`] and [`decode_image`] are the same writer and reader
//! over memory.

use crate::crc::{crc32, Crc32};
use crate::io::{numbered_file_name, parse_numbered_file_name, IoBackend, StreamSink};
use inferray_core::{Stage, Stages};
use inferray_dictionary::{DenseTableError, Dictionary, RawLen};
use inferray_model::ids::IMAGE_WORD_BASE;
use inferray_store::{as_pairs, PropertyTable, TripleStore};
use std::fmt;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// File magic: "Inferray image, format 2" — full and delta images alike.
pub const MAGIC: &[u8; 8] = b"IFRYIMG2";
/// Current format version.
pub const VERSION: u32 = 2;

/// A delta image is written only while it stays within this fraction of
/// its base image's bytes (1/4); past it, a full image costs little more
/// and starts a fresh base.
pub const DELTA_FRACTION: u64 = 4;

const TAG_DICT: &[u8; 4] = b"DICT";
const TAG_BASE: &[u8; 4] = b"BASE";
const TAG_MATL: &[u8; 4] = b"MATL";

const SLOT_NONE: u8 = 0;
const SLOT_TABLE: u8 = 1;
/// A delta image's slot whose table is its base image's.
const SLOT_AS_IN_BASE: u8 = 2;

/// Why an image failed to decode. Every variant means "this file is not a
/// valid snapshot" — recovery falls back to the next-older image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file ends before the structure it promises.
    Truncated,
    /// The file does not start with the magic of format 2: it is not
    /// format 2 (an image of the retired format 1 reads so too).
    BadMagic,
    /// A format version this build does not understand.
    BadVersion(u32),
    /// A section (or the header) failed its CRC.
    ChecksumMismatch(&'static str),
    /// A structural invariant does not hold (unknown tag, unsorted pairs,
    /// invalid UTF-8, …).
    Malformed(&'static str),
    /// The file could not be read.
    Io(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "not a format-2 snapshot image (bad magic)"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::ChecksumMismatch(section) => {
                write!(f, "checksum mismatch in {section} section")
            }
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
            SnapshotError::Io(error) => write!(f, "snapshot unreadable: {error}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A decoded snapshot image — everything needed to resume serving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotImage {
    /// Epoch of the published store the image captured.
    pub epoch: u64,
    /// Last WAL sequence number folded into the image.
    pub last_seq: u64,
    /// Display name of the inference fragment the store was materialized
    /// under; recovery refuses to resume under a different one.
    pub fragment: String,
    /// The term dictionary.
    pub dictionary: Dictionary,
    /// The explicit (asserted) store — input to delete–rederive.
    pub base: TripleStore,
    /// The materialized store (explicit + inferred).
    pub materialized: TripleStore,
}

/// File name of the snapshot covering `epoch` (zero-padded so that
/// lexicographic order is numeric order).
pub fn snapshot_file_name(epoch: u64) -> String {
    numbered_file_name("snapshot", epoch, "img")
}

/// Parses an epoch back out of a [`snapshot_file_name`]-shaped file name.
pub fn parse_snapshot_file_name(name: &str) -> Option<u64> {
    parse_numbered_file_name(name, "snapshot", "img")
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// The one buffer an image passes through, each way: the checkpoint thread
/// fills one block at a time and hands it to the file, and each section of
/// a cold start decodes out of one block read from its own handle.
pub const IMAGE_BLOCK: usize = 256 << 10;

/// Streams an image into a [`StreamSink`] through one [`IMAGE_BLOCK`].
struct ImageWriter<'s> {
    sink: &'s mut dyn StreamSink,
    block: Vec<u8>,
    /// Bytes handed to the sink so far: the image offset of `block[0]`.
    flushed: u64,
    /// The running CRC of the open section's payload, and where in `block`
    /// its bytes not yet folded in start.
    crc: Crc32,
    crc_from: usize,
}

impl<'s> ImageWriter<'s> {
    fn new(sink: &'s mut dyn StreamSink) -> Self {
        ImageWriter {
            sink,
            block: Vec::with_capacity(IMAGE_BLOCK),
            flushed: 0,
            crc: Crc32::new(),
            crc_from: 0,
        }
    }

    /// The image offset the next byte goes to.
    fn offset(&self) -> u64 {
        self.flushed + self.block.len() as u64
    }

    fn flush(&mut self) -> io::Result<()> {
        self.crc.update(&self.block[self.crc_from..]);
        self.crc_from = 0;
        self.sink.append(&self.block)?;
        self.flushed += self.block.len() as u64;
        self.block.clear();
        Ok(())
    }

    /// Appends `bytes`, a block's worth at a time.
    fn put(&mut self, mut bytes: &[u8]) -> io::Result<()> {
        while !bytes.is_empty() {
            if self.block.len() == IMAGE_BLOCK {
                self.flush()?;
            }
            let room = IMAGE_BLOCK - self.block.len();
            let (now, later) = bytes.split_at(room.min(bytes.len()));
            self.block.extend_from_slice(now);
            bytes = later;
        }
        Ok(())
    }

    fn put_u64(&mut self, v: u64) -> io::Result<()> {
        self.put(&v.to_le_bytes())
    }

    /// Appends each of `items` as the `N` little-endian bytes `bytes`
    /// makes of it, a block's worth at a time.
    fn put_each<T: Copy, const N: usize>(
        &mut self,
        mut items: &[T],
        bytes: impl Fn(T) -> io::Result<[u8; N]>,
    ) -> io::Result<()> {
        while !items.is_empty() {
            let room = (IMAGE_BLOCK - self.block.len()) / N;
            if room == 0 {
                self.flush()?;
                continue;
            }
            let (now, later) = items.split_at(room.min(items.len()));
            for &item in now {
                self.block.extend_from_slice(&bytes(item)?);
            }
            items = later;
        }
        Ok(())
    }

    /// Overwrites earlier bytes: in the block while they are still in it,
    /// through the sink once they left.
    fn patch(&mut self, offset: u64, bytes: &[u8]) -> io::Result<()> {
        let gone = usize::try_from(self.flushed.saturating_sub(offset))
            .unwrap_or(usize::MAX)
            .min(bytes.len());
        if gone > 0 {
            self.sink.patch(offset, &bytes[..gone])?;
        }
        if gone < bytes.len() {
            let at = (offset + gone as u64 - self.flushed) as usize;
            self.block[at..at + bytes.len() - gone].copy_from_slice(&bytes[gone..]);
        }
        Ok(())
    }

    /// Appends one section: tag, payload length, payload CRC, payload.
    /// `fill` streams the payload; its length and running CRC are patched
    /// in behind it, so no section exists a second time in memory.
    fn section(
        &mut self,
        tag: &[u8; 4],
        fill: impl FnOnce(&mut Self) -> io::Result<()>,
    ) -> io::Result<()> {
        let mut head = [0u8; 16];
        head[..4].copy_from_slice(tag);
        self.put(&head)?;
        let payload = self.offset();
        self.crc = Crc32::new();
        self.crc_from = self.block.len();
        fill(self)?;
        self.crc.update(&self.block[self.crc_from..]);
        self.crc_from = self.block.len();
        let mut fields = [0u8; 12];
        fields[..8].copy_from_slice(&(self.offset() - payload).to_le_bytes());
        fields[8..].copy_from_slice(&self.crc.finish().to_le_bytes());
        self.patch(payload - 12, &fields)
    }

    /// The `DICT` section: what the dictionary appended since `since` —
    /// everything, on the empty base — as it sits in memory.
    fn put_dictionary(&mut self, dictionary: &Dictionary, since: RawLen) -> io::Result<()> {
        let parts = dictionary.raw_parts_since(since).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "the dictionary does not extend its base image's",
            )
        })?;
        for count in [
            since.properties,
            since.resources,
            parts.properties.len(),
            parts.resources.len(),
            since.text,
            since.entries,
            parts.text.len(),
            parts.ends.len(),
        ] {
            self.put_u64(count as u64)?;
        }
        self.put_each(parts.ends, |end| Ok((end as u64).to_le_bytes()))?;
        self.put_each(parts.properties, |entry| Ok(entry.to_le_bytes()))?;
        self.put_each(parts.resources, |entry| Ok(entry.to_le_bytes()))?;
        self.put(parts.text.as_bytes())
    }

    /// A store section: the slot count, then per slot a marker and, for a
    /// table, its pair count and its pair words in 32 bits. A table the
    /// base image's `in_base` slots held is marked so, and not written.
    fn put_store(
        &mut self,
        store: &TripleStore,
        in_base: &[Option<Weak<PropertyTable>>],
    ) -> io::Result<()> {
        let slots = store.slot_tables();
        self.put_u64(slots.len() as u64)?;
        for (index, slot) in slots.iter().enumerate() {
            match slot {
                None => self.put(&[SLOT_NONE])?,
                Some(table) if held(in_base, index, table) => self.put(&[SLOT_AS_IN_BASE])?,
                Some(table) => {
                    self.put(&[SLOT_TABLE])?;
                    let pairs = table.pairs();
                    self.put_u64(as_pairs(pairs).len() as u64)?;
                    self.put_each(pairs, |word| Ok(image_word(word)?.to_le_bytes()))?;
                }
            }
        }
        Ok(())
    }

    /// The magic and the checksummed header.
    fn put_front(&mut self, header: &[u8]) -> io::Result<()> {
        self.put(MAGIC)?;
        self.put(&(header.len() as u32).to_le_bytes())?;
        self.put(&crc32(header).to_le_bytes())?;
        self.put(header)
    }

    /// Flushes the last block; returns the image's length.
    fn finish(mut self) -> io::Result<u64> {
        self.flush()?;
        Ok(self.flushed)
    }
}

/// A term identifier as the image stores it: minus 2³¹, in 32 bits.
fn image_word(id: u64) -> io::Result<u32> {
    id.checked_sub(IMAGE_WORD_BASE)
        .and_then(|word| u32::try_from(word).ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("pair word {id} is no identifier the dictionary numbers"),
            )
        })
}

/// The state an image captures, borrowed: what a checkpoint writes.
#[derive(Debug, Clone, Copy)]
pub struct ImageParts<'a> {
    /// The term dictionary.
    pub dictionary: &'a Dictionary,
    /// The explicit store.
    pub base: &'a TripleStore,
    /// The materialized store.
    pub materialized: &'a TripleStore,
    /// Epoch of the materialized store.
    pub epoch: u64,
    /// Last WAL sequence number the state covers.
    pub last_seq: u64,
    /// The program name the header records.
    pub fragment: &'a str,
}

/// The header payload: a full image's, or — given its base's epoch and
/// header CRC — a delta's.
fn header(parts: &ImageParts<'_>, base: Option<(u64, u32)>) -> Vec<u8> {
    let mut header = Vec::new();
    header.extend_from_slice(&VERSION.to_le_bytes());
    header.extend_from_slice(&parts.epoch.to_le_bytes());
    header.extend_from_slice(&parts.last_seq.to_le_bytes());
    header.extend_from_slice(&(parts.fragment.len() as u32).to_le_bytes());
    header.extend_from_slice(parts.fragment.as_bytes());
    match base {
        None => header.push(0),
        Some((epoch, crc)) => {
            header.push(1);
            header.extend_from_slice(&epoch.to_le_bytes());
            header.extend_from_slice(&crc.to_le_bytes());
        }
    }
    header.extend_from_slice(&3u32.to_le_bytes());
    header
}

/// The one writer: streams `parts` as the delta on `on` — the full image
/// it names, or the empty base for a full image — into `sink` through one
/// [`IMAGE_BLOCK`], and returns its length in bytes.
fn write(
    sink: &mut dyn StreamSink,
    parts: ImageParts<'_>,
    on: Option<&BaseImage>,
) -> io::Result<u64> {
    let mut w = ImageWriter::new(sink);
    w.put_front(&header(&parts, on.map(|on| (on.epoch, on.header_crc))))?;
    let since = on.map_or_else(RawLen::default, |on| on.dictionary);
    w.section(TAG_DICT, |w| w.put_dictionary(parts.dictionary, since))?;
    // The empty base has no tables.
    let (base, materialized): (&[_], &[_]) = match on {
        Some(on) => (&on.base, &on.materialized),
        None => (&[], &[]),
    };
    w.section(TAG_BASE, |w| w.put_store(parts.base, base))?;
    w.section(TAG_MATL, |w| w.put_store(parts.materialized, materialized))?;
    w.finish()
}

/// Streams a complete snapshot image into `sink` through one
/// [`IMAGE_BLOCK`] and returns its length in bytes.
///
/// The stores must be finalized (sorted, duplicate-free) — they always are
/// by the time they are observable through
/// `ServingDataset::persistable_state` — and hold only identifiers of the
/// dictionary; a pair word outside its range fails the write. A threshold
/// checkpoint runs this beside the next writes (`DurableDataset`), straight
/// into the image's temp file: it holds no more of the image than one
/// block, and it queues nothing in front of a write's tasks on the
/// reasoner's pool.
pub fn write_image(
    sink: &mut dyn StreamSink,
    dictionary: &Dictionary,
    base: &TripleStore,
    materialized: &TripleStore,
    epoch: u64,
    last_seq: u64,
    fragment: &str,
) -> io::Result<u64> {
    let parts = ImageParts {
        dictionary,
        base,
        materialized,
        epoch,
        last_seq,
        fragment,
    };
    Ok(write_base_image(sink, parts)?.bytes())
}

/// [`write_image`] of `parts`, returning the record of the image that
/// deltas are written on once it is durable.
pub fn write_base_image(sink: &mut dyn StreamSink, parts: ImageParts<'_>) -> io::Result<BaseImage> {
    let bytes = write(sink, parts, None)?;
    Ok(BaseImage::record(parts, bytes))
}

/// Streams a delta image of `parts` on the full image `on` describes into
/// `sink`, through one [`IMAGE_BLOCK`], and returns its length in bytes:
/// what the dictionary appended since, and the tables that are not the
/// base's.
pub fn write_delta_image(
    sink: &mut dyn StreamSink,
    parts: ImageParts<'_>,
    on: &BaseImage,
) -> io::Result<u64> {
    write(sink, parts, Some(on))
}

/// Serializes a complete snapshot image into memory: [`write_image`] into a
/// `Vec`.
///
/// # Panics
/// When a store holds a pair word the dictionary cannot have numbered
/// (see [`write_image`]).
pub fn encode_image(
    dictionary: &Dictionary,
    base: &TripleStore,
    materialized: &TripleStore,
    epoch: u64,
    last_seq: u64,
    fragment: &str,
) -> Vec<u8> {
    let mut out = Vec::new();
    // A `Vec` takes every append, and every patch inside what it holds.
    let written = write_image(
        &mut out,
        dictionary,
        base,
        materialized,
        epoch,
        last_seq,
        fragment,
    );
    if let Err(error) = written {
        panic!("the state has no image: {error}");
    }
    out
}

/// A durable full image as a delta is written on it: the epoch and header
/// CRC that name it, its length, how far its dictionary reached, and each
/// of its tables by identity alone. A [`Weak`] per slot keeps no table's
/// pairs alive — a write's superseded tables are still reclaimed
/// (`inferray_store::reclaim`) — and keeps the allocation's address from
/// being taken by a later table, so "the same pointer" means "the same
/// table".
#[derive(Debug)]
pub struct BaseImage {
    epoch: u64,
    header_crc: u32,
    bytes: u64,
    dictionary: RawLen,
    base: Vec<Option<Weak<PropertyTable>>>,
    materialized: Vec<Option<Weak<PropertyTable>>>,
}

/// Whether slot `index` of a base image held `table` itself.
fn held(slots: &[Option<Weak<PropertyTable>>], index: usize, table: &Arc<PropertyTable>) -> bool {
    slots
        .get(index)
        .and_then(Option::as_ref)
        .is_some_and(|weak| std::ptr::eq(weak.as_ptr(), Arc::as_ptr(table)))
}

impl BaseImage {
    /// The record of the full image of `parts` that came to `bytes`.
    fn record(parts: ImageParts<'_>, bytes: u64) -> BaseImage {
        let identities = |store: &TripleStore| {
            store
                .slot_tables()
                .iter()
                .map(|slot| slot.as_ref().map(Arc::downgrade))
                .collect()
        };
        BaseImage {
            epoch: parts.epoch,
            header_crc: crc32(&header(&parts, None)),
            bytes,
            dictionary: parts.dictionary.raw_len(),
            base: identities(parts.base),
            materialized: identities(parts.materialized),
        }
    }

    /// Epoch of the image — and so its file name.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Length of the image in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// What a delta of `parts` on this image holds, in bytes — `None` when
    /// the dictionary does not extend this image's: the front, the
    /// dictionary appended since, and the tables that are not this image's.
    fn delta_bytes(&self, parts: &ImageParts<'_>) -> Option<u64> {
        let since = parts.dictionary.raw_parts_since(self.dictionary)?;
        let dictionary = 64
            + since.text.len() as u64
            + 8 * since.ends.len() as u64
            + 4 * (since.properties.len() + since.resources.len()) as u64;
        let tables = |store: &TripleStore, slots: &[Option<Weak<PropertyTable>>]| -> u64 {
            let mut bytes = 8;
            for (index, slot) in store.slot_tables().iter().enumerate() {
                bytes += 1;
                if let Some(table) = slot.as_ref().filter(|t| !held(slots, index, t)) {
                    bytes += 8 + 4 * table.pairs().len() as u64;
                }
            }
            bytes
        };
        // Magic, header fields, three section heads.
        let front = 16 + 41 + parts.fragment.len() as u64 + 3 * 16;
        Some(
            front
                + dictionary
                + tables(parts.base, &self.base)
                + tables(parts.materialized, &self.materialized),
        )
    }

    /// Whether a checkpoint of `parts` writes a delta on this image rather
    /// than a full image: the state is at another epoch than the image (a
    /// delta takes its epoch's file name), its dictionary extends the
    /// image's, and the delta stays within 1/[`DELTA_FRACTION`] of the
    /// image's bytes.
    pub fn takes_delta(&self, parts: &ImageParts<'_>) -> bool {
        parts.epoch != self.epoch
            && self
                .delta_bytes(parts)
                .is_some_and(|bytes| bytes <= self.bytes / DELTA_FRACTION)
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A cursor over the header, which is in memory whole.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or(SnapshotError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        let arr: [u8; 4] = self
            .take(4)?
            .try_into()
            .map_err(|_| SnapshotError::Malformed("short u32"))?;
        Ok(u32::from_le_bytes(arr))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let arr: [u8; 8] = self
            .take(8)?
            .try_into()
            .map_err(|_| SnapshotError::Malformed("short u64"))?;
        Ok(u64::from_le_bytes(arr))
    }

    fn str(&mut self) -> Result<&'a str, SnapshotError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?)
            .map_err(|_| SnapshotError::Malformed("non-UTF-8 string"))
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

impl From<DenseTableError> for SnapshotError {
    fn from(error: DenseTableError) -> Self {
        SnapshotError::Malformed(match error {
            DenseTableError::DuplicateTerm => "a term occurs twice in the DICT section",
            DenseTableError::TooManyTerms => "too many terms in the DICT section",
            DenseTableError::BadText => "the DICT section's offsets mark out no term texts",
            DenseTableError::BadEntry => "the DICT section's tables and arena disagree",
        })
    }
}

impl From<io::Error> for SnapshotError {
    fn from(error: io::Error) -> Self {
        match error.kind() {
            io::ErrorKind::UnexpectedEof => SnapshotError::Truncated,
            _ => SnapshotError::Io(error.to_string()),
        }
    }
}

/// One section's payload, read from a handle of its own through one
/// [`IMAGE_BLOCK`] and checksummed as it passes.
struct SectionReader<R> {
    source: R,
    /// Payload bytes not yet read from `source`.
    unread: u64,
    block: Vec<u8>,
    /// Bytes of `block` already decoded.
    pos: usize,
    crc: Crc32,
}

impl<R: Read> SectionReader<R> {
    fn new(source: R, len: u64) -> Self {
        let block = usize::try_from(len).map_or(IMAGE_BLOCK, |len| len.min(IMAGE_BLOCK));
        SectionReader {
            source,
            unread: len,
            block: Vec::with_capacity(block),
            pos: 0,
            crc: Crc32::new(),
        }
    }

    /// Payload bytes not yet decoded.
    fn remaining(&self) -> u64 {
        self.unread + (self.block.len() - self.pos) as u64
    }

    /// The undecoded bytes in the block, at least `n` of them — one field,
    /// never more than a block: the block is refilled behind what it still
    /// holds, up to one [`IMAGE_BLOCK`] and never past what the section
    /// still holds. A field the section cannot contain is
    /// [`SnapshotError::Truncated`] before anything is read for it.
    fn ensure(&mut self, n: usize) -> Result<&[u8], SnapshotError> {
        let held = self.block.len() - self.pos;
        if held < n {
            if (n - held) as u64 > self.unread {
                return Err(SnapshotError::Truncated);
            }
            self.block.drain(..self.pos);
            self.pos = 0;
            let want = ((IMAGE_BLOCK - held) as u64).min(self.unread) as usize;
            self.block.resize(held + want, 0);
            self.source.read_exact(&mut self.block[held..])?;
            self.crc.update(&self.block[held..]);
            self.unread -= want as u64;
        }
        Ok(&self.block[self.pos..])
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        let bytes = self.ensure(N)?;
        let array = <[u8; N]>::try_from(&bytes[..N])
            .map_err(|_| SnapshotError::Malformed("short field"))?;
        self.pos += N;
        Ok(array)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take::<1>()?[0])
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        self.take().map(u64::from_le_bytes)
    }

    /// A count of items of `size` bytes each, held to what the section
    /// still holds before anything is allocated for them.
    fn count(&mut self, size: u64) -> Result<usize, SnapshotError> {
        let count = self.u64()?;
        if count
            .checked_mul(size)
            .is_none_or(|bytes| bytes > self.remaining())
        {
            return Err(SnapshotError::Truncated);
        }
        usize::try_from(count).map_err(|_| SnapshotError::Truncated)
    }

    /// Appends `count` items of `N` little-endian bytes each to `out`, as
    /// `item` makes them, a block at a time.
    fn items<T, const N: usize>(
        &mut self,
        mut count: usize,
        out: &mut Vec<T>,
        item: impl Fn([u8; N]) -> T,
    ) -> Result<(), SnapshotError> {
        while count > 0 {
            let bytes = self.ensure(N)?;
            let n = count.min(bytes.len() / N);
            out.extend(
                bytes[..n * N]
                    .chunks_exact(N)
                    .map(|c| item(<[u8; N]>::try_from(c).unwrap_or([0; N]))),
            );
            self.pos += n * N;
            count -= n;
        }
        Ok(())
    }

    /// Appends the next `len` bytes to `out`, a block at a time.
    fn bytes(&mut self, mut len: usize, out: &mut Vec<u8>) -> Result<(), SnapshotError> {
        while len > 0 {
            let bytes = self.ensure(1)?;
            let n = len.min(bytes.len());
            out.extend_from_slice(&bytes[..n]);
            self.pos += n;
            len -= n;
        }
        Ok(())
    }

    /// Checks that the payload was decoded to its end and that its CRC is
    /// `expected`: a section that fails either is discarded.
    fn finish(self, expected: u32, name: &'static str) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(SnapshotError::Malformed("trailing bytes in a section"));
        }
        if self.crc.finish() != expected {
            return Err(SnapshotError::ChecksumMismatch(name));
        }
        Ok(())
    }
}

/// The `DICT` section: the dictionary `on` holds — a delta's base's, or
/// none on the empty base — with what the section appends to it.
fn decode_dictionary<R: Read>(
    mut r: SectionReader<R>,
    crc: u32,
    on: Option<Dictionary>,
) -> Result<Dictionary, SnapshotError> {
    let mut counts = [0u64; 8];
    for count in &mut counts {
        *count = r.u64()?;
    }
    let [base_properties, base_resources, _, _, base_text, base_entries, _, _] = counts;
    let since = on
        .as_ref()
        .map_or_else(RawLen::default, Dictionary::raw_len);
    if [base_properties, base_resources, base_text, base_entries]
        != [since.properties, since.resources, since.text, since.entries].map(|n| n as u64)
    {
        return Err(SnapshotError::Malformed(
            "a delta's dictionary does not extend its base's",
        ));
    }
    let [_, _, properties, resources, _, _, text, entries] = counts;
    // Everything the counts promise, held to the section first.
    if entries
        .checked_mul(8)
        .zip(
            properties
                .checked_add(resources)
                .and_then(|n| n.checked_mul(4)),
        )
        .and_then(|(ends, slots)| ends.checked_add(slots)?.checked_add(text))
        .is_none_or(|bytes| bytes != r.remaining())
    {
        return Err(SnapshotError::Truncated);
    }
    let len = |n: u64| usize::try_from(n).map_err(|_| SnapshotError::Truncated);
    let mut ends = Vec::with_capacity(len(entries)?);
    r.items(len(entries)?, &mut ends, |b| u64::from_le_bytes(b) as usize)?;
    let mut property_entries = Vec::with_capacity(len(properties)?);
    r.items(len(properties)?, &mut property_entries, u32::from_le_bytes)?;
    let mut resource_entries = Vec::with_capacity(len(resources)?);
    r.items(len(resources)?, &mut resource_entries, u32::from_le_bytes)?;
    let mut bytes = Vec::with_capacity(len(text)?);
    r.bytes(len(text)?, &mut bytes)?;
    r.finish(crc, "DICT")?;
    let text = String::from_utf8(bytes).map_err(|_| SnapshotError::Malformed("non-UTF-8 text"))?;
    let parts = (text, ends, property_entries, resource_entries);
    Ok(match on {
        None => Dictionary::from_raw_parts(parts.0, parts.1, parts.2, parts.3),
        Some(on) => on.append_raw_parts(parts.0, parts.1, parts.2, parts.3),
    }?)
}

/// A store section. `base` is the store of a delta's base image, none on
/// the empty base: a slot marked "as in base" takes its table, which it
/// must have.
fn decode_store<R: Read>(
    mut r: SectionReader<R>,
    crc: u32,
    name: &'static str,
    base: Option<&TripleStore>,
) -> Result<TripleStore, SnapshotError> {
    // A slot takes one byte at least.
    let slot_count = r.count(1)?;
    let mut slots: Vec<Option<Arc<PropertyTable>>> = Vec::new();
    for index in 0..slot_count {
        match r.u8()? {
            SLOT_NONE => slots.push(None),
            SLOT_TABLE => {
                // The table is allocated at its exact size, so its size is
                // held to what the section still holds first.
                let words = 2 * r.count(8)?;
                let mut pairs = Vec::with_capacity(words);
                r.items(words, &mut pairs, |b| {
                    u64::from(u32::from_le_bytes(b)) + IMAGE_WORD_BASE
                })?;
                // Defend the store's sort invariant even against a file
                // that passes its CRC: ⟨s,o⟩ strictly increasing.
                if as_pairs(&pairs).windows(2).any(|w| w[0] >= w[1]) {
                    return Err(SnapshotError::Malformed("unsorted pair table"));
                }
                let mut table = PropertyTable::new();
                table.replace_with_sorted(pairs);
                slots.push(Some(Arc::new(table)));
            }
            SLOT_AS_IN_BASE => {
                let table = base
                    .and_then(|base| base.slot_tables().get(index))
                    .and_then(Option::as_ref)
                    .ok_or(SnapshotError::Malformed(
                        "a table as in base the base lacks",
                    ))?;
                slots.push(Some(Arc::clone(table)));
            }
            _ => return Err(SnapshotError::Malformed("unknown slot marker")),
        }
    }
    r.finish(crc, name)?;
    Ok(TripleStore::from_shared_slot_tables(slots))
}

/// A fresh handle on an image, reading from the given offset on.
type Open<'a> = dyn Fn(u64) -> io::Result<Box<dyn Read + Send + 'a>> + Sync + 'a;

/// Reads `N` bytes at `offset`.
fn read_at<const N: usize>(open: &Open<'_>, offset: u64) -> Result<[u8; N], SnapshotError> {
    let mut bytes = [0u8; N];
    open(offset)?.read_exact(&mut bytes)?;
    Ok(bytes)
}

/// Where one section's payload lies, and its CRC.
struct SectionEntry {
    payload: u64,
    len: u64,
    crc: u32,
}

/// Reads the section header at `offset`.
fn section_entry(
    open: &Open<'_>,
    offset: u64,
    expect_tag: &[u8; 4],
) -> Result<SectionEntry, SnapshotError> {
    let head: [u8; 16] = read_at(open, offset)?;
    if &head[..4] != expect_tag {
        return Err(SnapshotError::Malformed("unexpected section tag"));
    }
    let len = u64::from_le_bytes([
        head[4], head[5], head[6], head[7], head[8], head[9], head[10], head[11],
    ]);
    let crc = u32::from_le_bytes([head[12], head[13], head[14], head[15]]);
    Ok(SectionEntry {
        payload: offset + 16,
        len,
        crc,
    })
}

/// A decoded section, before reassembly into a [`SnapshotImage`].
enum Section {
    Dict(Dictionary),
    Store(TripleStore),
}

/// An image's header and section table: everything but the payloads.
struct Frame {
    header_crc: u32,
    epoch: u64,
    last_seq: u64,
    fragment: String,
    /// A delta's base image: its epoch and header CRC.
    base: Option<(u64, u32)>,
    sections: [SectionEntry; 3],
}

/// Reads and checks the header and the section table; the file must end
/// where the last section does — so every section's declared length is one
/// the file holds before anything is allocated for it.
fn read_frame(open: &Open<'_>) -> Result<Frame, SnapshotError> {
    let front: [u8; 16] = read_at(open, 0)?;
    if front[..8] != MAGIC[..] {
        return Err(SnapshotError::BadMagic);
    }
    let header_len = u32::from_le_bytes([front[8], front[9], front[10], front[11]]) as usize;
    let header_crc = u32::from_le_bytes([front[12], front[13], front[14], front[15]]);
    // A header is a few numbers and a program name.
    if header_len > IMAGE_BLOCK {
        return Err(SnapshotError::Malformed("bad header"));
    }
    let mut header_bytes = vec![0u8; header_len];
    open(16)?.read_exact(&mut header_bytes)?;
    if crc32(&header_bytes) != header_crc {
        return Err(SnapshotError::ChecksumMismatch("header"));
    }
    let mut h = Reader::new(&header_bytes);
    let version = h.u32()?;
    if version != VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    let epoch = h.u64()?;
    let last_seq = h.u64()?;
    let fragment = h.str()?.to_owned();
    let base = match h.u8()? {
        0 => None,
        1 => Some((h.u64()?, h.u32()?)),
        _ => return Err(SnapshotError::Malformed("bad header")),
    };
    let section_count = h.u32()?;
    if section_count != 3 || !h.done() {
        return Err(SnapshotError::Malformed("bad header"));
    }

    let after = |entry: &SectionEntry| {
        entry
            .payload
            .checked_add(entry.len)
            .ok_or(SnapshotError::Truncated)
    };
    let dict = section_entry(open, 16 + header_len as u64, TAG_DICT)?;
    let base_section = section_entry(open, after(&dict)?, TAG_BASE)?;
    let matl = section_entry(open, after(&base_section)?, TAG_MATL)?;
    // The file ends exactly where the last section does.
    let end = after(&matl)?;
    let mut tail = Vec::with_capacity(2);
    open(end - 1)?.take(2).read_to_end(&mut tail)?;
    match tail.len() {
        0 => return Err(SnapshotError::Truncated),
        1 => {}
        _ => return Err(SnapshotError::Malformed("trailing bytes after sections")),
    }
    Ok(Frame {
        header_crc,
        epoch,
        last_seq,
        fragment,
        base,
        sections: [dict, base_section, matl],
    })
}

/// The one reader: validates and decodes an image from handles `open`
/// gives — a full image on the empty base, or a delta on the image it
/// names, given.
///
/// Each section decodes from its own handle through one [`IMAGE_BLOCK`],
/// keeping its CRC as it reads; the dictionary on one pool lane, the two
/// stores on another: this is the cold-start critical path, and the
/// dictionary rebuild does not need to wait on two multi-megabyte
/// pair-table passes (or vice versa).
fn read_image(
    open: &Open<'_>,
    on: Option<SnapshotImage>,
) -> Result<(SnapshotImage, Stages), SnapshotError> {
    let start = Instant::now();
    let frame = read_frame(open)?;
    let on = match (frame.base, on) {
        (None, None) => None,
        (Some((epoch, _)), Some(on)) if on.epoch == epoch && on.fragment == frame.fragment => {
            Some(on)
        }
        (None, Some(_)) => return Err(SnapshotError::Malformed("not a delta image")),
        (Some(_), None) => return Err(SnapshotError::Malformed("a delta image needs its base")),
        (Some(_), Some(_)) => {
            return Err(SnapshotError::Malformed("a delta image on another base"))
        }
    };
    let (dictionary_on, base_on, matl_on) = match on {
        Some(on) => (Some(on.dictionary), Some(on.base), Some(on.materialized)),
        None => (None, None, None),
    };
    let (base_on, matl_on) = (base_on.as_ref(), matl_on.as_ref());
    let [dict, base, matl] = &frame.sections;
    let reader = |entry: &SectionEntry| -> Result<_, SnapshotError> {
        Ok(SectionReader::new(open(entry.payload)?, entry.len))
    };
    // Two lanes: the dictionary on one, the two stores one after the other
    // on the other. The dictionary costs about what both stores cost
    // together, so a third lane shortens nothing, and where there are two
    // cores it takes the dictionary's time away from it.
    type DecodeTask<'a> =
        Box<dyn FnOnce() -> Vec<(Result<Section, SnapshotError>, Duration)> + Send + 'a>;
    let lanes = inferray_parallel::global().run_ordered(vec![
        Box::new(|| {
            vec![timed(|| {
                decode_dictionary(reader(dict)?, dict.crc, dictionary_on).map(Section::Dict)
            })]
        }) as DecodeTask<'_>,
        Box::new(|| {
            vec![
                timed(|| {
                    decode_store(reader(base)?, base.crc, "BASE", base_on).map(Section::Store)
                }),
                timed(|| {
                    decode_store(reader(matl)?, matl.crc, "MATL", matl_on).map(Section::Store)
                }),
            ]
        }),
    ]);
    let mut sections: Vec<_> = lanes.into_iter().flatten().collect();
    // run_ordered returns exactly as many results as tasks, in order; a
    // mismatch (or a task yielding the wrong section kind) is reported as
    // a malformed image rather than panicking mid-recovery.
    let mut stages = Stages::default();
    let mut pop_section = |stage: Stage, label: &'static str| -> Result<Section, SnapshotError> {
        let (section, time) = sections.pop().ok_or(SnapshotError::Malformed(label))?;
        stages.add(stage, time);
        section
    };
    let Section::Store(materialized) = pop_section(Stage::Matl, "missing MATL section")? else {
        return Err(SnapshotError::Malformed("MATL section is not a store"));
    };
    let Section::Store(base) = pop_section(Stage::Base, "missing BASE section")? else {
        return Err(SnapshotError::Malformed("BASE section is not a store"));
    };
    let Section::Dict(dictionary) = pop_section(Stage::Dict, "missing DICT section")? else {
        return Err(SnapshotError::Malformed("DICT section is not a dictionary"));
    };
    let image = SnapshotImage {
        epoch: frame.epoch,
        last_seq: frame.last_seq,
        fragment: frame.fragment,
        dictionary,
        base,
        materialized,
    };
    stages.add(Stage::Image, start.elapsed());
    Ok((image, stages))
}

/// What `decode` returns, and how long it took.
fn timed<T>(decode: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = decode();
    (out, start.elapsed())
}

/// Handles on a slice.
fn slice_handles<'a>(
    bytes: &'a [u8],
) -> impl Fn(u64) -> io::Result<Box<dyn Read + Send + 'a>> + Sync + 'a {
    move |offset| {
        let from = usize::try_from(offset).map_or(bytes.len(), |at| at.min(bytes.len()));
        Ok(Box::new(&bytes[from..]) as Box<dyn Read + Send>)
    }
}

/// Validates and decodes the full snapshot image in `bytes`: the image
/// reader over a slice.
pub fn decode_image(bytes: &[u8]) -> Result<SnapshotImage, SnapshotError> {
    Ok(read_image(&slice_handles(bytes), None)?.0)
}

/// Validates and decodes the delta image in `bytes` on top of `base`, the
/// full image it names.
pub fn decode_delta_image(
    bytes: &[u8],
    base: SnapshotImage,
) -> Result<SnapshotImage, SnapshotError> {
    Ok(read_image(&slice_handles(bytes), Some(base))?.0)
}

/// Validates and decodes the full snapshot image at `path`, reading each
/// section from a handle of its own (see [`IoBackend::open_at`]): the
/// image is never in memory whole.
pub fn open_image(backend: &dyn IoBackend, path: &Path) -> Result<SnapshotImage, SnapshotError> {
    Ok(read_image(&|offset| backend.open_at(path, offset), None)?.0)
}

/// The file of the full image a delta image names: its base's epoch's
/// [`snapshot_file_name`], beside it.
fn base_path(delta: &Path, base_epoch: u64) -> PathBuf {
    delta.with_file_name(snapshot_file_name(base_epoch))
}

/// What the image at `path` needs of the files beside it, from its header
/// alone: the log past its `last_seq`, and — for a delta — its base's path.
pub fn image_needs(
    backend: &dyn IoBackend,
    path: &Path,
) -> Result<(u64, Option<PathBuf>), SnapshotError> {
    let frame = read_frame(&|offset| backend.open_at(path, offset))?;
    let base = frame.base.map(|(epoch, _)| base_path(path, epoch));
    Ok((frame.last_seq, base))
}

/// An image read for recovery: the state, the base's path for a delta,
/// and where the reading went.
#[derive(Debug)]
pub struct Recovered {
    /// The state the image records.
    pub image: SnapshotImage,
    /// For a delta, the full image it was read on top of.
    pub base: Option<PathBuf>,
    /// Where the reading went: the image stage with each section's decode
    /// inside it (the dictionary on one pool lane, the two stores one after
    /// the other on another), a delta's base's added.
    pub stages: Stages,
}

/// Validates and decodes the image at `path` into the state it records: a
/// full image on its own ([`open_image`]), a delta on top of the full
/// image it names — which must be present, a full image, valid, and carry
/// the header CRC the delta names.
pub fn open_recoverable(backend: &dyn IoBackend, path: &Path) -> Result<Recovered, SnapshotError> {
    let open = |offset| backend.open_at(path, offset);
    let frame = read_frame(&open)?;
    let Some((base_epoch, base_crc)) = frame.base else {
        let (image, stages) = read_image(&open, None)?;
        return Ok(Recovered {
            image,
            base: None,
            stages,
        });
    };
    let base = base_path(path, base_epoch);
    let open_base = |offset| backend.open_at(&base, offset);
    let named = read_frame(&open_base)?;
    if named.base.is_some() || named.header_crc != base_crc {
        return Err(SnapshotError::Malformed(
            "the base of a delta image is not the image it names",
        ));
    }
    let (on, mut stages) = read_image(&open_base, None)?;
    let (image, delta_stages) = read_image(&open, Some(on))?;
    stages += delta_stages;
    Ok(Recovered {
        image,
        base: Some(base),
        stages,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use inferray_model::ids::nth_resource_id;
    use inferray_model::{IdTriple, Term, Triple};

    fn sample() -> (Dictionary, TripleStore, TripleStore) {
        let mut dictionary = Dictionary::new();
        let triples = [
            Triple::iris("http://ex/a", "http://ex/p", "http://ex/b"),
            Triple::iris("http://ex/b", "http://ex/p", "http://ex/c"),
            Triple::new(
                Term::Iri("http://ex/a".into()),
                Term::Iri("http://ex/label".into()),
                Term::Literal {
                    lexical: "chat".into(),
                    datatype: None,
                    language: Some("fr".into()),
                },
            ),
        ];
        let mut base = TripleStore::new();
        for t in &triples {
            base.add_triple(dictionary.encode_triple(t).unwrap());
        }
        base.finalize();
        let materialized = base.clone();
        (dictionary, base, materialized)
    }

    #[test]
    fn round_trips_byte_identically() {
        let (dictionary, base, materialized) = sample();
        let bytes = encode_image(&dictionary, &base, &materialized, 7, 42, "RDFS-default");
        assert_eq!(&bytes[..8], MAGIC);
        let image = decode_image(&bytes).unwrap();
        assert_eq!(image.epoch, 7);
        assert_eq!(image.last_seq, 42);
        assert_eq!(image.fragment, "RDFS-default");
        assert_eq!(image.dictionary, dictionary);
        assert_eq!(image.base, base);
        assert_eq!(image.materialized, materialized);
        // The dictionary comes back as it sat in memory, so it encodes to
        // the same bytes.
        assert_eq!(image.dictionary.raw_len(), dictionary.raw_len());
        let again = encode_image(
            &image.dictionary,
            &image.base,
            &image.materialized,
            7,
            42,
            "RDFS-default",
        );
        assert_eq!(again, bytes);
    }

    #[test]
    fn preserves_none_versus_empty_slots() {
        let (dictionary, mut base, _) = sample();
        // Empty a table without removing its slot: the recovered store must
        // reproduce Some(empty), not None.
        let p = dictionary.id_of_iri("http://ex/p").unwrap();
        let pairs: Vec<u64> = base.table(p).unwrap().pairs().to_vec();
        base.remove_pairs(p, &pairs);
        assert!(base.table(p).is_some());
        let bytes = encode_image(&dictionary, &base, &base, 1, 0, "f");
        let image = decode_image(&bytes).unwrap();
        assert_eq!(image.base, base);
        assert!(image.base.table(p).is_some());
        assert!(image.base.table(p).unwrap().is_empty());
    }

    #[test]
    fn every_single_byte_corruption_is_caught_or_harmless() {
        let (dictionary, base, materialized) = sample();
        let bytes = encode_image(&dictionary, &base, &materialized, 3, 9, "rho-df");
        let clean = decode_image(&bytes).unwrap();
        for offset in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[offset] ^= 0x01;
            // Either the decoder rejects the image, or (never, for a
            // one-bit flip under CRC-32 per section) it decodes to the
            // same value.
            if let Ok(image) = decode_image(&corrupt) {
                assert_eq!(image, clean, "undetected corruption at byte {offset}");
            }
        }
    }

    #[test]
    fn truncations_are_rejected() {
        let (dictionary, base, materialized) = sample();
        let bytes = encode_image(&dictionary, &base, &materialized, 3, 9, "rho-df");
        for cut in 0..bytes.len() {
            assert!(decode_image(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    /// Where each section's payload starts, and its length.
    fn payloads(bytes: &[u8]) -> Vec<(usize, usize)> {
        let mut at = 16 + u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        (0..3)
            .map(|_| {
                let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()) as usize;
                let payload = (at + 16, len);
                at += 16 + len;
                payload
            })
            .collect()
    }

    /// `bytes` with the payload of the section at `at` (of length `len`)
    /// changed by `change`, and its CRC set to match.
    fn rewritten(bytes: &[u8], (at, len): (usize, usize), change: impl Fn(&mut [u8])) -> Vec<u8> {
        let mut bytes = bytes.to_vec();
        change(&mut bytes[at..at + len]);
        let crc = crc32(&bytes[at..at + len]);
        bytes[at - 4..at].copy_from_slice(&crc.to_le_bytes());
        bytes
    }

    #[test]
    fn corruption_and_truncation_of_a_file_are_caught_through_its_handles() {
        let (dictionary, base, materialized) = sample();
        let bytes = encode_image(&dictionary, &base, &materialized, 3, 9, "rho-df");
        let path = Path::new("d/snapshot.img");
        for offset in (0..bytes.len()).step_by(7) {
            let fs = crate::io::MemFs::new();
            let mut corrupt = bytes.clone();
            corrupt[offset] ^= 0x10;
            fs.write_atomic(path, &corrupt).unwrap();
            assert!(open_image(&fs, path).is_err(), "flip at byte {offset}");
            fs.write_atomic(path, &bytes[..offset]).unwrap();
            assert!(open_image(&fs, path).is_err(), "cut at {offset}");
        }
    }

    #[test]
    fn a_count_larger_than_its_section_is_refused_before_it_is_allocated() {
        let (dictionary, base, materialized) = sample();
        let bytes = encode_image(&dictionary, &base, &materialized, 3, 9, "rho-df");
        let [(dict, _), _, (matl, _)] = payloads(&bytes)[..] else {
            unreachable!()
        };
        // Sixteen terabytes of pairs, or a trillion terms, end offsets or
        // text bytes: reserving any would abort the process, so refusing
        // them is the only way to pass.
        let huge = (1u64 << 40).to_le_bytes();
        for field in [2, 3, 6, 7] {
            let at = dict + 8 * field;
            let mut counts = bytes.clone();
            counts[at..at + 8].copy_from_slice(&huge);
            assert_eq!(
                decode_image(&counts),
                Err(SnapshotError::Truncated),
                "{field}"
            );
        }
        let mut pairs = bytes.clone();
        let mut slot = matl + 8;
        while pairs[slot] == 0 {
            slot += 1;
        }
        pairs[slot + 1..slot + 9].copy_from_slice(&huge);
        assert_eq!(decode_image(&pairs), Err(SnapshotError::Truncated));
    }

    #[test]
    fn a_dictionary_section_that_passes_its_crc_is_still_checked() {
        let (dictionary, base, materialized) = sample();
        let bytes = encode_image(&dictionary, &base, &materialized, 3, 9, "rho-df");
        let sections = payloads(&bytes);
        let raw = dictionary.raw_len();
        let (ends, text) = (
            64,
            64 + 8 * raw.entries + 4 * (raw.properties + raw.resources),
        );
        let refused = [
            // The first entry's end moved onto the second's: ends that do
            // not rise.
            (
                rewritten(&bytes, sections[0], |p| {
                    let second: [u8; 8] = p[ends + 8..ends + 16].try_into().unwrap();
                    p[ends..ends + 8].copy_from_slice(&second);
                }),
                "the DICT section's offsets mark out no term texts",
            ),
            // A byte that is no UTF-8.
            (
                rewritten(&bytes, sections[0], |p| p[text + 1] = 0xFF),
                "non-UTF-8 text",
            ),
            // The first term spelled like the second: a duplicate text.
            (
                rewritten(&bytes, sections[0], |p| {
                    let first = u64::from_le_bytes(p[ends..ends + 8].try_into().unwrap());
                    let second = u64::from_le_bytes(p[ends + 8..ends + 16].try_into().unwrap());
                    if first == second - first {
                        let copy = p[text..text + first as usize].to_vec();
                        p[text + first as usize..text + second as usize].copy_from_slice(&copy);
                    }
                }),
                "a term occurs twice in the DICT section",
            ),
            // A property slot naming an entry past the arena.
            (
                rewritten(&bytes, sections[0], |p| {
                    let at = 64 + 8 * raw.entries;
                    p[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
                }),
                "the DICT section's tables and arena disagree",
            ),
        ];
        for (image, why) in refused {
            assert_eq!(decode_image(&image), Err(SnapshotError::Malformed(why)));
        }
    }

    #[test]
    fn a_pair_word_is_widened_and_checked_for_order() {
        let (dictionary, base, materialized) = sample();
        let bytes = encode_image(&dictionary, &base, &materialized, 3, 9, "rho-df");
        let (matl, len) = payloads(&bytes)[2];
        // The first table with two pairs: swap them.
        let mut at = matl + 8;
        let slot = loop {
            if bytes[at] == SLOT_TABLE {
                let count = u64::from_le_bytes(bytes[at + 1..at + 9].try_into().unwrap());
                if count >= 2 {
                    break at;
                }
                at += 9 + 8 * count as usize;
            } else {
                at += 1;
            }
        };
        let unsorted = rewritten(&bytes, (matl, len), |p| {
            let words = slot - matl + 9;
            let (first, second) = p[words..words + 16].split_at_mut(8);
            first.swap_with_slice(second);
        });
        assert_eq!(
            decode_image(&unsorted),
            Err(SnapshotError::Malformed("unsorted pair table"))
        );
    }

    #[test]
    fn a_pair_word_the_dictionary_cannot_number_fails_the_write() {
        let (dictionary, base, _) = sample();
        let stray =
            TripleStore::from_slot_tables(vec![Some(PropertyTable::from_pairs(vec![1, 2]))]);
        let mut sink = Vec::new();
        let error = write_image(&mut sink, &dictionary, &base, &stray, 1, 0, "f").unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::InvalidInput);
    }

    /// A sink that records the pieces it is handed.
    #[derive(Default)]
    struct Recorder {
        bytes: Vec<u8>,
        largest_append: usize,
    }

    impl StreamSink for Recorder {
        fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
            self.largest_append = self.largest_append.max(bytes.len());
            self.bytes.extend_from_slice(bytes);
            Ok(())
        }

        fn patch(&mut self, offset: u64, bytes: &[u8]) -> io::Result<()> {
            self.bytes.patch(offset, bytes)
        }
    }

    /// A slice reader that records the reads asked of it.
    struct Counted<'a> {
        bytes: &'a [u8],
        largest_read: &'a std::sync::atomic::AtomicUsize,
        total: &'a std::sync::atomic::AtomicUsize,
    }

    impl Read for Counted<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            use std::sync::atomic::Ordering::Relaxed;
            self.largest_read.fetch_max(buf.len(), Relaxed);
            let n = self.bytes.read(buf)?;
            self.total.fetch_add(n, Relaxed);
            Ok(n)
        }
    }

    #[test]
    fn an_image_passes_through_one_block_each_way() {
        use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
        let (dictionary, _, _) = sample();
        // Tables several blocks long, and a dictionary several blocks long.
        let pairs: Vec<u64> = (0..400_000)
            .flat_map(|i| [nth_resource_id(i), nth_resource_id(i + 1)])
            .collect();
        let store =
            TripleStore::from_slot_tables(vec![None, Some(PropertyTable::from_pairs(pairs))]);
        let mut big = dictionary.clone();
        for i in 0..40_000 {
            big.encode_as_resource(&Term::iri(format!("http://ex/a-longer-name/{i}")));
        }
        let mut sink = Recorder::default();
        let len = write_image(&mut sink, &big, &store, &store, 1, 2, "f").unwrap();
        assert!(len as usize > 10 * IMAGE_BLOCK);
        assert!(payloads(&sink.bytes)[0].1 > 4 * IMAGE_BLOCK);
        assert_eq!(sink.bytes.len() as u64, len);
        assert_eq!(sink.largest_append, IMAGE_BLOCK);

        let (largest_read, total) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let (image, times) = read_image(
            &|offset| {
                Ok(Box::new(Counted {
                    bytes: &sink.bytes[offset as usize..],
                    largest_read: &largest_read,
                    total: &total,
                }) as Box<dyn Read + Send>)
            },
            None,
        )
        .unwrap();
        assert_eq!(image.materialized, store);
        assert_eq!(image.dictionary, big);
        // Every read fits in a block, and the file is read once, plus the
        // one byte that shows where it ends.
        assert!(largest_read.load(Relaxed) <= IMAGE_BLOCK);
        assert_eq!(total.load(Relaxed), sink.bytes.len() + 1);
        // Each section's decode lies inside the read.
        let image = times.get(Stage::Image).expect("the image stage");
        for section in [Stage::Dict, Stage::Base, Stage::Matl] {
            assert!(times.get(section).is_some_and(|t| t <= image), "{times}");
        }
    }

    /// `sample()` recorded as a full image at epoch 3, and a later state:
    /// one table rewritten, one added, one new term.
    fn delta_sample() -> (SnapshotImage, BaseImage, Vec<u8>, SnapshotImage) {
        let (dictionary, base, materialized) = sample();
        let parts = ImageParts {
            dictionary: &dictionary,
            base: &base,
            materialized: &materialized,
            epoch: 3,
            last_seq: 9,
            fragment: "rho-df",
        };
        let mut full = Vec::new();
        let record = write_base_image(&mut full, parts).unwrap();
        let mut grown = dictionary.clone();
        let later = grown
            .encode_triple(&Triple::iris("http://ex/c", "http://ex/q", "http://ex/d"))
            .unwrap();
        let p = dictionary.id_of_iri("http://ex/p").unwrap();
        let mut materialized = materialized.clone();
        materialized.insert([later, IdTriple::new(later.s, p, later.o)]);
        let parts = ImageParts {
            dictionary: &grown,
            materialized: &materialized,
            epoch: 5,
            last_seq: 12,
            ..parts
        };
        let mut delta = Vec::new();
        write_delta_image(&mut delta, parts, &record).unwrap();
        let expected = SnapshotImage {
            epoch: 5,
            last_seq: 12,
            fragment: "rho-df".into(),
            dictionary: grown,
            base,
            materialized,
        };
        (decode_image(&full).unwrap(), record, delta, expected)
    }

    #[test]
    fn a_delta_decodes_on_its_base_to_the_state_it_was_written_from() {
        let (base, record, delta, expected) = delta_sample();
        let estimate = record
            .delta_bytes(&ImageParts {
                dictionary: &expected.dictionary,
                base: &expected.base,
                materialized: &expected.materialized,
                epoch: 5,
                last_seq: 12,
                fragment: "rho-df",
            })
            .unwrap();
        assert_eq!(estimate, delta.len() as u64);
        assert_eq!(&delta[..8], MAGIC);
        let image = decode_delta_image(&delta, base.clone()).unwrap();
        assert_eq!(image, expected);
        // Nothing of the base store changed: every table of it is the
        // base's table itself.
        let now = image.base.slot_tables().iter().flatten();
        let then = base.base.slot_tables().iter().flatten();
        assert!(now.zip(then).all(|(a, b)| Arc::ptr_eq(a, b)));
        // Neither reader takes the other's kind, nor a delta on another
        // epoch.
        assert_eq!(
            decode_image(&delta),
            Err(SnapshotError::Malformed("a delta image needs its base"))
        );
        let full = encode_image(
            &base.dictionary,
            &base.base,
            &base.materialized,
            3,
            9,
            "rho-df",
        );
        assert_eq!(
            decode_delta_image(&full, base.clone()),
            Err(SnapshotError::Malformed("not a delta image"))
        );
        let elsewhere = SnapshotImage { epoch: 4, ..base };
        assert!(decode_delta_image(&delta, elsewhere).is_err());
    }

    #[test]
    fn every_single_byte_corruption_and_every_cut_of_a_delta_is_caught_or_harmless() {
        let (base, _, delta, expected) = delta_sample();
        for offset in 0..delta.len() {
            let mut corrupt = delta.clone();
            corrupt[offset] ^= 0x01;
            if let Ok(image) = decode_delta_image(&corrupt, base.clone()) {
                assert_eq!(image, expected, "undetected corruption at byte {offset}");
            }
            assert!(
                decode_delta_image(&delta[..offset], base.clone()).is_err(),
                "cut at {offset}"
            );
        }
    }

    #[test]
    fn a_full_image_is_a_delta_on_the_empty_base() {
        let (dictionary, base, materialized) = sample();
        let bytes = encode_image(&dictionary, &base, &materialized, 3, 9, "rho-df");
        let (matl, len) = payloads(&bytes)[2];
        let slot = matl
            + 8
            + (0..len)
                .find(|&i| bytes[matl + 8 + i] == SLOT_TABLE)
                .unwrap();
        // The empty base has no table to be "as in base".
        let as_in_base = rewritten(&bytes, (matl, len), |p| p[slot - matl] = SLOT_AS_IN_BASE);
        assert_eq!(
            decode_image(&as_in_base),
            Err(SnapshotError::Malformed(
                "a table as in base the base lacks"
            ))
        );
        // Nor terms to extend.
        let (dict, len) = payloads(&bytes)[0];
        let on_terms = rewritten(&bytes, (dict, len), |p| p[0] = 1);
        assert_eq!(
            decode_image(&on_terms),
            Err(SnapshotError::Malformed(
                "a delta's dictionary does not extend its base's"
            ))
        );
    }

    #[test]
    fn file_names_round_trip_and_sort_numerically() {
        assert_eq!(parse_snapshot_file_name(&snapshot_file_name(0)), Some(0));
        assert_eq!(
            parse_snapshot_file_name(&snapshot_file_name(u64::MAX)),
            Some(u64::MAX)
        );
        assert!(snapshot_file_name(9) < snapshot_file_name(10));
        assert_eq!(parse_snapshot_file_name("wal.log"), None);
        assert_eq!(parse_snapshot_file_name("snapshot-1.img"), None);
    }
}
