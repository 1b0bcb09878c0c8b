//! The snapshot image: dictionary + base + materialized pair tables +
//! epoch, serialized as a length-prefixed, CRC-checked, mmap-able file.
//!
//! ## File layout (all integers little-endian)
//!
//! ```text
//! magic      "IFRYSNP1"                      8 bytes
//! header_len u32 · header_crc u32            CRC over the header payload
//! header     version u32 = 1
//!            epoch u64 · last_seq u64
//!            fragment_len u32 · fragment     UTF-8 fragment name
//!            section_count u32 = 3
//! section ×3 tag [u8;4] · len u64 · crc u32 · payload
//! ```
//!
//! Sections appear in order `DICT`, `BASE`, `MATL`. Each pair table inside
//! a store section is the store's flat sorted `[s0,o0,s1,o1,…]` array
//! written verbatim as little-endian `u64`s — 8-byte aligned and
//! contiguous, so an `mmap` implementation could point table slices
//! straight into the file. This crate forbids `unsafe`, so recovery
//! instead does the next-best thing: one pass per table from the file into
//! a `Vec<u64>` of the table's exact size.
//!
//! ## One block each way
//!
//! Neither direction holds the image in memory. The checkpoint thread
//! streams it ([`write_image`]) through one [`IMAGE_BLOCK`] into the
//! image's temp file; a section's length and CRC — known only once its
//! payload is written — are patched in behind it, the CRC kept running
//! ([`Crc32`]) as the blocks leave. A cold start ([`open_image`]) reads the
//! header and the section table, checks that the file ends where the last
//! section does, and then decodes each section on its own pool lane, from
//! its own handle and offset, through one block, keeping its CRC as it
//! reads. What the decoder allocates is the decoded dictionary and tables,
//! each at a size it first holds to what its section still contains; a
//! section whose CRC fails is discarded whole. [`encode_image`] and
//! [`decode_image`] are the same writer and reader over memory.
//!
//! The store sections preserve the **exact slot layout** of the in-memory
//! `TripleStore` — `None` slots versus allocated-but-empty tables — because
//! the crash-recovery suite asserts recovered stores equal their pre-crash
//! originals under `PartialEq`, which observes that difference.
//!
//! `last_seq` is the WAL sequence number the image covers: replay skips
//! records at or below it, which is what makes "checkpoint, then crash
//! before truncating the log" safe.

use crate::crc::{crc32, Crc32};
use crate::io::{IoBackend, StreamSink};
use inferray_dictionary::{DenseTableError, Dictionary};
use inferray_model::TermRef;
use inferray_store::{as_pairs, PropertyTable, TripleStore};
use std::borrow::Cow;
use std::fmt;
use std::io::{self, Read};
use std::path::Path;

/// File magic: "Inferray snapshot, format 1".
pub const MAGIC: &[u8; 8] = b"IFRYSNP1";
/// Current format version.
pub const VERSION: u32 = 1;

const TAG_DICT: &[u8; 4] = b"DICT";
const TAG_BASE: &[u8; 4] = b"BASE";
const TAG_MATL: &[u8; 4] = b"MATL";

const TERM_IRI: u8 = 0;
const TERM_BLANK: u8 = 1;
const TERM_LITERAL: u8 = 2;

const FLAG_DATATYPE: u8 = 1;
const FLAG_LANGUAGE: u8 = 2;

/// Why an image failed to decode. Every variant means "this file is not a
/// valid snapshot" — recovery falls back to the next-older image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file ends before the structure it promises.
    Truncated,
    /// The file does not start with [`MAGIC`].
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
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
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
    format!("snapshot-{epoch:020}.img")
}

/// Parses an epoch back out of a [`snapshot_file_name`]-shaped file name.
pub fn parse_snapshot_file_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("snapshot-")?.strip_suffix(".img")?;
    if digits.len() != 20 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// The one buffer an image passes through, each way: the checkpoint thread
/// fills one block at a time and hands it to the file, and each section of
/// a cold start decodes out of one block read from its own handle. A block
/// grows past this only for a single term record longer than it.
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

    /// Appends `bytes`. A piece that fits nowhere in a block (a term
    /// longer than one) goes to the sink as it is, behind the flushed block.
    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        if self.block.len() + bytes.len() > IMAGE_BLOCK {
            self.flush()?;
            if bytes.len() > IMAGE_BLOCK {
                self.crc.update(bytes);
                self.sink.append(bytes)?;
                self.flushed += bytes.len() as u64;
                return Ok(());
            }
        }
        self.block.extend_from_slice(bytes);
        Ok(())
    }

    fn put_u32(&mut self, v: u32) -> io::Result<()> {
        self.put(&v.to_le_bytes())
    }

    fn put_u64(&mut self, v: u64) -> io::Result<()> {
        self.put(&v.to_le_bytes())
    }

    fn put_str(&mut self, s: &str) -> io::Result<()> {
        self.put_u32(s.len() as u32)?;
        self.put(s.as_bytes())
    }

    /// Appends `words` little-endian, a block's worth at a time.
    fn put_words(&mut self, mut words: &[u64]) -> io::Result<()> {
        while !words.is_empty() {
            let room = (IMAGE_BLOCK - self.block.len()) / 8;
            if room == 0 {
                self.flush()?;
                continue;
            }
            let (now, later) = words.split_at(room.min(words.len()));
            for word in now {
                self.block.extend_from_slice(&word.to_le_bytes());
            }
            words = later;
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

    fn put_term(&mut self, term: &TermRef<'_>) -> io::Result<()> {
        match term {
            TermRef::Iri(iri) => {
                self.put(&[TERM_IRI])?;
                self.put_str(iri)
            }
            TermRef::Blank(label) => {
                self.put(&[TERM_BLANK])?;
                self.put_str(label)
            }
            TermRef::Literal {
                lexical,
                datatype,
                language,
            } => {
                self.put(&[TERM_LITERAL])?;
                self.put_str(lexical)?;
                let mut flags = 0u8;
                if datatype.is_some() {
                    flags |= FLAG_DATATYPE;
                }
                if language.is_some() {
                    flags |= FLAG_LANGUAGE;
                }
                self.put(&[flags])?;
                if let Some(dt) = datatype {
                    self.put_str(dt)?;
                }
                if let Some(lang) = language {
                    self.put_str(lang)?;
                }
                Ok(())
            }
        }
    }

    /// The `DICT` section: both term counts, then every term of the
    /// property table and of the resource table in dense order, each as a
    /// tagged, length-prefixed record. The records are transcoded from the
    /// dictionary's arena text (its canonical N-Triples forms) through a
    /// borrowed view — no `Term` is built — and [`decode_dictionary`]
    /// transcodes them back.
    fn put_dictionary(&mut self, dictionary: &Dictionary) -> io::Result<()> {
        self.put_u64(dictionary.num_properties() as u64)?;
        self.put_u64(dictionary.num_resources() as u64)?;
        for text in dictionary.texts() {
            let term = TermRef::from_ntriples(text).expect("the arena holds canonical term text");
            self.put_term(&term)?;
        }
        Ok(())
    }

    /// A store section: the slot count, then per slot a marker and, for a
    /// table, its pair count and its flat pair array.
    fn put_store(&mut self, store: &TripleStore) -> io::Result<()> {
        let slots = store.slot_tables();
        self.put_u64(slots.len() as u64)?;
        for slot in slots {
            match slot {
                None => self.put(&[0])?,
                Some(table) => {
                    self.put(&[1])?;
                    let pairs = table.pairs();
                    self.put_u64(as_pairs(pairs).len() as u64)?;
                    self.put_words(pairs)?;
                }
            }
        }
        Ok(())
    }

    /// Flushes the last block; returns the image's length.
    fn finish(mut self) -> io::Result<u64> {
        self.flush()?;
        Ok(self.flushed)
    }
}

/// Streams a complete snapshot image into `sink` through one
/// [`IMAGE_BLOCK`] and returns its length in bytes.
///
/// The stores must be finalized (sorted, duplicate-free) — they always are
/// by the time they are observable through
/// `ServingDataset::persistable_state`. A threshold checkpoint runs this
/// beside the next writes (`DurableDataset`), straight into the image's
/// temp file: it holds no more of the image than one block, and it queues
/// nothing in front of a write's tasks on the reasoner's pool.
pub fn write_image(
    sink: &mut dyn StreamSink,
    dictionary: &Dictionary,
    base: &TripleStore,
    materialized: &TripleStore,
    epoch: u64,
    last_seq: u64,
    fragment: &str,
) -> io::Result<u64> {
    let mut header = Vec::new();
    header.extend_from_slice(&VERSION.to_le_bytes());
    header.extend_from_slice(&epoch.to_le_bytes());
    header.extend_from_slice(&last_seq.to_le_bytes());
    header.extend_from_slice(&(fragment.len() as u32).to_le_bytes());
    header.extend_from_slice(fragment.as_bytes());
    header.extend_from_slice(&3u32.to_le_bytes());

    let mut w = ImageWriter::new(sink);
    w.put(MAGIC)?;
    w.put_u32(header.len() as u32)?;
    w.put_u32(crc32(&header))?;
    w.put(&header)?;
    w.section(TAG_DICT, |w| w.put_dictionary(dictionary))?;
    w.section(TAG_BASE, |w| w.put_store(base))?;
    w.section(TAG_MATL, |w| w.put_store(materialized))?;
    w.finish()
}

/// Serializes a complete snapshot image into memory: [`write_image`] into a
/// `Vec`.
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
    debug_assert_eq!(written.ok(), Some(out.len() as u64));
    out
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A cursor over bytes already in memory: the header, and one term record
/// in a section's block.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// After a [`SnapshotError::Truncated`]: how many bytes the read needed.
    wanted: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader {
            bytes,
            pos: 0,
            wanted: 0,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.bytes.len() {
            self.wanted = end;
            return Err(SnapshotError::Truncated);
        }
        let slice = &self.bytes[self.pos..end];
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

fn decode_term<'a>(r: &mut Reader<'a>) -> Result<TermRef<'a>, SnapshotError> {
    match r.u8()? {
        TERM_IRI => Ok(TermRef::Iri(Cow::Borrowed(r.str()?))),
        TERM_BLANK => Ok(TermRef::Blank(Cow::Borrowed(r.str()?))),
        TERM_LITERAL => {
            let lexical = Cow::Borrowed(r.str()?);
            let flags = r.u8()?;
            if flags & !(FLAG_DATATYPE | FLAG_LANGUAGE) != 0 {
                return Err(SnapshotError::Malformed("unknown literal flags"));
            }
            let datatype = if flags & FLAG_DATATYPE != 0 {
                Some(Cow::Borrowed(r.str()?))
            } else {
                None
            };
            let language = if flags & FLAG_LANGUAGE != 0 {
                Some(Cow::Borrowed(r.str()?))
            } else {
                None
            };
            Ok(TermRef::Literal {
                lexical,
                datatype,
                language,
            })
        }
        _ => Err(SnapshotError::Malformed("unknown term tag")),
    }
}

impl From<DenseTableError> for SnapshotError {
    fn from(error: DenseTableError) -> Self {
        SnapshotError::Malformed(match error {
            DenseTableError::DuplicateTerm => "a term occurs twice in the DICT section",
            DenseTableError::TooManyTerms => "too many terms in the DICT section",
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

    /// The undecoded bytes in the block, at least `n` of them: the block is
    /// refilled behind what it still holds. It grows past [`IMAGE_BLOCK`]
    /// only for a record longer than that, and never past what the section
    /// still holds: a record the section cannot contain is
    /// [`SnapshotError::Truncated`] before anything is read for it.
    fn ensure(&mut self, n: usize) -> Result<&[u8], SnapshotError> {
        let held = self.block.len() - self.pos;
        if held < n {
            if (n - held) as u64 > self.unread {
                return Err(SnapshotError::Truncated);
            }
            self.block.drain(..self.pos);
            self.pos = 0;
            let want = ((n.max(IMAGE_BLOCK) - held) as u64).min(self.unread) as usize;
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

    /// Decodes one term record and hands its borrowed view to `with`.
    fn term<T>(&mut self, with: impl FnOnce(TermRef<'_>) -> T) -> Result<T, SnapshotError> {
        let mut need = MIN_TERM_RECORD_BYTES;
        loop {
            let mut record = Reader::new(self.ensure(need)?);
            match decode_term(&mut record) {
                Ok(term) => {
                    let used = record.pos;
                    let out = with(term);
                    self.pos += used;
                    return Ok(out);
                }
                // The record runs on past the block: read on to its end.
                Err(SnapshotError::Truncated) if record.wanted > need => need = record.wanted,
                Err(e) => return Err(e),
            }
        }
    }

    /// Appends `count` little-endian words to `out`, a block at a time.
    fn words(&mut self, mut count: usize, out: &mut Vec<u64>) -> Result<(), SnapshotError> {
        while count > 0 {
            let bytes = self.ensure(8)?;
            let n = count.min(bytes.len() / 8);
            out.extend(
                bytes[..n * 8]
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]])),
            );
            self.pos += n * 8;
            count -= n;
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

/// The smallest term record: a tag byte and a `u32` length.
const MIN_TERM_RECORD_BYTES: usize = 5;

fn decode_dictionary<R: Read>(
    mut r: SectionReader<R>,
    crc: u32,
) -> Result<Dictionary, SnapshotError> {
    let num_properties = r.u64()? as usize;
    let num_resources = r.u64()? as usize;
    // The dictionary reserves its tables from these counts: hold them to
    // what the payload can contain first.
    let room = usize::try_from(r.remaining() / MIN_TERM_RECORD_BYTES as u64).unwrap_or(usize::MAX);
    if num_properties
        .checked_add(num_resources)
        .is_none_or(|terms| terms > room)
    {
        return Err(SnapshotError::Truncated);
    }
    // Each record is rendered in its canonical N-Triples form straight into
    // the dictionary's arena, borrowed from the block.
    let dictionary = Dictionary::from_dense_texts(num_properties, num_resources, |text| {
        r.term(|term| term.write_ntriples(text))
    })?;
    r.finish(crc, "DICT")?;
    Ok(dictionary)
}

fn decode_store<R: Read>(
    mut r: SectionReader<R>,
    crc: u32,
    name: &'static str,
) -> Result<TripleStore, SnapshotError> {
    let slot_count = r.u64()?;
    // A slot takes one byte at least.
    if slot_count > r.remaining() {
        return Err(SnapshotError::Truncated);
    }
    let mut slots: Vec<Option<PropertyTable>> = Vec::new();
    for _ in 0..slot_count {
        match r.u8()? {
            0 => slots.push(None),
            1 => {
                let pair_count = r.u64()?;
                // The table is allocated at its exact size, so its size is
                // held to what the section still holds first.
                if pair_count
                    .checked_mul(16)
                    .is_none_or(|bytes| bytes > r.remaining())
                {
                    return Err(SnapshotError::Truncated);
                }
                let words = 2 * pair_count as usize;
                let mut pairs = Vec::with_capacity(words);
                r.words(words, &mut pairs)?;
                // Defend the store's sort invariant even against a file
                // that passes its CRC: ⟨s,o⟩ strictly increasing.
                if as_pairs(&pairs).windows(2).any(|w| w[0] >= w[1]) {
                    return Err(SnapshotError::Malformed("unsorted pair table"));
                }
                let mut table = PropertyTable::new();
                table.replace_with_sorted(pairs);
                slots.push(Some(table));
            }
            _ => return Err(SnapshotError::Malformed("unknown slot marker")),
        }
    }
    r.finish(crc, name)?;
    Ok(TripleStore::from_slot_tables(slots))
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

/// Validates and decodes a snapshot image from handles `open` gives.
///
/// The header and the section table are read first, and the file must end
/// where the last section does — so every section's declared length is
/// one the file holds before anything is allocated for it. Then the three
/// sections decode in parallel, each on its own pool lane from its own
/// handle through one [`IMAGE_BLOCK`], keeping its CRC as it reads: this is
/// the cold-start critical path, and the dictionary rebuild does not need
/// to wait on two multi-megabyte pair-table passes (or vice versa).
fn read_image(open: &Open<'_>) -> Result<SnapshotImage, SnapshotError> {
    let front: [u8; 16] = read_at(open, 0)?;
    if &front[..8] != MAGIC {
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
    let base = section_entry(open, after(&dict)?, TAG_BASE)?;
    let matl = section_entry(open, after(&base)?, TAG_MATL)?;
    // The file ends exactly where the last section does.
    let end = after(&matl)?;
    let mut tail = Vec::with_capacity(2);
    open(end - 1)?.take(2).read_to_end(&mut tail)?;
    match tail.len() {
        0 => return Err(SnapshotError::Truncated),
        1 => {}
        _ => return Err(SnapshotError::Malformed("trailing bytes after sections")),
    }

    let reader = |entry: &SectionEntry| -> Result<_, SnapshotError> {
        Ok(SectionReader::new(open(entry.payload)?, entry.len))
    };
    type DecodeTask<'a> = Box<dyn FnOnce() -> Result<Section, SnapshotError> + Send + 'a>;
    let mut sections = inferray_parallel::global().run_ordered(vec![
        Box::new(|| decode_dictionary(reader(&dict)?, dict.crc).map(Section::Dict))
            as DecodeTask<'_>,
        Box::new(|| decode_store(reader(&base)?, base.crc, "BASE").map(Section::Store)),
        Box::new(|| decode_store(reader(&matl)?, matl.crc, "MATL").map(Section::Store)),
    ]);
    // run_ordered returns exactly as many results as tasks, in order; a
    // mismatch (or a task yielding the wrong section kind) is reported as
    // a malformed image rather than panicking mid-recovery.
    let mut pop_section = |label: &'static str| -> Result<Section, SnapshotError> {
        sections
            .pop()
            .ok_or(SnapshotError::Malformed(label))
            .and_then(|r| r)
    };
    let Section::Store(materialized) = pop_section("missing MATL section")? else {
        return Err(SnapshotError::Malformed("MATL section is not a store"));
    };
    let Section::Store(base) = pop_section("missing BASE section")? else {
        return Err(SnapshotError::Malformed("BASE section is not a store"));
    };
    let Section::Dict(dictionary) = pop_section("missing DICT section")? else {
        return Err(SnapshotError::Malformed("DICT section is not a dictionary"));
    };
    Ok(SnapshotImage {
        epoch,
        last_seq,
        fragment,
        dictionary,
        base,
        materialized,
    })
}

/// Validates and decodes the snapshot image in `bytes`: the image reader
/// over a slice.
pub fn decode_image(bytes: &[u8]) -> Result<SnapshotImage, SnapshotError> {
    read_image(&|offset| {
        let from = usize::try_from(offset).map_or(bytes.len(), |at| at.min(bytes.len()));
        Ok(Box::new(&bytes[from..]) as Box<dyn Read + Send>)
    })
}

/// Validates and decodes the snapshot image at `path`, reading each
/// section from a handle of its own (see [`IoBackend::open_at`]): the
/// image is never in memory whole.
pub fn open_image(backend: &dyn IoBackend, path: &Path) -> Result<SnapshotImage, SnapshotError> {
    read_image(&|offset| backend.open_at(path, offset))
}

#[cfg(test)]
mod tests {
    use super::*;
    use inferray_model::{Term, Triple};

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
        let image = decode_image(&bytes).unwrap();
        assert_eq!(image.epoch, 7);
        assert_eq!(image.last_seq, 42);
        assert_eq!(image.fragment, "RDFS-default");
        assert_eq!(image.dictionary, dictionary);
        assert_eq!(image.base, base);
        assert_eq!(image.materialized, materialized);
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
        // Sixteen terabytes of pairs, or a trillion terms: reserving either
        // would abort the process, so refusing them is the only way to pass.
        let huge = (1u64 << 40).to_le_bytes();
        let mut terms = bytes.clone();
        terms[dict + 8..dict + 16].copy_from_slice(&huge);
        assert_eq!(decode_image(&terms), Err(SnapshotError::Truncated));
        let mut pairs = bytes.clone();
        let mut slot = matl + 8;
        while pairs[slot] == 0 {
            slot += 1;
        }
        pairs[slot + 1..slot + 9].copy_from_slice(&huge);
        assert_eq!(decode_image(&pairs), Err(SnapshotError::Truncated));
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
        // Tables several blocks long.
        let pairs: Vec<u64> = (0..400_000u64).flat_map(|i| [i, i + 1]).collect();
        let store =
            TripleStore::from_slot_tables(vec![None, Some(PropertyTable::from_pairs(pairs))]);
        let mut sink = Recorder::default();
        let len = write_image(&mut sink, &dictionary, &store, &store, 1, 2, "f").unwrap();
        assert!(len as usize > 10 * IMAGE_BLOCK);
        assert_eq!(sink.bytes.len() as u64, len);
        assert_eq!(sink.largest_append, IMAGE_BLOCK);

        let (largest_read, total) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let image = read_image(&|offset| {
            Ok(Box::new(Counted {
                bytes: &sink.bytes[offset as usize..],
                largest_read: &largest_read,
                total: &total,
            }) as Box<dyn Read + Send>)
        })
        .unwrap();
        assert_eq!(image.materialized, store);
        // Every read fits in a block, and the file is read once, plus the
        // one byte that shows where it ends.
        assert!(largest_read.load(Relaxed) <= IMAGE_BLOCK);
        assert_eq!(total.load(Relaxed), sink.bytes.len() + 1);
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
