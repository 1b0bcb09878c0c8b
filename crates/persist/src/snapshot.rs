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
//! instead does the next-best thing: one `chunks_exact(8)` pass per table
//! (a single copy into a fresh `Vec<u64>`), after the section CRC has been
//! verified.
//!
//! The store sections preserve the **exact slot layout** of the in-memory
//! `TripleStore` — `None` slots versus allocated-but-empty tables — because
//! the crash-recovery suite asserts recovered stores equal their pre-crash
//! originals under `PartialEq`, which observes that difference.
//!
//! `last_seq` is the WAL sequence number the image covers: replay skips
//! records at or below it, which is what makes "checkpoint, then crash
//! before truncating the log" safe.

use crate::crc::crc32;
use inferray_dictionary::{DenseTableError, Dictionary};
use inferray_model::TermRef;
use inferray_store::{as_pairs, PropertyTable, TripleStore};
use std::borrow::Cow;
use std::fmt;

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

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_term(out: &mut Vec<u8>, term: &TermRef<'_>) {
    match term {
        TermRef::Iri(iri) => {
            out.push(TERM_IRI);
            put_str(out, iri);
        }
        TermRef::Blank(label) => {
            out.push(TERM_BLANK);
            put_str(out, label);
        }
        TermRef::Literal {
            lexical,
            datatype,
            language,
        } => {
            out.push(TERM_LITERAL);
            put_str(out, lexical);
            let mut flags = 0u8;
            if datatype.is_some() {
                flags |= FLAG_DATATYPE;
            }
            if language.is_some() {
                flags |= FLAG_LANGUAGE;
            }
            out.push(flags);
            if let Some(dt) = datatype {
                put_str(out, dt);
            }
            if let Some(lang) = language {
                put_str(out, lang);
            }
        }
    }
}

/// The `DICT` section: both term counts, then every term of the property
/// table and of the resource table in dense order, each as a tagged,
/// length-prefixed record. The records are transcoded from the dictionary's
/// arena text (its canonical N-Triples forms) through a borrowed view — no
/// `Term` is built — and [`decode_dictionary`] transcodes them back.
fn encode_dictionary(dictionary: &Dictionary, out: &mut Vec<u8>) {
    put_u64(out, dictionary.num_properties() as u64);
    put_u64(out, dictionary.num_resources() as u64);
    for text in dictionary.texts() {
        let term = TermRef::from_ntriples(text).expect("the arena holds canonical term text");
        put_term(out, &term);
    }
}

fn store_section_len(store: &TripleStore) -> usize {
    8 + store
        .slot_tables()
        .iter()
        .map(|slot| match slot {
            None => 1,
            Some(table) => 1 + 8 + table.pairs().len() * 8,
        })
        .sum::<usize>()
}

fn encode_store(store: &TripleStore, out: &mut Vec<u8>) {
    let slots = store.slot_tables();
    put_u64(out, slots.len() as u64);
    for slot in slots {
        match slot {
            None => out.push(0),
            Some(table) => {
                out.push(1);
                let pairs = table.pairs();
                put_u64(out, as_pairs(pairs).len() as u64);
                for &value in pairs {
                    put_u64(out, value);
                }
            }
        }
    }
}

/// Appends one section: tag, payload length, payload CRC, payload. `fill`
/// writes the payload straight into `out`; length and CRC are patched in
/// once it is there, so no section exists a second time in memory.
fn put_section(out: &mut Vec<u8>, tag: &[u8; 4], fill: impl FnOnce(&mut Vec<u8>)) {
    out.extend_from_slice(tag);
    let fields = out.len();
    out.extend_from_slice(&[0; 12]);
    let payload = out.len();
    fill(out);
    let len = (out.len() - payload) as u64;
    let crc = crc32(&out[payload..]);
    out[fields..fields + 8].copy_from_slice(&len.to_le_bytes());
    out[fields + 8..payload].copy_from_slice(&crc.to_le_bytes());
}

/// Serializes a complete snapshot image.
///
/// The stores must be finalized (sorted, duplicate-free) — they always are
/// by the time they are observable through
/// `ServingDataset::persistable_state`. The image is built section after
/// section in one buffer on the calling thread: a threshold checkpoint runs
/// this beside the next writes (`DurableDataset`), and it must neither hold
/// the image twice nor queue its sections in front of a write's tasks on
/// the reasoner's pool.
pub fn encode_image(
    dictionary: &Dictionary,
    base: &TripleStore,
    materialized: &TripleStore,
    epoch: u64,
    last_seq: u64,
    fragment: &str,
) -> Vec<u8> {
    let mut header = Vec::new();
    put_u32(&mut header, VERSION);
    put_u64(&mut header, epoch);
    put_u64(&mut header, last_seq);
    put_str(&mut header, fragment);
    put_u32(&mut header, 3);

    // Reserved once so the buffer never regrows: the stores' sizes are
    // exact, and a term's record is at most 8 bytes longer than its text.
    let stores = store_section_len(base) + store_section_len(materialized);
    let terms: usize = 16 + dictionary.texts().map(|text| text.len() + 8).sum::<usize>();
    let mut out = Vec::with_capacity(16 + header.len() + 3 * 16 + terms + stores);
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, header.len() as u32);
    put_u32(&mut out, crc32(&header));
    out.extend_from_slice(&header);
    put_section(&mut out, TAG_DICT, |out| encode_dictionary(dictionary, out));
    put_section(&mut out, TAG_BASE, |out| encode_store(base, out));
    put_section(&mut out, TAG_MATL, |out| encode_store(materialized, out));
    out
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

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
        if end > self.bytes.len() {
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

/// The smallest term record: a tag byte and a `u32` length.
const MIN_TERM_RECORD_BYTES: usize = 5;

fn decode_dictionary(payload: &[u8]) -> Result<Dictionary, SnapshotError> {
    let mut r = Reader::new(payload);
    let num_properties = r.u64()? as usize;
    let num_resources = r.u64()? as usize;
    // The dictionary reserves its tables from these counts: hold them to
    // what the payload can contain first.
    if num_properties
        .checked_add(num_resources)
        .is_none_or(|terms| terms > payload.len() / MIN_TERM_RECORD_BYTES)
    {
        return Err(SnapshotError::Truncated);
    }
    // Each record is rendered in its canonical N-Triples form straight into
    // the dictionary's arena, borrowed from the payload.
    let dictionary = Dictionary::from_dense_texts(num_properties, num_resources, |text| {
        decode_term(&mut r).map(|term| term.write_ntriples(text))
    })?;
    if !r.done() {
        return Err(SnapshotError::Malformed("trailing bytes in DICT section"));
    }
    Ok(dictionary)
}

fn decode_store(payload: &[u8]) -> Result<TripleStore, SnapshotError> {
    let mut r = Reader::new(payload);
    let slot_count = r.u64()? as usize;
    let mut slots: Vec<Option<PropertyTable>> = Vec::with_capacity(slot_count.min(1 << 20));
    for _ in 0..slot_count {
        match r.u8()? {
            0 => slots.push(None),
            1 => {
                let pair_count = r.u64()? as usize;
                let byte_len = pair_count
                    .checked_mul(16)
                    .ok_or(SnapshotError::Malformed("pair count overflow"))?;
                let raw = r.take(byte_len)?;
                // The one copy of "single-memcpy reconstruction": the
                // file's little-endian u64 run becomes the table's backing
                // Vec in a single pass.
                let pairs: Vec<u64> = raw
                    .chunks_exact(8)
                    .map(|c| {
                        <[u8; 8]>::try_from(c)
                            .map(u64::from_le_bytes)
                            .map_err(|_| SnapshotError::Malformed("short pair word"))
                    })
                    .collect::<Result<_, _>>()?;
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
    if !r.done() {
        return Err(SnapshotError::Malformed("trailing bytes in store section"));
    }
    Ok(TripleStore::from_slot_tables(slots))
}

fn read_section<'a>(
    r: &mut Reader<'a>,
    expect_tag: &'static [u8; 4],
) -> Result<(&'a [u8], u32), SnapshotError> {
    let tag = r.take(4)?;
    if tag != expect_tag {
        return Err(SnapshotError::Malformed("unexpected section tag"));
    }
    let len = r.u64()? as usize;
    let crc = r.u32()?;
    let payload = r.take(len)?;
    Ok((payload, crc))
}

fn check_crc(payload: &[u8], expected: u32, name: &'static str) -> Result<(), SnapshotError> {
    if crc32(payload) != expected {
        return Err(SnapshotError::ChecksumMismatch(name));
    }
    Ok(())
}

/// A decoded section, before reassembly into a [`SnapshotImage`].
enum Section {
    Dict(Dictionary),
    Store(TripleStore),
}

/// Validates and decodes a snapshot image.
///
/// The three sections validate (CRC-32) and decode in parallel: this is
/// the cold-start critical path, and the dictionary rebuild does not need
/// to wait on two multi-megabyte pair-table passes (or vice versa).
pub fn decode_image(bytes: &[u8]) -> Result<SnapshotImage, SnapshotError> {
    let mut r = Reader::new(bytes);
    if r.take(8)? != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let header_len = r.u32()? as usize;
    let header_crc = r.u32()?;
    let header_bytes = r.take(header_len)?;
    if crc32(header_bytes) != header_crc {
        return Err(SnapshotError::ChecksumMismatch("header"));
    }
    let mut h = Reader::new(header_bytes);
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

    let (dict_payload, dict_crc) = read_section(&mut r, TAG_DICT)?;
    let (base_payload, base_crc) = read_section(&mut r, TAG_BASE)?;
    let (matl_payload, matl_crc) = read_section(&mut r, TAG_MATL)?;
    if !r.done() {
        return Err(SnapshotError::Malformed("trailing bytes after sections"));
    }

    type DecodeTask<'a> = Box<dyn FnOnce() -> Result<Section, SnapshotError> + Send + 'a>;
    let mut sections = inferray_parallel::global().run_ordered(vec![
        Box::new(move || {
            check_crc(dict_payload, dict_crc, "DICT")?;
            decode_dictionary(dict_payload).map(Section::Dict)
        }) as DecodeTask<'_>,
        Box::new(move || {
            check_crc(base_payload, base_crc, "BASE")?;
            decode_store(base_payload).map(Section::Store)
        }),
        Box::new(move || {
            check_crc(matl_payload, matl_crc, "MATL")?;
            decode_store(matl_payload).map(Section::Store)
        }),
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
