//! The reference codec of image format 1: a full image and a delta image
//! built whole in one buffer, every section checksummed and decoded from a
//! slice. Format 1 is no longer written, and its reader is kept only to open
//! the images older builds left; this reference is what that reader, and
//! the format-2 codec that replaced its writer, are held to
//! (`tests/image_laws.rs`, `crates/persist/tests/image_compat.rs`).

#![allow(dead_code)]

use inferray_dictionary::{DenseTableError, Dictionary};
use inferray_model::TermRef;
use inferray_persist::crc32;
use inferray_persist::snapshot::SnapshotImage;
use inferray_store::{as_pairs, PropertyTable, TripleStore};
use std::borrow::Cow;
use std::sync::Arc;

const TAG_DICT: &[u8; 4] = b"DICT";
const TAG_BASE: &[u8; 4] = b"BASE";
const TAG_MATL: &[u8; 4] = b"MATL";
const TERM_IRI: u8 = 0;
const TERM_BLANK: u8 = 1;
const TERM_LITERAL: u8 = 2;
const FLAG_DATATYPE: u8 = 1;
const FLAG_LANGUAGE: u8 = 2;

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

fn put_texts<'t>(out: &mut Vec<u8>, texts: impl Iterator<Item = &'t str>) {
    for text in texts {
        put_term(out, &TermRef::from_ntriples(text).unwrap());
    }
}

/// A store section; a slot `in_base` names is marked "as in base" (2).
fn encode_store(
    store: &TripleStore,
    in_base: impl Fn(usize, &Arc<PropertyTable>) -> bool,
    out: &mut Vec<u8>,
) {
    let slots = store.slot_tables();
    put_u64(out, slots.len() as u64);
    for (index, slot) in slots.iter().enumerate() {
        match slot {
            None => out.push(0),
            Some(table) if in_base(index, table) => out.push(2),
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

fn put_section(out: &mut Vec<u8>, tag: &[u8; 4], fill: impl FnOnce(&mut Vec<u8>)) {
    let mut payload = Vec::new();
    fill(&mut payload);
    out.extend_from_slice(tag);
    put_u64(out, payload.len() as u64);
    put_u32(out, crc32(&payload));
    out.extend_from_slice(&payload);
}

fn header(epoch: u64, last_seq: u64, fragment: &str, base: Option<(u64, u32)>) -> Vec<u8> {
    let mut header = Vec::new();
    put_u32(&mut header, 1);
    put_u64(&mut header, epoch);
    put_u64(&mut header, last_seq);
    put_str(&mut header, fragment);
    if let Some((epoch, crc)) = base {
        put_u64(&mut header, epoch);
        put_u32(&mut header, crc);
    }
    put_u32(&mut header, 3);
    header
}

fn front(out: &mut Vec<u8>, magic: &[u8; 8], header: &[u8]) {
    out.extend_from_slice(magic);
    put_u32(out, header.len() as u32);
    put_u32(out, crc32(header));
    out.extend_from_slice(header);
}

/// A format-1 full image.
pub fn encode(
    dictionary: &Dictionary,
    base: &TripleStore,
    materialized: &TripleStore,
    epoch: u64,
    last_seq: u64,
    fragment: &str,
) -> Vec<u8> {
    let mut out = Vec::new();
    front(
        &mut out,
        b"IFRYSNP1",
        &header(epoch, last_seq, fragment, None),
    );
    put_section(&mut out, TAG_DICT, |out| {
        put_u64(out, dictionary.num_properties() as u64);
        put_u64(out, dictionary.num_resources() as u64);
        put_texts(out, dictionary.texts());
    });
    put_section(&mut out, TAG_BASE, |out| {
        encode_store(base, |_, _| false, out)
    });
    put_section(&mut out, TAG_MATL, |out| {
        encode_store(materialized, |_, _| false, out)
    });
    out
}

/// The full image a format-1 delta is written on: its bytes, and the state
/// it was written from (its tables compared by identity).
pub struct Base<'a> {
    pub bytes: &'a [u8],
    pub epoch: u64,
    pub dictionary: &'a Dictionary,
    pub base: &'a TripleStore,
    pub materialized: &'a TripleStore,
}

/// Whether slot `index` of `then` holds `table` itself.
fn same_table(then: &TripleStore, index: usize, table: &Arc<PropertyTable>) -> bool {
    then.slot_tables()
        .get(index)
        .and_then(Option::as_ref)
        .is_some_and(|old| Arc::ptr_eq(old, table))
}

/// A format-1 delta image on `on`.
pub fn encode_delta(
    dictionary: &Dictionary,
    base: &TripleStore,
    materialized: &TripleStore,
    epoch: u64,
    last_seq: u64,
    fragment: &str,
    on: &Base<'_>,
) -> Vec<u8> {
    let header_len = u32::from_le_bytes(on.bytes[8..12].try_into().unwrap()) as usize;
    let base_crc = crc32(&on.bytes[16..16 + header_len]);
    let mut out = Vec::new();
    front(
        &mut out,
        b"IFRYDLT1",
        &header(epoch, last_seq, fragment, Some((on.epoch, base_crc))),
    );
    let (np, nr) = (
        on.dictionary.num_properties(),
        on.dictionary.num_resources(),
    );
    put_section(&mut out, TAG_DICT, |out| {
        put_u64(out, np as u64);
        put_u64(out, nr as u64);
        put_u64(out, (dictionary.num_properties() - np) as u64);
        put_u64(out, (dictionary.num_resources() - nr) as u64);
        put_texts(out, dictionary.texts_since(np, nr));
    });
    put_section(&mut out, TAG_BASE, |out| {
        encode_store(base, |i, t| same_table(on.base, i, t), out)
    });
    put_section(&mut out, TAG_MATL, |out| {
        encode_store(materialized, |i, t| same_table(on.materialized, i, t), out)
    });
    out
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn str(&mut self) -> Option<&'a str> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).ok()
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

fn decode_term<'a>(r: &mut Reader<'a>) -> Option<TermRef<'a>> {
    match r.u8()? {
        TERM_IRI => Some(TermRef::Iri(Cow::Borrowed(r.str()?))),
        TERM_BLANK => Some(TermRef::Blank(Cow::Borrowed(r.str()?))),
        TERM_LITERAL => {
            let lexical = Cow::Borrowed(r.str()?);
            let flags = r.u8()?;
            if flags & !(FLAG_DATATYPE | FLAG_LANGUAGE) != 0 {
                return None;
            }
            let datatype = match flags & FLAG_DATATYPE != 0 {
                true => Some(Cow::Borrowed(r.str()?)),
                false => None,
            };
            let language = match flags & FLAG_LANGUAGE != 0 {
                true => Some(Cow::Borrowed(r.str()?)),
                false => None,
            };
            Some(TermRef::Literal {
                lexical,
                datatype,
                language,
            })
        }
        _ => None,
    }
}

struct Refused;

impl From<DenseTableError> for Refused {
    fn from(_: DenseTableError) -> Self {
        Refused
    }
}

fn decode_dictionary(payload: &[u8]) -> Option<Dictionary> {
    let mut r = Reader {
        bytes: payload,
        pos: 0,
    };
    let num_properties = r.u64()? as usize;
    let num_resources = r.u64()? as usize;
    if num_properties.checked_add(num_resources)? > payload.len() / 5 {
        return None;
    }
    let dictionary = Dictionary::from_dense_texts(num_properties, num_resources, |text| {
        decode_term(&mut r)
            .map(|term| term.write_ntriples(text))
            .ok_or(Refused)
    })
    .ok()?;
    r.done().then_some(dictionary)
}

fn decode_store(payload: &[u8]) -> Option<TripleStore> {
    let mut r = Reader {
        bytes: payload,
        pos: 0,
    };
    let mut slots = Vec::new();
    for _ in 0..r.u64()? {
        match r.u8()? {
            0 => slots.push(None),
            1 => {
                let count = r.u64()? as usize;
                let raw = r.take(count.checked_mul(16)?)?;
                let pairs: Vec<u64> = raw
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                    .collect();
                if as_pairs(&pairs).windows(2).any(|w| w[0] >= w[1]) {
                    return None;
                }
                let mut table = PropertyTable::new();
                table.replace_with_sorted(pairs);
                slots.push(Some(table));
            }
            _ => return None,
        }
    }
    r.done().then(|| TripleStore::from_slot_tables(slots))
}

fn section<'a>(r: &mut Reader<'a>, tag: &[u8; 4]) -> Option<&'a [u8]> {
    if r.take(4)? != tag {
        return None;
    }
    let len = r.u64()? as usize;
    let crc = r.u32()?;
    let payload = r.take(len)?;
    (crc32(payload) == crc).then_some(payload)
}

/// A format-1 full image decoded; `None` wherever the production reader
/// must answer `Err`.
pub fn decode(bytes: &[u8]) -> Option<SnapshotImage> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(8)? != b"IFRYSNP1" {
        return None;
    }
    let header_len = r.u32()? as usize;
    let header_crc = r.u32()?;
    let header = r.take(header_len)?;
    if crc32(header) != header_crc {
        return None;
    }
    let mut h = Reader {
        bytes: header,
        pos: 0,
    };
    if h.u32()? != 1 {
        return None;
    }
    let epoch = h.u64()?;
    let last_seq = h.u64()?;
    let fragment = h.str()?.to_owned();
    if h.u32()? != 3 || !h.done() {
        return None;
    }
    let dictionary = decode_dictionary(section(&mut r, TAG_DICT)?)?;
    let base = decode_store(section(&mut r, TAG_BASE)?)?;
    let materialized = decode_store(section(&mut r, TAG_MATL)?)?;
    r.done().then_some(SnapshotImage {
        epoch,
        last_seq,
        fragment,
        dictionary,
        base,
        materialized,
    })
}
