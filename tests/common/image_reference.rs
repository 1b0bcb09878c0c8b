//! The reference codec of image format 2: a full image and a delta image
//! built whole in one buffer, and decoded from a slice, every section
//! checksummed. It is written from the byte layout in
//! `docs/persistence.md` ("snapshot"), not from the streamed codec, and
//! takes nothing from `inferray_persist::snapshot`: the streamed writer and
//! reader are held to it (`tests/image_laws.rs`).

use inferray_dictionary::{Dictionary, RawLen};
use inferray_persist::crc32;
use inferray_store::{PropertyTable, TripleStore};
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"IFRYIMG2";
const VERSION: u32 = 2;
const TAGS: [&[u8; 4]; 3] = [b"DICT", b"BASE", b"MATL"];
/// A pair word is a term identifier minus 2³¹, in 32 bits.
const WORD_BASE: u64 = 1 << 31;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// The header payload; `base` names a delta's base by epoch and header CRC.
fn header(epoch: u64, last_seq: u64, fragment: &str, base: Option<(u64, u32)>) -> Vec<u8> {
    let mut h = Vec::new();
    put_u32(&mut h, VERSION);
    put_u64(&mut h, epoch);
    put_u64(&mut h, last_seq);
    put_u32(&mut h, fragment.len() as u32);
    h.extend_from_slice(fragment.as_bytes());
    match base {
        None => h.push(0),
        Some((epoch, crc)) => {
            h.push(1);
            put_u64(&mut h, epoch);
            put_u32(&mut h, crc);
        }
    }
    put_u32(&mut h, 3);
    h
}

/// The `DICT` payload: what `dictionary` appended past `since`.
fn dict(dictionary: &Dictionary, since: RawLen) -> Vec<u8> {
    let parts = dictionary
        .raw_parts_since(since)
        .expect("the dictionary extends its base's");
    let mut out = Vec::new();
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
        put_u64(&mut out, count as u64);
    }
    for &end in parts.ends {
        put_u64(&mut out, end as u64);
    }
    for &entry in parts.properties.iter().chain(parts.resources) {
        put_u32(&mut out, entry);
    }
    out.extend_from_slice(parts.text.as_bytes());
    out
}

/// A `BASE` or `MATL` payload; a slot holding the very table slot `index`
/// of `on` holds is marked "as in base".
fn store(store: &TripleStore, on: Option<&TripleStore>) -> Vec<u8> {
    let mut out = Vec::new();
    let slots = store.slot_tables();
    put_u64(&mut out, slots.len() as u64);
    for (index, slot) in slots.iter().enumerate() {
        let then = on.and_then(|on| on.slot_tables().get(index)?.as_ref());
        match slot {
            None => out.push(0),
            Some(table) if then.is_some_and(|then| Arc::ptr_eq(then, table)) => out.push(2),
            Some(table) => {
                out.push(1);
                let words = table.pairs();
                put_u64(&mut out, words.len() as u64 / 2);
                for &id in words {
                    let word = u32::try_from(id - WORD_BASE).expect("an identifier");
                    put_u32(&mut out, word);
                }
            }
        }
    }
    out
}

/// Magic, header and the three sections.
fn image(header: &[u8], payloads: [Vec<u8>; 3]) -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    put_u32(&mut out, header.len() as u32);
    put_u32(&mut out, crc32(header));
    out.extend_from_slice(header);
    for (tag, payload) in TAGS.iter().zip(payloads) {
        out.extend_from_slice(*tag);
        put_u64(&mut out, payload.len() as u64);
        put_u32(&mut out, crc32(&payload));
        out.extend_from_slice(&payload);
    }
    out
}

/// A full image: the delta on the empty base.
pub fn encode(
    dictionary: &Dictionary,
    base: &TripleStore,
    materialized: &TripleStore,
    epoch: u64,
    last_seq: u64,
    fragment: &str,
) -> Vec<u8> {
    image(
        &header(epoch, last_seq, fragment, None),
        [
            dict(dictionary, RawLen::default()),
            store(base, None),
            store(materialized, None),
        ],
    )
}

/// The full image a delta is written on: its bytes, and the state it was
/// written from (its tables compared by identity).
pub struct Base<'a> {
    pub bytes: &'a [u8],
    pub epoch: u64,
    pub dictionary: &'a Dictionary,
    pub base: &'a TripleStore,
    pub materialized: &'a TripleStore,
}

/// The CRC of the header of the image in `bytes`.
fn header_crc(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes[12..16].try_into().unwrap())
}

/// A delta image on `on`.
pub fn encode_delta(
    dictionary: &Dictionary,
    base: &TripleStore,
    materialized: &TripleStore,
    epoch: u64,
    last_seq: u64,
    fragment: &str,
    on: &Base<'_>,
) -> Vec<u8> {
    image(
        &header(
            epoch,
            last_seq,
            fragment,
            Some((on.epoch, header_crc(on.bytes))),
        ),
        [
            dict(dictionary, on.dictionary.raw_len()),
            store(base, Some(on.base)),
            store(materialized, Some(on.materialized)),
        ],
    )
}

/// A decoded image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    pub epoch: u64,
    pub last_seq: u64,
    pub fragment: String,
    /// The CRC of its header, which a delta on it names.
    pub header_crc: u32,
    pub dictionary: Dictionary,
    pub base: TripleStore,
    pub materialized: TripleStore,
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

    fn len(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

fn decode_dict(payload: &[u8], on: Option<&Dictionary>) -> Option<Dictionary> {
    let mut r = Reader {
        bytes: payload,
        pos: 0,
    };
    let since = on.map_or_else(RawLen::default, Dictionary::raw_len);
    let (base_properties, base_resources) = (r.len()?, r.len()?);
    let (properties, resources) = (r.len()?, r.len()?);
    let (base_text, base_entries) = (r.len()?, r.len()?);
    let (text, entries) = (r.len()?, r.len()?);
    if (base_properties, base_resources, base_text, base_entries)
        != (since.properties, since.resources, since.text, since.entries)
    {
        return None;
    }
    let ends = r.take(entries.checked_mul(8)?)?;
    let ends = ends
        .chunks_exact(8)
        .map(|b| usize::try_from(u64::from_le_bytes(b.try_into().unwrap())).ok())
        .collect::<Option<Vec<_>>>()?;
    let mut entry = |count: usize| -> Option<Vec<u32>> {
        let words = r.take(count.checked_mul(4)?)?;
        Some(
            words
                .chunks_exact(4)
                .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
                .collect(),
        )
    };
    let (properties, resources) = (entry(properties)?, entry(resources)?);
    let text = String::from_utf8(r.take(text)?.to_vec()).ok()?;
    if !r.done() {
        return None;
    }
    match on {
        None => Dictionary::from_raw_parts(text, ends, properties, resources),
        Some(on) => on
            .clone()
            .append_raw_parts(text, ends, properties, resources),
    }
    .ok()
}

fn decode_store(payload: &[u8], on: Option<&TripleStore>) -> Option<TripleStore> {
    let mut r = Reader {
        bytes: payload,
        pos: 0,
    };
    let mut slots = Vec::new();
    for index in 0..r.u64()? {
        match r.u8()? {
            0 => slots.push(None),
            1 => {
                let count = r.len()?;
                let words: Vec<u64> = r
                    .take(count.checked_mul(8)?)?
                    .chunks_exact(4)
                    .map(|b| u64::from(u32::from_le_bytes(b.try_into().unwrap())) + WORD_BASE)
                    .collect();
                let pairs: Vec<(u64, u64)> = words.chunks_exact(2).map(|p| (p[0], p[1])).collect();
                if pairs.windows(2).any(|w| w[0] >= w[1]) {
                    return None;
                }
                slots.push(Some(Arc::new(PropertyTable::from_pairs(words))));
            }
            2 => {
                let table = on?
                    .slot_tables()
                    .get(usize::try_from(index).ok()?)?
                    .as_ref()?;
                slots.push(Some(Arc::clone(table)));
            }
            _ => return None,
        }
    }
    r.done()
        .then(|| TripleStore::from_shared_slot_tables(slots))
}

/// An image decoded — a full image with `on` `None`, a delta on the image
/// it names with `on` that image — or `None` wherever the streamed reader
/// must answer `Err`.
pub fn decode(bytes: &[u8], on: Option<&Image>) -> Option<Image> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(8)? != MAGIC {
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
    if h.u32()? != VERSION {
        return None;
    }
    let epoch = h.u64()?;
    let last_seq = h.u64()?;
    let fragment_len = h.u32()? as usize;
    let fragment = std::str::from_utf8(h.take(fragment_len)?).ok()?.to_owned();
    let named = match h.u8()? {
        0 => None,
        1 => Some((h.u64()?, h.u32()?)),
        _ => return None,
    };
    if h.u32()? != 3 || !h.done() {
        return None;
    }
    match (named, on) {
        (None, None) => {}
        (Some(named), Some(on)) if named == (on.epoch, on.header_crc) => {}
        _ => return None,
    }
    let mut payloads = TAGS.iter().map(|tag| {
        if r.take(4)? != *tag {
            return None;
        }
        let len = r.len()?;
        let crc = r.u32()?;
        let payload = r.take(len)?;
        (crc32(payload) == crc).then_some(payload)
    });
    let dictionary = decode_dict(payloads.next()??, on.map(|on| &on.dictionary))?;
    let base = decode_store(payloads.next()??, on.map(|on| &on.base))?;
    let materialized = decode_store(payloads.next()??, on.map(|on| &on.materialized))?;
    drop(payloads);
    r.done().then_some(Image {
        epoch,
        last_seq,
        fragment,
        header_crc,
        dictionary,
        base,
        materialized,
    })
}
