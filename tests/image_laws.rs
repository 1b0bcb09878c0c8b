//! The streamed image writer and reader against the reference codec.
//!
//! `inferray_persist::snapshot` streams an image through one block each
//! way: the writer patches a section's length and CRC in behind its payload,
//! and each section's reader decodes out of one block from a handle of its
//! own. The reference below is the codec they replaced — the whole image
//! built in one buffer, every section checksummed and decoded from a slice.
//! The laws: the streamed writer's bytes are the reference's bytes, and the
//! streamed reader returns what the reference reader returns, for random
//! dictionaries (IRIs holding `\u00XX` escapes, blank nodes, plain,
//! language-tagged and typed literals, the stale resource slot a promotion
//! leaves) and random stores (`None` against empty slots, the empty store).

use inferray::dictionary::{DenseTableError, Dictionary};
use inferray::model::{Term, TermRef, Triple};
use inferray::persist::snapshot::{
    decode_image, encode_image, open_image, write_image, SnapshotImage,
};
use inferray::persist::{IoBackend, MemFs};
use inferray::store::{as_pairs, PropertyTable, TripleStore};
use proptest::prelude::*;
use std::borrow::Cow;
use std::path::Path;

/// The reference codec: the encoder and decoder of format v1 as they were
/// before the image was streamed.
mod reference {
    use super::*;

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

    fn put_section(out: &mut Vec<u8>, tag: &[u8; 4], fill: impl FnOnce(&mut Vec<u8>)) {
        let mut payload = Vec::new();
        fill(&mut payload);
        out.extend_from_slice(tag);
        put_u64(out, payload.len() as u64);
        put_u32(out, inferray::persist::crc32(&payload));
        out.extend_from_slice(&payload);
    }

    pub fn encode(
        dictionary: &Dictionary,
        base: &TripleStore,
        materialized: &TripleStore,
        epoch: u64,
        last_seq: u64,
        fragment: &str,
    ) -> Vec<u8> {
        let mut header = Vec::new();
        put_u32(&mut header, 1);
        put_u64(&mut header, epoch);
        put_u64(&mut header, last_seq);
        put_str(&mut header, fragment);
        put_u32(&mut header, 3);
        let mut out = Vec::new();
        out.extend_from_slice(b"IFRYSNP1");
        put_u32(&mut out, header.len() as u32);
        put_u32(&mut out, inferray::persist::crc32(&header));
        out.extend_from_slice(&header);
        put_section(&mut out, TAG_DICT, |out| {
            put_u64(out, dictionary.num_properties() as u64);
            put_u64(out, dictionary.num_resources() as u64);
            for text in dictionary.texts() {
                put_term(out, &TermRef::from_ntriples(text).unwrap());
            }
        });
        put_section(&mut out, TAG_BASE, |out| encode_store(base, out));
        put_section(&mut out, TAG_MATL, |out| encode_store(materialized, out));
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
        (inferray::persist::crc32(payload) == crc).then_some(payload)
    }

    /// `None` wherever the streamed reader must answer `Err`.
    pub fn decode(bytes: &[u8]) -> Option<SnapshotImage> {
        let mut r = Reader { bytes, pos: 0 };
        if r.take(8)? != b"IFRYSNP1" {
            return None;
        }
        let header_len = r.u32()? as usize;
        let header_crc = r.u32()?;
        let header = r.take(header_len)?;
        if inferray::persist::crc32(header) != header_crc {
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
}

/// A small deterministic generator, seeded by the property test.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

/// A term of one of the shapes the image records.
fn term(rng: &mut Rng, serial: u64) -> Term {
    match rng.below(7) {
        // IRIs the N-Triples writer escapes: a space, a quote, a brace.
        0 => Term::Iri(format!("http://ex/odd {serial}\"{{x}}")),
        1 => Term::Iri(format!("http://ex/r{serial}")),
        2 => Term::blank(format!("b{serial}")),
        3 => Term::Literal {
            lexical: format!("plain \"{serial}\"\n"),
            datatype: None,
            language: None,
        },
        4 => Term::Literal {
            lexical: format!("chat {serial}"),
            datatype: None,
            language: Some("fr".into()),
        },
        5 => Term::Literal {
            lexical: serial.to_string(),
            datatype: Some("http://www.w3.org/2001/XMLSchema#integer".into()),
            language: None,
        },
        // A long literal: a record spanning the reader's blocks.
        _ => Term::Literal {
            lexical: "x".repeat(rng.below(3000) as usize + 1),
            datatype: None,
            language: None,
        },
    }
}

/// A dictionary of random terms, and a promotion now and then: a term first
/// seen as an object and then used as a predicate leaves a stale resource
/// slot behind.
fn dictionary(rng: &mut Rng) -> Dictionary {
    let mut dictionary = Dictionary::new();
    for serial in 0..rng.below(40) {
        let object = term(rng, serial);
        let predicate = Term::Iri(format!("http://ex/p{}", rng.below(5)));
        let subject = Term::Iri(format!("http://ex/s{serial}"));
        dictionary
            .encode_triple(&Triple::new(subject.clone(), predicate, object))
            .unwrap();
        if rng.below(6) == 0 {
            let promoted = Term::Iri(format!("http://ex/s{serial}"));
            dictionary
                .encode_triple(&Triple::new(
                    Term::Iri("http://ex/x".into()),
                    promoted,
                    Term::Iri("http://ex/y".into()),
                ))
                .unwrap();
        }
    }
    dictionary.take_promotions();
    dictionary
}

/// A store of random slots: `None`, an empty table, or sorted pairs; now
/// and then a table longer than one block of the writer.
fn store(rng: &mut Rng) -> TripleStore {
    let slots = (0..rng.below(8))
        .map(|_| match rng.below(4) {
            0 => None,
            1 => Some(PropertyTable::new()),
            _ => {
                let len = match rng.below(10) {
                    0 => 20_000 + rng.below(20_000),
                    _ => rng.below(50),
                };
                let pairs: Vec<u64> = (0..2 * len).map(|_| rng.below(1 << 40)).collect();
                Some(PropertyTable::from_pairs(pairs))
            }
        })
        .collect();
    TripleStore::from_slot_tables(slots)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn the_streamed_codec_is_the_reference_codec(seed in any::<u64>()) {
        let mut rng = Rng(seed | 1);
        let dictionary = dictionary(&mut rng);
        let (base, materialized) = match rng.below(5) {
            0 => (TripleStore::new(), TripleStore::new()),
            _ => (store(&mut rng), store(&mut rng)),
        };
        let (epoch, last_seq) = (rng.next(), rng.next());
        let fragment = format!("rules:{:08x}", rng.next() as u32);
        let expected = reference::encode(&dictionary, &base, &materialized, epoch, last_seq, &fragment);

        let bytes = encode_image(&dictionary, &base, &materialized, epoch, last_seq, &fragment);
        prop_assert_eq!(&bytes, &expected);
        let fs = MemFs::new();
        let path = Path::new("d/snapshot.img");
        let mut written = 0;
        fs.write_atomic_streamed(path, &mut |sink| {
            written = write_image(sink, &dictionary, &base, &materialized, epoch, last_seq, &fragment)?;
            Ok(())
        })
        .unwrap();
        prop_assert_eq!(written, expected.len() as u64);
        prop_assert_eq!(&fs.read(path).unwrap(), &expected);

        let image = reference::decode(&expected).unwrap();
        prop_assert_eq!(&image.dictionary, &dictionary);
        prop_assert_eq!(&decode_image(&expected).unwrap(), &image);
        prop_assert_eq!(&open_image(&fs, path).unwrap(), &image);
    }

    #[test]
    fn the_streamed_reader_refuses_what_the_reference_refuses(seed in any::<u64>()) {
        let mut rng = Rng(seed | 1);
        let dictionary = dictionary(&mut rng);
        let (base, materialized) = (store(&mut rng), store(&mut rng));
        let mut bytes = reference::encode(&dictionary, &base, &materialized, 1, 2, "f");
        // A flipped byte, a cut, or a stray byte behind the end.
        match rng.below(3) {
            0 => {
                let at = rng.below(bytes.len() as u64) as usize;
                bytes[at] ^= 1 << rng.below(8);
            }
            1 => bytes.truncate(rng.below(bytes.len() as u64) as usize),
            _ => bytes.push(0),
        }
        let expected = reference::decode(&bytes);
        let streamed = decode_image(&bytes);
        prop_assert_eq!(streamed.is_ok(), expected.is_some());
        if let (Ok(streamed), Some(expected)) = (streamed, expected) {
            prop_assert_eq!(streamed, expected);
        }
    }
}
