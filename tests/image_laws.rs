//! The image codec against the reference codec of format 2.
//!
//! `inferray_persist::snapshot` streams an image through one block each
//! way: the writer patches a section's length and CRC in behind its payload,
//! and each section's reader decodes out of one block from a handle of its
//! own. The reference (`tests/common/image_reference.rs`) is format 2 built
//! whole in one buffer, written from the layout in `docs/persistence.md`.
//! The laws: the streamed writer's bytes are the reference encoder's, for a
//! full image and for a delta after random writes; the streamed reader
//! returns what the reference decoder returns, from a slice and from a
//! file's handles, and refuses what it refuses; every flipped byte and
//! every cut of an image is caught or harmless; and a data directory of
//! format-1 images and a two-file log, both retired, is refused and left
//! as it was. The dictionaries are random (IRIs holding `\u00XX` escapes,
//! blank nodes, plain, language-tagged and typed literals, the stale
//! resource slot a promotion leaves), the stores too (`None` against empty
//! slots, the empty store, tables longer than a block).

use inferray::dictionary::Dictionary;
use inferray::model::ids::IMAGE_WORD_BASE;
use inferray::model::{Term, Triple};
use inferray::persist::snapshot::{
    decode_delta_image, decode_image, encode_image, open_image, open_recoverable,
    snapshot_file_name, write_base_image, write_delta_image, write_image, ImageParts,
    SnapshotImage, MAGIC,
};
use inferray::persist::{
    segment_file_name, wal, CheckpointPolicy, DurableDataset, DurableError, IoBackend, MemFs,
    WalKind,
};
use inferray::store::{PropertyTable, TripleStore};
use inferray::{Fragment, InferrayOptions};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

#[path = "common/image_reference.rs"]
mod reference;

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

/// A later state on `dictionary` and the two stores: terms added and
/// promoted, and per slot the table kept (the same `Arc`), rewritten,
/// emptied or dropped, and slots added.
fn later(
    rng: &mut Rng,
    dictionary: &Dictionary,
    base: &TripleStore,
    materialized: &TripleStore,
) -> (Dictionary, TripleStore, TripleStore) {
    let mut grown = dictionary.clone();
    for serial in 0..rng.below(6) {
        let object = term(rng, 1_000 + serial);
        // Now and then a subject of before as a predicate: a promotion.
        let predicate = match rng.below(3) {
            0 => Term::Iri(format!("http://ex/s{}", rng.below(40))),
            _ => Term::Iri(format!("http://ex/p{}", rng.below(7))),
        };
        let subject = Term::Iri(format!("http://ex/s{}", rng.below(60)));
        grown
            .encode_triple(&Triple::new(subject, predicate, object))
            .unwrap();
    }
    grown.take_promotions();
    let mut change = |store: &TripleStore| {
        let mut slots: Vec<_> = store
            .slot_tables()
            .iter()
            .map(|slot| match rng.below(4) {
                0 => None,
                1 => Some(Arc::new(PropertyTable::new())),
                2 => store_slot(rng),
                _ => slot.clone(),
            })
            .collect();
        slots.extend((0..rng.below(3)).map(|_| store_slot(rng)));
        TripleStore::from_shared_slot_tables(slots)
    };
    let (base, materialized) = (change(base), change(materialized));
    (grown, base, materialized)
}

/// A fresh table of a few sorted pairs.
fn store_slot(rng: &mut Rng) -> Option<Arc<PropertyTable>> {
    let pairs: Vec<u64> = (0..2 * rng.below(20))
        .map(|_| IMAGE_WORD_BASE + 2 + rng.below(u32::MAX as u64 - 1))
        .collect();
    Some(Arc::new(PropertyTable::from_pairs(pairs)))
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
                // Words a dictionary can number: both formats hold them.
                let pairs: Vec<u64> = (0..2 * len)
                    .map(|_| IMAGE_WORD_BASE + 2 + rng.below(u32::MAX as u64 - 1))
                    .collect();
                Some(PropertyTable::from_pairs(pairs))
            }
        })
        .collect();
    TripleStore::from_slot_tables(slots)
}

/// Whether the streamed reader's image is the reference decoder's.
fn same_image(streamed: &SnapshotImage, reference: &reference::Image) -> bool {
    (
        streamed.epoch,
        streamed.last_seq,
        streamed.fragment.as_str(),
    ) == (
        reference.epoch,
        reference.last_seq,
        reference.fragment.as_str(),
    ) && streamed.dictionary == reference.dictionary
        && streamed.base == reference.base
        && streamed.materialized == reference.materialized
}

/// A random full image and a delta on it after random writes — new
/// terms, promotions, tables kept, rewritten, emptied, dropped and
/// added — each with the state it was written from.
struct Written {
    dictionary: Dictionary,
    base: TripleStore,
    materialized: TripleStore,
    full: Vec<u8>,
    grown: Dictionary,
    later_base: TripleStore,
    later_materialized: TripleStore,
    delta: Vec<u8>,
    epoch: u64,
    last_seq: u64,
    fragment: String,
}

fn written(rng: &mut Rng) -> Written {
    let dictionary = dictionary(rng);
    let (base, materialized) = match rng.below(5) {
        0 => (TripleStore::new(), TripleStore::new()),
        _ => (store(rng), store(rng)),
    };
    let (epoch, last_seq) = (rng.below(1 << 40), rng.below(1 << 40));
    let fragment = format!("rules:{:08x}", rng.next() as u32);
    let parts = ImageParts {
        dictionary: &dictionary,
        base: &base,
        materialized: &materialized,
        epoch,
        last_seq,
        fragment: &fragment,
    };
    let mut full = Vec::new();
    let record = write_base_image(&mut full, parts).unwrap();
    let (grown, later_base, later_materialized) = later(rng, &dictionary, &base, &materialized);
    let later_parts = ImageParts {
        dictionary: &grown,
        base: &later_base,
        materialized: &later_materialized,
        epoch: epoch + 1,
        last_seq: last_seq + 1,
        fragment: &fragment,
    };
    let mut delta = Vec::new();
    write_delta_image(&mut delta, later_parts, &record).unwrap();
    Written {
        dictionary,
        base,
        materialized,
        full,
        grown,
        later_base,
        later_materialized,
        delta,
        epoch,
        last_seq,
        fragment,
    }
}

proptest! {
    #[test]
    fn the_streamed_codec_is_the_reference_codec(seed in any::<u64>()) {
        let mut rng = Rng(seed | 1);
        let w = written(&mut rng);
        let (epoch, last_seq, fragment) = (w.epoch, w.last_seq, w.fragment.as_str());
        let expected = reference::encode(&w.dictionary, &w.base, &w.materialized, epoch, last_seq, fragment);
        prop_assert_eq!(&w.full, &expected);

        // The streamed writer into a file is the writer into memory.
        let bytes = encode_image(&w.dictionary, &w.base, &w.materialized, epoch, last_seq, fragment);
        prop_assert_eq!(&bytes, &expected);
        let fs = MemFs::new();
        let path = Path::new("d/snapshot.img");
        let mut length = 0;
        fs.write_atomic_streamed(path, &mut |sink| {
            length = write_image(sink, &w.dictionary, &w.base, &w.materialized, epoch, last_seq, fragment)?;
            Ok(())
        })
        .unwrap();
        prop_assert_eq!(length, expected.len() as u64);
        prop_assert_eq!(&fs.read(path).unwrap(), &expected);

        // The streamed reader is the reference reader, from a slice and
        // from a file's handles.
        let image = reference::decode(&expected, None).unwrap();
        prop_assert_eq!(&image.dictionary, &w.dictionary);
        prop_assert_eq!(&image.base, &w.base);
        prop_assert_eq!(&image.materialized, &w.materialized);
        prop_assert!(same_image(&decode_image(&expected).unwrap(), &image));
        prop_assert!(same_image(&open_image(&fs, path).unwrap(), &image));
    }

    /// A delta after random writes: the streamed writer's bytes are the
    /// reference's, and both readers read it, on its base, to the state it
    /// was written from — under `PartialEq` of the dictionary and of both
    /// stores, slot layout included — from a slice and from the two files.
    #[test]
    fn a_delta_after_random_writes_is_the_reference_delta(seed in any::<u64>()) {
        let mut rng = Rng(seed | 1);
        let w = written(&mut rng);
        let expected = reference::encode_delta(
            &w.grown,
            &w.later_base,
            &w.later_materialized,
            w.epoch + 1,
            w.last_seq + 1,
            &w.fragment,
            &reference::Base {
                bytes: &w.full,
                epoch: w.epoch,
                dictionary: &w.dictionary,
                base: &w.base,
                materialized: &w.materialized,
            },
        );
        prop_assert_eq!(&w.delta, &expected);

        let on = reference::decode(&w.full, None).unwrap();
        let image = reference::decode(&expected, Some(&on)).unwrap();
        prop_assert_eq!(&image.dictionary, &w.grown);
        prop_assert_eq!(&image.base, &w.later_base);
        prop_assert_eq!(&image.materialized, &w.later_materialized);
        let streamed = decode_delta_image(&expected, decode_image(&w.full).unwrap()).unwrap();
        prop_assert!(same_image(&streamed, &image));

        let fs = MemFs::new();
        let dir = Path::new("d");
        fs.write_atomic(&dir.join(snapshot_file_name(w.epoch)), &w.full).unwrap();
        let path = dir.join(snapshot_file_name(w.epoch + 1));
        fs.write_atomic(&path, &expected).unwrap();
        let recovered = open_recoverable(&fs, &path).unwrap();
        prop_assert!(same_image(&recovered.image, &image));
    }

    /// A flipped byte, a cut, or a stray byte behind the end, of a full
    /// image or of a delta read on its base.
    #[test]
    fn the_streamed_reader_refuses_what_the_reference_refuses(seed in any::<u64>()) {
        let mut rng = Rng(seed | 1);
        let w = written(&mut rng);
        let delta = rng.below(2) == 0;
        let mut bytes = match delta {
            true => w.delta.clone(),
            false => w.full.clone(),
        };
        match rng.below(3) {
            0 => {
                let at = rng.below(bytes.len() as u64) as usize;
                bytes[at] ^= 1 << rng.below(8);
            }
            1 => bytes.truncate(rng.below(bytes.len() as u64) as usize),
            _ => bytes.push(0),
        }
        let (expected, streamed) = match delta {
            true => (
                reference::decode(&bytes, Some(&reference::decode(&w.full, None).unwrap())),
                decode_delta_image(&bytes, decode_image(&w.full).unwrap()),
            ),
            false => (reference::decode(&bytes, None), decode_image(&bytes)),
        };
        prop_assert_eq!(streamed.is_ok(), expected.is_some());
        if let (Ok(streamed), Some(expected)) = (streamed, expected) {
            prop_assert!(same_image(&streamed, &expected));
        }
    }
}

/// A small random state: few terms, short tables.
fn small_state(rng: &mut Rng) -> (Dictionary, TripleStore, TripleStore) {
    let mut dictionary = Dictionary::new();
    for serial in 0..rng.below(6) {
        let object = match rng.below(3) {
            0 => Term::Iri(format!("http://ex/r{serial}")),
            1 => Term::blank(format!("b{serial}")),
            _ => Term::lang_literal(format!("chat {serial}"), "fr"),
        };
        let predicate = Term::Iri(format!("http://ex/p{}", rng.below(3)));
        let subject = Term::Iri(format!("http://ex/s{serial}"));
        dictionary
            .encode_triple(&Triple::new(subject, predicate, object))
            .unwrap();
    }
    let small = |rng: &mut Rng| {
        let slots = (0..rng.below(4))
            .map(|_| match rng.below(3) {
                0 => None,
                _ => store_slot(rng).map(|table| (*table).clone()),
            })
            .collect();
        TripleStore::from_slot_tables(slots)
    };
    let (base, materialized) = (small(rng), small(rng));
    (dictionary, base, materialized)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every one-byte corruption and every cut of a format-2 full image and
    /// of a format-2 delta image is refused, or decodes to the state it was
    /// written from.
    #[test]
    fn every_flipped_byte_and_every_cut_of_a_format_2_image_is_caught_or_harmless(
        seed in any::<u64>(),
    ) {
        let mut rng = Rng(seed | 1);
        let (dictionary, base, materialized) = small_state(&mut rng);
        let parts = ImageParts {
            dictionary: &dictionary,
            base: &base,
            materialized: &materialized,
            epoch: 4,
            last_seq: 7,
            fragment: "f",
        };
        let mut full = Vec::new();
        let record = write_base_image(&mut full, parts).unwrap();
        let clean = decode_image(&full).unwrap();
        let (grown, later_base, later_materialized) = later(&mut rng, &dictionary, &base, &materialized);
        let mut delta = Vec::new();
        let later_parts = ImageParts {
            dictionary: &grown,
            base: &later_base,
            materialized: &later_materialized,
            epoch: 5,
            ..parts
        };
        write_delta_image(&mut delta, later_parts, &record).unwrap();
        let after = decode_delta_image(&delta, clean.clone()).unwrap();
        for at in 0..full.len() {
            let mut flipped = full.clone();
            flipped[at] ^= 1 << rng.below(8);
            if let Ok(image) = decode_image(&flipped) {
                prop_assert_eq!(&image, &clean, "flip at {}", at);
            }
            prop_assert!(decode_image(&full[..at]).is_err(), "cut at {}", at);
        }
        for at in 0..delta.len() {
            let mut flipped = delta.clone();
            flipped[at] ^= 1 << rng.below(8);
            if let Ok(image) = decode_delta_image(&flipped, clean.clone()) {
                prop_assert_eq!(&image, &after, "flip at {}", at);
            }
            prop_assert!(decode_delta_image(&delta[..at], clean.clone()).is_err(), "cut at {}", at);
        }
    }
}

/// The magic of a retired format-1 image: `IFRY`, then `SNP1` for a full
/// image or `DLT1` for a delta.
fn format_1_magic(kind: &[u8; 4]) -> [u8; 8] {
    let mut magic = *MAGIC;
    magic[4..].copy_from_slice(kind);
    magic
}

/// A data directory an older build left — a format-1 full image, a
/// format-1 delta on it, a log segment and the two files of the log
/// before segments, `wal.sealed` and `wal.log` — is refused as `Corrupt`,
/// the refusal names the newest image and why, and no file of it changes.
/// The reader looks no further than the magic, so each image here is a
/// format-2 image under a format-1 magic.
#[test]
fn a_format_1_directory_is_refused_and_left_as_it_was() {
    let fs = Arc::new(MemFs::new());
    let (live, _) = DurableDataset::create(
        inferray::load_ntriples(
            "<http://ex/human> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://ex/mammal> .\n",
        )
        .unwrap(),
        Fragment::RdfsDefault,
        InferrayOptions::default(),
        "data",
        Arc::clone(&fs) as Arc<dyn IoBackend>,
        CheckpointPolicy::manual(),
    )
    .unwrap();
    let (dictionary, base, snapshot) = live.dataset().persistable_state();
    let fragment = decode_image(&fs.read(&live.status().snapshot_path.unwrap()).unwrap())
        .unwrap()
        .fragment;
    drop(live);

    let old = Arc::new(MemFs::new());
    let dir = Path::new("data");
    let image = |kind: &[u8; 4], epoch: u64| {
        let mut bytes = encode_image(&dictionary, &base, snapshot.store(), epoch, 0, &fragment);
        bytes[..8].copy_from_slice(&format_1_magic(kind));
        old.write_atomic(&dir.join(snapshot_file_name(epoch)), &bytes)
            .unwrap();
    };
    image(b"SNP1", 0);
    image(b"DLT1", 1);
    let log = |seqs: &[u64]| -> Vec<u8> {
        let body = "<http://ex/bart> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/human> .\n";
        seqs.iter()
            .flat_map(|&seq| wal::encode_record(seq, WalKind::Assert, body))
            .collect()
    };
    for (name, records) in [
        (segment_file_name(1), log(&[1])),
        ("wal.sealed".to_string(), log(&[1, 2])),
        ("wal.log".to_string(), log(&[2])),
    ] {
        old.write_atomic(&dir.join(name), &records).unwrap();
    }
    let files = |fs: &MemFs| -> BTreeMap<PathBuf, Vec<u8>> {
        let names = fs.list(dir).unwrap();
        names
            .into_iter()
            .map(|path| {
                let bytes = fs.read(&path).unwrap();
                (path, bytes)
            })
            .collect()
    };
    let before = files(&old);
    assert_eq!(before.len(), 5);

    let refused = DurableDataset::open(
        "data",
        Fragment::RdfsDefault,
        InferrayOptions::default(),
        Arc::clone(&old) as Arc<dyn IoBackend>,
        CheckpointPolicy::manual(),
    )
    .map(|_| ())
    .unwrap_err();
    let DurableError::Corrupt { message } = &refused else {
        panic!("not refused as corrupt: {refused}");
    };
    let newest = dir.join(snapshot_file_name(1));
    assert!(message.contains(&newest.display().to_string()), "{message}");
    assert!(message.contains("bad magic"), "{message}");
    assert_eq!(files(&old), before);
}
