//! The image codec against the reference codec of format 1.
//!
//! `inferray_persist::snapshot` streams an image through one block each
//! way: the writer patches a section's length and CRC in behind its payload,
//! and each section's reader decodes out of one block from a handle of its
//! own. It writes format 2 — the dictionary as it sits in memory, pair words
//! in 32 bits, a full image as the delta on the empty base — and still
//! reads format 1. The reference (`tests/common/v1_image.rs`) is format 1
//! built whole in one buffer. The laws: the reader returns what the
//! reference decoder returns on format-1 bytes, and refuses what it
//! refuses; format 2 decodes to what format 1 decodes to, full and delta;
//! every flipped byte and every cut of a format-2 image is caught or
//! harmless; and a data directory of format-1 images and a log opens, and
//! its next checkpoint writes format 2. The dictionaries are random (IRIs
//! holding `\u00XX` escapes, blank nodes, plain, language-tagged and typed
//! literals, the stale resource slot a promotion leaves), the stores too
//! (`None` against empty slots, the empty store, tables longer than a
//! block).

use inferray::dictionary::Dictionary;
use inferray::model::ids::IMAGE_WORD_BASE;
use inferray::model::{Term, Triple};
use inferray::persist::snapshot::{
    decode_delta_image, decode_image, encode_image, open_image, snapshot_file_name,
    write_base_image, write_delta_image, write_image, ImageParts, MAGIC,
};
use inferray::persist::{
    segment_file_name, wal, CheckpointPolicy, DurableDataset, IoBackend, MemFs, WalKind,
};
use inferray::store::{PropertyTable, TripleStore};
use inferray::{Fragment, InferrayOptions};
use proptest::prelude::*;
use std::path::Path;
use std::sync::Arc;

#[path = "common/v1_image.rs"]
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

        // The streamed writer into a file is the writer into memory.
        let bytes = encode_image(&dictionary, &base, &materialized, epoch, last_seq, &fragment);
        let fs = MemFs::new();
        let path = Path::new("d/snapshot.img");
        let mut written = 0;
        fs.write_atomic_streamed(path, &mut |sink| {
            written = write_image(sink, &dictionary, &base, &materialized, epoch, last_seq, &fragment)?;
            Ok(())
        })
        .unwrap();
        prop_assert_eq!(written, bytes.len() as u64);
        prop_assert_eq!(&fs.read(path).unwrap(), &bytes);

        // The streamed reader of format 1 is the reference reader, from a
        // slice and from a file's handles.
        let image = reference::decode(&expected).unwrap();
        prop_assert_eq!(&image.dictionary, &dictionary);
        prop_assert_eq!(&decode_image(&expected).unwrap(), &image);
        let v1_path = Path::new("d/snapshot-v1.img");
        fs.write_atomic(v1_path, &expected).unwrap();
        prop_assert_eq!(&open_image(&fs, v1_path).unwrap(), &image);
        prop_assert_eq!(&open_image(&fs, path).unwrap(), &image);
    }

    /// Format 2 decodes to what format 1 decodes to: a full image, and a
    /// delta on it after random writes — new terms, promotions, tables
    /// rewritten, added and emptied — under `PartialEq` of the dictionary
    /// and of both stores, slot layout included.
    #[test]
    fn format_2_decodes_what_the_reference_format_1_decodes(seed in any::<u64>()) {
        let mut rng = Rng(seed | 1);
        let dictionary = dictionary(&mut rng);
        let (base, materialized) = (store(&mut rng), store(&mut rng));
        let (epoch, last_seq) = (rng.below(1 << 20), rng.below(1 << 20));
        let fragment = format!("rules:{:08x}", rng.next() as u32);

        let v1 = reference::encode(&dictionary, &base, &materialized, epoch, last_seq, &fragment);
        let v2 = encode_image(&dictionary, &base, &materialized, epoch, last_seq, &fragment);
        prop_assert_eq!(&v2[..8], MAGIC);
        let from_v1 = reference::decode(&v1).unwrap();
        let from_v2 = decode_image(&v2).unwrap();
        prop_assert_eq!(&from_v2, &from_v1);
        prop_assert_eq!(&from_v2.base, &base);
        prop_assert_eq!(&from_v2.materialized, &materialized);

        // A later state that shares some tables with this one.
        let (grown, later_base, later_materialized) = later(&mut rng, &dictionary, &base, &materialized);
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
        prop_assert_eq!(&full, &v2);
        let later_parts = ImageParts {
            dictionary: &grown,
            base: &later_base,
            materialized: &later_materialized,
            epoch: epoch + 1,
            last_seq: last_seq + 1,
            fragment: &fragment,
        };
        let mut v2_delta = Vec::new();
        write_delta_image(&mut v2_delta, later_parts, &record).unwrap();
        let v1_delta = reference::encode_delta(
            &grown,
            &later_base,
            &later_materialized,
            epoch + 1,
            last_seq + 1,
            &fragment,
            &reference::Base {
                bytes: &v1,
                epoch,
                dictionary: &dictionary,
                base: &base,
                materialized: &materialized,
            },
        );
        let from_v1 = decode_delta_image(&v1_delta, from_v1).unwrap();
        let from_v2 = decode_delta_image(&v2_delta, from_v2).unwrap();
        prop_assert_eq!(&from_v2, &from_v1);
        prop_assert_eq!(&from_v2.dictionary, &grown);
        prop_assert_eq!(&from_v2.base, &later_base);
        prop_assert_eq!(&from_v2.materialized, &later_materialized);
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

/// A data directory an older build left — a format-1 full image, a
/// format-1 delta on it and a log past the delta, built with the reference
/// codec and `wal::encode_record` — opens to the state it records, its next
/// checkpoint writes a format-2 full image, and a reopen of that is the
/// live state.
#[test]
fn a_format_1_directory_opens_and_its_next_checkpoint_writes_format_2() {
    const DOCUMENT: &str = "<http://ex/human> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://ex/mammal> .\n\
         <http://ex/bart> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/human> .\n";
    let writes = [
        "<http://ex/lisa> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/human> .\n",
        "<http://ex/lisa> <http://ex/sibling> <http://ex/bart> .\n",
        "<http://ex/sibling> <http://www.w3.org/2000/01/rdf-schema#domain> <http://ex/human> .\n",
    ];
    let open = |fs: Arc<MemFs>| {
        DurableDataset::open(
            "data",
            Fragment::RdfsDefault,
            InferrayOptions::default(),
            fs,
            CheckpointPolicy::manual(),
        )
        .unwrap()
    };
    // The live history: the state after creation, after two writes, and
    // after the third.
    let live_fs = Arc::new(MemFs::new());
    let (live, _) = DurableDataset::create(
        inferray::load_ntriples(DOCUMENT).unwrap(),
        Fragment::RdfsDefault,
        InferrayOptions::default(),
        "data",
        Arc::clone(&live_fs) as Arc<dyn IoBackend>,
        CheckpointPolicy::manual(),
    )
    .unwrap();
    let created = live.status().snapshot_path.unwrap();
    let fragment = decode_image(&live_fs.read(&created).unwrap())
        .unwrap()
        .fragment;
    let (dictionary0, base0, snapshot0) = live.dataset().persistable_state();
    live.extend_ntriples(writes[0]).unwrap();
    live.extend_ntriples(writes[1]).unwrap();
    let (dictionary2, base2, snapshot2) = live.dataset().persistable_state();
    live.extend_ntriples(writes[2]).unwrap();

    let fs = Arc::new(MemFs::new());
    let full = reference::encode(&dictionary0, &base0, snapshot0.store(), 0, 0, &fragment);
    let delta = reference::encode_delta(
        &dictionary2,
        &base2,
        snapshot2.store(),
        snapshot2.epoch(),
        2,
        &fragment,
        &reference::Base {
            bytes: &full,
            epoch: 0,
            dictionary: &dictionary0,
            base: &base0,
            materialized: snapshot0.store(),
        },
    );
    let mut log = Vec::new();
    for (seq, body) in (1..).zip(writes) {
        log.extend(wal::encode_record(seq, WalKind::Assert, body));
    }
    let dir = Path::new("data");
    fs.write_atomic(&dir.join(snapshot_file_name(0)), &full)
        .unwrap();
    fs.write_atomic(&dir.join(snapshot_file_name(snapshot2.epoch())), &delta)
        .unwrap();
    fs.write_atomic(&dir.join(segment_file_name(1)), &log)
        .unwrap();

    let same_state = |a: &DurableDataset, b: &DurableDataset| {
        let (dictionary, base, snapshot) = a.dataset().persistable_state();
        let (back_dictionary, back_base, back_snapshot) = b.dataset().persistable_state();
        assert_eq!(snapshot.epoch(), back_snapshot.epoch());
        assert_eq!(*dictionary, *back_dictionary);
        assert_eq!(base, back_base);
        assert_eq!(snapshot.store(), back_snapshot.store());
    };
    let (upgraded, report) = open(Arc::clone(&fs));
    assert_eq!(report.snapshot_epoch, snapshot2.epoch());
    assert!(report.base_path.is_some());
    assert_eq!((report.replayed_records, report.skipped_records), (1, 2));
    same_state(&live, &upgraded);

    let next = upgraded.checkpoint().unwrap();
    let image = fs.read(&next).unwrap();
    assert_eq!(&image[..8], MAGIC);
    assert!(decode_image(&image).is_ok(), "a full image");
    let (reopened, report) = open(Arc::new(MemFs::from_view(fs.durable_view())));
    assert_eq!(report.snapshot_path, next);
    assert_eq!((report.base_path, report.replayed_records), (None, 0));
    same_state(&live, &reopened);
    same_state(&upgraded, &reopened);
}
