//! `write_store_ntriples` copies arena slices; it must print byte for byte
//! what decoding every triple and formatting it through `Display` prints.

use inferray_model::IdTriple;
use inferray_parser::{load_ntriples, to_ntriples_string, write_store_ntriples};
use inferray_store::TripleStore;

/// IRIs, a blank node, plain / language-tagged / typed / empty literals,
/// every escape, non-ASCII text and a promoted property.
const DOCUMENT: &str = include_str!("../../../tests/fixtures/every_term_shape.nt");

fn written(store: &TripleStore, except: Option<&TripleStore>) -> (usize, String) {
    let loaded = load_ntriples(DOCUMENT).unwrap();
    let mut out = Vec::new();
    let count = write_store_ntriples(store, except, &loaded.dictionary, &mut out).unwrap();
    (count, String::from_utf8(out).unwrap())
}

#[test]
fn arena_writer_equals_decode_then_display_line_for_line() {
    let loaded = load_ntriples(DOCUMENT).unwrap();
    let decoded: Vec<_> = loaded
        .store
        .iter_triples()
        .map(|t| loaded.dictionary.decode_triple(t).unwrap())
        .collect();
    let expected = to_ntriples_string(&decoded);
    let (count, text) = written(&loaded.store, None);
    assert_eq!(count, loaded.store.len());
    for (line, (got, want)) in text.lines().zip(expected.lines()).enumerate() {
        assert_eq!(got, want, "line {}", line + 1);
    }
    assert_eq!(text, expected);
}

#[test]
fn except_leaves_out_exactly_the_triples_of_the_other_store() {
    let loaded = load_ntriples(DOCUMENT).unwrap();
    // Every other triple, plus one the store does not hold.
    let mut except = TripleStore::new();
    let mut kept = Vec::new();
    for (i, triple) in loaded.store.iter_triples().enumerate() {
        if i % 2 == 0 {
            except.add_triple(triple);
        } else {
            kept.push(loaded.dictionary.decode_triple(triple).unwrap());
        }
    }
    let stranger = loaded.store.iter_triples().next().unwrap();
    except.add_triple(IdTriple::new(stranger.o, stranger.p, stranger.s));
    except.finalize();

    let (count, text) = written(&loaded.store, Some(&except));
    assert_eq!(count, kept.len());
    assert_eq!(text, to_ntriples_string(&kept));
    assert_eq!(
        written(&loaded.store, Some(&loaded.store)),
        (0, String::new())
    );
}
