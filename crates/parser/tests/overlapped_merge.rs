//! The dictionary merge overlaps lexing: range *k* of a streamed file is
//! merged into the dictionary as soon as ranges `0..=k` have lexed, while
//! the ranges after it are still being lexed. The result must not depend on
//! which range finished first — only on the order the ranges are merged in.
//!
//! Each document here puts an expensive range first (thousands of distinct
//! statements to intern) in front of cheap ones (a few statements and a long
//! comment), so the later ranges usually finish lexing before range 0 does
//! and sit waiting for it. Each load is compared with
//! [`LoaderOptions::sequential`], which lexes and merges one range at a time.

use inferray_parser::{Ingest, LoadError, LoadedDataset, LoaderOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A document on disk for the streamed source, removed on drop.
struct TempDoc(PathBuf);

impl TempDoc {
    fn new(text: &str) -> TempDoc {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let name = format!(
            "inferray-overlap-{}-{}.nt",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        );
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, text).expect("the temp directory is writable");
        TempDoc(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDoc {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// The size of one range: the loads below cut the file every `SECTION`
/// bytes, so each section of a document is (about) one range.
const SECTION: usize = 64 * 1024;

/// A range that takes long to lex: distinct statements up to `SECTION`
/// bytes, every one of them three interns.
fn expensive_section() -> String {
    let mut text = String::new();
    let mut i = 0;
    while text.len() < SECTION - 200 {
        text.push_str(&format!(
            "<http://ex.org/s{i}> <http://ex.org/p{}> <http://ex.org/o{i}> .\n",
            i % 5
        ));
        i += 1;
    }
    text
}

/// A range that lexes at once: `statements`, then a comment padding the
/// section to `SECTION` bytes.
fn cheap_section(statements: &[&str]) -> String {
    let mut text = String::new();
    for statement in statements {
        text.push_str(statement);
        text.push('\n');
    }
    text.push('#');
    text.push_str(&"x".repeat(SECTION - text.len() - 2));
    text.push('\n');
    text
}

fn load(file: &TempDoc, options: LoaderOptions) -> Result<LoadedDataset, LoadError> {
    Ingest::with_options(options).ntriples_file(file.path())
}

/// Loads `doc` over several lane counts, several times each, and compares
/// every result with the sequential load.
fn assert_like_sequential(doc: &str) -> Result<LoadedDataset, LoadError> {
    let file = TempDoc::new(doc);
    let expected = load(&file, LoaderOptions::sequential());
    for threads in [2, 3, 4, 8] {
        for round in 0..3 {
            let options = LoaderOptions::default()
                .with_threads(threads)
                .with_chunk_bytes(SECTION);
            assert_eq!(
                load(&file, options),
                expected,
                "threads={threads} round={round}"
            );
        }
    }
    expected
}

/// Terms first met in a late range get the ids the sequential pass gives
/// them even when that range is merged long after it lexed — and a term of
/// range 0 that a later range repeats keeps its range-0 id.
#[test]
fn an_early_range_that_finishes_last_merges_first() {
    let doc = [
        expensive_section(),
        cheap_section(&[
            "<http://ex.org/late1> <http://ex.org/p1> <http://ex.org/s3> .",
            "<http://ex.org/s3> <http://ex.org/q> \"late literal\"@en .",
        ]),
        cheap_section(&["<http://ex.org/late2> <http://ex.org/q> <http://ex.org/late1> ."]),
        cheap_section(&["<http://ex.org/o7> <http://ex.org/p0> <http://ex.org/late3> ."]),
    ]
    .concat();
    let loaded = assert_like_sequential(&doc).expect("the document is valid");
    let id = |iri: &str| loaded.dictionary.id_of_iri(iri).expect("a term of the doc");
    assert!(id("http://ex.org/s3") < id("http://ex.org/late1"));
    assert!(id("http://ex.org/late1") < id("http://ex.org/late2"));
    assert!(id("http://ex.org/late2") < id("http://ex.org/late3"));
}

/// The first error is range 0's, though every later range — each with an
/// error of its own — finished lexing before it.
#[test]
fn a_first_error_in_range_zero_wins_over_later_ranges_that_finished_first() {
    let mut first = expensive_section();
    let broken_line = first.lines().count() + 1;
    first.push_str("<http://ex.org/broken\n");
    let doc = [
        first,
        cheap_section(&["\"literal\" <http://ex.org/p> <http://ex.org/o> ."]),
        cheap_section(&["<http://ex.org/s> <http://ex.org/p> \"open ."]),
        cheap_section(&["<http://ex.org/s> <http://ex.org/p> <http://ex.org/o> . trailing"]),
    ]
    .concat();
    match assert_like_sequential(&doc) {
        Err(LoadError::Parse(error)) => assert_eq!(error.line, broken_line),
        other => panic!("expected range 0's parse error, got {other:?}"),
    }
}

/// A term range 0 uses as a subject and object is a predicate in the last
/// range: every range's pairs use the promoted property id.
#[test]
fn a_resource_promoted_in_the_last_range_is_a_property_everywhere() {
    let doc = [
        expensive_section(),
        cheap_section(&["<http://ex.org/s9> <http://ex.org/p2> <http://ex.org/s1> ."]),
        cheap_section(&["<http://ex.org/o4> <http://ex.org/p3> <http://ex.org/s1> ."]),
        cheap_section(&["<http://ex.org/a> <http://ex.org/s1> <http://ex.org/b> ."]),
    ]
    .concat();
    let loaded = assert_like_sequential(&doc).expect("the document is valid");
    let promoted = loaded
        .dictionary
        .id_of_iri("http://ex.org/s1")
        .expect("a term of the doc");
    assert!(inferray_model::ids::is_property_id(promoted));
    assert_eq!(loaded.store.table(promoted).map(|t| t.len()), Some(1));
}
