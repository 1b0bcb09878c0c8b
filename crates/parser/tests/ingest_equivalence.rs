//! The streaming-ingest determinism contract, property-tested: at any
//! thread count and any chunk size, the parallel ingest pipeline must
//! produce a dictionary and store **byte-identical** to the sequential
//! escape hatch and to the two-pass path (parse into owned triples, then
//! encode them one by one through the dictionary) — dense identifiers,
//! registration order, resource→property promotions, per-table pair buffers
//! and parse-error line numbers included. The same holds for the streamed
//! file source (`Ingest::ntriples_file`): whatever the lanes, the byte ranges
//! they cut and the size of the blocks they read, the file loads as its text
//! does, and fails where, and as, its text does.

use inferray_parser::{
    load_ntriples, load_triples, load_turtle, parse_ntriples, parse_turtle, Ingest, LoadError,
    LoadedDataset, LoaderOptions,
};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A document on disk for the streamed source, removed on drop.
struct TempDoc(PathBuf);

impl TempDoc {
    fn new(bytes: &[u8]) -> TempDoc {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let name = format!(
            "inferray-ingest-{}-{}.nt",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        );
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, bytes).expect("the temp directory is writable");
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

/// Lane counts the streamed source is exercised with; one is the inline
/// (sequential) pool.
const LANES: [usize; 4] = [1, 2, 3, 8];

/// Block sizes from "smaller than any statement" to "larger than any
/// document here": statements straddle every border the small ones make.
const BLOCKS: [usize; 7] = [16, 17, 61, 256, 4096, 65_536, 1 << 20];

fn streamed(
    file: &TempDoc,
    threads: usize,
    chunk_bytes: Option<usize>,
    block_bytes: usize,
) -> Result<LoadedDataset, LoadError> {
    Ingest::with_options(LoaderOptions {
        threads: Some(threads),
        chunk_bytes,
    })
    .ntriples_file_in_blocks(file.path(), block_bytes)
}

fn sequential(doc: &str) -> Result<LoadedDataset, LoadError> {
    Ingest::with_options(LoaderOptions::sequential()).ntriples(doc)
}

/// A small closed world of term spellings that stresses the interning key
/// (escapes, unicode, datatypes, language tags) and the promotion machinery
/// (terms used both as subjects/objects and as predicates, schema
/// predicates, property-class `rdf:type` objects).
fn arbitrary_statement() -> impl Strategy<Value = String> {
    let name = "[a-z]{1,6}";
    let entity = name.prop_map(|n| format!("<http://ex.org/{n}>"));
    let predicate = prop_oneof![
        // A tiny predicate pool: the same IRIs keep showing up as subjects
        // and objects of schema triples, so promotions fire constantly.
        "[pqr]{1,2}".prop_map(|n| format!("<http://ex.org/{n}>")),
        Just("<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>".to_string()),
        Just("<http://www.w3.org/2000/01/rdf-schema#subClassOf>".to_string()),
        Just("<http://www.w3.org/2000/01/rdf-schema#subPropertyOf>".to_string()),
        Just("<http://www.w3.org/2000/01/rdf-schema#domain>".to_string()),
        Just("<http://www.w3.org/2000/01/rdf-schema#range>".to_string()),
        Just("<http://www.w3.org/2002/07/owl#inverseOf>".to_string()),
    ];
    let object = prop_oneof![
        entity.clone(),
        // Predicate-pool IRIs in object position (promotion bait).
        "[pqr]{1,2}".prop_map(|n| format!("<http://ex.org/{n}>")),
        Just("<http://www.w3.org/2002/07/owl#TransitiveProperty>".to_string()),
        Just("<http://www.w3.org/2002/07/owl#FunctionalProperty>".to_string()),
        "[A-Za-z0-9]{0,8}".prop_map(|l| format!("_:{}b", l)),
        // Literals with characters that exercise escaping and unicode.
        prop_oneof![
            "[a-zA-Z0-9 ]{0,16}",
            Just("line1\\nline2 \\\"q\\\" é語🦀".to_string()),
        ]
        .prop_map(|l| format!("\"{l}\"")),
        "[a-z]{1,8}".prop_map(|l| format!("\"{l}\"@en-GB")),
        "[0-9]{1,6}".prop_map(|l| format!("\"{l}\"^^<http://www.w3.org/2001/XMLSchema#integer>")),
    ];
    let subject = prop_oneof![
        entity,
        "[pqr]{1,2}".prop_map(|n| format!("<http://ex.org/{n}>")),
        "[A-Za-z0-9]{0,8}".prop_map(|l| format!("_:{}b", l)),
    ];
    (subject, predicate, object).prop_map(|(s, p, o)| format!("{s} {p} {o} ."))
}

fn arbitrary_document() -> impl Strategy<Value = String> {
    prop::collection::vec(arbitrary_statement(), 0..60).prop_map(|statements| {
        let mut doc = String::new();
        for (i, statement) in statements.iter().enumerate() {
            if i % 9 == 0 {
                doc.push_str("# comment line\n\n");
            }
            doc.push_str(statement);
            doc.push('\n');
        }
        doc
    })
}

fn assert_datasets_identical(expected: &LoadedDataset, actual: &LoadedDataset, label: &str) {
    // `LoadedDataset` equality is structural over the dictionary maps, the
    // dense term tables and every per-property pair buffer; spell out the
    // most diagnostic pieces first so failures read well.
    assert_eq!(
        expected.dictionary.num_properties(),
        actual.dictionary.num_properties(),
        "{label}: property count diverged"
    );
    assert_eq!(
        expected.dictionary.num_resources(),
        actual.dictionary.num_resources(),
        "{label}: resource count diverged"
    );
    for ((id_a, term_a), (id_b, term_b)) in expected.dictionary.iter().zip(actual.dictionary.iter())
    {
        assert_eq!(
            (id_a, term_a),
            (id_b, term_b),
            "{label}: dictionary diverged"
        );
    }
    for (p, table) in expected.store.iter_tables() {
        let other = actual
            .store
            .table(p)
            .unwrap_or_else(|| panic!("{label}: table {p} missing"));
        assert_eq!(table.pairs(), other.pairs(), "{label}: table {p} diverged");
    }
    assert_eq!(expected, actual, "{label}: datasets diverged");
}

// The default configuration: 128 cases, or `PROPTEST_CASES` (the nightly
// job raises it).
proptest! {
    /// Parallel ingest == sequential ingest == `load_ntriples` == the
    /// two-pass path, for every thread count × chunk size combination
    /// thrown at it. The two-pass path is `Dictionary::encode_term_refs`,
    /// the encoder of `load_graph`, `reason_graph` and `POST /update`: it
    /// and the ingest's phase 1 must pick the same terms as properties.
    #[test]
    fn parallel_ingest_is_byte_identical(
        doc in arbitrary_document(),
        threads in 2usize..6,
        chunk_bytes in 16usize..2048,
    ) {
        let sequential = Ingest::with_options(LoaderOptions::sequential())
            .ntriples(&doc)
            .expect("generated documents are valid");
        let legacy = load_ntriples(&doc).expect("generated documents are valid");
        assert_datasets_identical(&legacy, &sequential, "sequential-vs-legacy");
        let two_pass = load_triples(parse_ntriples(&doc).expect("generated documents are valid"))
            .expect("generated documents encode");
        assert_datasets_identical(&two_pass, &sequential, "sequential-vs-two-pass");

        let parallel = Ingest::with_options(LoaderOptions {
            threads: Some(threads),
            chunk_bytes: Some(chunk_bytes),
        })
        .ntriples(&doc)
        .expect("generated documents are valid");
        assert_datasets_identical(&sequential, &parallel, "parallel-vs-sequential");
    }

    /// A malformed line reports the same 1-based line number and message no
    /// matter where the chunk boundaries fall.
    #[test]
    fn parse_errors_are_identical_across_chunk_boundaries(
        prefix in arbitrary_document(),
        suffix in arbitrary_document(),
        threads in 2usize..6,
        chunk_bytes in 16usize..512,
    ) {
        let doc = format!("{prefix}<http://ex.org/broken\n{suffix}");
        let sequential = Ingest::with_options(LoaderOptions::sequential())
            .ntriples(&doc)
            .expect_err("the injected line is malformed");
        let parallel = Ingest::with_options(LoaderOptions {
            threads: Some(threads),
            chunk_bytes: Some(chunk_bytes),
        })
        .ntriples(&doc)
        .expect_err("the injected line is malformed");
        match (&sequential, &parallel) {
            (LoadError::Parse(a), LoadError::Parse(b)) => {
                prop_assert_eq!(a.line, b.line);
                prop_assert_eq!(&a.message, &b.message);
            }
            other => panic!("expected parse errors, got {other:?}"),
        }
    }

    /// Streamed file == slice == sequential, for every lane count, range
    /// size and block size: ranges are cut at arbitrary bytes and blocks at
    /// arbitrary lines, and neither shows in the result.
    #[test]
    fn streamed_file_is_byte_identical(
        doc in arbitrary_document(),
        lanes in 0usize..LANES.len(),
        block in 0usize..BLOCKS.len(),
        chunk_bytes in 16usize..2048,
    ) {
        let expected = sequential(&doc).expect("generated documents are valid");
        let file = TempDoc::new(doc.as_bytes());
        for chunk_bytes in [None, Some(chunk_bytes)] {
            let loaded = streamed(&file, LANES[lanes], chunk_bytes, BLOCKS[block])
                .expect("generated documents are valid");
            assert_datasets_identical(&expected, &loaded, "streamed-vs-sequential");
            let slice = Ingest::with_options(LoaderOptions {
                threads: Some(LANES[lanes]),
                chunk_bytes,
            })
            .ntriples(&doc)
            .expect("generated documents are valid");
            assert_datasets_identical(&slice, &loaded, "streamed-vs-slice");
        }
    }

    /// The first error of a streamed file is the sequential pass's first
    /// error — line, message and context — wherever the broken line falls
    /// among the ranges and blocks.
    #[test]
    fn streamed_errors_are_the_sequential_errors(
        prefix in arbitrary_document(),
        suffix in arbitrary_document(),
        broken in prop_oneof![
            Just("<http://ex.org/broken"),
            Just("<http://ex.org/s> <http://ex.org/p> \"open ."),
            Just("<http://ex.org/s> <http://ex.org/p> <http://ex.org/o> . trailing"),
            Just("\"literal\" <http://ex.org/p> <http://ex.org/o> ."),
        ],
        lanes in 0usize..LANES.len(),
        block in 0usize..BLOCKS.len(),
        chunk_bytes in 16usize..512,
    ) {
        let doc = format!("{prefix}{broken}\n{suffix}<http://ex.org/also broken\n");
        let expected = sequential(&doc).expect_err("the injected line is malformed");
        let file = TempDoc::new(doc.as_bytes());
        for chunk_bytes in [None, Some(chunk_bytes)] {
            let error = streamed(&file, LANES[lanes], chunk_bytes, BLOCKS[block])
                .expect_err("the injected line is malformed");
            prop_assert_eq!(&error, &expected);
        }
    }

    /// Turtle: statement-boundary chunking (predicate/object lists, shared
    /// prefixes, promotions) is invisible in the result, and the two-pass
    /// path gives that result too.
    #[test]
    fn turtle_ingest_is_byte_identical(
        locals in prop::collection::vec("[a-z]{1,5}", 1..25),
        threads in 2usize..6,
        chunk_bytes in 16usize..512,
    ) {
        let mut doc = String::from(
            "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n\
             @prefix owl: <http://www.w3.org/2002/07/owl#> .\n\
             @prefix ex: <http://ex.org/> .\n",
        );
        for (i, local) in locals.iter().enumerate() {
            match i % 5 {
                // Schema statements that promote instance-position terms.
                0 => doc.push_str(&format!("ex:{local} rdfs:domain ex:Dom{i} .\n")),
                1 => doc.push_str(&format!("ex:{local} owl:inverseOf ex:inv{local} .\n")),
                2 => doc.push_str(&format!(
                    "ex:s{i} ex:{local} ex:o{i} , ex:o{} ; a ex:C{} .\n",
                    i + 1,
                    i % 3
                )),
                3 => doc.push_str(&format!(
                    "ex:s{i} ex:age {i} ; ex:name \"n{local}\"@en .\n"
                )),
                _ => doc.push_str(&format!("ex:{local} a owl:TransitiveProperty .\n")),
            }
        }
        let legacy = load_turtle(&doc).expect("generated turtle is valid");
        let sequential = Ingest::with_options(LoaderOptions::sequential())
            .turtle(&doc)
            .expect("generated turtle is valid");
        assert_datasets_identical(&legacy, &sequential, "turtle-sequential-vs-legacy");
        let two_pass = load_triples(parse_turtle(&doc).expect("generated turtle is valid"))
            .expect("generated turtle encodes");
        assert_datasets_identical(&two_pass, &sequential, "turtle-sequential-vs-two-pass");
        let parallel = Ingest::with_options(LoaderOptions {
            threads: Some(threads),
            chunk_bytes: Some(chunk_bytes),
        })
        .turtle(&doc)
        .expect("generated turtle is valid");
        assert_datasets_identical(&sequential, &parallel, "turtle-parallel-vs-sequential");
    }
}

/// Promotion chains crossing many chunk boundaries in both directions:
/// property-before-resource and resource-before-property, interleaved with
/// filler so every chunking splits them differently.
#[test]
fn promotion_stress_across_chunkings() {
    let mut doc = String::new();
    for i in 0..40 {
        doc.push_str(&format!(
            "<http://ex.org/prop{i}> <http://www.w3.org/2000/01/rdf-schema#domain> <http://ex.org/C{i}> .\n"
        ));
        for j in 0..5 {
            doc.push_str(&format!(
                "<http://ex.org/s{i}x{j}> <http://ex.org/filler{j}> <http://ex.org/prop{}> .\n",
                (i + 7) % 40
            ));
        }
        doc.push_str(&format!(
            "<http://ex.org/a{i}> <http://ex.org/prop{}> <http://ex.org/b{i}> .\n",
            39 - i
        ));
    }
    let sequential = Ingest::with_options(LoaderOptions::sequential())
        .ntriples(&doc)
        .unwrap();
    let legacy = load_ntriples(&doc).unwrap();
    assert_datasets_identical(&legacy, &sequential, "sequential-vs-legacy");
    for chunk_bytes in [32, 257, 1024, 1 << 16] {
        let parallel = Ingest::with_options(LoaderOptions {
            threads: Some(4),
            chunk_bytes: Some(chunk_bytes),
        })
        .ntriples(&doc)
        .unwrap();
        assert_datasets_identical(&sequential, &parallel, "parallel-vs-sequential");
    }
}

/// The global-pool default path (threads: None) is exercised too.
#[test]
fn default_options_use_the_global_pool_and_stay_identical() {
    let doc: String = (0..500)
        .map(|i| {
            format!(
                "<http://ex.org/s{}> <http://ex.org/p{}> \"v{i}\" .\n",
                i % 100,
                i % 11
            )
        })
        .collect();
    let sequential = Ingest::with_options(LoaderOptions::sequential())
        .ntriples(&doc)
        .unwrap();
    let parallel = Ingest::new().ntriples(&doc).unwrap();
    assert_datasets_identical(&sequential, &parallel, "global-pool");
}

/// A document whose statements straddle every block and range border the
/// sweep below makes, with a promotion whose two halves sit in different
/// ranges: `hasPart` is a plain subject on the first line and a predicate
/// on the last.
fn promotion_document() -> String {
    let mut doc = String::from(
        "<http://ex.org/hasPart> <http://www.w3.org/2000/01/rdf-schema#domain> <http://ex.org/Whole> .\n",
    );
    for i in 0..40 {
        doc.push_str(&format!(
            "<http://ex.org/s{i}> <http://ex.org/p{}> \"v{i} \\\"é\\\" 語\"@en .\n",
            i % 3
        ));
        if i % 7 == 0 {
            doc.push_str("# a comment between statements\r\n\n");
        }
    }
    doc.push_str("<http://ex.org/Car> <http://ex.org/hasPart> <http://ex.org/Wheel> .\n");
    doc
}

/// Every block size from 16 bytes up to past the longest line, times every
/// lane count, times range sizes that put the promotion's halves in
/// different ranges.
#[test]
fn streamed_promotion_across_ranges_for_every_block_size() {
    let doc = promotion_document();
    let expected = sequential(&doc).unwrap();
    let promoted = expected
        .dictionary
        .id_of_iri("http://ex.org/hasPart")
        .unwrap();
    assert!(inferray_model::ids::is_property_id(promoted));
    let file = TempDoc::new(doc.as_bytes());
    for threads in LANES {
        for chunk_bytes in [None, Some(64), Some(300), Some(1000)] {
            for block_bytes in (16..160).chain([1 << 10, 1 << 20]) {
                let loaded = streamed(&file, threads, chunk_bytes, block_bytes).unwrap();
                assert_datasets_identical(
                    &expected,
                    &loaded,
                    &format!("threads={threads} chunk={chunk_bytes:?} block={block_bytes}"),
                );
            }
        }
    }
}

/// The broken line visits every line of the document — first and last line
/// of a range, astride a block border, astride a range border — and the
/// streamed error equals the sequential one each time.
#[test]
fn streamed_error_position_is_exact_on_every_line() {
    let lines: Vec<String> = promotion_document().lines().map(String::from).collect();
    for broken in 0..lines.len() {
        let mut doc = String::new();
        for (i, line) in lines.iter().enumerate() {
            doc.push_str(if i == broken {
                "<http://ex.org/broken"
            } else {
                line
            });
            doc.push('\n');
        }
        let expected = sequential(&doc).unwrap_err();
        assert!(matches!(&expected, LoadError::Parse(e) if e.line == broken + 1));
        let file = TempDoc::new(doc.as_bytes());
        for threads in [1, 3] {
            for chunk_bytes in [None, Some(200)] {
                for block_bytes in [16, 100, 1 << 20] {
                    let error = streamed(&file, threads, chunk_bytes, block_bytes).unwrap_err();
                    assert_eq!(
                        error, expected,
                        "line {broken} threads={threads} chunk={chunk_bytes:?} block={block_bytes}"
                    );
                }
            }
        }
    }
}

/// The shapes a file can end in, and the sizes it can have next to a block
/// and a range: all load as their text does.
#[test]
fn streamed_edge_shapes_load_as_their_text() {
    let statement = "<http://ex.org/a> <http://ex.org/p> <http://ex.org/b> .";
    let long_literal = "x".repeat(5000);
    let documents = [
        String::new(),
        "\n".to_string(),
        statement.to_string(),
        format!("{statement}\n"),
        format!("{statement}\r\n{statement}\r\n"),
        format!("{statement}\n# only a comment at the end"),
        format!("{statement}\n\n\n   \n"),
        format!("<http://ex.org/a> <http://ex.org/p> \"{long_literal}\" .\n{statement}\n"),
        format!("{statement}\n<http://ex.org/a> <http://ex.org/p> \"{long_literal}\" ."),
    ];
    for doc in &documents {
        let expected = sequential(doc).unwrap();
        let file = TempDoc::new(doc.as_bytes());
        for threads in LANES {
            for chunk_bytes in [None, Some(32)] {
                for block_bytes in [16, 64, 1 << 20] {
                    let loaded = streamed(&file, threads, chunk_bytes, block_bytes).unwrap();
                    assert_datasets_identical(&expected, &loaded, &format!("{doc:.60?}"));
                }
            }
        }
    }
}

/// Bytes that are not UTF-8 are a parse error on their line; a malformed
/// line before them is the first error instead.
#[test]
fn streamed_invalid_utf8_is_a_positioned_parse_error() {
    let statement = b"<http://ex.org/a> <http://ex.org/p> <http://ex.org/b> .\n";
    let mut bytes = Vec::new();
    for _ in 0..9 {
        bytes.extend_from_slice(statement);
    }
    bytes.extend_from_slice(b"<http://ex.org/a> <http://ex.org/p> \"caf\xE9\" .\n");
    bytes.extend_from_slice(statement);
    let file = TempDoc::new(&bytes);
    for threads in LANES {
        for chunk_bytes in [None, Some(100)] {
            for block_bytes in [16, 100, 1 << 20] {
                match streamed(&file, threads, chunk_bytes, block_bytes).unwrap_err() {
                    LoadError::Parse(error) => {
                        assert_eq!(error.line, 10);
                        assert_eq!(error.message, "invalid UTF-8");
                        assert!(error
                            .context
                            .starts_with("<http://ex.org/a> <http://ex.org/p> \"caf"));
                    }
                    other => panic!("expected a parse error, got {other:?}"),
                }
            }
        }
    }

    // A syntax error on line 3 comes first, even inside the same block.
    let mut earlier = Vec::new();
    earlier.extend_from_slice(statement);
    earlier.extend_from_slice(statement);
    earlier.extend_from_slice(b"<http://ex.org/broken\n");
    earlier.extend_from_slice(&bytes);
    let file = TempDoc::new(&earlier);
    for block_bytes in [16, 1 << 20] {
        match streamed(&file, 2, None, block_bytes).unwrap_err() {
            LoadError::Parse(error) => assert_eq!(
                (error.line, error.message.as_str()),
                (3, "unterminated IRI")
            ),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }
}

/// A missing file is an I/O error, not a panic and not an empty dataset.
#[test]
fn streamed_missing_file_is_an_io_error() {
    let missing = std::env::temp_dir().join("inferray-ingest-no-such-file.nt");
    let error = Ingest::new().ntriples_file(&missing).unwrap_err();
    assert!(matches!(error, LoadError::Io(_)), "{error:?}");
}
