//! Byte-mutation fuzzing of every text front end: N-Triples, Turtle, SPARQL,
//! `.rules` and `.shapes`.
//!
//! Each case takes a seed document the repository ships (the term-shape
//! fixture, the rule and shape files, the analyzer's seeded-bad corpus, the
//! query strings of the SPARQL parser's own tests), damages it — truncation,
//! byte flips, splices from another seed, inserted multi-byte, control and
//! syntax characters — and hands the result to the front end. The contract
//! is the same for all five: the input yields `Ok` or a *positioned* error
//! or diagnostic, never a panic, and the work is bounded by the input (a
//! watchdog turns a hang into a failure instead of a stuck CI job).
//!
//! `PROPTEST_CASES` raises the case count (the nightly job does).

use inferray::parser::{Ingest, LoaderOptions};
use inferray::query::parse_query;
use inferray::rules::{analysis, shapes};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// Query strings of `crates/query/src/sparql.rs`'s unit tests.
const SPARQL_SEEDS: &[&str] = &[
    "PREFIX ex: <http://example.org/>\nSELECT * WHERE { ?x a ex:Person . ?x ex:knows ?y }",
    "PREFIX ex: <http://ex/> SELECT DISTINCT ?who WHERE { ?who ex:worksFor ?org . } LIMIT 10 OFFSET 3",
    "SELECT * WHERE { ?x ?p ?o } OFFSET 3 LIMIT 10",
    "ASK { ?x ?p ?o } OFFSET 1 LIMIT 2 OFFSET 3",
    "PREFIX ex: <http://ex/> SELECT * WHERE { ?x ex:p ?a , ?b ; ex:q ?c . }",
    "PREFIX ex: <http://ex/> SELECT * WHERE { ?x ex:knows ?y . FILTER(?x != ?y) FILTER(isIRI(?x)) }",
    "SELECT * WHERE { ?x <http://ex/p> ?y . FILTER(?y = \"42\"^^<http://www.w3.org/2001/XMLSchema#integer>) }",
    "SELECT * WHERE { ?x <http://ex/p> ?y . FILTER(sameTerm(?y, <http://ex/a>)) }",
    "PREFIX ex: <http://ex/> SELECT * WHERE { ?x ex:label \"chat\"@fr . ?x ex:age 7 . ?x ex:note \"a\\nb\" }",
    "ASK { <http://ex/s> <http://ex/p> <http://ex/o> }",
    "SELECT * WHERE { ?c rdfs:subClassOf ?d }",
    "# a comment\nSELECT * WHERE { _:b <http://ex/p> ?x . # trailing comment\n }",
    "SELECT * WHERE { ?x ?p \"chat\"@fr-BE-1x }",
    "SELECT * WHERE { ?x ?p \"caf\\u00E9\" . ?x ?p <http://ex/caf\\u00e9> }",
    "SELECT * WHERE { ?s ?p \"x\"^^xsd:string . FILTER(bound(?s)) }",
];

/// A Turtle document using every construct of the supported subset.
const TURTLE_SEED: &str = "\
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
PREFIX ex: <http://example.org/>
@base <http://example.org/base/> .
ex:human rdfs:subClassOf ex:mammal . # comment
ex:Bart a ex:human ; ex:age 10 ; ex:height 1.22 ; ex:cool true ;
  ex:iq \"85\"^^xsd:integer ; ex:motto \"Ay caramba \\\"\\u00e9\"@en-US , \"été\" .
<rel> ex:p _:b0 , <http://other.org/v1.2#frag> .
ex:v1.2 ex:p -5 .
";

/// What the mutator inserts: multi-byte characters, control characters and
/// the characters the grammars give meaning to.
const INSERTS: &[&str] = &[
    "é",
    "語",
    "🚗",
    "\u{a0}",
    "\u{2028}",
    "\u{feff}",
    "\u{0}",
    "\u{7}",
    "\u{1b}",
    "\r",
    "\n",
    "\t",
    "\"",
    "\\",
    "\\u",
    "\\U0001F697",
    "<",
    ">",
    ".",
    "@",
    "^^",
    "?",
    ":",
    "_:",
    "#",
    ";",
    ",",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    "=>",
    "..",
    "*",
    "a",
    " ",
    "-",
    "+",
    "1e5",
];

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every file below `dir` (recursively) whose name ends in `suffix`.
fn files_below(dir: &Path, suffix: &str, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
        .map(|entry| entry.expect("readable directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            files_below(&path, suffix, out);
        } else if path.to_string_lossy().ends_with(suffix) {
            out.push(path);
        }
    }
}

fn read_all(dirs: &[&str], suffix: &str) -> Vec<String> {
    let mut paths = Vec::new();
    for dir in dirs {
        files_below(&repo().join(dir), suffix, &mut paths);
    }
    assert!(!paths.is_empty(), "no *{suffix} seed under {dirs:?}");
    paths
        .iter()
        .map(|p| std::fs::read_to_string(p).unwrap_or_else(|e| panic!("{}: {e}", p.display())))
        .collect()
}

fn ntriples_seeds() -> Vec<String> {
    vec![std::fs::read_to_string(repo().join("tests/fixtures/every_term_shape.nt")).unwrap()]
}

fn turtle_seeds() -> Vec<String> {
    let mut seeds = ntriples_seeds();
    seeds.push(TURTLE_SEED.to_string());
    seeds
}

fn sparql_seeds() -> Vec<String> {
    SPARQL_SEEDS.iter().map(|q| q.to_string()).collect()
}

fn rules_seeds() -> Vec<String> {
    read_all(&["rules", "crates/rules/tests/fixtures"], ".rules")
}

fn shapes_seeds() -> Vec<String> {
    read_all(&["rules", "crates/rules/tests/fixtures"], ".shapes")
}

/// splitmix64: the mutator's own generator, driven by the case's seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }
}

/// One seed, damaged by one to four mutations. Works on bytes, so a cut or
/// flip may land inside a multi-byte character; the lossy decode at the end
/// turns that into U+FFFD, which is one more thing a lexer has to survive.
fn mutate(seeds: &[String], seed: u64) -> String {
    let mut rng = Mix(seed);
    let mut bytes = seeds[rng.below(seeds.len())].clone().into_bytes();
    for _ in 0..1 + rng.below(4) {
        let at = rng.below(bytes.len() + 1);
        match rng.below(5) {
            0 => bytes.truncate(at),
            1 if !bytes.is_empty() => {
                let at = at.min(bytes.len() - 1);
                bytes[at] ^= 1 << rng.below(8);
            }
            2 if !bytes.is_empty() => {
                let at = at.min(bytes.len() - 1);
                bytes[at] = rng.next() as u8;
            }
            3 => {
                let donor = seeds[rng.below(seeds.len())].as_bytes();
                let from = rng.below(donor.len() + 1);
                let len = rng.below(48).min(donor.len() - from);
                bytes.splice(at..at, donor[from..from + len].iter().copied());
            }
            _ => {
                let insert = INSERTS[rng.below(INSERTS.len())];
                bytes.splice(at..at, insert.bytes());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Runs `check` over every mutated input of one property on a watchdog
/// thread: a front end that loops forever fails the test, naming the input,
/// instead of hanging it.
fn bounded(name: &'static str, inputs: Vec<String>, check: fn(&str)) {
    let current = Arc::new(Mutex::new(String::new()));
    let (done, finished) = mpsc::channel();
    let shared = Arc::clone(&current);
    std::thread::spawn(move || {
        for input in &inputs {
            shared.lock().expect("never poisoned").clone_from(input);
            check(input);
        }
        // The receiver is gone only if the watchdog already gave up.
        let _ = done.send(());
    });
    match finished.recv_timeout(Duration::from_secs(60)) {
        Ok(()) => {}
        Err(mpsc::RecvTimeoutError::Timeout) => panic!(
            "{name}: not done after 60 s on {:?}",
            current.lock().expect("never poisoned")
        ),
        // The sender was dropped without sending: `check` panicked, and the
        // panic message (with the input) is already on stderr.
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("{name}: a front end panicked"),
    }
}

fn check_ntriples(input: &str) {
    let whole = inferray::parse_ntriples(input);
    if let Err(error) = &whole {
        assert!(error.line >= 1, "unpositioned: {error} for {input:?}");
        assert!(
            error.line <= input.lines().count().max(1),
            "{error} for {input:?}"
        );
    }
    // The chunked, zero-copy path agrees with the wrapper on accept/reject.
    let chunked = Ingest::with_options(
        LoaderOptions::default()
            .with_threads(2)
            .with_chunk_bytes(48),
    )
    .ntriples(input);
    assert_eq!(
        whole.is_ok(),
        chunked.is_ok(),
        "wrapper vs ingest on {input:?}"
    );
}

fn check_turtle(input: &str) {
    let whole = inferray::parse_turtle(input);
    if let Err(error) = &whole {
        assert!(error.line >= 1, "unpositioned: {error} for {input:?}");
        assert!(
            error.line <= input.lines().count() + 1,
            "{error} for {input:?}"
        );
    }
    let sequential = Ingest::with_options(LoaderOptions::sequential()).turtle(input);
    assert_eq!(
        whole.is_ok(),
        sequential.is_ok(),
        "wrapper vs ingest on {input:?}"
    );
}

fn check_sparql(input: &str) {
    if let Err(error) = parse_query(input) {
        assert!(!error.message.is_empty(), "empty error for {input:?}");
        assert!(
            error.line >= 1 && error.column >= 1,
            "unpositioned: {error} for {input:?}"
        );
        assert!(
            error.line <= input.split('\n').count(),
            "{error} is past the last line of {input:?}"
        );
    }
}

fn check_diagnostics(diagnostics: &[analysis::Diagnostic], input: &str) {
    // One finding per byte at the very most: the parser always advances.
    assert!(
        diagnostics.len() <= 2 * input.len() + 2,
        "{} diagnostics for {} bytes: {input:?}",
        diagnostics.len(),
        input.len()
    );
    let lines = input.split('\n').count() as u32;
    for d in diagnostics {
        assert!(d.line >= 1 && d.col >= 1, "unpositioned: {d} for {input:?}");
        assert!(d.line <= lines, "{d} is past the last line of {input:?}");
    }
}

fn check_rules(input: &str) {
    check_diagnostics(&analysis::analyze(input).diagnostics, input);
}

fn check_shapes(input: &str) {
    check_diagnostics(&shapes::analyze(input).diagnostics, input);
}

/// The unmutated seeds behave: the shipped files are accepted, the seeded-bad
/// ones are refused with a position — so the mutants start from both sides.
#[test]
fn seeds_parse_or_fail_with_a_position() {
    ntriples_seeds().iter().for_each(|s| check_ntriples(s));
    turtle_seeds().iter().for_each(|s| check_turtle(s));
    sparql_seeds().iter().for_each(|s| check_sparql(s));
    rules_seeds().iter().for_each(|s| check_rules(s));
    shapes_seeds().iter().for_each(|s| check_shapes(s));
}

/// How many mutants one proptest case checks (the watchdog thread is per
/// case, so a batch keeps its cost negligible).
const BATCH: u64 = 16;

fn mutants(seeds: &[String], seed: u64) -> Vec<String> {
    (0..BATCH)
        .map(|i| mutate(seeds, seed.wrapping_add(i)))
        .collect()
}

proptest! {
    #[test]
    fn ntriples_never_panics(seed in any::<u64>()) {
        bounded("ntriples", mutants(&ntriples_seeds(), seed), check_ntriples);
    }

    #[test]
    fn turtle_never_panics(seed in any::<u64>()) {
        bounded("turtle", mutants(&turtle_seeds(), seed), check_turtle);
    }

    #[test]
    fn sparql_never_panics(seed in any::<u64>()) {
        bounded("sparql", mutants(&sparql_seeds(), seed), check_sparql);
    }

    #[test]
    fn rules_never_panic(seed in any::<u64>()) {
        bounded("rules", mutants(&rules_seeds(), seed), check_rules);
    }

    #[test]
    fn shapes_never_panic(seed in any::<u64>()) {
        bounded("shapes", mutants(&shapes_seeds(), seed), check_shapes);
    }
}
