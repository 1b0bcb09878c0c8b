//! # inferray-parser
//!
//! RDF serialization support for the Inferray workspace: zero-copy,
//! chunk-splittable lexers for N-Triples and a Turtle subset, an N-Triples
//! writer, and two loaders that feed parsed triples straight into the
//! dictionary + vertically-partitioned store pair ("each triple is read from
//! the file system, dictionary encoding and dense numbering happen
//! simultaneously", paper §5.1):
//!
//! * [`ingest`] — the streaming parallel loader: documents are cut into
//!   chunks on statement boundaries, each chunk is lexed zero-copy and
//!   interned into a thread-local delta dictionary, and a deterministic
//!   merge assigns global dense identifiers so the result is byte-identical
//!   to a sequential load at any thread count (see `docs/ingest.md`);
//! * [`loader`] — the sequential compatibility layer (`load_ntriples`,
//!   `load_turtle`, `load_graph`, `load_triples`).
//!
//! The original Inferray reuses Jena's parsers; this reproduction keeps its
//! dependency set to the approved offline crates, so both grammars are
//! implemented from scratch in [`lex`]:
//!
//! * N-Triples — full support for the W3C grammar as used in practice
//!   (IRIs, blank nodes, plain/typed/language-tagged literals, `\uXXXX`
//!   escapes, comments);
//! * Turtle — the subset the benchmark ontologies need:
//!   `@prefix`/`PREFIX` declarations, prefixed names, the `a` keyword,
//!   `;`/`,` predicate and object lists, literals and comments. Anonymous
//!   blank nodes (`[...]`) and collections (`(...)`) are *not* supported and
//!   produce a clear error.
//!
//! Both lexers are statement oriented, yield borrowed term slices
//! ([`lex::TermRef`]) that allocate only when normalization demands it, and
//! report errors with 1-based document-global line numbers regardless of how
//! the input was chunked. The terms themselves are scanned by [`lex::Scan`],
//! the term lexer the SPARQL parser and the `.rules` / `.shapes` front ends
//! share with them ("Term syntax" in `docs/ingest.md`). [`ntriples::parse_ntriples`] and
//! [`turtle::parse_turtle`] remain as thin wrappers collecting owned
//! [`Triple`](inferray_model::Triple)s.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ingest;
pub mod lex;
pub mod loader;
pub mod ntriples;
pub mod turtle;
pub mod writer;

pub use ingest::{Ingest, LoaderOptions};
pub use lex::{TermRef, TripleRef};
pub use loader::{load_graph, load_ntriples, load_triples, load_turtle, LoadError, LoadedDataset};
pub use ntriples::{parse_ntriples, parse_ntriples_line, ParseError};
pub use turtle::parse_turtle;
pub use writer::{to_ntriples_string, write_ntriples, write_store_ntriples};
