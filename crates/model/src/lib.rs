//! # inferray-model
//!
//! RDF data model shared by every crate of the Inferray workspace.
//!
//! This crate defines:
//!
//! * [`Term`] — the three kinds of RDF terms (IRIs, blank nodes, literals),
//!   with N-Triples-compatible formatting — and [`TermRef`], its borrowed
//!   view over a lexer's input or the dictionary's text arena.
//! * [`Triple`] — a decoded `⟨subject, predicate, object⟩` statement.
//! * [`IdTriple`] — a dictionary-encoded triple of three 64-bit identifiers,
//!   the representation every performance-critical component works on.
//! * [`vocab`] — the RDF / RDFS / OWL vocabulary IRIs used by the rule
//!   engine (Table 5 of the paper).
//! * [`ids`] — the dense-numbering identifier-space layout of section 5.1 of
//!   the paper: properties are numbered *downwards* from 2³², resources
//!   (non-properties) *upwards* from 2³² + 1.
//! * [`Graph`] — a small, set-semantics triple container used by examples
//!   and by the test-suite to compare materializations produced by different
//!   reasoners.
//! * [`json_escape_into`] — the one JSON string escaper behind every
//!   hand-rendered response body of the serving layers.
//!
//! The crate is dependency-free and allocation-conscious: the encoded
//! representation ([`IdTriple`], and flat `Vec<u64>` pair arrays downstream)
//! is what the reasoner actually touches in its hot loops; the decoded
//! [`Term`] representation only appears at the I/O boundary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
pub mod graph;
pub mod hash;
pub mod ids;
pub mod json;
pub mod term;
pub mod triple;
pub mod vocab;

pub use graph::Graph;
pub use hash::{FxBuildHasher, FxHashMap, FxHasher};
pub use json::{first_json_escape, json_escape_into, json_string_into};
pub use term::{Term, TermKind, TermRef};
pub use triple::{IdTriple, Triple};
