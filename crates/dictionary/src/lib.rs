//! # inferray-dictionary
//!
//! Dictionary encoding with the *dense numbering* scheme of section 5.1 of
//! the Inferray paper (Subercaze et al., VLDB 2016).
//!
//! Every RDF term is mapped to a fixed-length 64-bit identifier:
//!
//! * terms that occur in the *predicate* position (properties) are numbered
//!   **downwards** from 2³² — the first property gets 2³², the second 2³² − 1,
//!   and so on;
//! * every other term (classes, individuals, literals — collectively
//!   "resources") is numbered **upwards** from 2³² + 1.
//!
//! Keeping both halves dense lowers the entropy of the encoded values, which
//! is what the counting-sort and adaptive-radix kernels in `inferray-sort`
//! exploit. Encoding and dense numbering happen simultaneously while triples
//! are read, exactly as in the paper ("each triple is read from the file
//! system, dictionary encoding and dense numbering happen simultaneously").
//!
//! ## Representation: one text arena behind the dense identifiers
//!
//! The paper's layout argument — dense identifiers, contiguous arrays, no
//! pointer chasing — is applied to the dictionary itself. A [`Dictionary`]
//! is six flat vectors and nothing else:
//!
//! * a [`TextArena`] (three of them): one append-only `String` holding the
//!   canonical N-Triples form of every distinct term exactly once, back to
//!   back; a `Vec<usize>` of end offsets, so *entry* `e` (the dense number
//!   of a text, in first-occurrence order) spans `ends[e − 1]..ends[e]`; and
//!   an open-addressing `Vec<u32>` of entry numbers that is the only lookup
//!   structure — a probe hashes the key's bytes (FxHash, slot taken from the
//!   hash's *high* bits) and compares them in the arena, so there is no
//!   owned key and no stored `Term`;
//! * `ids`: entry → the term's current identifier;
//! * one table per identifier space — `properties` and `resources` — from
//!   dense index to entry (the paper's split numbering).
//!
//! Which calls allocate:
//!
//! | call | cost |
//! |---|---|
//! | [`Dictionary::text`], [`id_of_text`](Dictionary::id_of_text), [`kind`](Dictionary::kind) | none: table lookups and a slice of the arena |
//! | [`Dictionary::id_of`] | none: the key is rendered into a thread-local scratch buffer |
//! | [`Dictionary::term_ref`] | none, except for a literal whose lexical form contains escapes (it is unescaped into an owned string) |
//! | `encode_*` of a known term | none: the key is rendered into the arena's own tail and cut off again |
//! | `encode_*` of a new term | the rendered bytes stay in the arena (amortized growth of three vectors) |
//! | [`Dictionary::decode`], [`decode_triple`](Dictionary::decode_triple), [`iter`](Dictionary::iter) | one owned [`Term`](inferray_model::Term) per call — the API edge |
//! | `clone` / `drop` | six `memcpy`s / six frees, whatever the term count |
//!
//! The canonical text is the term. `"x"` and `"x"^^xsd:string` are one
//! RDF 1.1 literal, always were one key and one identifier, and print the
//! same; the arena keeps the one canonical text, so
//! `decode(encode(Term::typed_literal("x", XSD_STRING)))` is
//! `Term::plain_literal("x")` — not `==` to what went in under `Term`'s
//! derived equality — and [`Dictionary::term_ref`], hence the SPARQL JSON
//! renderer and the snapshot encoder, see no datatype on it. The same holds
//! for a datatype beside a language tag (constructible through the `Term`
//! enum only). `encode ∘ decode` is the identity on identifiers, and
//! `decode ∘ encode` is on every term in canonical spelling.
//!
//! Equality compares what two dictionaries *say* (the text behind every
//! identifier, the pending promotions), not how their arenas are laid out —
//! a dictionary rebuilt from a snapshot image lists property text first.
//!
//! ## Property promotion
//!
//! RDF schema triples place properties in the *subject* (and sometimes
//! object) position — `p rdfs:domain c`, `p1 rdfs:subPropertyOf p2`. With a
//! single streaming pass a term can therefore be met as a plain resource
//! before it is discovered to be a property. The [`Dictionary`] handles this
//! by *promoting* the term: it receives a fresh dense property identifier,
//! its arena entry now maps to that identifier, and the `(old resource id →
//! new property id)` pair is recorded so that already-encoded triples can be
//! patched in a single linear pass (see [`Dictionary::take_promotions`]).
//! Nothing is copied: the new property slot and the stale resource slot
//! point at the same entry, so both identifiers still decode, to the same
//! bytes. This keeps the one-pass loading behaviour of the paper while
//! preserving the invariant that *a property has exactly one identifier, in
//! the property half*.
//!
//! ## Well-known identifiers
//!
//! The RDF/RDFS/OWL vocabulary is pre-registered in a fixed order, so the
//! identifiers of `rdf:type`, `rdfs:subClassOf`, … are compile-time constants
//! exposed in [`wellknown`]; the rule engine uses them directly without any
//! dictionary lookup at inference time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod dictionary;
pub mod stats;
pub mod wellknown;

pub use arena::TextArena;
pub use dictionary::{position_demands, Demand, DenseTableError, Dictionary, EncodeError};
