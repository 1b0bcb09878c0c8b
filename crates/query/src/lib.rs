//! # inferray-query
//!
//! A SPARQL-subset basic-graph-pattern (BGP) query engine over Inferray's
//! vertically partitioned triple store.
//!
//! The paper motivates materialization with "consumer-independent data
//! access, i.e., inferred data can be consumed as explicit data without
//! integrating the inference engine with the runtime query engine" (§1).
//! This crate is that consumer: it evaluates conjunctive triple-pattern
//! queries directly over the sorted property tables the reasoner maintains —
//! the same access paths (binary search, contiguous runs, the ⟨o,s⟩ cache)
//! that make the sort-merge-join inference fast also answer bound-predicate
//! queries efficiently, which is precisely the workload vertical
//! partitioning was designed for (Abadi et al., PVLDB 2007).
//!
//! ## What is supported
//!
//! * `SELECT` / `ASK` with `DISTINCT`, `LIMIT`, `OFFSET`;
//! * basic graph patterns (conjunctions of triple patterns), including
//!   predicate variables;
//! * `FILTER` with `=`, `!=`, `sameTerm`, `isIRI`, `isLiteral`, `isBlank`
//!   and `bound`;
//! * `PREFIX` declarations, `a`, predicate/object lists (`;`, `,`), string /
//!   typed / language-tagged / integer literals and blank nodes.
//!
//! Anything outside this subset (`OPTIONAL`, `UNION`, property paths,
//! aggregates, …) is rejected at parse time rather than silently
//! mis-evaluated.
//!
//! ## Serving
//!
//! There is one engine, generic over how it holds its store and dictionary:
//! [`QueryEngine::new`]`(&store, &dictionary)` borrows them for embedding,
//! and [`SnapshotQueryEngine`] is the same engine over an epoch-stamped
//! [`StoreSnapshot`](inferray_store::StoreSnapshot) and an
//! `Arc<Dictionary>` — `Send + Sync`, answering every query against its one
//! frozen epoch. The [`server`] module serves it over a std-only
//! SPARQL-over-HTTP endpoint (`inferray-cli serve`). See `docs/serving.md`
//! for the snapshot lifecycle and the isolation contract.
//!
//! ## Typical use
//!
//! ```
//! use inferray_core::{InferrayReasoner, Materializer};
//! use inferray_parser::load_turtle;
//! use inferray_query::QueryEngine;
//! use inferray_rules::Fragment;
//!
//! let data = r#"
//! @prefix ex: <http://example.org/> .
//! @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
//! ex:human rdfs:subClassOf ex:mammal .
//! ex:mammal rdfs:subClassOf ex:animal .
//! ex:Bart a ex:human .
//! "#;
//!
//! // Load, materialize the RDFS closure, then query the explicit + inferred
//! // triples exactly the same way.
//! let mut dataset = load_turtle(data).unwrap();
//! InferrayReasoner::new(Fragment::RdfsDefault).materialize(&mut dataset.store);
//! dataset.store.ensure_all_os();
//!
//! let engine = QueryEngine::new(&dataset.store, &dataset.dictionary);
//! let answers = engine
//!     .execute_sparql(
//!         "PREFIX ex: <http://example.org/> SELECT ?class WHERE { ex:Bart a ?class }",
//!     )
//!     .unwrap();
//! // ex:human asserted, ex:mammal and ex:animal inferred.
//! assert_eq!(answers.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algebra;
mod engine;
mod executor;
mod planner;
pub mod server;
pub mod solution;
pub mod sparql;

pub use algebra::{FilterExpr, PatternTerm, Query, QueryForm, Selection, TriplePatternSpec};
pub use engine::{QueryEngine, SnapshotQueryEngine};
pub use server::{
    EngineSource, ServerConfig, SparqlServer, UpdateError, UpdateOutcome, UpdateSink,
};
pub use solution::{EncodedRow, SolutionSet};
pub use sparql::{parse_query, QueryParseError};
