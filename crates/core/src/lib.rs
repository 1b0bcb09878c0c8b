//! # inferray-core
//!
//! The Inferray reasoner itself — the primary contribution of the paper
//! "Inferray: fast in-memory RDF inference" (Subercaze et al., VLDB 2016) —
//! assembled from the substrate crates of this workspace:
//!
//! * the dense-numbering dictionary (`inferray-dictionary`),
//! * the vertically partitioned sorted-array store (`inferray-store`),
//! * the low-entropy sorting kernels (`inferray-sort`),
//! * the Nuutila closure (`inferray-closure`),
//! * the rule catalog and sort-merge-join executors (`inferray-rules`).
//!
//! [`InferrayReasoner`] implements Algorithm 1 of the paper:
//!
//! 1. load the triples into the main store;
//! 2. compute the **transitive closures** up front (`rdfs:subClassOf`,
//!    `rdfs:subPropertyOf`, and for RDFS-Plus `owl:sameAs` plus every
//!    declared `owl:TransitiveProperty`) with Nuutila's algorithm;
//! 3. iterate: fire every rule of the ruleset (each rule on its own thread,
//!    each with its own inferred buffer), sort/deduplicate the inferred
//!    pairs, merge them into *main* (Figure 5) and keep the genuinely new
//!    pairs as the next iteration's *new* store;
//! 4. stop when an iteration derives nothing new.
//!
//! [`api`] offers a decoded-graph convenience layer (`reason_graph`) used by
//! `examples/quickstart.rs` and the end-to-end tests, and the serving
//! dataset ([`ServingDataset`]) the SPARQL endpoint publishes; the benchmark
//! harness drives the encoded
//! [`Materializer`](inferray_rules::Materializer) interface directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod closure_stage;
pub mod iteration;
pub mod options;
pub mod reasoner;
pub mod stages;

pub use api::{
    reason_graph, reason_ntriples, reason_turtle, Program, ReasonedGraph, Replay, ServingDataset,
    ShapeInstallError, ShapeViolation, ShapeViolations, ValidationCounters, ValidationStatus,
    WriteError, WriteKind, WriteOutcome, WriteStats,
};
pub use iteration::{IterationProfile, IterationSample, RuleSample, TableSample};
pub use options::InferrayOptions;
pub use reasoner::{InferrayReasoner, RetractionStats};
pub use stages::{Stage, Stages};

// Re-export the pieces users need to drive the encoded API without adding
// every substrate crate to their dependency list.
pub use inferray_parser::{Ingest, LoaderOptions};
pub use inferray_rules::{Fragment, InferenceStats, Materializer, Ruleset};
pub use inferray_store::TripleStore;
