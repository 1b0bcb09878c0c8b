//! # inferray
//!
//! Umbrella crate for the **Inferray** workspace — a from-scratch Rust
//! reproduction of *"Inferray: fast in-memory RDF inference"* (Subercaze,
//! Gravier, Chevalier, Laforest — PVLDB 9, VLDB 2016).
//!
//! Inferray is a forward-chaining (materialization) reasoner for the RDFS,
//! ρDF and RDFS-Plus rule fragments, built around three ideas:
//!
//! 1. a **vertically partitioned** triple store whose property tables are
//!    flat, sorted arrays of 64-bit `⟨subject, object⟩` pairs, so every rule
//!    is a sequential sort-merge join;
//! 2. **dense dictionary numbering** and two low-entropy sorting kernels
//!    (pair counting sort and adaptive MSD radix) that keep those tables
//!    sorted cheaply;
//! 3. a dedicated **transitive-closure stage** (Nuutila's algorithm over
//!    one dense numbering, output sorted by construction) run before the fixed-point rule loop.
//!
//! ## Quick start
//!
//! ```
//! use inferray::{reason_graph, Fragment, Graph, Triple, vocab};
//!
//! let mut graph = Graph::new();
//! graph.insert_iris("http://ex/human", vocab::RDFS_SUB_CLASS_OF, "http://ex/mammal");
//! graph.insert_iris("http://ex/mammal", vocab::RDFS_SUB_CLASS_OF, "http://ex/animal");
//! graph.insert_iris("http://ex/Bart", vocab::RDF_TYPE, "http://ex/human");
//!
//! let result = reason_graph(&graph, Fragment::RdfsDefault).unwrap();
//! assert!(result.graph.contains(&Triple::iris(
//!     "http://ex/Bart", vocab::RDF_TYPE, "http://ex/animal")));
//! assert_eq!(result.stats.inferred_triples(), 3);
//! ```
//!
//! The individual subsystems are re-exported as modules: [`model`],
//! [`dictionary`], [`parser`], [`sort`], [`closure`], [`store`], [`rules`],
//! [`core`], [`baselines`] and [`datasets`]. See `README.md` ("Workspace
//! layout") for the mapping between the paper's sections and these crates,
//! and its "Benchmarks" section for the reproduced tables and figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use inferray_baselines as baselines;
pub use inferray_closure as closure;
pub use inferray_core as core;
pub use inferray_datasets as datasets;
pub use inferray_dictionary as dictionary;
pub use inferray_model as model;
pub use inferray_parser as parser;
pub use inferray_query as query;
pub use inferray_rules as rules;
pub use inferray_sort as sort;
pub use inferray_store as store;

// The items most applications need, at the crate root.
pub use inferray_core::ServingDataset;
pub use inferray_core::{
    reason_graph, Fragment, InferenceStats, InferrayOptions, InferrayReasoner, Materializer,
    Program, ReasonedGraph, RetractionStats, ShapeInstallError, ShapeViolation, ShapeViolations,
    Stage, Stages, TripleStore, ValidationCounters, ValidationStatus, WriteError, WriteKind,
    WriteOutcome, WriteStats,
};
pub use inferray_model::{vocab, Graph, IdTriple, Term, Triple};
pub use inferray_parser::{load_graph, load_ntriples, load_turtle, parse_ntriples, parse_turtle};
pub use inferray_query::{QueryEngine, SolutionSet};

pub use inferray_persist as persist;
pub use inferray_persist::{CheckpointPolicy, DurableDataset, DurableError};

use inferray_query::{UpdateError, UpdateOutcome, UpdateSink};
use inferray_store::unpoison;
use std::sync::{Arc, Mutex};

/// Adapts a [`ServingDataset`] — in memory, or behind a [`DurableDataset`]
/// — to the HTTP server: `POST /update` runs the dataset's write pipeline
/// (with the WAL as its log stage when durable, docs/persistence.md) and
/// `GET /status` gains the `durability` and `validation` objects and, once
/// a write was accepted, `last_write`: its stage times
/// ([`WriteOutcome::json_into`]).
///
/// Lives in the umbrella crate because `inferray-query` deliberately does
/// not depend on the reasoner — the server knows only the
/// [`UpdateSink`](inferray_query::UpdateSink) trait.
#[derive(Debug, Clone)]
pub struct ServingUpdateSink {
    dataset: Arc<ServingDataset>,
    durable: Option<Arc<DurableDataset>>,
    accepts_writes: bool,
    /// The outcome of the last accepted write, shared by the sink's clones.
    last_write: Arc<Mutex<Option<WriteOutcome>>>,
}

impl ServingUpdateSink {
    /// A sink over an in-memory dataset: writes are **not** durable.
    pub fn new(dataset: Arc<ServingDataset>) -> Self {
        ServingUpdateSink {
            dataset,
            durable: None,
            accepts_writes: true,
            last_write: Arc::default(),
        }
    }

    /// A sink over a durable dataset: every write is WAL-logged and fsync'd
    /// before it publishes.
    pub fn durable(durable: Arc<DurableDataset>) -> Self {
        ServingUpdateSink {
            dataset: Arc::clone(durable.dataset()),
            durable: Some(durable),
            accepts_writes: true,
            last_write: Arc::default(),
        }
    }

    /// The same sink serving only its `/status` members: `POST /update`
    /// answers `404` as on an endpoint without a sink (`serve --read-only`).
    pub fn status_only(mut self) -> Self {
        self.accepts_writes = false;
        self
    }

    fn write(&self, kind: WriteKind, body: &str) -> Result<UpdateOutcome, UpdateError> {
        if !self.accepts_writes {
            return Err(UpdateError::Disabled);
        }
        let result = match &self.durable {
            Some(durable) => durable.write_ntriples(kind, body),
            None => self.dataset.write_ntriples(kind, body, || Ok(())),
        };
        match result {
            // Epoch and size come from the write itself (captured under the
            // dataset's writer lock), so concurrent updates cannot pair this
            // request's counts with another request's epoch.
            Ok(outcome) => Ok(self.accepted(outcome)),
            // A parse/encode failure is the client's fault (`400`), worded
            // the same with and without a data directory.
            Err(WriteError::Load(e)) => Err(UpdateError::rejected(e.to_string())),
            // A shape refusal is a semantic conflict with the installed
            // constraints: `422` with the positioned violation report in
            // the body (docs/shapes.md).
            Err(WriteError::Shapes(violations)) => Err(UpdateError::Invalid {
                message: violations.to_string(),
                violations_json: violations.json(),
            }),
            // The WAL could not be appended: the dataset is read-only until
            // an operator intervenes (`503` with `Retry-After`); reads keep
            // serving the last published epoch.
            Err(WriteError::Log(reason)) => Err(UpdateError::Unavailable {
                message: format!("dataset is read-only: {reason}"),
                retry_after_secs: 30,
            }),
        }
    }

    /// Records an accepted write for `GET /status` and answers it.
    fn accepted(&self, outcome: WriteOutcome) -> UpdateOutcome {
        *unpoison(self.last_write.lock()) = Some(outcome);
        UpdateOutcome {
            epoch: outcome.epoch,
            requested: outcome.retraction().map_or(0, |r| r.requested),
            removed: outcome.retraction().map_or(0, |r| r.retracted_explicit),
            triples: outcome.triples,
        }
    }
}

impl UpdateSink for ServingUpdateSink {
    fn retract_ntriples(&self, body: &str) -> Result<UpdateOutcome, UpdateError> {
        self.write(WriteKind::Retract, body)
    }

    fn assert_ntriples(&self, body: &str) -> Result<UpdateOutcome, UpdateError> {
        self.write(WriteKind::Assert, body)
    }

    fn status_json_into(&self, out: &mut String) {
        if let Some(durable) = &self.durable {
            out.push_str(",\"durability\":");
            durable.status_json_into(out);
        }
        if let Some(status) = self.dataset.validation_status() {
            out.push_str(",\"validation\":");
            status.json_into(out);
        }
        if let Some(outcome) = *unpoison(self.last_write.lock()) {
            out.push_str(",\"last_write\":");
            outcome.json_into(out);
        }
    }
}
