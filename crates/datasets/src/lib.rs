//! # inferray-datasets
//!
//! Deterministic synthetic RDF dataset generators for the Inferray
//! benchmarks.
//!
//! The paper evaluates on BSBM and LUBM generated datasets, on subClassOf
//! chains, and on three real-world ontologies (the Wikipedia ontology, the
//! Yago taxonomy, WordNet). Neither the original generators (Java tools) nor
//! the real-world dumps are vendored here; instead this crate provides
//! seeded generators that reproduce the *structural characteristics* each
//! benchmark relies on (see README.md, "Substitutions"):
//!
//! * [`chain`] — `rdfs:subClassOf` chains of configurable length, the
//!   workload of Table 4 (transitivity closure);
//! * [`bsbm`] — a BSBM-like e-commerce workload (product-type tree,
//!   domain/range'd properties, instance data) sized in triples, used for
//!   the RDFS-flavour benchmark of Table 2;
//! * [`lubm`] — a LUBM-like university workload extended with the OWL
//!   constructs RDFS-Plus needs (transitive `subOrganizationOf`, inverse
//!   `teacherOf`/`taughtBy`, functional/inverse-functional identifiers,
//!   `owl:sameAs` aliases), used for Table 3;
//! * [`taxonomy`] — taxonomy generators shaped like the three real-world
//!   datasets: Wikipedia (very wide, shallow category graph), Yago (deep
//!   taxonomy, many properties), WordNet (long hypernym chains).
//!
//! Every generator is deterministic given its seed, returns decoded
//! [`Triple`](inferray_model::Triple)s, and reports its schema/instance
//! split so benchmark tables can be labelled.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bsbm;
pub mod chain;
pub mod lubm;
pub mod taxonomy;

pub use bsbm::BsbmGenerator;
pub use chain::subclass_chain;
pub use lubm::LubmGenerator;
pub use taxonomy::{wikipedia_like, wordnet_like, yago_like};

use inferray_model::Triple;

/// A generated dataset: the triples plus a human-readable label used in
/// benchmark output.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Label shown in benchmark tables (e.g. `"BSBM-100k"`).
    pub label: String,
    /// The triples, in generation order.
    pub triples: Vec<Triple>,
}

impl Dataset {
    /// Builds a dataset from a label and triples.
    pub fn new(label: impl Into<String>, triples: Vec<Triple>) -> Self {
        Dataset {
            label: label.into(),
            triples,
        }
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// `true` when the dataset holds no triple.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Serializes the dataset as an N-Triples document (one statement per
    /// line, generation order preserved).
    pub fn to_ntriples(&self) -> String {
        inferray_parser::to_ntriples_string(self.triples.iter())
    }

    /// Loads the dataset through the streaming ingest pipeline: serializes
    /// to N-Triples and runs the chunked parallel loader, producing a
    /// dictionary + store byte-identical to the sequential path. Benchmarks
    /// use this to exercise the exact text → store product code path.
    pub fn ingest(
        &self,
        options: inferray_parser::LoaderOptions,
    ) -> Result<inferray_parser::LoadedDataset, inferray_parser::LoadError> {
        inferray_parser::Ingest::with_options(options).ntriples(&self.to_ntriples())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inferray_model::vocab;

    #[test]
    fn dataset_wrapper() {
        let d = Dataset::new(
            "tiny",
            vec![Triple::iris("http://a", vocab::RDF_TYPE, "http://b")],
        );
        assert_eq!(d.len(), 1);
        assert!(!d.is_empty());
        assert_eq!(d.label, "tiny");
    }
}
