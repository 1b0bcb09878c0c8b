//! Loading parsed triples into the dictionary + store pair.
//!
//! This is the boundary between the textual world and the encoded world:
//! triples flow in (from a parser, a generator or an in-memory [`Graph`]),
//! each term is dictionary-encoded with dense numbering on the fly, and the
//! encoded pairs land directly in the vertically partitioned
//! [`TripleStore`]. When the single streaming pass discovers late that a term
//! used earlier as a resource is actually a property (see the dictionary's
//! *promotion* mechanism), the affected identifiers are patched in one linear
//! sweep before the store is finalized.

use crate::ingest::{Ingest, LoaderOptions};
use crate::ntriples::ParseError;
use inferray_dictionary::Dictionary;
use inferray_model::{Graph, Triple};
use inferray_store::TripleStore;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;

/// A fully loaded dataset: the dictionary and the finalized store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadedDataset {
    /// The dictionary holding every term of the dataset.
    pub dictionary: Dictionary,
    /// The finalized (sorted, duplicate-free) triple store.
    pub store: TripleStore,
}

impl LoadedDataset {
    /// Number of distinct triples loaded.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// `true` when no triple was loaded.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }
}

/// Errors produced while loading.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// The input could not be parsed.
    Parse(ParseError),
    /// A triple could not be encoded (invalid term positions).
    Encode(String),
    /// The input file could not be read (the operating system's message).
    Io(String),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Parse(e) => write!(f, "parse error: {e}"),
            LoadError::Encode(e) => write!(f, "encoding error: {e}"),
            LoadError::Io(e) => write!(f, "cannot read the input: {e}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<ParseError> for LoadError {
    fn from(e: ParseError) -> Self {
        LoadError::Parse(e)
    }
}

/// Loads decoded triples into a fresh dictionary + store. Accepts owned
/// triples (`Vec<Triple>`, draining iterators) as well as `&Triple`
/// iterators, so callers holding a buffer hand it over instead of keeping a
/// second copy alive for the duration of the load.
pub fn load_triples<I>(triples: I) -> Result<LoadedDataset, LoadError>
where
    I: IntoIterator,
    I::Item: Borrow<Triple>,
{
    let mut dictionary = Dictionary::new();
    let mut store = TripleStore::new();
    for triple in triples {
        let encoded = dictionary
            .encode_triple(triple.borrow())
            .map_err(|e| LoadError::Encode(e.to_string()))?;
        store.add_triple(encoded);
    }
    apply_promotions(&mut dictionary, &mut store);
    store.finalize();
    Ok(LoadedDataset { dictionary, store })
}

/// Loads an in-memory [`Graph`].
pub fn load_graph(graph: &Graph) -> Result<LoadedDataset, LoadError> {
    load_triples(graph.iter())
}

/// Parses an N-Triples document and loads it (sequential compatibility
/// wrapper over the streaming [`Ingest`] pipeline; see [`crate::ingest`] for
/// the parallel entry point).
pub fn load_ntriples(input: &str) -> Result<LoadedDataset, LoadError> {
    Ingest::with_options(LoaderOptions::sequential()).ntriples(input)
}

/// Parses a Turtle document (subset) and loads it (sequential compatibility
/// wrapper over the streaming [`Ingest`] pipeline).
pub fn load_turtle(input: &str) -> Result<LoadedDataset, LoadError> {
    Ingest::with_options(LoaderOptions::sequential()).turtle(input)
}

/// Rewrites stale resource identifiers to their promoted property
/// identifiers across every property table, then drains the promotion list.
/// Only the sequential one-pass loaders need this; the two-phase ingest
/// pipeline resolves promotions at dictionary-merge time, before any pair
/// buffer is built.
fn apply_promotions(dictionary: &mut Dictionary, store: &mut TripleStore) {
    if !dictionary.has_pending_promotions() {
        return;
    }
    let remap: HashMap<u64, u64> = dictionary.take_promotions().into_iter().collect();
    // Tables are still raw (unfinalized) at this point; the store patches
    // each flat pair buffer in place and the batch finalize that follows
    // restores the sort order.
    store.remap_ids(&remap);
}

#[cfg(test)]
mod tests {
    use super::*;
    use inferray_dictionary::wellknown;
    use inferray_model::ids::is_property_id;
    use inferray_model::vocab;

    #[test]
    fn load_ntriples_end_to_end() {
        let doc = "\
<http://ex/human> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://ex/mammal> .\n\
<http://ex/mammal> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://ex/animal> .\n\
<http://ex/Bart> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/human> .\n";
        let loaded = load_ntriples(doc).unwrap();
        assert_eq!(loaded.len(), 3);
        assert_eq!(
            loaded
                .store
                .table(wellknown::RDFS_SUB_CLASS_OF)
                .unwrap()
                .len(),
            2
        );
        // Every stored triple decodes back to a parsed triple.
        for t in loaded.store.iter_triples() {
            assert!(loaded.dictionary.decode_triple(t).is_some());
        }
    }

    #[test]
    fn duplicate_statements_are_collapsed() {
        let doc = "<http://a> <http://p> <http://b> .\n<http://a> <http://p> <http://b> .\n";
        let loaded = load_ntriples(doc).unwrap();
        assert_eq!(loaded.len(), 1);
    }

    #[test]
    fn load_turtle_document() {
        let doc = r#"
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix ex: <http://example.org/> .
ex:human rdfs:subClassOf ex:mammal .
ex:Bart a ex:human ; ex:age 10 .
"#;
        let loaded = load_turtle(doc).unwrap();
        assert_eq!(loaded.len(), 3);
    }

    #[test]
    fn promotion_is_patched_across_tables() {
        // `hasPart` appears first as the *subject* of a domain triple, then
        // as a predicate. After loading, both occurrences must use the same
        // (property) identifier.
        let mut g = Graph::new();
        g.insert_iris("http://ex/hasPart", vocab::RDFS_DOMAIN, "http://ex/Whole");
        g.insert_iris("http://ex/Car", "http://ex/hasPart", "http://ex/Wheel");
        let loaded = load_graph(&g).unwrap();
        let prop_id = loaded
            .dictionary
            .id_of_iri("http://ex/hasPart")
            .expect("registered");
        assert!(is_property_id(prop_id));
        // The domain table's subject must be the promoted property id.
        let domain = loaded.store.table(wellknown::RDFS_DOMAIN).unwrap();
        let subjects: Vec<u64> = domain.iter_pairs().map(|(s, _)| s).collect();
        assert_eq!(subjects, vec![prop_id]);
        // And the data triple lives in the table addressed by that same id.
        assert_eq!(loaded.store.table(prop_id).unwrap().len(), 1);
    }

    #[test]
    fn no_promotion_when_predicate_seen_first() {
        let mut g = Graph::new();
        g.insert_iris("http://ex/Car", "http://ex/hasPart", "http://ex/Wheel");
        g.insert_iris("http://ex/hasPart", vocab::RDFS_DOMAIN, "http://ex/Whole");
        let loaded = load_graph(&g).unwrap();
        let prop_id = loaded.dictionary.id_of_iri("http://ex/hasPart").unwrap();
        assert!(is_property_id(prop_id));
        let domain = loaded.store.table(wellknown::RDFS_DOMAIN).unwrap();
        assert!(domain.iter_pairs().any(|(s, _)| s == prop_id));
    }

    #[test]
    fn parse_errors_are_propagated() {
        let err = load_ntriples("<http://a> <http://p> .").unwrap_err();
        assert!(matches!(err, LoadError::Parse(_)));
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn empty_input_loads_empty_dataset() {
        let loaded = load_ntriples("").unwrap();
        assert!(loaded.is_empty());
        assert_eq!(loaded.len(), 0);
    }
}
