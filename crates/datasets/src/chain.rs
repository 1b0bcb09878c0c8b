//! `rdfs:subClassOf` chain generator — the Table 4 workload.
//!
//! "We implemented a transitive closure dataset generator that generates
//! chains of subclassOf for a given length" (§6). A chain of `n` nodes has
//! `n − 1` asserted edges and closes to `n·(n−1)/2` subClassOf pairs, so the
//! number of inferred triples grows quadratically with the chain length —
//! exactly the stress test that separates the dedicated closure stage from
//! iterative rule application.

use inferray_model::{vocab, Triple};

/// Namespace of the generated chain classes.
pub const CHAIN_NS: &str = "http://inferray.example.org/chain/";

/// Generates a subClassOf chain over `length` classes
/// (`C0 ⊑ C1 ⊑ … ⊑ C(length−1)`), i.e. `length − 1` triples.
pub fn subclass_chain(length: usize) -> Vec<Triple> {
    (0..length.saturating_sub(1))
        .map(|i| {
            Triple::iris(
                format!("{CHAIN_NS}C{i}"),
                vocab::RDFS_SUB_CLASS_OF,
                format!("{CHAIN_NS}C{}", i + 1),
            )
        })
        .collect()
}

/// Number of subClassOf pairs in the closure of a chain of `length` nodes
/// (asserted + inferred): `length·(length−1)/2`.
pub fn closure_size(length: usize) -> usize {
    length * length.saturating_sub(1) / 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_has_length_minus_one_edges() {
        assert_eq!(subclass_chain(0).len(), 0);
        assert_eq!(subclass_chain(1).len(), 0);
        assert_eq!(subclass_chain(2).len(), 1);
        assert_eq!(subclass_chain(100).len(), 99);
    }

    #[test]
    fn chain_edges_are_consecutive() {
        let triples = subclass_chain(4);
        assert_eq!(
            triples[0].subject.as_iri().unwrap(),
            format!("{CHAIN_NS}C0")
        );
        assert_eq!(triples[2].object.as_iri().unwrap(), format!("{CHAIN_NS}C3"));
        assert!(triples
            .iter()
            .all(|t| t.predicate.as_iri() == Some(vocab::RDFS_SUB_CLASS_OF)));
    }

    #[test]
    fn closure_formulas() {
        assert_eq!(closure_size(0), 0);
        assert_eq!(closure_size(2), 1);
        assert_eq!(closure_size(100), 4950);
        // Paper scale: a chain of 25,000 closes to ~312M pairs.
        assert_eq!(closure_size(25_000), 312_487_500);
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(subclass_chain(50), subclass_chain(50));
    }
}
