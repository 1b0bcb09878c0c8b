//! `Dictionary::lookup_term_refs` against `Dictionary::encode_term_refs`:
//! the lookup answers `Some(t)` exactly when encoding would return `t` and
//! leave the dictionary as it was. A writer that shares its dictionary
//! between epochs relies on this to copy it only when a statement interns a
//! term or promotes a resource.

use inferray_dictionary::Dictionary;
use inferray_model::{vocab, Term};
use proptest::prelude::*;

/// A small universe: a few IRIs, blank nodes and literals, plus the
/// vocabulary whose positions demand property identifiers.
fn universe() -> Vec<Term> {
    let mut terms: Vec<Term> = (0..5)
        .map(|i| Term::iri(format!("http://example.org/t{i}")))
        .collect();
    terms.extend((0..2).map(|i| Term::blank(format!("b{i}"))));
    terms.push(Term::plain_literal("l"));
    terms.push(Term::typed_literal("1", "http://example.org/dt"));
    terms.extend(
        [
            vocab::RDF_TYPE,
            vocab::RDFS_SUB_PROPERTY_OF,
            vocab::RDFS_SUB_CLASS_OF,
            vocab::RDFS_DOMAIN,
            vocab::OWL_EQUIVALENT_PROPERTY,
            vocab::OWL_TRANSITIVE_PROPERTY,
        ]
        .map(Term::iri),
    );
    terms
}

fn arbitrary_statement() -> impl Strategy<Value = (usize, usize, usize)> {
    let n = universe().len();
    (0..n, 0..n, 0..n)
}

/// Checks the contract on one statement against `dictionary`.
fn check(dictionary: &Dictionary, s: &Term, p: &Term, o: &Term) -> Option<()> {
    let (s, p, o) = (s.as_term_ref(), p.as_term_ref(), o.as_term_ref());
    let mut copy = dictionary.clone();
    let encoded = copy.encode_term_refs(&s, &p, &o);
    match dictionary.lookup_term_refs(&s, &p, &o) {
        Some(found) => {
            assert_eq!(encoded, Ok(found), "the lookup disagrees with encoding");
            assert_eq!(
                &copy, dictionary,
                "encoding a looked-up statement changed it"
            );
            Some(())
        }
        None => {
            assert!(
                encoded.is_err() || &copy != dictionary,
                "the lookup missed a statement encoding leaves unchanged"
            );
            None
        }
    }
}

/// A dictionary that has encoded `statements` (failures skipped).
fn after(statements: &[(&Term, &Term, &Term)]) -> Dictionary {
    let mut dictionary = Dictionary::new();
    for (s, p, o) in statements {
        let _ = dictionary.encode_term_refs(&s.as_term_ref(), &p.as_term_ref(), &o.as_term_ref());
    }
    dictionary
}

fn iri(local: &str) -> Term {
    Term::iri(format!("http://example.org/{local}"))
}

#[test]
fn a_predicate_known_only_as_a_resource_is_a_miss() {
    let (a, x, b) = (iri("a"), iri("x"), iri("b"));
    let dictionary = after(&[(&a, &iri("p"), &x)]);
    assert_eq!(check(&dictionary, &a, &x, &b), None, "x would be promoted");
    assert_eq!(check(&dictionary, &a, &iri("p"), &x), Some(()));
}

#[test]
fn declaring_a_resource_transitive_is_a_miss() {
    let (x, p) = (iri("x"), iri("p"));
    let ty = Term::iri(vocab::RDF_TYPE);
    let transitive = Term::iri(vocab::OWL_TRANSITIVE_PROPERTY);
    let dictionary = after(&[(&iri("a"), &p, &x)]);
    assert_eq!(check(&dictionary, &x, &ty, &transitive), None);
    assert_eq!(check(&dictionary, &p, &ty, &transitive), Some(()));
}

#[test]
fn both_ends_of_sub_property_of_must_be_properties() {
    let (p, q, r) = (iri("p"), iri("q"), iri("r"));
    let sub = Term::iri(vocab::RDFS_SUB_PROPERTY_OF);
    // p and q are properties (predicates); r is only a resource.
    let dictionary = after(&[(&iri("a"), &p, &r), (&iri("a"), &q, &r)]);
    assert_eq!(check(&dictionary, &p, &sub, &q), Some(()));
    assert_eq!(check(&dictionary, &r, &sub, &q), None, "subject end");
    assert_eq!(check(&dictionary, &p, &sub, &r), None, "object end");
}

#[test]
fn a_literal_subject_is_a_miss_and_an_error() {
    let literal = Term::plain_literal("l");
    let dictionary = after(&[(&iri("a"), &iri("p"), &literal)]);
    assert_eq!(check(&dictionary, &literal, &iri("p"), &iri("a")), None);
}

#[test]
fn blank_nodes_are_resources_in_every_position() {
    let (blank, p) = (Term::blank("b"), iri("p"));
    let domain = Term::iri(vocab::RDFS_DOMAIN);
    let sub = Term::iri(vocab::RDFS_SUB_PROPERTY_OF);
    let dictionary = after(&[(&blank, &p, &blank)]);
    assert_eq!(check(&dictionary, &blank, &domain, &blank), Some(()));
    assert_eq!(check(&dictionary, &p, &sub, &blank), Some(()));
    assert_eq!(check(&dictionary, &iri("c"), &p, &blank), None, "c is new");
    assert_eq!(check(&dictionary, &blank, &blank, &blank), None);
}

proptest! {
    /// Over random histories — terms first met as resources, later
    /// promoted, pending promotions — every statement of the universe
    /// satisfies the contract.
    #[test]
    fn lookup_is_some_exactly_when_encoding_changes_nothing(
        history in prop::collection::vec(arbitrary_statement(), 0..24),
        probes in prop::collection::vec(arbitrary_statement(), 1..24),
    ) {
        let terms = universe();
        let statements: Vec<_> =
            history.iter().map(|&(s, p, o)| (&terms[s], &terms[p], &terms[o])).collect();
        let dictionary = after(&statements);
        for &(s, p, o) in &probes {
            check(&dictionary, &terms[s], &terms[p], &terms[o]);
        }
    }
}
