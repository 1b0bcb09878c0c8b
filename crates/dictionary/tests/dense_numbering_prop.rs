//! Property-based tests of the dense-numbering dictionary (§5.1 of the
//! paper): identifiers stay dense on both sides of the 2³² split, encoding
//! is injective, decoding is its inverse, and late property discovery
//! (promotion) never leaves stale identifiers behind.

use inferray_dictionary::{wellknown, Dictionary};
use inferray_model::ids::{is_property_id, is_resource_id, PROPERTY_BASE, RESOURCE_BASE};
use inferray_model::{Term, Triple};
use proptest::prelude::*;
use std::collections::HashSet;

fn arbitrary_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        "[a-z]{1,6}".prop_map(|l| Term::iri(format!("http://example.org/{l}"))),
        "[a-z]{1,6}".prop_map(Term::blank),
        "[a-zA-Z0-9 ]{0,12}".prop_map(Term::plain_literal),
        ("[a-z]{1,6}", 0u32..3).prop_map(|(lex, dt)| {
            Term::typed_literal(lex, format!("http://example.org/dt{dt}"))
        }),
    ]
}

fn arbitrary_predicate() -> impl Strategy<Value = Term> {
    // A small predicate universe so that datasets reuse predicates, which is
    // what makes vertical partitioning (and dense property numbering) pay.
    (0u32..8).prop_map(|n| Term::iri(format!("http://example.org/p{n}")))
}

fn arbitrary_triples() -> impl Strategy<Value = Vec<Triple>> {
    prop::collection::vec(
        ("[a-z]{1,6}", arbitrary_predicate(), arbitrary_term())
            .prop_map(|(s, p, o)| Triple::new(Term::iri(format!("http://example.org/{s}")), p, o)),
        0..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Encoding a dataset keeps both halves of the id space dense, assigns
    /// every term exactly one identifier, and decoding inverts encoding.
    #[test]
    fn dense_injective_and_invertible(triples in arbitrary_triples()) {
        let mut dictionary = Dictionary::new();
        let mut encoded = Vec::new();
        for triple in &triples {
            encoded.push(dictionary.encode_triple(triple).expect("IRI predicates encode"));
        }

        // Density: property ids occupy exactly [BASE - n + 1, BASE], resource
        // ids exactly [BASE + 1, BASE + m].
        let n_props = dictionary.num_properties() as u64;
        let n_res = dictionary.num_resources() as u64;
        let mut seen_props = HashSet::new();
        let mut seen_res = HashSet::new();
        for (id, term) in dictionary.iter() {
            if is_property_id(id) {
                prop_assert!(id > PROPERTY_BASE - n_props && id <= PROPERTY_BASE,
                    "property id {id} outside the dense window");
                seen_props.insert(id);
            } else {
                prop_assert!(is_resource_id(id));
                prop_assert!(id >= RESOURCE_BASE && id < RESOURCE_BASE + n_res,
                    "resource id {id} outside the dense window");
                seen_res.insert(id);
            }
            // decode ∘ encode = identity.
            prop_assert_eq!(dictionary.id_of(&term), Some(id));
        }
        prop_assert_eq!(seen_props.len() as u64, n_props);
        prop_assert_eq!(seen_res.len() as u64, n_res);

        // Every encoded triple decodes back to its source.
        for (original, id_triple) in triples.iter().zip(&encoded) {
            prop_assert!(is_property_id(id_triple.p));
            let decoded = dictionary.decode_triple(*id_triple).expect("decodes");
            prop_assert_eq!(&decoded, original);
        }

        // Re-encoding is stable: same ids the second time around.
        for (original, id_triple) in triples.iter().zip(&encoded) {
            let again = dictionary.encode_triple(original).unwrap();
            prop_assert_eq!(again, *id_triple);
        }
    }

    /// Distinct terms never collide.
    #[test]
    fn encoding_is_injective(terms in prop::collection::hash_set(arbitrary_term(), 0..40)) {
        let mut dictionary = Dictionary::new();
        let mut ids = HashSet::new();
        for term in &terms {
            let id = dictionary.encode_as_resource(term);
            prop_assert!(ids.insert(id), "id {id} assigned twice");
        }
        prop_assert_eq!(ids.len(), terms.len());
    }
}

#[test]
fn late_property_discovery_promotes_and_reports_the_mapping() {
    let mut dictionary = Dictionary::new();
    // "knows" first shows up as a plain resource (object position)…
    let knows = Term::iri("http://example.org/knows");
    let as_resource = dictionary.encode_as_resource(&knows);
    assert!(is_resource_id(as_resource));
    assert!(!dictionary.has_pending_promotions());

    // …and later as a predicate: it must move to the property half.
    let triple = Triple::new(
        Term::iri("http://example.org/alice"),
        knows.clone(),
        Term::iri("http://example.org/bob"),
    );
    let encoded = dictionary.encode_triple(&triple).unwrap();
    assert!(is_property_id(encoded.p));
    assert_eq!(dictionary.id_of(&knows), Some(encoded.p));
    assert_eq!(dictionary.decode(encoded.p).as_ref(), Some(&knows));

    // The promotion is reported exactly once so the loader can patch stores.
    assert!(dictionary.has_pending_promotions());
    let promotions = dictionary.take_promotions();
    assert_eq!(promotions, vec![(as_resource, encoded.p)]);
    assert!(!dictionary.has_pending_promotions());
    assert!(dictionary.take_promotions().is_empty());
}

#[test]
fn well_known_vocabulary_is_preloaded_at_fixed_ids() {
    let dictionary = Dictionary::new();
    assert_eq!(
        dictionary.id_of(&Term::iri(
            "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
        )),
        Some(wellknown::RDF_TYPE)
    );
    assert_eq!(
        dictionary.id_of(&Term::iri(
            "http://www.w3.org/2000/01/rdf-schema#subClassOf"
        )),
        Some(wellknown::RDFS_SUB_CLASS_OF)
    );
    assert_eq!(
        dictionary.id_of(&Term::iri("http://www.w3.org/2002/07/owl#Thing")),
        Some(wellknown::OWL_THING)
    );
    // A fresh dictionary contains exactly the preloaded vocabulary.
    assert_eq!(
        dictionary.num_properties(),
        wellknown::NUM_SCHEMA_PROPERTIES
    );
    assert_eq!(dictionary.num_resources(), wellknown::NUM_SCHEMA_RESOURCES);
}

#[test]
fn literals_with_identical_lexical_forms_but_different_types_get_distinct_ids() {
    let mut dictionary = Dictionary::new();
    let plain = dictionary.encode_as_resource(&Term::plain_literal("42"));
    let typed = dictionary.encode_as_resource(&Term::integer(42));
    let tagged = dictionary.encode_as_resource(&Term::lang_literal("42", "en"));
    let iri = dictionary.encode_as_resource(&Term::iri("42"));
    let ids = [plain, typed, tagged, iri];
    let unique: HashSet<u64> = ids.iter().copied().collect();
    assert_eq!(unique.len(), ids.len());
}
