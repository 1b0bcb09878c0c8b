//! What the property suites over random stores share: one generator of
//! small stores with schema, marker declarations and data over a tiny
//! vocabulary, so that random triples join often.

use inferray::dictionary::wellknown as wk;
use inferray::model::ids::{nth_property_id, nth_resource_id};
use inferray::IdTriple;
use proptest::prelude::*;

// The vocabulary of the random stores.
fn class(n: u8) -> u64 {
    nth_resource_id(8_000 + usize::from(n % 5))
}
fn prop(n: u8) -> u64 {
    nth_property_id(800 + usize::from(n % 4))
}
fn inst(n: u8) -> u64 {
    nth_resource_id(8_100 + usize::from(n % 5))
}

/// The classes a property can be declared with.
const PROPERTY_MARKERS: [u64; 7] = [
    wk::OWL_FUNCTIONAL_PROPERTY,
    wk::OWL_INVERSE_FUNCTIONAL_PROPERTY,
    wk::OWL_SYMMETRIC_PROPERTY,
    wk::OWL_TRANSITIVE_PROPERTY,
    wk::OWL_DATATYPE_PROPERTY,
    wk::OWL_OBJECT_PROPERTY,
    wk::RDF_PROPERTY,
];

/// The classes a class can be declared with.
const CLASS_MARKERS: [u64; 4] = [
    wk::OWL_CLASS,
    wk::RDFS_CLASS,
    wk::RDFS_DATATYPE,
    wk::RDFS_CONTAINER_MEMBERSHIP_PROPERTY,
];

/// Random schema, marker declarations and data: every table some rule of
/// Table 5 reads, and the shapes that make `rdf:type` a data property of
/// the γ rules and a property the subject of facts.
pub fn arbitrary_store() -> impl Strategy<Value = Vec<IdTriple>> {
    let triple = (0u8..22, any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(kind, a, b, c)| {
        let t = IdTriple::new;
        match kind {
            0 => t(class(a), wk::RDFS_SUB_CLASS_OF, class(b)),
            1 => t(prop(a), wk::RDFS_SUB_PROPERTY_OF, prop(b)),
            2 => t(prop(a), wk::RDFS_DOMAIN, class(b)),
            3 => t(prop(a), wk::RDFS_RANGE, class(b)),
            4 => t(class(a), wk::OWL_EQUIVALENT_CLASS, class(b)),
            5 => t(prop(a), wk::OWL_EQUIVALENT_PROPERTY, prop(b)),
            6 => t(prop(a), wk::OWL_INVERSE_OF, prop(b)),
            7 => t(inst(a), wk::OWL_SAME_AS, inst(b)),
            8 => t(prop(a), wk::OWL_SAME_AS, prop(b)),
            9..=11 => t(
                prop(a),
                wk::RDF_TYPE,
                PROPERTY_MARKERS[usize::from(b) % PROPERTY_MARKERS.len()],
            ),
            12 => t(
                class(a),
                wk::RDF_TYPE,
                CLASS_MARKERS[usize::from(b) % CLASS_MARKERS.len()],
            ),
            13 => t(wk::RDF_TYPE, wk::RDFS_DOMAIN, class(b)),
            14 => t(prop(a), wk::RDFS_SUB_PROPERTY_OF, wk::RDF_TYPE),
            15 => t(prop(a), prop(b), class(c)),
            16 | 17 => t(inst(a), wk::RDF_TYPE, class(b)),
            _ => t(inst(a), prop(b), inst(c)),
        }
    });
    prop::collection::vec(triple, 1..30)
}
