//! A write copies only what it touches (docs/serving.md, "What a write
//! copies"): after an assert or a retraction, every property table the write
//! left unchanged is the *same allocation* as in the previous epoch — in the
//! published store and in the explicit base — and the dictionary is
//! republished only when a statement interned a term or promoted a resource.

use inferray::core::{InferrayOptions, ServingDataset};
use inferray::dictionary::Dictionary;
use inferray::model::{vocab, Triple};
use inferray::parser::loader::load_triples;
use inferray::rules::Fragment;
use inferray::store::TripleStore;
use std::sync::Arc;

fn ex(local: &str) -> String {
    format!("http://example.org/{local}")
}

/// A small university: a class hierarchy, a domain, and instance data over
/// three properties.
fn dataset(fragment: Fragment) -> ServingDataset {
    let triples = [
        Triple::iris(ex("Student"), vocab::RDFS_SUB_CLASS_OF, ex("Person")),
        Triple::iris(ex("takesCourse"), vocab::RDFS_DOMAIN, ex("Student")),
        Triple::iris(ex("a"), ex("takesCourse"), ex("c1")),
        Triple::iris(ex("b"), ex("knows"), ex("a")),
        Triple::iris(ex("c1"), ex("taughtBy"), ex("t")),
        Triple::iris(ex("t"), vocab::RDF_TYPE, ex("Teacher")),
    ];
    let loaded = load_triples(triples.iter()).expect("valid");
    ServingDataset::materialize(loaded, fragment, InferrayOptions::default()).0
}

/// The dictionary, base and store of the current epoch.
fn epoch(dataset: &ServingDataset) -> (Arc<Dictionary>, TripleStore, TripleStore) {
    let (dictionary, base, snapshot) = dataset.persistable_state();
    (dictionary, base, snapshot.store().clone())
}

/// Every table with the same pairs before and after is shared; every table
/// whose pairs changed is not. Returns the properties whose table changed,
/// ascending.
fn assert_untouched_tables_shared(before: &TripleStore, after: &TripleStore) -> Vec<u64> {
    let mut changed = Vec::new();
    let properties: std::collections::BTreeSet<u64> =
        before.property_ids().chain(after.property_ids()).collect();
    for p in properties {
        if before.table(p) == after.table(p) {
            assert!(after.shares_table(before, p), "property {p} was copied");
        } else {
            assert!(!after.shares_table(before, p));
            changed.push(p);
        }
    }
    changed
}

#[test]
fn a_write_shares_every_table_it_did_not_change() {
    for fragment in [Fragment::RdfsDefault, Fragment::RdfsPlus] {
        let dataset = dataset(fragment);
        let (dictionary0, base0, store0) = epoch(&dataset);
        let rdf_type = dictionary0.id_of_iri(vocab::RDF_TYPE).expect("vocabulary");

        // Known terms only: b takes c1, so b is a Student and a Person.
        let asserted = Triple::iris(ex("b"), ex("takesCourse"), ex("c1"));
        dataset.extend([asserted.clone()]).expect("assert");
        let (dictionary1, base1, store1) = epoch(&dataset);
        let takes = dictionary1.id_of_iri(&ex("takesCourse")).expect("known");
        assert!(
            Arc::ptr_eq(&dictionary0, &dictionary1),
            "known terms: same dictionary"
        );
        assert_eq!(
            assert_untouched_tables_shared(&store0, &store1),
            [takes, rdf_type]
        );
        assert_eq!(assert_untouched_tables_shared(&base0, &base1), [takes]);

        dataset.retract([asserted]).expect("retract");
        let (dictionary2, base2, store2) = epoch(&dataset);
        assert!(
            Arc::ptr_eq(&dictionary1, &dictionary2),
            "a retraction never copies"
        );
        assert_eq!(
            assert_untouched_tables_shared(&store1, &store2),
            [takes, rdf_type]
        );
        assert_eq!(assert_untouched_tables_shared(&base1, &base2), [takes]);
        assert_eq!(
            (&store2, &base2),
            (&store0, &base0),
            "the round trip nets to zero"
        );
    }
}

/// A retraction whose type cone is one step from the survivors: `a` takes
/// `c1`, so retracting `a takesCourse c2` leaves `a a Student` (and
/// `Person`) supported where they are. Only `takesCourse` loses a pair, and
/// every other table — `rdf:type` included — is the previous epoch's.
#[test]
fn a_retraction_whose_cone_is_rederived_copies_only_what_it_removes() {
    for fragment in [Fragment::RdfsDefault, Fragment::RdfsPlus] {
        let dataset = dataset(fragment);
        let second = Triple::iris(ex("a"), ex("takesCourse"), ex("c2"));
        dataset.extend([second.clone()]).expect("assert");
        let (dictionary1, base1, store1) = epoch(&dataset);
        let takes = dictionary1.id_of_iri(&ex("takesCourse")).expect("known");

        dataset.retract([second]).expect("retract");
        let (_, base2, store2) = epoch(&dataset);
        assert_eq!(assert_untouched_tables_shared(&store1, &store2), [takes]);
        assert_eq!(assert_untouched_tables_shared(&base1, &base2), [takes]);
    }
}

#[test]
fn a_new_term_or_a_promotion_publishes_a_new_dictionary() {
    let dataset = dataset(Fragment::RdfsDefault);
    let (dictionary0, ..) = epoch(&dataset);

    dataset
        .extend([Triple::iris(ex("a"), ex("takesCourse"), ex("c2"))])
        .expect("assert");
    let (dictionary1, ..) = epoch(&dataset);
    assert!(!Arc::ptr_eq(&dictionary0, &dictionary1), "c2 is new");
    assert_eq!(dictionary1.len(), dictionary0.len() + 1);

    // `t` is known only as a resource: as a predicate it is promoted.
    dataset
        .extend([Triple::iris(ex("a"), ex("t"), ex("c1"))])
        .expect("assert");
    let (dictionary2, ..) = epoch(&dataset);
    assert!(!Arc::ptr_eq(&dictionary1, &dictionary2), "t was promoted");
    assert_eq!(
        dictionary2.num_properties(),
        dictionary1.num_properties() + 1
    );
    assert_eq!(dictionary2.num_resources(), dictionary1.num_resources());
}
