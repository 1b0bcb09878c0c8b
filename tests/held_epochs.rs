//! A write reuses the buffers of the tables earlier writes superseded
//! (`inferray_store::reclaim`), but only once no one holds them: a table a
//! reader's snapshot still holds is never reclaimed, so its pairs and its
//! ⟨o,s⟩ cache keep their bytes however many writes follow.

use inferray::core::{InferrayOptions, ServingDataset};
use inferray::model::{vocab, Triple};
use inferray::parser::loader::load_triples;
use inferray::rules::Fragment;
use inferray::store::{StoreSnapshot, TripleStore};

fn ex(local: &str) -> String {
    format!("http://example.org/{local}")
}

/// Students enough that a write changes a few pairs of tables thousands of
/// pairs long, so the tables keep their ⟨o,s⟩ caches across writes.
fn dataset() -> ServingDataset {
    let mut triples = vec![
        Triple::iris(ex("Student"), vocab::RDFS_SUB_CLASS_OF, ex("Person")),
        Triple::iris(ex("takesCourse"), vocab::RDFS_DOMAIN, ex("Student")),
    ];
    for i in 0..3000 {
        triples.push(Triple::iris(
            ex(&format!("s{i}")),
            ex("takesCourse"),
            ex(&format!("c{}", i % 40)),
        ));
    }
    let loaded = load_triples(triples.iter()).expect("valid");
    ServingDataset::materialize(loaded, Fragment::RdfsPlus, InferrayOptions::default()).0
}

fn enrolments(from: usize, count: usize) -> String {
    (from..from + count)
        .map(|i| {
            format!(
                "<{}> <{}> <{}> .\n",
                ex(&format!("new{i}")),
                ex("takesCourse"),
                ex("c1")
            )
        })
        .collect()
}

/// Each table of a store: its property, its pairs and its ⟨o,s⟩ cache.
type Contents = Vec<(u64, Vec<u64>, Option<Vec<u64>>)>;

/// Every table of a store, copied.
fn contents(store: &TripleStore) -> Contents {
    store
        .iter_tables()
        .map(|(p, table)| {
            (
                p,
                table.pairs().to_vec(),
                table.os_pairs().map(<[u64]>::to_vec),
            )
        })
        .collect()
}

#[test]
fn a_held_snapshot_keeps_its_bytes_across_writes_that_supersede_its_tables() {
    let dataset = dataset();
    let held: StoreSnapshot = dataset.store_snapshot();
    let expected = contents(held.store());
    let mut later: Vec<(StoreSnapshot, Contents)> = Vec::new();
    let writes = [
        (true, enrolments(0, 1)),
        (true, enrolments(1, 100)),
        (false, enrolments(0, 101)),
        (true, enrolments(200, 5)),
    ];
    for (assert, body) in writes {
        let outcome = match assert {
            true => dataset.extend_ntriples(&body),
            false => dataset.retract_ntriples(&body),
        };
        outcome.expect("the write is accepted");
        let now = dataset.store_snapshot();
        // The write superseded tables of the epoch before it…
        let before = later.last().map_or(&expected, |(_, bytes)| bytes);
        assert_ne!(&contents(now.store()), before);
        // …and neither the held snapshot's tables nor those of a snapshot
        // taken after an earlier write lost a byte.
        assert_eq!(contents(held.store()), expected);
        for (snapshot, bytes) in &later {
            assert_eq!(&contents(snapshot.store()), bytes);
        }
        later.push((now.clone(), contents(now.store())));
    }
}

#[test]
fn writes_into_reused_buffers_leave_the_store_they_would_build_fresh() {
    let dataset = dataset();
    let start = contents(dataset.store_snapshot().store());
    for cycle in 0..6 {
        let from = 1000 * cycle;
        dataset.extend_ntriples(&enrolments(from, 1)).unwrap();
        dataset.extend_ntriples(&enrolments(from + 1, 100)).unwrap();
        let grown = dataset.store_snapshot();
        dataset.retract_ntriples(&enrolments(from, 101)).unwrap();
        // The retraction's copies went into buffers the asserts superseded.
        assert_eq!(
            contents(dataset.store_snapshot().store()),
            start,
            "cycle {cycle}"
        );
        // Sorted, duplicate-free, and every ⟨o,s⟩ cache what a rebuild of
        // its pairs gives.
        assert_eq!(grown.store().debug_validate(), Ok(()));
    }
}
