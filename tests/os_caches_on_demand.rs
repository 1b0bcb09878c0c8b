//! The ⟨o,s⟩ caches as the paper keeps them (docs/serving.md, "What a
//! write copies"): a published epoch carries the caches of the tables its
//! program reads by object (`Ruleset::object_reads`); a query that binds an
//! object of any other table builds that table's cache once, and the epochs
//! that share the table keep it; a write carries over only the caches that
//! exist, patched.

use inferray::core::{InferrayOptions, ServingDataset};
use inferray::dictionary::Dictionary;
use inferray::query::{parse_query, SnapshotQueryEngine};
use inferray::rules::{Fragment, Ruleset};
use inferray::store::{os_builds, PropertyTable, StoreSnapshot};
use std::sync::{Arc, Barrier};

const FRAGMENT: Fragment = Fragment::RdfsPlus;
const TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

/// A class chain, a domain, and 300 people who know each other and work
/// for one of five departments: data tables large enough that a write of a
/// pair or two keeps a cache patched.
fn dataset() -> ServingDataset {
    let mut doc = String::new();
    let sub = "<http://www.w3.org/2000/01/rdf-schema#subClassOf>";
    let domain = "<http://www.w3.org/2000/01/rdf-schema#domain>";
    doc.push_str(&format!("<http://ex/Staff> {sub} <http://ex/Person> .\n"));
    doc.push_str(&format!(
        "<http://ex/worksFor> {domain} <http://ex/Staff> .\n"
    ));
    for i in 0..300 {
        doc.push_str(&format!(
            "<http://ex/i{i}> <http://ex/knows> <http://ex/i{}> .\n",
            (i * 7) % 300
        ));
        doc.push_str(&format!(
            "<http://ex/i{i}> <http://ex/worksFor> <http://ex/d{}> .\n",
            i % 5
        ));
    }
    let loaded = inferray::load_ntriples(&doc).expect("valid");
    ServingDataset::materialize(loaded, FRAGMENT, InferrayOptions::default()).0
}

fn id(dictionary: &Dictionary, iri: &str) -> u64 {
    dictionary.id_of_iri(iri).expect("interned")
}

fn table<'s>(snapshot: &'s StoreSnapshot, dictionary: &Dictionary, p: &str) -> &'s PropertyTable {
    snapshot.table(id(dictionary, p)).expect("a table")
}

/// The subjects of `p` with object `o`, read off the ⟨s,o⟩ pairs alone.
fn swept(table: &PropertyTable, o: u64) -> Vec<u64> {
    let mut subjects: Vec<u64> = table
        .iter_pairs()
        .filter(|&(_, object)| object == o)
        .map(|(s, _)| s)
        .collect();
    subjects.sort_unstable();
    subjects
}

#[test]
fn the_first_epoch_caches_exactly_the_tables_the_program_reads_by_object() {
    let dataset = dataset();
    let (snapshot, _) = dataset.snapshot();
    let ruleset = Ruleset::for_fragment(FRAGMENT);
    let mut read = 0;
    for (p, table) in snapshot.iter_tables() {
        let reads = ruleset.object_reads().contains(&p);
        assert_eq!(table.has_os_cache(), reads, "property {p}");
        read += usize::from(reads);
    }
    assert!(read >= 2, "rdf:type and rdfs:subClassOf at least");
}

#[test]
fn a_bound_object_query_builds_the_cache_once_and_answers_what_the_sweep_does() {
    let dataset = dataset();
    let (snapshot, dictionary) = dataset.snapshot();
    let knows = table(&snapshot, &dictionary, "http://ex/knows");
    assert!(!knows.has_os_cache(), "no rule reads knows by object");
    let target = id(&dictionary, "http://ex/i21");
    let expected = swept(knows, target);
    assert!(!expected.is_empty());

    let engine = SnapshotQueryEngine::new(snapshot.clone(), Arc::clone(&dictionary));
    let query = parse_query("SELECT ?s WHERE { ?s <http://ex/knows> <http://ex/i21> }").unwrap();
    let before = os_builds();
    let mut answer = engine.execute(&query).column_values("s");
    answer.sort_unstable();
    assert_eq!(answer, expected);
    assert_eq!(os_builds().since(before).pairs, knows.len(), "one build");
    assert!(knows.has_os_cache(), "the query left the table cached");

    // A join that binds the object from an earlier pattern reads the same
    // cache, without a second build: i3 knows i21, whom only i3 knows.
    let join = parse_query(
        "SELECT ?x WHERE { <http://ex/i3> <http://ex/knows> ?y . ?x <http://ex/knows> ?y }",
    )
    .unwrap();
    let again = os_builds();
    assert_eq!(engine.execute(&join).column_values("x"), expected);
    assert_eq!(os_builds().since(again).pairs, 0, "nothing built twice");

    // The next epoch shares the table, and with it the cache.
    dataset
        .extend_ntriples("<http://ex/i1> <http://ex/worksFor> <http://ex/d4> .\n")
        .expect("accepted");
    let (next, _) = dataset.snapshot();
    assert!(next.shares_table(snapshot.store(), id(&dictionary, "http://ex/knows")));
    assert!(table(&next, &dictionary, "http://ex/knows").has_os_cache());
}

#[test]
fn two_concurrent_first_readers_get_one_slice() {
    let dataset = dataset();
    let (snapshot, dictionary) = dataset.snapshot();
    let works_for = table(&snapshot, &dictionary, "http://ex/worksFor");
    assert!(!works_for.has_os_cache());
    let start = Barrier::new(2);
    let reads: Vec<(usize, usize)> = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    let before = os_builds();
                    let view = works_for.object_pairs().as_ptr() as usize;
                    (view, os_builds().since(before).pairs)
                })
            })
            .collect();
        readers.into_iter().map(|r| r.join().unwrap()).collect()
    });
    assert_eq!(reads[0].0, reads[1].0, "one slice");
    assert_eq!(reads[0].1 + reads[1].1, works_for.len(), "one build");
    assert_eq!(
        works_for.os_pairs().map(<[u64]>::as_ptr),
        Some(reads[0].0 as *const u64)
    );
}

#[test]
fn a_write_to_an_uncached_table_leaves_it_uncached() {
    let dataset = dataset();
    let (before, dictionary) = dataset.snapshot();
    let works_for = id(&dictionary, "http://ex/worksFor");
    assert!(!before.table(works_for).unwrap().has_os_cache());
    dataset
        .extend_ntriples("<http://ex/i7> <http://ex/worksFor> <http://ex/d1> .\n")
        .expect("accepted");
    dataset
        .retract_ntriples("<http://ex/i8> <http://ex/worksFor> <http://ex/d3> .\n")
        .expect("accepted");
    let (after, _) = dataset.snapshot();
    assert_eq!(after.epoch(), before.epoch() + 2);
    let written = after.table(works_for).unwrap();
    assert!(!after.shares_table(before.store(), works_for), "written");
    assert!(!written.has_os_cache(), "copied without a cache");
    assert_eq!(written.len(), before.table(works_for).unwrap().len());
    after.store().debug_validate().expect("valid");
}

#[test]
fn a_write_to_a_cached_table_keeps_its_cache_patched() {
    let dataset = dataset();
    let (before, dictionary) = dataset.snapshot();
    let (knows, kind) = (id(&dictionary, "http://ex/knows"), id(&dictionary, TYPE));
    // rdf:type is pre-built; knows is built by a reader.
    assert!(before.table(kind).unwrap().has_os_cache());
    before.table(knows).unwrap().object_pairs();
    dataset
        .extend_ntriples(concat!(
            "<http://ex/i5> <http://ex/knows> <http://ex/i6> .\n",
            "<http://ex/i5> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Guest> .\n",
        ))
        .expect("accepted");
    dataset
        .retract_ntriples("<http://ex/i2> <http://ex/knows> <http://ex/i14> .\n")
        .expect("accepted");
    let (after, dictionary) = dataset.snapshot();
    for p in [knows, kind] {
        let table = after.table(p).unwrap();
        assert!(!after.shares_table(before.store(), p), "{p} was written");
        assert!(table.has_os_cache(), "{p} kept its cache");
        table
            .debug_validate()
            .expect("the cache is the pairs, swapped");
    }
    let guest = id(&dictionary, "http://ex/Guest");
    let kinds = after.table(kind).unwrap();
    assert_eq!(
        kinds.subjects_of(guest).collect::<Vec<_>>(),
        swept(kinds, guest)
    );
}
