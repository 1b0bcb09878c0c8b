//! Snapshot isolation of the concurrent serving layer (docs/serving.md).
//!
//! The contract under test: a reader that acquired a [`StoreSnapshot`]
//! observes **exactly** the triple set of its epoch — zero new triples —
//! for as long as it holds the snapshot, even while a writer runs a full
//! materialization next to it; a reader that re-acquires after the epoch
//! swap sees the **complete** materialization, byte-identical to what a
//! single-threaded run would have produced.

use inferray::core::{InferrayOptions, InferrayReasoner, Materializer, ServingDataset};
use inferray::dictionary::Dictionary;
use inferray::model::{IdTriple, Triple};
use inferray::parser::loader::{load_triples, LoadedDataset};
use inferray::query::SnapshotQueryEngine;
use inferray::rules::Fragment;
use inferray::store::{SnapshotStore, TripleStore};
use inferray_datasets::lubm::LubmGenerator;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn lubm(target_triples: usize) -> LoadedDataset {
    let dataset = LubmGenerator::new(target_triples).with_seed(7).generate();
    load_triples(dataset.triples.iter()).expect("generated dataset is valid")
}

/// Every triple of a store, in deterministic ⟨p, s, o⟩ table order.
fn triples_of(store: &TripleStore) -> Vec<IdTriple> {
    store.iter_triples().collect()
}

/// The acceptance-criterion test: a reader holding a snapshot across a
/// full `materialize` observes zero new triples until it re-acquires,
/// while a post-swap reader sees the complete materialization.
#[test]
fn reader_mid_materialization_sees_exactly_the_pre_swap_triple_set() {
    let loaded = lubm(4_000);

    // Reference: the same materialization, single-threaded, no snapshots.
    let mut reference = loaded.store.clone();
    InferrayReasoner::new(Fragment::RdfsDefault).materialize(&mut reference);
    reference.ensure_all_os();
    let reference_triples = triples_of(&reference);

    let cell = Arc::new(SnapshotStore::new(loaded.store.clone()));
    let pre_swap = cell.snapshot();
    let pre_swap_triples = triples_of(&pre_swap);
    assert!(
        reference_triples.len() > pre_swap_triples.len(),
        "the fragment must actually infer something for this test to bite"
    );

    // Handshake making the critical interleaving deterministic: the writer
    // finishes materializing its private copy, then *parks before the epoch
    // swap* until the reader has provably sampled the store — the exact
    // moment a torn or in-place implementation would leak new triples.
    let materialized_unpublished = Arc::new(AtomicBool::new(false));
    let reader_sampled = Arc::new(AtomicBool::new(false));
    let done = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        let writer_cell = Arc::clone(&cell);
        let writer_flag = Arc::clone(&materialized_unpublished);
        let writer_gate = Arc::clone(&reader_sampled);
        let writer_done = Arc::clone(&done);
        scope.spawn(move || {
            writer_cell.update(|store| {
                InferrayReasoner::new(Fragment::RdfsDefault).materialize(store);
                writer_flag.store(true, Ordering::SeqCst);
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
                while !writer_gate.load(Ordering::SeqCst) {
                    assert!(std::time::Instant::now() < deadline, "reader never sampled");
                    std::thread::yield_now();
                }
            });
            writer_done.store(true, Ordering::SeqCst);
        });

        // Reader: every sample before the swap must be epoch 0 with exactly
        // the pre-swap triples; every sample after it, the reference set.
        while !done.load(Ordering::SeqCst) {
            let snap = cell.snapshot();
            match snap.epoch() {
                0 => {
                    assert_eq!(
                        triples_of(&snap),
                        pre_swap_triples,
                        "pre-swap reader observed new triples"
                    );
                    if materialized_unpublished.load(Ordering::SeqCst) {
                        // The writer's private copy is fully materialized
                        // and we just proved the published store unchanged.
                        reader_sampled.store(true, Ordering::SeqCst);
                    }
                }
                1 => assert_eq!(
                    triples_of(&snap),
                    reference_triples,
                    "post-swap reader must see the complete materialization"
                ),
                other => panic!("unexpected epoch {other}"),
            }
        }
        assert!(
            reader_sampled.load(Ordering::SeqCst),
            "the reader never sampled while the materialization was pending"
        );
    });

    // The snapshot held across the entire run still sees the old world...
    assert_eq!(pre_swap.epoch(), 0);
    assert_eq!(triples_of(&pre_swap), pre_swap_triples);
    // ...and re-acquiring yields the complete materialization.
    let post_swap = cell.snapshot();
    assert_eq!(post_swap.epoch(), 1);
    assert_eq!(triples_of(&post_swap), reference_triples);
}

/// The same isolation property at the `ServingDataset` level, where the
/// dictionary is versioned along with the store.
#[test]
fn serving_dataset_isolates_readers_from_incremental_extends() {
    let loaded = lubm(1_500);
    let (dataset, _) =
        ServingDataset::materialize(loaded, Fragment::RdfsDefault, InferrayOptions::default());
    let (old_snapshot, old_dictionary) = dataset.snapshot();
    let old_triples = triples_of(&old_snapshot);

    dataset
        .extend([Triple::iris(
            "http://snapshot.test/new-subject",
            "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
            "http://snapshot.test/NewClass",
        )])
        .expect("extend succeeds");

    // The old pair is frozen: same triples, and the old dictionary still
    // decodes every one of them (it simply never heard of the new terms).
    assert_eq!(triples_of(&old_snapshot), old_triples);
    for triple in old_snapshot.iter_triples() {
        assert!(old_dictionary.decode_triple(triple).is_some());
    }
    assert!(old_dictionary
        .id_of(&inferray::Term::iri("http://snapshot.test/NewClass"))
        .is_none());

    // A re-acquired pair sees the delta and decodes the new terms.
    let (new_snapshot, new_dictionary) = dataset.snapshot();
    assert_eq!(new_snapshot.epoch(), old_snapshot.epoch() + 1);
    assert_eq!(new_snapshot.len(), old_triples.len() + 1);
    assert!(new_dictionary
        .id_of(&inferray::Term::iri("http://snapshot.test/NewClass"))
        .is_some());
}

/// The retraction counterpart: a reader holding a snapshot across a
/// delete–rederive publish (docs/maintenance.md) keeps the *larger*
/// pre-retraction triple set — shrinking stores must be as tear-free as
/// growing ones — while a re-acquired snapshot sees the shrunken epoch.
#[test]
fn serving_dataset_isolates_readers_from_retractions() {
    let loaded = lubm(1_500);
    let dictionary_view = loaded.dictionary.clone();
    let (dataset, _) =
        ServingDataset::materialize(loaded, Fragment::RdfsDefault, InferrayOptions::default());

    // Pick an explicit rdf:type triple to retract, decoded via the loader's
    // dictionary so the test doesn't depend on generator internals.
    let victim = {
        let (snapshot, _) = dataset.snapshot();
        let type_id = dictionary_view
            .id_of(&inferray::Term::iri(
                "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
            ))
            .expect("rdf:type interned");
        let victim = snapshot
            .iter_triples()
            .find(|t| t.p == type_id)
            .map(|t| dictionary_view.decode_triple(t).expect("decodable"))
            .expect("LUBM asserts rdf:type triples");
        victim
    };

    let (old_snapshot, old_dictionary) = dataset.snapshot();
    let old_triples = triples_of(&old_snapshot);

    let outcome = dataset.retract([victim.clone()]).expect("ungated retract");
    let (stats, published_epoch) = (outcome.retraction().expect("a retraction"), outcome.epoch);
    assert_eq!(stats.retracted_explicit, 1);
    assert!(stats.net_removed() >= 1);

    // The held pair is frozen at the pre-retraction epoch and still decodes
    // every identifier — including the retracted triple's, because the
    // dictionary is append-only.
    assert_eq!(triples_of(&old_snapshot), old_triples);
    for triple in old_snapshot.iter_triples() {
        assert!(old_dictionary.decode_triple(triple).is_some());
    }

    // A re-acquired pair sees the shrunken store, at exactly the epoch the
    // retraction reported publishing.
    let (new_snapshot, new_dictionary) = dataset.snapshot();
    assert_eq!(new_snapshot.epoch(), old_snapshot.epoch() + 1);
    assert_eq!(new_snapshot.epoch(), published_epoch);
    assert_eq!(new_snapshot.len(), old_triples.len() - stats.net_removed());
    assert!(new_dictionary.id_of(&victim.subject).is_some());
}

/// Readers sample consistent `(snapshot, dictionary)` pairs while a writer
/// interleaves extends and retractions; the final state equals the net of
/// all published updates and every intermediate snapshot decodes.
#[test]
fn concurrent_readers_survive_extend_retract_interleaving() {
    let loaded = lubm(800);
    let dataset = Arc::new(
        ServingDataset::materialize(loaded, Fragment::RdfsDefault, InferrayOptions::default()).0,
    );
    let (snapshot0, _) = dataset.snapshot();
    let baseline = snapshot0.len();
    let stop = AtomicBool::new(false);
    let sampled = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let reader_dataset = Arc::clone(&dataset);
        let (stop_flag, sampled_flag) = (&stop, &sampled);
        let reader = scope.spawn(move || {
            let mut samples = 0usize;
            while !stop_flag.load(Ordering::Relaxed) {
                let (snapshot, dictionary) = reader_dataset.snapshot();
                for triple in snapshot.iter_triples().take(64) {
                    assert!(
                        dictionary.decode_triple(triple).is_some(),
                        "snapshot id not decodable by its paired dictionary"
                    );
                }
                samples += 1;
                sampled_flag.store(true, Ordering::Release);
            }
            samples
        });

        // The churn starts once the reader has sampled: twenty small writes
        // can finish before a freshly spawned thread first runs.
        while !sampled.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        // Each round asserts a fresh instance triple, then retracts it:
        // epochs 1..=20, net zero triples.
        for i in 0..10u32 {
            let triple = Triple::iris(
                format!("http://snapshot.test/churn{i}"),
                "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
                "http://snapshot.test/Churn",
            );
            dataset.extend([triple.clone()]).expect("extend succeeds");
            let outcome = dataset.retract([triple]).expect("ungated retract");
            assert_eq!(outcome.retraction().map(|r| r.retracted_explicit), Some(1));
        }
        stop.store(true, Ordering::Relaxed);
        assert!(reader.join().expect("reader thread") > 0);
    });

    assert_eq!(dataset.epoch(), 20);
    let (final_snapshot, _) = dataset.snapshot();
    assert_eq!(final_snapshot.len(), baseline, "churn nets to zero");
}

/// Batch queries served from a snapshot engine are answered against one
/// frozen epoch and are deterministic: the same batch gives byte-identical
/// solution sets before and after a concurrent publish, as long as the
/// engine's snapshot is the same.
#[test]
fn snapshot_query_engine_answers_are_immune_to_concurrent_publishes() {
    let loaded = lubm(2_000);
    let mut store = loaded.store;
    InferrayReasoner::new(Fragment::RdfsDefault).materialize(&mut store);
    let cell = SnapshotStore::new(store);
    let dictionary = Arc::new(loaded.dictionary);

    let engine = SnapshotQueryEngine::new(cell.snapshot(), Arc::clone(&dictionary));
    let batch: Vec<String> = vec![
        "PREFIX ub: <http://inferray.example.org/lubm/> \
         SELECT ?x WHERE { ?x a ub:Professor }"
            .into(),
        "SELECT DISTINCT ?c WHERE { ?x a ?c }".into(),
        "PREFIX ub: <http://inferray.example.org/lubm/> \
         SELECT ?s ?c WHERE { ?s ub:takesCourse ?c } LIMIT 50"
            .into(),
        "ASK { ?s ?p ?o }".into(),
    ];
    let before: Vec<_> = batch
        .iter()
        .map(|text| engine.execute_sparql(text))
        .map(|r| r.expect("batch query parses"))
        .collect();

    // Publish ten new epochs behind the engine's back.
    for i in 0..10u64 {
        cell.update(|store| {
            store.add_triple(IdTriple::new(
                4_000_000_000 + i,
                inferray::model::ids::nth_property_id(2),
                4_000_000_100 + i,
            ));
        });
    }

    let after: Vec<_> = batch
        .iter()
        .map(|text| engine.execute_sparql(text))
        .map(|r| r.expect("batch query parses"))
        .collect();
    assert_eq!(before, after, "a held engine must not observe publishes");
    assert_eq!(engine.epoch(), 0);
    assert_eq!(cell.epoch(), 10);

    // And a fresh engine over the new epoch sees the appended triples.
    let fresh = SnapshotQueryEngine::new(cell.snapshot(), Arc::clone(&dictionary));
    assert_eq!(fresh.epoch(), 10);
    assert_eq!(fresh.snapshot().len(), engine.snapshot().len() + 10);
}

/// Many readers over many epochs: every sampled snapshot is internally
/// consistent (its length matches its epoch's expected length), and the
/// final state is exactly the sum of all published updates.
#[test]
fn hammering_readers_and_writers_never_tear_a_snapshot() {
    let cell = Arc::new(SnapshotStore::new(TripleStore::new()));
    let p = inferray::model::ids::nth_property_id(0);
    const WRITES: u64 = 200;

    std::thread::scope(|scope| {
        let writer_cell = Arc::clone(&cell);
        scope.spawn(move || {
            for i in 0..WRITES {
                writer_cell.update(|store| {
                    store.add_triple(IdTriple::new(i, p, i));
                });
            }
        });
        for _ in 0..3 {
            let reader_cell = Arc::clone(&cell);
            scope.spawn(move || loop {
                let snap = reader_cell.snapshot();
                // Epoch k holds exactly k triples — a torn snapshot (some
                // triples of a half-finished update visible) breaks this.
                assert_eq!(snap.len() as u64, snap.epoch());
                if snap.epoch() == WRITES {
                    return;
                }
            });
        }
    });
    let dictionary = Arc::new(Dictionary::new());
    let engine = SnapshotQueryEngine::new(cell.snapshot(), dictionary);
    assert_eq!(engine.epoch(), WRITES);
    let all = engine
        .execute_sparql("SELECT ?s ?o WHERE { ?s ?p ?o }")
        .unwrap();
    assert_eq!(all.len() as u64, WRITES);
}

/// Clients asserting at once each get **their own** epoch back, paired with
/// the store size of exactly that epoch: the outcome is captured under the
/// writer lock, not read off the dataset afterwards (when another writer may
/// already have published). More writers than a small runner has cores, so
/// that a writer is regularly descheduled right after its publish — the
/// window in which a read-back names somebody else's epoch.
#[test]
fn concurrent_asserts_each_report_their_own_epoch_and_size() {
    use inferray::query::UpdateSink;
    use std::sync::Barrier;

    const WRITERS: u64 = 8;
    const ROUNDS: u64 = 100;
    let loaded = load_triples(
        [Triple::iris(
            "http://snapshot.test/Churn",
            "http://www.w3.org/2000/01/rdf-schema#subClassOf",
            "http://snapshot.test/Thing",
        )]
        .iter(),
    )
    .expect("valid");
    let (dataset, _) =
        ServingDataset::materialize(loaded, Fragment::RdfsDefault, InferrayOptions::default());
    let baseline = dataset.store_snapshot().len() as u64;
    let sink = inferray::ServingUpdateSink::new(Arc::new(dataset));
    // All writers leave the barrier together every round, so their writes
    // contend for the writer lock back to back.
    let barrier = Barrier::new(WRITERS as usize);

    let outcomes: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|writer| {
                let (sink, barrier) = (&sink, &barrier);
                scope.spawn(move || {
                    (0..ROUNDS)
                        .map(|round| {
                            barrier.wait();
                            // A fresh instance: `a Churn` plus the inferred `a Thing`.
                            let outcome = sink
                                .assert_ntriples(&format!(
                                    "<http://snapshot.test/w{writer}r{round}> \
                                     <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> \
                                     <http://snapshot.test/Churn> .\n"
                                ))
                                .expect("assert");
                            (outcome.epoch, outcome.triples as u64)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        writers
            .into_iter()
            .flat_map(|w| w.join().expect("writer thread"))
            .collect()
    });

    let mut epochs: Vec<u64> = outcomes.iter().map(|(epoch, _)| *epoch).collect();
    epochs.sort_unstable();
    assert_eq!(
        epochs,
        (1..=WRITERS * ROUNDS).collect::<Vec<_>>(),
        "every response names a distinct epoch"
    );
    for (epoch, triples) in outcomes {
        assert_eq!(
            triples,
            baseline + 2 * epoch,
            "size reported for epoch {epoch}"
        );
    }
}

/// A reader's dictionary agrees with its store on every identifier, also
/// across a write that promotes a resource to a property (which gives the
/// term a new identifier). Each round asserts `<t_i> <q> <o>` with `t_i` a
/// plain resource, then promotes `t_i` by using it as a predicate; every
/// epoch from the first of those writes on holds the triple, so a reader
/// that asks for it after the first write returned must get `true`. A store
/// paired with a newer dictionary encodes `t_i` to the promoted identifier,
/// which the older store does not use, and answers `false`. The large
/// `rdf:type` table beside it makes each publish long enough for a reader
/// to land inside it.
#[test]
fn readers_never_pair_a_store_with_a_newer_dictionary_across_promotions() {
    const ROUNDS: usize = 100;
    const TYPED: usize = 20_000;
    const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
    let typed: Vec<Triple> = (0..TYPED)
        .map(|k| {
            Triple::iris(
                format!("http://snapshot.test/e{k}"),
                RDF_TYPE,
                format!("http://snapshot.test/C{}", k % 100),
            )
        })
        .collect();
    let loaded = load_triples(typed.iter()).expect("valid");
    let (dataset, _) =
        ServingDataset::materialize(loaded, Fragment::RdfsDefault, InferrayOptions::default());
    let term = |i: usize| format!("http://snapshot.test/t{i}");
    // Rounds whose first write has returned: their triple is in every
    // epoch a reader can sample from then on.
    let asserted = std::sync::atomic::AtomicUsize::new(0);
    let done = AtomicBool::new(false);

    let (answers, false_answers) = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let (dataset, asserted, done) = (&dataset, &asserted, &done);
                scope.spawn(move || {
                    let (mut answers, mut false_answers) = (0u64, 0u64);
                    while !done.load(Ordering::Acquire) {
                        let rounds = asserted.load(Ordering::Acquire);
                        if rounds == 0 {
                            std::thread::yield_now();
                            continue;
                        }
                        let query = format!(
                            "ASK {{ <{}> <http://snapshot.test/q> <http://snapshot.test/o> }}",
                            term(rounds - 1)
                        );
                        let (snapshot, dictionary) = dataset.snapshot();
                        let engine = SnapshotQueryEngine::new(snapshot, dictionary);
                        answers += 1;
                        if !engine.ask_sparql(&query).expect("query parses") {
                            false_answers += 1;
                        }
                    }
                    (answers, false_answers)
                })
            })
            .collect();
        for i in 0..ROUNDS {
            dataset
                .extend([Triple::iris(
                    term(i),
                    "http://snapshot.test/q",
                    "http://snapshot.test/o",
                )])
                .expect("assert");
            asserted.store(i + 1, Ordering::Release);
            dataset
                .extend([Triple::iris(
                    "http://snapshot.test/a",
                    term(i),
                    "http://snapshot.test/b",
                )])
                .expect("promote");
        }
        done.store(true, Ordering::Release);
        readers
            .into_iter()
            .map(|reader| reader.join().expect("reader thread"))
            .fold((0, 0), |(a, f), (ra, rf)| (a + ra, f + rf))
    });
    assert!(answers > 0, "the readers never asked");
    assert_eq!(
        false_answers, 0,
        "{false_answers} of {answers} answers were false: a store was paired \
         with a dictionary that encodes a promoted term differently"
    );
}
