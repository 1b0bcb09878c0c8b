//! Integration tests: the SPARQL-subset query engine over materialized
//! stores, cross-checked against the decoded-graph API and a naive
//! in-memory evaluation.

use inferray::core::{InferrayReasoner, Materializer};
use inferray::model::vocab;
use inferray::query::{PatternTerm, Query, QueryEngine, TriplePatternSpec};
use inferray::rules::Fragment;
use inferray::{load_turtle, parse_ntriples, Graph, Term, Triple};
use proptest::prelude::*;

const UNIVERSITY: &str = r#"
@prefix ex: <http://example.org/> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .

ex:Professor rdfs:subClassOf ex:Faculty .
ex:Faculty rdfs:subClassOf ex:Person .
ex:teaches rdfs:domain ex:Faculty .
ex:teaches rdfs:range ex:Course .
ex:headOf rdfs:subPropertyOf ex:worksFor .

ex:smith a ex:Professor ; ex:teaches ex:databases ; ex:headOf ex:cslab .
ex:jones a ex:Faculty ; ex:teaches ex:logic .
ex:databases ex:title "Database Systems" .
"#;

/// Loads the dataset, materializes `fragment`, and returns the parts the
/// query engine needs.
fn materialized(fragment: Fragment) -> inferray::parser::LoadedDataset {
    let mut dataset = load_turtle(UNIVERSITY).expect("dataset parses");
    InferrayReasoner::new(fragment).materialize(&mut dataset.store);
    dataset.store.ensure_all_os();
    dataset
}

#[test]
fn queries_see_inferred_triples_as_explicit_data() {
    let dataset = materialized(Fragment::RdfsDefault);
    let engine = QueryEngine::new(&dataset.store, &dataset.dictionary);

    // smith is a Professor (asserted), hence Faculty and Person (inferred
    // through SCM-SCO + CAX-SCO), and teaches gives Faculty via PRP-DOM.
    let classes = engine
        .execute_sparql("PREFIX ex: <http://example.org/> SELECT ?c WHERE { ex:smith a ?c }")
        .unwrap();
    let decoded: Vec<Term> = (0..classes.len())
        .filter_map(|row| classes.decoded_value(row, "c", &dataset.dictionary))
        .collect();
    assert!(decoded.contains(&Term::iri("http://example.org/Professor")));
    assert!(decoded.contains(&Term::iri("http://example.org/Faculty")));
    assert!(decoded.contains(&Term::iri("http://example.org/Person")));

    // headOf ⊑ worksFor: the inferred worksFor triple is queryable.
    assert!(engine
        .ask_sparql("PREFIX ex: <http://example.org/> ASK { ex:smith ex:worksFor ex:cslab }")
        .unwrap());

    // Range inference: databases is a Course.
    assert!(engine
        .ask_sparql("PREFIX ex: <http://example.org/> ASK { ex:databases a ex:Course }")
        .unwrap());
}

#[test]
fn join_query_over_inferred_types() {
    let dataset = materialized(Fragment::RdfsDefault);
    let engine = QueryEngine::new(&dataset.store, &dataset.dictionary);
    // Every person together with what they teach: both smith and jones
    // qualify only because their Person type is inferred.
    let solutions = engine
        .execute_sparql(
            "PREFIX ex: <http://example.org/> \
             SELECT ?p ?course WHERE { ?p a ex:Person . ?p ex:teaches ?course }",
        )
        .unwrap();
    assert_eq!(solutions.len(), 2);
}

#[test]
fn query_results_match_the_decoded_graph_api() {
    let dataset = materialized(Fragment::RdfsDefault);
    let engine = QueryEngine::new(&dataset.store, &dataset.dictionary);

    // The same materialization through the decoded-graph API.
    let input = load_turtle(UNIVERSITY).unwrap();
    let graph_input = {
        let mut g = Graph::new();
        for t in input.store.iter_triples() {
            g.insert(input.dictionary.decode_triple(t).unwrap());
        }
        g
    };
    let reasoned = inferray::reason_graph(&graph_input, Fragment::RdfsDefault).unwrap();

    // ?s rdf:type ?o through the engine equals the rdf:type triples of the
    // reasoned graph.
    let typed = engine
        .execute_sparql("SELECT ?s ?o WHERE { ?s rdf:type ?o }")
        .unwrap();
    let from_engine: std::collections::HashSet<(Term, Term)> = (0..typed.len())
        .map(|row| {
            (
                typed.decoded_value(row, "s", &dataset.dictionary).unwrap(),
                typed.decoded_value(row, "o", &dataset.dictionary).unwrap(),
            )
        })
        .collect();
    let from_graph: std::collections::HashSet<(Term, Term)> = reasoned
        .graph
        .iter()
        .filter(|t| t.predicate == Term::iri(vocab::RDF_TYPE))
        .map(|t| (t.subject.clone(), t.object.clone()))
        .collect();
    assert_eq!(from_engine, from_graph);
}

/// Regression test for the `(?, p, o)` ⟨o,s⟩-cache path across incremental
/// materialization: `materialize_delta` merges new pairs into `p`'s table
/// (on small deltas via the adaptive gallop-splice, which must invalidate
/// the cache) and whoever needs the cache next rebuilds it — a stale cache
/// would silently drop the delta's solutions.
#[test]
fn bound_object_queries_stay_fresh_after_materialize_delta() {
    let mut dataset = load_turtle(UNIVERSITY).expect("dataset parses");
    let mut reasoner = InferrayReasoner::new(Fragment::RdfsDefault);
    reasoner.materialize(&mut dataset.store);
    dataset.store.ensure_all_os();

    let q = "PREFIX ex: <http://example.org/> SELECT ?s WHERE { ?s ex:teaches ex:databases }";
    let teaches = dataset
        .dictionary
        .id_of(&Term::iri("http://example.org/teaches"))
        .expect("teaches is interned");
    let databases = dataset
        .dictionary
        .id_of(&Term::iri("http://example.org/databases"))
        .expect("databases is interned");
    {
        let engine = QueryEngine::new(&dataset.store, &dataset.dictionary);
        let before = engine.execute_sparql(q).unwrap();
        assert_eq!(before.len(), 1, "only smith teaches databases initially");
    }
    assert!(dataset.store.table(teaches).unwrap().has_os_cache());

    // Incrementally assert: patel teaches databases.
    let patel = dataset
        .dictionary
        .encode_as_resource(&Term::iri("http://example.org/patel"));
    reasoner.materialize_delta(
        &mut dataset.store,
        [inferray::model::IdTriple::new(patel, teaches, databases)],
    );

    // The merge dropped the cache of the table the delta reached, and no
    // rule of the cascade reads `teaches` from the object side, so nothing
    // rebuilt it: a cache is absent or coherent, never stale. Publication
    // rebuilds it; answering through it must include the delta.
    assert!(
        !dataset.store.table(teaches).unwrap().has_os_cache(),
        "materialize_delta must not leave the pre-delta cache behind"
    );
    dataset.store.ensure_all_os();
    let cached = {
        let engine = QueryEngine::new(&dataset.store, &dataset.dictionary);
        engine.execute_sparql(q).unwrap()
    };
    assert_eq!(
        cached.len(),
        2,
        "a stale ⟨o,s⟩ cache would drop the incrementally added solution"
    );

    // The cache-free sequential scan must agree byte for byte.
    dataset.store.table_mut(teaches).unwrap().clear_os_cache();
    let engine = QueryEngine::new(&dataset.store, &dataset.dictionary);
    let scanned = engine.execute_sparql(q).unwrap();
    assert_eq!(scanned.sorted_rows(), cached.sorted_rows());

    // And the delta's own inferences (teaches domain ⇒ patel a Faculty)
    // are queryable, proving the fixed point ran over the delta.
    assert!(engine
        .ask_sparql("PREFIX ex: <http://example.org/> ASK { ex:patel a ex:Faculty }")
        .unwrap());
}

/// The planner's row-explosion guard: a BGP *written* with a leading
/// unconstrained `?s ?p ?o` pattern must produce exactly the same solutions
/// as any other writing order — the planner reorders by bound-term
/// selectivity, so the scan never runs first and never materializes the
/// whole store as intermediate rows.
#[test]
fn pattern_order_in_the_query_text_does_not_change_solutions() {
    let dataset = materialized(Fragment::RdfsDefault);
    let engine = QueryEngine::new(&dataset.store, &dataset.dictionary);

    let patterns = [
        TriplePatternSpec::new(
            PatternTerm::var("s"),
            PatternTerm::var("p"),
            PatternTerm::var("o"),
        ),
        TriplePatternSpec::new(
            PatternTerm::var("s"),
            PatternTerm::iri(vocab::RDF_TYPE),
            PatternTerm::iri("http://example.org/Professor"),
        ),
        TriplePatternSpec::new(
            PatternTerm::var("s"),
            PatternTerm::iri("http://example.org/teaches"),
            PatternTerm::var("o2"),
        ),
    ];
    // Every permutation — including the explosion-prone scan-first writing
    // — yields the same solution multiset.
    let permutations: [[usize; 3]; 6] = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    let mut results = Vec::new();
    for order in permutations {
        // Fixed projection: `SELECT *` derives its column order from the
        // written pattern order, which is exactly what we are permuting.
        let mut query = Query::select_all(order.iter().map(|&i| patterns[i].clone()).collect());
        query.select = inferray::query::Selection::Variables(vec![
            "s".into(),
            "p".into(),
            "o".into(),
            "o2".into(),
        ]);
        results.push(engine.execute(&query).sorted_rows());
    }
    for window in results.windows(2) {
        assert_eq!(window[0], window[1], "pattern order changed the solutions");
    }
    // smith is the only professor; the scan pattern enumerates smith's
    // triples (4 asserted/inferred predicates × 1 teaches binding).
    assert!(!results[0].is_empty());

    // The same property through the text parser, scan written first.
    let scan_first = engine
        .execute_sparql(
            "PREFIX ex: <http://example.org/> SELECT ?s ?o2 WHERE { \
               ?s ?p ?o . ?s a ex:Professor . ?s ex:teaches ?o2 }",
        )
        .unwrap();
    let scan_last = engine
        .execute_sparql(
            "PREFIX ex: <http://example.org/> SELECT ?s ?o2 WHERE { \
               ?s a ex:Professor . ?s ex:teaches ?o2 . ?s ?p ?o }",
        )
        .unwrap();
    assert_eq!(scan_first.sorted_rows(), scan_last.sorted_rows());
    assert_eq!(scan_first.variables(), scan_last.variables());
}

// ---------------------------------------------------------------------------
// Property-based cross-checks against a naive evaluator
// ---------------------------------------------------------------------------

/// A triple universe small enough that joins are frequent.
fn arbitrary_triples() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    prop::collection::vec((0u8..6, 0u8..3, 0u8..6), 0..40)
}

fn entity(n: u8) -> String {
    format!("http://example.org/e{n}")
}

fn predicate(n: u8) -> String {
    format!("http://example.org/p{n}")
}

fn graph_from(triples: &[(u8, u8, u8)]) -> Graph {
    let mut graph = Graph::new();
    for &(s, p, o) in triples {
        graph.insert_iris(entity(s), predicate(p), entity(o));
    }
    graph
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A single `(?s, p, ?o)` pattern returns exactly the triples with that
    /// predicate.
    #[test]
    fn single_pattern_matches_naive_scan(triples in arbitrary_triples(), p in 0u8..3) {
        let graph = graph_from(&triples);
        let mut dataset = inferray::load_graph(&graph).unwrap();
        dataset.store.ensure_all_os();
        let engine = QueryEngine::new(&dataset.store, &dataset.dictionary);

        let query = Query::select_all(vec![TriplePatternSpec::new(
            PatternTerm::var("s"),
            PatternTerm::iri(predicate(p)),
            PatternTerm::var("o"),
        )]);
        let solutions = engine.execute(&query);

        let expected: std::collections::HashSet<(Term, Term)> = graph
            .iter()
            .filter(|t| t.predicate == Term::iri(predicate(p)))
            .map(|t| (t.subject.clone(), t.object.clone()))
            .collect();
        let actual: std::collections::HashSet<(Term, Term)> = (0..solutions.len())
            .map(|row| {
                (
                    solutions.decoded_value(row, "s", &dataset.dictionary).unwrap(),
                    solutions.decoded_value(row, "o", &dataset.dictionary).unwrap(),
                )
            })
            .collect();
        prop_assert_eq!(actual, expected);
        // No duplicate rows for a single pattern over a duplicate-free store.
        prop_assert_eq!(solutions.len(), graph
            .iter()
            .filter(|t| t.predicate == Term::iri(predicate(p)))
            .count());
    }

    /// A two-pattern chain join `?x p0 ?y . ?y p1 ?z` matches the naive
    /// nested-loop join over the decoded graph.
    #[test]
    fn chain_join_matches_naive_join(triples in arbitrary_triples()) {
        let graph = graph_from(&triples);
        let mut dataset = inferray::load_graph(&graph).unwrap();
        dataset.store.ensure_all_os();
        let engine = QueryEngine::new(&dataset.store, &dataset.dictionary);

        let query = Query::select_all(vec![
            TriplePatternSpec::new(
                PatternTerm::var("x"),
                PatternTerm::iri(predicate(0)),
                PatternTerm::var("y"),
            ),
            TriplePatternSpec::new(
                PatternTerm::var("y"),
                PatternTerm::iri(predicate(1)),
                PatternTerm::var("z"),
            ),
        ]);
        let solutions = engine.execute(&query);

        let p0 = Term::iri(predicate(0));
        let p1 = Term::iri(predicate(1));
        let mut expected: Vec<(Term, Term, Term)> = Vec::new();
        for a in graph.iter().filter(|t| t.predicate == p0) {
            for b in graph.iter().filter(|t| t.predicate == p1) {
                if a.object == b.subject {
                    expected.push((a.subject.clone(), a.object.clone(), b.object.clone()));
                }
            }
        }
        expected.sort();
        expected.dedup();

        let mut actual: Vec<(Term, Term, Term)> = (0..solutions.len())
            .map(|row| {
                (
                    solutions.decoded_value(row, "x", &dataset.dictionary).unwrap(),
                    solutions.decoded_value(row, "y", &dataset.dictionary).unwrap(),
                    solutions.decoded_value(row, "z", &dataset.dictionary).unwrap(),
                )
            })
            .collect();
        actual.sort();
        actual.dedup();
        prop_assert_eq!(actual, expected);
    }

    /// ASK agrees with the store's membership test for fully bound patterns.
    #[test]
    fn ask_agrees_with_contains(triples in arbitrary_triples(), s in 0u8..6, p in 0u8..3, o in 0u8..6) {
        let graph = graph_from(&triples);
        let mut dataset = inferray::load_graph(&graph).unwrap();
        dataset.store.ensure_all_os();
        let engine = QueryEngine::new(&dataset.store, &dataset.dictionary);

        let query = Query::ask(vec![TriplePatternSpec::new(
            PatternTerm::iri(entity(s)),
            PatternTerm::iri(predicate(p)),
            PatternTerm::iri(entity(o)),
        )]);
        let expected = graph.contains(&Triple::iris(entity(s), predicate(p), entity(o)));
        prop_assert_eq!(engine.ask(&query), expected);
    }
}

#[test]
fn ntriples_roundtrip_feeds_the_engine() {
    // The engine is agnostic to which parser produced the store.
    let nt = "\
<http://ex/a> <http://ex/p> <http://ex/b> .\n\
<http://ex/b> <http://ex/p> <http://ex/c> .\n";
    let triples = parse_ntriples(nt).unwrap();
    assert_eq!(triples.len(), 2);
    let mut graph = Graph::new();
    for t in triples {
        graph.insert(t);
    }
    let dataset = inferray::load_graph(&graph).unwrap();
    let engine = QueryEngine::new(&dataset.store, &dataset.dictionary);
    let hops = engine
        .execute_sparql("SELECT ?x ?z WHERE { ?x <http://ex/p> ?y . ?y <http://ex/p> ?z }")
        .unwrap();
    assert_eq!(hops.len(), 1);
}
