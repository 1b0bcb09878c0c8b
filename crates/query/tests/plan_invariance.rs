//! Property-based invariants of the query engine: the answer of a BGP must
//! not depend on the textual order of its patterns (the planner is free to
//! reorder), on whether the ⟨o,s⟩ caches are materialized, or on how the
//! projection is phrased.

use inferray_model::Graph;
use inferray_parser::load_graph;
use inferray_query::{PatternTerm, Query, QueryEngine, Selection, TriplePatternSpec};
use proptest::prelude::*;

fn entity(n: u8) -> String {
    format!("http://example.org/e{n}")
}

fn predicate(n: u8) -> String {
    format!("http://example.org/p{n}")
}

fn arbitrary_graph() -> impl Strategy<Value = Graph> {
    prop::collection::vec((0u8..8, 0u8..3, 0u8..8), 0..50).prop_map(|triples| {
        let mut graph = Graph::new();
        for (s, p, o) in triples {
            graph.insert_iris(entity(s), predicate(p), entity(o));
        }
        graph
    })
}

/// A random BGP of 1–4 patterns over a tiny variable/constant vocabulary, so
/// shared variables (joins) and repeated variables are common.
fn arbitrary_bgp() -> impl Strategy<Value = Vec<TriplePatternSpec>> {
    let position = prop_oneof![
        (0u8..4).prop_map(|v| PatternTerm::var(format!("v{v}"))),
        (0u8..8).prop_map(|n| PatternTerm::iri(entity(n))),
    ];
    let pred_position = prop_oneof![
        (0u8..2).prop_map(|v| PatternTerm::var(format!("v{v}"))),
        (0u8..3).prop_map(|n| PatternTerm::iri(predicate(n))),
    ];
    prop::collection::vec(
        (position.clone(), pred_position, position)
            .prop_map(|(s, p, o)| TriplePatternSpec::new(s, p, o)),
        1..4,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Reversing (or otherwise permuting) the pattern list never changes the
    /// solution multiset.
    #[test]
    fn pattern_order_does_not_change_solutions(
        graph in arbitrary_graph(),
        patterns in arbitrary_bgp(),
    ) {
        let dataset = load_graph(&graph).unwrap();
        let engine = QueryEngine::new(&dataset.store, &dataset.dictionary);

        let forward = Query::select_all(patterns.clone());
        let mut reversed_patterns = patterns;
        reversed_patterns.reverse();
        let mut reversed = Query::select_all(reversed_patterns);
        // Align the projection order with the forward query so rows compare.
        reversed.select = Selection::Variables(forward.projected_variables());

        let a = engine.execute(&forward);
        let b = engine.execute(&reversed);
        prop_assert_eq!(a.sorted_rows(), b.sorted_rows());
    }

    /// Building the ⟨o,s⟩ caches is invisible to query answers.
    #[test]
    fn os_cache_does_not_change_solutions(
        graph in arbitrary_graph(),
        patterns in arbitrary_bgp(),
    ) {
        let mut dataset = load_graph(&graph).unwrap();
        let query = Query::select_all(patterns);

        let cold = QueryEngine::new(&dataset.store, &dataset.dictionary).execute(&query);
        dataset.store.ensure_all_os();
        let warm = QueryEngine::new(&dataset.store, &dataset.dictionary).execute(&query);
        prop_assert_eq!(cold.sorted_rows(), warm.sorted_rows());
    }

    /// DISTINCT never returns more rows, and LIMIT caps the row count.
    #[test]
    fn distinct_and_limit_behave(
        graph in arbitrary_graph(),
        patterns in arbitrary_bgp(),
        limit in 0usize..5,
    ) {
        let dataset = load_graph(&graph).unwrap();
        let engine = QueryEngine::new(&dataset.store, &dataset.dictionary);

        let plain = engine.execute(&Query::select_all(patterns.clone()));
        let distinct = engine.execute(&Query::select_all(patterns.clone()).with_distinct());
        prop_assert!(distinct.len() <= plain.len());
        // DISTINCT removes exactly the duplicate rows.
        let unique: std::collections::HashSet<&[u64]> = plain.rows().collect();
        prop_assert_eq!(distinct.len(), unique.len());

        let limited = engine.execute(&Query::select_all(patterns).with_limit(limit));
        prop_assert!(limited.len() <= limit);
        prop_assert!(limited.len() <= plain.len());
    }

    /// ASK is true exactly when SELECT returns at least one row.
    #[test]
    fn ask_matches_select_nonemptiness(
        graph in arbitrary_graph(),
        patterns in arbitrary_bgp(),
    ) {
        let dataset = load_graph(&graph).unwrap();
        let engine = QueryEngine::new(&dataset.store, &dataset.dictionary);
        let query = Query::select_all(patterns);
        let solutions = engine.execute(&query);
        prop_assert_eq!(engine.ask(&query), !solutions.is_empty());
    }
}
