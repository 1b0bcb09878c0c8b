//! Differential oracle: the query engine versus a naive evaluator.
//!
//! The oracle is deliberately dumb — nested loops over
//! `TripleStore::iter_triples` in the written pattern order, no planner, no
//! ⟨o,s⟩ caches, no pushdowns — so whatever the engine does to go fast
//! (reordering, run scans, merge joins, dead-variable elimination, DISTINCT
//! on the scan, early exit) is checked against the plain definition of a
//! basic graph pattern. Stores and queries come from a seeded generator;
//! every case runs against the raw store and against the same store with
//! every ⟨o,s⟩ cache built.
//!
//! Answers compare as multisets; as sets under `DISTINCT`; under
//! `LIMIT`/`OFFSET` the row count must be `min(limit, total − offset)` and
//! every returned row must come from the full answer (row order without
//! `ORDER BY` is unspecified, so *which* rows survive the slice is not).

use inferray_dictionary::Dictionary;
use inferray_model::{Graph, IdTriple, Term, TermKind, Triple};
use inferray_parser::load_graph;
use inferray_query::{
    FilterExpr, PatternTerm, Query, QueryEngine, QueryForm, Selection, TriplePatternSpec,
};
use inferray_store::TripleStore;
use std::collections::BTreeMap;

type Row = Vec<Option<u64>>;

/// Deterministic xorshift generator: cases are reproducible from the seed
/// printed in every failure message.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

fn entity(n: usize) -> Term {
    Term::iri(format!("http://example.org/e{n}"))
}

fn predicate(n: usize) -> Term {
    Term::iri(format!("http://example.org/p{n}"))
}

const ENTITIES: usize = 5;
const PREDICATES: usize = 3;
const VARIABLES: [&str; 4] = ["v0", "v1", "v2", "v3"];

/// A small random graph: a handful of entities and predicates so joins hit,
/// a few literal and blank-node objects for the term-kind filters, and the
/// occasional predicate IRI in subject/object position so a variable can be
/// bound to a *property* identifier and then used as a predicate.
fn random_graph(rng: &mut Rng) -> Graph {
    let mut graph = Graph::new();
    for _ in 0..4 + rng.below(36) {
        let s = if rng.chance(8) {
            predicate(rng.below(PREDICATES))
        } else {
            entity(rng.below(ENTITIES))
        };
        let p = predicate(rng.below(PREDICATES));
        let o = match rng.below(20) {
            0 => Term::plain_literal(format!("lit{}", rng.below(3))),
            1 => Term::integer(rng.below(3) as i64),
            2 => Term::blank(format!("b{}", rng.below(2))),
            3 | 4 => predicate(rng.below(PREDICATES)),
            _ => entity(rng.below(ENTITIES)),
        };
        graph.insert(Triple::new(s, p, o));
    }
    graph
}

fn random_variable(rng: &mut Rng) -> PatternTerm {
    PatternTerm::var(VARIABLES[rng.below(VARIABLES.len())])
}

/// A subject/object position: mostly variables and known entities, now and
/// then a literal, a predicate IRI, or a term the dictionary never saw.
fn random_node(rng: &mut Rng) -> PatternTerm {
    match rng.below(40) {
        0..=28 => random_variable(rng),
        29 => PatternTerm::term(Term::plain_literal(format!("lit{}", rng.below(3)))),
        30 => PatternTerm::term(predicate(rng.below(PREDICATES))),
        31 => PatternTerm::term(entity(99)), // absent from every dictionary
        _ => PatternTerm::term(entity(rng.below(ENTITIES))),
    }
}

/// A predicate position: a known predicate, a variable (unbound-predicate
/// scan, or bound by an earlier pattern to a property *or resource* id), an
/// entity IRI (a resource id where only property ids match), or an absent
/// predicate.
fn random_predicate(rng: &mut Rng) -> PatternTerm {
    match rng.below(40) {
        0..=9 => random_variable(rng),
        10 => PatternTerm::term(entity(rng.below(ENTITIES))),
        11 => PatternTerm::term(predicate(9)), // absent
        _ => PatternTerm::term(predicate(rng.below(PREDICATES))),
    }
}

/// A filter over mostly the BGP's own variables (`in_scope`), sometimes a
/// variable the BGP never binds.
fn random_filter(rng: &mut Rng, in_scope: &[String]) -> FilterExpr {
    let name = |rng: &mut Rng| {
        if in_scope.is_empty() || rng.chance(15) {
            // "ghost" never occurs in a BGP: it is always unbound.
            ["ghost", "v0", "v3"][rng.below(3)].to_owned()
        } else {
            in_scope[rng.below(in_scope.len())].clone()
        }
    };
    let rhs = |rng: &mut Rng| match rng.below(8) {
        0..=2 => PatternTerm::var(name(rng)),
        3 => PatternTerm::term(entity(99)),
        4 => PatternTerm::term(Term::plain_literal("lit0")),
        _ => PatternTerm::term(entity(rng.below(ENTITIES))),
    };
    match rng.below(10) {
        0 | 1 => FilterExpr::Equal(name(rng), rhs(rng)),
        2..=4 => FilterExpr::NotEqual(name(rng), rhs(rng)),
        5 | 6 => FilterExpr::IsIri(name(rng)),
        7 => FilterExpr::IsLiteral(name(rng)),
        8 => FilterExpr::IsBlank(name(rng)),
        _ => FilterExpr::Bound(name(rng)),
    }
}

fn random_query(rng: &mut Rng) -> Query {
    let patterns: Vec<TriplePatternSpec> = (0..[1, 1, 1, 2, 2, 2, 3, 3, 4][rng.below(9)])
        .map(|_| {
            // Repeated variables inside one pattern (`?x ?p ?x`) on purpose.
            let s = random_node(rng);
            let o = if rng.chance(12) {
                s.clone()
            } else {
                random_node(rng)
            };
            TriplePatternSpec::new(s, random_predicate(rng), o)
        })
        .collect();
    let mut query = Query::select_all(patterns);
    if rng.chance(60) {
        // An explicit projection: a random subset (possibly reordered,
        // possibly naming a variable the BGP never binds).
        let mut vars: Vec<String> = VARIABLES
            .iter()
            .filter(|_| rng.chance(45))
            .map(|v| (*v).to_owned())
            .collect();
        if rng.chance(8) {
            vars.push("ghost".to_owned());
        }
        if rng.chance(30) {
            vars.reverse();
        }
        if !vars.is_empty() {
            query.select = Selection::Variables(vars);
        }
    }
    let in_scope = query.pattern_variables();
    for _ in 0..[0, 0, 0, 1, 1, 2][rng.below(6)] {
        query = query.with_filter(random_filter(rng, &in_scope));
    }
    if rng.chance(40) {
        query = query.with_distinct();
    }
    if rng.chance(25) {
        query = query.with_limit(rng.below(6));
    }
    if rng.chance(20) {
        query = query.with_offset(rng.below(4));
    }
    query
}

// ---------------------------------------------------------------------------
// The naive evaluator
// ---------------------------------------------------------------------------

type Bindings = BTreeMap<String, u64>;

/// Extends `bindings` so that `term` denotes `value`, or reports a clash.
fn unify(bindings: &mut Bindings, term: &PatternTerm, value: u64, dictionary: &Dictionary) -> bool {
    match term {
        PatternTerm::Constant(constant) => dictionary.id_of(constant) == Some(value),
        PatternTerm::Variable(name) => match bindings.get(name) {
            Some(bound) => *bound == value,
            None => {
                bindings.insert(name.clone(), value);
                true
            }
        },
    }
}

fn naive_bgp(
    triples: &[IdTriple],
    patterns: &[TriplePatternSpec],
    bindings: &Bindings,
    dictionary: &Dictionary,
    out: &mut Vec<Bindings>,
) {
    let Some((pattern, rest)) = patterns.split_first() else {
        out.push(bindings.clone());
        return;
    };
    for triple in triples {
        let mut extended = bindings.clone();
        if unify(&mut extended, &pattern.s, triple.s, dictionary)
            && unify(&mut extended, &pattern.p, triple.p, dictionary)
            && unify(&mut extended, &pattern.o, triple.o, dictionary)
        {
            naive_bgp(triples, rest, &extended, dictionary, out);
        }
    }
}

fn naive_filter(filter: &FilterExpr, bindings: &Bindings, dictionary: &Dictionary) -> bool {
    let value = |name: &str| bindings.get(name).copied();
    let kind = |name: &str| {
        value(name)
            .and_then(|id| dictionary.decode(id))
            .map(|term| term.kind())
    };
    match filter {
        FilterExpr::Bound(name) => value(name).is_some(),
        FilterExpr::IsIri(name) => kind(name) == Some(TermKind::Iri),
        FilterExpr::IsLiteral(name) => kind(name) == Some(TermKind::Literal),
        FilterExpr::IsBlank(name) => kind(name) == Some(TermKind::BlankNode),
        // An unbound operand is an error, and an error rejects the row; a
        // constant the data never mentions equals nothing and differs from
        // everything.
        FilterExpr::Equal(name, rhs) => match (value(name), rhs) {
            (None, _) => false,
            (Some(lhs), PatternTerm::Variable(other)) => value(other) == Some(lhs),
            (Some(lhs), PatternTerm::Constant(term)) => dictionary.id_of(term) == Some(lhs),
        },
        FilterExpr::NotEqual(name, rhs) => match (value(name), rhs) {
            (None, _) => false,
            (Some(lhs), PatternTerm::Variable(other)) => value(other).is_some_and(|r| r != lhs),
            (Some(lhs), PatternTerm::Constant(term)) => dictionary.id_of(term) != Some(lhs),
        },
    }
}

/// Every solution of the query's BGP and filters, projected, before
/// `DISTINCT` and the slice.
fn naive_rows(store: &TripleStore, dictionary: &Dictionary, query: &Query) -> Vec<Row> {
    let triples: Vec<IdTriple> = store.iter_triples().collect();
    let mut solutions = Vec::new();
    naive_bgp(
        &triples,
        &query.patterns,
        &Bindings::new(),
        dictionary,
        &mut solutions,
    );
    let projected = query.projected_variables();
    solutions
        .iter()
        .filter(|bindings| {
            query
                .filters
                .iter()
                .all(|filter| naive_filter(filter, bindings, dictionary))
        })
        .map(|bindings| {
            projected
                .iter()
                .map(|name| bindings.get(name).copied())
                .collect()
        })
        .collect()
}

fn multiset(rows: &[Row]) -> BTreeMap<&Row, usize> {
    let mut counts = BTreeMap::new();
    for row in rows {
        *counts.entry(row).or_insert(0) += 1;
    }
    counts
}

// ---------------------------------------------------------------------------
// The comparison
// ---------------------------------------------------------------------------

fn check(store: &TripleStore, dictionary: &Dictionary, query: &Query, context: &str) {
    let engine = QueryEngine::new(store, dictionary);

    let mut full = naive_rows(store, dictionary, query);
    full.sort();
    if query.distinct {
        full.dedup();
    }
    let expected_len = match query.limit {
        Some(limit) => limit.min(full.len().saturating_sub(query.offset)),
        None => full.len().saturating_sub(query.offset),
    };

    let answer = engine.execute(query);
    assert_eq!(
        answer.variables(),
        query.projected_variables().as_slice(),
        "{context}: header"
    );
    let rows = answer.sorted_rows();
    assert_eq!(rows.len(), answer.len(), "{context}: len() vs rows");
    assert_eq!(answer.is_empty(), rows.is_empty(), "{context}: is_empty()");
    assert_eq!(rows.len(), expected_len, "{context}: row count");
    if query.limit.is_none() && query.offset == 0 {
        assert_eq!(rows, full, "{context}: rows");
    } else {
        let available = multiset(&full);
        for (row, count) in multiset(&rows) {
            assert!(
                available.get(row).is_some_and(|have| *have >= count),
                "{context}: sliced answer holds {row:?} ×{count}, the full answer does not"
            );
        }
    }

    // ASK over the same BGP and filters: one empty row exactly when the
    // un-sliced SELECT has a solution.
    let ask = Query {
        form: QueryForm::Ask,
        ..query.clone()
    };
    let unsliced_nonempty = !naive_rows(store, dictionary, query).is_empty();
    let asked = engine.execute(&ask);
    assert_eq!(
        asked.len(),
        usize::from(unsliced_nonempty),
        "{context}: ASK row count"
    );
    assert!(asked.variables().is_empty(), "{context}: ASK header");
    assert_eq!(engine.ask(query), unsliced_nonempty, "{context}: ask()");
}

fn run_cases(seed: u64, graphs: usize, queries_per_graph: usize) {
    let mut rng = Rng(seed);
    for graph_index in 0..graphs {
        let graph = random_graph(&mut rng);
        let raw = load_graph(&graph).expect("generated graphs load");
        let mut cached_store = raw.store.clone();
        cached_store.ensure_all_os();
        for query_index in 0..queries_per_graph {
            let query = random_query(&mut rng);
            let context = format!(
                "seed {seed:#x}, graph {graph_index}, query {query_index}\n{query:#?}\n{graph}"
            );
            check(
                &raw.store,
                &raw.dictionary,
                &query,
                &format!("[no ⟨o,s⟩ cache] {context}"),
            );
            check(
                &cached_store,
                &raw.dictionary,
                &query,
                &format!("[⟨o,s⟩ caches built] {context}"),
            );
        }
    }
}

#[test]
fn engine_agrees_with_the_naive_evaluator() {
    run_cases(0x0dd5_eed0_0000_0001, 80, 25);
}

#[test]
fn engine_agrees_with_the_naive_evaluator_on_a_second_seed() {
    run_cases(0x0dd5_eed0_0000_0002, 80, 25);
}

// ---------------------------------------------------------------------------
// Hand-written cases the generator reaches only by luck
// ---------------------------------------------------------------------------

fn fixed_dataset() -> inferray_parser::LoadedDataset {
    let mut graph = Graph::new();
    for (s, p, o) in [
        (entity(0), predicate(0), entity(1)),
        (entity(1), predicate(0), entity(2)),
        (entity(2), predicate(0), entity(2)),
        (entity(0), predicate(1), entity(0)),
        (entity(3), predicate(1), entity(1)),
        // A predicate IRI as subject and object: ?p can join through it.
        (predicate(1), predicate(2), predicate(0)),
        (entity(1), predicate(2), Term::plain_literal("lit0")),
    ] {
        graph.insert(Triple::new(s, p, o));
    }
    load_graph(&graph).expect("fixed graph loads")
}

fn var(name: &str) -> PatternTerm {
    PatternTerm::var(name)
}

fn check_both(query: &Query, label: &str) {
    let mut dataset = fixed_dataset();
    check(&dataset.store, &dataset.dictionary, query, label);
    dataset.store.ensure_all_os();
    check(&dataset.store, &dataset.dictionary, query, label);
}

#[test]
fn repeated_variable_in_one_pattern() {
    let pattern = TriplePatternSpec::new(var("x"), var("p"), var("x"));
    check_both(&Query::select_all(vec![pattern.clone()]), "?x ?p ?x");
    check_both(
        &Query::select(vec!["p".into()], vec![pattern]).with_distinct(),
        "DISTINCT ?p { ?x ?p ?x }",
    );
}

#[test]
fn predicate_variable_bound_to_property_and_resource_ids() {
    // ?s p2 ?q binds ?q to p0 (a property id) and to a literal (a resource
    // id); only the former can match anything as a predicate.
    let patterns = vec![
        TriplePatternSpec::new(var("s"), PatternTerm::term(predicate(2)), var("q")),
        TriplePatternSpec::new(var("a"), var("q"), var("b")),
    ];
    check_both(&Query::select_all(patterns), "predicate variable join");
}

#[test]
fn cartesian_product_and_absent_constants() {
    let product = vec![
        TriplePatternSpec::new(var("a"), PatternTerm::term(predicate(0)), var("b")),
        TriplePatternSpec::new(var("c"), PatternTerm::term(predicate(1)), var("d")),
    ];
    check_both(&Query::select_all(product.clone()), "cartesian product");
    check_both(
        &Query::select(vec!["d".into(), "a".into()], product).with_distinct(),
        "DISTINCT over a cartesian product",
    );
    let absent = vec![TriplePatternSpec::new(
        var("a"),
        PatternTerm::term(predicate(0)),
        PatternTerm::term(entity(99)),
    )];
    check_both(&Query::select_all(absent), "absent constant");
}

#[test]
fn distinct_on_each_scan_shape() {
    let p0 = PatternTerm::term(predicate(0));
    for (label, projection, pattern) in [
        (
            "DISTINCT ?o { ?s p0 ?o }",
            vec!["o"],
            TriplePatternSpec::new(var("s"), p0.clone(), var("o")),
        ),
        (
            "DISTINCT ?s { ?s p0 ?o }",
            vec!["s"],
            TriplePatternSpec::new(var("s"), p0.clone(), var("o")),
        ),
        (
            "DISTINCT ?p { ?s ?p ?o }",
            vec!["p"],
            TriplePatternSpec::new(var("s"), var("p"), var("o")),
        ),
        (
            "DISTINCT ?s { ?s ?p ?o }",
            vec!["s"],
            TriplePatternSpec::new(var("s"), var("p"), var("o")),
        ),
        (
            "DISTINCT ?p ?o { ?s ?p ?o }",
            vec!["p", "o"],
            TriplePatternSpec::new(var("s"), var("p"), var("o")),
        ),
        (
            "DISTINCT ?ghost { ?s p0 ?o }",
            vec!["ghost"],
            TriplePatternSpec::new(var("s"), p0.clone(), var("o")),
        ),
    ] {
        let vars: Vec<String> = projection.iter().map(|v| (*v).to_owned()).collect();
        let query = Query::select(vars, vec![pattern]).with_distinct();
        check_both(&query, label);
        check_both(&query.clone().with_limit(2), label);
        check_both(&query.clone().with_limit(1).with_offset(1), label);
        check_both(
            &query.with_filter(FilterExpr::IsIri("o".into())),
            "with a filter on the dropped column",
        );
    }
}

#[test]
fn empty_bgp_and_empty_store() {
    check_both(&Query::select_all(Vec::new()), "SELECT * { }");
    check_both(
        &Query::select_all(Vec::new()).with_filter(FilterExpr::Bound("x".into())),
        "SELECT * { FILTER(bound(?x)) }",
    );
    check_both(&Query::select_all(Vec::new()).with_offset(1), "OFFSET 1");
    let empty = load_graph(&Graph::new()).expect("empty graph loads");
    let scan = Query::select_all(vec![TriplePatternSpec::new(var("s"), var("p"), var("o"))]);
    check(&empty.store, &empty.dictionary, &scan, "scan of nothing");
}
