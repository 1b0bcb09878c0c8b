//! The [`QueryEngine`]: compiles and evaluates queries against a store and
//! its dictionary — borrowed for embedding, or owned as a published snapshot
//! for serving ([`SnapshotQueryEngine`]).

use crate::algebra::{FilterExpr, PatternTerm, Query, QueryForm, TriplePatternSpec};
use crate::executor::{
    self, CompiledPattern, Dedup, Operand, Plan, RowFilter, Scratch, Slot, Source,
};
use crate::planner::{choose_dedup, link, order_patterns};
use crate::solution::{SolutionSet, UNBOUND};
use crate::sparql::{parse_query, QueryParseError};
use inferray_dictionary::Dictionary;
use inferray_model::TermKind;
use inferray_store::{StoreSnapshot, TripleStore};
use std::ops::Deref;
use std::sync::Arc;

/// A read-only query engine over a (typically materialized) triple store and
/// the dictionary that encoded it, held as anything that derefs to them:
/// `QueryEngine::new(&store, &dictionary)` borrows, [`SnapshotQueryEngine`]
/// owns a published epoch.
///
/// The engine never mutates the store. For best `(?, p, o)` lookups, build
/// the ⟨o,s⟩ caches first with [`TripleStore::ensure_all_os`] — the engine
/// transparently falls back to sequential scans when a cache is absent.
///
/// # Example
///
/// ```
/// use inferray_parser::load_turtle;
/// use inferray_query::QueryEngine;
///
/// let data = r#"
/// @prefix ex: <http://example.org/> .
/// ex:alice ex:knows ex:bob .
/// ex:bob ex:knows ex:carol .
/// "#;
/// let mut loaded = load_turtle(data).unwrap();
/// loaded.store.ensure_all_os();
/// let engine = QueryEngine::new(&loaded.store, &loaded.dictionary);
/// let solutions = engine
///     .execute_sparql(
///         "PREFIX ex: <http://example.org/> \
///          SELECT ?x ?z WHERE { ?x ex:knows ?y . ?y ex:knows ?z }",
///     )
///     .unwrap();
/// assert_eq!(solutions.len(), 1);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct QueryEngine<S, D> {
    store: S,
    dictionary: D,
}

/// The engine bound to one published snapshot (epoch) of the store: `Send +
/// Sync`, cheap to clone (`Arc` bumps), and every clone answers against the
/// same epoch. Observing a newer one is an explicit re-acquire — a new
/// engine over [`SnapshotStore::snapshot`](inferray_store::SnapshotStore::snapshot)
/// — never something that happens mid-query.
///
/// ```
/// use inferray_parser::load_turtle;
/// use inferray_query::SnapshotQueryEngine;
/// use inferray_store::SnapshotStore;
/// use std::sync::Arc;
///
/// let data = r#"
/// @prefix ex: <http://example.org/> .
/// ex:alice ex:knows ex:bob .
/// ex:bob ex:knows ex:carol .
/// "#;
/// let dataset = load_turtle(data).unwrap();
/// let dictionary = Arc::new(dataset.dictionary);
/// let snapshots = SnapshotStore::new(dataset.store);
///
/// let engine = SnapshotQueryEngine::new(snapshots.snapshot(), Arc::clone(&dictionary));
/// std::thread::scope(|scope| {
///     for _ in 0..4 {
///         let engine = engine.clone();
///         scope.spawn(move || {
///             let hops = engine
///                 .execute_sparql(
///                     "PREFIX ex: <http://example.org/> \
///                      SELECT ?x ?z WHERE { ?x ex:knows ?y . ?y ex:knows ?z }",
///                 )
///                 .unwrap();
///             assert_eq!(hops.len(), 1);
///         });
///     }
/// });
/// ```
pub type SnapshotQueryEngine = QueryEngine<StoreSnapshot, Arc<Dictionary>>;

impl SnapshotQueryEngine {
    /// The epoch every query of this engine is answered against.
    pub fn epoch(&self) -> u64 {
        self.store.epoch()
    }

    /// The frozen snapshot backing this engine.
    pub fn snapshot(&self) -> &StoreSnapshot {
        &self.store
    }
}

impl<S: Deref<Target = TripleStore>, D: Deref<Target = Dictionary>> QueryEngine<S, D> {
    /// Creates an engine over a store and the dictionary that encoded it.
    pub fn new(store: S, dictionary: D) -> Self {
        QueryEngine { store, dictionary }
    }

    /// The store the engine reads from.
    pub fn store(&self) -> &TripleStore {
        &self.store
    }

    /// The dictionary used to encode constants and decode solutions.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dictionary
    }

    /// Parses and executes a SPARQL-subset `SELECT` (or `ASK`) query,
    /// returning its solutions. For `ASK` queries the solution set contains
    /// one empty row when the pattern matches and no row otherwise.
    pub fn execute_sparql(&self, text: &str) -> Result<SolutionSet, QueryParseError> {
        Ok(self.execute(&parse_query(text)?))
    }

    /// Parses and executes an `ASK` query (also accepts `SELECT`, in which
    /// case the answer is "does it have at least one solution").
    pub fn ask_sparql(&self, text: &str) -> Result<bool, QueryParseError> {
        Ok(self.ask(&parse_query(text)?))
    }

    /// Executes a pre-built [`Query`].
    pub fn execute(&self, query: &Query) -> SolutionSet {
        let mut solutions = SolutionSet::default();
        self.execute_into(query, &mut solutions, &mut Scratch::default());
        solutions
    }

    /// [`QueryEngine::execute`] into a caller-owned solution set and
    /// scratch: a caller that keeps both across queries (a serving worker)
    /// pays no per-row allocation once they have grown.
    pub(crate) fn execute_into(
        &self,
        query: &Query,
        solutions: &mut SolutionSet,
        scratch: &mut Scratch,
    ) {
        solutions.reset(match query.form {
            QueryForm::Select => query.projected_variables(),
            QueryForm::Ask => Vec::new(),
        });
        let variables = query.pattern_variables();
        let slot = |name: &str| variables.iter().position(|v| v == name);
        let Some(compiled) = self.compile_patterns(&query.patterns, &slot) else {
            // A constant of the BGP is not in the dictionary: no solution.
            return;
        };
        let ordered = order_patterns(&self.store, compiled);

        // What the last step must still be able to see: the first
        // `projected` of `needed` for the output, the rest for the filters.
        let mut needed: Vec<usize> = solutions
            .variables()
            .iter()
            .filter_map(|name| slot(name))
            .collect();
        let projected = needed.len();
        needed.extend(
            query
                .filters
                .iter()
                .flat_map(FilterExpr::variables)
                .filter_map(slot),
        );
        let (steps, scope) = link(&ordered, &needed);
        let source = |name: &str| scope.source(slot(name));
        let select = query.form == QueryForm::Select;
        let plan = Plan {
            steps,
            output: solutions.variables().iter().map(|v| source(v)).collect(),
            filters: query
                .filters
                .iter()
                .map(|filter| self.compile_filter(filter, &source))
                .collect(),
            dedup: if select && query.distinct {
                choose_dedup(
                    &self.store,
                    &ordered,
                    &needed[..projected],
                    &needed[projected..],
                )
            } else {
                Dedup::None
            },
            // ASK is SELECT with nothing projected, cut at the first row.
            offset: if select { query.offset } else { 0 },
            limit: if select { query.limit } else { Some(1) },
        };
        executor::execute(
            &self.store,
            &self.dictionary,
            &plan,
            &mut solutions.batch,
            scratch,
        );
    }

    /// Executes a query and reports whether it has at least one solution.
    pub fn ask(&self, query: &Query) -> bool {
        let probe = Query {
            form: QueryForm::Ask,
            ..query.clone()
        };
        !self.execute(&probe).is_empty()
    }

    /// Compiles the BGP against the dictionary; `None` when a constant term
    /// is unknown (the BGP can never match). Every pattern variable has a
    /// slot, so a variable without one is treated the same way.
    fn compile_patterns(
        &self,
        patterns: &[TriplePatternSpec],
        slot: &impl Fn(&str) -> Option<usize>,
    ) -> Option<Vec<CompiledPattern>> {
        let compile = |term: &PatternTerm| match term {
            PatternTerm::Variable(name) => slot(name).map(Slot::Var),
            PatternTerm::Constant(term) => self.dictionary.id_of(term).map(Slot::Bound),
        };
        patterns
            .iter()
            .map(|pattern| {
                Some(CompiledPattern {
                    s: compile(&pattern.s)?,
                    p: compile(&pattern.p)?,
                    o: compile(&pattern.o)?,
                })
            })
            .collect()
    }

    /// Resolves a filter's variables to where the last step finds them and
    /// its constant to an identifier, once per query instead of per row.
    fn compile_filter(&self, filter: &FilterExpr, source: &impl Fn(&str) -> Source) -> RowFilter {
        let operand = |rhs: &PatternTerm| match rhs {
            PatternTerm::Variable(name) => Operand::Var(source(name)),
            PatternTerm::Constant(term) => {
                Operand::Const(self.dictionary.id_of(term).unwrap_or(UNBOUND))
            }
        };
        match filter {
            FilterExpr::Bound(name) => RowFilter::Bound(source(name)),
            FilterExpr::IsIri(name) => RowFilter::Kind(source(name), TermKind::Iri),
            FilterExpr::IsLiteral(name) => RowFilter::Kind(source(name), TermKind::Literal),
            FilterExpr::IsBlank(name) => RowFilter::Kind(source(name), TermKind::BlankNode),
            FilterExpr::Equal(name, rhs) => RowFilter::Equal(source(name), operand(rhs)),
            FilterExpr::NotEqual(name, rhs) => RowFilter::NotEqual(source(name), operand(rhs)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{PatternTerm, TriplePatternSpec};
    use crate::executor::tests::visited;
    use inferray_model::Term;
    use inferray_parser::load_turtle;

    const DATA: &str = r#"
@prefix ex: <http://example.org/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
ex:alice a ex:Person ; ex:knows ex:bob ; ex:name "Alice" .
ex:bob a ex:Person ; ex:knows ex:carol ; ex:name "Bob" .
ex:carol a ex:Robot ; ex:name "Carol"@en .
ex:Robot rdfs:subClassOf ex:Agent .
"#;

    fn loaded() -> inferray_parser::LoadedDataset {
        let mut dataset = load_turtle(DATA).unwrap();
        dataset.store.ensure_all_os();
        dataset
    }

    fn ex(local: &str) -> String {
        format!("http://example.org/{local}")
    }

    #[test]
    fn single_pattern_select() {
        let dataset = loaded();
        let engine = QueryEngine::new(&dataset.store, &dataset.dictionary);
        let solutions = engine
            .execute_sparql(
                "PREFIX ex: <http://example.org/> SELECT ?who WHERE { ?who a ex:Person }",
            )
            .unwrap();
        assert_eq!(solutions.len(), 2);
        let who: Vec<Option<Term>> = (0..solutions.len())
            .map(|row| solutions.decoded_value(row, "who", &dataset.dictionary))
            .collect();
        assert!(who.contains(&Some(Term::iri(ex("alice")))));
        assert!(who.contains(&Some(Term::iri(ex("bob")))));
    }

    #[test]
    fn join_across_two_patterns() {
        let dataset = loaded();
        let engine = QueryEngine::new(&dataset.store, &dataset.dictionary);
        let solutions = engine
            .execute_sparql(
                "PREFIX ex: <http://example.org/> \
                 SELECT ?x ?z WHERE { ?x ex:knows ?y . ?y ex:knows ?z }",
            )
            .unwrap();
        assert_eq!(solutions.len(), 1);
        assert_eq!(
            solutions.decoded_value(0, "x", &dataset.dictionary),
            Some(Term::iri(ex("alice")))
        );
        assert_eq!(
            solutions.decoded_value(0, "z", &dataset.dictionary),
            Some(Term::iri(ex("carol")))
        );
    }

    #[test]
    fn filters_restrict_solutions() {
        let dataset = loaded();
        let engine = QueryEngine::new(&dataset.store, &dataset.dictionary);
        let all = engine
            .execute_sparql("PREFIX ex: <http://example.org/> SELECT ?s ?n WHERE { ?s ex:name ?n }")
            .unwrap();
        assert_eq!(all.len(), 3);
        let only_alice = engine
            .execute_sparql(
                "PREFIX ex: <http://example.org/> \
                 SELECT ?s WHERE { ?s ex:name ?n . FILTER(?n = \"Alice\") }",
            )
            .unwrap();
        assert_eq!(only_alice.len(), 1);
        assert_eq!(
            only_alice.decoded_value(0, "s", &dataset.dictionary),
            Some(Term::iri(ex("alice")))
        );
        let not_alice = engine
            .execute_sparql(
                "PREFIX ex: <http://example.org/> \
                 SELECT ?s WHERE { ?s ex:name ?n . FILTER(?n != \"Alice\") }",
            )
            .unwrap();
        assert_eq!(not_alice.len(), 2);
        let literals = engine
            .execute_sparql(
                "PREFIX ex: <http://example.org/> \
                 SELECT ?o WHERE { ?s ?p ?o . FILTER(isLiteral(?o)) }",
            )
            .unwrap();
        assert_eq!(literals.len(), 3);
    }

    #[test]
    fn unknown_constant_means_no_solutions() {
        let dataset = loaded();
        let engine = QueryEngine::new(&dataset.store, &dataset.dictionary);
        let solutions = engine
            .execute_sparql("PREFIX ex: <http://example.org/> SELECT ?s WHERE { ?s a ex:Unicorn }")
            .unwrap();
        assert!(solutions.is_empty());
        assert_eq!(solutions.variables(), &["s".to_owned()]);
    }

    #[test]
    fn ask_queries() {
        let dataset = loaded();
        let engine = QueryEngine::new(&dataset.store, &dataset.dictionary);
        assert!(engine
            .ask_sparql("PREFIX ex: <http://example.org/> ASK { ex:alice ex:knows ex:bob }")
            .unwrap());
        assert!(!engine
            .ask_sparql("PREFIX ex: <http://example.org/> ASK { ex:bob ex:knows ex:alice }")
            .unwrap());
        assert!(!engine
            .ask_sparql("PREFIX ex: <http://example.org/> ASK { ex:alice ex:knows ex:ghost }")
            .unwrap());
    }

    #[test]
    fn distinct_limit_offset_apply_in_order() {
        let dataset = loaded();
        let engine = QueryEngine::new(&dataset.store, &dataset.dictionary);
        let types = engine
            .execute_sparql("SELECT DISTINCT ?t WHERE { ?x a ?t }")
            .unwrap();
        assert_eq!(types.len(), 2);
        let limited = engine
            .execute_sparql("SELECT ?x WHERE { ?x ?p ?o } LIMIT 3")
            .unwrap();
        assert_eq!(limited.len(), 3);
        let all = engine
            .execute_sparql("SELECT ?x WHERE { ?x ?p ?o }")
            .unwrap();
        let offset = engine
            .execute_sparql("SELECT ?x WHERE { ?x ?p ?o } OFFSET 2")
            .unwrap();
        assert_eq!(offset.len(), all.len() - 2);
    }

    #[test]
    fn programmatic_query_construction() {
        let dataset = loaded();
        let engine = QueryEngine::new(&dataset.store, &dataset.dictionary);
        let query = Query::select_all(vec![TriplePatternSpec::new(
            PatternTerm::var("x"),
            PatternTerm::iri(ex("knows")),
            PatternTerm::var("y"),
        )]);
        let solutions = engine.execute(&query);
        assert_eq!(solutions.len(), 2);
        assert!(engine.ask(&query));
    }

    #[test]
    fn projecting_a_variable_absent_from_the_bgp_yields_unbound() {
        let dataset = loaded();
        let engine = QueryEngine::new(&dataset.store, &dataset.dictionary);
        let solutions = engine
            .execute_sparql("SELECT ?ghost WHERE { ?x ?p ?o } LIMIT 1")
            .unwrap();
        assert_eq!(solutions.len(), 1);
        assert_eq!(solutions.sorted_rows(), vec![vec![None]]);
    }

    #[test]
    fn ask_and_limit_do_constant_work_on_a_large_store() {
        // 40 000 triples over 8 predicates; answers of one row must not cost
        // a walk over them.
        let mut document = String::new();
        for i in 0..40_000 {
            document.push_str(&format!(
                "<http://example.org/s{}> <http://example.org/p{}> <http://example.org/o{}> .\n",
                i / 4,
                i % 8,
                i % 100
            ));
        }
        let mut dataset = inferray_parser::load_ntriples(&document).unwrap();
        dataset.store.ensure_all_os();
        let engine = QueryEngine::new(&dataset.store, &dataset.dictionary);
        for (text, rows, bound) in [
            ("ASK { ?s ?p ?o }", 1, 1),
            ("SELECT ?s WHERE { ?s ?p ?o } LIMIT 1", 1, 1),
            ("SELECT ?s WHERE { ?s ?p ?o } LIMIT 5 OFFSET 5", 5, 10),
            // One row per non-empty table, one pair looked at in each.
            ("SELECT DISTINCT ?p WHERE { ?s ?p ?o }", 8, 8),
            (
                "SELECT DISTINCT ?o WHERE { ?s <http://example.org/p3> ?o } LIMIT 4",
                4,
                4,
            ),
            // Only the last step stops early: the first one is the p3 table.
            ("ASK { ?s <http://example.org/p3> ?o . ?s ?q ?z }", 1, 5_001),
        ] {
            let mut solutions = SolutionSet::default();
            let visited = visited(|| solutions = engine.execute_sparql(text).unwrap());
            assert_eq!(solutions.len(), rows, "{text}");
            assert!(
                visited <= bound,
                "{text}: looked at {visited} pairs, the answer needs at most {bound}"
            );
        }
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SnapshotQueryEngine>();
    }

    #[test]
    fn engine_answers_against_its_epoch_only() {
        use inferray_model::IdTriple;
        use inferray_store::SnapshotStore;
        let p = inferray_model::ids::nth_property_id(3);
        let snapshots = SnapshotStore::new(TripleStore::from_triples([IdTriple::new(1, p, 2)]));
        let dictionary = Arc::new(Dictionary::new());
        let engine = SnapshotQueryEngine::new(snapshots.snapshot(), Arc::clone(&dictionary));
        snapshots.update(|store| store.add_triple(IdTriple::new(3, p, 4)));
        // The engine still answers against epoch 0...
        assert_eq!(engine.epoch(), 0);
        let rows = engine
            .execute_sparql("SELECT ?s ?o WHERE { ?s ?p ?o }")
            .unwrap();
        assert_eq!(rows.len(), 1);
        // ...until the caller explicitly re-acquires.
        let fresh = SnapshotQueryEngine::new(snapshots.snapshot(), dictionary);
        assert_eq!(fresh.epoch(), 1);
        let rows = fresh
            .execute_sparql("SELECT ?s ?o WHERE { ?s ?p ?o }")
            .unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn empty_bgp_has_exactly_one_empty_solution() {
        let dataset = loaded();
        let engine = QueryEngine::new(&dataset.store, &dataset.dictionary);
        let solutions = engine.execute_sparql("SELECT * WHERE { }").unwrap();
        assert_eq!(solutions.len(), 1);
        assert!(engine.ask_sparql("ASK {}").unwrap());
    }
}
