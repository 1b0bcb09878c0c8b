//! The snapshot-owning, `Send + Sync` face of the query engine.
//!
//! [`QueryEngine`](crate::QueryEngine) borrows a store and a dictionary,
//! which is the right shape for embedding but cannot cross threads or
//! outlive a materialization. [`SnapshotQueryEngine`] owns its inputs
//! instead — a frozen [`StoreSnapshot`] plus a shared dictionary — so it
//! can be handed to any number of serving threads while the reasoner
//! publishes new epochs behind it. Queries answered by one engine instance
//! are all answered against the **same** epoch: acquiring a fresh view is
//! an explicit, cheap operation (build a new engine from
//! [`SnapshotStore::snapshot`](inferray_store::SnapshotStore::snapshot)),
//! never something that happens mid-query.
//!
//! [`SnapshotQueryEngine::execute_batch`] fans a batch of parsed queries
//! out over the `inferray-parallel` worker pool. Results come back **in
//! submission order** (the pool's `run_ordered` contract), one solution set
//! per query, so batch execution is deterministic: the same batch against
//! the same epoch produces byte-identical output regardless of thread
//! count or scheduling.

use crate::engine::QueryEngine;
use crate::executor::Scratch;
use crate::solution::SolutionSet;
use crate::sparql::{parse_query, QueryParseError};
use crate::Query;
use inferray_dictionary::Dictionary;
use inferray_parallel::ThreadPool;
use inferray_store::StoreSnapshot;
use std::sync::Arc;

/// A query engine bound to one published snapshot (epoch) of the store.
///
/// Cloning is cheap (`Arc` bumps) and clones answer against the same epoch.
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
/// // The engine is Send + Sync: serve it from as many threads as you like.
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
#[derive(Debug, Clone)]
pub struct SnapshotQueryEngine {
    snapshot: StoreSnapshot,
    dictionary: Arc<Dictionary>,
}

impl SnapshotQueryEngine {
    /// An engine answering every query against `snapshot`, decoding through
    /// `dictionary`.
    pub fn new(snapshot: StoreSnapshot, dictionary: Arc<Dictionary>) -> Self {
        SnapshotQueryEngine {
            snapshot,
            dictionary,
        }
    }

    /// The epoch every query of this engine is answered against.
    pub fn epoch(&self) -> u64 {
        self.snapshot.epoch()
    }

    /// The frozen snapshot backing this engine.
    pub fn snapshot(&self) -> &StoreSnapshot {
        &self.snapshot
    }

    /// The dictionary used to encode constants and decode solutions.
    pub fn dictionary(&self) -> &Arc<Dictionary> {
        &self.dictionary
    }

    /// A borrow-based [`QueryEngine`] over this snapshot, for callers that
    /// want the full borrowed API.
    pub fn engine(&self) -> QueryEngine<'_> {
        QueryEngine::new(self.snapshot.store(), &self.dictionary)
    }

    /// Parses and executes one SPARQL-subset query against the snapshot.
    pub fn execute_sparql(&self, text: &str) -> Result<SolutionSet, QueryParseError> {
        self.engine().execute_sparql(text)
    }

    /// Parses and executes an `ASK` query against the snapshot.
    pub fn ask_sparql(&self, text: &str) -> Result<bool, QueryParseError> {
        self.engine().ask_sparql(text)
    }

    /// Executes a pre-built [`Query`] against the snapshot.
    pub fn execute(&self, query: &Query) -> SolutionSet {
        self.engine().execute(query)
    }

    /// [`SnapshotQueryEngine::execute`] into buffers the caller reuses from
    /// query to query (the HTTP workers).
    pub(crate) fn execute_into(
        &self,
        query: &Query,
        solutions: &mut SolutionSet,
        scratch: &mut Scratch,
    ) {
        self.engine().execute_into(query, solutions, scratch);
    }

    /// Executes a batch of query strings on the global `inferray-parallel`
    /// pool. One result per input, **in input order** — parse errors are
    /// reported per query and never abort the batch.
    pub fn execute_batch(&self, queries: &[String]) -> Vec<Result<SolutionSet, QueryParseError>> {
        self.execute_batch_on(inferray_parallel::global(), queries)
    }

    /// [`SnapshotQueryEngine::execute_batch`] on an explicit pool (the
    /// serving benchmark sizes pools per measurement).
    pub fn execute_batch_on(
        &self,
        pool: &ThreadPool,
        queries: &[String],
    ) -> Vec<Result<SolutionSet, QueryParseError>> {
        if queries.len() <= 1 {
            return queries
                .iter()
                .map(|text| self.execute_sparql(text))
                .collect();
        }
        // One task per contiguous chunk, a few chunks per lane: per-task
        // scheduling overhead is amortized while stragglers still balance.
        // Flattening chunk results in chunk order preserves input order.
        let tasks: Vec<_> = queries
            .chunks(batch_chunk_size(queries.len(), pool))
            .map(|chunk| {
                move || {
                    chunk
                        .iter()
                        .map(|text| self.execute_sparql(text))
                        .collect::<Vec<_>>()
                }
            })
            .collect();
        pool.run_ordered(tasks).into_iter().flatten().collect()
    }

    /// Executes a batch of pre-parsed queries on `pool`, one solution set
    /// per query in input order.
    pub fn execute_queries_on(&self, pool: &ThreadPool, queries: &[Query]) -> Vec<SolutionSet> {
        if queries.len() <= 1 {
            return queries.iter().map(|query| self.execute(query)).collect();
        }
        let tasks: Vec<_> = queries
            .chunks(batch_chunk_size(queries.len(), pool))
            .map(|chunk| {
                move || {
                    chunk
                        .iter()
                        .map(|query| self.execute(query))
                        .collect::<Vec<_>>()
                }
            })
            .collect();
        pool.run_ordered(tasks).into_iter().flatten().collect()
    }
}

/// Chunk size giving every execution lane about four chunks to steal.
fn batch_chunk_size(len: usize, pool: &ThreadPool) -> usize {
    let lanes = pool.threads() + 1;
    len.div_ceil(lanes * 4).max(1)
}

/// Parses every query of a batch up front, so servers can reject malformed
/// requests before paying for execution. Returns the parsed queries in
/// input order or the first error with its input index.
pub fn parse_batch(queries: &[String]) -> Result<Vec<Query>, (usize, QueryParseError)> {
    queries
        .iter()
        .enumerate()
        .map(|(index, text)| parse_query(text).map_err(|e| (index, e)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use inferray_model::IdTriple;
    use inferray_store::{SnapshotStore, TripleStore};

    fn engine_over(triples: &[(u64, u64, u64)]) -> (SnapshotStore, Arc<Dictionary>) {
        let store =
            TripleStore::from_triples(triples.iter().map(|&(s, p, o)| IdTriple::new(s, p, o)));
        (SnapshotStore::new(store), Arc::new(Dictionary::new()))
    }

    fn p() -> u64 {
        inferray_model::ids::nth_property_id(3)
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SnapshotQueryEngine>();
    }

    #[test]
    fn batch_results_preserve_input_order() {
        let (snapshots, dictionary) = engine_over(&[(10, p(), 20), (11, p(), 20), (12, p(), 21)]);
        let engine = SnapshotQueryEngine::new(snapshots.snapshot(), dictionary);
        let pool = ThreadPool::new(3);
        let batch: Vec<String> = vec![
            "SELECT ?s ?o WHERE { ?s ?p ?o }".into(),
            "this is not sparql".into(),
            "SELECT ?s WHERE { ?s ?p 99 }".into(),
        ];
        let results = engine.execute_batch_on(&pool, &batch);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].as_ref().unwrap().len(), 3);
        assert!(results[1].is_err(), "parse errors are per-query");
        assert_eq!(results[2].as_ref().unwrap().len(), 0);
    }

    #[test]
    fn batch_execution_is_deterministic_across_pool_sizes() {
        let triples: Vec<(u64, u64, u64)> = (0..200)
            .map(|i| (5_000_000 + i % 40, p(), 6_000_000 + i % 7))
            .collect();
        let (snapshots, dictionary) = engine_over(&triples);
        let engine = SnapshotQueryEngine::new(snapshots.snapshot(), dictionary);
        let batch: Vec<String> = (0..16)
            .map(|i| format!("SELECT ?s WHERE {{ ?s ?p {} }}", 6_000_000 + i % 7))
            .collect();
        // (Integer constants never match IRIs, so these return empty sets —
        // the determinism claim is about result *structure* and order.)
        let solo = ThreadPool::new(1);
        let wide = ThreadPool::new(4);
        let a: Vec<_> = engine
            .execute_batch_on(&solo, &batch)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        let b: Vec<_> = engine
            .execute_batch_on(&wide, &batch)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn parse_batch_reports_the_failing_index() {
        let ok = parse_batch(&["ASK {}".into(), "SELECT * WHERE {}".into()]);
        assert_eq!(ok.unwrap().len(), 2);
        let err = parse_batch(&["ASK {}".into(), "nope".into()]);
        assert_eq!(err.unwrap_err().0, 1);
    }

    #[test]
    fn engine_answers_against_its_epoch_only() {
        let (snapshots, dictionary) = engine_over(&[(1, p(), 2)]);
        let engine = SnapshotQueryEngine::new(snapshots.snapshot(), Arc::clone(&dictionary));
        snapshots.update(|store| store.add_triple(IdTriple::new(3, p(), 4)));
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
}
