//! The Sesame/OWLIM-style baseline: iterative full re-evaluation.
//!
//! "Rules are iteratively applied to the data until a stopping criterion is
//! matched" (§2) — but unlike the semi-naive hash-join engine, this baseline
//! re-evaluates every rule against the *entire* triple set on every
//! iteration, re-deriving (and then discarding) everything that is already
//! known. The `derived_raw` / `duplicates_removed` statistics it reports are
//! what §2.1 calls the duplicate-elimination bottleneck.

use crate::datalog::{datalog_rules_for, datalog_rules_of, DatalogRule};
use crate::eval::evaluate_rule;
use crate::index::TripleIndex;
use inferray_model::IdTriple;
use inferray_rules::{Fragment, InferenceStats, Materializer, Ruleset};
use inferray_store::TripleStore;
use std::time::Instant;

/// A deliberately naive fixed-point reasoner: full rule re-evaluation on
/// every iteration with hash-set duplicate elimination.
#[derive(Debug, Clone)]
pub struct NaiveIterativeReasoner {
    fragment: Fragment,
    rules: Vec<DatalogRule>,
    max_iterations: usize,
}

impl NaiveIterativeReasoner {
    /// A naive reasoner for the given fragment.
    pub fn new(fragment: Fragment) -> Self {
        NaiveIterativeReasoner {
            fragment,
            rules: datalog_rules_for(fragment),
            max_iterations: 1024,
        }
    }

    /// A naive reasoner for every rule of `ruleset` — built-ins and the
    /// custom rules of an analyzer-loaded program alike — evaluated by the
    /// baseline's own datalog interpreter, not by `inferray-rules`'
    /// executors.
    pub fn for_ruleset(ruleset: &Ruleset) -> Self {
        NaiveIterativeReasoner {
            fragment: ruleset.fragment,
            rules: datalog_rules_of(ruleset),
            max_iterations: 1024,
        }
    }

    /// The fragment this reasoner applies.
    pub fn fragment(&self) -> Fragment {
        self.fragment
    }
}

impl Materializer for NaiveIterativeReasoner {
    fn name(&self) -> &'static str {
        "naive-iterative"
    }

    fn materialize(&mut self, store: &mut TripleStore) -> InferenceStats {
        let start = Instant::now();
        store.finalize();
        let input: Vec<IdTriple> = store.iter_triples().collect();
        let input_triples = input.len();

        let mut index = TripleIndex::from_triples(input);
        let mut iterations = 0usize;
        let mut derived_raw = 0usize;
        let mut duplicates_removed = 0usize;

        loop {
            if iterations >= self.max_iterations {
                break;
            }
            iterations += 1;
            let mut derived: Vec<IdTriple> = Vec::new();
            for rule in &self.rules {
                evaluate_rule(rule, &mut index, &mut derived);
            }
            derived_raw += derived.len();

            let mut added_any = false;
            for triple in derived {
                if index.insert(triple) {
                    added_any = true;
                } else {
                    duplicates_removed += 1;
                }
            }
            if !added_any {
                break;
            }
        }

        let profile = index.profile;
        let output: Vec<IdTriple> = index.into_sorted_triples();
        let output_triples = output.len();
        store.clear();
        for triple in &output {
            store.add_triple(*triple);
        }
        store.finalize();

        InferenceStats {
            input_triples,
            output_triples,
            iterations,
            derived_raw,
            duplicates_removed,
            duration: start.elapsed(),
            profile,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash_join::HashJoinReasoner;
    use inferray_dictionary::wellknown as wk;

    fn store(triples: &[(u64, u64, u64)]) -> TripleStore {
        TripleStore::from_triples(triples.iter().map(|&(s, p, o)| IdTriple::new(s, p, o)))
    }

    const HUMAN: u64 = 13_000_000;
    const MAMMAL: u64 = 13_000_001;
    const ANIMAL: u64 = 13_000_002;
    const BART: u64 = 13_000_003;

    fn family() -> TripleStore {
        store(&[
            (HUMAN, wk::RDFS_SUB_CLASS_OF, MAMMAL),
            (MAMMAL, wk::RDFS_SUB_CLASS_OF, ANIMAL),
            (BART, wk::RDF_TYPE, HUMAN),
        ])
    }

    #[test]
    fn materializes_the_running_example() {
        let mut data = family();
        let stats = NaiveIterativeReasoner::new(Fragment::RdfsDefault).materialize(&mut data);
        assert_eq!(stats.inferred_triples(), 3);
        assert!(data.contains(&IdTriple::new(BART, wk::RDF_TYPE, ANIMAL)));
    }

    #[test]
    fn naive_and_hash_join_agree() {
        let mut a = family();
        let mut b = family();
        NaiveIterativeReasoner::new(Fragment::RdfsDefault).materialize(&mut a);
        HashJoinReasoner::new(Fragment::RdfsDefault).materialize(&mut b);
        let ta: Vec<_> = a.iter_triples().collect();
        let tb: Vec<_> = b.iter_triples().collect();
        assert_eq!(ta, tb);
    }

    #[test]
    fn naive_generates_many_more_duplicates_than_semi_naive() {
        let chain: Vec<(u64, u64, u64)> = (0..25u64)
            .map(|i| (14_000_000 + i, wk::RDFS_SUB_CLASS_OF, 14_000_001 + i))
            .collect();
        let mut naive_store = store(&chain);
        let mut hash_store = store(&chain);
        let naive_stats =
            NaiveIterativeReasoner::new(Fragment::RhoDf).materialize(&mut naive_store);
        let hash_stats = HashJoinReasoner::new(Fragment::RhoDf).materialize(&mut hash_store);
        assert_eq!(naive_stats.output_triples, hash_stats.output_triples);
        assert!(
            naive_stats.duplicates_removed > hash_stats.duplicates_removed,
            "naive {} vs semi-naive {}",
            naive_stats.duplicates_removed,
            hash_stats.duplicates_removed
        );
    }

    #[test]
    fn empty_store_terminates_immediately() {
        let mut data = TripleStore::new();
        let stats = NaiveIterativeReasoner::new(Fragment::RdfsPlus).materialize(&mut data);
        assert_eq!(stats.output_triples, 0);
        assert_eq!(stats.iterations, 1);
    }
}
