//! The dedicated transitive-closure stage (paper §4.1).
//!
//! Before the fixed-point loop starts, the tables of the transitive
//! properties are closed with Nuutila's algorithm and replaced by their
//! closure. "This allows us to handle transitivity closure before processing
//! the fixed-point rule-based inference" — the iterative loop then never has
//! to pay the quadratic duplicate-generation cost that Table 4 measures for
//! the baseline systems.
//!
//! Which tables are closed follows the closures among the ruleset's members
//! ([`inferray_rules::Ruleset::closures`]), built-in or custom: each closes the tables its
//! text names ([`inferray_rules::analysis::Lowering::Closure`]) —
//! SCM-SCO `rdfs:subClassOf` and SCM-SPO `rdfs:subPropertyOf` in every
//! fragment, EQ-TRANS `owl:sameAs` after symmetrizing it and PRP-TRP every
//! property declared `owl:TransitiveProperty` in RDFS-Plus, and a rule file's
//! transitivity rules whatever their atom order.

use inferray_rules::analysis::Closure;
use inferray_rules::executors::theta::closed_pairs;
use inferray_rules::{RuleRef, Survivors};
use inferray_store::{as_pairs, AccessProfile, TripleStore};

/// Statistics of the closure stage, and of the schema stratum's pass that
/// follows it before the fixed-point loop (their times are the reasoner's
/// [`Stages`](crate::Stages)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClosureStageStats {
    /// Number of property tables that were closed.
    pub tables_closed: usize,
    /// Pairs added by the closure across all tables.
    pub pairs_added: usize,
    /// Iterations the schema stratum took to reach its own fixed point
    /// (`0` when it did not run).
    pub stratum_iterations: usize,
    /// Pairs the schema stratum's pass added.
    pub stratum_pairs_added: usize,
}

/// Replaces in place every non-empty table of `store` one of `closures` (a
/// ruleset's [`inferray_rules::Ruleset::closures`]) closes by its closure,
/// and reports how much was added. The closure arrives ⟨s,o⟩-sorted and
/// becomes the table as it is.
pub fn run_closure_stage(
    store: &mut TripleStore,
    closures: &[(RuleRef, Closure)],
    profile: &mut AccessProfile,
) -> ClosureStageStats {
    let mut stats = ClosureStageStats::default();
    for (_, closure) in closures {
        for p in closure.tables(Survivors::all(store)) {
            let Some(table) = store.table(p).filter(|table| !table.is_empty()) else {
                continue;
            };
            let before = table.len();
            profile.sequential(table.pairs().len() as u64);
            let closed = closed_pairs(table, closure.symmetric());
            profile.sequential(closed.len() as u64);
            profile.allocate(closed.len() as u64);
            stats.tables_closed += 1;
            stats.pairs_added += as_pairs(&closed).len() - before;
            store.replace_table_sorted(p, closed);
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use inferray_dictionary::wellknown as wk;
    use inferray_model::ids::nth_property_id;
    use inferray_model::IdTriple;
    use inferray_rules::{Fragment, RuleId, Ruleset};

    /// The closures among the members of `fragment`.
    fn members(fragment: Fragment) -> Vec<(RuleRef, Closure)> {
        Ruleset::for_fragment(fragment).closures().to_vec()
    }

    fn store(triples: &[(u64, u64, u64)]) -> TripleStore {
        TripleStore::from_triples(triples.iter().map(|&(s, p, o)| IdTriple::new(s, p, o)))
    }

    const A: u64 = 8_000_000;
    const B: u64 = 8_000_001;
    const C: u64 = 8_000_002;
    const D: u64 = 8_000_003;

    #[test]
    fn closes_subclass_chains_for_every_fragment() {
        for fragment in [Fragment::RhoDf, Fragment::RdfsDefault, Fragment::RdfsPlus] {
            let mut s = store(&[
                (A, wk::RDFS_SUB_CLASS_OF, B),
                (B, wk::RDFS_SUB_CLASS_OF, C),
                (C, wk::RDFS_SUB_CLASS_OF, D),
            ]);
            let mut profile = AccessProfile::default();
            let stats = run_closure_stage(&mut s, &members(fragment), &mut profile);
            assert_eq!(stats.pairs_added, 3, "fragment {fragment}");
            assert!(s.contains(&IdTriple::new(A, wk::RDFS_SUB_CLASS_OF, D)));
            assert!(profile.sequential_words > 0);
        }
    }

    #[test]
    fn same_as_is_closed_symmetrically_only_for_rdfs_plus() {
        let triples = [(A, wk::OWL_SAME_AS, B), (B, wk::OWL_SAME_AS, C)];
        let mut rdfs = store(&triples);
        let mut profile = AccessProfile::default();
        run_closure_stage(&mut rdfs, &members(Fragment::RdfsDefault), &mut profile);
        assert!(!rdfs.contains(&IdTriple::new(C, wk::OWL_SAME_AS, A)));

        let mut plus = store(&triples);
        run_closure_stage(&mut plus, &members(Fragment::RdfsPlus), &mut profile);
        assert!(plus.contains(&IdTriple::new(C, wk::OWL_SAME_AS, A)));
        assert!(plus.contains(&IdTriple::new(A, wk::OWL_SAME_AS, C)));
        assert!(plus.contains(&IdTriple::new(B, wk::OWL_SAME_AS, A)));
        // Original pairs are preserved.
        assert!(plus.contains(&IdTriple::new(A, wk::OWL_SAME_AS, B)));
    }

    #[test]
    fn declared_transitive_properties_are_closed_in_rdfs_plus() {
        let ancestor = nth_property_id(600);
        let triples = [
            (ancestor, wk::RDF_TYPE, wk::OWL_TRANSITIVE_PROPERTY),
            (A, ancestor, B),
            (B, ancestor, C),
        ];
        let mut rdfs = store(&triples);
        let mut profile = AccessProfile::default();
        run_closure_stage(&mut rdfs, &members(Fragment::RdfsFull), &mut profile);
        assert!(
            !rdfs.contains(&IdTriple::new(A, ancestor, C)),
            "RDFS ignores owl:TransitiveProperty"
        );

        let mut plus = store(&triples);
        let stats = run_closure_stage(&mut plus, &members(Fragment::RdfsPlus), &mut profile);
        assert!(plus.contains(&IdTriple::new(A, ancestor, C)));
        assert_eq!(stats.pairs_added, 1);
    }

    #[test]
    fn empty_and_missing_tables_are_no_ops() {
        let mut s = store(&[(A, wk::RDF_TYPE, B)]);
        let mut profile = AccessProfile::default();
        let stats = run_closure_stage(&mut s, &members(Fragment::RdfsPlus), &mut profile);
        assert_eq!(stats.tables_closed, 0);
        assert_eq!(stats.pairs_added, 0);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn only_the_member_closures_close_their_tables() {
        let ancestor = nth_property_id(601);
        let triples = [
            (A, wk::RDFS_SUB_CLASS_OF, B),
            (B, wk::RDFS_SUB_CLASS_OF, C),
            (A, wk::OWL_SAME_AS, B),
            (ancestor, wk::RDF_TYPE, wk::OWL_TRANSITIVE_PROPERTY),
            (A, ancestor, B),
            (B, ancestor, C),
        ];
        let mut profile = AccessProfile::default();
        let mut s = store(&triples);
        let prp_trp: Vec<_> = members(Fragment::RdfsPlus)
            .into_iter()
            .filter(|&(rule, _)| rule == RuleRef::Builtin(RuleId::PrpTrp))
            .collect();
        let stats = run_closure_stage(&mut s, &prp_trp, &mut profile);
        assert_eq!(stats.tables_closed, 1, "no SCM-SCO, no EQ-TRANS");
        assert!(s.contains(&IdTriple::new(A, ancestor, C)));
        assert!(!s.contains(&IdTriple::new(A, wk::RDFS_SUB_CLASS_OF, C)));
        assert!(!s.contains(&IdTriple::new(B, wk::OWL_SAME_AS, A)));
        let mut s = store(&triples);
        assert_eq!(
            run_closure_stage(&mut s, &[], &mut profile),
            ClosureStageStats::default()
        );
        assert_eq!(s.len(), triples.len());
    }

    #[test]
    fn closure_is_idempotent() {
        let mut s = store(&[(A, wk::RDFS_SUB_CLASS_OF, B), (B, wk::RDFS_SUB_CLASS_OF, C)]);
        let mut profile = AccessProfile::default();
        let first = run_closure_stage(&mut s, &members(Fragment::RdfsDefault), &mut profile);
        let len_after_first = s.len();
        let second = run_closure_stage(&mut s, &members(Fragment::RdfsDefault), &mut profile);
        assert_eq!(first.pairs_added, 1);
        assert_eq!(second.pairs_added, 0);
        assert_eq!(s.len(), len_after_first);
    }
}
