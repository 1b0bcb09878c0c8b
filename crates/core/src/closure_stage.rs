//! The dedicated transitive-closure stage (paper §4.1).
//!
//! Before the fixed-point loop starts, the tables of the transitive
//! properties are closed with Nuutila's algorithm and replaced by their
//! closure. "This allows us to handle transitivity closure before processing
//! the fixed-point rule-based inference" — the iterative loop then never has
//! to pay the quadratic duplicate-generation cost that Table 4 measures for
//! the baseline systems.
//!
//! Which tables are closed follows the θ built-ins among the ruleset's
//! members, each closing the table its hand-written executor maintains:
//!
//! * SCM-SCO closes `rdfs:subClassOf`, SCM-SPO `rdfs:subPropertyOf` — every
//!   fragment has both;
//! * EQ-TRANS closes `owl:sameAs` after symmetrizing it, and PRP-TRP every
//!   property declared `owl:TransitiveProperty` — RDFS-Plus has both.

use inferray_closure::transitive_closure;
use inferray_dictionary::wellknown;
use inferray_model::ids::is_property_id;
use inferray_rules::{RuleContext, RuleId};
use inferray_store::{AccessProfile, TripleStore};

/// Statistics of the closure stage, and of the schema stratum's pass that
/// follows it before the fixed-point loop.
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

/// Closes in place the tables of `store` the θ rules among `rules` (a
/// ruleset's built-in members) maintain, and reports how much was added.
pub fn run_closure_stage(
    store: &mut TripleStore,
    rules: &[RuleId],
    profile: &mut AccessProfile,
) -> ClosureStageStats {
    let mut stats = ClosureStageStats::default();
    let member = |rule| rules.contains(&rule);

    // The RDFS schema hierarchies.
    for (rule, prop) in [
        (RuleId::ScmSco, wellknown::RDFS_SUB_CLASS_OF),
        (RuleId::ScmSpo, wellknown::RDFS_SUB_PROPERTY_OF),
    ] {
        if member(rule) {
            close_property(store, prop, false, &mut stats, profile);
        }
    }
    if member(RuleId::EqTrans) {
        // owl:sameAs — symmetric, so symmetrize before closing (§4.1).
        close_property(store, wellknown::OWL_SAME_AS, true, &mut stats, profile);
    }
    if member(RuleId::PrpTrp) {
        // Every property declared transitive.
        let transitive = RuleContext::subjects_with_object(
            store,
            wellknown::RDF_TYPE,
            wellknown::OWL_TRANSITIVE_PROPERTY,
        );
        for p in transitive {
            if is_property_id(p) {
                close_property(store, p, false, &mut stats, profile);
            }
        }
    }
    stats
}

/// Replaces the table of `prop` with its transitive closure (symmetrized
/// first when `symmetric` is set). No-op when the table is absent or empty.
fn close_property(
    store: &mut TripleStore,
    prop: u64,
    symmetric: bool,
    stats: &mut ClosureStageStats,
    profile: &mut AccessProfile,
) {
    let Some(table) = store.table(prop) else {
        return;
    };
    if table.is_empty() {
        return;
    }
    let before = table.len();
    let mut edges = table.to_tuple_pairs();
    profile.sequential(2 * before as u64);
    if symmetric {
        let swapped: Vec<(u64, u64)> = edges.iter().map(|&(a, b)| (b, a)).collect();
        edges.extend(swapped);
    }
    let closed = transitive_closure(&edges);
    profile.sequential(2 * closed.len() as u64);
    profile.allocate(2 * closed.len() as u64);

    // The closure contains the original edges; keep them plus the new pairs.
    let mut flat: Vec<u64> = Vec::with_capacity(closed.len() * 2 + before * 2);
    for (a, b) in &closed {
        flat.push(*a);
        flat.push(*b);
    }
    // When symmetrizing, the original asserted pairs may not all be in the
    // closure output ordering; merge them in and re-sort to be safe.
    if symmetric {
        flat.extend(table.pairs());
    }
    inferray_sort::sort_pairs_auto_dedup(&mut flat);
    let after = flat.len() / 2;
    stats.tables_closed += 1;
    stats.pairs_added += after.saturating_sub(before);
    store.replace_table_sorted(prop, flat);
}

#[cfg(test)]
mod tests {
    use super::*;
    use inferray_dictionary::wellknown as wk;
    use inferray_model::ids::nth_property_id;
    use inferray_model::IdTriple;
    use inferray_rules::{Fragment, Ruleset};

    /// The built-in members of `fragment`.
    fn members(fragment: Fragment) -> Vec<RuleId> {
        Ruleset::for_fragment(fragment).rules().to_vec()
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
    fn only_the_member_theta_rules_close_their_tables() {
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
        let stats = run_closure_stage(&mut s, &[RuleId::CaxSco, RuleId::PrpTrp], &mut profile);
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
