//! θ: transitivity, the kernel of every rule of the closure shape
//! ([`crate::analysis::Lowering::Closure`]).
//!
//! Inferray closes the tables of the closure rules — `rdfs:subClassOf`,
//! `rdfs:subPropertyOf`, `owl:sameAs`, every declared
//! `owl:TransitiveProperty`, and any custom rule of the same shape —
//! **before** the fixed-point loop (§4.1), through [`closed_pairs`]. The
//! kernel here covers the complementary case: when an iteration of the loop
//! *adds* pairs to a closed table (e.g. `SCM-EQC1` deriving new
//! `subClassOf` links from an equivalence), or a declaration names a table
//! anew, the closure of that table is recomputed with the same Nuutila
//! machinery and the missing pairs are emitted. When nothing new touched a
//! table the kernel leaves it alone, so the up-front closure is never
//! repeated.

use crate::analysis::Closure;
use crate::context::RuleContext;
use crate::support::Survivors;
use inferray_closure::transitive_closure_pairs;
use inferray_store::{as_pairs, InferredBuffer, PropertyTable};

/// The transitive closure of `table`'s pairs, symmetrized first when
/// `symmetric` is set, as a flat pair array: ⟨s,o⟩-sorted, duplicate-free,
/// every pair of the table included.
pub fn closed_pairs(table: &PropertyTable, symmetric: bool) -> Vec<u64> {
    transitive_closure_pairs(table.pairs(), symmetric)
}

/// Fires a closure plan: every closed table of `ctx.main` that `ctx.new`
/// touched — new pairs in the table, or a new declaration of it — is closed
/// again, and the closure pairs the table lacks are emitted: the sorted
/// difference of the closure and the table, in one merge walk.
pub(crate) fn apply_closure(plan: &Closure, ctx: &RuleContext<'_>, out: &mut InferredBuffer) {
    let declared_anew = plan.declared_in(Survivors::all(ctx.new));
    for p in plan.tables(Survivors::all(ctx.main)) {
        let touched = ctx.new.table(p).is_some_and(|t| !t.is_empty()) || declared_anew.contains(&p);
        let Some(table) = ctx.main.table(p).filter(|t| touched && !t.is_empty()) else {
            continue;
        };
        let closed = closed_pairs(table, plan.symmetric());
        let mut held = as_pairs(table.pairs()).iter().peekable();
        let emitted = out.table_mut(p);
        for pair in as_pairs(&closed) {
            // Both sides are sorted and the closure holds every pair of the
            // table: skip the table's pairs below this one, then compare.
            while held.next_if(|old| *old < pair).is_some() {}
            if held.next_if(|old| *old == pair).is_none() {
                emitted.extend_from_slice(pair);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::executors::test_support::{apply, buffer_to_set, fire, store};
    use crate::{RuleContext, RuleId};
    use inferray_dictionary::wellknown as wk;
    use inferray_model::ids::nth_property_id;
    use inferray_store::InferredBuffer;

    const A: u64 = 7_000_000;
    const B: u64 = 7_000_001;
    const C: u64 = 7_000_002;
    const D: u64 = 7_000_003;

    #[test]
    fn scm_sco_closes_a_chain() {
        let main = store(&[
            (A, wk::RDFS_SUB_CLASS_OF, B),
            (B, wk::RDFS_SUB_CLASS_OF, C),
            (C, wk::RDFS_SUB_CLASS_OF, D),
        ]);
        let derived = fire(RuleId::ScmSco, &main);
        assert_eq!(derived.len(), 3);
        assert!(derived.contains(&(A, wk::RDFS_SUB_CLASS_OF, C)));
        assert!(derived.contains(&(A, wk::RDFS_SUB_CLASS_OF, D)));
        assert!(derived.contains(&(B, wk::RDFS_SUB_CLASS_OF, D)));
    }

    #[test]
    fn scm_spo_closes_property_hierarchies() {
        let p = nth_property_id(500);
        let q = nth_property_id(501);
        let r = nth_property_id(502);
        let main = store(&[
            (p, wk::RDFS_SUB_PROPERTY_OF, q),
            (q, wk::RDFS_SUB_PROPERTY_OF, r),
        ]);
        let derived = fire(RuleId::ScmSpo, &main);
        assert_eq!(
            derived.into_iter().collect::<Vec<_>>(),
            vec![(p, wk::RDFS_SUB_PROPERTY_OF, r)]
        );
    }

    #[test]
    fn eq_trans_closes_same_as_symmetrically() {
        let main = store(&[(A, wk::OWL_SAME_AS, B), (B, wk::OWL_SAME_AS, C)]);
        let derived = fire(RuleId::EqTrans, &main);
        // The symmetric-then-transitive closure connects {A, B, C} fully,
        // including reflexive pairs; the two asserted pairs are not repeated.
        assert!(derived.contains(&(A, wk::OWL_SAME_AS, C)));
        assert!(derived.contains(&(C, wk::OWL_SAME_AS, A)));
        assert!(derived.contains(&(B, wk::OWL_SAME_AS, A)));
        assert!(derived.contains(&(A, wk::OWL_SAME_AS, A)));
        assert!(
            !derived.contains(&(A, wk::OWL_SAME_AS, B)),
            "already asserted"
        );
    }

    #[test]
    fn prp_trp_closes_declared_transitive_properties_only() {
        let ancestor = nth_property_id(503);
        let knows = nth_property_id(504);
        let main = store(&[
            (ancestor, wk::RDF_TYPE, wk::OWL_TRANSITIVE_PROPERTY),
            (A, ancestor, B),
            (B, ancestor, C),
            (A, knows, B),
            (B, knows, C),
        ]);
        let derived = fire(RuleId::PrpTrp, &main);
        assert!(derived.contains(&(A, ancestor, C)));
        assert!(!derived.iter().any(|&(_, p, _)| p == knows));
    }

    #[test]
    fn theta_rules_are_no_ops_when_nothing_new_touched_the_table() {
        let main = store(&[(A, wk::RDFS_SUB_CLASS_OF, B), (B, wk::RDFS_SUB_CLASS_OF, C)]);
        let empty_new = store(&[]);
        let ctx = RuleContext::new(&main, &empty_new);
        let mut out = InferredBuffer::new();
        apply(RuleId::ScmSco, &ctx, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn newly_declared_transitive_property_forces_a_closure() {
        let ancestor = nth_property_id(505);
        let main = store(&[
            (ancestor, wk::RDF_TYPE, wk::OWL_TRANSITIVE_PROPERTY),
            (A, ancestor, B),
            (B, ancestor, C),
        ]);
        // Only the declaration is new; the ancestor table itself is old.
        let new = store(&[(ancestor, wk::RDF_TYPE, wk::OWL_TRANSITIVE_PROPERTY)]);
        let ctx = RuleContext::new(&main, &new);
        let mut out = InferredBuffer::new();
        apply(RuleId::PrpTrp, &ctx, &mut out);
        assert!(buffer_to_set(&out).contains(&(A, ancestor, C)));
    }
}
