//! Rule executors, organized by the classes of §4.4.
//!
//! Every executor has the same shape: it reads the [`RuleContext`]
//! (immutable `main` / `new` stores) and appends raw `⟨s,o⟩` pairs to an
//! [`InferredBuffer`]. Duplicate elimination is *not* their job — that
//! happens in the Figure 5 merge step — but executors do apply the cheap
//! skips the paper mentions (e.g. not copying a table onto itself for a
//! reflexive `subPropertyOf` pair).
//!
//! [`apply_rule`] dispatches a [`RuleId`] to its executor; the θ rules are
//! also dispatched here (they recompute the closure of the affected table
//! when the previous iteration added pairs to it), so a caller that simply
//! applies every rule of a ruleset to a fixed-point obtains a complete
//! materialization even without the dedicated up-front closure stage.

pub mod alpha;
pub mod beta;
pub mod functional;
pub mod gamma;
pub mod join;
pub mod same_as;
pub mod theta;
pub mod trivial;

use crate::catalog::RuleId;
use crate::context::RuleContext;
use inferray_store::InferredBuffer;

/// Applies one rule to the context, appending derivations to `out`.
pub fn apply_rule(rule: RuleId, ctx: &RuleContext<'_>, out: &mut InferredBuffer) {
    match rule {
        // α — two-table sort-merge joins.
        RuleId::CaxEqc1 => alpha::cax_eqc1(ctx, out),
        RuleId::CaxEqc2 => alpha::cax_eqc2(ctx, out),
        RuleId::CaxSco => alpha::cax_sco(ctx, out),
        RuleId::ScmDom1 => alpha::scm_dom1(ctx, out),
        RuleId::ScmDom2 => alpha::scm_dom2(ctx, out),
        RuleId::ScmRng1 => alpha::scm_rng1(ctx, out),
        RuleId::ScmRng2 => alpha::scm_rng2(ctx, out),
        // β — self-joins.
        RuleId::ScmEqc2 => beta::scm_eqc2(ctx, out),
        RuleId::ScmEqp2 => beta::scm_eqp2(ctx, out),
        // γ / δ — property-variable rules.
        RuleId::PrpDom => gamma::prp_dom(ctx, out),
        RuleId::PrpRng => gamma::prp_rng(ctx, out),
        RuleId::PrpSpo1 => gamma::prp_spo1(ctx, out),
        RuleId::PrpSymp => gamma::prp_symp(ctx, out),
        RuleId::PrpEqp1 => gamma::prp_eqp1(ctx, out),
        RuleId::PrpEqp2 => gamma::prp_eqp2(ctx, out),
        RuleId::PrpInv1 => gamma::prp_inv1(ctx, out),
        RuleId::PrpInv2 => gamma::prp_inv2(ctx, out),
        // same-as.
        RuleId::EqRepS => same_as::eq_rep_s(ctx, out),
        RuleId::EqRepP => same_as::eq_rep_p(ctx, out),
        RuleId::EqRepO => same_as::eq_rep_o(ctx, out),
        // functional properties (three-antecedent rules).
        RuleId::PrpFp => functional::prp_fp(ctx, out),
        RuleId::PrpIfp => functional::prp_ifp(ctx, out),
        // θ — transitivity, recomputed incrementally inside the loop.
        RuleId::ScmSco => theta::scm_sco(ctx, out),
        RuleId::ScmSpo => theta::scm_spo(ctx, out),
        RuleId::EqTrans => theta::eq_trans(ctx, out),
        RuleId::PrpTrp => theta::prp_trp(ctx, out),
        // trivial single-antecedent rules.
        RuleId::EqSym => trivial::eq_sym(ctx, out),
        RuleId::ScmEqc1 => trivial::scm_eqc1(ctx, out),
        RuleId::ScmEqp1 => trivial::scm_eqp1(ctx, out),
        RuleId::ScmCls => trivial::scm_cls(ctx, out),
        RuleId::ScmDp => trivial::scm_dp(ctx, out),
        RuleId::ScmOp => trivial::scm_op(ctx, out),
        RuleId::Rdfs4 => trivial::rdfs4(ctx, out),
        RuleId::Rdfs6 => trivial::rdfs6(ctx, out),
        RuleId::Rdfs8 => trivial::rdfs8(ctx, out),
        RuleId::Rdfs10 => trivial::rdfs10(ctx, out),
        RuleId::Rdfs12 => trivial::rdfs12(ctx, out),
        RuleId::Rdfs13 => trivial::rdfs13(ctx, out),
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Helpers shared by the executor unit tests.

    use crate::context::RuleContext;
    use inferray_model::IdTriple;
    use inferray_store::{InferredBuffer, TripleStore};
    use std::collections::BTreeSet;

    /// Builds a finalized store from `(s, p, o)` tuples.
    pub fn store(triples: &[(u64, u64, u64)]) -> TripleStore {
        TripleStore::from_triples(triples.iter().map(|&(s, p, o)| IdTriple::new(s, p, o)))
    }

    /// Applies `f` with `new == main` (the first-iteration situation) and
    /// returns the derived triples as a set.
    pub fn derive(
        main: &TripleStore,
        f: impl Fn(&RuleContext<'_>, &mut InferredBuffer),
    ) -> BTreeSet<(u64, u64, u64)> {
        let ctx = RuleContext::new(main, main);
        let mut out = InferredBuffer::new();
        f(&ctx, &mut out);
        buffer_to_set(&out)
    }

    /// Flattens an [`InferredBuffer`] into `(s, p, o)` tuples.
    pub fn buffer_to_set(buffer: &InferredBuffer) -> BTreeSet<(u64, u64, u64)> {
        let mut set = BTreeSet::new();
        for (p, pairs) in buffer.iter() {
            for pair in pairs.chunks_exact(2) {
                set.insert((pair[0], p, pair[1]));
            }
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::{buffer_to_set, store};
    use super::*;
    use crate::catalog::CATALOG;
    use inferray_dictionary::wellknown as wk;
    use inferray_model::ids::nth_property_id;

    /// Over the whole store an executor runs one semi-naive pass; over a
    /// *copy* of it (same triples, another store) it runs both. Every rule
    /// must derive the same set either way, and never more raw pairs in one
    /// pass than in two.
    #[test]
    fn one_pass_over_the_whole_store_derives_what_two_passes_over_a_copy_do() {
        let p = |n: usize| nth_property_id(600 + n);
        let (knows, kned_by, part_of, has_id, owns, married) = (p(0), p(1), p(2), p(3), p(4), p(5));
        let e = 9_500_000u64;
        let main = store(&[
            (e, wk::RDFS_SUB_CLASS_OF, e + 1),
            (e + 1, wk::RDFS_SUB_CLASS_OF, e + 2),
            (e + 2, wk::RDFS_SUB_CLASS_OF, e + 1),
            (e + 2, wk::OWL_EQUIVALENT_CLASS, e + 3),
            (e + 10, wk::RDF_TYPE, e),
            (e + 11, wk::RDF_TYPE, e + 1),
            (e + 11, wk::RDF_TYPE, e + 3),
            (knows, wk::RDFS_SUB_PROPERTY_OF, owns),
            (owns, wk::RDFS_SUB_PROPERTY_OF, knows),
            (owns, wk::OWL_EQUIVALENT_PROPERTY, kned_by),
            (owns, wk::RDFS_DOMAIN, e),
            (owns, wk::RDFS_RANGE, e + 1),
            (knows, wk::OWL_INVERSE_OF, kned_by),
            (married, wk::RDF_TYPE, wk::OWL_SYMMETRIC_PROPERTY),
            (part_of, wk::RDF_TYPE, wk::OWL_TRANSITIVE_PROPERTY),
            (has_id, wk::RDF_TYPE, wk::OWL_INVERSE_FUNCTIONAL_PROPERTY),
            (owns, wk::RDF_TYPE, wk::OWL_FUNCTIONAL_PROPERTY),
            (e + 10, knows, e + 11),
            (e + 10, married, e + 12),
            (e + 12, part_of, e + 13),
            (e + 13, part_of, e + 14),
            (e + 10, has_id, e + 20),
            (e + 15, has_id, e + 20),
            (e + 16, owns, e + 17),
            (e + 16, owns, e + 18),
            (e + 10, wk::OWL_SAME_AS, e + 30),
            (e + 30, wk::OWL_SAME_AS, e + 31),
            (knows, wk::OWL_SAME_AS, married),
        ]);
        let copy = main.clone();
        let mut fewer_in_one_pass = 0usize;
        for info in &CATALOG {
            let mut whole = InferredBuffer::new();
            apply_rule(info.id, &RuleContext::new(&main, &main), &mut whole);
            let mut two_pass = InferredBuffer::new();
            apply_rule(info.id, &RuleContext::new(&main, &copy), &mut two_pass);
            assert_eq!(
                buffer_to_set(&whole),
                buffer_to_set(&two_pass),
                "{}: the passes disagree",
                info.name
            );
            assert!(whole.len() <= two_pass.len(), "{}", info.name);
            fewer_in_one_pass += usize::from(whole.len() < two_pass.len());
        }
        assert!(
            fewer_in_one_pass >= 15,
            "the dataset must reach the two-pass executors ({fewer_in_one_pass} rules saved work)"
        );
    }
}
