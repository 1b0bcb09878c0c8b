//! The kernels a rule's shape picks ([`crate::analysis::lowering()`]), one
//! module per kernel: the merge join of [`join`] (α), the table scan of
//! [`gamma`] (γ/δ, EQ-REP-P), the transitive closure of [`theta`] (θ), the
//! substitution of [`substitution`] (EQ-REP-S/O) and the self join of
//! [`self_join`] (PRP-FP/IFP); every other shape runs the nested-loop join
//! of `analysis/exec.rs`. Every rule, built-in or custom, fires through
//! [`crate::analysis::apply_compiled`].
//!
//! Every kernel has the same shape: it reads the [`crate::RuleContext`]
//! (immutable `main` / `new` stores) and appends raw `⟨s,o⟩` pairs to an
//! [`inferray_store::InferredBuffer`]. Duplicate elimination is *not* their
//! job — that happens in the Figure 5 merge step — but kernels do apply the
//! cheap skips the paper mentions (e.g. not copying a table onto itself for
//! a reflexive `subPropertyOf` pair). The closure kernel recomputes the
//! closure of a table when the previous iteration added pairs to it, so a
//! caller that simply applies every rule of a ruleset to a fixed-point
//! obtains a complete materialization even without the dedicated up-front
//! closure stage.

pub mod gamma;
pub mod join;
pub mod self_join;
pub mod substitution;
pub mod theta;

#[cfg(test)]
pub(crate) mod test_support {
    //! Helpers shared by the kernel unit tests.

    use crate::analysis::{apply_compiled, compiled_builtin};
    use crate::catalog::RuleId;
    use crate::context::RuleContext;
    use inferray_model::IdTriple;
    use inferray_store::{as_pairs, InferredBuffer, TripleStore};
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

    /// Fires built-in `rule` through its catalog text.
    pub fn apply(rule: RuleId, ctx: &RuleContext<'_>, out: &mut InferredBuffer) {
        apply_compiled(compiled_builtin(rule), ctx, out);
    }

    /// What built-in `rule` derives with `new == main`.
    pub fn fire(rule: RuleId, main: &TripleStore) -> BTreeSet<(u64, u64, u64)> {
        derive(main, |ctx, out| apply(rule, ctx, out))
    }

    /// Flattens an [`InferredBuffer`] into `(s, p, o)` tuples.
    pub fn buffer_to_set(buffer: &InferredBuffer) -> BTreeSet<(u64, u64, u64)> {
        let mut set = BTreeSet::new();
        for (p, pairs) in buffer.iter() {
            for &[s, o] in as_pairs(pairs) {
                set.insert((s, p, o));
            }
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::{apply, buffer_to_set, fire, store};
    use crate::catalog::{RuleId, CATALOG};
    use crate::context::RuleContext;
    use inferray_dictionary::wellknown as wk;
    use inferray_model::ids::nth_property_id;
    use inferray_store::InferredBuffer;
    use std::collections::BTreeSet;

    const A: u64 = 5_000_000;
    const B: u64 = 5_000_001;
    const C: u64 = 5_000_002;

    #[test]
    fn eq_sym_mirrors_every_pair() {
        // The reflexive pair mirrors onto itself; the merge drops it.
        let main = store(&[(A, wk::OWL_SAME_AS, B), (B, wk::OWL_SAME_AS, B)]);
        assert_eq!(
            fire(RuleId::EqSym, &main),
            BTreeSet::from([(B, wk::OWL_SAME_AS, A), (B, wk::OWL_SAME_AS, B)])
        );
    }

    #[test]
    fn scm_eqc1_and_eqp1_expand_equivalences() {
        let p = nth_property_id(300);
        let q = nth_property_id(301);
        let main = store(&[
            (A, wk::OWL_EQUIVALENT_CLASS, B),
            (p, wk::OWL_EQUIVALENT_PROPERTY, q),
        ]);
        assert_eq!(
            fire(RuleId::ScmEqc1, &main),
            BTreeSet::from([(A, wk::RDFS_SUB_CLASS_OF, B), (B, wk::RDFS_SUB_CLASS_OF, A)])
        );
        assert_eq!(
            fire(RuleId::ScmEqp1, &main),
            BTreeSet::from([
                (p, wk::RDFS_SUB_PROPERTY_OF, q),
                (q, wk::RDFS_SUB_PROPERTY_OF, p)
            ])
        );
    }

    #[test]
    fn scm_cls_produces_the_four_axioms() {
        let main = store(&[(A, wk::RDF_TYPE, wk::OWL_CLASS)]);
        assert_eq!(
            fire(RuleId::ScmCls, &main),
            BTreeSet::from([
                (A, wk::RDFS_SUB_CLASS_OF, A),
                (A, wk::OWL_EQUIVALENT_CLASS, A),
                (A, wk::RDFS_SUB_CLASS_OF, wk::OWL_THING),
                (wk::OWL_NOTHING, wk::RDFS_SUB_CLASS_OF, A),
            ])
        );
    }

    #[test]
    fn scm_dp_and_op_make_properties_self_related() {
        let p = nth_property_id(302);
        let q = nth_property_id(303);
        let main = store(&[
            (p, wk::RDF_TYPE, wk::OWL_DATATYPE_PROPERTY),
            (q, wk::RDF_TYPE, wk::OWL_OBJECT_PROPERTY),
        ]);
        assert_eq!(
            fire(RuleId::ScmDp, &main),
            BTreeSet::from([
                (p, wk::RDFS_SUB_PROPERTY_OF, p),
                (p, wk::OWL_EQUIVALENT_PROPERTY, p)
            ])
        );
        assert_eq!(
            fire(RuleId::ScmOp, &main),
            BTreeSet::from([
                (q, wk::RDFS_SUB_PROPERTY_OF, q),
                (q, wk::OWL_EQUIVALENT_PROPERTY, q)
            ])
        );
    }

    #[test]
    fn rdfs4_types_every_node_as_resource() {
        let p = nth_property_id(304);
        let main = store(&[(A, p, B)]);
        assert_eq!(
            fire(RuleId::Rdfs4, &main),
            BTreeSet::from([
                (A, wk::RDF_TYPE, wk::RDFS_RESOURCE),
                (B, wk::RDF_TYPE, wk::RDFS_RESOURCE)
            ])
        );
    }

    #[test]
    fn rdfs_axiomatic_class_and_property_rules() {
        let main = store(&[
            (A, wk::RDF_TYPE, wk::RDFS_CLASS),
            (B, wk::RDF_TYPE, wk::RDF_PROPERTY),
            (C, wk::RDF_TYPE, wk::RDFS_CONTAINER_MEMBERSHIP_PROPERTY),
            (C + 1, wk::RDF_TYPE, wk::RDFS_DATATYPE),
        ]);
        for (rule, derived) in [
            (RuleId::Rdfs8, (A, wk::RDFS_SUB_CLASS_OF, wk::RDFS_RESOURCE)),
            (RuleId::Rdfs10, (A, wk::RDFS_SUB_CLASS_OF, A)),
            (RuleId::Rdfs6, (B, wk::RDFS_SUB_PROPERTY_OF, B)),
            (
                RuleId::Rdfs12,
                (C, wk::RDFS_SUB_PROPERTY_OF, wk::RDFS_MEMBER),
            ),
            (
                RuleId::Rdfs13,
                (C + 1, wk::RDFS_SUB_CLASS_OF, wk::RDFS_LITERAL),
            ),
        ] {
            assert_eq!(fire(rule, &main), BTreeSet::from([derived]), "{rule}");
        }
    }

    #[test]
    fn single_antecedent_rules_only_look_at_new_triples() {
        let main = store(&[(A, wk::OWL_SAME_AS, B), (A, wk::RDF_TYPE, wk::OWL_CLASS)]);
        let empty_new = store(&[]);
        let ctx = RuleContext::new(&main, &empty_new);
        let mut out = InferredBuffer::new();
        for rule in [RuleId::EqSym, RuleId::ScmCls, RuleId::Rdfs4] {
            apply(rule, &ctx, &mut out);
        }
        assert!(out.is_empty(), "single-antecedent rules are driven by new");
    }

    #[test]
    fn mutual_subclasses_and_subproperties_become_equivalent() {
        let (p, q) = (nth_property_id(305), nth_property_id(306));
        let main = store(&[
            (A, wk::RDFS_SUB_CLASS_OF, B),
            (B, wk::RDFS_SUB_CLASS_OF, A),
            (A, wk::RDFS_SUB_CLASS_OF, C), // one-directional: no equivalence
            (C, wk::RDFS_SUB_CLASS_OF, C), // reflexive: reflexive equivalence
            (p, wk::RDFS_SUB_PROPERTY_OF, q),
            (q, wk::RDFS_SUB_PROPERTY_OF, p),
        ]);
        assert_eq!(
            fire(RuleId::ScmEqc2, &main),
            BTreeSet::from([
                (A, wk::OWL_EQUIVALENT_CLASS, B),
                (B, wk::OWL_EQUIVALENT_CLASS, A),
                (C, wk::OWL_EQUIVALENT_CLASS, C),
            ])
        );
        assert_eq!(
            fire(RuleId::ScmEqp2, &main),
            BTreeSet::from([
                (p, wk::OWL_EQUIVALENT_PROPERTY, q),
                (q, wk::OWL_EQUIVALENT_PROPERTY, p)
            ])
        );
        let untyped = store(&[(A, wk::RDF_TYPE, B)]);
        assert!(fire(RuleId::ScmEqc2, &untyped).is_empty());
        assert!(fire(RuleId::ScmEqp2, &untyped).is_empty());
    }

    #[test]
    fn semi_naive_detects_the_cycle_closed_by_a_new_pair() {
        // (A ⊑ B) is old; (B ⊑ A) arrives in `new`. The rule must emit
        // *both* orientations of the equivalence: (A ⊑ B) will never be in
        // `new` again, so this is the only chance to derive (A ≡ B).
        let main = store(&[(A, wk::RDFS_SUB_CLASS_OF, B), (B, wk::RDFS_SUB_CLASS_OF, A)]);
        let new = store(&[(B, wk::RDFS_SUB_CLASS_OF, A)]);
        let mut out = InferredBuffer::new();
        apply(RuleId::ScmEqc2, &RuleContext::new(&main, &new), &mut out);
        assert_eq!(
            buffer_to_set(&out),
            BTreeSet::from([
                (A, wk::OWL_EQUIVALENT_CLASS, B),
                (B, wk::OWL_EQUIVALENT_CLASS, A)
            ])
        );
    }

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
            apply(info.id, &RuleContext::new(&main, &main), &mut whole);
            let mut two_pass = InferredBuffer::new();
            apply(info.id, &RuleContext::new(&main, &copy), &mut two_pass);
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
