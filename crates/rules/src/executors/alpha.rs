//! α-rules: two-table sort-merge joins (Figure 4 of the paper).
//!
//! Each α-rule joins two *different* property tables, on the subject or the
//! object of each side, and emits one triple per match into a fixed head
//! property. The worked example of Figure 4 is `CAX-SCO`: joining the
//! `rdfs:subClassOf` table (on its subject) with the `rdf:type` table (on its
//! object) yields the instances of the subclass, each re-typed with the
//! superclass.
//!
//! Semi-naive evaluation runs the join twice per iteration: once with the
//! left antecedent restricted to the previous iteration's *new* triples, once
//! with the right antecedent restricted to them — and once only when the
//! frontier is the whole store, where the two passes are the same join.

use super::join::{merge_join_groups, JoinSide};
use crate::context::RuleContext;
use inferray_dictionary::wellknown;
use inferray_store::{InferredBuffer, TripleStore};

/// Declarative description of an α-rule.
#[derive(Debug, Clone, Copy)]
pub struct AlphaSpec {
    /// Property table of the first (left) antecedent.
    pub left_prop: u64,
    /// Component of the left table the join binds.
    pub left_side: JoinSide,
    /// Property table of the second (right) antecedent.
    pub right_prop: u64,
    /// Component of the right table the join binds.
    pub right_side: JoinSide,
    /// Property of the derived triple.
    pub out_prop: u64,
    /// When `false` the derived pair is `(left payload, right payload)`;
    /// when `true` it is `(right payload, left payload)`.
    pub swap_output: bool,
}

/// Runs an α-rule (both semi-naive passes).
pub fn apply_alpha(spec: &AlphaSpec, ctx: &RuleContext<'_>, out: &mut InferredBuffer) {
    // Pass 1: left from new, right from main.
    join_pass(spec, ctx.new, ctx.main, out);
    // Pass 2: left from main, right from new.
    if !ctx.is_whole() {
        join_pass(spec, ctx.main, ctx.new, out);
    }
}

fn join_pass(
    spec: &AlphaSpec,
    left_store: &TripleStore,
    right_store: &TripleStore,
    out: &mut InferredBuffer,
) {
    // Emptiness is read off the tables: asking for an object view builds
    // the ⟨o,s⟩ cache, which an empty other side would waste.
    let has_pairs = |store: &TripleStore, prop| store.table(prop).is_some_and(|t| !t.is_empty());
    if !has_pairs(left_store, spec.left_prop) || !has_pairs(right_store, spec.right_prop) {
        return;
    }
    let left = view(left_store, spec.left_prop, spec.left_side);
    let right = view(right_store, spec.right_prop, spec.right_side);
    let out = out.table_mut(spec.out_prop);
    merge_join_groups(left, right, |left_group, right_group| {
        // The group's cross product: its size is known before the first push.
        out.reserve(left_group.len() * right_group.len() / 2);
        for l in left_group.chunks_exact(2) {
            for r in right_group.chunks_exact(2) {
                let pair = if spec.swap_output {
                    [r[1], l[1]]
                } else {
                    [l[1], r[1]]
                };
                out.extend_from_slice(&pair);
            }
        }
    });
}

fn view(store: &TripleStore, prop: u64, side: JoinSide) -> &[u64] {
    match side {
        JoinSide::Subject => RuleContext::subject_view(store, prop),
        JoinSide::Object => RuleContext::object_view(store, prop),
    }
}

/// CAX-SCO: `c1 ⊑ c2, x a c1 ⇒ x a c2`.
pub fn cax_sco(ctx: &RuleContext<'_>, out: &mut InferredBuffer) {
    apply_alpha(
        &AlphaSpec {
            left_prop: wellknown::RDFS_SUB_CLASS_OF,
            left_side: JoinSide::Subject,
            right_prop: wellknown::RDF_TYPE,
            right_side: JoinSide::Object,
            out_prop: wellknown::RDF_TYPE,
            swap_output: true,
        },
        ctx,
        out,
    );
}

/// CAX-EQC1: `c1 ≡ c2, x a c1 ⇒ x a c2`.
pub fn cax_eqc1(ctx: &RuleContext<'_>, out: &mut InferredBuffer) {
    apply_alpha(
        &AlphaSpec {
            left_prop: wellknown::OWL_EQUIVALENT_CLASS,
            left_side: JoinSide::Subject,
            right_prop: wellknown::RDF_TYPE,
            right_side: JoinSide::Object,
            out_prop: wellknown::RDF_TYPE,
            swap_output: true,
        },
        ctx,
        out,
    );
}

/// CAX-EQC2: `c1 ≡ c2, x a c2 ⇒ x a c1`.
pub fn cax_eqc2(ctx: &RuleContext<'_>, out: &mut InferredBuffer) {
    apply_alpha(
        &AlphaSpec {
            left_prop: wellknown::OWL_EQUIVALENT_CLASS,
            left_side: JoinSide::Object,
            right_prop: wellknown::RDF_TYPE,
            right_side: JoinSide::Object,
            out_prop: wellknown::RDF_TYPE,
            swap_output: true,
        },
        ctx,
        out,
    );
}

/// SCM-DOM1: `p domain c1, c1 ⊑ c2 ⇒ p domain c2`.
pub fn scm_dom1(ctx: &RuleContext<'_>, out: &mut InferredBuffer) {
    apply_alpha(
        &AlphaSpec {
            left_prop: wellknown::RDFS_DOMAIN,
            left_side: JoinSide::Object,
            right_prop: wellknown::RDFS_SUB_CLASS_OF,
            right_side: JoinSide::Subject,
            out_prop: wellknown::RDFS_DOMAIN,
            swap_output: false,
        },
        ctx,
        out,
    );
}

/// SCM-RNG1: `p range c1, c1 ⊑ c2 ⇒ p range c2`.
pub fn scm_rng1(ctx: &RuleContext<'_>, out: &mut InferredBuffer) {
    apply_alpha(
        &AlphaSpec {
            left_prop: wellknown::RDFS_RANGE,
            left_side: JoinSide::Object,
            right_prop: wellknown::RDFS_SUB_CLASS_OF,
            right_side: JoinSide::Subject,
            out_prop: wellknown::RDFS_RANGE,
            swap_output: false,
        },
        ctx,
        out,
    );
}

/// SCM-DOM2: `p2 domain c, p1 ⊑ₚ p2 ⇒ p1 domain c`.
pub fn scm_dom2(ctx: &RuleContext<'_>, out: &mut InferredBuffer) {
    apply_alpha(
        &AlphaSpec {
            left_prop: wellknown::RDFS_DOMAIN,
            left_side: JoinSide::Subject,
            right_prop: wellknown::RDFS_SUB_PROPERTY_OF,
            right_side: JoinSide::Object,
            out_prop: wellknown::RDFS_DOMAIN,
            swap_output: true,
        },
        ctx,
        out,
    );
}

/// SCM-RNG2: `p2 range c, p1 ⊑ₚ p2 ⇒ p1 range c`.
pub fn scm_rng2(ctx: &RuleContext<'_>, out: &mut InferredBuffer) {
    apply_alpha(
        &AlphaSpec {
            left_prop: wellknown::RDFS_RANGE,
            left_side: JoinSide::Subject,
            right_prop: wellknown::RDFS_SUB_PROPERTY_OF,
            right_side: JoinSide::Object,
            out_prop: wellknown::RDFS_RANGE,
            swap_output: true,
        },
        ctx,
        out,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executors::test_support::{derive, store};
    use inferray_dictionary::wellknown as wk;

    const HUMAN: u64 = 1_000_000;
    const MAMMAL: u64 = 1_000_001;
    const BART: u64 = 1_000_002;
    const LISA: u64 = 1_000_003;
    const HAS_CHILD: u64 = 500;
    const HAS_SON: u64 = 501;

    #[test]
    fn cax_sco_paper_figure4_example() {
        // human ⊑ mammal, Bart a human, Lisa a human ⇒ Bart/Lisa a mammal.
        let main = store(&[
            (HUMAN, wk::RDFS_SUB_CLASS_OF, MAMMAL),
            (BART, wk::RDF_TYPE, HUMAN),
            (LISA, wk::RDF_TYPE, HUMAN),
        ]);
        let derived = derive(&main, cax_sco);
        assert_eq!(
            derived.into_iter().collect::<Vec<_>>(),
            vec![(BART, wk::RDF_TYPE, MAMMAL), (LISA, wk::RDF_TYPE, MAMMAL)]
        );
    }

    #[test]
    fn cax_sco_without_matching_instances_derives_nothing() {
        let main = store(&[
            (HUMAN, wk::RDFS_SUB_CLASS_OF, MAMMAL),
            (BART, wk::RDF_TYPE, MAMMAL), // already typed with the superclass
        ]);
        let derived = derive(&main, cax_sco);
        assert!(derived.is_empty());
    }

    #[test]
    fn cax_eqc_rules_work_in_both_directions() {
        let main = store(&[
            (HUMAN, wk::OWL_EQUIVALENT_CLASS, MAMMAL),
            (BART, wk::RDF_TYPE, HUMAN),
            (LISA, wk::RDF_TYPE, MAMMAL),
        ]);
        let d1 = derive(&main, cax_eqc1);
        assert!(d1.contains(&(BART, wk::RDF_TYPE, MAMMAL)));
        assert!(!d1.contains(&(LISA, wk::RDF_TYPE, HUMAN)));
        let d2 = derive(&main, cax_eqc2);
        assert!(d2.contains(&(LISA, wk::RDF_TYPE, HUMAN)));
        assert!(!d2.contains(&(BART, wk::RDF_TYPE, MAMMAL)));
    }

    #[test]
    fn scm_dom1_and_rng1_propagate_up_the_class_hierarchy() {
        let main = store(&[
            (HAS_CHILD, wk::RDFS_DOMAIN, HUMAN),
            (HAS_CHILD, wk::RDFS_RANGE, HUMAN),
            (HUMAN, wk::RDFS_SUB_CLASS_OF, MAMMAL),
        ]);
        let dom = derive(&main, scm_dom1);
        assert_eq!(dom.len(), 1);
        assert!(dom.contains(&(HAS_CHILD, wk::RDFS_DOMAIN, MAMMAL)));
        let rng = derive(&main, scm_rng1);
        assert!(rng.contains(&(HAS_CHILD, wk::RDFS_RANGE, MAMMAL)));
    }

    #[test]
    fn scm_dom2_and_rng2_propagate_down_the_property_hierarchy() {
        let main = store(&[
            (HAS_CHILD, wk::RDFS_DOMAIN, HUMAN),
            (HAS_CHILD, wk::RDFS_RANGE, MAMMAL),
            (HAS_SON, wk::RDFS_SUB_PROPERTY_OF, HAS_CHILD),
        ]);
        let dom = derive(&main, scm_dom2);
        assert!(dom.contains(&(HAS_SON, wk::RDFS_DOMAIN, HUMAN)));
        let rng = derive(&main, scm_rng2);
        assert!(rng.contains(&(HAS_SON, wk::RDFS_RANGE, MAMMAL)));
    }

    #[test]
    fn semi_naive_passes_cover_new_on_either_side() {
        // main has everything, new only has the instance triple: the join
        // must still fire (pass 2: left=main schema, right=new instances).
        let main = store(&[
            (HUMAN, wk::RDFS_SUB_CLASS_OF, MAMMAL),
            (BART, wk::RDF_TYPE, HUMAN),
        ]);
        let new = store(&[(BART, wk::RDF_TYPE, HUMAN)]);
        let ctx = RuleContext::new(&main, &new);
        let mut out = InferredBuffer::new();
        cax_sco(&ctx, &mut out);
        let derived = crate::executors::test_support::buffer_to_set(&out);
        assert!(derived.contains(&(BART, wk::RDF_TYPE, MAMMAL)));

        // Symmetric situation: only the schema triple is new.
        let new = store(&[(HUMAN, wk::RDFS_SUB_CLASS_OF, MAMMAL)]);
        let ctx = RuleContext::new(&main, &new);
        let mut out = InferredBuffer::new();
        cax_sco(&ctx, &mut out);
        let derived = crate::executors::test_support::buffer_to_set(&out);
        assert!(derived.contains(&(BART, wk::RDF_TYPE, MAMMAL)));
    }

    #[test]
    fn missing_tables_are_handled_gracefully() {
        let main = store(&[(BART, wk::RDF_TYPE, HUMAN)]); // no subClassOf table
        let derived = derive(&main, cax_sco);
        assert!(derived.is_empty());
    }
}
