//! PRP-FP / PRP-IFP: the three-antecedent functional-property rules.
//!
//! "PRP-FP and PRP-IFP are identical (except for the first property), the
//! system iterates on all functional and inverse-functional properties, and
//! performs self-joins on each property table. For PRP-FP, sorted property
//! tables on ⟨s,o⟩ and ⟨o,s⟩ allow linear-time self-joins. The total
//! complexity is O(k·n)" (§4.4).
//!
//! For every group of pairs sharing a subject (PRP-FP) or an object
//! (PRP-IFP), the executor links every two values of the group with
//! `owl:sameAs`, the smaller value first — half of what the rule's text
//! derives, and no value to itself. EQ-SYM and EQ-TRANS restore the rest of
//! the relation at the fixed point. Linking only *consecutive* values
//! would emit less, but a retraction that removes a middle value would then
//! need a link no earlier firing produced; delete–rederive
//! (docs/maintenance.md) is exact only for executors that never derive
//! more from less.

use crate::context::RuleContext;
use inferray_dictionary::wellknown;
use inferray_model::ids::is_property_id;
use inferray_store::InferredBuffer;

/// PRP-FP: `p a owl:FunctionalProperty, x p y1, x p y2 (y1 ≠ y2) ⇒ y1 sameAs y2`.
pub fn prp_fp(ctx: &RuleContext<'_>, out: &mut InferredBuffer) {
    let functional = RuleContext::subjects_with_object(
        ctx.main,
        wellknown::RDF_TYPE,
        wellknown::OWL_FUNCTIONAL_PROPERTY,
    );
    for p in functional {
        if !is_property_id(p) {
            continue;
        }
        let Some(table) = ctx.main.table(p) else {
            continue;
        };
        // ⟨s,o⟩ order: pairs with the same subject are adjacent.
        emit_links_between_group_values(table.pairs(), out);
    }
}

/// PRP-IFP: `p a owl:InverseFunctionalProperty, x1 p y, x2 p y (x1 ≠ x2) ⇒ x1 sameAs x2`.
pub fn prp_ifp(ctx: &RuleContext<'_>, out: &mut InferredBuffer) {
    let inverse_functional = RuleContext::subjects_with_object(
        ctx.main,
        wellknown::RDF_TYPE,
        wellknown::OWL_INVERSE_FUNCTIONAL_PROPERTY,
    );
    for p in inverse_functional {
        if !is_property_id(p) {
            continue;
        }
        let Some(table) = ctx.main.table(p) else {
            continue;
        };
        // ⟨o,s⟩ order: pairs with the same object are adjacent.
        emit_links_between_group_values(table.object_pairs(), out);
    }
}

/// Walks a key-sorted flat pair view and, inside every equal-key group,
/// links every payload value to each greater one with `owl:sameAs`.
fn emit_links_between_group_values(view: &[u64], out: &mut InferredBuffer) {
    let out = out.table_mut(wellknown::OWL_SAME_AS);
    let mut i = 0usize;
    while i < view.len() {
        let key = view[i];
        let mut j = i + 2;
        while j < view.len() && view[j] == key {
            // The values of a group ascend: `view[j + 1]` is greater than
            // every value before it.
            for smaller in (i..j).step_by(2) {
                out.extend_from_slice(&[view[smaller + 1], view[j + 1]]);
            }
            j += 2;
        }
        i = j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executors::test_support::{derive, store};
    use inferray_dictionary::wellknown as wk;
    use inferray_model::ids::nth_property_id;

    const ALICE: u64 = 6_000_000;
    const BOB: u64 = 6_000_001;
    const EMAIL_A: u64 = 6_000_002;
    const EMAIL_B: u64 = 6_000_003;
    const EMAIL_C: u64 = 6_000_004;

    #[test]
    fn prp_fp_links_multiple_values_of_a_functional_property() {
        let has_mother = nth_property_id(400);
        let main = store(&[
            (has_mother, wk::RDF_TYPE, wk::OWL_FUNCTIONAL_PROPERTY),
            (ALICE, has_mother, EMAIL_A),
            (ALICE, has_mother, EMAIL_B),
            (ALICE, has_mother, EMAIL_C),
            (BOB, has_mother, EMAIL_A), // single value: nothing derived for BOB
        ]);
        let derived = derive(&main, prp_fp);
        // Every two objects of ALICE, the smaller first.
        assert_eq!(
            derived.into_iter().collect::<Vec<_>>(),
            vec![
                (EMAIL_A, wk::OWL_SAME_AS, EMAIL_B),
                (EMAIL_A, wk::OWL_SAME_AS, EMAIL_C),
                (EMAIL_B, wk::OWL_SAME_AS, EMAIL_C),
            ]
        );
    }

    #[test]
    fn prp_ifp_links_subjects_sharing_a_value() {
        let mailbox = nth_property_id(401);
        let main = store(&[
            (mailbox, wk::RDF_TYPE, wk::OWL_INVERSE_FUNCTIONAL_PROPERTY),
            (ALICE, mailbox, EMAIL_A),
            (BOB, mailbox, EMAIL_A),
            (BOB, mailbox, EMAIL_B), // unique value: no link from this one
        ]);
        let derived = derive(&main, prp_ifp);
        assert_eq!(
            derived.into_iter().collect::<Vec<_>>(),
            vec![(ALICE, wk::OWL_SAME_AS, BOB)]
        );
    }

    #[test]
    fn non_functional_properties_are_ignored() {
        let knows = nth_property_id(402);
        let main = store(&[(ALICE, knows, EMAIL_A), (ALICE, knows, EMAIL_B)]);
        assert!(derive(&main, prp_fp).is_empty());
        assert!(derive(&main, prp_ifp).is_empty());
    }

    #[test]
    fn functional_declaration_without_data_is_a_no_op() {
        let p = nth_property_id(403);
        let main = store(&[(p, wk::RDF_TYPE, wk::OWL_FUNCTIONAL_PROPERTY)]);
        assert!(derive(&main, prp_fp).is_empty());
    }

    #[test]
    fn duplicate_values_do_not_produce_reflexive_links() {
        let p = nth_property_id(404);
        let main = store(&[
            (p, wk::RDF_TYPE, wk::OWL_FUNCTIONAL_PROPERTY),
            (ALICE, p, EMAIL_A),
            (ALICE, p, EMAIL_A),
        ]);
        // The table is deduplicated at finalize, so only one value remains.
        assert!(derive(&main, prp_fp).is_empty());
    }
}
