//! The self-join kernel: the shape of the functional-property rules
//! PRP-FP and PRP-IFP ([`crate::analysis::Lowering::SelfJoin`]).
//!
//! "PRP-FP and PRP-IFP are identical (except for the first property), the
//! system iterates on all functional and inverse-functional properties, and
//! performs self-joins on each property table. For PRP-FP, sorted property
//! tables on ⟨s,o⟩ and ⟨o,s⟩ allow linear-time self-joins. The total
//! complexity is O(k·n)" (§4.4).
//!
//! For every declared table and every group of pairs sharing a key — the
//! subject (PRP-FP) or the object (PRP-IFP) — the kernel links every two
//! values of the group with `owl:sameAs`, the smaller value first. The
//! shape reads an `owl:sameAs` head as an equivalence between distinct
//! terms: the kernel emits half of what the rule's text derives, and no
//! value to itself; EQ-SYM and EQ-TRANS restore the rest of the relation at
//! the fixed point. Linking only *consecutive* values would emit less, but
//! a retraction that removes a middle value would then need a link no
//! earlier firing produced; delete–rederive (docs/maintenance.md) is exact
//! only for kernels that never derive more from less. The links of a group
//! are a function of the group, so the kernel reads `main` whole.

use super::join::JoinSide;
use crate::analysis::SelfJoin;
use crate::context::RuleContext;
use crate::support::Survivors;
use inferray_dictionary::wellknown;
use inferray_store::{as_pairs, gallop, InferredBuffer, Pair};

/// Runs a self-join rule over every table `ctx.main` declares.
pub(crate) fn apply_self_join(plan: &SelfJoin, ctx: &RuleContext<'_>, out: &mut InferredBuffer) {
    for p in plan.declared.properties(Survivors::all(ctx.main)) {
        let Some(table) = ctx.main.table(p) else {
            continue;
        };
        // A view keyed on the shared end: the pairs of a group are adjacent.
        let view = match plan.key {
            JoinSide::Subject => table.pairs(),
            JoinSide::Object => table.object_pairs(),
        };
        link_group_values(as_pairs(view), out);
    }
}

/// Walks a key-sorted pair view and, inside every equal-key group, links
/// every payload value to each greater one with `owl:sameAs`.
fn link_group_values(view: &[Pair], out: &mut InferredBuffer) {
    let out = out.table_mut(wellknown::OWL_SAME_AS);
    let mut start = 0usize;
    while let Some(&[key, _]) = view.get(start) {
        let end = gallop(view, start, |p| p[0] <= key);
        let group = &view[start..end];
        // The values of a group ascend: each is greater than every value
        // before it.
        for (j, &[_, greater]) in group.iter().enumerate() {
            for &[_, smaller] in &group[..j] {
                out.extend_from_slice(&[smaller, greater]);
            }
        }
        start = end;
    }
}

#[cfg(test)]
mod tests {
    use crate::executors::test_support::{fire, store};
    use crate::RuleId;
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
        let derived = fire(RuleId::PrpFp, &main);
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
        let derived = fire(RuleId::PrpIfp, &main);
        assert_eq!(
            derived.into_iter().collect::<Vec<_>>(),
            vec![(ALICE, wk::OWL_SAME_AS, BOB)]
        );
    }

    #[test]
    fn non_functional_properties_are_ignored() {
        let knows = nth_property_id(402);
        let main = store(&[(ALICE, knows, EMAIL_A), (ALICE, knows, EMAIL_B)]);
        assert!(fire(RuleId::PrpFp, &main).is_empty());
        assert!(fire(RuleId::PrpIfp, &main).is_empty());
    }

    #[test]
    fn functional_declaration_without_data_is_a_no_op() {
        let p = nth_property_id(403);
        let main = store(&[(p, wk::RDF_TYPE, wk::OWL_FUNCTIONAL_PROPERTY)]);
        assert!(fire(RuleId::PrpFp, &main).is_empty());
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
        assert!(fire(RuleId::PrpFp, &main).is_empty());
    }
}
