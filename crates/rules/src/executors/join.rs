//! The merge-join kernel: a two-table sort-merge join (Figure 4 of the
//! paper), the α shape ([`crate::analysis::Lowering::MergeJoin`]).
//!
//! A *view* is an array of `[key, payload]` pairs sorted on
//! `(key, payload)`. The ⟨s,o⟩-sorted table is a subject-keyed view; the
//! ⟨o,s⟩ cache is an object-keyed view. The join walks both views once,
//! emitting the cross product of every equal-key group — the access pattern
//! is purely sequential, which is the whole point of the paper's design.
//! Semi-naive evaluation joins the left atom's table in `new` with the right
//! one's in `main`, then — unless the frontier is the whole store, where
//! the two passes are the same join — the left in `main` with the right in
//! `new`.

use crate::analysis::MergeJoin;
use crate::context::RuleContext;
use inferray_store::{as_pairs, gallop, InferredBuffer, Pair, TripleStore};

/// Which component of a property table a join binds to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinSide {
    /// Join on the subject: use the ⟨s,o⟩-sorted array (payload = object).
    Subject,
    /// Join on the object: use the ⟨o,s⟩-sorted array (payload = subject).
    Object,
}

/// Sort-merge join of two sorted views, group by group: for every key both
/// views hold, `on_group(left_group, right_group)` is called with the two
/// equal-key runs (`[key, payload], [key, payload'], …`). The join's output
/// for that key is their cross product, so a caller that collects it knows
/// its size — `left_group.len() · right_group.len()` matches — before it
/// pushes the first one.
pub fn merge_join_groups(
    left: &[Pair],
    right: &[Pair],
    mut on_group: impl FnMut(&[Pair], &[Pair]),
) {
    let (mut i, mut j) = (0usize, 0usize);
    while let (Some(&[lk, _]), Some(&[rk, _])) = (left.get(i), right.get(j)) {
        if lk < rk {
            i += 1;
        } else if lk > rk {
            j += 1;
        } else {
            // The extent of the equal-key group on both sides.
            let i_end = gallop(left, i, |p| p[0] <= lk);
            let j_end = gallop(right, j, |p| p[0] <= rk);
            on_group(&left[i..i_end], &right[j..j_end]);
            i = i_end;
            j = j_end;
        }
    }
}

/// Runs a merge-join rule (both semi-naive passes).
pub fn apply_merge_join(join: &MergeJoin, ctx: &RuleContext<'_>, out: &mut InferredBuffer) {
    merge_join_pass(join, ctx.new, ctx.main, out);
    if !ctx.is_whole() {
        merge_join_pass(join, ctx.main, ctx.new, out);
    }
}

fn merge_join_pass(
    join: &MergeJoin,
    left_store: &TripleStore,
    right_store: &TripleStore,
    out: &mut InferredBuffer,
) {
    let ((left_p, left_side), (right_p, right_side)) = (join.left, join.right);
    // Emptiness is read off the tables: asking for an object view builds
    // the ⟨o,s⟩ cache, which an empty other side would waste.
    let has_pairs = |store: &TripleStore, prop| store.table(prop).is_some_and(|t| !t.is_empty());
    if !has_pairs(left_store, left_p) || !has_pairs(right_store, right_p) {
        return;
    }
    let left = view(left_store, left_p, left_side);
    let right = view(right_store, right_p, right_side);
    for &(p, s, o) in &join.heads {
        let out = out.table_mut(p);
        merge_join_groups(left, right, |left_group, right_group| {
            // The group's cross product: its size is known before the first push.
            out.reserve(2 * left_group.len() * right_group.len());
            for l in left_group {
                for r in right_group {
                    out.extend_from_slice(&[s.pick(l, r), o.pick(l, r)]);
                }
            }
        });
    }
}

fn view(store: &TripleStore, prop: u64, side: JoinSide) -> &[Pair] {
    as_pairs(match side {
        JoinSide::Subject => RuleContext::subject_view(store, prop),
        JoinSide::Object => RuleContext::object_view(store, prop),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executors::test_support::{apply, buffer_to_set, fire, store};
    use crate::RuleId;
    use inferray_dictionary::wellknown as wk;

    const HUMAN: u64 = 1_000_000;
    const MAMMAL: u64 = 1_000_001;
    const BART: u64 = 1_000_002;
    const LISA: u64 = 1_000_003;
    const HAS_CHILD: u64 = 500;
    const HAS_SON: u64 = 501;

    #[test]
    fn groups_are_handed_out_whole() {
        let left = [[5u64, 1], [5, 2], [7, 9], [8, 0]];
        let right = [[4u64, 0], [5, 10], [5, 11], [5, 12], [8, 3]];
        let mut groups = Vec::new();
        merge_join_groups(&left, &right, |l, r| groups.push((l.to_vec(), r.to_vec())));
        assert_eq!(
            groups,
            vec![
                (vec![[5, 1], [5, 2]], vec![[5, 10], [5, 11], [5, 12]]),
                (vec![[8, 0]], vec![[8, 3]]),
            ]
        );
    }

    #[test]
    fn empty_or_disjoint_sides_produce_no_groups() {
        let mut groups = 0;
        for (left, right) in [
            (&[][..], &[][..]),
            (&[[1, 2]][..], &[][..]),
            (&[][..], &[[1, 2]][..]),
            (&[[1, 10], [3, 30]][..], &[[2, 20], [4, 40]][..]),
        ] {
            merge_join_groups(left, right, |_, _| groups += 1);
        }
        assert_eq!(groups, 0);
    }

    #[test]
    fn cax_sco_paper_figure4_example() {
        // human ⊑ mammal, Bart a human, Lisa a human ⇒ Bart/Lisa a mammal.
        let main = store(&[
            (HUMAN, wk::RDFS_SUB_CLASS_OF, MAMMAL),
            (BART, wk::RDF_TYPE, HUMAN),
            (LISA, wk::RDF_TYPE, HUMAN),
        ]);
        assert_eq!(
            fire(RuleId::CaxSco, &main).into_iter().collect::<Vec<_>>(),
            vec![(BART, wk::RDF_TYPE, MAMMAL), (LISA, wk::RDF_TYPE, MAMMAL)]
        );
    }

    #[test]
    fn cax_sco_without_matching_instances_derives_nothing() {
        let main = store(&[
            (HUMAN, wk::RDFS_SUB_CLASS_OF, MAMMAL),
            (BART, wk::RDF_TYPE, MAMMAL), // already typed with the superclass
        ]);
        assert!(fire(RuleId::CaxSco, &main).is_empty());
    }

    #[test]
    fn cax_eqc_rules_work_in_both_directions() {
        let main = store(&[
            (HUMAN, wk::OWL_EQUIVALENT_CLASS, MAMMAL),
            (BART, wk::RDF_TYPE, HUMAN),
            (LISA, wk::RDF_TYPE, MAMMAL),
        ]);
        let d1 = fire(RuleId::CaxEqc1, &main);
        assert!(d1.contains(&(BART, wk::RDF_TYPE, MAMMAL)));
        assert!(!d1.contains(&(LISA, wk::RDF_TYPE, HUMAN)));
        let d2 = fire(RuleId::CaxEqc2, &main);
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
        let dom = fire(RuleId::ScmDom1, &main);
        assert_eq!(dom.len(), 1);
        assert!(dom.contains(&(HAS_CHILD, wk::RDFS_DOMAIN, MAMMAL)));
        let rng = fire(RuleId::ScmRng1, &main);
        assert!(rng.contains(&(HAS_CHILD, wk::RDFS_RANGE, MAMMAL)));
    }

    #[test]
    fn scm_dom2_and_rng2_propagate_down_the_property_hierarchy() {
        let main = store(&[
            (HAS_CHILD, wk::RDFS_DOMAIN, HUMAN),
            (HAS_CHILD, wk::RDFS_RANGE, MAMMAL),
            (HAS_SON, wk::RDFS_SUB_PROPERTY_OF, HAS_CHILD),
        ]);
        let dom = fire(RuleId::ScmDom2, &main);
        assert!(dom.contains(&(HAS_SON, wk::RDFS_DOMAIN, HUMAN)));
        let rng = fire(RuleId::ScmRng2, &main);
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
        // Then the symmetric situation: only the schema triple is new.
        for new in [
            store(&[(BART, wk::RDF_TYPE, HUMAN)]),
            store(&[(HUMAN, wk::RDFS_SUB_CLASS_OF, MAMMAL)]),
        ] {
            let mut out = InferredBuffer::new();
            apply(RuleId::CaxSco, &RuleContext::new(&main, &new), &mut out);
            assert!(buffer_to_set(&out).contains(&(BART, wk::RDF_TYPE, MAMMAL)));
        }
    }

    #[test]
    fn missing_tables_are_handled_gracefully() {
        let main = store(&[(BART, wk::RDF_TYPE, HUMAN)]); // no subClassOf table
        assert!(fire(RuleId::CaxSco, &main).is_empty());
    }
}
