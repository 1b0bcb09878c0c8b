//! The `owl:sameAs` replacement rules (EQ-REP-S / EQ-REP-P / EQ-REP-O).
//!
//! "The four same-as rules generate a significant number of triples.
//! Choosing the base table for joining is obvious — since the second triple
//! patterns select the entire database. Inferray handles the four rules with
//! a single loop, iterating over the same-as property table" (§4.4). The
//! executors below follow that plan: the outer loop walks the `owl:sameAs`
//! pairs, the inner loop walks the property tables of the complementary
//! store. `EQ-SYM`, the fourth rule, is a trivial single-antecedent rule and
//! lives in [`crate::executors::trivial`].

use crate::context::RuleContext;
use inferray_dictionary::wellknown;
use inferray_model::ids::is_property_id;
use inferray_store::{InferredBuffer, TripleStore};

/// Iterates the sameAs pairs semi-naively: new pairs against the main data,
/// then — unless the frontier is the whole store — all pairs against the
/// new data.
fn for_same_as(
    ctx: &RuleContext<'_>,
    out: &mut InferredBuffer,
    mut handle: impl FnMut(u64, u64, &TripleStore, &mut InferredBuffer),
) {
    if let Some(table) = ctx.new.table(wellknown::OWL_SAME_AS) {
        for (a, b) in table.iter_pairs() {
            if a != b {
                handle(a, b, ctx.main, out);
            }
        }
    }
    if ctx.is_whole() {
        return;
    }
    if let Some(table) = ctx.main.table(wellknown::OWL_SAME_AS) {
        for (a, b) in table.iter_pairs() {
            if a != b {
                handle(a, b, ctx.new, out);
            }
        }
    }
}

/// EQ-REP-S: `s1 sameAs s2, s1 p o ⇒ s2 p o`.
pub fn eq_rep_s(ctx: &RuleContext<'_>, out: &mut InferredBuffer) {
    for_same_as(ctx, out, |s1, s2, data, out| {
        for (p, table) in data.iter_tables() {
            let run = table.subject_run(s1);
            if !run.is_empty() {
                let out = out.table_mut(p);
                out.reserve(run.len());
                for pair in run.chunks_exact(2) {
                    out.extend_from_slice(&[s2, pair[1]]);
                }
            }
        }
    });
}

/// EQ-REP-O: `o1 sameAs o2, s p o1 ⇒ s p o2`.
pub fn eq_rep_o(ctx: &RuleContext<'_>, out: &mut InferredBuffer) {
    for_same_as(ctx, out, |o1, o2, data, out| {
        for (p, table) in data.iter_tables() {
            // The object view is sorted on (object, subject); scan the run
            // of `o1` with a binary search for its start.
            let view = table.object_pairs();
            let mut index = lower_bound(view, o1);
            if index < view.len() && view[index] == o1 {
                let out = out.table_mut(p);
                while index < view.len() && view[index] == o1 {
                    out.extend_from_slice(&[view[index + 1], o2]);
                    index += 2;
                }
            }
        }
    });
}

/// EQ-REP-P: `p1 sameAs p2, s p1 o ⇒ s p2 o`.
pub fn eq_rep_p(ctx: &RuleContext<'_>, out: &mut InferredBuffer) {
    for_same_as(ctx, out, |p1, p2, data, out| {
        if !is_property_id(p1) || !is_property_id(p2) {
            return;
        }
        if let Some(table) = data.table(p1) {
            out.add_pairs(p2, table.pairs());
        }
    });
}

/// First element offset of the run whose key (first component) is `key` in a
/// key-sorted flat pair view.
fn lower_bound(view: &[u64], key: u64) -> usize {
    let n = view.len() / 2;
    let (mut lo, mut hi) = (0usize, n);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if view[2 * mid] < key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    2 * lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executors::test_support::{derive, store};
    use inferray_dictionary::wellknown as wk;
    use inferray_model::ids::nth_property_id;

    const ALICE: u64 = 4_000_000;
    const ALIZ: u64 = 4_000_001;
    const BOB: u64 = 4_000_002;
    const LYON: u64 = 4_000_003;

    fn prop(n: usize) -> u64 {
        nth_property_id(200 + n)
    }

    #[test]
    fn eq_rep_s_replaces_subjects() {
        let knows = prop(0);
        let main = store(&[
            (ALICE, wk::OWL_SAME_AS, ALIZ),
            (ALICE, knows, BOB),
            (BOB, knows, LYON),
        ]);
        let derived = derive(&main, eq_rep_s);
        assert!(derived.contains(&(ALIZ, knows, BOB)));
        assert!(!derived.contains(&(ALIZ, knows, LYON)));
        // The sameAs triple itself also has ALICE as subject, so the rule
        // derives (ALIZ sameAs ALIZ) too — harmless, removed as duplicate of
        // nothing (it is genuinely new but trivially true).
        assert!(derived.contains(&(ALIZ, wk::OWL_SAME_AS, ALIZ)));
    }

    #[test]
    fn eq_rep_o_replaces_objects() {
        let knows = prop(0);
        let main = store(&[
            (ALICE, wk::OWL_SAME_AS, ALIZ),
            (BOB, knows, ALICE),
            (BOB, knows, LYON),
        ]);
        let derived = derive(&main, eq_rep_o);
        // Only the object equal to the sameAs subject is substituted; the
        // LYON-valued triple contributes nothing.
        assert_eq!(
            derived.into_iter().collect::<Vec<_>>(),
            vec![(BOB, knows, ALIZ)]
        );
    }

    #[test]
    fn eq_rep_p_copies_property_tables() {
        let knows = prop(0);
        let acquainted = prop(1);
        let main = store(&[(knows, wk::OWL_SAME_AS, acquainted), (ALICE, knows, BOB)]);
        let derived = derive(&main, eq_rep_p);
        assert!(derived.contains(&(ALICE, acquainted, BOB)));
    }

    #[test]
    fn same_as_between_individuals_does_not_touch_property_tables() {
        let knows = prop(0);
        let main = store(&[(ALICE, wk::OWL_SAME_AS, ALIZ), (ALICE, knows, BOB)]);
        let derived = derive(&main, eq_rep_p);
        // ALICE is not a property id, so EQ-REP-P derives nothing.
        assert!(derived.is_empty());
    }

    #[test]
    fn reflexive_same_as_is_skipped() {
        let knows = prop(0);
        let main = store(&[(ALICE, wk::OWL_SAME_AS, ALICE), (ALICE, knows, BOB)]);
        assert!(derive(&main, eq_rep_s).is_empty());
        assert!(derive(&main, eq_rep_o).is_empty());
    }

    #[test]
    fn no_same_as_table_derives_nothing() {
        let knows = prop(0);
        let main = store(&[(ALICE, knows, BOB)]);
        assert!(derive(&main, eq_rep_s).is_empty());
        assert!(derive(&main, eq_rep_o).is_empty());
        assert!(derive(&main, eq_rep_p).is_empty());
    }

    #[test]
    fn lower_bound_finds_run_starts() {
        let view = [1u64, 9, 3, 9, 3, 10, 7, 0];
        assert_eq!(lower_bound(&view, 1), 0);
        assert_eq!(lower_bound(&view, 3), 2);
        assert_eq!(lower_bound(&view, 7), 6);
        assert_eq!(lower_bound(&view, 0), 0);
        assert_eq!(lower_bound(&view, 8), 8);
    }
}
