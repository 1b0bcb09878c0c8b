//! The substitution kernel: the shape of the same-as rules EQ-REP-S and
//! EQ-REP-O ([`crate::analysis::Lowering::Substitution`]).
//!
//! "The four same-as rules generate a significant number of triples.
//! Choosing the base table for joining is obvious — since the second triple
//! patterns select the entire database. Inferray handles the four rules with
//! a single loop, iterating over the same-as property table" (§4.4). The
//! kernel follows that plan for any rule of the shape: the outer loop walks
//! the links, the inner loop the property tables of the complementary
//! store. EQ-SYM runs the nested loop and EQ-REP-P the table scan.

use super::join::JoinSide;
use crate::analysis::Substitution;
use crate::context::RuleContext;
use inferray_store::{gallop_lower_bound, gallop_upper_bound, InferredBuffer, TripleStore};

/// Runs a substitution rule: the new links against the main data, then —
/// unless the frontier is the whole store — all links against the new data.
pub(crate) fn apply_substitution(
    plan: &Substitution,
    ctx: &RuleContext<'_>,
    out: &mut InferredBuffer,
) {
    let mut found = Vec::new();
    for (link_store, data) in [(ctx.new, ctx.main), (ctx.main, ctx.new)] {
        let links = links(link_store, plan.link);
        if !links.is_empty() {
            match plan.data {
                JoinSide::Subject => substitute_subjects(&links, data, out),
                JoinSide::Object => substitute_objects(&links, data, &mut found, out),
            }
        }
        if ctx.is_whole() {
            break;
        }
    }
}

/// The links `(shared, replacement)` of `store`'s link table `p`, sorted on
/// the end the data atom shares (read from the subject, they already are),
/// without the reflexive ones, which substitute a term for itself.
fn links(store: &TripleStore, (p, shared): (u64, JoinSide)) -> Vec<(u64, u64)> {
    let flip = |(a, b)| {
        if shared == JoinSide::Object {
            (b, a)
        } else {
            (a, b)
        }
    };
    let pairs = store.table(p).into_iter().flat_map(|t| t.iter_pairs());
    let mut links: Vec<(u64, u64)> = pairs.filter(|(a, b)| a != b).map(flip).collect();
    links.sort_unstable();
    links
}

/// Replaces subjects: per table, the links gallop through the subject runs
/// in ascending order, each search starting where the last one stopped, in
/// place of a binary search over the whole table per link.
fn substitute_subjects(links: &[(u64, u64)], data: &TripleStore, out: &mut InferredBuffer) {
    for (p, table) in data.iter_tables() {
        let (pairs, out) = (table.pairs(), out.table_mut(p));
        let mut at = 0usize;
        for &(shared, replacement) in links {
            at = gallop_lower_bound(pairs, at, shared);
            if 2 * at == pairs.len() {
                break;
            }
            let end = gallop_upper_bound(pairs, at, shared);
            out.reserve(2 * (end - at));
            for pair in pairs[2 * at..2 * end].chunks_exact(2) {
                out.extend_from_slice(&[replacement, pair[1]]);
            }
        }
    }
}

/// Replaces objects. Every table is looked up from the object side, but
/// only for the handful of linked terms: the kernel reads a table's ⟨o,s⟩
/// cache when some join already built it and otherwise sweeps ⟨s,o⟩ once
/// for all of them — it never *starts* a cache build (the same choice as
/// [`RuleContext::subjects_with_object`]).
fn substitute_objects(
    links: &[(u64, u64)],
    data: &TripleStore,
    found: &mut Vec<u64>,
    out: &mut InferredBuffer,
) {
    // One bit per value of a linked term's low 16 bits. Identifiers are
    // dense, so the terms spread evenly over the bits and nearly every
    // object of a swept table is turned away on one load — a binary search
    // in `links` per object costs what sorting the table would have (10 ms
    // either way on LUBM-500k, 1 ms behind the filter).
    let mut filter = [0u64; 1024];
    let bit = |o: u64| ((o >> 6) as usize % 1024, 1u64 << (o % 64));
    for &(o1, _) in links {
        let (word, mask) = bit(o1);
        filter[word] |= mask;
    }
    for (p, table) in data.iter_tables() {
        if table.has_os_cache() {
            // Sorted on (object, subject): one run per linked term.
            for &(o1, o2) in links {
                for pair in table.object_run(o1).unwrap_or_default().chunks_exact(2) {
                    found.extend_from_slice(&[pair[1], o2]);
                }
            }
        } else {
            for (s, o) in table.iter_pairs() {
                let (word, mask) = bit(o);
                if filter[word] & mask != 0 {
                    let from = links.partition_point(|&(o1, _)| o1 < o);
                    for &(_, o2) in links[from..].iter().take_while(|&&(o1, _)| o1 == o) {
                        found.extend_from_slice(&[s, o2]);
                    }
                }
            }
        }
        if !found.is_empty() {
            out.table_mut(p).extend_from_slice(found);
            found.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::analysis::{apply_compiled, compiled_builtin};
    use crate::executors::test_support::{buffer_to_set, fire, store};
    use crate::{RuleContext, RuleId};
    use inferray_dictionary::wellknown as wk;
    use inferray_model::ids::nth_property_id;
    use inferray_store::InferredBuffer;

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
        let derived = fire(RuleId::EqRepS, &main);
        assert!(derived.contains(&(ALIZ, knows, BOB)));
        assert!(!derived.contains(&(ALIZ, knows, LYON)));
        // The sameAs triple itself also has ALICE as subject, so the rule
        // derives (ALIZ sameAs ALIZ) too — harmless, removed as duplicate of
        // nothing (it is genuinely new but trivially true).
        assert!(derived.contains(&(ALIZ, wk::OWL_SAME_AS, ALIZ)));
    }

    #[test]
    fn eq_rep_s_reads_every_run_of_every_table_once_per_link() {
        let (knows, likes) = (prop(0), prop(1));
        let main = store(&[
            (ALICE, wk::OWL_SAME_AS, ALIZ),
            (ALICE, wk::OWL_SAME_AS, LYON),
            (BOB, wk::OWL_SAME_AS, ALIZ),
            (ALICE, knows, BOB),
            (ALICE, knows, LYON),
            (BOB, knows, ALICE),
            // Every subject before BOB: the last link's gallop ends the table.
            (ALICE, likes, LYON),
        ]);
        let mut out = InferredBuffer::new();
        apply_compiled(
            compiled_builtin(RuleId::EqRepS),
            &RuleContext::new(&main, &main),
            &mut out,
        );
        let expected = [
            (ALIZ, wk::OWL_SAME_AS, ALIZ),
            (ALIZ, wk::OWL_SAME_AS, LYON),
            (LYON, wk::OWL_SAME_AS, ALIZ),
            (LYON, wk::OWL_SAME_AS, LYON),
            (ALIZ, wk::OWL_SAME_AS, ALIZ),
            (ALIZ, knows, BOB),
            (ALIZ, knows, LYON),
            (LYON, knows, BOB),
            (LYON, knows, LYON),
            (ALIZ, knows, ALICE),
            (ALIZ, likes, LYON),
            (LYON, likes, LYON),
        ];
        assert_eq!(out.len(), expected.len(), "one pair per link and data pair");
        assert_eq!(buffer_to_set(&out), expected.into_iter().collect());
    }

    #[test]
    fn eq_rep_o_replaces_objects() {
        let knows = prop(0);
        let main = store(&[
            (ALICE, wk::OWL_SAME_AS, ALIZ),
            (BOB, knows, ALICE),
            (BOB, knows, LYON),
        ]);
        let derived = fire(RuleId::EqRepO, &main);
        // Only the object equal to the sameAs subject is substituted; the
        // LYON-valued triple contributes nothing.
        assert_eq!(
            derived.into_iter().collect::<Vec<_>>(),
            vec![(BOB, knows, ALIZ)]
        );
    }

    #[test]
    fn eq_rep_o_reads_a_built_cache_and_builds_none() {
        let (knows, likes) = (prop(0), prop(1));
        let mut main = store(&[
            (ALICE, wk::OWL_SAME_AS, ALIZ),
            (ALICE, wk::OWL_SAME_AS, LYON),
            (BOB, wk::OWL_SAME_AS, ALIZ),
            (BOB, knows, ALICE),
            (LYON, knows, ALICE),
            (ALICE, knows, BOB),
            (BOB, likes, LYON),
            // Shares ALICE's bit of the sweep's filter, and is not ALICE.
            (BOB, likes, ALICE + (1 << 16)),
        ]);
        let swept = fire(RuleId::EqRepO, &main);
        assert!(
            main.iter_tables().all(|(_, table)| !table.has_os_cache()),
            "a handful of sameAs subjects start no cache build"
        );
        main.ensure_all_os();
        assert_eq!(
            fire(RuleId::EqRepO, &main),
            swept,
            "same pairs from the runs"
        );
        let expected = [
            (BOB, knows, ALIZ),
            (BOB, knows, LYON),
            (LYON, knows, ALIZ),
            (LYON, knows, LYON),
            (ALICE, knows, ALIZ),
        ];
        for triple in expected {
            assert!(swept.contains(&triple), "missing {triple:?}");
        }
        assert_eq!(swept.len(), expected.len());
    }

    #[test]
    fn eq_rep_p_copies_property_tables() {
        let knows = prop(0);
        let acquainted = prop(1);
        let main = store(&[(knows, wk::OWL_SAME_AS, acquainted), (ALICE, knows, BOB)]);
        let derived = fire(RuleId::EqRepP, &main);
        assert!(derived.contains(&(ALICE, acquainted, BOB)));
    }

    #[test]
    fn same_as_between_individuals_does_not_touch_property_tables() {
        let knows = prop(0);
        let main = store(&[(ALICE, wk::OWL_SAME_AS, ALIZ), (ALICE, knows, BOB)]);
        let derived = fire(RuleId::EqRepP, &main);
        // ALICE is not a property id, so EQ-REP-P derives nothing.
        assert!(derived.is_empty());
    }

    #[test]
    fn reflexive_same_as_is_skipped() {
        let knows = prop(0);
        let main = store(&[(ALICE, wk::OWL_SAME_AS, ALICE), (ALICE, knows, BOB)]);
        assert!(fire(RuleId::EqRepS, &main).is_empty());
        assert!(fire(RuleId::EqRepO, &main).is_empty());
    }

    #[test]
    fn no_same_as_table_derives_nothing() {
        let knows = prop(0);
        let main = store(&[(ALICE, knows, BOB)]);
        assert!(fire(RuleId::EqRepS, &main).is_empty());
        assert!(fire(RuleId::EqRepO, &main).is_empty());
        assert!(fire(RuleId::EqRepP, &main).is_empty());
    }
}
