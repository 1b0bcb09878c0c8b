//! The `owl:sameAs` replacement rules EQ-REP-S and EQ-REP-O.
//!
//! "The four same-as rules generate a significant number of triples.
//! Choosing the base table for joining is obvious — since the second triple
//! patterns select the entire database. Inferray handles the four rules with
//! a single loop, iterating over the same-as property table" (§4.4). The
//! executors below follow that plan: the outer loop walks the `owl:sameAs`
//! pairs, the inner loop walks the property tables of the complementary
//! store. The other two run their text: EQ-SYM, a single-antecedent rule,
//! and EQ-REP-P, whose sameAs pair names the data table it copies — the
//! table-scan shape ([`crate::analysis::Lowering::TableScan`]).

use crate::context::RuleContext;
use inferray_dictionary::wellknown;
use inferray_store::{InferredBuffer, TripleStore};

/// The two semi-naive passes over the sameAs pairs: the new pairs against
/// the main data, then — unless the frontier is the whole store — all pairs
/// against the new data. A pass hands over its pairs as one list, sorted on
/// the first component (⟨s,o⟩ order) and without the reflexive ones.
fn for_same_as_lists(
    ctx: &RuleContext<'_>,
    out: &mut InferredBuffer,
    mut handle: impl FnMut(&[(u64, u64)], &TripleStore, &mut InferredBuffer),
) {
    let links = |store: &TripleStore| -> Vec<(u64, u64)> {
        store
            .table(wellknown::OWL_SAME_AS)
            .map_or_else(Vec::new, |table| {
                table.iter_pairs().filter(|(a, b)| a != b).collect()
            })
    };
    handle(&links(ctx.new), ctx.main, out);
    if !ctx.is_whole() {
        handle(&links(ctx.main), ctx.new, out);
    }
}

/// EQ-REP-S: `s1 sameAs s2, s1 p o ⇒ s2 p o`.
pub fn eq_rep_s(ctx: &RuleContext<'_>, out: &mut InferredBuffer) {
    for_same_as_lists(ctx, out, |links, data, out| {
        for &(s1, s2) in links {
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
        }
    });
}

/// EQ-REP-O: `o1 sameAs o2, s p o1 ⇒ s p o2`.
///
/// The rule looks every table up from the object side, but only for the
/// handful of terms that are sameAs subjects: it reads a table's ⟨o,s⟩
/// cache when some join already built it and otherwise sweeps ⟨s,o⟩ once
/// for all of them — it never *starts* a cache build (the same choice as
/// [`RuleContext::subjects_with_object`]).
pub fn eq_rep_o(ctx: &RuleContext<'_>, out: &mut InferredBuffer) {
    let mut found = Vec::new();
    for_same_as_lists(ctx, out, |links, data, out| {
        if links.is_empty() {
            return;
        }
        // One bit per value of a sameAs subject's low 16 bits. Identifiers
        // are dense, so the subjects spread evenly over the bits and nearly
        // every object of a swept table is turned away on one load — a
        // binary search in `links` per object costs what sorting the table
        // would have (10 ms either way on LUBM-500k, 1 ms behind the filter).
        let mut filter = [0u64; 1024];
        let bit = |o: u64| ((o >> 6) as usize % 1024, 1u64 << (o % 64));
        for &(o1, _) in links {
            let (word, mask) = bit(o1);
            filter[word] |= mask;
        }
        for (p, table) in data.iter_tables() {
            if table.has_os_cache() {
                // Sorted on (object, subject): one run per sameAs subject.
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
                out.table_mut(p).extend_from_slice(&found);
                found.clear();
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executors::test_support::{derive, fire, store};
    use crate::RuleId;
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
        let swept = derive(&main, eq_rep_o);
        assert!(
            main.iter_tables().all(|(_, table)| !table.has_os_cache()),
            "a handful of sameAs subjects start no cache build"
        );
        main.ensure_all_os();
        assert_eq!(derive(&main, eq_rep_o), swept, "same pairs from the runs");
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
        assert!(derive(&main, eq_rep_s).is_empty());
        assert!(derive(&main, eq_rep_o).is_empty());
    }

    #[test]
    fn no_same_as_table_derives_nothing() {
        let knows = prop(0);
        let main = store(&[(ALICE, knows, BOB)]);
        assert!(derive(&main, eq_rep_s).is_empty());
        assert!(derive(&main, eq_rep_o).is_empty());
        assert!(fire(RuleId::EqRepP, &main).is_empty());
    }
}
