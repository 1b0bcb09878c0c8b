//! The substitution kernel: the shape of the same-as rules EQ-REP-S and
//! EQ-REP-O ([`crate::analysis::Lowering::Substitution`]).
//!
//! "The four same-as rules generate a significant number of triples.
//! Choosing the base table for joining is obvious — since the second triple
//! patterns select the entire database. Inferray handles the four rules with
//! a single loop, iterating over the same-as property table" (§4.4). The
//! kernel follows that plan for any rule of the shape: the outer loop walks
//! the links, the inner loop the property tables of the complementary
//! store. Against a frontier smaller than the link table — a live write's
//! few new triples — the loop turns around: each frontier pair looks up its
//! links. EQ-SYM runs the nested loop and EQ-REP-P the table scan.

use super::join::JoinSide;
use crate::analysis::Substitution;
use crate::context::RuleContext;
use inferray_store::{as_pairs, gallop, InferredBuffer, TripleStore};

/// Runs a substitution rule: the new links against the main data, then —
/// unless the frontier is the whole store — all links against the new data,
/// driven from the frontier when it is the smaller side.
pub(crate) fn apply_substitution(
    plan: &Substitution,
    ctx: &RuleContext<'_>,
    out: &mut InferredBuffer,
) {
    let mut found = Vec::new();
    substitute_links(plan, ctx.new, ctx.main, &mut found, out);
    if !ctx.is_whole() && !substitute_from_frontier(plan, ctx.main, ctx.new, out) {
        substitute_links(plan, ctx.main, ctx.new, &mut found, out);
    }
}

/// All links of `link_store` against the tables of `data`, driven from the
/// links: they are collected and sorted once, then walk every table.
fn substitute_links(
    plan: &Substitution,
    link_store: &TripleStore,
    data: &TripleStore,
    found: &mut Vec<u64>,
    out: &mut InferredBuffer,
) {
    let links = links(link_store, plan.link);
    if !links.is_empty() {
        match plan.data {
            JoinSide::Subject => substitute_subjects(&links, data, out),
            JoinSide::Object => substitute_objects(&links, data, found, out),
        }
    }
}

/// All links of `link_store` against the `frontier`, driven from the
/// frontier: each frontier pair looks up the links of its shared end, in
/// place of collecting and sorting every link to meet a handful of pairs.
/// The same pairs as [`substitute_links`], in another order. Runs when the
/// frontier holds fewer pairs than the link table and the table can be read
/// from the shared end as it stands — its subject runs, or the runs of an
/// ⟨o,s⟩ cache some reader already built (this never starts a build);
/// returns `false`, having emitted nothing, otherwise.
fn substitute_from_frontier(
    plan: &Substitution,
    link_store: &TripleStore,
    frontier: &TripleStore,
    out: &mut InferredBuffer,
) -> bool {
    let (p, shared) = plan.link;
    let Some(table) = link_store.table(p) else {
        return true; // no link, nothing to substitute
    };
    let readable = shared == JoinSide::Subject || table.has_os_cache();
    if frontier.len() >= table.len() || !readable {
        return false;
    }
    // The links of `term`, as runs `[term, replacement], …`.
    let links_of = |term: u64| match shared {
        JoinSide::Subject => table.subject_run(term),
        JoinSide::Object => table.object_run(term).unwrap_or_default(),
    };
    for (q, data) in frontier.iter_tables() {
        let out = out.table_mut(q);
        for (s, o) in data.iter_pairs() {
            let term = if plan.data == JoinSide::Subject { s } else { o };
            for &[_, replacement] in links_of(term) {
                if replacement == term {
                    continue; // a reflexive link substitutes a term for itself
                }
                out.extend_from_slice(&match plan.data {
                    JoinSide::Subject => [replacement, o],
                    JoinSide::Object => [s, replacement],
                });
            }
        }
    }
    true
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
        let (pairs, out) = (as_pairs(table.pairs()), out.table_mut(p));
        let mut at = 0usize;
        for &(shared, replacement) in links {
            at = gallop(pairs, at, |p| p[0] < shared);
            if at == pairs.len() {
                break;
            }
            let end = gallop(pairs, at, |p| p[0] <= shared);
            out.reserve(2 * (end - at));
            for &[_, o] in &pairs[at..end] {
                out.extend_from_slice(&[replacement, o]);
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
                for &[_, s] in table.object_run(o1).unwrap_or_default() {
                    found.extend_from_slice(&[s, o2]);
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
    use super::{substitute_from_frontier, substitute_links};
    use crate::analysis::{apply_compiled, compiled_builtin, Substitution};
    use crate::executors::join::JoinSide;
    use crate::executors::test_support::{buffer_to_set, fire, store};
    use crate::{RuleContext, RuleId};
    use inferray_dictionary::wellknown as wk;
    use inferray_model::ids::nth_property_id;
    use inferray_store::{as_pairs, InferredBuffer};

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

    /// A xorshift stream: many store shapes for the law below, no
    /// dependency.
    struct Stream(u64);

    impl Stream {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    /// The raw pairs of `out`, as a sorted multiset.
    fn multiset(out: &InferredBuffer) -> Vec<(u64, u64, u64)> {
        let mut triples: Vec<_> = out
            .iter()
            .flat_map(|(p, pairs)| as_pairs(pairs).iter().map(move |&[s, o]| (s, p, o)))
            .collect();
        triples.sort_unstable();
        triples
    }

    /// The frontier-driven pass emits the links-driven pass's raw pairs,
    /// multiplicity included, for subject- and object-side links, link
    /// tables with and without a built ⟨o,s⟩ cache, reflexive links, and
    /// frontiers on both sides of the size switch; where it cannot read the
    /// link table from the shared end, or the frontier is not the smaller
    /// side, it emits nothing and hands the pass back.
    #[test]
    fn the_frontier_driven_pass_emits_the_links_driven_pairs() {
        let (link, data_tables) = (wk::OWL_SAME_AS, [prop(0), prop(1)]);
        let mut runs = [0usize; 2]; // passes handed back, passes driven
        for seed in 1..=400u64 {
            let mut rng = Stream(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let term = |rng: &mut Stream| ALICE + rng.below(10);
            let mut links = vec![(ALICE, link, ALICE)];
            for _ in 0..1 + rng.below(14) {
                links.push((term(&mut rng), link, term(&mut rng)));
            }
            let mut data = Vec::new();
            for _ in 0..rng.below(24) {
                let p = data_tables[rng.below(2) as usize];
                data.push((term(&mut rng), p, term(&mut rng)));
            }
            // The frontier: data triples and, now and then, links.
            let mut frontier = Vec::new();
            for _ in 0..rng.below(2 * links.len() as u64 + 2) {
                let p = [link, data_tables[0], data_tables[1]][rng.below(3) as usize];
                frontier.push((term(&mut rng), p, term(&mut rng)));
            }
            let mut main = store(&[links, data, frontier.clone()].concat());
            let cached = rng.below(2) == 0;
            if cached {
                main.ensure_all_os();
            }
            let new = store(&frontier);
            let link_pairs = main.table(link).map_or(0, |t| t.len());
            for shared in [JoinSide::Subject, JoinSide::Object] {
                for data in [JoinSide::Subject, JoinSide::Object] {
                    let plan = Substitution {
                        link: (link, shared),
                        data,
                    };
                    let mut by_links = InferredBuffer::new();
                    substitute_links(&plan, &main, &new, &mut Vec::new(), &mut by_links);
                    let mut by_frontier = InferredBuffer::new();
                    let driven = substitute_from_frontier(&plan, &main, &new, &mut by_frontier);
                    let readable = shared == JoinSide::Subject || cached;
                    assert_eq!(driven, new.len() < link_pairs && readable, "seed {seed}");
                    if driven {
                        assert_eq!(multiset(&by_frontier), multiset(&by_links), "seed {seed}");
                    } else {
                        assert!(by_frontier.is_empty(), "seed {seed}");
                    }
                    runs[usize::from(driven)] += 1;
                }
            }
        }
        assert!(
            runs.iter().all(|&n| n > 200),
            "both sides exercised: {runs:?}"
        );
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
