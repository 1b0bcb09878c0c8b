//! The per-iteration property-table update of Figure 5.
//!
//! After all rules have fired, every property table that received inferred
//! pairs is updated in two linear steps:
//!
//! 1. the inferred pairs are sorted on ⟨s,o⟩ and deduplicated (one call to
//!    the low-entropy kernels of `inferray-sort`);
//! 2. *main* and *inferred* are merged list-wise: pairs already in *main*
//!    are skipped (second layer of duplicate elimination), pairs that are
//!    genuinely new are appended both to the updated *main* and to *new*,
//!    which seeds the next fixed-point iteration.
//!
//! "The time complexity of the whole process is linear as both lists are
//! sorted."
//!
//! ## Adaptivity
//!
//! Linear is the right *complexity*, but the seed implementation always
//! rebuilt the whole merged vector — O(|main|) allocation and copying even
//! when the delta was a handful of pairs, or when, as in the last iteration
//! of every run, **nothing** in it was new. [`merge_new_pairs_with`]
//! therefore never rebuilds. After the sort it (reported in
//! [`MergeOutcome::strategy`]):
//!
//! * [`MergeStrategy::Bootstrap`] / [`MergeStrategy::TailAppend`] — *main*
//!   is empty, or every inferred pair sorts after its last pair: adopt or
//!   extend in place, no merge at all;
//! * otherwise **classifies first**: each inferred pair is looked up in
//!   *main* by a galloping (exponential + binary) search from the previous
//!   position — O(log gap) per pair, so a handful of comparisons each at
//!   comparable sizes and O(|delta| · log) for a small delta — and the
//!   genuinely new pairs are compacted to the front of the inferred vector
//!   in place;
//! * a **fully duplicate** delta stops there ([`MergeStrategy::NoOp`]):
//!   *main* is untouched, its ⟨o,s⟩ cache survives and nothing was
//!   allocated — at every size ratio;
//! * the survivors are **merged backwards in place**
//!   ([`MergeStrategy::GallopSplice`],
//!   [`PropertyTable::splice_in_sorted`]): the vector grows by the number
//!   of new pairs and the old pairs between insertion points move as whole
//!   blocks (memmove), found by galloping down from the previous insertion
//!   point.
//!
//! The seed's rebuild survives in the test module as
//! `merge_new_pairs_rebuild`, the reference the property tests compare
//! against.
//!
//! Sorting scratch comes from a caller-provided
//! [`SortScratch`](inferray_sort::SortScratch), so the steady state
//! performs zero sort allocations (see `inferray-sort`).

use crate::property_table::PropertyTable;
use inferray_sort::{sort_pairs_auto_dedup_with, SortScratch};

/// How one merge was executed (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MergeStrategy {
    /// Nothing to merge (empty delta after dedup) or fully duplicate delta.
    #[default]
    NoOp,
    /// *main* was empty; the delta became the table.
    Bootstrap,
    /// Delta appended after the last pair of *main*.
    TailAppend,
    /// Galloping duplicate scan + backward in-place merge.
    GallopSplice,
}

/// Counters describing one merge (used by the access profile and the tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeOutcome {
    /// Pairs handed in by the rule executors, before any deduplication.
    pub inferred_raw: usize,
    /// Duplicates removed by the sort-dedup of the inferred buffer (step 1).
    pub duplicates_within_inferred: usize,
    /// Inferred pairs skipped because they were already in *main* (step 2).
    pub duplicates_against_main: usize,
    /// Genuinely new pairs added to *main* and *new*.
    pub new_pairs: usize,
    /// The execution strategy the adaptive merge chose.
    pub strategy: MergeStrategy,
}

/// Merges raw inferred pairs into `main` with a throwaway sort scratch.
/// Prefer [`merge_new_pairs_with`] on hot paths.
pub fn merge_new_pairs(
    main: &mut PropertyTable,
    inferred: Vec<u64>,
) -> (PropertyTable, MergeOutcome) {
    merge_new_pairs_with(main, inferred, &mut SortScratch::new())
}

/// Merges raw inferred pairs into `main`, returning the *new* table (the
/// pairs that were not previously in `main`) and the merge counters.
///
/// `main` must be finalized (sorted, duplicate-free); it is updated in place
/// and its ⟨o,s⟩ cache is invalidated when new pairs arrive, as required by
/// §4.2 ("in the case of receiving new triples in a property table, the
/// possibly existing ⟨o,s⟩ sorted cache is invalidated"). A merge that adds
/// nothing leaves `main` — and its cache — untouched and allocates nothing.
pub fn merge_new_pairs_with(
    main: &mut PropertyTable,
    mut inferred: Vec<u64>,
    scratch: &mut SortScratch,
) -> (PropertyTable, MergeOutcome) {
    assert!(
        inferred.len().is_multiple_of(2),
        "pair array must have even length"
    );
    let mut outcome = MergeOutcome {
        inferred_raw: inferred.len() / 2,
        ..MergeOutcome::default()
    };

    // Step 1: sort and deduplicate the inferred pairs (reused scratch).
    sort_pairs_auto_dedup_with(&mut inferred, scratch);
    outcome.duplicates_within_inferred = outcome.inferred_raw - inferred.len() / 2;
    if inferred.is_empty() {
        return (PropertyTable::new(), outcome);
    }

    // Step 2: the two shapes that need no merge, else classify and splice.
    let old = main.pairs();
    if old.is_empty() {
        outcome.strategy = MergeStrategy::Bootstrap;
        main.replace_with_sorted(inferred.clone());
    } else if (inferred[0], inferred[1]) > (old[old.len() - 2], old[old.len() - 1]) {
        outcome.strategy = MergeStrategy::TailAppend;
        main.append_sorted_suffix(&inferred);
    } else {
        outcome.duplicates_against_main = retain_absent(old, &mut inferred);
        if inferred.is_empty() {
            // Fully duplicate delta: nothing changes, the cache survives.
            return (PropertyTable::new(), outcome);
        }
        outcome.strategy = MergeStrategy::GallopSplice;
        main.splice_in_sorted(&inferred);
    }
    outcome.new_pairs = inferred.len() / 2;
    let mut new_table = PropertyTable::new();
    new_table.replace_with_sorted(inferred);
    (new_table, outcome)
}

/// Classifies the sorted, duplicate-free `inferred` against the sorted
/// `old`: the pairs absent from `old` are compacted to the front of
/// `inferred` (which is truncated to them), the others are counted and
/// returned. Each pair is located by galloping from the previous position.
fn retain_absent(old: &[u64], inferred: &mut Vec<u64>) -> usize {
    let n_old = old.len() / 2;
    let mut duplicates = 0usize;
    let mut cursor = 0usize;
    let mut write = 0usize;
    for read in (0..inferred.len()).step_by(2) {
        let key = (inferred[read], inferred[read + 1]);
        cursor = gallop_lower_bound(old, cursor, key);
        if cursor < n_old && (old[2 * cursor], old[2 * cursor + 1]) == key {
            duplicates += 1;
        } else {
            inferred[write] = key.0;
            inferred[write + 1] = key.1;
            write += 2;
        }
    }
    inferred.truncate(write);
    duplicates
}

/// First pair index `>= lo` whose pair is `>= key`, assuming `pairs` is
/// sorted; exponential probe from `lo` followed by a binary search of the
/// bracketed range. `lo` is the result of the previous search, which makes a
/// whole ascending delta scan O(Σ log(gap)) instead of O(n).
fn gallop_lower_bound(pairs: &[u64], mut lo: usize, key: (u64, u64)) -> usize {
    let n = pairs.len() / 2;
    let at = |i: usize| (pairs[2 * i], pairs[2 * i + 1]);
    if lo >= n || at(lo) >= key {
        return lo.min(n);
    }
    // Invariant from here on: at(lo) < key <= at(hi) (hi may be n).
    let mut step = 1usize;
    let mut hi;
    loop {
        let probe = lo + step;
        if probe >= n {
            hi = n;
            break;
        }
        if at(probe) < key {
            lo = probe;
            step *= 2;
        } else {
            hi = probe;
            break;
        }
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if at(mid) < key {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use inferray_sort::is_sorted_pairs;
    use proptest::prelude::*;

    #[test]
    fn paper_figure5_example() {
        // Main: (1,1) (1,8) (9,6) — Inferred: (4,3) (7,3) (2,1) (1,1) (1,2) (1,1)
        // After sort+dedup of inferred: (1,1) (1,2) (2,1) (4,3) (7,3)
        // New: everything except (1,1), which is already in main.
        let mut main = PropertyTable::from_pairs(vec![1, 1, 1, 8, 9, 6]);
        let inferred = vec![4, 3, 7, 3, 2, 1, 1, 1, 1, 2, 1, 1];
        let (new, outcome) = merge_new_pairs(&mut main, inferred);
        assert_eq!(new.pairs(), &[1, 2, 2, 1, 4, 3, 7, 3]);
        assert_eq!(main.pairs(), &[1, 1, 1, 2, 1, 8, 2, 1, 4, 3, 7, 3, 9, 6]);
        assert_eq!(outcome.inferred_raw, 6);
        assert_eq!(outcome.duplicates_within_inferred, 1);
        assert_eq!(outcome.duplicates_against_main, 1);
        assert_eq!(outcome.new_pairs, 4);
        assert_eq!(outcome.strategy, MergeStrategy::GallopSplice);
    }

    #[test]
    fn empty_inferred_changes_nothing() {
        let mut main = PropertyTable::from_pairs(vec![3, 3]);
        let before = main.pairs().to_vec();
        let (new, outcome) = merge_new_pairs(&mut main, vec![]);
        assert!(new.is_empty());
        assert_eq!(
            outcome,
            MergeOutcome {
                inferred_raw: 0,
                ..Default::default()
            }
        );
        assert_eq!(main.pairs(), &before[..]);
    }

    #[test]
    fn all_duplicates_produce_empty_new() {
        let mut main = PropertyTable::from_pairs(vec![1, 2, 3, 4]);
        let (new, outcome) = merge_new_pairs(&mut main, vec![3, 4, 1, 2, 1, 2]);
        assert!(new.is_empty());
        assert_eq!(outcome.new_pairs, 0);
        assert_eq!(outcome.duplicates_within_inferred, 1);
        assert_eq!(outcome.duplicates_against_main, 2);
        assert_eq!(main.len(), 2);
    }

    #[test]
    fn merge_into_empty_main() {
        let mut main = PropertyTable::new();
        let (new, outcome) = merge_new_pairs(&mut main, vec![5, 6, 1, 2]);
        assert_eq!(main.pairs(), &[1, 2, 5, 6]);
        assert_eq!(new.pairs(), &[1, 2, 5, 6]);
        assert_eq!(outcome.new_pairs, 2);
        assert_eq!(outcome.strategy, MergeStrategy::Bootstrap);
    }

    #[test]
    fn os_cache_is_invalidated_when_new_pairs_arrive() {
        let mut main = PropertyTable::from_pairs(vec![1, 2]);
        main.ensure_os();
        assert!(main.has_os_cache());
        let (_, outcome) = merge_new_pairs(&mut main, vec![9, 9]);
        assert_eq!(outcome.new_pairs, 1);
        assert!(!main.has_os_cache());
    }

    #[test]
    fn os_cache_survives_a_no_op_merge() {
        let mut main = PropertyTable::from_pairs(vec![1, 2]);
        main.ensure_os();
        let (_, outcome) = merge_new_pairs(&mut main, vec![1, 2]);
        assert_eq!(outcome.new_pairs, 0);
        assert!(main.has_os_cache(), "no new pair ⇒ cache can be kept");
    }

    // -- adaptive-path behaviour ------------------------------------------

    /// A 256-pair main table: (i, 10·i) for i in 0..256.
    fn big_main() -> PropertyTable {
        PropertyTable::from_pairs((0..256u64).flat_map(|i| [i, 10 * i]).collect())
    }

    #[test]
    fn small_fresh_delta_takes_the_gallop_splice_path() {
        let mut main = big_main();
        main.ensure_os();
        let (new, outcome) = merge_new_pairs(&mut main, vec![7, 5, 200, 1]);
        assert_eq!(outcome.strategy, MergeStrategy::GallopSplice);
        assert!(
            !main.has_os_cache(),
            "a splice adds pairs: the ⟨o,s⟩ cache must be invalidated"
        );
        assert_eq!(outcome.new_pairs, 2);
        assert_eq!(new.pairs(), &[7, 5, 200, 1]);
        assert_eq!(main.len(), 258);
        assert!(is_sorted_pairs(main.pairs()));
        assert!(main.contains_pair(7, 5));
        assert!(main.contains_pair(200, 1));
        assert!(main.contains_pair(7, 70), "pre-existing pairs survive");
    }

    #[test]
    fn fully_duplicate_small_delta_short_circuits() {
        let mut main = big_main();
        main.ensure_os();
        let before = main.pairs().to_vec();
        let (new, outcome) = merge_new_pairs(&mut main, vec![3, 30, 100, 1000, 3, 30]);
        assert_eq!(outcome.strategy, MergeStrategy::NoOp);
        assert_eq!(outcome.duplicates_against_main, 2);
        assert_eq!(outcome.duplicates_within_inferred, 1);
        assert!(new.is_empty());
        assert_eq!(main.pairs(), &before[..]);
        assert!(
            main.has_os_cache(),
            "short-circuit must keep the ⟨o,s⟩ cache"
        );
    }

    #[test]
    fn delta_past_the_end_takes_the_tail_append_path() {
        let mut main = big_main();
        main.ensure_os();
        let (new, outcome) = merge_new_pairs(&mut main, vec![999, 1, 500, 2]);
        assert_eq!(outcome.strategy, MergeStrategy::TailAppend);
        assert!(
            !main.has_os_cache(),
            "a tail append adds pairs: the ⟨o,s⟩ cache must be invalidated"
        );
        assert_eq!(outcome.new_pairs, 2);
        assert_eq!(new.pairs(), &[500, 2, 999, 1]);
        assert!(is_sorted_pairs(main.pairs()));
        assert_eq!(main.len(), 258);
    }

    #[test]
    fn gallop_lower_bound_agrees_with_linear_scan() {
        let pairs: Vec<u64> = (0..64u64).flat_map(|i| [i / 2, i % 5]).collect();
        let mut sorted = pairs.clone();
        inferray_sort::sort_pairs_auto(&mut sorted);
        let n = sorted.len() / 2;
        for lo in 0..=n {
            for key in [(0u64, 0u64), (3, 1), (15, 4), (31, 2), (99, 0)] {
                let expected = (lo..n)
                    .find(|&i| (sorted[2 * i], sorted[2 * i + 1]) >= key)
                    .unwrap_or(n)
                    .max(lo);
                assert_eq!(
                    gallop_lower_bound(&sorted, lo, key),
                    expected,
                    "lo = {lo}, key = {key:?}"
                );
            }
        }
    }

    /// The seed's always-rebuild merge, the reference the adaptive merge is
    /// compared against: the raw pairs are sorted and deduplicated with a
    /// throwaway scratch, then merged with `main` into a fresh vector. Its
    /// outcome leaves `strategy` at its default.
    fn merge_new_pairs_rebuild(
        main: &mut PropertyTable,
        mut inferred: Vec<u64>,
    ) -> (PropertyTable, MergeOutcome) {
        let mut outcome = MergeOutcome {
            inferred_raw: inferred.len() / 2,
            ..MergeOutcome::default()
        };
        inferray_sort::sort_pairs_auto_dedup(&mut inferred);
        outcome.duplicates_within_inferred = outcome.inferred_raw - inferred.len() / 2;
        let old = main.pairs();
        let mut merged = Vec::with_capacity(old.len() + inferred.len());
        let mut fresh = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < old.len() && j < inferred.len() {
            let (a, b) = (&old[i..i + 2], &inferred[j..j + 2]);
            match a.cmp(b) {
                std::cmp::Ordering::Less => {
                    merged.extend_from_slice(a);
                    i += 2;
                }
                std::cmp::Ordering::Greater => {
                    merged.extend_from_slice(b);
                    fresh.extend_from_slice(b);
                    j += 2;
                }
                std::cmp::Ordering::Equal => {
                    merged.extend_from_slice(a);
                    outcome.duplicates_against_main += 1;
                    i += 2;
                    j += 2;
                }
            }
        }
        merged.extend_from_slice(&old[i..]);
        merged.extend_from_slice(&inferred[j..]);
        fresh.extend_from_slice(&inferred[j..]);
        outcome.new_pairs = fresh.len() / 2;
        main.replace_with_sorted(merged);
        let mut new_table = PropertyTable::new();
        new_table.replace_with_sorted(fresh);
        (new_table, outcome)
    }

    thread_local! {
        /// One scratch for every case of a proptest run, so that whatever a
        /// sort leaves behind in it meets the next case's input.
        static SCRATCH: std::cell::RefCell<SortScratch> =
            std::cell::RefCell::new(SortScratch::new());
    }

    proptest! {
        #[test]
        fn prop_merge_semantics(
            main_pairs in proptest::collection::vec(0u64..30, 0..60),
            mut inferred in proptest::collection::vec(0u64..30, 0..60),
        ) {
            let mut main_pairs = main_pairs;
            if main_pairs.len() % 2 == 1 { main_pairs.pop(); }
            if inferred.len() % 2 == 1 { inferred.pop(); }

            let mut main = PropertyTable::from_pairs(main_pairs.clone());
            let before: std::collections::BTreeSet<(u64, u64)> = main.iter_pairs().collect();
            let inferred_set: std::collections::BTreeSet<(u64, u64)> =
                inferred.chunks_exact(2).map(|p| (p[0], p[1])).collect();

            let (new, outcome) = merge_new_pairs(&mut main, inferred);

            let after: std::collections::BTreeSet<(u64, u64)> = main.iter_pairs().collect();
            let new_set: std::collections::BTreeSet<(u64, u64)> = new.iter_pairs().collect();

            // main' = main ∪ inferred, new = inferred \ main, all sorted/deduped.
            let expected_after: std::collections::BTreeSet<(u64, u64)> =
                before.union(&inferred_set).copied().collect();
            let expected_new: std::collections::BTreeSet<(u64, u64)> =
                inferred_set.difference(&before).copied().collect();
            prop_assert_eq!(&after, &expected_after);
            prop_assert_eq!(&new_set, &expected_new);
            prop_assert!(is_sorted_pairs(main.pairs()));
            prop_assert!(is_sorted_pairs(new.pairs()));
            prop_assert_eq!(outcome.new_pairs, expected_new.len());
        }

        /// The adaptive merge must be observationally identical to the seed
        /// rebuild merge — same updated main, same new table, same counters
        /// — across delta-to-main size ratios that hit every strategy.
        #[test]
        fn prop_adaptive_equals_rebuild(
            main_pairs in proptest::collection::vec((0u64..200, 0u64..8), 0..120),
            delta in proptest::collection::vec((0u64..260, 0u64..8), 0..12),
        ) {
            let flat_main: Vec<u64> = main_pairs.iter().flat_map(|&(s, o)| [s, o]).collect();
            let flat_delta: Vec<u64> = delta.iter().flat_map(|&(s, o)| [s, o]).collect();

            let mut adaptive_main = PropertyTable::from_pairs(flat_main.clone());
            let mut rebuild_main = PropertyTable::from_pairs(flat_main);

            let mut scratch = SortScratch::new();
            let (adaptive_new, adaptive_outcome) =
                merge_new_pairs_with(&mut adaptive_main, flat_delta.clone(), &mut scratch);
            let (rebuild_new, rebuild_outcome) =
                merge_new_pairs_rebuild(&mut rebuild_main, flat_delta);

            prop_assert_eq!(adaptive_main.pairs(), rebuild_main.pairs());
            prop_assert_eq!(adaptive_new.pairs(), rebuild_new.pairs());
            prop_assert_eq!(adaptive_outcome.inferred_raw, rebuild_outcome.inferred_raw);
            prop_assert_eq!(
                adaptive_outcome.duplicates_within_inferred,
                rebuild_outcome.duplicates_within_inferred
            );
            prop_assert_eq!(
                adaptive_outcome.duplicates_against_main,
                rebuild_outcome.duplicates_against_main
            );
            prop_assert_eq!(adaptive_outcome.new_pairs, rebuild_outcome.new_pairs);
        }

        /// The in-place merge against the rebuild reference at every size
        /// ratio — delta a fraction of main, comparable, and larger — with
        /// the sort scratch reused across the cases of the run.
        #[test]
        fn prop_in_place_merge_equals_rebuild_at_every_size_ratio(
            main_pairs in proptest::collection::vec((0u64..90, 0u64..6), 0..200),
            delta in proptest::collection::vec((0u64..100, 0u64..6), 0..400),
        ) {
            let flat_main: Vec<u64> = main_pairs.iter().flat_map(|&(s, o)| [s, o]).collect();
            let flat_delta: Vec<u64> = delta.iter().flat_map(|&(s, o)| [s, o]).collect();
            let mut in_place_main = PropertyTable::from_pairs(flat_main.clone());
            let mut rebuild_main = PropertyTable::from_pairs(flat_main);

            let (in_place_new, in_place) = SCRATCH.with_borrow_mut(|scratch| {
                merge_new_pairs_with(&mut in_place_main, flat_delta.clone(), scratch)
            });
            let (rebuild_new, rebuild) = merge_new_pairs_rebuild(&mut rebuild_main, flat_delta);

            prop_assert_eq!(in_place_main.pairs(), rebuild_main.pairs());
            prop_assert_eq!(in_place_new.pairs(), rebuild_new.pairs());
            prop_assert_eq!(MergeOutcome { strategy: rebuild.strategy, ..in_place }, rebuild);
            prop_assert!(in_place_main.debug_validate().is_ok());
        }

        /// A delta of comparable size that repeats pairs of main (in any
        /// order, any multiplicity) adds nothing: main keeps its buffer —
        /// no reallocation, no rewrite — and its ⟨o,s⟩ cache.
        #[test]
        fn prop_fully_duplicate_delta_leaves_buffer_and_cache_untouched(
            main_pairs in proptest::collection::vec((0u64..60, 0u64..6), 1..150),
            picks in proptest::collection::vec(0usize..1000, 1..300),
        ) {
            let flat_main: Vec<u64> = main_pairs.iter().flat_map(|&(s, o)| [s, o]).collect();
            let mut main = PropertyTable::from_pairs(flat_main);
            let delta: Vec<u64> = picks
                .iter()
                .flat_map(|&i| {
                    let at = 2 * (i % main.len());
                    [main.pairs()[at], main.pairs()[at + 1]]
                })
                .collect();
            let before = main.pairs().to_vec();
            let buffer = main.pairs().as_ptr();
            let cache = main.object_pairs().as_ptr();

            let (new, outcome) = merge_new_pairs(&mut main, delta);

            prop_assert!(new.is_empty());
            prop_assert_eq!(outcome.strategy, MergeStrategy::NoOp);
            prop_assert_eq!(outcome.new_pairs, 0);
            prop_assert_eq!(
                outcome.duplicates_within_inferred + outcome.duplicates_against_main,
                picks.len()
            );
            prop_assert_eq!(main.pairs(), &before[..]);
            prop_assert_eq!(main.pairs().as_ptr(), buffer);
            prop_assert_eq!(main.os_pairs().map(<[u64]>::as_ptr), Some(cache));
        }
    }
}
