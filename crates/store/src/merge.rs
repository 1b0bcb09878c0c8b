//! The per-iteration property-table update of Figure 5.
//!
//! After all rules have fired, every property table that received inferred
//! pairs is updated in two linear steps:
//!
//! 1. the inferred pairs are sorted on ⟨s,o⟩ and deduplicated (one call to
//!    the low-entropy kernels of `inferray-sort`) — where they lie: they
//!    arrive as one part per rule that emitted them
//!    ([`merge_new_parts_with`]), and the kernel sorts the parts without
//!    first copying them into one vector;
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
//!   allocated — at every size ratio. *main* is only read up to here
//!   ([`MergeTarget`]), so a table a store shares with an earlier epoch is
//!   not even copied;
//! * the survivors are **merged backwards in place**
//!   ([`MergeStrategy::GallopSplice`],
//!   [`PropertyTable::splice_in_sorted`]): the vector grows by the number
//!   of new pairs and the old pairs between insertion points move as whole
//!   blocks (memmove), found by galloping down from the previous insertion
//!   point.
//!
//! A *main* that another epoch still holds is never written: the tail
//! append and the splice then build the changed table in one forward pass
//! beside it ([`MergeTarget`]), and leave the same pairs, cache and counters.
//!
//! A tail append or splice that is small against *main* keeps a built
//! ⟨o,s⟩ cache, patched with the same kernel; a larger one drops it
//! ([`crate::property_table::KEEP_OS_CACHE_DIVISOR`]).
//!
//! ## One table, many lanes
//!
//! [`merge_new_parts_ranged`] gives the same result as
//! [`merge_new_parts_with`] (within the counting kernel's operating range) — updated *main*, new table, counters, strategy
//! and ⟨o,s⟩ cache state — with the sort, the classification and the merge
//! split by subject range across the lanes of a pool
//! ([`inferray_sort::ranged`]). *main* is then rebuilt rather than spliced:
//! each lane writes its range of the union at its final offset.
//!
//! The seed's rebuild survives in the test module as
//! `merge_new_pairs_rebuild`, the reference the property tests compare
//! against; `tests/parts_merge.rs` holds the parts merge to the merge of
//! their concatenation.
//!
//! Sorting scratch comes from a caller-provided
//! [`SortScratch`], so the steady state
//! performs zero sort allocations (see `inferray-sort`).

use crate::property_table::PropertyTable;
use inferray_sort::pairs::{as_pairs, as_pairs_mut, gallop, Pair};
use inferray_sort::{
    merge_parts_ranged, sort_pairs_auto_dedup_with, sort_parts_auto_dedup_with, Lanes, RangedMerge,
    SortScratch,
};
use std::sync::Arc;

/// The *main* table a merge updates: read through `&`, written only once a
/// pair is new. A plain [`PropertyTable`] is written in place. An `Arc` of
/// one — a table a [`TripleStore`](crate::TripleStore) shares with other
/// epochs — is written in place when no one else holds it, as in a batch
/// run. A shared one is left as it is and replaced, on that first write, by
/// the changed table built in one pass (`PropertyTable::with_sorted`,
/// `PropertyTable::without_pairs`; a ranged merge's merged pairs move into
/// it as they are, `PropertyTable::with_merged`): its pairs and its kept
/// ⟨o,s⟩ cache are each written once, rather than copied whole and then
/// spliced. A merge that adds nothing, or a removal that finds nothing,
/// copies nothing.
pub trait MergeTarget {
    /// The table as it stands.
    fn get(&self) -> &PropertyTable;
    /// The table, ready to be written.
    fn get_mut(&mut self) -> &mut PropertyTable;

    /// [`PropertyTable::append_sorted_suffix`] on the table.
    fn append_sorted_suffix(&mut self, pairs: &[u64]) {
        self.get_mut().append_sorted_suffix(pairs);
    }

    /// [`PropertyTable::splice_in_sorted`] on the table.
    fn splice_in_sorted(&mut self, fresh: &[u64]) {
        self.get_mut().splice_in_sorted(fresh);
    }

    /// [`PropertyTable::remove_pairs`] on the table.
    fn remove_pairs(&mut self, remove: &[u64]) -> usize {
        self.get_mut().remove_pairs(remove)
    }

    /// [`PropertyTable::install_merged`] on the table.
    fn install_merged(&mut self, merged: Vec<u64>, fresh: &[u64]) {
        self.get_mut().install_merged(merged, fresh);
    }
}

impl MergeTarget for PropertyTable {
    fn get(&self) -> &PropertyTable {
        self
    }

    fn get_mut(&mut self) -> &mut PropertyTable {
        self
    }
}

impl MergeTarget for Arc<PropertyTable> {
    fn get(&self) -> &PropertyTable {
        self
    }

    fn get_mut(&mut self) -> &mut PropertyTable {
        Arc::make_mut(self)
    }

    fn append_sorted_suffix(&mut self, pairs: &[u64]) {
        match Arc::get_mut(self) {
            Some(table) => table.append_sorted_suffix(pairs),
            None if pairs.is_empty() => {}
            None => *self = Arc::new(self.with_sorted(pairs)),
        }
    }

    fn splice_in_sorted(&mut self, fresh: &[u64]) {
        match Arc::get_mut(self) {
            Some(table) => table.splice_in_sorted(fresh),
            None if fresh.is_empty() => {}
            None => *self = Arc::new(self.with_sorted(fresh)),
        }
    }

    fn remove_pairs(&mut self, remove: &[u64]) -> usize {
        if let Some(table) = Arc::get_mut(self) {
            return table.remove_pairs(remove);
        }
        let Some((table, removed)) = self.without_pairs(remove) else {
            return 0;
        };
        *self = Arc::new(table);
        removed
    }

    fn install_merged(&mut self, merged: Vec<u64>, fresh: &[u64]) {
        match Arc::get_mut(self) {
            Some(table) => table.install_merged(merged, fresh),
            None => *self = Arc::new(self.with_merged(merged, fresh)),
        }
    }
}

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
    main: &mut impl MergeTarget,
    inferred: Vec<u64>,
) -> (PropertyTable, MergeOutcome) {
    merge_new_pairs_with(main, inferred, &mut SortScratch::new())
}

/// Merges raw inferred pairs into `main`, returning the *new* table (the
/// pairs that were not previously in `main`) and the merge counters.
///
/// `main` is finalized first if it is dirty, then updated in place. When
/// new pairs arrive its ⟨o,s⟩ cache is invalidated, as §4.2 requires ("in
/// the case of receiving new triples in a property table, the possibly
/// existing ⟨o,s⟩ sorted cache is invalidated"), unless they are few
/// enough to patch it (module docs). A merge that adds nothing leaves
/// `main` — and its cache — untouched and allocates nothing.
pub fn merge_new_pairs_with(
    main: &mut impl MergeTarget,
    mut inferred: Vec<u64>,
    scratch: &mut SortScratch,
) -> (PropertyTable, MergeOutcome) {
    assert!(
        inferred.len().is_multiple_of(2),
        "pair array must have even length"
    );
    let outcome = MergeOutcome {
        inferred_raw: as_pairs(&inferred).len(),
        ..MergeOutcome::default()
    };

    // Step 1: sort and deduplicate the inferred pairs (reused scratch).
    sort_pairs_auto_dedup_with(&mut inferred, scratch);
    merge_sorted(main, inferred, outcome, scratch)
}

/// [`merge_new_pairs_with`] over the raw pairs of several rules at once, one
/// part per rule: the same updated `main`, the same new table and the same
/// counters as merging the parts' concatenation — without building it. The
/// parts are sorted and deduplicated where they lie
/// ([`sort_parts_auto_dedup_with`]); a single part takes
/// [`merge_new_pairs_with`] itself.
///
/// # Panics
/// Panics if a part has odd length.
pub fn merge_new_parts_with(
    main: &mut impl MergeTarget,
    mut parts: Vec<Vec<u64>>,
    scratch: &mut SortScratch,
) -> (PropertyTable, MergeOutcome) {
    if parts.len() == 1 {
        let pairs = parts.pop().expect("one part");
        return merge_new_pairs_with(main, pairs, scratch);
    }
    let outcome = MergeOutcome {
        inferred_raw: parts.iter().map(|part| as_pairs(part).len()).sum(),
        ..MergeOutcome::default()
    };
    let inferred = sort_parts_auto_dedup_with(parts, scratch);
    merge_sorted(main, inferred, outcome, scratch)
}

/// [`merge_new_parts_with`] split by subject range across `lanes`, one range
/// per scratch of `scratches` ([`inferray_sort::ranged`]): the same updated
/// `main`, the same new table, the same counters, strategy included, and
/// the same ⟨o,s⟩ cache state — a built cache is patched when the new pairs
/// are few against `main` and dropped otherwise, as the splice does.
///
/// Hands the parts back, `main` finalized and otherwise untouched, when
/// the counting kernel is not the one the §5.4 rule picks for them (or they
/// hold no pair): the caller merges them with [`merge_new_parts_with`].
///
/// # Panics
/// Panics if `scratches` is empty or a part has odd length.
pub fn merge_new_parts_ranged(
    main: &mut impl MergeTarget,
    parts: Vec<Vec<u64>>,
    scratches: &mut [SortScratch],
    lanes: &impl Lanes,
) -> Result<(PropertyTable, MergeOutcome), Vec<Vec<u64>>> {
    let mut outcome = MergeOutcome {
        inferred_raw: parts.iter().map(|part| as_pairs(part).len()).sum(),
        ..MergeOutcome::default()
    };
    if main.get().is_dirty() {
        main.get_mut().finalize_with(&mut scratches[0]);
    }
    let RangedMerge {
        distinct,
        duplicates_against_main,
        first,
        fresh,
        merged,
    } = merge_parts_ranged(parts, main.get().pairs(), scratches, lanes)?;
    outcome.duplicates_within_inferred = outcome.inferred_raw - distinct;
    let Some(first) = first else {
        return Ok((PropertyTable::new(), outcome));
    };
    // The strategy the in-place merge picks for the same pairs.
    let old = as_pairs(main.get().pairs());
    outcome.strategy = if old.is_empty() {
        MergeStrategy::Bootstrap
    } else if old.last().is_some_and(|&[s, o]| first > (s, o)) {
        MergeStrategy::TailAppend
    } else {
        outcome.duplicates_against_main = duplicates_against_main;
        if fresh.is_empty() {
            return Ok((PropertyTable::new(), outcome));
        }
        MergeStrategy::GallopSplice
    };
    outcome.new_pairs = as_pairs(&fresh).len();
    main.install_merged(merged, &fresh);
    let mut new_table = PropertyTable::new();
    new_table.replace_with_sorted(fresh);
    Ok((new_table, outcome))
}

/// Step 2 of the merge, from `inferred` sorted and duplicate-free and an
/// `outcome` that counts its raw pairs.
fn merge_sorted(
    main: &mut impl MergeTarget,
    mut inferred: Vec<u64>,
    mut outcome: MergeOutcome,
    scratch: &mut SortScratch,
) -> (PropertyTable, MergeOutcome) {
    outcome.duplicates_within_inferred = outcome.inferred_raw - as_pairs(&inferred).len();
    if main.get().is_dirty() {
        main.get_mut().finalize_with(scratch);
    }
    if inferred.is_empty() {
        return (PropertyTable::new(), outcome);
    }

    // Step 2: the two shapes that need no merge, else classify and splice.
    let old = as_pairs(main.get().pairs());
    if old.is_empty() {
        outcome.strategy = MergeStrategy::Bootstrap;
        main.get_mut().replace_with_sorted(inferred.clone());
    } else if as_pairs(&inferred).first() > old.last() {
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
    outcome.new_pairs = as_pairs(&inferred).len();
    let mut new_table = PropertyTable::new();
    new_table.replace_with_sorted(inferred);
    (new_table, outcome)
}

/// Classifies the sorted, duplicate-free `inferred` against the sorted
/// `old`: the pairs absent from `old` are compacted to the front of
/// `inferred` (which is truncated to them), the others are counted and
/// returned. Each pair is located by galloping from the previous position.
fn retain_absent(old: &[Pair], inferred: &mut Vec<u64>) -> usize {
    let view = as_pairs_mut(inferred);
    let mut cursor = 0usize;
    let mut write = 0usize;
    for read in 0..view.len() {
        let key = view[read];
        cursor = gallop(old, cursor, |p| *p < key);
        if old.get(cursor) != Some(&key) {
            view[write] = key;
            write += 1;
        }
    }
    let duplicates = view.len() - write;
    inferred.truncate(2 * write);
    duplicates
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

    /// The ⟨o,s⟩ cache of `main` is built and equal to a rebuild.
    fn assert_cache_kept_and_rebuilt(main: &PropertyTable) {
        let kept = main.os_pairs().expect("a small change keeps the cache");
        let mut rebuilt = PropertyTable::from_pairs(main.pairs().to_vec());
        rebuilt.ensure_os();
        assert_eq!(Some(kept), rebuilt.os_pairs());
    }

    #[test]
    fn small_fresh_delta_takes_the_gallop_splice_path() {
        let mut main = big_main();
        main.ensure_os();
        let (new, outcome) = merge_new_pairs(&mut main, vec![7, 5, 200, 1]);
        assert_eq!(outcome.strategy, MergeStrategy::GallopSplice);
        assert_cache_kept_and_rebuilt(&main);
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
        assert_cache_kept_and_rebuilt(&main);
        assert_eq!(outcome.new_pairs, 2);
        assert_eq!(new.pairs(), &[500, 2, 999, 1]);
        assert!(is_sorted_pairs(main.pairs()));
        assert_eq!(main.len(), 258);
    }

    #[test]
    fn a_merge_that_adds_nothing_keeps_a_shared_table_shared() {
        let mut main = Arc::new(big_main());
        let epoch = Arc::clone(&main);
        let (_, outcome) = merge_new_pairs(&mut main, vec![3, 30, 100, 1000]);
        assert_eq!(outcome.strategy, MergeStrategy::NoOp);
        assert!(Arc::ptr_eq(&main, &epoch), "nothing new: nothing copied");
        let (_, outcome) = merge_new_pairs(&mut main, vec![3, 31]);
        assert_eq!(outcome.new_pairs, 1);
        assert!(!Arc::ptr_eq(&main, &epoch), "the first write copies");
        assert_eq!((main.len(), epoch.len()), (257, 256));
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
            inferred_raw: as_pairs(&inferred).len(),
            ..MergeOutcome::default()
        };
        inferray_sort::sort_pairs_auto_dedup(&mut inferred);
        let (old, inferred) = (as_pairs(main.pairs()), as_pairs(&inferred));
        outcome.duplicates_within_inferred = outcome.inferred_raw - inferred.len();
        let mut merged = Vec::with_capacity(old.len() + inferred.len());
        let mut fresh = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < old.len() && j < inferred.len() {
            let (a, b) = (old[i], inferred[j]);
            match a.cmp(&b) {
                std::cmp::Ordering::Less => {
                    merged.push(a);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push(b);
                    fresh.push(b);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    merged.push(a);
                    outcome.duplicates_against_main += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&old[i..]);
        merged.extend_from_slice(&inferred[j..]);
        fresh.extend_from_slice(&inferred[j..]);
        outcome.new_pairs = fresh.len();
        main.replace_with_sorted(merged.into_flattened());
        let mut new_table = PropertyTable::new();
        new_table.replace_with_sorted(fresh.into_flattened());
        (new_table, outcome)
    }

    /// Lanes that run every task on the calling thread.
    struct Inline;

    impl Lanes for Inline {
        fn run<'env, R, F>(&self, tasks: Vec<F>) -> Vec<R>
        where
            F: FnOnce() -> R + Send + 'env,
            R: Send + 'env,
        {
            tasks.into_iter().map(|task| task()).collect()
        }
    }

    /// A ranged merge into a table another epoch holds leaves that table as
    /// it is and installs the merged one, equal to the in-place merge's —
    /// pairs, new table, and the ⟨o,s⟩ cache kept for a delta of a
    /// sixteenth of the table, dropped for a larger one.
    #[test]
    fn a_ranged_merge_into_a_shared_table_installs_the_merged_one() {
        for (fresh_subjects, keeps_cache) in [(4u64, true), (64, false)] {
            let pairs: Vec<u64> = (0..64u64)
                .flat_map(|s| (0..16u64).flat_map(move |o| [s, 2 * o]))
                .collect();
            let mut table = PropertyTable::from_pairs(pairs.clone());
            table.ensure_os();
            let epoch = Arc::new(table);
            let mut shared = Arc::clone(&epoch);
            let mut in_place = (*epoch).clone();
            let parts = vec![(0..fresh_subjects)
                .flat_map(|s| [s, 1, s, 3])
                .collect::<Vec<u64>>()];
            let mut scratches = [SortScratch::new()];
            let (new_shared, _) =
                merge_new_parts_ranged(&mut shared, parts.clone(), &mut scratches, &Inline)
                    .expect("the counting kernel is picked");
            let (new_in_place, _) =
                merge_new_parts_ranged(&mut in_place, parts, &mut scratches, &Inline)
                    .expect("the counting kernel is picked");
            assert!(!Arc::ptr_eq(&shared, &epoch));
            assert_eq!(epoch.pairs(), &pairs[..], "the epoch's table is untouched");
            assert!(epoch.has_os_cache());
            assert_eq!(shared.pairs(), in_place.pairs());
            assert_eq!(shared.os_pairs(), in_place.os_pairs());
            assert_eq!(shared.has_os_cache(), keeps_cache);
            assert_eq!(new_shared.pairs(), new_in_place.pairs());
            assert!(shared.debug_validate().is_ok());
        }
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
                as_pairs(&inferred).iter().map(|&[s, o]| (s, o)).collect();

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
                .flat_map(|&i| as_pairs(main.pairs())[i % main.len()])
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
