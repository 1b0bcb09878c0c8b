//! Counting sort for pairs of integers — Algorithm 2 of the paper.
//!
//! The classic counting sort handles scalar keys; the paper adapts it to
//! key-value *pairs* while keeping linear time:
//!
//! 1. build the histogram of the subjects (the keys);
//! 2. compute each subject's starting position in the final array by a
//!    cumulative sum of the histogram;
//! 3. scatter the object values into a single `objects` array, each object
//!    landing inside the (still unsorted) sub-array reserved for its
//!    subject, after the objects already there — a run keeps the order its
//!    pairs arrived in, often ascending already;
//! 4. sort each per-subject sub-array;
//! 5. rebuild the pair array by walking the start offsets, emitting
//!    `(subject, object)` pairs and — in the dedup variant — skipping
//!    repeated objects, which is sufficient because equal pairs are adjacent
//!    at this point.
//!
//! The algorithm shines when the subject range is small compared to the
//! number of pairs (dense graphs); see [`crate::operating_range`] for the
//! crossover against the radix kernel.
//!
//! ## Duplicates first
//!
//! The inferred pairs of a fixed-point iteration are mostly repeats (the
//! same `rdf:type` pair reached through several super-classes and several
//! rules), and step 4 is where the time goes: it sorts runs of which four
//! fifths are thrown away by step 5. The dedup variant therefore moves the
//! duplicate removal **in front of** the sort whenever that is cheap, by
//! the same kind of rule §5.4 uses to pick the kernel: when the *object*
//! span of the call is no larger than its number of pairs, a stamp array
//! with one slot per object (kept in the [`SortScratch`]) is no bigger than
//! the collection, and every subject run of two objects or more is first
//! compacted to its distinct objects in one pass — slot `o` remembers the
//! last run that held object `o` — so the sort sees only what survives.
//! Sparser objects keep the plain order: sort, then skip adjacent repeats.
//! Both give the same array. (Measured on 2.9 M pairs in runs of 72 with 14
//! distinct objects each: 69 → 42 ms.) On input without repeats — a loaded
//! table, an ⟨o,s⟩ cache — the pass finds nothing and costs 4–5 % of the
//! sort, so the kernel watches what it removes: once
//! [`STAMP_PROBE_PAIRS`] pairs have gone through it and fewer than one in
//! sixteen was a repeat, the rest of the call sorts first.
//!
//! The bounds of both components come from the **one** scan of the call
//! ([`pair_bounds`]): kernel choice, histogram size and the stamp decision
//! all read it.
//!
//! All working memory (histogram, offsets, object scatter area) comes from a
//! caller-provided [`SortScratch`], so repeated calls — the per-iteration
//! table updates of Figure 5 — allocate nothing once the scratch has grown
//! to the workload's high-water mark. The historical entry points without a
//! scratch parameter run with a throwaway scratch.

use crate::operating_range::MAX_COUNTING_RANGE;
use crate::pairs::{pair_bounds, PairBounds};
use crate::radix::{msda_radix_sort_bounded, msda_radix_sort_pairs_dedup_bounded};
use crate::scratch::{CountingArenas, SortScratch, Stamps};

/// How many pairs the stamp pass examines before the kernel judges, from
/// what it removed, whether the call's remaining runs are worth stamping.
pub const STAMP_PROBE_PAIRS: usize = 4096;

/// Sorts a flat pair array (`[s0, o0, s1, o1, …]`) lexicographically by
/// ⟨s,o⟩ using the pair-counting-sort of Algorithm 2, **keeping** duplicates.
///
/// The histogram is proportional to the subject span (`max − min + 1`), so
/// inputs outside the counting operating range
/// ([`MAX_COUNTING_RANGE`]) — e.g. a handful of pairs whose subjects are
/// billions apart — are routed to the adaptive MSD radix kernel instead of
/// attempting a multi-gigabyte arena allocation.
///
/// # Panics
/// Panics if the vector length is odd.
pub fn counting_sort_pairs(pairs: &mut Vec<u64>) {
    counting_sort_pairs_with(pairs, &mut SortScratch::new());
}

/// Sorts a flat pair array and removes duplicate pairs in the same pass
/// (the fused "sort & remove duplicates" step of Figure 5). The vector is
/// truncated to the deduplicated length. Subject spans outside the counting
/// operating range fall back to the radix kernel (see
/// [`counting_sort_pairs`]).
///
/// # Panics
/// Panics if the vector length is odd.
pub fn counting_sort_pairs_dedup(pairs: &mut Vec<u64>) {
    counting_sort_pairs_dedup_with(pairs, &mut SortScratch::new());
}

/// [`counting_sort_pairs`] against a reusable [`SortScratch`].
pub fn counting_sort_pairs_with(pairs: &mut Vec<u64>, scratch: &mut SortScratch) {
    let Some(bounds) = pair_bounds(pairs) else {
        return;
    };
    if subject_span_exceeds_operating_range(bounds) {
        msda_radix_sort_bounded(pairs, scratch, bounds);
    } else {
        counting_sort_bounded(pairs, false, scratch, bounds);
    }
}

/// [`counting_sort_pairs_dedup`] against a reusable [`SortScratch`].
pub fn counting_sort_pairs_dedup_with(pairs: &mut Vec<u64>, scratch: &mut SortScratch) {
    let Some(bounds) = pair_bounds(pairs) else {
        return;
    };
    if subject_span_exceeds_operating_range(bounds) {
        msda_radix_sort_pairs_dedup_bounded(pairs, scratch, bounds);
    } else {
        counting_sort_bounded(pairs, true, scratch, bounds);
    }
}

/// The guard shared by the public entry points: `true` when the histogram
/// the counting kernel would allocate is larger than the operating-range
/// cap, in which case the caller must fall back to radix.
fn subject_span_exceeds_operating_range(bounds: PairBounds) -> bool {
    let (min, max) = bounds.subjects;
    max - min >= MAX_COUNTING_RANGE
}

/// The kernel proper. `bounds` are the bounds of `pairs` (the caller's one
/// scan) and the subject span must lie inside the operating range — the
/// public entry points above and the dispatch of [`crate::operating_range`]
/// both check before calling.
pub(crate) fn counting_sort_bounded(
    pairs: &mut Vec<u64>,
    dedup: bool,
    scratch: &mut SortScratch,
    bounds: PairBounds,
) {
    assert!(
        pairs.len().is_multiple_of(2),
        "pair array must have even length"
    );
    if pairs.len() <= 2 {
        return;
    }
    debug_assert_eq!(pair_bounds(pairs), Some(bounds));
    let mut runs = SubjectRuns::new(scratch, pairs.len() / 2, dedup, bounds);
    runs.scatter(std::iter::once(pairs.as_slice()));
    runs.sort();
    // The array is as long as every pair the runs kept: rebuild in place.
    runs.rebuild(pairs);
}

/// The dedup kernel over several pair arrays at once, giving what it gives
/// over their concatenation — without building it: every part is scattered
/// where it lies, then all parts but the one with the largest allocation
/// are freed and the sorted, duplicate-free pairs are rebuilt into that
/// one — or, when it is too small for what the runs kept, into a fresh
/// allocation made after it is freed too — and the result is shrunk when
/// it fills less than half its allocation. `bounds` are the bounds over all
/// parts, whose subject span must lie inside the operating range.
pub(crate) fn counting_sort_parts_dedup_bounded(
    mut parts: Vec<Vec<u64>>,
    scratch: &mut SortScratch,
    bounds: PairBounds,
) -> Vec<u64> {
    let n_pairs = parts.iter().map(|part| part.len() / 2).sum();
    let mut runs = SubjectRuns::new(scratch, n_pairs, true, bounds);
    runs.scatter(parts.iter().map(Vec::as_slice));
    let kept = runs.sort();
    let largest = (0..parts.len())
        .max_by_key(|&i| (parts[i].capacity(), std::cmp::Reverse(i)))
        .expect("at least one part");
    let mut pairs = parts.swap_remove(largest);
    drop(parts);
    if pairs.capacity() < 2 * kept {
        // Growing the part would copy its stale pairs into the new block
        // while both are alive: free it first and start from zeroed pages.
        drop(std::mem::take(&mut pairs));
        pairs = vec![0; 2 * kept];
    }
    pairs.resize(2 * kept, 0);
    runs.rebuild(&mut pairs);
    // The duplicates are gone: a part reused for far fewer pairs than it
    // was grown for gives the rest back rather than carry it into the
    // table the pairs become.
    if pairs.capacity() > 2 * pairs.len() {
        pairs.shrink_to_fit();
    }
    pairs
}

/// One call of Algorithm 2 over the counting arenas of a [`SortScratch`]:
/// [`scatter`](SubjectRuns::scatter) any number of pair arrays into
/// per-subject runs of objects, [`sort`](SubjectRuns::sort) the runs, then
/// [`rebuild`](SubjectRuns::rebuild) the pairs into one array.
struct SubjectRuns<'a> {
    /// Per subject: its count, then its free slots during the scatter,
    /// then the length of its sorted run.
    histogram: &'a mut [u32],
    /// Per subject, where its run starts in `objects` (`width + 1`).
    start: &'a mut [usize],
    objects: &'a mut [u64],
    sorter: RunSorter<'a>,
    /// The smallest subject: run `i` holds the objects of subject `min + i`.
    min: u64,
    dedup: bool,
}

impl<'a> SubjectRuns<'a> {
    /// Arenas sized for `n_pairs` pairs within `bounds`, the histogram
    /// counted over none of them yet.
    fn new(scratch: &'a mut SortScratch, n_pairs: usize, dedup: bool, bounds: PairBounds) -> Self {
        let (min, max) = bounds.subjects;
        let width = (max - min + 1) as usize;
        debug_assert!(
            width as u64 <= MAX_COUNTING_RANGE,
            "counting sort invoked outside its operating range (span {width})"
        );
        // Stamp pass: only when removing duplicates.
        let object_span = if dedup {
            stamp_span(bounds, n_pairs)
        } else {
            0
        };
        let CountingArenas {
            histogram,
            start,
            objects,
            stamps,
        } = scratch.counting_arenas(width, n_pairs, object_span);
        SubjectRuns {
            histogram,
            start,
            objects,
            sorter: RunSorter::new(stamps, bounds.objects.0, object_span > 0),
            min,
            dedup,
        }
    }

    /// Lines 1-10 of Algorithm 2 over every array of `parts`, where it
    /// lies: the subject histogram (lines 1-2), each subject's start offset
    /// (line 3), then every object scattered into its subject's run,
    /// unsorted (lines 4-10) — the histogram, cleared, counts each run's
    /// filled slots up ([`scatter_range`]).
    fn scatter<'p>(&mut self, parts: impl Iterator<Item = &'p [u64]> + Clone) {
        for pairs in parts.clone() {
            for s in pairs.iter().copied().step_by(2) {
                self.histogram[(s - self.min) as usize] += 1;
            }
        }
        prefix_sums(self.histogram, self.start);
        debug_assert_eq!(self.start[self.histogram.len()], self.objects.len());
        self.histogram.fill(0);
        for pairs in parts {
            scatter_range(pairs, self.min, 0, self.histogram, self.start, self.objects);
        }
    }

    /// Lines 11-13: sorts each run of objects ([`RunSorter`]). The
    /// histogram takes the length each run is left with. Returns how many pairs the runs hold now, an upper bound on
    /// what the rebuild writes.
    fn sort(&mut self) -> usize {
        let mut kept = 0usize;
        for i in 0..self.histogram.len() {
            let run = &mut self.objects[self.start[i]..self.start[i + 1]];
            let len = self.sorter.sort(run);
            self.histogram[i] = len as u32;
            kept += len;
        }
        kept
    }

    /// Lines 14-26: writes the pairs into `pairs` from its start, skipping
    /// duplicates when deduplicating (adjacent now; none are left in a
    /// stamped run), and truncates it to what was written (line 27).
    /// `pairs` must be at least as long as [`sort`](Self::sort)'s count.
    fn rebuild(&self, pairs: &mut Vec<u64>) {
        let mut write = 0usize;
        for (i, &len) in self.histogram.iter().enumerate() {
            let lo = self.start[i];
            let subject = self.min + i as u64;
            let mut previous_object = 0u64;
            for (k, &object) in self.objects[lo..lo + len as usize].iter().enumerate() {
                if !self.dedup || k == 0 || object != previous_object {
                    pairs[write] = subject;
                    pairs[write + 1] = object;
                    write += 2;
                }
                previous_object = object;
            }
        }
        pairs.truncate(write);
    }
}

/// How many stamp slots a dedup call over `n_pairs` pairs within `bounds`
/// uses: one per object in range when that is fewer than the pairs, else
/// none (no stamp pass).
pub(crate) fn stamp_span(bounds: PairBounds, n_pairs: usize) -> usize {
    let (object_min, object_max) = bounds.objects;
    match object_max - object_min {
        gap if gap < n_pairs as u64 => gap as usize + 1,
        _ => 0,
    }
}

/// Line 3 of Algorithm 2: `start[i]` is where the run of histogram slot `i`
/// begins, counting from `start[0] = 0`; `start` has one entry more than
/// `histogram`.
pub(crate) fn prefix_sums(histogram: &[u32], start: &mut [usize]) {
    let mut acc = 0usize;
    for (i, &count) in histogram.iter().enumerate() {
        start[i] = acc;
        acc += count as usize;
    }
    start[histogram.len()] = acc;
}

/// Lines 4-10 of Algorithm 2 for the subjects `min + first ..
/// min + first + filled.len()` of `pairs` (the others are skipped): each
/// object lands in its subject's run, after the objects already there, so
/// a run keeps the order the rules emitted it in — often ascending, which
/// the sort then passes through in one sweep. `filled` counts those
/// subjects' filled slots up (zeros before the first array); `start` holds
/// the run offsets of every subject, and `objects` begins at offset
/// `start[first]`.
pub(crate) fn scatter_range(
    pairs: &[u64],
    min: u64,
    first: usize,
    filled: &mut [u32],
    start: &[usize],
    objects: &mut [u64],
) {
    let base = start[first];
    for pair in pairs.chunks_exact(2) {
        let key = (pair[0] - min) as usize;
        let Some(count) = filled.get_mut(key.wrapping_sub(first)) else {
            continue;
        };
        objects[start[key] - base + *count as usize] = pair[1];
        *count += 1;
    }
}

/// Sorts subject runs one after another (lines 11-13), each after the
/// stamp pass has cut it down to its distinct objects while that pays
/// (module docs): once [`STAMP_PROBE_PAIRS`] pairs went through the pass
/// and fewer than one in sixteen was a repeat, the rest are sorted as they
/// are.
pub(crate) struct RunSorter<'a> {
    stamps: Stamps<'a>,
    /// The smallest object, the base of the stamp slots.
    object_min: u64,
    stamping: bool,
    stamped: usize,
    kept_stamped: usize,
}

impl<'a> RunSorter<'a> {
    /// A sorter that runs the stamp pass (over objects from `object_min`
    /// on) when `stamp` is set.
    pub(crate) fn new(stamps: Stamps<'a>, object_min: u64, stamp: bool) -> Self {
        RunSorter {
            stamps,
            object_min,
            stamping: stamp,
            stamped: 0,
            kept_stamped: 0,
        }
    }

    /// Sorts `run` and returns the length of its sorted front: the whole
    /// run, or its distinct objects when the stamp pass ran. Repeats may
    /// remain adjacent in the front when it did not.
    pub(crate) fn sort(&mut self, run: &mut [u64]) -> usize {
        let mut len = run.len();
        if len > 1 {
            if self.stamping {
                self.stamped += len;
                len = self.stamps.dedup_run(run, self.object_min);
                self.kept_stamped += len;
                // Next to nothing removed so far: stop looking.
                self.stamping = self.stamped < STAMP_PROBE_PAIRS
                    || (self.stamped - self.kept_stamped) * 16 >= self.stamped;
            }
            run[..len].sort_unstable();
        }
        len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::std_sort_pairs;
    use crate::pairs::{dedup_sorted_pairs, is_sorted_pairs};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The worked example of Figure 6: pairs (4,1) (2,3) (1,2) (5,3) (4,4).
    #[test]
    fn paper_figure6_trace() {
        let mut v = vec![4, 1, 2, 3, 1, 2, 5, 3, 4, 4];
        counting_sort_pairs(&mut v);
        assert_eq!(v, vec![1, 2, 2, 3, 4, 1, 4, 4, 5, 3]);
    }

    #[test]
    fn empty_and_single_pair() {
        let mut v: Vec<u64> = vec![];
        counting_sort_pairs_dedup(&mut v);
        assert!(v.is_empty());
        let mut v = vec![9, 3];
        counting_sort_pairs_dedup(&mut v);
        assert_eq!(v, vec![9, 3]);
    }

    #[test]
    fn dedup_variant_removes_duplicate_pairs() {
        let mut v = vec![3, 7, 3, 7, 1, 1, 3, 7, 1, 1];
        counting_sort_pairs_dedup(&mut v);
        assert_eq!(v, vec![1, 1, 3, 7]);
    }

    #[test]
    fn keeps_duplicates_without_dedup() {
        let mut v = vec![3, 7, 3, 7, 1, 1];
        counting_sort_pairs(&mut v);
        assert_eq!(v, vec![1, 1, 3, 7, 3, 7]);
    }

    #[test]
    fn same_subject_objects_are_sorted() {
        let mut v = vec![5, 9, 5, 1, 5, 4, 5, 1];
        counting_sort_pairs(&mut v);
        assert_eq!(v, vec![5, 1, 5, 1, 5, 4, 5, 9]);
        let mut v2 = vec![5, 9, 5, 1, 5, 4, 5, 1];
        counting_sort_pairs_dedup(&mut v2);
        assert_eq!(v2, vec![5, 1, 5, 4, 5, 9]);
    }

    #[test]
    fn handles_large_ids_with_small_range() {
        // Dense-numbered identifiers sit near 2^32; only the range matters.
        let base = 1u64 << 32;
        let mut v = vec![base + 5, base + 1, base + 2, base + 9, base + 5, base];
        counting_sort_pairs(&mut v);
        assert_eq!(
            v,
            vec![base + 2, base + 9, base + 5, base, base + 5, base + 1]
        );
    }

    #[test]
    fn pathological_subject_span_falls_back_to_radix() {
        // Subjects {0, 5_000_000_000}: a raw counting histogram would need
        // ~5 billion slots (~20 GiB). The guarded entry points must complete
        // — via the radix fallback — and still sort correctly.
        let mut v = vec![5_000_000_000u64, 1, 0, 2, 5_000_000_000, 1];
        counting_sort_pairs(&mut v);
        assert_eq!(v, vec![0, 2, 5_000_000_000, 1, 5_000_000_000, 1]);

        let mut v = vec![5_000_000_000u64, 1, 0, 2, 5_000_000_000, 1];
        counting_sort_pairs_dedup(&mut v);
        assert_eq!(v, vec![0, 2, 5_000_000_000, 1]);

        // The reusable-scratch variants take the same guard.
        let mut scratch = SortScratch::new();
        let mut v = vec![u64::MAX - 1, 7, 3, 9];
        counting_sort_pairs_with(&mut v, &mut scratch);
        assert_eq!(v, vec![3, 9, u64::MAX - 1, 7]);
        let mut v = vec![u64::MAX - 1, 7, 3, 9, 3, 9];
        counting_sort_pairs_dedup_with(&mut v, &mut scratch);
        assert_eq!(v, vec![3, 9, u64::MAX - 1, 7]);
    }

    #[test]
    fn guard_rejects_only_spans_beyond_the_operating_range() {
        // Exactly at the cap: admissible (counting may still be slow there,
        // but the histogram fits the arena policy).
        let exceeds =
            |v: &[u64]| subject_span_exceeds_operating_range(pair_bounds(v).expect("non-empty"));
        let at_cap = vec![MAX_COUNTING_RANGE - 1, 1, 0, 2];
        assert!(!exceeds(&at_cap));
        // One past the cap: rejected.
        let past_cap = vec![MAX_COUNTING_RANGE, 1, 0, 2];
        assert!(exceeds(&past_cap));
        // The widest span there is must not wrap the comparison.
        assert!(exceeds(&[u64::MAX, 1, 0, 2]));
        // In-range spans keep using the counting kernel.
        let mut v = vec![1 << 20, 1, 0, 2];
        counting_sort_pairs(&mut v);
        assert_eq!(v, vec![0, 2, 1 << 20, 1]);
    }

    #[test]
    fn matches_std_sort_on_random_input() {
        let mut rng = StdRng::seed_from_u64(42);
        for n in [10usize, 100, 1000, 5000] {
            let mut v: Vec<u64> = (0..2 * n)
                .map(|i| {
                    if i % 2 == 0 {
                        rng.gen_range(1000..1300)
                    } else {
                        rng.gen_range(0..10_000)
                    }
                })
                .collect();
            let mut expected = v.clone();
            std_sort_pairs(&mut expected);
            counting_sort_pairs(&mut v);
            assert_eq!(v, expected);
        }
    }

    #[test]
    fn dedup_matches_sort_then_dedup() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut v: Vec<u64> = (0..2000)
            .map(|i| {
                if i % 2 == 0 {
                    rng.gen_range(0..50)
                } else {
                    rng.gen_range(0..20)
                }
            })
            .collect();
        let mut expected = v.clone();
        std_sort_pairs(&mut expected);
        dedup_sorted_pairs(&mut expected);
        counting_sort_pairs_dedup(&mut v);
        assert_eq!(v, expected);
    }

    #[test]
    fn reused_scratch_matches_fresh_scratch() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut scratch = SortScratch::new();
        for n in [5usize, 500, 50, 2000, 3] {
            let mut v: Vec<u64> = (0..2 * n).map(|_| rng.gen_range(0..200u64)).collect();
            let mut expected = v.clone();
            std_sort_pairs(&mut expected);
            counting_sort_pairs_with(&mut v, &mut scratch);
            assert_eq!(v, expected, "n = {n}");
        }
    }

    proptest! {
        #[test]
        fn prop_sorted_and_permutation(mut values in proptest::collection::vec(0u64..5000, 0..400)) {
            if values.len() % 2 == 1 {
                values.pop();
            }
            let mut expected = values.clone();
            std_sort_pairs(&mut expected);
            let mut actual = values.clone();
            counting_sort_pairs(&mut actual);
            prop_assert!(is_sorted_pairs(&actual));
            prop_assert_eq!(actual, expected);
        }

        #[test]
        fn prop_dedup_equals_generic(mut values in proptest::collection::vec(0u64..64, 0..400)) {
            if values.len() % 2 == 1 {
                values.pop();
            }
            let mut expected = values.clone();
            std_sort_pairs(&mut expected);
            dedup_sorted_pairs(&mut expected);
            let mut actual = values;
            counting_sort_pairs_dedup(&mut actual);
            prop_assert_eq!(actual, expected);
        }
    }
}
