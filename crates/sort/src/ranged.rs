//! One table, many lanes: the update of one property table — sort, dedup,
//! classify against *main*, merge (Figure 5) — split by subject range
//! across the lanes of a pool.
//!
//! The per-property update parallelizes across properties, but one table
//! can carry most of an iteration (`rdf:type` holds 883 k of the 1.07 M raw
//! pairs of the taxonomy's iteration 1), and then one lane does nearly all
//! the work. [`merge_parts_ranged`] splits that table instead. The counting
//! kernel's subject histogram (Algorithm 2, lines 1-3) is built once over
//! every part and cut, at subject boundaries, into one range of about equal
//! pair count per lane; *main*'s sorted pairs are cut at the same subjects.
//! Then two parallel phases:
//!
//! 1. **sort and classify** — each lane scatters the objects of its own
//!    subjects, from every part, into its own contiguous slice of the
//!    objects arena (`split_at_mut`), sorts each run after the stamp pass
//!    (one stamp array per lane), and classifies the distinct pairs
//!    against its slice of *main*, compacting the new ones to the front of
//!    each run;
//! 2. **write** — after a prefix sum over the per-range new counts, each
//!    lane writes its range of the updated *main* and of the new pairs at
//!    their final offsets.
//!
//! There is no partition pass over the parts and no concatenation of
//! per-range tables: a lane reads the parts in place and writes where the
//! result lives. The output is the sorted union and the sorted difference,
//! whatever the number of lanes.

use crate::counting::{prefix_sums, scatter_range, stamp_span, RunSorter};
use crate::operating_range::{recommend_within, Algorithm};
use crate::pairs::{as_pairs, gallop, pair_bounds, PairBounds};
use crate::scratch::{CountingArenas, SortScratch};

/// Runs a batch of tasks — possibly in parallel — and returns their
/// results in task order. A task may borrow from the caller's scope; the
/// call returns once every task has finished.
pub trait Lanes {
    /// Runs every task of `tasks` and returns the results in task order.
    fn run<'env, R, F>(&self, tasks: Vec<F>) -> Vec<R>
    where
        F: FnOnce() -> R + Send + 'env,
        R: Send + 'env;
}

/// What [`merge_parts_ranged`] computed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RangedMerge {
    /// Distinct pairs among the parts.
    pub distinct: usize,
    /// Distinct pairs of the parts that *main* already held.
    pub duplicates_against_main: usize,
    /// The smallest pair of the parts; `None` when they hold none.
    pub first: Option<(u64, u64)>,
    /// The pairs of the parts *main* lacks, ⟨s,o⟩-sorted, duplicate-free.
    pub fresh: Vec<u64>,
    /// *main* with `fresh` merged in; empty when `fresh` is.
    pub merged: Vec<u64>,
}

/// What phase 1 found in one range.
#[derive(Debug, Clone, Copy, Default)]
struct RangeCounts {
    distinct: usize,
    duplicates: usize,
    fresh: usize,
    first: Option<(u64, u64)>,
}

/// Sorts and deduplicates the raw pairs of `parts`, classifies them against
/// the ⟨s,o⟩-sorted, duplicate-free `main`, and builds the sorted new pairs
/// and the sorted union, one subject range per scratch of `scratches`, the
/// ranges run by `lanes` (module docs). The first scratch holds the
/// counting arenas; every scratch lends its stamp array to its range.
///
/// Returns the parts untouched when the counting kernel is not the one the
/// §5.4 rule picks for them (subjects too sparse, or spread beyond
/// [`MAX_COUNTING_RANGE`](crate::operating_range::MAX_COUNTING_RANGE)), or
/// when they hold no pair: the caller merges them another way.
///
/// # Panics
/// Panics if `scratches` is empty or a part has odd length.
pub fn merge_parts_ranged(
    mut parts: Vec<Vec<u64>>,
    main: &[u64],
    scratches: &mut [SortScratch],
    lanes: &impl Lanes,
) -> Result<RangedMerge, Vec<Vec<u64>>> {
    for part in &parts {
        assert!(
            part.len().is_multiple_of(2),
            "pair array must have even length"
        );
    }
    let ranges = scratches.len();
    assert!(ranges > 0, "one sort scratch per lane");
    // Phase 0: the bounds, then the subject histogram (Algorithm 2, lines
    // 1-2), each lane over its share of every part.
    let share = |part: &[u64], r: usize| -> std::ops::Range<usize> {
        let n = part.len() / 2;
        2 * (r * n / ranges)..2 * ((r + 1) * n / ranges)
    };
    let tasks = (0..ranges)
        .map(|r| {
            let parts = &parts;
            move || {
                parts
                    .iter()
                    .filter_map(|part| pair_bounds(&part[share(part, r)]))
                    .reduce(PairBounds::union)
            }
        })
        .collect();
    let bounds = lanes
        .run(tasks)
        .into_iter()
        .flatten()
        .reduce(PairBounds::union);
    let n_pairs: usize = parts.iter().map(|part| part.len() / 2).sum();
    let Some(bounds) =
        bounds.filter(|&bounds| recommend_within(n_pairs, bounds) == Algorithm::Counting)
    else {
        return Err(parts);
    };
    let (head, tail) = scratches.split_first_mut().expect("checked above");
    let (min, max) = bounds.subjects;
    let width = (max - min + 1) as usize;
    let span = stamp_span(bounds, n_pairs);
    let CountingArenas {
        histogram,
        start,
        objects,
        stamps,
    } = head.counting_arenas(width, n_pairs, span);
    let counters = std::iter::once(&mut *histogram)
        .chain(tail.iter_mut().map(|scratch| scratch.histogram(width)));
    let tasks = counters
        .enumerate()
        .map(|(r, counts)| {
            let parts = &parts;
            move || {
                for part in parts {
                    for s in part[share(part, r)].iter().copied().step_by(2) {
                        counts[(s - min) as usize] += 1;
                    }
                }
            }
        })
        .collect();
    lanes.run(tasks);
    for scratch in tail.iter() {
        for (total, count) in histogram.iter_mut().zip(&scratch.histogram) {
            *total += count;
        }
    }

    // Line 3, then the cuts: subject slots where about `r / ranges` of the
    // pairs lie before, and the pair of *main* where its subjects reach the
    // same slot.
    prefix_sums(histogram, start);
    let start: &[usize] = start;
    let cuts: Vec<usize> = (0..=ranges)
        .map(|r| match r {
            r if r == ranges => width,
            r => start[..width].partition_point(|&at| at < r * n_pairs / ranges),
        })
        .collect();
    let main_at = |slot: usize| match slot {
        0 => 0,
        slot if slot == width => main.len() / 2,
        slot => gallop(as_pairs(main), 0, |p| p[0] < min + slot as u64),
    };
    let main_ranges: Vec<&[u64]> = cuts
        .windows(2)
        .map(|cut| &main[2 * main_at(cut[0])..2 * main_at(cut[1])])
        .collect();

    // Phase 1: each range scatters, sorts and classifies its own subjects.
    let sorters = std::iter::once(stamps)
        .chain(tail.iter_mut().map(|scratch| scratch.stamps(span)))
        .map(|stamps| RunSorter::new(stamps, bounds.objects.0, span > 0));
    let (mut histogram_rest, mut objects_rest) = (&mut *histogram, &mut *objects);
    let mut tasks = Vec::with_capacity(ranges);
    for ((cut, main), sorter) in cuts.windows(2).zip(&main_ranges).zip(sorters) {
        let (first, end) = (cut[0], cut[1]);
        let (lengths, rest) = std::mem::take(&mut histogram_rest).split_at_mut(end - first);
        histogram_rest = rest;
        let (runs, rest) =
            std::mem::take(&mut objects_rest).split_at_mut(start[end] - start[first]);
        objects_rest = rest;
        let parts = &parts;
        tasks.push(move || {
            lengths.fill(0);
            for part in parts {
                scatter_range(part, min, first, lengths, start, runs);
            }
            let runs = Runs {
                min,
                first,
                lengths,
                start,
                objects: runs,
            };
            runs.sort_and_classify(sorter, main)
        });
    }
    let counts = lanes.run(tasks);

    let mut merge = RangedMerge {
        distinct: counts.iter().map(|range| range.distinct).sum(),
        duplicates_against_main: counts.iter().map(|range| range.duplicates).sum(),
        first: counts.iter().find_map(|range| range.first),
        ..RangedMerge::default()
    };
    let fresh_pairs: usize = counts.iter().map(|range| range.fresh).sum();
    if fresh_pairs == 0 {
        return Ok(merge);
    }

    // Phase 2: every range writes its new pairs and its part of the union
    // at their final offsets. The new pairs go to the part with the largest
    // allocation, when it can hold them; the other parts are freed first.
    let largest = (0..parts.len())
        .max_by_key(|&i| (parts[i].capacity(), std::cmp::Reverse(i)))
        .expect("at least one part");
    let mut fresh = parts.swap_remove(largest);
    drop(parts);
    if fresh.capacity() < 2 * fresh_pairs {
        // Growing the part would copy its stale pairs into the new block
        // while both are alive: free it first.
        drop(std::mem::take(&mut fresh));
        fresh = vec![0; 2 * fresh_pairs];
    }
    fresh.resize(2 * fresh_pairs, 0);
    let mut merged = vec![0u64; main.len() + 2 * fresh_pairs];
    let (histogram, objects): (&[u32], &[u64]) = (histogram, objects);
    let (mut fresh_rest, mut merged_rest) = (fresh.as_mut_slice(), merged.as_mut_slice());
    let mut tasks = Vec::with_capacity(ranges);
    for ((cut, main), range) in cuts.windows(2).zip(&main_ranges).zip(&counts) {
        let (first, end) = (cut[0], cut[1]);
        let (fresh, rest) = std::mem::take(&mut fresh_rest).split_at_mut(2 * range.fresh);
        fresh_rest = rest;
        let (merged, rest) =
            std::mem::take(&mut merged_rest).split_at_mut(main.len() + 2 * range.fresh);
        merged_rest = rest;
        let runs = Runs {
            min,
            first,
            lengths: &histogram[first..end],
            start,
            objects: &objects[start[first]..start[end]],
        };
        tasks.push(move || runs.write(main, fresh, merged));
    }
    lanes.run(tasks);
    merge.fresh = fresh;
    merge.merged = merged;
    Ok(merge)
}

/// The subject runs of one range: slots `first..first + lengths.len()` of
/// the histogram, subject `min + slot` each, its objects at `start[slot]`,
/// counted from `start[first]`.
struct Runs<'a, L, O> {
    min: u64,
    first: usize,
    lengths: L,
    start: &'a [usize],
    objects: O,
}

impl<'a> Runs<'a, &'a mut [u32], &'a mut [u64]> {
    /// Phase 1 after the scatter: sorts every run, then walks its distinct
    /// objects beside `main`'s pairs of the same subject (this range's
    /// slice of `main`, found by galloping from the previous subject's) and
    /// keeps only the pairs `main` lacks at the front of the run; the run's
    /// length becomes their count.
    fn sort_and_classify(self, mut sorter: RunSorter<'_>, main: &[u64]) -> RangeCounts {
        let base = self.start[self.first];
        let mut counts = RangeCounts::default();
        let mut cursor = 0usize;
        for (i, length) in self.lengths.iter_mut().enumerate() {
            let slot = self.first + i;
            let subject = self.min + slot as u64;
            let run = &mut self.objects[self.start[slot] - base..self.start[slot + 1] - base];
            let sorted = sorter.sort(run);
            if sorted == 0 {
                continue;
            }
            counts.first.get_or_insert((subject, run[0]));
            cursor = gallop(as_pairs(main), cursor, |p| p[0] < subject);
            let mut kept = 0usize;
            for k in 0..sorted {
                let object = run[k];
                if k > 0 && object == run[k - 1] {
                    continue; // writes so far landed before `k - 1` or on it
                }
                counts.distinct += 1;
                cursor = skip_held_below(main, cursor, subject, object);
                if main.get(2 * cursor + 1) == Some(&object) && main[2 * cursor] == subject {
                    counts.duplicates += 1;
                } else {
                    run[kept] = object;
                    kept += 1;
                }
            }
            *length = kept as u32;
            counts.fresh += kept;
        }
        counts
    }
}

impl Runs<'_, &[u32], &[u64]> {
    /// Phase 2: writes the range's new pairs into `fresh` and merges them
    /// with `main` (this range's slice of it) into `merged`: the pairs of
    /// `main` below a subject with new pairs move as one block, found by
    /// galloping; within the subject, `main`'s pairs are walked beside the
    /// new ones.
    fn write(self, main: &[u64], fresh: &mut [u64], merged: &mut [u64]) {
        let base = self.start[self.first];
        let (mut written, mut cursor) = (0usize, 0usize);
        let mut fresh = fresh.chunks_exact_mut(2);
        for (i, &length) in self.lengths.iter().enumerate() {
            if length == 0 {
                continue;
            }
            let slot = self.first + i;
            let subject = self.min + slot as u64;
            let lo = self.start[slot] - base;
            let mut below = gallop(as_pairs(main), cursor, |p| p[0] < subject);
            for &object in &self.objects[lo..lo + length as usize] {
                below = skip_held_below(main, below, subject, object);
                let block = &main[2 * cursor..2 * below];
                merged[written..written + block.len()].copy_from_slice(block);
                written += block.len();
                cursor = below;
                let pair = [subject, object];
                merged[written..written + 2].copy_from_slice(&pair);
                written += 2;
                fresh
                    .next()
                    .expect("room for every new pair")
                    .copy_from_slice(&pair);
            }
        }
        merged[written..].copy_from_slice(&main[2 * cursor..]);
    }
}

/// The first pair at or after `cursor` in the sorted `main` that is not
/// `subject`'s with an object below `object`.
fn skip_held_below(main: &[u64], mut cursor: usize, subject: u64, object: u64) -> usize {
    while 2 * cursor < main.len() && main[2 * cursor] == subject && main[2 * cursor + 1] < object {
        cursor += 1;
    }
    cursor
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every task on the calling thread, in order.
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

    fn merge(parts: &[Vec<u64>], main: &[u64], lanes: usize) -> RangedMerge {
        let mut scratches: Vec<SortScratch> = (0..lanes).map(|_| SortScratch::new()).collect();
        merge_parts_ranged(parts.to_vec(), main, &mut scratches, &Inline).expect("counting range")
    }

    #[test]
    fn every_lane_count_gives_the_union_and_the_difference() {
        let parts = vec![vec![5, 1, 3, 2, 3, 2, 9, 9], vec![4, 4, 3, 1, 5, 1]];
        let main = [1, 1, 3, 2, 5, 0, 11, 3];
        for lanes in 1..=5 {
            let merged = merge(&parts, &main, lanes);
            assert_eq!(merged.distinct, 5, "{lanes} lanes");
            assert_eq!(merged.duplicates_against_main, 1);
            assert_eq!(merged.first, Some((3, 1)));
            assert_eq!(merged.fresh, vec![3, 1, 4, 4, 5, 1, 9, 9]);
            assert_eq!(
                merged.merged,
                vec![1, 1, 3, 1, 3, 2, 4, 4, 5, 0, 5, 1, 9, 9, 11, 3]
            );
        }
    }

    #[test]
    fn nothing_new_writes_nothing() {
        let parts = vec![vec![3, 2, 3, 2], vec![1, 1]];
        let merged = merge(&parts, &[1, 1, 3, 2], 3);
        assert_eq!((merged.distinct, merged.duplicates_against_main), (2, 2));
        assert!(merged.fresh.is_empty() && merged.merged.is_empty());
    }

    #[test]
    fn sparse_or_empty_parts_are_handed_back() {
        let mut scratches = vec![SortScratch::new(), SortScratch::new()];
        let sparse = vec![vec![0, 1, 1 << 40, 2]];
        let back = merge_parts_ranged(sparse.clone(), &[], &mut scratches, &Inline);
        assert_eq!(back, Err(sparse));
        let empty = vec![Vec::new()];
        let back = merge_parts_ranged(empty.clone(), &[], &mut scratches, &Inline);
        assert_eq!(back, Err(empty));
    }
}
