//! The flat pair-array convention and its one home.
//!
//! Property tables, rule outputs and the sort kernels all hold ⟨s,o⟩ pairs
//! as a flat `Vec<u64>`, `[s0, o0, s1, o1, …]` (an ⟨o,s⟩ cache holds
//! `[o0, s0, …]` the same way). Everything outside the sort kernels reads
//! such an array through [`as_pairs`] — a zero-cost view as `&[Pair]` — and
//! searches it with the three searches below, each the partition point of
//! a predicate that holds for a sorted prefix of the pairs:
//!
//! * [`partition_point`] — a binary search of the whole slice;
//! * [`gallop`] — forward from a start, for a walk over ascending keys;
//! * [`gallop_back`] — backward from an end, for a walk over descending
//!   keys.
//!
//! A search is asked with a subject predicate (`|p| p[0] < key`: where the
//! run of `key` starts) or a whole-pair one (`|p| *p < pair`). The module
//! also holds the sortedness check, duplicate removal on sorted arrays and
//! ⟨s,o⟩ ↔ ⟨o,s⟩ swapping (used to build the object-sorted cache of a
//! property table).

/// One pair of a flat pair array: ⟨s,o⟩, or ⟨o,s⟩ in an object-sorted one.
pub type Pair = [u64; 2];

/// The flat array `[s0, o0, s1, o1, …]` as its pairs, without a copy. The
/// even length is checked where a table is built, not here on every
/// lookup: only debug builds assert it.
#[inline]
pub fn as_pairs(flat: &[u64]) -> &[Pair] {
    let (pairs, rest) = flat.as_chunks::<2>();
    debug_assert!(rest.is_empty(), "pair array must have even length");
    pairs
}

/// [`as_pairs`] for writing the pairs in place.
#[inline]
pub fn as_pairs_mut(flat: &mut [u64]) -> &mut [Pair] {
    let (pairs, rest) = flat.as_chunks_mut::<2>();
    debug_assert!(rest.is_empty(), "pair array must have even length");
    pairs
}

/// The number of leading pairs that satisfy `before`, found by binary
/// search: `before` must hold for a prefix of `pairs` and for nothing after
/// it. A plain loop rather than std's `partition_point`, whose branch-free
/// search was several times slower over a table of a million pairs.
#[inline]
pub fn partition_point(pairs: &[Pair], before: impl Fn(&Pair) -> bool) -> usize {
    let (mut lo, mut hi) = (0usize, pairs.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if before(&pairs[mid]) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// [`partition_point`] of `pairs[from..]`, every pair before `from` taken
/// to satisfy `before` (a `from` past the end answers the end). It probes
/// `from`, `from + 1`, `from + 3`, `from + 7`, … and binary-searches the
/// last gap, so an answer `d` pairs ahead costs `O(log d)`: a caller that
/// walks keys in ascending order and passes the previous answer back as
/// `from` performs a merge join.
#[inline]
pub fn gallop(pairs: &[Pair], from: usize, before: impl Fn(&Pair) -> bool) -> usize {
    let n = pairs.len();
    let mut lo = from.min(n);
    let mut hi = lo;
    let mut step = 1usize;
    while hi < n && before(&pairs[hi]) {
        lo = hi + 1;
        hi = hi.saturating_add(step);
        step = step.saturating_mul(2);
    }
    lo + partition_point(&pairs[lo..hi.min(n)], before)
}

/// [`partition_point`] of `pairs[..end]`, every pair from `end` on taken
/// to fail `before` (an `end` past the end is the end), found by galloping
/// down from `end`: an answer `d` pairs below it costs `O(log d)`, so a
/// walk over descending keys that passes each answer back as `end` — the
/// backward in-place merge — costs what the forward [`gallop`] does.
#[inline]
pub fn gallop_back(pairs: &[Pair], end: usize, before: impl Fn(&Pair) -> bool) -> usize {
    let mut hi = end.min(pairs.len());
    let mut lo = hi;
    let mut step = 1usize;
    while lo > 0 && !before(&pairs[lo - 1]) {
        hi = lo - 1;
        lo = hi.saturating_sub(step);
        step = step.saturating_mul(2);
    }
    lo + partition_point(&pairs[lo..hi], before)
}

/// Returns `true` when `pairs` (flat `[s0, o0, s1, o1, …]`) is sorted
/// lexicographically by ⟨s,o⟩.
///
/// # Panics
/// Panics if the slice length is odd.
pub fn is_sorted_pairs(pairs: &[u64]) -> bool {
    assert!(
        pairs.len().is_multiple_of(2),
        "pair array must have even length"
    );
    as_pairs(pairs).is_sorted()
}

/// Removes duplicate pairs from a *sorted* flat pair array, truncating it in
/// place. Returns the number of pairs removed.
///
/// # Panics
/// Panics if the slice length is odd. Debug builds also assert sortedness.
pub fn dedup_sorted_pairs(pairs: &mut Vec<u64>) -> usize {
    assert!(
        pairs.len().is_multiple_of(2),
        "pair array must have even length"
    );
    debug_assert!(is_sorted_pairs(pairs), "dedup requires a sorted array");
    let view = as_pairs_mut(pairs);
    let n = view.len();
    if n == 0 {
        return 0;
    }
    let mut write = 1usize;
    for read in 1..n {
        if view[read] != view[write - 1] {
            view[write] = view[read];
            write += 1;
        }
    }
    pairs.truncate(2 * write);
    n - write
}

/// Returns a new flat array with every pair swapped: `(s, o)` becomes
/// `(o, s)`. Sorting the result on its first component yields the
/// object-sorted view the β/α rules join on.
pub fn swap_pairs(pairs: &[u64]) -> Vec<u64> {
    assert!(
        pairs.len().is_multiple_of(2),
        "pair array must have even length"
    );
    let swapped: Vec<Pair> = as_pairs(pairs).iter().map(|&[s, o]| [o, s]).collect();
    swapped.into_flattened()
}

/// Minimum and maximum of both components of a pair array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairBounds {
    /// `(min, max)` over the subjects (even positions).
    pub subjects: (u64, u64),
    /// `(min, max)` over the objects (odd positions).
    pub objects: (u64, u64),
}

impl PairBounds {
    /// The bounds of two arrays together.
    pub fn union(self, other: PairBounds) -> PairBounds {
        PairBounds {
            subjects: (
                self.subjects.0.min(other.subjects.0),
                self.subjects.1.max(other.subjects.1),
            ),
            objects: (
                self.objects.0.min(other.objects.0),
                self.objects.1.max(other.objects.1),
            ),
        }
    }
}

/// The bounds of both components from **one** scan of the array — what a
/// sort call needs to pick its kernel, size the counting histogram, decide
/// on the stamp pass and find the radix kernel's active digits. Returns
/// `None` for an empty array.
pub fn pair_bounds(pairs: &[u64]) -> Option<PairBounds> {
    let (&[s, o], rest) = as_pairs(pairs).split_first()?;
    let mut bounds = PairBounds {
        subjects: (s, s),
        objects: (o, o),
    };
    for &[s, o] in rest {
        bounds.subjects = (bounds.subjects.0.min(s), bounds.subjects.1.max(s));
        bounds.objects = (bounds.objects.0.min(o), bounds.objects.1.max(o));
    }
    Some(bounds)
}

/// Minimum and maximum over the *subject* (even-index) positions.
/// Returns `None` for an empty array.
pub fn subject_min_max(pairs: &[u64]) -> Option<(u64, u64)> {
    pair_bounds(pairs).map(|bounds| bounds.subjects)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The partition point of `before` in `pairs[from..end]` by a linear
    /// scan: every pair before `from` is taken to satisfy it, every pair
    /// from `end` on to fail it.
    fn linear(pairs: &[Pair], from: usize, end: usize, before: &dyn Fn(&Pair) -> bool) -> usize {
        let end = end.min(pairs.len());
        let from = from.min(end);
        (from..end).find(|&i| !before(&pairs[i])).unwrap_or(end)
    }

    proptest! {
        /// One law for the three searches: over sorted pair arrays with
        /// repeated subjects, each equals a linear scan — for a subject
        /// predicate and a whole-pair predicate, present and absent keys,
        /// every start of `gallop` and every end of `gallop_back` up to
        /// past the end, and the empty array.
        #[test]
        fn searches_equal_a_linear_scan(
            raw in proptest::collection::vec((0u64..12, 0u64..4), 0..48),
            probes in proptest::collection::vec((0u64..14, 0u64..5), 1..6),
        ) {
            let mut flat: Vec<u64> = raw.iter().flat_map(|&(s, o)| [s, o]).collect();
            crate::sort_pairs_auto_dedup(&mut flat);
            let pairs = as_pairs(&flat);
            let n = pairs.len();
            for (s, o) in probes {
                let key: Pair = [s, o];
                let by_subject = |p: &Pair| p[0] < s;
                let by_subject_run = |p: &Pair| p[0] <= s;
                let by_pair = |p: &Pair| *p < key;
                let predicates: [&dyn Fn(&Pair) -> bool; 3] =
                    [&by_subject, &by_subject_run, &by_pair];
                for before in predicates {
                    prop_assert_eq!(partition_point(pairs, before), linear(pairs, 0, n, before));
                    prop_assert_eq!(partition_point(&[], before), 0);
                    prop_assert_eq!(gallop(&[], 0, before), 0);
                    prop_assert_eq!(gallop_back(&[], 3, before), 0);
                    for at in 0..=n + 2 {
                        prop_assert_eq!(
                            gallop(pairs, at, before),
                            linear(pairs, at, n, before),
                            "gallop from {}", at
                        );
                        prop_assert_eq!(
                            gallop_back(pairs, at, before),
                            linear(pairs, 0, at, before),
                            "gallop_back from {}", at
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn the_view_is_the_flat_array() {
        let flat = vec![1, 2, 3, 4];
        assert_eq!(as_pairs(&flat), &[[1, 2], [3, 4]]);
        assert_eq!(as_pairs(&flat).as_flattened(), &flat[..]);
        let mut flat = flat;
        as_pairs_mut(&mut flat)[1] = [5, 6];
        assert_eq!(flat, vec![1, 2, 5, 6]);
        assert!(as_pairs(&[]).is_empty());
    }

    #[test]
    fn sortedness_check() {
        assert!(is_sorted_pairs(&[]));
        assert!(is_sorted_pairs(&[1, 2]));
        assert!(is_sorted_pairs(&[1, 2, 1, 3, 2, 0]));
        assert!(!is_sorted_pairs(&[1, 3, 1, 2]));
        assert!(!is_sorted_pairs(&[2, 0, 1, 9]));
    }

    #[test]
    #[should_panic(expected = "even length")]
    fn odd_length_panics() {
        is_sorted_pairs(&[1, 2, 3]);
    }

    #[test]
    fn dedup_removes_adjacent_duplicates() {
        let mut v = vec![1, 1, 1, 1, 1, 2, 3, 0, 3, 0];
        let removed = dedup_sorted_pairs(&mut v);
        assert_eq!(removed, 2);
        assert_eq!(v, vec![1, 1, 1, 2, 3, 0]);
    }

    #[test]
    fn dedup_on_empty_and_singleton() {
        let mut v: Vec<u64> = vec![];
        assert_eq!(dedup_sorted_pairs(&mut v), 0);
        let mut v = vec![5, 6];
        assert_eq!(dedup_sorted_pairs(&mut v), 0);
        assert_eq!(v, vec![5, 6]);
    }

    #[test]
    fn dedup_all_identical() {
        let mut v = vec![4, 4, 4, 4, 4, 4];
        assert_eq!(dedup_sorted_pairs(&mut v), 2);
        assert_eq!(v, vec![4, 4]);
    }

    #[test]
    fn swap_exchanges_components() {
        assert_eq!(swap_pairs(&[1, 2, 3, 4]), vec![2, 1, 4, 3]);
        assert_eq!(swap_pairs(&[]), Vec::<u64>::new());
        // swapping twice is the identity
        let v = vec![9, 8, 7, 6, 5, 4];
        assert_eq!(swap_pairs(&swap_pairs(&v)), v);
    }

    #[test]
    fn min_max_helpers() {
        let v = vec![5, 100, 2, 300, 9, 1];
        assert_eq!(subject_min_max(&v), Some((2, 9)));
        assert_eq!(subject_min_max(&[]), None);
        assert_eq!(
            pair_bounds(&v),
            Some(PairBounds {
                subjects: (2, 9),
                objects: (1, 300)
            })
        );
        assert_eq!(pair_bounds(&[]), None);
    }
}
