//! Helpers shared by every sorting kernel: the flat pair-array convention,
//! sortedness checks, duplicate removal on sorted arrays, and ⟨s,o⟩ ↔ ⟨o,s⟩
//! swapping (used to build the object-sorted cache of a property table).

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
    pairs
        .chunks_exact(2)
        .zip(pairs.chunks_exact(2).skip(1))
        .all(|(a, b)| (a[0], a[1]) <= (b[0], b[1]))
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
    if pairs.is_empty() {
        return 0;
    }
    let mut write = 2usize;
    for read in (2..pairs.len()).step_by(2) {
        if pairs[read] != pairs[write - 2] || pairs[read + 1] != pairs[write - 1] {
            pairs[write] = pairs[read];
            pairs[write + 1] = pairs[read + 1];
            write += 2;
        }
    }
    let removed = (pairs.len() - write) / 2;
    pairs.truncate(write);
    removed
}

/// Returns a new flat array with every pair swapped: `(s, o)` becomes
/// `(o, s)`. Sorting the result on its first component yields the
/// object-sorted view the β/α rules join on.
pub fn swap_pairs(pairs: &[u64]) -> Vec<u64> {
    assert!(
        pairs.len().is_multiple_of(2),
        "pair array must have even length"
    );
    let mut out = Vec::with_capacity(pairs.len());
    for pair in pairs.chunks_exact(2) {
        out.push(pair[1]);
        out.push(pair[0]);
    }
    out
}

/// Number of pairs stored in a flat pair array.
#[inline]
pub fn pair_count(pairs: &[u64]) -> usize {
    debug_assert!(pairs.len().is_multiple_of(2));
    pairs.len() / 2
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
    debug_assert!(pairs.len().is_multiple_of(2));
    let mut iter = pairs.chunks_exact(2);
    let first = iter.next()?;
    let mut bounds = PairBounds {
        subjects: (first[0], first[0]),
        objects: (first[1], first[1]),
    };
    for pair in iter {
        bounds.subjects = (
            bounds.subjects.0.min(pair[0]),
            bounds.subjects.1.max(pair[0]),
        );
        bounds.objects = (bounds.objects.0.min(pair[1]), bounds.objects.1.max(pair[1]));
    }
    Some(bounds)
}

/// Minimum and maximum over the *subject* (even-index) positions.
/// Returns `None` for an empty array.
pub fn subject_min_max(pairs: &[u64]) -> Option<(u64, u64)> {
    pair_bounds(pairs).map(|bounds| bounds.subjects)
}

/// First pair index `>= lo` whose pair is `>= key`, assuming `pairs` is
/// sorted; exponential probe from `lo` followed by a binary search of the
/// bracketed range. `lo` is the result of the previous search, which makes a
/// whole ascending scan of keys O(Σ log(gap)) instead of O(n).
pub fn gallop_pairs(pairs: &[u64], mut lo: usize, key: (u64, u64)) -> usize {
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

    #[test]
    fn gallop_agrees_with_linear_scan() {
        let pairs: Vec<u64> = (0..64u64).flat_map(|i| [i / 2, i % 5]).collect();
        let mut sorted = pairs.clone();
        crate::sort_pairs_auto(&mut sorted);
        let n = sorted.len() / 2;
        for lo in 0..=n {
            for key in [(0u64, 0u64), (3, 1), (15, 4), (31, 2), (99, 0)] {
                let expected = (lo..n)
                    .find(|&i| (sorted[2 * i], sorted[2 * i + 1]) >= key)
                    .unwrap_or(n)
                    .max(lo);
                assert_eq!(
                    gallop_pairs(&sorted, lo, key),
                    expected,
                    "lo = {lo}, key = {key:?}"
                );
            }
        }
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
        assert_eq!(pair_count(&v), 3);
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
