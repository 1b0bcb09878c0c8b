//! MSDA — adaptive most-significant-digit radix sort for pairs (paper §5.3).
//!
//! The pair ⟨s,o⟩ is treated as a 128-bit key (subject in the high 64 bits),
//! examined 8 bits (one byte) at a time starting from the most significant
//! digit. Two adaptations exploit the dense numbering:
//!
//! * **leading-digit skipping** — all identifiers live in a narrow window
//!   around 2³², so the high bytes of both components are constant across the
//!   whole array. MSDA computes, once, the first byte position at which the
//!   subjects (resp. objects) actually differ and starts the recursion there,
//!   saving several levels of recursive calls ("for a range of 10 million
//!   with an 8-bit radix, significant values start at the sixth byte out of
//!   eight");
//! * **small-bucket cutoff** — buckets at or below a threshold fall back to
//!   an **in-place insertion sort** over the flat pair slots, the standard
//!   practical optimisation for MSD radix. (The seed collected each bucket
//!   into a fresh `Vec<(u64, u64)>` first — one heap allocation per bucket,
//!   i.e. thousands per table sort; the fallback now allocates nothing.)
//!
//! The sort is out-of-place per level (scatter into a scratch buffer, copy
//! back), giving stable O(n) work per examined digit. The scratch buffer
//! comes from a caller-provided [`SortScratch`] so repeated sorts reuse it.

use crate::pairs::{dedup_sorted_pairs, pair_bounds, PairBounds};
use crate::scratch::SortScratch;

/// Buckets at or below this number of pairs are finished with the in-place
/// insertion sort instead of recursing further.
const SMALL_BUCKET_PAIRS: usize = 32;

/// Sorts a flat pair array lexicographically by ⟨s,o⟩ with the adaptive MSD
/// radix sort, keeping duplicates.
///
/// # Panics
/// Panics if the vector length is odd.
pub fn msda_radix_sort_pairs(pairs: &mut [u64]) {
    msda_radix_sort_pairs_with(pairs, &mut SortScratch::new());
}

/// Sorts and removes duplicate pairs (truncating the vector).
pub fn msda_radix_sort_pairs_dedup(pairs: &mut Vec<u64>) {
    msda_radix_sort_pairs_dedup_with(pairs, &mut SortScratch::new());
}

/// [`msda_radix_sort_pairs`] against a reusable [`SortScratch`].
pub fn msda_radix_sort_pairs_with(pairs: &mut [u64], scratch: &mut SortScratch) {
    if let Some(bounds) = pair_bounds(pairs) {
        msda_radix_sort_bounded(pairs, scratch, bounds);
    }
}

/// [`msda_radix_sort_pairs_dedup`] against a reusable [`SortScratch`].
pub fn msda_radix_sort_pairs_dedup_with(pairs: &mut Vec<u64>, scratch: &mut SortScratch) {
    msda_radix_sort_pairs_with(pairs, scratch);
    dedup_sorted_pairs(pairs);
}

/// The kernel proper, for callers that already scanned the bounds of
/// `pairs` to choose it.
pub(crate) fn msda_radix_sort_bounded(
    pairs: &mut [u64],
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
    if pairs.len() / 2 <= SMALL_BUCKET_PAIRS {
        insertion_sort_pairs(pairs);
        return;
    }
    debug_assert_eq!(pair_bounds(pairs), Some(bounds));
    let levels = active_levels(bounds);
    if levels.is_empty() {
        return; // every pair identical
    }
    let scratch = scratch.pair_scratch(pairs.len());
    radix_recurse(pairs, scratch, &levels, 0);
}

/// [`msda_radix_sort_bounded`], then the duplicate pairs removed.
pub(crate) fn msda_radix_sort_pairs_dedup_bounded(
    pairs: &mut Vec<u64>,
    scratch: &mut SortScratch,
    bounds: PairBounds,
) {
    msda_radix_sort_bounded(pairs, scratch, bounds);
    dedup_sorted_pairs(pairs);
}

/// The digit positions that actually need to be examined, most significant
/// first. Level 0..8 are the subject bytes (MSB..LSB), levels 8..16 the
/// object bytes. Leading bytes on which all values agree are skipped — this
/// is the "adaptive" part of MSDA.
fn active_levels(bounds: PairBounds) -> Vec<u8> {
    let (s_min, s_max) = bounds.subjects;
    let (o_min, o_max) = bounds.objects;
    let mut levels = Vec::with_capacity(16);
    let s_first = first_differing_byte(s_min, s_max);
    if let Some(first) = s_first {
        for byte in first..8 {
            levels.push(byte);
        }
    }
    let o_first = first_differing_byte(o_min, o_max);
    if let Some(first) = o_first {
        for byte in first..8 {
            levels.push(8 + byte);
        }
    }
    levels
}

/// Index (0 = most significant) of the first byte at which `min` and `max`
/// differ, or `None` when they are equal (the component is constant).
fn first_differing_byte(min: u64, max: u64) -> Option<u8> {
    let diff = min ^ max;
    if diff == 0 {
        None
    } else {
        Some((diff.leading_zeros() / 8) as u8)
    }
}

/// Extracts the byte of pair `(s, o)` addressed by `level` (see
/// [`active_levels`]).
#[inline]
fn byte_at(s: u64, o: u64, level: u8) -> usize {
    if level < 8 {
        ((s >> (8 * (7 - level))) & 0xFF) as usize
    } else {
        ((o >> (8 * (15 - level))) & 0xFF) as usize
    }
}

fn radix_recurse(pairs: &mut [u64], scratch: &mut [u64], levels: &[u8], depth: usize) {
    let n_pairs = pairs.len() / 2;
    if n_pairs <= 1 || depth >= levels.len() {
        return;
    }
    if n_pairs <= SMALL_BUCKET_PAIRS {
        insertion_sort_pairs(pairs);
        return;
    }
    let level = levels[depth];

    // Count digit occurrences.
    let mut counts = [0usize; 256];
    for pair in pairs.chunks_exact(2) {
        counts[byte_at(pair[0], pair[1], level)] += 1;
    }

    // Prefix sums → bucket start offsets (in pairs).
    let mut offsets = [0usize; 256];
    let mut acc = 0usize;
    for digit in 0..256 {
        offsets[digit] = acc;
        acc += counts[digit];
    }

    // Scatter into the scratch buffer.
    {
        let mut cursor = offsets;
        for pair in pairs.chunks_exact(2) {
            let digit = byte_at(pair[0], pair[1], level);
            let dst = cursor[digit] * 2;
            scratch[dst] = pair[0];
            scratch[dst + 1] = pair[1];
            cursor[digit] += 1;
        }
    }
    pairs.copy_from_slice(&scratch[..pairs.len()]);

    // Recurse into each bucket on the next digit.
    for digit in 0..256 {
        let count = counts[digit];
        if count > 1 {
            let lo = offsets[digit] * 2;
            let hi = lo + count * 2;
            radix_recurse(&mut pairs[lo..hi], &mut scratch[lo..hi], levels, depth + 1);
        }
    }
}

/// In-place insertion sort of a small flat pair slice (the recursion
/// cutoff). Shifts pair slots directly — no tuple vector, no allocation.
pub(crate) fn insertion_sort_pairs(pairs: &mut [u64]) {
    debug_assert!(pairs.len().is_multiple_of(2));
    let n = pairs.len() / 2;
    for i in 1..n {
        let s = pairs[2 * i];
        let o = pairs[2 * i + 1];
        let mut j = i;
        while j > 0 && (pairs[2 * j - 2], pairs[2 * j - 1]) > (s, o) {
            pairs[2 * j] = pairs[2 * j - 2];
            pairs[2 * j + 1] = pairs[2 * j - 1];
            j -= 1;
        }
        pairs[2 * j] = s;
        pairs[2 * j + 1] = o;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::std_sort_pairs;
    use crate::pairs::is_sorted_pairs;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn empty_single_and_identical() {
        let mut v: Vec<u64> = vec![];
        msda_radix_sort_pairs(&mut v);
        assert!(v.is_empty());

        let mut v = vec![3, 4];
        msda_radix_sort_pairs(&mut v);
        assert_eq!(v, vec![3, 4]);

        let mut v = vec![5, 5, 5, 5, 5, 5];
        msda_radix_sort_pairs(&mut v);
        assert_eq!(v, vec![5, 5, 5, 5, 5, 5]);
    }

    #[test]
    fn small_example() {
        let mut v = vec![4, 1, 2, 3, 1, 2, 5, 3, 4, 4];
        msda_radix_sort_pairs(&mut v);
        assert_eq!(v, vec![1, 2, 2, 3, 4, 1, 4, 4, 5, 3]);
    }

    #[test]
    fn first_differing_byte_positions() {
        assert_eq!(first_differing_byte(0, 0), None);
        assert_eq!(first_differing_byte(7, 7), None);
        assert_eq!(first_differing_byte(0, 1), Some(7));
        assert_eq!(first_differing_byte(0, 255), Some(7));
        assert_eq!(first_differing_byte(0, 256), Some(6));
        // "For a range of 10 million with an 8-bit radix, significant values
        // start at the sixth byte out of eight" (paper §5.3) — i.e. index 5.
        assert_eq!(
            first_differing_byte(1 << 32, (1 << 32) + 10_000_000),
            Some(5)
        );
        assert_eq!(first_differing_byte(0, u64::MAX), Some(0));
    }

    #[test]
    fn adaptive_skip_levels_for_dense_ids() {
        // Subjects span ~10M around 2^32 → subject bytes 5..8 are examined;
        // objects span 0..5 → only the last object byte (level 15) is.
        let base = 1u64 << 32;
        let pairs = vec![
            base + 1,
            base + 5,
            base + 9_999_999,
            base + 2,
            base + 3,
            base,
        ];
        let levels = active_levels(pair_bounds(&pairs).expect("non-empty"));
        assert_eq!(levels, vec![5, 6, 7, 15]);
    }

    #[test]
    fn constant_subject_only_examines_object_bytes() {
        let pairs = vec![42, 9, 42, 1, 42, 100];
        let levels = active_levels(pair_bounds(&pairs).expect("non-empty"));
        assert!(levels.iter().all(|&l| l >= 8));
        let mut v = pairs.clone();
        msda_radix_sort_pairs(&mut v);
        assert_eq!(v, vec![42, 1, 42, 9, 42, 100]);
    }

    #[test]
    fn matches_std_sort_on_random_dense_input() {
        let mut rng = StdRng::seed_from_u64(11);
        let base = 1u64 << 32;
        for n in [100usize, 1000, 20_000] {
            let mut v: Vec<u64> = (0..2 * n)
                .map(|_| base + rng.gen_range(0..5_000u64))
                .collect();
            let mut expected = v.clone();
            std_sort_pairs(&mut expected);
            msda_radix_sort_pairs(&mut v);
            assert_eq!(v, expected);
        }
    }

    #[test]
    fn matches_std_sort_on_sparse_input() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut v: Vec<u64> = (0..10_000).map(|_| rng.gen::<u64>()).collect();
        let mut expected = v.clone();
        std_sort_pairs(&mut expected);
        msda_radix_sort_pairs(&mut v);
        assert_eq!(v, expected);
    }

    #[test]
    fn dedup_variant() {
        let mut v = vec![9, 9, 1, 2, 9, 9, 1, 2, 1, 3];
        msda_radix_sort_pairs_dedup(&mut v);
        assert_eq!(v, vec![1, 2, 1, 3, 9, 9]);
    }

    #[test]
    fn insertion_sort_is_in_place_and_correct() {
        let mut rng = StdRng::seed_from_u64(5);
        for n in 0..=SMALL_BUCKET_PAIRS {
            let mut v: Vec<u64> = (0..2 * n).map(|_| rng.gen_range(0..30u64)).collect();
            let mut expected = v.clone();
            std_sort_pairs(&mut expected);
            insertion_sort_pairs(&mut v);
            assert_eq!(v, expected, "n = {n}");
        }
    }

    #[test]
    fn reused_scratch_matches_fresh_scratch() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut scratch = SortScratch::new();
        for n in [2000usize, 50, 400, 20_000, 5] {
            let mut v: Vec<u64> = (0..2 * n).map(|_| rng.gen::<u64>()).collect();
            let mut expected = v.clone();
            std_sort_pairs(&mut expected);
            msda_radix_sort_pairs_with(&mut v, &mut scratch);
            assert_eq!(v, expected, "n = {n}");
        }
    }

    proptest! {
        #[test]
        fn prop_matches_generic_sort(mut values in proptest::collection::vec(any::<u64>(), 0..300)) {
            if values.len() % 2 == 1 {
                values.pop();
            }
            let mut expected = values.clone();
            std_sort_pairs(&mut expected);
            let mut actual = values;
            msda_radix_sort_pairs(&mut actual);
            prop_assert!(is_sorted_pairs(&actual));
            prop_assert_eq!(actual, expected);
        }

        #[test]
        fn prop_low_entropy_matches_generic_sort(mut values in proptest::collection::vec(0u64..100, 0..300)) {
            if values.len() % 2 == 1 {
                values.pop();
            }
            let mut expected = values.clone();
            std_sort_pairs(&mut expected);
            let mut actual = values;
            msda_radix_sort_pairs(&mut actual);
            prop_assert_eq!(actual, expected);
        }
    }
}
