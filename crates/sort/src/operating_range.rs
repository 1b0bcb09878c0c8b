//! Operating-range selection between the counting and radix kernels
//! (paper §5.4).
//!
//! The paper's measurements (Table 1) lead to a simple rule of thumb:
//!
//! > "counting outperforms MSD radix when the size of the collection is
//! > greater than its range. When the range is greater than the number of
//! > elements, the adaptive MSD radix consistently outperforms the standard
//! > implementation."
//!
//! [`recommend_algorithm`] implements exactly that decision, with one
//! practical safeguard: counting sort allocates a histogram of `range`
//! entries, so for enormous sparse ranges (where it would also be slow) the
//! radix kernel is always chosen. [`sort_pairs_auto`] applies the decision
//! and sorts.

use crate::counting::{counting_sort_bounded, counting_sort_parts_dedup_bounded};
use crate::pairs::{pair_bounds, subject_min_max, PairBounds};
use crate::radix::{msda_radix_sort_bounded, msda_radix_sort_pairs_dedup_bounded};
use crate::scratch::SortScratch;

/// The sorting kernel chosen for a given pair array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Pair counting sort (Algorithm 2) — dense collections.
    Counting,
    /// Adaptive MSD radix sort — sparse collections.
    MsdaRadix,
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Algorithm::Counting => write!(f, "counting"),
            Algorithm::MsdaRadix => write!(f, "msda-radix"),
        }
    }
}

/// Hard cap on the counting-sort histogram size (number of `u32` buckets).
/// Beyond this, the histogram itself would dominate memory traffic, so the
/// radix kernel is used regardless of the density rule.
pub const MAX_COUNTING_RANGE: u64 = 1 << 27; // 128 Mi buckets = 512 MiB

/// Chooses a kernel for a collection of `n_pairs` pairs whose subjects span
/// `subject_range` distinct possible values (`max − min + 1`).
pub fn recommend_algorithm(n_pairs: usize, subject_range: u64) -> Algorithm {
    if subject_range == 0 {
        return Algorithm::Counting;
    }
    if subject_range > MAX_COUNTING_RANGE {
        return Algorithm::MsdaRadix;
    }
    if n_pairs as u64 >= subject_range {
        Algorithm::Counting
    } else {
        Algorithm::MsdaRadix
    }
}

/// Inspects `pairs` and returns the kernel the rule of thumb selects for it.
pub fn recommend_for(pairs: &[u64]) -> Algorithm {
    match subject_min_max(pairs) {
        None => Algorithm::Counting,
        Some((min, max)) => recommend_algorithm(pairs.len() / 2, max - min + 1),
    }
}

/// Sorts a flat pair array with the kernel picked by the operating-range
/// rule, keeping duplicates. Returns the kernel used.
pub fn sort_pairs_auto(pairs: &mut Vec<u64>) -> Algorithm {
    sort_pairs_auto_with(pairs, &mut SortScratch::new())
}

/// Sorts a flat pair array and removes duplicate pairs with the kernel picked
/// by the operating-range rule. Returns the kernel used.
pub fn sort_pairs_auto_dedup(pairs: &mut Vec<u64>) -> Algorithm {
    sort_pairs_auto_dedup_with(pairs, &mut SortScratch::new())
}

/// [`sort_pairs_auto`] against a reusable [`SortScratch`]: repeated calls —
/// the Figure 5 update stage sorts every property's inferred pairs on every
/// iteration — allocate nothing once the scratch reaches its high-water
/// mark. The array is scanned for its bounds once; the kernel it picks
/// reuses them.
pub fn sort_pairs_auto_with(pairs: &mut Vec<u64>, scratch: &mut SortScratch) -> Algorithm {
    let Some(bounds) = pair_bounds(pairs) else {
        return Algorithm::Counting;
    };
    let algo = recommend_within(pairs.len() / 2, bounds);
    match algo {
        Algorithm::Counting => counting_sort_bounded(pairs, false, scratch, bounds),
        Algorithm::MsdaRadix => msda_radix_sort_bounded(pairs, scratch, bounds),
    }
    algo
}

/// [`sort_pairs_auto_dedup`] against a reusable [`SortScratch`].
pub fn sort_pairs_auto_dedup_with(pairs: &mut Vec<u64>, scratch: &mut SortScratch) -> Algorithm {
    let Some(bounds) = pair_bounds(pairs) else {
        return Algorithm::Counting;
    };
    sort_dedup_within(pairs, scratch, bounds)
}

/// [`sort_pairs_auto_dedup_with`] from scanned bounds.
fn sort_dedup_within(
    pairs: &mut Vec<u64>,
    scratch: &mut SortScratch,
    bounds: PairBounds,
) -> Algorithm {
    let algo = recommend_within(pairs.len() / 2, bounds);
    match algo {
        Algorithm::Counting => counting_sort_bounded(pairs, true, scratch, bounds),
        Algorithm::MsdaRadix => msda_radix_sort_pairs_dedup_bounded(pairs, scratch, bounds),
    }
    algo
}

/// [`sort_pairs_auto_dedup_with`] over the concatenation of `parts` — the
/// same sorted, duplicate-free pairs — without building the concatenation
/// when the rule of thumb picks the counting kernel: that kernel scatters
/// every part where it lies and rebuilds into the largest part's allocation
/// after freeing the others — no concatenated copy of the pairs (see
/// `counting_sort_parts_dedup_bounded` for when a fresh allocation is
/// taken instead, and when the result is shrunk). For the
/// radix kernel, and for a single part, the parts are concatenated into the
/// largest and sorted as one array.
///
/// # Panics
/// Panics if a part has odd length.
pub fn sort_parts_auto_dedup_with(mut parts: Vec<Vec<u64>>, scratch: &mut SortScratch) -> Vec<u64> {
    for part in &parts {
        assert!(
            part.len().is_multiple_of(2),
            "pair array must have even length"
        );
    }
    let n_pairs: usize = parts.iter().map(|part| part.len() / 2).sum();
    let bounds = parts
        .iter()
        .filter_map(|part| pair_bounds(part))
        .reduce(PairBounds::union);
    match bounds {
        Some(bounds)
            if parts.len() > 1
                && n_pairs > 1
                && recommend_within(n_pairs, bounds) == Algorithm::Counting =>
        {
            counting_sort_parts_dedup_bounded(parts, scratch, bounds)
        }
        _ => {
            let largest = (0..parts.len()).max_by_key(|&i| parts[i].capacity());
            let mut pairs = largest.map_or_else(Vec::new, |i| parts.swap_remove(i));
            pairs.reserve(2 * n_pairs - pairs.len());
            for part in parts {
                pairs.extend_from_slice(&part);
            }
            if let Some(bounds) = bounds {
                sort_dedup_within(&mut pairs, scratch, bounds);
            }
            pairs
        }
    }
}

/// [`recommend_algorithm`] from scanned bounds. The span is computed
/// without the `+ 1` that would wrap on the full `u64` range.
pub(crate) fn recommend_within(n_pairs: usize, bounds: PairBounds) -> Algorithm {
    let (min, max) = bounds.subjects;
    recommend_algorithm(n_pairs, (max - min).saturating_add(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::std_sort_pairs;
    use crate::pairs::{dedup_sorted_pairs, is_sorted_pairs};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn rule_of_thumb_matches_paper_operating_ranges() {
        // Dense cases from Table 1 (size ≥ range) → counting.
        assert_eq!(
            recommend_algorithm(25_000_000, 1_000_000),
            Algorithm::Counting
        );
        assert_eq!(recommend_algorithm(500_000, 500_000), Algorithm::Counting);
        // Sparse cases (range > size) → radix.
        assert_eq!(
            recommend_algorithm(500_000, 10_000_000),
            Algorithm::MsdaRadix
        );
        assert_eq!(
            recommend_algorithm(1_000_000, 50_000_000),
            Algorithm::MsdaRadix
        );
    }

    #[test]
    fn huge_ranges_never_use_counting() {
        assert_eq!(
            recommend_algorithm(usize::MAX, MAX_COUNTING_RANGE + 1),
            Algorithm::MsdaRadix
        );
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        assert_eq!(recommend_algorithm(0, 0), Algorithm::Counting);
        let mut v: Vec<u64> = vec![];
        sort_pairs_auto(&mut v);
        assert!(v.is_empty());
    }

    #[test]
    fn auto_sort_produces_sorted_output_in_both_regimes() {
        let mut rng = StdRng::seed_from_u64(99);
        // Dense: 10k pairs over a range of 100.
        let mut dense: Vec<u64> = (0..20_000).map(|_| rng.gen_range(0..100)).collect();
        let mut expected = dense.clone();
        std_sort_pairs(&mut expected);
        assert_eq!(sort_pairs_auto(&mut dense), Algorithm::Counting);
        assert_eq!(dense, expected);

        // Sparse: 100 pairs over a 2^40 range.
        let mut sparse: Vec<u64> = (0..200).map(|_| rng.gen_range(0..(1u64 << 40))).collect();
        let mut expected = sparse.clone();
        std_sort_pairs(&mut expected);
        assert_eq!(sort_pairs_auto(&mut sparse), Algorithm::MsdaRadix);
        assert_eq!(sparse, expected);
    }

    proptest! {
        #[test]
        fn prop_auto_dedup_equals_generic(mut values in proptest::collection::vec(0u64..10_000, 0..300)) {
            if values.len() % 2 == 1 {
                values.pop();
            }
            let mut expected = values.clone();
            std_sort_pairs(&mut expected);
            dedup_sorted_pairs(&mut expected);
            let mut actual = values;
            sort_pairs_auto_dedup(&mut actual);
            prop_assert!(is_sorted_pairs(&actual));
            prop_assert_eq!(actual, expected);
        }
    }
}
