//! The kernels under the input the update stage actually feeds them: long
//! subject runs, few distinct objects per run, four pairs in five a repeat,
//! identifiers either side of 2³² — the inferred `rdf:type` pairs of a
//! fixed-point iteration, in miniature.
//!
//! Every kernel that removes duplicates is compared with the generic
//! `std_sort_pairs` + `dedup_sorted_pairs`. One [`SortScratch`] serves all
//! cases of a run, the way one scratch serves all tables of a lane: the
//! counting kernel's stamp array is never cleared, so a stamp that outlived
//! the run it was written for would drop a pair in a later case. Object
//! spans fall on both sides of the stamp bound (span ≤ number of pairs).

use inferray_sort::baseline::std_sort_pairs;
use inferray_sort::{
    counting_sort_pairs_dedup_with, dedup_sorted_pairs, msda_radix_sort_pairs_dedup_with,
    sort_pairs_auto_dedup_with, SortScratch,
};
use proptest::prelude::*;
use std::cell::RefCell;

thread_local! {
    static SCRATCH: RefCell<SortScratch> = RefCell::new(SortScratch::new());
}

/// `picks.len()` pairs over at most 5 subjects and 8 objects: at least
/// 250 − 40 of every 250 are repeats (≥ 84 %). `stride` spreads the objects:
/// `1` keeps their span under the pair count (stamp pass), `1 << 20` puts it
/// far over (sort, then skip repeats).
fn duplicate_heavy() -> impl Strategy<Value = Vec<u64>> {
    (
        1u64..6,
        1u64..9,
        prop_oneof![Just(1u64), Just(3u64), Just(1u64 << 20)],
        0u64..64,
        proptest::collection::vec((0u64..5, 0u64..8), 250..600),
    )
        .prop_map(|(subjects, objects, stride, offset, picks)| {
            // Subjects and objects straddle 2³², where property identifiers
            // end and resource identifiers begin.
            let base = (1u64 << 32) - 32 + offset;
            picks
                .into_iter()
                .flat_map(|(s, o)| [base + s % subjects, base + (o % objects) * stride])
                .collect()
        })
}

fn reference(pairs: &[u64]) -> Vec<u64> {
    let mut expected = pairs.to_vec();
    std_sort_pairs(&mut expected);
    dedup_sorted_pairs(&mut expected);
    expected
}

/// The stamp pass gives up on a call whose first `STAMP_PROBE_PAIRS` pairs
/// held next to no repeats. The runs after that point are sorted first and
/// deduplicated after — the repeats they hold must still go.
#[test]
fn repeats_after_the_stamp_pass_gave_up_are_still_removed() {
    let base = 1u64 << 32;
    let probe = inferray_sort::counting::STAMP_PROBE_PAIRS as u64;
    // Low subjects: runs of 16 distinct objects, no repeat anywhere.
    let mut pairs: Vec<u64> = (0..2 * probe)
        .flat_map(|i| [base + i / 16, base + i % 16])
        .collect();
    // High subjects: runs of 64 pairs over 4 objects.
    pairs.extend((0..2 * probe).flat_map(|i| [base + probe + i / 64, base + i % 4]));
    let expected = reference(&pairs);
    assert_eq!(expected.len() as u64 / 2, 2 * probe + 2 * probe / 16);
    for rotation in [0, 2 * probe as usize] {
        // Subject order in the input does not matter: runs are visited in
        // ascending subject order either way.
        let mut actual = pairs.clone();
        actual.rotate_left(2 * rotation);
        SCRATCH.with_borrow_mut(|scratch| counting_sort_pairs_dedup_with(&mut actual, scratch));
        assert_eq!(actual, expected);
    }
}

proptest! {
    #[test]
    fn counting_dedup_matches_the_generic_sort(pairs in duplicate_heavy()) {
        let expected = reference(&pairs);
        prop_assert!(expected.len() * 5 <= pairs.len(), "generator: ≥ 80 % repeats");
        let mut actual = pairs;
        SCRATCH.with_borrow_mut(|scratch| counting_sort_pairs_dedup_with(&mut actual, scratch));
        prop_assert_eq!(actual, expected);
    }

    #[test]
    fn auto_dedup_matches_the_generic_sort(pairs in duplicate_heavy()) {
        let expected = reference(&pairs);
        let mut actual = pairs;
        SCRATCH.with_borrow_mut(|scratch| sort_pairs_auto_dedup_with(&mut actual, scratch));
        prop_assert_eq!(actual, expected);
    }

    #[test]
    fn radix_dedup_matches_the_generic_sort(pairs in duplicate_heavy()) {
        let expected = reference(&pairs);
        let mut actual = pairs;
        SCRATCH.with_borrow_mut(|scratch| msda_radix_sort_pairs_dedup_with(&mut actual, scratch));
        prop_assert_eq!(actual, expected);
    }

    /// The three kernels share one scratch within a case too: a counting
    /// call between two others must leave nothing they trip over.
    #[test]
    fn kernels_interleave_on_one_scratch(a in duplicate_heavy(), b in duplicate_heavy()) {
        let (expected_a, expected_b) = (reference(&a), reference(&b));
        let (mut first, mut second, mut third) = (a.clone(), b, a);
        SCRATCH.with_borrow_mut(|scratch| {
            counting_sort_pairs_dedup_with(&mut first, scratch);
            msda_radix_sort_pairs_dedup_with(&mut second, scratch);
            counting_sort_pairs_dedup_with(&mut third, scratch);
        });
        prop_assert_eq!(&first, &expected_a);
        prop_assert_eq!(second, expected_b);
        prop_assert_eq!(third, expected_a);
    }
}
