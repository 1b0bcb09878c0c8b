//! The update stage merges each property's raw pairs as the rules emitted
//! them — one part per rule ([`merge_new_parts_with`]) — instead of first
//! concatenating them. That must be invisible: against the same *main*, the
//! parts merge and [`merge_new_pairs_with`] over the concatenation leave the
//! same updated table, return the same new table and report the same
//! counters, strategy included — for one to eight parts, empty parts, parts
//! that repeat each other or *main*, and subject spans on both sides of the
//! counting range.

use inferray_sort::operating_range::MAX_COUNTING_RANGE;
use inferray_store::{merge_new_pairs_with, merge_new_parts_with, PropertyTable, SortScratch};
use proptest::prelude::*;
use std::cell::RefCell;

thread_local! {
    static SCRATCH: RefCell<SortScratch> = RefCell::new(SortScratch::new());
}

const BASE: u64 = 1 << 32;

/// *main* and one to eight parts over few subjects and objects. Subjects
/// are either dense (`stride` 1: the counting kernel) or further apart than
/// the counting range (radix).
fn case() -> impl Strategy<Value = (Vec<u64>, Vec<Vec<u64>>)> {
    let pairs = |len| proptest::collection::vec((0u64..40, 0u64..6), len);
    let part = prop_oneof![Just(Vec::new()), pairs(1..50), pairs(1..50)];
    (
        prop_oneof![Just(1u64), Just(MAX_COUNTING_RANGE)],
        pairs(0..80),
        proptest::collection::vec(part, 1..9),
    )
        .prop_map(|(stride, main, parts)| {
            let flat = |pairs: Vec<(u64, u64)>| -> Vec<u64> {
                pairs
                    .into_iter()
                    .flat_map(|(s, o)| [BASE + s * stride, BASE + o])
                    .collect()
            };
            (flat(main), parts.into_iter().map(flat).collect())
        })
}

proptest! {
    #[test]
    fn parts_merge_like_their_concatenation((main, parts) in case()) {
        let mut by_parts = PropertyTable::from_pairs(main.clone());
        let mut by_concat = PropertyTable::from_pairs(main);
        let concatenated = parts.concat();

        let (parts_new, parts_outcome) = SCRATCH.with_borrow_mut(|scratch| {
            merge_new_parts_with(&mut by_parts, parts, scratch)
        });
        let (concat_new, concat_outcome) =
            merge_new_pairs_with(&mut by_concat, concatenated, &mut SortScratch::new());

        prop_assert_eq!(by_parts.pairs(), by_concat.pairs());
        prop_assert_eq!(parts_new.pairs(), concat_new.pairs());
        prop_assert_eq!(parts_outcome, concat_outcome);
        prop_assert!(by_parts.debug_validate().is_ok());
    }
}

/// A delta that *main* already holds, split over parts, is a no-op merge:
/// nothing new, *main* untouched.
#[test]
fn fully_duplicate_parts_leave_main_untouched() {
    let main: Vec<u64> = (0..64u64)
        .flat_map(|i| [BASE + i / 4, BASE + i % 4])
        .collect();
    let mut table = PropertyTable::from_pairs(main.clone());
    let parts = vec![main[..40].to_vec(), main[20..].to_vec(), main.clone()];
    let (new, outcome) = merge_new_parts_with(&mut table, parts, &mut SortScratch::new());
    assert!(new.is_empty());
    assert_eq!(outcome.new_pairs, 0);
    assert_eq!(outcome.inferred_raw, 20 + 54 + 64);
    assert_eq!(table.pairs(), &main[..]);
}
