//! The multi-part kernel against the one it replaces: sorting the rules'
//! buffers where they lie ([`sort_parts_auto_dedup_with`]) must give what
//! concatenating them and calling [`sort_pairs_auto_dedup_with`] gives — for
//! one to eight parts, empty parts, all-duplicate input, object spans on
//! both sides of the stamp bound, and subject spans outside the counting
//! range (where the parts are concatenated and radix-sorted). One
//! [`SortScratch`] serves all cases of a run, as one serves all tables of a
//! lane.

use inferray_sort::operating_range::MAX_COUNTING_RANGE;
use inferray_sort::{sort_pairs_auto_dedup_with, sort_parts_auto_dedup_with, SortScratch};
use proptest::prelude::*;
use std::cell::RefCell;

thread_local! {
    static SCRATCH: RefCell<SortScratch> = RefCell::new(SortScratch::new());
}

/// Identifiers straddle 2³², where property identifiers end and resource
/// identifiers begin.
const BASE: u64 = (1 << 32) - 16;

/// How the pairs of one case are spread.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Few subjects and objects, many repeats: the counting kernel with
    /// the stamp pass.
    Dense,
    /// Objects spread far apart: the counting kernel without the stamp
    /// pass.
    SparseObjects,
    /// Subjects further apart than the counting range: radix.
    WideSubjects,
    /// Every pair is the same pair.
    AllDuplicate,
}

fn pair(shape: Shape, s: u64, o: u64) -> [u64; 2] {
    match shape {
        Shape::Dense => [BASE + s % 12, BASE + o % 10],
        Shape::SparseObjects => [BASE + s % 12, BASE + (o % 10) * (1 << 20)],
        Shape::WideSubjects => [BASE + (s % 3) * MAX_COUNTING_RANGE, BASE + o % 10],
        Shape::AllDuplicate => [BASE + 7, BASE + 3],
    }
}

/// One to eight parts of up to 60 pairs each — some of them empty — all of
/// one shape.
fn parts() -> impl Strategy<Value = Vec<Vec<u64>>> {
    let shape = prop_oneof![
        Just(Shape::Dense),
        Just(Shape::SparseObjects),
        Just(Shape::WideSubjects),
        Just(Shape::AllDuplicate),
    ];
    let part = prop_oneof![
        Just(Vec::new()),
        proptest::collection::vec((0u64..64, 0u64..64), 1..60),
        proptest::collection::vec((0u64..64, 0u64..64), 1..60),
    ];
    (shape, proptest::collection::vec(part, 1..9)).prop_map(|(shape, parts)| {
        parts
            .into_iter()
            .map(|part| {
                part.into_iter()
                    .flat_map(|(s, o)| pair(shape, s, o))
                    .collect()
            })
            .collect()
    })
}

fn concatenated(parts: &[Vec<u64>]) -> Vec<u64> {
    let mut pairs = parts.concat();
    sort_pairs_auto_dedup_with(&mut pairs, &mut SortScratch::new());
    pairs
}

proptest! {
    #[test]
    fn parts_sort_like_their_concatenation(parts in parts()) {
        let expected = concatenated(&parts);
        let actual = SCRATCH.with_borrow_mut(|scratch| sort_parts_auto_dedup_with(parts, scratch));
        prop_assert_eq!(actual, expected);
    }

    /// Two calls in a row on one scratch: what the first left in the stamp
    /// array and the arenas must not show in the second.
    #[test]
    fn consecutive_calls_share_a_scratch(a in parts(), b in parts()) {
        let (expected_a, expected_b) = (concatenated(&a), concatenated(&b));
        let (first, second) = SCRATCH.with_borrow_mut(|scratch| {
            (sort_parts_auto_dedup_with(a, scratch), sort_parts_auto_dedup_with(b, scratch))
        });
        prop_assert_eq!(first, expected_a);
        prop_assert_eq!(second, expected_b);
    }
}

/// Enough pairs for the stamp pass to judge (more than `STAMP_PROBE_PAIRS`),
/// split over three parts: repeats across parts go, as they would in one
/// array.
#[test]
fn repeats_across_parts_are_removed_past_the_stamp_probe() {
    let probe = inferray_sort::counting::STAMP_PROBE_PAIRS as u64;
    let part = |offset: u64| -> Vec<u64> {
        (0..probe)
            .flat_map(|i| [BASE + i / 8, BASE + (i + offset) % 8])
            .collect()
    };
    let parts = vec![part(0), part(3), part(0)];
    let expected = concatenated(&parts);
    assert_eq!(expected.len() as u64, 2 * probe);
    let actual = SCRATCH.with_borrow_mut(|scratch| sort_parts_auto_dedup_with(parts, scratch));
    assert_eq!(actual, expected);
}

#[test]
fn no_parts_and_empty_parts_give_nothing() {
    let mut scratch = SortScratch::new();
    assert!(sort_parts_auto_dedup_with(Vec::new(), &mut scratch).is_empty());
    assert!(sort_parts_auto_dedup_with(vec![Vec::new(), Vec::new()], &mut scratch).is_empty());
    assert_eq!(
        sort_parts_auto_dedup_with(vec![Vec::new(), vec![5, 6], Vec::new()], &mut scratch),
        vec![5, 6]
    );
}
