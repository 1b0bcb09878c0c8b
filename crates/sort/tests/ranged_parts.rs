//! The ranged kernel against the multi-part kernel and a merge: for one to
//! four lanes, [`merge_parts_ranged`] over the rules' parts and a sorted
//! *main* must give the parts' sorted, duplicate-free pairs
//! ([`sort_parts_auto_dedup_with`]) split into those *main* lacks and those
//! it holds, and their union with *main* — for empty parts, all-duplicate
//! input, object spans on both sides of the stamp bound, more pairs than
//! the stamp probe, and one set of scratches reused across calls. Parts
//! the §5.4 rule sends to the radix kernel — subjects further apart than
//! the counting range, or than there are pairs — come back untouched.

use inferray_sort::counting::STAMP_PROBE_PAIRS;
use inferray_sort::operating_range::{recommend_algorithm, Algorithm, MAX_COUNTING_RANGE};
use inferray_sort::{
    merge_parts_ranged, sort_parts_auto_dedup_with, Lanes, RangedMerge, SortScratch,
};
use proptest::prelude::*;
use std::cell::RefCell;

/// Lanes on real threads, one per task.
struct Threads;

impl Lanes for Threads {
    fn run<'env, R, F>(&self, tasks: Vec<F>) -> Vec<R>
    where
        F: FnOnce() -> R + Send + 'env,
        R: Send + 'env,
    {
        std::thread::scope(|scope| {
            let handles: Vec<_> = tasks.into_iter().map(|task| scope.spawn(task)).collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("lane panicked"))
                .collect()
        })
    }
}

thread_local! {
    /// Four scratches for every case of a run, as a pool's lanes keep
    /// theirs across the tables and iterations of a materialization.
    static SCRATCHES: RefCell<Vec<SortScratch>> =
        RefCell::new((0..4).map(|_| SortScratch::new()).collect());
}

const BASE: u64 = (1 << 32) - 16;

/// How the pairs of one case are spread.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Few subjects and objects, many repeats: the stamp pass.
    Dense,
    /// Objects spread far apart: no stamp pass.
    SparseObjects,
    /// Subjects further apart than the counting range: handed back.
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

/// A sorted, duplicate-free *main* and one to eight parts of up to 60
/// pairs each — some of them empty — all of one shape.
fn case() -> impl Strategy<Value = (Vec<u64>, Vec<Vec<u64>>)> {
    let shape = prop_oneof![
        Just(Shape::Dense),
        Just(Shape::SparseObjects),
        Just(Shape::WideSubjects),
        Just(Shape::AllDuplicate),
    ];
    let pairs = |len| proptest::collection::vec((0u64..64, 0u64..64), len);
    let part = prop_oneof![Just(Vec::new()), pairs(1..60), pairs(1..60)];
    (shape, pairs(0..40), proptest::collection::vec(part, 1..9)).prop_map(|(shape, main, parts)| {
        let flat = |pairs: Vec<(u64, u64)>| -> Vec<u64> {
            pairs
                .into_iter()
                .flat_map(|(s, o)| pair(shape, s, o))
                .collect()
        };
        let mut main = flat(main);
        inferray_sort::sort_pairs_auto_dedup(&mut main);
        (main, parts.into_iter().map(flat).collect())
    })
}

fn tuples(pairs: &[u64]) -> Vec<(u64, u64)> {
    pairs.chunks_exact(2).map(|p| (p[0], p[1])).collect()
}

/// What the ranged kernel must return, from the multi-part kernel and a
/// merge of sorted tuples.
fn expected(main: &[u64], parts: &[Vec<u64>]) -> RangedMerge {
    let distinct = tuples(&sort_parts_auto_dedup_with(
        parts.to_vec(),
        &mut SortScratch::new(),
    ));
    let held = tuples(main);
    let (old, fresh): (Vec<_>, Vec<_>) = distinct
        .iter()
        .partition(|pair| held.binary_search(pair).is_ok());
    let mut merged: Vec<(u64, u64)> = held.iter().chain(&fresh).copied().collect();
    merged.sort_unstable();
    let flat = |pairs: &[(u64, u64)]| pairs.iter().flat_map(|&(s, o)| [s, o]).collect();
    RangedMerge {
        distinct: distinct.len(),
        duplicates_against_main: old.len(),
        first: distinct.first().copied(),
        merged: if fresh.is_empty() {
            Vec::new()
        } else {
            flat(&merged)
        },
        fresh: flat(&fresh),
    }
}

fn ranged(main: &[u64], parts: &[Vec<u64>], lanes: usize) -> Result<RangedMerge, Vec<Vec<u64>>> {
    SCRATCHES.with_borrow_mut(|scratches| {
        merge_parts_ranged(parts.to_vec(), main, &mut scratches[..lanes], &Threads)
    })
}

proptest! {
    #[test]
    fn ranged_parts_sort_and_merge_like_the_multi_part_kernel((main, parts) in case()) {
        let expected = expected(&main, &parts);
        let subjects = || parts.iter().flat_map(|part| part.iter().step_by(2));
        let counting = subjects().min().zip(subjects().max()).is_some_and(|(min, max)| {
            let pairs = subjects().count();
            recommend_algorithm(pairs, max - min + 1) == Algorithm::Counting
        });
        for lanes in 1..=4 {
            match ranged(&main, &parts, lanes) {
                Ok(merge) => prop_assert_eq!(&merge, &expected, "{} lanes", lanes),
                Err(back) => {
                    prop_assert!(!counting, "counting parts are merged");
                    prop_assert_eq!(&back, &parts);
                }
            }
        }
    }
}

/// Enough pairs for the stamp pass to judge (more than `STAMP_PROBE_PAIRS`
/// per lane), split over three parts that repeat each other.
#[test]
fn repeats_across_parts_go_past_the_stamp_probe() {
    let probe = STAMP_PROBE_PAIRS as u64;
    let part = |offset: u64| -> Vec<u64> {
        (0..4 * probe)
            .flat_map(|i| [BASE + i / 8, BASE + (i + offset) % 8])
            .collect()
    };
    let parts = vec![part(0), part(3), part(0)];
    let main: Vec<u64> = (0..probe).flat_map(|i| [BASE + 2 * i, BASE + 1]).collect();
    let expected = expected(&main, &parts);
    assert_eq!(expected.distinct as u64, 4 * probe);
    for lanes in 1..=4 {
        assert_eq!(
            ranged(&main, &parts, lanes),
            Ok(expected.clone()),
            "{lanes} lanes"
        );
    }
}

/// More lanes than subjects: the cuts leave ranges empty, and the empty
/// ranges write nothing.
#[test]
fn more_lanes_than_subjects() {
    let parts = vec![vec![BASE, 9, BASE, 4, BASE + 1, 2, BASE, 4]];
    let main = vec![BASE, 5, BASE + 1, 2];
    let expected = expected(&main, &parts);
    assert_eq!(tuples(&expected.fresh), vec![(BASE, 4), (BASE, 9)]);
    for lanes in 1..=4 {
        assert_eq!(
            ranged(&main, &parts, lanes),
            Ok(expected.clone()),
            "{lanes} lanes"
        );
    }
}
