//! The ranged update against the merge it stands in for: splitting one
//! table's update by subject range across one to four lanes
//! ([`merge_new_parts_ranged`]) must leave the same *main* bytes, return the
//! same new table and report the same [`MergeOutcome`] — strategy included
//! — as [`merge_new_parts_with`], and leave the ⟨o,s⟩ cache in the same
//! state: kept exactly when the splice would keep it, and then equal to a
//! rebuild. Cases: an empty, a finalized and a dirty *main*; random
//! deltas, tail appends, all-duplicate deltas, deltas small enough to keep
//! a cache, and one subject holding most pairs (a cut never splits a
//! subject). Parts the counting kernel is not picked for — subjects spread
//! beyond the counting range, or sparser than the pairs — come back
//! untouched, for the merge of today.

use inferray_sort::operating_range::{recommend_algorithm, Algorithm, MAX_COUNTING_RANGE};
use inferray_store::{
    merge_new_parts_ranged, merge_new_parts_with, Lanes, MergeOutcome, PropertyTable, SortScratch,
};
use proptest::prelude::*;

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

const BASE: u64 = 1 << 32;

/// How a case's delta relates to *main*.
#[derive(Debug, Clone, Copy)]
enum Delta {
    /// Pairs anywhere in the subject range of *main*.
    Random,
    /// Every pair after the last pair of *main*.
    TailAppend,
    /// Pairs of *main* only.
    AllDuplicate,
    /// A few pairs: at most a sixteenth of *main*, so a cache is patched.
    Small,
    /// One subject holds most of the pairs.
    Skewed,
}

/// One case: *main*'s pairs, whether it is left dirty, whether its cache is
/// built, and the parts.
#[derive(Debug, Clone)]
struct Case {
    main: Vec<u64>,
    dirty: bool,
    cached: bool,
    parts: Vec<Vec<u64>>,
}

fn case() -> impl Strategy<Value = Case> {
    let delta = prop_oneof![
        Just(Delta::Random),
        Just(Delta::TailAppend),
        Just(Delta::AllDuplicate),
        Just(Delta::Small),
        Just(Delta::Skewed),
    ];
    let pairs = |len| proptest::collection::vec((0u64..12, 0u64..8), len);
    let part = prop_oneof![Just(Vec::new()), pairs(1..60), pairs(1..60)];
    (
        delta,
        prop_oneof![Just(1u64), Just(1u64), Just(1u64), Just(MAX_COUNTING_RANGE)],
        proptest::collection::vec((0u64..40, 0u64..8), 0..240),
        proptest::collection::vec(part, 1..6),
        0u8..4,
    )
        .prop_map(|(delta, stride, main, parts, flags)| {
            let main: Vec<(u64, u64)> = match delta {
                Delta::AllDuplicate | Delta::Small if main.is_empty() => vec![(3, 3)],
                _ => main,
            };
            let top = main.iter().map(|&(s, _)| s).max().unwrap_or(0);
            let mut parts: Vec<Vec<(u64, u64)>> = match delta {
                Delta::Random => parts,
                Delta::TailAppend => parts
                    .into_iter()
                    .map(|part| part.into_iter().map(|(s, o)| (top + 1 + s, o)).collect())
                    .collect(),
                Delta::AllDuplicate => parts
                    .into_iter()
                    .map(|part| {
                        let pick = |i: u64| main[(i as usize * 7) % main.len()];
                        part.into_iter().map(|(s, o)| pick(s * 8 + o)).collect()
                    })
                    .collect(),
                Delta::Small => {
                    let room = (main.len() / 16).max(1);
                    let mut budget = room;
                    parts
                        .into_iter()
                        .map(|part| {
                            let take = part.len().min(budget);
                            budget -= take;
                            part.into_iter().take(take).collect()
                        })
                        .collect()
                }
                Delta::Skewed => parts
                    .into_iter()
                    .map(|part| {
                        part.into_iter()
                            .enumerate()
                            .map(|(i, (s, o))| if i % 8 == 0 { (s, o) } else { (5, o + 8 * s) })
                            .collect()
                    })
                    .collect(),
            };
            if parts.iter().all(Vec::is_empty) {
                parts[0].push((1, 1));
            }
            let flat = |pairs: Vec<(u64, u64)>| -> Vec<u64> {
                pairs
                    .into_iter()
                    .flat_map(|(s, o)| [BASE + s * stride, BASE + o])
                    .collect()
            };
            let dirty = flags & 1 == 1;
            Case {
                main: flat(main),
                dirty,
                cached: !dirty && flags & 2 == 2,
                parts: parts.into_iter().map(flat).collect(),
            }
        })
}

/// *main* as the case describes it.
fn main_table(case: &Case) -> PropertyTable {
    if case.dirty {
        PropertyTable::from_raw(case.main.clone())
    } else {
        let mut table = PropertyTable::from_pairs(case.main.clone());
        if case.cached {
            table.ensure_os();
        }
        table
    }
}

/// The ⟨o,s⟩ cache of `table` is unbuilt, or equal to a rebuild.
fn cache_is_coherent(table: &PropertyTable) -> bool {
    table.os_pairs().is_none_or(|kept| {
        let mut rebuilt = PropertyTable::from_pairs(table.pairs().to_vec());
        rebuilt.ensure_os();
        rebuilt.os_pairs() == Some(kept)
    })
}

/// The §5.4 rule picks the counting kernel for the parts' pairs.
fn counting_is_picked(parts: &[Vec<u64>]) -> bool {
    let subjects = || parts.iter().flat_map(|part| part.iter().step_by(2));
    let span = match (subjects().min(), subjects().max()) {
        (Some(min), Some(max)) => max - min + 1,
        _ => return false,
    };
    let pairs = parts.iter().map(|part| part.len() / 2).sum();
    recommend_algorithm(pairs, span) == Algorithm::Counting
}

fn ranged(
    case: &Case,
    lanes: usize,
) -> Result<(PropertyTable, PropertyTable, MergeOutcome), Vec<Vec<u64>>> {
    let mut main = main_table(case);
    let mut scratches: Vec<SortScratch> = (0..lanes).map(|_| SortScratch::new()).collect();
    let (new, outcome) =
        merge_new_parts_ranged(&mut main, case.parts.clone(), &mut scratches, &Threads)?;
    Ok((main, new, outcome))
}

proptest! {
    #[test]
    fn the_ranged_update_is_the_parts_merge(case in case()) {
        let mut expected_main = main_table(&case);
        let (expected_new, expected) = merge_new_parts_with(
            &mut expected_main,
            case.parts.clone(),
            &mut SortScratch::new(),
        );
        for lanes in 1..=4 {
            match ranged(&case, lanes) {
                Ok((main, new, outcome)) => {
                    prop_assert_eq!(main.pairs(), expected_main.pairs(), "{} lanes", lanes);
                    prop_assert_eq!(new.pairs(), expected_new.pairs());
                    prop_assert_eq!(outcome, expected);
                    prop_assert_eq!(main.has_os_cache(), expected_main.has_os_cache());
                    prop_assert!(cache_is_coherent(&main));
                    prop_assert!(main.debug_validate().is_ok());
                }
                Err(parts) => {
                    prop_assert!(!counting_is_picked(&case.parts), "counting parts come back");
                    prop_assert_eq!(&parts, &case.parts);
                }
            }
        }
    }
}

/// A cached *main* of 640 pairs and a delta of 40 new pairs (one
/// sixteenth) keeps its cache, patched; one more pair drops it — on every
/// lane count, as the splice does.
#[test]
fn the_cache_settles_at_the_splice_bound() {
    let main: Vec<u64> = (0..640u64)
        .flat_map(|i| [BASE + i / 8, BASE + 2 * (i % 8)])
        .collect();
    for (fresh, kept) in [(40u64, true), (41, false)] {
        let delta: Vec<u64> = (0..fresh)
            .flat_map(|i| [BASE + (i * 13) % 40, BASE + 2 * (i / 5) + 1])
            .collect();
        let case = Case {
            main: main.clone(),
            dirty: false,
            cached: true,
            parts: vec![delta.clone(), delta[..20].to_vec()],
        };
        for lanes in 1..=4 {
            let (table, new, outcome) = ranged(&case, lanes).expect("dense parts");
            assert_eq!(new.len() as u64, fresh);
            assert_eq!(outcome.new_pairs as u64, fresh);
            assert_eq!(
                table.has_os_cache(),
                kept,
                "{fresh} new pairs, {lanes} lanes"
            );
            assert!(cache_is_coherent(&table));
        }
    }
}

/// One subject holds every pair but one: the cuts put it in a single range
/// whatever the lane count, and the update is still the merge.
#[test]
fn one_subject_is_never_split() {
    let part: Vec<u64> = (0..5_000u64)
        .flat_map(|o| [BASE + 7, BASE + o])
        .chain([BASE + 3, BASE + 1])
        .collect();
    let case = Case {
        main: vec![BASE + 7, BASE + 10, BASE + 9, BASE],
        dirty: false,
        cached: false,
        parts: vec![part],
    };
    let mut expected_main = main_table(&case);
    let (expected_new, expected) = merge_new_parts_with(
        &mut expected_main,
        case.parts.clone(),
        &mut SortScratch::new(),
    );
    for lanes in 1..=4 {
        let (main, new, outcome) = ranged(&case, lanes).expect("dense parts");
        assert_eq!(main.pairs(), expected_main.pairs());
        assert_eq!(new.pairs(), expected_new.pairs());
        assert_eq!(outcome, expected);
    }
}

/// The smallest raw pair is one *main* holds, every new pair sorts after
/// *main*'s last: the splice's classification, not a tail append.
#[test]
fn a_held_first_pair_is_not_a_tail_append() {
    let held = [BASE + 1, BASE + 1];
    let part: Vec<u64> = held
        .into_iter()
        .chain((0..64u64).flat_map(|i| [BASE + 2 + i % 4, BASE + i]))
        .collect();
    let case = Case {
        main: held.to_vec(),
        dirty: false,
        cached: true,
        parts: vec![part],
    };
    let mut expected_main = main_table(&case);
    let (expected_new, expected) = merge_new_parts_with(
        &mut expected_main,
        case.parts.clone(),
        &mut SortScratch::new(),
    );
    assert_eq!(expected.duplicates_against_main, 1);
    for lanes in 1..=4 {
        let (main, new, outcome) = ranged(&case, lanes).expect("dense parts");
        assert_eq!(main.pairs(), expected_main.pairs());
        assert_eq!(new.pairs(), expected_new.pairs());
        assert_eq!(outcome, expected, "{lanes} lanes");
    }
}
