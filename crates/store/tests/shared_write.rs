//! The law of shared-table writes: a merge or a removal that meets a table
//! another epoch still holds builds the changed table beside it in one pass
//! (`MergeTarget for Arc<PropertyTable>`), and the result must be the
//! in-place write's, byte for byte — the pairs, whether the ⟨o,s⟩ cache
//! survives and what it holds, the merge counters and the removed count —
//! while the epoch's own table stays exactly as it was.

use inferray_model::ids::{PROPERTY_BASE, RESOURCE_BASE};
use inferray_model::IdTriple;
use inferray_sort::SortScratch;
use inferray_store::{merge_new_pairs_with, MergeTarget, PropertyTable, TripleStore};
use proptest::prelude::*;
use std::sync::Arc;

/// A finalized table of `pairs`, with its ⟨o,s⟩ cache built when `cached`.
fn table(pairs: &[(u64, u64)], cached: bool) -> PropertyTable {
    let mut table = PropertyTable::from_pairs(pairs.iter().flat_map(|&(s, o)| [s, o]).collect());
    if cached {
        table.ensure_os();
    }
    table
}

/// Everything a reader can tell about a table: its pairs and its cache.
fn state(table: &PropertyTable) -> (Vec<u64>, Option<Vec<u64>>) {
    (
        table.pairs().to_vec(),
        table.os_pairs().map(<[u64]>::to_vec),
    )
}

/// A shared handle of `table` (a clone, cache included) and the epoch's
/// handle of the same allocation.
fn shared(table: &PropertyTable) -> (Arc<PropertyTable>, Arc<PropertyTable>) {
    let epoch = Arc::new(table.clone());
    (Arc::clone(&epoch), epoch)
}

/// The flat delta of `pairs`, its subjects moved past every table subject
/// when `past_end` (the tail-append shape).
fn delta(pairs: &[(u64, u64)], past_end: bool) -> Vec<u64> {
    let shift = if past_end { 1_000 } else { 0 };
    pairs.iter().flat_map(|&(s, o)| [s + shift, o]).collect()
}

fn pairs(max: usize) -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0u64..60, 0u64..8), 0..max)
}

/// Asserts that a shared write left `written` equal to the in-place
/// `in_place` and the epoch's `epoch` as it was `before`, in the same
/// allocation.
fn assert_law(
    written: &Arc<PropertyTable>,
    in_place: &PropertyTable,
    epoch: &Arc<PropertyTable>,
    before: &(Vec<u64>, Option<Vec<u64>>),
    buffer: *const u64,
) {
    assert_eq!(state(written), state(in_place));
    assert!(written.debug_validate().is_ok());
    assert_eq!(&state(epoch), before, "the epoch's table moved");
    assert_eq!(epoch.pairs().as_ptr(), buffer);
}

proptest! {
    /// Merges of every shape — no-op, tail append, splice — into a shared
    /// table equal the in-place merge, cache and counters included.
    #[test]
    fn a_shared_merge_equals_the_in_place_merge(
        main in pairs(120),
        raw in pairs(14),
        past_end in any::<bool>(),
        cached in any::<bool>(),
    ) {
        let mut in_place = table(&main, cached);
        let (mut written, epoch) = shared(&in_place);
        let before = state(&epoch);
        let buffer = epoch.pairs().as_ptr();
        let raw = delta(&raw, past_end);

        let mut scratch = SortScratch::new();
        let (new_in_place, in_place_outcome) =
            merge_new_pairs_with(&mut in_place, raw.clone(), &mut scratch);
        let (new_shared, shared_outcome) = merge_new_pairs_with(&mut written, raw, &mut scratch);

        prop_assert_eq!(shared_outcome, in_place_outcome);
        prop_assert_eq!(new_shared.pairs(), new_in_place.pairs());
        assert_law(&written, &in_place, &epoch, &before, buffer);
        prop_assert_eq!(
            Arc::ptr_eq(&written, &epoch),
            shared_outcome.new_pairs == 0,
            "a shared table is replaced exactly when the merge adds a pair"
        );
    }

    /// The tail append and the splice called directly on a shared handle
    /// equal the same calls on the table itself.
    #[test]
    fn a_shared_splice_and_append_equal_the_in_place_ones(
        main in pairs(120),
        raw in pairs(14),
        past_end in any::<bool>(),
        cached in any::<bool>(),
    ) {
        let mut in_place = table(&main, cached);
        let (mut written, epoch) = shared(&in_place);
        let before = state(&epoch);
        let buffer = epoch.pairs().as_ptr();
        // The sorted delta without the pairs the table holds.
        let fresh: Vec<u64> = PropertyTable::from_pairs(delta(&raw, past_end))
            .into_pairs()
            .chunks_exact(2)
            .filter(|pair| !in_place.contains_pair(pair[0], pair[1]))
            .flatten()
            .copied()
            .collect();

        let appends = match (in_place.pairs(), fresh.as_slice()) {
            ([.., s, o], [fs, fo, ..]) => (*fs, *fo) > (*s, *o),
            _ => true,
        };
        if appends {
            in_place.append_sorted_suffix(&fresh);
            MergeTarget::append_sorted_suffix(&mut written, &fresh);
        } else {
            in_place.splice_in_sorted(&fresh);
            MergeTarget::splice_in_sorted(&mut written, &fresh);
        }
        assert_law(&written, &in_place, &epoch, &before, buffer);
        prop_assert_eq!(Arc::ptr_eq(&written, &epoch), fresh.is_empty());
    }

    /// A removal of present and absent pairs from a shared table equals the
    /// in-place removal; one that finds nothing keeps the very same table.
    #[test]
    fn a_shared_removal_equals_the_in_place_removal(
        main in pairs(120),
        picks in proptest::collection::vec(0usize..1_000, 0..10),
        absent in pairs(6),
        cached in any::<bool>(),
    ) {
        let mut in_place = table(&main, cached);
        let (mut written, epoch) = shared(&in_place);
        let before = state(&epoch);
        let buffer = epoch.pairs().as_ptr();
        let mut victims: Vec<u64> = delta(&absent, true);
        if !in_place.is_empty() {
            for pick in picks {
                let at = 2 * (pick % in_place.len());
                victims.extend_from_slice(&in_place.pairs()[at..at + 2]);
            }
        }

        let removed_in_place = in_place.remove_pairs(&victims);
        let removed_shared = MergeTarget::remove_pairs(&mut written, &victims);

        prop_assert_eq!(removed_shared, removed_in_place);
        assert_law(&written, &in_place, &epoch, &before, buffer);
        prop_assert_eq!(Arc::ptr_eq(&written, &epoch), removed_shared == 0);
    }

    /// Removing only absent pairs through a store clone leaves the table
    /// shared with the original store.
    #[test]
    fn a_no_op_removal_keeps_the_table_shared(
        main in pairs(60),
        absent in pairs(6),
        cached in any::<bool>(),
    ) {
        let p = PROPERTY_BASE;
        let mut store = TripleStore::from_triples(
            main.iter().map(|&(s, o)| IdTriple::new(RESOURCE_BASE + s, p, RESOURCE_BASE + o)),
        );
        if cached {
            store.ensure_all_os();
        }
        let mut clone = store.clone();
        let victims: Vec<IdTriple> = absent
            .iter()
            .map(|&(s, o)| IdTriple::new(RESOURCE_BASE + s + 1_000, p, RESOURCE_BASE + o))
            .collect();
        let flat: Vec<u64> = victims.iter().flat_map(|t| [t.s, t.o]).collect();
        prop_assert_eq!(clone.remove_pairs(p, &flat), 0);
        prop_assert_eq!(clone.retract(victims), 0);
        prop_assert_eq!(clone.shares_table(&store, p), !main.is_empty());
    }
}

/// A table of `n` pairs `(2i, i % 5)`, its cache built.
fn even_subjects(n: u64) -> PropertyTable {
    let pairs: Vec<(u64, u64)> = (0..n).map(|i| (2 * i, i % 5)).collect();
    table(&pairs, true)
}

/// The 1/16 rule, on both paths: 38 pairs grown to 40 keep their cache
/// (2 ≤ 38/16), grown to 41 drop it; 40 pairs that lose 2 keep it, that
/// lose 3 drop it.
#[test]
fn the_cache_bound_is_the_same_on_both_paths() {
    for (fresh, kept) in [(&[1, 0, 3, 0][..], true), (&[1, 0, 3, 0, 5, 0][..], false)] {
        let mut in_place = even_subjects(38);
        let (mut written, epoch) = shared(&in_place);
        in_place.splice_in_sorted(fresh);
        MergeTarget::splice_in_sorted(&mut written, fresh);
        assert_eq!(in_place.len(), 38 + fresh.len() / 2);
        assert_eq!(in_place.has_os_cache(), kept, "{} pairs", in_place.len());
        assert_eq!(state(&written), state(&in_place));
        assert_eq!(state(&epoch), state(&even_subjects(38)));
    }
    for (victims, kept) in [(&[0, 0, 2, 1][..], true), (&[0, 0, 2, 1, 4, 2][..], false)] {
        let mut in_place = even_subjects(40);
        let (mut written, epoch) = shared(&in_place);
        assert_eq!(in_place.remove_pairs(victims), victims.len() / 2);
        assert_eq!(
            MergeTarget::remove_pairs(&mut written, victims),
            victims.len() / 2
        );
        assert_eq!(
            in_place.has_os_cache(),
            kept,
            "{} removed",
            victims.len() / 2
        );
        assert_eq!(state(&written), state(&in_place));
        assert_eq!(state(&epoch), state(&even_subjects(40)));
    }
}

/// A table nobody else holds is written in place: the handle keeps its
/// allocation.
#[test]
fn a_unique_table_is_written_in_place() {
    let mut unique = Arc::new(even_subjects(64));
    let at = Arc::as_ptr(&unique);
    MergeTarget::splice_in_sorted(&mut unique, &[1, 0]);
    MergeTarget::append_sorted_suffix(&mut unique, &[999, 0]);
    assert_eq!(MergeTarget::remove_pairs(&mut unique, &[1, 0, 7, 7]), 1);
    assert_eq!(Arc::as_ptr(&unique), at);
    assert_eq!(unique.len(), 65);
    assert!(unique.has_os_cache());
    unique.debug_validate().expect("a coherent cache");
}
