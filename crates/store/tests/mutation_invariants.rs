//! Property-based invariant suite over every public store mutation path:
//! after any sequence of merges, removals, retractions and id remaps, the
//! store passes `debug_validate` (sorted, deduplicated, even-length pair
//! arrays) and every table's ⟨o,s⟩ cache is either invalidated or
//! byte-identical to a rebuild from the current ⟨s,o⟩ pairs. Caches are
//! built on demand, so which tables carry one depends on who read what:
//! store equality must not.

use inferray_model::ids::{PROPERTY_BASE, RESOURCE_BASE};
use inferray_model::IdTriple;
use inferray_sort::sort_pairs_auto_dedup;
use inferray_store::property_table::KEEP_OS_CACHE_DIVISOR;
use inferray_store::{PropertyTable, TripleStore};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

// Small dense windows of the paper's split id space: properties count
// downwards from 2³², resources upwards from 2³² + 1.
const P_RANGE: u64 = 4;
const ID_RANGE: u64 = 24;

fn prop_id() -> impl Strategy<Value = u64> {
    (0u64..P_RANGE).prop_map(|k| PROPERTY_BASE - k)
}

fn resource_id() -> impl Strategy<Value = u64> {
    (0u64..ID_RANGE).prop_map(|k| RESOURCE_BASE + k)
}

/// One step drawn from the store's public mutation surface.
#[derive(Debug, Clone)]
enum Mutation {
    /// `TripleStore::merge_property` with a (possibly unsorted) delta.
    Merge { p: u64, delta: Vec<u64> },
    /// `TripleStore::remove_pairs` on one property.
    RemovePairs { p: u64, victims: Vec<u64> },
    /// `TripleStore::retract` across properties.
    Retract { triples: Vec<(u64, u64, u64)> },
    /// `TripleStore::remap_ids` — the blank-node promotion path.
    Remap { from: Vec<u64>, to: Vec<u64> },
    /// `TripleStore::add_pair` + `finalize` — the ingest path.
    Add { triples: Vec<(u64, u64, u64)> },
}

fn arbitrary_pairs(max_len: usize) -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(resource_id(), 0..max_len).prop_map(|mut v| {
        if v.len() % 2 == 1 {
            v.pop();
        }
        v
    })
}

fn arbitrary_triples(max_len: usize) -> impl Strategy<Value = Vec<(u64, u64, u64)>> {
    proptest::collection::vec((prop_id(), resource_id(), resource_id()), 0..max_len)
}

fn arbitrary_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (prop_id(), arbitrary_pairs(24)).prop_map(|(p, delta)| Mutation::Merge { p, delta }),
        (prop_id(), arbitrary_pairs(16))
            .prop_map(|(p, victims)| Mutation::RemovePairs { p, victims }),
        arbitrary_triples(12).prop_map(|triples| Mutation::Retract { triples }),
        (
            proptest::collection::vec(resource_id(), 0..6),
            proptest::collection::vec(resource_id(), 0..6)
        )
            .prop_map(|(from, to)| Mutation::Remap { from, to }),
        arbitrary_triples(12).prop_map(|triples| Mutation::Add { triples }),
    ]
}

fn apply(store: &mut TripleStore, mutation: &Mutation) {
    match mutation {
        Mutation::Merge { p, delta } => {
            let mut sorted = delta.clone();
            sort_pairs_auto_dedup(&mut sorted);
            let (merged, _) = store.merge_property(*p, sorted);
            store.set_table(*p, merged);
        }
        Mutation::RemovePairs { p, victims } => {
            store.remove_pairs(*p, victims);
        }
        Mutation::Retract { triples } => {
            store.retract(triples.iter().map(|&(p, s, o)| IdTriple::new(s, p, o)));
        }
        Mutation::Remap { from, to } => {
            let remap: HashMap<u64, u64> = from
                .iter()
                .zip(to.iter())
                .filter(|(f, t)| f != t)
                .map(|(&f, &t)| (f, t))
                .collect();
            store.remap_ids(&remap);
            // The remap path intentionally leaves tables dirty (promotions
            // run mid-load); the loader finalizes afterwards, and so do we.
            store.finalize();
        }
        Mutation::Add { triples } => {
            for &(p, s, o) in triples {
                store.add_pair(p, s, o);
            }
            store.finalize();
        }
    }
}

/// Every table's ⟨o,s⟩ cache is invalidated or identical to a rebuild.
/// (`debug_validate` checks the same equality, but only for clean tables —
/// this asserts the dichotomy explicitly for every slot, then validates.)
fn assert_cache_coherent(store: &TripleStore) {
    for p in store.property_ids() {
        let Some(table) = store.table(p) else {
            continue;
        };
        if let Some(os) = table.os_pairs() {
            let mut rebuilt: Vec<u64> = table.iter_pairs().flat_map(|(s, o)| [o, s]).collect();
            sort_pairs_auto_dedup(&mut rebuilt);
            assert_eq!(os, &rebuilt[..], "stale ⟨o,s⟩ cache for property {p}");
        }
    }
    if let Err(violation) = store.debug_validate() {
        panic!("debug_validate after mutation: {violation}");
    }
}

/// One in-place change to a table with a built ⟨o,s⟩ cache. `size` is
/// drawn on both sides of the keep bound; the pairs come from `seed`.
#[derive(Debug, Clone)]
enum TableChange {
    /// `splice_in_sorted` of up to `size` pairs absent from the table.
    Splice { size: usize, seed: Vec<(u64, u64)> },
    /// `append_sorted_suffix` of `size` pairs after the last one.
    Append { size: usize, seed: u64 },
    /// `remove_pairs` of up to `size` pairs of the table, in scrambled
    /// order, with repeats and pairs the table does not hold.
    Remove { size: usize, picks: Vec<usize> },
}

fn arbitrary_change() -> impl Strategy<Value = TableChange> {
    // Tables hold up to 400 pairs: sizes up to 60 straddle n / 16.
    prop_oneof![
        (
            0usize..60,
            proptest::collection::vec((0u64..220, 0u64..40), 60)
        )
            .prop_map(|(size, seed)| TableChange::Splice { size, seed }),
        (1usize..60, 0u64..1000).prop_map(|(size, seed)| TableChange::Append { size, seed }),
        (1usize..60, proptest::collection::vec(0usize..1000, 60))
            .prop_map(|(size, picks)| TableChange::Remove { size, picks }),
    ]
}

/// Applies `change` to `table`; returns how many pairs it added or removed.
fn apply_change(table: &mut PropertyTable, change: &TableChange) -> usize {
    let held: BTreeSet<(u64, u64)> = table.iter_pairs().collect();
    let flat = |pairs: &BTreeSet<(u64, u64)>| -> Vec<u64> {
        pairs.iter().flat_map(|&(s, o)| [s, o]).collect()
    };
    match change {
        TableChange::Splice { size, seed } => {
            let fresh: BTreeSet<(u64, u64)> = seed
                .iter()
                .filter(|pair| !held.contains(pair))
                .take(*size)
                .copied()
                .collect();
            table.splice_in_sorted(&flat(&fresh));
            fresh.len()
        }
        TableChange::Append { size, seed } => {
            let after = held.last().map_or(0, |&(s, _)| s + 1);
            let suffix: BTreeSet<(u64, u64)> = (0..*size as u64)
                .map(|i| (after + i / 3, (seed + 7 * i) % 40))
                .collect();
            table.append_sorted_suffix(&flat(&suffix));
            suffix.len()
        }
        TableChange::Remove { size, picks } => {
            let pairs: Vec<(u64, u64)> = held.iter().copied().collect();
            let mut victims: Vec<u64> = picks
                .iter()
                .take(*size)
                .filter_map(|&i| pairs.get(i % pairs.len().max(1)))
                .flat_map(|&(s, o)| [s, o])
                .collect();
            victims.extend([999, 999, 0, 41]); // absent: ignored
            table.remove_pairs(&victims)
        }
    }
}

/// The ⟨o,s⟩ cache a rebuild from the table's current pairs gives.
fn rebuilt_cache(table: &PropertyTable) -> Vec<u64> {
    let mut rebuilt = PropertyTable::from_pairs(table.pairs().to_vec());
    rebuilt.ensure_os();
    rebuilt.os_pairs().expect("just built").to_vec()
}

proptest! {
    /// The in-place mutators keep a built cache through a change of at most
    /// `n / KEEP_OS_CACHE_DIVISOR` pairs and may drop it through a larger
    /// one; a cache that is there is byte-identical to a rebuild.
    #[test]
    fn kept_caches_equal_a_rebuild_on_both_sides_of_the_bound(
        base in proptest::collection::vec((0u64..200, 0u64..40), 0..400),
        changes in proptest::collection::vec(arbitrary_change(), 1..8),
        rebuild_between in proptest::collection::vec(any::<bool>(), 8),
    ) {
        let mut table =
            PropertyTable::from_pairs(base.iter().flat_map(|&(s, o)| [s, o]).collect());
        table.ensure_os();
        for (i, change) in changes.iter().enumerate() {
            let before = table.len();
            let had_cache = table.has_os_cache();
            let changed = apply_change(&mut table, change);
            if had_cache && changed <= before / KEEP_OS_CACHE_DIVISOR {
                prop_assert!(table.has_os_cache(), "{changed} of {before} pairs dropped the cache");
            }
            if let Some(os) = table.os_pairs() {
                prop_assert_eq!(os, &rebuilt_cache(&table)[..]);
            }
            prop_assert!(table.debug_validate().is_ok());
            if rebuild_between[i] {
                table.ensure_os();
            }
        }
    }

    #[test]
    fn mutations_preserve_store_invariants(
        base in arbitrary_triples(40),
        mutations in proptest::collection::vec(arbitrary_mutation(), 1..8),
        ensure_between in proptest::collection::vec((0u8..2).prop_map(|b| b == 1), 8),
    ) {
        let mut store = TripleStore::from_triples(
            base.iter().map(|&(p, s, o)| IdTriple::new(s, p, o)),
        );
        store.ensure_all_os();
        assert_cache_coherent(&store);
        for (i, mutation) in mutations.iter().enumerate() {
            apply(&mut store, mutation);
            assert_cache_coherent(&store);
            // Interleave cache rebuilds so later mutations hit tables both
            // with and without a live ⟨o,s⟩ cache.
            if ensure_between[i % ensure_between.len()] {
                store.ensure_all_os();
                assert_cache_coherent(&store);
            }
        }
        // The publish boundary: finalize + full rebuild must validate.
        store.finalize();
        store.ensure_all_os();
        assert_cache_coherent(&store);
    }

    /// Two stores that went through the same mutations are equal whatever
    /// caches their readers built along the way: one side never builds any,
    /// the other pre-builds all of them (a publisher) or lets a reader pull
    /// single tables' object views (a rule) between the steps.
    #[test]
    fn equality_ignores_which_caches_are_built(
        base in arbitrary_triples(40),
        mutations in proptest::collection::vec(arbitrary_mutation(), 1..8),
        readers in proptest::collection::vec(0u8..3, 8),
    ) {
        let mut plain = TripleStore::from_triples(
            base.iter().map(|&(p, s, o)| IdTriple::new(s, p, o)),
        );
        let mut cached = plain.clone();
        cached.ensure_all_os();
        prop_assert_eq!(&plain, &cached);
        for (i, mutation) in mutations.iter().enumerate() {
            apply(&mut plain, mutation);
            apply(&mut cached, mutation);
            match readers[i % readers.len()] {
                0 => {}
                1 => {
                    cached.ensure_all_os();
                }
                _ => {
                    // The first table only, through a shared reference.
                    if let Some((_, table)) = cached.iter_tables().next() {
                        prop_assert_eq!(table.object_pairs().len(), 2 * table.len());
                    }
                }
            }
            prop_assert_eq!(&plain, &cached);
            prop_assert_eq!(&cached, &cached.clone());
            assert_cache_coherent(&cached);
        }
    }
}
