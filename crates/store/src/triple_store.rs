//! The [`TripleStore`]: an array of property tables addressed by dense
//! property index.
//!
//! "The principle of vertical partitioning is to store a list of triples
//! ⟨s, p, o⟩ into *n* two-column tables where *n* is the number of unique
//! properties" (§4.2). Because the dictionary numbers properties densely
//! downwards from 2³², translating a property identifier to a slot in the
//! table array is a single subtraction ([`inferray_model::ids::property_index`]).
//!
//! Each table sits behind an [`Arc`]: cloning a store copies one pointer
//! per table, and a clone pays for a table only when it first writes to
//! it. A merge or a removal that changes a shared table builds the changed
//! table in one pass beside it ([`MergeTarget`]); the other mutators copy it
//! first ([`Arc::make_mut`]). A serving write clones the published store,
//! changes a few tables and publishes the result; every table it did not
//! touch stays shared with the previous epoch ([`TripleStore::shares_table`]).
//! A store nobody else holds, as in a batch run, copies nothing.

use crate::merge::{merge_new_pairs, merge_new_pairs_with, MergeOutcome, MergeTarget};
use crate::property_table::PropertyTable;
use inferray_model::ids::{is_property_id, property_id_from_index, property_index};
use inferray_model::IdTriple;
use std::sync::Arc;

/// A vertically partitioned triple store: one [`PropertyTable`] per
/// predicate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TripleStore {
    /// Slot `i` holds the table of the property with dense index `i`.
    tables: Vec<Option<Arc<PropertyTable>>>,
}

impl TripleStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        TripleStore::default()
    }

    /// Builds a store from encoded triples and finalizes it.
    pub fn from_triples(triples: impl IntoIterator<Item = IdTriple>) -> Self {
        let mut store = TripleStore::new();
        for t in triples {
            store.add_triple(t);
        }
        store.finalize();
        store
    }

    /// Adds an encoded triple (the affected table becomes dirty).
    pub fn add_triple(&mut self, triple: IdTriple) {
        self.add_pair(triple.p, triple.s, triple.o);
    }

    /// Adds a ⟨s,o⟩ pair to the table of property `p`.
    pub fn add_pair(&mut self, p: u64, s: u64, o: u64) {
        self.table_or_create(p).add_pair(s, o);
    }

    /// Sorts and deduplicates every dirty table (copying a shared one).
    pub fn finalize(&mut self) {
        for table in self.tables.iter_mut().flatten() {
            if table.is_dirty() {
                Arc::make_mut(table).finalize();
            }
        }
    }

    /// The table of property `p`, if any triples with that predicate exist.
    pub fn table(&self, p: u64) -> Option<&PropertyTable> {
        self.slot(p).map(|table| &**table)
    }

    /// Mutable access to the table of property `p`, if it exists. A table
    /// this store shares with another is copied first.
    pub fn table_mut(&mut self, p: u64) -> Option<&mut PropertyTable> {
        debug_assert!(is_property_id(p), "not a property id: {p}");
        self.tables
            .get_mut(property_index(p))
            .and_then(|t| t.as_mut())
            .map(Arc::make_mut)
    }

    /// The table of property `p`, created empty if absent, copied first if
    /// shared.
    pub fn table_or_create(&mut self, p: u64) -> &mut PropertyTable {
        Arc::make_mut(self.slot_or_create(p))
    }

    /// The shared handle of the table of property `p`, created empty if
    /// absent.
    fn slot_or_create(&mut self, p: u64) -> &mut Arc<PropertyTable> {
        debug_assert!(is_property_id(p), "not a property id: {p}");
        let index = property_index(p);
        if index >= self.tables.len() {
            self.tables.resize_with(index + 1, || None);
        }
        self.tables[index].get_or_insert_with(Arc::default)
    }

    /// `true` when this store and `other` hold the very same table
    /// allocation for property `p`: neither has written to it since one was
    /// cloned from the other.
    pub fn shares_table(&self, other: &TripleStore, p: u64) -> bool {
        match (self.slot(p), other.slot(p)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// The shared handle of the table of property `p`, if it exists.
    fn slot(&self, p: u64) -> Option<&Arc<PropertyTable>> {
        debug_assert!(is_property_id(p), "not a property id: {p}");
        self.tables.get(property_index(p)).and_then(Option::as_ref)
    }

    /// Builds the ⟨o,s⟩ cache of the table of `p`, if the table exists.
    /// Returns the number of pairs re-sorted (`0` when the cache was valid).
    pub fn ensure_os(&mut self, p: u64) -> usize {
        debug_assert!(is_property_id(p), "not a property id: {p}");
        self.tables
            .get_mut(property_index(p))
            .and_then(Option::as_mut)
            .map_or(0, |table| {
                ensure_table_os(table, &mut inferray_sort::SortScratch::new())
            })
    }

    /// Builds the ⟨o,s⟩ cache of every non-empty table. Returns the total
    /// number of pairs actually re-sorted — only the tables whose caches the
    /// preceding merges invalidated contribute, so steady-state iterations
    /// (where most tables are untouched) report a small count.
    pub fn ensure_all_os(&mut self) -> usize {
        self.ensure_all_os_with(&mut inferray_sort::SortScratch::new())
    }

    /// [`TripleStore::ensure_all_os`] against a reusable sort scratch.
    pub fn ensure_all_os_with(&mut self, scratch: &mut inferray_sort::SortScratch) -> usize {
        self.tables
            .iter_mut()
            .flatten()
            .map(|table| ensure_table_os(table, scratch))
            .sum()
    }

    /// [`TripleStore::ensure_all_os`] split into one task per table whose
    /// cache is missing or stale, largest table first, so that a caller can
    /// run them side by side (on a pool's lanes, longest first). Each task
    /// builds its table's cache with a scratch of its own and returns the
    /// pairs it sorted.
    pub fn os_cache_tasks(&mut self) -> Vec<OsCacheTask<'_>> {
        let mut tables: Vec<&mut Arc<PropertyTable>> = self
            .tables
            .iter_mut()
            .flatten()
            .filter(|table| !table.is_empty() && (table.is_dirty() || !table.has_os_cache()))
            .collect();
        tables.sort_by_key(|table| std::cmp::Reverse(table.len()));
        tables
            .into_iter()
            .map(|table| {
                Box::new(move || ensure_table_os(table, &mut inferray_sort::SortScratch::new()))
                    as OsCacheTask<'_>
            })
            .collect()
    }

    /// Iterates over the property identifiers that have a (possibly empty)
    /// table.
    pub fn property_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.tables
            .iter()
            .enumerate()
            .filter(|(_, t)| t.as_ref().is_some_and(|t| !t.is_empty()))
            .map(|(i, _)| property_id_from_index(i))
    }

    /// Iterates over `(property id, table)` for every non-empty table.
    pub fn iter_tables(&self) -> impl Iterator<Item = (u64, &PropertyTable)> + '_ {
        self.tables
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.as_deref().map(|t| (property_id_from_index(i), t)))
            .filter(|(_, t)| !t.is_empty())
    }

    /// Iterates over every stored triple.
    pub fn iter_triples(&self) -> impl Iterator<Item = IdTriple> + '_ {
        self.iter_tables()
            .flat_map(|(p, table)| table.iter_pairs().map(move |(s, o)| IdTriple::new(s, p, o)))
    }

    /// Total number of triples (pairs summed over all tables).
    pub fn len(&self) -> usize {
        self.tables.iter().flatten().map(|t| t.len()).sum()
    }

    /// `true` when no triple is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test for a fully encoded triple (binary search).
    pub fn contains(&self, triple: &IdTriple) -> bool {
        self.table(triple.p)
            .is_some_and(|t| t.contains_pair(triple.s, triple.o))
    }

    /// Number of distinct non-empty property tables.
    pub fn table_count(&self) -> usize {
        self.tables
            .iter()
            .flatten()
            .filter(|t| !t.is_empty())
            .count()
    }

    /// Merges raw inferred pairs for property `p` into this store (the
    /// Figure 5 update), returning the *new* table and the merge counters.
    /// A merge that adds nothing writes nothing, so a shared table stays
    /// shared.
    pub fn merge_property(&mut self, p: u64, inferred: Vec<u64>) -> (PropertyTable, MergeOutcome) {
        merge_new_pairs(self.slot_or_create(p), inferred)
    }

    /// [`TripleStore::merge_property`] against a reusable sort scratch (the
    /// hot-path variant used by the fixed-point loop).
    pub fn merge_property_with(
        &mut self,
        p: u64,
        inferred: Vec<u64>,
        scratch: &mut inferray_sort::SortScratch,
    ) -> (PropertyTable, MergeOutcome) {
        merge_new_pairs_with(self.slot_or_create(p), inferred, scratch)
    }

    /// Removes and returns the table of property `p`, leaving an empty slot.
    /// The parallel update stage takes the affected tables out, merges each
    /// on a worker, and puts the results back with
    /// [`TripleStore::set_table`] — giving workers exclusive ownership
    /// without any locking. The table comes out as its shared handle, so
    /// taking it copies nothing; a worker that writes to a shared one copies
    /// it then ([`crate::merge::MergeTarget`]).
    pub fn take_table(&mut self, p: u64) -> Option<Arc<PropertyTable>> {
        debug_assert!(is_property_id(p), "not a property id: {p}");
        self.tables
            .get_mut(property_index(p))
            .and_then(|t| t.take())
    }

    /// (Re)installs `table` — owned, or a shared handle — as the table of
    /// property `p`.
    pub fn set_table(&mut self, p: u64, table: impl Into<Arc<PropertyTable>>) {
        *self.slot_or_create(p) = table.into();
    }

    /// Replaces the whole table of property `p` with already-sorted pairs
    /// (used by the transitive-closure stage). The new table is installed
    /// into the slot: a table shared with another store is left to it, not
    /// copied to be overwritten.
    pub fn replace_table_sorted(&mut self, p: u64, pairs: Vec<u64>) {
        let mut table = PropertyTable::new();
        table.replace_with_sorted(pairs);
        self.set_table(p, table);
    }

    /// Removes encoded triples **in place**, preserving per-table sort order
    /// (see [`PropertyTable::remove_pairs`]); triples that are not present
    /// are ignored. Returns how many triples were actually removed.
    ///
    /// This is the store half of the delete–rederive maintenance path
    /// (docs/maintenance.md): affected tables stay finalized and their
    /// ⟨o,s⟩ caches are patched or invalidated, exactly as after a merge, so
    /// readers of the mutated store can never observe a stale object-sorted
    /// view. A
    /// table whose last pair is removed keeps its (empty) slot — empty
    /// tables are invisible to [`TripleStore::iter_tables`] and
    /// [`TripleStore::property_ids`].
    pub fn retract(&mut self, triples: impl IntoIterator<Item = IdTriple>) -> usize {
        by_property(triples)
            .into_iter()
            .map(|(p, pairs)| self.remove_pairs(p, &pairs))
            .sum()
    }

    /// Adds encoded triples **in place** through the Figure 5 merge, one
    /// property at a time ([`TripleStore::merge_property_with`]): the
    /// tables stay finalized, and only a table that gains a pair is
    /// written. Returns how many triples were new. The counterpart of
    /// [`TripleStore::retract`].
    pub fn insert(&mut self, triples: impl IntoIterator<Item = IdTriple>) -> usize {
        let mut scratch = inferray_sort::SortScratch::new();
        by_property(triples)
            .into_iter()
            .map(|(p, pairs)| self.merge_property_with(p, pairs, &mut scratch).1.new_pairs)
            .sum()
    }

    /// Removes the ⟨s,o⟩ pairs of `remove` from the table of property `p`
    /// (flat array, any order); returns how many were removed. A shared
    /// table that holds none of them stays shared; one that holds some is
    /// replaced by its reduced copy, built in one pass
    /// ([`crate::merge::MergeTarget`]).
    pub fn remove_pairs(&mut self, p: u64, remove: &[u64]) -> usize {
        debug_assert!(is_property_id(p), "not a property id: {p}");
        self.tables
            .get_mut(property_index(p))
            .and_then(Option::as_mut)
            .map_or(0, |table| table.remove_pairs(remove))
    }

    /// Removes every triple while keeping the allocated table slots.
    pub fn clear(&mut self) {
        for table in self.tables.iter_mut() {
            *table = None;
        }
    }

    /// The raw slot array (slot `i` holds the table of the property with
    /// dense index `i`), including `None` and empty-but-allocated slots.
    ///
    /// The persistence image serializes this exact layout — `None` versus
    /// `Some(empty)` is observable through `PartialEq`, so a recovered
    /// store must reproduce it bit for bit to compare equal to the
    /// pre-crash original.
    pub fn slot_tables(&self) -> &[Option<Arc<PropertyTable>>] {
        &self.tables
    }

    /// Rebuilds a store from an explicit slot array.
    ///
    /// The caller vouches for the tables' invariants (finalized,
    /// ⟨s,o⟩-sorted, duplicate-free); the persistence layer only feeds back
    /// slots it previously observed through [`TripleStore::slot_tables`].
    pub fn from_slot_tables(tables: Vec<Option<PropertyTable>>) -> Self {
        TripleStore::from_shared_slot_tables(tables.into_iter().map(|t| t.map(Arc::new)).collect())
    }

    /// [`TripleStore::from_slot_tables`] over shared tables: a store read
    /// from a delta image holds the tables of the store it was read on top
    /// of wherever the delta says "as in base".
    pub fn from_shared_slot_tables(tables: Vec<Option<Arc<PropertyTable>>>) -> Self {
        TripleStore { tables }
    }

    /// Rewrites subject/object identifiers through `remap` across every
    /// table — the dictionary-promotion patch applied when a blank-node or
    /// literal identifier is promoted to a resource identifier. Tables that
    /// had values rewritten become dirty, and only they are written (so
    /// copied, if shared); the caller re-finalizes (the
    /// loader defers this to its batch finalize, the serving layer calls
    /// [`TripleStore::finalize`] immediately). Property identifiers are not
    /// remapped: promotions never change a predicate's dense index.
    pub fn remap_ids(&mut self, remap: &std::collections::HashMap<u64, u64>) -> usize {
        if remap.is_empty() {
            return 0;
        }
        let mut ids: Vec<u64> = remap.keys().copied().collect();
        ids.sort_unstable();
        let mut rewritten = 0usize;
        for table in self.tables.iter_mut().flatten() {
            if table.mentions_any(&ids) {
                rewritten += Arc::make_mut(table).remap_values(remap);
            }
        }
        rewritten
    }

    /// Checks every table's structural invariants
    /// ([`PropertyTable::debug_validate`]); returns the first violation,
    /// prefixed with the offending property id.
    pub fn debug_validate(&self) -> Result<(), String> {
        for (p, table) in self.tables.iter().enumerate() {
            if let Some(table) = table {
                table
                    .debug_validate()
                    .map_err(|violation| format!("property {p}: {violation}"))?;
            }
        }
        Ok(())
    }

    /// Panics on the first invariant violation [`TripleStore::debug_validate`]
    /// reports. The `strict-invariants` feature calls this at every snapshot
    /// publish boundary; it lives here (not in the publish hot path file) so
    /// the panic site stays out of the lint's IL002 no-panic set.
    pub fn assert_valid(&self) {
        if let Err(violation) = self.debug_validate() {
            panic!("triple store invariant violation: {violation}");
        }
    }
}

/// The ⟨s,o⟩ pairs of `triples`, per property in ascending order.
fn by_property(
    triples: impl IntoIterator<Item = IdTriple>,
) -> std::collections::BTreeMap<u64, Vec<u64>> {
    let mut grouped: std::collections::BTreeMap<u64, Vec<u64>> = Default::default();
    for t in triples {
        debug_assert!(is_property_id(t.p), "not a property id: {}", t.p);
        grouped.entry(t.p).or_default().extend([t.s, t.o]);
    }
    grouped
}

/// One table's ⟨o,s⟩ cache to build ([`TripleStore::os_cache_tasks`]):
/// returns the pairs it sorted.
pub type OsCacheTask<'a> = Box<dyn FnOnce() -> usize + Send + 'a>;

/// Builds the ⟨o,s⟩ cache of a non-empty table that is dirty or lacks it —
/// the only tables written, and so copied if shared. Returns the number of
/// pairs sorted.
fn ensure_table_os(
    table: &mut Arc<PropertyTable>,
    scratch: &mut inferray_sort::SortScratch,
) -> usize {
    if table.is_empty() || (!table.is_dirty() && table.has_os_cache()) {
        return 0;
    }
    Arc::make_mut(table).ensure_os_with(scratch)
}

impl FromIterator<IdTriple> for TripleStore {
    fn from_iter<I: IntoIterator<Item = IdTriple>>(iter: I) -> Self {
        TripleStore::from_triples(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inferray_dictionary::wellknown;

    fn sample_store() -> TripleStore {
        // type(bart, human), type(lisa, human), subClassOf(human, mammal)
        let human = 1_000_000_000_000u64;
        let mammal = human + 1;
        let bart = human + 2;
        let lisa = human + 3;
        TripleStore::from_triples([
            IdTriple::new(bart, wellknown::RDF_TYPE, human),
            IdTriple::new(lisa, wellknown::RDF_TYPE, human),
            IdTriple::new(human, wellknown::RDFS_SUB_CLASS_OF, mammal),
        ])
    }

    #[test]
    fn from_triples_builds_one_table_per_property() {
        let store = sample_store();
        assert_eq!(store.len(), 3);
        assert_eq!(store.table_count(), 2);
        assert_eq!(store.table(wellknown::RDF_TYPE).unwrap().len(), 2);
        assert_eq!(store.table(wellknown::RDFS_SUB_CLASS_OF).unwrap().len(), 1);
        assert!(store.table(wellknown::RDFS_DOMAIN).is_none());
    }

    #[test]
    fn add_and_contains() {
        let mut store = TripleStore::new();
        let t = IdTriple::new(10, wellknown::RDFS_DOMAIN, 20);
        assert!(!store.contains(&t));
        store.add_triple(t);
        store.finalize();
        assert!(store.contains(&t));
        assert!(!store.contains(&IdTriple::new(10, wellknown::RDFS_RANGE, 20)));
    }

    #[test]
    fn duplicate_triples_collapse_on_finalize() {
        let mut store = TripleStore::new();
        for _ in 0..5 {
            store.add_triple(IdTriple::new(1, wellknown::RDF_TYPE, 2));
        }
        store.finalize();
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn iter_triples_round_trips() {
        let store = sample_store();
        let collected: Vec<IdTriple> = store.iter_triples().collect();
        assert_eq!(collected.len(), 3);
        let rebuilt = TripleStore::from_triples(collected);
        assert_eq!(rebuilt.len(), store.len());
        for t in store.iter_triples() {
            assert!(rebuilt.contains(&t));
        }
    }

    #[test]
    fn property_ids_lists_only_nonempty_tables() {
        let store = sample_store();
        let mut ids: Vec<u64> = store.property_ids().collect();
        ids.sort_unstable();
        let mut expected = vec![wellknown::RDF_TYPE, wellknown::RDFS_SUB_CLASS_OF];
        expected.sort_unstable();
        assert_eq!(ids, expected);
    }

    #[test]
    fn merge_property_updates_main_and_returns_new() {
        let mut store = sample_store();
        let human = 1_000_000_000_000u64;
        let bart = human + 2;
        let maggie = human + 9;
        // Existing pair (bart, human) plus a new one (maggie, human).
        let (new, outcome) =
            store.merge_property(wellknown::RDF_TYPE, vec![bart, human, maggie, human]);
        assert_eq!(outcome.new_pairs, 1);
        assert_eq!(outcome.duplicates_against_main, 1);
        assert_eq!(new.len(), 1);
        assert_eq!(store.table(wellknown::RDF_TYPE).unwrap().len(), 3);
    }

    #[test]
    fn ensure_all_os_builds_caches() {
        let mut store = sample_store();
        store.ensure_all_os();
        for (_, table) in store.iter_tables() {
            assert!(table.has_os_cache());
        }
    }

    #[test]
    fn os_cache_tasks_build_what_ensure_all_os_builds_largest_first() {
        let mut store = sample_store();
        let mut whole = store.clone();
        let tasks = store.os_cache_tasks();
        assert_eq!(tasks.len(), 2);
        let sorted: Vec<usize> = tasks.into_iter().map(|task| task()).collect();
        assert_eq!(sorted, [2, 1], "rdf:type's two pairs first");
        assert_eq!(whole.ensure_all_os(), 3);
        assert_eq!(store, whole);
        assert!(store.os_cache_tasks().is_empty());
    }

    #[test]
    fn ensure_all_os_reports_only_the_pairs_actually_resorted() {
        let mut store = sample_store();
        // First pass: every pair is sorted (2 rdf:type + 1 subClassOf).
        assert_eq!(store.ensure_all_os(), 3);
        // Second pass: every cache is still valid — nothing is re-sorted.
        assert_eq!(store.ensure_all_os(), 0);
        // Invalidate exactly one table: only its pairs are charged.
        let human = 1_000_000_000_000u64;
        store.add_triple(IdTriple::new(human + 9, wellknown::RDF_TYPE, human));
        store.finalize();
        assert_eq!(store.ensure_all_os(), 3, "3 rdf:type pairs re-sorted");
        assert_eq!(store.ensure_os(wellknown::RDF_TYPE), 0, "cache now valid");
        assert_eq!(store.ensure_os(wellknown::RDFS_DOMAIN), 0, "no such table");
    }

    #[test]
    fn clear_empties_the_store() {
        let mut store = sample_store();
        store.clear();
        assert!(store.is_empty());
        assert_eq!(store.table_count(), 0);
    }

    #[test]
    fn retract_removes_present_triples_and_ignores_absent_ones() {
        let mut store = sample_store();
        let human = 1_000_000_000_000u64;
        let bart = human + 2;
        let lisa = human + 3;
        store.ensure_all_os();
        let removed = store.retract([
            IdTriple::new(bart, wellknown::RDF_TYPE, human),
            IdTriple::new(bart, wellknown::RDF_TYPE, human), // duplicate request
            IdTriple::new(human + 9, wellknown::RDF_TYPE, human), // absent
            IdTriple::new(human, wellknown::RDFS_DOMAIN, human), // no such table
        ]);
        assert_eq!(removed, 1);
        assert_eq!(store.len(), 2);
        assert!(!store.contains(&IdTriple::new(bart, wellknown::RDF_TYPE, human)));
        assert!(store.contains(&IdTriple::new(lisa, wellknown::RDF_TYPE, human)));
        // The touched table lost its cache; the untouched one kept it.
        assert!(!store.table(wellknown::RDF_TYPE).unwrap().has_os_cache());
        assert!(store
            .table(wellknown::RDFS_SUB_CLASS_OF)
            .unwrap()
            .has_os_cache());
    }

    #[test]
    fn retract_can_empty_a_table_without_dropping_the_slot() {
        let mut store = sample_store();
        let human = 1_000_000_000_000u64;
        let mammal = human + 1;
        let removed = store.retract([IdTriple::new(human, wellknown::RDFS_SUB_CLASS_OF, mammal)]);
        assert_eq!(removed, 1);
        assert_eq!(store.table_count(), 1, "empty tables are invisible");
        assert!(store
            .property_ids()
            .all(|p| p != wellknown::RDFS_SUB_CLASS_OF));
        // The slot still answers (emptily) and accepts new pairs.
        assert_eq!(store.table(wellknown::RDFS_SUB_CLASS_OF).unwrap().len(), 0);
        store.add_triple(IdTriple::new(human, wellknown::RDFS_SUB_CLASS_OF, mammal));
        store.finalize();
        assert_eq!(store.table_count(), 2);
    }

    #[test]
    fn remove_pairs_on_a_property() {
        let mut store = sample_store();
        let human = 1_000_000_000_000u64;
        assert_eq!(
            store.remove_pairs(wellknown::RDF_TYPE, &[human + 2, human, human + 3, human]),
            2
        );
        assert_eq!(store.remove_pairs(wellknown::RDF_TYPE, &[1, 1]), 0);
        assert_eq!(store.remove_pairs(wellknown::RDFS_RANGE, &[1, 1]), 0);
        assert_eq!(store.len(), 1);
    }

    /// A promotion rewrites the tables that mention the promoted id however
    /// they are searched — a subject run, an object run of a built ⟨o,s⟩
    /// cache, a scan of the objects without one — and re-sorts them; a
    /// table that never mentions it stays shared with an earlier clone.
    #[test]
    fn remap_ids_rewrites_only_the_tables_that_mention_the_id() {
        let (old, new) = (50u64, 5u64);
        let [as_subject, cached_object, plain_object, absent] =
            [400, 401, 402, 403].map(inferray_model::ids::nth_property_id);
        let mut store = TripleStore::new();
        for (p, pairs) in [
            (as_subject, [old, 10, 20, 30]),
            (cached_object, [10, old, 20, 30]),
            (plain_object, [10, old, 20, 30]),
            (absent, [10, 20, 30, 40]),
        ] {
            store.table_or_create(p).add_pairs(&pairs);
        }
        store.finalize();
        store.table_mut(cached_object).expect("present").ensure_os();
        let before = store.clone();
        let remap = std::collections::HashMap::from([(old, new)]);
        assert_eq!(store.remap_ids(&remap), 3);
        store.finalize();
        for (p, rewritten) in [
            (as_subject, vec![new, 10, 20, 30]),
            (cached_object, vec![10, new, 20, 30]),
            (plain_object, vec![10, new, 20, 30]),
        ] {
            assert_eq!(store.table(p).expect("present").pairs(), &rewritten[..]);
            assert!(!store.shares_table(&before, p));
        }
        assert_eq!(
            store
                .table(as_subject)
                .expect("present")
                .objects_of(new)
                .collect::<Vec<_>>(),
            vec![10]
        );
        assert!(
            store.shares_table(&before, absent),
            "a table without the id is not copied"
        );
    }

    #[test]
    fn replace_table_sorted() {
        let mut store = TripleStore::new();
        store.replace_table_sorted(wellknown::RDFS_SUB_CLASS_OF, vec![1, 2, 3, 4]);
        assert_eq!(store.len(), 2);
        assert!(store.contains(&IdTriple::new(3, wellknown::RDFS_SUB_CLASS_OF, 4)));
    }
}
