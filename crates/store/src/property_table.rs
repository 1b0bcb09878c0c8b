//! A single property table: the `⟨s,o⟩` pairs of one predicate.
//!
//! "Property tables are stored in dynamic arrays sorted on ⟨s,o⟩, along with
//! a cached version sorted on ⟨o,s⟩. The cached ⟨o,s⟩ sorted index is
//! computed lazily upon need." (paper §4.2). Here "upon need" is literal:
//! the cache is a [`OnceLock`] that the first reader asking for an object
//! view fills ([`PropertyTable::object_pairs`]) — through a shared
//! reference, so the rule executors of one iteration, which run as parallel
//! tasks over the same immutable store, build exactly the caches they read
//! and racing readers of one table block on a single build.
//!
//! The paper drops the cache whenever the ⟨s,o⟩ pairs change. Here a
//! *small* change keeps it: the four mutators that apply a known change
//! ([`PropertyTable::append_sorted_suffix`],
//! [`PropertyTable::splice_in_sorted`], [`PropertyTable::install_merged`],
//! [`PropertyTable::remove_pairs`]) take a built cache out, invalidate, apply the same change — swapped
//! and sorted on ⟨o,s⟩ — to it with the same in-place kernel, and put it
//! back, as long as the change is at most `1 /` [`KEEP_OS_CACHE_DIVISOR`]
//! of the table. A larger change drops the cache, as in the paper. Every
//! other mutation drops it too.
//!
//! A table shared with another epoch is not written at all: its changed
//! copy is built in one pass (`with_sorted`, `without_pairs`, reached
//! through [`MergeTarget`](crate::MergeTarget)), its cache kept or dropped
//! by the same rule.

use inferray_sort::pairs::{as_pairs, as_pairs_mut, gallop, gallop_back, partition_point, Pair};
use inferray_sort::{
    sort_pairs_auto, sort_pairs_auto_dedup, sort_pairs_auto_dedup_with, swap_pairs, SortScratch,
};
use std::cell::Cell;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// What a thread has spent building ⟨o,s⟩ caches on demand (see
/// [`os_builds`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OsBuilds {
    /// Time spent sorting.
    pub time: Duration,
    /// Pairs sorted.
    pub pairs: usize,
}

impl OsBuilds {
    /// The builds between an `earlier` reading of the same thread and this
    /// one.
    pub fn since(self, earlier: OsBuilds) -> OsBuilds {
        OsBuilds {
            time: self.time - earlier.time,
            pairs: self.pairs - earlier.pairs,
        }
    }
}

thread_local! {
    static OS_BUILDS: Cell<OsBuilds> = const {
        Cell::new(OsBuilds { time: Duration::ZERO, pairs: 0 })
    };
}

/// The running total of what the calling thread has spent sorting ⟨o,s⟩
/// caches on behalf of [`PropertyTable::object_pairs`] readers — for
/// profilers: the difference across a piece of work that stays on one
/// thread (a rule task of the fixed point) is what that work paid for
/// caches nobody had built before it.
pub fn os_builds() -> OsBuilds {
    OS_BUILDS.get()
}

/// A change of at most `n / KEEP_OS_CACHE_DIVISOR` pairs to a table of `n`
/// pairs patches a built ⟨o,s⟩ cache; a larger one drops it.
///
/// The cost argument. A patch sorts the swapped change (|Δ| pairs) and
/// moves the cache's pairs at most once: one backward in-place merge, or
/// one forward compaction. A rebuild copies all `n` pairs and sorts them,
/// which is several passes over `n` plus the scratch. So a patch is always
/// cheaper than a rebuild, but it is paid *now*, and it keeps `n` cached
/// pairs resident whether or not anyone reads them again. A rebuild is paid
/// only when a reader asks. A live write changes a table by a few pairs,
/// and publication would rebuild every dropped cache at once: patch. The
/// batch fixed point changes its tables by large deltas every iteration and
/// reads few object views in between: drop, as the paper does. At |Δ| ≤
/// n/16 the patch sorts at most a sixteenth of what a rebuild sorts and
/// moves at most one table's worth of memory, so it pays for itself if the
/// cache is read even once before the next large change. Without the bound,
/// `batch.taxonomy` kept and patched caches no later iteration read.
pub const KEEP_OS_CACHE_DIVISOR: usize = 16;

/// `true` when a change of `delta` pairs to a table of `before` pairs keeps
/// a built ⟨o,s⟩ cache (see [`KEEP_OS_CACHE_DIVISOR`]).
fn keeps_os_cache(delta: usize, before: usize) -> bool {
    delta <= before / KEEP_OS_CACHE_DIVISOR
}

/// The sorted pair array of one predicate, with its lazy object-sorted cache.
///
/// Two tables are equal when they hold the same pairs in the same state
/// (`dirty` or finalized); whether either has built its ⟨o,s⟩ cache is not
/// part of the comparison — the cache is derived data, and its coherence
/// is [`PropertyTable::debug_validate`]'s job.
#[derive(Debug, Clone, Default)]
pub struct PropertyTable {
    /// Flat `[s0, o0, s1, o1, …]`, sorted on ⟨s,o⟩ and duplicate-free when
    /// `dirty` is false.
    so: Vec<u64>,
    /// Cache of the same pairs *swapped and* sorted on ⟨o,s⟩, stored as flat
    /// `[o0, s0, o1, s1, …]`. Unset until a reader asks for it.
    os: OnceLock<Vec<u64>>,
    /// `true` when unsorted pairs have been appended since the last
    /// [`PropertyTable::finalize`].
    dirty: bool,
}

impl PartialEq for PropertyTable {
    fn eq(&self, other: &Self) -> bool {
        self.so == other.so && self.dirty == other.dirty
    }
}

impl Eq for PropertyTable {}

impl PropertyTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        PropertyTable::default()
    }

    /// Drops the ⟨o,s⟩ cache because the ⟨s,o⟩ pairs are about to change
    /// (or just changed). Every mutation of `so` must reach this method —
    /// the repo lint (`inferray-verify-lint`, rule IL003) walks the call
    /// graph of this file and rejects mutators that do not.
    fn invalidate_os_cache(&mut self) {
        self.os = OnceLock::new();
    }

    /// Settles the ⟨o,s⟩ cache after the ⟨s,o⟩ pairs of a table of
    /// `before` pairs changed by `delta` (⟨s,o⟩-sorted pairs, all inserted
    /// or all removed). Take → invalidate → reinstall: a built cache is
    /// taken out and the cache invalidated; when the change is small (see
    /// [`KEEP_OS_CACHE_DIVISOR`]), `patch` applies `delta`, swapped and
    /// sorted on ⟨o,s⟩, to the taken cache, which is then put back.
    fn settle_os_cache(
        &mut self,
        delta: &[u64],
        before: usize,
        patch: impl FnOnce(&mut Vec<u64>, &mut Vec<u64>),
    ) {
        let kept = self
            .os
            .take()
            .filter(|_| keeps_os_cache(as_pairs(delta).len(), before));
        self.invalidate_os_cache();
        if let Some(mut os) = kept {
            patch(&mut os, &mut swapped_sorted(delta));
            self.os = OnceLock::from(os);
        }
    }

    /// A finalized table of the ⟨s,o⟩-sorted `so`, with `os` — its pairs
    /// swapped and sorted — as its ⟨o,s⟩ cache when given.
    fn settled(so: Vec<u64>, os: Option<Vec<u64>>) -> PropertyTable {
        PropertyTable {
            so,
            os: os.map_or_else(OnceLock::new, OnceLock::from),
            dirty: false,
        }
    }

    /// Creates a table from raw (possibly unsorted, possibly duplicated)
    /// pairs and finalizes it.
    pub fn from_pairs(pairs: Vec<u64>) -> Self {
        let mut table = PropertyTable::from_raw(pairs);
        table.finalize();
        table
    }

    /// Creates a table from raw pairs **without** finalizing it, so the
    /// caller can finalize against its own reusable
    /// [`SortScratch`](inferray_sort::SortScratch) (the parallel ingest
    /// path builds one table per lane this way).
    pub fn from_raw(pairs: Vec<u64>) -> Self {
        assert!(
            pairs.len().is_multiple_of(2),
            "pair array must have even length"
        );
        PropertyTable {
            so: pairs,
            os: OnceLock::new(),
            dirty: true,
        }
    }

    /// Number of pairs currently stored (including not-yet-finalized ones).
    pub fn len(&self) -> usize {
        as_pairs(&self.so).len()
    }

    /// `true` when the table holds no pair.
    pub fn is_empty(&self) -> bool {
        self.so.is_empty()
    }

    /// `true` when pairs have been appended since the last finalize.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Appends a pair; the table becomes dirty and its ⟨o,s⟩ cache is
    /// dropped.
    pub fn add_pair(&mut self, s: u64, o: u64) {
        self.so.push(s);
        self.so.push(o);
        self.dirty = true;
        self.invalidate_os_cache();
    }

    /// Appends many pairs from a flat slice.
    pub fn add_pairs(&mut self, pairs: &[u64]) {
        assert!(
            pairs.len().is_multiple_of(2),
            "pair array must have even length"
        );
        if pairs.is_empty() {
            return;
        }
        self.so.extend_from_slice(pairs);
        self.dirty = true;
        self.invalidate_os_cache();
    }

    /// Sorts on ⟨s,o⟩ and removes duplicate pairs. Idempotent.
    pub fn finalize(&mut self) {
        if self.dirty {
            sort_pairs_auto_dedup(&mut self.so);
            self.dirty = false;
            self.invalidate_os_cache();
        }
    }

    /// [`PropertyTable::finalize`] against a reusable sort scratch.
    pub fn finalize_with(&mut self, scratch: &mut SortScratch) {
        if self.dirty {
            sort_pairs_auto_dedup_with(&mut self.so, scratch);
            self.dirty = false;
            self.invalidate_os_cache();
        }
    }

    /// The ⟨s,o⟩-sorted flat pair array.
    ///
    /// # Panics
    /// Debug-asserts that the table has been finalized.
    pub fn pairs(&self) -> &[u64] {
        debug_assert!(!self.dirty, "property table read while dirty");
        &self.so
    }

    /// Iterates over the pairs as `(s, o)` tuples, in ⟨s,o⟩ order.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        as_pairs(self.pairs()).iter().map(|&[s, o]| (s, o))
    }

    /// Mutable access to the raw flat pair buffer, for in-place identifier
    /// patching (the loader's promotion rewrite). The table is marked dirty —
    /// patched values may violate the sort order — and the ⟨o,s⟩ cache is
    /// dropped; callers re-[`finalize`](PropertyTable::finalize) afterwards.
    pub fn pairs_mut(&mut self) -> &mut [u64] {
        self.dirty = true;
        self.invalidate_os_cache();
        &mut self.so
    }

    /// Builds (if needed) the ⟨o,s⟩-sorted cache ahead of its first reader
    /// — what snapshot publication does for every table, so that query
    /// workers never pay a build. Returns the number of pairs actually
    /// re-sorted: `0` when the cache was still valid.
    pub fn ensure_os(&mut self) -> usize {
        self.ensure_os_with(&mut SortScratch::new())
    }

    /// [`PropertyTable::ensure_os`] against a reusable sort scratch.
    pub fn ensure_os_with(&mut self, scratch: &mut SortScratch) -> usize {
        debug_assert!(!self.dirty, "ensure_os on a dirty table");
        if self.dirty {
            // Release-mode safety net: the ⟨s,o⟩ array a reader would
            // binary-search beside the cache must be sorted too.
            self.finalize_with(scratch);
        } else if self.has_os_cache() {
            return 0;
        }
        self.os = OnceLock::from(object_sorted(&self.so, scratch));
        self.len()
    }

    /// The ⟨o,s⟩-sorted flat array (`[o, s, o, s, …]`), built now if no
    /// reader asked for it since the pairs last changed. Concurrent callers
    /// block on one build and all receive the same slice.
    pub fn object_pairs(&self) -> &[u64] {
        debug_assert!(!self.dirty, "object view of a dirty table");
        self.os.get_or_init(|| {
            let start = Instant::now();
            let os = object_sorted(&self.so, &mut SortScratch::new());
            let total = OS_BUILDS.get();
            OS_BUILDS.set(OsBuilds {
                time: total.time + start.elapsed(),
                pairs: total.pairs + self.len(),
            });
            os
        })
    }

    /// The ⟨o,s⟩-sorted flat array **if it is already built** — for readers
    /// that have a cache-free alternative (a sweep of ⟨s,o⟩) and must not
    /// start a sort, like the query planner and executor.
    pub fn os_pairs(&self) -> Option<&[u64]> {
        self.os.get().map(Vec::as_slice)
    }

    /// `true` when the ⟨o,s⟩ cache is materialized.
    pub fn has_os_cache(&self) -> bool {
        self.os.get().is_some()
    }

    /// Drops the ⟨o,s⟩ cache ("this cache may be cleared at runtime if
    /// memory is exhausted").
    pub fn clear_os_cache(&mut self) {
        self.invalidate_os_cache();
    }

    /// The contiguous run of subject `s` in the ⟨s,o⟩ layout, as pairs
    /// `[s, o], [s, o'], …` (empty when `s` has no pair).
    pub fn subject_run(&self, s: u64) -> &[Pair] {
        key_run(as_pairs(self.pairs()), s)
    }

    /// The contiguous run of object `o` in the ⟨o,s⟩ layout, as pairs
    /// `[o, s], [o, s'], …`; `None` when the cache is not materialized
    /// (see [`PropertyTable::os_pairs`]).
    pub fn object_run(&self, o: u64) -> Option<&[Pair]> {
        self.os_pairs().map(|os| key_run(as_pairs(os), o))
    }

    /// Iterates over the objects associated with subject `s` (⟨s,o⟩ order).
    pub fn objects_of(&self, s: u64) -> impl Iterator<Item = u64> + '_ {
        self.subject_run(s).iter().map(|p| p[1])
    }

    /// Iterates over the subjects associated with object `o`, in ascending
    /// order, through the ⟨o,s⟩ cache (built on this first need).
    pub fn subjects_of(&self, o: u64) -> impl Iterator<Item = u64> + '_ {
        key_run(as_pairs(self.object_pairs()), o)
            .iter()
            .map(|p| p[1])
    }

    /// Binary-searches for an exact pair.
    pub fn contains_pair(&self, s: u64, o: u64) -> bool {
        let pairs = as_pairs(self.pairs());
        let at = partition_point(pairs, |&[a, b]| (a, b) < (s, o));
        pairs.get(at) == Some(&[s, o])
    }

    /// Replaces the table contents with already-sorted, duplicate-free pairs.
    /// Used by the merge step and by the closure stage.
    pub fn replace_with_sorted(&mut self, pairs: Vec<u64>) {
        debug_assert!(inferray_sort::is_sorted_pairs(&pairs));
        self.so = pairs;
        self.invalidate_os_cache();
        self.dirty = false;
    }

    /// Appends already-sorted pairs that all sort strictly after the current
    /// last pair — the adaptive merge's tail-append strategy. The table
    /// stays finalized; a built ⟨o,s⟩ cache is spliced when the suffix is
    /// small against the table and dropped otherwise (module docs).
    pub fn append_sorted_suffix(&mut self, pairs: &[u64]) {
        debug_assert!(!self.dirty, "append_sorted_suffix on a dirty table");
        debug_assert!(inferray_sort::is_sorted_pairs(pairs));
        debug_assert!(
            as_pairs(&self.so).last() < as_pairs(pairs).first() || pairs.is_empty(),
            "suffix must sort after the whole table"
        );
        if pairs.is_empty() {
            return;
        }
        let before = self.len();
        self.so.extend_from_slice(pairs);
        self.settle_os_cache(pairs, before, |os, swapped| splice_sorted(os, swapped));
    }

    /// Merges already-sorted, duplicate-free pairs **known to be absent**
    /// from the table into place with one backward in-place pass — the
    /// second half of the adaptive merge. No rebuild allocation: the vector
    /// grows by `fresh.len()`, and the existing pairs between insertion
    /// points move as whole blocks (`copy_within`, i.e. memmove) rather than
    /// pair by pair. Each insertion point is found by galloping down from
    /// the previous one, so the searches cost O(log gap): a few comparisons
    /// per pair when `fresh` interleaves densely with the table, O(log n)
    /// when it is a handful of pairs. A built ⟨o,s⟩ cache takes the same
    /// splice when `fresh` is small against the table and is dropped
    /// otherwise (module docs).
    pub fn splice_in_sorted(&mut self, fresh: &[u64]) {
        debug_assert!(!self.dirty, "splice_in_sorted on a dirty table");
        debug_assert!(fresh.len().is_multiple_of(2));
        debug_assert!(inferray_sort::is_sorted_pairs(fresh));
        if fresh.is_empty() {
            return;
        }
        let before = self.len();
        splice_sorted(&mut self.so, fresh);
        self.settle_os_cache(fresh, before, |os, swapped| splice_sorted(os, swapped));
    }

    /// Replaces the pairs with `merged`: the table's pairs with the sorted,
    /// duplicate-free `fresh` — pairs the table lacked — merged in, built
    /// outside the table (the ranged update,
    /// [`merge_new_parts_ranged`](crate::merge_new_parts_ranged)). A built
    /// ⟨o,s⟩ cache settles as after
    /// [`splice_in_sorted`](Self::splice_in_sorted) of the same pairs:
    /// patched when `fresh` is small against the table, dropped otherwise.
    pub fn install_merged(&mut self, merged: Vec<u64>, fresh: &[u64]) {
        debug_assert!(!self.dirty, "install_merged on a dirty table");
        debug_assert_eq!(merged.len(), self.so.len() + fresh.len());
        debug_assert!(inferray_sort::is_sorted_pairs(&merged));
        let before = self.len();
        self.so = merged;
        self.settle_os_cache(fresh, before, |os, swapped| splice_sorted(os, swapped));
    }

    /// Removes the given pairs from the table **in place**, preserving the
    /// ⟨s,o⟩ sort order, and returns how many pairs were actually removed.
    ///
    /// `remove` is a flat `[s, o, …]` array in any order; pairs not present
    /// in the table are ignored. The table stays finalized — deletion never
    /// perturbs the order of the surviving pairs. When something was
    /// removed, a built ⟨o,s⟩ cache loses the same pairs if they are few
    /// against the table and is dropped otherwise (module docs): a table
    /// whose ⟨s,o⟩ pairs changed never serves a stale object-sorted view.
    pub fn remove_pairs(&mut self, remove: &[u64]) -> usize {
        debug_assert!(!self.dirty, "remove_pairs on a dirty table");
        debug_assert!(
            remove.len().is_multiple_of(2),
            "pair array must have even length"
        );
        if remove.is_empty() || self.so.is_empty() {
            return 0;
        }
        // Sort (and dedup) the victims so both sides can be walked in one
        // coordinated pass.
        let mut victims = remove.to_vec();
        sort_pairs_auto_dedup(&mut victims);
        let before = self.len();
        let removed = remove_sorted(&mut self.so, &mut victims);
        if removed > 0 {
            self.settle_os_cache(&victims, before, |os, swapped| {
                remove_sorted(os, swapped);
            });
        }
        removed
    }

    /// The table that [`splice_in_sorted`](Self::splice_in_sorted) — or, for
    /// pairs past the last one, [`append_sorted_suffix`](Self::append_sorted_suffix)
    /// — of the same `fresh` pairs leaves, built as a new table without
    /// writing this one: the write of a table shared with another epoch.
    /// The pairs are written once, into a vector of their exact size: the old
    /// pairs between two insertion points move as one block, each insertion
    /// point found by galloping on from the previous one. A built ⟨o,s⟩ cache
    /// is carried over the same way, from `fresh` swapped and sorted, when
    /// the in-place write would keep it (module docs).
    pub(crate) fn with_sorted(&self, fresh: &[u64]) -> PropertyTable {
        debug_assert!(!self.dirty, "with_sorted on a dirty table");
        debug_assert!(inferray_sort::is_sorted_pairs(fresh));
        self.with_merged(merged_copy(as_pairs(&self.so), as_pairs(fresh)), fresh)
    }

    /// The table that [`install_merged`](Self::install_merged) of the same
    /// `merged` and `fresh` leaves, built without writing this one:
    /// `merged` becomes its pairs as it is, and a built ⟨o,s⟩ cache is
    /// carried over from `fresh` swapped and sorted when the in-place write
    /// would keep it.
    pub(crate) fn with_merged(&self, merged: Vec<u64>, fresh: &[u64]) -> PropertyTable {
        debug_assert!(!self.dirty, "with_merged on a dirty table");
        debug_assert_eq!(merged.len(), self.so.len() + fresh.len());
        let os = self
            .os_pairs()
            .filter(|_| keeps_os_cache(as_pairs(fresh).len(), self.len()))
            .map(|os| merged_copy(as_pairs(os), as_pairs(&swapped_sorted(fresh))));
        PropertyTable::settled(merged, os)
    }

    /// The table that [`remove_pairs`](Self::remove_pairs) of the same pairs
    /// leaves, and how many it removes, built without writing this one:
    /// `None` when the table holds none of them, and then nothing is copied.
    /// The victims are located first; the survivors, and those of a kept
    /// ⟨o,s⟩ cache, are then copied once, block by block.
    pub(crate) fn without_pairs(&self, remove: &[u64]) -> Option<(PropertyTable, usize)> {
        debug_assert!(!self.dirty, "without_pairs on a dirty table");
        debug_assert!(
            remove.len().is_multiple_of(2),
            "pair array must have even length"
        );
        if remove.is_empty() || self.so.is_empty() {
            return None;
        }
        let mut victims = remove.to_vec();
        sort_pairs_auto_dedup(&mut victims);
        let hits = locate_present(as_pairs(&self.so), &mut victims);
        if hits.is_empty() {
            return None;
        }
        let os = self
            .os_pairs()
            .filter(|_| keeps_os_cache(hits.len(), self.len()))
            .map(|os| {
                let mut swapped = swapped_sorted(&victims);
                let os = as_pairs(os);
                copy_without(os, &locate_present(os, &mut swapped))
            });
        let table = PropertyTable::settled(copy_without(as_pairs(&self.so), &hits), os);
        Some((table, hits.len()))
    }

    /// Removes a single pair; returns `true` when it was present.
    pub fn remove_pair(&mut self, s: u64, o: u64) -> bool {
        self.remove_pairs(&[s, o]) == 1
    }

    /// Consumes the table and returns its raw sorted pair vector.
    pub fn into_pairs(mut self) -> Vec<u64> {
        self.finalize();
        self.so
    }

    /// Rewrites every subject/object identifier through `remap` in place
    /// (identifiers absent from the map are left untouched). This is the
    /// dictionary-promotion patch: remapped values may violate the sort
    /// order, so the table becomes dirty and the caller re-finalizes.
    /// Returns the number of values actually rewritten; a table that holds
    /// no key of `remap` is left as it was, cache included.
    pub fn remap_values(&mut self, remap: &std::collections::HashMap<u64, u64>) -> usize {
        let mut ids: Vec<u64> = remap.keys().copied().collect();
        ids.sort_unstable();
        if !self.mentions_any(&ids) {
            return 0;
        }
        let mut rewritten = 0usize;
        for value in self.pairs_mut() {
            if let Some(&mapped) = remap.get(value) {
                *value = mapped;
                rewritten += 1;
            }
        }
        rewritten
    }

    /// `true` when a subject or object of the table, finalized or not, is
    /// one of the sorted `ids`. A finalized table is probed by binary
    /// search — its subject runs, and its object runs when the ⟨o,s⟩ cache
    /// is built; otherwise its objects (a dirty table: all its values) are
    /// scanned once against `ids`.
    pub(crate) fn mentions_any(&self, ids: &[u64]) -> bool {
        let listed = |value: &u64| ids.binary_search(value).is_ok();
        if self.dirty {
            return self.so.iter().any(listed);
        }
        let pairs = as_pairs(&self.so);
        if ids.iter().any(|&id| !key_run(pairs, id).is_empty()) {
            return true;
        }
        match self.os_pairs() {
            Some(os) => ids.iter().any(|&id| !key_run(as_pairs(os), id).is_empty()),
            None => pairs.iter().any(|p| listed(&p[1])),
        }
    }

    /// Exact-or-bounded count of distinct **subjects**, derived from the
    /// ⟨s,o⟩ layout: subjects form contiguous runs, so the count gallops
    /// from run to run with one binary search each. At most `budget` runs
    /// are probed — tables with that many subjects or fewer get an exact
    /// count, larger ones a linear extrapolation over the scanned prefix.
    ///
    /// Cost is `O(budget · log n)` on the frozen array: cheap enough for
    /// the query planner to call per pattern, with no cached state to
    /// invalidate on mutation.
    pub fn distinct_subjects(&self, budget: usize) -> DistinctCount {
        distinct_keys_bounded(as_pairs(self.pairs()), budget)
    }

    /// Exact-or-bounded count of distinct **objects**, from the ⟨o,s⟩
    /// cache (`None` when the cache is not materialized — published
    /// snapshots always have it). Same contract as
    /// [`PropertyTable::distinct_subjects`].
    pub fn distinct_objects(&self, budget: usize) -> Option<DistinctCount> {
        self.os_pairs()
            .map(|os| distinct_keys_bounded(as_pairs(os), budget))
    }

    /// Checks the table's structural invariants, returning a description of
    /// the first violation found:
    ///
    /// * a finalized table is sorted on ⟨s,o⟩ with no duplicate pair;
    /// * the pair array has even length;
    /// * the ⟨o,s⟩ cache, when materialized, is byte-identical to a fresh
    ///   swap-and-sort rebuild of the current pairs (cache coherence).
    ///
    /// This is the runtime counterpart of the lint's static IL003 rule; the
    /// `strict-invariants` feature calls it at every publish boundary.
    pub fn debug_validate(&self) -> Result<(), String> {
        if !self.so.len().is_multiple_of(2) {
            return Err(format!("pair array has odd length {}", self.so.len()));
        }
        if self.dirty {
            // A dirty table is mid-mutation; only the shape is checkable.
            return Ok(());
        }
        if !inferray_sort::is_sorted_pairs(&self.so) {
            return Err("finalized table is not sorted on ⟨s,o⟩".to_string());
        }
        if let Some(w) = as_pairs(&self.so).windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("duplicate pair ({}, {})", w[0][0], w[0][1]));
        }
        if let Some(os) = self.os_pairs() {
            let mut rebuilt = swap_pairs(&self.so);
            sort_pairs_auto_dedup(&mut rebuilt);
            if os != rebuilt.as_slice() {
                return Err(
                    "⟨o,s⟩ cache is stale: differs from a fresh rebuild of the pairs".to_string(),
                );
            }
        }
        Ok(())
    }
}

/// The pairs of a ⟨s,o⟩ array swapped and sorted on ⟨o,s⟩.
fn object_sorted(so: &[u64], scratch: &mut SortScratch) -> Vec<u64> {
    let mut swapped = swap_pairs(so);
    sort_pairs_auto_dedup_with(&mut swapped, scratch);
    swapped
}

/// The pairs of `delta` swapped and sorted on ⟨o,s⟩: the change a cache
/// takes for a change of the ⟨s,o⟩ pairs.
fn swapped_sorted(delta: &[u64]) -> Vec<u64> {
    let mut swapped = swap_pairs(delta);
    sort_pairs_auto(&mut swapped);
    swapped
}

/// The sorted `pairs` with the sorted, duplicate-free `fresh` — pairs absent
/// from it — merged in, written once into a vector of the exact size: the
/// old pairs between two insertion points are copied as one block, each
/// insertion point found by galloping on from the previous one.
fn merged_copy(pairs: &[Pair], fresh: &[Pair]) -> Vec<u64> {
    let mut merged = Vec::with_capacity(pairs.len() + fresh.len());
    let mut read = 0usize; // the first old pair not yet copied
    for key in fresh {
        let at = gallop(pairs, read, |p| p < key);
        merged.extend_from_slice(&pairs[read..at]);
        merged.push(*key);
        read = at;
    }
    merged.extend_from_slice(&pairs[read..]);
    merged.into_flattened()
}

/// The indices, ascending, at which the sorted `pairs` hold a pair of the
/// sorted, duplicate-free `victims`; `victims` is left holding exactly
/// those pairs. Each victim is located by galloping on from the previous one.
fn locate_present(pairs: &[Pair], victims: &mut Vec<u64>) -> Vec<usize> {
    let mut hits = Vec::new();
    let mut cursor = 0usize;
    let mut found = 0usize; // the victims found so far
    let view = as_pairs_mut(victims);
    for next in 0..view.len() {
        let key = view[next];
        cursor = gallop(pairs, cursor, |p| *p < key);
        if pairs.get(cursor) == Some(&key) {
            hits.push(cursor);
            view[found] = key;
            found += 1;
        }
    }
    victims.truncate(2 * found);
    hits
}

/// The sorted `pairs` without the pairs at the ascending indices `hits`,
/// written once into a vector of the exact size: the survivors between two
/// removal points are copied as one block.
fn copy_without(pairs: &[Pair], hits: &[usize]) -> Vec<u64> {
    let mut kept = Vec::with_capacity(pairs.len() - hits.len());
    let mut read = 0usize; // the first survivor not yet copied
    for &hit in hits {
        kept.extend_from_slice(&pairs[read..hit]);
        read = hit + 1;
    }
    kept.extend_from_slice(&pairs[read..]);
    kept.into_flattened()
}

/// Merges sorted, duplicate-free pairs **known to be absent** from the
/// sorted `pairs` into it with one backward in-place pass: the vector grows
/// by `fresh.len()`, and the old pairs between insertion points move as
/// whole blocks (`copy_within`). Each insertion point is found by galloping
/// down from the previous one.
fn splice_sorted(pairs: &mut Vec<u64>, fresh: &[u64]) {
    let old_len = as_pairs(pairs).len();
    pairs.resize(pairs.len() + fresh.len(), 0);
    let pairs = as_pairs_mut(pairs);
    let mut read_end = old_len; // exclusive end of the unmoved old region
    let mut write_end = pairs.len(); // exclusive end of the write region
    for key in as_pairs(fresh).iter().rev() {
        // Everything in the old region greater than `key` belongs after
        // it: move that block in one memmove. (`key` is absent from the
        // table, so lower bound == upper bound.)
        let boundary = gallop_back(pairs, read_end, |p| p < key);
        let block = read_end - boundary;
        if block > 0 {
            pairs.copy_within(boundary..read_end, write_end - block);
            write_end -= block;
            read_end = boundary;
        }
        write_end -= 1;
        pairs[write_end] = *key;
    }
    // The remaining old prefix is already in place.
}

/// Removes from the sorted `pairs`, in place, every pair of the sorted,
/// duplicate-free `victims` it holds, and returns how many; `victims` is
/// left holding exactly the removed pairs. The compaction is one forward
/// pass: survivors between two removal points move as whole blocks
/// (`copy_within`), [`splice_sorted`] in reverse.
fn remove_sorted(pairs: &mut Vec<u64>, victims: &mut Vec<u64>) -> usize {
    let view = as_pairs_mut(pairs);
    let wanted = as_pairs_mut(victims);
    let mut write = 0usize; // exclusive end of the compacted prefix
    let mut read = 0usize; // start of the unexamined region
    let mut found = 0usize; // the victims found so far
    for next in 0..wanted.len() {
        let key = wanted[next];
        // Locate the victim among the not-yet-examined pairs.
        let hit = read + partition_point(&view[read..], |p| *p < key);
        if view.get(hit) != Some(&key) {
            continue; // not present: nothing to remove
        }
        // Retain the block of survivors before it in one memmove.
        let block = hit - read;
        if block > 0 && write != read {
            view.copy_within(read..hit, write);
        }
        write += block;
        read = hit + 1; // skip the removed pair
        wanted[found] = key;
        found += 1;
    }
    victims.truncate(2 * found);
    if found == 0 {
        return 0;
    }
    // Retain the tail after the last removal.
    let tail = view.len() - read;
    if tail > 0 {
        view.copy_within(read.., write);
    }
    pairs.truncate(2 * (write + tail));
    found
}

/// An exact-or-estimated distinct-key count (see
/// [`PropertyTable::distinct_subjects`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistinctCount {
    /// Number of distinct keys (exact, or a bounded estimate).
    pub count: usize,
    /// `true` when the full array was walked within the probe budget.
    pub exact: bool,
}

/// Counts distinct first components of sorted pairs by galloping across
/// runs; extrapolates once `budget` runs were probed.
fn distinct_keys_bounded(pairs: &[Pair], budget: usize) -> DistinctCount {
    let n = pairs.len();
    let budget = budget.max(1);
    let mut runs = 0usize;
    let mut idx = 0usize; // the first pair of the next unexamined run
    while idx < n {
        if runs == budget {
            // Estimate: runs seen across the scanned prefix, scaled to the
            // whole array. At least one more run exists (we stopped on it).
            let scaled = runs.saturating_mul(n) / idx;
            return DistinctCount {
                count: scaled.clamp(runs + 1, n),
                exact: false,
            };
        }
        let key = pairs[idx][0];
        idx = gallop(pairs, idx + 1, |p| p[0] <= key);
        runs += 1;
    }
    DistinctCount {
        count: runs,
        exact: true,
    }
}

/// The run of pairs whose first component is `key`, in pairs sorted on it:
/// a binary search for its start, then a gallop over its length.
fn key_run(pairs: &[Pair], key: u64) -> &[Pair] {
    let start = partition_point(pairs, |p| p[0] < key);
    &pairs[start..gallop(pairs, start, |p| p[0] <= key)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> PropertyTable {
        // (5,2) (1,9) (1,3) (5,2) (2,7)
        PropertyTable::from_pairs(vec![5, 2, 1, 9, 1, 3, 5, 2, 2, 7])
    }

    #[test]
    fn from_pairs_sorts_and_dedups() {
        let t = table();
        assert_eq!(t.len(), 4);
        assert_eq!(t.pairs(), &[1, 3, 1, 9, 2, 7, 5, 2]);
        assert!(!t.is_dirty());
    }

    #[test]
    fn add_pair_marks_dirty_and_finalize_restores_order() {
        let mut t = table();
        t.add_pair(0, 1);
        assert!(t.is_dirty());
        t.finalize();
        assert_eq!(t.pairs()[..2], [0, 1]);
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn finalize_is_idempotent() {
        let mut t = table();
        let before = t.pairs().to_vec();
        t.finalize();
        t.finalize();
        assert_eq!(t.pairs(), &before[..]);
    }

    #[test]
    fn os_cache_is_lazy_and_sorted_by_object() {
        let mut t = table();
        assert!(!t.has_os_cache());
        assert!(t.os_pairs().is_none());
        t.ensure_os();
        assert!(t.has_os_cache());
        assert_eq!(t.os_pairs().unwrap(), &[2, 5, 3, 1, 7, 2, 9, 1]);
        t.clear_os_cache();
        assert!(!t.has_os_cache());
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn ensure_os_on_a_dirty_table_self_heals_in_release() {
        // In release builds the dirty debug_assert does not fire; the cache
        // must still never be built from unsorted pairs.
        let mut t = PropertyTable::new();
        t.add_pair(9, 1);
        t.add_pair(2, 7);
        t.add_pair(9, 1);
        assert!(t.is_dirty());
        t.ensure_os();
        assert!(!t.is_dirty(), "self-heal finalizes first");
        assert_eq!(t.pairs(), &[2, 7, 9, 1]);
        assert_eq!(t.subjects_of(1).collect::<Vec<_>>(), vec![9]);
        assert_eq!(t.subjects_of(7).collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn adding_pairs_invalidates_os_cache() {
        let mut t = table();
        t.ensure_os();
        t.add_pair(9, 9);
        assert!(!t.has_os_cache());
    }

    #[test]
    fn objects_of_returns_contiguous_run() {
        let t = PropertyTable::from_pairs(vec![1, 5, 1, 3, 2, 9, 1, 4]);
        assert_eq!(t.objects_of(1).collect::<Vec<_>>(), vec![3, 4, 5]);
        assert_eq!(t.objects_of(2).collect::<Vec<_>>(), vec![9]);
        assert_eq!(t.objects_of(42).count(), 0);
    }

    #[test]
    fn subjects_of_uses_os_cache() {
        let mut t = PropertyTable::from_pairs(vec![1, 7, 2, 7, 3, 8]);
        t.ensure_os();
        assert_eq!(t.subjects_of(7).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(t.subjects_of(8).collect::<Vec<_>>(), vec![3]);
        assert_eq!(t.subjects_of(9).count(), 0);
    }

    #[test]
    fn subjects_of_builds_the_cache_on_first_need() {
        let t = table();
        assert!(!t.has_os_cache());
        assert_eq!(t.subjects_of(2).collect::<Vec<_>>(), vec![5]);
        assert!(t.has_os_cache(), "the first object-side reader built it");
        assert_eq!(t.object_pairs(), &[2, 5, 3, 1, 7, 2, 9, 1]);
    }

    #[test]
    fn equality_ignores_the_cache_state() {
        let plain = table();
        let mut cached = plain.clone();
        cached.ensure_os();
        assert!(cached.has_os_cache() && !plain.has_os_cache());
        assert_eq!(plain, cached, "same pairs, one cache built");
        let mut other = table();
        other.add_pair(8, 8);
        assert_ne!(plain, other, "dirty and finalized tables differ");
        other.finalize();
        assert_ne!(plain, other, "different pairs differ");
    }

    #[test]
    fn racing_readers_of_one_object_view_receive_the_same_slice() {
        let pairs: Vec<u64> = (0..20_000u64)
            .flat_map(|i| [i, (i * 7919) % 1_000])
            .collect();
        let t = PropertyTable::from_pairs(pairs);
        let barrier = std::sync::Barrier::new(4);
        let views: Vec<(usize, usize)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        let view = t.object_pairs();
                        (view.as_ptr() as usize, view.len())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reader thread panicked"))
                .collect()
        });
        assert!(views.iter().all(|v| *v == views[0]), "one build, one slice");
        assert_eq!(views[0].1, 40_000);
        t.debug_validate().expect("the shared cache is coherent");
    }

    #[test]
    fn empty_table_behaviour() {
        let t = PropertyTable::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(!t.contains_pair(1, 1));
        assert_eq!(t.iter_pairs().count(), 0);
        assert_eq!(t.objects_of(3).count(), 0);
    }

    #[test]
    fn replace_with_sorted_and_into_pairs() {
        let mut t = table();
        t.replace_with_sorted(vec![1, 1, 2, 2]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.into_pairs(), vec![1, 1, 2, 2]);
    }

    #[test]
    fn remove_pairs_preserves_order_and_reports_count() {
        let mut t = table(); // [1,3, 1,9, 2,7, 5,2]
                             // One absent pair, two present ones, in scrambled input order.
        let removed = t.remove_pairs(&[5, 2, 4, 4, 1, 3]);
        assert_eq!(removed, 2);
        assert_eq!(t.pairs(), &[1, 9, 2, 7]);
        assert!(!t.is_dirty(), "deletion keeps the table finalized");
        // Removing the rest empties the table.
        assert_eq!(t.remove_pairs(&[1, 9, 2, 7]), 2);
        assert!(t.is_empty());
        assert_eq!(t.remove_pairs(&[1, 9]), 0, "already gone");
    }

    #[test]
    fn remove_pairs_invalidates_os_cache_only_when_something_was_removed() {
        let mut t = table();
        t.ensure_os();
        assert_eq!(t.remove_pairs(&[6, 6]), 0);
        assert!(t.has_os_cache(), "no-op removal keeps the cache");
        assert_eq!(t.remove_pairs(&[2, 7]), 1);
        assert!(!t.has_os_cache(), "real removal drops the cache");
        t.ensure_os();
        assert_eq!(t.os_pairs().unwrap(), &[2, 5, 3, 1, 9, 1]);
    }

    /// Equal to the cache a rebuild from the current pairs would give.
    fn assert_cache_rebuilt(t: &PropertyTable) {
        let os = t.os_pairs().expect("the cache was kept");
        assert_eq!(os, object_sorted(t.pairs(), &mut SortScratch::new()));
    }

    #[test]
    fn small_changes_keep_the_cache_and_large_ones_drop_it() {
        // 64 pairs: changes of up to 4 pairs are kept.
        let pairs: Vec<u64> = (0..64u64).flat_map(|i| [2 * i, (i * 37) % 11]).collect();
        let mut t = PropertyTable::from_pairs(pairs);
        t.ensure_os();
        t.splice_in_sorted(&[3, 5, 9, 0]);
        assert_cache_rebuilt(&t);
        t.append_sorted_suffix(&[500, 1, 501, 7]);
        assert_cache_rebuilt(&t);
        assert_eq!(t.remove_pairs(&[3, 5, 500, 1, 999, 9, 0, 0]), 3);
        assert_cache_rebuilt(&t);
        assert_eq!(t.len(), 65);
        t.splice_in_sorted(&[1, 1, 5, 5, 7, 7, 9, 9, 11, 11]);
        assert!(!t.has_os_cache(), "5 new pairs against 65: dropped");
    }

    #[test]
    fn remove_pairs_handles_duplicate_victims_and_runs() {
        // Consecutive victims force block moves of every size, including
        // zero-length blocks between adjacent removals.
        let mut t = PropertyTable::from_pairs(vec![1, 1, 1, 2, 1, 3, 2, 1, 3, 1, 3, 2]);
        let removed = t.remove_pairs(&[1, 2, 1, 3, 1, 2, 3, 2]);
        assert_eq!(removed, 3, "duplicate victims count once");
        assert_eq!(t.pairs(), &[1, 1, 2, 1, 3, 1]);
    }

    #[test]
    fn remove_pair_single() {
        let mut t = table();
        assert!(t.remove_pair(1, 9));
        assert!(!t.remove_pair(1, 9));
        assert!(!t.contains_pair(1, 9));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn remove_everything_then_refill() {
        let mut t = PropertyTable::from_pairs(vec![7, 8]);
        assert_eq!(t.remove_pairs(&[7, 8]), 1);
        assert!(t.is_empty());
        t.add_pair(9, 9);
        t.finalize();
        assert_eq!(t.pairs(), &[9, 9]);
    }

    #[test]
    fn distinct_counts_are_exact_within_budget() {
        let mut t = PropertyTable::from_pairs(vec![1, 3, 1, 9, 2, 7, 5, 2, 5, 4, 5, 9]);
        assert_eq!(
            t.distinct_subjects(16),
            DistinctCount {
                count: 3,
                exact: true
            }
        );
        assert!(t.distinct_objects(16).is_none(), "no ⟨o,s⟩ cache yet");
        t.ensure_os();
        // Objects: {2, 3, 4, 7, 9} — 9 appears under two subjects.
        assert_eq!(
            t.distinct_objects(16),
            Some(DistinctCount {
                count: 5,
                exact: true
            })
        );
    }

    #[test]
    fn distinct_counts_estimate_past_the_budget() {
        // 100 distinct subjects, one pair each: a budget of 10 scans the
        // first 10 runs and extrapolates 10 * 100 / 10 = 100 exactly here
        // (uniform runs), flagged inexact.
        let pairs: Vec<u64> = (0..100u64).flat_map(|s| [s, s + 1000]).collect();
        let t = PropertyTable::from_pairs(pairs);
        let est = t.distinct_subjects(10);
        assert!(!est.exact);
        assert_eq!(est.count, 100);
        // Skew: one subject owns half the table; the estimate is bounded
        // by the real array size and at least the runs actually seen.
        let mut skew: Vec<u64> = (0..50u64).flat_map(|o| [7, o]).collect();
        skew.extend((100..150u64).flat_map(|s| [s, 1]));
        let t = PropertyTable::from_pairs(skew);
        let est = t.distinct_subjects(4);
        assert!(!est.exact);
        assert!(est.count >= 5 && est.count <= 100, "got {}", est.count);
        // Exact when the budget covers everything.
        assert_eq!(
            t.distinct_subjects(64),
            DistinctCount {
                count: 51,
                exact: true
            }
        );
    }

    #[test]
    fn distinct_counts_on_empty_table() {
        let t = PropertyTable::new();
        assert_eq!(
            t.distinct_subjects(8),
            DistinctCount {
                count: 0,
                exact: true
            }
        );
    }

    #[test]
    fn runs_are_exposed_as_slices() {
        let mut t = PropertyTable::from_pairs(vec![1, 5, 1, 3, 2, 9, 1, 4]);
        assert_eq!(t.subject_run(1), &[[1, 3], [1, 4], [1, 5]]);
        assert_eq!(t.subject_run(2), &[[2, 9]]);
        assert!(t.subject_run(7).is_empty());
        assert!(t.object_run(9).is_none(), "no ⟨o,s⟩ cache yet");
        t.ensure_os();
        assert_eq!(t.object_run(9), Some(&[[9, 2]][..]));
        assert_eq!(t.object_run(6), Some(&[][..]));
    }
}
