//! # inferray-store
//!
//! The vertically partitioned, sorted-array triple store of the Inferray
//! reasoner (sections 4.2 and 4.3 of the paper).
//!
//! A triple store is an array of **property tables**, one per predicate,
//! addressed by the dense property index of the dictionary
//! (`inferray-dictionary`). Each [`PropertyTable`] is a flat `Vec<u64>` of
//! `⟨subject, object⟩` pairs kept sorted on ⟨s,o⟩ and duplicate-free, plus a
//! lazily materialized cache of the same pairs sorted on ⟨o,s⟩ — the two
//! orders the sort-merge-join rule executors need. Every access pattern in
//! the hot path is a sequential scan or a binary search over a contiguous
//! array, which is precisely the "predictable memory access pattern" the
//! paper designs for.
//!
//! The module map follows the paper:
//!
//! * [`property_table`] — the sorted pair arrays and their ⟨o,s⟩ cache (§4.2),
//!   which a small in-place change patches instead of dropping;
//! * [`triple_store`] — the array of property tables ([`TripleStore`]),
//!   each behind an `Arc` so that a store clone shares every table it does
//!   not write;
//! * [`merge`] — the per-iteration update step of Figure 5: sort and
//!   deduplicate the inferred pairs (one part per rule that emitted them),
//!   merge them into *main*, and emit the genuinely new pairs into *new* —
//!   for a table that dominates an iteration, split by subject range across
//!   the lanes of a pool ([`merge_new_parts_ranged`]);
//! * [`inferred`] — the per-rule output buffers used during parallel rule
//!   execution (each rule thread owns one, avoiding contention);
//! * [`profile`] — software memory-access counters standing in for the
//!   hardware cache/TLB/page-fault counters of Figures 7–8 (see README.md,
//!   "Substitutions", for the rationale);
//! * [`snapshot`] — epoch-based snapshot publication (the lock-free
//!   [`Handoff`], [`SnapshotStore`] / [`StoreSnapshot`]) so concurrent
//!   readers keep a consistent frozen version while a writer materializes
//!   the next one (docs/serving.md);
//! * [`reclaim`] — the buffers of the tables a live write superseded,
//!   reused by the next write's copies ([`Recycler`]);
//! * [`estimate`] — the one cardinality model over the tables, read by the
//!   query planner and `rules explain --data` alike.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod estimate;
pub mod inferred;
pub mod merge;
pub mod profile;
pub mod property_table;
pub mod query;
pub mod reclaim;
pub mod snapshot;
pub mod triple_store;

/// The pair view and the forward search over sorted pairs, re-exported for
/// the query executor and the rule kernels (the layout's home is
/// `inferray_sort::pairs`).
pub use inferray_sort::pairs::{as_pairs, gallop, Pair};
/// The scratch of [`PropertyTable::finalize_with`] and the `ensure_os_with`
/// family, re-exported so their callers need not name the sort crate.
pub use inferray_sort::{Lanes, SortScratch};
pub use inferred::InferredBuffer;
pub use merge::{
    merge_new_pairs, merge_new_pairs_with, merge_new_parts_ranged, merge_new_parts_with,
    MergeOutcome, MergeStrategy, MergeTarget,
};
pub use profile::AccessProfile;
pub use property_table::{os_builds, DistinctCount, OsBuilds, PropertyTable};
pub use query::TriplePattern;
pub use reclaim::Recycler;
pub use snapshot::{unpoison, Handoff, SnapshotStore, StoreSnapshot};
pub use triple_store::{OsCacheTask, TripleStore};
