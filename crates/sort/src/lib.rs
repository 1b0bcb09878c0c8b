//! # inferray-sort
//!
//! Low-entropy sorting kernels for pairs of 64-bit integers, reproducing
//! section 5 of the Inferray paper (Subercaze et al., VLDB 2016).
//!
//! Property tables store `⟨subject, object⟩` pairs in a *flat* `Vec<u64>` —
//! subjects on even indices, objects on odd indices — and the whole system's
//! performance "relies on an efficient sort of the property tables made up of
//! key-value pairs" (paper §1.1). Because the dictionary numbers identifiers
//! densely (see `inferray-dictionary`), key entropy is low, and two
//! specialized kernels beat generic comparison sorts:
//!
//! * [`counting::counting_sort_pairs`] — the pair-aware counting sort of the
//!   paper's Algorithm 2, including its fused duplicate-removal pass;
//! * [`radix::msda_radix_sort_pairs`] — "MSDA", an adaptive most-significant-
//!   digit radix sort over the 128-bit ⟨s,o⟩ key that skips the leading
//!   digits the dense numbering leaves constant (§5.3).
//!
//! [`baseline`] provides the generic comparison sorts the paper benchmarks
//! against in Table 1 (std unstable pattern-defeating quicksort, a textbook
//! merge sort, a textbook quicksort), and [`operating_range`] implements the
//! §5.4 "rule of thumb" that picks counting sort when the collection is
//! larger than its value range and radix sort otherwise.
//!
//! [`pairs`] is the layout's one home. It views a flat array as `&[Pair]`
//! (`Pair = [u64; 2]`, [`pairs::as_pairs`], no copy) and holds the only
//! three searches over sorted pairs — [`pairs::partition_point`],
//! [`pairs::gallop`] and [`pairs::gallop_back`] — which the store, the
//! rule kernels and the query executor read their tables with.
//!
//! All kernels share the same contract:
//!
//! * input: a flat pair array of even length;
//! * output: the array sorted lexicographically by ⟨s,o⟩ (ascending);
//! * `*_dedup` variants additionally remove duplicate *pairs* and truncate
//!   the vector.
//!
//! [`sort_parts_auto_dedup_with`] takes the pairs as several arrays (one
//! per rule that emitted them) and gives what the dedup kernel gives over
//! their concatenation, without building it; [`merge_parts_ranged`] sorts
//! them and merges them into a sorted *main* split by subject range across
//! the lanes of a pool ([`ranged`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod counting;
pub mod operating_range;
pub mod pairs;
pub mod radix;
pub mod ranged;
pub mod scratch;

pub use counting::{
    counting_sort_pairs, counting_sort_pairs_dedup, counting_sort_pairs_dedup_with,
    counting_sort_pairs_with,
};
pub use operating_range::{
    recommend_algorithm, sort_pairs_auto, sort_pairs_auto_dedup, sort_pairs_auto_dedup_with,
    sort_pairs_auto_with, sort_parts_auto_dedup_with, Algorithm,
};
pub use pairs::{dedup_sorted_pairs, is_sorted_pairs, swap_pairs};
pub use radix::{
    msda_radix_sort_pairs, msda_radix_sort_pairs_dedup, msda_radix_sort_pairs_dedup_with,
    msda_radix_sort_pairs_with,
};
pub use ranged::{merge_parts_ranged, Lanes, RangedMerge};
pub use scratch::SortScratch;
