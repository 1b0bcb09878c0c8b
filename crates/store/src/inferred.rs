//! Per-rule output buffers for the parallel inference stage.
//!
//! "Each rule is executed on a dedicated thread and holds its own inferred
//! property table to avoid potential contention" (§4.3). An
//! [`InferredBuffer`] is exactly that: an append-only map from property
//! identifier to a raw (unsorted, possibly duplicated) pair vector. After
//! all rule threads join, each buffer's vectors are handed as they are —
//! one part per rule — property by property, to the merge step of Figure 5,
//! which sorts them where they lie ([`crate::merge::merge_new_parts_with`]).

use inferray_sort::pairs::as_pairs;
use std::collections::BTreeMap;

/// Append-only buffer of inferred ⟨s,o⟩ pairs, grouped by property.
#[derive(Debug, Clone, Default)]
pub struct InferredBuffer {
    tables: BTreeMap<u64, Vec<u64>>,
}

impl InferredBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        InferredBuffer::default()
    }

    /// Records the inferred triple `⟨s, p, o⟩`: one map lookup per call,
    /// which is fine for the rules that emit a handful of pairs. An
    /// executor that emits per joined pair resolves its output vector once
    /// with [`InferredBuffer::table_mut`] and pushes into that instead.
    #[inline]
    pub fn add(&mut self, p: u64, s: u64, o: u64) {
        self.table_mut(p).extend_from_slice(&[s, o]);
    }

    /// The raw pair vector of property `p` (`[s0, o0, s1, o1, …]`), created
    /// empty if absent, for an executor to reserve and push into across a
    /// whole join. The caller keeps the length even; a vector left empty is
    /// invisible to every reader of the buffer.
    pub fn table_mut(&mut self, p: u64) -> &mut Vec<u64> {
        self.tables.entry(p).or_default()
    }

    /// Records many pairs for one property at once.
    pub fn add_pairs(&mut self, p: u64, pairs: &[u64]) {
        assert!(
            pairs.len().is_multiple_of(2),
            "pair array must have even length"
        );
        if pairs.is_empty() {
            return;
        }
        self.tables.entry(p).or_default().extend_from_slice(pairs);
    }

    /// Total number of pairs buffered (duplicates included).
    pub fn len(&self) -> usize {
        self.tables.values().map(|v| as_pairs(v).len()).sum()
    }

    /// `true` when nothing has been buffered.
    pub fn is_empty(&self) -> bool {
        self.tables.values().all(|v| v.is_empty())
    }

    /// Number of distinct properties touched.
    pub fn property_count(&self) -> usize {
        self.tables.iter().filter(|(_, v)| !v.is_empty()).count()
    }

    /// Iterates over `(property, raw pairs)` for every property that
    /// received pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[u64])> + '_ {
        self.tables
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(&p, v)| (p, v.as_slice()))
    }

    /// Consumes the buffer, yielding `(property, raw pairs)` for every
    /// property that received pairs, in ascending property order.
    pub fn into_iter_tables(self) -> impl Iterator<Item = (u64, Vec<u64>)> {
        self.tables.into_iter().filter(|(_, v)| !v.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_buffer() {
        let buf = InferredBuffer::new();
        assert!(buf.is_empty());
        assert_eq!(buf.len(), 0);
        assert_eq!(buf.property_count(), 0);
    }

    #[test]
    fn add_groups_by_property() {
        let mut buf = InferredBuffer::new();
        buf.add(100, 1, 2);
        buf.add(100, 3, 4);
        buf.add(200, 5, 6);
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.property_count(), 2);
        let tables: Vec<(u64, Vec<u64>)> =
            buf.iter().map(|(p, pairs)| (p, pairs.to_vec())).collect();
        assert_eq!(tables, vec![(100, vec![1, 2, 3, 4]), (200, vec![5, 6])]);
    }

    #[test]
    fn duplicates_are_kept_until_merge() {
        let mut buf = InferredBuffer::new();
        buf.add(7, 1, 1);
        buf.add(7, 1, 1);
        assert_eq!(buf.len(), 2, "the buffer itself never deduplicates");
    }

    #[test]
    fn add_pairs_bulk() {
        let mut buf = InferredBuffer::new();
        buf.add_pairs(9, &[1, 2, 3, 4]);
        buf.add_pairs(9, &[]);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn table_mut_hands_out_the_vector_and_empty_ones_stay_invisible() {
        let mut buf = InferredBuffer::new();
        buf.table_mut(5); // resolved for a join that matched nothing
        let out = buf.table_mut(7);
        out.reserve(4);
        out.extend_from_slice(&[1, 2, 3, 4]);
        buf.add(7, 5, 6);
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.property_count(), 1);
        assert_eq!(buf.iter().map(|(p, _)| p).collect::<Vec<_>>(), vec![7]);
        let tables: Vec<(u64, Vec<u64>)> = buf.into_iter_tables().collect();
        assert_eq!(tables, vec![(7, vec![1, 2, 3, 4, 5, 6])]);
    }

    #[test]
    fn into_iter_tables_is_property_ordered() {
        let mut buf = InferredBuffer::new();
        buf.add(300, 1, 1);
        buf.add(100, 2, 2);
        buf.add(200, 3, 3);
        let props: Vec<u64> = buf.into_iter_tables().map(|(p, _)| p).collect();
        assert_eq!(props, vec![100, 200, 300]);
    }
}
