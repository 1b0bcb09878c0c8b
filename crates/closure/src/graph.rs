//! Dense-numbered directed graphs in compressed sparse row (CSR) form.
//!
//! The closure stage receives a property table — a flat `[s0, o0, s1, o1,
//! …]` array of 64-bit dictionary identifiers — and needs a compact
//! adjacency structure over *dense* node indices. [`DenseGraph::from_pairs`]
//! performs the renumbering (sort + dedup + binary search) and builds the
//! CSR arrays in two linear passes, exactly the "translate the nodes' ID to
//! keep a dense numbering" step the paper describes before applying
//! Nuutila's algorithm. The numbering preserves order: dense index `i <
//! j` exactly when label `i < j`.

/// A directed graph over densely renumbered nodes, in CSR form, remembering
/// the original 64-bit identifier of every node.
#[derive(Debug, Clone)]
pub struct DenseGraph {
    /// Original identifier of each dense node index, ascending.
    labels: Vec<u64>,
    /// CSR row offsets (length `n + 1`).
    offsets: Vec<usize>,
    /// CSR column indices (dense target node of each edge).
    targets: Vec<u32>,
}

impl DenseGraph {
    /// Builds a graph from a flat `[s0, o0, s1, o1, …]` edge array over
    /// arbitrary u64 identifiers, in any order; with `symmetric` every edge
    /// also stands for its reverse. Parallel edges are kept (they are
    /// harmless to the closure and removing them here would cost a sort).
    ///
    /// # Panics
    /// Panics if `pairs` has odd length.
    pub fn from_pairs(pairs: &[u64], symmetric: bool) -> Self {
        assert!(
            pairs.len().is_multiple_of(2),
            "pair array must have even length"
        );
        // Dense renumbering: sorted unique labels, binary-searched per use.
        let mut labels = pairs.to_vec();
        labels.sort_unstable();
        labels.dedup();
        let index_of = |id: u64| -> usize { labels.binary_search(&id).expect("label present") };
        let dense: Vec<(u32, u32)> = pairs
            .as_chunks::<2>()
            .0
            .iter()
            .map(|&[s, o]| (index_of(s) as u32, index_of(o) as u32))
            .collect();
        let edges = || {
            let reversed = dense.iter().filter(|_| symmetric).map(|&(s, o)| (o, s));
            dense.iter().copied().chain(reversed)
        };

        let n = labels.len();
        let mut offsets = vec![0usize; n + 1];
        for (s, _) in edges() {
            offsets[s as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0u32; offsets[n]];
        for (s, o) in edges() {
            targets[cursor[s as usize]] = o;
            cursor[s as usize] += 1;
        }
        DenseGraph {
            labels,
            offsets,
            targets,
        }
    }

    /// [`DenseGraph::from_pairs`] over `(source, target)` tuples.
    #[cfg(test)]
    pub(crate) fn from_edges(edges: &[(u64, u64)]) -> Self {
        let pairs: Vec<u64> = edges.iter().flat_map(|&(s, o)| [s, o]).collect();
        Self::from_pairs(&pairs, false)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of edges (parallel edges counted).
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// The original identifier of dense node `v`.
    #[inline]
    pub fn label(&self, v: u32) -> u64 {
        self.labels[v as usize]
    }

    /// Every node's original identifier, by dense index (ascending).
    pub fn labels(&self) -> &[u64] {
        &self.labels
    }

    /// The dense index of an original identifier, if the node exists.
    pub fn index_of(&self, id: u64) -> Option<u32> {
        self.labels.binary_search(&id).ok().map(|i| i as u32)
    }

    /// The successors of dense node `v`.
    #[inline]
    pub fn successors(&self, v: u32) -> &[u32] {
        &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Out-degree of dense node `v`.
    #[inline]
    pub fn out_degree(&self, v: u32) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// `true` when `v` has an edge to itself.
    pub fn has_self_loop(&self, v: u32) -> bool {
        self.successors(v).contains(&v)
    }

    /// Iterates over all edges as dense `(source, target)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.node_count() as u32)
            .flat_map(move |v| self.successors(v).iter().map(move |&t| (v, t)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = DenseGraph::from_edges(&[]);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn renumbering_is_dense_and_order_preserving() {
        // Sparse 64-bit labels typical of dictionary ids.
        let big = 1u64 << 32;
        let g = DenseGraph::from_edges(&[(big + 10, big + 500), (big + 500, big + 3)]);
        assert_eq!(g.node_count(), 3);
        // Labels are sorted, indices are dense 0..n.
        assert_eq!(g.label(0), big + 3);
        assert_eq!(g.label(1), big + 10);
        assert_eq!(g.label(2), big + 500);
        assert_eq!(g.index_of(big + 500), Some(2));
        assert_eq!(g.index_of(big + 4), None);
    }

    #[test]
    fn adjacency_and_degrees() {
        let g = DenseGraph::from_edges(&[(1, 2), (1, 3), (2, 3), (3, 3)]);
        let n1 = g.index_of(1).unwrap();
        let n3 = g.index_of(3).unwrap();
        assert_eq!(g.out_degree(n1), 2);
        assert_eq!(g.out_degree(n3), 1);
        assert!(g.has_self_loop(n3));
        assert!(!g.has_self_loop(n1));
        let succ_labels: Vec<u64> = g.successors(n1).iter().map(|&t| g.label(t)).collect();
        assert_eq!(succ_labels, vec![2, 3]);
    }

    #[test]
    fn symmetric_pairs_add_every_reverse_edge() {
        let g = DenseGraph::from_pairs(&[1, 2, 2, 3], true);
        let mut edges: Vec<(u64, u64)> = g.edges().map(|(s, t)| (g.label(s), g.label(t))).collect();
        edges.sort_unstable();
        assert_eq!(edges, vec![(1, 2), (2, 1), (2, 3), (3, 2)]);
    }

    #[test]
    fn parallel_edges_are_kept() {
        let g = DenseGraph::from_edges(&[(5, 6), (5, 6)]);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.out_degree(g.index_of(5).unwrap()), 2);
    }

    #[test]
    fn edges_iterator_round_trips() {
        let input = vec![(10u64, 20u64), (20, 30), (30, 10)];
        let g = DenseGraph::from_edges(&input);
        let mut recovered: Vec<(u64, u64)> =
            g.edges().map(|(s, t)| (g.label(s), g.label(t))).collect();
        recovered.sort_unstable();
        let mut expected = input;
        expected.sort_unstable();
        assert_eq!(recovered, expected);
    }
}
