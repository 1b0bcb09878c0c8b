//! Nuutila-style transitive closure, emitted as a sorted flat pair array.
//!
//! This is the closure pipeline of section 4.1 of the paper, over **one**
//! dense numbering of the whole edge list:
//!
//! 1. renumber the nodes densely in label order and build the CSR graph
//!    ([`DenseGraph::from_pairs`]);
//! 2. detect strongly connected components (Tarjan, which also yields the
//!    reverse topological order of the condensation);
//! 3. compute each component's reachable set — the members and reachable
//!    sets of its successor components — as a sorted run of dense node
//!    indices, successors first, all runs in one arena;
//! 4. emit, source node by source node in dense order, the labels of the
//!    source's reachable set in dense order.
//!
//! Dense order is label order, so step 4 writes the closure ⟨s,o⟩-sorted
//! and duplicate-free by construction: no tuple vector, no comparison sort
//! of the output. A weakly connected component needs no graph of its own —
//! reachability never leaves one — so the single numbering replaces the
//! per-component split.

use crate::graph::DenseGraph;
use crate::scc::{tarjan_scc, SccDecomposition};

/// The transitive closure of the directed graph given as a flat `[s0, o0,
/// s1, o1, …]` edge array over arbitrary 64-bit identifiers, in any order
/// and with repeats allowed; with `symmetric`, every edge also stands for
/// its reverse (the closure of the symmetrized graph).
///
/// The result is a flat pair array, sorted on ⟨s,o⟩ and duplicate-free,
/// holding every pair `(x, y)` such that `y` is reachable from `x` by a
/// path of **one or more** edges — the input edges included. Nodes inside
/// a cycle (or with a self-loop) reach themselves, so reflexive pairs
/// appear exactly for those nodes, matching the semantics of applying
/// `SCM-SCO` / `PRP-TRP` to a fixed point.
///
/// ```
/// use inferray_closure::transitive_closure_pairs;
/// assert_eq!(transitive_closure_pairs(&[2, 3, 1, 2], false), vec![1, 2, 1, 3, 2, 3]);
/// assert_eq!(transitive_closure_pairs(&[1, 2], true), vec![1, 1, 1, 2, 2, 1, 2, 2]);
/// ```
///
/// # Panics
/// Panics if `pairs` has odd length.
pub fn transitive_closure_pairs(pairs: &[u64], symmetric: bool) -> Vec<u64> {
    let graph = DenseGraph::from_pairs(pairs, symmetric);
    let scc = tarjan_scc(&graph);
    let reach = ReachSets::new(&graph, &scc);
    let labels = graph.labels();
    let of = |u: usize| reach.of(scc.component_of[u] as usize);
    let total: usize = (0..labels.len()).map(|u| of(u).len()).sum();
    let mut closed = Vec::with_capacity(2 * total);
    for (u, &from) in labels.iter().enumerate() {
        closed.extend(of(u).iter().flat_map(|&v| [from, labels[v as usize]]));
    }
    closed
}

/// [`transitive_closure_pairs`] over `(source, target)` tuples: the same
/// closure, as a sorted, duplicate-free tuple vector.
///
/// ```
/// use inferray_closure::transitive_closure;
/// let closed = transitive_closure(&[(1, 2), (2, 3)]);
/// assert_eq!(closed, vec![(1, 2), (1, 3), (2, 3)]);
/// ```
pub fn transitive_closure(edges: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let pairs: Vec<u64> = edges.iter().flat_map(|&(s, o)| [s, o]).collect();
    transitive_closure_pairs(&pairs, false)
        .as_chunks::<2>()
        .0
        .iter()
        .map(|&[s, o]| (s, o))
        .collect()
}

/// Like [`transitive_closure`], but returns only the pairs **not** present in
/// the input edge list — i.e. the triples the reasoner must add.
pub fn transitive_closure_new_pairs(edges: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let closed = transitive_closure(edges);
    let mut existing: Vec<(u64, u64)> = edges.to_vec();
    existing.sort_unstable();
    existing.dedup();
    closed
        .into_iter()
        .filter(|pair| existing.binary_search(pair).is_err())
        .collect()
}

/// Every component's reachable set, as an ascending run of dense node
/// indices; the runs lie in one arena in component order.
struct ReachSets {
    arena: Vec<u32>,
    /// Where each component's run starts (one more entry than components).
    starts: Vec<usize>,
}

impl ReachSets {
    /// Computes the runs in component order — reverse topological order,
    /// so a successor's run is always complete before it is read. A
    /// component reaches the members and the reachable set of each
    /// successor component, and itself when it is cyclic: more than one
    /// member, or an edge from a member back into it (a self-loop).
    fn new(graph: &DenseGraph, scc: &SccDecomposition) -> Self {
        const NONE: u32 = u32::MAX;
        let components = scc.component_count();
        let mut sets = ReachSets {
            arena: Vec::new(),
            starts: Vec::with_capacity(components + 1),
        };
        sets.starts.push(0);
        // The last component that collected a node / visited a successor
        // component: the union needs no clearing between components.
        let mut node_seen = vec![NONE; graph.node_count()];
        let mut component_seen = vec![NONE; components];
        let mut run: Vec<u32> = Vec::new();
        for c in 0..components {
            let mark = c as u32;
            let members = scc.members(c);
            let mut cyclic = members.len() > 1;
            run.clear();
            let mut collect = |nodes: &[u32], run: &mut Vec<u32>| {
                for &w in nodes {
                    if node_seen[w as usize] != mark {
                        node_seen[w as usize] = mark;
                        run.push(w);
                    }
                }
            };
            for &u in members {
                for &v in graph.successors(u) {
                    let d = scc.component_of[v as usize];
                    if d == mark {
                        cyclic = true;
                    } else if component_seen[d as usize] != mark {
                        component_seen[d as usize] = mark;
                        collect(scc.members(d as usize), &mut run);
                        collect(sets.of(d as usize), &mut run);
                    }
                }
            }
            if cyclic {
                collect(members, &mut run);
            }
            run.sort_unstable();
            sets.arena.extend_from_slice(&run);
            sets.starts.push(sets.arena.len());
        }
        sets
    }

    /// The reachable set of component `c`, ascending.
    fn of(&self, c: usize) -> &[u32] {
        &self.arena[self.starts[c]..self.starts[c + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::bfs_closure;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn empty_input() {
        assert!(transitive_closure(&[]).is_empty());
        assert!(transitive_closure_new_pairs(&[]).is_empty());
    }

    #[test]
    fn single_edge() {
        assert_eq!(transitive_closure(&[(1, 2)]), vec![(1, 2)]);
        assert!(transitive_closure_new_pairs(&[(1, 2)]).is_empty());
    }

    #[test]
    fn chain_produces_quadratic_closure() {
        // Chain of n nodes → n(n-1)/2 closure pairs.
        let n = 50u64;
        let edges: Vec<(u64, u64)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let closed = transitive_closure(&edges);
        assert_eq!(closed.len(), (n * (n - 1) / 2) as usize);
        assert!(closed.contains(&(0, n - 1)));
        assert!(!closed.contains(&(n - 1, 0)));
        // New pairs = closure minus the original n-1 edges.
        let new = transitive_closure_new_pairs(&edges);
        assert_eq!(new.len(), closed.len() - (n as usize - 1));
    }

    #[test]
    fn paper_example_subclass_chain() {
        // human ⊑ mammal ⊑ animal ⇒ human ⊑ animal is the only new pair.
        let human = 100;
        let mammal = 200;
        let animal = 300;
        let new = transitive_closure_new_pairs(&[(human, mammal), (mammal, animal)]);
        assert_eq!(new, vec![(human, animal)]);
    }

    #[test]
    fn cycle_members_reach_everything_including_themselves() {
        let closed = transitive_closure(&[(1, 2), (2, 3), (3, 1)]);
        // All 9 ordered pairs over {1,2,3}.
        assert_eq!(closed.len(), 9);
        assert!(closed.contains(&(1, 1)));
        assert!(closed.contains(&(3, 2)));
    }

    #[test]
    fn self_loop_only_adds_the_reflexive_pair() {
        let closed = transitive_closure(&[(5, 5), (5, 6)]);
        assert_eq!(closed, vec![(5, 5), (5, 6)]);
    }

    #[test]
    fn acyclic_nodes_do_not_reach_themselves() {
        let closed = transitive_closure(&[(1, 2), (2, 3)]);
        assert!(!closed.iter().any(|&(a, b)| a == b));
    }

    #[test]
    fn disjoint_components_are_closed_independently() {
        let closed = transitive_closure(&[(1, 2), (2, 3), (10, 11), (11, 12)]);
        assert!(closed.contains(&(1, 3)));
        assert!(closed.contains(&(10, 12)));
        assert!(!closed.contains(&(1, 12)));
        assert_eq!(closed.len(), 6);
    }

    #[test]
    fn diamond_dag() {
        let closed = transitive_closure(&[(1, 2), (1, 3), (2, 4), (3, 4)]);
        let expected: Vec<(u64, u64)> = vec![(1, 2), (1, 3), (1, 4), (2, 4), (3, 4)];
        assert_eq!(closed, expected);
    }

    #[test]
    fn duplicate_input_edges_are_harmless() {
        let closed = transitive_closure(&[(1, 2), (1, 2), (2, 3), (2, 3)]);
        assert_eq!(closed, vec![(1, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn cycle_with_tail_matches_bfs_oracle() {
        let edges = vec![(1u64, 2u64), (2, 3), (3, 1), (3, 4), (4, 5)];
        assert_eq!(transitive_closure(&edges), bfs_closure(&edges));
    }

    #[test]
    fn random_graphs_match_bfs_oracle() {
        let mut rng = StdRng::seed_from_u64(2024);
        for _ in 0..20 {
            let n_nodes = rng.gen_range(2..30u64);
            let n_edges = rng.gen_range(1..80usize);
            let edges: Vec<(u64, u64)> = (0..n_edges)
                .map(|_| (rng.gen_range(0..n_nodes), rng.gen_range(0..n_nodes)))
                .collect();
            assert_eq!(
                transitive_closure(&edges),
                bfs_closure(&edges),
                "mismatch on {edges:?}"
            );
        }
    }

    #[test]
    fn large_chain_scales() {
        let n = 2_000u64;
        let edges: Vec<(u64, u64)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let closed = transitive_closure(&edges);
        assert_eq!(closed.len(), (n * (n - 1) / 2) as usize);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_matches_bfs_oracle(edges in proptest::collection::vec((0u64..20, 0u64..20), 0..60)) {
            prop_assert_eq!(transitive_closure(&edges), bfs_closure(&edges));
        }

        #[test]
        fn prop_closure_is_transitive(edges in proptest::collection::vec((0u64..15, 0u64..15), 0..40)) {
            let closed = transitive_closure(&edges);
            let set: std::collections::HashSet<(u64, u64)> = closed.iter().copied().collect();
            for &(a, b) in &closed {
                for &(c, d) in &closed {
                    if b == c {
                        prop_assert!(set.contains(&(a, d)), "missing ({a},{d})");
                    }
                }
            }
        }
    }
}
