//! Strongly connected components — iterative Tarjan.
//!
//! Nuutila's closure needs (a) the SCC of every node and (b) the components
//! in **reverse topological order** of the condensation (a component is
//! produced only after every component reachable from it). Tarjan's
//! algorithm delivers exactly that order as a by-product. The implementation
//! is iterative (explicit stack) so that the deep `subClassOf` chains of the
//! Table 4 benchmark (25,000 nodes and more) cannot overflow the call stack.

use crate::graph::DenseGraph;

/// The SCC decomposition of a [`DenseGraph`].
#[derive(Debug, Clone)]
pub struct SccDecomposition {
    /// Component index of every dense node. Component indices are assigned
    /// in the order Tarjan completes them, i.e. **reverse topological
    /// order** of the condensation: if component `a` has an edge to
    /// component `b` (a ≠ b) then `b < a`.
    pub component_of: Vec<u32>,
    /// The members (dense node indices) of every component, ascending
    /// within a component, component after component.
    members: Vec<u32>,
    /// Where each component's members start in `members` (one more entry
    /// than there are components).
    starts: Vec<usize>,
}

impl SccDecomposition {
    /// Number of strongly connected components.
    pub fn component_count(&self) -> usize {
        self.starts.len() - 1
    }

    /// The members of component `c`, ascending.
    pub fn members(&self, c: usize) -> &[u32] {
        &self.members[self.starts[c]..self.starts[c + 1]]
    }
}

/// Computes the SCC decomposition of `graph` with an iterative Tarjan.
pub fn tarjan_scc(graph: &DenseGraph) -> SccDecomposition {
    let n = graph.node_count();
    const UNVISITED: u32 = u32::MAX;

    let mut index_of = vec![UNVISITED; n]; // discovery index
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut component_of = vec![UNVISITED; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut members: Vec<u32> = Vec::with_capacity(n);
    let mut starts: Vec<usize> = vec![0];
    let mut next_index = 0u32;

    // Explicit DFS frame: (node, next successor offset to examine).
    let mut call_stack: Vec<(u32, usize)> = Vec::new();

    for root in 0..n as u32 {
        if index_of[root as usize] != UNVISITED {
            continue;
        }
        call_stack.push((root, 0));
        while let Some(&mut (v, ref mut child_idx)) = call_stack.last_mut() {
            if *child_idx == 0 {
                // First visit of v.
                index_of[v as usize] = next_index;
                lowlink[v as usize] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v as usize] = true;
            }
            let successors = graph.successors(v);
            let mut recursed = false;
            while *child_idx < successors.len() {
                let w = successors[*child_idx];
                *child_idx += 1;
                if index_of[w as usize] == UNVISITED {
                    call_stack.push((w, 0));
                    recursed = true;
                    break;
                } else if on_stack[w as usize] {
                    lowlink[v as usize] = lowlink[v as usize].min(index_of[w as usize]);
                }
            }
            if recursed {
                continue;
            }
            // All successors examined: v is finished.
            call_stack.pop();
            if let Some(&(parent, _)) = call_stack.last() {
                lowlink[parent as usize] = lowlink[parent as usize].min(lowlink[v as usize]);
            }
            if lowlink[v as usize] == index_of[v as usize] {
                // v is the root of a component: pop it off the Tarjan stack.
                let component_index = (starts.len() - 1) as u32;
                let first = members.len();
                loop {
                    let w = stack.pop().expect("tarjan stack underflow");
                    on_stack[w as usize] = false;
                    component_of[w as usize] = component_index;
                    members.push(w);
                    if w == v {
                        break;
                    }
                }
                members[first..].sort_unstable();
                starts.push(members.len());
            }
        }
    }

    SccDecomposition {
        component_of,
        members,
        starts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scc_of(edges: &[(u64, u64)]) -> (DenseGraph, SccDecomposition) {
        let g = DenseGraph::from_edges(edges);
        let scc = tarjan_scc(&g);
        (g, scc)
    }

    #[test]
    fn empty_graph_has_no_components() {
        let (_, scc) = scc_of(&[]);
        assert_eq!(scc.component_count(), 0);
    }

    #[test]
    fn acyclic_chain_gives_singleton_components_in_reverse_topo_order() {
        // 1 → 2 → 3 → 4
        let (g, scc) = scc_of(&[(1, 2), (2, 3), (3, 4)]);
        assert_eq!(scc.component_count(), 4);
        // Reverse topological order: the sink (4) is finished first.
        let comp_of_label = |label: u64| scc.component_of[g.index_of(label).unwrap() as usize];
        assert!(comp_of_label(4) < comp_of_label(3));
        assert!(comp_of_label(3) < comp_of_label(2));
        assert!(comp_of_label(2) < comp_of_label(1));
    }

    #[test]
    fn cycle_collapses_into_single_component() {
        // 1 → 2 → 3 → 1, plus 3 → 4
        let (g, scc) = scc_of(&[(1, 2), (2, 3), (3, 1), (3, 4)]);
        assert_eq!(scc.component_count(), 2);
        let c1 = scc.component_of[g.index_of(1).unwrap() as usize];
        let c2 = scc.component_of[g.index_of(2).unwrap() as usize];
        let c3 = scc.component_of[g.index_of(3).unwrap() as usize];
        let c4 = scc.component_of[g.index_of(4).unwrap() as usize];
        assert_eq!(c1, c2);
        assert_eq!(c2, c3);
        assert_ne!(c1, c4);
        // Edge c1 → c4 in the condensation, so c4 comes first.
        assert!(c4 < c1);
        assert_eq!(scc.members(c1 as usize).len(), 3);
    }

    #[test]
    fn self_loop_is_its_own_component() {
        let (g, scc) = scc_of(&[(7, 7), (7, 8)]);
        assert_eq!(scc.component_count(), 2);
        let c7 = scc.component_of[g.index_of(7).unwrap() as usize];
        assert_eq!(scc.members(c7 as usize).len(), 1);
    }

    #[test]
    fn two_disjoint_cycles() {
        let (g, scc) = scc_of(&[(1, 2), (2, 1), (10, 11), (11, 10)]);
        assert_eq!(scc.component_count(), 2);
        assert_ne!(
            scc.component_of[g.index_of(1).unwrap() as usize],
            scc.component_of[g.index_of(10).unwrap() as usize]
        );
    }

    #[test]
    fn reverse_topological_property_holds_on_a_dag() {
        // Diamond: 1 → {2, 3} → 4
        let (g, scc) = scc_of(&[(1, 2), (1, 3), (2, 4), (3, 4)]);
        assert_eq!(scc.component_count(), 4);
        for (u, v) in g.edges() {
            let cu = scc.component_of[u as usize];
            let cv = scc.component_of[v as usize];
            if cu != cv {
                assert!(cv < cu, "edge {u}→{v} violates reverse topological order");
            }
        }
    }

    #[test]
    fn deep_chain_does_not_overflow_the_stack() {
        let n = 200_000u64;
        let edges: Vec<(u64, u64)> = (0..n).map(|i| (i, i + 1)).collect();
        let g = DenseGraph::from_edges(&edges);
        let scc = tarjan_scc(&g);
        assert_eq!(scc.component_count(), n as usize + 1);
    }

    #[test]
    fn every_node_belongs_to_exactly_one_component() {
        let edges = [(1u64, 2u64), (2, 3), (3, 1), (3, 4), (4, 5), (5, 4), (6, 6)];
        let (g, scc) = scc_of(&edges);
        let mut seen = vec![false; g.node_count()];
        for c in 0..scc.component_count() {
            for &m in scc.members(c) {
                assert!(!seen[m as usize], "node {m} in two components");
                seen[m as usize] = true;
            }
        }
        assert!(seen.into_iter().all(|s| s));
    }
}
