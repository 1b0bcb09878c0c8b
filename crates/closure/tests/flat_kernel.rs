//! The flat closure kernel against the BFS oracle: for any edge list —
//! cycles, self-loops, repeated edges, many weakly connected components,
//! sparse 64-bit labels — and with or without symmetrizing,
//! [`transitive_closure_pairs`] returns exactly the pairs [`bfs_closure`]
//! finds, ⟨s,o⟩-sorted and duplicate-free, and [`transitive_closure`] is
//! that array read as tuples.

use inferray_closure::{bfs_closure, transitive_closure, transitive_closure_pairs};
use proptest::prelude::*;

/// Labels straddle 2³², where property identifiers end and resource
/// identifiers begin, and are spread so that dense order must be found by
/// the renumbering.
fn label(node: u64) -> u64 {
    (1 << 32) - 40 + node * 7
}

/// Edges over up to `nodes` nodes, split into `components` disjoint blocks
/// of labels; an edge may repeat or loop.
fn edges() -> impl Strategy<Value = Vec<(u64, u64)>> {
    let picks = proptest::collection::vec((0u64..1000, 0u64..1000, 0u64..1000), 0..80);
    (1u64..6, 2u64..24, picks).prop_map(|(components, nodes, picks)| {
        picks
            .into_iter()
            .map(|(c, a, b)| {
                let block = (c % components) * 100;
                (label(block + a % nodes), label(block + b % nodes))
            })
            .collect()
    })
}

fn flat(edges: &[(u64, u64)]) -> Vec<u64> {
    edges.iter().flat_map(|&(s, o)| [s, o]).collect()
}

fn tuples(pairs: &[u64]) -> Vec<(u64, u64)> {
    pairs.chunks_exact(2).map(|p| (p[0], p[1])).collect()
}

proptest! {
    #[test]
    fn the_flat_kernel_is_the_bfs_closure(edges in edges(), symmetric in any::<bool>()) {
        let mut oracle_input = edges.clone();
        if symmetric {
            oracle_input.extend(edges.iter().map(|&(s, o)| (o, s)));
        }
        let closed = transitive_closure_pairs(&flat(&edges), symmetric);
        let read = tuples(&closed);
        prop_assert!(read.windows(2).all(|w| w[0] < w[1]), "sorted, no repeat");
        prop_assert_eq!(&read, &bfs_closure(&oracle_input));
        if !symmetric {
            prop_assert_eq!(transitive_closure(&edges), read);
        }
    }

    /// Input order and repeats do not matter: a shuffled, doubled edge list
    /// closes to the same bytes.
    #[test]
    fn edge_order_and_repeats_do_not_change_the_bytes(edges in edges(), rotate in 0usize..80) {
        let mut shuffled = edges.clone();
        shuffled.reverse();
        if !shuffled.is_empty() {
            let by = rotate % shuffled.len();
            shuffled.rotate_left(by);
        }
        shuffled.extend_from_slice(&edges);
        prop_assert_eq!(
            transitive_closure_pairs(&flat(&shuffled), false),
            transitive_closure_pairs(&flat(&edges), false)
        );
    }
}

#[test]
fn empty_input_closes_to_nothing() {
    assert!(transitive_closure_pairs(&[], false).is_empty());
    assert!(transitive_closure_pairs(&[], true).is_empty());
}

#[test]
fn a_symmetric_chain_is_one_clique_with_its_loops() {
    let closed = transitive_closure_pairs(&[label(1), label(2), label(2), label(3)], true);
    let expected: Vec<(u64, u64)> = (1..4)
        .flat_map(|a| (1..4).map(move |b| (label(a), label(b))))
        .collect();
    assert_eq!(tuples(&closed), expected);
}

#[test]
fn a_long_chain_closes_to_its_triangle() {
    let n = 1_500u64;
    let edges: Vec<(u64, u64)> = (0..n - 1).map(|i| (label(i + 1), label(i))).collect();
    let closed = transitive_closure_pairs(&flat(&edges), false);
    assert_eq!(closed.len() as u64, n * (n - 1));
    assert_eq!(
        tuples(&closed[..4]),
        vec![(label(1), label(0)), (label(2), label(0))]
    );
}
