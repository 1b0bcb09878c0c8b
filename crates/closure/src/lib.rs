//! # inferray-closure
//!
//! Transitive closure of directed graphs, reproducing section 4.1 of the
//! Inferray paper (Subercaze et al., VLDB 2016).
//!
//! The paper observes that computing transitive closures (of
//! `rdfs:subClassOf`, `rdfs:subPropertyOf`, `owl:sameAs` and any property
//! declared `owl:TransitiveProperty`) with iterative rule application is what
//! kills fixed-point reasoners: every iteration re-derives a quadratic number
//! of duplicates. Inferray instead translates the relevant property table
//! into a dedicated graph layout *before* the rule loop and runs **Nuutila's
//! algorithm** ([`nuutila`]):
//!
//! 1. renumber the nodes of the whole edge list densely, in label order,
//!    into one CSR graph ([`graph`]);
//! 2. detect strongly connected components (iterative Tarjan — emitted in
//!    reverse topological order of the condensation) ([`scc`]);
//! 3. walk the condensation in that order, computing each component's
//!    reachable set as the union of its successors' members and reachable
//!    sets — sorted runs of dense node indices in one arena;
//! 4. emit each node's reachable set, node by node in dense order. Dense
//!    order is label order, so [`transitive_closure_pairs`] returns the
//!    closure as a flat ⟨s,o⟩-sorted, duplicate-free pair array — the
//!    layout of a property table — with no sort of its output.
//!
//! [`naive`] contains two reference implementations: a BFS-per-node oracle
//! used by the tests, and the semi-naive iterative fixed-point closure that
//! stands in for the "apply the transitivity rule until nothing changes"
//! strategy of the baseline reasoners (Table 4 of the paper).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod naive;
pub mod nuutila;
pub mod scc;

pub use naive::{bfs_closure, iterative_closure};
pub use nuutila::{transitive_closure, transitive_closure_new_pairs, transitive_closure_pairs};
