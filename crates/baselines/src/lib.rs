//! # inferray-baselines
//!
//! Competitor baselines for the Inferray benchmarks.
//!
//! The paper evaluates Inferray against RDFox (parallel hash-join datalog),
//! OWLIM-SE (RETE-flavoured iterative engine) and WebPIE (Hadoop). Those
//! systems are closed-source, JVM- or cluster-bound; this crate substitutes
//! them with two from-scratch engines that implement *the same rulesets over
//! the same encoded triples* but with the competing evaluation strategies the
//! paper contrasts against its sort-merge design (see README.md,
//! "Substitutions"):
//!
//! * [`HashJoinReasoner`] — an RDFox-style engine: triples in hash indexes
//!   (by predicate, by ⟨predicate,subject⟩, by ⟨predicate,object⟩, …),
//!   semi-naive datalog evaluation, duplicate elimination by hash-set
//!   membership. Joins are index nested-loop joins, i.e. data-dependent
//!   random accesses — exactly the access pattern the paper's Figures 7–8
//!   attribute RDFox's cache behaviour to.
//! * [`NaiveIterativeReasoner`] — a Sesame/OWLIM-style engine: the same rule
//!   interpreter, but *not* semi-naive: every iteration re-evaluates every
//!   rule against the full triple set and re-derives (then discards) every
//!   previously known conclusion, reproducing the duplicate explosion that
//!   §2.1 describes.
//! * [`BackwardChainer`] — the other side of the forward/backward trade-off
//!   the introduction discusses (QueryPIE, OBDA query rewriting): no
//!   materialization at all, every triple-pattern query is rewritten against
//!   the compiled ρdf schema hierarchies at query time.
//!
//! The first two engines interpret the rules from a declarative datalog encoding
//! ([`datalog`]) of Table 5, which is deliberately independent from the
//! sort-merge executors of `inferray-rules`: the integration tests check
//! that Inferray and the baselines reach byte-identical materializations,
//! which would not be a meaningful check if they shared executor code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backward;
pub mod datalog;
pub mod eval;
pub mod hash_join;
pub mod index;
pub mod naive;

pub use backward::BackwardChainer;
pub use hash_join::HashJoinReasoner;
pub use index::TripleIndex;
pub use naive::NaiveIterativeReasoner;
