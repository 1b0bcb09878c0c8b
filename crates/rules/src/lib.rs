//! # inferray-rules
//!
//! The rule engine of the Inferray reasoner: the catalog of the 38 rules of
//! Table 5 of the paper, the rulesets (ρDF, RDFS default/full, RDFS-Plus
//! default/full), and the kernels that apply each rule to a pair of triple
//! stores (*main*, *new*) in the semi-naive style of Algorithm 1.
//!
//! Every rule, built-in or custom, runs its text
//! ([`analysis::apply_compiled`]) through the kernel its shape picks
//! ([`analysis::lowering()`]) — the classes of §4.4 as shapes: merge join
//! (α), table scan (γ/δ), transitive closure (θ), substitution (same-as),
//! self join (functional properties), nested-loop join for the rest.
//!
//! The kernels are deliberately free of any fixed-point logic: they take
//! immutable references to the two stores and append raw `⟨s,o⟩` pairs to a
//! per-rule [`InferredBuffer`](inferray_store::InferredBuffer). Orchestration
//! (the iteration, the parallel dispatch, the merge of Figure 5 and the
//! dedicated transitive-closure stage) lives in `inferray-core`; the naive
//! and hash-join baselines reuse the same catalog and rulesets so that every
//! engine in the benchmark implements exactly the same logic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod catalog;
pub mod context;
pub mod executors;
pub mod materializer;
pub mod ruleset;
pub mod shapes;
pub mod support;
mod syntax;

pub use catalog::{Membership, RuleId, RuleInfo, CATALOG};
pub use context::RuleContext;
pub use materializer::{InferenceStats, Materializer};
pub use ruleset::{Fragment, RuleRef, Ruleset};
pub use support::Survivors;
