//! The reasoner line-up of the benchmark tables.
//!
//! The paper compares Inferray, RDFox, OWLIM-SE and WebPIE. The reproduction
//! compares Inferray, the hash-join baseline (RDFox's strategy) and the
//! naive iterative baseline (OWLIM/Sesame's strategy); WebPIE's
//! Hadoop-on-disk design has no in-process equivalent and its column is
//! omitted (README.md, "Substitutions").

use inferray_baselines::{HashJoinReasoner, NaiveIterativeReasoner};
use inferray_core::InferrayReasoner;
use inferray_rules::{Fragment, Materializer};

/// The engines of one benchmark column set, in display order.
pub fn reasoners_for(fragment: Fragment, skip_naive: bool) -> Vec<Box<dyn Materializer>> {
    let mut engines: Vec<Box<dyn Materializer>> = vec![
        Box::new(InferrayReasoner::new(fragment)),
        Box::new(HashJoinReasoner::new(fragment)),
    ];
    if !skip_naive {
        engines.push(Box::new(NaiveIterativeReasoner::new(fragment)));
    }
    engines
}

/// Display names matching [`reasoners_for`]'s order.
pub fn reasoner_names(skip_naive: bool) -> Vec<&'static str> {
    if skip_naive {
        vec!["inferray", "hash-join"]
    } else {
        vec!["inferray", "hash-join", "naive-iterative"]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lineup_matches_names() {
        for skip in [false, true] {
            let engines = reasoners_for(Fragment::RdfsDefault, skip);
            let names = reasoner_names(skip);
            assert_eq!(engines.len(), names.len());
            for (engine, name) in engines.iter().zip(names) {
                assert_eq!(engine.name(), name);
            }
        }
    }
}
