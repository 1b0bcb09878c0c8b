//! The common interface every reasoner in the benchmark implements.
//!
//! The paper compares Inferray against systems with very different internals
//! (hash-join datalog, RETE, Hadoop). The reproduction mirrors that through a
//! single trait: a [`Materializer`] receives a finalized
//! [`TripleStore`] and computes the full
//! materialization in place, reporting uniform statistics. The benchmark
//! harness drives Inferray and the baselines through this trait only.

use inferray_store::{AccessProfile, TripleStore};
use std::time::Duration;

/// Statistics of one materialization run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct InferenceStats {
    /// Triples in the store before inference.
    pub input_triples: usize,
    /// Triples in the store after inference (input + inferred).
    pub output_triples: usize,
    /// Fixed-point iterations executed (1 for single-pass strategies).
    pub iterations: usize,
    /// Raw pairs produced by rule executors before any duplicate
    /// elimination (the quantity whose growth the paper's §2.1 discusses).
    pub derived_raw: usize,
    /// Duplicates eliminated (within-iteration and against the main store).
    pub duplicates_removed: usize,
    /// Wall-clock time of the run.
    pub duration: Duration,
    /// Software memory-access profile (Figures 7–8 substitution).
    pub profile: AccessProfile,
}

impl InferenceStats {
    /// Triples added by inference.
    pub fn inferred_triples(&self) -> usize {
        self.output_triples.saturating_sub(self.input_triples)
    }

    /// Inference throughput in triples per second (inferred / duration).
    pub fn triples_per_second(&self) -> f64 {
        let secs = self.duration.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.inferred_triples() as f64 / secs
        }
    }
}

/// A forward-chaining reasoner that materializes a ruleset over a store.
pub trait Materializer {
    /// Short engine name used in benchmark tables (e.g. `"inferray"`).
    fn name(&self) -> &'static str;

    /// Runs materialization in place: after the call, `store` contains the
    /// input triples plus everything the engine's ruleset derives.
    fn materialize(&mut self, store: &mut TripleStore) -> InferenceStats;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inferred_and_throughput() {
        let stats = InferenceStats {
            input_triples: 100,
            output_triples: 400,
            iterations: 3,
            derived_raw: 1000,
            duplicates_removed: 700,
            duration: Duration::from_millis(500),
            profile: AccessProfile::default(),
        };
        assert_eq!(stats.inferred_triples(), 300);
        assert!((stats.triples_per_second() - 600.0).abs() < 1e-9);
    }

    #[test]
    fn zero_duration_gives_zero_throughput() {
        let stats = InferenceStats::default();
        assert_eq!(stats.triples_per_second(), 0.0);
        assert_eq!(stats.inferred_triples(), 0);
    }
}
