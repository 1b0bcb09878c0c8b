//! Software memory-access profiling.
//!
//! Figures 7 and 8 of the paper report *hardware* counters (L1/LLC cache
//! misses, dTLB misses, page faults per inferred triple) measured with
//! `perf`. PMU counters are not available in the containers this
//! reproduction targets, so the benchmark harness substitutes a *software*
//! profile: each reasoner reports how many words it touched sequentially,
//! how many it touched through data-dependent (random) addressing, how many
//! hash probes it performed and how much it allocated. Random accesses and
//! hash probes are the software-level causes of the cache/TLB misses the
//! paper measures, so the relative ordering between reasoners — the claim
//! Figures 7–8 support — is preserved. See README.md ("Substitutions").
//!
//! What Inferray's fixed point charges: the closure stage's reads and its
//! closed tables, the sort and merge passes of every table update and the
//! new pairs they allocate, and the ⟨o,s⟩ caches its rules read — each
//! charged in the iteration that **builds** it, for the pairs actually
//! sorted; a cache no rule asks for costs nothing. The first iteration
//! reads the store itself as its frontier: no copy is allocated, so none
//! is charged.

use std::fmt;
use std::ops::AddAssign;

/// Coarse-grained counters of a reasoner run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessProfile {
    /// 64-bit words read or written through sequential scans (array walks,
    /// sort-merge joins, histogram passes).
    pub sequential_words: u64,
    /// 64-bit words read or written through data-dependent addressing
    /// (pointer chasing, per-key bucket jumps, binary-search probes).
    pub random_words: u64,
    /// Hash-table probes (lookups and insertions), the dominant random
    /// access pattern of the hash-join baseline.
    pub hash_probes: u64,
    /// 64-bit words allocated over the run (resizes included).
    pub allocated_words: u64,
}

impl AccessProfile {
    /// An all-zero profile.
    pub fn new() -> Self {
        AccessProfile::default()
    }

    /// Records `n` sequentially accessed words.
    #[inline]
    pub fn sequential(&mut self, n: u64) {
        self.sequential_words += n;
    }

    /// Records `n` randomly accessed words.
    #[inline]
    pub fn random(&mut self, n: u64) {
        self.random_words += n;
    }

    /// Records `n` hash probes (each probe also counts as a random word).
    #[inline]
    pub fn hash_probe(&mut self, n: u64) {
        self.hash_probes += n;
        self.random_words += n;
    }

    /// Records an allocation of `n` words.
    #[inline]
    pub fn allocate(&mut self, n: u64) {
        self.allocated_words += n;
    }

    /// Total words touched.
    pub fn total_words(&self) -> u64 {
        self.sequential_words + self.random_words
    }

    /// Fraction of touched words that were accessed randomly — the quantity
    /// that correlates with the cache/TLB miss rates of Figures 7–8.
    pub fn random_fraction(&self) -> f64 {
        let total = self.total_words();
        if total == 0 {
            0.0
        } else {
            self.random_words as f64 / total as f64
        }
    }

    /// Normalizes the counters per inferred triple, the unit used by the
    /// paper's figures.
    pub fn per_triple(&self, inferred_triples: usize) -> PerTripleProfile {
        let n = inferred_triples.max(1) as f64;
        PerTripleProfile {
            sequential_words: self.sequential_words as f64 / n,
            random_words: self.random_words as f64 / n,
            hash_probes: self.hash_probes as f64 / n,
            allocated_words: self.allocated_words as f64 / n,
        }
    }
}

impl AddAssign for AccessProfile {
    fn add_assign(&mut self, rhs: Self) {
        self.sequential_words += rhs.sequential_words;
        self.random_words += rhs.random_words;
        self.hash_probes += rhs.hash_probes;
        self.allocated_words += rhs.allocated_words;
    }
}

impl fmt::Display for AccessProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seq={} rand={} probes={} alloc={} (random fraction {:.1}%)",
            self.sequential_words,
            self.random_words,
            self.hash_probes,
            self.allocated_words,
            self.random_fraction() * 100.0
        )
    }
}

/// [`AccessProfile`] normalized per inferred triple.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PerTripleProfile {
    /// Sequential words per inferred triple.
    pub sequential_words: f64,
    /// Random words per inferred triple.
    pub random_words: f64,
    /// Hash probes per inferred triple.
    pub hash_probes: f64,
    /// Allocated words per inferred triple.
    pub allocated_words: f64,
}

impl fmt::Display for PerTripleProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seq/triple={:.2} rand/triple={:.2} probes/triple={:.2} alloc/triple={:.2}",
            self.sequential_words, self.random_words, self.hash_probes, self.allocated_words
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut p = AccessProfile::new();
        p.sequential(100);
        p.random(10);
        p.hash_probe(5);
        p.allocate(50);
        assert_eq!(p.sequential_words, 100);
        assert_eq!(p.random_words, 15, "hash probes also count as random");
        assert_eq!(p.hash_probes, 5);
        assert_eq!(p.allocated_words, 50);
        assert_eq!(p.total_words(), 115);
    }

    #[test]
    fn random_fraction() {
        let mut p = AccessProfile::new();
        assert_eq!(p.random_fraction(), 0.0);
        p.sequential(75);
        p.random(25);
        assert!((p.random_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn per_triple_normalization_guards_against_zero() {
        let mut p = AccessProfile::new();
        p.sequential(10);
        let norm = p.per_triple(0);
        assert_eq!(norm.sequential_words, 10.0);
        let norm = p.per_triple(5);
        assert_eq!(norm.sequential_words, 2.0);
    }

    #[test]
    fn add_assign_merges_profiles() {
        let mut a = AccessProfile::new();
        a.sequential(1);
        let mut b = AccessProfile::new();
        b.hash_probe(2);
        b.allocate(3);
        a += b;
        assert_eq!(a.sequential_words, 1);
        assert_eq!(a.hash_probes, 2);
        assert_eq!(a.random_words, 2);
        assert_eq!(a.allocated_words, 3);
    }

    #[test]
    fn display_formats() {
        let mut p = AccessProfile::new();
        p.sequential(3);
        p.random(1);
        let text = p.to_string();
        assert!(text.contains("seq=3"));
        assert!(text.contains("25.0%"));
        let per = p.per_triple(2);
        assert!(per.to_string().contains("seq/triple=1.50"));
    }
}
